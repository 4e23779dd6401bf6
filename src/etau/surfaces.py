"""Canonical minimal surfaces: vertical catenoids, asymptotic invariant
surfaces, and the foliation they generate.

Both families are bigraphs glued along a horizontal curve where the profile
integrand has an inverse square-root singularity.  All quadrature is done in
the regularizing variable sigma = sqrt(distance to the gluing value), with
the integrand factored so it evaluates stably down to sigma = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .core import (
    BOUNDARY_MARGIN,
    AmbientPoint,
    ConvergenceError,
    InvalidPointError,
    Model,
    ModelMismatchError,
    ParameterError,
    chord_distances,
    convert_coords_arrays,
    frame_components_arrays,
    require_finite,
)
from .isometries import (
    AmbientIsometry,
    apply_to_coords,
    axis_translation_isometry,
    halfplane_reflection,
    inverse,
    scale_isometry,
)
from .quadrature import CHUNK_NODES, PANEL_NODES, composite_gauss, cumulative_integral

# Panels of a profile table, and off-node values per Gauss batch (see
# _ProfileTable).
_TABLE_PANELS = 64
_TABLE_CHUNK = CHUNK_NODES // PANEL_NODES
# Relative widening of _ProfileTable.bounds: far above the 1e-13 settle
# tolerance of the node values and the rounding of one off-node panel.
_BRACKET_MARGIN = 1e-9
# Safeguarded Newton for catenoid_profile_inverse: step budget and residual
# tolerance relative to max(1, height).
_INVERSE_BUDGET = 60
_INVERSE_TOL = 1e-14
# Smallest normal float64: the profile integrands take their limit below it.
_TINY = np.finfo(float).tiny
# Wedge-angle step of transversality_window_check's sampling.
_WINDOW_THETA_STEP = 1e-4


class Sheet(Enum):
    PLUS = "plus"
    MINUS = "minus"
    BOTH = "both"


@dataclass(frozen=True)
class CatenoidSpec:
    """Rotational minimal annulus in the disc model; d is the necksize parameter."""

    tau: float
    d: float

    def __post_init__(self) -> None:
        require_finite("catenoid", tau=self.tau, d=self.d)
        if not self.d > 0.0:
            raise ParameterError(f"catenoid necksize parameter must be positive, got {self.d}")


@dataclass(frozen=True)
class InvariantSurfaceSpec:
    """Surface invariant under translation along the ideal geodesic at foot s.

    Parametrized over the wedge 0 < theta < arcsin(1/d) at the ideal point s
    in the half-space model; requires d > 1.
    """

    tau: float
    d: float
    s: float = 1.0
    side: Sheet = Sheet.BOTH
    mirror: bool = False

    def __post_init__(self) -> None:
        require_finite("invariant surface", tau=self.tau, d=self.d, s=self.s)
        if not self.d > 1.0:
            raise ParameterError(f"invariant surface needs d > 1, got {self.d}")
        if not self.s > 0.0:
            raise ParameterError(f"axis foot must be positive, got {self.s}")


@dataclass(frozen=True)
class LeafSpec:
    """Leaf of the scaled family: scale * (axis translation of the invariant surface)."""

    tau: float
    d: float
    s: float = 1.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        require_finite("leaf", tau=self.tau, d=self.d, s=self.s, scale=self.scale)
        if not self.d > 1.0:
            raise ParameterError(f"leaf needs d > 1, got {self.d}")
        if not self.s > 0.0:
            raise ParameterError(f"axis foot must be positive, got {self.s}")
        if not self.scale > 0.0:
            raise ParameterError(f"leaf scale must be positive, got {self.scale}")


# -- catenoid profile ---------------------------------------------------------


def catenoid_neck_radius(spec: CatenoidSpec) -> float:
    """Hyperbolic distance from the axis to the neck circle: arcsinh(d)."""
    return math.asinh(spec.d)


def _catenoid_sigma_integrand(tau: float, d: float):
    root = math.sqrt(1.0 + d * d)
    rmin = math.asinh(d)
    limit = 2.0 * d * math.sqrt(1.0 + 4.0 * tau * tau * math.tanh(0.5 * rmin) ** 2) / math.sqrt(
        2.0 * d * root
    )

    def g(sigma):
        sigma = np.asarray(sigma, dtype=float)
        s2 = sigma * sigma
        rho = rmin + s2
        # sinh(rho) -+ d, factored so the difference is exact near sigma = 0
        lower = 2.0 * d * np.sinh(0.5 * s2) ** 2 + root * np.sinh(s2)
        upper = 2.0 * d * np.cosh(0.5 * s2) ** 2 + root * np.sinh(s2)
        slope = d * np.sqrt(1.0 + 4.0 * tau * tau * np.tanh(0.5 * rho) ** 2)
        # where s2 underflows, g is its limit to double precision
        out = np.full_like(sigma, limit)
        return np.divide(2.0 * sigma * slope, np.sqrt(lower * upper), out=out, where=s2 >= _TINY)

    return g


def catenoid_profile(spec: CatenoidSpec, rho):
    """Height of the upper sheet over hyperbolic distance rho from the axis.

    Zero at the neck radius; rho below the neck radius is outside the domain.
    Accepts a float or an array of radii.
    """
    rmin = catenoid_neck_radius(spec)
    rho = np.asarray(rho, dtype=float)
    if not np.all(rho >= rmin - 1e-14):
        raise ParameterError(f"rho={rho} is below the neck radius {rmin}")
    out = _catenoid_table(spec.tau, spec.d)(np.sqrt(np.maximum(rho - rmin, 0.0)))
    return float(out) if out.ndim == 0 else out


def catenoid_profile_derivative(spec: CatenoidSpec, rho: float) -> float:
    """Profile slope d sqrt(1 + 4 tau^2 tanh^2(rho/2)) / sqrt(sinh^2 rho - d^2)."""
    rmin = catenoid_neck_radius(spec)
    if not rho > rmin:
        raise ParameterError("profile slope is defined only above the neck radius")
    num = spec.d * math.sqrt(1.0 + 4.0 * spec.tau ** 2 * math.tanh(0.5 * rho) ** 2)
    return num / math.sqrt(math.sinh(rho) ** 2 - spec.d ** 2)


def catenoid_height(spec: CatenoidSpec) -> float:
    """Total vertical extent of the catenoid (both sheets).

    The profile integral converges as rho -> infinity.  The profile table
    runs to the truncation radius rho*, and its limit adds the tail beyond,
    bounded by 2 d sqrt(1 + 4 tau^2) e^(-rho*).
    """
    return 2.0 * _catenoid_table(spec.tau, spec.d).limit


def catenoid_profile_inverse(spec: CatenoidSpec, height):
    """Radius rho with catenoid_profile(spec, rho) = height, elementwise for
    an array of heights.

    Safeguarded Newton iteration in sigma = sqrt(rho - rho_min) on the
    profile table T, whose derivative is the integrand g(sigma); a step that
    leaves the bracket [lo, hi] of sigma values known to straddle the root,
    at first the table's span [0, sigma*], is replaced by bisection.  Each
    element keeps its own bracket, tolerance and step budget, and the table
    evaluates each alone, so no element's bits depend on the others.
    Raises ConvergenceError when an element's budget runs out.
    """
    heights = np.asarray(height, dtype=float)
    flat = heights.reshape(-1)
    if not np.all(flat >= 0.0):
        raise ParameterError("profile heights are nonnegative")
    unattained = flat[2.0 * flat >= catenoid_height(spec)]
    if unattained.size:
        raise ParameterError(f"height {unattained[0]} is not attained by the profile")
    rmin = catenoid_neck_radius(spec)
    table = _catenoid_table(spec.tau, spec.d)
    rho, todo = np.empty(flat.size), np.arange(flat.size)
    sigma, lo, hi = np.zeros(flat.size), np.zeros(flat.size), np.full(flat.size, table.sigma_max)
    for _ in range(_INVERSE_BUDGET):
        target = flat[todo]
        residual = table(sigma) - target
        below = residual <= 0.0
        lo, hi = np.where(below, sigma, lo), np.where(below, hi, sigma)
        done = np.abs(residual) <= _INVERSE_TOL * np.maximum(1.0, target)
        rho[todo[done]] = rmin + sigma[done] * sigma[done]
        todo, sigma, lo, hi, residual = (a[~done] for a in (todo, sigma, lo, hi, residual))
        if not todo.size:
            return float(rho[0]) if heights.ndim == 0 else rho.reshape(heights.shape)
        step = sigma - residual / table(sigma, 1)
        sigma = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
    raise ConvergenceError(
        f"profile inversion for height {flat[todo[0]]} did not converge in {_INVERSE_BUDGET} steps"
    )


class _ProfileTable:
    """Integral T(sigma) of a profile integrand g from 0, on [0, sigma_max].

    The nodes of _TABLE_PANELS equal panels carry the cumulative_integral
    values; T(sigma) is the value at the nearest node plus, off the nodes,
    one composite_gauss panel from that node to sigma, and T'(sigma) is
    g(sigma) itself.  Beyond sigma_max, T is its limit: the last node's value
    plus the given tail, the integral of g beyond sigma_max.

    The off-node panels are evaluated _TABLE_CHUNK at a time, so an array of
    any length holds at most CHUNK_NODES integrand nodes at once; each value
    is its own row of the panel sum, so chunking does not change it.

    bounds(sigma) brackets T(sigma) without evaluating g.  The nearest node k
    is within half a panel of sigma, and g >= 0 on [0, sigma_max], so T
    increases and the off-node panel (positive weights) lands between the
    values of the two nodes around sigma: k and k + 1 when sigma >= node k,
    k - 1 and k otherwise.  Both are widened by _BRACKET_MARGIN relative,
    which covers cumulative_integral's settle tolerance and the panel's
    rounding; beyond sigma_max the bracket is the limit itself.
    """

    def __init__(self, g, sigma_max: float, tail: float = 0.0) -> None:
        self._g = g
        self.sigma_max = sigma_max
        self._step = sigma_max / _TABLE_PANELS
        self._nodes = np.linspace(0.0, sigma_max, _TABLE_PANELS + 1)
        self._values = cumulative_integral(g, self._nodes)
        self.limit = float(self._values[-1]) + tail

    def __call__(self, sigma, nu: int = 0) -> np.ndarray:
        """T(sigma) for nu = 0, T'(sigma) = g(sigma) for nu = 1."""
        sigma = np.asarray(sigma, dtype=float)
        if nu == 1:
            return self._g(sigma)
        if nu != 0:
            raise ParameterError(f"profile tables have derivative orders 0 and 1, got {nu}")
        flat = sigma.reshape(-1)
        k = np.clip(np.rint(flat / self._step), 0, _TABLE_PANELS).astype(int)
        beyond = flat > self.sigma_max
        out = np.where(beyond, self.limit, self._values[k])
        off = np.flatnonzero((flat != self._nodes[k]) & ~beyond)
        for start in range(0, off.size, _TABLE_CHUNK):
            part = off[start : start + _TABLE_CHUNK]
            out[part] += composite_gauss(self._g, self._nodes[k[part]], flat[part], 1)
        return out.reshape(sigma.shape)

    def bounds(self, sigma) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (lo, hi) with lo <= self(sigma) <= hi, from the node values alone."""
        sigma = np.asarray(sigma, dtype=float)
        k = np.clip(np.rint(sigma / self._step), 0, _TABLE_PANELS).astype(int)
        # the node at or below sigma, among k - 1 and k
        j = np.clip(k - (sigma < self._nodes[k]), 0, _TABLE_PANELS - 1)
        beyond = sigma > self.sigma_max
        lo = np.where(beyond, self.limit, self._values[j])
        hi = np.where(beyond, self.limit, self._values[j + 1])
        lo -= _BRACKET_MARGIN * np.maximum(1.0, np.abs(lo))
        hi += _BRACKET_MARGIN * np.maximum(1.0, np.abs(hi))
        return lo, hi


@lru_cache(maxsize=32)
def _catenoid_table(tau: float, d: float) -> _ProfileTable:
    """Profile table of the catenoid on [0, sigma*], sigma* = sqrt(rho* - rho_min).

    With A = 2 d sqrt(1 + 4 tau^2), the profile beyond the truncation radius
    rho* = log(A 1e15) adds at most the tail A e^(-rho*) = 1e-15; the table's
    limit, read beyond sigma*, adds that tail, so it is half the height.
    """
    amp = 2.0 * d * math.sqrt(1.0 + 4.0 * tau * tau)
    rho_star = math.log(amp * 1e15)
    rmin = math.asinh(d)
    if not rho_star > rmin:
        raise ParameterError(f"necksize parameter {d} is too small to tabulate the profile")
    tail = amp * math.exp(-rho_star)
    return _ProfileTable(_catenoid_sigma_integrand(tau, d), math.sqrt(rho_star - rmin), tail)


# -- invariant surface profile ------------------------------------------------


def invariant_angle_max(d: float) -> float:
    """Opening angle arcsin(1/d) of the wedge the surface is a bigraph over."""
    if not d > 1.0:
        raise ParameterError(f"invariant surfaces need d > 1, got {d}")
    return math.asin(1.0 / d)


def _invariant_sigma_integrand(tau: float, d: float):
    theta_star = invariant_angle_max(d)
    root = math.sqrt(d * d - 1.0)
    cos_star_sq = 1.0 - 1.0 / (d * d)
    limit = 2.0 * d * math.sqrt(1.0 + 4.0 * tau * tau * cos_star_sq) / math.sqrt(2.0 * root)

    def g(sigma):
        sigma = np.asarray(sigma, dtype=float)
        s2 = sigma * sigma
        psi = theta_star - s2
        # 1 -+ d sin(psi), factored to avoid cancellation at sigma = 0
        lower = 2.0 * np.sin(0.5 * s2) ** 2 + root * np.sin(s2)
        upper = 2.0 * np.cos(0.5 * s2) ** 2 - root * np.sin(s2)
        slope = d * np.sqrt(1.0 + 4.0 * tau * tau * np.cos(psi) ** 2)
        # where s2 underflows, g is its limit to double precision
        out = np.full_like(sigma, limit)
        return np.divide(2.0 * sigma * slope, np.sqrt(lower * upper), out=out, where=s2 >= _TINY)

    return g


def invariant_height(d: float, tau: float) -> float:
    """Half height h(d): the profile integral over the whole wedge."""
    return float(_invariant_table(tau, d)(math.sqrt(invariant_angle_max(d))))


def invariant_height_substituted(d: float, tau: float) -> float:
    """h(d) through an independent algebraic substitution with a regular integrand."""
    if not d > 1.0:
        raise ParameterError(f"invariant surfaces need d > 1, got {d}")
    dd = d * d
    ttau = 4.0 * tau * tau

    def g(sigma: np.ndarray) -> np.ndarray:
        w = 1.0 - sigma * sigma
        num = dd * (1.0 + ttau) - ttau * w * w
        den = (dd - w * w) * (2.0 - sigma * sigma)
        return 2.0 * np.sqrt(num) / np.sqrt(den)

    return float(cumulative_integral(g, [0.0, 1.0])[-1])


def invariant_profile(spec: InvariantSurfaceSpec, theta):
    """Fiber height of the requested sheet over wedge angle theta.

    Both sheets vanish at the gluing angle arcsin(1/d); the plus sheet
    increases and the minus sheet decreases toward the wedge's edge.
    Accepts a float or an array of angles.
    """
    if spec.side is Sheet.BOTH:
        raise ParameterError("profile evaluation needs a specific sheet")
    theta_star = invariant_angle_max(spec.d)
    theta = np.asarray(theta, dtype=float)
    if not np.all((0.0 <= theta) & (theta <= theta_star + 1e-14)):
        raise ParameterError(f"theta={theta} outside [0, {theta_star}]")
    minus, plus = _invariant_profiles(spec.tau, spec.d, theta)
    out = plus if spec.side is Sheet.PLUS else minus
    return float(out) if out.ndim == 0 else out


def invariant_asymptotic_levels(spec: InvariantSurfaceSpec) -> tuple[float, float]:
    """Limit heights of the two sheets as theta -> 0, in (minus, plus) order."""
    h = invariant_height(spec.d, spec.tau)
    shift = 2.0 * spec.tau * invariant_angle_max(spec.d)
    return (-h + shift, h + shift)


def invariant_profile_inverse(spec: InvariantSurfaceSpec, value: float) -> float:
    """Angle theta where the requested sheet reaches the given fiber value."""
    if spec.side is Sheet.BOTH:
        raise ParameterError("profile inversion needs a specific sheet")
    require_finite("profile inversion", value=value)  # NaN fails every sign test below
    theta_star = invariant_angle_max(spec.d)
    lo, hi = 0.0, theta_star
    f_lo = invariant_profile(spec, lo) - value
    f_hi = invariant_profile(spec, hi) - value
    if f_lo * f_hi > 0.0:
        raise ParameterError(f"fiber value {value} not attained by the {spec.side.value} sheet")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if (invariant_profile(spec, mid) - value) * f_lo > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


@lru_cache(maxsize=32)
def _invariant_table(tau: float, d: float) -> _ProfileTable:
    return _ProfileTable(_invariant_sigma_integrand(tau, d), math.sqrt(invariant_angle_max(d)))


def _invariant_sigma_drift(tau: float, d: float, theta) -> tuple[np.ndarray, np.ndarray]:
    """Table variable sigma = sqrt(theta* - theta) of arrays of wedge angles,
    and the drift -2 tau (theta - theta*) both sheets add to +-T(sigma)."""
    theta_star = invariant_angle_max(d)
    theta = np.asarray(theta, dtype=float)
    return np.sqrt(np.clip(theta_star - theta, 0.0, None)), -2.0 * tau * (theta - theta_star)


def _invariant_profiles(tau: float, d: float, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Table-backed (minus, plus) profile values for arrays of wedge angles."""
    sigma, drift = _invariant_sigma_drift(tau, d, theta)
    tail = _invariant_table(tau, d)(sigma)
    return (-tail + drift, tail + drift)


# -- pointwise normal data ----------------------------------------------------


def normal_vertical_component(spec: InvariantSurfaceSpec, theta: float) -> float:
    """Vertical component of the upward unit normal over wedge angle theta."""
    theta_star = invariant_angle_max(spec.d)
    if not 0.0 < theta <= theta_star:
        raise ParameterError(f"theta={theta} outside (0, {theta_star}]")
    return float(_invariant_nu(spec.d, spec.tau, theta))


def _invariant_nu(d: float, tau: float, theta):
    """Normal vertical component sqrt(1 - d^2 sin^2) / sqrt(1 + 4 tau^2 cos^2)."""
    b = 1.0 - d * d * np.sin(theta) ** 2
    a = 1.0 + 4.0 * tau * tau * np.cos(theta) ** 2
    return np.sqrt(np.clip(b, 0.0, None)) / np.sqrt(a)


def tangent_vertical_components(spec: InvariantSurfaceSpec, theta: float) -> tuple[float, float]:
    """Vertical components of the unit tangents along and across the profile.

    Returns (profile direction, translation direction) for the requested
    sheet; the translation direction is shared by both sheets.
    """
    if spec.side is Sheet.BOTH:
        raise ParameterError("tangent components need a specific sheet")
    theta_star = invariant_angle_max(spec.d)
    if not 0.0 < theta <= theta_star:
        raise ParameterError(f"theta={theta} outside (0, {theta_star}]")
    a = 1.0 + 4.0 * spec.tau ** 2 * math.cos(theta) ** 2
    b = 1.0 - spec.d ** 2 * math.sin(theta) ** 2
    sign = -1.0 if spec.side is Sheet.PLUS else 1.0
    along = sign * spec.d * math.sqrt(a) * math.sin(theta) / math.sqrt(
        b + spec.d ** 2 * a * math.sin(theta) ** 2
    )
    across = -2.0 * spec.tau * math.cos(theta) / math.sqrt(a)
    return along, across


# -- transversality -----------------------------------------------------------

# Most ulps transversality_delta steps its rounded root down by.
_DELTA_STEP_DOWNS = 16


def _transversality_growth(h0: float, tau: float) -> float:
    """E = exp(2 (h0 + 2 |tau| pi)), read by both sides of the transversality estimate."""
    try:
        return math.exp(2.0 * (h0 + 2.0 * abs(tau) * math.pi))
    except OverflowError:
        raise ParameterError(f"exp(2 (h0 + 2 |tau| pi)) overflows at h0 = {h0}, tau = {tau}") from None


def transversality_margin(delta: float, h0: float, tau: float) -> float:
    """Left side g(delta) of the transversality inequality g(delta) < eps^2.

    g = 4 (2 delta + delta^2) E / q^2 with q = 2 + delta (1 + E); where q^2
    overflows, the quotient is taken as 4 (2 delta + delta^2) (E / q) / q.
    """
    if not (delta >= 0.0 and math.isfinite(delta)):
        raise ParameterError(f"delta must be finite and nonnegative, got {delta}")
    e = _transversality_growth(h0, tau)
    q = 2.0 + delta * (1.0 + e)
    try:
        return 4.0 * (2.0 * delta + delta * delta) * e / q ** 2
    except OverflowError:
        return 4.0 * (2.0 * delta + delta * delta) * (e / q) / q


def transversality_delta(eps: float, h0: float, tau: float) -> float:
    """Largest-practical delta with g(delta) < eps^2, in closed form.

    g increases from 0 to exactly 1 on [0, 2/(E-1)], so any eps < 1 admits a
    positive delta; eps >= 1 makes the bound vacuous and is rejected.
    g(delta) = eps^2 is A delta^2 + B delta + C = 0 with A = 4E - eps^2 (1+E)^2,
    B = 8E - 4 eps^2 (1+E) and C = -4 eps^2; B^2 - 4AC = 64 E^2 (1 - eps^2), so
    the cancellation-free root C/q, q = -(B + sqrt(B^2 - 4AC))/2, is the
    expression below.  It is stepped down an ulp at a time until g < eps^2.
    """
    if not h0 > 0.0:
        raise ParameterError(f"slab half-height must be positive, got {h0}")
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")
    e = _transversality_growth(h0, tau)
    target = eps * eps
    delta = 2.0 * target / (e * (2.0 + 2.0 * math.sqrt(1.0 - target) - target) - target)
    for _ in range(_DELTA_STEP_DOWNS):
        if transversality_margin(delta, h0, tau) < target:
            break
        delta = math.nextafter(delta, 0.0)
    if not (delta > 0.0 and transversality_margin(delta, h0, tau) < target):
        raise ParameterError(f"no admissible positive delta near {delta}")
    return delta


def transversality_window_check(d: float, h0: float, eps: float, tau: float) -> tuple[float, bool]:
    """Sup of the leaf's normal vertical component inside the slab |t| <= h0.

    Samples the wedge at the angle step _WINDOW_THETA_STEP, keeps the angles
    where either sheet's fiber height lies within the slab, and returns
    (sup, sup < eps).

    An angle is decided from the profile table's bracket (_ProfileTable.bounds)
    when a sheet's bracket lies wholly inside [-h0, h0] (in the slab) or both
    sheets' brackets lie wholly outside it (out); only the undecided angles,
    those near the thresholds, are integrated.  Adding the drift rounds
    monotonically, so each sheet's height stays within its bracket and the
    kept angles, hence (sup, ok), are those of integrating every angle.
    """
    theta_star = invariant_angle_max(d)
    n = max(int(theta_star / _WINDOW_THETA_STEP), 8)
    theta = np.linspace(theta_star / n, theta_star, n)
    sigma, drift = _invariant_sigma_drift(tau, d, theta)
    lo, hi = _invariant_table(tau, d).bounds(sigma)
    # (lower, upper) bracket of the plus sheet, then of the minus sheet
    sheets = ((lo + drift, hi + drift), (drift - hi, drift - lo))
    in_slab = np.zeros(n, bool)
    out = np.ones(n, bool)
    for low, high in sheets:
        in_slab |= (-h0 <= low) & (high <= h0)
        out &= (high < -h0) | (h0 < low)
    todo = np.flatnonzero(~(in_slab | out))
    if todo.size:
        minus, plus = _invariant_profiles(tau, d, theta[todo])
        in_slab[todo] = (np.abs(minus) <= h0) | (np.abs(plus) <= h0)
    if not np.any(in_slab):
        return 0.0, True
    sup = float(np.max(_invariant_nu(d, tau, theta[in_slab])))
    return sup, sup < eps


# -- meshes -------------------------------------------------------------------


@dataclass
class SurfaceMesh:
    """Structured triangulated surface with frame normals and angle function."""

    model: Model
    tau: float
    vertices: np.ndarray
    triangles: np.ndarray
    normals: np.ndarray
    nu: np.ndarray
    grid_shape: tuple[int, int]
    wrap_cols: bool
    metadata: dict = field(default_factory=dict)


def _grid_triangles(rows: int, cols: int, wrap_cols: bool) -> np.ndarray:
    """Two triangles per grid cell, cell by cell in row-major order."""
    i = np.arange(rows - 1)[:, None]
    j = np.arange(cols if wrap_cols else cols - 1)[None, :]
    v00 = i * cols + j
    v01 = i * cols + (j + 1) % cols
    v10, v11 = v00 + cols, v01 + cols
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=-1)
    return tris.reshape(-1, 3).astype(np.int32)


def _grid_edges(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Ends (lo, hi), lo < hi, of the edges of _grid_triangles(rows, cols,
    True), each once in lexicographic order.

    With j' = (j + 1) mod cols, the edges are the rows * cols ring edges
    {i cols + j, i cols + j'}, and per pair of rows the (rows - 1) cols
    edges (v00, v10) and the (rows - 1) cols diagonals (v00, v11): (3 rows
    - 2) cols distinct edges for cols >= 3, so their keys lo n + hi are
    sorted once and need no deduplication.
    """
    n = rows * cols
    j = np.arange(cols)
    wrapped = (j + 1) % cols
    start = np.arange(0, n, cols)[:, None]
    upper, lower = start[:-1] + j, start[1:]
    keys = np.concatenate(
        [
            ((start + np.minimum(j, wrapped)) * n + start + np.maximum(j, wrapped)).ravel(),
            (upper * n + lower + j).ravel(),
            (upper * n + lower + wrapped).ravel(),
        ]
    )
    keys.sort()
    return np.divmod(keys, n)


def _structured_mesh(
    model: Model,
    tau: float,
    vertices: np.ndarray,
    grid_shape: tuple[int, int],
    wrap_cols: bool,
    metadata: dict,
) -> SurfaceMesh:
    """Mesh of a vertex grid with frame normals, each sheet's normal upward.

    Normals are the frame cross products of centered grid tangents; the
    sheets are the rows on either side of metadata["seam_row"] (the whole
    grid when it is None), and a sheet whose mean nu is negative is flipped.
    """
    rows, cols = grid_shape
    v = vertices.reshape(rows, cols, 3)
    tu = np.empty_like(v)
    tu[1:-1] = v[2:] - v[:-2]
    tu[0] = v[1] - v[0]
    tu[-1] = v[-1] - v[-2]
    if wrap_cols:
        tv = np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)
    else:
        tv = np.empty_like(v)
        tv[:, 1:-1] = v[:, 2:] - v[:, :-2]
        tv[:, 0] = v[:, 1] - v[:, 0]
        tv[:, -1] = v[:, -1] - v[:, -2]
    x, y = v[..., 0], v[..., 1]
    u1, u2, u3 = frame_components_arrays(model, tau, x, y, tu[..., 0], tu[..., 1], tu[..., 2])
    w1, w2, w3 = frame_components_arrays(model, tau, x, y, tv[..., 0], tv[..., 1], tv[..., 2])
    n = np.stack([u2 * w3 - u3 * w2, u3 * w1 - u1 * w3, u1 * w2 - u2 * w1], axis=-1)
    norm = np.maximum(np.sqrt(n[..., 0] ** 2 + n[..., 1] ** 2 + n[..., 2] ** 2), 1e-300)
    normals = n / norm[..., None]
    seam = metadata.get("seam_row")
    for lo, hi in [(0, rows)] if seam is None else [(0, seam + 1), (seam, rows)]:
        if float(np.mean(normals[lo:hi, :, 2])) < 0.0:
            normals[lo:hi] *= -1.0
    return SurfaceMesh(
        model,
        tau,
        vertices,
        _grid_triangles(rows, cols, wrap_cols),
        normals.reshape(-1, 3),
        normals[..., 2].reshape(-1),
        grid_shape,
        wrap_cols,
        metadata,
    )


def catenoid_patch(spec: CatenoidSpec, rho_max: float, w, phi) -> np.ndarray:
    """Disc coordinates (..., 3) of the catenoid truncated at radius rho_max.

    w in [-1, 1] is the signed regularized radial variable (|w| = 1 on the
    boundary circles, w = 0 on the neck) and phi the angle about the axis;
    the two broadcast against each other.  Raises ParameterError when the
    boundary circles lie within BOUNDARY_MARGIN of the ideal boundary, where
    1 - tanh^2(rho_max / 2) rounds away.
    """
    if not 1.0 - math.tanh(0.5 * rho_max) ** 2 > BOUNDARY_MARGIN:
        raise ParameterError(f"rho_max={rho_max} puts the boundary circles on the ideal boundary")
    rmin = catenoid_neck_radius(spec)
    sigma_max = math.sqrt(rho_max - rmin)
    sigma = np.abs(w) * sigma_max
    rho = rmin + sigma * sigma
    t = np.sign(w) * _catenoid_table(spec.tau, spec.d)(sigma)
    radius = np.tanh(0.5 * rho)
    x = radius * np.cos(phi)
    y = radius * np.sin(phi)
    return np.stack([x, y, np.broadcast_to(t, x.shape)], axis=-1)


def catenoid_patch_tangents(spec: CatenoidSpec, rho_max: float, w, phi) -> np.ndarray:
    """Derivatives (..., 3, 2) of catenoid_patch in (phi, w).

    With sigma = |w| sigma_max the radius tanh(rho / 2) has w-derivative
    (1 - radius^2) w sigma_max^2, and the fiber sign(w) T(sigma) has
    sigma_max T'(sigma).
    """
    rmin = catenoid_neck_radius(spec)
    sigma_max = math.sqrt(rho_max - rmin)
    sigma = np.abs(w) * sigma_max
    radius = np.tanh(0.5 * (rmin + sigma * sigma))
    cos, sin = np.cos(phi), np.sin(phi)
    radial = (1.0 - radius * radius) * w * sigma_max * sigma_max
    d_phi = np.stack(np.broadcast_arrays(-radius * sin, radius * cos, 0.0), axis=-1)
    fiber = sigma_max * _catenoid_table(spec.tau, spec.d)(sigma, 1)
    d_w = np.stack(np.broadcast_arrays(radial * cos, radial * sin, fiber), axis=-1)
    return np.stack([d_phi, d_w], axis=-1)


def _catenoid_grid(
    spec: CatenoidSpec, rho_max: float, resolution: tuple[int, int]
) -> tuple[np.ndarray, tuple[int, int]]:
    """Vertices (rows * cols, 3), row by row, of both catenoid sheets up to
    hyperbolic radius rho_max, with their grid shape (rows, cols).

    Rows follow the regularized radial variable w = linspace(-1, 1, rows);
    columns are cols angles wrapping around the axis.
    """
    rmin = catenoid_neck_radius(spec)
    if not rho_max > rmin:
        raise ParameterError(f"rho_max must exceed the neck radius {rmin}")
    rows, cols = resolution
    if rows < 5 or cols < 8:
        raise ParameterError("catenoid meshes need at least 5 rows and 8 columns")
    rows += 1 - rows % 2  # keep a row exactly on the neck
    w = np.linspace(-1.0, 1.0, rows)
    angles = np.linspace(0.0, 2.0 * math.pi, cols, endpoint=False)
    return catenoid_patch(spec, rho_max, w[:, None], angles[None, :]).reshape(-1, 3), (rows, cols)


def mesh_catenoid(
    spec: CatenoidSpec, rho_max: float, resolution: tuple[int, int] = (257, 256)
) -> SurfaceMesh:
    """Triangulate both catenoid sheets up to hyperbolic radius rho_max on
    the _catenoid_grid vertices: vertex t-values are smooth through the
    neck, and columns wrap around the axis.
    """
    vertices, (rows, cols) = _catenoid_grid(spec, rho_max, resolution)
    metadata = {"kind": "catenoid", "d": spec.d, "rho_max": rho_max, "seam_row": rows // 2, "sheet": "both"}
    return _structured_mesh(Model.CYLINDER, spec.tau, vertices, (rows, cols), True, metadata)


# Smallest meshed wedge angle, as a fraction of the gluing angle theta*.
_THETA_MIN_FRACTION = 1e-3


def _in_half_plane(vertices: np.ndarray, phi_span: tuple[float, float]) -> np.ndarray:
    """The (n, 3) half-space vertices, or ParameterError if any has y <= 0 (or NaN).

    Checked before the normals are computed: the metric kernels divide by y.
    """
    if not np.all(vertices[:, 1] > 0.0):
        raise ParameterError(f"phi_span {phi_span} puts mesh vertices at y <= 0, off the half plane")
    return vertices


def _invariant_grid(
    spec: InvariantSurfaceSpec, phi_span: tuple[float, float], resolution: tuple[int, int]
) -> tuple[np.ndarray, tuple[int, int], dict]:
    """Vertices (rows * cols, 3), grid shape and metadata of the unmirrored
    invariant surface mesh (see mesh_invariant_surface)."""
    # exp(phi) is a vertex's Euclidean distance from the axis foot s
    with np.errstate(over="ignore", under="ignore"):
        ends = np.exp(np.array(phi_span, dtype=float))
    if not (phi_span[0] < phi_span[1] and np.all(np.isfinite(ends) & (ends > 0.0))):
        raise ParameterError(f"phi_span {phi_span} needs lo < hi with exp(lo) and exp(hi) finite and nonzero")
    theta_star = invariant_angle_max(spec.d)
    theta_min = _THETA_MIN_FRACTION * theta_star
    rows, cols = resolution
    if rows < 5 or cols < 2:
        raise ParameterError("invariant meshes need at least 5 rows and 2 columns")
    if spec.side is Sheet.BOTH:
        rows += 1 - rows % 2
        v = np.linspace(-1.0, 1.0, rows)
        seam: int | None = rows // 2
    elif spec.side is Sheet.PLUS:
        v = np.linspace(0.0, 1.0, rows)
        seam = None
    else:
        v = np.linspace(-1.0, 0.0, rows)
        seam = None
    span = theta_star - theta_min
    theta = theta_star - v * v * span
    sigma = np.abs(v) * math.sqrt(span)
    tail = _invariant_table(spec.tau, spec.d)(sigma)
    drift = -2.0 * spec.tau * (theta - theta_star)
    t = np.sign(v) * tail + drift
    phi = np.linspace(phi_span[0], phi_span[1], cols)
    radius = np.exp(phi)
    xs = radius[None, :] * np.cos(theta)[:, None] + spec.s
    ys = radius[None, :] * np.sin(theta)[:, None]
    ts = np.broadcast_to(t[:, None], xs.shape)
    vertices = _in_half_plane(np.stack([xs, ys, ts], axis=-1).reshape(-1, 3), phi_span)
    metadata = {
        "kind": "invariant",
        "d": spec.d,
        "s": spec.s,
        "side": spec.side.value,
        "theta_min": theta_min,
        "seam_row": seam,
    }
    return vertices, (rows, cols), metadata


def mesh_invariant_surface(
    spec: InvariantSurfaceSpec,
    phi_span: tuple[float, float] = (-3.0, 3.0),
    resolution: tuple[int, int] = (129, 129),
) -> SurfaceMesh:
    """Triangulate the invariant surface over phi_span along its axis.

    Rows sweep the wedge angle in the regularized gluing variable, from theta*
    at the gluing curve down to _THETA_MIN_FRACTION * theta*; the two sheets
    meet at the gluing curve with matching fiber value zero.  Columns run
    over phi in phi_span, at Euclidean distance exp(phi) from the axis foot;
    ParameterError unless lo < hi, exp(lo), exp(hi) are finite and nonzero,
    and every vertex has y > 0.  A mirrored surface is the reflected vertex
    grid.
    """
    vertices, grid_shape, metadata = _invariant_grid(spec, phi_span, resolution)
    if spec.mirror:
        vertices = apply_to_coords(halfplane_reflection(spec.s, spec.tau), vertices)
        metadata["mirrored"] = True
    return _structured_mesh(Model.HALF_SPACE, spec.tau, vertices, grid_shape, False, metadata)


def apply_isometry_to_mesh(iso: AmbientIsometry, mesh: SurfaceMesh) -> SurfaceMesh:
    """Map a mesh through an ambient isometry, recomputing normals."""
    if iso.model is not mesh.model:
        raise ModelMismatchError("isometry model does not match the mesh")
    vertices = apply_to_coords(iso, mesh.vertices)
    return _structured_mesh(
        mesh.model, mesh.tau, vertices, mesh.grid_shape, mesh.wrap_cols, dict(mesh.metadata)
    )


def convert_surface_to_cylinder(mesh: SurfaceMesh) -> SurfaceMesh:
    """Carry a half-space mesh to the disc model isometrically."""
    if mesh.model is not Model.HALF_SPACE:
        raise ModelMismatchError("conversion expects a half-space mesh")
    x, y, t = convert_coords_arrays(Model.HALF_SPACE, mesh.tau, *mesh.vertices.T)
    vertices = np.column_stack([x, y, t])
    return _structured_mesh(
        Model.CYLINDER, mesh.tau, vertices, mesh.grid_shape, mesh.wrap_cols, dict(mesh.metadata)
    )


def leaf_mesh(
    leaf: LeafSpec,
    phi_span: tuple[float, float] = (-3.0, 3.0),
    resolution: tuple[int, int] = (129, 129),
) -> SurfaceMesh:
    """Mesh of the foliation leaf at the given scale: the invariant surface's
    vertex grid (phi_span as in mesh_invariant_surface), moved by the axis
    translation and then the scaling; ParameterError if a moved vertex has
    y <= 0."""
    spec = InvariantSurfaceSpec(leaf.tau, leaf.d, leaf.s, Sheet.BOTH)
    vertices, grid_shape, metadata = _invariant_grid(spec, phi_span, resolution)
    vertices = apply_to_coords(axis_translation_isometry(leaf.s, leaf.tau), vertices)
    vertices = _in_half_plane(apply_to_coords(scale_isometry(leaf.scale, leaf.tau), vertices), phi_span)
    metadata.update({"kind": "leaf", "scale": leaf.scale})
    return _structured_mesh(Model.HALF_SPACE, leaf.tau, vertices, grid_shape, False, metadata)


# -- foliation ----------------------------------------------------------------

# foliation_leaf_find finds no leaf when the scale leaves [1 / range, range].
_LEAF_SCALE_RANGE = 1e6
# Bisection steps per point once its scale is bracketed.
_LEAF_BISECTION_BUDGET = 200


@dataclass(frozen=True)
class LeafFindResult:
    scale: float
    residual: float
    iterations: int


def _pull_back_to_model_chart(pts: np.ndarray, scales, axis_inv: AmbientIsometry) -> np.ndarray:
    """(n, 3) points in the chart of the unit-scale invariant surface."""
    scaled = np.empty((len(pts), 3))
    np.divide(pts[:, :2], np.reshape(scales, (-1, 1)), out=scaled[:, :2])
    scaled[:, 2] = pts[:, 2]
    return apply_to_coords(axis_inv, scaled)


def _leaf_sides(coords: np.ndarray, scales, d: float, s: float, tau: float, axis_inv) -> np.ndarray:
    """+1 where an (n, 3) half-space point lies in the pocket of the leaf at its
    scale, -1 elsewhere (see leaf_side)."""
    q = _pull_back_to_model_chart(np.asarray(coords, dtype=float), scales, axis_inv)
    theta = np.arctan2(q[:, 1], q[:, 0] - s)
    minus, plus = _invariant_profiles(tau, d, theta)
    wedge = (0.0 < theta) & (theta < invariant_angle_max(d))
    return np.where(wedge & (minus < q[:, 2]) & (q[:, 2] < plus), 1, -1)


def leaf_side(p: AmbientPoint, d: float, s: float, tau: float, scale: float = 1.0) -> int:
    """+1 if p lies in the pocket enclosed by the leaf, -1 otherwise.

    The pocket is the component of the complement whose closure meets the
    wedge's ideal edge; points on the other side of the leaf, including all
    points outside the pulled-back wedge, report -1.
    """
    if p.model is not Model.HALF_SPACE:
        raise ModelMismatchError("foliation leaves live in the half-space model")
    axis_inv = inverse(axis_translation_isometry(s, tau))
    return int(_leaf_sides(p.coords()[None], scale, d, s, tau, axis_inv)[0])


def foliation_leaf_find(p: AmbientPoint, d: float, s: float, tau: float) -> LeafFindResult:
    """Scale of the unique leaf through p, with the attained distance residual."""
    if p.model is not Model.HALF_SPACE:
        raise ModelMismatchError("foliation leaves live in the half-space model")
    scales, residuals, iterations = foliation_leaf_find_arrays(p.coords()[None], d, s, tau)
    return LeafFindResult(float(scales[0]), float(residuals[0]), int(iterations[0]))


def foliation_leaf_find_arrays(
    coords: np.ndarray, d: float, s: float, tau: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scales of the leaves through (n, 3) half-space points, with distance residuals.

    For all points at once: brackets the pocket indicator's sign change by
    factors of 2 from scale 1, then bisects until hi - lo <= 1e-15 hi, each
    point frozen once it stops; the residual is the ambient distance from the
    point to the located leaf (_leaf_distances).  Returns (scales, residuals,
    iterations), iterations counting each point's bracket and bisection
    steps.  Raises InvalidPointError when a point's bracket leaves
    [1 / _LEAF_SCALE_RANGE, _LEAF_SCALE_RANGE].
    """
    pts = np.asarray(coords, dtype=float).reshape(-1, 3)
    axis_inv = inverse(axis_translation_isometry(s, tau))
    n = len(pts)
    # inside the unit leaf's pocket: shrink until outside; else grow until inside
    factor = np.where(_leaf_sides(pts, 1.0, d, s, tau, axis_inv) > 0, 0.5, 2.0)
    trial = np.ones(n)
    iterations = np.zeros(n, dtype=int)
    k = np.arange(n)
    while k.size:
        trial[k] *= factor[k]
        iterations[k] += 1
        side = _leaf_sides(pts[k], trial[k], d, s, tau, axis_inv)
        k = k[side != np.where(factor[k] > 1.0, 1, -1)]
        if np.any((trial[k] < 1.0 / _LEAF_SCALE_RANGE) | (trial[k] > _LEAF_SCALE_RANGE)):
            raise InvalidPointError("no leaf found: point escapes the foliated region")
    lo, hi = np.minimum(trial, 1.0), np.maximum(trial, 1.0)
    k = np.arange(n)
    for _ in range(_LEAF_BISECTION_BUDGET):
        if not k.size:
            break
        mid = 0.5 * (lo[k] + hi[k])
        iterations[k] += 1
        inside = _leaf_sides(pts[k], mid, d, s, tau, axis_inv) > 0
        hi[k] = np.where(inside, mid, hi[k])
        lo[k] = np.where(inside, lo[k], mid)
        k = k[hi[k] - lo[k] > 1e-15 * hi[k]]
    scales = 0.5 * (lo + hi)
    return scales, _leaf_distances(pts, scales, d, s, tau, axis_inv), iterations


def _leaf_distances(pts: np.ndarray, scales: np.ndarray, d: float, s: float, tau: float, axis_inv):
    """Ambient distances from (n, 3) points to the leaves at their scales.

    Each point is pulled back to q in the invariant surface's chart, and the
    chord search of core.chord_distances runs over the surface parameters
    (phi, sigma): base point s + e^phi (cos theta, sin theta) with
    theta = theta* - sigma^2 and fiber sign(sigma) T(|sigma|) + 2 tau sigma^2,
    T the profile table.  T is odd in sigma, so the plus (sigma > 0) and
    minus (sigma < 0) sheets join smoothly at the fold sigma = 0, where theta
    has a square-root singularity.  The search starts over q's base point on
    the sheet nearer in t.
    """
    q = _pull_back_to_model_chart(pts, scales, axis_inv)
    qx, qy, qt = q.T
    theta_star = invariant_angle_max(d)
    sigma_max = math.sqrt(theta_star)
    table = _invariant_table(tau, d)

    def base(params):
        theta = theta_star - params[:, 1] ** 2
        return np.exp(params[:, 0]) * np.cos(theta), np.exp(params[:, 0]) * np.sin(theta)

    def leaf(params):
        bx, by = base(params)
        sigma = params[:, 1]
        t = np.sign(sigma) * table(np.abs(sigma)) + 2.0 * tau * sigma * sigma
        return np.stack([bx + s, by, t], axis=-1)

    def tangents(params):
        bx, by = base(params)
        sigma = params[:, 1]
        dt = table(np.abs(sigma), 1) + 4.0 * tau * sigma
        d_phi = np.stack([bx, by, np.zeros_like(bx)], axis=-1)
        d_sigma = np.stack([2.0 * sigma * by, -2.0 * sigma * bx, dt], axis=-1)
        return np.stack([d_phi, d_sigma], axis=-1)

    theta0 = np.clip(np.arctan2(qy, qx - s), 1e-9, theta_star - 1e-12)
    phi = 0.5 * np.log((qx - s) ** 2 + qy ** 2)
    minus, plus = _invariant_profiles(tau, d, theta0)
    sigma = np.where(np.abs(plus - qt) <= np.abs(minus - qt), 1.0, -1.0) * np.sqrt(theta_star - theta0)
    start = np.column_stack([phi, sigma])
    bounds = [-np.inf, -sigma_max], [np.inf, sigma_max]
    return chord_distances(Model.HALF_SPACE, tau, q, leaf, tangents, start, *bounds)
