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
    inverse,
    scale_isometry,
)
from .quadrature import CHUNK_NODES, PANEL_NODES, composite_gauss, cumulative_integral

# Panels of a profile table, and off-node values per Gauss batch (see
# _ProfileTable).
_TABLE_PANELS = 64
_TABLE_CHUNK = CHUNK_NODES // PANEL_NODES
# Panels of _catenoid_half_height's sum: 4e-15 from the table for d in [1e-3, 1e8] (16 give 1e-10).
_HALF_HEIGHT_PANELS = 32
# Relative widening of _ProfileTable.bounds: far above the 1e-13 settle
# tolerance of the node values and the rounding of one off-node panel.
_BRACKET_MARGIN = 1e-9
# Step budget of the catenoid's Newton profile inverse, and its residual
# tolerance relative to max(1, height).
_INVERSE_BUDGET = 60
_INVERSE_TOL = 1e-14
# Evaluations per element of _bisect, the halving behind the invariant
# profile inverse, the leaf search and transversality_delta.
_BISECTION_BUDGET = 200
# Smallest normal float64: the profile integrands take their limit below it.
_TINY = np.finfo(float).tiny
# Largest float64: no quantity of a profile table or a mesh may pass it.
_HUGE = np.finfo(float).max
# Ulps below the closed-form root where transversality_delta's bracket starts.
_DELTA_BRACKET_ULPS = 64
# Wedge-angle step of transversality_window_check's sampling.
_WINDOW_THETA_STEP = 1e-4
# Largest component of an unnormalized mesh normal whose squared norm, a sum
# of three squares, is a float.
_NORMAL_MAX = math.sqrt(_HUGE / 3.0)


def _bisect(at_or_above, lo, hi, what, atol: float = 0.0, rtol: float = 0.0):
    """Halve brackets lo < hi elementwise: at_or_above(k, mid) says, for the
    open elements k, whether each midpoint 0.5 (lo + hi) becomes that
    element's hi (else its lo).  An element closes unevaluated once no double
    lies strictly inside its bracket, and after its update once hi - lo <=
    atol + rtol hi.  Returns 1-d arrays (lo, hi, steps), steps counting each
    element's evaluations; ConvergenceError names what(k) of the first
    element still open after _BISECTION_BUDGET halvings."""
    lo, hi = np.array(lo, dtype=float, ndmin=1), np.array(hi, dtype=float, ndmin=1)
    steps, k = np.zeros(lo.size, dtype=int), np.arange(lo.size)
    for _ in range(_BISECTION_BUDGET):
        mid = 0.5 * (lo[k] + hi[k])
        inside = (lo[k] < mid) & (mid < hi[k])
        k, mid = k[inside], mid[inside]
        if not k.size:
            return lo, hi, steps
        steps[k] += 1
        up = at_or_above(k, mid)
        hi[k], lo[k] = np.where(up, mid, hi[k]), np.where(up, lo[k], mid)
        k = k[hi[k] - lo[k] > atol + rtol * hi[k]]
    if k.size:
        raise ConvergenceError(f"{what(k[0])} did not converge in {_BISECTION_BUDGET} steps")
    return lo, hi, steps


class Sheet(Enum):
    PLUS = "plus"
    MINUS = "minus"


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

    A bigraph over the wedge 0 < theta < arcsin(1/d) at the ideal point s in
    the half-space model: the PLUS sheet rises and the MINUS sheet falls away
    from the gluing curve theta = arcsin(1/d).  Requires d > 1.
    """

    tau: float
    d: float
    s: float = 1.0

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
        InvariantSurfaceSpec(self.tau, self.d, self.s)
        require_finite("leaf", scale=self.scale)
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


def _half_height_limit(tau: float) -> float:
    """(pi/2) sqrt(1 + 4 tau^2): the supremum over d of the catenoid's
    half-height, and its limit and the invariant h(d)'s as d -> infinity."""
    return 0.5 * math.pi * math.sqrt(1.0 + 4.0 * tau * tau)


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
    """Profile slope d sqrt(1 + 4 tau^2 tanh^2(rho/2)) / sqrt(sinh^2 rho - d^2)
    at finite rho above the neck radius, read as g(sigma) / (2 sigma) at sigma
    = sqrt(rho - rho_min), g the profile table's integrand, which factors
    sinh^2 rho - d^2 so it does not cancel near the neck.  Far out, where
    sinh rho overflows, g reads 0, the value the slope underflows to."""
    rmin = catenoid_neck_radius(spec)
    if not rmin < rho < math.inf:
        raise ParameterError(f"profile slope is defined only at finite rho above the neck radius, got {rho}")
    sigma = math.sqrt(rho - rmin)
    with np.errstate(over="ignore"):
        return float(_catenoid_table(spec.tau, spec.d).g(sigma)) / (2.0 * sigma)


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
        step = sigma - residual / table.g(sigma)
        sigma = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
    raise ConvergenceError(
        f"profile inversion for height {flat[todo[0]]} did not converge in {_INVERSE_BUDGET} steps"
    )


class _ProfileTable:
    """Integral T(sigma) of a profile integrand g from 0, on [0, sigma_max].

    The nodes of _TABLE_PANELS equal panels carry the cumulative_integral
    values; T(sigma) is the value at the nearest node plus, off the nodes,
    one composite_gauss panel from that node to sigma; T' is the integrand,
    the attribute g.  Beyond sigma_max, T is its limit: the last node's value
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
        self.g = g
        self.sigma_max = sigma_max
        self._step = sigma_max / _TABLE_PANELS
        self._nodes = np.linspace(0.0, sigma_max, _TABLE_PANELS + 1)
        self._values = cumulative_integral(g, self._nodes)
        self.limit = float(self._values[-1]) + tail

    def __call__(self, sigma) -> np.ndarray:
        """T(sigma), elementwise."""
        sigma = np.asarray(sigma, dtype=float)
        flat = sigma.reshape(-1)
        k = np.clip(np.rint(flat / self._step), 0, _TABLE_PANELS).astype(int)
        beyond = flat > self.sigma_max
        out = np.where(beyond, self.limit, self._values[k])
        off = np.flatnonzero((flat != self._nodes[k]) & ~beyond)
        for start in range(0, off.size, _TABLE_CHUNK):
            part = off[start : start + _TABLE_CHUNK]
            out[part] += composite_gauss(self.g, self._nodes[k[part]], flat[part], 1)
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


def _catenoid_truncation(tau: float, d: float) -> tuple[float, float]:
    """sigma* = sqrt(rho* - rho_min) and the tail A e^(-rho*) = 1e-15, A = 2 d
    sqrt(1 + 4 tau^2), that bounds the catenoid profile beyond the truncation
    radius rho* = log(A 1e15).  ParameterError unless rho_min < rho* and
    e^(2 rho*) is a float: the integrand forms sinh^2 rho - d^2 < e^(2 rho) / 4
    up to rho*."""
    amp = 2.0 * d * math.sqrt(1.0 + 4.0 * tau * tau)
    rho_star = math.log(amp * 1e15)
    rmin = math.asinh(d)
    if not rho_star > rmin:
        raise ParameterError(f"necksize parameter {d} is too small to tabulate the profile")
    if not 2.0 * rho_star < math.log(_HUGE):
        raise ParameterError(f"catenoid profile at tau = {tau}, d = {d} leaves the float range: sinh^2 overflows")
    return math.sqrt(rho_star - rmin), amp * math.exp(-rho_star)


@lru_cache(maxsize=32)
def _catenoid_table(tau: float, d: float) -> _ProfileTable:
    """Profile table on [0, sigma*] (_catenoid_truncation); its limit adds the tail: half the height."""
    return _ProfileTable(_catenoid_sigma_integrand(tau, d), *_catenoid_truncation(tau, d))


def _catenoid_half_height(tau: float, d: float) -> float:
    """Half the catenoid's height without a table: one composite_gauss sum over
    [0, sigma*] plus the tail, within 1e-14 relative of the table's limit."""
    sigma_max, tail = _catenoid_truncation(tau, d)
    g = _catenoid_sigma_integrand(tau, d)
    return float(composite_gauss(g, np.zeros(1), np.array([sigma_max]), _HALF_HEIGHT_PANELS)[0]) + tail


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
    """h(d) through an independent algebraic substitution with a regular
    integrand; ParameterError where _invariant_table raises, unless d > 1."""
    if not d > 1.0:
        raise ParameterError(f"invariant surfaces need d > 1, got {d}")
    _require_invariant_range(tau, d)
    dd = d * d
    ttau = 4.0 * tau * tau

    def g(sigma: np.ndarray) -> np.ndarray:
        w = 1.0 - sigma * sigma
        num = dd * (1.0 + ttau) - ttau * w * w
        den = (dd - w * w) * (2.0 - sigma * sigma)
        return 2.0 * np.sqrt(num) / np.sqrt(den)

    return float(cumulative_integral(g, [0.0, 1.0])[-1])


def invariant_profile(spec: InvariantSurfaceSpec, sheet: Sheet, theta):
    """Fiber height of the given sheet over wedge angle theta.

    Both sheets vanish at the gluing angle arcsin(1/d); the plus sheet
    increases and the minus sheet decreases toward the wedge's edge.
    Accepts a float or an array of angles.
    """
    theta_star = invariant_angle_max(spec.d)
    theta = np.asarray(theta, dtype=float)
    if not np.all((0.0 <= theta) & (theta <= theta_star + 1e-14)):
        raise ParameterError(f"theta={theta} outside [0, {theta_star}]")
    minus, plus = _invariant_profiles(spec.tau, spec.d, theta)
    out = plus if sheet is Sheet.PLUS else minus
    return float(out) if out.ndim == 0 else out


def invariant_asymptotic_levels(spec: InvariantSurfaceSpec) -> tuple[float, float]:
    """Limit heights of the two sheets as theta -> 0, in (minus, plus) order."""
    h = invariant_height(spec.d, spec.tau)
    shift = 2.0 * spec.tau * invariant_angle_max(spec.d)
    return (-h + shift, h + shift)


def invariant_profile_inverse(spec: InvariantSurfaceSpec, sheet: Sheet, value: float) -> float:
    """Angle theta where the given sheet reaches the given fiber value: the
    midpoint once _bisect has halved [0, theta*] below width 1e-15 (theta*
    <= pi/2 takes at most 51 halvings), or its ConvergenceError."""
    require_finite("profile inversion", value=value)  # NaN fails every sign test below
    theta_star = invariant_angle_max(spec.d)

    def excess(theta):
        minus, plus = _invariant_profiles(spec.tau, spec.d, theta)
        return (plus if sheet is Sheet.PLUS else minus) - value

    f_lo = excess(0.0)
    if f_lo * excess(theta_star) > 0.0:
        raise ParameterError(f"fiber value {value} not attained by the {sheet.value} sheet")
    lo, hi, _ = _bisect(
        lambda k, mid: ~(excess(mid) * f_lo > 0.0), 0.0, theta_star,
        lambda k: f"inversion for fiber value {value}", atol=math.nextafter(1e-15, 0.0),  # hi - lo < 1e-15
    )
    return float(0.5 * (lo[0] + hi[0]))


def _require_invariant_range(tau: float, d: float) -> None:
    """ParameterError unless the invariant integrand's squared slope bound
    d^2 (1 + 4 tau^2) is a float."""
    if not math.isfinite(d * d * (1.0 + 4.0 * tau * tau)):
        raise ParameterError(f"invariant profile at tau = {tau}, d = {d} leaves the float range: d^2 overflows")


@lru_cache(maxsize=32)
def _invariant_table(tau: float, d: float) -> _ProfileTable:
    """Profile table of the invariant surface (_require_invariant_range)."""
    _require_invariant_range(tau, d)
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


def tangent_vertical_components(spec: InvariantSurfaceSpec, sheet: Sheet, theta: float) -> tuple[float, float]:
    """Vertical components of the unit tangents along and across the profile.

    Returns (profile direction, translation direction) for the given sheet;
    the translation direction is shared by both sheets.
    """
    theta_star = invariant_angle_max(spec.d)
    if not 0.0 < theta <= theta_star:
        raise ParameterError(f"theta={theta} outside (0, {theta_star}]")
    a = 1.0 + 4.0 * spec.tau ** 2 * math.cos(theta) ** 2
    b = 1.0 - spec.d ** 2 * math.sin(theta) ** 2
    sign = -1.0 if sheet is Sheet.PLUS else 1.0
    along = sign * spec.d * math.sqrt(a) * math.sin(theta) / math.sqrt(
        b + spec.d ** 2 * a * math.sin(theta) ** 2
    )
    across = -2.0 * spec.tau * math.cos(theta) / math.sqrt(a)
    return along, across


# -- transversality -----------------------------------------------------------

def _transversality_growth(h0: float, tau: float) -> float:
    """E = exp(2 (h0 + 2 |tau| pi)), read by both sides of the transversality estimate."""
    try:
        return math.exp(2.0 * (h0 + 2.0 * abs(tau) * math.pi))
    except OverflowError:
        raise ParameterError(f"exp(2 (h0 + 2 |tau| pi)) overflows at h0 = {h0}, tau = {tau}") from None


def transversality_margin(delta: float, h0: float, tau: float) -> float:
    """Left side g(delta) of the transversality inequality g(delta) < eps^2.

    g = 4 (2 delta + delta^2) E / q^2 with q = 2 + delta (1 + E), rounded up
    from exact integers, so g < eps^2 read from it holds exactly and the
    margin increases with delta wherever g does, on [0, 2/(E-1)].
    """
    if not (delta >= 0.0 and math.isfinite(delta)):
        raise ParameterError(f"delta must be finite and nonnegative, got {delta}")
    a, b = delta.as_integer_ratio()
    c, d = _transversality_growth(h0, tau).as_integer_ratio()
    num, den = 4 * a * (2 * b + a) * c * d, (2 * b * d + a * (d + c)) ** 2
    g = num / den
    g_num, g_den = g.as_integer_ratio()
    return math.nextafter(g, math.inf) if g_num * den < num * g_den else g


def transversality_delta(eps: float, h0: float, tau: float) -> float:
    """Largest-practical delta with g(delta) < eps^2, in closed form.

    g increases from 0 to exactly 1 on [0, 2/(E-1)], so any eps < 1 admits a
    positive delta; eps >= 1 makes the bound vacuous and is rejected.
    g(delta) = eps^2 is A delta^2 + B delta + C = 0 with A = 4E - eps^2 (1+E)^2,
    B = 8E - 4 eps^2 (1+E) and C = -4 eps^2; B^2 - 4AC = 64 E^2 (1 - eps^2), so
    the cancellation-free root C/q, q = -(B + sqrt(B^2 - 4AC))/2, is the
    expression below.  If the rounded-up margin is not below eps^2 there,
    _bisect halves [lo, root] down to adjacent doubles and the lower one, the
    largest double where it is, is taken; ConvergenceError if that takes
    more than _BISECTION_BUDGET halvings.  lo is _DELTA_BRACKET_ULPS ulps
    below the root when the margin is below eps^2 there, else 0; the margin
    is monotone, so either bracket ends on the same doubles.  Over a grid of
    2,700 cases the answer lay 1 to 9 ulps below the root.
    """
    if not h0 > 0.0:
        raise ParameterError(f"slab half-height must be positive, got {h0}")
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")
    e = _transversality_growth(h0, tau)
    target = eps * eps
    delta = 2.0 * target / (e * (2.0 + 2.0 * math.sqrt(1.0 - target) - target) - target)
    if not transversality_margin(delta, h0, tau) < target:
        lo = max(delta - _DELTA_BRACKET_ULPS * math.ulp(delta), 0.0)
        if not transversality_margin(lo, h0, tau) < target:
            lo = 0.0
        lo, _, _ = _bisect(
            lambda k, mid: not transversality_margin(float(mid[0]), h0, tau) < target, lo, delta,
            lambda k: f"transversality delta at eps = {eps}, h0 = {h0}, tau = {tau}",
        )
        delta = float(lo[0])
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
    ParameterError unless all four are finite, h0 >= 0 and eps > 0.
    """
    require_finite("transversality window", d=d, h0=h0, eps=eps, tau=tau)
    if not (h0 >= 0.0 and eps > 0.0):
        raise ParameterError(f"the window needs h0 >= 0 and eps > 0, got h0 = {h0}, eps = {eps}")
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


def _structured_mesh(
    model: Model,
    tau: float,
    vertices: np.ndarray,
    grid_shape: tuple[int, int],
    wrap_cols: bool,
    metadata: dict,
) -> SurfaceMesh:
    """Mesh of a vertex grid with frame normals, each sheet's normal upward.

    Normals are the frame cross products of centered grid tangents.  Every
    mesh's two sheets meet on its middle row rows // 2: the sheets are the
    rows up to and from it, and a sheet whose mean nu is negative is
    flipped.  metadata only describes the mesh.  ParameterError if a vertex
    is not finite or a cross product's squared norm overflows.
    """
    if not np.all(np.isfinite(vertices)):
        raise ParameterError("the mesh's parameters leave the float range: a vertex is not finite")
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
    if not np.all(np.abs(n) <= _NORMAL_MAX):  # also false at a NaN
        raise ParameterError("the mesh's parameters leave the float range: its normals overflow when squared")
    norm = np.maximum(np.sqrt(n[..., 0] ** 2 + n[..., 1] ** 2 + n[..., 2] ** 2), 1e-300)
    normals = n / norm[..., None]
    seam = rows // 2
    for lo, hi in (0, seam + 1), (seam, rows):
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


def _catenoid_radial(spec: CatenoidSpec, rho_max: float, w) -> tuple[float, np.ndarray, np.ndarray]:
    """(sigma_max, sigma, tanh(rho / 2)) at the signed radial variable w of
    the catenoid truncated at rho_max: sigma = |w| sqrt(rho_max - rho_min)
    and rho = rho_min + sigma^2.  ParameterError unless rho_min < rho_max and
    the boundary circles stay off the ideal boundary, 1 - tanh^2(rho_max / 2)
    > BOUNDARY_MARGIN."""
    rmin = catenoid_neck_radius(spec)
    if not rho_max > rmin:
        raise ParameterError(f"rho_max must exceed the neck radius {rmin}")
    if not 1.0 - math.tanh(0.5 * rho_max) ** 2 > BOUNDARY_MARGIN:
        raise ParameterError(f"rho_max={rho_max} puts the boundary circles on the ideal boundary")
    sigma_max = math.sqrt(rho_max - rmin)
    sigma = np.abs(w) * sigma_max
    return sigma_max, sigma, np.tanh(0.5 * (rmin + sigma * sigma))


def catenoid_patch(spec: CatenoidSpec, rho_max: float, w, phi) -> np.ndarray:
    """Disc coordinates (..., 3) of the catenoid truncated at radius rho_max.

    w in [-1, 1] is the signed regularized radial variable (|w| = 1 on the
    boundary circles, w = 0 on the neck) and phi the angle about the axis;
    the two broadcast against each other.  _catenoid_radial checks rho_max.
    """
    _, sigma, radius = _catenoid_radial(spec, rho_max, w)
    t = np.sign(w) * _catenoid_table(spec.tau, spec.d)(sigma)
    x = radius * np.cos(phi)
    y = radius * np.sin(phi)
    return np.stack([x, y, np.broadcast_to(t, x.shape)], axis=-1)


def catenoid_patch_tangents(spec: CatenoidSpec, rho_max: float, w, phi) -> np.ndarray:
    """Derivatives (..., 3, 2) of catenoid_patch in (phi, w).

    With sigma = |w| sigma_max (_catenoid_radial, which checks rho_max) the
    radius tanh(rho / 2) has w-derivative (1 - radius^2) w sigma_max^2, and
    the fiber sign(w) T(sigma) has sigma_max T'(sigma), T' the table's g.
    """
    sigma_max, sigma, radius = _catenoid_radial(spec, rho_max, w)
    cos, sin = np.cos(phi), np.sin(phi)
    radial = (1.0 - radius * radius) * w * sigma_max * sigma_max
    d_phi = np.stack(np.broadcast_arrays(-radius * sin, radius * cos, 0.0), axis=-1)
    fiber = sigma_max * _catenoid_table(spec.tau, spec.d).g(sigma)
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
    vertices, grid_shape = _catenoid_grid(spec, rho_max, resolution)
    metadata = {"kind": "catenoid", "d": spec.d, "rho_max": rho_max}
    return _structured_mesh(Model.CYLINDER, spec.tau, vertices, grid_shape, True, metadata)


# Smallest meshed wedge angle, as a fraction of the gluing angle theta*.
_THETA_MIN_FRACTION = 1e-3


def _in_half_plane(vertices: np.ndarray, phi_span: tuple[float, float]) -> np.ndarray:
    """The (n, 3) half-space vertices, or ParameterError if any has y <= 0 (or NaN).

    Checked before the normals are computed: the metric kernels divide by y.
    """
    if not np.all(vertices[:, 1] > 0.0):
        raise ParameterError(f"phi_span {phi_span} puts mesh vertices at y <= 0, off the half plane")
    return vertices


def _invariant_chart(tau: float, d: float, s: float, phi, sigma) -> np.ndarray:
    """Half-space points (..., 3) of the invariant surface at axis foot s, at
    broadcasting parameters (phi, sigma): base point s + e^phi (cos theta,
    sin theta) with theta = theta* - sigma^2, and fiber sign(sigma)
    T(|sigma|) + 2 tau sigma^2, T the profile table.  T is odd in sigma, so
    the plus (sigma > 0) and minus (sigma < 0) sheets join smoothly on the
    gluing curve sigma = 0, where theta has a square-root singularity."""
    theta = invariant_angle_max(d) - sigma * sigma
    radius = np.exp(phi)
    t = np.sign(sigma) * _invariant_table(tau, d)(np.abs(sigma)) + 2.0 * tau * sigma * sigma
    return np.stack(np.broadcast_arrays(radius * np.cos(theta) + s, radius * np.sin(theta), t), axis=-1)


def _invariant_grid(
    spec: InvariantSurfaceSpec, phi_span: tuple[float, float], resolution: tuple[int, int]
) -> tuple[np.ndarray, tuple[int, int], dict]:
    """Vertices (rows * cols, 3), grid shape and metadata of the invariant
    surface mesh (see mesh_invariant_surface): rows, padded to odd, follow
    v = linspace(-1, 1) at sigma = v sqrt(theta* - theta_min) of
    _invariant_chart, the minus sheet at v < 0 and the gluing curve at 0."""
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
    rows += 1 - rows % 2  # keep a row exactly on the gluing curve
    sigma = np.linspace(-1.0, 1.0, rows) * math.sqrt(theta_star - theta_min)
    phi = np.linspace(phi_span[0], phi_span[1], cols)
    points = _invariant_chart(spec.tau, spec.d, spec.s, phi[None, :], sigma[:, None])
    vertices = _in_half_plane(points.reshape(-1, 3), phi_span)
    metadata = {"kind": "invariant", "d": spec.d, "s": spec.s, "theta_min": theta_min}
    return vertices, (rows, cols), metadata


def mesh_invariant_surface(
    spec: InvariantSurfaceSpec,
    phi_span: tuple[float, float] = (-3.0, 3.0),
    resolution: tuple[int, int] = (129, 129),
) -> SurfaceMesh:
    """Triangulate both sheets of the invariant surface over phi_span along its axis.

    Rows sweep the wedge angle in the regularized gluing variable, from
    _THETA_MIN_FRACTION * theta* up to theta* on the minus sheet and back on
    the plus sheet; the sheets meet on the middle row, the gluing curve, at
    fiber value zero.  Columns run over phi in phi_span, at Euclidean
    distance exp(phi) from the axis foot; ParameterError unless lo < hi,
    exp(lo), exp(hi) are finite and nonzero, and every vertex has y > 0.
    """
    vertices, grid_shape, metadata = _invariant_grid(spec, phi_span, resolution)
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
    spec = InvariantSurfaceSpec(leaf.tau, leaf.d, leaf.s)
    vertices, grid_shape, metadata = _invariant_grid(spec, phi_span, resolution)
    vertices = apply_to_coords(axis_translation_isometry(leaf.s, leaf.tau), vertices)
    vertices = _in_half_plane(apply_to_coords(scale_isometry(leaf.scale, leaf.tau), vertices), phi_span)
    metadata.update({"kind": "leaf", "scale": leaf.scale})
    return _structured_mesh(Model.HALF_SPACE, leaf.tau, vertices, grid_shape, False, metadata)


# -- foliation ----------------------------------------------------------------

# foliation_leaf_find finds no leaf when the scale leaves [1 / range, range].
_LEAF_SCALE_RANGE = 1e6


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
    factors of 2 from scale 1, then _bisect halves each bracket until hi - lo
    <= 1e-15 hi, a point frozen once it stops; the scale is the midpoint and
    the residual the ambient distance from the point to the located leaf
    (_leaf_distances).  Returns (scales, residuals, iterations), iterations
    counting each point's bracket and bisection steps.  Raises
    InvalidPointError when a point's bracket leaves [1 / _LEAF_SCALE_RANGE,
    _LEAF_SCALE_RANGE], and _bisect's ConvergenceError when a point's
    bisection has not stopped within _BISECTION_BUDGET steps.
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
    lo, hi, steps = _bisect(
        lambda k, mid: _leaf_sides(pts[k], mid, d, s, tau, axis_inv) > 0, np.minimum(trial, 1.0),
        np.maximum(trial, 1.0), lambda k: f"leaf search for the point {pts[k].tolist()}", rtol=1e-15,
    )
    scales = 0.5 * (lo + hi)
    return scales, _leaf_distances(pts, scales, d, s, tau, axis_inv), iterations + steps


def _leaf_distances(pts: np.ndarray, scales: np.ndarray, d: float, s: float, tau: float, axis_inv):
    """Ambient distances from (n, 3) points to the leaves at their scales.

    Each point is pulled back to q in the invariant surface's chart, and the
    chord search of core.chord_distances runs over its parameters (phi,
    sigma) in [-sigma*, sigma*], the surface points given by
    _invariant_chart and their tangents by its derivatives, with T' the
    profile table's integrand g.  The search starts over q's base point on
    the sheet nearer in t.
    """
    q = _pull_back_to_model_chart(pts, scales, axis_inv)
    qx, qy, qt = q.T
    theta_star = invariant_angle_max(d)
    sigma_max = math.sqrt(theta_star)
    table = _invariant_table(tau, d)

    def leaf(params):
        return _invariant_chart(tau, d, s, params[:, 0], params[:, 1])

    def tangents(params):
        phi, sigma = params[:, 0], params[:, 1]
        theta = theta_star - sigma * sigma
        bx, by = np.exp(phi) * np.cos(theta), np.exp(phi) * np.sin(theta)
        dt = table.g(np.abs(sigma)) + 4.0 * tau * sigma
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
