"""Ambient isometries built from Moebius maps of the base.

Every isometry considered here covers a Moebius isometry f of the base and
acts on the fiber affinely:

    direct:     (z, t) -> (f(z), t - 2 tau Theta(z) + shift)
    reversing:  (z, t) -> (R(f(z)), -t + 2 tau Theta(z) + shift)

where Theta is a continuous branch of arg f' on the model domain and R is the
model's standard reflection (R(z) = -conj(z) in the half space, R(z) = conj(z)
in the disc).  The branch is represented as the generic continuous formula
plus a stored constant offset, so composed maps stay exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import (
    AmbientPoint,
    BasePoint,
    GeometryError,
    Model,
    ModelMismatchError,
    ParameterError,
    convert_coords_arrays,
    metric_arrays,
    require_finite,
    require_in_model,
)

_COEFF_TOL = 1e-12
# A Moebius matrix is singular when |ad - bc| < _SINGULAR_RTOL (|a|^2 + |b|^2
# + |c|^2 + |d|^2): |ad| + |bc| is at most half that sum, so such a
# determinant is within a few dozen roundings of zero.
_SINGULAR_RTOL = 1e-14
# Base step of the finite-difference Jacobian in the pullback residuals.
_PULLBACK_STEP = 2e-3

KNOWN_FAMILIES = frozenset(
    {
        "generic",
        "identity",
        "vertical_translation",
        "scale",
        "axis_translation",
        "disc_point",
        "halfplane_graph",
        "rotation",
        "halfplane_reflection",
    }
)


class Orientation(Enum):
    DIRECT = "direct"
    REVERSING = "reversing"


@dataclass(frozen=True)
class MobiusMap:
    """Normalized Moebius map z -> (a z + b) / (c z + d) with a d - b c = 1."""

    a: complex
    b: complex
    c: complex
    d: complex
    model: Model

    @classmethod
    def normalized(cls, a: complex, b: complex, c: complex, d: complex, model: Model) -> "MobiusMap":
        a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        if not all(map(cmath.isfinite, (a, b, c, d))):
            raise ParameterError(f"Moebius coefficients must be finite, got {(a, b, c, d)}")
        scale_ref = max(abs(a), abs(b), abs(c), abs(d))
        # the test on the entries divided by the largest, so no square overflows
        unit = [w / scale_ref for w in (a, b, c, d)] if scale_ref > 0.0 else [0j] * 4
        if not abs(unit[0] * unit[3] - unit[1] * unit[2]) > _SINGULAR_RTOL * sum(abs(w) ** 2 for w in unit):
            raise ParameterError("Moebius matrix is singular")
        det = a * d - b * c
        if model is Model.HALF_SPACE:
            if max(abs(a.imag), abs(b.imag), abs(c.imag), abs(d.imag)) > _COEFF_TOL * scale_ref:
                raise ParameterError("half-space Moebius maps need real coefficients")
            if det.real <= 0.0:
                raise ParameterError("half-space Moebius maps need positive determinant")
        s = 1.0 / cmath.sqrt(det)
        a, b, c, d = a * s, b * s, c * s, d * s
        if model is Model.HALF_SPACE:
            a, b, c, d = (complex(w.real, 0.0) for w in (a, b, c, d))
        else:
            if abs(d) <= abs(c) * (1.0 + 1e-12):
                raise ParameterError("disc Moebius maps must keep the pole outside the closed disc")
        return cls(a, b, c, d, model)

    def matrix(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)


def _matmul(m1, m2):
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
    )


def _reflection_adjusted(m: MobiusMap):
    """Matrix of R o f o R, the positive part seen behind a reflection."""
    a, b, c, d = m.matrix()
    if m.model is Model.HALF_SPACE:
        return (a, -b, -c, d)
    return (a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate())


@dataclass(frozen=True)
class AmbientIsometry:
    """Isometry of the total space covering a Moebius map of the base."""

    mobius: MobiusMap
    orientation: Orientation
    shift: float
    branch_offset: float
    tau: float
    family: str = "generic"
    parameters: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        require_finite("isometry", tau=self.tau, shift=self.shift, branch_offset=self.branch_offset)

    @property
    def model(self) -> Model:
        return self.mobius.model


def _reference_point(model: Model) -> AmbientPoint:
    if model is Model.HALF_SPACE:
        return AmbientPoint(BasePoint(Model.HALF_SPACE, 0.0, 1.0), 0.0)
    return AmbientPoint(BasePoint(Model.CYLINDER, 0.0, 0.0), 0.0)


class _Coefficients(NamedTuple):
    """The scalars of the apply formulas, each one value or one per row.

    c_over_d and phase_d = cmath.phase(d) enter only the disc branch; they
    are computed in Python scalar arithmetic, as one isometry's apply always
    did, so a row of a batch keeps the bits of that isometry alone.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    c_over_d: complex
    phase_d: float
    branch_offset: float
    shift: float


def _coefficients(iso: AmbientIsometry) -> _Coefficients:
    m = iso.mobius
    if iso.model is Model.HALF_SPACE:  # d may vanish; the disc terms are unused
        return _Coefficients(m.a, m.b, m.c, m.d, 0j, 0.0, iso.branch_offset, iso.shift)
    return _Coefficients(m.a, m.b, m.c, m.d, m.c / m.d, cmath.phase(m.d), iso.branch_offset, iso.shift)


def _coefficients_for(isometries, shape: tuple[int, ...]) -> tuple[AmbientIsometry, _Coefficients]:
    """One isometry with its scalars, or the first of a sequence with one
    isometry per row (axis 0) of points of the given shape, with per-row
    coefficient arrays that broadcast against them.  Rows share model,
    orientation and tau."""
    if isinstance(isometries, AmbientIsometry):
        return isometries, _coefficients(isometries)
    isos = list(isometries)
    if not shape or len(isos) != shape[0]:
        raise ParameterError(f"{len(isos)} isometries for points of shape {shape}")
    first = isos[0]
    for iso in isos:
        if iso.model is not first.model or iso.orientation is not first.orientation or iso.tau != first.tau:
            raise ParameterError("isometries applied row by row must share model, orientation and tau")
    per_row = (len(isos),) + (1,) * (len(shape) - 1)
    columns = zip(*map(_coefficients, isos))
    return first, _Coefficients(*(np.array(column).reshape(per_row) for column in columns))


def _branch(model: Model, k: _Coefficients, z, q):
    """Continuous branch Theta of arg f' at z, given q = c z + d."""
    if model is Model.HALF_SPACE:
        carg = np.arctan2(q.imag, q.real)
    else:
        # |c/d| < 1 on the closed disc keeps Re(1 + (c/d) z) > 0, so the
        # principal argument below is continuous in z.
        carg = k.phase_d + np.angle(1.0 + k.c_over_d * z)
    return -2.0 * carg + k.branch_offset


def arg_derivative(iso: AmbientIsometry, z):
    """Continuous branch of arg f'(z) for the covered Moebius map.

    z is a complex number, a BasePoint or an array of complex points.
    """
    if isinstance(z, BasePoint):
        if z.model is not iso.model:
            raise ModelMismatchError("point model does not match the isometry")
        z = z.z
    k = _coefficients(iso)
    return _branch(iso.model, k, z, k.c * z + k.d)


def _row_signs(iso: AmbientIsometry) -> tuple[float, float, float]:
    """Signs of the x, y and t rows: a reversing map applies R and flips t."""
    if iso.orientation is Orientation.DIRECT:
        return 1.0, 1.0, 1.0
    return (-1.0, 1.0, -1.0) if iso.model is Model.HALF_SPACE else (1.0, -1.0, -1.0)


def apply(iso: AmbientIsometry, p: AmbientPoint) -> AmbientPoint:
    """Apply the isometry to an ambient point."""
    if p.model is not iso.model:
        raise ModelMismatchError("point model does not match the isometry")
    x, y, t = apply_to_coords(iso, p.coords()[None])[0].tolist()
    return AmbientPoint(BasePoint(iso.model, x, y), t)


def _apply(iso: AmbientIsometry, k: _Coefficients, pts: np.ndarray) -> np.ndarray:
    """The one apply formula: iso gives model, orientation and tau, k the
    scalars (shared, or per row as built by _coefficients_for).  The image
    w = (a z + b) r with r = 1 / (c z + d) is written as push_forward_arrays
    writes it, so an array point has one image."""
    z = pts[..., 0] + 1j * pts[..., 1]
    q = k.c * z + k.d
    w = (k.a * z + k.b) * np.reciprocal(q)
    sx, sy, st = _row_signs(iso)
    out = np.empty(z.shape + (3,))
    np.multiply(sx, w.real, out=out[..., 0])
    np.multiply(sy, w.imag, out=out[..., 1])
    out[..., 2] = st * (pts[..., 2] - 2.0 * iso.tau * _branch(iso.model, k, z, q)) + k.shift
    return out


def apply_to_coords(iso: AmbientIsometry, coords: np.ndarray) -> np.ndarray:
    """Vectorized apply on an (..., 3) coordinate array."""
    return _apply(iso, _coefficients(iso), np.asarray(coords, dtype=float))


def apply_to_rows(isometries, coords: np.ndarray) -> np.ndarray:
    """Apply isometries[i] to coords[i] (shape (n, ..., 3)) for every i.

    The isometries must share model, orientation and tau; each row gets the
    bits apply_to_coords gives it as a one-row array.
    """
    pts = np.asarray(coords, dtype=float)
    return _apply(*_coefficients_for(list(isometries), pts.shape[:-1]), pts)


def push_forward_arrays(iso: AmbientIsometry, x, y, vx, vy, vt):
    """Base image (x', y') of points and dF(v) = (dx', dy', dt') of tangent
    vectors (vx, vy, vt) at them, on broadcasting component arrays.

    With z = x + iy, dz = vx + i vy and r = 1 / (cz + d), one np.reciprocal
    per point, the image is w = (az + b) r, written as apply_to_coords
    writes it, so both give each point the same bits; the base differential
    is dw = (ad - bc) dz (r r), f' at any scale of the matrix, and the
    branch moves by dTheta = -2 Im((c dz) r); the row signs follow
    apply_to_coords.  One reciprocal and four products take about half the
    time of the three complex divisions they replace (numpy divides complex
    numbers by Smith's branchy algorithm).  They round differently, in
    about two thirds of the points, but no worse: against np.longdouble the
    relative error of w, dw and (c dz) r averages 0.5 to 0.9 eps either way
    (200,000 random points of the disc, three disc_point maps).  The factor
    ad - bc adds one complex product to dw; over 200,000 random points of
    |z| < 0.999 and three other disc_point maps, the mean relative error of
    dw moved from 0.77-2.09 eps to 0.83-2.09 eps.  The image's fiber
    coordinate is not computed: no metric reads t.
    """
    m = iso.mobius
    z, dz = x + 1j * y, vx + 1j * vy
    r = np.reciprocal(m.c * z + m.d)
    w = (m.a * z + m.b) * r
    dw = ((m.a * m.d - m.b * m.c) * dz) * (r * r)
    dtheta = -2.0 * ((m.c * dz) * r).imag
    sx, sy, st = _row_signs(iso)
    return sx * w.real, sy * w.imag, sx * dw.real, sy * dw.imag, st * (vt - 2.0 * iso.tau * dtheta)


def push_forward(iso: AmbientIsometry, coords: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Images F(p) of (n, 3) points and dF_p(v) of tangent vectors at them."""
    pts = np.asarray(coords, dtype=float)
    vec = np.asarray(vectors, dtype=float)
    *_, dx, dy, dt = push_forward_arrays(iso, pts[..., 0], pts[..., 1], vec[..., 0], vec[..., 1], vec[..., 2])
    return apply_to_coords(iso, pts), np.stack([dx, dy, dt], axis=-1)


def compose(outer: AmbientIsometry, inner: AmbientIsometry) -> AmbientIsometry:
    """Composition outer o inner (inner acts first)."""
    return compose_rows([outer], [inner])[0]


def compose_rows(outers, inners) -> list[AmbientIsometry]:
    """compose(outers[i], inners[i]) for every i: the Moebius algebra per row
    in Python scalars, the reference-point applies as apply_to_rows passes
    (so rows share model, orientation and tau), each row with its compose's
    bits.  An image off the model domain raises BasePoint's InvalidPointError."""
    outers, inners, candidates = list(outers), list(inners), []
    for outer, inner in zip(outers, inners, strict=True):
        if outer.model is not inner.model:
            raise ModelMismatchError("cannot compose isometries of different models")
        if outer.tau != inner.tau:
            raise ParameterError("cannot compose isometries with different tau")
        m_outer = outer.mobius.matrix()
        if inner.orientation is Orientation.REVERSING:
            m_outer = _reflection_adjusted(outer.mobius)
        mob = MobiusMap.normalized(*_matmul(m_outer, inner.mobius.matrix()), outer.model)
        flipped = (outer.orientation is Orientation.REVERSING) != (inner.orientation is Orientation.REVERSING)
        orientation = Orientation.REVERSING if flipped else Orientation.DIRECT
        candidates.append(AmbientIsometry(mob, orientation, 0.0, 0.0, outer.tau))
    model = outers[0].model
    ref = np.tile(_reference_point(model).coords(), (len(outers), 1))
    inner_images = require_in_model(model, apply_to_rows(inners, ref))
    expected = require_in_model(model, apply_to_rows(outers, inner_images))
    got = require_in_model(model, apply_to_rows(candidates, ref))
    if np.any(np.abs(expected[:, :2] - got[:, :2]) > 1e-9):
        raise GeometryError("composed base maps disagree; inconsistent isometries")
    return [
        AmbientIsometry(c.mobius, c.orientation, shift, 0.0, c.tau, family="generic")
        for c, shift in zip(candidates, (expected[:, 2] - got[:, 2]).tolist())
    ]


def inverse(iso: AmbientIsometry) -> AmbientIsometry:
    """Inverse isometry, with the fiber constants matched exactly."""
    a, b, c, d = iso.mobius.matrix()
    inv = (d, -b, -c, a)
    if iso.orientation is Orientation.REVERSING:
        tmp = MobiusMap.normalized(*inv, iso.model)
        inv = _reflection_adjusted(tmp)
    mob = MobiusMap.normalized(*inv, iso.model)
    candidate = AmbientIsometry(mob, iso.orientation, 0.0, 0.0, iso.tau)
    ref = _reference_point(iso.model)
    q = apply(iso, ref)
    r = apply(candidate, q)
    if abs(r.x - ref.x) > 1e-9 or abs(r.y - ref.y) > 1e-9:
        raise GeometryError("inverse base map disagrees; inconsistent isometry")
    return AmbientIsometry(mob, iso.orientation, ref.t - r.t, 0.0, iso.tau)


# Stencil rows of the pullback residual, in units of the axis step h_i:
# (axis i, level, k) with offset level * k along axis i, levels 1 (coarse)
# and 1/2 (fine), k in (-2, -1, 1, 2).  Every factor is a power of two, so
# h_i * unit is exact; the zeros off the axis carry the sign of k.
_LEVELS = np.array([1.0, 0.5])
_STENCIL_UNITS = (
    np.eye(3)[:, None, None, :] * (_LEVELS[:, None] * np.array([-2.0, -1.0, 1.0, 2.0]))[None, :, :, None]
).reshape(24, 3)
_STENCIL_AXIS = np.repeat(np.arange(3), 8)


def _map_pullback_residuals(
    push, coords, model_from: Model, model_to: Model, tau: float, step: float
) -> np.ndarray:
    """Pullback residuals at the rows of (n, 3) coords of a map given as
    push: (n, 25, 3) coordinates -> (n, 25, 3) images.

    Column i of each Jacobian is the Richardson combination (16 fine -
    coarse) / 15 of two five-point stencils along axis i, with steps h_i =
    step * max(1, |p_i|) and h_i / 2; the 24 stencil rows of every point and
    the point itself go through push in one call.
    """
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    h = step * np.maximum(1.0, np.abs(coords))
    rows = np.empty((n, 25, 3))
    np.add(coords[:, None, :], h[:, _STENCIL_AXIS, None] * _STENCIL_UNITS, out=rows[:, :24])
    rows[:, 24] = coords
    images = push(rows)
    stencil = images[:, :24].reshape(n, 3, 2, 4, 3)  # (n, axis, level, k, component)
    m2, m1, p1, p2 = (stencil[:, :, :, j] for j in range(4))
    steps = h[:, :, None] * _LEVELS
    columns = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * steps[..., None])
    jac_t = (16.0 * columns[:, :, 1] - columns[:, :, 0]) / 15.0  # J^T: (n, axis, component)
    image = images[:, 24]
    g_image = metric_arrays(model_to, tau, image[:, 0], image[:, 1])
    g_here = metric_arrays(model_from, tau, coords[:, 0], coords[:, 1])
    r = (jac_t @ g_image @ jac_t.swapaxes(1, 2) - g_here).reshape(n, 9)
    return np.sqrt(np.vecdot(r, r))


def pullback_residuals(isometries, coords: np.ndarray) -> np.ndarray:
    """pullback_residual at each row of (n, 3) coords, for one shared
    isometry or a sequence of n (one per row, sharing model, orientation and
    tau): all n * 25 stencil rows go through one apply."""
    coords = np.asarray(coords, dtype=float)
    iso, k = _coefficients_for(isometries, (len(coords), 25))
    return _map_pullback_residuals(
        lambda rows: _apply(iso, k, rows), coords, iso.model, iso.model, iso.tau, _PULLBACK_STEP
    )


def conversion_pullback_residuals(model: Model, tau: float, coords: np.ndarray) -> np.ndarray:
    """conversion_pullback_residual at each row of (n, 3) coords in model."""
    target = Model.CYLINDER if model is Model.HALF_SPACE else Model.HALF_SPACE

    def push(rows: np.ndarray) -> np.ndarray:
        out = np.empty(rows.shape)
        out[..., 0], out[..., 1], out[..., 2] = convert_coords_arrays(
            model, tau, rows[..., 0], rows[..., 1], rows[..., 2]
        )
        return out

    return _map_pullback_residuals(push, coords, model, target, tau, _PULLBACK_STEP)


def pullback_residual(iso: AmbientIsometry, p: AmbientPoint) -> float:
    """Frobenius norm of J^T G(F p) J - G(p) with a finite-difference Jacobian.

    Vanishes (to truncation error) exactly when the map is isometric near p.
    The Jacobian uses Richardson-extrapolated five-point stencils; the wide
    step keeps the roundoff floor near 1e-10 even where the conformal factor
    is large, which a plain 1e-6 central difference cannot achieve.  The
    n = 1 case of pullback_residuals.
    """
    if p.model is not iso.model:
        raise ModelMismatchError("point model does not match the isometry")
    return float(pullback_residuals(iso, p.coords()[None])[0])


def conversion_pullback_residual(p: AmbientPoint, tau: float) -> float:
    """Pullback residual of the model conversion map at p (same stencil)."""
    return float(conversion_pullback_residuals(p.model, tau, p.coords()[None])[0])


# -- named families ----------------------------------------------------------


def _family_member(
    family: str, mob: MobiusMap, tau: float, parameters: dict, shift=0.0, offset=0.0, orientation=Orientation.DIRECT
) -> AmbientIsometry:
    """The isometry of the named family covering mob, with fiber shift and
    branch offset, its parameters stored sorted by name: isometry_to_json
    writes them in that order and isometry_from_json reads them back, so a
    JSON round trip gives an equal isometry."""
    pairs = tuple(sorted((name, float(value)) for name, value in parameters.items()))
    return AmbientIsometry(mob, orientation, float(shift), float(offset), tau, family, pairs)


def identity_isometry(tau: float, model: Model) -> AmbientIsometry:
    return _family_member("identity", MobiusMap.normalized(1.0, 0.0, 0.0, 1.0, model), tau, {})


def vertical_translation(offset: float, tau: float, model: Model) -> AmbientIsometry:
    mob = MobiusMap.normalized(1.0, 0.0, 0.0, 1.0, model)
    return _family_member("vertical_translation", mob, tau, {"offset": offset}, shift=offset)


def scale_isometry(factor: float, tau: float) -> AmbientIsometry:
    """Half-space homothety z -> factor * z; it fixes t for every tau.

    The factor must lie in the float-safe range [2 _SINGULAR_RTOL,
    1 / (2 _SINGULAR_RTOL)], where the matrix (factor, 0; 0, 1) is not
    singular (MobiusMap.normalized)."""
    if not factor > 0.0:
        raise ParameterError(f"scale factor must be positive, got {factor}")
    if not 2.0 * _SINGULAR_RTOL <= factor <= 0.5 / _SINGULAR_RTOL:
        raise ParameterError(
            f"scale factor {factor} leaves the float-safe range "
            f"[{2.0 * _SINGULAR_RTOL}, {0.5 / _SINGULAR_RTOL}]: its Moebius matrix is singular"
        )
    mob = MobiusMap.normalized(factor, 0.0, 0.0, 1.0, Model.HALF_SPACE)
    return _family_member("scale", mob, tau, {"factor": factor})


def axis_translation_isometry(axis_foot: float, tau: float) -> AmbientIsometry:
    """Half-space map z -> axis_foot/2 - axis_foot^2 / z.

    Swaps the ideal points 0 and infinity with the pair -axis_foot/2,
    +axis_foot/2; its branch satisfies Theta(z) = -2 atan2(y, x).
    ParameterError unless axis_foot^2, the image's height over z = i, is a
    float.
    """
    s = float(axis_foot)
    if not s > 0.0:
        raise ParameterError(f"axis foot must be positive, got {s}")
    if not math.isfinite(s * s):
        raise ParameterError(f"axis foot {s} leaves the float range: axis_foot^2 overflows")
    mob = MobiusMap.normalized(0.5, -s, 1.0 / s, 0.0, Model.HALF_SPACE)
    return _family_member("axis_translation", mob, tau, {"axis_foot": s})


def disc_point_isometry(center: complex, tau: float) -> AmbientIsometry:
    """Disc involution z -> (z - center) / (conj(center) z - 1).

    Exchanges the origin with center; the fiber constant is chosen so the
    origin's fiber maps to t = 0 over the center.
    """
    z0 = complex(center)
    if abs(z0) >= 1.0 - 1e-12:
        raise ParameterError(f"center must lie in the open disc, got {z0}")
    mob = MobiusMap.normalized(1.0, -z0, z0.conjugate(), -1.0, Model.CYLINDER)
    offset = math.pi + 2.0 * cmath.phase(mob.d)
    parameters = {"center_x": z0.real, "center_y": z0.imag}
    return _family_member("disc_point", mob, tau, parameters, shift=2.0 * tau * math.pi, offset=offset)


def halfplane_graph_isometry(x0: float, y0: float, height: float, tau: float) -> AmbientIsometry:
    """Half-space map z -> y0 z + x0 lifted with a constant fiber shift.

    Sends the point (i, 0) to ((x0, y0), height); arg f' vanishes, so the
    fiber rule is a plain shift for every tau.
    """
    if not y0 > 0.0:
        raise ParameterError(f"target height y0 must be positive, got {y0}")
    mob = MobiusMap.normalized(y0, x0, 0.0, 1.0, Model.HALF_SPACE)
    parameters = {"x0": x0, "y0": y0, "height": height}
    return _family_member("halfplane_graph", mob, tau, parameters, shift=height)


def rotation_isometry(angle: float, tau: float) -> AmbientIsometry:
    """Disc rotation about the origin; fixes t for every tau."""
    half = 0.5 * float(angle)
    mob = MobiusMap.normalized(cmath.exp(1j * half), 0.0, 0.0, cmath.exp(-1j * half), Model.CYLINDER)
    theta0 = -2.0 * cmath.phase(mob.d)
    return _family_member("rotation", mob, tau, {"angle": angle}, shift=2.0 * tau * theta0)


def halfplane_reflection(axis_x: float, tau: float) -> AmbientIsometry:
    """Orientation-reversing reflection about the vertical plane x = axis_x."""
    mob = MobiusMap.normalized(1.0, -2.0 * float(axis_x), 0.0, 1.0, Model.HALF_SPACE)
    return _family_member("halfplane_reflection", mob, tau, {"axis_x": axis_x}, orientation=Orientation.REVERSING)


# -- closed-form angle branches (used as cross-checks) ------------------------


def axis_translation_angle(z: complex) -> float:
    """Closed-form branch of arg f' for the axis translation family."""
    return -2.0 * math.atan2(z.imag, z.real)


def point_translation_angle(center: complex, z: complex) -> float:
    """Closed-form smooth branch of arg f' for the disc point translation.

    Quadrant-corrected so it agrees with the continuous branch on the whole
    disc, not only where the naive arctangent formula avoids its cuts.
    """
    x0, y0 = center.real, center.imag
    x, y = z.real, z.imag
    p = x0 * x + y0 * y - 1.0
    q = x * y0 - x0 * y
    return math.pi + math.atan2(2.0 * p * q, p * p - q * q)


# -- serialization ------------------------------------------------------------


def isometry_to_json(iso: AmbientIsometry) -> dict:
    return {
        "schema_version": 1,
        "kind": "ambient_isometry",
        "family": iso.family,
        "model": iso.model.value,
        "tau": iso.tau,
        "orientation": iso.orientation.value,
        "shift": iso.shift,
        "branch_offset": iso.branch_offset,
        "matrix": [[w.real, w.imag] for w in iso.mobius.matrix()],
        "parameters": dict(iso.parameters),
    }


def isometry_from_json(data: dict) -> AmbientIsometry:
    """The isometry of an ``isometry_to_json`` record, with its stored
    coefficients; ParameterError for a malformed record."""
    family = data.get("family")
    if family not in KNOWN_FAMILIES:
        raise ParameterError(f"unknown isometry family {family!r}")
    try:
        model = Model(data["model"])
        orientation = Orientation(data["orientation"])
        a, b, c, d = (complex(re, im) for re, im in data["matrix"])
        MobiusMap.normalized(a, b, c, d, model)  # checks only: the record keeps its stored bits
        if not abs(a * d - b * c - 1.0) <= _COEFF_TOL:
            raise ParameterError(f"Moebius matrix of determinant {a * d - b * c} is not normalized")
        mob, parameters = MobiusMap(a, b, c, d, model), data.get("parameters", {})
        shift, offset = data["shift"], data["branch_offset"]
        return _family_member(family, mob, float(data["tau"]), parameters, shift, offset, orientation)
    except ParameterError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed isometry record: {exc}") from exc
