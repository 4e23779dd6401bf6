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
        """The map of (a b; c d) scaled to determinant 1, by the one-column _normalized_rows."""
        a, b, c, d = _normalized_rows(np.array([[a], [b], [c], [d]], dtype=complex), model)[:, 0].tolist()
        return cls(a, b, c, d, model)

    def matrix(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)


def _matmul(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """The products of two (4, n) stacks of matrices (a, b, c, d), column
    by column."""
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return np.stack([a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2])


def _normalized_rows(m: np.ndarray, model: Model, checks=()) -> np.ndarray:
    """Each column of a (4, n) stack of Moebius coefficients (a, b, c, d)
    scaled to determinant 1, in one array pass: each column divided by
    sqrt(ad - bc), and the first column that fails a test raises that
    test's ParameterError.  A column takes checks first, (ok, message)
    pairs on the parameters the stack was built from, with ok an (n,)
    boolean array and message a string or a function of the column's
    index; then a non-finite entry; a singular matrix, tested on the
    entries divided by the largest; ad - bc out of the float range; in the
    half space an entry off the real line or ad - bc <= 0; in the disc a
    pole in the closed disc.  A column of the shape (a b; +-conj(b) +-conj(a))
    (_su11) has the real determinant +-(|a|^2 - |b|^2), read as such: the
    scale is then real or imaginary, every scaled entry one rounded
    product, and the result has the SU(1,1) shape (a b; conj(b) conj(a))
    exactly."""
    m = np.asarray(m, dtype=complex)
    size = np.abs(m)
    scale_ref = np.maximum(np.maximum(size[0], size[1]), np.maximum(size[2], size[3]))  # not finite if an entry is not
    with np.errstate(all="ignore"):  # a column that fails a test raises below, before its values are read
        unit = m / np.where(scale_ref > 0.0, scale_ref, 1.0)
        squares = unit.real * unit.real + unit.imag * unit.imag
        spread = squares[0] + squares[1] + squares[2] + squares[3]
        regular = np.abs(unit[0] * unit[3] - unit[1] * unit[2]) > _SINGULAR_RTOL * spread
        det = m[0] * m[3] - m[1] * m[2]
        # such a det is real but for rounding, whose imaginary part would rotate the scale off the shape
        det = np.where(_su11(m) | _su11(m, -1.0), det.real, det)
        scale = np.reciprocal(np.sqrt(det))
        # a real det's scale gets the imaginary part -0.0; as +0.0 it keeps the sign of a half-space entry -0.0
        out = m * (scale + 0.0 if model is Model.HALF_SPACE else scale)
    finite = (np.isfinite(scale_ref), lambda j: f"Moebius coefficients must be finite, got {tuple(m[:, j].tolist())}")
    tests = [*checks, finite, (regular, "Moebius matrix is singular")]
    tests += [(np.isfinite(det) & (det != 0.0), "Moebius determinant ad - bc leaves the float range")]
    if model is Model.HALF_SPACE:
        imag = np.abs(m.imag)
        real = np.maximum(np.maximum(imag[0], imag[1]), np.maximum(imag[2], imag[3])) <= _COEFF_TOL * scale_ref
        tests += [(real, "half-space Moebius maps need real coefficients")]
        tests += [(det.real > 0.0, "half-space Moebius maps need positive determinant")]
        out = out.real.astype(complex)
    else:
        pole_outside = np.abs(out[3]) > np.abs(out[2]) * (1.0 + 1e-12)
        tests += [(pole_outside, "disc Moebius maps must keep the pole outside the closed disc")]
    passed = np.logical_and.reduce([ok for ok, _ in tests])
    if not passed.all():
        j = int(np.argmin(passed))
        message = next(message for ok, message in tests if not ok[j])
        raise ParameterError(message if isinstance(message, str) else message(j))
    return out


def _reflection_adjusted(model: Model, a, b, c, d):
    """Matrix of R o f o R, the positive part seen behind a reflection, from
    the entries of f (scalars or arrays)."""
    if model is Model.HALF_SPACE:
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
        # the apply's fiber term 2 tau Theta, |Theta| <= 3 pi + |branch_offset| (_branch)
        if not math.isfinite(2.0 * abs(self.tau) * (3.0 * math.pi + abs(self.branch_offset))):
            raise ParameterError(
                f"isometry with tau = {self.tau} leaves the float range: its fiber term 2 tau Theta overflows"
            )

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


class _Rows(NamedTuple):
    """Isometries sharing model, orientation and tau, one per row: k holds
    (n,) arrays, each row with the bits _coefficients gives its isometry.
    _apply takes it where it takes an isometry."""

    model: Model
    orientation: Orientation
    tau: float
    k: _Coefficients


def _rows(model: Model, orientation: Orientation, tau: float, m: np.ndarray, branch_offset, shift) -> _Rows:
    """Rows from a (4, n) stack of matrix entries and (n,) arrays of branch
    offsets and shifts; the disc terms c / d and cmath.phase(d) are taken
    row by row in Python scalars, as _coefficients takes them."""
    a, b, c, d = m
    if model is Model.HALF_SPACE:
        c_over_d, phase_d = np.zeros(len(a), dtype=complex), np.zeros(len(a))
    else:
        cs, ds = c.tolist(), d.tolist()
        c_over_d = np.array([x / y for x, y in zip(cs, ds)], dtype=complex)
        phase_d = np.array([cmath.phase(y) for y in ds], dtype=float)
    return _Rows(model, orientation, tau, _Coefficients(a, b, c, d, c_over_d, phase_d, branch_offset, shift))


def _take(rows: _Rows, index) -> _Rows:
    """The rows at an index or slice."""
    return rows._replace(k=_Coefficients(*(column[index] for column in rows.k)))


def _rows_of(isometries) -> _Rows:
    """The rows of a non-empty sequence of isometries sharing model,
    orientation and tau."""
    isos = list(isometries)
    first = isos[0]
    for iso in isos:
        if iso.model is not first.model or iso.orientation is not first.orientation or iso.tau != first.tau:
            raise ParameterError("isometries applied row by row must share model, orientation and tau")
    m = np.array([iso.mobius.matrix() for iso in isos], dtype=complex).T
    offsets = np.array([iso.branch_offset for iso in isos], dtype=float)
    shifts = np.array([iso.shift for iso in isos], dtype=float)
    return _rows(first.model, first.orientation, first.tau, m, offsets, shifts)


def _isometries(rows: _Rows) -> list[AmbientIsometry]:
    """One generic AmbientIsometry per row."""
    k = rows.k
    columns = (k.a, k.b, k.c, k.d, k.shift, k.branch_offset)
    return [
        AmbientIsometry(MobiusMap(a, b, c, d, rows.model), rows.orientation, shift, offset, rows.tau)
        for a, b, c, d, shift, offset in zip(*(column.tolist() for column in columns))
    ]


def _coefficients_for(isometries, shape: tuple[int, ...]) -> tuple[AmbientIsometry | _Rows, _Coefficients]:
    """One isometry with its scalars, or the rows (_rows_of) of a sequence
    with one isometry per row (axis 0) of points of the given shape, with
    coefficient arrays that broadcast against them."""
    if isinstance(isometries, AmbientIsometry):
        return isometries, _coefficients(isometries)
    isos = list(isometries)
    if not shape or len(isos) != shape[0]:
        raise ParameterError(f"{len(isos)} isometries for points of shape {shape}")
    rows = _rows_of(isos)
    per_row = (len(isos),) + (1,) * (len(shape) - 1)
    return rows, _Coefficients(*(np.reshape(column, per_row) for column in rows.k))


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


def _row_signs(iso: AmbientIsometry | _Rows) -> tuple[float, float, float]:
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


def _apply(iso: AmbientIsometry | _Rows, k: _Coefficients, pts: np.ndarray) -> np.ndarray:
    """The one apply formula: iso (an isometry or _Rows) gives model,
    orientation and tau, k the scalars (shared, or per row as built by
    _coefficients_for or _rows).  The image w = (a z + b) r with r = 1 /
    (c z + d) is written as push_forward_arrays writes it, so an array point
    has one image."""
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
    """compose(outers[i], inners[i]) for every i, as array passes over the
    rows (_compose), so the rows share model, orientation and tau; each row
    gets the bits of its one-row compose.  An image off the model domain
    raises BasePoint's InvalidPointError."""
    outers, inners = list(outers), list(inners)
    for outer, inner in zip(outers, inners, strict=True):
        if outer.model is not inner.model:
            raise ModelMismatchError("cannot compose isometries of different models")
        if outer.tau != inner.tau:
            raise ParameterError("cannot compose isometries with different tau")
    return _isometries(_compose(_rows_of(outers), _rows_of(inners)))


def _su11(m: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """Columns of a (4, n) stack whose matrix has the shape (a b; sign
    conj(b) sign conj(a))."""
    return (m[2] == sign * m[1].conjugate()) & (m[3] == sign * m[0].conjugate())


def _compose(outer: _Rows, inner: _Rows) -> _Rows:
    """outer o inner row by row: the matrix product and its normalisation
    as array passes (_matmul, _normalized_rows), and the fiber shift the
    reference point's image under both factors less its image under the
    unshifted product, through _apply.  A product of two SU(1,1) matrices
    (a b; conj(b) conj(a)) is written with c = conj(b) and d = conj(a),
    which the computed c and d equal but for rounding, and the
    normalisation keeps that shape.  The base images must agree to 1e-9
    (GeometryError)."""
    m_outer, m_inner = np.stack(outer.k[:4]), np.stack(inner.k[:4])
    if inner.orientation is Orientation.REVERSING:
        m_outer = np.stack(_reflection_adjusted(outer.model, *m_outer))
    m = _matmul(m_outer, m_inner)
    if outer.model is Model.CYLINDER:
        su11 = _su11(m_outer) & _su11(m_inner)
        m[2:] = np.where(su11, m[[1, 0]].conjugate(), m[2:])
    m = _normalized_rows(m, outer.model)
    flipped = (outer.orientation is Orientation.REVERSING) != (inner.orientation is Orientation.REVERSING)
    orientation = Orientation.REVERSING if flipped else Orientation.DIRECT
    zeros = np.zeros(m.shape[1])
    candidate = _rows(outer.model, orientation, outer.tau, m, zeros, zeros)
    ref = np.tile(_reference_point(outer.model).coords(), (m.shape[1], 1))
    inner_images = require_in_model(outer.model, _apply(inner, inner.k, ref))
    expected = require_in_model(outer.model, _apply(outer, outer.k, inner_images))
    got = require_in_model(outer.model, _apply(candidate, candidate.k, ref))
    if np.any(np.abs(expected[:, :2] - got[:, :2]) > 1e-9):
        raise GeometryError("composed base maps disagree; inconsistent isometries")
    return candidate._replace(k=candidate.k._replace(shift=expected[:, 2] - got[:, 2]))


def _disc_point_rows(centers: np.ndarray, tau: float) -> _Rows:
    """The disc involutions z -> (z - z0) / (conj(z0) z - 1) of a complex
    array of centers z0, as rows; disc_point_isometry is the one-row case.
    _normalized_rows scales the matrix (1, -z0; conj(z0), -1) to the
    SU(1,1) shape (a b; conj(b) conj(a)) exactly.
    The fiber shift 2 tau pi and the branch offset pi + 2 phase(d) send the
    origin's fiber to t = 0 over z0.  A center must be finite and in the
    open disc |z0| < 1 - 1e-12."""
    centers = np.asarray(centers, dtype=complex)
    n, one = len(centers), np.ones(len(centers), dtype=complex)
    checks = [(np.isfinite(centers), lambda j: f"center must be finite, got {complex(centers[j])}")]
    in_disc = np.abs(centers) < 1.0 - 1e-12
    checks += [(in_disc, lambda j: f"center must lie in the open disc, got {complex(centers[j])}")]
    m = _normalized_rows(np.stack([one, -centers, centers.conjugate(), -one]), Model.CYLINDER, checks)
    rows = _rows(Model.CYLINDER, Orientation.DIRECT, tau, m, np.zeros(n), np.full(n, 2.0 * tau * math.pi))
    return rows._replace(k=rows.k._replace(branch_offset=math.pi + 2.0 * rows.k.phase_d))


def _vertical_rows(offsets: np.ndarray, tau: float, model: Model) -> _Rows:
    """The translations t -> t + offset of an array of offsets, as rows: the
    identity matrix, shift offset; vertical_translation is the one-row case."""
    n = len(offsets)
    identity = np.repeat(np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex), n, axis=1)
    return _rows(model, Orientation.DIRECT, tau, identity, np.zeros(n), np.asarray(offsets, dtype=float))


def _scale_rows(factors: np.ndarray, tau: float) -> _Rows:
    """The half-space homotheties z -> factor z of an array of factors, as
    rows; scale_isometry is the one-row case.  A factor must be positive and
    lie in the float-safe range [2 _SINGULAR_RTOL, 1 / (2 _SINGULAR_RTOL)],
    where the matrix (factor, 0; 0, 1) is not singular."""
    f, low, high = np.asarray(factors, dtype=float), 2.0 * _SINGULAR_RTOL, 0.5 / _SINGULAR_RTOL
    checks = [(f > 0.0, lambda j: f"scale factor must be positive, got {f[j]}")]
    out_of_range = f"leaves the float-safe range [{low}, {high}]: its Moebius matrix is singular"
    checks += [((low <= f) & (f <= high), lambda j: f"scale factor {f[j]} {out_of_range}")]
    zero = np.zeros(len(f))
    m = _normalized_rows(np.stack([f, zero, zero, np.ones(len(f))]), Model.HALF_SPACE, checks)
    return _rows(Model.HALF_SPACE, Orientation.DIRECT, tau, m, zero, zero)


def _axis_translation_rows(feet: np.ndarray, tau: float) -> _Rows:
    """The half-space maps z -> axis_foot/2 - axis_foot^2 / z of an array of
    axis feet, as rows; axis_translation_isometry is the one-row case.  A
    foot must be positive, and its square, the image's height over z = i,
    a float."""
    s, zero = np.asarray(feet, dtype=float), np.zeros(len(feet))
    with np.errstate(all="ignore"):  # a foot that fails a check raises before its row is read
        checks = [(s > 0.0, lambda j: f"axis foot must be positive, got {s[j]}")]
        checks += [(np.isfinite(s * s), lambda j: f"axis foot {s[j]} leaves the float range: axis_foot^2 overflows")]
        m = _normalized_rows(np.stack([np.full(len(s), 0.5), -s, 1.0 / s, zero]), Model.HALF_SPACE, checks)
    return _rows(Model.HALF_SPACE, Orientation.DIRECT, tau, m, zero, zero)


def _halfplane_graph_rows(x0: np.ndarray, y0: np.ndarray, height: np.ndarray, tau: float) -> _Rows:
    """The half-space maps z -> y0 z + x0 with fiber shift height, of arrays
    of x0, y0 and heights, as rows; halfplane_graph_isometry is the one-row
    case.  A target height y0 must be positive."""
    y0, zero = np.asarray(y0, dtype=float), np.zeros(len(y0))
    checks = [(y0 > 0.0, lambda j: f"target height y0 must be positive, got {y0[j]}")]
    m = _normalized_rows(np.stack([y0, np.asarray(x0, dtype=float), zero, np.ones(len(y0))]), Model.HALF_SPACE, checks)
    return _rows(Model.HALF_SPACE, Orientation.DIRECT, tau, m, zero, np.asarray(height, dtype=float))


def _transports(sources: np.ndarray, targets: np.ndarray, tau: float) -> list[AmbientIsometry]:
    """For each row of sources and targets, points of the cylinder model as
    (n, 3) coordinates, the direct isometry sending sources[i] onto
    targets[i]: the disc involution of the source's base point, then that
    of the target's (disc_point_isometry), composed as compose_rows
    composes, then the vertical translation that puts the fiber coordinate
    on the target's, all as array passes over the rows.  That translation
    is the flow of the unit Killing field along the fibers: after a map it
    only adds its offset, the lift, to the map's fiber shift, so the lift
    goes there and the matrix stays the involutions' product.  Every matrix
    has the SU(1,1) shape (a b; conj(b) conj(a)) exactly (_disc_point_rows,
    _compose).  A base point off the open disc raises _disc_point_rows'
    ParameterError, an image the model rejects require_in_model's
    InvalidPointError."""
    n = len(sources)
    z = np.concatenate([targets[:, 0] + 1j * targets[:, 1], sources[:, 0] + 1j * sources[:, 1]])
    involutions = _disc_point_rows(z, tau)
    moves = _compose(_take(involutions, slice(n)), _take(involutions, slice(n, None)))
    images = _apply(moves, moves.k, sources)
    lifts = targets[:, 2] - require_in_model(Model.CYLINDER, images)[:, 2]
    return _isometries(moves._replace(k=moves.k._replace(shift=moves.k.shift + lifts)))


def inverse(iso: AmbientIsometry) -> AmbientIsometry:
    """Inverse isometry, with the fiber constants matched exactly."""
    a, b, c, d = iso.mobius.matrix()
    inv = (d, -b, -c, a)
    if iso.orientation is Orientation.REVERSING:
        tmp = MobiusMap.normalized(*inv, iso.model)
        inv = _reflection_adjusted(iso.model, *tmp.matrix())
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


def _row_member(family: str, rows: _Rows, parameters: dict) -> AmbientIsometry:
    """The named family's isometry of the one row of a row builder."""
    (iso,) = _isometries(rows)
    return _family_member(family, iso.mobius, iso.tau, parameters, iso.shift, iso.branch_offset, iso.orientation)


def identity_isometry(tau: float, model: Model) -> AmbientIsometry:
    return _family_member("identity", MobiusMap.normalized(1.0, 0.0, 0.0, 1.0, model), tau, {})


def vertical_translation(offset: float, tau: float, model: Model) -> AmbientIsometry:
    """The translation t -> t + offset, the one-row case of _vertical_rows."""
    return _row_member("vertical_translation", _vertical_rows([offset], tau, model), {"offset": offset})


def scale_isometry(factor: float, tau: float) -> AmbientIsometry:
    """Half-space homothety z -> factor * z, the one-row case of
    _scale_rows; it fixes t for every tau."""
    return _row_member("scale", _scale_rows([factor], tau), {"factor": factor})


def axis_translation_isometry(axis_foot: float, tau: float) -> AmbientIsometry:
    """Half-space map z -> axis_foot/2 - axis_foot^2 / z, the one-row case
    of _axis_translation_rows.

    Swaps the ideal points 0 and infinity with the pair -axis_foot/2,
    +axis_foot/2; its branch satisfies Theta(z) = -2 atan2(y, x).
    """
    return _row_member("axis_translation", _axis_translation_rows([axis_foot], tau), {"axis_foot": axis_foot})


def disc_point_isometry(center: complex, tau: float) -> AmbientIsometry:
    """Disc involution z -> (z - center) / (conj(center) z - 1), the one-row
    case of _disc_point_rows.

    Exchanges the origin with center; the fiber constant is chosen so the
    origin's fiber maps to t = 0 over the center.
    """
    z0 = complex(center)
    return _row_member("disc_point", _disc_point_rows([z0], tau), {"center_x": z0.real, "center_y": z0.imag})


def halfplane_graph_isometry(x0: float, y0: float, height: float, tau: float) -> AmbientIsometry:
    """Half-space map z -> y0 z + x0 lifted with a constant fiber shift, the
    one-row case of _halfplane_graph_rows.

    Sends the point (i, 0) to ((x0, y0), height); arg f' vanishes, so the
    fiber rule is a plain shift for every tau.
    """
    parameters = {"x0": x0, "y0": y0, "height": height}
    return _row_member("halfplane_graph", _halfplane_graph_rows([x0], [y0], [height], tau), parameters)


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
    if not isinstance(data, dict) or not isinstance(data.get("parameters", {}), dict):
        raise ParameterError("malformed isometry record: the record and its parameters must be JSON objects")
    family = data.get("family")
    if not isinstance(family, str) or family not in KNOWN_FAMILIES:
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
