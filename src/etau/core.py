"""Coordinate models of the twisted line bundles over the hyperbolic plane.

The base is the hyperbolic plane in one of two conformal models: the upper
half plane (y > 0) or the unit disc.  The total space carries coordinates
(x, y, t) and the ambient metric

    lam^2 (dx^2 + dy^2) + (omega + dt)^2,    omega = w1 dx + w2 dy,

where lam is the conformal factor and omega the connection form of the
bundle.  In closed form, with tau the bundle curvature parameter:

    half plane:  lam = 1/y,                  (w1, w2) = (-2 tau / y, 0);
    disc:        lam = 2/(1 - x^2 - y^2),    (w1, w2) = (2 tau lam y, -2 tau lam x).

One array kernel, metric_data_arrays, returns (lam, w1, w2); the metric
tensors, quadratic forms, frames and the scalar API all read it.  tau = 0 is
the Riemannian product of the hyperbolic plane with the line.  Vertical
translation in t is an isometry for every tau, so all metric quantities
depend on the base point only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

BOUNDARY_MARGIN = 1e-12


class GeometryError(ValueError):
    """Base class for geometric precondition failures."""


class InvalidPointError(GeometryError):
    """Point lies outside the open model domain."""


class ModelMismatchError(GeometryError):
    """Operands live in different base models."""


class ParameterError(GeometryError):
    """Parameter outside the admissible range."""


class FeasibilityError(GeometryError):
    """Requested construction has no admissible parameters."""


class ConvergenceError(GeometryError):
    """Iterative procedure failed to converge."""


def require_finite(what: str, **values: float) -> None:
    """Raise ParameterError if any of the named parameters is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{what} {name} must be finite, got {value}")


class Model(Enum):
    HALF_SPACE = "half_space"
    CYLINDER = "cylinder"


@dataclass(frozen=True)
class SpaceParams:
    """Bundle curvature together with the base model in use."""

    tau: float
    model: Model = Model.HALF_SPACE

    def __post_init__(self) -> None:
        require_finite("space", tau=self.tau)


@dataclass(frozen=True)
class BasePoint:
    """Point of the hyperbolic base in the coordinates of its model."""

    model: Model
    x: float
    y: float

    def __post_init__(self) -> None:
        if self.model is Model.HALF_SPACE:
            if not self.y > BOUNDARY_MARGIN:
                raise InvalidPointError(
                    f"half-space point needs y > {BOUNDARY_MARGIN}, got y={self.y}"
                )
        else:
            if not self.x * self.x + self.y * self.y < 1.0 - BOUNDARY_MARGIN:
                raise InvalidPointError(
                    f"disc point needs x^2+y^2 < 1 - {BOUNDARY_MARGIN}, "
                    f"got ({self.x}, {self.y})"
                )

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


@dataclass(frozen=True)
class AmbientPoint:
    """Point of the total space: a base point plus fiber coordinate t."""

    base: BasePoint
    t: float

    @property
    def model(self) -> Model:
        return self.base.model

    @property
    def x(self) -> float:
        return self.base.x

    @property
    def y(self) -> float:
        return self.base.y

    def coords(self) -> np.ndarray:
        return np.array([self.base.x, self.base.y, self.t])


@dataclass(frozen=True)
class TangentVector:
    """Coordinate components (dx, dy, dt) attached to an ambient point."""

    point: AmbientPoint
    dx: float
    dy: float
    dt: float

    def coords(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dt])


def ensure_same_model(p: BasePoint, q: BasePoint) -> None:
    if p.model is not q.model:
        raise ModelMismatchError(f"mixed models {p.model} and {q.model}")


# -- metric data -------------------------------------------------------------
#
# metric_data_arrays is the one kernel for the conformal factor and the
# connection form; every other metric quantity, array or scalar, reads it.


def metric_data_arrays(model: Model, tau: float, x, y):
    """Conformal factor lam and connection components (w1, w2), omega = w1 dx + w2 dy.

    The three arrays have the broadcast shape of x and y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if model is Model.HALF_SPACE:
        # lam and w1 read y only, which graph charts pass as a row against a column of x
        shape = np.broadcast(x, y).shape
        lam = np.divide(1.0, y, out=np.empty(shape))
        return lam, np.divide(-2.0 * tau, y, out=np.empty(shape)), np.zeros(shape)
    lam = 2.0 / (1.0 - x * x - y * y)
    return lam, 2.0 * tau * lam * y, -2.0 * tau * lam * x


def metric_data_derivative_arrays(model: Model, tau: float, x, y, ex, ey):
    """Derivatives of (lam, w1, w2) of metric_data_arrays along base vectors (ex, ey)."""
    lam, _, _ = metric_data_arrays(model, tau, x, y)
    if model is Model.HALF_SPACE:
        # lam and w1 are multiples of 1/y, whose derivative is -lam^2 ey
        dlam = -lam * lam * np.asarray(ey, dtype=float)
        return dlam, -2.0 * tau * dlam, np.zeros_like(dlam)
    dlam = lam * lam * (x * ex + y * ey)
    return dlam, 2.0 * tau * (dlam * y + lam * ey), -2.0 * tau * (dlam * x + lam * ex)


def frame_components_arrays(model: Model, tau: float, x, y, vx, vy, vt):
    """Frame components (a1, a2, a3) of coordinate vectors (vx, vy, vt)."""
    lam, w1, w2 = metric_data_arrays(model, tau, x, y)
    a1 = lam * np.asarray(vx, dtype=float)
    a2 = lam * np.asarray(vy, dtype=float)
    a3 = np.asarray(vt, dtype=float) + w1 * vx + w2 * vy
    return a1, a2, a3


def metric_arrays(model: Model, tau: float, x, y) -> np.ndarray:
    """Coordinate metric matrices, shape (..., 3, 3)."""
    lam, w1, w2 = metric_data_arrays(model, tau, x, y)
    g = np.empty(lam.shape + (3, 3))
    g[..., 0, 0] = lam * lam + w1 * w1
    g[..., 0, 1] = w1 * w2
    g[..., 0, 2] = w1
    g[..., 1, 0] = w1 * w2
    g[..., 1, 1] = lam * lam + w2 * w2
    g[..., 1, 2] = w2
    g[..., 2, 0] = w1
    g[..., 2, 1] = w2
    g[..., 2, 2] = 1.0
    return g


def metric_quadratic_form(model: Model, tau: float, x, y, dx, dy, dt):
    """Squared length lam^2 (dx^2 + dy^2) + (dt + w1 dx + w2 dy)^2 of the
    coordinate vectors (dx, dy, dt) at the base points (x, y).

    Equal to delta @ metric_arrays(...) @ delta without building the
    (..., 3, 3) tensors; as a sum of squares it is never negative.
    """
    lam, w1, w2 = metric_data_arrays(model, tau, x, y)
    vertical = dt + w1 * dx + w2 * dy
    return lam * lam * (dx * dx + dy * dy) + vertical * vertical


# -- scalar API --------------------------------------------------------------


def conformal_factor(p: BasePoint) -> float:
    return float(metric_data_arrays(p.model, 0.0, p.x, p.y)[0])


def metric_at(p: AmbientPoint, tau: float) -> np.ndarray:
    """Coordinate metric at p as a 3x3 array.  Its determinant is lam^4."""
    return metric_arrays(p.model, tau, p.x, p.y)


def frame_at(p: AmbientPoint, tau: float) -> tuple[TangentVector, TangentVector, TangentVector]:
    """Orthonormal frame (E1, E2, E3) with E3 the unit vertical field."""
    lam, w1, w2 = (float(v) for v in metric_data_arrays(p.model, tau, p.x, p.y))
    e1 = TangentVector(p, 1.0 / lam, 0.0, -w1 / lam)
    e2 = TangentVector(p, 0.0, 1.0 / lam, -w2 / lam)
    e3 = TangentVector(p, 0.0, 0.0, 1.0)
    return e1, e2, e3


def project(p: AmbientPoint) -> BasePoint:
    """Bundle projection onto the base."""
    return p.base


# -- model conversion --------------------------------------------------------
#
# The base models are identified by the Moebius map phi(z) = (i z + 1)/(z + i)
# from the half plane onto the disc.  The fiber coordinate transforms by
# t -> t - 4 * tau * arctan(x / (y + 1)), which makes the identification an
# isometry of the ambient metrics for every tau; the sign is fixed by the
# requirement J^T G_cyl J = G_half (see the pullback check in isometries).


def convert_coords_arrays(model: Model, tau: float, x, y, t):
    """Isometric change of model on coordinate arrays in model; returns (x', y', t')."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    if model is Model.HALF_SPACE:
        den = x * x + (y + 1.0) ** 2
        return (
            2.0 * x / den,
            (x * x + y * y - 1.0) / den,
            t - 4.0 * tau * np.arctan2(x, y + 1.0),
        )
    den = x * x + (1.0 - y) ** 2
    return (
        2.0 * x / den,
        (1.0 - x * x - y * y) / den,
        t + 4.0 * tau * np.arctan2(x, 1.0 - y),
    )


def convert_model(p: AmbientPoint, tau: float) -> AmbientPoint:
    """Isometric change of model, in whichever direction p requires."""
    x, y, t = convert_coords_arrays(p.model, tau, p.x, p.y, p.t)
    target = Model.CYLINDER if p.model is Model.HALF_SPACE else Model.HALF_SPACE
    return AmbientPoint(BasePoint(target, float(x), float(y)), float(t))


# -- hyperbolic distances ----------------------------------------------------


def hyperbolic_distance(p: BasePoint, q: BasePoint) -> float:
    """Distance in the base hyperbolic plane."""
    ensure_same_model(p, q)
    if p.model is Model.HALF_SPACE:
        dx = p.x - q.x
        dy = p.y - q.y
        arg = 1.0 + (dx * dx + dy * dy) / (2.0 * p.y * q.y)
        return math.acosh(max(arg, 1.0))
    num = abs(p.z - q.z)
    den = abs(1.0 - p.z * q.z.conjugate())
    r = num / den
    r = min(r, 1.0 - 1e-16)
    return 2.0 * math.atanh(r)


def distance_to_vertical_geodesic(p: BasePoint, s: float) -> float:
    """Distance from p to the half-space geodesic {x = s}."""
    if p.model is not Model.HALF_SPACE:
        raise ModelMismatchError("vertical geodesics live in the half-space model")
    return math.asinh(abs(p.x - s) / p.y)


# -- lengths -----------------------------------------------------------------


def chord_length(p: AmbientPoint, q: AmbientPoint, tau: float) -> float:
    """Length of the coordinate chord pq in the metric at its midpoint."""
    ensure_same_model(p.base, q.base)
    sq = metric_quadratic_form(
        p.model, tau, 0.5 * (p.x + q.x), 0.5 * (p.y + q.y), q.x - p.x, q.y - p.y, q.t - p.t
    )
    return math.sqrt(sq)


# Gauss-Newton steps of chord_distances: a point on its surface stops after
# two or three; a point well off it converges linearly.
_CHORD_SEARCH_BUDGET = 50


def chord_distances(
    model: Model, tau: float, q, surface, tangents, start, lower, upper, accept_below: float = 0.0
) -> np.ndarray:
    """Chord distances from (n, 3) points q to a parametrized surface.

    At (m, p) surface parameters params, surface(params) returns the surface
    points (m, 3) and tangents(params) their parameter derivatives
    (m, 3, p).  The residual of a row is the frame-component vector of the
    chord from q to its surface point in the metric at the chord's midpoint,
    so its norm is the chord_length of the pair; its Jacobian also moves
    that midpoint (metric_data_derivative_arrays).  A batched Gauss-Newton
    search starts every row at its row of start (n, p): each step is the
    least-squares step, clipped to the parameter bounds lower and upper
    (p,); a row keeps a step only where it lowers the chord and stops at its
    first step that does not, so no result exceeds the chord at the start.
    A row whose start chord is already below accept_below is not searched,
    and no row takes more than _CHORD_SEARCH_BUDGET steps.  Returns the (n,)
    chord lengths.
    """
    q = np.asarray(q, dtype=float)
    params = np.array(start, dtype=float)

    def chord(k, at):
        """Residuals (m, 3) of rows k at parameters at, with the chord vectors (m, 3)."""
        delta = surface(at) - q[k]
        mx, my = q[k, 0] + 0.5 * delta[:, 0], q[k, 1] + 0.5 * delta[:, 1]
        return np.stack(frame_components_arrays(model, tau, mx, my, *delta.T), axis=-1), delta

    def jacobian(k, at, delta):
        v = tangents(at)
        dx, dy = delta[:, 0, None], delta[:, 1, None]
        mx, my = q[k, 0, None] + 0.5 * dx, q[k, 1, None] + 0.5 * dy
        dlam, dw1, dw2 = metric_data_derivative_arrays(model, tau, mx, my, 0.5 * v[:, 0], 0.5 * v[:, 1])
        a1, a2, a3 = frame_components_arrays(model, tau, mx, my, v[:, 0], v[:, 1], v[:, 2])
        return np.stack([a1 + dlam * dx, a2 + dlam * dy, a3 + dw1 * dx + dw2 * dy], axis=1)

    r, delta = chord(np.arange(len(q)), params)
    sq = np.sum(r * r, axis=-1)
    k = np.flatnonzero(np.sqrt(sq) >= accept_below)
    r, delta = r[k], delta[k]
    for _ in range(_CHORD_SEARCH_BUDGET):
        if not k.size:
            break
        step = (np.linalg.pinv(jacobian(k, params[k], delta)) @ r[..., None])[..., 0]
        trial = np.clip(params[k] - step, lower, upper)
        # a wild step can overflow to a non-finite chord, which is not lower
        with np.errstate(over="ignore", invalid="ignore"):
            r, delta = chord(k, trial)
            sq_new = np.sum(r * r, axis=-1)
        lower_chord = sq_new < sq[k]
        k = k[lower_chord]
        params[k], sq[k] = trial[lower_chord], sq_new[lower_chord]
        r, delta = r[lower_chord], delta[lower_chord]
    return np.sqrt(sq)


def polyline_length(model: Model, tau: float, coords: np.ndarray) -> float:
    """Sum of midpoint-metric chord lengths along a coordinate polyline (n, 3)."""
    pts = np.asarray(coords, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
        raise ParameterError("polyline needs shape (n, 3) with n >= 2")
    mid = 0.5 * (pts[:-1] + pts[1:])
    delta = pts[1:] - pts[:-1]
    sq = metric_quadratic_form(model, tau, mid[:, 0], mid[:, 1], delta[:, 0], delta[:, 1], delta[:, 2])
    return float(np.sum(np.sqrt(sq)))
