"""Horizontal lifts of planar curves to the total space.

A lift of a base curve gamma is horizontal when its tangent annihilates
omega + dt, which pins the fiber coordinate up to the starting value:

    t'(r) = -omega(gamma'(r)) = -(w1 x' + w2 y'),

with the connection components (w1, w2) of core.metric_data_arrays in
either model.  Closed-form curve kinds carry exact derivatives; generic
sample curves fall back to not-a-knot cubic splines.  Position and velocity
are numpy-vectorized, so the fiber values at all samples come from one
cumulative_integral call over the curve parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .core import (
    Model,
    ParameterError,
    frame_components_arrays,
    metric_data_arrays,
    require_finite,
    require_in_model,
)
from .quadrature import cumulative_integral


class CurveKind(Enum):
    GENERIC = "generic"
    VERTICAL_LINE = "vertical_line"
    SEMICIRCLE = "semicircle"
    RADIAL_LINE = "radial_line"


class _CubicSpline:
    """Cubic spline through nodes x (increasing) and rows y, with not-a-knot
    ends, as scipy's CubicSpline makes by default.

    The node slopes s solve one tridiagonal system (de Boor, A Practical Guide
    to Splines, ch. IV): 2 nodes give the chord and 3 the parabola through them.
    Each interval holds the cubic in powers of r - x[i].
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        n, dx = x.size, np.diff(x)
        slope = np.diff(y, axis=0) / dx[:, None]
        s = np.repeat(slope, 2, axis=0)  # the chord, for 2 nodes
        if n > 2:
            # row i: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = rhs[i]
            lower, diag, upper = np.zeros(n), np.zeros(n), np.zeros(n)
            lower[1:-1], diag[1:-1], upper[1:-1] = dx[1:], 2.0 * (dx[:-1] + dx[1:]), dx[:-1]
            rhs = np.empty_like(y)
            rhs[1:-1] = 3.0 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
            if n == 3:
                diag[0] = upper[0] = lower[-1] = diag[-1] = 1.0
                rhs[0], rhs[-1] = 2.0 * slope[0], 2.0 * slope[-1]
            else:
                d = x[2] - x[0]
                diag[0], upper[0] = dx[1], d
                rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
                d = x[-1] - x[-3]
                lower[-1], diag[-1] = d, dx[-2]
                rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
            for i in range(1, n):  # elimination without pivoting, as de Boor's CUBSPL does
                w = lower[i] / diag[i - 1]
                diag[i] -= w * upper[i - 1]
                rhs[i] -= w * rhs[i - 1]
            s = np.empty_like(y)
            s[-1] = rhs[-1] / diag[-1]
            for i in range(n - 2, -1, -1):
                s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
        dx = dx[:, None]
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        self.x = x
        self.coefficients = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def __call__(self, r: np.ndarray, derivative: int = 0) -> np.ndarray:
        """Values (derivative 0) or first derivatives (1) at r, one row per point."""
        i = np.clip(np.searchsorted(self.x, r, side="right") - 1, 0, self.x.size - 2)
        h = (r - self.x[i])[..., None]
        c3, c2, c1, c0 = self.coefficients[:, i]
        if derivative:
            return (3.0 * c3 * h + 2.0 * c2) * h + c1
        return ((c3 * h + c2) * h + c1) * h + c0


@dataclass(frozen=True)
class PlanarCurve:
    """Sampled base curve with an optional closed-form kind tag."""

    model: Model
    params: np.ndarray
    points: np.ndarray
    kind: CurveKind = CurveKind.GENERIC
    kind_data: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        params = np.asarray(self.params, dtype=float)
        points = np.asarray(self.points, dtype=float)
        if params.ndim != 1 or params.size < 2:
            raise ParameterError("curve needs at least two parameter values")
        if points.shape != (params.size, 2):
            raise ParameterError("points must have shape (len(params), 2)")
        d = np.diff(params)
        if not (np.all(d > 0.0) or np.all(d < 0.0)):
            raise ParameterError("curve parameters must be strictly monotone")
        require_in_model(self.model, points)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "points", points)

    # closed-form position and velocity where available ----------------------

    def velocity(self) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
        if self.kind is CurveKind.VERTICAL_LINE:
            return lambda r: (np.zeros_like(r), np.ones_like(r))
        if self.kind is CurveKind.SEMICIRCLE:
            _, radius = self.kind_data
            return lambda r: (-radius * np.sin(r), radius * np.cos(r))
        if self.kind is CurveKind.RADIAL_LINE:
            (angle,) = self.kind_data
            return lambda r: (np.full_like(r, math.cos(angle)), np.full_like(r, math.sin(angle)))
        spline = self._spline()
        return lambda r: tuple(np.moveaxis(spline(r, 1), -1, 0))

    def position(self) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
        if self.kind is CurveKind.VERTICAL_LINE:
            (x0,) = self.kind_data
            return lambda r: (np.full_like(r, x0), r)
        if self.kind is CurveKind.SEMICIRCLE:
            x0, radius = self.kind_data
            return lambda r: (x0 + radius * np.cos(r), radius * np.sin(r))
        if self.kind is CurveKind.RADIAL_LINE:
            (angle,) = self.kind_data
            return lambda r: (r * math.cos(angle), r * math.sin(angle))
        spline = self._spline()
        return lambda r: tuple(np.moveaxis(spline(r), -1, 0))

    def _spline(self) -> "_CubicSpline":
        params, points = self.params, self.points
        if params[0] > params[-1]:
            params, points = params[::-1], points[::-1]
        return _CubicSpline(params, points)

    # constructors ------------------------------------------------------------

    @classmethod
    def vertical_line(cls, x0: float, y_start: float, y_end: float, samples: int = 129) -> "PlanarCurve":
        params = np.linspace(y_start, y_end, samples)
        points = np.column_stack([np.full(samples, float(x0)), params])
        return cls(Model.HALF_SPACE, params, points, CurveKind.VERTICAL_LINE, (float(x0),))

    @classmethod
    def geodesic_semicircle(
        cls, center_x: float, radius: float, theta_start: float, theta_end: float, samples: int = 129
    ) -> "PlanarCurve":
        if not radius > 0.0:
            raise ParameterError(f"semicircle radius must be positive, got {radius}")
        for th in (theta_start, theta_end):
            if not 0.0 < th < math.pi:
                raise ParameterError("semicircle angles must lie strictly inside (0, pi)")
        params = np.linspace(theta_start, theta_end, samples)
        points = np.column_stack(
            [center_x + radius * np.cos(params), radius * np.sin(params)]
        )
        return cls(
            Model.HALF_SPACE, params, points, CurveKind.SEMICIRCLE, (float(center_x), float(radius))
        )

    @classmethod
    def radial_line(cls, angle: float, r_start: float, r_end: float, samples: int = 65) -> "PlanarCurve":
        params = np.linspace(r_start, r_end, samples)
        points = np.column_stack([params * math.cos(angle), params * math.sin(angle)])
        return cls(Model.CYLINDER, params, points, CurveKind.RADIAL_LINE, (float(angle),))

    @classmethod
    def from_samples(cls, model: Model, params, points) -> "PlanarCurve":
        return cls(model, np.asarray(params, float), np.asarray(points, float))


@dataclass(frozen=True)
class LiftedCurve:
    """Horizontal lift: base curve plus fiber values at its samples."""

    curve: PlanarCurve
    tau: float
    t: np.ndarray = field(repr=False)

    def coords(self) -> np.ndarray:
        return np.column_stack([self.curve.points, self.t])

    def fiber_variation(self) -> float:
        return float(np.max(self.t) - np.min(self.t))


def _lift_integrand(curve: PlanarCurve, tau: float) -> Callable[[np.ndarray], np.ndarray]:
    pos = curve.position()
    vel = curve.velocity()

    def f(r: np.ndarray) -> np.ndarray:
        _, w1, w2 = metric_data_arrays(curve.model, tau, *pos(r))
        dx, dy = vel(r)
        return -(w1 * dx + w2 * dy)

    return f


def _require_lift_tau(tau: float) -> None:
    """ParameterError unless tau is finite and the fiber drift 2 tau pi of a
    semicircle's lift is a float."""
    require_finite("lift", tau=tau)
    if not math.isfinite(2.0 * abs(tau) * math.pi):
        raise ParameterError(f"lift at tau = {tau} leaves the float range: its fiber drift 2 tau pi overflows")


def horizontal_lift(curve: PlanarCurve, tau: float, t_start: float = 0.0) -> LiftedCurve:
    """Lift the curve horizontally, fixing the fiber value at its first sample.

    For tau = 0 the integrand vanishes and the lift is the constant t_start.
    _require_lift_tau checks tau.
    """
    _require_lift_tau(tau)
    return LiftedCurve(curve, tau, t_start + cumulative_integral(_lift_integrand(curve, tau), curve.params))


def lift_geodesic_semicircle(
    center_x: float,
    radius: float,
    theta_start: float,
    theta_end: float,
    tau: float,
    t_start: float = 0.0,
    samples: int = 129,
) -> LiftedCurve:
    """Closed-form lift along a geodesic semicircle: t = t_start - 2 tau
    (theta - theta_start); _require_lift_tau checks tau."""
    _require_lift_tau(tau)
    curve = PlanarCurve.geodesic_semicircle(center_x, radius, theta_start, theta_end, samples)
    t = t_start - 2.0 * tau * (curve.params - theta_start)
    return LiftedCurve(curve, tau, t)


def horizontality_residuals(lift: LiftedCurve) -> np.ndarray:
    """Frame-vertical component of difference-quotient tangents, normalized.

    Uses centered differences at interior samples; a true horizontal lift
    gives values at the discretization error of the sampling.
    """
    pts = lift.coords()
    mid = pts[1:-1]
    dcoords = (pts[2:] - pts[:-2]) * 0.5
    a1, a2, a3 = frame_components_arrays(
        lift.curve.model, lift.tau, mid[:, 0], mid[:, 1], dcoords[:, 0], dcoords[:, 1], dcoords[:, 2]
    )
    norm = np.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
    return np.abs(a3) / np.maximum(norm, 1e-300)
