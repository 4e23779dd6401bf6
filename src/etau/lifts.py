"""Horizontal lifts of planar curves to the total space.

A lift of a base curve gamma is horizontal when its tangent annihilates
omega + dt, which pins the fiber coordinate up to the starting value:

    t'(r) = -omega(gamma'(r)) = -(w1 x' + w2 y'),

with the connection components (w1, w2) of core.metric_data_arrays in
either model.  Closed-form curve kinds carry exact derivatives; generic
sample curves fall back to cubic splines.  Position and velocity are
numpy-vectorized, so the fiber values at all samples come from one
cumulative_integral call over the curve parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable

import numpy as np

from .core import (
    BOUNDARY_MARGIN,
    InvalidPointError,
    Model,
    ParameterError,
    frame_components_arrays,
    metric_data_arrays,
)
from .quadrature import cumulative_integral

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline


class CurveKind(Enum):
    GENERIC = "generic"
    VERTICAL_LINE = "vertical_line"
    SEMICIRCLE = "semicircle"
    RADIAL_LINE = "radial_line"


def _validate_points(model: Model, points: np.ndarray) -> None:
    x, y = points[:, 0], points[:, 1]
    if model is Model.HALF_SPACE:
        if not np.all(y > BOUNDARY_MARGIN):
            raise InvalidPointError("curve leaves the open half space")
    else:
        if not np.all(x * x + y * y < 1.0 - BOUNDARY_MARGIN):
            raise InvalidPointError("curve leaves the open disc")


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
        _validate_points(self.model, points)
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
        sx, sy = self._splines()
        dsx, dsy = sx.derivative(), sy.derivative()
        return lambda r: (dsx(r), dsy(r))

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
        sx, sy = self._splines()
        return lambda r: (sx(r), sy(r))

    def _splines(self) -> tuple[CubicSpline, CubicSpline]:
        # only sample curves built by from_samples get here, so scipy's
        # interpolation module loads only for them
        from scipy.interpolate import CubicSpline

        params, points = self.params, self.points
        if params[0] > params[-1]:
            params, points = params[::-1], points[::-1]
        return (
            CubicSpline(params, points[:, 0]),
            CubicSpline(params, points[:, 1]),
        )

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


def horizontal_lift(curve: PlanarCurve, tau: float, t_start: float = 0.0) -> LiftedCurve:
    """Lift the curve horizontally, fixing the fiber value at its first sample.

    For tau = 0 the integrand vanishes and the lift is the constant t_start.
    """
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
    """Closed-form lift along a geodesic semicircle: t = t_start - 2 tau (theta - theta_start)."""
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
