"""Tests for horizontal lifts of planar curves."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from etau.core import InvalidPointError, Model, ParameterError
from etau.lifts import (
    CurveKind,
    LiftedCurve,
    PlanarCurve,
    horizontal_lift,
    horizontality_residuals,
    lift_geodesic_semicircle,
)


@pytest.mark.parametrize(
    "model, point",
    [(Model.HALF_SPACE, (0.2, -0.1)), (Model.CYLINDER, (0.8, 0.7)), (Model.HALF_SPACE, (0.2, math.nan))],
    ids=["off-half-plane", "off-disc", "nan"],
)
def test_curve_samples_off_the_model_domain_are_rejected(model, point) -> None:
    points = [(0.0, 0.5), point, (0.1, 0.6)]
    with pytest.raises(InvalidPointError):
        PlanarCurve.from_samples(model, [0.0, 0.5, 1.0], points)


def test_semicircle_quadrature_matches_closed_form() -> None:
    tau = 0.5
    lift = horizontal_lift(
        PlanarCurve.geodesic_semicircle(0.3, 1.5, 0.3, math.pi - 0.3, samples=41),
        tau,
        t_start=0.25,
    )
    closed = lift_geodesic_semicircle(
        0.3, 1.5, 0.3, math.pi - 0.3, tau, t_start=0.25, samples=41
    )
    assert np.max(np.abs(lift.t - closed.t)) < 1e-10


def test_semicircle_closed_form_slope() -> None:
    # t(theta) = t0 - 2 tau (theta - theta0) along any geodesic semicircle.
    lift = lift_geodesic_semicircle(1.0, 2.0, 0.4, 2.8, -0.5, t_start=1.0, samples=9)
    want = 1.0 + 1.0 * (lift.curve.params - 0.4)
    assert np.max(np.abs(lift.t - want)) < 1e-14


def test_full_semicircle_variation_hits_bound() -> None:
    tau = 0.5
    eps = 1e-6
    lift = lift_geodesic_semicircle(0.0, 1.0, eps, math.pi - eps, tau)
    bound = 2.0 * abs(tau) * math.pi
    assert lift.fiber_variation() <= bound + 1e-12
    assert lift.fiber_variation() == pytest.approx(bound, abs=1e-5)


def test_zero_tau_lift_is_constant() -> None:
    lift = horizontal_lift(
        PlanarCurve.geodesic_semicircle(0.0, 1.0, 0.2, 2.9, samples=65), 0.0, t_start=0.3
    )
    assert np.max(np.abs(lift.t - 0.3)) == 0.0


def test_vertical_line_lift_is_constant() -> None:
    # dx = 0 along the curve, so the integrand vanishes for every tau.
    lift = horizontal_lift(PlanarCurve.vertical_line(0.7, 0.2, 3.0, samples=33), 0.5, t_start=-0.4)
    assert np.max(np.abs(lift.t + 0.4)) < 1e-14


def test_disc_radial_line_lift_is_constant() -> None:
    # x dy - y dx = 0 along rays through the origin.
    lift = horizontal_lift(PlanarCurve.radial_line(0.8, 0.1, 0.9, samples=33), 0.5, t_start=0.1)
    assert np.max(np.abs(lift.t - 0.1)) < 1e-14


@pytest.mark.parametrize("tau", [0.5, -0.7])
def test_disc_circle_arc_lift_is_linear(tau: float) -> None:
    # On |z| = r, x y' - x' y = r^2, so t' = 4 tau r^2 / (1 - r^2).
    r, t0 = 0.6, 0.3
    s = np.linspace(0.4, 2.9, 201)
    pts = np.column_stack([r * np.cos(s), r * np.sin(s)])
    lift = horizontal_lift(PlanarCurve.from_samples(Model.CYLINDER, s, pts), tau, t_start=t0)
    want = t0 + 4.0 * tau * r * r / (1.0 - r * r) * (s - s[0])
    assert np.max(np.abs(lift.t - want)) < 1e-8


def test_generic_curve_against_direct_quadrature() -> None:
    tau = 0.5
    s = np.linspace(0.0, 2.0, 201)
    pts = np.column_stack([s, 1.0 + 0.3 * np.sin(s)])
    lift = horizontal_lift(PlanarCurve.from_samples(Model.HALF_SPACE, s, pts), tau)
    want, _ = quad(lambda u: 2.0 * tau / (1.0 + 0.3 * math.sin(u)), 0.0, 2.0, epsabs=1e-13)
    assert lift.t[-1] == pytest.approx(want, abs=1e-9)


def test_horizontality_residuals_are_small() -> None:
    lift = horizontal_lift(
        PlanarCurve.geodesic_semicircle(0.0, 2.0, 0.4, 2.6, samples=257), 0.5
    )
    res = horizontality_residuals(lift)
    assert np.max(np.abs(res)) < 1e-4


def test_reversed_parameter_lift_flips_sign() -> None:
    tau = 0.5
    s = np.linspace(0.3, 2.8, 33)
    pts = np.column_stack([np.cos(s), np.sin(s)])
    fwd = horizontal_lift(PlanarCurve.from_samples(Model.HALF_SPACE, s, pts), tau)
    bwd = horizontal_lift(
        PlanarCurve.from_samples(Model.HALF_SPACE, s[::-1], pts[::-1]), tau
    )
    assert bwd.t[-1] == pytest.approx(-fwd.t[-1], abs=1e-12)


def test_lift_coords_shape_and_start() -> None:
    lift = horizontal_lift(PlanarCurve.vertical_line(0.0, 0.5, 2.0, samples=17), 0.5, t_start=0.9)
    coords = lift.coords()
    assert coords.shape == (17, 3)
    assert coords[0].tolist() == [0.0, 0.5, 0.9]


def test_semicircle_constructor_validation() -> None:
    with pytest.raises(ParameterError):
        PlanarCurve.geodesic_semicircle(0.0, -1.0, 0.3, 2.0)
    with pytest.raises(ParameterError):
        PlanarCurve.geodesic_semicircle(0.0, 1.0, 0.0, 2.0)
    with pytest.raises(ParameterError):
        PlanarCurve.geodesic_semicircle(0.0, 1.0, 0.3, math.pi)


def test_curve_kind_tags() -> None:
    assert PlanarCurve.vertical_line(0.0, 0.5, 1.0).kind is CurveKind.VERTICAL_LINE
    assert PlanarCurve.geodesic_semicircle(0.0, 1.0, 0.3, 2.0).kind is CurveKind.SEMICIRCLE
    assert PlanarCurve.radial_line(0.1, 0.1, 0.5).kind is CurveKind.RADIAL_LINE


@settings(max_examples=25, deadline=None)
@given(
    center=st.floats(-2.0, 2.0),
    radius=st.floats(0.2, 5.0),
    tau=st.sampled_from([0.0, 0.5, -0.5, 1.0]),
    a=st.floats(0.05, 1.5),
    b=st.floats(1.6, 3.0),
)
def test_semicircle_variation_bound(
    center: float, radius: float, tau: float, a: float, b: float
) -> None:
    lift = lift_geodesic_semicircle(center, radius, a, b, tau, samples=33)
    assert lift.fiber_variation() <= 2.0 * abs(tau) * math.pi + 1e-12


@settings(max_examples=20, deadline=None)
@given(
    tau=st.sampled_from([0.5, -0.5]),
    t0=st.floats(-2.0, 2.0),
    radius=st.floats(0.5, 3.0),
)
def test_lift_start_value_is_respected(tau: float, t0: float, radius: float) -> None:
    lift = horizontal_lift(
        PlanarCurve.geodesic_semicircle(0.0, radius, 0.5, 2.5, samples=17), tau, t_start=t0
    )
    assert lift.t[0] == t0
    assert isinstance(lift, LiftedCurve)


@pytest.mark.parametrize(
    "params",
    [
        np.linspace(0.3, 2.8, 33),
        np.linspace(2.8, 0.3, 33),
        np.cumsum(np.random.default_rng(3).uniform(0.05, 0.4, 40)),
        np.cumsum(np.random.default_rng(4).uniform(0.05, 0.4, 40))[::-1],
        np.array([0.2, 0.9]),
        np.array([0.9, 0.2]),
        np.array([0.2, 0.5, 1.4]),
        np.array([1.4, 0.5, 0.2]),
        np.array([0.2, 0.5, 1.4, 1.5]),
    ],
    ids=["increasing", "decreasing", "nonuniform", "nonuniform-decreasing", "2-point",
         "2-point-decreasing", "3-point", "3-point-decreasing", "4-point"],
)
def test_sample_curve_spline_matches_scipy(params) -> None:
    from scipy.interpolate import CubicSpline

    pts = np.column_stack([np.cos(params), 1.5 + np.sin(2.0 * params)])
    curve = PlanarCurve.from_samples(Model.HALF_SPACE, params, pts)
    order = np.argsort(params)
    reference = CubicSpline(params[order], pts[order])
    lo, hi = params.min(), params.max()
    r = np.concatenate((params, np.linspace(lo, hi, 301)))
    for ours, theirs in ((curve.position(), reference(r)), (curve.velocity(), reference(r, 1))):
        np.testing.assert_allclose(np.column_stack(ours(r)), theirs, rtol=1e-12, atol=1e-12)
