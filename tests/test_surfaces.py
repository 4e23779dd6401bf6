"""Tests for the model surfaces: catenoids, invariant surfaces, leaves."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import ellipk

from etau import surfaces
from etau.core import (
    AmbientPoint,
    BasePoint,
    ConvergenceError,
    InvalidPointError,
    Model,
    ModelMismatchError,
    ParameterError,
    SpaceParams,
    chord_length,
)
from etau.isometries import apply, axis_translation_isometry, inverse, scale_isometry
from etau.quadrature import cumulative_integral
from etau.surfaces import (
    CatenoidSpec,
    InvariantSurfaceSpec,
    LeafSpec,
    Sheet,
    apply_isometry_to_mesh,
    catenoid_height,
    catenoid_neck_radius,
    catenoid_profile,
    catenoid_profile_derivative,
    catenoid_profile_inverse,
    convert_surface_to_cylinder,
    foliation_leaf_find,
    foliation_leaf_find_arrays,
    invariant_angle_max,
    invariant_asymptotic_levels,
    invariant_height,
    invariant_height_substituted,
    invariant_profile,
    invariant_profile_inverse,
    leaf_mesh,
    leaf_side,
    mesh_catenoid,
    mesh_invariant_surface,
    normal_vertical_component,
    tangent_vertical_components,
    transversality_delta,
    transversality_margin,
    transversality_window_check,
)

CAT = CatenoidSpec(0.5, 2.0)
INV = InvariantSurfaceSpec(0.5, 1.4, side=Sheet.PLUS)


# -- catenoid profile -----------------------------------------------------------


def test_catenoid_spec_validation() -> None:
    with pytest.raises(ParameterError):
        CatenoidSpec(0.5, 0.0)
    with pytest.raises(ParameterError):
        CatenoidSpec(0.5, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    ("cls", "good"),
    [
        (SpaceParams, {"tau": 0.5}),
        (CatenoidSpec, {"tau": 0.5, "d": 2.0}),
        (InvariantSurfaceSpec, {"tau": 0.5, "d": 1.4, "s": 1.0}),
        (LeafSpec, {"tau": 0.5, "d": 1.4, "s": 1.0, "scale": 2.0}),
    ],
    ids=["SpaceParams", "CatenoidSpec", "InvariantSurfaceSpec", "LeafSpec"],
)
def test_parameters_reject_non_finite_fields(cls, good, bad) -> None:
    cls(**good)
    for name in good:
        with pytest.raises(ParameterError, match=f" {name} must be finite"):
            cls(**{**good, name: bad})


def test_catenoid_neck_radius_frozen() -> None:
    assert catenoid_neck_radius(CAT) == pytest.approx(1.4436354751788103, abs=1e-13)


def test_catenoid_neck_radius_grows_with_d() -> None:
    radii = [catenoid_neck_radius(CatenoidSpec(0.5, d)) for d in (1.0, 2.0, 4.0, 8.0)]
    assert all(a < b for a, b in zip(radii, radii[1:]))


def test_catenoid_profile_vanishes_at_neck() -> None:
    assert catenoid_profile(CAT, catenoid_neck_radius(CAT)) == 0.0


def test_catenoid_profile_frozen_value() -> None:
    rho = catenoid_neck_radius(CAT) + 1.3
    assert catenoid_profile(CAT, rho) == pytest.approx(1.4992495369762744, abs=1e-10)


def test_catenoid_profile_derivative_frozen() -> None:
    rho = catenoid_neck_radius(CAT) + 1.3
    assert catenoid_profile_derivative(CAT, rho) == pytest.approx(0.356169057492921, abs=1e-9)


def test_catenoid_profile_inverse_round_trip() -> None:
    rho = catenoid_neck_radius(CAT) + 1.3
    u = catenoid_profile(CAT, rho)
    assert catenoid_profile_inverse(CAT, u) == pytest.approx(rho, abs=1e-9)


# Heights start at 0.05 H: right at the neck the profile has infinite slope
# in rho, so rounding rho alone moves the profile by more than 1e-11.
@pytest.mark.parametrize("tau", [0.0, 0.5])
@pytest.mark.parametrize("d", [0.3, 1.63, 3.89])
@pytest.mark.parametrize("fraction", [0.05, 0.25, 0.45, 0.499])
def test_catenoid_profile_inverse_round_trip_over_heights(tau: float, d: float, fraction: float) -> None:
    spec = CatenoidSpec(tau, d)
    height = fraction * catenoid_height(spec)
    assert abs(catenoid_profile(spec, catenoid_profile_inverse(spec, height)) - height) <= 1e-11


def test_catenoid_profile_inverse_rejects_unattained_heights() -> None:
    with pytest.raises(ParameterError):
        catenoid_profile_inverse(CAT, 0.5 * catenoid_height(CAT))
    with pytest.raises(ParameterError):
        catenoid_profile_inverse(CAT, -0.1)
    with pytest.raises(ParameterError):
        catenoid_profile_inverse(CAT, float("nan"))


def test_catenoid_profile_inverse_step_budget(monkeypatch) -> None:
    monkeypatch.setattr(surfaces, "_INVERSE_BUDGET", 2)
    with pytest.raises(ConvergenceError):
        catenoid_profile_inverse(CAT, 0.45 * catenoid_height(CAT))


@pytest.mark.parametrize("tau", [0.0, 0.5, -0.7])
@pytest.mark.parametrize("d", [0.05, 0.3, 1.63, 3.89])
def test_catenoid_profile_inverse_of_an_array_keeps_each_elements_bits(tau: float, d: float) -> None:
    spec = CatenoidSpec(tau, d)
    heights = np.linspace(0.0, 0.49, 41) * catenoid_height(spec)
    one_at_a_time = np.array([catenoid_profile_inverse(spec, h) for h in heights.tolist()])
    batch = catenoid_profile_inverse(spec, heights)
    assert batch.shape == heights.shape
    np.testing.assert_array_equal(batch.view(np.int64), one_at_a_time.view(np.int64))
    # the shape is kept, and a float gives a float
    np.testing.assert_array_equal(catenoid_profile_inverse(spec, heights.reshape(41, 1)), batch.reshape(41, 1))
    assert isinstance(catenoid_profile_inverse(spec, float(heights[7])), float)


def test_catenoid_profile_inverse_budget_is_per_element(monkeypatch) -> None:
    # height 0 converges at the first step; 0.45 H needs more than two, so
    # the array fails on that one element's budget alone
    heights = np.array([0.0, 0.45 * catenoid_height(CAT)])
    monkeypatch.setattr(surfaces, "_INVERSE_BUDGET", 2)
    assert catenoid_profile_inverse(CAT, heights[:1])[0] == catenoid_neck_radius(CAT)
    with pytest.raises(ConvergenceError, match=f"height {heights[1]} did not converge in 2 steps"):
        catenoid_profile_inverse(CAT, heights)


@pytest.mark.parametrize("bad", [0.5, math.nan, -0.1], ids=["unattained", "nan", "negative"])
def test_catenoid_profile_inverse_rejects_one_bad_height_in_an_array(bad: float) -> None:
    heights = np.array([0.1, 0.2, 0.3]) * catenoid_height(CAT)
    heights[1] = bad * catenoid_height(CAT)
    with pytest.raises(ParameterError):
        catenoid_profile_inverse(CAT, heights)


def test_catenoid_height_is_twice_the_profile_limit() -> None:
    # The profile saturates quickly; far from the neck it sits at height/2.
    rho = catenoid_neck_radius(CAT) + 40.0
    assert catenoid_height(CAT) == pytest.approx(2.0 * catenoid_profile(CAT, rho), abs=1e-8)


def _truncation_radius(spec: CatenoidSpec) -> float:
    """rho* = log(2 d sqrt(1 + 4 tau^2) 1e15), where the profile's tail is 1e-15."""
    return math.log(2.0 * spec.d * math.sqrt(1.0 + 4.0 * spec.tau ** 2) * 1e15)


@pytest.mark.parametrize("spec", [CAT, CatenoidSpec(0.0, 0.3), CatenoidSpec(-0.7, 1e3)])
def test_catenoid_height_is_the_profile_at_the_truncation_radius_plus_tail(spec: CatenoidSpec) -> None:
    rho_star = _truncation_radius(spec)
    tail = 2.0 * spec.d * math.sqrt(1.0 + 4.0 * spec.tau ** 2) * math.exp(-rho_star)
    assert catenoid_height(spec) == 2.0 * (catenoid_profile(spec, rho_star) + tail)


def test_catenoid_profile_beyond_the_truncation_radius_does_not_overflow() -> None:
    # the integrand's sinh products overflow from rho of about 356 on; beyond
    # rho* the profile is the table's limit, and the inverse stays below rho*
    spec = CatenoidSpec(0.5, 1.63)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = catenoid_profile(spec, 800.0)
        half = 0.5 * catenoid_height(spec)
        top = catenoid_profile_inverse(spec, math.nextafter(half, 0.0))
        assert abs(catenoid_profile(spec, top) - half) <= 1e-13
    assert math.isfinite(value) and abs(value - half) <= 1e-15


def test_catenoid_profile_on_arrays_matches_scalar_calls() -> None:
    rmin = catenoid_neck_radius(CAT)
    rho = rmin + np.array([[0.0, 1e-9, 0.3], [1.3, 4.0, 30.0]])
    values = catenoid_profile(CAT, rho)
    assert values.shape == rho.shape
    assert values.tolist() == [[catenoid_profile(CAT, float(r)) for r in row] for row in rho]
    with pytest.raises(ParameterError):
        catenoid_profile(CAT, np.array([rmin + 1.0, rmin - 0.1, rmin + 2.0]))


def test_catenoid_necksize_below_its_truncation_radius_is_rejected() -> None:
    # d = 1e-16 puts the neck radius beyond rho*, where the table would end
    tiny = CatenoidSpec(0.5, 1e-16)
    with pytest.raises(ParameterError):
        catenoid_height(tiny)
    with pytest.raises(ParameterError):
        catenoid_profile(tiny, 1.0)


def test_catenoid_height_frozen() -> None:
    assert catenoid_height(CAT) == pytest.approx(3.713335061199561, abs=1e-10)


def test_catenoid_height_large_d_limit() -> None:
    for tau in (0.0, 0.5, 1.0):
        want = math.pi * math.sqrt(1.0 + 4.0 * tau * tau)
        assert catenoid_height(CatenoidSpec(tau, 1e3)) == pytest.approx(want, abs=5e-2)


# -- profile tables --------------------------------------------------------------


def _profile_tables(tau: float):
    """(table, integrand, sigma_max) of a catenoid table and an invariant table."""
    spec = CatenoidSpec(tau, 1.63)
    catenoid_max = math.sqrt(_truncation_radius(spec) - catenoid_neck_radius(spec))
    invariant_max = math.sqrt(invariant_angle_max(1.2))
    return [
        (surfaces._catenoid_table(tau, 1.63), surfaces._catenoid_sigma_integrand(tau, 1.63), catenoid_max),
        (surfaces._invariant_table(tau, 1.2), surfaces._invariant_sigma_integrand(tau, 1.2), invariant_max),
    ]


@pytest.mark.parametrize("tau", [0.5, 0.0, -0.7])
def test_profile_tables_match_a_fine_cubic_spline(tau: float) -> None:
    # the reference is a C2 spline through 4097 cumulative_integral nodes
    from scipy.interpolate import CubicSpline

    for table, g, sigma_max in _profile_tables(tau):
        nodes = np.linspace(0.0, sigma_max, 4097)
        spline = CubicSpline(nodes, cumulative_integral(g, nodes))
        uniform = np.random.default_rng(3).uniform(0.0, sigma_max, 200)
        sigma = np.concatenate([np.linspace(0.0, sigma_max, 1001), uniform])
        np.testing.assert_allclose(table(sigma), spline(sigma), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("tau", [0.5, 0.0, -0.7])
def test_profile_table_derivative_is_the_integrand(tau: float) -> None:
    for table, g, sigma_max in _profile_tables(tau):
        sigma = np.linspace(0.0, sigma_max, 77).reshape(7, 11)
        assert np.array_equal(table(sigma, 1), g(sigma))
        assert table(sigma).shape == sigma.shape
        # where sigma^2 underflows the integrand is its limit g(0), not inf
        assert table(np.array([1e-200, 1e-265]), 1).tolist() == [g(0.0)] * 2
        assert 0.0 < table(1e-265) < 1e-250
    with pytest.raises(ParameterError):
        table(sigma, 2)


@pytest.mark.parametrize("tau", [0.5, 0.0, -0.7])
def test_profile_table_bounds_contain_its_values(tau: float) -> None:
    # the nodes and one ulp either side of them, panel midpoints (where the
    # nearest node switches) and one ulp either side, uniform draws, and
    # sigma beyond the table, where both bounds are its limit
    for table, _, sigma_max in _profile_tables(tau):
        nodes = np.linspace(0.0, sigma_max, surfaces._TABLE_PANELS + 1)
        mids = 0.5 * (nodes[1:] + nodes[:-1])
        beyond = sigma_max * np.array([1.0 + 1e-15, 1.2, 9.0])
        sigma = np.concatenate(
            [
                nodes,
                np.nextafter(nodes[1:], 0.0),
                np.nextafter(nodes, np.inf),
                mids,
                np.nextafter(mids, 0.0),
                np.nextafter(mids, np.inf),
                np.random.default_rng(5).uniform(0.0, sigma_max, 500),
                beyond,
            ]
        )
        lo, hi = table.bounds(sigma)
        value = table(sigma)
        assert np.all(lo <= value) and np.all(value <= hi)
        assert lo[0] <= 0.0 <= hi[0]
        assert np.all(lo[-3:] <= table.limit) and np.all(table.limit <= hi[-3:])


@pytest.mark.parametrize("tau", [0.5, 0.0, -0.7])
def test_profile_table_chunks_match_values_one_at_a_time(tau: float) -> None:
    # the exact nodes (sigma = 0 among them), several chunks of off-node
    # values, and sigma beyond the table, where it reads its limit
    for table, _, sigma_max in _profile_tables(tau):
        nodes = np.linspace(0.0, sigma_max, surfaces._TABLE_PANELS + 1)
        inside = np.random.default_rng(11).uniform(0.0, sigma_max, 3 * surfaces._TABLE_CHUNK + 17)
        beyond = sigma_max * np.array([1.0 + 1e-15, 1.2, 9.0])
        sigma = np.concatenate([nodes, inside, beyond])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chunked = table(sigma)
            single = np.array([float(table(s)) for s in sigma])
        assert chunked.tobytes() == single.tobytes()
        assert chunked[-3:].tolist() == [table.limit] * 3


# -- invariant surface heights ---------------------------------------------------


@pytest.mark.parametrize("d", [1.1, 2.0, 10.0, 100.0])
def test_invariant_height_matches_elliptic_integral(d: float) -> None:
    # tau = 0 reduces the height to the complete elliptic integral K(1/d).
    assert invariant_height(d, 0.0) == pytest.approx(float(ellipk((1.0 / d) ** 2)), abs=1e-12)


@pytest.mark.parametrize("d,tau", [(1.3, 0.0), (2.0, 0.5), (5.0, 1.0)])
def test_height_routes_agree(d: float, tau: float) -> None:
    a = invariant_height(d, tau)
    b = invariant_height_substituted(d, tau)
    assert abs(a - b) < 1e-12


def test_invariant_height_large_d_limit() -> None:
    for tau in (0.0, 0.5, 1.0):
        want = 0.5 * math.pi * math.sqrt(1.0 + 4.0 * tau * tau)
        assert invariant_height(1e4, tau) == pytest.approx(want, abs=1e-6)


def test_invariant_angle_max() -> None:
    assert invariant_angle_max(1.4) == math.asin(1.0 / 1.4)
    with pytest.raises(ParameterError):
        invariant_angle_max(1.0)


def test_asymptotic_levels_frozen() -> None:
    lo, hi = invariant_asymptotic_levels(InvariantSurfaceSpec(0.5, 1.4))
    assert lo == pytest.approx(-1.6457599250922659, abs=1e-12)
    assert hi == pytest.approx(3.236965832061337, abs=1e-12)


def test_asymptotic_levels_symmetric_at_zero_tau() -> None:
    lo, hi = invariant_asymptotic_levels(InvariantSurfaceSpec(0.0, 1.2))
    assert hi == pytest.approx(2.067254931448671, abs=1e-12)
    assert lo == -hi


# -- invariant profile ------------------------------------------------------------


def test_invariant_profile_needs_specific_sheet() -> None:
    with pytest.raises(ParameterError):
        invariant_profile(InvariantSurfaceSpec(0.5, 1.4), 0.3)


def test_invariant_profile_frozen_value() -> None:
    assert invariant_profile(INV, 0.5) == pytest.approx(1.6717033729604491, abs=1e-10)


def test_invariant_profile_vanishes_at_wedge_edge() -> None:
    assert invariant_profile(INV, invariant_angle_max(1.4)) == 0.0


def test_invariant_profile_rejects_outside_wedge() -> None:
    with pytest.raises(ParameterError):
        invariant_profile(INV, 0.9)


@pytest.mark.parametrize("side", [Sheet.PLUS, Sheet.MINUS])
def test_invariant_profile_on_arrays_matches_scalar_calls(side: Sheet) -> None:
    spec = InvariantSurfaceSpec(0.5, 1.4, side=side)
    theta = np.linspace(0.0, invariant_angle_max(1.4), 12).reshape(3, 4)
    values = invariant_profile(spec, theta)
    assert values.shape == theta.shape
    assert values.tolist() == [[invariant_profile(spec, float(t)) for t in row] for row in theta]
    with pytest.raises(ParameterError):
        invariant_profile(spec, np.array([0.1, 0.9, 0.3]))
    with pytest.raises(ParameterError):
        invariant_profile(spec, np.array([0.1, -0.2]))


def test_invariant_profile_inverse_round_trip() -> None:
    v = invariant_profile(INV, 0.5)
    assert invariant_profile_inverse(INV, v) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_invariant_profile_inverse_rejects_a_non_finite_value(value: float) -> None:
    # NaN fails every sign test, so the bisection would collapse onto theta = 0
    with pytest.raises(ParameterError):
        invariant_profile_inverse(INV, value)


def test_normal_vertical_component_frozen() -> None:
    assert normal_vertical_component(INV, 0.5) == pytest.approx(0.5571564905840402, abs=1e-10)


def test_tangent_vertical_components_frozen() -> None:
    a, b = tangent_vertical_components(INV, 0.5)
    assert a == pytest.approx(-0.7694451669364178, abs=1e-10)
    assert b == pytest.approx(-0.6596032833744311, abs=1e-10)


def test_vertical_components_are_unit_bounded() -> None:
    for theta in (0.2, 0.45, 0.7):
        nv = normal_vertical_component(INV, theta)
        t1, t2 = tangent_vertical_components(INV, theta)
        assert 0.0 < nv <= 1.0
        assert abs(t1) <= 1.0 and abs(t2) <= 1.0


def test_surface_turns_vertical_at_wedge_edge() -> None:
    # At theta* the normal is horizontal and the profile tangent is vertical.
    theta_star = invariant_angle_max(1.4)
    assert normal_vertical_component(INV, theta_star) == pytest.approx(0.0, abs=1e-7)
    along, _ = tangent_vertical_components(INV, theta_star)
    assert along == pytest.approx(-1.0, abs=1e-12)


def test_tangent_profile_component_flips_with_sheet() -> None:
    minus = InvariantSurfaceSpec(0.5, 1.4, side=Sheet.MINUS)
    a_plus, c_plus = tangent_vertical_components(INV, 0.5)
    a_minus, c_minus = tangent_vertical_components(minus, 0.5)
    assert a_minus == pytest.approx(-a_plus, abs=1e-14)
    assert c_minus == c_plus


# -- transversality estimate -------------------------------------------------------


def margin_formula(delta: float, h0: float, tau: float) -> float:
    e = math.exp(2.0 * (h0 + 2.0 * abs(tau) * math.pi))
    return 4.0 * (2.0 * delta + delta * delta) * e / (2.0 + delta * (1.0 + e)) ** 2


def test_margin_matches_closed_form() -> None:
    for delta in (0.01, 0.1, 0.5):
        for h0, tau in ((1.0, 0.0), (1.0, 0.5), (2.0, 1.0)):
            assert transversality_margin(delta, h0, tau) == pytest.approx(
                margin_formula(delta, h0, tau), rel=1e-14
            )


def test_transversality_delta_frozen() -> None:
    assert transversality_delta(0.5, 1.0, 0.0) == pytest.approx(0.01962395112550424, rel=1e-12)
    assert transversality_delta(0.5, 1.0, 0.5) == pytest.approx(3.6291181683195e-05, rel=1e-12)


def test_transversality_delta_satisfies_strict_inequality() -> None:
    for tau in (0.0, 0.5):
        delta = transversality_delta(0.5, 1.0, tau)
        assert transversality_margin(delta, 1.0, tau) < 0.25
        # The returned delta is essentially the largest admissible one.
        assert not transversality_margin(delta * 1.001, 1.0, tau) < 0.25


def test_transversality_growth_overflow_is_a_parameter_error() -> None:
    # exp(2 (1 + 120 pi)) exceeds the largest float
    with pytest.raises(ParameterError, match="overflows"):
        transversality_margin(0.1, 1.0, 60.0)
    with pytest.raises(ParameterError, match="overflows"):
        transversality_delta(0.5, 1.0, 60.0)


def test_transversality_margin_where_the_square_overflows() -> None:
    # q = 2 + delta (1 + E) is about 1e159 here, so q ** 2 overflows
    e = math.exp(2.0 * (1.0 + 58.0 * math.pi))
    q = 2.0 + (1.0 + e)
    assert transversality_margin(1.0, 1.0, 29.0) == 4.0 * 3.0 * (e / q) / q
    assert transversality_margin(1.0, 1.0, 29.0) == pytest.approx(8.7687e-159, rel=1e-4)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -1.0])
def test_transversality_margin_rejects_bad_delta(delta: float) -> None:
    with pytest.raises(ParameterError, match="delta must be finite and nonnegative"):
        transversality_margin(delta, 1.0, 0.5)


def test_window_check_frozen() -> None:
    d0 = transversality_delta(0.5, 1.0, 0.0)
    sup, ok = transversality_window_check(1.0 + d0 / 2, 1.0, 0.5, 0.0)
    assert (sup, ok) == (0.16197754002753667, True)
    d5 = transversality_delta(0.5, 1.0, 0.5)
    assert transversality_window_check(1.0 + d5 / 2, 1.0, 0.5, 0.5) == (0.006985202933174667, True)


def _window_check_all_angles(d: float, h0: float, eps: float, tau: float) -> tuple[float, bool]:
    """Reference: the profile integrated at every sampled wedge angle."""
    theta_star = invariant_angle_max(d)
    n = max(int(theta_star / surfaces._WINDOW_THETA_STEP), 8)
    theta = np.linspace(theta_star / n, theta_star, n)
    minus, plus = surfaces._invariant_profiles(tau, d, theta)
    in_slab = (np.abs(minus) <= h0) | (np.abs(plus) <= h0)
    if not np.any(in_slab):
        return 0.0, True
    sup = float(np.max(surfaces._invariant_nu(d, tau, theta[in_slab])))
    return sup, sup < eps


def test_window_check_matches_integrating_every_angle() -> None:
    # a seeded sweep over both signs of tau (the drift flips with it) and d
    # from 1 + 1e-6 to 11, plus a window with only the gluing angle (h0 = 0)
    # and an empty one (h0 < 0), which returns (0.0, True)
    rng = np.random.default_rng(29)
    cases = [(1.0 + 1e-6, 1.0, 0.5, -0.7), (1.2, 0.0, 0.5, 0.5), (1.2, -0.5, 0.5, 0.5)]
    for _ in range(40):
        d = 1.0 + 10.0 ** rng.uniform(-6.0, 1.0)
        cases.append((d, 10.0 ** rng.uniform(-3.0, 0.7), rng.uniform(0.05, 0.95), rng.uniform(-2.0, 2.0)))
    for case in cases:
        assert transversality_window_check(*case) == _window_check_all_angles(*case), case
    assert transversality_window_check(1.2, -0.5, 0.5, 0.5) == (0.0, True)


def test_window_check_integrates_only_undecided_angles(monkeypatch: pytest.MonkeyPatch) -> None:
    # at the criterion-7 configurations the table brackets decide all but
    # at most 1% of the sampled angles
    profiles = surfaces._invariant_profiles
    integrated = []

    def counted(tau: float, d: float, theta: np.ndarray):
        integrated.append(np.size(theta))
        return profiles(tau, d, theta)

    monkeypatch.setattr(surfaces, "_invariant_profiles", counted)
    for tau in (0.0, 0.5):
        d = 1.0 + transversality_delta(0.5, 1.0, tau) / 2
        sampled = max(int(invariant_angle_max(d) / surfaces._WINDOW_THETA_STEP), 8)
        integrated.clear()
        transversality_window_check(d, 1.0, 0.5, tau)
        assert 0 < sum(integrated) <= 0.01 * sampled, (tau, integrated, sampled)


def test_window_check_memory_stays_bounded() -> None:
    # about 15,600 wedge angles at tau 0.5; the profile table takes them a
    # chunk at a time (one batch traced about 24 MB)
    d = 1.0 + transversality_delta(0.5, 1.0, 0.5) / 2
    transversality_window_check(d, 1.0, 0.5, 0.5)  # builds the cached table
    tracemalloc.start()
    try:
        transversality_window_check(d, 1.0, 0.5, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def bisection_delta(eps: float, h0: float, tau: float) -> float:
    """Reference: 200 halvings of [0, 2/(E-1)], keeping the end with g < eps^2."""
    e = math.exp(2.0 * (h0 + 2.0 * abs(tau) * math.pi))
    lo, hi = 0.0, 2.0 / (e - 1.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if transversality_margin(mid, h0, tau) < eps * eps:
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=30, deadline=None)
@given(
    eps=st.floats(0.05, 0.9),
    h0=st.floats(0.1, 2.0),
    tau=st.sampled_from([0.0, 0.5, -0.5, 2.0]),
)
def test_transversality_delta_property(eps: float, h0: float, tau: float) -> None:
    delta = transversality_delta(eps, h0, tau)
    assert delta > 0.0
    assert transversality_margin(delta, h0, tau) < eps * eps
    # Positive doubles order like their bit patterns, so this counts ulps.
    ulps = np.diff(np.array([delta, bisection_delta(eps, h0, tau)]).view(np.int64))
    assert abs(int(ulps[0])) <= 8


# -- meshes -----------------------------------------------------------------------


@pytest.mark.parametrize("rows, cols, wrap_cols", [(5, 8, True), (7, 3, False)])
def test_grid_triangles_match_the_cell_loop(rows: int, cols: int, wrap_cols: bool) -> None:
    want = []
    for i in range(rows - 1):
        for j in range(cols if wrap_cols else cols - 1):
            j1 = (j + 1) % cols
            v00, v01 = i * cols + j, i * cols + j1
            v10, v11 = (i + 1) * cols + j, (i + 1) * cols + j1
            want += [(v00, v10, v11), (v00, v11, v01)]
    got = surfaces._grid_triangles(rows, cols, wrap_cols)
    assert got.dtype == np.int32
    assert np.array_equal(got, np.asarray(want, dtype=np.int32))


@pytest.mark.parametrize("rows, cols", [(2, 3), (5, 8), (9, 8), (10, 8), (17, 16)])
def test_grid_edges_are_the_triangles_unique_edges(rows: int, cols: int) -> None:
    tri = surfaces._grid_triangles(rows, cols, True).astype(np.int64)
    ends = np.roll(tri, -1, axis=1)
    want = {(int(lo), int(hi)) for lo, hi in zip(np.minimum(tri, ends).ravel(), np.maximum(tri, ends).ravel())}
    lo, hi = surfaces._grid_edges(rows, cols)
    assert len(lo) == (3 * rows - 2) * cols
    assert list(zip(lo.tolist(), hi.tolist())) == sorted(want)


def test_catenoid_mesh_shape_and_model() -> None:
    mesh = mesh_catenoid(CatenoidSpec(0.5, 1.2), rho_max=3.0, resolution=(17, 16))
    assert mesh.model is Model.CYLINDER
    assert mesh.vertices.shape == (17 * 16, 3)
    assert mesh.triangles.shape == (2 * 16 * 16, 3)
    assert mesh.metadata["kind"] == "catenoid"


def test_catenoid_mesh_pads_even_rows() -> None:
    mesh = mesh_catenoid(CatenoidSpec(0.5, 1.2), rho_max=3.0, resolution=(16, 16))
    assert mesh.grid_shape == (17, 16)


def test_catenoid_mesh_nu_vanishes_on_neck() -> None:
    mesh = mesh_catenoid(CatenoidSpec(0.5, 1.2), rho_max=3.0, resolution=(17, 16))
    seam = mesh.metadata["seam_row"]
    nu = mesh.nu.reshape(17, 16)
    assert np.max(np.abs(nu[seam])) < 1e-12
    assert float(np.max(mesh.nu)) == pytest.approx(0.7512741885730151, abs=1e-9)


def test_catenoid_mesh_rejects_small_radius() -> None:
    with pytest.raises(ParameterError):
        mesh_catenoid(CatenoidSpec(0.5, 1.2), rho_max=1.0)


def test_invariant_mesh_shape() -> None:
    mesh = mesh_invariant_surface(InvariantSurfaceSpec(0.5, 1.4), resolution=(9, 11))
    assert mesh.model is Model.HALF_SPACE
    assert mesh.vertices.shape == (9 * 11, 3)
    assert mesh.triangles.shape == (2 * 8 * 10, 3)
    assert np.min(mesh.vertices[:, 1]) > 0.0


def test_apply_isometry_to_mesh_scales_base() -> None:
    mesh = mesh_invariant_surface(InvariantSurfaceSpec(0.5, 1.4), resolution=(9, 11))
    moved = apply_isometry_to_mesh(scale_isometry(2.0, 0.5), mesh)
    assert np.max(np.abs(moved.vertices[:, :2] - 2.0 * mesh.vertices[:, :2])) < 1e-12
    assert np.max(np.abs(moved.vertices[:, 2] - mesh.vertices[:, 2])) == 0.0


def test_apply_isometry_to_mesh_model_mismatch() -> None:
    mesh = mesh_catenoid(CatenoidSpec(0.5, 1.2), rho_max=3.0, resolution=(17, 16))
    with pytest.raises(ModelMismatchError):
        apply_isometry_to_mesh(scale_isometry(2.0, 0.5), mesh)


def test_convert_surface_to_cylinder() -> None:
    mesh = mesh_invariant_surface(InvariantSurfaceSpec(0.5, 1.4), resolution=(9, 11))
    converted = convert_surface_to_cylinder(mesh)
    assert converted.model is Model.CYLINDER
    radii = converted.vertices[:, 0] ** 2 + converted.vertices[:, 1] ** 2
    assert np.max(radii) < 1.0
    with pytest.raises(ModelMismatchError):
        convert_surface_to_cylinder(converted)


def test_leaf_mesh_metadata() -> None:
    mesh = leaf_mesh(LeafSpec(0.5, 1.4, 1.0, 2.0), resolution=(9, 11))
    assert mesh.model is Model.HALF_SPACE
    assert mesh.metadata["kind"] == "leaf"
    assert mesh.metadata["scale"] == 2.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "phi_span", [(0.0, 0.0), (1.0, -1.0), (-710.0, 710.0), (-750.0, 1.0), (0.0, np.nan), (-np.inf, 1.0), (-745.0, 1.0)]
)
def test_meshes_reject_an_unusable_phi_span(phi_span) -> None:
    # lo < hi, exp(lo), exp(hi) finite and nonzero, and every vertex at y > 0:
    # exp(-745) is the least subnormal, so the grid's smallest y rounds to 0
    with pytest.raises(ParameterError, match="phi_span"):
        mesh_invariant_surface(InvariantSurfaceSpec(0.5, 1.4), phi_span, resolution=(9, 11))
    with pytest.raises(ParameterError, match="phi_span"):
        leaf_mesh(LeafSpec(0.5, 1.4, 1.0, 2.0), phi_span, resolution=(9, 11))


def test_leaf_spec_validation() -> None:
    with pytest.raises(ParameterError):
        LeafSpec(0.5, 0.9)
    with pytest.raises(ParameterError):
        LeafSpec(0.5, 1.4, -1.0)
    with pytest.raises(ParameterError):
        LeafSpec(0.5, 1.4, 1.0, 0.0)


# -- foliation ---------------------------------------------------------------------


def test_foliation_leaf_find_frozen() -> None:
    p0 = AmbientPoint(BasePoint(Model.HALF_SPACE, 2.0, 0.5), 0.0)
    result = foliation_leaf_find(p0, 1.2, 1.0, 0.0)
    assert result.scale == pytest.approx(4.8394475616353, rel=1e-10)
    assert result.residual < 1e-12
    assert result.iterations < 200


def test_leaf_side_flips_across_found_scale() -> None:
    p0 = AmbientPoint(BasePoint(Model.HALF_SPACE, 2.0, 0.5), 0.0)
    lam = foliation_leaf_find(p0, 1.2, 1.0, 0.0).scale
    assert leaf_side(p0, 1.2, 1.0, 0.0, scale=lam * 0.9) == -1
    assert leaf_side(p0, 1.2, 1.0, 0.0, scale=lam * 1.1) == 1


def test_foliation_scale_equivariance() -> None:
    p0 = AmbientPoint(BasePoint(Model.HALF_SPACE, 2.0, 0.5), 0.0)
    lam = foliation_leaf_find(p0, 1.2, 1.0, 0.0).scale
    mu = 1.7
    moved = apply(scale_isometry(mu, 0.0), p0)
    lam_mu = foliation_leaf_find(moved, 1.2, 1.0, 0.0).scale
    assert lam_mu == pytest.approx(mu * lam, rel=1e-9)


def test_foliation_leaf_find_needs_halfspace() -> None:
    p = AmbientPoint(BasePoint(Model.CYLINDER, 0.1, 0.2), 0.0)
    with pytest.raises(ModelMismatchError):
        foliation_leaf_find(p, 1.2, 1.0, 0.0)


# Scalar references: one point at a time, the pocket side through the scalar
# `apply`, and a Nelder-Mead search on one sheet for the leaf distance.


def _scalar_side(p, d, s, tau, scale, axis_inv) -> int:
    q = apply(axis_inv, AmbientPoint(BasePoint(Model.HALF_SPACE, p.x / scale, p.y / scale), p.t))
    theta = math.atan2(q.y, q.x - s)
    if not 0.0 < theta < invariant_angle_max(d):
        return -1
    minus, plus = surfaces._invariant_profiles(tau, d, np.array([theta]))
    return 1 if minus[0] < q.t < plus[0] else -1


def _scalar_scale(p, d, s, tau, axis_inv) -> float:
    lo = hi = 1.0
    if _scalar_side(p, d, s, tau, 1.0, axis_inv) > 0:
        while True:
            lo /= 2.0
            if _scalar_side(p, d, s, tau, lo, axis_inv) < 0:
                break
    else:
        while True:
            hi *= 2.0
            if _scalar_side(p, d, s, tau, hi, axis_inv) > 0:
                break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _scalar_side(p, d, s, tau, mid, axis_inv) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def _nelder_mead_distance(p, d, s, tau, lam, axis_inv) -> float:
    q = apply(axis_inv, AmbientPoint(BasePoint(Model.HALF_SPACE, p.x / lam, p.y / lam), p.t))
    theta_star = invariant_angle_max(d)
    theta0 = min(max(math.atan2(q.y, q.x - s), 1e-9), theta_star - 1e-12)
    phi0 = 0.5 * math.log((q.x - s) ** 2 + q.y ** 2)
    minus, plus = surfaces._invariant_profiles(tau, d, np.array([theta0]))
    table = surfaces._invariant_table(tau, d)

    def surface_point(phi: float, theta: float, sign: float) -> AmbientPoint:
        sigma = math.sqrt(max(theta_star - theta, 0.0))
        t = sign * float(table(sigma)) - 2.0 * tau * (theta - theta_star)
        r = math.exp(phi)
        return AmbientPoint(BasePoint(Model.HALF_SPACE, r * math.cos(theta) + s, r * math.sin(theta)), t)

    sign = 1.0 if abs(plus[0] - q.t) <= abs(minus[0] - q.t) else -1.0

    def objective(v: np.ndarray) -> float:
        phi, theta = v
        theta = min(max(theta, 1e-10), theta_star)
        return chord_length(q, surface_point(phi, theta, sign), tau)

    best = minimize(
        objective,
        np.array([phi0, theta0]),
        method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 400},
    )
    return float(best.fun)


@pytest.mark.parametrize("d", [1.2, 2.0])
@pytest.mark.parametrize("tau", [0.0, 0.5, -0.7])
def test_leaf_find_arrays_match_scalar_bisection_and_nelder_mead(tau: float, d: float) -> None:
    rng = np.random.default_rng(7)
    coords = np.column_stack(
        [rng.uniform(-2.0, 2.0, 40), rng.uniform(0.2, 2.5, 40), rng.uniform(-1.5, 1.5, 40)]
    )
    scales, residuals, iterations = foliation_leaf_find_arrays(coords, d, 1.0, tau)
    axis_inv = inverse(axis_translation_isometry(1.0, tau))
    for row, scale, residual in zip(coords, scales, residuals):
        p = AmbientPoint(BasePoint(Model.HALF_SPACE, row[0], row[1]), row[2])
        reference = _scalar_scale(p, d, 1.0, tau, axis_inv)
        assert abs(scale - reference) <= 1e-13 * reference
        assert abs(residual - _nelder_mead_distance(p, d, 1.0, tau, reference, axis_inv)) <= 1e-9
    assert np.all(iterations < 200)


@pytest.mark.parametrize("tau", [0.0, 0.5, -0.7])
def test_leaf_distance_off_the_leaf_is_no_worse_than_nelder_mead(tau: float) -> None:
    # Off its leaf a point has a positive distance, which only a search with
    # the chord's true gradient brings down to Nelder-Mead's local minimum.
    rng = np.random.default_rng(11)
    coords = np.column_stack(
        [rng.uniform(-2.0, 2.0, 20), rng.uniform(0.2, 2.5, 20), rng.uniform(-1.5, 1.5, 20)]
    )
    scales, _, _ = foliation_leaf_find_arrays(coords, 1.2, 1.0, tau)
    axis_inv = inverse(axis_translation_isometry(1.0, tau))
    for factor in (1.01, 1.1):
        distances = surfaces._leaf_distances(coords, factor * scales, 1.2, 1.0, tau, axis_inv)
        for row, scale, distance in zip(coords, scales, distances):
            p = AmbientPoint(BasePoint(Model.HALF_SPACE, row[0], row[1]), row[2])
            assert distance <= _nelder_mead_distance(p, 1.2, 1.0, tau, factor * scale, axis_inv) + 1e-9


@pytest.mark.parametrize("row", [(0.5, 1.0, 50.0), (0.0, 1e-8, 0.0)], ids=["grows", "shrinks"])
def test_leaf_find_rejects_a_point_whose_scale_escapes(row) -> None:
    # above every leaf the bracket grows past 1e6; near the ideal point 0 it shrinks below 1e-6
    with pytest.raises(InvalidPointError):
        foliation_leaf_find(AmbientPoint(BasePoint(Model.HALF_SPACE, row[0], row[1]), row[2]), 1.2, 1.0, 0.0)
    with pytest.raises(InvalidPointError):
        foliation_leaf_find_arrays(np.array([[2.0, 0.5, 0.0], row]), 1.2, 1.0, 0.0)


@settings(max_examples=15, deadline=None)
@given(
    x=st.floats(-2.0, 4.0),
    y=st.floats(0.3, 2.0),
    t=st.floats(-1.5, 1.5),
)
def test_foliation_find_has_small_residual(x: float, y: float, t: float) -> None:
    p = AmbientPoint(BasePoint(Model.HALF_SPACE, x, y), t)
    result = foliation_leaf_find(p, 1.2, 1.0, 0.0)
    assert result.residual < 1e-6
