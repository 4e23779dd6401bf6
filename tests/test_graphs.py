"""Tests for chart kernels, graph quantities, area bookkeeping, and the solver."""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etau.core import (
    InvalidPointError,
    Model,
    ParameterError,
    metric_data_arrays,
    require_in_model,
)
from etau.dissection import NestedDissection
from etau.graphs import (
    Chart,
    GraphDomain,
    GraphFunction,
    _FluxForm,
    _harmonic_init,
    chart_coefficients,
    chart_to_base,
    cylinder_area,
    disc_area,
    douglas_check,
    graph_area,
    graph_nu,
    hyperbolic_gradient_norm,
    mean_curvature,
    reference_problem,
    solve_dirichlet,
    variation,
)


# -- chart kernels ---------------------------------------------------------------


def test_halfplane_chart_matches_core_kernels() -> None:
    q1, q2 = np.array([0.3]), np.array([0.8])
    g1, g2, w1, w2 = chart_coefficients(Chart.HALFPLANE_XY, 1.0, 0.5, q1, q2)
    lam, wc1, wc2 = metric_data_arrays(Model.HALF_SPACE, 0.5, q1, q2)
    assert g1[0] == pytest.approx(lam[0] ** 2, rel=1e-14)
    assert g2[0] == pytest.approx(lam[0] ** 2, rel=1e-14)
    assert w1[0] == pytest.approx(wc1[0], rel=1e-14)
    assert w2[0] == wc2[0]


def test_disc_chart_matches_core_kernels() -> None:
    q1, q2 = np.array([0.2]), np.array([-0.3])
    g1, g2, w1, w2 = chart_coefficients(Chart.DISC_XY, 1.0, 0.5, q1, q2)
    lam, wc1, wc2 = metric_data_arrays(Model.CYLINDER, 0.5, q1, q2)
    assert g1[0] == pytest.approx(lam[0] ** 2, rel=1e-14)
    assert w1[0] == pytest.approx(wc1[0], abs=1e-14)
    assert w2[0] == pytest.approx(wc2[0], abs=1e-14)


def test_disc_polar_chart_closed_form() -> None:
    rho, ang = 0.9, 0.4
    g1, g2, w1, w2 = chart_coefficients(Chart.DISC_POLAR, 1.0, 0.5, np.array([rho]), np.array([ang]))
    assert g1[0] == 1.0
    assert g2[0] == pytest.approx(math.sinh(rho) ** 2, rel=1e-14)
    assert w1[0] == 0.0
    assert w2[0] == pytest.approx(-4.0 * 0.5 * math.sinh(rho / 2.0) ** 2, rel=1e-14)


def test_ideal_polar_chart_closed_form() -> None:
    phi, theta = 0.1, 0.7
    g1, g2, w1, w2 = chart_coefficients(
        Chart.HALFPLANE_IDEAL_POLAR, 1.0, 0.5, np.array([phi]), np.array([theta])
    )
    s2 = math.sin(theta) ** 2
    assert g1[0] == pytest.approx(1.0 / s2, rel=1e-14)
    assert g2[0] == pytest.approx(1.0 / s2, rel=1e-14)
    assert w1[0] == pytest.approx(-2.0 * 0.5 / math.tan(theta), rel=1e-14)
    assert w2[0] == pytest.approx(2.0 * 0.5, rel=1e-14)


def test_ideal_polar_base_lands_on_ray() -> None:
    x, y = chart_to_base(Chart.HALFPLANE_IDEAL_POLAR, 1.5, np.array([0.2]), np.array([0.6]))
    r = math.exp(0.2)
    assert x[0] == pytest.approx(r * math.cos(0.6) + 1.5, rel=1e-14)
    assert y[0] == pytest.approx(r * math.sin(0.6), rel=1e-14)


# -- domain validation --------------------------------------------------------------


def test_domain_needs_two_nodes() -> None:
    with pytest.raises(ParameterError):
        GraphDomain(Chart.HALFPLANE_XY, ((-1.0, 1.0), (0.5, 1.5)), (1, 9))


def test_domain_needs_increasing_bounds() -> None:
    with pytest.raises(ParameterError):
        GraphDomain(Chart.HALFPLANE_XY, ((1.0, -1.0), (0.5, 1.5)), (9, 9))


@pytest.mark.parametrize(
    "chart, bounds, axis_foot",
    [
        (Chart.HALFPLANE_XY, ((-math.inf, 1.0), (0.5, 1.5)), 1.0),
        (Chart.HALFPLANE_XY, ((-1.0, math.inf), (0.5, 1.5)), 1.0),
        (Chart.HALFPLANE_XY, ((-1.0, 1.0), (0.5, math.nan)), 1.0),
        (Chart.HALFPLANE_IDEAL_POLAR, ((-0.5, 0.5), (0.15, 1.2)), math.nan),
    ],
    ids=["q1_lo", "q1_hi", "q2_hi", "axis_foot"],
)
def test_domain_rejects_non_finite_bounds_and_axis_foot(chart, bounds, axis_foot) -> None:
    with pytest.raises(ParameterError, match="must be finite"):
        GraphDomain(chart, bounds, (9, 9), axis_foot=axis_foot)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_graphs_reject_a_non_finite_tau(tau: float) -> None:
    gf = reference_problem("wild", 0.5, 2.0, 1.0, 9)
    with pytest.raises(ParameterError, match="tau must be finite"):
        GraphFunction(gf.domain, gf.values, tau)
    with pytest.raises(ParameterError, match="tau must be finite"):
        solve_dirichlet(gf.domain, tau, gf.values)
    with pytest.raises(FrozenInstanceError):
        gf.tau = tau  # a frozen GraphFunction keeps the tau its constructor checked


def test_halfplane_domain_must_stay_off_boundary() -> None:
    with pytest.raises(InvalidPointError):
        GraphDomain(Chart.HALFPLANE_XY, ((-1.0, 1.0), (0.0, 1.5)), (9, 9))


def test_ideal_polar_angle_window() -> None:
    with pytest.raises(InvalidPointError):
        GraphDomain(Chart.HALFPLANE_IDEAL_POLAR, ((-0.5, 0.5), (0.15, math.pi)), (9, 9))


@pytest.mark.parametrize("kind", ["zero", "wild"])
@pytest.mark.parametrize("tau", [1e300, -1e103])
def test_solve_rejects_a_tau_whose_tilt_overflows_when_cubed(kind: str, tau: float) -> None:
    # W reaches 2 sqrt(2) |tau| on flat data; the Jacobian cubes it
    gf = reference_problem(kind, 0.5, 2.0, 1.0, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ParameterError, match="leaves the float range: its tilt overflows when cubed"):
            solve_dirichlet(gf.domain, tau, gf.values, max_newton=0)


def test_disc_domain_rejects_an_unmasked_node_outside_the_disc() -> None:
    x, y = np.meshgrid(np.linspace(-0.8, 0.8, 13), np.linspace(-0.8, 0.8, 13), indexing="ij")
    mask = x * x + y * y < 0.81
    GraphDomain(Chart.DISC_XY, ((-0.8, 0.8), (-0.8, 0.8)), (13, 13), mask=mask)  # masked corners: accepted
    mask[0, 0] = True  # the corner (-0.8, -0.8), at radius^2 1.28
    with pytest.raises(InvalidPointError):
        GraphDomain(Chart.DISC_XY, ((-0.8, 0.8), (-0.8, 0.8)), (13, 13), mask=mask)


# a coordinate whose square doubled rounds to the disc check's bound 1 - 1e-12
_EDGE = math.sqrt(0.5 * (1.0 - 1e-12))


@settings(max_examples=60, deadline=None)
@given(
    corners=st.lists(
        st.sampled_from([_EDGE, math.nextafter(_EDGE, 0.0), math.nextafter(_EDGE, 2.0), 0.3, 0.999999])
        | st.floats(0.01, 1.2),
        min_size=4,
        max_size=4,
    ),
    shape=st.tuples(st.integers(2, 17), st.integers(2, 17)),
    masked=st.sampled_from([None, 0.2, 0.6, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_disc_domain_check_names_the_node_the_node_grids_name(corners, shape, masked, seed: int) -> None:
    # GraphDomain tests the disc nodes on its axes, without node grids: the
    # same domains pass, and the others raise InvalidPointError with the
    # message of require_in_model on the masked grids, the first node off the
    # disc in C order
    bounds = ((-corners[0], corners[1]), (-corners[2], corners[3]))
    mask = None if masked is None else np.random.default_rng(seed).random(shape) < masked
    x, y = np.meshgrid(*(np.linspace(lo, hi, n) for (lo, hi), n in zip(bounds, shape)), indexing="ij")
    if mask is not None:
        x, y = x[mask], y[mask]
    try:
        require_in_model(Model.CYLINDER, np.stack((x, y), axis=-1))
        want = None
    except InvalidPointError as error:
        want = str(error)
    try:
        GraphDomain(Chart.DISC_XY, bounds, shape, mask=mask)
        got = None
    except InvalidPointError as error:
        got = str(error)
    assert got == want


# -- pointwise quantities -------------------------------------------------------------


def test_constant_halfplane_graph_is_discretely_minimal() -> None:
    dom = GraphDomain(Chart.HALFPLANE_XY, ((-1.0, 1.0), (0.5, 1.5)), (17, 17))
    gf = GraphFunction.constant(dom, 0.5, 0.7)
    assert mean_curvature(gf).sup() == 0.0


def test_linear_disc_gradient_closed_form() -> None:
    # u = a x + b y on the disc: |grad u| = hypot(a, b) (1 - r^2) / 2.
    dom = GraphDomain(Chart.DISC_XY, ((-0.4, 0.4), (-0.4, 0.4)), (21, 21))
    gf = GraphFunction.from_base_callable(dom, 0.0, lambda x, y: 0.4 * x + 0.3 * y)
    x, y = dom.base_grids()
    want = math.hypot(0.4, 0.3) * (1.0 - (x**2 + y**2)) / 2.0
    assert np.max(np.abs(hyperbolic_gradient_norm(gf) - want)) < 1e-12


def test_graph_nu_from_gradient() -> None:
    dom = GraphDomain(Chart.DISC_XY, ((-0.4, 0.4), (-0.4, 0.4)), (21, 21))
    gf = GraphFunction.from_base_callable(dom, 0.0, lambda x, y: 0.4 * x + 0.3 * y)
    grad = hyperbolic_gradient_norm(gf)
    assert np.max(np.abs(graph_nu(gf) - 1.0 / np.sqrt(1.0 + grad**2))) < 1e-12


def test_variation_of_linear_function() -> None:
    dom = GraphDomain(Chart.DISC_XY, ((-0.4, 0.4), (-0.4, 0.4)), (21, 21))
    gf = GraphFunction.from_base_callable(dom, 0.0, lambda x, y: 0.4 * x + 0.3 * y)
    assert variation(gf) == pytest.approx(0.56, abs=1e-14)


# -- areas ------------------------------------------------------------------------------


def test_flat_annulus_area_matches_closed_form() -> None:
    # Flat graph over a polar annulus at tau = 0: area = 2 pi (cosh r2 - cosh r1).
    want = 2.0 * math.pi * (math.cosh(1.5) - math.cosh(0.5))
    coarse = GraphDomain(Chart.DISC_POLAR, ((0.5, 1.5), (0.0, 2.0 * math.pi)), (65, 64))
    fine = GraphDomain(Chart.DISC_POLAR, ((0.5, 1.5), (0.0, 2.0 * math.pi)), (129, 128))
    err_coarse = abs(graph_area(GraphFunction.constant(coarse, 0.0, 0.0)).value - want)
    err_fine = abs(graph_area(GraphFunction.constant(fine, 0.0, 0.0)).value - want)
    assert err_coarse < 1e-4
    assert err_fine < err_coarse / 3.0


def test_disc_area_closed_form() -> None:
    assert disc_area(1.0) == pytest.approx(2.0 * math.pi * (math.cosh(1.0) - 1.0), rel=1e-15)
    with pytest.raises(ParameterError):
        disc_area(0.0)


def test_cylinder_area_closed_form() -> None:
    assert cylinder_area(1.0, 0.9) == pytest.approx(
        2.0 * math.pi * math.sinh(1.0) * 0.9, rel=1e-15
    )


@pytest.mark.parametrize(
    ("area", "args", "match"),
    [
        (disc_area, (800.0,), "disc area overflows"),
        (disc_area, (math.inf,), "radius must be finite"),
        (disc_area, (math.nan,), "radius must be finite"),
        (cylinder_area, (800.0, 1.0), "cylinder area overflows"),
        (cylinder_area, (1.0, 1e308), "cylinder area overflows"),
        (cylinder_area, (1.0, math.inf), "height must be finite"),
        (douglas_check, (800.0, 0.4), "area overflows"),
        (douglas_check, (708.0, 0.4), "disc pair area overflows"),
        (douglas_check, (math.inf, 0.4), "radius must be finite"),
        (douglas_check, (1.0, math.nan), "height must be finite"),
        (douglas_check, (1.0, -0.1), "must be positive"),
    ],
)
def test_areas_reject_non_finite_inputs_and_overflow(area, args, match: str) -> None:
    # not a bare OverflowError at radius 800, nor infinite areas with the
    # annulus winning at an infinite radius
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=match):
            area(*args)


def test_douglas_threshold_is_tanh_half_radius() -> None:
    report = douglas_check(1.0, 0.45)
    assert report.threshold_half_height == pytest.approx(math.tanh(0.5), abs=1e-12)
    assert report.cylinder_area == pytest.approx(6.645606185594381, rel=1e-13)
    assert report.disc_competitor_area == pytest.approx(6.824552530569804, rel=1e-13)
    assert report.annulus_wins


def test_douglas_flips_across_threshold() -> None:
    assert douglas_check(1.0, 0.44).annulus_wins
    assert not douglas_check(1.0, 0.51).annulus_wins


@settings(max_examples=30, deadline=None)
@given(radius=st.floats(0.2, 3.0), frac=st.floats(0.1, 1.9))
def test_douglas_decision_matches_threshold(radius: float, frac: float) -> None:
    half = frac * math.tanh(0.5 * radius)
    report = douglas_check(radius, half)
    assert report.annulus_wins == (half < report.threshold_half_height)


# -- reference residuals ------------------------------------------------------------------


def test_catenoid_graph_residual_frozen() -> None:
    gf = reference_problem("catenoid", 0.5, 2.0, 1.0, 33)
    assert mean_curvature(gf).sup() == pytest.approx(2.0489209800980722e-4, rel=1e-9)


def test_invariant_graph_residual_frozen() -> None:
    gf = reference_problem("invariant", 0.5, 1.2, 1.0, 33)
    assert mean_curvature(gf).sup() == pytest.approx(5.313334401872761e-5, rel=1e-9)


def test_reference_residuals_shrink_quadratically() -> None:
    sups = [
        mean_curvature(reference_problem("catenoid", 0.5, 2.0, 1.0, n)).sup()
        for n in (33, 65)
    ]
    order = math.log2(sups[0] / sups[1])
    assert 1.7 <= order <= 2.3


# -- Jacobian and harmonic seed assembly ---------------------------------------------------


def _rectangle_window() -> GraphDomain:
    return GraphDomain(Chart.HALFPLANE_XY, ((-1.0, 1.0), (0.5, 1.5)), (9, 12))


def _masked_disc_window() -> GraphDomain:
    axis = np.linspace(-0.8, 0.8, 11)
    q1, q2 = np.meshgrid(axis, axis, indexing="ij")
    mask = q1 * q1 + q2 * q2 < 0.81  # the interior is not a rectangle
    return GraphDomain(Chart.DISC_XY, ((-0.8, 0.8), (-0.8, 0.8)), (11, 11), mask=mask)


def _interior_matrix(coef: np.ndarray, interior: np.ndarray):
    """CSC matrix of a (3, 3, n1, n2) coefficient field on the interior nodes,
    row-major: entry (k, l) is coef[di + 1, dj + 1] at node k, where node l is
    node k's (di, dj) neighbour."""
    import scipy.sparse as sparse

    number = -np.ones(interior.shape, dtype=int)
    ii, jj = np.nonzero(interior)
    number[ii, jj] = np.arange(ii.size)
    rows, cols, vals = [], [], []
    for di in range(3):
        for dj in range(3):
            col = number[ii + di - 1, jj + dj - 1]
            keep = col >= 0
            rows.append(np.flatnonzero(keep))
            cols.append(col[keep])
            vals.append(coef[di, dj, ii, jj][keep])
    data = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return sparse.csc_matrix(data, shape=(ii.size, ii.size))


def _catenoid_polar_window() -> GraphDomain:
    return GraphDomain(Chart.DISC_POLAR, ((1.7, 2.7), (0.2, 1.2)), (10, 8))


def _invariant_polar_window() -> GraphDomain:
    return GraphDomain(Chart.HALFPLANE_IDEAL_POLAR, ((-0.5, 0.5), (0.15, 1.2)), (8, 11))


WINDOWS = pytest.mark.parametrize(
    "make_domain",
    [_rectangle_window, _masked_disc_window, _catenoid_polar_window, _invariant_polar_window],
    ids=["rectangle", "masked-disc", "catenoid-polar", "invariant-polar"],
)


def _jacobian(gf: GraphFunction) -> np.ndarray:
    """The solver's Jacobian field at a graph, from a flux form of its own."""
    return _FluxForm(gf.domain, gf.tau).jacobian(gf.values)


def _sample_graph(dom: GraphDomain) -> GraphFunction:
    return GraphFunction.from_base_callable(
        dom, 0.5, lambda x, y: np.sin(3.0 * x) * y + 0.7 * x * y - 0.2
    )


def test_flux_form_keeps_its_bytes() -> None:
    # The form and the data use only + - * / and sqrt, besides the data's sin,
    # and numpy rounds these alike at every x86-64 dispatch level, so the
    # SHA-256 of the residual and of the Jacobian field is exact and portable.
    wild = reference_problem("wild", 0.5, 2.0, 1.0, 97)
    dom = GraphDomain(Chart.DISC_XY, ((-0.5, 0.5), (-0.6, 0.4)), (33, 29))
    disc = GraphFunction.from_base_callable(dom, 0.5, lambda x, y: np.sin(3.0 * x) * y + 0.7 * x * y - 0.2)
    pins = {
        "wild": (
            "dcde9cc37ebba95f4969a86570a4c3c94b7b23f26d11cf48ce327332c30bd78a",
            "fe0cf79a827a663ba8777b0c3007598edd22175fe40d7fdbe33944dc9ee91075",
        ),
        "disc": (
            "9d5a7ac5338425f07bf11fc39f3dd51c8b47e9cd924bb0f447e07288a2c6bb23",
            "84c17dda0f300be3e31e3c1e2f759e2c800700c885934e6f956e3201c1b8ab9e",
        ),
    }
    for name, gf in (("wild", wild), ("disc", disc)):
        form = _FluxForm(gf.domain, gf.tau)
        fields = (form.residual(gf.values), form.jacobian(gf.values))
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in fields) == pins[name], name


@WINDOWS
def test_jacobian_matches_central_differences_one_column_at_a_time(make_domain) -> None:
    gf = _sample_graph(make_domain())
    form = _FluxForm(gf.domain, gf.tau)
    interior = gf.domain.interior_mask()
    h = 1e-5
    ii, jj = np.nonzero(interior)
    dense = np.empty((ii.size, ii.size))
    for col, (i, j) in enumerate(zip(ii, jj)):
        sides = []
        for step in (h, -h):
            values = gf.values.copy()
            values[i, j] += step
            sides.append(form.residual(values))
        dense[:, col] = ((sides[0] - sides[1]) / (2.0 * h))[interior]
    jac = _interior_matrix(_jacobian(gf), interior).toarray()
    top = float(np.max(np.abs(jac)))
    assert float(np.max(np.abs(jac - dense))) <= 1e-6 * top


@WINDOWS
def test_harmonic_seed_solves_chart_laplacian(make_domain) -> None:
    dom = make_domain()
    boundary = _sample_graph(dom).values
    interior = dom.interior_mask()
    u = _harmonic_init(dom, boundary, NestedDissection(interior))
    h1, h2 = dom.steps()
    lap = np.zeros(dom.shape)
    lap[1:-1, 1:-1] = (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / (h1 * h1) + (
        u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]
    ) / (h2 * h2)
    assert float(np.max(np.abs(lap[interior]))) < 1e-10
    assert np.array_equal(u[~interior], boundary[~interior])


# -- Dirichlet solver ----------------------------------------------------------------------


def test_solver_zero_boundary_returns_zero() -> None:
    dom = GraphDomain(Chart.DISC_XY, ((-0.4, 0.4), (-0.4, 0.4)), (17, 17))
    result = solve_dirichlet(dom, 0.0, np.zeros((17, 17)))
    assert result.report["converged"]
    # a converged run counts its final check: one iteration, no step, no factor
    assert result.report["iterations"] == 1
    assert result.report["factorizations"] == 0
    assert float(np.max(np.abs(result.graph.values))) == 0.0
    assert result.report["max_mean_curvature"] == 0.0


def test_solver_reproduces_catenoid_trace() -> None:
    gf = reference_problem("catenoid", 0.5, 2.0, 1.0, 33)
    result = solve_dirichlet(gf.domain, 0.5, gf.values)
    assert result.report["converged"]
    # two Jacobians are factored; the other steps reuse a factor (four without reuse)
    assert result.report["factorizations"] == 2
    err = float(np.max(np.abs(result.graph.values - gf.values)))
    assert err == pytest.approx(1.7216436293265858e-05, rel=1e-6)


def test_solver_reproduces_invariant_trace() -> None:
    gf = reference_problem("invariant", 0.5, 1.2, 1.0, 33)
    result = solve_dirichlet(gf.domain, 0.5, gf.values)
    assert result.report["converged"]
    err = float(np.max(np.abs(result.graph.values - gf.values)))
    assert err == pytest.approx(8.53773014286574e-06, rel=1e-6)


def test_solver_error_shrinks_under_refinement() -> None:
    errs = []
    for n in (33, 65):
        gf = reference_problem("catenoid", 0.5, 2.0, 1.0, n)
        result = solve_dirichlet(gf.domain, 0.5, gf.values)
        errs.append(float(np.max(np.abs(result.graph.values - gf.values))))
    assert 1.7 <= math.log2(errs[0] / errs[1]) <= 2.3


def test_solver_reports_nonconvergence_with_capped_iterations() -> None:
    dom = GraphDomain(Chart.HALFPLANE_XY, ((-1.0, 1.0), (0.5, 1.5)), (33, 33))
    x, y = dom.base_grids()
    result = solve_dirichlet(dom, 0.5, 50.0 * np.sin(9.0 * x) / y, max_newton=6)
    assert not result.report["converged"]
    assert result.report["iterations"] == 6
    assert len(result.report["residual_history"]) == 7


def _wild_problem() -> tuple[GraphDomain, np.ndarray]:
    dom = GraphDomain(Chart.HALFPLANE_XY, ((-1.0, 1.0), (0.5, 1.5)), (33, 33))
    x, y = dom.base_grids()
    return dom, 50.0 * np.sin(9.0 * x) / y


@pytest.mark.parametrize(
    "tau, factorizations", [(0.5, 19), (0.0, 18), (-0.7, 18)], ids=["tau0.5", "tau0", "tau-0.7"]
)
def test_solver_pins_the_converged_wild_newton_path(tau: float, factorizations: int) -> None:
    gf = reference_problem("wild", tau, 2.0, 1.0, 33)
    report = solve_dirichlet(gf.domain, tau, gf.values, max_newton=60).report
    assert report["converged"]
    assert (report["iterations"], report["factorizations"]) == (29, factorizations)


def _solver_case(case: str):
    if case == "zero":
        dom = GraphDomain(Chart.DISC_XY, ((-0.4, 0.4), (-0.4, 0.4)), (17, 17))
        return solve_dirichlet(dom, 0.0, np.zeros((17, 17)))
    if case == "catenoid":
        gf = reference_problem("catenoid", 0.5, 2.0, 1.0, 33)
        return solve_dirichlet(gf.domain, 0.5, gf.values)
    dom, boundary = _wild_problem()
    return solve_dirichlet(dom, 0.5, boundary, max_newton=6 if case == "wild_capped" else 0)


@pytest.mark.parametrize("case", ["zero", "catenoid", "wild_capped", "no_newton"])
def test_solver_report_is_read_off_the_history(case: str) -> None:
    result = _solver_case(case)
    report = result.report
    history = report["residual_history"]
    assert report["max_mean_curvature"] == history[-1]
    assert report["max_mean_curvature"] == mean_curvature(result.graph).sup()
    assert report["converged"] == (history[-1] < report["tolerance"])
    # each case converges or runs out of budget; running out adds the last iterate's entry
    expected = report["iterations"] if report["converged"] else report["iterations"] + 1
    assert len(history) == expected
    assert 0 <= report["factorizations"] <= report["iterations"]
    if case == "no_newton":
        assert report["iterations"] == 0
        assert report["factorizations"] == 0
        assert len(history) == 1


def test_solver_computes_each_residual_once(monkeypatch) -> None:
    seen: list[str] = []
    residual = _FluxForm.residual

    def recording(self, values: np.ndarray) -> np.ndarray:
        seen.append(hashlib.sha256(values.tobytes()).hexdigest())
        return residual(self, values)

    monkeypatch.setattr(_FluxForm, "residual", recording)
    dom, boundary = _wild_problem()
    result = solve_dirichlet(dom, 0.5, boundary, max_newton=6)
    assert result.report["iterations"] == 6
    assert len(seen) > result.report["iterations"]  # the seed's, and at least one per pass
    assert len(seen) == len(set(seen))
    # a converged solve that takes chord steps with an earlier factor
    seen.clear()
    result = _solver_case("catenoid")
    assert result.report["converged"]
    assert result.report["factorizations"] < result.report["iterations"] - 1
    assert len(seen) >= result.report["iterations"]
    assert len(seen) == len(set(seen))


def test_rejected_chord_step_refactors_in_the_same_pass(monkeypatch) -> None:
    events: list[tuple[str, str]] = []
    jacobian, residual = _FluxForm.jacobian, _FluxForm.residual

    def key(values: np.ndarray) -> str:
        return hashlib.sha256(values.tobytes()).hexdigest()

    def recording_jacobian(self, values):
        events.append(("jacobian", key(values)))
        return jacobian(self, values)

    def recording_residual(self, values):
        events.append(("residual", key(values)))
        return residual(self, values)

    monkeypatch.setattr(_FluxForm, "jacobian", recording_jacobian)
    monkeypatch.setattr(_FluxForm, "residual", recording_residual)
    result = _solver_case("catenoid")
    report = result.report
    assert report["converged"]
    # the seed's residual; pass 1: a fresh full step; pass 2: the chord trial
    # from the new iterate is rejected, and the same iterate is refactored and
    # takes a fresh step
    kinds = ["residual", "jacobian", "residual", "residual", "jacobian", "residual"]
    assert [e[0] for e in events[:6]] == kinds
    seed, first = events[0][1], events[2][1]
    assert events[1][1] == seed
    assert len({seed, first, events[3][1], events[5][1]}) == 4
    # the refactored Jacobian is taken at the last accepted iterate
    assert events[4][1] == first
    assert report["factorizations"] == sum(e[0] == "jacobian" for e in events) == 2
    # the rejected trial spent no pass: one pass per accepted step, plus the final check
    assert report["iterations"] == len(report["residual_history"])


@pytest.mark.parametrize("singular_call", [1, 2], ids=["first-factor", "after-chord"])
def test_solver_reports_a_singular_jacobian_as_nonconvergence(monkeypatch, singular_call) -> None:
    calls = []
    jacobian = _FluxForm.jacobian

    def singular_on_call(self, values):
        calls.append(None)
        jac = jacobian(self, values)
        if len(calls) == singular_call:
            i, j = np.argwhere(self.domain.interior_mask())[0]
            jac[:, :, i, j] = 0.0  # an exactly zero row makes its pivot block singular
        return jac

    monkeypatch.setattr(_FluxForm, "jacobian", singular_on_call)
    result = _solver_case("catenoid")
    report = result.report
    assert not report["converged"]
    assert len(calls) == singular_call
    assert report["factorizations"] == singular_call - 1
    assert len(report["residual_history"]) == report["iterations"]
    assert report["max_mean_curvature"] == mean_curvature(result.graph).sup()


def _long_window() -> GraphDomain:
    return GraphDomain(Chart.HALFPLANE_XY, ((-1.0, 1.0), (0.5, 1.5)), (40, 23))


# every window's sides are off the c 2^k + 1 sizes that halve evenly into 3 x 3 leaves
DISSECTION_WINDOWS = pytest.mark.parametrize(
    "make_domain",
    [_rectangle_window, _masked_disc_window, _catenoid_polar_window, _invariant_polar_window, _long_window],
    ids=["rectangle", "masked-disc", "catenoid-polar", "invariant-polar", "long-40x23"],
)


@DISSECTION_WINDOWS
def test_dissection_solves_match_spsolve(make_domain) -> None:
    from scipy.sparse.linalg import spsolve

    gf = _sample_graph(make_domain())
    interior = gf.domain.interior_mask()
    coef = _jacobian(gf)
    factor = NestedDissection(interior).factor(coef)
    b = np.random.default_rng(7).standard_normal(np.count_nonzero(interior))
    ref = spsolve(_interior_matrix(coef, interior), b)
    np.testing.assert_allclose(factor.solve(b), ref, rtol=1e-9, atol=1e-9 * float(np.max(np.abs(ref))))


@DISSECTION_WINDOWS
def test_dissection_solution_outlives_the_next_solve(make_domain) -> None:
    gf = _sample_graph(make_domain())
    interior = gf.domain.interior_mask()
    factor = NestedDissection(interior).factor(_jacobian(gf))
    first, second = np.random.default_rng(13).standard_normal((2, np.count_nonzero(interior)))
    x = factor.solve(first)
    kept = x.copy()
    factor.solve(second)
    assert np.array_equal(x, kept)


def _chart_laplacian(dom: GraphDomain) -> np.ndarray:
    """The harmonic seed's 5-point chart Laplacian as a coefficient field."""
    (h1, h2), (n1, n2) = dom.steps(), dom.shape
    lap = np.zeros((3, 3, n1, n2))
    lap[(0, 2), 1], lap[1, (0, 2)] = 1.0 / (h1 * h1), 1.0 / (h2 * h2)
    lap[1, 1] = -2.0 / (h1 * h1) - 2.0 / (h2 * h2)
    return lap


@DISSECTION_WINDOWS
@pytest.mark.parametrize("other", ["perturbed", "laplacian"])
def test_dissection_workspace_reuse_leaves_no_state(make_domain, other) -> None:
    dom = make_domain()
    interior = dom.interior_mask()
    rng = np.random.default_rng(11)
    a = _jacobian(_sample_graph(dom))
    if other == "perturbed":
        b = a + 0.1 * float(np.max(np.abs(a))) * rng.standard_normal(a.shape)
    else:
        b = _chart_laplacian(dom)
    rhs = rng.standard_normal(np.count_nonzero(interior))
    solver = NestedDissection(interior)
    for coef in (a, b, a):
        factor = solver.factor(coef)
    assert np.array_equal(factor.solve(rhs), NestedDissection(interior).factor(a).solve(rhs))


def test_dissection_recovers_from_a_singular_pivot_block() -> None:
    dom = _long_window()
    interior = dom.interior_mask()
    a = _jacobian(_sample_graph(dom))
    singular = a.copy()
    singular[:, :, 19, 10] = 0.0  # a zero row on the root separator, eliminated last
    rhs = np.random.default_rng(5).standard_normal(np.count_nonzero(interior))
    solver = NestedDissection(interior)
    stale = solver.factor(a)
    with pytest.raises(np.linalg.LinAlgError):
        solver.factor(singular)
    with pytest.raises(RuntimeError):
        stale.solve(rhs)
    assert np.array_equal(solver.factor(a).solve(rhs), NestedDissection(interior).factor(a).solve(rhs))


def test_dissection_factor_is_stale_after_a_later_factorization() -> None:
    dom = _rectangle_window()
    interior = dom.interior_mask()
    solver = NestedDissection(interior)
    first = solver.factor(_jacobian(_sample_graph(dom)))
    latest = solver.factor(_chart_laplacian(dom))
    rhs = np.ones(np.count_nonzero(interior))
    with pytest.raises(RuntimeError):
        first.solve(rhs)
    assert np.all(np.isfinite(latest.solve(rhs)))


def test_dissection_repeat_factorization_allocates_almost_nothing() -> None:
    import tracemalloc

    gf = reference_problem("wild", 0.5, 2.0, 1.0, 65)
    coef = _jacobian(gf)
    solver = NestedDissection(gf.domain.interior_mask())
    solver.factor(coef)  # allocates the workspace
    tracemalloc.start()
    try:
        solver.factor(coef)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the pivot blocks' np.linalg.inv results are the only arrays expected
    assert peak < 0.1 * solver._arena_size * 8


def test_flux_form_holds_and_peaks_below_the_buffered_workspace() -> None:
    import tracemalloc

    gf = reference_problem("catenoid", 0.5, 2.0, 1.0, 129)
    tracemalloc.start()
    try:
        form = _FluxForm(gf.domain, gf.tau)
        form.residual(gf.values)
        form.jacobian(gf.values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 4.05 MB is what a flux form with buffers for every half-edge array, both
    # iterates and the interior-node vectors took: 3.92 MB held and a 0.13 MB
    # call peak.  This one holds 2.53 MB and peaks 1.19 MB above that; a
    # Jacobian field allocated per call would add 1.2 MB.
    assert peak < 4.05e6


def test_solver_factors_match_spsolve(monkeypatch) -> None:
    from scipy.sparse.linalg import spsolve

    factor_calls, solves = [], []
    factor = NestedDissection.factor

    class RecordingFactor:
        def __init__(self, interior, coef, inner) -> None:
            self.interior, self.coef, self.inner = interior, coef, inner

        def solve(self, b):
            x = self.inner.solve(b)
            solves.append((self.interior, self.coef, b, x))
            return x

    def recording_factor(self, coef):
        factor_calls.append(coef)
        return RecordingFactor(self.interior, coef.copy(), factor(self, coef))

    monkeypatch.setattr(NestedDissection, "factor", recording_factor)
    dom, boundary = _wild_problem()
    result = solve_dirichlet(dom, 0.5, boundary, max_newton=6)
    assert result.report["iterations"] == 6
    assert len(result.report["residual_history"]) == 7
    # the harmonic seed, then six damped Newton steps; the report counts Newton factors only
    assert len(factor_calls) == 7
    assert result.report["factorizations"] == 6
    assert len(solves) == 7
    for interior, coef, b, x in solves:
        ref = spsolve(_interior_matrix(coef, interior), b, permc_spec="COLAMD")
        # relative to the step's size: single entries of a step can sit at rounding level
        np.testing.assert_allclose(x, ref, rtol=1e-9, atol=1e-9 * float(np.max(np.abs(ref))))


def test_masked_disc_window_residual_is_finite_without_warnings() -> None:
    # The horizontal edge midpoint (0.8, 0.6) of this grid lies on the unit circle.
    axis = np.linspace(-0.8, 0.8, 13)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    dom = GraphDomain(
        Chart.DISC_XY, ((-0.8, 0.8), (-0.8, 0.8)), (13, 13), mask=x * x + y * y < 0.81
    )
    interior = dom.interior_mask()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _FluxForm(dom, 0.5).residual(0.1 * x)
        sup = mean_curvature(GraphFunction(dom, 0.1 * x, 0.5)).sup()
        result = solve_dirichlet(dom, 0.5, 0.1 * x)
    assert np.all(np.isfinite(res[interior]))
    assert math.isfinite(sup)
    assert result.report["converged"]


def test_solver_rejects_bad_boundary_shape() -> None:
    dom = GraphDomain(Chart.DISC_XY, ((-0.4, 0.4), (-0.4, 0.4)), (17, 17))
    with pytest.raises(ParameterError):
        solve_dirichlet(dom, 0.0, np.zeros((16, 17)))
