"""Tests for slab constructions, their audits, and the negative controls."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from etau import slabs
from etau.core import (
    AmbientPoint,
    BasePoint,
    ConvergenceError,
    FeasibilityError,
    InvalidPointError,
    Model,
    ParameterError,
    SpaceParams,
    chord_length,
    convert_model,
    metric_arrays,
    metric_quadratic_form,
)
from etau.graphs import GraphFunction
from etau.isometries import AmbientIsometry, Orientation, apply_to_coords, push_forward
from etau.quadrature import CHUNK_NODES, PANEL_NODES, composite_gauss
from etau.slabs import (
    SlabSpec,
    _model_annulus_edges,
    _model_annulus_mesh,
    _solve_catenoid_half_height,
    build_example1,
    build_example2,
    check_annulus_family,
    disc_window_domain,
    edge_length_spectrum,
    graph_separation_probe,
    halfplane_window_domain,
    sample_interior_points,
    slab_report_to_json,
    slab_spec_descriptor,
    with_overlapping_graphs,
    with_shrunken_annuli,
)
from etau.surfaces import CatenoidSpec, LeafSpec, catenoid_height, foliation_leaf_find

FLAT = SpaceParams(0.0)


@pytest.fixture(scope="module")
def slab1():
    return build_example1(FLAT, 0.1, grid=65, annulus_resolution=(33, 48))


@pytest.fixture(scope="module")
def slab2():
    return build_example2(FLAT, "linear", 1.0, 0.45, 0.2, grid=65, annulus_resolution=(33, 48))


# -- window domains ---------------------------------------------------------------


def test_disc_window_domain_stays_inside_disc() -> None:
    dom = disc_window_domain(1.0, 17)
    x, y = dom.base_grids()
    active = dom.active_mask()
    r = np.sqrt(x**2 + y**2)
    assert np.all(r[active] <= math.tanh(0.5) + 1e-12)
    assert np.any(active)


def test_halfplane_window_domain_stays_above_floor() -> None:
    dom = halfplane_window_domain((0.0, 1.0), 2.0, 17)
    _, y = dom.base_grids()
    assert np.all(y[dom.active_mask()] > 0.0)


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_window_domains_need_two_nodes_per_direction(n: int) -> None:
    with pytest.raises(ParameterError, match="at least 2 nodes"):
        disc_window_domain(1.0, n)
    with pytest.raises(ParameterError, match="at least 2 nodes"):
        halfplane_window_domain((0.0, 1.0), 1.0, n)


def test_window_domains_need_an_active_node() -> None:
    # the four corners of a 2x2 grid lie outside the inscribed disc
    with pytest.raises(ParameterError, match="no node"):
        disc_window_domain(1.0, 2)
    with pytest.raises(ParameterError, match="no node"):
        halfplane_window_domain((0.0, 1.0), 1.0, 2)


@pytest.mark.parametrize("radius", [40.0, 1e300, math.inf])
def test_disc_window_on_the_ideal_boundary_is_rejected(radius: float) -> None:
    # 1 - tanh^2(R/2) <= BOUNDARY_MARGIN, the rule catenoid_patch applies
    with pytest.raises(ParameterError, match="ideal boundary"):
        disc_window_domain(radius, 9)


@pytest.mark.parametrize(
    ("center", "radius"), [((0.0, 1.0), 800.0), ((0.0, 1.0), math.inf), ((math.nan, 1.0), 1.0)]
)
def test_halfplane_window_with_non_finite_bounds_is_rejected(center, radius: float) -> None:
    with pytest.raises(ParameterError, match="non-finite bounds"):
        halfplane_window_domain(center, radius, 9)


# -- example 1 ---------------------------------------------------------------------


def test_example1_metadata_frozen(slab1) -> None:
    md = slab1.metadata
    assert md["d"] == pytest.approx(3.89232641047242, rel=1e-10)
    assert md["half_height"] == pytest.approx(1.5207963267948965, abs=1e-13)
    assert md["catenoid_half_height"] == pytest.approx(1.5457963267948898, abs=1e-10)
    assert md["boundary_height"] == pytest.approx(1.5332963267948931, abs=1e-10)
    assert md["rho_boundary"] == pytest.approx(6.434207744335531, rel=1e-9)
    assert md["height_chain_ok"] is True


def test_example1_height_relations(slab1) -> None:
    md = slab1.metadata
    # Slab height pi - epsilon at tau = 0, boundary circles halfway up the gap.
    assert md["height"] == pytest.approx(math.pi - 0.1, abs=1e-13)
    assert md["boundary_height"] == pytest.approx(
        0.5 * (md["half_height"] + md["catenoid_half_height"]), abs=1e-13
    )
    assert md["half_height"] < md["boundary_height"] < md["catenoid_half_height"]


def test_neck_solve_rejects_unbracketed_targets() -> None:
    with pytest.raises(FeasibilityError, match="smallest neck"):
        _solve_catenoid_half_height(0.0, 1e-6)
    with pytest.raises(FeasibilityError):
        _solve_catenoid_half_height(0.0, 0.5 * math.pi)


def _brentq_neck(tau: float, target: float) -> float:
    """Neck parameter by scipy's Brent solver on the bracket the secant starts from."""
    from scipy.optimize import brentq

    def excess(d: float) -> float:
        return 0.5 * catenoid_height(CatenoidSpec(tau=tau, d=d)) - target

    hi = 1.0
    while excess(hi) < 0.0:
        hi *= 2.0
    return brentq(excess, 1e-3, hi, rtol=1e-12)


@pytest.mark.parametrize("tau", [0.0, 0.5, -0.7])
@pytest.mark.parametrize("fraction", [0.2, 0.7, 0.97, 0.999])
def test_neck_secant_matches_brent(tau: float, fraction: float) -> None:
    target = fraction * 0.5 * math.pi * math.sqrt(1.0 + 4.0 * tau * tau)
    d = _solve_catenoid_half_height(tau, target)
    assert d == pytest.approx(_brentq_neck(tau, target), rel=1e-11)
    assert 0.5 * catenoid_height(CatenoidSpec(tau=tau, d=d)) == pytest.approx(target, rel=1e-13)


def test_neck_secant_step_budget(monkeypatch) -> None:
    monkeypatch.setattr(slabs, "_NECK_SOLVE_BUDGET", 1)
    with pytest.raises(ConvergenceError):
        _solve_catenoid_half_height(0.0, 0.5 * math.pi - 0.025)


def test_example1_epsilon_validation() -> None:
    with pytest.raises(FeasibilityError):
        build_example1(FLAT, 0.0)
    with pytest.raises(FeasibilityError):
        build_example1(FLAT, math.pi)


def test_example1_audit_passes(slab1) -> None:
    points = sample_interior_points(slab1, 3, seed=7)
    report = check_annulus_family(slab1, points)
    assert report.passed
    assert all(c.contains_point for c in report.annulus_checks)
    assert all(c.boundary_above and c.boundary_below for c in report.annulus_checks)
    assert max(abs(c.distance) for c in report.annulus_checks) < 1e-9
    # Boundary circles sit epsilon/8 = 0.0125 above and below the graphs.
    for c in report.annulus_checks:
        assert c.above_margin == pytest.approx(0.0125, abs=1e-9)
        assert c.below_margin == pytest.approx(0.0125, abs=1e-9)
    assert report.spectra_ok
    assert report.spectra_deviation < 1e-6


def test_distance_to_accepts_the_reference_vertex(slab1) -> None:
    p = sample_interior_points(slab1, 1, seed=7)[0]
    instance = slab1.annulus_generator(p)
    accepted = instance.distance_to(p, accept_below=1e-6)
    assert instance.distance_to(p) <= accepted < 1e-9
    off = AmbientPoint(p.base, p.t + 0.05)
    assert instance.distance_to(off, accept_below=1e-6) == instance.distance_to(off)


def _nelder_mead_distance(instance, q: AmbientPoint) -> float:
    """The chord distance by a Nelder-Mead search from the reference vertex,
    with a penalty beyond the boundary circles |w| = 1."""
    from scipy.optimize import minimize

    def objective(v: np.ndarray) -> float:
        phi, w = float(v[0]), float(v[1])
        penalty = 0.0
        if abs(w) > 1.0:
            penalty = 10.0 * (abs(w) - 1.0)
            w = math.copysign(1.0, w)
        c = instance.surface_coords(np.array([phi]), np.array([w]))[0]
        p = AmbientPoint(BasePoint(Model.CYLINDER, c[0], c[1]), c[2])
        return chord_length(p, q, instance.tau) + penalty

    res = minimize(
        objective,
        np.array([0.0, instance.w_reference]),
        method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 400},
    )
    return float(res.fun)


@pytest.mark.parametrize("slab", ["slab1", "slab2"])
def test_annulus_distance_matches_nelder_mead(slab, request) -> None:
    spec = request.getfixturevalue(slab)
    for p in sample_interior_points(spec, 4, seed=5):
        instance = spec.annulus_generator(p)
        pc = convert_model(p, instance.tau) if p.model is not Model.CYLINDER else p
        assert abs(instance.distance_to(pc) - _nelder_mead_distance(instance, pc)) <= 1e-9
        for shift in (1e-3, 1e-2):
            off = AmbientPoint(pc.base, pc.t + shift)
            distance = instance.distance_to(off)
            assert 0.0 < distance <= _nelder_mead_distance(instance, off) + 1e-9


def _two_pass_spectrum(instance, target_step: float = 0.015) -> np.ndarray:
    """Reference edge spectrum: separate coarse and fine mapped passes, with
    lengths from full metric tensors contracted by einsum."""
    rows, cols = instance.resolution
    args = (instance.tau, instance.d, instance.rho_boundary, rows, cols)
    vertices = _model_annulus_mesh(*args).vertices
    edges = _model_annulus_edges(*args)
    a, b = vertices[edges[:, 0]], vertices[edges[:, 1]]

    def lengths(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
        frac = np.linspace(0.0, 1.0, m + 1)
        pts = a[:, None, :] * (1.0 - frac)[None, :, None] + b[:, None, :] * frac[None, :, None]
        mapped = apply_to_coords(instance.placement, pts.reshape(-1, 3)).reshape(a.shape[0], m + 1, 3)
        delta = mapped[:, 1:, :] - mapped[:, :-1, :]
        mid = 0.5 * (mapped[:, 1:, :] + mapped[:, :-1, :])
        g = metric_arrays(Model.CYLINDER, instance.tau, mid[..., 0], mid[..., 1])
        sq = np.einsum("...i,...ij,...j->...", delta, g, delta)
        return np.sqrt(np.maximum(sq, 0.0)).sum(axis=1)

    rough = lengths(a, b, 4)
    levels = np.clip(np.ceil(np.log2(np.maximum(rough / target_step, 1.0))), 3, 13).astype(int)
    out = np.empty(edges.shape[0])
    for level in np.unique(levels):
        m = 1 << int(level)
        for part in np.array_split(np.flatnonzero(levels == level), 64):
            if part.size:
                out[part] = (4.0 * lengths(a[part], b[part], 2 * m) - lengths(a[part], b[part], m)) / 3.0
    return np.sort(out)


def test_edge_length_spectrum_matches_two_pass_reference(slab1) -> None:
    # The step-0.004 polyline's own error is about 1e-11 here.
    instance = slab1.annulus_generator(sample_interior_points(slab1, 1, seed=7)[0])
    assert instance.resolution == (33, 48)
    np.testing.assert_allclose(
        edge_length_spectrum(instance), _two_pass_spectrum(instance, 0.004), rtol=1e-10, atol=0.0
    )


def test_edge_length_spectrum_separates_non_congruent_annuli(slab1) -> None:
    first, second = (slab1.annulus_generator(p) for p in sample_interior_points(slab1, 2, seed=7))
    spectrum = edge_length_spectrum(first)

    def deviation(instance) -> float:
        return float(np.max(np.abs(edge_length_spectrum(instance) - spectrum)))

    assert deviation(second) < 1e-8
    # A slightly different catenoid, and a placement whose fiber rule belongs
    # to another tau (so it is not an isometry of the tau = 0 metric).
    assert deviation(replace(first, d=first.d * (1.0 + 1e-4))) > 1e-5
    assert deviation(replace(first, placement=replace(first.placement, tau=0.01))) > 1e-5


def _per_point_spectrum(instance) -> np.ndarray:
    """Reference edge spectrum by the per-point route: each chunk gathers its
    edges' vertices, and every quadrature node goes through push_forward as
    one (n, 3) row with a broadcast copy of its edge vector."""
    rows, cols = instance.resolution
    args = (instance.tau, instance.d, instance.rho_boundary, rows, cols)
    vertices = _model_annulus_mesh(*args).vertices
    edges = _model_annulus_edges(*args)
    out = np.empty(edges.shape[0])
    per_chunk = CHUNK_NODES // PANEL_NODES
    for start in range(0, edges.shape[0], per_chunk):
        part = edges[start : start + per_chunk]
        a = vertices[part[:, 0], None, None, :]
        v = vertices[part[:, 1], None, None, :] - a

        def speed(s: np.ndarray) -> np.ndarray:
            p = a + s[..., None] * v
            dirs = np.broadcast_to(v, p.shape)
            image, dv = push_forward(instance.placement, p.reshape(-1, 3), dirs.reshape(-1, 3))
            sq = metric_quadratic_form(Model.CYLINDER, instance.tau, image[:, 0], image[:, 1], *dv.T)
            return np.sqrt(sq).reshape(s.shape)

        out[start : start + per_chunk] = composite_gauss(speed, np.zeros(len(part)), np.ones(len(part)), 1)
    return np.sort(out)


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_edge_length_spectrum_equals_per_point_route(slab1, tau: float) -> None:
    slab = slab1 if tau == 0.0 else build_example1(SpaceParams(tau), 0.1, grid=65, annulus_resolution=(33, 48))
    instance = slab.annulus_generator(sample_interior_points(slab, 1, seed=7)[0])
    assert instance.tau == tau
    np.testing.assert_array_equal(edge_length_spectrum(instance), _per_point_spectrum(instance))
    # A reversing placement, so the x, y and t row signs of the differential count.
    reversing = AmbientIsometry(instance.placement.mobius, Orientation.REVERSING, 0.3, 0.0, tau)
    mirrored = replace(instance, placement=reversing)
    np.testing.assert_array_equal(edge_length_spectrum(mirrored), _per_point_spectrum(mirrored))


@pytest.mark.parametrize(("rows", "cols", "count"), [(65, 96, 18528), (5, 8, 104), (6, 8, 152), (8, 10, 250)])
def test_model_annulus_edges_are_the_sorted_unique_pairs(slab1, rows: int, cols: int, count: int) -> None:
    gen = slab1.annulus_generator
    args = (gen.tau, gen.d, gen.rho_boundary, rows, cols)
    mesh = _model_annulus_mesh(*args)
    tri = mesh.triangles
    pairs = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]), axis=1)
    edges = _model_annulus_edges(*args)
    np.testing.assert_array_equal(edges, np.unique(pairs, axis=0))
    # The mesh makes the row count odd; a wrapped grid has R C ring edges,
    # (R - 1) C meridian edges and (R - 1) C diagonals.
    built_rows = len(mesh.vertices) // cols
    assert built_rows == rows + 1 - rows % 2
    assert len(edges) == (3 * built_rows - 2) * cols == count


def test_nan_spectrum_fails_the_audit(slab1, monkeypatch) -> None:
    points = sample_interior_points(slab1, 2, seed=7)

    def spectrum_with_nan(instance):
        out = edge_length_spectrum(instance)
        if instance.point == points[0]:
            out[len(out) // 2] = float("nan")
        return out

    monkeypatch.setattr(slabs, "edge_length_spectrum", spectrum_with_nan)
    report = check_annulus_family(slab1, points)
    assert math.isnan(report.spectra_deviation)
    assert not report.spectra_ok
    assert not report.passed


def test_shrunken_annuli_fail_without_crashing(slab1) -> None:
    points = sample_interior_points(slab1, 3, seed=7)
    report = check_annulus_family(with_shrunken_annuli(slab1, 0.5), points)
    assert not report.passed
    assert not any(c.boundary_above or c.boundary_below for c in report.annulus_checks)


def test_overlapping_graphs_fail_disjointness(slab1) -> None:
    report = check_annulus_family(
        with_overlapping_graphs(slab1), sample_interior_points(slab1, 2, seed=7)
    )
    assert not report.passed
    assert not report.disjoint
    assert len(report.annulus_checks) == 0


def test_point_outside_slab_is_rejected(slab1) -> None:
    top = AmbientPoint(
        BasePoint(Model.CYLINDER, 0.0, 0.0), slab1.metadata["half_height"] + 1.0
    )
    with pytest.raises(InvalidPointError):
        check_annulus_family(slab1, [top])


def test_shrink_factor_validation(slab1) -> None:
    with pytest.raises(ParameterError):
        with_shrunken_annuli(slab1, 1.5)


# -- example 2 ---------------------------------------------------------------------


def test_example2_metadata_frozen(slab2) -> None:
    md = slab2.metadata
    assert md["sup_gradient"] == pytest.approx(0.2, abs=1e-12)
    assert md["variation"] == pytest.approx(0.7999273634100761, rel=1e-10)
    assert md["h_prime"] == pytest.approx(0.624963681705038, rel=1e-10)
    assert md["boundary_height"] == pytest.approx(1.3249273634100762, rel=1e-10)
    assert md["d"] == pytest.approx(1.629571591503211, rel=1e-9)
    assert md["douglas_annulus_wins"] is True
    assert md["douglas_threshold"] == pytest.approx(math.tanh(0.5), abs=1e-12)


def test_example2_translate_offset_uses_window_variation(slab2) -> None:
    md = slab2.metadata
    assert md["h_prime"] == pytest.approx(0.5 * (md["h"] + md["variation"]), abs=1e-13)
    gap = slab2.upper.values - slab2.lower.values
    assert np.allclose(gap, 2.0 * md["h_prime"])


def test_example2_audit_passes(slab2) -> None:
    points = sample_interior_points(slab2, 3, seed=3)
    report = check_annulus_family(slab2, points)
    assert report.passed
    assert max(abs(c.distance) for c in report.annulus_checks) < 1e-9
    assert min(min(c.above_margin, c.below_margin) for c in report.annulus_checks) > 0.3


def test_example2_requires_douglas_inequalities() -> None:
    with pytest.raises(FeasibilityError, match="need 2 C r < h: 2 C r = 0.5 >= h = 0.45"):
        build_example2(FLAT, "linear", 1.0, 0.45, 0.25)
    with pytest.raises(FeasibilityError, match="cosh"):
        build_example2(FLAT, "linear", 1.0, 0.47, 0.2)


def test_example2_douglas_bounds_do_not_overflow() -> None:
    # (cosh r - 1)/sinh r is written tanh(r/2): no OverflowError at r = 1e6
    with pytest.raises(FeasibilityError, match="need 2 C r < h"):
        build_example2(FLAT, "linear", 1e6, 0.45, 0.2)
    with pytest.raises(FeasibilityError, match=r"need h < \(cosh r - 1\)/sinh r = 1.0: got h = 1.5"):
        build_example2(FLAT, "linear", 1e6, 1.5, 1e-7)


def test_example2_rejects_steep_window_gradient() -> None:
    with pytest.raises(FeasibilityError, match="gradient bound violated"):
        build_example2(FLAT, "si", 1.0, 0.45, 0.2, grid=65)


def test_example2_rejects_unknown_graph_choice() -> None:
    with pytest.raises(ParameterError):
        build_example2(FLAT, "cubic", 1.0, 0.45, 0.2)


# -- sampling ----------------------------------------------------------------------


def _scipy_heights(gf: GraphFunction):
    from scipy.interpolate import RegularGridInterpolator

    interp = RegularGridInterpolator(
        gf.domain.axes(), gf.values, method="linear", bounds_error=False, fill_value=None
    )
    return lambda x, y: interp(np.stack([x, y], axis=-1))


@pytest.mark.parametrize("chart", ["disc", "halfplane"])
def test_bilinear_heights_match_scipy(chart: str) -> None:
    if chart == "disc":
        domain = disc_window_domain(3.0, 33)
    else:
        domain = halfplane_window_domain((0.0, 1.0), 2.0, 33)
    gf = GraphFunction.from_base_callable(domain, 0.0, lambda x, y: 2.0 + np.sin(3.0 * x) * np.cos(2.0 * y))
    ours, reference = slabs._graph_interpolator(gf), _scipy_heights(gf)
    q1, q2 = domain.axes()
    (a1, b1), (a2, b2) = domain.bounds
    rng = np.random.default_rng(2)
    nodes = np.meshgrid(q1, q2, indexing="ij")
    inside = (rng.uniform(a1, b1, 400), rng.uniform(a2, b2, 400))
    w1, w2 = b1 - a1, b2 - a2
    x, y = rng.uniform(a1 - 0.2 * w1, b1 + 0.2 * w1, 400), rng.uniform(a2 - 0.1 * w2, b2 + 0.2 * w2, 400)
    beyond = (x < a1) | (x > b1) | (y < a2) | (y > b2)
    outside = (x[beyond], y[beyond])
    assert outside[0].size > 100
    for x, y in (nodes, inside, outside):
        np.testing.assert_allclose(ours(x, y), reference(x, y), rtol=1e-14, atol=0.0)
    np.testing.assert_array_equal(ours(*nodes), gf.values)


def test_sine_integral_matches_scipy_on_the_example2_axis() -> None:
    from scipy.special import sici

    _, y = halfplane_window_domain((0.0, 1.0), 10.0, 129).axes()
    np.testing.assert_allclose(slabs._sine_integral(y), sici(y)[0], rtol=0.0, atol=1e-13)
    assert slabs._sine_integral(np.array([[1.0, 2.0], [1.0, 0.0]]))[1, 1] == 0.0


def test_sample_interior_points_is_seeded(slab2) -> None:
    a = sample_interior_points(slab2, 4, seed=11)
    b = sample_interior_points(slab2, 4, seed=11)
    c = sample_interior_points(slab2, 4, seed=12)
    assert [(p.x, p.y, p.t) for p in a] == [(p.x, p.y, p.t) for p in b]
    assert [(p.x, p.y, p.t) for p in a] != [(p.x, p.y, p.t) for p in c]


def test_sampled_points_lie_between_graphs(slab1) -> None:
    half = slab1.metadata["half_height"]
    for p in sample_interior_points(slab1, 8, seed=0):
        assert -half < p.t < half
        assert p.model is Model.CYLINDER


def test_sampler_gives_up_on_an_unreachable_window() -> None:
    # The upper graph lies below the lower one on every node, so no draw
    # lands strictly between them.
    dom = halfplane_window_domain((50.0, 1.0), 0.5, 9)
    slab = SlabSpec(
        lower=GraphFunction.constant(dom, 0.0, 1.0),
        upper=GraphFunction.constant(dom, 0.0, -1.0),
        annulus_generator=None,
        metadata={},
    )
    with pytest.raises(ConvergenceError):
        sample_interior_points(slab, 3)


def test_sampler_draws_from_an_off_centre_window() -> None:
    dom = halfplane_window_domain((50.0, 1.0), 0.5, 9)
    slab = SlabSpec(
        lower=GraphFunction.constant(dom, 0.0, -1.0),
        upper=GraphFunction.constant(dom, 0.0, 1.0),
        annulus_generator=None,
        metadata={},
    )
    points = sample_interior_points(slab, 6, seed=1)
    assert len(points) == 6
    for p in points:
        assert p.model is Model.HALF_SPACE
        assert slabs._point_in_window(dom, p.x, p.y)
        assert -1.0 < p.t < 1.0


def _hand_built_slab(slab1, upper_values=None) -> SlabSpec:
    dom = disc_window_domain(4.0, 33)
    upper = GraphFunction.constant(dom, 0.0, 1.2)
    if upper_values is not None:
        upper = GraphFunction(dom, upper_values, 0.0)
    return SlabSpec(
        lower=GraphFunction.constant(dom, 0.0, -1.2),
        upper=upper,
        annulus_generator=slab1.annulus_generator,
        metadata={},
    )


def test_slab_without_metadata_is_sampled_and_shrunk(slab1) -> None:
    slab = _hand_built_slab(slab1)
    points = sample_interior_points(slab, 3, seed=7)
    assert all(-1.2 < p.t < 1.2 for p in points)
    shrunken = with_shrunken_annuli(slab, 0.5)
    assert shrunken.annulus_generator.rho_boundary < slab1.annulus_generator.rho_boundary
    report = check_annulus_family(shrunken, points)
    assert not report.passed
    assert len(report.annulus_checks) == 3
    assert not any(c.boundary_above or c.boundary_below for c in report.annulus_checks)
    assert slab_spec_descriptor(shrunken)["metadata"] == {
        "negative_control": "annuli shrunken to 0.5 of the half-height"
    }


def test_shrinking_needs_a_gap_between_the_graphs(slab1) -> None:
    values = np.full((33, 33), 1.2)
    values[16, 16] = -1.2  # the graphs touch at the window's centre node
    with pytest.raises(ParameterError):
        with_shrunken_annuli(_hand_built_slab(slab1, values))


@pytest.mark.parametrize(
    "fixture, first",
    [
        ("slab1", (0.6658056440559817, 0.06939100167528335, 0.7622723665118927)),
        ("slab2", (0.6658056440559817, 0.06939100167528335, 0.579574292917145)),
    ],
)
def test_first_sampled_point_frozen(fixture: str, first, request) -> None:
    # The window's centre and radius are read back from the domain bounds,
    # which moves the points by rounding only.
    p = sample_interior_points(request.getfixturevalue(fixture), 1, seed=0)[0]
    np.testing.assert_allclose((p.x, p.y, p.t), first, rtol=0.0, atol=1e-13)


# -- separation probe ---------------------------------------------------------------


def test_probe_splits_slice_into_two_components() -> None:
    p0 = AmbientPoint(BasePoint(Model.HALF_SPACE, 2.0, 0.5), 0.0)
    lam = foliation_leaf_find(p0, 1.2, 1.0, 0.0).scale
    dom = halfplane_window_domain((2.0, 0.5), 1.0, 33)
    flat = GraphFunction.constant(dom, 0.0, 0.0)
    probe = graph_separation_probe(flat, LeafSpec(0.0, 1.2, 1.0, lam))
    assert probe.verdict == "two_components"
    assert probe.positive_components == 1
    assert probe.negative_components == 1
    assert probe.positive_count == 211
    assert probe.negative_count == 586
    assert probe.interface_components == 1


def test_probe_reports_missed_leaf() -> None:
    p0 = AmbientPoint(BasePoint(Model.HALF_SPACE, 2.0, 0.5), 0.0)
    lam = foliation_leaf_find(p0, 1.2, 1.0, 0.0).scale
    dom = halfplane_window_domain((2.0, 0.5), 1.0, 33)
    far = GraphFunction.constant(dom, 0.0, 30.0)
    probe = graph_separation_probe(far, LeafSpec(0.0, 1.2, 1.0, lam))
    assert probe.verdict == "no_intersection"
    assert probe.positive_count == 0


@pytest.mark.parametrize("diagonal", [False, True], ids=["4-connected", "8-connected"])
@pytest.mark.parametrize("fill", [0.3, 0.5, 0.6, 0.8])
def test_component_count_matches_scipy_label(fill: float, diagonal: bool) -> None:
    from scipy import ndimage

    structure = np.ones((3, 3)) if diagonal else np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    rng = np.random.default_rng(int(fill * 10))
    for shape in [(1, 1), (1, 9), (7, 1), (9, 12), (33, 33), (40, 23)]:
        for _ in range(5):
            mask = rng.random(shape) < fill
            _, want = ndimage.label(mask, structure=structure)
            assert slabs._component_count(mask, diagonal) == want
    # one long serpentine path, the same path cut twice, and its rows left unjoined
    snake = np.zeros((31, 17), dtype=bool)
    snake[::2] = True
    bars = snake.copy()
    snake[1::4, -1] = snake[3::4, 0] = True
    cut = snake.copy()
    cut[[1, 9], -1] = False
    for mask, want in ((snake, 1), (cut, 3), (bars, 16)):
        assert slabs._component_count(mask, diagonal) == want
        assert ndimage.label(mask, structure=structure)[1] == want


def test_probe_rejects_mismatched_tau() -> None:
    dom = halfplane_window_domain((2.0, 0.5), 1.0, 9)
    with pytest.raises(ParameterError):
        graph_separation_probe(GraphFunction.constant(dom, 0.0, 0.0), LeafSpec(0.5, 1.2))


# -- serialization -------------------------------------------------------------------


def test_slab_descriptor_shape(slab2) -> None:
    desc = slab_spec_descriptor(slab2)
    assert desc["generator"]["kind"] == "translated_catenoid"
    assert desc["tau"] == 0.0
    assert set(desc) >= {"chart", "bounds", "shape", "metadata", "generator"}


def test_slab_report_json_shape(slab2) -> None:
    points = sample_interior_points(slab2, 1, seed=3)
    report = check_annulus_family(slab2, points)
    data = slab_report_to_json(report)
    assert data["pass"] is True
    assert len(data["annulus_checks"]) == 1
    entry = data["annulus_checks"][0]
    assert set(entry) == {
        "point",
        "contains_point",
        "boundary_above",
        "boundary_below",
        "distance",
        "above_margin",
        "below_margin",
    }
