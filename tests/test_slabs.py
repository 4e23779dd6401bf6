"""Tests for slab constructions, their audits, and the negative controls."""

from __future__ import annotations

import math
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etau import slabs, surfaces
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
from etau.graphs import (
    Chart,
    GraphDomain,
    GraphFunction,
    _tilt,
    chart_coefficients,
    graph_nu,
    hyperbolic_gradient_norm,
    variation,
)
from etau.isometries import (
    AmbientIsometry,
    MobiusMap,
    Orientation,
    apply_to_coords,
    compose,
    identity_isometry,
    push_forward,
)
from etau.quadrature import CHUNK_NODES, PANEL_NODES, composite_gauss
from etau.slabs import (
    BoundingGraphCheck,
    SlabSpec,
    _model_annulus,
    _solve_catenoid_half_height,
    build_example1,
    build_example2,
    check_annulus_family,
    check_bounding_graphs,
    disc_window_domain,
    graph_separation_probe,
    halfplane_window_domain,
    sample_interior_points,
    slab_report_to_json,
    slab_spec_descriptor,
    with_overlapping_graphs,
    with_shrunken_annuli,
)
from etau.surfaces import (
    CatenoidSpec,
    LeafSpec,
    _catenoid_grid,
    catenoid_height,
    catenoid_patch,
    foliation_leaf_find,
    mesh_catenoid,
)

from spectra_reference import (
    SPECTRA_CHUNK_NODES,
    edge_length_spectra,
    hermitian_form,
    mesh_edges,
    model_segments,
    node_speeds,
    placement_forms,
    speed_forms,
    unit_panel,
)

FLAT = SpaceParams(0.0)
# The (rows, cols) model mesh the spectra tests measure on, and the 65 x 96
# mesh of the longdouble comparison.
RESOLUTION = (33, 48)
FINE_RESOLUTION = (65, 96)


@pytest.fixture(scope="module")
def slab1():
    return build_example1(FLAT, 0.1, grid=65)


@pytest.fixture(scope="module")
def slab2():
    return build_example2(FLAT, "linear", 1.0, 0.45, 0.2, grid=65)


def _level(t: float):
    """Height function of the horizontal slice at fiber height t."""
    return lambda x, y: np.full(np.broadcast(x, y).shape, t)


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


def test_slab_window_lies_on_a_coordinate_chart() -> None:
    polar = GraphDomain(chart=Chart.DISC_POLAR, bounds=((0.1, 1.0), (0.0, 1.0)), shape=(5, 5))
    for domain in (polar, halfplane_window_domain((0.0, 1.0), 1.0, 9)):
        with pytest.raises(ParameterError, match="coordinate chart"):
            SlabSpec(
                domain=domain, tau=0.0, lower=_level(-1.0), upper=_level(1.0), annulus_generator=None, metadata={}
            )


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


@pytest.mark.parametrize("tau", [0.0, 0.3, -0.3, 0.5, -0.7, 2.0])
def test_neck_solve_half_height_sum_is_the_table_limit(tau: float) -> None:
    # The neck solve's one Gauss sum per trial d against the profile table it
    # replaces, over the secant's whole bracket [1e-3, 1e8].
    for d in np.geomspace(1e-3, 1e8, 45).tolist():
        want = surfaces._catenoid_table(tau, d).limit
        assert surfaces._catenoid_half_height(tau, d) == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("tau, d", [(0.0, 1e-16), (0.5, 1e-17), (0.0, 1e140), (2.0, 1e150)])
def test_neck_solve_half_height_sum_rejects_what_the_table_rejects(tau: float, d: float) -> None:
    # d too small for the truncation radius to clear the neck, and sinh^2 past the float range
    with pytest.raises(ParameterError) as table:
        surfaces._catenoid_table(tau, d)
    with pytest.raises(ParameterError) as total:
        surfaces._catenoid_half_height(tau, d)
    assert str(total.value) == str(table.value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_example1(SpaceParams(0.37), 0.2345, grid=9),
        lambda: build_example2(SpaceParams(-0.0123), "linear", 1.0, 0.45, 0.2, grid=9),
    ],
    ids=["example1", "example2"],
)
def test_example_builds_tabulate_one_catenoid(build) -> None:
    # Only the solved neck's profile is tabulated; every trial d of the
    # neck solve reads a Gauss sum instead.
    surfaces._catenoid_table.cache_clear()
    build()
    assert surfaces._catenoid_table.cache_info().misses == 1


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


@pytest.mark.parametrize("radius", [1e-6, 1e-30, 1e-200])
def test_example1_margins_hold_on_tiny_windows(radius: float) -> None:
    # The boundary circles leave the window by far; the audit reads the
    # slices t = -half and t = half there, not an extrapolation of the window.
    slab = build_example1(FLAT, 0.1, window_radius=radius, grid=65)
    report = check_annulus_family(slab, sample_interior_points(slab, 3, seed=7))
    assert report.passed
    for c in report.annulus_checks:
        assert c.above_margin == pytest.approx(0.0125, abs=1e-9)
        assert c.below_margin == pytest.approx(0.0125, abs=1e-9)


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
        return chord_length(p, q, instance.generator.tau) + penalty

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
        pc = convert_model(p, instance.generator.tau) if p.model is not Model.CYLINDER else p
        assert abs(instance.distance_to(pc) - _nelder_mead_distance(instance, pc)) <= 1e-9
        for shift in (1e-3, 1e-2):
            off = AmbientPoint(pc.base, pc.t + shift)
            distance = instance.distance_to(off)
            assert 0.0 < distance <= _nelder_mead_distance(instance, off) + 1e-9


def _two_pass_spectrum(instance, target_step: float = 0.015) -> np.ndarray:
    """Reference edge spectrum on the RESOLUTION mesh: separate coarse and
    fine mapped passes, with lengths from full metric tensors contracted by
    einsum."""
    tau = instance.generator.tau
    a, v = model_segments(instance.generator, RESOLUTION)
    b = a + v

    def lengths(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
        frac = np.linspace(0.0, 1.0, m + 1)
        pts = a[:, None, :] * (1.0 - frac)[None, :, None] + b[:, None, :] * frac[None, :, None]
        mapped = apply_to_coords(instance.placement, pts.reshape(-1, 3)).reshape(a.shape[0], m + 1, 3)
        delta = mapped[:, 1:, :] - mapped[:, :-1, :]
        mid = 0.5 * (mapped[:, 1:, :] + mapped[:, :-1, :])
        g = metric_arrays(Model.CYLINDER, tau, mid[..., 0], mid[..., 1])
        sq = np.einsum("...i,...ij,...j->...", delta, g, delta)
        return np.sqrt(np.maximum(sq, 0.0)).sum(axis=1)

    rough = lengths(a, b, 4)
    levels = np.clip(np.ceil(np.log2(np.maximum(rough / target_step, 1.0))), 3, 13).astype(int)
    out = np.empty(a.shape[0])
    for level in np.unique(levels):
        m = 1 << int(level)
        for part in np.array_split(np.flatnonzero(levels == level), 64):
            if part.size:
                out[part] = (4.0 * lengths(a[part], b[part], 2 * m) - lengths(a[part], b[part], m)) / 3.0
    return np.sort(out)


def test_edge_length_spectrum_matches_two_pass_reference(slab1) -> None:
    # The step-0.004 polyline's own error is about 1e-11 here.
    instance = slab1.annulus_generator(sample_interior_points(slab1, 1, seed=7)[0])
    np.testing.assert_allclose(
        edge_length_spectra([instance], RESOLUTION)[0], _two_pass_spectrum(instance, 0.004), rtol=1e-10, atol=0.0
    )


def test_edge_length_spectrum_separates_non_congruent_annuli(slab1) -> None:
    first, second = (slab1.annulus_generator(p) for p in sample_interior_points(slab1, 2, seed=7))
    spectrum = edge_length_spectra([first], RESOLUTION)[0]

    def deviation(instance) -> float:
        return float(np.max(np.abs(edge_length_spectra([instance], RESOLUTION)[0] - spectrum)))

    assert deviation(second) < 1e-8
    # A slightly different catenoid, and a placement whose fiber rule belongs
    # to another tau (so it is not an isometry of the tau = 0 metric).
    gen = first.generator
    assert deviation(replace(first, generator=replace(gen, d=gen.d * (1.0 + 1e-4)))) > 1e-5
    assert deviation(replace(first, placement=replace(first.placement, tau=0.01))) > 1e-5


def _per_point_spectrum(instance, resolution) -> np.ndarray:
    """Edge spectrum by the push-forward route: each chunk takes its edges'
    segments, and every quadrature node goes through push_forward as one
    (n, 3) row with a broadcast copy of its edge vector; the metric is then
    taken at the image, where float64 fixes 1 - |w|^2 only to about 1e-16."""
    tau = instance.generator.tau
    edge_a, edge_v = model_segments(instance.generator, resolution)
    out = np.empty(edge_a.shape[0])
    per_chunk = CHUNK_NODES // PANEL_NODES
    for start in range(0, edge_a.shape[0], per_chunk):
        a = edge_a[start : start + per_chunk, None, None, :]
        v = edge_v[start : start + per_chunk, None, None, :]

        def speed(s: np.ndarray) -> np.ndarray:
            p = a + s[..., None] * v
            dirs = np.broadcast_to(v, p.shape)
            image, dv = push_forward(instance.placement, p.reshape(-1, 3), dirs.reshape(-1, 3))
            sq = metric_quadratic_form(Model.CYLINDER, tau, image[:, 0], image[:, 1], *dv.T)
            return np.sqrt(sq).reshape(s.shape)

        out[start : start + per_chunk] = composite_gauss(speed, np.zeros(len(a)), np.ones(len(a)), 1)
    return np.sort(out)


def _per_edge_spectrum(instance, resolution) -> np.ndarray:
    """Reference edge spectrum: each edge's nodes are one row of
    composite_gauss's (edges, 1, PANEL_NODES) layout, with the edge's vector
    as one-edge (edges, 1, 1) arrays, measured by the spectra's own per-node
    integrand node_speeds on the forms the spectra read (speed_forms)."""
    tau = instance.generator.tau
    edge_a, edge_v = model_segments(instance.generator, resolution)
    a, v = edge_a[:, None, None, :], edge_v[:, None, None, :]
    forms = [speed_forms(instance.placement, tau)]

    def speed(s: np.ndarray) -> np.ndarray:
        x, y = a[..., 0] + s * v[..., 0], a[..., 1] + s * v[..., 1]
        return node_speeds(forms, tau, x, y, v[..., 0], v[..., 1], v[..., 2])[0]

    edges = len(edge_a)
    return np.sort(composite_gauss(speed, np.zeros(edges), np.ones(edges), 1))


def _reference_node_speeds(forms, tau: float, x, y, vx, vy, vt) -> list[np.ndarray]:
    """node_speeds with each form value and squared speed written as one
    expression, in the kernel's operand order."""

    def form_at(form):
        a, br, bi, c = form
        return a * (x * x + y * y) + c + (2.0 * br) * x - (2.0 * bi) * y

    def twist(scale, form):
        a, br, bi, _ = form
        return (scale * a) * (x * vy - y * vx) + (scale * br * vy + scale * bi * vx)

    speeds = []
    for tau_f, d_form, p_form in forms:
        den, vertical = form_at(d_form), vt
        if tau != 0.0:
            vertical = vertical + twist(4.0 * tau, d_form) / den
        if p_form is not None:
            vertical = vertical + twist(4.0 * (tau_f - tau), p_form) / form_at(p_form)
        speeds.append(np.sqrt(4.0 * (vx * vx + vy * vy) / (den * den) + vertical * vertical))
    return speeds


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_node_speeds_keep_the_bits_of_their_expressions(tau: float) -> None:
    # Nodes in the (PANEL_NODES, edges) layout against per-edge vectors, one
    # placement with the metric's tau and one whose tau differs (P's twist).
    rng = np.random.default_rng(11)
    x, y = rng.uniform(-0.7, 0.7, (2, PANEL_NODES, 31))
    vx, vy, vt = rng.uniform(-0.3, 0.3, (3, 31))
    d_forms = [(rng.uniform(-3.0, -0.5), *rng.uniform(-0.4, 0.4, 2), rng.uniform(0.5, 3.0)) for _ in range(2)]
    p_form = (rng.uniform(1.0, 50.0), *rng.uniform(-20.0, 20.0, 2), rng.uniform(1.0, 50.0))
    forms = [(tau, d_forms[0], None), (tau + 0.01, d_forms[1], p_form)]
    got = node_speeds(forms, tau, x, y, vx, vy, vt)
    want = _reference_node_speeds(forms, tau, x, y, vx, vy, vt)
    for g, w in zip(got, want, strict=True):
        np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


def _mirrored(instance):
    """The instance under a reversing placement, so the x, y and t row signs
    of the differential count."""
    tau = instance.generator.tau
    reversing = AmbientIsometry(instance.placement.mobius, Orientation.REVERSING, 0.3, 0.0, tau)
    return replace(instance, placement=reversing)


@pytest.fixture(scope="module")
def slab1_tau05():
    return build_example1(SpaceParams(0.5), 0.1, grid=65)


@pytest.mark.parametrize(
    "fixture, resolution",
    [
        pytest.param("slab1", RESOLUTION, id="0.0"),
        pytest.param("slab1_tau05", RESOLUTION, id="0.5"),
        pytest.param("slab2", RESOLUTION, id="example2"),
        pytest.param("slab1_tau05", (17, 24), id="0.5-17x24"),
    ],
)
def test_edge_length_spectrum_equals_per_point_route(fixture: str, resolution, request) -> None:
    # The four instances of an audit and a mirrored one, measured together
    # and one at a time, on model meshes whose last spectra chunk is partial.
    slab = request.getfixturevalue(fixture)
    generator = slab.annulus_generator
    instances = [generator(p) for p in sample_interior_points(slab, 4, seed=7)]
    edges, per_chunk = model_segments(generator, resolution)[0].shape[0], SPECTRA_CHUNK_NODES // PANEL_NODES
    assert edges > per_chunk and edges % per_chunk
    instances.append(_mirrored(instances[0]))
    batch = edge_length_spectra(instances, resolution)
    assert len(batch) == len(instances)
    for row, instance in zip(batch, instances):
        reference = _per_edge_spectrum(instance, resolution)
        np.testing.assert_array_equal(edge_length_spectra([instance], resolution)[0], reference)
        np.testing.assert_array_equal(row, reference)


def _longdouble_spectrum(instance, resolution) -> np.ndarray:
    """The push-forward rule for one instance in np.longdouble: the same
    float64 model nodes, edge vectors, Gauss weights and Moebius
    coefficients, with the image, its differential dw = (ad - bc) dz /
    (cz + d)^2 and the metric taken in extended precision (plain complex
    division, no reciprocal)."""
    ld, cld = np.longdouble, np.clongdouble
    tau = ld(instance.generator.tau)
    nodes, weights = unit_panel()
    a, v = (edge.astype(ld) for edge in model_segments(instance.generator, resolution))
    s = nodes.astype(ld)[:, None]
    z = (a[:, 0] + s * v[:, 0]).astype(cld) + cld(1j) * (a[:, 1] + s * v[:, 1])
    dz = v[:, 0].astype(cld) + cld(1j) * v[:, 1]
    m = instance.placement.mobius
    ca, cb, cc, cd = (cld(c) for c in m.matrix())
    q = cc * z + cd
    w, dw = (ca * z + cb) / q, (ca * cd - cb * cc) * dz / (q * q)
    x, y, dx, dy = w.real, w.imag, dw.real, dw.imag
    if instance.placement.orientation is Orientation.REVERSING:
        y, dy = -y, -dy
    dt = v[:, 2] + 4 * tau * (cc * dz / q).imag
    if instance.placement.orientation is Orientation.REVERSING:
        dt = -dt
    lam = 2 / (1 - x * x - y * y)
    vertical = dt + 2 * tau * lam * (y * dx - x * dy)
    speed = np.sqrt(lam * lam * (dx * dx + dy * dy) + vertical * vertical)
    return np.sort(0.5 * (weights.astype(ld)[:, None] * speed).sum(axis=0))


def test_edge_spectra_stay_within_rounding_of_longdouble() -> None:
    # Example 1 on the FINE_RESOLUTION mesh, far out in the disc where
    # float64 fixes 1 - |w|^2 only to about 1e-16: of the 20 points drawn at
    # each seed, the one (index per seed) whose push-forward spectrum strays
    # farthest from longdouble at tau 0 (seed 4's is the worst on record,
    # 1.31e-8); the same draws at tau 0.5, and a mirrored tau-0.5 instance.
    # The push-forward route still shows that rounding; the spectra, read
    # from the placement's Hermitian form and determinant, stray 6.8e-12 at
    # most.
    worst = {4: 0, 100: 10, 101: 15, 102: 2}
    instances = []
    for tau in (0.0, 0.5):
        slab = build_example1(SpaceParams(tau), 0.1)
        instances += [slab.annulus_generator(sample_interior_points(slab, 20, seed=k)[i]) for k, i in worst.items()]
    instances.append(_mirrored(instances[-1]))
    longdouble = [_longdouble_spectrum(instance, FINE_RESOLUTION) for instance in instances]
    spectra = edge_length_spectra(instances[:4], FINE_RESOLUTION) + edge_length_spectra(instances[4:], FINE_RESOLUTION)
    errors = [float(np.max(np.abs(got - ld))) for got, ld in zip(spectra, longdouble)]
    assert max(errors) <= 1e-10, errors
    route = [float(np.max(np.abs(_per_point_spectrum(i, FINE_RESOLUTION) - ld))) for i, ld in zip(instances, longdouble)]
    assert min(route) > 1e-9, route  # far-out instances: rounding shows


def _distortion(scale: float, shift: complex = 0.0, tau: float = 0.0) -> AmbientIsometry:
    """z -> scale z + shift with t kept: the matrix (sqrt(scale),
    shift/sqrt(scale); 0, 1/sqrt(scale)) has determinant 1 but is no
    isometry of the disc unless scale = 1 and shift = 0."""
    k = math.sqrt(scale)
    return AmbientIsometry(MobiusMap.normalized(k, shift / k, 0.0, 1.0 / k, Model.CYLINDER), Orientation.DIRECT, 0.0, 0.0, tau)


@pytest.mark.parametrize(
    "shift",
    [pytest.param(0.0, id="squeeze"), pytest.param(0.04 + 0.03j, id="squeeze-shift")],
)
def test_edge_length_spectrum_moves_under_a_non_isometric_placement(slab1, shift: complex) -> None:
    # z -> 0.9 z + shift; the shift gives D a Re(beta z) term.  Composed
    # into the placement it must move the spectrum, which still follows the
    # push-forward rule.
    instance = slab1.annulus_generator(sample_interior_points(slab1, 1, seed=7)[0])
    moved = replace(instance, placement=compose(instance.placement, _distortion(0.9, shift)))
    spectrum, distorted = edge_length_spectra([instance, moved], RESOLUTION)
    assert float(np.max(np.abs(distorted - spectrum))) > 1e-5
    assert float(np.max(np.abs(distorted - _longdouble_spectrum(moved, RESOLUTION)))) <= 1e-10


def test_hermitian_form_coefficients_are_correctly_rounded() -> None:
    rng = np.random.default_rng(11)
    for _ in range(2000):
        a, b, c, d = (complex(*rng.normal(0.0, 10.0 ** rng.integers(-3, 4), 2)) for _ in range(4))
        got = hermitian_form((1.0, c, d), (-1.0, a, b))
        fa, fb, fc, fd = ((Fraction(z.real), Fraction(z.imag)) for z in (a, b, c, d))
        want = (
            fc[0] ** 2 + fc[1] ** 2 - fa[0] ** 2 - fa[1] ** 2,
            fc[0] * fd[0] + fc[1] * fd[1] - fa[0] * fb[0] - fa[1] * fb[1],
            fc[1] * fd[0] - fc[0] * fd[1] - fa[1] * fb[0] + fa[0] * fb[1],
            fd[0] ** 2 + fd[1] ** 2 - fb[0] ** 2 - fb[1] ** 2,
        )
        assert got == tuple(float(w) for w in want), (a, b, c, d)


def test_batched_spectra_need_one_model_mesh(slab1) -> None:
    instance = slab1.annulus_generator(sample_interior_points(slab1, 1, seed=7)[0])
    gen = instance.generator
    others = [
        replace(gen, tau=0.5),
        replace(gen, d=gen.d * (1.0 + 1e-4)),
        replace(gen, rho_boundary=0.5 * gen.rho_boundary),
    ]
    for other in (replace(instance, generator=g) for g in others):
        with pytest.raises(ParameterError, match="one model mesh"):
            edge_length_spectra([instance, other], RESOLUTION)
    with pytest.raises(ParameterError, match="at least one"):
        edge_length_spectra([], RESOLUTION)


def _drifted_determinant(placement: AmbientIsometry) -> AmbientIsometry:
    """The placement with its matrix scaled by 1 + 1e-6: the same Moebius map,
    a matrix still of the shape (a b; conj(b) conj(a)), since a real scale
    commutes with conjugation, and a form with A = -C, B = 0, but C = (1 +
    1e-6)^2."""
    m = placement.mobius
    s = 1.0 + 1e-6
    return replace(placement, mobius=MobiusMap(m.a * s, m.b * s, m.c * s, m.d * s, m.model))


# Placement mutations, as maps of the placement.  All but det-drift move the
# spectra (the spectra tests above), so the audit must fail them; det-drift
# scales the matrix of the same Moebius map, so the placed annulus does not
# move and the audit must pass it.
_PLACEMENT_MUTATIONS = {
    "tau_f-0.01": lambda placement: replace(placement, tau=0.01),
    "squeeze": lambda placement: compose(placement, _distortion(0.9)),
    "squeeze-shift": lambda placement: compose(placement, _distortion(0.9, 0.04 + 0.03j)),
    "det-drift": _drifted_determinant,
}


def _mutate_placement(monkeypatch, mutation, rows=(0,)) -> None:
    """Make the generator's place pass hand out the given rows' instances
    with their placements mutated, as the audit reads them."""
    place = slabs.CatenoidAnnulusGenerator.place

    def mutated(self, points):
        out = place(self, points)
        for row in rows:
            out[row] = replace(out[row], placement=mutation(out[row].placement))
        return out

    monkeypatch.setattr(slabs.CatenoidAnnulusGenerator, "place", mutated)


def test_audit_measures_no_spectrum(slab1) -> None:
    # the spectra live beside the tests only, as the reference of the certificate
    assert not hasattr(slabs, "edge_length_spectra")
    report = check_annulus_family(slab1, sample_interior_points(slab1, 4, seed=7))
    assert report.passed and report.spectra_ok
    assert report.spectra_deviation == 0.0


@pytest.mark.parametrize("mutation", ["squeeze", "det-drift"])
def test_one_point_audit_is_not_vacuous(slab1, monkeypatch, mutation: str) -> None:
    # One instance is still compared with the model annulus.  det-drift keeps
    # the matrix shape (a b; conj(b) conj(a)): the same Moebius map, which the
    # certificate passes and the reference measures on the model's spectrum.
    points = sample_interior_points(slab1, 1, seed=7)
    assert check_annulus_family(slab1, points).spectra_ok
    _mutate_placement(monkeypatch, _PLACEMENT_MUTATIONS[mutation])
    report = check_annulus_family(slab1, points)
    (instance,) = slab1.annulus_generator.place(points)  # still the mutated place
    model = replace(instance, placement=identity_isometry(slab1.tau, Model.CYLINDER))
    deviation = _all_pairs_deviation([model, instance])
    if mutation == "det-drift":
        assert report.spectra_deviation == 0.0 and report.spectra_ok and report.passed
        assert deviation <= _SPECTRA_FLOAT_ERROR
    else:
        assert report.spectra_deviation == math.inf
        assert not report.spectra_ok
        assert not report.passed
        assert deviation > 1e-5


@pytest.mark.parametrize("mutation", list(_PLACEMENT_MUTATIONS))
@pytest.mark.parametrize("count", [1, 4])
def test_audit_catches_each_placement_mutation(slab1, monkeypatch, mutation: str, count: int) -> None:
    # One instance is mutated, except that a fiber-tau mutation goes to every
    # row: rows applied together must share one tau (apply_to_rows).  Only
    # det-drift, the same Moebius map, passes.
    rows = range(count) if mutation == "tau_f-0.01" else [count - 1]
    _mutate_placement(monkeypatch, _PLACEMENT_MUTATIONS[mutation], rows)
    report = check_annulus_family(slab1, sample_interior_points(slab1, count, seed=7))
    same_map = mutation == "det-drift"
    assert report.spectra_ok is same_map
    assert report.passed is same_map


@pytest.mark.parametrize("coefficient", [0, 1, 2, 3])
def test_nan_form_fails_the_audit(slab1, monkeypatch, coefficient: int) -> None:
    # A NaN entry of one row's matrix fails the shape test's equalities: that
    # row gets the failed record without being audited, so no NaN reaches
    # the arithmetic, the other rows keep their bits and the certificate
    # reads inf.
    points = sample_interior_points(slab1, 3, seed=7)
    want = _audit_one_at_a_time(slab1, points)
    want[1] = _FAILED_ROW

    def with_nan(placement):
        m = placement.mobius
        entries = [complex(math.nan) if i == coefficient else w for i, w in enumerate(m.matrix())]
        return replace(placement, mobius=MobiusMap(*entries, m.model))

    _mutate_placement(monkeypatch, with_nan, rows=[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = check_annulus_family(slab1, points)
    _assert_rows_equal(_check_rows(report.annulus_checks), want)
    assert report.spectra_deviation == math.inf
    assert not report.spectra_ok
    assert not report.passed


def _slab_at(construction: str, tau: float) -> SlabSpec:
    sp = SpaceParams(tau)
    if construction == "example2":
        return build_example2(sp, "linear", 1.0, 0.45, 0.2, grid=65)
    radius = 4.0 if construction == "example1_r4" else 10.0
    return build_example1(sp, 0.1, window_radius=radius, grid=65)


def _all_pairs_deviation(instances) -> float:
    spectra = edge_length_spectra(instances, RESOLUTION)
    return max(float(np.max(np.abs(x - y))) for x in spectra for y in spectra)


# edge_length_spectra's pinned float error (test_edge_spectra_stay_within_rounding_of_longdouble)
_SPECTRA_FLOAT_ERROR = 1e-10


@pytest.mark.parametrize("tau", [0.0, 0.5, -0.7])
@pytest.mark.parametrize("construction", ["example1", "example1_r4", "example2"])
def test_congruence_bound_covers_the_measured_spectra(construction: str, tau: float) -> None:
    slab = _slab_at(construction, tau)
    instances = slab.annulus_generator.place(sample_interior_points(slab, 6, seed=5))
    # The generator keeps a = conj(d), b = conj(c): forms with A = -C and B = 0 exactly.
    for instance in instances:
        tau_f, (a, br, bi, c), p_form = placement_forms(instance.placement, tau)
        assert (tau_f, a, br, bi, p_form) == (tau, -c, 0.0, 0.0, None)
    model = replace(instances[0], placement=identity_isometry(tau, Model.CYLINDER))
    family = [model, *instances, _mirrored(instances[-1])]
    # the model's own placement and a mirror have the certified shape too
    assert all(slabs._congruent(instance.placement, tau) for instance in family)
    assert _all_pairs_deviation(family) <= _SPECTRA_FLOAT_ERROR
    # the model annulus counts: one instance alone is still measured against it
    assert _all_pairs_deviation(family[:2]) <= _SPECTRA_FLOAT_ERROR


@pytest.mark.parametrize("tau", [0.0, 0.5, -0.7, 2.0])
@pytest.mark.parametrize(("scale", "shift"), [(1.0 - 1e-6, 0.0), (1.0 - 1e-6, 1e-6 + 2e-6j), (1.0, 1e-5), (1.0 - 1e-4, 0.0)])
def test_congruence_bound_covers_small_form_defects(monkeypatch, tau: float, scale: float, shift: complex) -> None:
    # Placements composed with z -> scale z + shift have A != -C or B != 0,
    # however small the defect: no disc isometry's form and no matrix of the
    # certified shape, mirrored or not, while the other placement keeps it;
    # the audit of such a placement fails.
    slab = _slab_at("example1", tau)
    points = sample_interior_points(slab, 2, seed=7)
    first, second = slab.annulus_generator.place(points)
    distortion = _distortion(scale, shift, tau)
    moved = replace(first, placement=compose(first.placement, distortion))
    _, (a, br, bi, c), _ = placement_forms(moved.placement, tau)
    assert c > 0.0 and (a, br, bi) != (-c, 0.0, 0.0)
    assert slabs._congruent(second.placement, tau)
    assert not any(slabs._congruent(instance.placement, tau) for instance in (moved, _mirrored(moved)))
    _mutate_placement(monkeypatch, lambda placement: compose(placement, distortion))
    report = check_annulus_family(slab, points)
    assert report.spectra_deviation == math.inf
    assert not report.spectra_ok
    assert not report.passed


@settings(max_examples=40, deadline=None)
@given(
    tau=st.floats(-3.0, 3.0),
    example=st.sampled_from(["example1", "example2"]),
    eps=st.floats(0.01, 0.99),
    alpha=st.floats(-0.25, 0.25),
    beta=st.floats(-0.25, 0.25),
    count=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_placements_have_disc_isometry_forms(
    tau: float, example: str, eps: float, alpha: float, beta: float, count: int, seed: int
) -> None:
    # The audit certifies only matrices (a b; conj(b) conj(a)) with |b| < |a|,
    # whose forms have A = -C, B = 0 and C > 0, so every placement the
    # generator hands out must have that shape and form exactly, at any tau;
    # eps is the fraction of example 1's largest epsilon.
    sp = SpaceParams(tau)
    small = dict(grid=9)
    if example == "example1":
        eps_max = math.pi * math.sqrt(1.0 + 4.0 * tau * tau) - 2.0 * abs(tau) * math.pi
        slab = build_example1(sp, eps * eps_max, **small)
    else:
        slab = build_example2(sp, "linear", 1.0, 0.45, 0.2, alpha, beta, **small)
    placed = slab.annulus_generator.place(sample_interior_points(slab, count, seed=seed))
    assert not any(isinstance(instance, InvalidPointError) for instance in placed)
    for instance in placed:
        m = instance.placement.mobius
        assert (m.c, m.d) == (m.b.conjugate(), m.a.conjugate())
        assert slabs._congruent(instance.placement, tau)
        tau_f, (a, br, bi, c), p_form = placement_forms(instance.placement, tau)
        assert (tau_f, p_form) == (tau, None)
        assert c > 0.0 and (a, br, bi) == (-c, 0.0, 0.0)


def test_boundary_coords_apply_the_placement_to_the_model_circles(slab1) -> None:
    instance = slab1.annulus_generator(sample_interior_points(slab1, 1, seed=7)[0])
    gen = instance.generator
    spec = CatenoidSpec(tau=gen.tau, d=gen.d)
    phi = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    for placed in (instance, _mirrored(instance)):
        circles = [
            apply_to_coords(placed.placement, catenoid_patch(spec, gen.rho_boundary, np.array(w), phi))
            for w in (1.0, -1.0)
        ]
        circles.sort(key=lambda c: float(np.mean(c[:, 2])), reverse=True)
        top, bottom = placed.boundary_coords()
        np.testing.assert_array_equal(top, circles[0])
        np.testing.assert_array_equal(bottom, circles[1])
    model = _model_annulus(gen)
    for circle in (model.upper, model.lower):
        assert circle.shape == (512, 3)
        assert not circle.flags.writeable
        with pytest.raises(ValueError):
            circle[0, 0] = 0.0


@pytest.mark.parametrize(
    ("rows", "cols", "count"),
    [(65, 96, 18528), (5, 8, 104), (6, 8, 152), (8, 10, 250), (9, 8, 200), (10, 8, 248), (17, 16, 784)],
)
def test_model_annulus_edges_are_the_sorted_unique_pairs(slab1, rows: int, cols: int, count: int) -> None:
    # The closed-form edges against the mesh's triangles: np.unique of their
    # edge pairs, and the sort-and-deduplicate builder they replace.
    gen = slab1.annulus_generator
    mesh = mesh_catenoid(CatenoidSpec(tau=gen.tau, d=gen.d), gen.rho_boundary, (rows, cols))
    tri = mesh.triangles
    edges = np.unique(np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]), axis=1), axis=0)
    model_a, model_v = model_segments(gen, (rows, cols))
    a, b = mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]]
    np.testing.assert_array_equal(model_a, a)
    np.testing.assert_array_equal(model_v, b - a)
    for got, want in zip((model_a, model_v), mesh_edges(mesh), strict=True):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    # the model annulus keeps only its boundary circles: no grid, no edges
    assert {f.name for f in fields(_model_annulus(gen))} == {"spec", "boundary_height", "upper", "lower"}
    # The mesh makes the row count odd; a wrapped grid has R C ring edges,
    # (R - 1) C meridian edges and (R - 1) C diagonals.
    built_rows = len(mesh.vertices) // cols
    assert built_rows == rows + 1 - rows % 2
    assert len(model_a) == (3 * built_rows - 2) * cols == count


@pytest.mark.parametrize("resolution", [(65, 96), (9, 8), (10, 8), (17, 16)])
def test_model_annulus_vertices_are_the_mesh_vertices(slab1_tau05, resolution) -> None:
    # One vertex grid behind both, here at tau 0.5: mesh_catenoid's vertices,
    # and the model annulus' edges read from them, bit for bit.
    gen = slab1_tau05.annulus_generator
    spec = CatenoidSpec(tau=gen.tau, d=gen.d)
    mesh = mesh_catenoid(spec, gen.rho_boundary, resolution)
    vertices, shape = _catenoid_grid(spec, gen.rho_boundary, resolution)
    assert shape == mesh.grid_shape
    np.testing.assert_array_equal(vertices.view(np.int64), mesh.vertices.view(np.int64))
    for got, want in zip(model_segments(gen, resolution), mesh_edges(mesh), strict=True):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_a_generator_builds_its_model_annulus_once(slab1) -> None:
    slabs._model_annulus.cache_clear()
    points = sample_interior_points(slab1, 3, seed=7)
    assert check_annulus_family(slab1, points).passed
    assert _model_annulus.cache_info().misses == 1
    # equal generators are one key
    gen = slab1.annulus_generator
    record = _model_annulus(gen)
    assert _model_annulus(replace(gen)) is record
    shrunken = with_shrunken_annuli(slab1, 0.5)
    assert not check_annulus_family(shrunken, points).passed
    own = _model_annulus(shrunken.annulus_generator)
    assert _model_annulus.cache_info().misses == 2
    assert own is not record
    assert own.boundary_height < record.boundary_height


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


def _graph_nu_check(slab: SlabSpec) -> BoundingGraphCheck:
    """check_bounding_graphs' node reading: one GraphFunction and one graph_nu per graph."""
    lower, upper = (GraphFunction.from_base_callable(slab.domain, slab.tau, f) for f in (slab.lower, slab.upper))
    active = slab.domain.active_mask()
    h0 = float(max(np.max(np.abs(lower.values[active])), np.max(np.abs(upper.values[active]))))
    c = float(min(np.min(graph_nu(lower)[active]), np.min(graph_nu(upper)[active])))
    gap = float(np.min((upper.values - lower.values)[active]))
    return BoundingGraphCheck(height_bound=h0, normal_bound=c, disjoint=gap > 0.0, min_gap=gap, exact=False)


def _closed_form_check(slab: SlabSpec) -> BoundingGraphCheck:
    """The extremes of two plane heights over the disc |z| <= rc of a
    disc_window_domain, written out: sup |u| = |s| + rc m, the least gap
    (s_u - s_l) - rc |(dalpha, dbeta)|, and the least nu where the tilt
    (1 - r^2) m/2 + 2 |tau| r peaks, at r* = |tau|/(m/2) clipped to [0, rc]."""
    rc, lower, upper = slab.domain.bounds[0][1], slab.lower, slab.upper

    def least_nu(f) -> float:
        m = math.hypot(f.alpha, f.beta)
        r = rc if m == 0.0 else min(abs(slab.tau) / (0.5 * m), rc)
        tilt = (1.0 - r * r) * 0.5 * m + 2.0 * abs(slab.tau) * r
        return 1.0 / math.sqrt(1.0 + tilt * tilt)

    h0 = max(abs(f.shift) + rc * math.hypot(f.alpha, f.beta) for f in (lower, upper))
    gap = (upper.shift - lower.shift) - rc * math.hypot(upper.alpha - lower.alpha, upper.beta - lower.beta)
    c = min(least_nu(lower), least_nu(upper))
    return BoundingGraphCheck(height_bound=h0, normal_bound=c, disjoint=gap > 0.0, min_gap=gap, exact=True)


def _level_slab(slab: SlabSpec) -> SlabSpec:
    """The slab's level plane heights as _level lambdas: the same graphs, read at the nodes."""
    return replace(slab, lower=_level(slab.lower.shift), upper=_level(slab.upper.shift))


def test_audit_and_its_shrunken_control_evaluate_the_graphs_once(slab1, monkeypatch) -> None:
    normals = []

    def counted(graph):
        normals.append(graph)
        return graph_nu(graph)

    monkeypatch.setattr(slabs, "graph_nu", counted)
    points = sample_interior_points(slab1, 3, seed=7)
    # plane heights: the closed forms read no node, so no graph_nu call
    slab = replace(slab1)  # a slab that has not computed its check
    assert check_annulus_family(slab, points).passed
    control = with_shrunken_annuli(slab, 0.5)
    assert not check_annulus_family(control, points).passed
    assert normals == []
    assert check_bounding_graphs(control) is check_bounding_graphs(slab) == _closed_form_check(slab1)
    # other heights: one node reading, one graph_nu per graph, kept by the control
    level = _level_slab(slab1)
    assert check_annulus_family(level, points).passed
    control = with_shrunken_annuli(level, 0.5)
    assert not check_annulus_family(control, points).passed
    assert len(normals) == 2
    assert check_bounding_graphs(control) is check_bounding_graphs(level) == _graph_nu_check(level)


def test_changed_graphs_window_or_tau_get_a_fresh_bounding_check(slab1, slab2) -> None:
    kept = check_bounding_graphs(slab1)
    assert check_bounding_graphs(slab1) is kept
    overlapping = with_overlapping_graphs(slab1)
    raised = replace(slab1, upper=_level(2.0))
    assert not check_bounding_graphs(overlapping).disjoint
    assert check_bounding_graphs(raised).height_bound == 2.0
    # example 2's tilted graphs reach other heights on a smaller window
    changes = [(slab1, overlapping), (slab1, raised), (slab1, replace(slab1, tau=0.5))]
    changes.append((slab2, replace(slab2, domain=disc_window_domain(4.0, 33))))
    for slab, changed in changes:
        planes = isinstance(changed.upper, slabs._PlaneHeight)
        want = _closed_form_check(changed) if planes else _graph_nu_check(changed)
        assert check_bounding_graphs(changed) == want != check_bounding_graphs(slab)
    # the controls' reports read their own checks
    report = check_annulus_family(overlapping, sample_interior_points(slab1, 2, seed=7))
    assert not report.disjoint and report.height_bound == kept.height_bound


# Generator of the hand-built slabs below: the bounding check never reads it.
_IDLE_GENERATOR = slabs.CatenoidAnnulusGenerator(tau=0.0, d=1.0, rho_boundary=1.0)
_SLOPES = st.floats(-2.0, 2.0)


@settings(max_examples=60, deadline=None)
@given(
    lower=st.tuples(_SLOPES, _SLOPES, st.floats(-2.0, 2.0)),
    upper=st.tuples(_SLOPES, _SLOPES, st.floats(-2.0, 2.0)),
    tau=st.sampled_from([0.0, 0.3, -0.3, 0.5, -0.7, 2.0]),
    radius=st.sampled_from([1e-6, 1.0, 4.0, 10.0, 18.0]),
    grid=st.sampled_from([9, 33, 128, 129]),
)
def test_plane_check_bounds_the_node_reading(lower, upper, tau: float, radius: float, grid: int) -> None:
    domain = disc_window_domain(radius, grid)
    slab = SlabSpec(domain, tau, slabs._PlaneHeight(*lower), slabs._PlaneHeight(*upper), _IDLE_GENERATOR, {})
    exact, nodes = check_bounding_graphs(slab), _graph_nu_check(slab)
    assert exact.exact and not nodes.exact
    # rounding slack: a few ulps of the heights, and for nu the rounding of
    # the node heights that np.gradient divides by the node step h
    eps = np.finfo(float).eps
    slack = 8.0 * eps * (1.0 + nodes.height_bound)
    assert exact.height_bound >= nodes.height_bound - slack
    assert exact.min_gap <= nodes.min_gap + slack
    assert exact.normal_bound <= nodes.normal_bound + slack / domain.steps()[0]


def test_plane_check_finds_an_interior_maximiser_of_the_tilt() -> None:
    # alpha 0.4 at tau 0.05: the tilt peaks at r* = 0.05/0.2 = 0.25, inside rc = tanh(1/2) ~ 0.46
    alpha, tau = 0.4, 0.05
    domain = disc_window_domain(1.0, 33)
    lower, upper = slabs._PlaneHeight(alpha, 0.0), slabs._PlaneHeight(alpha, 0.0, 1.0)
    slab = SlabSpec(domain, tau, lower, upper, _IDLE_GENERATOR, {})
    check = check_bounding_graphs(slab)
    assert check.exact
    # graph_nu's pointwise kernel at a dense polar sample, with the plane's exact gradient
    rc = domain.bounds[0][1]
    r, phi = np.meshgrid(np.linspace(0.0, rc, 2001), np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False))
    x, y = r * np.cos(phi), r * np.sin(phi)
    g1, g2, w1, w2 = chart_coefficients(Chart.DISC_XY, 1.0, tau, x, y)
    _, _, tilt_w = _tilt(np.sqrt(g1), np.sqrt(g2), w1, w2, alpha, 0.0)
    nu = 1.0 / tilt_w
    assert check.normal_bound <= float(np.min(nu)) <= check.normal_bound + 1e-9
    i = np.unravel_index(np.argmin(nu), nu.shape)
    assert abs(r[i] - 0.25) < 2.0 * rc / 2000
    # the node reading misses it: no node of the 33 x 33 grid lies on the circle r = 0.25
    assert _graph_nu_check(slab).normal_bound > check.normal_bound + 1e-9


@pytest.mark.parametrize(
    ("example", "tau"), [("example1", 0.0), ("example1", 0.5), ("example2", 0.0), ("example2", 0.3)]
)
def test_default_slabs_closed_forms_are_their_node_readings(example: str, tau: float) -> None:
    sp = SpaceParams(tau)
    slab = build_example1(sp, 0.1) if example == "example1" else build_example2(sp, "linear", 1.0, 0.45, 0.2)
    exact, nodes = check_bounding_graphs(slab), _graph_nu_check(slab)
    assert exact.exact and exact.disjoint == nodes.disjoint
    for name in ("height_bound", "normal_bound", "min_gap"):
        want = getattr(nodes, name)
        assert abs(getattr(exact, name) - want) <= 2.0 * math.ulp(want), name
    if example == "example2":
        # example 2's metadata: the window variation bit for bit, the node gradient maximum up to rounding
        base = GraphFunction.from_base_callable(slab.domain, tau, slabs._PlaneHeight(0.4, 0.0))
        node_gradient = float(np.max(hyperbolic_gradient_norm(base)[slab.domain.active_mask()]))
        assert slab.metadata["variation"] == variation(base)
        assert slab.metadata["sup_gradient"] == 0.2 == pytest.approx(node_gradient, abs=1e-15)


def test_level_slabs_keep_the_node_reading(slab1) -> None:
    level = _level_slab(slab1)
    check = check_bounding_graphs(level)
    assert not check.exact
    assert check == _graph_nu_check(level)
    # one level graph, one plane: the node reading too
    mixed = replace(slab1, upper=_level(slab1.upper.shift))
    assert check_bounding_graphs(mixed) == _graph_nu_check(mixed)


def test_point_outside_slab_is_rejected(slab1) -> None:
    top = AmbientPoint(
        BasePoint(Model.CYLINDER, 0.0, 0.0), slab1.metadata["half_height"] + 1.0
    )
    with pytest.raises(InvalidPointError):
        check_annulus_family(slab1, [top])


def test_audit_names_the_first_point_off_the_slab(slab1) -> None:
    # the checks run as one array pass, but the error is the first failing
    # point's, window before graphs, as a point-by-point loop raises it
    inner = sample_interior_points(slab1, 2, seed=7)
    rc = slab1.domain.bounds[0][1]
    outside = AmbientPoint(BasePoint(Model.CYLINDER, 0.0, 0.5 * (1.0 + rc)), 0.0)
    above = AmbientPoint(inner[0].base, slab1.metadata["half_height"] + 1.0)
    with pytest.raises(InvalidPointError, match="outside the window"):
        check_annulus_family(slab1, [inner[1], outside, above])
    with pytest.raises(InvalidPointError, match="not strictly between"):
        check_annulus_family(slab1, [inner[1], above, outside])


# A point's values when it gets no annulus: (distance, margins, spreads) and verdicts.
_FAILED_ROW = ((math.inf, -math.inf, -math.inf, math.nan, math.nan), (False, False, False))


def _placed_alone(slab: SlabSpec, p):
    try:
        return slab.annulus_generator(p)
    except InvalidPointError as error:
        return error


def _audit_one_at_a_time(slab: SlabSpec, points, placed=None) -> list[tuple]:
    """Each point's (distance, margins, spreads) and verdicts as the audit
    found them point by point, through the one-point entry points, for the
    given placed instances or, by default, each point placed alone."""
    tol = slabs._CONTAINS_TOL * max(1.0, 2.0 * check_bounding_graphs(slab).height_bound)
    rows = []
    for p, instance in zip(points, [_placed_alone(slab, p) for p in points] if placed is None else placed):
        if isinstance(instance, InvalidPointError):
            rows.append(_FAILED_ROW)
            continue
        distance = instance.distance_to(p, accept_below=tol)
        top, bottom = instance.boundary_coords()
        above = float(np.min(+1 * (top[:, 2] - slab.upper(top[:, 0], top[:, 1]))))
        below = float(np.min(-1 * (bottom[:, 2] - slab.lower(bottom[:, 0], bottom[:, 1]))))
        values = (distance, above, below, float(np.ptp(top[:, 2])), float(np.ptp(bottom[:, 2])))
        rows.append((values, (distance < tol, above > 0.0, below > 0.0)))
    return rows


def test_an_image_off_the_disc_fails_only_its_own_row(slab1, monkeypatch) -> None:
    # one point's pinned reference vertex is rejected as a point at the ideal
    # boundary would be: the pass stops, and placing each point alone fails
    # only that row, as the point-by-point audit did
    points = sample_interior_points(slab1, 4, seed=3)
    alone = [slab1.annulus_generator(p) for p in points]
    in_model = slabs.require_in_model

    def rejecting(model, coords):
        if np.any(coords[..., 2] == points[2].t):
            raise InvalidPointError("disc point off the model domain")
        return in_model(model, coords)

    monkeypatch.setattr(slabs, "require_in_model", rejecting)
    placed = slab1.annulus_generator.place(points)
    assert isinstance(placed[2], InvalidPointError)
    assert [(i.placement, i.w_reference) for i in placed[:2] + placed[3:]] == [
        (i.placement, i.w_reference) for i in alone[:2] + alone[3:]
    ]
    checks = check_annulus_family(slab1, points).annulus_checks
    assert [c.distance == math.inf for c in checks] == [False, False, True, False]


def _check_rows(checks) -> list[tuple]:
    """The audit's checks in _audit_one_at_a_time's row layout."""
    return [
        (
            (c.distance, c.above_margin, c.below_margin, c.above_spread, c.below_spread),
            (c.contains_point, c.boundary_above, c.boundary_below),
        )
        for c in checks
    ]


def _assert_rows_equal(got: list[tuple], want: list[tuple]) -> None:
    """Equal verdicts, and values equal bit for bit."""
    bits = [np.array([row[0] for row in rows]).view(np.int64) for rows in (got, want)]
    np.testing.assert_array_equal(*bits)
    assert [g[1] for g in got] == [w[1] for w in want]


def test_placements_of_mixed_fiber_taus_end_in_a_failed_report(slab1, monkeypatch) -> None:
    # Every row its own fiber tau, so no two placements apply together: no
    # placement is an isometry of the slab's space, and every row fails.
    points = sample_interior_points(slab1, 4, seed=7)
    place = slabs.CatenoidAnnulusGenerator.place

    def mixed(self, points):
        out = place(self, points)
        return [replace(row, placement=replace(row.placement, tau=0.01 * (i + 1))) for i, row in enumerate(out)]

    monkeypatch.setattr(slabs.CatenoidAnnulusGenerator, "place", mixed)
    report = check_annulus_family(slab1, points)
    _assert_rows_equal(_check_rows(report.annulus_checks), [_FAILED_ROW] * len(points))
    assert report.spectra_deviation == math.inf
    assert not report.spectra_ok
    assert not report.passed


def _reversing(placement: AmbientIsometry) -> AmbientIsometry:
    return AmbientIsometry(placement.mobius, Orientation.REVERSING, 0.3, 0.0, placement.tau)


@pytest.mark.parametrize("mutation", ["tau_f-0.01", "squeeze", "reversing"])
def test_one_mixed_placement_fails_only_as_its_own_row(slab1, monkeypatch, mutation: str) -> None:
    # One row of four gets another fiber tau, a squeezed matrix or another
    # orientation.  A fiber-tau or squeezed row fails the certified shape
    # and gets the failed record; a reversing placement keeps the shape and
    # is audited in its own pass.  Every other row keeps the bits of its
    # point alone.
    points = sample_interior_points(slab1, 4, seed=7)
    want = _audit_one_at_a_time(slab1, points)
    mutate = _reversing if mutation == "reversing" else _PLACEMENT_MUTATIONS[mutation]
    _mutate_placement(monkeypatch, mutate, rows=[2])
    report = check_annulus_family(slab1, points)
    if mutation == "reversing":
        want[2] = _audit_one_at_a_time(slab1, points, slab1.annulus_generator.place(points))[2]
        assert report.spectra_ok and math.isfinite(report.spectra_deviation)
    else:
        want[2] = _FAILED_ROW
        assert report.spectra_deviation == math.inf and not report.spectra_ok
    _assert_rows_equal(_check_rows(report.annulus_checks), want)
    assert not report.passed


@pytest.fixture(scope="module")
def slab2_tau05():
    return build_example2(SpaceParams(0.5), "linear", 1.0, 0.45, 0.2, grid=65)


@pytest.mark.parametrize("fixture", ["slab1", "slab1_tau05", "slab2", "slab2_tau05", "shrunken"])
def test_batched_audit_keeps_the_bits_of_one_point_at_a_time(fixture: str, slab1, request) -> None:
    slab = with_shrunken_annuli(slab1, 0.5) if fixture == "shrunken" else request.getfixturevalue(fixture)
    points = sample_interior_points(slab, 8, seed=3)
    checks = check_annulus_family(slab, points).annulus_checks
    assert [c.point for c in checks] == points
    _assert_rows_equal(_check_rows(checks), _audit_one_at_a_time(slab, points))
    placed = slab.annulus_generator.place(points)
    failed = [i for i, instance in enumerate(placed) if isinstance(instance, InvalidPointError)]
    if fixture == "shrunken":
        # some offsets reach the shrunken half-height: those rows fail, the others are placed
        assert 0 < len(failed) < len(points)
        for i in failed:
            assert checks[i].distance == math.inf and math.isnan(checks[i].above_spread)
            with pytest.raises(InvalidPointError, match="exceeds the annulus half-height"):
                slab.annulus_generator(points[i])
    else:
        assert not failed
    for i, instance in enumerate(placed):
        if i not in failed:
            alone = slab.annulus_generator(points[i])
            assert (instance.placement, instance.w_reference) == (alone.placement, alone.w_reference)


def test_shrink_factor_validation(slab1) -> None:
    with pytest.raises(ParameterError):
        with_shrunken_annuli(slab1, 1.5)


# -- example 2 ---------------------------------------------------------------------


# CHANGES.md's FOUND line on `build_example1` at tau != 0: every placement
# composes a disc involution off the point's fiber, whose fiber term tilts the
# boundary circles at nonzero tau, so both audits fail their fiber margins.
_TILTED_CIRCLES = "the annulus placement tilts the boundary circles at tau != 0"


def test_boundary_circles_tilt_only_at_nonzero_tau(slab1, slab1_tau05) -> None:
    # At tau 0 every placed circle is horizontal; at tau 0.5 the placements
    # are still isometries (congruent spectra, points contained), but the
    # circles spread across the fibers, which is why the audit fails there.
    flat = check_annulus_family(slab1, sample_interior_points(slab1, 3, seed=7))
    assert all(c.above_spread == c.below_spread == 0.0 for c in flat.annulus_checks)
    report = check_annulus_family(slab1_tau05, sample_interior_points(slab1_tau05, 3, seed=7))
    assert report.spectra_ok and not report.passed
    for c in report.annulus_checks:
        assert c.contains_point and c.above_spread > 0.0 and c.below_spread > 0.0


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=_TILTED_CIRCLES)
def test_example1_audit_passes_at_nonzero_tau(slab1_tau05) -> None:
    report = check_annulus_family(slab1_tau05, sample_interior_points(slab1_tau05, 3, seed=7))
    assert report.passed


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=_TILTED_CIRCLES)
def test_example2_audit_passes_at_nonzero_tau() -> None:
    slab = build_example2(SpaceParams(0.3), "linear", 1.0, 0.45, 0.2, grid=65)
    report = check_annulus_family(slab, sample_interior_points(slab, 3, seed=4))
    assert report.passed


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
    x, y = slab2.domain.base_grids()
    gap = slab2.upper(x, y) - slab2.lower(x, y)
    assert np.allclose(gap, 2.0 * md["h_prime"])


def test_example2_audit_passes(slab2) -> None:
    points = sample_interior_points(slab2, 3, seed=3)
    report = check_annulus_family(slab2, points)
    assert report.passed
    assert max(abs(c.distance) for c in report.annulus_checks) < 1e-9
    assert min(min(c.above_margin, c.below_margin) for c in report.annulus_checks) > 0.3


@pytest.mark.parametrize(
    ("alpha", "beta", "match"),
    [(math.nan, 0.0, "alpha must be finite"), (0.4, math.inf, "beta must be finite")],
)
def test_example2_rejects_non_finite_plane_coefficients(alpha: float, beta: float, match: str) -> None:
    # rejected by the plane before any grid is evaluated, not later as a
    # "half-height target nan" FeasibilityError or a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=match):
            build_example2(FLAT, "linear", 1.0, 0.45, 0.2, alpha=alpha, beta=beta, grid=9)


@pytest.mark.parametrize(("alpha", "beta"), [(1e300, 0.0), (0.4, -1e160), (1e154, 1e154)])
def test_example2_rejects_plane_slopes_past_the_float_range(alpha: float, beta: float) -> None:
    # the window's gradient norms square the slopes; rejected before any grid is evaluated
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="leaves the float range: its slopes overflow when squared"):
            build_example2(FLAT, "linear", 1.0, 0.45, 0.2, alpha=alpha, beta=beta, grid=3)


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
        build_example2(FLAT, "linear", 1.0, 0.45, 0.2, alpha=5.0, grid=65)


def test_example2_rejects_unknown_graph_choice() -> None:
    for choice in ("cubic", "si"):
        with pytest.raises(ParameterError, match="must be 'linear'"):
            build_example2(FLAT, choice, 1.0, 0.45, 0.2)


# -- sampling ----------------------------------------------------------------------


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
    # The upper graph lies below the lower one everywhere, so no draw
    # lands strictly between them.
    dom = disc_window_domain(0.5, 9)
    slab = SlabSpec(
        domain=dom, tau=0.0, lower=_level(1.0), upper=_level(-1.0), annulus_generator=None, metadata={}
    )
    with pytest.raises(ConvergenceError):
        sample_interior_points(slab, 3)


def _hand_built_slab(slab1, upper=_level(1.2)) -> SlabSpec:
    return SlabSpec(
        domain=disc_window_domain(4.0, 33),
        tau=0.0,
        lower=_level(-1.2),
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
    def dipping(x, y):
        # -1.2 at the origin, the window's centre node, where the graphs touch
        return 1.2 - 2.4 * np.exp(-1e4 * (x * x + y * y))

    with pytest.raises(ParameterError):
        with_shrunken_annuli(_hand_built_slab(slab1, dipping))


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
        "above_spread",
        "below_spread",
    }
