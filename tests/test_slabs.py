"""Tests for slab constructions, their audits, and the negative controls."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

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
from etau.graphs import Chart, GraphDomain, GraphFunction, graph_nu
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

from spectra_reference import SPECTRA_CHUNK_NODES, edge_length_spectra, mesh_edges, node_speeds, unit_panel

FLAT = SpaceParams(0.0)


@pytest.fixture(scope="module")
def slab1():
    return build_example1(FLAT, 0.1, grid=65, annulus_resolution=(33, 48))


@pytest.fixture(scope="module")
def slab2():
    return build_example2(FLAT, "linear", 1.0, 0.45, 0.2, grid=65, annulus_resolution=(33, 48))


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
    slab = build_example1(FLAT, 0.1, window_radius=radius, grid=65, annulus_resolution=(33, 48))
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
    """Reference edge spectrum: separate coarse and fine mapped passes, with
    lengths from full metric tensors contracted by einsum."""
    tau = instance.generator.tau
    model = _model_annulus(instance.generator)
    a, b = model.a, model.a + model.v

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
    assert instance.generator.resolution == (33, 48)
    np.testing.assert_allclose(
        edge_length_spectra([instance])[0], _two_pass_spectrum(instance, 0.004), rtol=1e-10, atol=0.0
    )


def test_edge_length_spectrum_separates_non_congruent_annuli(slab1) -> None:
    first, second = (slab1.annulus_generator(p) for p in sample_interior_points(slab1, 2, seed=7))
    spectrum = edge_length_spectra([first])[0]

    def deviation(instance) -> float:
        return float(np.max(np.abs(edge_length_spectra([instance])[0] - spectrum)))

    assert deviation(second) < 1e-8
    # A slightly different catenoid, and a placement whose fiber rule belongs
    # to another tau (so it is not an isometry of the tau = 0 metric).
    gen = first.generator
    assert deviation(replace(first, generator=replace(gen, d=gen.d * (1.0 + 1e-4)))) > 1e-5
    assert deviation(replace(first, placement=replace(first.placement, tau=0.01))) > 1e-5


def _per_point_spectrum(instance) -> np.ndarray:
    """Edge spectrum by the push-forward route: each chunk takes its edges'
    segments, and every quadrature node goes through push_forward as one
    (n, 3) row with a broadcast copy of its edge vector; the metric is then
    taken at the image, where float64 fixes 1 - |w|^2 only to about 1e-16."""
    tau = instance.generator.tau
    model = _model_annulus(instance.generator)
    out = np.empty(model.a.shape[0])
    per_chunk = CHUNK_NODES // PANEL_NODES
    for start in range(0, model.a.shape[0], per_chunk):
        a = model.a[start : start + per_chunk, None, None, :]
        v = model.v[start : start + per_chunk, None, None, :]

        def speed(s: np.ndarray) -> np.ndarray:
            p = a + s[..., None] * v
            dirs = np.broadcast_to(v, p.shape)
            image, dv = push_forward(instance.placement, p.reshape(-1, 3), dirs.reshape(-1, 3))
            sq = metric_quadratic_form(Model.CYLINDER, tau, image[:, 0], image[:, 1], *dv.T)
            return np.sqrt(sq).reshape(s.shape)

        out[start : start + per_chunk] = composite_gauss(speed, np.zeros(len(a)), np.ones(len(a)), 1)
    return np.sort(out)


def _per_edge_spectrum(instance) -> np.ndarray:
    """Reference edge spectrum: each edge's nodes are one row of
    composite_gauss's (edges, 1, PANEL_NODES) layout, with the edge's vector
    as one-edge (edges, 1, 1) arrays, measured by the spectra's own per-node
    integrand node_speeds."""
    tau = instance.generator.tau
    model = _model_annulus(instance.generator)
    a, v = model.a[:, None, None, :], model.v[:, None, None, :]
    forms = [slabs._placement_forms(instance.placement, tau)]

    def speed(s: np.ndarray) -> np.ndarray:
        x, y = a[..., 0] + s * v[..., 0], a[..., 1] + s * v[..., 1]
        return node_speeds(forms, tau, x, y, v[..., 0], v[..., 1], v[..., 2])[0]

    edges = len(model.a)
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
    return build_example1(SpaceParams(0.5), 0.1, grid=65, annulus_resolution=(33, 48))


@pytest.mark.parametrize(
    "fixture, resolution",
    [
        pytest.param("slab1", None, id="0.0"),
        pytest.param("slab1_tau05", None, id="0.5"),
        pytest.param("slab2", None, id="example2"),
        pytest.param("slab1_tau05", (17, 24), id="0.5-17x24"),
    ],
)
def test_edge_length_spectrum_equals_per_point_route(fixture: str, resolution, request) -> None:
    # The four instances of an audit and a mirrored one, measured together
    # and one at a time, on model meshes whose last spectra chunk is partial.
    slab = request.getfixturevalue(fixture)
    generator = slab.annulus_generator if resolution is None else replace(slab.annulus_generator, resolution=resolution)
    instances = [generator(p) for p in sample_interior_points(slab, 4, seed=7)]
    edges, per_chunk = _model_annulus(generator).a.shape[0], SPECTRA_CHUNK_NODES // PANEL_NODES
    assert edges > per_chunk and edges % per_chunk
    instances.append(_mirrored(instances[0]))
    batch = edge_length_spectra(instances)
    assert len(batch) == len(instances)
    for row, instance in zip(batch, instances):
        reference = _per_edge_spectrum(instance)
        np.testing.assert_array_equal(edge_length_spectra([instance])[0], reference)
        np.testing.assert_array_equal(row, reference)


def _longdouble_spectrum(instance) -> np.ndarray:
    """The push-forward rule for one instance in np.longdouble: the same
    float64 model nodes, edge vectors, Gauss weights and Moebius
    coefficients, with the image, its differential and the metric taken in
    extended precision (plain complex division, no reciprocal)."""
    ld, cld = np.longdouble, np.clongdouble
    model = _model_annulus(instance.generator)
    tau = ld(instance.generator.tau)
    nodes, weights = unit_panel()
    a, v = model.a.astype(ld), model.v.astype(ld)
    s = nodes.astype(ld)[:, None]
    z = (a[:, 0] + s * v[:, 0]).astype(cld) + cld(1j) * (a[:, 1] + s * v[:, 1])
    dz = v[:, 0].astype(cld) + cld(1j) * v[:, 1]
    m = instance.placement.mobius
    ca, cb, cc, cd = (cld(c) for c in m.matrix())
    q = cc * z + cd
    w, dw = (ca * z + cb) / q, dz / (q * q)
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
    # Example 1 at the CLI's annulus resolution, far out in the disc where
    # float64 fixes 1 - |w|^2 only to about 1e-16: of the 20 points drawn at
    # each seed, the one (index per seed) whose push-forward spectrum strays
    # farthest from longdouble at tau 0 (seed 4's is the worst on record,
    # 1.31e-8); the same draws at tau 0.5, and a mirrored tau-0.5 instance.
    # The push-forward route still shows that rounding; the spectra, read
    # from the placement's Hermitian form, stray 2.2e-11 at most.
    worst = {4: 0, 100: 10, 101: 15, 102: 2}
    instances = []
    for tau in (0.0, 0.5):
        slab = build_example1(SpaceParams(tau), 0.1)
        instances += [slab.annulus_generator(sample_interior_points(slab, 20, seed=k)[i]) for k, i in worst.items()]
    instances.append(_mirrored(instances[-1]))
    longdouble = [_longdouble_spectrum(instance) for instance in instances]
    errors = [float(np.max(np.abs(got - ld))) for got, ld in zip(edge_length_spectra(instances[:4]), longdouble)]
    errors += [float(np.max(np.abs(got - ld))) for got, ld in zip(edge_length_spectra(instances[4:]), longdouble[4:])]
    assert max(errors) <= 1e-10, errors
    route = [float(np.max(np.abs(_per_point_spectrum(i) - ld))) for i, ld in zip(instances, longdouble)]
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
    spectrum, distorted = edge_length_spectra([instance, moved])
    assert float(np.max(np.abs(distorted - spectrum))) > 1e-5
    assert float(np.max(np.abs(distorted - _longdouble_spectrum(moved)))) <= 1e-10


def test_hermitian_form_coefficients_are_correctly_rounded() -> None:
    rng = np.random.default_rng(11)
    for _ in range(2000):
        a, b, c, d = (complex(*rng.normal(0.0, 10.0 ** rng.integers(-3, 4), 2)) for _ in range(4))
        got = slabs._hermitian_form((1.0, c, d), (-1.0, a, b))
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
        replace(gen, resolution=(5, 8)),
    ]
    for other in (replace(instance, generator=g) for g in others):
        with pytest.raises(ParameterError, match="one model mesh"):
            edge_length_spectra([instance, other])
    with pytest.raises(ParameterError, match="at least one"):
        edge_length_spectra([])


def _drifted_determinant(placement: AmbientIsometry) -> AmbientIsometry:
    """The placement with its matrix scaled by 1 + 1e-6: the same Moebius map,
    and a form still of the shape A = -C, B = 0, but C = (1 + 1e-6)^2."""
    m = placement.mobius
    s = 1.0 + 1e-6
    return replace(placement, mobius=MobiusMap(m.a * s, m.b * s, m.c * s, m.d * s, m.model))


# Placement mutations that move the spectra (the spectra tests above), as maps
# of the placement; det-drift moves them by about 6e-5 against the model.
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
    # the spectra live beside the tests only, as the reference of the bound
    assert not hasattr(slabs, "edge_length_spectra")
    report = check_annulus_family(slab1, sample_interior_points(slab1, 4, seed=7))
    assert report.passed and report.spectra_ok
    assert 0.0 < report.spectra_deviation < 1e-10


@pytest.mark.parametrize("mutation", ["squeeze", "det-drift"])
def test_one_point_audit_is_not_vacuous(slab1, monkeypatch, mutation: str) -> None:
    # One instance is still compared with the model annulus.  det-drift keeps
    # A = -C and B = 0, so only the model's place in the bound's spread sees it.
    points = sample_interior_points(slab1, 1, seed=7)
    assert check_annulus_family(slab1, points).spectra_ok
    _mutate_placement(monkeypatch, _PLACEMENT_MUTATIONS[mutation])
    report = check_annulus_family(slab1, points)
    assert not report.spectra_deviation < slabs._SPECTRA_TOL
    assert not report.spectra_ok
    assert not report.passed
    (instance,) = slab1.annulus_generator.place(points)  # still the mutated place
    model = replace(instance, placement=identity_isometry(slab1.tau, Model.CYLINDER))
    deviation = _all_pairs_deviation([model, instance])
    assert slabs._SPECTRA_TOL < deviation <= report.spectra_deviation + _SPECTRA_FLOAT_ERROR


@pytest.mark.parametrize("mutation", list(_PLACEMENT_MUTATIONS))
@pytest.mark.parametrize("count", [1, 4])
def test_audit_catches_each_placement_mutation(slab1, monkeypatch, mutation: str, count: int) -> None:
    # One instance is mutated, except that a fiber-tau mutation goes to every
    # row: rows applied together must share one tau (apply_to_rows).
    rows = range(count) if mutation == "tau_f-0.01" else [count - 1]
    _mutate_placement(monkeypatch, _PLACEMENT_MUTATIONS[mutation], rows)
    report = check_annulus_family(slab1, sample_interior_points(slab1, count, seed=7))
    assert not report.spectra_ok
    assert not report.passed


@pytest.mark.parametrize("coefficient", [0, 1, 3])
def test_nan_form_fails_the_audit(slab1, monkeypatch, coefficient: int) -> None:
    points = sample_interior_points(slab1, 2, seed=7)
    forms = slabs._placement_forms
    calls = []

    def forms_with_nan(placement, tau):
        tau_f, d_form, p_form = forms(placement, tau)
        calls.append(placement)
        if len(calls) == 2:
            d_form = tuple(math.nan if i == coefficient else value for i, value in enumerate(d_form))
        return tau_f, d_form, p_form

    monkeypatch.setattr(slabs, "_placement_forms", forms_with_nan)
    report = check_annulus_family(slab1, points)
    assert len(calls) == 2
    assert math.isnan(report.spectra_deviation)
    assert not report.spectra_ok
    assert not report.passed


def _slab_at(construction: str, tau: float) -> SlabSpec:
    sp = SpaceParams(tau)
    if construction == "example2":
        return build_example2(sp, "linear", 1.0, 0.45, 0.2, grid=65, annulus_resolution=(33, 48))
    radius = 4.0 if construction == "example1_r4" else 10.0
    return build_example1(sp, 0.1, window_radius=radius, grid=65, annulus_resolution=(33, 48))


def _all_pairs_deviation(instances) -> float:
    spectra = edge_length_spectra(instances)
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
        tau_f, (a, br, bi, c), p_form = slabs._placement_forms(instance.placement, tau)
        assert (tau_f, a, br, bi, p_form) == (tau, -c, 0.0, 0.0, None)
    model = replace(instances[0], placement=identity_isometry(tau, Model.CYLINDER))
    family = [model, *instances, _mirrored(instances[-1])]
    bound = slabs._congruence_bound(family[1:])
    assert 0.0 < bound < slabs._SPECTRA_TOL
    assert _all_pairs_deviation(family) <= bound + _SPECTRA_FLOAT_ERROR
    # the model annulus counts: one instance alone is still bounded against it
    assert _all_pairs_deviation(family[:2]) <= slabs._congruence_bound(family[1:2]) + _SPECTRA_FLOAT_ERROR


# At tau 2 the twist term carries the residual: without it the bound misses a shifted placement.
@pytest.mark.parametrize("tau", [0.0, 0.5, -0.7, 2.0])
@pytest.mark.parametrize(("scale", "shift"), [(1.0 - 1e-6, 0.0), (1.0 - 1e-6, 1e-6 + 2e-6j), (1.0, 1e-5), (1.0 - 1e-4, 0.0)])
def test_congruence_bound_covers_small_form_defects(tau: float, scale: float, shift: complex) -> None:
    # Placements composed with z -> scale z + shift have A != -C or B != 0;
    # their residual term must still cover the spectra, which it can only
    # do with a finite bound when the defect is small.
    slab = _slab_at("example1", tau)
    first, second = slab.annulus_generator.place(sample_interior_points(slab, 2, seed=7))
    moved = replace(first, placement=compose(first.placement, _distortion(scale, shift, tau)))
    model = replace(first, placement=identity_isometry(tau, Model.CYLINDER))
    for family in ([model, moved], [model, moved, second], [model, moved, _mirrored(moved)]):
        bound = slabs._congruence_bound(family[1:])
        assert math.isfinite(bound)
        assert _all_pairs_deviation(family) <= bound + _SPECTRA_FLOAT_ERROR


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
    gen = replace(slab1.annulus_generator, resolution=(rows, cols))
    mesh = mesh_catenoid(CatenoidSpec(tau=gen.tau, d=gen.d), gen.rho_boundary, (rows, cols))
    tri = mesh.triangles
    edges = np.unique(np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]), axis=1), axis=0)
    model = _model_annulus(gen)
    a, b = mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]]
    np.testing.assert_array_equal(model.a, a)
    np.testing.assert_array_equal(model.v, b - a)
    for got, want in zip((model.a, model.v), mesh_edges(mesh), strict=True):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert not (model.a.flags.writeable or model.v.flags.writeable)
    # The mesh makes the row count odd; a wrapped grid has R C ring edges,
    # (R - 1) C meridian edges and (R - 1) C diagonals.
    built_rows = len(mesh.vertices) // cols
    assert built_rows == rows + 1 - rows % 2
    assert len(model.a) == (3 * built_rows - 2) * cols == count


@pytest.mark.parametrize("resolution", [(65, 96), (9, 8), (10, 8), (17, 16)])
def test_model_annulus_vertices_are_the_mesh_vertices(slab1_tau05, resolution) -> None:
    # One vertex grid behind both, here at tau 0.5: mesh_catenoid's vertices,
    # and the model annulus' edges read from them, bit for bit.
    gen = replace(slab1_tau05.annulus_generator, resolution=resolution)
    spec = CatenoidSpec(tau=gen.tau, d=gen.d)
    mesh = mesh_catenoid(spec, gen.rho_boundary, resolution)
    vertices, shape = _catenoid_grid(spec, gen.rho_boundary, resolution)
    assert shape == mesh.grid_shape
    np.testing.assert_array_equal(vertices.view(np.int64), mesh.vertices.view(np.int64))
    model = _model_annulus(gen)
    for got, want in zip((model.a, model.v), mesh_edges(mesh), strict=True):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_a_generator_builds_its_model_annulus_once(slab1, monkeypatch) -> None:
    meshes = []

    def counted(*args):
        meshes.append(args)
        return _catenoid_grid(*args)

    monkeypatch.setattr(slabs, "_catenoid_grid", counted)
    slabs._model_annulus.cache_clear()
    points = sample_interior_points(slab1, 3, seed=7)
    assert check_annulus_family(slab1, points).passed
    assert len(meshes) == 1
    # equal generators are one key
    gen = slab1.annulus_generator
    record = _model_annulus(gen)
    assert _model_annulus(replace(gen)) is record
    shrunken = with_shrunken_annuli(slab1, 0.5)
    assert not check_annulus_family(shrunken, points).passed
    own = _model_annulus(shrunken.annulus_generator)
    assert len(meshes) == 2
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
    """check_bounding_graphs from one GraphFunction and one graph_nu per graph."""
    lower, upper = (GraphFunction.from_base_callable(slab.domain, slab.tau, f) for f in (slab.lower, slab.upper))
    active = slab.domain.active_mask()
    h0 = float(max(np.max(np.abs(lower.values[active])), np.max(np.abs(upper.values[active]))))
    c = float(min(np.min(graph_nu(lower)[active]), np.min(graph_nu(upper)[active])))
    gap = float(np.min((upper.values - lower.values)[active]))
    return BoundingGraphCheck(height_bound=h0, normal_bound=c, disjoint=gap > 0.0, min_gap=gap)


def test_audit_and_its_shrunken_control_evaluate_the_graphs_once(slab1, monkeypatch) -> None:
    normals = []

    def counted(graph):
        normals.append(graph)
        return graph_nu(graph)

    monkeypatch.setattr(slabs, "graph_nu", counted)
    slab = replace(slab1)  # a slab that has not computed its check
    points = sample_interior_points(slab, 3, seed=7)
    assert check_annulus_family(slab, points).passed
    control = with_shrunken_annuli(slab, 0.5)
    assert not check_annulus_family(control, points).passed
    assert len(normals) == 2  # one per graph
    assert check_bounding_graphs(control) is check_bounding_graphs(slab) == _graph_nu_check(slab1)


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
        assert check_bounding_graphs(changed) == _graph_nu_check(changed) != check_bounding_graphs(slab)
    # the controls' reports read their own checks
    report = check_annulus_family(overlapping, sample_interior_points(slab1, 2, seed=7))
    assert not report.disjoint and report.height_bound == kept.height_bound


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


@pytest.mark.parametrize("mutation", ["tau_f-0.01", "reversing"])
def test_one_mixed_placement_fails_only_as_its_own_row(slab1, monkeypatch, mutation: str) -> None:
    # One row of four gets another fiber tau or orientation.  A fiber-tau row
    # gets the failed record; a reversing placement is an isometry, audited
    # in its own pass.  Every other row keeps the bits of its point alone.
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
    return build_example2(SpaceParams(0.5), "linear", 1.0, 0.45, 0.2, grid=65, annulus_resolution=(33, 48))


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
    slab = build_example2(SpaceParams(0.3), "linear", 1.0, 0.45, 0.2, grid=65, annulus_resolution=(33, 48))
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
