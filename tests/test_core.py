"""Coordinate models, metric, frame, conversions, and distances."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etau.core import (
    AmbientPoint,
    BasePoint,
    InvalidPointError,
    Model,
    ModelMismatchError,
    ParameterError,
    chord_distances,
    chord_length,
    conformal_factor,
    convert_model,
    distance_to_vertical_geodesic,
    frame_at,
    hyperbolic_distance,
    metric_arrays,
    metric_at,
    metric_data_arrays,
    metric_data_derivative_arrays,
    metric_quadratic_form,
    polyline_length,
    project,
)
from etau.isometries import AmbientIsometry, Orientation, disc_point_isometry, push_forward_arrays
from etau.quadrature import PANEL_NODES

halfspace_points = st.builds(
    lambda x, y, t: AmbientPoint(BasePoint(Model.HALF_SPACE, x, y), t),
    st.floats(-3.0, 3.0),
    st.floats(0.05, 5.0),
    st.floats(-3.0, 3.0),
)
cylinder_points = st.builds(
    lambda angle, radius, t: AmbientPoint(
        BasePoint(Model.CYLINDER, radius * math.cos(angle), radius * math.sin(angle)), t
    ),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, 0.9),
    st.floats(-3.0, 3.0),
)
taus = st.sampled_from([0.0, 0.5, -0.5, 1.0])


def hp(x: float, y: float, t: float = 0.0) -> AmbientPoint:
    return AmbientPoint(BasePoint(Model.HALF_SPACE, x, y), t)


def cyl(x: float, y: float, t: float = 0.0) -> AmbientPoint:
    return AmbientPoint(BasePoint(Model.CYLINDER, x, y), t)


class TestValidation:
    def test_halfspace_needs_positive_y(self):
        with pytest.raises(InvalidPointError):
            BasePoint(Model.HALF_SPACE, 0.0, 0.0)
        with pytest.raises(InvalidPointError):
            BasePoint(Model.HALF_SPACE, 1.0, -0.3)

    def test_disc_needs_interior(self):
        with pytest.raises(InvalidPointError):
            BasePoint(Model.CYLINDER, 1.0, 0.0)
        with pytest.raises(InvalidPointError):
            BasePoint(Model.CYLINDER, 0.8, 0.7)

    def test_mixed_models_rejected(self):
        with pytest.raises(ModelMismatchError):
            hyperbolic_distance(BasePoint(Model.HALF_SPACE, 0.0, 1.0), BasePoint(Model.CYLINDER, 0.0, 0.0))


class TestConformalFactor:
    def test_halfspace_unit(self):
        assert conformal_factor(BasePoint(Model.HALF_SPACE, 0.0, 1.0)) == 1.0

    def test_disc_center(self):
        assert conformal_factor(BasePoint(Model.CYLINDER, 0.0, 0.0)) == 2.0

    def test_disc_half_radius(self):
        assert conformal_factor(BasePoint(Model.CYLINDER, 0.0, 0.5)) == pytest.approx(8.0 / 3.0, rel=1e-15)


class TestMetric:
    def test_product_case_halfspace(self):
        assert np.allclose(metric_at(hp(0.0, 1.0), 0.0), np.eye(3))

    def test_product_case_disc(self):
        assert np.allclose(metric_at(cyl(0.0, 0.0), 0.0), np.diag([4.0, 4.0, 1.0]))

    def test_twisted_halfspace_entries(self):
        g = metric_at(hp(0.0, 1.0), 0.5)
        assert g[0, 0] == pytest.approx(2.0, rel=1e-15)
        assert g[0, 2] == pytest.approx(-1.0, rel=1e-15)
        assert g[1, 1] == pytest.approx(1.0, rel=1e-15)
        assert g[2, 2] == pytest.approx(1.0, rel=1e-15)
        assert np.allclose(g, g.T)

    def test_killing_field_t_independence(self):
        a = metric_at(hp(0.3, 0.7, -2.0), 0.5)
        b = metric_at(hp(0.3, 0.7, 11.0), 0.5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "model, x, y", [(Model.HALF_SPACE, 0.3, 0.7), (Model.CYLINDER, 0.2, -0.5), (Model.CYLINDER, -0.6, 0.1)]
    )
    def test_connection_form_is_the_log_gradient_of_lam(self, model, x, y):
        # omega = 2 tau (lam_y / lam dx - lam_x / lam dy), by central differences of log lam
        tau, h = 0.7, 1e-5

        def log_lam(x, y):
            return math.log(metric_data_arrays(model, tau, x, y)[0])

        _, w1, w2 = metric_data_arrays(model, tau, x, y)
        dy = (log_lam(x, y + h) - log_lam(x, y - h)) / (2.0 * h)
        dx = (log_lam(x + h, y) - log_lam(x - h, y)) / (2.0 * h)
        assert w1 == pytest.approx(2.0 * tau * dy, rel=1e-8, abs=1e-10)
        assert w2 == pytest.approx(-2.0 * tau * dx, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize(
        "model, x, y", [(Model.HALF_SPACE, 0.3, 0.7), (Model.CYLINDER, 0.2, -0.5), (Model.CYLINDER, -0.6, 0.1)]
    )
    def test_metric_data_derivative_matches_central_differences(self, model, x, y):
        tau, h, ex, ey = 0.7, 1e-6, 0.3, -0.8
        ahead = metric_data_arrays(model, tau, x + h * ex, y + h * ey)
        behind = metric_data_arrays(model, tau, x - h * ex, y - h * ey)
        exact = metric_data_derivative_arrays(model, tau, x, y, ex, ey)
        for a, b, e in zip(ahead, behind, exact):
            assert float(e) == pytest.approx((a - b) / (2.0 * h), rel=1e-7, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(halfspace_points, taus)
    def test_positive_definite(self, p, tau):
        eigenvalues = np.linalg.eigvalsh(metric_at(p, tau))
        assert np.all(eigenvalues > 0.0)


class TestFrame:
    @settings(max_examples=30, deadline=None)
    @given(st.one_of(halfspace_points, cylinder_points), taus)
    def test_orthonormal(self, p, tau):
        g = metric_at(p, tau)
        basis = np.array([e.coords() for e in frame_at(p, tau)])
        gram = basis @ g @ basis.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_vertical_leg_is_killing_direction(self):
        _, _, e3 = frame_at(hp(0.4, 1.5), 0.5)
        assert (e3.dx, e3.dy, e3.dt) == (0.0, 0.0, 1.0)

    def test_disc_origin_scaling(self):
        e1, _, _ = frame_at(cyl(0.0, 0.0), 1.0)
        assert e1.dx == pytest.approx(0.5, rel=1e-15)
        assert e1.dy == 0.0


class TestConversion:
    def test_axis_point_fixed(self):
        q = convert_model(hp(0.0, 1.0, 0.7), 1.0)
        assert q.model is Model.CYLINDER
        assert (q.x, q.y) == pytest.approx((0.0, 0.0), abs=1e-15)
        assert q.t == pytest.approx(0.7, abs=1e-15)

    def test_tau_zero_keeps_fiber(self):
        q = convert_model(hp(1.3, 0.4, 5.0), 0.0)
        assert q.t == 5.0

    def test_reference_value(self):
        # Fiber correction sign is forced by the isometry property of the
        # conversion (see test_isometries for the metric pullback check);
        # the base image is phi(1+i) = (2+i)/5.
        q = convert_model(hp(1.0, 1.0, 0.0), 1.0)
        assert (q.x, q.y) == pytest.approx((0.4, 0.2), rel=1e-15)
        assert q.t == pytest.approx(-4.0 * math.atan(0.5), rel=1e-14)
        assert q.t == pytest.approx(-1.8545904360032244, rel=1e-14)

    def test_projection_commutes(self):
        p = hp(0.6, 2.1, 0.3)
        assert project(convert_model(p, 0.7)) == convert_model(p, 0.7).base

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(halfspace_points, cylinder_points), taus)
    def test_round_trip(self, p, tau):
        back = convert_model(convert_model(p, tau), tau)
        assert back.model is p.model
        assert np.max(np.abs(back.coords() - p.coords())) < 1e-10


class TestDistances:
    def test_vertical_geodesic_log(self):
        a = BasePoint(Model.HALF_SPACE, 0.0, 1.0)
        b = BasePoint(Model.HALF_SPACE, 0.0, math.e)
        assert hyperbolic_distance(a, b) == pytest.approx(1.0, rel=1e-14)

    def test_coincident_points(self):
        a = BasePoint(Model.HALF_SPACE, 0.3, 0.9)
        assert hyperbolic_distance(a, a) == 0.0

    def test_disc_radial(self):
        a = BasePoint(Model.CYLINDER, 0.0, 0.0)
        b = BasePoint(Model.CYLINDER, 0.0, 0.37)
        assert hyperbolic_distance(a, b) == pytest.approx(2.0 * math.atanh(0.37), rel=1e-14)

    def test_conversion_preserves_distance(self):
        a = BasePoint(Model.HALF_SPACE, -0.7, 0.4)
        b = BasePoint(Model.HALF_SPACE, 1.1, 2.6)
        ca = convert_model(AmbientPoint(a, 0.0), 0.0).base
        cb = convert_model(AmbientPoint(b, 0.0), 0.0).base
        assert hyperbolic_distance(a, b) == pytest.approx(hyperbolic_distance(ca, cb), rel=1e-12)

    def test_distance_to_vertical_geodesic(self):
        assert distance_to_vertical_geodesic(BasePoint(Model.HALF_SPACE, 1.0, 1.0), 1.0) == 0.0
        expected = math.asinh(1.0)
        assert distance_to_vertical_geodesic(
            BasePoint(Model.HALF_SPACE, 2.0, 1.0), 1.0
        ) == pytest.approx(expected, rel=1e-14)

    def test_geodesic_distance_scaling_invariance(self):
        p = BasePoint(Model.HALF_SPACE, 1.7, 0.8)
        scaled = BasePoint(Model.HALF_SPACE, 1.0 + 2.5 * (p.x - 1.0), 2.5 * p.y)
        assert distance_to_vertical_geodesic(p, 1.0) == pytest.approx(
            distance_to_vertical_geodesic(scaled, 1.0), rel=1e-13
        )


class TestChords:
    def test_chord_vanishes_at_zero_separation(self):
        p = hp(0.2, 1.1, 0.4)
        assert chord_length(p, p, 0.5) == 0.0

    def test_vertical_chord_is_euclidean(self):
        p, q = hp(0.2, 1.1, 0.0), hp(0.2, 1.1, 0.25)
        assert chord_length(p, q, 0.7) == pytest.approx(0.25, rel=1e-14)

    @staticmethod
    def _fiber(params):
        """The fiber over (0.2, 1.1), parametrized by t; vertical chords are Euclidean."""
        t = params[:, 0]
        return np.stack([np.full_like(t, 0.2), np.full_like(t, 1.1), t], axis=-1)

    @staticmethod
    def _fiber_tangent(params):
        return np.broadcast_to(np.array([[0.0], [0.0], [1.0]]), (len(params), 3, 1))

    def test_chord_distances_clip_to_the_parameter_bounds(self):
        q = np.array([[0.2, 1.1, 2.0], [0.2, 1.1, 0.6], [0.2, 1.1, -0.5]])
        fiber = (self._fiber, self._fiber_tangent)
        d = chord_distances(Model.HALF_SPACE, 0.5, q, *fiber, [[0.2], [0.1], [0.9]], [0.0], [1.0])
        assert d[0] == pytest.approx(1.0, rel=1e-15)
        assert d[1] == pytest.approx(0.0, abs=1e-15)
        assert d[2] == pytest.approx(0.5, rel=1e-15)

    def test_chord_distances_keep_a_start_chord_below_accept(self):
        q = np.array([[0.2, 1.1, 0.6]])
        fiber = (self._fiber, self._fiber_tangent)
        kept = chord_distances(Model.HALF_SPACE, 0.5, q, *fiber, [[0.5]], [0.0], [1.0], accept_below=0.2)
        searched = chord_distances(Model.HALF_SPACE, 0.5, q, *fiber, [[0.5]], [0.0], [1.0], accept_below=0.05)
        assert kept[0] == pytest.approx(0.1, rel=1e-14)
        assert searched[0] == pytest.approx(0.0, abs=1e-15)

    def test_polyline_converges_to_distance(self):
        a = BasePoint(Model.HALF_SPACE, 0.0, 1.0)
        b = BasePoint(Model.HALF_SPACE, 0.0, 2.0)
        ys = np.linspace(1.0, 2.0, 400)
        coords = np.column_stack([np.zeros_like(ys), ys, np.zeros_like(ys)])
        assert polyline_length(Model.HALF_SPACE, 0.0, coords) == pytest.approx(
            hyperbolic_distance(a, b), rel=1e-6
        )


@pytest.mark.parametrize("model", [Model.HALF_SPACE, Model.CYLINDER])
@pytest.mark.parametrize("tau", [0.0, 0.5, -0.7])
def test_metric_quadratic_form_matches_metric_tensor(model: Model, tau: float) -> None:
    rng = np.random.default_rng(11)
    n = 500
    if model is Model.HALF_SPACE:
        x, y = rng.uniform(-3.0, 3.0, n), rng.uniform(0.05, 5.0, n)
    else:
        radius, angle = 0.95 * np.sqrt(rng.uniform(size=n)), rng.uniform(0.0, 2.0 * math.pi, n)
        x, y = radius * np.cos(angle), radius * np.sin(angle)
    delta = rng.normal(size=(n, 3))
    want = np.einsum("ni,nij,nj->n", delta, metric_arrays(model, tau, x, y), delta)
    got = metric_quadratic_form(model, tau, x, y, delta[:, 0], delta[:, 1], delta[:, 2])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


# -- in-place kernels against the expressions they replace ---------------------


def _reference_metric_data(model: Model, tau: float, x, y):
    if model is Model.HALF_SPACE:
        return 1.0 / y, -2.0 * tau / y, np.zeros_like(y)
    lam = 2.0 / (1.0 - x * x - y * y)
    return lam, 2.0 * tau * lam * y, -2.0 * tau * lam * x


def _reference_quadratic_form(model: Model, tau: float, x, y, dx, dy, dt):
    lam, w1, w2 = _reference_metric_data(model, tau, x, y)
    vertical = dt + w1 * dx + w2 * dy
    return lam * lam * (dx * dx + dy * dy) + vertical * vertical


def _reference_push_forward(iso: AmbientIsometry, x, y, vx, vy, vt):
    m = iso.mobius
    z, dz = x + 1j * y, vx + 1j * vy
    r = np.reciprocal(m.c * z + m.d)
    w = (m.a * z + m.b) * r
    dw = ((m.a * m.d - m.b * m.c) * dz) * (r * r)
    dtheta = -2.0 * ((m.c * dz) * r).imag
    # the disc model's row signs
    sx, sy, st = (1.0, -1.0, -1.0) if iso.orientation is Orientation.REVERSING else (1.0, 1.0, 1.0)
    return sx * w.real, sy * w.imag, sx * dw.real, sy * dw.imag, st * (vt - 2.0 * iso.tau * dtheta)


def _salted(rng, shape, scale: float, at: int) -> np.ndarray:
    """Random values with -0.0, +-inf and NaN in the flat entries at .. at + 3."""
    values = rng.uniform(-scale, scale, shape)
    values.reshape(-1)[at : at + 4] = [-0.0, np.inf, -np.inf, np.nan]
    return values


def _kernel_cases(tau: float) -> dict:
    """Kernel, the expressions it replaces, and its operands' kinds."""
    disc = disc_point_isometry(0.3 + 0.2j, tau)
    reversing = AmbientIsometry(disc.mobius, Orientation.REVERSING, 0.3, 0.0, tau)
    cases = {
        "quadratic_form": (
            lambda *a: (metric_quadratic_form(Model.CYLINDER, tau, *a),),
            lambda *a: (_reference_quadratic_form(Model.CYLINDER, tau, *a),),
            "form",
        )
    }
    for model in Model:
        cases[f"metric_data_{model.value}"] = (
            lambda *a, model=model: metric_data_arrays(model, tau, *a),
            lambda *a, model=model: _reference_metric_data(model, tau, *a),
            "base",
        )
    for iso in (disc, reversing):
        cases[f"push_forward_{iso.orientation.value}"] = (
            lambda *a, iso=iso: push_forward_arrays(iso, *a),
            lambda *a, iso=iso: _reference_push_forward(iso, *a),
            "form",
        )
    return cases


@pytest.mark.parametrize("tau", [0.0, 0.5])
@pytest.mark.parametrize("layout", ["chords", "spectra"])
@pytest.mark.parametrize(
    "kernel",
    ["metric_data_half_space", "metric_data_cylinder", "quadratic_form", "push_forward_direct", "push_forward_reversing"],
)
def test_in_place_kernels_keep_the_bits_of_their_expressions(kernel: str, layout: str, tau: float) -> None:
    # Chords pass (n,) arrays; a (PANEL_NODES, edges) layout passes points
    # against per-edge (edges,) vectors.
    run, reference, kind = _kernel_cases(tau)[kernel]
    rng = np.random.default_rng(5)
    points, vectors = ((97,), (97,)) if layout == "chords" else ((PANEL_NODES, 31), (31,))
    x, y = _salted(rng, points, 0.7, 0), _salted(rng, points, 0.7, 2)
    dx, dy, dt = (_salted(rng, vectors, 2.0, at) for at in (1, 3, 5))
    with np.errstate(all="ignore"):
        operands = {"base": (x, y), "form": (x, y, dx, dy, dt)}[kind]
        got, want = run(*operands), reference(*operands)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype == np.float64
            np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_ambient_point_rejects_a_non_finite_fiber_coordinate(t: float) -> None:
    with pytest.raises(ParameterError, match="point t must be finite"):
        AmbientPoint(BasePoint(Model.HALF_SPACE, 0.0, 1.0), t)
