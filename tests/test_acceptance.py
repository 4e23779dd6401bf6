"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test states its bound inline; the conftest hook prints a PASS/FAIL line
per criterion at the end of the run.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.special import ellipk

from etau.core import (
    AmbientPoint,
    BasePoint,
    Model,
    SpaceParams,
)
from etau.graphs import (
    Chart,
    GraphDomain,
    douglas_check,
    mean_curvature,
    reference_problem,
    solve_dirichlet,
)
from etau.isometries import (
    apply,
    apply_to_coords,
    axis_translation_isometry,
    conversion_pullback_residuals,
    disc_point_isometry,
    halfplane_graph_isometry,
    pullback_residuals,
    scale_isometry,
    vertical_translation,
)
from etau.lifts import PlanarCurve, horizontal_lift, lift_geodesic_semicircle
from etau.slabs import (
    build_example1,
    build_example2,
    check_annulus_family,
    sample_interior_points,
    with_overlapping_graphs,
    with_shrunken_annuli,
)
from etau.surfaces import (
    CatenoidSpec,
    catenoid_height,
    foliation_leaf_find,
    foliation_leaf_find_arrays,
    invariant_height,
    invariant_height_substituted,
    transversality_delta,
    transversality_margin,
    transversality_window_check,
)


def test_criterion_1() -> None:
    """Rotationally invariant heights reduce to complete elliptic integrals."""
    start = time.monotonic()
    for d in (1.1, 2.0, 10.0, 100.0):
        want = float(ellipk((1.0 / d) ** 2))
        assert abs(invariant_height(d, 0.0) - want) < 1e-8, d
    assert time.monotonic() - start < 1.0


def test_criterion_2() -> None:
    """Large-parameter heights approach the slab limits."""
    start = time.monotonic()
    for tau in (0.0, 0.5, 1.0):
        root = math.sqrt(1.0 + 4.0 * tau * tau)
        assert abs(invariant_height(1e4, tau) - 0.5 * math.pi * root) < 1e-3, tau
        assert abs(catenoid_height(CatenoidSpec(tau, 1e3)) - math.pi * root) < 5e-2, tau
    assert time.monotonic() - start < 10.0


def test_criterion_3() -> None:
    """Both quadrature routes for the invariant height agree."""
    for d in (1.5, 3.0, 8.0):
        for tau in (0.0, 0.4, 1.0):
            a = invariant_height(d, tau)
            b = invariant_height_substituted(d, tau)
            assert abs(a - b) < 1e-8, (d, tau)


def test_criterion_4() -> None:
    """Exact graphs of both model surfaces are discretely minimal at second order."""
    start = time.monotonic()
    for kind, d in (("catenoid", 2.0), ("invariant", 1.2)):
        sups = [
            mean_curvature(reference_problem(kind, 0.5, d, 1.0, n)).sup()
            for n in (33, 65, 129)
        ]
        assert sups[-1] < 1e-3, kind
        for lo, hi in zip(sups, sups[1:]):
            order = math.log2(lo / hi)
            assert 1.7 <= order <= 2.3, (kind, order)
    assert time.monotonic() - start < 60.0


def test_criterion_5() -> None:
    """Model conversion and the named isometry families are metric-preserving."""
    rng = np.random.default_rng(0)
    delta = 0.37
    for tau in (0.0, 0.5, -0.5):
        families = {
            "conversion": None,
            "scale": scale_isometry(1.7, tau),
            "axis_translation": axis_translation_isometry(1.3, tau),
            "disc_point": disc_point_isometry(0.3 + 0.2j, tau),
            "halfplane_graph": halfplane_graph_isometry(0.8, 0.6, 0.4, tau),
        }
        for name, iso in families.items():
            model = Model.CYLINDER if name == "disc_point" else Model.HALF_SPACE
            # 1,000 points, each drawn as (x, y, t), or (r^2 / 0.81, angle, t) in the disc
            if model is Model.HALF_SPACE:
                coords = rng.uniform([-2.0, 0.2, -2.0], [2.0, 3.0, 2.0], (1000, 3))
            else:
                u, ang, t = rng.uniform([0.0, 0.0, -2.0], [1.0, 2.0 * math.pi, 2.0], (1000, 3)).T
                r = 0.9 * np.sqrt(u)
                coords = np.stack([r * np.cos(ang), r * np.sin(ang), t], axis=1)
            # Folded by np.max, which keeps a NaN (max() drops it).
            if iso is None:
                worst_residual = np.max(conversion_pullback_residuals(model, tau, coords))
                worst_fiber = 0.0
            else:
                worst_residual = np.max(pullback_residuals(iso, coords))
                shift = vertical_translation(delta, tau, model)
                a = apply_to_coords(iso, apply_to_coords(shift, coords))
                b = apply_to_coords(shift, apply_to_coords(iso, coords))
                gap = np.abs(a - b)
                worst_fiber = np.max(gap[:, 0] + gap[:, 1] + gap[:, 2])
            assert worst_residual < 1e-9, (name, tau, worst_residual)
            assert worst_fiber < 1e-12, (name, tau, worst_fiber)


def test_criterion_6() -> None:
    """Horizontal lifts along geodesic semicircles drop linearly in the angle."""
    for tau in (0.5, 1.0):
        quad = horizontal_lift(
            PlanarCurve.geodesic_semicircle(0.3, 1.5, 0.3, math.pi - 0.3, samples=41),
            tau,
            t_start=0.25,
        )
        closed = lift_geodesic_semicircle(
            0.3, 1.5, 0.3, math.pi - 0.3, tau, t_start=0.25, samples=41
        )
        assert np.max(np.abs(quad.t - closed.t)) < 1e-10, tau
        eps = 1e-6
        full = lift_geodesic_semicircle(0.0, 1.0, eps, math.pi - eps, tau)
        assert full.fiber_variation() <= 2.0 * abs(tau) * math.pi + 1e-12, tau
    flat = horizontal_lift(
        PlanarCurve.geodesic_semicircle(0.0, 1.0, 0.2, 2.9, samples=65), 0.0, t_start=0.4
    )
    assert np.max(np.abs(flat.t - 0.4)) == 0.0


def test_criterion_7() -> None:
    """The transversality gap certificate holds and the window stays transverse."""

    def margin_formula(delta: float, h0: float, tau: float) -> float:
        e = math.exp(2.0 * (h0 + 2.0 * abs(tau) * math.pi))
        return 4.0 * (2.0 * delta + delta * delta) * e / (2.0 + delta * (1.0 + e)) ** 2

    for eps, h0, tau in ((0.5, 1.0, 0.0), (0.5, 1.0, 0.5)):
        delta = transversality_delta(eps, h0, tau)
        assert delta > 0.0
        assert margin_formula(delta, h0, tau) < eps * eps, (eps, h0, tau)
        assert transversality_margin(delta, h0, tau) < eps * eps
        sup, ok = transversality_window_check(1.0 + delta / 2, h0, eps, tau)
        assert ok and sup < eps, (tau, sup)


def test_criterion_8() -> None:
    """Every sampled point lies on exactly one leaf, equivariantly in the scale."""
    rng = np.random.default_rng(0)
    points = [
        AmbientPoint(
            BasePoint(Model.HALF_SPACE, rng.uniform(-2.0, 4.0), rng.uniform(0.3, 2.5)),
            rng.uniform(-1.5, 1.5),
        )
        for _ in range(100)
    ]
    # one batched find per point set; each point has the bits of its find alone
    scales, residuals, _ = foliation_leaf_find_arrays(np.array([p.coords() for p in points]), 1.2, 1.0, 0.0)
    for p, residual in zip(points, residuals.tolist()):
        assert residual < 1e-6, (p.x, p.y, p.t)
    first = foliation_leaf_find(points[0], 1.2, 1.0, 0.0)
    assert (first.scale, first.residual) == (scales[0], residuals[0])
    mu = 1.7
    push = scale_isometry(mu, 0.0)
    moved_coords = np.array([apply(push, p).coords() for p in points[:10]])
    moved, _, _ = foliation_leaf_find_arrays(moved_coords, 1.2, 1.0, 0.0)
    for moved_scale, lam in zip(moved.tolist(), scales[:10].tolist()):
        assert abs(moved_scale - mu * lam) < 1e-6 * max(1.0, mu * lam)


def test_criterion_9() -> None:
    """The Dirichlet solver reproduces both model surfaces from boundary data."""
    for kind, d in (("catenoid", 2.0), ("invariant", 1.2)):
        start = time.monotonic()
        exact = reference_problem(kind, 0.5, d, 1.0, 33)
        result = solve_dirichlet(exact.domain, 0.5, exact.values)
        assert result.report["converged"], kind
        err = float(np.max(np.abs(result.graph.values - exact.values)))
        assert err < 1e-3, (kind, err)
        assert time.monotonic() - start < 120.0
    dom = GraphDomain(Chart.DISC_XY, ((-0.4, 0.4), (-0.4, 0.4)), (33, 33))
    zero = solve_dirichlet(dom, 0.0, np.zeros((33, 33)))
    assert float(np.max(np.abs(zero.graph.values))) == 0.0


def test_criterion_10() -> None:
    """Least-area annuli beat the disc pair exactly below the cosh threshold."""
    report = douglas_check(1.0, 0.45)
    assert abs(report.threshold_half_height - math.tanh(0.5)) < 1e-12
    assert douglas_check(1.0, 0.462117 - 0.05).annulus_wins
    assert not douglas_check(1.0, 0.462117 + 0.05).annulus_wins


def test_criterion_11() -> None:
    """Both slab constructions audit cleanly; both negative controls fail."""
    flat = SpaceParams(0.0)

    slab1 = build_example1(flat, 0.1)
    points1 = sample_interior_points(slab1, 20, seed=0)
    report1 = check_annulus_family(slab1, points1)
    assert report1.passed
    assert all(c.contains_point for c in report1.annulus_checks)

    slab2 = build_example2(flat, "linear", 1.0, 0.45, 0.2)
    points2 = sample_interior_points(slab2, 20, seed=0)
    report2 = check_annulus_family(slab2, points2)
    assert report2.passed

    shrunken = check_annulus_family(with_shrunken_annuli(slab1, 0.5), points1)
    assert not shrunken.passed

    overlapping = check_annulus_family(with_overlapping_graphs(slab2), points2)
    assert not overlapping.passed
