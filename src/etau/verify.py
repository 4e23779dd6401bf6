"""Verification suites behind `etau verify`.

Each suite checks one of the paper's constructions and returns check
records {"name", "value", "bound", "pass"} in a fixed order; sampling
suites draw from one seeded generator, so equal inputs give equal records.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import Generator, default_rng

from .core import Model, ParameterError
from .graphs import mean_curvature, reference_problem
from .isometries import (
    _axis_translation_rows,
    _disc_point_rows,
    _halfplane_graph_rows,
    _isometries as _row_isometries,
    _scale_rows,
    apply_to_rows,
    conversion_pullback_residuals,
    pullback_residuals,
)
from .lifts import PlanarCurve, horizontal_lift, lift_geodesic_semicircle
from .quadrature import elliptic_k
from .surfaces import (
    CatenoidSpec,
    _half_height_limit,
    catenoid_height,
    foliation_leaf_find_arrays,
    invariant_height,
    invariant_height_substituted,
    transversality_delta,
    transversality_margin,
    transversality_window_check,
)

SUITES = ("limits", "isometries", "minimality", "lifts", "transversality", "foliation")


def _check(name: str, value: float, bound: float) -> dict:
    return {"name": name, "value": float(value), "bound": float(bound), "pass": bool(value < bound)}


def _limits(tau: float) -> list[dict]:
    checks = []
    for d in (1.1, 2.0, 10.0, 100.0):
        err = abs(invariant_height(d, 0.0) - elliptic_k(1.0 / d))
        checks.append(_check(f"elliptic_oracle_d_{d:g}", err, 1e-8))
    half_limit = _half_height_limit(tau)
    checks.append(_check("invariant_height_limit", abs(invariant_height(1e4, tau) - half_limit), 1e-3))
    checks.append(
        _check("catenoid_height_limit", abs(catenoid_height(CatenoidSpec(tau, 1e3)) - 2.0 * half_limit), 5e-2)
    )
    # np.max, unlike max(), carries a NaN into the check, which then fails.
    gaps = [
        abs(invariant_height(d, t) - invariant_height_substituted(d, t))
        for d in (1.5, 3.0, 8.0)
        for t in (0.0, 0.4, 1.0)
    ]
    checks.append(_check("substitution_route", np.max(gaps), 1e-8))
    return checks


def _cylinder_points(rng: Generator, n: int) -> np.ndarray:
    """(n, 3) cylinder coordinates, drawn angle, radius, t point by point."""
    out = np.empty((n, 3))
    for row in out:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(0.0, 0.8)
        row[:] = radius * math.cos(angle), radius * math.sin(angle), rng.uniform(-2.0, 2.0)
    return out


def _isometries(tau: float, seed: int, points: int) -> list[dict]:
    """Pullback residuals and the fiber rule of random family members, one
    isometry per sampled point: each family is built by one row-builder call
    on parameters drawn point by point, and checked in one array pass over
    its points."""
    if points < 1:
        raise ParameterError(f"points must be at least 1, got {points}")
    # The sample points, their stencil rows and images all have lam < 1e3, so
    # the metrics stay below 1e6 (1 + 4 tau^2); with the Jacobians' factors a
    # residual entry stays below 1e12 (1 + 4 tau^2), and it is squared.
    residual_bound = 1e12 * (1.0 + 4.0 * tau * tau)
    if not math.isfinite(residual_bound * residual_bound):
        raise ParameterError(f"isometries suite at tau = {tau} leaves the float range: its residuals overflow when squared")
    rng = default_rng(seed)
    per_family = max(points // 5, 1)
    checks = []
    delta = 0.37

    def family_checks(name, rows, coords):
        isos = _row_isometries(rows)
        worst = np.max(pullback_residuals(isos, coords))
        lifted = coords.copy()
        lifted[:, 2] += delta
        images = apply_to_rows(isos, np.stack([coords, lifted], axis=1))
        fiber = np.max(np.abs((images[:, 1, 2] - images[:, 0, 2]) - delta))
        checks.append(_check(f"{name}_pullback", worst, 1e-9))
        checks.append(_check(f"{name}_fiber", fiber, 1e-12))

    half = rng.uniform((-2.0, 0.2, -2.0), (2.0, 3.0, 2.0), size=(per_family, 3))  # x, y, t point by point
    cyl = _cylinder_points(rng, per_family)
    conversion = [
        conversion_pullback_residuals(model, tau, coords)
        for model, coords in ((Model.HALF_SPACE, half), (Model.CYLINDER, cyl))
    ]
    checks.append(_check("conversion_pullback", np.max(np.concatenate(conversion)), 1e-9))
    family_checks("scale", _scale_rows(rng.uniform(0.3, 3.0, per_family), tau), half)
    family_checks("axis_translation", _axis_translation_rows(rng.uniform(0.5, 2.0, per_family), tau), half)
    x, y = rng.uniform(-0.5, 0.5, size=(per_family, 2)).T  # a center's x and y in turn
    family_checks("disc_point", _disc_point_rows(x + 1j * y, tau), cyl)
    x0, y0, height = rng.uniform((-1.0, 0.5, -1.0), (1.0, 2.0, 1.0), size=(per_family, 3)).T
    family_checks("halfplane_graph", _halfplane_graph_rows(x0, y0, height, tau), half)
    return checks


def _minimality(surface: str, tau: float, d: float, s: float) -> list[dict]:
    sups = []
    for n in (33, 65, 129):
        sups.append(mean_curvature(reference_problem(surface, tau, d, s, n)).sup())
    orders = [math.log2(sups[i] / sups[i + 1]) for i in range(2)]
    checks = [_check("residual_sup_fine", sups[-1], 1e-3)]
    for i, order in enumerate(orders):
        checks.append(
            {
                "name": f"convergence_order_{i}",
                "value": float(order),
                "bound": [1.7, 2.3],
                "pass": bool(1.7 <= order <= 2.3),
            }
        )
    return checks


def _lifts(tau: float) -> list[dict]:
    closed = lift_geodesic_semicircle(0.5, 2.0, 0.3, math.pi - 0.3, tau, t_start=0.7)
    quad = horizontal_lift(closed.curve, tau, t_start=0.7)
    checks = [
        _check("semicircle_closed_form_vs_quadrature", float(np.max(np.abs(closed.t - quad.t))), 1e-10),
        _check("lift_variation_bound", quad.fiber_variation(), 2.0 * abs(tau) * math.pi + 1e-12),
    ]
    flat = horizontal_lift(PlanarCurve.geodesic_semicircle(0.0, 1.0, 0.4, 2.6), 0.0, t_start=0.2)
    checks.append(_check("tau_zero_constant", float(np.max(np.abs(flat.t - 0.2))), 1e-15))
    return checks


def _transversality(tau: float) -> list[dict]:
    """(eps, h0) = (0.5, 1) at tau = 0 and at the given tau (once when that is 0)."""
    checks = []
    eps, h0 = 0.5, 1.0
    for t in (0.0,) if tau == 0.0 else (0.0, tau):
        delta = transversality_delta(eps, h0, t)
        d = 1.0 + 0.5 * delta
        if d == 1.0:
            raise ParameterError(
                f"transversality at tau={t:g} needs the window parameter 1 + delta/2, but "
                f"delta = {delta:.2g} is below float64 resolution, so it rounds to 1"
            )
        margin = transversality_margin(delta, h0, t)
        sup, ok = transversality_window_check(d, h0, eps, t)
        label = f"eps_{eps:g}_h0_{h0:g}_tau_{t:g}"
        checks.append(_check(f"closed_form_margin_{label}", margin, eps * eps))
        checks.append(
            {"name": f"window_sup_{label}", "value": float(sup), "bound": float(eps), "pass": bool(ok)}
        )
    return checks


def _foliation(tau: float, d: float, s: float, seed: int, points: int) -> list[dict]:
    """Leaves of the sampled points and of their images under random scalings,
    found in one array pass over the 2 * points rows.  Each point draws its
    x, y, t and scaling mu in turn; the scalings are built by one row-builder
    call."""
    if points < 1:
        raise ParameterError(f"points must be at least 1, got {points}")
    draws = default_rng(seed).uniform((-2.0, 0.2, -1.5, 0.5), (2.0, 2.5, 1.5, 2.0), size=(points, 4))
    samples, mus = draws[:, :3], draws[:, 3]
    moved = apply_to_rows(_row_isometries(_scale_rows(mus, tau)), samples)
    scales, residuals, _ = foliation_leaf_find_arrays(np.concatenate([samples, moved]), d, s, tau)
    worst_eqv = np.max(np.abs(scales[points:] - mus * scales[:points]))
    return [
        _check("leaf_find_residual", np.max(residuals[:points]), 1e-6),
        _check("scale_equivariance", worst_eqv, 1e-6),
    ]


def run(
    suite: str, *, tau: float, d: float, s: float, surface: str, seed: int, points: int
) -> list[dict]:
    """Check records of one suite; each suite gets only the parameters it uses."""
    if suite == "limits":
        return _limits(tau)
    if suite == "isometries":
        return _isometries(tau, seed, points)
    if suite == "minimality":
        return _minimality(surface, tau, d, s)
    if suite == "lifts":
        return _lifts(tau)
    if suite == "transversality":
        return _transversality(tau)
    if suite == "foliation":
        return _foliation(tau, d, s, seed, points)
    raise ParameterError(f"no verify suite named {suite!r}")
