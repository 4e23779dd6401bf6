"""Tests for the ambient isometry families and their pullback checks."""

from __future__ import annotations

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etau.core import (
    AmbientPoint,
    BasePoint,
    Model,
    ModelMismatchError,
    ParameterError,
    chord_length,
    convert_coords_arrays,
    convert_model,
    hyperbolic_distance,
    metric_arrays,
)
from etau.isometries import (
    AmbientIsometry,
    MobiusMap,
    Orientation,
    apply,
    apply_to_coords,
    apply_to_rows,
    arg_derivative,
    axis_translation_angle,
    axis_translation_isometry,
    compose,
    compose_rows,
    conversion_pullback_residual,
    conversion_pullback_residuals,
    disc_point_isometry,
    halfplane_graph_isometry,
    halfplane_reflection,
    identity_isometry,
    inverse,
    isometry_from_json,
    isometry_to_json,
    point_translation_angle,
    pullback_residual,
    pullback_residuals,
    push_forward,
    push_forward_arrays,
    rotation_isometry,
    scale_isometry,
    vertical_translation,
    _map_pullback_residuals,
)

RESIDUAL_TOL = 1e-9

TAUS = [0.0, 0.5, -0.5]


def halfspace_point(x: float, y: float, t: float) -> AmbientPoint:
    return AmbientPoint(BasePoint(Model.HALF_SPACE, x, y), t)


def cylinder_point(x: float, y: float, t: float) -> AmbientPoint:
    return AmbientPoint(BasePoint(Model.CYLINDER, x, y), t)


HALF_PROBES = [
    halfspace_point(0.4, 1.1, 0.2),
    halfspace_point(-1.3, 0.35, -0.8),
    halfspace_point(2.2, 2.6, 1.5),
]

CYL_PROBES = [
    cylinder_point(0.0, 0.0, 0.3),
    cylinder_point(0.45, -0.3, -1.1),
    cylinder_point(-0.6, 0.15, 0.9),
]


def family_members(tau: float) -> list[AmbientIsometry]:
    return [
        identity_isometry(tau, Model.HALF_SPACE),
        vertical_translation(0.7, tau, Model.CYLINDER),
        scale_isometry(2.5, tau),
        axis_translation_isometry(1.0, tau),
        disc_point_isometry(0.3 + 0.2j, tau),
        halfplane_graph_isometry(2.0, 0.5, 1.25, tau),
        rotation_isometry(0.9, tau),
        halfplane_reflection(0.5, tau),
    ]


def probes_for(iso: AmbientIsometry) -> list[AmbientPoint]:
    return HALF_PROBES if iso.model is Model.HALF_SPACE else CYL_PROBES


# -- pullback residuals --------------------------------------------------------


@pytest.mark.parametrize("tau", TAUS)
def test_all_families_have_tiny_pullback_residual(tau: float) -> None:
    for iso in family_members(tau):
        for p in probes_for(iso):
            assert pullback_residual(iso, p) < RESIDUAL_TOL, iso.family


@pytest.mark.parametrize("tau", TAUS)
def test_model_conversion_pullback_residual(tau: float) -> None:
    for p in HALF_PROBES + CYL_PROBES:
        assert conversion_pullback_residual(p, tau) < RESIDUAL_TOL


def _map_pullback_residual(push, p: AmbientPoint, model_to: Model, tau: float, step: float) -> float:
    """The array kernel at one point, for a push on (..., 3) coordinates."""
    return float(_map_pullback_residuals(push, p.coords()[None], p.model, model_to, tau, step)[0])


def test_pullback_detects_fiber_shear() -> None:
    # (x, y, t) -> (x, y, t + x) is not an isometry; the detector must see it.
    p = halfspace_point(0.4, 1.1, 0.2)
    shear = lambda c: np.stack([c[..., 0], c[..., 1], c[..., 2] + c[..., 0]], axis=-1)
    assert _map_pullback_residual(shear, p, Model.HALF_SPACE, 0.5, 2e-3) > 1.0


def test_pullback_detects_base_squeeze() -> None:
    p = halfspace_point(0.4, 1.1, 0.2)
    squeeze = lambda c: np.stack([1.1 * c[..., 0], c[..., 1], c[..., 2]], axis=-1)
    assert _map_pullback_residual(squeeze, p, Model.HALF_SPACE, 0.5, 2e-3) > 0.1


def _one_row_stencil_residual(push, p: AmbientPoint, model_to: Model, tau: float, step: float) -> float:
    """Reference: the same Richardson stencil with one push call per row."""
    coords = p.coords()

    def fourth_order_column(i: int, h: float) -> np.ndarray:
        samples = []
        for k in (-2.0, -1.0, 1.0, 2.0):
            shifted = coords.copy()
            shifted[i] += k * h
            samples.append(push(shifted[None])[0])
        m2, m1, p1, p2 = samples
        return (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)

    jac = np.empty((3, 3))
    for i in range(3):
        h = step * max(1.0, abs(coords[i]))
        coarse = fourth_order_column(i, h)
        fine = fourth_order_column(i, 0.5 * h)
        jac[:, i] = (16.0 * fine - coarse) / 15.0
    image = push(coords[None])[0]
    g_image = metric_arrays(model_to, tau, image[0], image[1])
    return float(np.linalg.norm(jac.T @ g_image @ jac - metric_arrays(p.model, tau, p.x, p.y)))


@pytest.mark.parametrize("tau", TAUS)
def test_stacked_stencil_matches_one_row_calls(tau: float) -> None:
    for iso in family_members(tau):
        push = lambda c, iso=iso: apply_to_coords(iso, c)
        for p in probes_for(iso):
            stacked = _map_pullback_residual(push, p, iso.model, tau, 2e-3)
            reference = _one_row_stencil_residual(push, p, iso.model, tau, 2e-3)
            assert abs(stacked - reference) <= 1e-12, iso.family
    for p in HALF_PROBES + CYL_PROBES:
        target = Model.CYLINDER if p.model is Model.HALF_SPACE else Model.HALF_SPACE
        push = lambda c, p=p: np.stack(convert_coords_arrays(p.model, tau, *c.T), axis=-1)
        reference = _one_row_stencil_residual(push, p, target, tau, 2e-3)
        assert abs(conversion_pullback_residual(p, tau) - reference) <= 1e-12


# -- per-row batches -------------------------------------------------------------

# Probes with zero coordinates, one of them a negative zero.
ZERO_PROBES = {
    Model.HALF_SPACE: [
        halfspace_point(0.0, 1.0, 0.0),
        halfspace_point(0.0, 0.5, -0.7),
        halfspace_point(-0.0, 2.0, 0.3),
    ],
    Model.CYLINDER: [
        cylinder_point(0.0, 0.0, 0.0),
        cylinder_point(0.0, -0.4, 0.0),
        cylinder_point(0.5, -0.0, 1.0),
    ],
}


def batch_members(tau: float) -> dict[tuple[Model, Orientation], list[AmbientIsometry]]:
    """family_members plus composed generic maps, grouped by model and orientation."""
    disc = disc_point_isometry(0.3 + 0.2j, tau)
    members = family_members(tau) + [
        compose(axis_translation_isometry(1.0, tau), scale_isometry(1.7, tau)),
        compose(halfplane_reflection(0.5, tau), axis_translation_isometry(1.0, tau)),
        compose(disc_point_isometry(-0.25 + 0.4j, tau), rotation_isometry(2.0, tau)),
        AmbientIsometry(disc.mobius, Orientation.REVERSING, 0.3, 0.0, tau),
    ]
    groups: dict[tuple[Model, Orientation], list[AmbientIsometry]] = {}
    for iso in members:
        groups.setdefault((iso.model, iso.orientation), []).append(iso)
    return groups


def _rows(model: Model, isos: list[AmbientIsometry]) -> tuple[list[AmbientIsometry], list[AmbientPoint]]:
    """Every isometry of a group at every probe of its model, one row each."""
    probes = (HALF_PROBES if model is Model.HALF_SPACE else CYL_PROBES) + ZERO_PROBES[model]
    return [iso for iso in isos for _ in probes], [p for _ in isos for p in probes]


@pytest.mark.parametrize("tau", TAUS)
def test_per_row_batches_equal_one_at_a_time_bit_for_bit(tau: float) -> None:
    groups = batch_members(tau)
    assert sum(len(isos) for isos in groups.values()) == len(family_members(tau)) + 4
    for (model, _), isos in groups.items():
        row_isos, points = _rows(model, isos)
        coords = np.array([p.coords() for p in points])
        # One row at a time means a (1, 3) array: a bare (3,) point runs
        # numpy's scalar complex product, which may round differently.
        one_at_a_time = [apply_to_coords(iso, c[None]) for iso, c in zip(row_isos, coords)]
        assert apply_to_rows(row_isos, coords).tobytes() == np.concatenate(one_at_a_time).tobytes()
        # rows may carry more axes: (n, 2, 3) holds each point and a lifted copy
        pairs = np.stack([coords, coords + [0.0, 0.0, 0.37]], axis=1)
        want = np.array([apply_to_coords(iso, pair) for iso, pair in zip(row_isos, pairs)])
        assert apply_to_rows(row_isos, pairs).tobytes() == want.tobytes()
        residuals = [pullback_residual(iso, p) for iso, p in zip(row_isos, points)]
        assert pullback_residuals(row_isos, coords).tolist() == residuals
        for iso in isos:  # one shared isometry over all rows
            assert pullback_residuals(iso, coords).tolist() == [pullback_residual(iso, p) for p in points]
            want = np.concatenate([apply_to_coords(iso, c[None]) for c in coords])
            assert apply_to_coords(iso, coords).tobytes() == want.tobytes()


@pytest.mark.parametrize("tau", TAUS)
def test_conversion_residuals_equal_one_at_a_time_in_both_directions(tau: float) -> None:
    for model, probes in ((Model.HALF_SPACE, HALF_PROBES), (Model.CYLINDER, CYL_PROBES)):
        points = probes + ZERO_PROBES[model]
        got = conversion_pullback_residuals(model, tau, np.array([p.coords() for p in points]))
        assert got.tolist() == [conversion_pullback_residual(p, tau) for p in points]
        assert np.all(got < RESIDUAL_TOL)


@pytest.mark.parametrize(
    "isos",
    [
        [scale_isometry(2.0, 0.5), rotation_isometry(0.9, 0.5)],
        [scale_isometry(2.0, 0.5), halfplane_reflection(0.5, 0.5)],
        [scale_isometry(2.0, 0.5), scale_isometry(2.0, 0.0)],
    ],
    ids=["model", "orientation", "tau"],
)
def test_per_row_batches_reject_mixed_isometries(isos) -> None:
    coords = np.array([p.coords() for p in HALF_PROBES[:2]])
    with pytest.raises(ParameterError, match="must share model, orientation and tau"):
        apply_to_rows(isos, coords)
    with pytest.raises(ParameterError, match="must share model, orientation and tau"):
        pullback_residuals(isos, coords)


def test_pullback_residual_rejects_a_point_of_another_model() -> None:
    with pytest.raises(ModelMismatchError):
        pullback_residual(scale_isometry(2.0, 0.5), CYL_PROBES[1])


def test_per_row_batches_need_one_isometry_per_row() -> None:
    coords = np.array([p.coords() for p in HALF_PROBES])
    with pytest.raises(ParameterError, match="2 isometries"):
        apply_to_rows([scale_isometry(2.0, 0.5)] * 2, coords)
    with pytest.raises(ParameterError, match="0 isometries"):
        pullback_residuals([], coords)


def push_forward_cases(tau: float) -> list[AmbientIsometry]:
    """Direct and reversing maps of both models, with nontrivial c where
    possible, and a disc map whose matrix is scaled by 1 + 1e-6: the same
    Moebius map, which MobiusMap's constructor accepts at any determinant
    (with dw = dz / (cz + d)^2 alone its differential read 1/s^2 =
    0.999998 of the finite difference)."""
    disc = disc_point_isometry(0.3 + 0.2j, tau)
    scaled = MobiusMap(*(w * (1.0 + 1e-6) for w in disc.mobius.matrix()), Model.CYLINDER)
    return family_members(tau) + [
        compose(halfplane_reflection(0.5, tau), axis_translation_isometry(1.0, tau)),
        AmbientIsometry(disc.mobius, Orientation.REVERSING, 0.3, 0.0, tau),
        replace(disc, mobius=scaled),
    ]


VECTORS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.3, -0.7, 0.4]])


@pytest.mark.parametrize("tau", [0.0, 0.5, -0.7])
def test_push_forward_is_the_differential_and_preserves_the_metric(tau: float) -> None:
    for iso in push_forward_cases(tau):
        coords = np.repeat([p.coords() for p in probes_for(iso)], len(VECTORS), axis=0)
        vectors = np.tile(VECTORS, (len(probes_for(iso)), 1))
        image, dv = push_forward(iso, coords, vectors)
        np.testing.assert_array_equal(image, apply_to_coords(iso, coords))
        h = 1e-3
        f = lambda k: apply_to_coords(iso, coords + k * h * vectors)
        fd = (8.0 * (f(1) - f(-1)) - (f(2) - f(-2))) / (12.0 * h)
        np.testing.assert_allclose(dv, fd, rtol=1e-8, atol=1e-10, err_msg=iso.family)
        g_image = metric_arrays(iso.model, tau, image[:, 0], image[:, 1])
        g_here = metric_arrays(iso.model, tau, coords[:, 0], coords[:, 1])
        np.testing.assert_allclose(
            np.einsum("ni,nij,nj->n", dv, g_image, dv),
            np.einsum("ni,nij,nj->n", vectors, g_here, vectors),
            rtol=1e-12,
            err_msg=iso.family,
        )


@pytest.mark.parametrize("tau", [0.0, 0.5, -0.7])
def test_push_forward_arrays_broadcasts_per_row_vectors(tau: float) -> None:
    for iso in push_forward_cases(tau):
        probes = np.array([p.coords() for p in probes_for(iso)])
        # (k, m) points, one tangent vector per row, shape (k, 1).
        pts = probes[None, :, :] * (1.0 + 0.1 * np.arange(len(VECTORS)))[:, None, None]
        got = push_forward_arrays(iso, pts[..., 0], pts[..., 1], *np.moveaxis(VECTORS[:, None, :], -1, 0))
        assert all(c.shape == pts.shape[:2] for c in got)
        image, dv = push_forward(iso, pts.reshape(-1, 3), np.repeat(VECTORS, len(probes), axis=0))
        np.testing.assert_array_equal(
            np.stack(got, axis=-1).reshape(-1, 5), np.column_stack([image[:, :2], dv]), err_msg=iso.family
        )


def _salted_rows(model: Model) -> np.ndarray:
    """The probes of a model and its zero probes, plus rows whose x or y is
    -0.0, +-inf or NaN."""
    coords = np.array([p.coords() for p in (HALF_PROBES if model is Model.HALF_SPACE else CYL_PROBES) + ZERO_PROBES[model]])
    salted = np.repeat(coords[:2], 4, axis=0)
    salted[:4, 0] = salted[4:, 1] = [-0.0, np.inf, -np.inf, np.nan]
    return np.concatenate([coords, salted])


@pytest.mark.parametrize("tau", TAUS)
def test_push_forward_image_is_the_apply_image_bit_for_bit(tau: float) -> None:
    # apply and the push-forward write the Moebius image w = (a z + b) r with
    # the same reciprocal r = 1 / (c z + d), so each point has one image.
    for (model, _), isos in batch_members(tau).items():
        coords = _salted_rows(model)
        x, y, t = coords.T
        row_isos, rows = [iso for iso in isos for _ in coords], np.tile(coords, (len(isos), 1))
        with np.errstate(all="ignore"):
            by_rows = apply_to_rows(row_isos, rows).reshape(len(isos), len(coords), 3)
            for iso, per_row in zip(isos, by_rows):
                want = apply_to_coords(iso, coords)[:, :2]
                assert per_row[:, :2].view(np.int64).tolist() == want.view(np.int64).tolist(), iso.family
                got = np.stack(push_forward_arrays(iso, x, y, 0.3, -0.7, t)[:2], axis=-1)
                assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), iso.family


# -- named family behaviour ----------------------------------------------------


def test_identity_fixes_points() -> None:
    iso = identity_isometry(0.5, Model.HALF_SPACE)
    p = HALF_PROBES[0]
    q = apply(iso, p)
    assert (q.x, q.y, q.t) == (p.x, p.y, p.t)


def test_vertical_translation_shifts_fiber_only() -> None:
    iso = vertical_translation(0.7, 0.5, Model.CYLINDER)
    p = CYL_PROBES[1]
    q = apply(iso, p)
    assert (q.x, q.y) == (p.x, p.y)
    assert q.t == pytest.approx(p.t + 0.7, abs=1e-15)


def test_scale_isometry_fixes_fiber_coordinate() -> None:
    iso = scale_isometry(2.0, 0.5)
    q = apply(iso, halfspace_point(0.7, 1.2, -0.3))
    assert (q.x, q.y, q.t) == pytest.approx((1.4, 2.4, -0.3), abs=1e-14)


def test_scale_isometry_rejects_nonpositive_factor() -> None:
    with pytest.raises(ParameterError):
        scale_isometry(0.0, 0.5)


def test_singularity_is_relative_to_the_entries() -> None:
    # |ad - bc| = 1e-13 is far from rounding's reach against a^2 + d^2 = 1 + 1e-26
    for factor in (1e-13, 1e13):
        image = apply_to_coords(scale_isometry(factor, 0.5), np.array([[0.7, 1.2, -0.3]]))[0]
        np.testing.assert_allclose(image, (0.7 * factor, 1.2 * factor, -0.3), rtol=1e-14, atol=0.0)
    # a determinant of 1 can be within rounding of zero against entries of 1e8
    with pytest.raises(ParameterError, match="singular"):
        MobiusMap.normalized(1e8, 1e8, 1e8, 1e8 + 1e-8, Model.HALF_SPACE)
    assert MobiusMap.normalized(1e8, 1e8, 1e8, 1e8 + 1e-4, Model.HALF_SPACE).model is Model.HALF_SPACE


@pytest.mark.parametrize("factor", [1e-200, 1e-15, 1e15, 1e300])
def test_scale_isometry_names_a_factor_past_the_float_safe_range(factor: float) -> None:
    with pytest.raises(ParameterError, match=re.escape(f"scale factor {factor} leaves the float-safe range")):
        scale_isometry(factor, 0.5)


def test_axis_translation_rejects_a_foot_past_the_float_range() -> None:
    # z = i goes to axis_foot/2 + i axis_foot^2
    with pytest.raises(ParameterError, match="axis foot 1e\\+300 leaves the float range"):
        axis_translation_isometry(1e300, 0.5)


def test_axis_translation_frozen_image() -> None:
    iso = axis_translation_isometry(1.0, 0.5)
    q = apply(iso, halfspace_point(0.2, 0.8, 0.1))
    assert q.x == pytest.approx(0.20588235294117646, abs=1e-15)
    assert q.y == pytest.approx(1.176470588235294, abs=1e-15)
    assert q.t == pytest.approx(2.751635327336065, abs=1e-12)


def test_axis_translation_branch_matches_closed_form() -> None:
    iso = axis_translation_isometry(1.3, 0.5)
    for p in HALF_PROBES:
        got = arg_derivative(iso, p.base)
        want = axis_translation_angle(complex(p.x, p.y))
        assert got == pytest.approx(want, abs=1e-12)


def test_disc_point_isometry_exchanges_origin_and_center() -> None:
    z0 = 0.3 + 0.2j
    iso = disc_point_isometry(z0, 0.5)
    origin = cylinder_point(0.0, 0.0, 0.0)
    center = cylinder_point(z0.real, z0.imag, 0.0)
    img = apply(iso, origin)
    assert (img.x, img.y) == pytest.approx((z0.real, z0.imag), abs=1e-15)
    assert img.t == pytest.approx(0.0, abs=1e-14)
    back = apply(iso, center)
    assert (back.x, back.y) == pytest.approx((0.0, 0.0), abs=1e-15)
    assert back.t == pytest.approx(0.0, abs=1e-14)


def test_disc_point_isometry_is_an_involution() -> None:
    iso = disc_point_isometry(0.3 + 0.2j, 0.5)
    p = cylinder_point(-0.4, 0.25, 0.7)
    q = apply(iso, apply(iso, p))
    assert (q.x, q.y, q.t) == pytest.approx((p.x, p.y, p.t), abs=1e-13)


def test_disc_point_branch_matches_closed_form() -> None:
    z0 = -0.25 + 0.4j
    iso = disc_point_isometry(z0, 0.5)
    for p in CYL_PROBES:
        got = arg_derivative(iso, p.base)
        want = point_translation_angle(z0, complex(p.x, p.y))
        assert got == pytest.approx(want, abs=1e-12)


def test_disc_point_isometry_rejects_boundary_center() -> None:
    with pytest.raises(ParameterError):
        disc_point_isometry(1.0 + 0.0j, 0.5)


@pytest.mark.parametrize(
    "build",
    [
        lambda: disc_point_isometry(complex(math.nan, 0.0), 0.5),
        lambda: rotation_isometry(math.nan, 0.5),
        lambda: vertical_translation(math.nan, 0.5, Model.CYLINDER),
        lambda: identity_isometry(math.inf, Model.HALF_SPACE),
        lambda: halfplane_graph_isometry(0.0, 1.0, math.inf, 0.5),
        lambda: MobiusMap.normalized(1.0, complex(0.0, math.inf), 0.0, 1.0, Model.CYLINDER),
        lambda: AmbientIsometry(
            MobiusMap.normalized(1.0, 0.0, 0.0, 1.0, Model.CYLINDER), Orientation.DIRECT, 0.0, math.nan, 0.5
        ),
    ],
    ids=["disc-point", "rotation", "vertical-shift", "identity-tau", "graph-height", "mobius", "branch-offset"],
)
def test_isometries_reject_non_finite_values(build) -> None:
    with pytest.raises(ParameterError, match="must be finite"):
        build()


def test_halfplane_graph_isometry_hits_target() -> None:
    iso = halfplane_graph_isometry(2.0, 0.5, 1.25, 0.5)
    q = apply(iso, halfspace_point(0.0, 1.0, 0.0))
    assert (q.x, q.y, q.t) == pytest.approx((2.0, 0.5, 1.25), abs=1e-14)


def test_rotation_fixes_origin_fiber() -> None:
    iso = rotation_isometry(0.9, 0.5)
    q = apply(iso, cylinder_point(0.0, 0.0, 0.55))
    assert (q.x, q.y) == pytest.approx((0.0, 0.0), abs=1e-15)
    assert q.t == pytest.approx(0.55, abs=1e-13)


def test_rotation_turns_base_by_angle() -> None:
    angle = 0.9
    iso = rotation_isometry(angle, 0.0)
    q = apply(iso, cylinder_point(0.5, 0.0, 0.0))
    assert q.x == pytest.approx(0.5 * math.cos(angle), abs=1e-14)
    assert q.y == pytest.approx(0.5 * math.sin(angle), abs=1e-14)


def test_reflection_mirrors_base_and_flips_fiber() -> None:
    iso = halfplane_reflection(0.5, 0.5)
    q = apply(iso, halfspace_point(0.2, 0.9, 0.3))
    assert (q.x, q.y, q.t) == pytest.approx((0.8, 0.9, -0.3), abs=1e-14)


# -- algebra: composition, inverses, coordinates -------------------------------


def test_compose_matches_sequential_apply() -> None:
    tau = 0.5
    outer = axis_translation_isometry(1.0, tau)
    inner = scale_isometry(1.7, tau)
    combo = compose(outer, inner)
    for p in HALF_PROBES:
        lhs = apply(combo, p)
        rhs = apply(outer, apply(inner, p))
        assert (lhs.x, lhs.y, lhs.t) == pytest.approx((rhs.x, rhs.y, rhs.t), abs=1e-12)


def test_compose_rows_keep_the_bits_of_the_pointwise_rule() -> None:
    tau = 0.5
    outers = [disc_point_isometry(c, tau) for c in (0.1 + 0.2j, -0.5j, 0.7, -0.3 - 0.6j)]
    inners = [rotation_isometry(a, tau) for a in (0.3, 1.0, -2.0, 3.0)]
    ref = AmbientPoint(BasePoint(Model.CYLINDER, 0.0, 0.0), 0.0)
    for combo, outer, inner in zip(compose_rows(outers, inners), outers, inners, strict=True):
        assert combo == compose(outer, inner)
        # the fiber shift as the point-by-point rule writes it, from two scalar applies
        unshifted = replace(combo, shift=0.0)
        assert combo.shift == apply(outer, apply(inner, ref)).t - apply(unshifted, ref).t


def test_inverse_round_trip() -> None:
    tau = -0.5
    for iso in family_members(tau):
        inv = inverse(iso)
        for p in probes_for(iso):
            q = apply(inv, apply(iso, p))
            assert (q.x, q.y, q.t) == pytest.approx((p.x, p.y, p.t), abs=1e-11), iso.family


def test_apply_to_coords_matches_pointwise_apply() -> None:
    iso = disc_point_isometry(0.3 + 0.2j, 0.5)
    coords = np.array([[p.x, p.y, p.t] for p in CYL_PROBES])
    batch = apply_to_coords(iso, coords)
    for row, p in zip(batch, CYL_PROBES):
        q = apply(iso, p)
        assert row == pytest.approx([q.x, q.y, q.t], abs=1e-13)


def test_apply_to_coords_matches_apply_for_reversing_maps() -> None:
    disc = disc_point_isometry(0.3 + 0.2j, 0.5)
    for iso, probes in (
        (halfplane_reflection(0.5, 0.5), HALF_PROBES),
        (AmbientIsometry(disc.mobius, Orientation.REVERSING, 0.3, 0.0, 0.5), CYL_PROBES),
    ):
        batch = apply_to_coords(iso, np.array([p.coords() for p in probes]))
        for row, p in zip(batch, probes):
            q = apply(iso, p)
            assert row == pytest.approx([q.x, q.y, q.t], abs=1e-13)


def test_apply_is_its_apply_to_coords_row_bit_for_bit() -> None:
    # apply runs the array kernel on a one-row array, so a point gets the bits
    # of its row in a batch; on a bare (3,) array numpy computes with complex
    # scalars, which round otherwise in about two fifths of these points.
    rng = np.random.default_rng(31)
    r, ang = 0.9 * np.sqrt(rng.uniform(size=2000)), rng.uniform(0.0, 2.0 * math.pi, 2000)
    coords = np.stack([r * np.cos(ang), r * np.sin(ang), rng.uniform(-2.0, 2.0, 2000)], axis=1)
    disc = disc_point_isometry(0.3 + 0.2j, 0.5)
    for iso in (disc, AmbientIsometry(disc.mobius, Orientation.REVERSING, 0.3, 0.0, 0.5)):
        points = [AmbientPoint(BasePoint(Model.CYLINDER, x, y), t) for x, y, t in coords.tolist()]
        got = np.array([apply(iso, p).coords() for p in points])
        assert got.view(np.int64).tolist() == apply_to_coords(iso, coords).view(np.int64).tolist()


def test_isometries_preserve_base_distance() -> None:
    p, q = HALF_PROBES[0], HALF_PROBES[2]
    ref = hyperbolic_distance(p.base, q.base)
    for iso in family_members(0.5):
        if iso.model is not Model.HALF_SPACE:
            continue
        got = hyperbolic_distance(apply(iso, p).base, apply(iso, q).base)
        assert got == pytest.approx(ref, rel=1e-12), iso.family


def test_isometries_preserve_short_chords() -> None:
    # chord_length is a short-segment quantity; its image error is cubic in
    # the separation, so a ~1e-3 chord should be preserved to ~1e-6 relative.
    tau = 0.5
    p = halfspace_point(0.4, 1.1, 0.2)
    q = halfspace_point(0.4008, 1.1005, 0.2007)
    ref = chord_length(p, q, tau)
    for iso in family_members(tau):
        if iso.model is not Model.HALF_SPACE:
            continue
        got = chord_length(apply(iso, p), apply(iso, q), tau)
        assert got == pytest.approx(ref, rel=1e-6), iso.family


def test_conversion_commutes_with_rotation() -> None:
    # Conjugating a disc rotation by the model change gives a half-space isometry.
    tau = 0.5
    rot = rotation_isometry(0.7, tau)
    for p in HALF_PROBES:
        lhs = convert_model(apply(rot, convert_model(p, tau)), tau)
        direct = apply(rot, convert_model(p, tau))
        rhs = convert_model(direct, tau)
        assert (lhs.x, lhs.y, lhs.t) == pytest.approx((rhs.x, rhs.y, rhs.t), abs=1e-13)


# -- serialization --------------------------------------------------------------


def test_json_round_trip_reproduces_action() -> None:
    for tau in (0.0, 0.5):
        for iso in family_members(tau):
            clone = isometry_from_json(isometry_to_json(iso))
            for p in probes_for(iso):
                a, b = apply(iso, p), apply(clone, p)
                assert (a.x, a.y, a.t) == pytest.approx((b.x, b.y, b.t), abs=1e-14)


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_json_round_trip_gives_an_equal_isometry(tau: float) -> None:
    for iso in family_members(tau):
        assert isometry_from_json(json.loads(json.dumps(isometry_to_json(iso)))) == iso, iso.family


def _scaled_matrix(data: dict) -> None:
    data["matrix"] = [[2.0 * re, 2.0 * im] for re, im in data["matrix"]]


@pytest.mark.parametrize(
    "spoil",
    [
        lambda data: data["matrix"][0].__setitem__(0, math.nan),
        lambda data: data["matrix"].pop(),
        lambda data: data.__setitem__("model", "torus"),
        lambda data: data.__setitem__("matrix", [[0.0, 0.0]] * 4),
        _scaled_matrix,
    ],
    ids=["nan-entry", "three-entries", "unknown-model", "zero-matrix", "determinant-4"],
)
def test_json_malformed_record_is_rejected(spoil) -> None:
    data = isometry_to_json(disc_point_isometry(0.3 + 0.2j, 0.5))
    spoil(data)
    with pytest.raises(ParameterError):
        isometry_from_json(data)


def test_json_payload_fields() -> None:
    data = isometry_to_json(disc_point_isometry(0.3 + 0.2j, 0.5))
    assert data["family"] == "disc_point"
    assert data["model"] == "cylinder"
    assert data["tau"] == 0.5
    assert "matrix" in data and "shift" in data and "branch_offset" in data


# -- property tests -------------------------------------------------------------


@st.composite
def halfspace_points(draw) -> AmbientPoint:
    x = draw(st.floats(-3.0, 3.0))
    y = draw(st.floats(0.05, 5.0))
    t = draw(st.floats(-3.0, 3.0))
    return halfspace_point(x, y, t)


@settings(max_examples=25, deadline=None)
@given(p=halfspace_points(), factor=st.floats(0.2, 5.0), tau=st.sampled_from(TAUS))
def test_scale_family_is_isometric_everywhere(p: AmbientPoint, factor: float, tau: float) -> None:
    assert pullback_residual(scale_isometry(factor, tau), p) < RESIDUAL_TOL


@settings(max_examples=25, deadline=None)
@given(p=halfspace_points(), tau=st.sampled_from(TAUS))
def test_conversion_is_isometric_everywhere(p: AmbientPoint, tau: float) -> None:
    assert conversion_pullback_residual(p, tau) < RESIDUAL_TOL


@settings(max_examples=25, deadline=None)
@given(
    p=halfspace_points(),
    x0=st.floats(-2.0, 2.0),
    y0=st.floats(0.2, 3.0),
    h=st.floats(-2.0, 2.0),
    tau=st.sampled_from(TAUS),
)
def test_graph_family_inverse_round_trip(
    p: AmbientPoint, x0: float, y0: float, h: float, tau: float
) -> None:
    iso = halfplane_graph_isometry(x0, y0, h, tau)
    q = apply(inverse(iso), apply(iso, p))
    assert (q.x, q.y, q.t) == pytest.approx((p.x, p.y, p.t), abs=1e-10)
