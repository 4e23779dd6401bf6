"""Generalized slabs: bounding-graph checks, annulus families, and audits.

A slab is the region between two vertical graphs swept by a family of
pairwise-isometric minimal annuli whose boundary circles escape the region,
one above and one below.  This module constructs the two example families
(translated catenoids over a flat slab, and catenoid stand-ins over tilted
graphs certified by the Douglas criterion) and audits the defining
conditions on sampled interior points.  A slab's window is a DISC_XY domain,
and a slab computes its bounding-graph check once and keeps it.  Each
annulus generator is the key of its one cached model annulus, read from the
catenoid's vertex grid: its edges have a closed form, so no mesh is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.random import default_rng

from .core import (
    BOUNDARY_MARGIN,
    AmbientPoint,
    BasePoint,
    ConvergenceError,
    FeasibilityError,
    InvalidPointError,
    Model,
    ParameterError,
    SpaceParams,
    chord_distances,
    chord_residuals,
    convert_coords_arrays,
    convert_model,
)
from .graphs import (
    Chart,
    GraphDomain,
    GraphFunction,
    graph_nu,
    hyperbolic_gradient_norm,
    variation,
)
from .isometries import (
    AmbientIsometry,
    apply_to_coords,
    apply_to_rows,
    compose_rows,
    disc_point_isometry,
    inverse,
    axis_translation_isometry,
    push_forward_arrays,
    require_in_model,
    vertical_translation,
)
from .surfaces import (
    CatenoidSpec,
    LeafSpec,
    _catenoid_grid,
    _grid_edges,
    _leaf_sides,
    catenoid_height,
    catenoid_neck_radius,
    catenoid_patch,
    catenoid_patch_tangents,
    catenoid_profile,
    catenoid_profile_inverse,
)

__all__ = [
    "AnnulusCheck",
    "AnnulusInstance",
    "BoundingGraphCheck",
    "CatenoidAnnulusGenerator",
    "SeparationReport",
    "SlabReport",
    "SlabSpec",
    "build_example1",
    "build_example2",
    "check_annulus_family",
    "check_bounding_graphs",
    "disc_window_domain",
    "graph_separation_probe",
    "halfplane_window_domain",
    "sample_interior_points",
    "slab_report_to_json",
    "slab_spec_descriptor",
    "with_overlapping_graphs",
    "with_shrunken_annuli",
]


# -- sampled windows for entire graphs ----------------------------------------


def _window_nodes(n: int) -> None:
    if n < 2:
        raise ParameterError(f"window needs at least 2 nodes per direction, got {n}")


def _masked_window(chart: Chart, bounds, n: int, mask: np.ndarray) -> GraphDomain:
    if not mask.any():
        raise ParameterError(f"no node of the {n}x{n} grid lies in the window")
    return GraphDomain(chart=chart, bounds=bounds, shape=(n, n), mask=mask)


def disc_window_domain(hyperbolic_radius: float, n: int) -> GraphDomain:
    """Square grid over the disc of hyperbolic radius R about the origin,
    nodes masked to the inscribed coordinate circle; the bounds are
    ((-rc, rc), (-rc, rc)) with rc = tanh(R/2).  Raises ParameterError when
    that circle rounds onto the ideal boundary, 1 - rc^2 <= BOUNDARY_MARGIN,
    or no node lies in it."""
    if not hyperbolic_radius > 0.0:
        raise ParameterError("window radius must be positive")
    _window_nodes(n)
    rc = math.tanh(0.5 * hyperbolic_radius)
    if not 1.0 - rc * rc > BOUNDARY_MARGIN:
        raise ParameterError(
            f"window radius {hyperbolic_radius} puts the window on the ideal boundary"
        )
    axis = np.linspace(-rc, rc, n)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    return _masked_window(Chart.DISC_XY, ((-rc, rc), (-rc, rc)), n, x * x + y * y <= rc * rc)


def halfplane_window_domain(
    center: tuple[float, float], hyperbolic_radius: float, n: int
) -> GraphDomain:
    """Bounding box of a hyperbolic disc in the half-plane, masked to the disc.

    A hyperbolic disc of radius r around (x0, y0) is the Euclidean disc with
    center (x0, y0 cosh r) and radius y0 sinh r, so the bounds are
    ((x0 - y0 sinh r, x0 + y0 sinh r), (y0 e^-r, y0 e^r)).  Raises
    ParameterError when those bounds are not finite or no node lies in the
    disc.
    """
    _window_nodes(n)
    x0, y0 = center
    if not y0 > 0.0:
        raise ParameterError("window center must lie in the upper half-plane")
    r = float(hyperbolic_radius)
    try:
        half_width, top = y0 * math.sinh(r), y0 * math.exp(r)
    except OverflowError:
        half_width = top = math.inf
    bounds = ((x0 - half_width, x0 + half_width), (y0 * math.exp(-r), top))
    if not np.all(np.isfinite(bounds)):
        raise ParameterError(f"window of radius {r} about {center} has non-finite bounds")
    x, y = GraphDomain(chart=Chart.HALFPLANE_XY, bounds=bounds, shape=(n, n)).node_grids()
    cosh_dist = 1.0 + ((x - x0) ** 2 + (y - y0) ** 2) / (2.0 * y * y0)
    return _masked_window(Chart.HALFPLANE_XY, bounds, n, cosh_dist <= math.cosh(r))


# -- annulus family ------------------------------------------------------------

# Samples per boundary circle in the fiber-margin checks.
_BOUNDARY_SAMPLES = 512


@dataclass(frozen=True)
class _ModelAnnulus:
    """The model annulus of one generator, read-only.

    a and v = b - a are the start points and vectors of the edges (lo, hi)
    of its vertex grid's triangles (_grid_segments), each once in lexicographic
    order, (E, 3) each; upper and lower are its boundary circles at w = 1
    and w = -1, _BOUNDARY_SAMPLES disc coordinates (n, 3) each.
    horizontal_bound is max over the edges of 2 |dz| / (1 - r2), |dz| the
    edge's horizontal length and r2 its larger endpoint |z|^2: a bound of
    the horizontal speed 2 |dz| / (1 - |z|^2) along every model edge
    (_congruence_bound).
    """

    spec: CatenoidSpec
    neck_radius: float
    sigma_max: float
    boundary_height: float
    a: np.ndarray
    v: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    horizontal_bound: float


@lru_cache(maxsize=8)
def _model_annulus(generator: CatenoidAnnulusGenerator) -> _ModelAnnulus:
    """The generator's model annulus, read from mesh_catenoid's vertex grid
    (surfaces._catenoid_grid) without forming the mesh's normals, nu or
    triangles; the grid is not kept."""
    spec = CatenoidSpec(tau=generator.tau, d=generator.d)
    rho = generator.rho_boundary
    neck_radius = catenoid_neck_radius(spec)
    # the grid and its edge ends are freed before horizontal_bound's temporaries
    # are formed, so the build's peak memory does not grow
    a, v = _grid_segments(*_catenoid_grid(spec, rho, generator.resolution))
    phi = np.linspace(0.0, 2.0 * math.pi, _BOUNDARY_SAMPLES, endpoint=False)
    upper, lower = (catenoid_patch(spec, rho, np.array(w), phi) for w in (1.0, -1.0))
    for array in (a, v, upper, lower):
        array.flags.writeable = False
    sigma_max = math.sqrt(rho - neck_radius)
    horizontal_bound = float(np.max(2.0 * np.hypot(v[:, 0], v[:, 1]) / (1.0 - _edge_extent(a, v)[0])))
    return _ModelAnnulus(
        spec, neck_radius, sigma_max, catenoid_profile(spec, rho), a, v, upper, lower, horizontal_bound
    )


def _grid_segments(vertices: np.ndarray, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Start points a and vectors v = b - a of the grid's edges (lo, hi)
    (surfaces._grid_edges), each once in lexicographic order."""
    lo, hi = _grid_edges(*shape)
    # take gathers the rows in about half the time of vertices[lo]
    a = vertices.take(lo, axis=0)
    return a, vertices.take(hi, axis=0) - a


def _edge_extent(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per edge a -> a + v, the largest |z|^2, |x| and |y| over its segment:
    each is convex along it, so the larger endpoint value."""
    b = a + v
    r2 = np.maximum(a[:, 0] * a[:, 0] + a[:, 1] * a[:, 1], b[:, 0] * b[:, 0] + b[:, 1] * b[:, 1])
    return r2, np.maximum(np.abs(a[:, 0]), np.abs(b[:, 0])), np.maximum(np.abs(a[:, 1]), np.abs(b[:, 1]))


@dataclass(frozen=True)
class AnnulusInstance:
    """One member of the annulus family: the generator's model annulus moved
    by the placement, which pins its reference vertex onto the point."""

    point: AmbientPoint
    placement: AmbientIsometry
    generator: CatenoidAnnulusGenerator
    w_reference: float

    def surface_coords(self, phi: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Ambient coordinates of the parametrized annulus.

        w in [-1, 1] is the signed regularized radial variable; |w| = 1 is
        the boundary pair and w = 0 the neck.
        """
        gen = self.generator
        coords = catenoid_patch(_model_annulus(gen).spec, gen.rho_boundary, w, phi)
        return apply_to_coords(self.placement, coords.reshape(-1, 3))

    def boundary_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Finely sampled boundary circles, (top, bottom) ordered by mean t:
        the placement applied to the model annulus' circles."""
        top, bottom = _boundary_circles([self])
        return top[0], bottom[0]

    def distance_to(self, q: AmbientPoint, accept_below: float = 0.0) -> float:
        """Ambient chord distance from q to the smooth annulus.

        core.chord_distances searches the patch parameters (phi, w), w
        clipped to [-1, 1], from the reference vertex (0, w_reference),
        which the placement pins onto the requested point; the surface
        derivatives are catenoid_patch_tangents pushed by the placement.
        When the chord from q to the reference vertex is already below
        accept_below, it is returned without a search: it is then an upper
        bound of the distance, not the minimum.
        """
        if q.model is not Model.CYLINDER:
            raise ParameterError("annulus instances live in the cylinder model")
        return float(_annulus_distances([self], q.coords()[None], accept_below)[0])


def _boundary_circles(instances: Sequence[AnnulusInstance]) -> tuple[np.ndarray, np.ndarray]:
    """Boundary circles (top, bottom), (n, _BOUNDARY_SAMPLES, 3) each, of
    instances sharing one generator: one apply_to_rows pass per model
    circle, then each instance's pair ordered by mean t."""
    model = _model_annulus(instances[0].generator)
    placements = [instance.placement for instance in instances]
    upper, lower = (
        apply_to_rows(placements, np.broadcast_to(circle, (len(instances),) + circle.shape))
        for circle in (model.upper, model.lower)
    )
    swap = ~(np.mean(upper[..., 2], axis=1) >= np.mean(lower[..., 2], axis=1))[:, None, None]
    return np.where(swap, lower, upper), np.where(swap, upper, lower)


def _annulus_distances(instances: Sequence[AnnulusInstance], q: np.ndarray, accept_below: float) -> np.ndarray:
    """distance_to from each row of the cylinder coordinates q (n, 3) to its
    instance, all sharing one generator.  One pass places every reference
    vertex and forms its chord as chord_distances does; only the rows whose
    chord is at or above accept_below run chord_distances' search."""
    gen = instances[0].generator
    spec = _model_annulus(gen).spec
    w_reference = np.array([instance.w_reference for instance in instances])
    vertices = catenoid_patch(spec, gen.rho_boundary, w_reference, np.zeros(len(instances)))
    residuals, _ = chord_residuals(
        Model.CYLINDER, gen.tau, q, apply_to_rows([instance.placement for instance in instances], vertices)
    )
    distances = np.sqrt(np.sum(residuals * residuals, axis=-1))
    for j in np.flatnonzero(distances >= accept_below):
        instance = instances[j]

        def annulus(params: np.ndarray) -> np.ndarray:
            return instance.surface_coords(params[:, 0], params[:, 1])

        def tangents(params: np.ndarray) -> np.ndarray:
            phi, w = params.T
            x, y, _ = catenoid_patch(spec, gen.rho_boundary, w, phi).T
            v = catenoid_patch_tangents(spec, gen.rho_boundary, w, phi)
            *_, dx, dy, dt = push_forward_arrays(instance.placement, x[:, None], y[:, None], *v.transpose(1, 0, 2))
            return np.stack([dx, dy, dt], axis=1)

        start = [[0.0, instance.w_reference]]
        search = (annulus, tangents, start, [-np.inf, -1.0], [np.inf, 1.0], accept_below)
        distances[j] = chord_distances(Model.CYLINDER, gen.tau, q[j : j + 1], *search)[0]
    return distances


@dataclass(frozen=True)
class CatenoidAnnulusGenerator:
    """Family rule p -> isometric image of one truncated catenoid through p.

    The generator is the key of its one model annulus (_model_annulus).  The
    placement composes two disc involutions (axis to the requested
    projection) with the vertical translation that pins the reference vertex
    to p exactly; every instance is therefore an isometric copy of the model
    annulus.  The model annulus is centred on the fiber level t = 0, so p's
    fiber coordinate is its offset from the neck and must stay below the
    annulus half-height.
    """

    tau: float
    d: float
    rho_boundary: float
    resolution: tuple[int, int] = (65, 96)

    def __call__(self, p: AmbientPoint) -> AnnulusInstance:
        (instance,) = self.place([p])
        if isinstance(instance, InvalidPointError):
            raise instance
        return instance

    def place(self, points: Sequence[AmbientPoint]) -> list[AnnulusInstance | InvalidPointError]:
        """The instance through each point, or the InvalidPointError that
        rules it out, in one pass: one profile inversion, the Moebius algebra
        per point in Python scalars and the applies as apply_to_rows passes,
        so each instance has the bits of its point placed alone.  When an
        image off the disc stops the pass, each point is placed alone, so
        only its own row fails."""
        model = _model_annulus(self)
        cylinder = [p if p.model is Model.CYLINDER else convert_model(p, self.tau) for p in points]
        out: list = [
            InvalidPointError(f"fiber offset {pc.t} exceeds the annulus half-height {model.boundary_height}")
            if abs(pc.t) >= model.boundary_height
            else None
            for pc in cylinder
        ]
        rows = [i for i, row in enumerate(out) if row is None]
        if not rows:
            return out
        offsets = np.array([cylinder[i].t for i in rows])
        heights, signs = np.abs(offsets), np.where(offsets >= 0.0, 1.0, -1.0)
        rho = np.full(len(rows), model.neck_radius)
        rho[heights != 0.0] = catenoid_profile_inverse(model.spec, heights[heights != 0.0])
        rho = np.minimum(rho, self.rho_boundary)
        b_ref = [math.tanh(0.5 * r) for r in rho.tolist()]
        try:
            moves = compose_rows(
                [disc_point_isometry(complex(cylinder[i].x, cylinder[i].y), self.tau) for i in rows],
                [disc_point_isometry(complex(b, 0.0), self.tau) for b in b_ref],
            )
            pinned = np.stack([b_ref, np.zeros(len(rows)), signs * heights], axis=1)
            images = apply_to_rows(moves, require_in_model(Model.CYLINDER, pinned))
            lifts = (offsets - require_in_model(Model.CYLINDER, images)[:, 2]).tolist()
            placements = compose_rows([vertical_translation(h, self.tau, Model.CYLINDER) for h in lifts], moves)
        except InvalidPointError as error:
            if len(rows) > 1:
                return [self.place([p])[0] for p in points]
            return [error if row is None else row for row in out]
        w_reference = signs * np.sqrt(np.maximum(rho - model.neck_radius, 0.0)) / model.sigma_max
        for i, placement, w in zip(rows, placements, w_reference.tolist()):
            out[i] = AnnulusInstance(point=points[i], placement=placement, generator=self, w_reference=w)
        return out


# Veltkamp's splitting constant 2^27 + 1 for float64.
_SPLITTER = 134217729.0


def _exact_dot(pairs) -> float:
    """sum(x * y for x, y in pairs), correctly rounded: each product is split
    into p = fl(x y) and its exact error (Dekker 1971), and math.fsum rounds
    the sum of those once."""
    terms = []
    for x, y in pairs:
        p = x * y
        xs, ys = _SPLITTER * x, _SPLITTER * y
        xh, yh = xs - (xs - x), ys - (ys - y)
        xl, yl = x - xh, y - yh
        terms += (p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl)
    return math.fsum(terms)


def _hermitian_form(*rows) -> tuple[float, float, float, float]:
    """Coefficients (A, Re B, Im B, C), each correctly rounded, of the real
    quadratic sum(sign |m z + n|^2 for sign, m, n in rows), sign = +-1,
    written A |z|^2 + 2 Re(B z) + C."""
    a, br, bi, c = [], [], [], []
    for sign, m, n in rows:
        mr, mi = sign * m.real, sign * m.imag
        a += ((mr, m.real), (mi, m.imag))
        br += ((mr, n.real), (mi, n.imag))
        bi += ((mi, n.real), (-mr, n.imag))
        c += ((sign * n.real, n.real), (sign * n.imag, n.imag))
    return _exact_dot(a), _exact_dot(br), _exact_dot(bi), _exact_dot(c)


def _placement_forms(placement: AmbientIsometry, tau: float):
    """The placement's fiber tau with its Hermitian forms D = |cz + d|^2 -
    |az + b|^2 and, only when that tau differs from the metric's tau,
    P = |cz + d|^2 (None otherwise)."""
    a, b, c, d = placement.mobius.matrix()
    p_form = _hermitian_form((1.0, c, d)) if placement.tau != tau else None
    return placement.tau, _hermitian_form((1.0, c, d), (-1.0, a, b)), p_form


def _congruence_bound(instances: Sequence[AnnulusInstance]) -> float:
    """Bound of the sup distance between the edge-length spectra of any two
    of the model annulus and the instances, which share one generator.

    An instance's spectrum is the sorted lengths of its image edges: the
    model edge p -> p + v, moved by the placement with matrix (a b; c d),
    ad - bc = 1, has as length the integral over s in [0, 1] of its speed
    at z = p + s v, one Gauss panel per edge (tests/spectra_reference.py).
    With D = |cz + d|^2 - |az + b|^2 = A |z|^2 + 2 Re(B z) + C, that speed
    has the horizontal part 2 |dz| / D and, when the placement's fiber tau
    is the metric's, the vertical part vt + 4 tau Im(dD dz) / D, dD =
    A conj(z) + B the z-derivative of D.  The bound reads each placement
    only through _placement_forms, as the spectra do.  An instance whose
    fiber tau differs from the metric's, or whose form has C <= 0, is not
    covered and makes the bound infinite.  Otherwise divide D by C:
    D / C = D0 + dD with D0 = 1 - |z|^2, the model's own form, and
    dD = (A/C + 1) |z|^2 + 2 Re(B z / C), so |dD| <= e = delta
    (|z|^2 + 2|x| + 2|y|) with delta = max(|A/C + 1|, |Re B / C|, |Im B / C|).
    The generator's matrices keep a = conj(d), b = conj(c) exactly, so their
    correctly rounded forms have A = -C and B = 0: delta = 0, D = C D0, and
    each speed is the model's with its horizontal part 2 |dz| / D0 scaled by
    1/C.  As sqrt(h^2 + w^2) is 1-Lipschitz in h, two instances' speeds then
    differ by at most |1/C_i - 1/C_j| 2 |dz| / D0, and the model is the case
    C = 1.  When delta > 0, an instance's speed also strays from that scaled
    model speed by at most

        (2 |dz| / C) e / (D0 (D0 - e)) + 4 |tau| (|k| e / (D0 (D0 - e)) + delta (|k| + |dx| + |dy|) / (D0 - e)),

    k = Im(conj(z) dz), from the horizontal part and the twist term 4 tau
    Im(dD dz) / D; D0 - e > 0 is needed, else the bound is infinite.  Along
    an edge dz and k are constant and |z|^2, |x|, |y| are largest at an
    endpoint (_edge_extent), so each term is bounded per edge.  Gauss
    weights are positive and sorting does not increase a sup distance, so
    the bound on the speeds bounds the spectra:

        (max - min of {1, 1/C_i}) * horizontal_bound + the two largest of {0, residual_i},

    residual_i the per-edge maximum above (0 when delta = 0).  A NaN
    coefficient makes the bound NaN.  A reversing placement only flips the
    vertical part's sign, so it is covered like a direct one.  The bound is
    on the speeds in exact arithmetic; spectra measured in float64 add up to
    about 1e-10 of rounding (tests/spectra_reference.py).
    """
    gen = instances[0].generator
    model = _model_annulus(gen)
    forms = [_placement_forms(instance.placement, gen.tau) for instance in instances]
    d_forms = np.array([d_form for _, d_form, _ in forms])
    # ~(C <= 0), unlike C > 0, keeps a NaN C covered, so the NaN reaches the bound.
    covered = np.array([tau_f == gen.tau for tau_f, _, _ in forms]) & ~(d_forms[:, 3] <= 0.0)
    a, br, bi, c = d_forms[covered].T
    inv_c = 1.0 / c
    delta = np.maximum(np.abs(a * inv_c + 1.0), np.maximum(np.abs(br), np.abs(bi)) * inv_c)
    residuals = np.full(len(instances) + 1, np.inf)
    residuals[-1] = 0.0  # the model annulus
    residuals[:-1][covered] = [
        0.0 if d == 0.0 else _form_residual(model, gen.tau, s, d) for s, d in zip(inv_c.tolist(), delta.tolist())
    ]
    spread = np.ptp(np.append(inv_c, 1.0))
    return float(spread * model.horizontal_bound + np.sort(residuals)[-2:].sum())


def _form_residual(model: _ModelAnnulus, tau: float, inv_c: float, delta: float) -> float:
    """Largest distance over the model edges between an instance's speed and
    the model speed with its horizontal part scaled by inv_c = 1/C, for
    the form defect delta > 0 (_congruence_bound); infinite when D / C may
    vanish on an edge."""
    vx, vy = model.v[:, 0], model.v[:, 1]
    r2, x, y = _edge_extent(model.a, model.v)
    d0 = 1.0 - r2
    e = delta * (r2 + 2.0 * (x + y))
    low = d0 - e
    if np.any(low <= 0.0):
        return math.inf
    k = np.abs(model.a[:, 0] * vy - model.a[:, 1] * vx)
    horizontal = 2.0 * inv_c * np.hypot(vx, vy) * e / (d0 * low)
    twist = 4.0 * abs(tau) * (k * e / (d0 * low) + delta * (k + np.abs(vx) + np.abs(vy)) / low)
    return float(np.max(horizontal + twist))


# -- slab specification and checks ---------------------------------------------


@dataclass(frozen=True)
class SlabSpec:
    """Region between two entire graphs with its annulus family.

    lower and upper are the graphs' height functions (x, y) -> t in the
    cylinder model, defined on the whole base disc; the window, a DISC_XY
    domain, is where the audit samples points and node values.  The
    generator must produce pairwise-isometric annuli through interior points.
    Metadata only describes the construction in reports; nothing reads it.
    _bounding keeps the slab's check_bounding_graphs once computed; replace
    starts a new slab without it.
    """

    domain: GraphDomain
    tau: float
    lower: Callable[[np.ndarray, np.ndarray], np.ndarray]
    upper: Callable[[np.ndarray, np.ndarray], np.ndarray]
    annulus_generator: CatenoidAnnulusGenerator
    metadata: dict
    _bounding: BoundingGraphCheck | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.domain.chart is not Chart.DISC_XY:
            raise ParameterError("a slab window lies on the disc coordinate chart DISC_XY")


@dataclass(frozen=True)
class BoundingGraphCheck:
    height_bound: float
    normal_bound: float
    disjoint: bool
    min_gap: float


@dataclass(frozen=True)
class AnnulusCheck:
    """Audit of one interior point.

    distance is the chord distance from the point to its annulus.  When the
    annulus' reference vertex already lies within the containment tolerance
    it is that vertex's distance, an upper bound of the minimum; otherwise it
    is the result of AnnulusInstance.distance_to's chord search.  The
    spreads are max - min of the fiber coordinate t along the placed top
    (above) and bottom (below) boundary circles: 0 when the placement keeps
    them horizontal, as at tau 0.  A point that got no annulus, or one whose
    placement is no isometry of the slab's space (another fiber tau), gets
    an infinite distance, margins of -inf and NaN spreads.
    """

    point: AmbientPoint
    contains_point: bool
    boundary_above: bool
    boundary_below: bool
    distance: float
    above_margin: float
    below_margin: float
    above_spread: float
    below_spread: float


@dataclass(frozen=True)
class SlabReport:
    """Audit of a slab at its points.

    spectra_deviation is a bound, from every placement's Hermitian form, of
    the edge-length spectra distance between any two of the model annulus
    and the generated instances (check_annulus_family): infinite when some
    placement is not covered by it, NaN when a form is, 0.0 when no point
    got an annulus, and NaN for slabs whose graphs fail the bounding check.
    spectra_ok is that bound below _SPECTRA_TOL.
    """

    height_bound: float
    normal_bound: float
    disjoint: bool
    annulus_checks: tuple[AnnulusCheck, ...]
    spectra_deviation: float
    spectra_ok: bool
    passed: bool
    metadata: dict


def check_bounding_graphs(slab: SlabSpec) -> BoundingGraphCheck:
    """Height bound, vertical-component bound, and disjointness of the
    graphs, from their values at the window's active nodes.

    The slab computes it on first use and keeps it.
    """
    if slab._bounding is None:
        lower, upper = (
            GraphFunction.from_base_callable(slab.domain, slab.tau, f) for f in (slab.lower, slab.upper)
        )
        active = slab.domain.active_mask()
        h0 = float(max(np.max(np.abs(lower.values[active])), np.max(np.abs(upper.values[active]))))
        c = float(min(np.min(graph_nu(lower)[active]), np.min(graph_nu(upper)[active])))
        gap = float(np.min((upper.values - lower.values)[active]))
        check = BoundingGraphCheck(height_bound=h0, normal_bound=c, disjoint=gap > 0.0, min_gap=gap)
        object.__setattr__(slab, "_bounding", check)
    return slab._bounding


def _window_test(domain: GraphDomain) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Elementwise test that base points (x, y) lie in the window's bounds
    and on an active node's cell; the axes and the mask are read once."""
    (a1, b1), (a2, b2) = domain.bounds
    q1, q2 = domain.axes()
    mask = domain.active_mask()

    def inside(x, y):
        i = np.clip(np.searchsorted(q1, x), 0, domain.shape[0] - 1)
        j = np.clip(np.searchsorted(q2, y), 0, domain.shape[1] - 1)
        return (a1 <= x) & (x <= b1) & (a2 <= y) & (y <= b2) & mask[i, j]

    return inside


# check_annulus_family: an annulus contains its point when the chord distance
# is below _CONTAINS_TOL times the slab scale; the model annulus and every
# instance must have edge-length spectra within _SPECTRA_TOL of each other.
_CONTAINS_TOL = 1e-6
_SPECTRA_TOL = 1e-6


def check_annulus_family(slab: SlabSpec, points: list[AmbientPoint], seed: int = 0) -> SlabReport:
    """Audit the slab definition at the given interior points.

    Per point: the generated annulus passes through it (ambient distance
    below _CONTAINS_TOL times the slab scale) and its boundary circles clear
    the graphs along fibers, one above and one below.  The family must be
    congruent: _congruence_bound, read from every placement's Hermitian
    form, bounds the edge-length spectra distance between any two of the
    model annulus and the instances, and must stay below _SPECTRA_TOL; no
    spectrum is measured.  Each stage is one array pass over all points
    (window, placements, reference chords, boundary circles), one pass per
    orientation when the placements mix them; a point with no annulus, or
    with a placement of another fiber tau, gets a failed record, and
    AnnulusCheck says when a recorded distance is an upper bound.  The
    bounding graphs are the slab's kept check_bounding_graphs.  seed is
    unused: the audit draws nothing.
    """
    bounding = check_bounding_graphs(slab)
    base_report = dict(
        height_bound=bounding.height_bound,
        normal_bound=bounding.normal_bound,
        disjoint=bounding.disjoint,
        metadata=dict(slab.metadata),
    )
    if not (bounding.disjoint and bounding.normal_bound > 0.0):
        return SlabReport(
            annulus_checks=(),
            spectra_deviation=float("nan"),
            spectra_ok=False,
            passed=False,
            **base_report,
        )

    scale = max(1.0, 2.0 * bounding.height_bound)
    cylinder = [p if p.model is Model.CYLINDER else convert_model(p, slab.tau) for p in points]
    coords = np.array([(q.x, q.y, q.t) for q in cylinder]).reshape(-1, 3)
    x, y, t = coords.T
    inside = _window_test(slab.domain)(x, y)
    between = (slab.lower(x, y) < t) & (t < slab.upper(x, y))
    for i in np.flatnonzero(~(inside & between))[:1]:
        if not inside[i]:
            raise InvalidPointError(f"point projection {(cylinder[i].x, cylinder[i].y)} is outside the window")
        raise InvalidPointError(f"point at t={cylinder[i].t} is not strictly between the graphs")

    gen = slab.annulus_generator
    placed = gen.place(points)
    instances = [instance for instance in placed if isinstance(instance, AnnulusInstance)]
    # a point without an annulus, or whose placement is no isometry of the
    # cylinder model of the generator's tau, keeps these failed values
    distance, spreads = np.full(len(points), np.inf), np.full((2, len(points)), np.nan)
    above, below = np.full((2, len(points)), -np.inf)
    passes: dict = {}  # the audited rows by orientation: apply_to_rows takes one orientation a pass
    for i, instance in enumerate(placed):
        if isinstance(instance, AnnulusInstance):
            placement = instance.placement
            if placement.model is Model.CYLINDER and placement.tau == gen.tau:
                passes.setdefault(placement.orientation, []).append(i)
    for rows in passes.values():
        audited = [placed[i] for i in rows]
        distance[rows] = _annulus_distances(audited, coords[rows], _CONTAINS_TOL * scale)
        top, bottom = _boundary_circles(audited)
        # signed clearances along fibers: the top circle above the upper graph, the bottom one below the lower
        above[rows] = np.min(top[..., 2] - slab.upper(top[..., 0], top[..., 1]), axis=1)
        below[rows] = np.min(-(bottom[..., 2] - slab.lower(bottom[..., 0], bottom[..., 1])), axis=1)
        spreads[:, rows] = np.ptp(top[..., 2], axis=1), np.ptp(bottom[..., 2], axis=1)
    checks = tuple(
        AnnulusCheck(p, d < _CONTAINS_TOL * scale, a > 0.0, b > 0.0, d, a, b, *spread)
        for p, d, a, b, *spread in zip(points, distance.tolist(), above.tolist(), below.tolist(), *spreads.tolist())
    )

    deviation = _congruence_bound(instances) if instances else 0.0
    spectra_ok = deviation < _SPECTRA_TOL

    passed = spectra_ok and all(c.contains_point and c.boundary_above and c.boundary_below for c in checks)
    return SlabReport(
        annulus_checks=checks,
        spectra_deviation=deviation,
        spectra_ok=spectra_ok,
        passed=passed,
        **base_report,
    )


# -- example constructions -------------------------------------------------------

_NECK_SOLVE_BUDGET = 100
# Height of example 2's annulus boundary circles above the upper translate's
# sup, so they clear it along every fiber.
_EXAMPLE2_CLEARANCE = 0.3


def _solve_catenoid_half_height(tau: float, target: float) -> float:
    """Neck parameter whose catenoid half-height equals the target.

    The half-height increases with d, so after doubling an upper bracket
    from d = 1 a secant iteration through the last two iterates runs inside
    the bracket [lo, hi] of d values that straddle the root; a secant step
    that leaves it is replaced by bisection.  Stops when a step moves d by
    at most 1e-12 d or the bracket is that narrow; raises ConvergenceError
    when _NECK_SOLVE_BUDGET steps do not get there.
    """
    limit = 0.5 * math.pi * math.sqrt(1.0 + 4.0 * tau * tau)
    if not 0.0 < target < limit:
        raise FeasibilityError(
            f"half-height target {target} outside the attainable range (0, {limit})"
        )

    def excess(d: float) -> float:
        return 0.5 * catenoid_height(CatenoidSpec(tau=tau, d=d)) - target

    lo, hi = 1e-3, 1.0
    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo >= 0.0:
        raise FeasibilityError(f"half-height target {target} is below the smallest neck's")
    while f_hi < 0.0:
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
        if hi > 1e8:
            raise FeasibilityError(f"no neck parameter reaches half-height {target}")
        f_hi = excess(hi)
    (d0, f0), (d1, f1) = (lo, f_lo), (hi, f_hi)
    for _ in range(_NECK_SOLVE_BUDGET):
        d = d1 - f1 * (d1 - d0) / (f1 - f0) if f1 != f0 else 0.5 * (lo + hi)
        if not lo < d < hi:
            d = 0.5 * (lo + hi)
        f = excess(d)
        if f == 0.0 or abs(d - d1) <= 1e-12 * d or hi - lo <= 1e-12 * hi:
            return d
        if f < 0.0:
            lo = d
        else:
            hi = d
        (d0, f0), (d1, f1) = (d1, f1), (d, f)
    raise ConvergenceError(
        f"neck parameter for half-height {target} not found in {_NECK_SOLVE_BUDGET} steps"
    )


@dataclass(frozen=True)
class _LinearHeight:
    alpha: float
    beta: float

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.alpha * x + self.beta * y


@dataclass(frozen=True)
class _Translate:
    """The vertical translate u + shift of the height function u."""

    u: Callable[[np.ndarray, np.ndarray], np.ndarray]
    shift: float

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.u(x, y) + self.shift


def build_example1(
    sp: SpaceParams,
    epsilon: float,
    window_radius: float = 10.0,
    grid: int = 129,
    annulus_resolution: tuple[int, int] = (65, 96),
) -> SlabSpec:
    """Flat slab of height pi sqrt(1+4 tau^2) - |tau| pi - epsilon in the
    cylinder model, swept by translated rotational catenoids.

    The neck parameter is root-found so the catenoid half-height exceeds
    (pi/2) sqrt(1+4 tau^2) - epsilon/4, and the truncation radius places the
    boundary circles halfway between the slab top and the attainable height.
    """
    tau = sp.tau
    root = math.sqrt(1.0 + 4.0 * tau * tau)
    eps_max = math.pi * root - 2.0 * abs(tau) * math.pi
    if not 0.0 < epsilon < eps_max:
        raise FeasibilityError(
            f"epsilon must lie in (0, {eps_max}) = (0, pi sqrt(1+4 tau^2) - 2|tau| pi), "
            f"got {epsilon}"
        )
    height = math.pi * root - abs(tau) * math.pi - epsilon
    half = 0.5 * height
    target = 0.5 * math.pi * root - 0.25 * epsilon
    d = _solve_catenoid_half_height(tau, target)
    spec = CatenoidSpec(tau=tau, d=d)
    half_height = 0.5 * catenoid_height(spec)
    boundary_height = 0.5 * (half + half_height)
    rho_boundary = catenoid_profile_inverse(spec, boundary_height)

    generator = CatenoidAnnulusGenerator(
        tau=tau,
        d=d,
        rho_boundary=rho_boundary,
        resolution=annulus_resolution,
    )
    chain_left = 0.5 * math.pi * root - abs(tau) * math.pi - 0.5 * epsilon
    metadata = {
        "construction": "example1",
        "tau": tau,
        "epsilon": epsilon,
        "height": height,
        "half_height": half,
        "d": d,
        "catenoid_half_height": half_height,
        "boundary_height": boundary_height,
        "rho_boundary": rho_boundary,
        "window_radius": window_radius,
        "height_chain_ok": chain_left < half_height - abs(tau) * math.pi,
    }
    return SlabSpec(
        domain=disc_window_domain(window_radius, grid),
        tau=tau,
        # the slices t = -half and t = half translate the zero section
        lower=_Translate(_LinearHeight(0.0, 0.0), -half),
        upper=_Translate(_LinearHeight(0.0, 0.0), half),
        annulus_generator=generator,
        metadata=metadata,
    )


def build_example2(
    sp: SpaceParams,
    graph_choice: str,
    r: float,
    h: float,
    C: float,
    alpha: float = 0.4,
    beta: float = 0.0,
    window_radius: float = 10.0,
    grid: int = 129,
    annulus_resolution: tuple[int, int] = (65, 96),
) -> SlabSpec:
    """Slab between vertical translates of a gradient-bounded entire graph,
    u = alpha x + beta y on a disc window; graph_choice must be 'linear'.

    The Douglas criterion 2 C r < h < (cosh r - 1)/sinh r certifies the
    least-area annulus over every r-ball; the sweeping family itself uses a
    truncated catenoid whose boundary circles clear both translates.  The
    translate offset is (h + V)/2 for window variation V, and infeasible
    parameter triples raise with the violated inequality.
    """
    tau = sp.tau
    if graph_choice != "linear":
        raise ParameterError(f"graph choice must be 'linear', got {graph_choice!r}")
    if not (r > 0.0 and h > 0.0 and C > 0.0):
        raise ParameterError("r, h, C must be positive")
    douglas_bound = math.tanh(0.5 * r)  # (cosh r - 1)/sinh r, without overflow
    if not 2.0 * C * r < h:
        raise FeasibilityError(f"need 2 C r < h: 2 C r = {2.0 * C * r} >= h = {h}")
    if not h < douglas_bound:
        raise FeasibilityError(
            f"need h < (cosh r - 1)/sinh r = {douglas_bound}: got h = {h}"
        )
    gradient_cap = douglas_bound / (2.0 * r)
    if not C < gradient_cap:
        raise FeasibilityError(
            f"need C < (cosh r - 1)/(2 r sinh r) = {gradient_cap}: got C = {C}"
        )

    domain = disc_window_domain(window_radius, grid)
    height_fn = _LinearHeight(alpha, beta)
    base_graph = GraphFunction.from_base_callable(domain, tau, height_fn)
    active = domain.active_mask()
    sup_gradient = float(np.max(hyperbolic_gradient_norm(base_graph)[active]))
    if sup_gradient > C + 1e-12:
        raise FeasibilityError(
            f"gradient bound violated on the window: sup |grad u| = {sup_gradient} > C = {C}"
        )

    values = base_graph.values
    oscillation = variation(base_graph)
    h_prime = 0.5 * (h + oscillation)
    sup_height = float(np.max(np.abs(values[active])))
    boundary_height = h_prime + sup_height + _EXAMPLE2_CLEARANCE
    limit = 0.5 * math.pi * math.sqrt(1.0 + 4.0 * tau * tau)
    if boundary_height >= limit - 1e-3:
        raise FeasibilityError(
            f"annulus boundary height {boundary_height} unreachable (catenoid limit {limit})"
        )
    target = 0.5 * (boundary_height + limit)
    d = _solve_catenoid_half_height(tau, target)
    spec = CatenoidSpec(tau=tau, d=d)
    rho_boundary = catenoid_profile_inverse(spec, boundary_height)

    generator = CatenoidAnnulusGenerator(
        tau=tau,
        d=d,
        rho_boundary=rho_boundary,
        resolution=annulus_resolution,
    )
    metadata = {
        "construction": "example2",
        "graph": graph_choice,
        "tau": tau,
        "r": r,
        "h": h,
        "C": C,
        "alpha": alpha,
        "beta": beta,
        "sup_gradient": sup_gradient,
        "variation": oscillation,
        "h_prime": h_prime,
        "boundary_height": boundary_height,
        "d": d,
        "rho_boundary": rho_boundary,
        "window_radius": window_radius,
        "douglas_threshold": douglas_bound,
        "douglas_annulus_wins": h < douglas_bound,
    }
    return SlabSpec(
        domain=domain,
        tau=tau,
        lower=_Translate(height_fn, -h_prime),
        upper=_Translate(height_fn, h_prime),
        annulus_generator=generator,
        metadata=metadata,
    )


# -- sampling and negative controls ----------------------------------------------


# sample_interior_points draws base points within this fraction of the
# window radius and gives up after _SAMPLE_DRAWS_PER_POINT draws per point.
_SAMPLE_RADIAL_FRACTION = 0.8
_SAMPLE_DRAWS_PER_POINT = 1000


def sample_interior_points(slab: SlabSpec, count: int, seed: int = 0) -> list[AmbientPoint]:
    """Seeded points strictly between the graphs, inside the sampled window.

    Base points are drawn about the centre of the window's hyperbolic disc,
    the origin, within _SAMPLE_RADIAL_FRACTION of its radius, read back from
    the bounds that disc_window_domain lays out.  Raises ConvergenceError
    when the draw budget runs out first, as when the upper graph is nowhere
    above the lower.
    """
    if count < 1:
        raise ParameterError("need at least one sample point")
    rng = default_rng(seed)
    domain = slab.domain
    radius = 2.0 * math.atanh(domain.bounds[0][1])
    inside = _window_test(domain)
    points: list[AmbientPoint] = []
    for _ in range(_SAMPLE_DRAWS_PER_POINT * count):
        rho = _SAMPLE_RADIAL_FRACTION * radius * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        rc = math.tanh(0.5 * rho)
        x, y = rc * math.cos(angle), rc * math.sin(angle)
        if not inside(x, y):
            continue
        lo, hi = float(slab.lower(x, y)), float(slab.upper(x, y))
        if not lo < hi:
            continue
        t = lo + (0.1 + 0.8 * rng.uniform()) * (hi - lo)
        points.append(AmbientPoint(BasePoint(Model.CYLINDER, x, y), t))
        if len(points) == count:
            return points
    raise ConvergenceError(
        f"sampled {len(points)} of {count} points in {_SAMPLE_DRAWS_PER_POINT * count} draws"
    )


def with_shrunken_annuli(slab: SlabSpec, factor: float = 0.6) -> SlabSpec:
    """Negative control: truncate the annuli at factor times the slab's
    half-height, half the least gap between the graphs, so the boundary
    escape fails."""
    if not 0.0 < factor < 1.0:
        raise ParameterError("shrink factor must lie in (0, 1)")
    bounding = check_bounding_graphs(slab)
    half = 0.5 * bounding.min_gap
    if not half > 0.0:
        raise ParameterError(f"the graphs leave no gap to shrink into: least gap {2.0 * half}")
    gen = slab.annulus_generator
    rho_small = catenoid_profile_inverse(CatenoidSpec(tau=gen.tau, d=gen.d), factor * half)
    control = f"annuli shrunken to {factor} of the half-height"
    shrunken = replace(
        slab,
        annulus_generator=replace(gen, rho_boundary=rho_small),
        metadata={**slab.metadata, "negative_control": control},
    )
    # the same window, tau and graphs: the control keeps the slab's check
    object.__setattr__(shrunken, "_bounding", bounding)
    return shrunken


def with_overlapping_graphs(slab: SlabSpec) -> SlabSpec:
    """Negative control: collapse the slab by using the lower graph twice."""
    control = "upper graph replaced by the lower graph"
    return replace(slab, upper=slab.lower, metadata={**slab.metadata, "negative_control": control})


# -- separation probe -------------------------------------------------------------


@dataclass(frozen=True)
class SeparationReport:
    verdict: str
    positive_components: int
    negative_components: int
    positive_count: int
    negative_count: int
    interface_components: int


def _component_count(mask: np.ndarray, diagonal: bool) -> int:
    """Connected components of a 2-D mask's True cells: 4-connected, or
    8-connected when diagonal.

    Union-find by rounds: each cell points at a smaller cell of its component;
    every edge between two trees hooks the larger root under the smaller, and
    pointer jumping then flattens the trees.  A round with an edge between two
    trees removes a root, so the loop ends.
    """
    cell = np.arange(mask.size).reshape(mask.shape)
    pairs = [(cell[1:, :], cell[:-1, :], mask[1:, :] & mask[:-1, :])]
    pairs.append((cell[:, 1:], cell[:, :-1], mask[:, 1:] & mask[:, :-1]))
    if diagonal:
        pairs.append((cell[1:, 1:], cell[:-1, :-1], mask[1:, 1:] & mask[:-1, :-1]))
        pairs.append((cell[1:, :-1], cell[:-1, 1:], mask[1:, :-1] & mask[:-1, 1:]))
    u = np.concatenate([a[m] for a, _, m in pairs])
    v = np.concatenate([b[m] for _, b, m in pairs])
    parent = np.arange(mask.size)
    while True:
        ru, rv = parent[u], parent[v]
        cross = ru != rv
        if not np.any(cross):
            break
        np.minimum.at(parent, np.maximum(ru, rv)[cross], np.minimum(ru, rv)[cross])
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    cells = cell[mask]
    return int(np.count_nonzero(parent[cells] == cells))


def graph_separation_probe(graph: GraphFunction, leaf: LeafSpec) -> SeparationReport:
    """Classify graph nodes by the leaf's side function and count components.

    Verdicts: 'two_components' when each side forms a single connected
    region, 'no_intersection' when the leaf misses the sampled window, and
    'inconclusive' otherwise (resolution too coarse for the interface).
    """
    domain = graph.domain
    tau = graph.tau
    if leaf.tau != tau:
        raise ParameterError("graph and leaf must share the bundle curvature")
    x, y = domain.base_grids()
    t = graph.values
    if domain.model is not Model.HALF_SPACE:
        x, y, t = convert_coords_arrays(domain.model, tau, x, y, t)
    axis_inv = inverse(axis_translation_isometry(leaf.s, tau))
    coords = np.stack(np.broadcast_arrays(x, y, t), axis=-1).reshape(-1, 3)
    labels = _leaf_sides(coords, leaf.scale, leaf.d, leaf.s, tau, axis_inv).reshape(domain.shape)
    active = domain.active_mask()
    labels = np.where(active, labels, 0)

    pos_n = _component_count(labels > 0, diagonal=False)
    neg_n = _component_count(labels < 0, diagonal=False)
    pos_count = int(np.sum(labels > 0))
    neg_count = int(np.sum(labels < 0))

    cells = (
        (labels[:-1, :-1] > 0) | (labels[1:, :-1] > 0) | (labels[:-1, 1:] > 0) | (labels[1:, 1:] > 0)
    ) & (
        (labels[:-1, :-1] < 0) | (labels[1:, :-1] < 0) | (labels[:-1, 1:] < 0) | (labels[1:, 1:] < 0)
    )
    interface_n = _component_count(cells, diagonal=True)

    if pos_count == 0 or neg_count == 0:
        verdict = "no_intersection"
    elif pos_n == 1 and neg_n == 1:
        verdict = "two_components"
    else:
        verdict = "inconclusive"
    return SeparationReport(
        verdict=verdict,
        positive_components=int(pos_n),
        negative_components=int(neg_n),
        positive_count=pos_count,
        negative_count=neg_count,
        interface_components=int(interface_n),
    )


# -- serialization ------------------------------------------------------------------


def slab_spec_descriptor(spec: SlabSpec) -> dict:
    """JSON-ready description of a slab: window and generator."""
    domain = spec.domain
    gen = spec.annulus_generator
    return {
        "chart": domain.chart.name,
        "bounds": [list(domain.bounds[0]), list(domain.bounds[1])],
        "shape": list(domain.shape),
        "tau": spec.tau,
        "metadata": dict(spec.metadata),
        "generator": {
            "kind": "translated_catenoid",
            "d": gen.d,
            "rho_boundary": gen.rho_boundary,
            "resolution": list(gen.resolution),
        },
    }


def slab_report_to_json(report: SlabReport) -> dict:
    return {
        "height_bound": report.height_bound,
        "normal_bound": report.normal_bound,
        "disjoint": report.disjoint,
        "spectra_deviation": report.spectra_deviation,
        "spectra_ok": report.spectra_ok,
        "pass": report.passed,
        "annulus_checks": [
            {
                "point": {
                    "model": c.point.model.name,
                    "x": c.point.x,
                    "y": c.point.y,
                    "t": c.point.t,
                },
                "contains_point": c.contains_point,
                "boundary_above": c.boundary_above,
                "boundary_below": c.boundary_below,
                "distance": c.distance,
                "above_margin": c.above_margin,
                "below_margin": c.below_margin,
                "above_spread": c.above_spread,
                "below_spread": c.below_spread,
            }
            for c in report.annulus_checks
        ],
        "metadata": report.metadata,
    }
