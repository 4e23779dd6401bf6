"""Generalized slabs: bounding-graph checks, annulus families, and audits.

A slab is the region between two vertical graphs swept by a family of
pairwise-isometric minimal annuli whose boundary circles escape the region,
one above and one below.  This module constructs the two example families
(translated catenoids over a flat slab, and catenoid stand-ins over tilted
graphs certified by the Douglas criterion) and audits the defining
conditions on sampled interior points.  A slab's window is a DISC_XY domain,
and a slab computes its bounding-graph check once and keeps it.  Each
annulus generator is the key of its one cached model annulus, the radius and
fiber levels of its boundary circles; the family's congruence is certified
from the shape of each placement's matrix, and for plane heights the
boundary margins are read from the same matrices in closed form, so no
mesh, vertex grid or sampled circle is built.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
    require_finite,
    require_in_model,
)
from .graphs import Chart, GraphDomain, GraphFunction, graph_nu
from .isometries import (
    AmbientIsometry,
    _transports,
    apply_to_coords,
    apply_to_rows,
    axis_translation_isometry,
    inverse,
    push_forward_arrays,
)
from .surfaces import (
    CatenoidSpec,
    LeafSpec,
    _catenoid_half_height,
    _catenoid_radial,
    _half_height_limit,
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
    ((-rc, rc), (-rc, rc)) with rc = tanh(R/2).  The mask compares each
    node's x * x + y * y, an outer sum of the squared axis, with rc^2.
    Raises ParameterError when that circle rounds onto the ideal boundary,
    1 - rc^2 <= BOUNDARY_MARGIN, or no node lies in it."""
    if not hyperbolic_radius > 0.0:
        raise ParameterError("window radius must be positive")
    _window_nodes(n)
    rc = math.tanh(0.5 * hyperbolic_radius)
    if not 1.0 - rc * rc > BOUNDARY_MARGIN:
        raise ParameterError(
            f"window radius {hyperbolic_radius} puts the window on the ideal boundary"
        )
    axis = np.linspace(-rc, rc, n)
    square = axis * axis
    return _masked_window(Chart.DISC_XY, ((-rc, rc), (-rc, rc)), n, np.add.outer(square, square) <= rc * rc)


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

# Samples per boundary circle of AnnulusInstance.boundary_coords and of the
# sampled margins of non-plane heights (_boundary_margins).
_BOUNDARY_SAMPLES = 512


@dataclass(frozen=True)
class _ModelAnnulus:
    """The model annulus of one generator, read-only: its catenoid, its
    boundary height, and the disc radius of its boundary circles, which lie
    at the fiber levels +boundary_height (w = 1) and -boundary_height (w =
    -1) as catenoid_patch gives them."""

    spec: CatenoidSpec
    boundary_height: float
    radius: float


@lru_cache(maxsize=8)
def _model_annulus(generator: CatenoidAnnulusGenerator) -> _ModelAnnulus:
    """The generator's model annulus, built once per generator: the profile
    at the truncation radius and catenoid_patch's radius at w = +-1, so no
    circle is sampled and no vertex grid or mesh is formed."""
    spec = CatenoidSpec(tau=generator.tau, d=generator.d)
    _, _, radius = _catenoid_radial(spec, generator.rho_boundary, 1.0)
    return _ModelAnnulus(spec, catenoid_profile(spec, generator.rho_boundary), float(radius))


@lru_cache(maxsize=8)
def _model_circles(generator: CatenoidAnnulusGenerator) -> tuple[np.ndarray, np.ndarray]:
    """The model annulus' boundary circles (upper, lower), catenoid_patch at
    w = 1 and w = -1: _BOUNDARY_SAMPLES disc coordinates (n, 3) each,
    read-only.  Built on first use, for boundary_coords and the sampled
    margins of non-plane heights."""
    spec = _model_annulus(generator).spec
    phi = np.linspace(0.0, 2.0 * math.pi, _BOUNDARY_SAMPLES, endpoint=False)
    circles = tuple(catenoid_patch(spec, generator.rho_boundary, np.array(w), phi) for w in (1.0, -1.0))
    for array in circles:
        array.flags.writeable = False
    return circles


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
        the placement applied to the model annulus' circles
        (_model_circles, _BOUNDARY_SAMPLES points each)."""
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
    placements = [instance.placement for instance in instances]
    upper, lower = (
        apply_to_rows(placements, np.broadcast_to(circle, (len(instances),) + circle.shape))
        for circle in _model_circles(instances[0].generator)
    )
    swap = ~(np.mean(upper[..., 2], axis=1) >= np.mean(lower[..., 2], axis=1))[:, None, None]
    return np.where(swap, lower, upper), np.where(swap, upper, lower)


def _boundary_margins(slab: SlabSpec, instances: Sequence[AnnulusInstance]) -> tuple[np.ndarray, ...]:
    """(above, below, above_spread, below_spread) of instances sharing one
    generator and orientation: the least signed clearance along fibers of
    the top boundary circle over the upper graph and of the bottom one
    under the lower graph, and max - min of t along each circle.

    Plane heights (_PlaneHeight on both sides, as every builder makes) read
    them from the placement matrices (_plane_margins), exact or a lower
    bound.  Other heights read _BOUNDARY_SAMPLES points of each placed
    circle (_boundary_circles): there the margins are sampled minima, which
    can exceed the true ones, and the spreads sampled ranges."""
    if isinstance(slab.lower, _PlaneHeight) and isinstance(slab.upper, _PlaneHeight):
        return _plane_margins(slab.lower, slab.upper, instances)
    top, bottom = _boundary_circles(instances)
    return (
        np.min(top[..., 2] - slab.upper(top[..., 0], top[..., 1]), axis=1),
        np.min(-(bottom[..., 2] - slab.lower(bottom[..., 0], bottom[..., 1])), axis=1),
        np.ptp(top[..., 2], axis=1),
        np.ptp(bottom[..., 2], axis=1),
    )


def _plane_margins(
    lower: _PlaneHeight, upper: _PlaneHeight, instances: Sequence[AnnulusInstance]
) -> tuple[np.ndarray, ...]:
    """_boundary_margins for plane heights, in closed form from each
    placement's matrix (a b; conj(b) conj(a)), which _congruent certifies.

    The model circle |z| = r at level t_m goes to the base circle of radius
    r (|a|^2 - |b|^2) / D, D = |a|^2 - |b|^2 r^2, centred on the image of
    -r^2 b / a, the mirror in the circle of the pole -conj(a) / conj(b)
    (Beardon, The Geometry of Discrete Groups, Secs. 3 and 4); one
    apply_to_rows of that point and of (0, 0, +-t_m) gives the centre, row
    signs included, and the levels t_c.  Along the circle the fiber is t_c
    + 4 tau arg(1 + (c/d) z) (isometries._branch), so it spans exactly
    t_c -+ 4 |tau| arcsin rho, rho = |b| r / |a|: each spread
    is 8 |tau| arcsin rho.  The plane s + alpha x + beta y peaks on the
    circle at s + (alpha, beta) . centre + radius |(alpha, beta)|, so the
    above margin (t_c - 4 |tau| arcsin rho) - that peak is the least
    clearance when tau = 0 or the plane is flat, and a lower bound of it
    otherwise; the below margin likewise.  Top and bottom go by t_c.
    D and |a|^2 - |b|^2 are formed as (|a| - |b| r)(|a| + |b| r) and (|a| -
    |b|)(|a| + |b|)."""
    model = _model_annulus(instances[0].generator)
    placements = [instance.placement for instance in instances]
    a, b = np.array([(p.mobius.a, p.mobius.b) for p in placements], dtype=complex).T
    r, h = model.radius, model.boundary_height
    size_a, size_b = np.abs(a), np.abs(b)
    reach = size_b * r
    radius = r * ((size_a - size_b) * (size_a + size_b)) / ((size_a - reach) * (size_a + reach))
    tilt = 4.0 * abs(placements[0].tau) * np.arcsin(reach / size_a)
    # per row: the model circles' centres (0, 0, +-h) and the mirror point
    mirror = -(r * r) * b / a
    points = np.zeros((len(placements), 3, 3))
    points[:, 0, 2], points[:, 1, 2] = h, -h
    points[:, 2, 0], points[:, 2, 1] = mirror.real, mirror.imag
    images = apply_to_rows(placements, points)
    top, bottom = np.max(images[:, :2, 2], axis=1), np.min(images[:, :2, 2], axis=1)
    cx, cy = images[:, 2, 0], images[:, 2, 1]

    def peak(height: _PlaneHeight, side: float) -> np.ndarray:
        slope = math.hypot(height.alpha, height.beta)
        return height.shift + height.alpha * cx + height.beta * cy + side * radius * slope

    above = (top - tilt) - peak(upper, 1.0)
    below = -((bottom + tilt) - peak(lower, -1.0))
    return above, below, 2.0 * tilt, 2.0 * tilt


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
            _, _, radius = _catenoid_radial(spec, gen.rho_boundary, w)
            x, y = radius * np.cos(phi), radius * np.sin(phi)
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

    The generator is the key of its one model annulus (_model_annulus): tau,
    the neck parameter d and the truncation radius rho_boundary fix it.  The
    placement composes two disc involutions (axis to the requested
    projection) and then translates along the fibers so that the reference
    vertex lands on p, which adds the lift to the product's fiber shift;
    every instance is therefore an isometric copy of the model annulus.
    The model annulus is centred on the fiber level t = 0, so p's fiber
    coordinate is its offset from the neck and must stay below the annulus
    half-height.
    """

    tau: float
    d: float
    rho_boundary: float

    def __call__(self, p: AmbientPoint) -> AnnulusInstance:
        (instance,) = self.place([p])
        if isinstance(instance, InvalidPointError):
            raise instance
        return instance

    def place(self, points: Sequence[AmbientPoint]) -> list[AnnulusInstance | InvalidPointError]:
        """The instance through each point, or the InvalidPointError that
        rules it out, in one pass: one profile inversion (at most 4 table
        reads a point, catenoid_profile_inverse), then one
        isometries._transports pass that sends each point's reference vertex
        onto it, as array passes over the rows: the involutions' product,
        whose fiber shift takes the vertical lift, so each placement's
        matrix is that product's; objects are made only for the returned
        instances.  A point placed alone goes through the same
        passes, so each row has its bits.  When an image off the disc stops
        the pass, each point is placed alone, so only its own row fails.
        Every matrix has the shape (a b; conj(b) conj(a)) exactly, which
        the audit reads (_congruent), and from which it reads the boundary
        margins, exact or a lower bound (AnnulusCheck)."""
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
        targets = np.array([(cylinder[i].x, cylinder[i].y, cylinder[i].t) for i in rows])
        heights, signs = np.abs(targets[:, 2]), np.where(targets[:, 2] >= 0.0, 1.0, -1.0)
        # height 0 inverts to the neck radius exactly: the Newton loop stops at sigma = 0
        rho = np.minimum(catenoid_profile_inverse(model.spec, heights), self.rho_boundary)
        b_ref = np.array([math.tanh(0.5 * r) for r in rho.tolist()])
        try:
            pinned = require_in_model(Model.CYLINDER, np.stack([b_ref, np.zeros(len(rows)), signs * heights], axis=1))
            placements = _transports(pinned, targets, self.tau)
        except InvalidPointError as error:
            if len(rows) > 1:
                return [self.place([p])[0] for p in points]
            return [error if row is None else row for row in out]
        sigma_max, _, _ = _catenoid_radial(model.spec, self.rho_boundary, 0.0)
        w_reference = signs * np.sqrt(np.maximum(rho - catenoid_neck_radius(model.spec), 0.0)) / sigma_max
        for i, placement, w in zip(rows, placements, w_reference.tolist()):
            out[i] = AnnulusInstance(point=points[i], placement=placement, generator=self, w_reference=w)
        return out


def _congruent(placement: AmbientIsometry, tau: float) -> bool:
    """The placement moves the model annulus onto an isometric copy in the
    cylinder model of fiber tau tau: its model and tau are the metric's,
    and its matrix has the SU(1,1) shape (a b; conj(b) conj(a)) exactly,
    with the pole outside the closed disc by _normalized_rows' test,
    whose 1e-12 margin is far above the rounding of abs, so |b| < |a|.

    Read with no arithmetic on the entries.  For such a matrix the form
    D = |cz + d|^2 - |az + b|^2 is C (1 - |z|^2), C = |a|^2 - |b|^2 = ad -
    bc > 0, whatever C is (Beardon, The Geometry of Discrete Groups, Sec.
    4): every edge speed 2 |ad - bc| |dz| / D and every vertical term dD / D
    is the model's, so every edge-length spectrum is the model annulus'
    (tests/spectra_reference.py measures them).  The generator's placements
    keep that shape bit for bit (CatenoidAnnulusGenerator.place).  A NaN
    entry fails the equality tests."""
    a, b, c, d = placement.mobius.matrix()
    return (
        placement.model is Model.CYLINDER
        and placement.tau == tau
        and c == b.conjugate()
        and d == a.conjugate()
        and abs(c) * (1.0 + 1e-12) < abs(d)
    )


# -- slab specification and checks ---------------------------------------------


@dataclass(frozen=True)
class SlabSpec:
    """Region between two entire graphs with its annulus family.

    lower and upper are the graphs' height functions (x, y) -> t in the
    cylinder model, defined on the whole base disc; the window, a DISC_XY
    domain, is where the audit samples points.  The
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
    """sup |t| and inf nu over both graphs and inf (upper - lower) over the
    window: its disc's exact extremes when exact, else node samples."""

    height_bound: float
    normal_bound: float
    disjoint: bool
    min_gap: float
    exact: bool


@dataclass(frozen=True)
class AnnulusCheck:
    """Audit of one interior point.

    distance is the chord distance from the point to its annulus.  When the
    annulus' reference vertex already lies within the containment tolerance
    it is that vertex's distance, an upper bound of the minimum; otherwise it
    is the result of AnnulusInstance.distance_to's chord search.  The
    margins are the least signed clearance along fibers of the placed top
    circle over the upper graph (above) and of the bottom one under the
    lower graph (below); the spreads are max - min of the fiber coordinate
    t along those circles.  For plane heights (every slab the builders make)
    they are closed forms of the placement matrix (_plane_margins): the
    spreads exactly 8 |tau| arcsin(|c| r / |d|), 0.0 at tau 0; the margins
    exact at tau 0 or against a flat plane, else a lower bound.  For other
    heights all four are read at _BOUNDARY_SAMPLES points of each placed
    circle, so a margin may exceed the least clearance and a spread fall
    short of the range.  A point that got no annulus, or one whose
    placement is not certified congruent (_congruent: another model or
    fiber tau, or a matrix off the SU(1,1) shape), gets an infinite
    distance, margins of -inf and NaN spreads.
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

    spectra_deviation is a bound of the edge-length spectra distance
    between any two of the model annulus and the generated instances
    (check_annulus_family): 0.0 when every placement has the shape that
    _congruent certifies, and when no point got an annulus; infinite when
    some placement has not (another model or fiber tau, or a matrix off
    (a b; conj(b) conj(a)) with |b| < |a|, a NaN entry included); NaN for
    slabs whose graphs fail the bounding check.  spectra_ok is that bound
    equal to 0.0.  The boundary margins of annulus_checks are exact, a lower
    bound or sampled as AnnulusCheck says.
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
    graphs: _plane_check when both heights are _PlaneHeight, else from
    their values at the window's active nodes.  The slab keeps it."""
    if slab._bounding is None:
        if isinstance(slab.lower, _PlaneHeight) and isinstance(slab.upper, _PlaneHeight):
            check = _plane_check(slab.tau, _window_radius(slab.domain), slab.lower, slab.upper)
        else:
            lower, upper = (
                GraphFunction.from_base_callable(slab.domain, slab.tau, f) for f in (slab.lower, slab.upper)
            )
            active = slab.domain.active_mask()
            h0 = float(max(np.max(np.abs(lower.values[active])), np.max(np.abs(upper.values[active]))))
            c = float(min(np.min(graph_nu(lower)[active]), np.min(graph_nu(upper)[active])))
            gap = float(np.min((upper.values - lower.values)[active]))
            check = BoundingGraphCheck(height_bound=h0, normal_bound=c, disjoint=gap > 0.0, min_gap=gap, exact=False)
        object.__setattr__(slab, "_bounding", check)
    return slab._bounding


def _window_radius(domain: GraphDomain) -> float:
    """The larger of the window's half-width and its farthest active node's
    radius, at most 1: rc = tanh(R/2) for disc_window_domain(R, n).  The
    squared node radii x * x + y * y are an outer sum of the squared axes,
    with the bits of the node grids' sums."""
    q1, q2 = domain.axes()
    r2 = np.add.outer(q1 * q1, q2 * q2)[domain.active_mask()]
    half_width = max(abs(bound) for bounds in domain.bounds for bound in bounds)
    return min(max(half_width, math.sqrt(float(np.max(r2)))), 1.0)


def _plane_check(tau: float, radius: float, lower: _PlaneHeight, upper: _PlaneHeight) -> BoundingGraphCheck:
    """Exact extremes of planes u = alpha x + beta y + s over |z| <= radius:
    sup |u| = |s| + radius m, m = |(alpha, beta)|, and inf nu = 1/sqrt(1 +
    f(r*)^2), as graphs._tilt's |(a, b)| = |(1 - |z|^2) (alpha, beta)/2 +
    2 tau (y, -x)| is at most f(r) = (1 - r^2) m/2 + 2 |tau| r on |z| = r,
    which peaks at r* = |tau|/(m/2) clipped to [0, radius]."""

    def least_nu(height: _PlaneHeight) -> float:
        half_slope = 0.5 * math.hypot(height.alpha, height.beta)
        r = radius if abs(tau) >= half_slope * radius else abs(tau) / half_slope
        tilt = (1.0 - r * r) * half_slope + 2.0 * abs(tau) * r
        return 1.0 / math.sqrt(1.0 + tilt * tilt)

    h0 = max(abs(f.shift) + radius * math.hypot(f.alpha, f.beta) for f in (lower, upper))
    gap = (upper.shift - lower.shift) - radius * math.hypot(upper.alpha - lower.alpha, upper.beta - lower.beta)
    return BoundingGraphCheck(
        height_bound=h0, normal_bound=min(least_nu(lower), least_nu(upper)), disjoint=gap > 0.0, min_gap=gap, exact=True
    )


def _window_contains(domain: GraphDomain) -> Callable[[float, float], bool]:
    """Test that a base point (x, y) of Python floats lies in the window's
    bounds and on an active node's cell, the first node at or past it on
    each axis; the axes and the mask are read once."""
    (a1, b1), (a2, b2) = domain.bounds
    q1, q2 = (axis.tolist() for axis in domain.axes())
    mask = domain.active_mask()

    def inside(x: float, y: float) -> bool:
        if not (a1 <= x <= b1 and a2 <= y <= b2):
            return False
        return bool(mask[min(bisect_left(q1, x), len(q1) - 1), min(bisect_left(q2, y), len(q2) - 1)])

    return inside


# check_annulus_family: an annulus contains its point when the chord distance
# is below _CONTAINS_TOL times the slab scale.
_CONTAINS_TOL = 1e-6


def check_annulus_family(slab: SlabSpec, points: list[AmbientPoint], seed: int = 0) -> SlabReport:
    """Audit the slab definition at the given interior points.

    Per point: the generated annulus passes through it (ambient distance
    below _CONTAINS_TOL times the slab scale) and its boundary circles clear
    the graphs along fibers, one above and one below.  The family must be
    congruent: _congruent reads every placement's matrix shape, which
    certifies that the model annulus and the instances have one edge-length
    spectrum, so spectra_deviation is 0.0 when every placement passes and
    inf otherwise; no spectrum is measured.  The same test picks the rows
    to audit.  The window test reads each point in Python scalars
    (_window_contains); every later stage is one array pass over the
    audited points (placements, reference chords, boundary margins), one
    pass per orientation when the placements mix them.  The margins and spreads come
    from _boundary_margins: in closed form from the placement matrices for
    plane heights, exact at tau 0 or against a flat plane and a lower bound
    of the least clearance otherwise; sampled on the placed circles for
    other heights (AnnulusCheck).  A point with no annulus, or
    with a placement that fails _congruent, gets a failed record, and
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
    contains = _window_contains(slab.domain)
    inside = np.array([contains(q.x, q.y) for q in cylinder], dtype=bool)
    between = (slab.lower(x, y) < t) & (t < slab.upper(x, y))
    for i in np.flatnonzero(~(inside & between))[:1]:
        if not inside[i]:
            raise InvalidPointError(f"point projection {(cylinder[i].x, cylinder[i].y)} is outside the window")
        raise InvalidPointError(f"point at t={cylinder[i].t} is not strictly between the graphs")

    gen = slab.annulus_generator
    placed = gen.place(points)
    # a point without an annulus, or whose placement fails _congruent, keeps these failed values
    distance, spreads = np.full(len(points), np.inf), np.full((2, len(points)), np.nan)
    above, below = np.full((2, len(points)), -np.inf)
    passes: dict = {}  # the audited rows by orientation: apply_to_rows takes one orientation a pass
    congruent = True
    for i, instance in enumerate(placed):
        if isinstance(instance, AnnulusInstance):
            if _congruent(instance.placement, gen.tau):
                passes.setdefault(instance.placement.orientation, []).append(i)
            else:
                congruent = False
    for rows in passes.values():
        audited = [placed[i] for i in rows]
        distance[rows] = _annulus_distances(audited, coords[rows], _CONTAINS_TOL * scale)
        above[rows], below[rows], spreads[0, rows], spreads[1, rows] = _boundary_margins(slab, audited)
    checks = tuple(
        AnnulusCheck(p, d < _CONTAINS_TOL * scale, a > 0.0, b > 0.0, d, a, b, *spread)
        for p, d, a, b, *spread in zip(points, distance.tolist(), above.tolist(), below.tolist(), *spreads.tolist())
    )

    deviation = 0.0 if congruent else math.inf
    spectra_ok = deviation == 0.0

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


def _truncated_catenoid(tau: float, d: float, boundary_height: float) -> CatenoidAnnulusGenerator:
    """The generator of the catenoid with neck parameter d, truncated at the
    radius where its profile reaches boundary_height."""
    rho_boundary = catenoid_profile_inverse(CatenoidSpec(tau=tau, d=d), boundary_height)
    return CatenoidAnnulusGenerator(tau=tau, d=d, rho_boundary=rho_boundary)


def _solve_catenoid_half_height(tau: float, target: float) -> float:
    """Neck parameter whose catenoid half-height equals the target.

    The half-height increases with d, so after doubling an upper bracket
    from d = 1 a secant iteration through the last two iterates runs inside
    the bracket [lo, hi] of d values that straddle the root; a secant step
    that leaves it is replaced by bisection.  Each trial d reads one Gauss
    sum, surfaces._catenoid_half_height, and builds no profile table.  Stops
    when a step moves d by at most 1e-12 d or the bracket is that narrow;
    raises ConvergenceError when _NECK_SOLVE_BUDGET steps do not get there.
    """
    limit = _half_height_limit(tau)
    if not 0.0 < target < limit:
        raise FeasibilityError(
            f"half-height target {target} outside the attainable range (0, {limit})"
        )

    def excess(d: float) -> float:
        return _catenoid_half_height(tau, d) - target

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
class _PlaneHeight:
    """The height function alpha x + beta y + shift."""

    alpha: float
    beta: float
    shift: float = 0.0

    def __post_init__(self) -> None:
        require_finite("plane height", alpha=self.alpha, beta=self.beta, shift=self.shift)
        # the gradient norms square the slopes' finite differences
        if not math.isfinite(2.0 * (self.alpha * self.alpha + self.beta * self.beta)):
            raise ParameterError(
                f"plane height with alpha = {self.alpha}, beta = {self.beta} leaves the float range: "
                "its slopes overflow when squared"
            )

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.alpha * x + self.beta * y + self.shift


def build_example1(
    sp: SpaceParams,
    epsilon: float,
    window_radius: float = 10.0,
    grid: int = 129,
) -> SlabSpec:
    """Flat slab of height pi sqrt(1+4 tau^2) - |tau| pi - epsilon in the
    cylinder model, swept by translated rotational catenoids.

    The neck parameter is root-found so the catenoid half-height exceeds
    (pi/2) sqrt(1+4 tau^2) - epsilon/4, and the truncation radius places the
    boundary circles halfway between the slab top and the attainable height.
    """
    tau = sp.tau
    # pi sqrt(1+4 tau^2) is exactly twice the limit: scaling by 2 rounds nothing
    limit = _half_height_limit(tau)
    eps_max = 2.0 * limit - 2.0 * abs(tau) * math.pi
    if not 0.0 < epsilon < eps_max:
        raise FeasibilityError(
            f"epsilon must lie in (0, {eps_max}) = (0, pi sqrt(1+4 tau^2) - 2|tau| pi), "
            f"got {epsilon}"
        )
    height = 2.0 * limit - abs(tau) * math.pi - epsilon
    half = 0.5 * height
    d = _solve_catenoid_half_height(tau, limit - 0.25 * epsilon)
    half_height = 0.5 * catenoid_height(CatenoidSpec(tau=tau, d=d))
    boundary_height = 0.5 * (half + half_height)
    generator = _truncated_catenoid(tau, d, boundary_height)
    chain_left = limit - abs(tau) * math.pi - 0.5 * epsilon
    metadata = {
        "construction": "example1",
        "tau": tau,
        "epsilon": epsilon,
        "height": height,
        "half_height": half,
        "d": d,
        "catenoid_half_height": half_height,
        "boundary_height": boundary_height,
        "rho_boundary": generator.rho_boundary,
        "window_radius": window_radius,
        "height_chain_ok": chain_left < half_height - abs(tau) * math.pi,
    }
    return SlabSpec(
        domain=disc_window_domain(window_radius, grid),
        tau=tau,
        # the slices t = -half and t = half translate the zero section
        lower=_PlaneHeight(0.0, 0.0, -half),
        upper=_PlaneHeight(0.0, 0.0, half),
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
) -> SlabSpec:
    """Slab between vertical translates of a gradient-bounded entire graph,
    u = alpha x + beta y on a disc window; graph_choice must be 'linear'.

    The Douglas criterion 2 C r < h < (cosh r - 1)/sinh r certifies the
    least-area annulus over every r-ball; the sweeping family itself uses a
    truncated catenoid whose boundary circles clear both translates.  Read
    in closed form over the window disc |z| <= R, m = |(alpha, beta)|:
    sup_gradient = m/2 = sup (1 - |z|^2) m/2, variation = 2 R m = max u -
    min u, and the translates u -+ h_prime, h_prime = (h + variation)/2.
    Infeasible parameter triples raise with the violated inequality.
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
    base = _PlaneHeight(alpha, beta)
    slope = math.hypot(alpha, beta)
    sup_gradient = 0.5 * slope
    if sup_gradient > C + 1e-12:
        raise FeasibilityError(
            f"gradient bound violated on the window: sup |grad u| = {sup_gradient} > C = {C}"
        )

    radius = _window_radius(domain)
    oscillation = 2.0 * radius * slope
    h_prime = 0.5 * (h + oscillation)
    sup_height = radius * slope
    boundary_height = h_prime + sup_height + _EXAMPLE2_CLEARANCE
    limit = _half_height_limit(tau)
    if boundary_height >= limit - 1e-3:
        raise FeasibilityError(
            f"annulus boundary height {boundary_height} unreachable (catenoid limit {limit})"
        )
    d = _solve_catenoid_half_height(tau, 0.5 * (boundary_height + limit))
    generator = _truncated_catenoid(tau, d, boundary_height)
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
        "rho_boundary": generator.rho_boundary,
        "window_radius": window_radius,
        "douglas_threshold": douglas_bound,
        "douglas_annulus_wins": h < douglas_bound,
    }
    return SlabSpec(
        domain=domain,
        tau=tau,
        lower=replace(base, shift=-h_prime),
        upper=replace(base, shift=h_prime),
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
    inside = _window_contains(domain)
    points: list[AmbientPoint] = []
    for _ in range(_SAMPLE_DRAWS_PER_POINT * count):
        # rng.random() is the u of rng.uniform(), and rng.uniform(0, 2 pi) is 0 + 2 pi u: the same draws
        rho = _SAMPLE_RADIAL_FRACTION * radius * math.sqrt(rng.random())
        angle = 2.0 * math.pi * rng.random()
        rc = math.tanh(0.5 * rho)
        x, y = rc * math.cos(angle), rc * math.sin(angle)
        if not inside(x, y):
            continue
        lo, hi = float(slab.lower(x, y)), float(slab.upper(x, y))
        if not lo < hi:
            continue
        t = lo + (0.1 + 0.8 * rng.random()) * (hi - lo)
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
    control = f"annuli shrunken to {factor} of the half-height"
    shrunken = replace(
        slab,
        annulus_generator=_truncated_catenoid(gen.tau, gen.d, factor * half),
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
