"""Generalized slabs: bounding-graph checks, annulus families, and audits.

A slab is the region between two vertical graphs swept by a family of
pairwise-isometric minimal annuli whose boundary circles escape the region,
one above and one below.  This module constructs the two example families
(translated catenoids over a flat slab, and catenoid stand-ins over tilted
graphs certified by the Douglas criterion) and audits the defining
conditions on sampled interior points.  A slab's window is a DISC_XY domain,
and each annulus generator is the key of its one cached model annulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    apply,
    apply_to_coords,
    compose,
    disc_point_isometry,
    inverse,
    axis_translation_isometry,
    push_forward_arrays,
    vertical_translation,
)
from .quadrature import CHUNK_NODES, PANEL_NODES, unit_panel
from .surfaces import (
    CatenoidSpec,
    LeafSpec,
    _leaf_sides,
    catenoid_height,
    catenoid_neck_radius,
    catenoid_patch,
    catenoid_patch_tangents,
    catenoid_profile,
    catenoid_profile_inverse,
    mesh_catenoid,
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
    "edge_length_spectra",
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

    a and v = b - a are the start points and vectors of its mesh's edges
    (lo, hi), each once in lexicographic order, (E, 3) each; upper and lower
    are its boundary circles at w = 1 and w = -1, _BOUNDARY_SAMPLES disc
    coordinates (n, 3) each.
    """

    spec: CatenoidSpec
    neck_radius: float
    sigma_max: float
    boundary_height: float
    a: np.ndarray
    v: np.ndarray
    upper: np.ndarray
    lower: np.ndarray


@lru_cache(maxsize=8)
def _model_annulus(generator: CatenoidAnnulusGenerator) -> _ModelAnnulus:
    """The generator's model annulus; the mesh it is read from is not kept."""
    spec = CatenoidSpec(tau=generator.tau, d=generator.d)
    rho = generator.rho_boundary
    neck_radius = catenoid_neck_radius(spec)
    mesh = mesh_catenoid(spec, rho, generator.resolution)
    n = len(mesh.vertices)
    tri = mesh.triangles.astype(np.int64)
    ends = np.roll(tri, -1, axis=1)
    # np.unique without indices would import numpy.ma for its masked-array check
    keys = np.sort(np.minimum(tri, ends) * n + np.maximum(tri, ends), axis=None)
    lo, hi = np.divmod(keys[np.concatenate(([True], keys[1:] != keys[:-1]))], n)
    a = mesh.vertices[lo]
    v = mesh.vertices[hi] - a
    phi = np.linspace(0.0, 2.0 * math.pi, _BOUNDARY_SAMPLES, endpoint=False)
    upper, lower = (catenoid_patch(spec, rho, np.array(w), phi) for w in (1.0, -1.0))
    for array in (a, v, upper, lower):
        array.flags.writeable = False
    sigma_max = math.sqrt(rho - neck_radius)
    return _ModelAnnulus(spec, neck_radius, sigma_max, catenoid_profile(spec, rho), a, v, upper, lower)


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
        model = _model_annulus(self.generator)
        upper = apply_to_coords(self.placement, model.upper)
        lower = apply_to_coords(self.placement, model.lower)
        if float(np.mean(upper[:, 2])) >= float(np.mean(lower[:, 2])):
            return upper, lower
        return lower, upper

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
        gen = self.generator
        spec = _model_annulus(gen).spec

        def annulus(params: np.ndarray) -> np.ndarray:
            return self.surface_coords(params[:, 0], params[:, 1])

        def tangents(params: np.ndarray) -> np.ndarray:
            phi, w = params.T
            x, y, _ = catenoid_patch(spec, gen.rho_boundary, w, phi).T
            v = catenoid_patch_tangents(spec, gen.rho_boundary, w, phi)
            *_, dx, dy, dt = push_forward_arrays(self.placement, x[:, None], y[:, None], *v.transpose(1, 0, 2))
            return np.stack([dx, dy, dt], axis=1)

        distance = chord_distances(
            Model.CYLINDER,
            gen.tau,
            q.coords()[None],
            annulus,
            tangents,
            [[0.0, self.w_reference]],
            [-np.inf, -1.0],
            [np.inf, 1.0],
            accept_below,
        )
        return float(distance[0])


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
        pc = p if p.model is Model.CYLINDER else convert_model(p, self.tau)
        model = _model_annulus(self)
        rmin = model.neck_radius
        offset = pc.t
        if abs(offset) >= model.boundary_height:
            raise InvalidPointError(
                f"fiber offset {offset} exceeds the annulus half-height {model.boundary_height}"
            )
        sign = 1.0 if offset >= 0.0 else -1.0
        rho_p = catenoid_profile_inverse(model.spec, abs(offset)) if offset != 0.0 else rmin
        rho_p = min(rho_p, self.rho_boundary)
        b_ref = math.tanh(0.5 * rho_p)
        move = compose(
            disc_point_isometry(complex(pc.x, pc.y), self.tau),
            disc_point_isometry(complex(b_ref, 0.0), self.tau),
        )
        image = apply(move, AmbientPoint(BasePoint(Model.CYLINDER, b_ref, 0.0), sign * abs(offset)))
        lift = pc.t - image.t
        placement = compose(vertical_translation(lift, self.tau, Model.CYLINDER), move)
        w_ref = sign * math.sqrt(max(rho_p - rmin, 0.0)) / model.sigma_max
        return AnnulusInstance(point=p, placement=placement, generator=self, w_reference=w_ref)


# Quadrature nodes per chunk of the edge spectra: whole panels whose real
# temporaries (8 bytes a node) stay under quadrature.CHUNK_NODES' 64 KiB.  Half
# as many took about 20% longer, twice as many re-faulted 480 pages a call.
_SPECTRA_CHUNK_NODES = 2 * CHUNK_NODES
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


def _node_speeds(forms, tau: float, x, y, vx, vy, vt) -> list[np.ndarray]:
    """Speeds |dF(v)|_g at quadrature nodes, g the cylinder metric of tau,
    one array per placement form of forms (_placement_forms).  x, y are the
    nodes' disc coordinates and vx, vy, vt their edges' vectors, broadcasting
    against them; a twist term runs only where it is not identically zero."""
    r2 = x * x + y * y
    dz2 = 4.0 * (vx * vx + vy * vy)
    if tau != 0.0 or any(p_form is not None for _, _, p_form in forms):
        cross = x * vy - y * vx  # Im(conj(z) dz)
    speeds = []
    for tau_f, d_form, p_form in forms:
        den = _form_at(d_form, x, y, r2)
        vertical = vt
        if tau != 0.0:
            vertical = vertical + _twist(4.0 * tau, d_form, cross, vx, vy) / den
        if p_form is not None:
            vertical = vertical + _twist(4.0 * (tau_f - tau), p_form, cross, vx, vy) / _form_at(p_form, x, y, r2)
        square = dz2 / (den * den)  # horizontal^2 = 4 |dz|^2 / D^2
        square += vertical * vertical
        speeds.append(np.sqrt(square))
    return speeds


def _form_at(form, x, y, r2):
    """A |z|^2 + 2 Re(B z) + C at z = x + iy, |z|^2 = r2, summed left to right in one array."""
    a, br, bi, c = form
    den = a * r2
    den += c
    den += (2.0 * br) * x
    den -= (2.0 * bi) * y
    return den


def _twist(scale: float, form, cross, vx, vy):
    """scale Im((A conj(z) + B) dz), with A conj(z) + B the z-derivative of
    the form (A, B, C) and cross = Im(conj(z) dz)."""
    a, br, bi, _ = form
    return (scale * a) * cross + (scale * br * vy + scale * bi * vx)


def edge_length_spectra(instances: Sequence[AnnulusInstance]) -> list[np.ndarray]:
    """Sorted lengths of each instance's mesh edges, one array per instance.

    The image of the model edge a -> b under the placement F has length
    int_0^1 |dF(v)|_g ds with v = b - a and g taken at F(a + s v).  With
    the placement's matrix (a b; c d), ad - bc = 1, and the fiber taus
    tau_F of the placement and tau of the metric, that speed is measured
    at the model point z = a + s v without forming the image:

        D = |cz + d|^2 - |az + b|^2 = alpha |z|^2 + 2 Re(beta z) + gamma,
        horizontal = lam(Fz) |dF dz| = 2 |dz| / D,
        vertical = vt + 4 Im((tau_F c - tau conj(az + b) / D) dz / (cz + d))
                 = vt + 4 tau Im(dD dz) / D + 4 (tau_F - tau) Im(c dz / (cz + d)),

    with dD = alpha conj(z) + beta the z-derivative of D (c D - conj(az + b)
    = (cz + d) dD when ad - bc = 1) and Im(c dz / (cz + d)) = Im(dP dz) / P
    for P = |cz + d|^2; a reversing placement flips the sign of the
    vertical part only.  The last term vanishes unless the placement's tau
    differs from the metric's and is then the only place P is formed.  No
    step uses that F is an isometry, so a placement that is not one moves
    the spectrum.  The coefficients alpha, beta and gamma (and P's) are
    correctly rounded once per instance (_hermitian_form), so the
    cancellation of |cz + d|^2 against |az + b|^2 far out in the disc never
    happens in floating point.  Near the edge of the example-1 window, at
    the CLI resolution, a spectrum strays up to 6e-12 (tau 0) and 2.2e-11
    (tau 0.5) from the push-forward rule in np.longdouble, itself up to
    4e-11 from the model annulus' own spectrum because the placement's
    float64 matrix is not exactly an isometry; the push-forward route in
    float64, which formed 1 - |Fz|^2, strayed 1.3e-8.  One Gauss-Legendre
    panel of the quadrature kernel (exact to degree 39) measures each edge:
    for an isometry the speed is the model speed at a + s v, analytic near
    [0, 1] even on the long rim edges, and one panel agrees with four to
    about 1e-14.

    The instances must share one generator, and so one model mesh;
    otherwise ParameterError.  The model annulus' segments (a, v) are
    cached, and the quadrature nodes are formed once per chunk of
    _SPECTRA_CHUNK_NODES nodes for all instances, laid out node-major
    (PANEL_NODES, edges) so the per-edge operands broadcast along rows;
    _node_speeds then takes about ten real passes per instance at tau 0.
    Batching moves no bit: each edge's speeds are elementwise, and each
    edge is reduced as composite_gauss's one panel on [0, 1] reduces it,
    whatever the instances measured alongside.
    """
    if not instances:
        raise ParameterError("edge spectra need at least one annulus instance")
    gen = instances[0].generator
    if any(i.generator != gen for i in instances):
        raise ParameterError("instances measured together must share one model mesh")
    model = _model_annulus(gen)
    a, v = model.a, model.v
    nodes, weights = unit_panel()
    s = nodes[:, None]
    forms = [_placement_forms(instance.placement, gen.tau) for instance in instances]
    # One array per instance: one (instances, edges) block took about 300
    # more cold page faults per `slab example1` audit.
    out = [np.empty(a.shape[0]) for _ in instances]
    per_chunk = _SPECTRA_CHUNK_NODES // PANEL_NODES
    for start in range(0, a.shape[0], per_chunk):
        stop = start + per_chunk
        ax, ay, _ = a[start:stop].T
        vx, vy, vt = v[start:stop].T
        x, y = ax + s * vx, ay + s * vy
        for row, speed in zip(out, _node_speeds(forms, gen.tau, x, y, vx, vy, vt)):
            # composite_gauss's reduction, on its row-major (edges, 1, PANEL_NODES) layout
            row[start:stop] = 0.5 * (np.ascontiguousarray(speed.T)[:, None, :] @ weights)[:, 0]
    for row in out:
        row.sort()
    return out


# -- slab specification and checks ---------------------------------------------


@dataclass(frozen=True)
class SlabSpec:
    """Region between two entire graphs with its annulus family.

    lower and upper are the graphs' height functions (x, y) -> t in the
    cylinder model, defined on the whole base disc; the window, a DISC_XY
    domain, is where the audit samples points and node values.  The
    generator must produce pairwise-isometric annuli through interior points.
    Metadata only describes the construction in reports; nothing reads it.
    """

    domain: GraphDomain
    tau: float
    lower: Callable[[np.ndarray, np.ndarray], np.ndarray]
    upper: Callable[[np.ndarray, np.ndarray], np.ndarray]
    annulus_generator: CatenoidAnnulusGenerator
    metadata: dict

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
    them horizontal, as at tau 0, and NaN when no annulus was generated.
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
    graphs, from their values at the window's active nodes."""
    lower, upper = (
        GraphFunction.from_base_callable(slab.domain, slab.tau, f) for f in (slab.lower, slab.upper)
    )
    active = slab.domain.active_mask()
    h0 = float(max(np.max(np.abs(lower.values[active])), np.max(np.abs(upper.values[active]))))
    c = float(min(np.min(graph_nu(lower)[active]), np.min(graph_nu(upper)[active])))
    gap = float(np.min((upper.values - lower.values)[active]))
    return BoundingGraphCheck(height_bound=h0, normal_bound=c, disjoint=gap > 0.0, min_gap=gap)


def _point_in_window(domain: GraphDomain, x: float, y: float) -> bool:
    (a1, b1), (a2, b2) = domain.bounds
    if not (a1 <= x <= b1 and a2 <= y <= b2):
        return False
    q1, q2 = domain.axes()
    i = int(np.clip(np.searchsorted(q1, x), 0, domain.shape[0] - 1))
    j = int(np.clip(np.searchsorted(q2, y), 0, domain.shape[1] - 1))
    return bool(domain.active_mask()[i, j])


# check_annulus_family: an annulus contains its point when the chord distance
# is below _CONTAINS_TOL times the slab scale; _SPECTRA_PAIRS random instance
# pairs must have edge-length spectra within _SPECTRA_TOL of each other.
_CONTAINS_TOL = 1e-6
_SPECTRA_PAIRS = 2
_SPECTRA_TOL = 1e-6


def check_annulus_family(slab: SlabSpec, points: list[AmbientPoint], seed: int = 0) -> SlabReport:
    """Audit the slab definition at the given interior points.

    Per point: the generated annulus passes through it (ambient distance
    below _CONTAINS_TOL times the slab scale) and its boundary circles clear
    the graphs along fibers, one above and one below.  _SPECTRA_PAIRS random
    instance pairs must have matching edge-length spectra: the pairs are
    drawn first, one edge_length_spectra call measures their distinct
    instances, and the deviation is folded in pair order.  Points are
    audited serially; AnnulusCheck says when a recorded distance is an
    upper bound.
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
    for q in cylinder:
        if not _point_in_window(slab.domain, q.x, q.y):
            raise InvalidPointError(f"point projection {(q.x, q.y)} is outside the window")
        if not slab.lower(q.x, q.y) < q.t < slab.upper(q.x, q.y):
            raise InvalidPointError(f"point at t={q.t} is not strictly between the graphs")

    def check_one(p: AmbientPoint, pc: AmbientPoint) -> tuple[AnnulusCheck, AnnulusInstance | None]:
        try:
            instance = slab.annulus_generator(p)
        except InvalidPointError:
            failed = AnnulusCheck(
                point=p,
                contains_point=False,
                boundary_above=False,
                boundary_below=False,
                distance=float("inf"),
                above_margin=float("-inf"),
                below_margin=float("-inf"),
                above_spread=float("nan"),
                below_spread=float("nan"),
            )
            return failed, None
        distance = instance.distance_to(pc, accept_below=_CONTAINS_TOL * scale)
        top, bottom = instance.boundary_coords()
        above_margin = _fiber_margin(top, slab.upper, side=+1)
        below_margin = _fiber_margin(bottom, slab.lower, side=-1)
        return (
            AnnulusCheck(
                point=p,
                contains_point=distance < _CONTAINS_TOL * scale,
                boundary_above=above_margin > 0.0,
                boundary_below=below_margin > 0.0,
                distance=distance,
                above_margin=above_margin,
                below_margin=below_margin,
                above_spread=float(np.ptp(top[:, 2])),
                below_spread=float(np.ptp(bottom[:, 2])),
            ),
            instance,
        )

    results = [check_one(p, pc) for p, pc in zip(points, cylinder)]
    checks = tuple(r[0] for r in results)
    instances = [r[1] for r in results if r[1] is not None]

    deviation = 0.0
    if len(instances) >= 2:
        rng = default_rng(seed)
        pairs = [rng.choice(len(instances), size=2, replace=False).tolist() for _ in range(_SPECTRA_PAIRS)]
        distinct = sorted({k for pair in pairs for k in pair})
        spectra = dict(zip(distinct, edge_length_spectra([instances[k] for k in distinct])))
        for i, j in pairs:
            # np.maximum, unlike max, keeps a NaN, which then fails the check.
            deviation = float(np.maximum(deviation, np.max(np.abs(spectra[i] - spectra[j]))))
    spectra_ok = deviation < _SPECTRA_TOL

    passed = spectra_ok and all(c.contains_point and c.boundary_above and c.boundary_below for c in checks)
    return SlabReport(
        annulus_checks=checks,
        spectra_deviation=deviation,
        spectra_ok=spectra_ok,
        passed=passed,
        **base_report,
    )


def _fiber_margin(circle: np.ndarray, height: Callable[[np.ndarray, np.ndarray], np.ndarray], side: int) -> float:
    """Signed clearance of a boundary circle from a graph along fibers, both
    in cylinder coordinates: the circle lies above the graph for side +1 and
    below it for side -1."""
    return float(np.min(side * (circle[:, 2] - height(circle[:, 0], circle[:, 1]))))


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
    points: list[AmbientPoint] = []
    for _ in range(_SAMPLE_DRAWS_PER_POINT * count):
        rho = _SAMPLE_RADIAL_FRACTION * radius * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        rc = math.tanh(0.5 * rho)
        x, y = rc * math.cos(angle), rc * math.sin(angle)
        if not _point_in_window(domain, x, y):
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
    half = 0.5 * check_bounding_graphs(slab).min_gap
    if not half > 0.0:
        raise ParameterError(f"the graphs leave no gap to shrink into: least gap {2.0 * half}")
    gen = slab.annulus_generator
    rho_small = catenoid_profile_inverse(CatenoidSpec(tau=gen.tau, d=gen.d), factor * half)
    control = f"annuli shrunken to {factor} of the half-height"
    return replace(
        slab,
        annulus_generator=replace(gen, rho_boundary=rho_small),
        metadata={**slab.metadata, "negative_control": control},
    )


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
