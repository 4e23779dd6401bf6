"""Reference measurements of the slab audit's annulus family, for the tests.

The audit certifies congruence from each placement's matrix shape,
(a b; conj(b) conj(a)) with |b| < |a| (slabs._congruent), and measures no
spectrum.  This module is that certificate's reference: placement_forms
reads each placement's Hermitian form D = |cz + d|^2 - |az + b|^2 with
correctly rounded coefficients (hermitian_form, exact_dot), for which the
certified shape is A = -C, B = 0 and C > 0, and edge_length_spectra
measures the edge-length spectra from those forms, one unit_panel per
edge, on a model mesh whose resolution the caller chooses: the slab
module keeps no mesh or vertex grid.  mesh_edges reads a model
mesh's edges by sorting and deduplicating its triangles' edge keys;
grid_edges writes the same edges of a wrapped vertex grid in closed form,
and grid_segments gathers them.  model_segments gathers a generator's model
annulus edges from its own call of surfaces._catenoid_grid.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from etau import slabs
from etau.core import ParameterError
from etau.quadrature import _WEIGHTS, CHUNK_NODES, PANEL_NODES, _panel_nodes
from etau.surfaces import CatenoidSpec, _catenoid_grid

# Quadrature nodes per chunk of the edge spectra: whole panels whose real
# temporaries (8 bytes a node) stay under quadrature.CHUNK_NODES' 64 KiB.  Half
# as many took about 20% longer, twice as many re-faulted 480 pages a call.
SPECTRA_CHUNK_NODES = 2 * CHUNK_NODES


def unit_panel() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, read-only and of shape (PANEL_NODES,), of
    composite_gauss's one-panel rule on [0, 1]: for f sampled at the nodes,
    0.5 * (f(nodes) @ weights) on a row-major (..., 1, PANEL_NODES) array is
    bit for bit composite_gauss(f, zeros, ones, 1)."""
    nodes = _panel_nodes(np.zeros(1), np.ones(1), 1)[1][0, 0]
    nodes.flags.writeable = False
    return nodes, _WEIGHTS


def mesh_edges(mesh) -> tuple[np.ndarray, np.ndarray]:
    """Start points a and vectors v = b - a of the mesh's edges (lo, hi),
    each once in lexicographic order: the 3 T edge keys of its T triangles,
    sorted and deduplicated."""
    n = len(mesh.vertices)
    tri = mesh.triangles.astype(np.int64)
    ends = np.roll(tri, -1, axis=1)
    keys = np.sort(np.minimum(tri, ends) * n + np.maximum(tri, ends), axis=None)
    lo, hi = np.divmod(keys[np.concatenate(([True], keys[1:] != keys[:-1]))], n)
    a = mesh.vertices[lo]
    return a, mesh.vertices[hi] - a


def grid_edges(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Ends (lo, hi), lo < hi, of the edges of surfaces._grid_triangles(rows,
    cols, True), each once in lexicographic order.

    With j' = (j + 1) mod cols, the edges are the rows * cols ring edges
    {i cols + j, i cols + j'}, and per pair of rows the (rows - 1) cols
    edges (v00, v10) and the (rows - 1) cols diagonals (v00, v11): (3 rows
    - 2) cols distinct edges for cols >= 3, so their keys lo n + hi are
    sorted once and need no deduplication.
    """
    n = rows * cols
    j = np.arange(cols)
    wrapped = (j + 1) % cols
    start = np.arange(0, n, cols)[:, None]
    upper, lower = start[:-1] + j, start[1:]
    keys = np.concatenate(
        [
            ((start + np.minimum(j, wrapped)) * n + start + np.maximum(j, wrapped)).ravel(),
            (upper * n + lower + j).ravel(),
            (upper * n + lower + wrapped).ravel(),
        ]
    )
    keys.sort()
    return np.divmod(keys, n)


def grid_segments(vertices: np.ndarray, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Start points a and vectors v = b - a of the grid's edges (lo, hi)
    (grid_edges), each once in lexicographic order."""
    lo, hi = grid_edges(*shape)
    a = vertices.take(lo, axis=0)
    return a, vertices.take(hi, axis=0) - a


def model_segments(
    generator: slabs.CatenoidAnnulusGenerator, resolution: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """grid_segments of the generator's model annulus: the vertex grid of
    its catenoid up to its boundary radius, at the given (rows, cols)
    resolution of mesh_catenoid."""
    spec = CatenoidSpec(generator.tau, generator.d)
    return grid_segments(*_catenoid_grid(spec, generator.rho_boundary, resolution))


# Veltkamp's splitting constant 2^27 + 1 for float64.
_SPLITTER = 134217729.0


def exact_dot(pairs) -> float:
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


def hermitian_form(*rows) -> tuple[float, float, float, float]:
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
    return exact_dot(a), exact_dot(br), exact_dot(bi), exact_dot(c)


def placement_forms(placement, tau: float):
    """The placement's fiber tau and its Hermitian form D = |cz + d|^2 -
    |az + b|^2 with, only when that tau differs from the metric's tau, P =
    |cz + d|^2 (None otherwise), of its matrix (a b; c d) by hermitian_form.
    A matrix of the shape that slabs._congruent certifies has D = C (1 -
    |z|^2): A = -C, B = 0 and C = |a|^2 - |b|^2 > 0."""
    a, b, c, d = placement.mobius.matrix()
    d_form = hermitian_form((1.0, c, d), (-1.0, a, b))
    return placement.tau, d_form, hermitian_form((1.0, c, d)) if placement.tau != tau else None


def speed_forms(placement, tau: float):
    """placement_forms with the form D divided by |ad - bc|, the modulus of
    the determinant of the placement's matrix (a b; c d), correctly rounded
    (exact_dot): node_speeds' horizontal part 2 |dz| / D is then
    2 |ad - bc| |dz| / D, whatever the matrix's scale, and dD / D, so the
    vertical part, does not see the division.  A disc isometry's form, A =
    -C and B = 0, has ad - bc = C exactly, so it becomes the model's own
    form (-1, 0, 0, 1)."""
    tau_f, d_form, p_form = placement_forms(placement, tau)
    a, b, c, d = placement.mobius.matrix()
    det_re = exact_dot(((a.real, d.real), (-a.imag, d.imag), (-b.real, c.real), (b.imag, c.imag)))
    det_im = exact_dot(((a.real, d.imag), (a.imag, d.real), (-b.real, c.imag), (-b.imag, c.real)))
    det = math.hypot(det_re, det_im)
    return tau_f, tuple(coefficient / det for coefficient in d_form), p_form


def node_speeds(forms, tau: float, x, y, vx, vy, vt) -> list[np.ndarray]:
    """Speeds |dF(v)|_g at quadrature nodes, g the cylinder metric of tau,
    one array per placement form of forms (speed_forms).  x, y
    are the nodes' disc coordinates and vx, vy, vt their edges' vectors,
    broadcasting against them; a twist term runs only where it is not
    identically zero."""
    r2 = x * x + y * y
    dz2 = 4.0 * (vx * vx + vy * vy)
    if tau != 0.0 or any(p_form is not None for _, _, p_form in forms):
        cross = x * vy - y * vx  # Im(conj(z) dz)
    speeds = []
    for tau_f, d_form, p_form in forms:
        den = form_at(d_form, x, y, r2)
        vertical = vt
        if tau != 0.0:
            vertical = vertical + twist(4.0 * tau, d_form, cross, vx, vy) / den
        if p_form is not None:
            vertical = vertical + twist(4.0 * (tau_f - tau), p_form, cross, vx, vy) / form_at(p_form, x, y, r2)
        square = dz2 / (den * den)  # horizontal^2 = 4 |dz|^2 / D^2
        square += vertical * vertical
        speeds.append(np.sqrt(square))
    return speeds


def form_at(form, x, y, r2):
    """A |z|^2 + 2 Re(B z) + C at z = x + iy, |z|^2 = r2, summed left to right in one array."""
    a, br, bi, c = form
    den = a * r2
    den += c
    den += (2.0 * br) * x
    den -= (2.0 * bi) * y
    return den


def twist(scale: float, form, cross, vx, vy):
    """scale Im((A conj(z) + B) dz), with A conj(z) + B the z-derivative of
    the form (A, B, C) and cross = Im(conj(z) dz)."""
    a, br, bi, _ = form
    return (scale * a) * cross + (scale * br * vy + scale * bi * vx)


def edge_length_spectra(
    instances: Sequence[slabs.AnnulusInstance], resolution: tuple[int, int]
) -> list[np.ndarray]:
    """Sorted lengths of each instance's model edges at the given
    (rows, cols) resolution, one array per instance.

    The image of the model edge a -> b under the placement F has length
    int_0^1 |dF(v)|_g ds with v = b - a and g taken at F(a + s v).  With
    the placement's matrix (a b; c d) of determinant delta = ad - bc, and
    the fiber taus tau_F of the placement and tau of the metric, that speed
    is measured at the model point z = a + s v without forming the image:

        D = |cz + d|^2 - |az + b|^2 = alpha |z|^2 + 2 Re(beta z) + gamma,
        horizontal = lam(Fz) |dF dz| = 2 |delta| |dz| / D,
        vertical = vt + 4 Im((tau_F c - tau delta conj(az + b) / D) dz / (cz + d))
                 = vt + 4 tau Im(dD dz) / D + 4 (tau_F - tau) Im(c dz / (cz + d)),

    with dD = alpha conj(z) + beta the z-derivative of D (c D - delta
    conj(az + b) = (cz + d) dD) and Im(c dz / (cz + d)) = Im(dP dz) / P for
    P = |cz + d|^2; a reversing placement flips the sign of the vertical
    part only.  The last term vanishes unless the placement's tau differs
    from the metric's and is then the only place P is formed.  D enters
    divided by |delta| (speed_forms), which leaves dD / D as it is.  No
    step uses that F is an isometry, so a placement that is not one moves
    the spectrum.  The coefficients alpha, beta and gamma (and P's) and
    delta are correctly rounded once per instance (hermitian_form,
    exact_dot), so the cancellation of |cz + d|^2 against |az + b|^2
    far out in the disc never happens in floating point; a disc isometry's
    form, divided by its delta, is the model's own bit for bit, so every
    placement of the generator measures the model annulus' spectrum.  Near
    the edge of the example-1 window, on a 65 x 96 mesh, that spectrum
    strays up to 6.8e-12 (tau 0) and 5.7e-12 (tau 0.5) from the push-forward
    rule in np.longdouble, dw = (ad - bc) dz / (cz + d)^2; the push-forward
    route in float64, which formed 1 - |Fz|^2, strayed 1.3e-8.  One
    Gauss-Legendre panel of the quadrature kernel (exact to degree 39)
    measures each edge: for an isometry the speed is the model speed at
    a + s v, analytic near [0, 1] even on the long rim edges, and one panel
    agrees with four to about 1e-14.

    The instances must share one generator, and so one model mesh;
    otherwise ParameterError.  The model annulus' segments (a, v) are
    gathered once per call (model_segments), and the quadrature nodes are
    formed once per chunk of SPECTRA_CHUNK_NODES nodes for all instances,
    laid out node-major (PANEL_NODES, edges) so the per-edge operands
    broadcast along rows; node_speeds then takes about ten real passes per
    instance at tau 0.
    Batching moves no bit: each edge's speeds are elementwise, and each
    edge is reduced as composite_gauss's one panel on [0, 1] reduces it,
    whatever the instances measured alongside.
    """
    if not instances:
        raise ParameterError("edge spectra need at least one annulus instance")
    gen = instances[0].generator
    if any(i.generator != gen for i in instances):
        raise ParameterError("instances measured together must share one model mesh")
    a, v = model_segments(gen, resolution)
    nodes, weights = unit_panel()
    s = nodes[:, None]
    forms = [speed_forms(instance.placement, gen.tau) for instance in instances]
    # One array per instance: one (instances, edges) block took about 300
    # more cold page faults.
    out = [np.empty(a.shape[0]) for _ in instances]
    per_chunk = SPECTRA_CHUNK_NODES // PANEL_NODES
    for start in range(0, a.shape[0], per_chunk):
        stop = start + per_chunk
        ax, ay, _ = a[start:stop].T
        vx, vy, vt = v[start:stop].T
        x, y = ax + s * vx, ay + s * vy
        for row, speed in zip(out, node_speeds(forms, gen.tau, x, y, vx, vy, vt)):
            # composite_gauss's reduction, on its row-major (edges, 1, PANEL_NODES) layout
            row[start:stop] = 0.5 * (np.ascontiguousarray(speed.T)[:, None, :] @ weights)[:, 0]
    for row in out:
        row.sort()
    return out

