"""Reference measurements of the slab audit's annulus family, for the tests.

The audit certifies congruence from each placement's Hermitian form
(slabs._congruence_bound) and measures no spectrum; edge_length_spectra
measures the edge-length spectra that bound covers, one unit_panel per
edge, and mesh_edges reads a model mesh's edges by sorting and
deduplicating its triangles' edge keys, the reference for
surfaces._grid_edges' closed form.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from etau import slabs
from etau.core import ParameterError
from etau.quadrature import _WEIGHTS, CHUNK_NODES, PANEL_NODES, _panel_nodes

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


def node_speeds(forms, tau: float, x, y, vx, vy, vt) -> list[np.ndarray]:
    """Speeds |dF(v)|_g at quadrature nodes, g the cylinder metric of tau,
    one array per placement form of forms (slabs._placement_forms).  x, y
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


def edge_length_spectra(instances: Sequence[slabs.AnnulusInstance]) -> list[np.ndarray]:
    """Sorted lengths of each instance's model edges, one array per instance.

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
    correctly rounded once per instance (slabs._hermitian_form), so the
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
    SPECTRA_CHUNK_NODES nodes for all instances, laid out node-major
    (PANEL_NODES, edges) so the per-edge operands broadcast along rows;
    node_speeds then takes about ten real passes per instance at tau 0.
    Batching moves no bit: each edge's speeds are elementwise, and each
    edge is reduced as composite_gauss's one panel on [0, 1] reduces it,
    whatever the instances measured alongside.
    """
    if not instances:
        raise ParameterError("edge spectra need at least one annulus instance")
    gen = instances[0].generator
    if any(i.generator != gen for i in instances):
        raise ParameterError("instances measured together must share one model mesh")
    model = slabs._model_annulus(gen)
    a, v = model.a, model.v
    nodes, weights = unit_panel()
    s = nodes[:, None]
    forms = [slabs._placement_forms(instance.placement, gen.tau) for instance in instances]
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

