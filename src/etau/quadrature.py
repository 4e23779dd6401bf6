"""Composite Gauss–Legendre quadrature and the AGM elliptic integral.

Every integral in the package uses composite_gauss (Golub & Welsch 1969
nodes from numpy's leggauss): one panel per slab edge, and in
cumulative_integral a panel count per interval that doubles until two
successive estimates agree; the profile integrands are smooth after the
sigma = sqrt(.) substitution, so one or two doublings usually suffice.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import ConvergenceError, ParameterError

PANEL_NODES = 20
# Quadrature nodes per batch for callers that evaluate many panels at once
# and free their temporaries per operation (off-node profile table values):
# enough to amortize the per-call overhead, small enough that every
# temporary (16 bytes a node at most) stays under the 64 KiB from which
# glibc's free() consolidates and trims the heap.  At 1 << 14 a slab audit
# whose edge spectra allocated per operation re-faulted 2,000 to 100,000
# pages, varying from run to run.  The edge spectra of the tests' reference,
# whose temporaries are all real (8 bytes a node), take chunks of twice this
# size (tests/spectra_reference.py).
CHUNK_NODES = 1 << 12
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(PANEL_NODES)
_NODES.flags.writeable = _WEIGHTS.flags.writeable = False
# Two estimates of an interval agree when they differ by at most
# _TOL * max(1, |estimate|); the panel count may double _DOUBLINGS times.
_TOL = 1e-13
_DOUBLINGS = 12


def composite_gauss(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray, panels: int) -> np.ndarray:
    """Integral of f over each [a[i], b[i]], split into equal Gauss panels.

    f gets the nodes as an array of shape (len(a), panels, PANEL_NODES).
    """
    half, nodes = _panel_nodes(a, b, panels)
    return half * np.sum(f(nodes) @ _WEIGHTS, axis=1)


def _panel_nodes(a: np.ndarray, b: np.ndarray, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Half panel widths, shape (len(a),), and the Gauss nodes of equal panels
    on each [a[i], b[i]], shape (len(a), panels, PANEL_NODES)."""
    half = 0.5 * (b - a) / panels
    mids = a[:, None] + (2.0 * np.arange(panels) + 1.0) * half[:, None]
    return half, mids[:, :, None] + half[:, None, None] * _NODES


def cumulative_integral(f: Callable[[np.ndarray], np.ndarray], breakpoints) -> np.ndarray:
    """Integral of f from breakpoints[0] to each breakpoint.

    f must accept numpy arrays and return values of the same shape.
    Breakpoints may run in either direction; a decreasing interval
    contributes with negative sign.  Raises ConvergenceError when f is not
    finite at a node or an interval's estimate has not settled within the
    doubling budget.
    """
    x = np.asarray(breakpoints, dtype=float)
    a, b = x[:-1], x[1:]
    sums = np.empty(a.size)
    todo = np.arange(a.size)
    coarse = composite_gauss(f, a, b, 1)
    for level in range(1, _DOUBLINGS + 1):
        fine = composite_gauss(f, a[todo], b[todo], 2 ** level)
        if not np.all(np.isfinite(fine)):
            raise ConvergenceError("integrand is not finite on the integration interval")
        settled = np.abs(fine - coarse) <= _TOL * np.maximum(1.0, np.abs(fine))
        sums[todo[settled]] = fine[settled]
        todo, coarse = todo[~settled], fine[~settled]
        if todo.size == 0:
            return np.concatenate(([0.0], np.cumsum(sums)))
    raise ConvergenceError(f"quadrature did not settle within {_DOUBLINGS} panel doublings")


def elliptic_k(k: float) -> float:
    """Complete elliptic integral K(k) via the arithmetic-geometric mean."""
    if not 0.0 <= k < 1.0:
        raise ParameterError(f"elliptic modulus must satisfy 0 <= k < 1, got {k}")
    a = 1.0
    b = math.sqrt(1.0 - k * k)
    for _ in range(200):
        if abs(a - b) <= 1e-17 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)
