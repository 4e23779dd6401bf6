"""Direct solver for 9-point coefficient fields: nested-dissection multifrontal LU.

The minimal-graph solver's sparse systems live on the interior nodes of an
n1 x n2 grid.  A coefficient field ``coef`` of shape (3, 3, n1, n2) holds row
(i, j) of such a system: ``coef[di + 1, dj + 1, i, j]`` is its entry in the
column of node (i + di, j + dj).  Interior nodes lie in the inner box of rows
1..n1-2 and columns 1..n2-2.  The inner-box nodes that are not interior become
identity rows, and entries that reach a non-interior node are dropped.

Symbolic phase (``NestedDissection``).  The inner box is cut recursively by a
separator row or column across its longer side (George, SIAM J. Numer. Anal.
10, 1973), down to leaf boxes with no side longer than ``_LEAF_SIDE``.  A
9-point row couples adjacent grid lines only, so one line separates the two
halves.  Each box is a front.  Its pivots are its separator line, or the whole
leaf box, and its update set is the ring of inner-box nodes around the box,
which its ancestors' separators hold.  The fronts of one depth whose boxes
share one shape form a batch, laid out by one window template whose position
tables number each window cell among the pivots or the ring.  A front's ring
columns hold its ring cells inside the inner box in ring order, padded to the
batch's longest ring, and every front ends in a trash slot, where padding and
dropped entries go.  The field scatter and the extend-add find cells through
the position tables.  Index arrays hold O(batch x front rows) entries, none
per front entry.

Numeric phase (``NestedDissection.factor``), batch by batch from the deepest
depth up (the multifrontal method; Liu, SIAM Review 34, 1992): scatter the
field into the stack of fronts, extend-add the children's Schur complements,
invert each pivot block (LU with partial pivoting inside the block, no
delayed pivots) and form S = F_UU - F_UP (F_PP^-1 F_PU).  A singular pivot
block raises ``numpy.linalg.LinAlgError``.  ``Factor.solve`` is one forward
and one backward sweep over the stored blocks.  Non-finite entries pass
through both phases without floating-point warnings, as they do through a
sparse LU; callers check the solution.

Workspace.  The numeric phase keeps its arrays in one float64 arena per
solver, the multifrontal method's frontal workspace and stack of contribution
blocks (Duff and Reid, ACM TOMS 9, 1983).  The symbolic phase plans it, the
first ``factor`` allocates it, and later factorizations on the grid reuse it;
each writes through ``out=`` or ``np.copyto``, and the extend-add is one
``np.add.at`` per run of children.  Each pivot block's stored inverse,
x = F_PP^-1 F_PU and c = F_UP fill the arena from its start, in elimination
order.  A batch's fronts, and after them one scratch region for the gathered
field values, the extend-add indices and the Schur-update product, sit just
past that batch's stored blocks, where later batches' blocks overwrite them
once the batch is done.  The Schur complements sit at the end, in two regions
by depth parity, each as large as its largest depth.  A batch's last pivot
block writes its update F_UU - c x straight into the batch's Schur region,
where the parent reads it, so no pass copies it out of the fronts.  Batch ids
run depth by depth, so each Schur complement is read by its parent, one depth
up, before any batch two depths up writes into its region.  A solver so holds
one live factor: each ``factor`` call invalidates the previous one, and
``Factor.solve`` on a stale factor raises ``RuntimeError``.  ``Factor.solve``
reads the stored blocks and works in plain arrays of its own, so a solution
is an ordinary array.  Each pivot block's forward update is a ``np.bincount``
over the window of nodes it updates.

Results do not depend on the number of BLAS threads: pivot blocks have at most
``_PIVOT_CAP`` rows, and every product runs in row blocks small enough that
OpenBLAS computes each on one thread.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Boxes with no side longer than this are eliminated whole.
_LEAF_SIDE = 3
# OpenBLAS factors an LU of 10,000 entries or more on several threads, with
# other rounding, so a longer separator is eliminated as a chain of pivot
# blocks of at most this many rows.
_PIVOT_CAP = 64
# OpenBLAS runs a product on one thread while m k n <= 4 * 65536 (gemm) and
# m k < 4 * 2304 (gemv); row blocks with m k max(n, 32) <= this meet both.
_SERIAL_PRODUCT = 1 << 18


def _row_step(k: int, n: int) -> int:
    """Rows per block of an (m x k) @ (k x n) product that runs on one thread."""
    return max(1, _SERIAL_PRODUCT // (k * max(n, 32)))


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b over stacks of matrices, in single-threaded row blocks."""
    if out is None:
        out = np.empty(a.shape[:-1] + b.shape[-1:])
    step = _row_step(a.shape[-1], b.shape[-1])
    for r0 in range(0, a.shape[-2], step):
        np.matmul(a[:, r0 : r0 + step], b, out=out[:, r0 : r0 + step])
    return out


@dataclass
class _Batch:
    """Fronts of one depth whose boxes share one shape.

    Local index i of front k is box node ``idx[k, i]``: its pivots, then its
    ring, padded with the box size, then a trash slot (also the box size).
    """

    idx: np.ndarray
    pivots: int
    scatter_to: np.ndarray  # flat front-stack index of each field entry
    scatter_from: np.ndarray  # its flat index into the coefficient field
    unit: np.ndarray  # flat front-stack index of each identity row's diagonal
    # per pivot block [k0, k1): k0, k1, its pivot nodes, the least node it updates
    # (lo) and the nodes it updates less lo
    blocks: list[tuple[int, int, np.ndarray, int, np.ndarray]]
    # children's extend-add: child batch, its rows start:stop, flat row offsets, columns
    adds: list[tuple[int, int, int, np.ndarray, np.ndarray]] = field(default_factory=list)
    # arena offsets: per pivot block its inverse, x and c; the fronts; the Schur complements
    stored: list[tuple[int, int, int]] = field(default_factory=list)
    fronts: int = 0
    schur: int = 0


class _Views(NamedTuple):
    """One batch's arrays in the arena."""

    fronts: np.ndarray
    scratch: np.ndarray  # flat, from the end of the fronts
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]  # inverse, x, c
    schur: np.ndarray | None  # the Schur complements, which the parents read


class _Template:
    """The (h + 2) x (w + 2) window of an h x w box and its ring, cell (a, c) at
    a (w + 2) + c.  A box whose first node is box node (r0, c0) has window cell
    (a, c) at grid node (r0 + a, c0 + c).

    ``pivots`` lists the pivot cells row-major, and ``ring`` the ring's cells:
    the rows above and below the box (corners included), then the columns left
    and right of it.  The position tables ``pivot_of`` and ``ring_of`` give each
    cell's number in those lists, or -1; a child box's cells are in neither.
    """

    def __init__(self, h: int, w: int) -> None:
        self.h, self.w = h, w
        self.leaf = max(h, w) <= _LEAF_SIDE
        mr, mc = (h - 1) // 2, (w - 1) // 2
        # the pivot box (window rows a0:a1, columns c0:c1), and the (r0, r1, c0, c1)
        # offsets from a box to its first and second child
        if self.leaf:  # the whole box
            (a0, a1, c0, c1), children = (1, h + 1, 1, w + 1), ()
        elif h >= w:  # the middle row
            (a0, a1, c0, c1), children = (1 + mr, 2 + mr, 1, w + 1), ((0, mr - h, 0, 0), (mr + 1, 0, 0, 0))
        else:  # the middle column
            (a0, a1, c0, c1), children = (1, h + 1, 1 + mc, 2 + mc), ((0, 0, 0, mc - w), (0, 0, mc + 1, 0))
        self.children = tuple(np.array(offset) for offset in children)
        width, across, down = w + 2, np.arange(w + 2), np.arange(1, h + 1)
        self.pivots = (np.arange(a0, a1)[:, None] * width + np.arange(c0, c1)).ravel()
        self.ring = np.concatenate((across, (h + 1) * width + across, down * width, down * width + w + 1))
        self.pivot_of, self.ring_of = np.full((2, (h + 2) * width), -1)
        self.pivot_of[self.pivots] = np.arange(self.pivots.size)
        self.ring_of[self.ring] = np.arange(self.ring.size)


class NestedDissection:
    """Symbolic phase of the solver for one interior mask of an n1 x n2 grid."""

    def __init__(self, interior: np.ndarray) -> None:
        self.interior = np.asarray(interior, dtype=bool)
        n1, n2 = self.interior.shape
        self._shape = (n1, n2)
        rows, cols = n1 - 2, n2 - 2
        self._cols, self.size = cols, rows * cols
        self.nodes = np.flatnonzero(self.interior[1:-1, 1:-1])  # the unknowns, row-major
        self._inner = np.zeros(n1 * n2, dtype=bool)  # grid nodes of the inner box
        self._inner.reshape(n1, n2)[1:-1, 1:-1] = True

        self._batches: list[_Batch] = []
        depths: list[int] = []  # of each batch; batch ids run depth by depth
        placed: list[tuple[_Template, np.ndarray]] = []  # per batch: template, ring columns
        boxes = np.array([[0, rows, 0, cols]])
        parent = np.array([[-1, 0, 0]])  # parent front of each box: batch, position, rank
        for depth in itertools.count():
            # one batch per box shape; the stable sort keeps each (parent batch,
            # rank) run contiguous, in parent order
            shape = (boxes[:, 1] - boxes[:, 0]) * (cols + 1) + boxes[:, 3] - boxes[:, 2]
            order = np.argsort(shape, kind="stable")
            edges = [0, *(np.flatnonzero(np.diff(shape[order])) + 1).tolist(), order.size]
            next_boxes, next_parent = [], []
            for start, stop in zip(edges[:-1], edges[1:]):
                sel = order[start:stop]
                group = boxes[sel]
                r0, r1, c0, c1 = group[0].tolist()
                t = _Template(r1 - r0, c1 - c0)
                bid = len(self._batches)
                batch, column = self._front_batch(group, t)
                self._batches.append(batch)
                depths.append(depth)
                placed.append((t, column))
                if parent[sel[0], 0] >= 0:
                    self._link(bid, parent[sel], placed)
                if not t.leaf:
                    at = np.arange(sel.size)
                    for rank, offset in enumerate(t.children):
                        next_boxes.append(group + offset)
                        next_parent.append(np.stack((np.full_like(at, bid), at, np.full_like(at, rank)), axis=1))
            if not next_boxes:
                break
            boxes, parent = np.concatenate(next_boxes), np.concatenate(next_parent)
        self._plan(depths)
        self._work: list[_Views] = []  # per batch, made at the first factor
        self._blocks: list = []  # the stored pivot blocks' views, in elimination order
        self._generation = 0  # factorizations so far; only the latest factor is live

    def _front_batch(self, boxes: np.ndarray, t: _Template) -> tuple[_Batch, np.ndarray]:
        """A batch of fronts, and the column of each ring cell in each front's
        update block (the trash column for cells outside the inner box)."""
        (n1, n2), cols, size = self._shape, self._cols, self.size
        act = self.interior.ravel()
        b, width, p = boxes.shape[0], t.w + 2, t.pivots.size
        r0, c0 = boxes[:, :1], boxes[:, 2:3]
        origin = r0 * n2 + c0  # grid node of window cell (0, 0)
        box_origin = (r0 - 1) * cols + c0 - 1  # its box node, had it one
        a, c = np.divmod(np.arange((t.h + 2) * width), width)
        grid, box = a * n2 + c, a * cols + c  # each cell's grid and box node, less the origin's

        # Ring columns: the ring cells inside the inner box, in ring order.
        inside = self._inner[origin + grid[t.ring]]
        count = np.cumsum(inside, axis=1)
        r = int(count[:, -1].max())
        column = np.where(inside, count - 1, r)
        n = p + r + 1
        front = np.arange(b)[:, None]
        nodes = np.full((b, r + 1), size)  # padded with the box size
        nodes[front, column] = np.where(inside, box_origin + box[t.ring], size)  # outside: trash column
        idx = np.concatenate((box_origin + box[t.pivots], nodes), axis=1)

        # Field entries.  Row s (a pivot) at column q = s + (di, dj) goes in where
        # the front holds q; where q is a ring node, so does row q at column s.
        # Entries that reach a child box were assembled in that child's front;
        # those at a grid boundary or masked node go to the trash slot.
        o, k = np.repeat(np.arange(9), p), np.tile(np.arange(p), 9)
        cell = t.pivots[k] + (o // 3 - 1) * width + o % 3 - 1
        pivot, ring = t.pivot_of[cell], t.ring_of[cell]
        on_ring, on_pivot = np.flatnonzero(ring >= 0), np.flatnonzero(pivot >= 0)
        order = np.concatenate((on_ring, on_pivot))  # the ring's entries first
        m, e, o, k, cell = on_ring.size, order.size, o[order], k[order], cell[order]
        # Entry by entry, front by front: the rows' entries, then the ring's
        # column entries.  The index arrays are filled in place: whole-array
        # temporaries at this size raise a solve's peak memory.
        scatter_to, scatter_from = np.empty((2, (e + m) * b), dtype=np.int64)
        to, at = scatter_to.reshape(e + m, b), scatter_from.reshape(e + m, b)
        np.take(column.T + p, ring[on_ring], axis=0, out=to[e:])  # where each front holds ring node q
        np.add(to[e:], n * k[:m, None], out=to[:m])  # row s at column q
        to[e:] *= n
        to[e:] += k[:m, None]  # row q at column s
        to[m:e] = (k[m:] * n + pivot[on_pivot])[:, None]  # row s at pivot q
        np.add((grid[t.pivots[k]] + o * n1 * n2)[:, None], origin.T, out=at[:e])
        np.add((grid[cell[:m]] + (8 - o[:m]) * n1 * n2)[:, None], origin.T, out=at[e:])
        live = act[origin + grid[t.pivots]]
        dropped = ~act[grid[cell][:, None] + origin.T]
        if not np.all(live):  # masked pivots: identity rows
            dropped |= ~live.T[k]
        np.copyto(to[:e], n * n - 1, where=dropped)  # the trash slot's diagonal
        np.copyto(to[e:], n * n - 1, where=dropped[:m])
        to += front.T * n * n
        unit = (front * n * n + np.arange(p) * (n + 1))[~live]  # identity rows' diagonals

        cuts = -(-p // _PIVOT_CAP)
        edges = [i * p // cuts for i in range(cuts + 1)]
        blocks = []
        for k0, k1 in zip(edges[:-1], edges[1:]):
            lo = int(idx[:, k1:].min())
            blocks.append((k0, k1, np.ascontiguousarray(idx[:, k0:k1]), lo, idx[:, k1:] - lo))
        return _Batch(idx, p, scatter_to, scatter_from, unit, blocks), column

    def _link(self, bid: int, parent: np.ndarray, placed: list) -> None:
        """Register batch bid's extend-adds in its parents' batches, one per run
        of fronts with one parent batch and rank (a run adds into each parent
        at most once, so no two of its entries land on one parent entry)."""
        t, column = placed[bid]
        r = self._batches[bid].idx.shape[1] - self._batches[bid].pivots - 1  # the trash column
        a, c = np.divmod(t.ring, t.w + 2)
        runs = np.flatnonzero(np.any(np.diff(parent[:, [0, 2]], axis=0) != 0, axis=1)) + 1
        edges = [0, *runs.tolist(), parent.shape[0]]
        for start, stop in zip(edges[:-1], edges[1:]):
            target, rank = int(parent[start, 0]), int(parent[start, 2])
            tp, target_column = placed[target]
            target_batch = self._batches[target]
            n = target_batch.idx.shape[1]
            shift = tp.children[rank]
            cell = (a + shift[0]) * (tp.w + 2) + c + shift[2]  # the ring in the parent's window
            pivot, ring = tp.pivot_of[cell], tp.ring_of[cell]
            where = parent[start:stop, 1, None]
            # padding goes to the parent's trash slot, and so do the cells outside
            # the inner box, through the parent's ring columns
            cols = np.full((stop - start, r + 1), n - 1)
            local = np.where(ring >= 0, target_batch.pivots + target_column[where, ring], pivot)
            cols[np.arange(stop - start)[:, None], column[start:stop]] = local
            target_batch.adds.append((bid, start, stop, (where * n + cols) * n, cols))

    def _plan(self, depths: list[int]) -> None:
        """Arena offsets of the numeric phase's arrays (see Workspace above)."""
        store = top = 0
        level: dict[int, int] = {}  # Schur entries of each depth so far
        for bid in range(len(self._batches) - 1, -1, -1):  # elimination order
            batch = self._batches[bid]
            b, n = batch.idx.shape
            scratch = max([batch.scatter_from.size] + [cols.size * cols.shape[1] for *_, cols in batch.adds])
            for k0, k1, *_ in batch.blocks:
                k, m = k1 - k0, n - k1
                batch.stored.append((store, store + b * k * k, store + b * k * (k + m)))
                store += b * k * (k + 2 * m)
                scratch = max(scratch, b * min(_row_step(k, m), m) * m)
            batch.fronts = store
            top = max(top, store + b * n * n + scratch)
            if bid:  # the root's Schur complement is read by no parent
                batch.schur = level.get(depths[bid], 0)
                level[depths[bid]] = batch.schur + b * (n - batch.pivots) ** 2
        # two Schur regions at the end, by depth parity, each as large as its largest depth
        region = [max([v for d, v in level.items() if d % 2 == q], default=0) for q in (0, 1)]
        for bid in range(1, len(self._batches)):
            self._batches[bid].schur += top + (depths[bid] % 2) * region[0]
        self._arena_size = top + region[0] + region[1]

    def _allocate(self) -> None:
        """The arena and each batch's views into it."""
        arena = np.empty(self._arena_size)

        def view(offset: int, *shape: int) -> np.ndarray:
            return arena[offset : offset + math.prod(shape)].reshape(shape)

        for bid, batch in enumerate(self._batches):
            b, n = batch.idx.shape
            blocks = []
            for (k0, k1, *_), (inverse, x, c) in zip(batch.blocks, batch.stored):
                k, m = k1 - k0, n - k1
                blocks.append((view(inverse, b, k, k), view(x, b, k, m), view(c, b, m, k)))
            r = n - batch.pivots
            schur = view(batch.schur, b, r, r) if bid else None
            scratch = arena[batch.fronts + b * n * n :]
            self._work.append(_Views(view(batch.fronts, b, n, n), scratch, blocks, schur))
        # in elimination order
        for batch, views in zip(reversed(self._batches), reversed(self._work)):
            for (_, _, piv, lo, upd), stored in zip(batch.blocks, views.blocks):
                self._blocks.append((piv, lo, upd, *stored))

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def factor(self, coef: np.ndarray) -> "Factor":
        """LU factor of the system whose rows a (3, 3, n1, n2) field holds.

        The factor lives in the solver's workspace: it is valid until the
        solver's next ``factor`` call.
        """
        values = np.ascontiguousarray(coef, dtype=float).reshape(-1)
        if values.size != 9 * self._shape[0] * self._shape[1]:
            raise ValueError("coefficient field does not match the grid")
        if not self._work:
            self._allocate()
        self._generation += 1
        for bid in range(len(self._batches) - 1, -1, -1):  # deepest batches first
            batch = self._batches[bid]
            fronts, scratch, blocks, schur = self._work[bid]
            b, n, _ = fronts.shape
            flat = fronts.reshape(-1)
            fronts.fill(0.0)
            gathered = scratch[: batch.scatter_from.size]
            np.take(values, batch.scatter_from, out=gathered, mode="clip")  # in range: no checked copy
            flat[batch.scatter_to] = gathered
            flat[batch.unit] = 1.0
            for child, start, stop, offsets, cols in batch.adds:
                ix = scratch.view(np.intp)[: cols.size * cols.shape[1]]
                np.add(offsets[:, :, None], cols[:, None, :], out=ix.reshape(cols.shape + cols.shape[1:]))
                # ufunc.at takes its fast path on a flat index
                np.add.at(flat, ix, self._work[child].schur[start:stop].reshape(-1))
            for (k0, k1, *_), (inverse, x, c) in zip(batch.blocks, blocks):
                np.copyto(inverse, np.linalg.inv(fronts[:, k0:k1, k0:k1]))
                _product(inverse, fronts[:, k0:k1, k1:], out=x)
                np.copyto(c, fronts[:, k1:, k0:k1])
                m = n - k1
                # the last block's update is the Schur complement, which the parent reads
                dest = schur if k1 == batch.pivots and schur is not None else fronts[:, k1:, k1:]
                step = _row_step(k1 - k0, m)
                for r0 in range(0, m, step):
                    rows = min(step, m - r0)
                    update = scratch[: b * rows * m].reshape(b, rows, m)
                    np.matmul(c[:, r0 : r0 + rows], x, out=update)
                    np.subtract(fronts[:, k1 + r0 : k1 + r0 + rows, k1:], update, out=dest[:, r0 : r0 + rows])
        return Factor(self, self._generation)


class Factor:
    """Stored pivot blocks of a solver's latest factorization, in elimination order."""

    def __init__(self, solver: NestedDissection, generation: int) -> None:
        self._solver, self._generation = solver, generation

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solution, a new array, for a right-hand side given on the unknowns, row-major."""
        solver = self._solver
        if solver._generation != self._generation:
            raise RuntimeError("a later factorization has overwritten this factor")
        y = np.zeros(solver.size + 1)  # on the box nodes, and a last entry that collects padding
        y[solver.nodes] = rhs
        zs = []  # each block's forward-sweep vector
        for piv, lo, upd, inverse, _, c in solver._blocks:
            z = _product(inverse, y[piv][:, :, None])
            window = np.bincount(upd.ravel(), _product(c, z).ravel())
            y[lo : lo + window.size] -= window
            zs.append(z)
        sol = np.zeros(solver.size + 1)  # padding reads the last entry, which stays 0
        for (piv, lo, upd, _, x, _), z in zip(reversed(solver._blocks), reversed(zs)):
            sol[piv] = (z - _product(x, sol[lo:][upd][:, :, None]))[:, :, 0]
        return sol[solver.nodes]
