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
share one shape form a batch, laid out by one window template.  A ring loses
the sides and corners that leave the inner box, so rings are padded to the
batch's longest, and every front ends in a trash slot, where padding and
dropped entries go.  Index arrays hold O(batch x front rows) entries, none per
front entry.

Numeric phase (``NestedDissection.factor``), batch by batch from the deepest
depth up (the multifrontal method; Liu, SIAM Review 34, 1992): scatter the
field into the stack of fronts, extend-add the children's Schur complements,
invert each pivot block (LU with partial pivoting inside the block, no
delayed pivots) and form S = F_UU - F_UP (F_PP^-1 F_PU).  A singular pivot
block raises ``numpy.linalg.LinAlgError``.  ``Factor.solve`` is one forward
and one backward sweep over the stored blocks.  Non-finite entries pass
through both phases without floating-point warnings, as they do through a
sparse LU; callers check the solution.

Results do not depend on the number of BLAS threads: pivot blocks have at most
``_PIVOT_CAP`` rows, and every product runs in row blocks small enough that
OpenBLAS computes each on one thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over stacks of matrices, in single-threaded row blocks."""
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
    # per pivot block [k0, k1): k0, k1, its pivot nodes and the nodes it updates
    blocks: list[tuple[int, int, np.ndarray, np.ndarray]]
    # children's extend-add: child batch, its rows start:stop, flat row offsets, columns
    adds: list[tuple[int, int, int, np.ndarray, np.ndarray]] = field(default_factory=list)


# kinds of window cells: a pivot, the ring's row above, row below, column left
# and column right of the box, and a child box's node
_PIVOT, _ABOVE, _BELOW, _LEFT, _RIGHT, _CHILD = range(6)


class _Template:
    """The (h + 2) x (w + 2) window of an h x w box and its ring, cell (a, c)
    row-major.  A box whose first node is box node (r0, c0) has window cell
    (a, c) at grid node (r0 + a, c0 + c).

    Each cell has a kind and a coord.  A ring cell's slot in its front is the
    slot where its side starts plus its coord: its column on the rows above
    and below (corners included), its row on the columns left and right.  A
    pivot's coord is its number, row-major over the pivot box.
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
        self._kinds = np.full((h + 2, w + 2), _CHILD)
        self._kinds[a0:a1, c0:c1] = _PIVOT
        self._kinds[:, 0], self._kinds[:, -1], self._kinds[0], self._kinds[-1] = _LEFT, _RIGHT, _ABOVE, _BELOW
        line = c1 - c0
        # per kind, coord = x a + y c + z for cell (a, c): rows (x, y, z)
        self._coord = np.array(
            [(line, 1, -a0 * line - c0), (0, 1, 0), (0, 1, 0), (1, 0, 0), (1, 0, 0), (0, 0, 0)]
        )
        k = np.arange((a1 - a0) * line)
        self.pivots = (a0 + k // line) * (w + 2) + c0 + k % line  # cells, in pivot order
        # the ring's cells side by side in slot order, their kinds and coords
        width, across, down = w + 2, np.arange(w + 2), np.arange(1, h + 1)
        self.ring = np.concatenate((across, (h + 1) * width + across, down * width, down * width + w + 1))
        self.ring_kind = np.repeat((_ABOVE, _BELOW, _LEFT, _RIGHT), (width, width, h, h))
        self.ring_coord = np.concatenate((across, across, down, down))

    def classify(self, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Kind and coord of window cells."""
        a, c = np.divmod(cell, self.w + 2)
        kind = self._kinds[a, c]
        return kind, self._coord[kind, 0] * a + self._coord[kind, 1] * c + self._coord[kind, 2]


class NestedDissection:
    """Symbolic phase of the solver for one interior mask of an n1 x n2 grid."""

    def __init__(self, interior: np.ndarray) -> None:
        self.interior = np.asarray(interior, dtype=bool)
        n1, n2 = self.interior.shape
        self._shape = (n1, n2)
        self._rows, self._cols = rows, cols = n1 - 2, n2 - 2
        self.size = rows * cols
        self.nodes = np.flatnonzero(self.interior[1:-1, 1:-1])  # the unknowns, row-major
        self._inner = np.zeros(n1 * n2, dtype=bool)  # grid nodes of the inner box
        self._inner.reshape(n1, n2)[1:-1, 1:-1] = True

        self._batches: list[_Batch] = []
        self._uses: dict[int, int] = {}  # extend-adds that read each batch's Schur complements
        placed: list[tuple[_Template, np.ndarray, np.ndarray]] = []  # per batch: template, columns, slots
        boxes = np.array([[0, rows, 0, cols]])
        parent = np.array([[-1, 0, 0]])  # parent front of each box: batch, position, rank
        while True:
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
                batch, *columns_slots = self._front_batch(group, t)
                self._batches.append(batch)
                placed.append((t, *columns_slots))
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

    def _front_batch(self, boxes: np.ndarray, t: _Template) -> tuple[_Batch, np.ndarray, np.ndarray]:
        """A batch of fronts; the column of each ring cell in each front's update
        block (the trash column for cells outside the inner box); and by cell
        kind, the local index of each front's cells less their ``coord``."""
        rows, cols, size = self._rows, self._cols, self.size
        n1, n2 = self._shape
        act = self.interior.ravel()
        b, width = boxes.shape[0], t.w + 2
        p = t.pivots.size
        r0, r1, c0, c1 = (v[:, None] for v in boxes.T)
        origin = r0 * n2 + c0  # grid node of window cell (0, 0)
        box_origin = (r0 - 1) * cols + c0 - 1  # its box node, had it one

        # Ring slots: each side follows the sides before it, and cells outside
        # the inner box (whole sides, and corners beside them) hold none.
        span = width - (c0 == 0) - (c1 == cols)
        length = np.concatenate((span * (r0 > 0), span * (r1 < rows), t.h * (c0 > 0), t.h * (c1 < cols)), axis=1)
        start = np.cumsum(length, axis=1) - length
        slots = np.concatenate((start[:, :2] - (c0 == 0), start[:, 2:] - 1), axis=1)  # less each side's first coord
        r = int(np.max(start[:, -1] + length[:, -1]))
        n = p + r + 1
        front = np.arange(b)[:, None]
        a, c = np.divmod(t.ring, width)
        inside = self._inner[origin + a * n2 + c]
        column = np.where(inside, slots[:, t.ring_kind - 1] + t.ring_coord, r)
        nodes = np.full((b, r + 1), size)  # padded with the box size
        nodes.ravel()[front * (r + 1) + column] = box_origin + a * cols + c
        nodes[:, r] = size  # the trash column, which took the cells outside
        pa, pc = np.divmod(t.pivots, width)
        idx = np.concatenate((box_origin + pa * cols + pc, nodes), axis=1)
        slots = np.concatenate((np.zeros((b, 1), dtype=np.int64), p + slots), axis=1)  # by kind
        pivot_offset = pa * n2 + pc
        pivot_grid = origin + pivot_offset

        # Field entries.  Row s (a pivot) at column q = s + (di, dj) goes in where
        # the front holds q; where q is a ring node, so does row q at column s.
        # Entries that reach a child box were assembled in that child's front;
        # those at a grid boundary or masked node go to the trash slot.
        o = np.repeat(np.arange(9), p)
        k = np.tile(np.arange(p), 9)
        kind, coord = t.classify(t.pivots[k] + (o // 3 - 1) * width + o % 3 - 1)
        # the ring sides' entries first, kind by kind, then the pivots'; child cells drop out
        order = np.argsort((kind - 1) % 6, kind="stable")
        order = order[kind[order] != _CHILD]
        o, k, kind, coord = o[order], k[order], kind[order], coord[order]
        kinds = (_ABOVE, _BELOW, _LEFT, _RIGHT, _PIVOT)
        edges = np.cumsum([0] + [np.count_nonzero(kind == v) for v in kinds]).tolist()
        m, e = edges[4], edges[5]
        row_grid = pivot_offset[k, None]  # row node, from the window origin
        col_grid = row_grid + ((o // 3 - 1) * n2 + o % 3 - 1)[:, None]
        # Entry by entry, front by front.  The index arrays are filled in place:
        # at this size each new array costs page faults.
        scatter_to, scatter_from = np.empty((2, (e + m) * b), dtype=np.int64)
        to_row, to_col = scatter_to[: e * b].reshape(e, b), scatter_to[e * b :].reshape(m, b)
        n1n2 = n1 * n2
        origin, corner = origin.T, front.T * n * n
        np.add(row_grid + o[:, None] * n1n2, origin, out=scatter_from[: e * b].reshape(e, b))
        np.add(col_grid[:m] + (8 - o[:m, None]) * n1n2, origin, out=scatter_from[e * b :].reshape(m, b))
        live = act[pivot_grid]
        dropped = ~act[col_grid + origin]
        if not np.all(live):  # masked pivots: identity rows
            dropped |= ~live.T[k]
        for v, lo, hi in zip(kinds, edges[:-1], edges[1:]):
            np.add((k[lo:hi] * n + coord[lo:hi])[:, None], corner + slots[:, v], out=to_row[lo:hi])
            if v != _PIVOT:
                np.add((coord[lo:hi] * n + k[lo:hi])[:, None], corner + slots[:, v] * n, out=to_col[lo:hi])
        trash = (n - 1) * (n + 1) + corner  # the trash slot's diagonal
        np.copyto(to_row, trash, where=dropped)
        np.copyto(to_col, trash, where=dropped[:m])
        pivot = np.arange(p)
        unit = ((front * n + pivot) * n + pivot)[~live]

        cuts = -(-p // _PIVOT_CAP)
        edges = [i * p // cuts for i in range(cuts + 1)]
        blocks = [
            (k0, k1, np.ascontiguousarray(idx[:, k0:k1]), np.ascontiguousarray(idx[:, k1:]))
            for k0, k1 in zip(edges[:-1], edges[1:])
        ]
        return _Batch(idx, p, scatter_to, scatter_from, unit, blocks), column, slots

    def _link(self, bid: int, parent: np.ndarray, placed: list) -> None:
        """Register batch bid's extend-adds in its parents' batches, one per run
        of fronts with one parent batch and rank (a run adds into each parent
        at most once, so no two of its entries land on one parent entry)."""
        t, column, _ = placed[bid]
        r = self._batches[bid].idx.shape[1] - self._batches[bid].pivots - 1  # the trash column
        a, c = np.divmod(t.ring, t.w + 2)
        runs = np.flatnonzero(np.any(np.diff(parent[:, [0, 2]], axis=0) != 0, axis=1)) + 1
        edges = [0, *runs.tolist(), parent.shape[0]]
        for start, stop in zip(edges[:-1], edges[1:]):
            target, rank = int(parent[start, 0]), int(parent[start, 2])
            tp, _, slots = placed[target]
            target_batch = self._batches[target]
            n = target_batch.idx.shape[1]
            shift = tp.children[rank]
            kind, coord = tp.classify((a + shift[0]) * (tp.w + 2) + c + shift[2])
            where = parent[start:stop, 1, None]
            cols = np.full((stop - start, r + 1), n - 1)  # padding goes to the parent's trash slot
            cols.ravel()[np.arange(stop - start)[:, None] * (r + 1) + column[start:stop]] = (
                slots[where, kind] + coord
            )
            cols[:, r] = n - 1  # and so does the trash column, which took the cells outside
            target_batch.adds.append((bid, start, stop, (where * n + cols) * n, cols))
            self._uses[bid] = self._uses.get(bid, 0) + 1

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def factor(self, coef: np.ndarray) -> "Factor":
        """LU factor of the system whose rows a (3, 3, n1, n2) field holds."""
        values = np.ascontiguousarray(coef, dtype=float).reshape(-1)
        if values.size != 9 * self._shape[0] * self._shape[1]:
            raise ValueError("coefficient field does not match the grid")
        schur: dict[int, np.ndarray] = {}
        uses = dict(self._uses)
        blocks = []
        for bid in range(len(self._batches) - 1, -1, -1):  # deepest batches first
            batch = self._batches[bid]
            b, n = batch.idx.shape
            fronts = np.zeros((b, n, n))
            flat = fronts.reshape(-1)
            flat[batch.scatter_to] = values[batch.scatter_from]
            flat[batch.unit] = 1.0
            for child, start, stop, offsets, cols in batch.adds:
                flat[offsets[:, :, None] + cols[:, None, :]] += schur[child][start:stop]
                uses[child] -= 1
                if not uses[child]:
                    del schur[child]
            for k0, k1, piv, upd in batch.blocks:
                inverse = np.linalg.inv(fronts[:, k0:k1, k0:k1])
                x = _product(inverse, fronts[:, k0:k1, k1:])
                c = fronts[:, k1:, k0:k1].copy()
                step = _row_step(k1 - k0, n - k1)
                for r0 in range(0, n - k1, step):
                    fronts[:, k1 + r0 : k1 + r0 + step, k1:] -= c[:, r0 : r0 + step] @ x
                blocks.append((piv, upd, inverse, x, c))
            if bid in uses:
                schur[bid] = fronts[:, batch.pivots :, batch.pivots :].copy()
        return Factor(self.nodes, self.size, blocks)


class Factor:
    """Stored pivot blocks of one factorization, in elimination order."""

    def __init__(self, nodes: np.ndarray, size: int, blocks: list) -> None:
        self._nodes, self._size, self._blocks = nodes, size, blocks

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solution for a right-hand side given on the unknowns, row-major."""
        y = np.zeros(self._size + 1)  # the last entry collects padding
        y[self._nodes] = rhs
        z = []
        for piv, upd, inverse, _, c in self._blocks:
            z.append(_product(inverse, y[piv][:, :, None]))
            y -= np.bincount(upd.ravel(), _product(c, z[-1]).ravel(), minlength=y.size)
        sol = np.zeros(self._size + 1)  # padding reads the last entry, which stays 0
        for (piv, upd, _, x, _), zk in zip(reversed(self._blocks), reversed(z)):
            sol[piv] = (zk - _product(x, sol[upd][:, :, None]))[:, :, 0]
        return sol[self._nodes]
