"""Exact maximum disjoint monochromatic-triangle packings.

The solver is a depth-first branch and bound over the (lexicographically
sorted) list of monochromatic triangles: the branching vertex is the lowest
vertex still appearing in an alive triangle, children either commit one of
its alive triangles (in increasing list order) or discard the vertex for
good.  A :class:`MonoClique` is built only for the triangles of a returned
tiling or bowtie.

Everything a search needs before its first node is built with numpy:

* the triangle table: :func:`_triangle_table` returns the ``(u, v, w, c)``
  rows of :meth:`ColouredGraph.mono_triangles` as one ``(T, 4)`` array, in
  the same order, comparing one block of first vertices at a time against
  the colours among their later neighbours, decoded for that block only; a
  single-colour search takes the rows of its colour;
* the incidence rows ``inc[v]``: a boolean (vertex, triangle) scatter,
  one block of triangles at a time, packed little-endian and read into
  one int per vertex, linear in T;
* the greedy seed (below): an argmin over an array of alive triangle
  indices, with degrees from ``bincount``.

Sets of triangles are bitsets over the list, in the manner of the
bit-parallel clique solvers (San Segundo et al., Comput. Oper. Res. 38(2),
2011): the alive set is one int, and ``inc[v]`` holds the triangles through
vertex ``v``.  Committing triangle ``abc`` keeps ``alive & ~(inc[a] | inc[b]
| inc[c])``, discarding ``v`` keeps ``alive & ~inc[v]``, the support is the
set of ``v`` with ``alive & inc[v]`` nonzero, and a vertex's alive degree is
a ``bit_count``.  The search itself reads the triangles' vertices from a
plain list of ``[a, b, c]`` rows.  No per-triangle conflict table is built:
it would take O(T^2) bits, about 29 MB for the 15,180 triangles of
``ex_triangle_alt(48, 47)``.

Three admissible upper bounds are checked at every node, cheapest first,
and any one that cannot beat the incumbent prunes:

* vertex count: ceil-free ``|alive support| // 3``;
* cover: a greedy vertex cover of the triangle hypergraph (disjoint
  triangles consume distinct cover vertices);
* scatter: a greedy independent set U in the co-occurrence graph of the
  support (no triangle holds two U vertices, so every triangle needs two
  vertices outside U, giving ``|support - U| // 2``).

A dynamic greedy packing (repeatedly take the alive triangle with the
smallest total triangle-degree over its vertices, the lowest index on a
tie) seeds the incumbent; on the extremal constructions in this package it
already hits the optimum and the root bound certifies it, so those solves
finish in one node.

Most nodes of a deep search meet an alive set that an earlier node of the
same search already met: one pass of perfbench's ``solve`` workload makes
10,451 nodes over 1,895 distinct alive sets.  Everything a node computes
before it branches is a function of its alive set alone: the support (read
off the parent's support, which contains it, so its order is fixed too),
the rows ``alive & inc[v]`` and the three bounds.  So each search keeps a
memo from the alive set to its support and its cover and scatter bounds,
each bound computed at most once per alive set and only when the cheaper
ones fail to prune.  A cached value is the value the node would compute,
so the search visits the same nodes in the same order, at any budget and
whatever the memo holds.  An entry keeps no rows: ``rows[0]`` is one AND,
a miss builds the rows with the support, and a hit rebuilds them from the
support only when a bound is still missing.

The memo's entry count is capped at ``_MEMO_BYTES`` over an upper bound on
one entry's bytes (the key's digits, one pointer per vertex and a fixed
overhead), and a full memo drops its oldest entry.  At 16 MB it keeps the
whole working set of 2x10^5-node searches on recoloured 36-vertex
extremal hosts (up to about 18,000 alive sets, about 10 MB).  The search
runs over an explicit stack, so deep searches stay clear of Python's
recursion limit.

Everything here is deterministic and single-threaded; results never depend
on a worker count.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from tritile.graphs import (
    AnomalyError,
    Bowtie,
    ColouredGraph,
    MonoClique,
    SearchBudgetExceeded,
    Tiling,
    Triangle,
    first_pair,
    mask_of,
)

DEFAULT_NODE_BUDGET = 5_000_000
DEFAULT_TILING_BUDGET = 10_000_000


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact packing solve.

    ``optimum`` is exact when ``proved_optimal`` is set and otherwise the
    best packing size found before the node budget ran out; ``tiling`` is a
    witness of that size.
    """

    optimum: int
    tiling: Tiling
    nodes_explored: int
    proved_optimal: bool


class _PackingSearch:
    """Branch and bound over one fixed triangle list.

    A set of triangles is one int with bit ``i`` for triangle ``i``, and
    ``inc[v]`` is the set of triangles through vertex ``v``.
    """

    def __init__(self, triangles: Sequence[Triangle] | np.ndarray, budget: int):
        # int32 holds any vertex below MAX_VERTICES at half the memory of int64.
        self.table = np.asarray(triangles, dtype=np.int32).reshape(-1, 4)
        verts = self.table[:, :3]
        count = len(verts)
        # A boolean scatter of the (vertex, triangle) incidences, packed
        # little-endian so that bit i of row v is triangle i, one block of
        # triangles at a time so that the boolean matrix stays small.
        rows = int(verts.max()) + 1 if count else 0
        packed = np.empty((rows, (count + 7) // 8), dtype=np.uint8)
        step = max(8, _BLOCK_CELLS // max(1, rows) // 8 * 8)
        for start in range(0, count, step):
            block = verts[start:start + step]
            hit = np.zeros((rows, len(block)), dtype=bool)
            hit[block, np.arange(len(block))[:, None]] = True
            packed[:, start // 8:(start + len(block) + 7) // 8] = np.packbits(
                hit, axis=1, bitorder="little")
        self.inc = [int.from_bytes(row.tobytes(), "little") for row in packed]
        self.verts = verts.tolist()
        self.budget = budget
        self.nodes = 0
        self.best_count = -1
        self.best_sel: list[int] = []
        # The alive-set memo: [support, cover, scatter] of each alive set
        # met, oldest first, with a bound None until it is computed.
        entry_bytes = 4 * (count // 30 + 1) + 8 * rows + _MEMO_ENTRY_OVERHEAD
        self.memo_limit = max(1, _MEMO_BYTES // entry_bytes)
        self.memo: OrderedDict[int, list] = OrderedDict()

    def run(self) -> SolveResult:
        seed = self._greedy()
        self.best_count = len(seed)
        self.best_sel = seed
        proved = True
        try:
            self._search()
        except SearchBudgetExceeded:
            proved = False
        tiling = Tiling(tuple(MonoClique.of(self.table[i].tolist()) for i in self.best_sel))
        return SolveResult(optimum=self.best_count, tiling=tiling,
                           nodes_explored=self.nodes, proved_optimal=proved)

    def _search(self) -> None:
        """Depth first from the root, every triangle alive, over an explicit stack.

        A node is ``(alive, count)``, with ``chosen`` holding its ``count``
        committed triangles; ``within`` is a vertex list that contains its
        support (its parent's support).  A frame ``[alive, support, count,
        through]`` is a node that branches, ``through`` the alive triangles
        through ``support[0]`` not yet committed; its last child, the
        discard of ``support[0]``, replaces it on the stack.
        """
        inc, verts, memo, limit = self.inc, self.verts, self.memo, self.memo_limit
        chosen: list[int] = []
        stack: list[list] = []
        alive, within, count = (1 << len(verts)) - 1, range(len(inc)), 0
        while True:
            self.nodes += 1
            if self.nodes > self.budget:
                raise SearchBudgetExceeded(f"packing search exceeded {self.budget} nodes")
            if count > self.best_count:
                self.best_count = count
                self.best_sel = chosen[:]
            if alive:
                entry = memo.get(alive)
                # The alive triangles through each support vertex: built with
                # the support on a miss, and on a hit only for a missing bound.
                rows = None
                if entry is None:
                    if len(memo) >= limit:
                        memo.popitem(last=False)
                    support, rows = [], []
                    for v in within:
                        row = alive & inc[v]
                        if row:
                            support.append(v)
                            rows.append(row)
                    entry = memo[alive] = [tuple(support), None, None]
                support, cover, scatter = entry
                # Pruned when any bound fails to beat the incumbent; cheapest first.
                slack = self.best_count - count
                if len(support) // 3 > slack:
                    if cover is None:
                        rows = rows or [alive & inc[v] for v in support]
                        cover = entry[1] = self._cover(rows)
                    if cover > slack:
                        if scatter is None:
                            rows = rows or [alive & inc[v] for v in support]
                            scatter = entry[2] = self._scatter(support, rows)
                        if scatter > slack:
                            stack.append([alive, support, count, alive & inc[support[0]]])
            # On to the next child of the deepest frame: a commit, or the discard.
            if not stack:
                return
            frame = stack[-1]
            parent, within, count, through = frame
            del chosen[count:]
            if through:
                low = through & -through
                frame[3] = through ^ low
                i = low.bit_length() - 1
                a, b, c = verts[i]
                chosen.append(i)
                alive = parent & ~(inc[a] | inc[b] | inc[c])
                count += 1
            else:
                stack.pop()
                alive = parent & ~inc[within[0]]

    @staticmethod
    def _scatter(support: Sequence[int], rows: list[int]) -> int:
        """``|support - U| // 2`` for a greedy set U with no two vertices in one triangle.

        U takes the vertices in order of fewest co-occurring vertices, then
        lowest index, each when none of its co-occurring vertices is in U
        yet.  A vertex counts itself among them, which shifts every count by
        one and so changes neither the order nor the test.
        """
        bits = [1 << v for v in support]
        partners = bits[:]
        for j, row in enumerate(rows):
            for k in range(j + 1, len(rows)):
                if row & rows[k]:
                    partners[j] |= bits[k]
                    partners[k] |= bits[j]
        keyed = sorted(zip(map(int.bit_count, partners), bits, partners))
        independent = 0
        for _, bit, mates in keyed:
            if not mates & independent:
                independent |= bit
        return (len(rows) - independent.bit_count()) // 2

    @staticmethod
    def _cover(rows: list[int]) -> int:
        """Size of a greedy cover: take the first vertex on the most triangles, repeat."""
        picks = 0
        while rows:
            keep = ~max(rows, key=int.bit_count)
            rows = [left for row in rows if (left := row & keep)]
            picks += 1
        return picks

    def _greedy(self) -> list[int]:
        """Repeatedly take the alive triangle of least total vertex degree."""
        verts = self.table[:, :3]
        hit = np.zeros(len(self.inc), dtype=bool)
        chosen = []
        alive = np.arange(len(verts))
        while alive.size:
            sub = verts[alive]
            deg = np.bincount(sub.ravel(), minlength=len(hit))
            # argmin returns the first minimum: ties go to the lower index.
            pick = int(np.argmin(deg[sub].sum(1)))
            chosen.append(int(alive[pick]))
            hit[:] = False
            hit[sub[pick]] = True
            alive = alive[~hit[sub].any(1)]
        return chosen


# Most cells in one block of the numpy set-up: the boolean (vertex, triangle)
# matrix of the incidence scatter, the vertex-pair comparisons of
# _triangle_table, and the unpacked rows of _colour_rows.
_BLOCK_CELLS = 1 << 18

# Most bytes the alive-set memo of one packing search holds, and an upper
# bound on one entry's bytes beyond its key's digits and its support's
# pointers (150-300 bytes measured under tracemalloc).
_MEMO_BYTES = 1 << 24
_MEMO_ENTRY_OVERHEAD = 384


def _colour_rows(g: ColouredGraph, rows: np.ndarray,
                 cols: Optional[np.ndarray] = None) -> np.ndarray:
    """The int8 colours of the edges from ``rows`` to ``cols`` (default: every vertex).

    A non-edge reads -1.  The rows are unpacked from the colour masks a few
    at a time, so that the working memory beyond the output stays near
    ``_BLOCK_CELLS`` cells.
    """
    n = g.n
    width = (n + 7) // 8
    out = np.full((len(rows), n if cols is None else len(cols)), -1, dtype=np.int8)
    step = max(1, _BLOCK_CELLS // max(1, n))
    rows = rows.tolist()
    for lo in range(0, len(rows), step):
        part = rows[lo:lo + step]
        for c, masks in enumerate(g.colour_adj):
            packed = np.frombuffer(b"".join(masks[v].to_bytes(width, "little") for v in part),
                                   dtype=np.uint8).reshape(len(part), width)
            bits = np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)
            out[lo:lo + len(part)][bits if cols is None else bits[:, cols]] = c
    return out


def _table_blocks(g: ColouredGraph) -> Iterator[tuple[int, int]]:
    """The blocks ``[u0, u1)`` of first vertices that :func:`_triangle_table` takes.

    A block grows while its size times its squared count of later
    neighbours (the vertices above u0 adjacent to the block), and its size
    times n, stay within ``_BLOCK_CELLS``; it always takes one vertex.
    """
    n, adj = g.n, g.adj
    most = max(1, _BLOCK_CELLS // max(1, n))
    u0 = 0
    while u0 < n:
        near, u1 = adj[u0], u0 + 1
        while u1 < n and u1 - u0 < most:
            wider = near | adj[u1]
            if (u1 - u0 + 1) * (wider >> (u0 + 1)).bit_count() ** 2 > _BLOCK_CELLS:
                break
            near, u1 = wider, u1 + 1
        yield u0, u1
        u0 = u1


def _triangle_table(g: ColouredGraph) -> np.ndarray:
    """Every monochromatic triangle as a ``(T, 4)`` int32 array of ``(u, v, w, c)`` rows.

    The rows come in the lexicographic order of :meth:`ColouredGraph.mono_triangles`.
    Each block of first vertices ``u`` decodes its own colour rows and the
    colours among the later vertices adjacent to the block, and compares
    them, so the working memory is O(block * n + block * later^2), however
    large n is, and a sparse host costs about the sum of its squared
    degrees.  A host of at most 64 vertices is one block.
    """
    n = g.n
    index = np.arange(n)
    parts = [np.empty((0, 4), dtype=np.int32)]
    for u0, u1 in _table_blocks(g):
        us = index[u0:u1]
        block = _colour_rows(g, us)
        later = np.flatnonzero((block >= 0).any(0) & (index > u0))
        # uv's colour, or -1 unless v is a later neighbour of u.
        first = np.where(later > us[:, None], block[:, later], -1)
        if len(later) and later[-1] < u0 + len(us):
            # The later rows lie inside the block (always, for one block).
            sub = block[later - u0][:, later]
        else:
            sub = _colour_rows(g, later, later)
        # vw's colour on edges with v < w, and -2 elsewhere, which nothing in first matches.
        pair = np.where((sub >= 0) & (later[:, None] < later), sub, -2)
        b, i, j = np.nonzero((first[:, :, None] == pair) & (first[:, None, :] == pair))
        parts.append(np.stack([us[b], later[i], later[j], pair[i, j]], axis=1,
                              dtype=np.int32))
    return np.concatenate(parts)


def max_mixed_tiling(g: ColouredGraph, budget: Optional[int] = None) -> SolveResult:
    """Largest family of disjoint monochromatic triangles, colours mixed freely."""
    budget = DEFAULT_NODE_BUDGET if budget is None else budget
    return _PackingSearch(_triangle_table(g), budget).run()


def max_single_colour_tiling(g: ColouredGraph, budget: Optional[int] = None) -> SolveResult:
    """Largest family of disjoint triangles all sharing one colour.

    Runs one packing search per colour (each with its own node budget) and
    keeps the best; ties go to the lower colour.  ``proved_optimal`` requires
    every per-colour search to finish, since an unfinished loser could still
    overtake the winner.
    """
    budget = DEFAULT_NODE_BUDGET if budget is None else budget
    table = _triangle_table(g)
    best: Optional[SolveResult] = None
    nodes = 0
    all_proved = True
    for c in range(g.r):
        res = _PackingSearch(table[table[:, 3] == c], budget).run()
        nodes += res.nodes_explored
        all_proved = all_proved and res.proved_optimal
        if best is None or res.optimum > best.optimum:
            best = res
    assert best is not None
    return SolveResult(optimum=best.optimum, tiling=best.tiling,
                       nodes_explored=nodes, proved_optimal=all_proved)


# ---------------------------------------------------------------------------
# Colour-blind perfect clique tilings and the degree interpolation.

def find_perfect_clique_tiling(g: ColouredGraph, t: int,
                               budget: Optional[int] = None) -> Optional[Tiling]:
    """Exact perfect partition of the vertex set into K_t's, colours ignored.

    Returns None when no perfect tiling exists (proven by exhaustion) and
    raises SearchBudgetExceeded when the budget ran out first.
    """
    if t < 2:
        raise ValueError(f"clique size must be at least 2, got {t}")
    if g.n % t != 0:
        raise ValueError(f"perfect {t}-tiling needs t | n, got n={g.n}")
    budget = DEFAULT_TILING_BUDGET if budget is None else budget
    found = _quota_masks(g.n, g.adj, t, g.n // t, 0, budget)
    if found is None:
        return None
    return Tiling(tuple(MonoClique(tuple(sorted(tile)), None) for tile in found[0]))


def _quota_masks(n: int, adj: Sequence[int], t: int, whole: int, stripped: int,
                 budget: int) -> Optional[tuple[list[tuple[int, ...]], list[tuple[int, ...]]]]:
    """Partition ``0..n-1`` into ``whole`` K_t's plus ``stripped`` K_{t-1}'s.

    Branches on the unused vertex with the fewest remaining candidates (the
    scan that finds it doubles as a dead-end prune: a vertex left with too
    few live neighbours for the smallest tile still allowed kills the node),
    extending it by every clique of an allowed size in its neighbourhood in
    rank-lexicographic order, whole tiles first.  Searching
    the two sizes directly avoids the padded-graph encoding, whose
    interchangeable pad vertices blow the branching up by a factorial
    factor.  Returns None only after an exhaustive search.
    """
    order = sorted(range(n), key=lambda v: (adj[v].bit_count(), v))
    rank = {v: i for i, v in enumerate(order)}
    prefix = []
    seen = 0
    for v in order:
        seen |= 1 << v
        prefix.append(seen)
    calls = 0

    def cliques(cand: int, size: int) -> Iterator[tuple[int, ...]]:
        if size == 0:
            yield ()
            return
        for i in range(n):
            v = order[i]
            if (cand >> v) & 1:
                rest = cand & adj[v] & ~prefix[i]
                for tail in cliques(rest, size - 1):
                    yield (v,) + tail

    def visit(used: int, wq: int, sq: int) -> Optional[Iterator[tuple[int, tuple[int, ...]]]]:
        """Count one node; None when it covers everything, else its ``(size, tile)`` children."""
        nonlocal calls
        calls += 1
        if calls > budget:
            raise SearchBudgetExceeded(f"clique tiling search exceeded {budget} nodes")
        if used == (1 << n) - 1:
            return None
        floor_live = t - 1 if sq == 0 else t - 2
        pick = None
        for w in range(n):
            if (used >> w) & 1:
                continue
            live = (adj[w] & ~used).bit_count()
            if live < floor_live:
                return iter(())
            key = (live, rank[w])
            if pick is None or key < pick:
                pick, v = key, w
        cand = adj[v] & ~used
        return ((size, (v,) + tail) for size, quota in ((t, wq), (t - 1, sq)) if quota
                for tail in cliques(cand, size - 1))

    # Depth first over an explicit stack, so deep tilings stay clear of the
    # recursion limit.  A frame is (used, wq, sq, children, the (size, tile)
    # step that led to it).
    root = visit(0, whole, stripped)
    if root is None:
        return [], []
    stack = [(0, whole, stripped, root, None)]
    while stack:
        used, wq, sq, children, _ = stack[-1]
        step = next(children, None)
        if step is None:
            stack.pop()
            continue
        size, tile = step
        child = (used | sum(1 << w for w in tile), wq - (size == t), sq - (size == t - 1))
        below = visit(*child)
        if below is None:
            path = [frame[4] for frame in stack[1:]] + [step]
            return ([tile for size, tile in path if size == t],
                    [tile for size, tile in path if size == t - 1])
        stack.append((*child, below, step))
    return None


def clique_tiling_interpolated(g: ColouredGraph, t: int,
                               budget: Optional[int] = None) -> tuple[Tiling, Tiling]:
    """Disjoint K_t's and K_{t-1}'s interpolating between two tiling regimes.

    For ``(1 - 1/(t-1)) n <= delta <= (1 - 1/t) n`` (checked exactly),
    partitions the vertex set into ``(t-1)delta - (t-2)n`` whole K_t's and
    ``(t-1)n - t*delta`` leftover K_{t-1}'s.  Such a partition always exists:
    adding one virtual vertex per K_{t-1}, joined to everything real, yields
    a graph meeting the exact minimum-degree threshold for a perfect K_t
    tiling.  A failed search is therefore an anomaly, not a None.
    """
    if t < 3:
        raise ValueError(f"interpolation needs t >= 3, got {t}")
    delta = g.min_degree()
    n = g.n
    if not (n * (t - 2) <= delta * (t - 1) and t * delta <= (t - 1) * n):
        raise ValueError(
            f"interpolation needs (1-1/(t-1))n <= delta <= (1-1/t)n, "
            f"got n={n}, delta={delta}, t={t}")
    budget = DEFAULT_TILING_BUDGET if budget is None else budget
    found = _quota_masks(g.n, g.adj, t, (t - 1) * delta - (t - 2) * n,
                         (t - 1) * n - t * delta, budget)
    if found is None:
        raise AnomalyError(
            "host meets the interpolated tiling degree threshold but the "
            "exhaustive search found no tiling", graph=g,
            detail={"t": t, "stripped": (t - 1) * n - t * delta})
    whole = [MonoClique(tuple(sorted(tile)), None) for tile in found[0]]
    stripped = [MonoClique(tuple(sorted(tile)), None) for tile in found[1]]
    return Tiling(tuple(whole)), Tiling(tuple(stripped))


def find_bowtie(g: ColouredGraph, forbidden: Sequence[int] = ()) -> Optional[Bowtie]:
    """First pair of different-coloured mono triangles sharing one vertex.

    Scans triangle pairs in lexicographic order, skipping any triangle that
    touches ``forbidden``; None when the graph has no such bowtie.
    """
    pair = first_pair(list(g.iter_mono_triangles(~mask_of(forbidden))), 1, 1,
                      same_colour=False)
    return None if pair is None else Bowtie(MonoClique.of(pair[0]), MonoClique.of(pair[1]))
