"""Exact maximum disjoint monochromatic-triangle packings.

The solver is a depth-first branch and bound over the (lexicographically
sorted) list of monochromatic triangles: the branching vertex is the lowest
vertex still appearing in an alive triangle, children either commit one of
its alive triangles (in increasing list order) or discard the vertex for
good.  Triangles are the ``(u, v, w, c)`` tuples of
:data:`tritile.graphs.Triangle`; a :class:`MonoClique` is built only for
the triangles of a returned tiling or bowtie.

Sets of triangles are bitsets over the list, in the manner of the
bit-parallel clique solvers (San Segundo et al., Comput. Oper. Res. 38(2),
2011): the alive set is one int, and ``inc[v]`` holds the triangles through
vertex ``v``.  Committing triangle ``abc`` keeps ``alive & ~(inc[a] | inc[b]
| inc[c])``, discarding ``v`` keeps ``alive & ~inc[v]``, the support is the
set of ``v`` with ``alive & inc[v]`` nonzero, and a vertex's alive degree is
a ``bit_count``.  No per-triangle conflict table is built: it would take
O(T^2) bits, about 29 MB for the 15,180 triangles of
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
smallest total triangle-degree over its vertices) seeds the incumbent; on
the extremal constructions in this package it already hits the optimum and
the root bound certifies it, so those solves finish in one node.

Everything here is deterministic and single-threaded; results never depend
on a worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

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

    def __init__(self, triangles: Sequence[Triangle], budget: int):
        self.tris = list(triangles)
        self.masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c, _ in self.tris]
        inc = [0] * (1 + max((c for _, _, c, _ in self.tris), default=-1))
        for i, (a, b, c, _) in enumerate(self.tris):
            bit = 1 << i
            inc[a] |= bit
            inc[b] |= bit
            inc[c] |= bit
        self.inc = inc
        self.budget = budget
        self.nodes = 0
        self.best_count = -1
        self.best_sel: list[int] = []

    def run(self) -> SolveResult:
        seed = self._greedy()
        self.best_count = len(seed)
        self.best_sel = seed
        proved = True
        try:
            self._dfs((1 << len(self.tris)) - 1, list(range(len(self.inc))), 0, [])
        except SearchBudgetExceeded:
            proved = False
        tiling = Tiling(tuple(MonoClique.of(self.tris[i]) for i in self.best_sel))
        return SolveResult(optimum=self.best_count, tiling=tiling,
                           nodes_explored=self.nodes, proved_optimal=proved)

    def _dfs(self, alive: int, within: list[int], count: int, chosen: list[int]) -> None:
        """Search below ``alive``, whose support lies among the vertices ``within``."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise SearchBudgetExceeded(f"packing search exceeded {self.budget} nodes")
        if count > self.best_count:
            self.best_count = count
            self.best_sel = list(chosen)
        if not alive:
            return
        inc = self.inc
        # The support in increasing order and the alive triangles through each.
        support = []
        rows = []
        for v in within:
            row = alive & inc[v]
            if row:
                support.append(v)
                rows.append(row)
        # Pruned when any bound fails to beat the incumbent; cheapest first.
        slack = self.best_count - count
        if (len(rows) // 3 <= slack or self._cover(rows) <= slack
                or self._scatter(support, rows) <= slack):
            return
        through = rows[0]
        while through:
            low = through & -through
            through ^= low
            i = low.bit_length() - 1
            a, b, c, _ = self.tris[i]
            chosen.append(i)
            self._dfs(alive & ~(inc[a] | inc[b] | inc[c]), support, count + 1, chosen)
            chosen.pop()
        self._dfs(alive & ~rows[0], support, count, chosen)

    @staticmethod
    def _scatter(support: list[int], rows: list[int]) -> int:
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
        inc = self.inc
        tris = self.tris
        chosen = []
        alive = (1 << len(tris)) - 1
        left = range(len(tris))
        while left:
            deg = [(alive & row).bit_count() for row in inc]
            # The first strict minimum over increasing i: ties go to the lower index.
            best = None
            for i in left:
                a, b, c, _ = tris[i]
                score = deg[a] + deg[b] + deg[c]
                if best is None or score < best:
                    best, pick = score, i
            chosen.append(pick)
            a, b, c, _ = tris[pick]
            alive &= ~(inc[a] | inc[b] | inc[c])
            m = self.masks[pick]
            left = [i for i in left if not self.masks[i] & m]
        return chosen


def max_mixed_tiling(g: ColouredGraph, budget: Optional[int] = None) -> SolveResult:
    """Largest family of disjoint monochromatic triangles, colours mixed freely."""
    budget = DEFAULT_NODE_BUDGET if budget is None else budget
    return _PackingSearch(g.mono_triangles(), budget).run()


def max_single_colour_tiling(g: ColouredGraph, budget: Optional[int] = None) -> SolveResult:
    """Largest family of disjoint triangles all sharing one colour.

    Runs one packing search per colour (each with its own node budget) and
    keeps the best; ties go to the lower colour.  ``proved_optimal`` requires
    every per-colour search to finish, since an unfinished loser could still
    overtake the winner.
    """
    budget = DEFAULT_NODE_BUDGET if budget is None else budget
    tris = g.mono_triangles()
    best: Optional[SolveResult] = None
    nodes = 0
    all_proved = True
    for c in range(g.r):
        res = _PackingSearch([t for t in tris if t[3] == c], budget).run()
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

    def dfs(used: int, wq: int, sq: int) -> bool:
        nonlocal calls
        calls += 1
        if calls > budget:
            raise SearchBudgetExceeded(f"clique tiling search exceeded {budget} nodes")
        if used == (1 << n) - 1:
            return True
        floor_live = t - 1 if sq == 0 else t - 2
        pick = None
        for w in range(n):
            if (used >> w) & 1:
                continue
            live = (adj[w] & ~used).bit_count()
            if live < floor_live:
                return False
            key = (live, rank[w])
            if pick is None or key < pick:
                pick, v = key, w
        cand = adj[v] & ~used
        for size, quota in ((t, wq), (t - 1, sq)):
            if not quota:
                continue
            for tail in cliques(cand, size - 1):
                tile = (v,) + tail
                target = acc_whole if size == t else acc_stripped
                target.append(tile)
                if dfs(used | sum(1 << w for w in tile),
                       wq - (size == t), sq - (size == t - 1)):
                    return True
                target.pop()
        return False

    acc_whole: list[tuple[int, ...]] = []
    acc_stripped: list[tuple[int, ...]] = []
    return (acc_whole, acc_stripped) if dfs(0, whole, stripped) else None


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
