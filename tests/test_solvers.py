"""Exact-solver tests: oracle agreement, frozen optima, tiling searches."""

from __future__ import annotations

import inspect
import random
import sys
import tracemalloc
from itertools import combinations
from typing import Sequence

import numpy as np
import pytest
from helpers import centre, oracle_max_packing, recolour, relabelled, small_graphs
from hypothesis import given, settings
from hypothesis import strategies as st

from tritile import solvers
from tritile.constructions import (
    CONSTRUCTIONS,
    badly_coloured_k5,
    ex_bes_1,
    ex_bes_2,
    ex_bes_3,
    ex_triangle,
    ex_triangle_alt,
    pinned_apex_colouring,
    pinned_apex_sizes,
    random_min_degree_colouring,
    special_blowup,
)
from tritile.graphs import (
    ColouredGraph,
    MonoClique,
    SearchBudgetExceeded,
    Tiling,
    Triangle,
    blow_up,
    complete_colouring,
    iter_bits,
)
from tritile.solvers import (
    SolveResult,
    _BLOCK_CELLS,
    _PackingSearch,
    _table_blocks,
    _triangle_table,
    clique_tiling_interpolated,
    find_bowtie,
    find_perfect_clique_tiling,
    max_mixed_tiling,
    max_single_colour_tiling,
)

# Expected exact optima for the extremal instances exercised by the audit:
# mixed-colour ones equal min(5d-4n, (4d-3n)/2, (2d-n)/3), single-colour ones
# the formula of their construction family.
MIXED_EXPECTED = {
    (12, 10): 2,
    (24, 20): 4,
    (24, 21): 6,
    (30, 25): 5,
    (36, 30): 6,
    (36, 31): 8,
    (48, 40): 8,
    (48, 41): 10,
    (48, 42): 12,
}


class TestMixedSolver:
    def test_badly_k5_packs_nothing(self):
        res = max_mixed_tiling(badly_coloured_k5())
        assert res.optimum == 0 and res.proved_optimal
        assert len(res.tiling) == 0

    def test_all_red_cliques(self):
        assert max_mixed_tiling(complete_colouring(6, 2, 0)).optimum == 2
        res = max_mixed_tiling(complete_colouring(9, 2, 0))
        assert res.optimum == 3 and res.proved_optimal
        assert res.tiling.verify(complete_colouring(9, 2, 0))

    @pytest.mark.parametrize("n,delta", sorted(MIXED_EXPECTED))
    def test_extremal_instances(self, n, delta):
        g = ex_triangle(n, delta)
        res = max_mixed_tiling(g)
        assert res.proved_optimal
        assert res.optimum == MIXED_EXPECTED[(n, delta)]
        assert res.tiling.verify(g) and len(res.tiling) == res.optimum

    def test_small_instance_against_oracle(self):
        g = ex_triangle(12, 10)
        assert max_mixed_tiling(g).optimum == oracle_max_packing(g.mono_triangles())

    def test_alt_construction(self):
        g = ex_triangle_alt(24, 21)
        res = max_mixed_tiling(g)
        assert res.optimum == 6 and res.proved_optimal
        assert res.nodes_explored == 1

    def test_deep_search_on_large_triangle_list(self):
        res = max_mixed_tiling(ex_bes_2(36, 33))
        assert res.optimum == 12 and res.proved_optimal
        assert res.nodes_explored == 1198

    def test_root_certificate_on_large_instance(self):
        res = max_mixed_tiling(ex_triangle(48, 42))
        assert res.optimum == 12 and res.proved_optimal
        assert res.nodes_explored == 1

    def test_largest_triangle_list(self):
        # 15,180 triangles; the greedy seed is optimal and the root bound proves it.
        g = ex_triangle_alt(48, 47)
        mixed = max_mixed_tiling(g)
        assert (mixed.optimum, mixed.proved_optimal, mixed.nodes_explored) == (15, True, 1)
        single = max_single_colour_tiling(g)
        assert (single.optimum, single.proved_optimal, single.nodes_explored) == (15, True, 2)
        assert mixed.tiling.verify(g) and single.tiling.verify(g)

    def test_pinned_apex_instance(self):
        g = pinned_apex_colouring(pinned_apex_sizes(18, 15))
        res = max_mixed_tiling(g)
        assert res.optimum == 3 and res.proved_optimal

    def test_special_blowups(self):
        assert max_mixed_tiling(special_blowup(t=2)).optimum == 1
        assert max_mixed_tiling(special_blowup(t=3)).optimum == 2
        assert max_mixed_tiling(special_blowup(n=20, delta=13)).optimum == 2

    def test_budget_exhaustion_keeps_lower_bound(self):
        res = max_mixed_tiling(ex_triangle(30, 25), budget=0)
        assert not res.proved_optimal
        assert res.optimum <= 5
        assert res.tiling.verify(ex_triangle(30, 25))

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_n=8))
    def test_matches_oracle(self, g: ColouredGraph):
        res = max_mixed_tiling(g)
        assert res.proved_optimal
        assert res.optimum == oracle_max_packing(g.mono_triangles())
        assert res.tiling.verify(g) and len(res.tiling) == res.optimum

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_n=7), st.randoms(use_true_random=False))
    def test_relabelling_invariance(self, g: ColouredGraph, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert max_mixed_tiling(g).optimum == max_mixed_tiling(relabelled(g, perm)).optimum

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_n=7), st.integers(min_value=0))
    def test_adding_an_edge_never_hurts(self, g: ColouredGraph, pick):
        missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                   if not g.has_edge(u, v)]
        if not missing:
            return
        u, v = missing[pick % len(missing)]
        bigger = ColouredGraph(g.n, g.r, g.edges() + [(u, v, pick % g.r)])
        assert max_mixed_tiling(bigger).optimum >= max_mixed_tiling(g).optimum

    def test_determinism(self):
        g = ex_triangle(24, 21)
        assert max_mixed_tiling(g) == max_mixed_tiling(g)


class ReferencePackingSearch:
    """The packing search over lists of triangle indices and per-node dicts.

    Kept as the reference for the incidence-bitset search: same bounds, tie
    breaks, branching and node counting, written out plainly.
    """

    def __init__(self, triangles: Sequence[Triangle], budget: int):
        self.tris = [MonoClique.of(t) for t in triangles]
        self.masks = [t.mask for t in self.tris]
        self.budget = budget
        self.nodes = 0
        self.best_count = -1
        self.best_sel: list[int] = []

    def run(self) -> SolveResult:
        alive = list(range(len(self.tris)))
        seed = self._greedy(alive)
        self.best_count = len(seed)
        self.best_sel = seed
        proved = True
        try:
            self._dfs(alive, 0, [])
        except SearchBudgetExceeded:
            proved = False
        tiling = Tiling(tuple(self.tris[i] for i in self.best_sel))
        return SolveResult(optimum=self.best_count, tiling=tiling,
                           nodes_explored=self.nodes, proved_optimal=proved)

    def _dfs(self, alive: list[int], count: int, chosen: list[int]) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise SearchBudgetExceeded(f"packing search exceeded {self.budget} nodes")
        if count > self.best_count:
            self.best_count = count
            self.best_sel = list(chosen)
        if not alive:
            return
        if count + self._bound(alive) <= self.best_count:
            return
        support = 0
        for i in alive:
            support |= self.masks[i]
        v = (support & -support).bit_length() - 1
        vbit = 1 << v
        for i in alive:
            if self.masks[i] & vbit:
                m = self.masks[i]
                chosen.append(i)
                self._dfs([j for j in alive if self.masks[j] & m == 0], count + 1, chosen)
                chosen.pop()
        self._dfs([j for j in alive if not self.masks[j] & vbit], count, chosen)

    def _bound(self, alive: list[int]) -> int:
        support = 0
        for i in alive:
            support |= self.masks[i]
        count_bound = support.bit_count() // 3
        return min(count_bound, self._scatter(alive, support), self._cover(alive))

    def _scatter(self, alive: list[int], support: int) -> int:
        partners: dict[int, int] = {}
        for i in alive:
            m = self.masks[i]
            for v in iter_bits(m):
                partners[v] = partners.get(v, 0) | (m ^ (1 << v))
        order = sorted(partners, key=lambda v: (partners[v].bit_count(), v))
        independent = 0
        for v in order:
            if partners[v] & independent == 0:
                independent |= 1 << v
        return (support & ~independent).bit_count() // 2

    def _cover(self, alive: list[int]) -> int:
        remaining = alive
        picks = 0
        while remaining:
            counts: dict[int, int] = {}
            for i in remaining:
                for v in iter_bits(self.masks[i]):
                    counts[v] = counts.get(v, 0) + 1
            best = min(counts, key=lambda v: (-counts[v], v))
            bit = 1 << best
            remaining = [i for i in remaining if not self.masks[i] & bit]
            picks += 1
        return picks

    def _greedy(self, alive: list[int]) -> list[int]:
        chosen = []
        alive = list(alive)
        while alive:
            deg: dict[int, int] = {}
            for i in alive:
                for v in iter_bits(self.masks[i]):
                    deg[v] = deg.get(v, 0) + 1
            pick = min(alive,
                       key=lambda i: (sum(deg[v] for v in iter_bits(self.masks[i])), i))
            chosen.append(pick)
            m = self.masks[pick]
            alive = [i for i in alive if self.masks[i] & m == 0]
        return chosen


class TestPackingSearchMatchesReference:
    BUDGETS = (0, 1, 3, 17, 10 ** 9)

    @staticmethod
    def random_host(rng: random.Random) -> ColouredGraph:
        n = rng.randint(0, 15)
        r = rng.choice((2, 3))
        density = rng.choice((0.5, 0.8, 1.0))
        return ColouredGraph(n, r, [(u, v, rng.randrange(r)) for u, v in combinations(range(n), 2)
                                    if rng.random() < density])

    def assert_same(self, triangles: list[Triangle]) -> None:
        for budget in self.BUDGETS:
            search = _PackingSearch(triangles, budget)
            assert search.run() == ReferencePackingSearch(triangles, budget).run()
            # The memo never shrinks, so its final size is its largest.
            assert len(search.memo) <= search.memo_limit

    def test_matches_the_reference_loop(self):
        rng = random.Random(2024)
        self.assert_same([])
        for _ in range(240):
            tris = self.random_host(rng).mono_triangles()
            self.assert_same(tris)
            for c in range(3):
                self.assert_same([t for t in tris if t[3] == c])

    def test_matches_the_reference_on_recoloured_extremal_hosts(self):
        rng = random.Random(3)
        for g in (ex_triangle(18, 15), ex_bes_1(22, 16), ex_bes_2(25, 22)):
            edges = [(u, v, rng.randrange(2) if rng.random() < 0.05 else c)
                     for u, v, c in g.edges()]
            tris = ColouredGraph(g.n, g.r, edges).mono_triangles()
            self.assert_same(tris)
            for c in range(2):
                self.assert_same([t for t in tris if t[3] == c])

    def test_greedy_seed_on_the_sweep_constructions(self):
        # At budget 0 the search stops at the root, so the result is the
        # greedy seed: the sweep's construction hosts (up to the 15,180
        # triangles of ex_triangle_alt(48, 47)) and each colour's sub-table.
        tables = 0
        for n, delta in TestTriangleTable.SWEEP_CELLS:
            for build, _ in CONSTRUCTIONS.values():
                try:
                    g = build(n, delta)
                except ValueError:
                    continue
                tris = g.mono_triangles()
                for rows in [tris] + [[t for t in tris if t[3] == c] for c in range(g.r)]:
                    assert _PackingSearch(rows, 0).run() == ReferencePackingSearch(rows, 0).run()
                    tables += 1
        assert tables == 75

    @pytest.mark.parametrize("memo_bytes", [1, 4096])
    def test_matches_the_reference_with_a_small_memo(self, memo_bytes, monkeypatch):
        # A ceiling of one entry, or of a few, so that the memo evicts.
        monkeypatch.setattr(solvers, "_MEMO_BYTES", memo_bytes)
        limit = _PackingSearch([(0, 1, 2, 0)], 0).memo_limit
        assert limit == 1 if memo_bytes == 1 else 1 < limit < 16
        self.test_matches_the_reference_loop()
        self.test_matches_the_reference_on_recoloured_extremal_hosts()

    def test_a_cap_stops_the_search_at_its_first_packing_of_that_size(self):
        # Six disjoint triangles, three decoys that each meet two of them in
        # their third vertices, and a padding triangle through two hubs for
        # every other vertex of the six.  The greedy seed takes the three
        # decoys and one padding triangle, 4, where the optimum is 6.
        tris = sorted([(3 * j, 3 * j + 1, 3 * j + 2, 0) for j in range(6)]
                      + [(6 * k + 2, 6 * k + 5, 18 + k, 0) for k in range(3)]
                      + [(v, 21, 22, 0) for v in range(18) if v % 3 != 2])
        uncapped = _PackingSearch(tris, 100).run()
        assert uncapped == ReferencePackingSearch(tris, 100).run()
        assert (uncapped.optimum, uncapped.nodes_explored) == (6, 19)
        assert len(_PackingSearch(tris, 100)._greedy()) == 4
        got = {cap: _PackingSearch(tris, 100, cap=cap).run() for cap in range(8)}
        assert {cap: (res.optimum, res.nodes_explored) for cap, res in got.items()} == {
            **{cap: (cap, 0) for cap in range(5)}, 5: (5, 6), 6: (6, 7), 7: (6, 19)}
        assert all(res.proved_optimal and len(res.tiling) == res.optimum
                   for res in got.values())

    def test_deep_search_stays_off_the_call_stack(self):
        # 80 disjoint copies of four pairwise-meeting triangles on six
        # vertices: each copy packs one, yet every bound reads two, so the
        # first descent commits one triangle per copy, 80 levels deep.
        faces = ((0, 1, 2, 0), (0, 3, 4, 0), (1, 3, 5, 1), (2, 4, 5, 1))
        copies = 80
        tris = [(6 * j + u, 6 * j + v, 6 * j + w, c) for j in range(copies)
                for u, v, w, c in faces]
        expected = ReferencePackingSearch(tris, 100).run()
        assert (expected.optimum, expected.nodes_explored) == (copies, 101)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + copies // 2)
        try:
            got = _PackingSearch(tris, 100).run()
        finally:
            sys.setrecursionlimit(limit)
        assert got == expected


class TestTriangleTable:
    """``_triangle_table`` lists ``mono_triangles()`` row for row, in the same order."""

    SWEEP_CELLS = ((24, 20), (24, 22), (24, 23), (36, 30), (36, 35), (48, 47))

    @staticmethod
    def assert_same(g: ColouredGraph) -> None:
        assert _triangle_table(g).tolist() == [list(t) for t in g.mono_triangles()]

    def test_random_hosts(self):
        rng = random.Random(11)
        for n in [0, 1, 2] + [rng.randint(0, 20) for _ in range(120)]:
            r = rng.randint(1, 3)
            density = rng.choice((0.5, 0.8, 1.0))
            self.assert_same(ColouredGraph(
                n, r, [(u, v, rng.randrange(r)) for u, v in combinations(range(n), 2)
                       if rng.random() < density]))

    def test_constructions_in_the_sweep_cells(self):
        for n, delta in self.SWEEP_CELLS:
            for build, _ in CONSTRUCTIONS.values():
                try:
                    g = build(n, delta)
                except ValueError:
                    continue
                self.assert_same(g)
            rng = np.random.default_rng(n + delta)
            self.assert_same(random_min_degree_colouring(n, delta, rng))

    def test_row_count_on_a_large_complete_host(self):
        g = complete_colouring(200, 2, random.Random(0).getrandbits(200 * 199 // 2))
        table = _triangle_table(g)
        assert table.shape == (len(g.mono_triangles()), 4)

    def test_hosts_over_several_blocks(self):
        # Above 64 vertices the first vertices come in blocks, and a block's
        # later vertices reach past it.
        rng = random.Random(5)
        for n, r, density in ((65, 2, 1.0), (90, 3, 0.6), (600, 2, 0.02), (1500, 2, 0.004)):
            g = ColouredGraph(n, r, [(u, v, rng.randrange(r))
                                     for u, v in combinations(range(n), 2)
                                     if rng.random() < density])
            assert len(list(_table_blocks(g))) > 1
            self.assert_same(g)

    def test_blocks_are_sized_from_the_later_neighbours(self):
        # 1,000 disjoint red triangles, then a dense 80-vertex corner: the
        # sparse part takes many vertices per block, the dense part few.
        edges = [(3 * k + a, 3 * k + b, 0) for k in range(1000)
                 for a, b in ((0, 1), (0, 2), (1, 2))]
        rng = random.Random(3)
        edges += [(u, v, rng.randrange(2)) for u, v in combinations(range(3000, 3080), 2)]
        g = ColouredGraph(3080, 2, edges)
        blocks = list(_table_blocks(g))
        assert [u0 for u0, _ in blocks] == [0] + [u1 for _, u1 in blocks[:-1]]
        assert blocks[-1][1] == g.n
        for u0, u1 in blocks:
            later = 0
            for u in range(u0, u1):
                later |= g.adj[u]
            cells = (u1 - u0) * (later >> (u0 + 1)).bit_count() ** 2
            assert u1 - u0 == 1 or (cells <= _BLOCK_CELLS and (u1 - u0) * g.n <= _BLOCK_CELLS)
        assert len(blocks) < 100
        assert max(u1 - u0 for u0, u1 in blocks if u1 <= 3000) > 32
        self.assert_same(g)

    def test_sparse_host_stays_small(self):
        # 1,000 disjoint red triangles: an n x n matrix of 3,000 vertices
        # would take 9 MB.
        g = ColouredGraph(3000, 2, [(3 * k + a, 3 * k + b, 0) for k in range(1000)
                                    for a, b in ((0, 1), (0, 2), (1, 2))])
        tracemalloc.start()
        try:
            res = max_mixed_tiling(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.optimum, res.proved_optimal) == (1000, True)
        assert peak <= 4_000_000

    def test_incidence_rows_over_several_blocks(self):
        # 15,180 triangles on 48 vertices: the incidence scatter takes three blocks.
        tris = ex_triangle_alt(48, 47).mono_triangles()
        inc = _PackingSearch(tris, 0).inc
        assert inc == [sum(1 << i for i, t in enumerate(tris) if v in t[:3])
                       for v in range(48)]


class TestSingleColourSolver:
    SINGLE_EXPECTED = [
        (ex_bes_1, 9, 8, 1),
        (ex_bes_1, 22, 16, 3),
        (ex_bes_2, 25, 22, 4),
        (ex_bes_3, 24, 20, 2),
    ]

    @pytest.mark.parametrize("gen,n,delta,expected", SINGLE_EXPECTED)
    def test_extremal_instances(self, gen, n, delta, expected):
        g = gen(n, delta)
        res = max_single_colour_tiling(g)
        assert res.proved_optimal
        assert res.optimum == expected
        assert res.tiling.verify(g)
        colours = {t.colour for t in res.tiling}
        assert len(colours) <= 1

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(max_n=8))
    def test_single_never_beats_mixed(self, g: ColouredGraph):
        single = max_single_colour_tiling(g)
        assert single.optimum <= max_mixed_tiling(g).optimum
        per_colour = max(
            (oracle_max_packing([t for t in g.mono_triangles() if t[3] == c])
             for c in range(g.r)),
            default=0)
        assert single.optimum == per_colour

    def test_tie_breaks_to_lower_colour(self):
        edges = [(0, 1, 0), (0, 2, 0), (1, 2, 0), (3, 4, 1), (3, 5, 1), (4, 5, 1)]
        res = max_single_colour_tiling(ColouredGraph(6, 2, edges))
        assert res.optimum == 1
        assert [t.colour for t in res.tiling] == [0]


class TestDeepSearch:
    """The colour-0 search of ``ex_bes_1(36, 30)`` recoloured 5% (seed 1).

    It meets about 8,400 distinct alive sets in 200,000 nodes.  Without its
    memo the search itself peaks near 0.2 MB traced.
    """

    @staticmethod
    def triangles() -> np.ndarray:
        table = _triangle_table(recolour(ex_bes_1(36, 30), 0.05, 1))
        return table[table[:, 3] == 0]

    @staticmethod
    def traced(triangles: np.ndarray, budget: int) -> tuple[_PackingSearch, SolveResult, int]:
        tracemalloc.start()
        try:
            search = _PackingSearch(triangles, budget)
            res = search.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return search, res, peak

    def test_budget_runs_out_at_the_pinned_optimum(self):
        res = _PackingSearch(self.triangles(), 200_000).run()
        assert (res.optimum, res.nodes_explored, res.proved_optimal) == (9, 200_001, False)

    def test_memo_holds_alive_sets_without_their_rows(self, monkeypatch):
        calls = {"_cover": 0, "_scatter": 0}

        def counted(name: str) -> staticmethod:
            bound = getattr(_PackingSearch, name)

            def call(*args):
                calls[name] += 1
                return bound(*args)
            return staticmethod(call)

        for name in calls:
            monkeypatch.setattr(_PackingSearch, name, counted(name))
        # Each of the 3,052 alive sets met in 20,000 nodes, rows included,
        # would take about 10 MB.
        search, res, peak = self.traced(self.triangles(), 20_000)
        assert (res.optimum, res.nodes_explored) == (9, 20_001)
        assert len(search.memo) == 3052
        assert peak <= 3_000_000
        # Nothing was evicted, so each bound ran at most once per alive set.
        assert calls["_scatter"] <= calls["_cover"] <= 3052

    def test_memo_stays_within_its_ceiling(self, monkeypatch):
        tris = self.triangles()
        full = _PackingSearch(tris, 20_000).run()
        monkeypatch.setattr(solvers, "_MEMO_BYTES", 1 << 20)
        search, res, peak = self.traced(tris, 20_000)
        assert res == full
        assert len(search.memo) == search.memo_limit < 3052
        assert peak <= (1 << 20) + 250_000


class TestPerfectTilings:
    def test_complete_hosts(self):
        g = complete_colouring(6, 2, 0)
        assert len(find_perfect_clique_tiling(g, 3)) == 2
        assert len(find_perfect_clique_tiling(g, 6)) == 1

    def test_tripartite_host(self):
        g = blow_up(complete_colouring(3, 2, 0), [2, 2, 2])
        tiling = find_perfect_clique_tiling(g, 3)
        assert tiling is not None and len(tiling) == 2 and tiling.verify(g)

    def test_absence_is_proven(self):
        star = ColouredGraph(4, 2, [(0, 1, 0), (0, 2, 0), (0, 3, 0)])
        assert find_perfect_clique_tiling(star, 2) is None

    def test_deep_tiling_stays_off_the_call_stack(self):
        n = 3003
        full = (1 << n) - 1
        g = ColouredGraph._from_masks(n, 1, [[full ^ (1 << v) for v in range(n)]])
        tiling = find_perfect_clique_tiling(g, 3)
        assert len(tiling) == 1001 and tiling.verify(g)

    def test_validation(self):
        g = complete_colouring(5, 2, 0)
        with pytest.raises(ValueError):
            find_perfect_clique_tiling(g, 3)
        with pytest.raises(ValueError):
            find_perfect_clique_tiling(g, 1)

    def test_interpolation_on_complete_host(self):
        big, small = clique_tiling_interpolated(complete_colouring(6, 2, 0), 6)
        assert len(big) == 1 and len(small) == 0

    def test_interpolation_on_extremal_host(self):
        g = ex_triangle(12, 10)
        big, small = clique_tiling_interpolated(g, 6)
        assert len(big) == 2 and len(small) == 0
        assert big.verify(g)
        assert all(len(t) == 6 for t in big)

    def test_interpolation_mixes_sizes(self):
        g = blow_up(complete_colouring(4, 2, 0), [3, 3, 3, 3])
        big, small = clique_tiling_interpolated(g, 4)
        assert len(big) == 3 and len(small) == 0
        g = blow_up(complete_colouring(3, 2, 0), [4, 4, 4])
        big, small = clique_tiling_interpolated(g, 4)
        assert len(big) == 0 and len(small) == 4
        assert all(len(t) == 3 for t in small)
        assert not big.mask & small.mask

    def test_interpolation_range_check(self):
        with pytest.raises(ValueError):
            clique_tiling_interpolated(ex_triangle(12, 10), 4)

    def test_interpolation_on_random_hosts_strictly_inside_the_band(self):
        # These degrees leave several K5 leftovers; the search has to place
        # them without wandering (a padded-graph encoding used to stall here).
        for n, delta, seed in ((31, 25, 0), (36, 29, 1), (42, 34, 2)):
            g = random_min_degree_colouring(n, delta, np.random.default_rng(seed))
            big, small = clique_tiling_interpolated(g, 6)
            assert len(big) == 5 * delta - 4 * n
            assert len(small) == 5 * n - 6 * delta
            assert not big.mask & small.mask
            covered = big.mask | small.mask
            assert covered.bit_count() == n
            for t in list(big) + list(small):
                for u, v in combinations(t.vertices, 2):
                    assert g.has_edge(u, v)


def reference_quota_masks(n: int, adj: Sequence[int], t: int, whole: int, stripped: int,
                          budget: int):
    """The quota tiling search with its own rank-order clique generator.

    Kept as the reference for the search over relabelled rows: the same
    pick, children, tie breaks and node counting, on the original labels.
    """
    order = sorted(range(n), key=lambda v: (adj[v].bit_count(), v))
    rank = {v: i for i, v in enumerate(order)}
    prefix = []
    seen = 0
    for v in order:
        seen |= 1 << v
        prefix.append(seen)
    calls = 0

    def cliques(cand, size):
        if size == 0:
            yield ()
            return
        for i in range(n):
            v = order[i]
            if (cand >> v) & 1:
                for tail in cliques(cand & adj[v] & ~prefix[i], size - 1):
                    yield (v,) + tail

    def visit(used, wq, sq):
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


class TestQuotaSearchMatchesReference:
    BUDGETS = (0, 1, 2, 5, 17, 100, solvers.DEFAULT_TILING_BUDGET)

    @staticmethod
    def outcome(search, *args):
        try:
            return search(*args)
        except SearchBudgetExceeded as exc:
            return str(exc)

    def test_matches_the_reference_in_the_band(self):
        cases = 0
        for n in range(8, 43):
            for delta in range(-(-4 * n // 5), n):
                hosts = []
                for builder, _ in CONSTRUCTIONS.values():
                    try:
                        hosts.append(builder(n, delta))
                    except ValueError:
                        continue
                rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(n, delta)))
                hosts.append(random_min_degree_colouring(n, delta, rng))
                for g in hosts:
                    d = g.min_degree()
                    for t in (3, 4, 6, 8):
                        if not (n * (t - 2) <= d * (t - 1) and t * d <= (t - 1) * n):
                            continue
                        quotas = (t, (t - 1) * d - (t - 2) * n, (t - 1) * n - t * d)
                        for budget in self.BUDGETS:
                            assert (self.outcome(solvers._quota_masks, g.adj, range(n),
                                                 *quotas, budget)
                                    == self.outcome(reference_quota_masks, n, g.adj,
                                                    *quotas, budget)), (n, delta, t)
                            cases += 1
        assert cases == 1855

    def test_perfect_tilings_match_the_reference(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.choice((6, 8, 9, 12))
            g = ColouredGraph(n, 1, [(u, v, 0) for u, v in combinations(range(n), 2)
                                     if rng.random() < 0.85])
            for t in (2, 3, 4):
                if n % t == 0:
                    for budget in self.BUDGETS:
                        quotas = (t, n // t, 0, budget)
                        assert (self.outcome(solvers._quota_masks, g.adj, range(n), *quotas)
                                == self.outcome(reference_quota_masks, n, g.adj, *quotas))

    def test_empty_host(self):
        assert len(find_perfect_clique_tiling(ColouredGraph(0, 2, []), 3)) == 0
        with pytest.raises(SearchBudgetExceeded):
            find_perfect_clique_tiling(ColouredGraph(0, 2, []), 3, budget=0)


class TestFindBowtie:
    def test_finds_centre(self):
        edges = ([(0, 1, 0), (0, 2, 0), (1, 2, 0),
                  (2, 3, 1), (2, 4, 1), (3, 4, 1)])
        bow = find_bowtie(ColouredGraph(5, 2, edges))
        assert bow is not None and centre(bow) == 2
        assert bow.verify(ColouredGraph(5, 2, edges))

    def test_none_without_triangles(self):
        assert find_bowtie(badly_coloured_k5()) is None
