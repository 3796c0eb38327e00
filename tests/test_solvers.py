"""Exact-solver tests: oracle agreement, frozen optima, tiling searches."""

from __future__ import annotations

import random
import tracemalloc
from itertools import combinations
from typing import Sequence

import numpy as np
import pytest
from helpers import oracle_max_packing, small_graphs
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert max_mixed_tiling(g).optimum == max_mixed_tiling(g.relabelled(perm)).optimum

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
            got = _PackingSearch(triangles, budget).run()
            assert got == ReferencePackingSearch(triangles, budget).run()

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


class TestFindBowtie:
    def test_finds_centre(self):
        edges = ([(0, 1, 0), (0, 2, 0), (1, 2, 0),
                  (2, 3, 1), (2, 4, 1), (3, 4, 1)])
        bow = find_bowtie(ColouredGraph(5, 2, edges))
        assert bow is not None and bow.centre == 2
        assert bow.verify(ColouredGraph(5, 2, edges))

    def test_none_without_triangles(self):
        assert find_bowtie(badly_coloured_k5()) is None

    def test_forbidden_vertices_block(self):
        edges = ([(0, 1, 0), (0, 2, 0), (1, 2, 0),
                  (2, 3, 1), (2, 4, 1), (3, 4, 1)])
        assert find_bowtie(ColouredGraph(5, 2, edges), forbidden=[3]) is None
