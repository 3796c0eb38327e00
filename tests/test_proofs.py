"""Tests for the constructive extractors and tiling algorithms.

Fixtures are hand-built colourings whose expected outputs were derived by
enumerating the relevant triples by hand; random campaigns re-verify every
output structurally instead of trusting the construction.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from helpers import centre, claim_pair_k7, reference_extract_three_disjoint_k7x2, relabelled
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _band_pairs

from tritile.constructions import (
    RED,
    BLUE,
    ex_triangle,
    random_min_degree_colouring,
)
from tritile.graphs import (
    AnomalyError,
    Bowtie,
    ColouredGraph,
    MonoClique,
    SearchBudgetExceeded,
    Tiling,
    blow_up,
    complete_colouring,
    first_pair,
    iter_cliques,
    mask_of,
)
from tritile.proofs import (
    PhasedResult,
    RAMSEY_NUMBERS,
    SPECIAL_RAMSEY_NUMBERS,
    bes_large,
    bes_small,
    bowtie_through_vertex_k6,
    extract_mono_triangle_k6,
    extract_three_disjoint_k7x2,
    extract_two_disjoint_k8,
    extract_two_disjoint_same_colour_k10,
    moon_large,
    moon_small,
    phased_tiler,
    second_bowtie_k7,
)
from tritile import proofs
from tritile.proofs import K7X2_EDGES, _bes_augment, _k7x2_extract, _k7x2_tables
from tritile.solvers import find_bowtie


def all_red(n: int) -> ColouredGraph:
    return complete_colouring(n, 2, 0)


class TestSmallExtractors:
    def test_k6_all_red_is_lex_first(self):
        tri = extract_mono_triangle_k6(all_red(6))
        assert tri == MonoClique((0, 1, 2), RED)

    def test_k6_sampled_codes_verify(self):
        for code in range(0, 2 ** 15, 37):
            g = complete_colouring(6, 2, code)
            tri = extract_mono_triangle_k6(g)
            assert tri.verify(g)

    def test_k6_rejects_short_and_incomplete_input(self):
        with pytest.raises(ValueError):
            extract_mono_triangle_k6(all_red(6), [0, 1, 2, 3, 4])
        g = ColouredGraph(6, 2, [(u, v, RED) for u in range(6)
                                 for v in range(u + 1, 6) if (u, v) != (0, 5)])
        with pytest.raises(ValueError):
            extract_mono_triangle_k6(g)

    def test_k8_all_red_takes_first_two_disjoint_triples(self):
        t1, t2 = extract_two_disjoint_k8(all_red(8))
        assert (t1, t2) == (MonoClique((0, 1, 2), RED), MonoClique((3, 4, 5), RED))

    def test_k8_random_codes_verify(self):
        rng = np.random.default_rng(81)
        for code in rng.integers(0, 2 ** 28, size=500):
            g = complete_colouring(8, 2, int(code))
            t1, t2 = extract_two_disjoint_k8(g)
            assert t1.verify(g) and t2.verify(g)
            assert not t1.mask & t2.mask

    def test_k10_same_colour_pair(self):
        rng = np.random.default_rng(82)
        for code in rng.integers(0, 2 ** 45, size=300):
            g = complete_colouring(10, 2, int(code))
            t1, t2 = extract_two_disjoint_same_colour_k10(g)
            assert t1.verify(g) and t2.verify(g)
            assert t1.colour == t2.colour
            assert not t1.mask & t2.mask

    def test_k10_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            extract_two_disjoint_same_colour_k10(all_red(12), range(9))


def split_k6(cross_colour: int) -> ColouredGraph:
    """Red triangle 012, blue triangle 345, all cross edges one colour."""
    edges = [(0, 1, RED), (0, 2, RED), (1, 2, RED),
             (3, 4, BLUE), (3, 5, BLUE), (4, 5, BLUE)]
    edges += [(u, v, cross_colour) for u in (0, 1, 2) for v in (3, 4, 5)]
    return ColouredGraph(6, 2, edges)


class TestBowtieThroughVertex:
    def test_red_cross_through_blue_vertex(self):
        g = split_k6(RED)
        bow = bowtie_through_vertex_k6(g, 3)
        assert bow == Bowtie(MonoClique((3, 4, 5), BLUE), MonoClique((0, 1, 3), RED))
        assert centre(bow) == 3

    def test_every_vertex_on_every_qualifying_code(self):
        rng = np.random.default_rng(83)
        qualifying = 0
        for code in rng.integers(0, 2 ** 15, size=600):
            g = complete_colouring(6, 2, int(code))
            if _has_split(g):
                qualifying += 1
                for v in range(6):
                    bow = bowtie_through_vertex_k6(g, v)
                    assert bow.verify(g)
                    assert v in bow.vertex_set
        assert qualifying > 60

    def test_monochromatic_host_has_no_split(self):
        with pytest.raises(ValueError):
            bowtie_through_vertex_k6(all_red(6), 0)

    def test_vertex_must_belong(self):
        with pytest.raises(ValueError):
            bowtie_through_vertex_k6(split_k6(RED), 6)


def _has_split(g: ColouredGraph) -> bool:
    from itertools import combinations
    for t1 in combinations(range(6), 3):
        t2 = tuple(sorted(set(range(6)) - set(t1)))
        c1 = g.edge_colour(t1[0], t1[1])
        c2 = g.edge_colour(t2[0], t2[1])
        if (c1 != c2
                and g.edge_colour(t1[0], t1[2]) == c1 == g.edge_colour(t1[1], t1[2])
                and g.edge_colour(t2[0], t2[2]) == c2 == g.edge_colour(t2[1], t2[2])):
            return True
    return False


def seven_with_known(case: str) -> tuple[ColouredGraph, Bowtie]:
    """Complete K7 holding the bowtie red-012 / blue-234, cases for x=5, y=6."""
    colour = {}
    for u, v in ((0, 1), (0, 2), (1, 2)):
        colour[(u, v)] = RED
    for u, v in ((2, 3), (2, 4), (3, 4)):
        colour[(u, v)] = BLUE
    colour[(0, 3)] = colour[(0, 4)] = colour[(1, 3)] = colour[(1, 4)] = RED
    if case == "common-apex":
        colour[(5, 6)] = RED
        for w in (3, 4):
            colour[(w, 5)] = colour[(w, 6)] = RED
        colour[(2, 5)] = colour[(2, 6)] = BLUE
        colour[(0, 5)] = colour[(0, 6)] = colour[(1, 5)] = colour[(1, 6)] = BLUE
    elif case == "pigeonhole-disjoint":
        colour[(5, 6)] = RED
        colour[(2, 5)] = RED
        colour[(3, 5)] = colour[(4, 5)] = BLUE
        colour[(3, 6)] = RED
        colour[(2, 6)] = colour[(4, 6)] = BLUE
        colour[(0, 5)] = colour[(1, 5)] = BLUE
        colour[(0, 6)] = colour[(1, 6)] = BLUE
    elif case == "pigeonhole-shared":
        colour[(5, 6)] = BLUE
        colour[(0, 5)] = RED
        colour[(1, 5)] = BLUE
        colour[(2, 5)] = RED
        colour[(0, 6)] = colour[(1, 6)] = colour[(2, 6)] = RED
        colour[(3, 5)] = colour[(4, 5)] = RED
        colour[(3, 6)] = colour[(4, 6)] = RED
    else:
        raise AssertionError(case)
    edges = [(u, v, c) for (u, v), c in colour.items()]
    g = ColouredGraph(7, 2, edges)
    known = Bowtie(MonoClique((0, 1, 2), RED), MonoClique((2, 3, 4), BLUE))
    assert known.verify(g)
    return g, known


class TestSecondBowtie:
    def test_apex_extends_the_outside_pair(self):
        g, known = seven_with_known("common-apex")
        bow = second_bowtie_k7(g, known)
        assert bow.verify(g)
        assert bow.vertex_set != known.vertex_set
        assert {5, 6} <= bow.vertex_set

    def test_pigeonhole_then_disjoint_recurses_into_k6(self):
        g, known = seven_with_known("pigeonhole-disjoint")
        bow = second_bowtie_k7(g, known)
        assert bow.verify(g)
        assert bow.vertex_set != known.vertex_set
        assert bow.vertex_set & {5, 6}

    def test_pigeonhole_then_shared_pairs_directly(self):
        g, known = seven_with_known("pigeonhole-shared")
        bow = second_bowtie_k7(g, known)
        assert bow.verify(g)
        assert bow.vertex_set != known.vertex_set

    def test_random_codes_with_any_bowtie(self):
        rng = np.random.default_rng(84)
        qualifying = 0
        for code in rng.integers(0, 2 ** 21, size=400):
            g = complete_colouring(7, 2, int(code))
            known = find_bowtie(g)
            if known is None:
                continue
            qualifying += 1
            bow = second_bowtie_k7(g, known)
            assert bow.verify(g)
            assert bow.vertex_set != known.vertex_set
        assert qualifying > 300

    def test_known_must_fit(self):
        g, known = seven_with_known("common-apex")
        stranger = Bowtie(MonoClique((0, 1, 3), RED), MonoClique((3, 4, 5), BLUE))
        with pytest.raises(ValueError):
            second_bowtie_k7(g, stranger)


class TestDoubledK7:
    def test_claim_pair_all_red(self):
        pair = claim_pair_k7(all_red(7))
        assert pair == (MonoClique((0, 1, 2), RED), MonoClique((0, 3, 4), RED))

    def test_all_red_blowup_frozen_output(self):
        g = blow_up(all_red(7), [2] * 7)
        a, b, c = extract_three_disjoint_k7x2(g)
        assert (a, b, c) == (MonoClique((0, 6, 8), RED),
                             MonoClique((3, 5, 7), RED),
                             MonoClique((1, 2, 4), RED))

    def test_random_base_codes(self):
        rng = np.random.default_rng(85)
        shared = disjoint = 0
        for code in rng.integers(0, 2 ** 21, size=250):
            base = complete_colouring(7, 2, int(code))
            g = blow_up(base, [2] * 7)
            pair = claim_pair_k7(g, [0, 2, 4, 6, 8, 10, 12])
            assert pair is not None
            if pair[0].mask & pair[1].mask:
                shared += 1
            else:
                disjoint += 1
            tris = extract_three_disjoint_k7x2(g)
            assert tris == reference_extract_three_disjoint_k7x2(g)
            used = 0
            for t in tris:
                assert t.verify(g)
                assert not used & t.mask
                used |= t.mask
        assert shared > 0 and disjoint > 0

    def test_kernel_matches_the_reference_on_seeded_rows(self):
        tab = _k7x2_tables()
        rows = np.random.default_rng(14).integers(0, 2, size=(20_000, len(K7X2_EDGES)),
                                                  dtype=np.uint8)
        rows[0], rows[1] = 0, 1
        for lo in range(0, len(rows), 256):
            batch = rows[lo:lo + 256]
            tris, codes = _k7x2_extract(batch)
            assert not codes.any()
            for row, triple in zip(batch, tris.tolist()):
                g = ColouredGraph(14, 2, [(u, v, int(c)) for (u, v), c in zip(K7X2_EDGES, row)])
                got = tuple(MonoClique(tuple(tab.tri_verts[t].tolist()),
                                       int(row[tab.tri_edges[t, 0]])) for t in triple)
                assert got == reference_extract_three_disjoint_k7x2(g)

    @pytest.mark.parametrize("code,message", [
        (1, "transversal K7 without a near-disjoint triangle pair"),
        (2, "complete 7-set without a monochromatic triangle"),
        (3, "complete 6-set without a monochromatic triangle"),
        (4, "extractor produced overlapping triangles")])
    def test_failure_codes_raise_their_anomaly(self, monkeypatch, code, message):
        def failing(rows):
            tris, _ = _k7x2_extract(rows)
            return tris, np.full(len(rows), code)

        monkeypatch.setattr(proofs, "_k7x2_extract", failing)
        g = blow_up(all_red(7), [2] * 7)
        with pytest.raises(AnomalyError, match=f"^{message}$") as err:
            extract_three_disjoint_k7x2(g)
        assert err.value.graph is g

    def test_rejects_non_doubled_hosts(self):
        with pytest.raises(ValueError, match=r"^vertex 0 has 0 non-neighbours, expected 1$"):
            extract_three_disjoint_k7x2(all_red(14))
        with pytest.raises(ValueError):
            extract_three_disjoint_k7x2(blow_up(all_red(7), [2] * 6 + [1]))
        doubled = blow_up(all_red(7), [2] * 7)
        gapped = ColouredGraph(14, 2, [e for e in doubled.edges() if e[:2] != (0, 2)])
        with pytest.raises(ValueError, match=r"^vertex 0 has 2 non-neighbours, expected 1$"):
            extract_three_disjoint_k7x2(gapped)
        # Two upper vertices non-adjacent: vertex 0 still has one non-neighbour.
        upper_gap = ColouredGraph(14, 2, [e for e in doubled.edges() if e[:2] != (1, 3)])
        with pytest.raises(ValueError, match=r"^vertex 1 has 2 non-neighbours, expected 1$"):
            extract_three_disjoint_k7x2(upper_gap)

    def test_partners_found_after_relabelling(self):
        rng = np.random.default_rng(7)
        for code in rng.integers(0, 2 ** 21, size=20):
            perm = [int(v) for v in rng.permutation(14)]
            g = relabelled(blow_up(complete_colouring(7, 2, int(code)), [2] * 7), perm)
            used = 0
            for t in extract_three_disjoint_k7x2(g):
                assert t.verify(g) and not used & t.mask
                used |= t.mask

    def test_relabelled_hosts_match_the_reference_on_the_canonical_labelling(self):
        # Class i, numbered by its lower vertex, becomes (2i, 2i+1); the
        # extractor's output is the reference's on that host, mapped back.
        rng = np.random.default_rng(8)
        for _ in range(200):
            row = rng.integers(0, 2, size=len(K7X2_EDGES))
            canon = ColouredGraph(14, 2, [(u, v, int(c)) for (u, v), c in zip(K7X2_EDGES, row)])
            g = relabelled(canon, [int(v) for v in rng.permutation(14)])
            lower = sorted(min(u, v) for u in range(14) for v in range(u + 1, 14)
                           if not g.has_edge(u, v))
            back = [w for u in lower for w in (u, next(v for v in range(14)
                                                      if v != u and not g.has_edge(u, v)))]
            ref = reference_extract_three_disjoint_k7x2(relabelled(g, [back.index(v)
                                                                     for v in range(14)]))
            expected = tuple(MonoClique(tuple(back[v] for v in t.vertices), t.colour)
                             for t in ref)
            assert extract_three_disjoint_k7x2(g) == expected


class TestMoonSmall:
    @pytest.mark.parametrize("n,delta,count",
                             [(12, 10, 2), (24, 20, 4), (26, 21, 1), (36, 30, 6)])
    def test_extremal_instances(self, n, delta, count):
        g = ex_triangle(n, delta)
        tiling = moon_small(g)
        assert len(tiling) == count
        assert tiling.verify(g)

    def test_random_hosts(self):
        for n, delta, count in ((12, 10, 2), (17, 14, 2)):
            for seed in range(3):
                g = random_min_degree_colouring(n, delta, np.random.default_rng(seed))
                tiling = moon_small(g)
                assert len(tiling) == count
                assert tiling.verify(g)

    def test_band_is_enforced(self):
        with pytest.raises(ValueError):
            moon_small(random_min_degree_colouring(12, 9, np.random.default_rng(0)))
        with pytest.raises(ValueError):
            moon_small(all_red(12))

    def test_bes_small_keeps_majority(self):
        g = ex_triangle(24, 20)
        tiling = bes_small(g)
        assert len(tiling) >= (5 * 20 - 4 * 24 + 1) // 2
        assert len({t.colour for t in tiling}) == 1
        assert tiling.verify(g)


class TestMoonLarge:
    def test_k9_direct_band(self):
        tiling = moon_large(all_red(9))
        assert len(tiling) == 2
        assert tiling.verify(all_red(9))

    def test_k12_recursive_band(self):
        g = all_red(12)
        tiling = moon_large(g)
        assert len(tiling) >= 3
        assert tiling.verify(g)

    def test_random_hosts_meet_the_bound(self):
        for n, delta in ((24, 21), (32, 28), (40, 36)):
            for seed in range(3):
                g = random_min_degree_colouring(n, delta, np.random.default_rng(seed))
                tiling = moon_large(g)
                assert len(tiling) >= (2 * delta - n) // 3
                assert tiling.verify(g)

    def test_band_is_enforced(self):
        with pytest.raises(ValueError):
            moon_large(ex_triangle(24, 20))

    def test_large_host_does_not_recurse(self):
        n = 3100
        full = (1 << n) - 1
        g = ColouredGraph._from_masks(n, 2, [[full ^ (1 << v) for v in range(n)],
                                             [0] * n])
        tiling = moon_large(g)
        assert len(tiling) == 1032 == (2 * (n - 1) - n) // 3
        assert tiling.verify(g)


class TestBesLarge:
    def test_random_complete_hosts(self):
        for seed in range(3):
            g = random_min_degree_colouring(66, 65, np.random.default_rng(seed))
            tiling = bes_large(g)
            assert len(tiling) >= 13
            assert len({t.colour for t in tiling}) == 1
            assert tiling.verify(g)

    def test_near_complete_host(self):
        g = random_min_degree_colouring(132, 130, np.random.default_rng(7))
        tiling = bes_large(g)
        assert len(tiling) >= 26
        assert len({t.colour for t in tiling}) == 1
        assert tiling.verify(g)

    def test_band_is_enforced(self):
        with pytest.raises(ValueError):
            bes_large(random_min_degree_colouring(66, 64, np.random.default_rng(0)))


def test_degree_tiler_outputs_are_pinned():
    """The four degree tilers on the first 60 criterion-08 hosts of each regime,
    at budgets None, 0 and 3: one sha256 over every tiling's ``(vertices,
    colour)`` pairs, or the exception's type and message."""
    regimes = [(moon_small, _band_pairs(4, 5, 5, 6, range(12, 43))),
               (bes_small, _band_pairs(4, 5, 5, 6, range(12, 43))),
               (moon_large, _band_pairs(7, 8, 1, 1, range(16, 61))),
               (bes_large, _band_pairs(65, 66, 1, 1, range(66, 133)))]
    outcomes = []
    for idx, (algorithm, pairs) in enumerate(regimes):
        for k in range(60):
            n, d = pairs[k % len(pairs)]
            g = random_min_degree_colouring(n, d, np.random.default_rng([8, idx, k]))
            for budget in (None, 0, 3):
                try:
                    outcomes.append([(t.vertices, t.colour) for t in algorithm(g, budget=budget)])
                except (SearchBudgetExceeded, AnomalyError) as exc:
                    outcomes.append((type(exc).__name__, str(exc)))
    assert sum(isinstance(o, tuple) for o in outcomes) == 314
    assert (hashlib.sha256(repr(outcomes).encode()).hexdigest()
            == "c13c04cf6b11c4460b9003e52c4a2788d4caa4617adc7d1c0a30611852c29691")


def engineered_bowtie_pool(g_n: int, count: int) -> tuple[ColouredGraph, list]:
    """Complete host whose first ``count`` 5-blocks each hold a fixed bowtie."""
    edges = {}
    for u in range(g_n):
        for v in range(u + 1, g_n):
            edges[(u, v)] = RED
    pool = []
    for i in range(count):
        base = 5 * i
        for u, v in ((base + 2, base + 3), (base + 2, base + 4), (base + 3, base + 4)):
            edges[(u, v)] = BLUE
        pool.append(tuple(range(base, base + 5)))
    g = ColouredGraph(g_n, 2, [(u, v, c) for (u, v), c in edges.items()])
    return g, pool


class TestAugmentation:
    def test_empty_t_banks_six_and_seeds_a_triangle(self):
        g, pool_b = engineered_bowtie_pool(66, 10)
        pool_t = []
        out = _bes_augment(g, pool_b, pool_t, m=13)
        assert out is None
        assert len(pool_t) == 1
        assert pool_t[0].verify(g)
        used = mask_of(v for bs in pool_b for v in bs)
        assert not pool_t[0].mask & used
        for five in pool_b:
            inside = list(g.iter_mono_triangles(mask_of(five)))
            assert first_pair(inside, 1, 1, same_colour=False) is not None

    def test_nonempty_t_grows_a_pool(self):
        g, pool_b = engineered_bowtie_pool(66, 10)
        pool_t = [MonoClique((60, 61, 62), RED)]
        assert pool_t[0].verify(g)
        before = (len(pool_b), len(pool_t))
        out = _bes_augment(g, pool_b, pool_t, m=13)
        assert out is None
        assert (len(pool_b), len(pool_t)) > before

    def test_too_few_banked_vertices_is_an_anomaly(self):
        edges = {}
        for u in range(30):
            for v in range(u + 1, 30):
                if u >= 25:
                    continue
                edges[(u, v)] = RED
        pool = []
        for i in range(5):
            base = 5 * i
            for u, v in ((base + 2, base + 3), (base + 2, base + 4),
                         (base + 3, base + 4)):
                edges[(u, v)] = BLUE
            pool.append(tuple(range(base, base + 5)))
        g = ColouredGraph(30, 2, [(u, v, c) for (u, v), c in edges.items()])
        with pytest.raises(AnomalyError):
            _bes_augment(g, pool, [], m=6)


class TestPhasedTiler:
    def seeded_host(self, n: int, rng: np.random.default_rng) -> ColouredGraph:
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if v < 12:
                    edges.append((u, v, RED))
                else:
                    edges.append((u, v, int(rng.integers(0, 2))))
        return ColouredGraph(n, 2, edges)

    def test_strict_meets_the_target(self):
        rng = np.random.default_rng(90)
        seed = MonoClique(tuple(range(12)), RED)
        for _ in range(30):
            g = self.seeded_host(20, rng)
            result = phased_tiler(g, seed)
            assert result.strict
            assert result.notes == ()
            assert len(result.tiling) >= (20 - 2) // 3
            assert result.tiling.verify(g)

    def test_strict_all_red_outside(self):
        g = ColouredGraph(20, 2, [(u, v, RED) for u in range(20)
                                  for v in range(u + 1, 20)])
        result = phased_tiler(g, MonoClique(tuple(range(12)), RED))
        assert len(result.tiling) == 6

    def test_larger_host(self):
        rng = np.random.default_rng(91)
        g = self.seeded_host(36, rng)
        result = phased_tiler(g, MonoClique(tuple(range(12)), RED))
        assert len(result.tiling) >= (36 - 2) // 3
        assert result.tiling.verify(g)

    def test_phase_three_pairs_the_pentagon_with_quiet_seed_vertices(self):
        # K17: a red K12 seed on 0..11, a red C5 on 12..16 with its complement
        # blue, every cross edge blue.  The pentagon has no mono triangle, so
        # phase I takes nothing, and no outside vertex has a red edge into the
        # seed, so phase II takes nothing.  Phase III takes (0, 12, 14) and
        # (1, 13, 15), each around one quiet seed vertex; the rest of the seed
        # is chopped into red triangles.
        def colour(u, v):
            if v < 12:
                return RED
            if u < 12:
                return BLUE
            return RED if (v - u) % 5 in (1, 4) else BLUE

        g = ColouredGraph(17, 2, [(u, v, colour(u, v)) for u in range(17)
                                  for v in range(u + 1, 17)])
        result = phased_tiler(g, MonoClique(tuple(range(12)), RED))
        assert result.strict and result.notes == ()
        assert result.tiling == Tiling((
            MonoClique((0, 12, 14), BLUE), MonoClique((1, 13, 15), BLUE),
            MonoClique((2, 3, 4), RED), MonoClique((5, 6, 7), RED), MonoClique((8, 9, 10), RED)))
        assert result.tiling.verify(g) and len(result.tiling) == (17 - 2) // 3

    def test_relaxed_mode_reports_instead_of_raising(self):
        edges = [(u, v, RED) for u in range(6) for v in range(u + 1, 6)]
        edges += [(6, 7, BLUE), (7, 8, BLUE), (6, 8, BLUE)]
        edges += [(u, v, BLUE) for u in range(6) for v in (6, 7, 8)]
        g = ColouredGraph(9, 2, edges)
        result = phased_tiler(g, MonoClique((0, 1, 2, 3, 4, 5), RED))
        assert not result.strict
        assert result.tiling.verify(g)

    def test_three_coloured_host_is_rejected(self):
        g = ColouredGraph(20, 3, [(u, v, RED) for u in range(20)
                                  for v in range(u + 1, 20)])
        with pytest.raises(ValueError, match="3 colours"):
            phased_tiler(g, MonoClique(tuple(range(12)), RED))

    def test_tables_expose_the_pinned_values(self):
        assert RAMSEY_NUMBERS[(2, 3)] == 6
        assert SPECIAL_RAMSEY_NUMBERS[(2, 3)] == 4


class TestFindClique:
    def test_lex_smallest(self):
        g = all_red(6)
        assert next(iter_cliques(g.adj, 0b111110, 3), None) == (1, 2, 3)

    def test_absent(self):
        g = ColouredGraph(4, 2, [(0, 1, RED), (2, 3, RED)])
        assert next(iter_cliques(g.adj, 0b1111, 3), None) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 28 - 1))
def test_k8_extractor_property(code):
    g = complete_colouring(8, 2, code)
    t1, t2 = extract_two_disjoint_k8(g)
    assert t1.verify(g) and t2.verify(g) and not t1.mask & t2.mask


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 21 - 1))
def test_doubled_k7_extractor_property(code):
    g = blow_up(complete_colouring(7, 2, code), [2] * 7)
    tris = extract_three_disjoint_k7x2(g)
    used = 0
    for t in tris:
        assert t.verify(g)
        assert not used & t.mask
        used |= t.mask
