"""Verification-engine tests: frozen scan counts and dual-route cross-checks.

The exhaustive counts asserted here (12 bad K5 colourings, 4662 K7 codes
without a disjoint mono pair, 7810 qualifying K6 codes, ...) were computed
once with the slow python predicates and frozen; the vector kernels must
keep reproducing them exactly.
"""

from functools import partial, reduce
from itertools import combinations
from math import comb
from operator import or_

import numpy as np
import pytest
from helpers import (
    edge_digest,
    enumerate_colourings,
    oracle_max_packing,
    reference_extract_three_disjoint_k7x2,
    small_graphs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from tritile import verifiers
from tritile.graphs import (
    AnomalyError,
    ColouredGraph,
    MonoClique,
    Tiling,
    colouring_code,
    complete_colouring,
    iter_bits,
    lex_edges,
)
from tritile.proofs import _k7x2_extract, _k7x2_tables
from tritile.verifiers import (
    K7X2_EDGES,
    LemmaReport,
    audit_tightness,
    compute_ramsey,
    compute_special_ramsey,
    has_mono_pair_sharing_at_most,
    k7x2_bits,
    k7x2_code,
    k7x2_graph,
    lemma_violated,
    max_disjoint_mono_capped,
    mono_triangle_count,
    probe_question,
    verify_bowtie_lemmas,
    verify_claim_k7,
    verify_fact_k6,
    verify_k7_blowup,
    verify_lemma_k8,
    bowtie_extraction_holds,
    _bowtie_sweep,
    _clique_free,
    _confirm_witnesses,
    _extracts,
    _fewer_mono,
    _k7x2_adversarial_task,
    _k7x2_colour_rows,
    _k7x2_packs,
    _k7x2_setup,
    _no_mono_pair,
    _run_scan,
    _split_pair,
)
from tritile.solvers import DEFAULT_NODE_BUDGET, _PackingSearch, find_bowtie


class TestExhaustiveScans:
    def test_fact_k6_clean(self):
        rep = verify_fact_k6()
        assert rep.lemma_id == "fact-k6"
        assert rep.mode == "exhaustive"
        assert rep.universe_size == 32768
        assert rep.checked == 32768
        assert rep.violation_count == 0
        assert rep.holds
        assert rep.elapsed < 1.0

    def test_k5_analogue_has_twelve_bad_colourings(self):
        rep = verify_fact_k6(n=5, min_triangles=1)
        assert rep.violation_count == 12
        assert rep.violations[:3] == (220, 234, 316)
        for code in rep.violations:
            g = complete_colouring(5, 2, code)
            assert mono_triangle_count(g) == 0
            # Triangle-free 2-colourings of K5 are 5-cycles in both colours.
            for c in range(2):
                assert all(g.colour_adj[c][v].bit_count() == 2 for v in range(5))

    def test_degenerate_orders_smaller_than_one_block(self):
        # Each universe here is smaller than one scan block.
        assert [(r.checked, r.violation_count) for r in
                (verify_fact_k6(n=n, min_triangles=1) for n in range(6))] == \
            [(1, 1), (1, 1), (2, 2), (8, 6), (64, 18), (1024, 12)]
        assert [(r.checked, r.violation_count) for r in
                (verify_lemma_k8(n=n, workers=1) for n in range(7))] == \
            [(1, 1), (1, 1), (2, 2), (8, 8), (64, 64), (1024, 1024), (32768, 16746)]

    def test_mono_count_rounds_stop_at_the_triangle_count(self):
        # No colouring of K6 has 10^9 mono triangles; the count of
        # clear-lowest-bit rounds must not grow with min_triangles.
        rep = verify_fact_k6(n=6, min_triangles=10**9)
        assert (rep.checked, rep.violation_count) == (32768, 32768)
        assert rep.violations == tuple(range(32))
        assert rep.elapsed < 0.5

    def test_claim_k7_clean(self):
        rep = verify_claim_k7()
        assert rep.universe_size == 1 << 21
        assert rep.violation_count == 0

    def test_k7_disjoint_scan_counts_sharpness_witnesses(self):
        rep = verify_lemma_k8(n=7, workers=1)
        assert rep.lemma_id == "disjoint-pair-k7"
        assert rep.universe_size == 1 << 21
        assert rep.reduction_factor == 1
        assert rep.violation_count == 4662
        assert rep.violations[:4] == (1006, 1014, 1018, 1020)
        for code in rep.violations[:6]:
            g = complete_colouring(7, 2, code)
            assert not has_mono_pair_sharing_at_most(g, 0)

    def test_scan_is_worker_count_independent(self):
        one = verify_lemma_k8(n=7, workers=1)
        three = verify_lemma_k8(n=7, workers=3)
        assert one.comparable() == three.comparable()

    def test_scan_count_matches_slow_enumeration(self):
        slow = []
        enumerate_colourings(
            6, 2, lambda code, g: slow.append(code)
            if mono_triangle_count(g) < 2 else None, lo=4000, hi=6000)
        checked, _, count, found = _run_scan(6, partial(_fewer_mono, k=2), 4000, 6000)
        assert checked == 2000
        assert count == len(slow)
        assert found == slow[:32]

    def test_disjoint_scan_matches_slow_enumeration(self):
        slow = []
        enumerate_colourings(
            7, 2, lambda code, g: slow.append(code)
            if not has_mono_pair_sharing_at_most(g, 0) else None, hi=1 << 13)
        checked, _, count, found = _run_scan(7, partial(_no_mono_pair, share=0), 0, 1 << 13)
        assert count == len(slow)
        assert found == slow[:32]

    def test_colour_swap_justifies_halving(self):
        full = (1 << 28) - 1
        rng = np.random.default_rng(2)
        for code in rng.integers(0, 1 << 28, size=40):
            a = complete_colouring(8, 2, int(code))
            b = complete_colouring(8, 2, int(code) ^ full)
            assert (has_mono_pair_sharing_at_most(a, 0)
                    == has_mono_pair_sharing_at_most(b, 0))

    def test_extractor_subset_runs_clean(self):
        rep = verify_lemma_k8(workers=1, extractor_samples=300, seed=7)
        assert rep.extra["extractor_failures"] == 0
        assert rep.universe_size == 1 << 28
        assert rep.checked == 1 << 27
        assert rep.reduction_factor == 2
        assert rep.violation_count == 0

    def test_extractor_failures_do_not_depend_on_workers(self, monkeypatch):
        # The extractor fails on every code divisible by 3: the failures are
        # the sampled codes of that kind, in the same order at any worker count.
        # The exhaustive scan is not under test, so it is skipped.
        real = verifiers.extract_two_disjoint_k8
        monkeypatch.setattr(verifiers, "_run_scan", lambda *args, **kwargs: (0, 0, 0, []))

        def failing(g):
            if colouring_code(g) % 3 == 0:
                raise ValueError("chosen to fail")
            return real(g)

        monkeypatch.setattr(verifiers, "extract_two_disjoint_k8", failing)
        one, two = (verify_lemma_k8(workers=w, extractor_samples=12_000, seed=4)
                    for w in (1, 2))
        assert one.comparable() == two.comparable()
        codes = one.extra["extractor_failure_codes"]
        assert len(codes) == verifiers.WITNESS_CAP and all(code % 3 == 0 for code in codes)
        assert 3_500 < one.extra["extractor_failures"] < 4_500

    def test_extractor_subset_rejects_other_orders(self):
        with pytest.raises(ValueError, match="K8"):
            verify_lemma_k8(n=7, extractor_samples=10)

    def test_scan_size_guard(self):
        with pytest.raises(ValueError, match="exhaustive"):
            verify_fact_k6(n=9)

    def test_negative_orders_and_seeds_are_rejected_up_front(self):
        with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
            verify_fact_k6(n=-1)
        with pytest.raises(ValueError, match="order must be nonnegative, got -2"):
            verify_lemma_k8(n=-2)
        for samples in (0, 3):
            with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
                verify_lemma_k8(extractor_samples=samples, seed=-1)

    def test_enumeration_range_validation(self):
        with pytest.raises(ValueError, match="universe"):
            enumerate_colourings(4, 2, lambda c, g: None, lo=10, hi=100)

    @staticmethod
    def report(lemma_id, n, violations=()):
        return LemmaReport(lemma_id=lemma_id, n=n, r=2, mode="exhaustive",
                           universe_size=0, checked=0, reduction_factor=1,
                           violation_count=len(violations), violations=violations,
                           elapsed=0.0)

    def test_graph_decodes_witness_codes(self):
        rng = np.random.default_rng(12)
        k7x2, k5 = self.report("k7x2", 14), self.report("mono-count-k5", 5)
        for _ in range(20):
            bits = rng.integers(0, 2, size=len(K7X2_EDGES), dtype=np.uint8)
            g = k7x2.graph(k7x2_code(bits))
            assert g.n == 14 and g.edges() == k7x2_graph(bits).edges()
            code = int(rng.integers(0, 1 << 10))
            assert colouring_code(k5.graph(code)) == code

    def test_confirm_rejects_a_witness_that_holds(self):
        with pytest.raises(AnomalyError, match="claim-k7 witness"):
            _confirm_witnesses(self.report("claim-k7", 7, (0,)), "claim-k7")
        qualifying = np.flatnonzero(_split_pair(
            verifiers._factor(np.arange(1 << 15, dtype=np.uint64), 6, 2, 3, 0, 15), 6, 0))
        good = int(qualifying[0])
        assert bowtie_extraction_holds(complete_colouring(6, 2, good))
        with pytest.raises(AnomalyError, match="bowtie-k6 witness"):
            _confirm_witnesses(self.report("bowtie-k6", 6, (good,)), "bowtie")

    def test_report_comparable_drops_wall_clock(self):
        rep = verify_fact_k6(n=4)
        d = rep.as_dict()
        assert d["holds"] is (rep.violation_count == 0)
        assert "elapsed" in d and "elapsed" not in rep.comparable()


def reference_colour_bits(n, code):
    """Red and blue triangle bitmaps from the plain mono-triangle list."""
    index = {t: i for i, t in enumerate(combinations(range(n), 3))}
    bits = [0, 0]
    for u, v, w, c in complete_colouring(n, 2, code).mono_triangles():
        bits[c] |= 1 << index[(u, v, w)]
    return bits


def reference_pair_hit(n, first, second, lo, hi):
    """Some triangle of ``first`` meets another one of ``second`` in lo..hi vertices."""
    tris = [frozenset(t) for t in combinations(range(n), 3)]
    return any(s != t and lo <= len(tris[t] & tris[s]) <= hi
               for t in range(len(tris)) if first >> t & 1
               for s in range(len(tris)) if second >> s & 1)


def _k8_codes():
    rng = np.random.default_rng(8)
    random = rng.integers(0, 1 << 28, size=300, dtype=np.uint64)
    steps = np.arange(4000, 6000, dtype=np.uint64)
    return np.concatenate([random, random & ~np.uint64(1), steps, steps << np.uint64(1)])


def reference_clique_bits(n, r, ell, code):
    """Per colour, the bitmap of the K_ell whose edges all carry it."""
    g = complete_colouring(n, r, code)
    bits = [0] * r
    for j, verts in enumerate(combinations(range(n), ell)):
        colours = {g.edge_colour(u, v) for u, v in combinations(verts, 2)}
        if len(colours) == 1:
            bits[colours.pop()] |= 1 << j
    return bits


def entry_bits(bits, i):
    """Entry i of (colours, words, codes) bitmaps as one int per colour."""
    return [sum(int(word) << 64 * w for w, word in enumerate(colour[:, i])) for colour in bits]


def walked_codes(*args):
    """Every code that ``_colour_chunks(*args)`` walks, in walk order."""
    return [code + int(c) for code, low, _ in verifiers._colour_chunks(*args) for c in low]


class TestSliceKernels:
    """The block and slice-table kernels against plain-python references."""

    @pytest.mark.parametrize("n, codes", [
        (6, np.arange(1 << 15, dtype=np.uint64)),
        (7, np.arange(3 << 12, 4 << 12, dtype=np.uint64)),
        (8, _k8_codes()),
    ], ids=["k6-all", "k7-slice", "k8-random"])
    def test_colour_bitmaps_and_pair_hits(self, n, codes):
        red, blue = verifiers._factor(codes, n, 2, 3, 0, n * (n - 1) // 2)[:, 0]
        ref = [reference_colour_bits(n, int(code)) for code in codes]
        assert [[int(r), int(b)] for r, b in zip(red, blue)] == ref
        mono = red | blue
        for first, second, lo, hi in ((mono, mono, 0, 0), (mono, mono, 0, 1),
                                      (red, blue, 0, 0), (red, blue, 1, 1), (red, red, 2, 3)):
            hits = verifiers._pair_hits(first, second, n, lo, hi)
            # Distinct bitmaps are few; check each once.
            seen = {}
            for f, s, h in zip(first.tolist(), second.tolist(), hits.tolist()):
                if (f, s) not in seen:
                    seen[f, s] = reference_pair_hit(n, f, s, lo, hi)
                assert h == seen[f, s]

    @pytest.mark.parametrize("n, ell", [(5, 2), (6, 3), (8, 4)])
    def test_clique_bitmaps_span_several_words(self, n, ell):
        # K8 has 70 K4, so their bitmaps take two 64-bit words.
        self._check_clique_bitmaps(n, ell, 2)

    @pytest.mark.parametrize("n, ell", [(5, 2), (6, 3), (8, 4)])
    def test_three_colour_clique_bitmaps_span_several_words(self, n, ell):
        self._check_clique_bitmaps(n, ell, 3)

    # Five colours cut no digit range at a power of two; eight fill 63 bits
    # on K7.  Orders whose codes need more than 64 bits are left out.
    @pytest.mark.parametrize("n, ell, r", [(n, ell, r) for r in (4, 5, 8)
                                           for n, ell in ((5, 2), (6, 3), (7, 4), (8, 4))
                                           if r ** comb(n, 2) <= 1 << 64])
    def test_clique_bitmaps_for_more_colours(self, n, ell, r):
        self._check_clique_bitmaps(n, ell, r)

    @staticmethod
    def _check_clique_bitmaps(n, ell, r):
        # The factor of every digit is the code's bitmaps, and the factors of
        # two complementary digit ranges AND to it.
        edges = n * (n - 1) // 2
        codes = np.random.default_rng(n).integers(0, r ** edges, size=200, dtype=np.uint64)
        bits = verifiers._factor(codes, n, r, ell, 0, edges)
        assert bits.shape == (r, -(-comb(n, ell) // 64), len(codes))
        assert [entry_bits(bits, i) for i in range(len(codes))] == \
            [reference_clique_bits(n, r, ell, code) for code in codes.tolist()]
        cut = edges // 3
        assert np.array_equal(verifiers._factor(codes, n, r, ell, 0, cut)
                              & verifiers._factor(codes, n, r, ell, cut, edges), bits)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_two_colour_tables_are_the_zero_and_one_tables(self, n, ell):
        # The reference: per slice of the edge bits, zero[x] marks the cliques
        # with no edge bit set in x inside the slice, one[x] those with all
        # set.  The two-colour factors of the slice's values are these tables.
        index = {e: i for i, e in enumerate(lex_edges(n))}
        masks = np.array([sum(1 << index[e] for e in combinations(verts, 2))
                          for verts in combinations(range(n), ell)], dtype=np.uint64)
        for shift, width in verifiers._slices(len(index)):
            part = (masks >> np.uint64(shift)) & np.uint64((1 << width) - 1)
            values = np.arange(1 << width, dtype=np.uint64)
            zero, one = verifiers._factor(values << np.uint64(shift), n, 2, ell,
                                          shift, shift + width)
            sub = values[:, None] & part
            assert zero.tobytes() == verifiers._pack_words(sub == 0).tobytes()
            assert one.tobytes() == verifiers._pack_words(sub == part).tobytes()
            assert zero.shape == one.shape == (max(1, -(-len(masks) // 64)), 1 << width)

    @pytest.mark.parametrize("n", range(3))
    def test_orders_without_triangles_have_one_empty_word(self, n):
        bits = verifiers._factor(np.arange(1 << comb(n, 2), dtype=np.uint64), n, 2, 3,
                                 0, comb(n, 2))
        assert bits.shape == (2, 1, 1 << comb(n, 2)) and not bits.any()

    def test_slices_are_the_widest_that_fit_a_table(self):
        # 12 bits index a table of 2^12 entries.
        for bits in range(0, 80):
            slices = verifiers._slices(bits)
            widths = [w for _, w in slices]
            assert [s for s, _ in slices] == [sum(widths[:k]) for k in range(len(widths))]
            assert sum(widths) == bits and max(widths) - min(widths) <= 1
            assert max(widths) <= 12 and len(slices) == max(1, -(-bits // 12))
        assert verifiers._slices(0) == ((0, 0),)  # K0 and K1: one slice of width 0

    @pytest.mark.parametrize("n, lo, hi, shift", [
        (6, 0, 1 << 15, 0),
        (7, 3 * (1 << 14) - 1234, 5 * (1 << 14) + 567, 0),
        (8, (1 << 20) - 3000, (1 << 20) + 2000, 1),
    ], ids=["k6-all", "k7-off-block", "k8-shifted"])
    def test_split_chunk_bitmaps(self, n, lo, hi, shift):
        # Blocks tile [lo, hi) in order, aligned to the block size even
        # where the range is not; entry k of a block is code + low[k].
        size = verifiers._CHUNK
        start = lo
        for code, low, bits in verifiers._colour_chunks(n, 2, 3, lo, hi, shift, (0,)):
            assert bits.shape == (2, 1, len(low)) and len(low) > 0
            assert code % (size << shift) == 0
            assert [code + int(c) for c in low] == [i << shift for i in range(start, start + len(low))]
            assert (start + len(low) - 1) // size == start // size
            assert [entry_bits(bits, k) for k in range(len(low))] == \
                [reference_colour_bits(n, code + int(c)) for c in low]
            start += len(low)
        assert start == hi

    def test_reports_do_not_depend_on_the_chunk_size(self, monkeypatch):
        def reports():
            return [verify_lemma_k8(n=7, workers=1).comparable(),
                    verify_claim_k7().comparable(), verify_fact_k6().comparable(),
                    verify_fact_k6(min_triangles=5).comparable(),
                    _bowtie_sweep(6, 0, 1).comparable()]

        before = reports()
        # 2^16 is larger than the whole K6 universe.
        for size in (1 << 10, 1 << 16):
            monkeypatch.setattr(verifiers, "_CHUNK", size)
            assert reports() == before


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 21) - 1))
def test_pair_checker_matches_slow_predicate(code):
    found = _run_scan(7, partial(_no_mono_pair, share=1), code, code + 1)[3]
    g = complete_colouring(7, 2, code)
    assert (found == [code]) == (not has_mono_pair_sharing_at_most(g, 1))


def test_lemma_predicates_by_cli_name():
    badly_k5 = complete_colouring(5, 2, 220)
    assert lemma_violated("fact-k6", badly_k5, {"min_triangles": 1})
    assert not lemma_violated("fact-k6", complete_colouring(6, 2, 0))
    assert not lemma_violated("lemma-k8", complete_colouring(7, 2, 0))
    assert not lemma_violated("claim-k7", complete_colouring(7, 2, 0))
    assert not lemma_violated("k7x2", k7x2_graph(np.zeros(len(K7X2_EDGES), dtype=np.uint8)))
    # Red 012 and blue 345 with red edges between: a qualifying K6 code.
    assert not lemma_violated("bowtie", complete_colouring(6, 2, 28672))
    with pytest.raises(ValueError):
        lemma_violated("k10", complete_colouring(6, 2, 0))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 15) - 1))
def test_mono_count_checker_matches_slow_predicate(code):
    found = _run_scan(6, partial(_fewer_mono, k=2), code, code + 1)[3]
    g = complete_colouring(6, 2, code)
    assert (found == [code]) == (mono_triangle_count(g) < 2)


class TestBowtieSweeps:
    def test_k6_sweep_is_clean(self):
        checked, qualifying, failures, fails = _run_scan(
            6, partial(_split_pair, share=0), 0, 1 << 15,
            check=bowtie_extraction_holds)
        assert (checked, qualifying, failures) == (32768, 7810, 0)
        assert fails == []

    def test_k6_report_shape(self):
        rep, _ = _small_bowtie_reports()
        assert rep.lemma_id == "bowtie-k6"
        assert rep.extra["qualifying"] == 7810
        assert rep.violation_count == 0

    def test_k7_slice_is_clean(self):
        checked, qualifying, failures, fails = _run_scan(
            7, partial(_split_pair, share=1), 0, 1 << 13,
            check=bowtie_extraction_holds)
        assert (checked, qualifying, failures) == (8192, 4842, 0)
        assert fails == []

    def test_k7_filter_flags_exactly_the_bowtie_colourings(self):
        slow = []
        enumerate_colourings(
            7, 2, lambda code, g: slow.append(code)
            if find_bowtie(g) is not None else None, hi=1 << 10)
        _, qualifying, count, found = _run_scan(
            7, partial(_split_pair, share=1), 0, 1 << 10)
        assert qualifying == count == len(slow)
        assert found == slow[:32]


_BOWTIE_CACHE = []


def _small_bowtie_reports():
    # The K6 sweep is cheap; the full K7 sweep lives in the acceptance run.
    if not _BOWTIE_CACHE:
        k6 = _bowtie_sweep(6, 0, 1)
        _BOWTIE_CACHE.append((k6, None))
    return _BOWTIE_CACHE[0]


class TestDoubledK7Campaign:
    def test_code_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            bits = rng.integers(0, 2, size=len(K7X2_EDGES), dtype=np.uint8)
            assert np.array_equal(k7x2_bits(k7x2_code(bits)), bits)

    def test_packing_floor_matches_graph_route(self):
        # The sampler's classifier against a flat search over the host's
        # mono triangles, at every cap up to the lemma's.
        rng = np.random.default_rng(9)
        for _ in range(60):
            g = k7x2_graph(rng.integers(0, 2, size=len(K7X2_EDGES), dtype=np.uint8))
            masks = [(1 << u) | (1 << v) | (1 << w) for u, v, w, _ in g.mono_triangles()]
            for cap in (1, 2, 3):
                floor = max(k for k in range(cap + 1) if any(
                    sum(m.bit_count() for m in pack) == reduce(or_, pack, 0).bit_count()
                    for pack in combinations(masks, k)))
                assert max_disjoint_mono_capped(g, cap) == floor

    def test_all_red_host_floor(self):
        bits = np.zeros(len(K7X2_EDGES), dtype=np.uint8)
        assert max_disjoint_mono_capped(k7x2_graph(bits), 3) == 3

    def test_small_campaign_is_clean_and_reproducible(self, monkeypatch):
        monkeypatch.setattr(verifiers, "_K7X2_CHUNK", 500)
        kwargs = dict(samples=1200, adversarial_restarts=3, plateau_steps=100, seed=3)
        a = verify_k7_blowup(workers=1, **kwargs)
        b = verify_k7_blowup(workers=2, **kwargs)
        assert a.violation_count == 0
        assert a.extra["extractor_failures"] == 0
        assert a.extra["adversarial_min_packing"] == 3
        assert a.mode == "adversarial"
        assert a.comparable() == b.comparable()

    def test_pure_sampling_mode_label(self):
        rep = verify_k7_blowup(samples=50, adversarial_restarts=0, workers=1)
        assert rep.mode == "randomized"
        assert rep.checked == 50

    def test_negative_counts_are_rejected_up_front(self):
        with pytest.raises(ValueError, match="plateau step count"):
            verify_k7_blowup(samples=1, adversarial_restarts=1, plateau_steps=-1)
        with pytest.raises(ValueError, match="extractor sample count"):
            verify_lemma_k8(extractor_samples=-5)

    @pytest.mark.parametrize("samples, restarts", [(1, 1), (0, 0)])
    def test_negative_seed_is_rejected_up_front(self, samples, restarts):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            verify_k7_blowup(samples=samples, adversarial_restarts=restarts, seed=-1)


# The doubled-K7 tasks as they were before witness reuse and batched hosts:
# every descent step searches all 84 flips, and every sampled host is built
# one edge at a time and run through the graph-walking extractor.


def reference_capped_count(masks, cap):
    best = 0

    def rec(i, used, depth):
        nonlocal best
        best = max(best, depth)
        if best >= cap:
            return
        for j in range(i, len(masks)):
            if not masks[j] & used:
                rec(j + 1, used | masks[j], depth + 1)
                if best >= cap:
                    return

    rec(0, 0, 0)
    return best


def reference_k7x2_graph(bits):
    return ColouredGraph(14, 2, [(u, v, int(c)) for (u, v), c in zip(K7X2_EDGES, bits)])


def reference_objective(bits, cap=3):
    tab = _k7x2_tables()
    sums = bits[tab.tri_edges].sum(axis=1)
    monos = [tab.vmasks[i] for i in np.flatnonzero((sums == 0) | (sums == 3))]
    return reference_capped_count(monos, cap), len(monos)


def reference_sample_task(args):
    chunk_index, count, seed = args
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, chunk_index)))
    violations, fails = [], []
    done = 0
    while done < count:
        rows = rng.integers(0, 2, size=(min(10_000, count - done), len(K7X2_EDGES)),
                            dtype=np.uint8)
        for row in rows:
            if not _extracts(reference_extract_three_disjoint_k7x2,
                             reference_k7x2_graph(row)):
                fails.append(k7x2_code(row))
                if reference_objective(row)[0] < 3:
                    violations.append(k7x2_code(row))
        done += len(rows)
    return violations, fails


def reference_adversarial_task(args, cap=3):
    restart_index, seed, max_steps = args
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, restart_index)))
    tab = _k7x2_tables()
    m = len(K7X2_EDGES)
    bits = rng.integers(0, 2, size=m, dtype=np.uint8)
    current = reference_objective(bits, cap)
    evaluated, min_floor = 1, current[0]
    violations = [k7x2_code(bits)] if current[0] < cap else []
    for _ in range(max_steps):
        flips = np.tile(bits, (m, 1))
        flips[np.arange(m), np.arange(m)] ^= 1
        sums = flips[:, tab.tri_edges].sum(axis=2)
        mono = (sums == 0) | (sums == 3)
        best, best_flip = None, -1
        for f in range(m):
            cand = (reference_capped_count([tab.vmasks[i] for i in np.flatnonzero(mono[f])], cap),
                    int(mono[f].sum()))
            if best is None or cand < best:
                best, best_flip = cand, f
        if best >= current:
            break
        bits[best_flip] ^= 1
        current = best
        evaluated += 1
        min_floor = min(min_floor, current[0])
        if current[0] < cap:
            violations.append(k7x2_code(bits))
    return evaluated, min_floor, violations


def reference_descent_setup(bits):
    """A descent's first toggles, mono set and count changes, one triangle at a time."""
    tab = _k7x2_tables()
    bits = list(bits)
    toggles = [sum(bit for bit, a, b in row if bits[a] == bits[b]) for row in tab.through]
    mono = sum(1 << t for t, (x, y, z) in enumerate(tab.tri_edges.tolist())
               if bits[x] == bits[y] == bits[z])
    delta = [tog.bit_count() - 2 * (tog & mono).bit_count() for tog in toggles]
    return toggles, mono, delta


def corrupt(tris, rng):
    """Each triple with one slot replaced: by a random triangle, or by a copy of
    another slot or a random triangle through one of its vertices."""
    tab = _k7x2_tables()
    out = tris.copy()
    for row in out:
        slot, other = rng.choice(3, size=2, replace=False)
        kind = rng.integers(3)
        if kind == 0:
            row[slot] = rng.integers(len(tab.vmasks))
        elif kind == 1:
            row[slot] = row[other]
        else:
            v = rng.choice(tab.tri_verts[row[other]])
            row[slot] = rng.choice(np.flatnonzero((tab.tri_verts == v).any(axis=1)))
    return out


class TestDoubledK7BatchCheck:
    def test_check_agrees_with_tiling_verify_on_corrupted_triples(self):
        rng = np.random.default_rng(31)
        tab = _k7x2_tables()
        rows = rng.integers(0, 2, size=(3000, len(K7X2_EDGES)), dtype=np.uint8)
        tris = corrupt(_k7x2_extract(rows)[0], rng)
        packs = _k7x2_packs(_k7x2_colour_rows(rows), tris)
        for row, triple, ok in zip(rows, tris.tolist(), packs):
            g = k7x2_graph(row)
            tiling = Tiling(tuple(MonoClique(tuple(tab.tri_verts[t].tolist()),
                                             int(row[tab.tri_edges[t, 0]])) for t in triple))
            assert ok == tiling.verify(g)
        assert 0 < packs.sum() < len(rows) // 5

    def test_kernel_output_is_checked_on_every_sample(self, monkeypatch):
        # On chosen samples, overlap the kernel's triple with no failure code,
        # or report a failure code with the triple intact: exactly those
        # samples are extractor failures, and none is a violation.
        real, chosen, seen, codes = _k7x2_extract, {3, 255, 256, 599}, [0], []

        def corrupted(rows):
            tris, fails = real(rows)
            for i, row in enumerate(rows):
                if seen[0] + i in chosen:
                    if i % 2:
                        tris[i, 2] = tris[i, 0]
                    else:
                        fails[i] = 3
                    codes.append(k7x2_code(row))
            seen[0] += len(rows)
            return tris, fails

        monkeypatch.setattr(verifiers, "_k7x2_extract", corrupted)
        rep = verify_k7_blowup(samples=600, adversarial_restarts=0, seed=5, workers=1)
        assert seen[0] == 600 and len(codes) == len(chosen)
        assert rep.extra["extractor_failure_codes"] == codes
        assert rep.extra["extractor_failures"] == len(chosen)
        assert rep.violation_count == 0 and rep.violations == ()


class TestDoubledK7MatchesReference:
    def test_batched_hosts_match_the_per_edge_builder(self):
        rows = np.random.default_rng(21).integers(0, 2, size=(300, len(K7X2_EDGES)),
                                                  dtype=np.uint8)
        rows[0], rows[1] = 0, 1
        for row in rows:
            ref, h = reference_k7x2_graph(row), k7x2_graph(row)
            assert h == ref
            assert (h.adj, h.edge_count, hash(h)) == (ref.adj, ref.edge_count, hash(ref))

    @pytest.mark.parametrize("bits", [[0] * 83, [0] * 83 + [2], [1] * 85])
    def test_host_builder_rejects_malformed_bits(self, bits):
        with pytest.raises(ValueError, match="84 bits"):
            k7x2_graph(bits)

    @pytest.mark.parametrize("seed", [0, 1, 11])
    @pytest.mark.parametrize("plateau_steps", [0, 1, 10_000])
    def test_reports_match_the_reference_tasks(self, monkeypatch, seed, plateau_steps):
        monkeypatch.setattr(verifiers, "_K7X2_CHUNK", 120)
        kwargs = dict(samples=300, adversarial_restarts=3, plateau_steps=plateau_steps,
                      seed=seed, workers=1)
        report = verify_k7_blowup(**kwargs).comparable()
        monkeypatch.setattr(verifiers, "_k7x2_sample_task", reference_sample_task)
        monkeypatch.setattr(verifiers, "_k7x2_adversarial_task", reference_adversarial_task)
        assert report == verify_k7_blowup(**kwargs).comparable()

    def test_descents_at_other_caps_match_the_reference(self):
        # No packing reaches 5 on 14 vertices, so at cap 5 every flip is
        # searched and every state is a violation; at cap 4 the descents
        # stay at the cap and search only the packing's edges.
        low = _k7x2_adversarial_task((0, 0, 2), cap=5)
        assert low[0] == len(low[2]) == 3
        assert low == reference_adversarial_task((0, 0, 2), cap=5)
        for args in ((0, 1, 10_000), (1, 1, 10_000)):
            assert _k7x2_adversarial_task(args, cap=4) == reference_adversarial_task(args, cap=4)

    def test_a_descent_below_its_cap_matches_the_reference(self, monkeypatch):
        # Red inside the class groups {0, 1} and {2..6}, blue between them:
        # blue is bipartite and every red triangle lies in the K_{2,2,2,2,2}
        # of classes 2..6, so the largest packing is 3.  At cap 4 the descent
        # starts below its cap, where the third-triangle check must wait for
        # exactly cap - 1 kept triangles.
        start = np.array([int((u < 4) != (v < 4)) for u, v in K7X2_EDGES], dtype=np.uint8)

        class FromStart:
            def __init__(self, seed):
                pass

            def integers(self, low, high, size, dtype):
                return start.copy()

        monkeypatch.setattr(np.random, "default_rng", FromStart)
        args = (0, 0, 10_000)
        task = _k7x2_adversarial_task(args, cap=4)
        assert task == reference_adversarial_task(args, cap=4)
        assert task[:2] == (11, 3)

    @pytest.mark.parametrize("cap", [3, 4, 5])
    def test_descents_without_the_third_triangle_check_match(self, monkeypatch, cap):
        # With the one-mask check finding nothing, every searched flip runs the
        # full capped search.
        searches = []
        monkeypatch.setattr(verifiers, "_k7x2_third", lambda mono, kept: searches.append(1))
        steps = 2 if cap == 5 else 10_000
        for args in ((0, 2, steps), (1, 11, steps)):
            assert _k7x2_adversarial_task(args, cap) == reference_adversarial_task(args, cap)
        assert searches

    def test_an_overlapping_third_triangle_is_caught(self, monkeypatch):
        vmasks = _k7x2_tables().vmasks

        def overlapping(mono, kept):
            return next(t for t in iter_bits(mono)
                        if t not in kept and any(vmasks[t] & vmasks[k] for k in kept))

        args = (0, 0, 10_000)
        _k7x2_adversarial_task(args)
        monkeypatch.setattr(verifiers, "_k7x2_third", overlapping)
        with pytest.raises(AnomalyError, match="a descent's mono set and kept packing"):
            _k7x2_adversarial_task(args)

    def test_bitset_setup_matches_the_reference(self):
        rows = np.random.default_rng(27).integers(0, 2, size=(2000, len(K7X2_EDGES)),
                                                  dtype=np.uint8)
        alternating = np.arange(len(K7X2_EDGES), dtype=np.uint8) % 2
        for row in [*rows, 0 * alternating, 0 * alternating + 1, alternating]:
            assert _k7x2_setup(row) == reference_descent_setup(row)

    @staticmethod
    def caught_descent(monkeypatch, tables):
        monkeypatch.setattr(verifiers, "_k7x2_tables", lambda: tables)
        with pytest.raises(AnomalyError, match="a descent's mono set and kept packing") as info:
            _k7x2_adversarial_task((0, 0, 10_000))
        return info.value

    def test_a_mono_set_out_of_step_with_the_counts_is_caught(self, monkeypatch):
        # One triangle of edge 6's incidence list swapped for its neighbour.
        # Edge 6 is restart (0, 0)'s first flip: its update leaves two edges'
        # toggles wrong, and the toggled mono set drifts from the counts kept
        # in delta.  The dump names the state where that shows.
        tab = _k7x2_tables()
        bit, a, b = tab.through[6][0]
        bad = tab.through[:6] + (((bit << 1, a, b),) + tab.through[6][1:],) + tab.through[7:]
        exc = self.caught_descent(monkeypatch, tab._replace(through=bad))
        assert exc.detail == {"restart": 0, "seed": 0, "state": 7,
                              "code": exc.detail["code"]}
        assert exc.graph == k7x2_graph(k7x2_bits(exc.detail["code"]))

    def test_a_first_mono_set_off_the_edge_sums_is_caught(self, monkeypatch):
        def dropped(row):
            toggles, mono, delta = real(row)
            return toggles, mono & (mono - 1), delta

        real = _k7x2_setup
        monkeypatch.setattr(verifiers, "_k7x2_setup", dropped)
        with pytest.raises(AnomalyError, match="a descent's first mono set") as info:
            _k7x2_adversarial_task((2, 1, 10_000))
        assert info.value.detail["state"] == 0

    def test_a_corrupted_slot_mask_is_caught(self, monkeypatch):
        # Edge 5's slot-1 mask with its lowest triangle swapped for the next
        # one: the first toggles of edge 5 are wrong, and its flip, the
        # restart's third, sets the mono set apart from the counts.
        tab = _k7x2_tables()
        mask = tab.slots[1][5]
        low = mask & -mask
        assert not low << 1 & mask
        bad = tab.slots[1][:5] + (mask ^ low ^ low << 1,) + tab.slots[1][6:]
        exc = self.caught_descent(monkeypatch,
                                  tab._replace(slots=(tab.slots[0], bad, tab.slots[2])))
        assert exc.detail == {"restart": 0, "seed": 0, "state": 3,
                              "code": exc.detail["code"]}
        assert exc.graph == k7x2_graph(k7x2_bits(exc.detail["code"]))


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=10), st.integers(min_value=0, max_value=4))
def test_capped_search_returns_a_largest_disjoint_family(g, cap):
    tris = g.mono_triangles()
    masks = [(1 << u) | (1 << v) | (1 << w) for u, v, w, _ in tris]
    search = _PackingSearch(tris, DEFAULT_NODE_BUDGET, cap=cap)
    res = search.run()
    best = oracle_max_packing(tris)
    assert res.proved_optimal
    assert (res.optimum == len(search.best_sel) == min(cap, best)
            == reference_capped_count(masks, cap))
    assert res.tiling == Tiling(tuple(MonoClique.of(tris[i]) for i in search.best_sel))
    used = 0
    for i in search.best_sel:
        assert not masks[i] & used
        used |= masks[i]
    if cap > best:
        # A cap the packing never reaches leaves the search as it is uncapped.
        assert res == _PackingSearch(tris, DEFAULT_NODE_BUDGET).run()


def reference_has_mono_clique(g, ell):
    """The flat check: some ell-set whose edges all carry one colour."""
    for verts in combinations(range(g.n), ell):
        colours = {g.edge_colour(u, v) for u, v in combinations(verts, 2)}
        if len(colours) == 1:
            return True
    return False


def plant_mono_clique(code, n, r, ell, rng):
    """``code`` with the edges of a random ell-set of K_n recoloured to one random colour."""
    index = {e: i for i, e in enumerate(lex_edges(n))}
    colour = int(rng.integers(r))
    for e in combinations(sorted(rng.choice(n, ell, replace=False).tolist()), 2):
        place = r ** index[e]
        code += (colour - code // place % r) * place
    return code


class TestRamsey:
    def test_triangle_two_colours(self):
        res = compute_ramsey(3, 2, 8)
        assert res.value == 6
        assert (res.witness_n, res.witness_code) == (5, 220)
        assert res.checked == {3: 8, 4: 64, 5: 1024, 6: 32768}
        w = res.witness()
        assert mono_triangle_count(w) == 0
        for c in range(2):
            assert all(w.colour_adj[c][v].bit_count() == 2 for v in range(5))

    def test_edge_case_ell_two(self):
        assert compute_ramsey(2, 2, 4).value == 2

    def test_unresolved_returns_witness(self):
        res = compute_ramsey(3, 3, n_max=4)
        assert res.value is None
        assert not res.resolved
        assert res.witness_n == 4
        w = res.witness()
        assert w.r == 3 and mono_triangle_count(w) == 0

    def test_special_two_colours(self):
        res = compute_special_ramsey(3, 2, 6)
        assert res.value == 4
        assert (res.witness_n, res.witness_code) == (3, 3)
        assert res.witness().edges() == [(0, 1, 1), (0, 2, 1), (1, 2, 0)]

    def test_special_generic_colour_path(self):
        res = compute_special_ramsey(3, 3, n_max=4, budget=1 << 22)
        assert res.value is None
        assert res.witness_n == 4
        w = res.witness()
        assert all(w.edge_colour(0, v) != 0 for v in range(1, 4))
        assert mono_triangle_count(w) == 0

    def test_special_codes_are_sorted_and_special(self):
        codes = walked_codes(4, 3, 3, 0, 2 ** 3 * 3 ** 3, 3, (1, 2))
        assert len(codes) == 2 ** 3 * 3 ** 3
        assert codes == sorted(set(codes))
        for code in codes:
            g = complete_colouring(4, 3, code)
            assert all(g.edge_colour(0, v) != 0 for v in range(1, 4))

    def test_three_colour_special_stream_over_many_chunks(self):
        count = 2 ** 5 * 3 ** 10
        blocks = list(verifiers._colour_chunks(6, 3, 3, 0, count, 5, (1, 2)))
        codes = np.concatenate([low + np.uint64(code) for code, low, _ in blocks])
        assert len(blocks) > 100 and all(low.dtype == np.uint64 for _, low, _ in blocks)
        assert len(codes) == count == 1_889_568
        assert (codes[1:] > codes[:-1]).all()
        for code in codes[::9973]:
            g = complete_colouring(6, 3, int(code))
            assert all(g.edge_colour(0, v) != 0 for v in range(1, 6))
        # The bitmaps of a few entries per block against the plain list.
        for code, low, bits in blocks[::17]:
            for k in (0, len(low) // 2, len(low) - 1):
                assert entry_bits(bits, k) == reference_clique_bits(6, 3, 3, code + int(low[k]))

    def test_classic_codes_are_the_whole_universe(self):
        assert walked_codes(4, 3, 3, 0, 3 ** 6) == list(range(3 ** 6))

    def test_two_colour_special_codes_force_the_apex_bits(self):
        assert walked_codes(4, 2, 3, 0, 8, 3, (1,)) == [(i << 3) | 0b111 for i in range(8)]

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("ell", [3, 4])
    def test_mono_clique_check_matches_reference(self, n, ell):
        # Five colours cut no digit range at a power of two; eight fill
        # three bits per digit.
        for r in (2, 3, 4, 5, 8):
            rng = np.random.default_rng(1000 * r + 100 * n + ell)
            codes = rng.integers(0, r ** (n * (n - 1) // 2), size=2000, dtype=np.uint64)
            # With many colours a random code rarely holds a mono clique, so
            # 200 more codes each get one planted on a random vertex set.
            codes = np.concatenate([codes, [plant_mono_clique(int(c), n, r, ell, rng)
                                            for c in codes[:200]]]).astype(np.uint64)
            free = _clique_free(verifiers._factor(codes, n, r, ell, 0, n * (n - 1) // 2), n)
            want = [not reference_has_mono_clique(complete_colouring(n, r, int(c)), ell)
                    for c in codes]
            assert free.tolist() == want
            # Both outcomes occur, except that R(3,3) = 6 leaves none clique-free.
            assert 0 < sum(want) < len(codes) or (r, n, ell) == (2, 6, 3)

    @pytest.mark.parametrize("special, ell, r, n_max, checked, witness", [
        (False, 3, 3, 5, {3: 27, 4: 729, 5: 59049}, (5, 2614)),
        (True, 3, 3, 6, {1: 1, 2: 2, 3: 12, 4: 216, 5: 11664, 6: 1889568}, (6, 635602)),
        (False, 3, 4, 5, {3: 64, 4: 4096, 5: 1048576}, (5, 17947)),
        (True, 3, 4, 5, {1: 1, 2: 3, 3: 36, 4: 1728, 5: 331776}, (5, 18011)),
        (False, 4, 3, 5, {4: 729, 5: 59049}, (5, 85)),
        (False, 3, 3, 8, {3: 27, 4: 729, 5: 59049, 6: 14348907}, (6, 635283)),
    ])
    def test_many_colour_searches_are_pinned(self, special, ell, r, n_max, checked, witness):
        search = compute_special_ramsey if special else compute_ramsey
        res = search(ell, r, n_max)
        assert res.value is None
        assert res.checked == checked
        assert (res.witness_n, res.witness_code) == witness
        w = res.witness()
        assert reference_has_mono_clique(w, ell) is False
        if special:
            assert all(w.edge_colour(0, v) != 0 for v in range(1, w.n))

    def test_search_stops_where_codes_outgrow_64_bits(self, monkeypatch):
        # Every code flagged: each order takes its first code as the witness
        # until K_12, whose 2^66 codes do not fit in a uint64.
        monkeypatch.setattr(verifiers, "_clique_free",
                            lambda bits, n: np.ones(bits.shape[-1], dtype=bool))
        res = compute_ramsey(3, 2, n_max=20, budget=1 << 70)
        assert res.value is None
        assert sorted(res.checked) == list(range(3, 12))
        assert res.checked[11] == 1 << 55
        assert (res.witness_n, res.witness_code) == (11, 0)
        res = compute_special_ramsey(3, 3, n_max=20, budget=1 << 70)
        assert max(res.checked) == 9  # 3^36 < 2^64 < 3^45
        assert res.witness_code == (3 ** 8 - 1) // 2  # every apex digit 1

    def test_high_factors_are_built_a_batch_at_a_time(self, monkeypatch):
        # Three colours on K6 walk 3^7 blocks of 3^8 codes, and block 96
        # holds the first clique-free colouring: the search builds the high
        # factors of the first batch of blocks only, not one per block.
        built = {}
        factor = verifiers._factor

        def counting(codes, n, r, ell, lo, hi):
            if lo:
                built[n] = built.get(n, 0) + len(codes)
            return factor(codes, n, r, ell, lo, hi)

        monkeypatch.setattr(verifiers, "_factor", counting)
        res = compute_ramsey(3, 3, 6)
        assert (res.witness_n, res.witness_code // 3 ** 8) == (6, 96)
        assert built[6] == verifiers._HIGH_BATCH < 3 ** 7
        assert all(count <= verifiers._HIGH_BATCH for count in built.values())

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
            compute_ramsey(3, budget=-1)
        with pytest.raises(ValueError, match="ell"):
            compute_ramsey(1, 2)
        with pytest.raises(ValueError, match="ell"):
            compute_special_ramsey(3, 1)
        with pytest.raises(ValueError, match="r <= 8"):
            compute_ramsey(3, 9)


class TestAudit:
    def test_all_pinned_instances_are_tight(self):
        rows = audit_tightness()
        assert [(r.construction, r.n, r.delta, r.optimum) for r in rows] == [
            ("ex-triangle", 12, 10, 2),
            ("ex-triangle", 30, 25, 5),
            ("ex-triangle-alt", 24, 21, 6),
            ("ex-bes-1", 9, 8, 1),
            ("ex-bes-1", 22, 16, 3),
            ("ex-bes-2", 25, 22, 4),
            ("ex-bes-3", 24, 20, 2),
        ]
        assert all(r.matches and r.proved_optimal for r in rows)

    def test_band_flags_follow_table(self):
        rows = audit_tightness()
        assert [r.theorem_equality for r in rows] == [True, True, True, False, False, False, True]


class TestProbe:
    def test_small_grid_shapes(self):
        recs = probe_question(n_values=(25,), delta_values=(21,),
                              samples_per_cell=1, perturbed_per_cell=1, seed=5)
        sources = [r.source for r in recs]
        assert "ex-bes-1" in sources
        assert any(s.startswith("random-") for s in sources)
        assert any(s.startswith("perturbed-") for s in sources)
        for r in recs:
            assert r.applicable_piece in ("low", "mid", "high")
            assert not r.below_formula
            assert r.formula_low == (5 * 21 - 4 * 25 + 1) // 2

    # Each record of the probe below, in probe order, with the edge digest of
    # its host; recorded before the cell hosts had one builder, so that the
    # spawn keys (n, delta, 0, k) and (n, delta, 1, k) and the host order stay fixed.
    PINNED = [
        ('ex-bes-1', 25, 20, 4, True, 4, 2, 0, 'low', 0, False, '620768c3cac80db6'),
        ('ex-bes-2', 25, 20, 2, True, 4, 2, 0, 'low', 0, False, '978c0c80da4cbf1a'),
        ('ex-bes-3', 25, 20, 0, True, 4, 2, 0, 'low', 0, False, '49bde500d81dbdb7'),
        ('random-0', 25, 20, 8, True, 4, 2, 0, 'low', 0, False, '51be4450b616bcab'),
        ('random-1', 25, 20, 8, True, 4, 2, 0, 'low', 0, False, 'e19239d8ba408675'),
        ('perturbed-ex-bes-1-0', 25, 20, 8, True, 4, 2, 0, 'low', 0, False, 'a4094cbee0fba102'),
        ('ex-bes-1', 25, 23, 4, True, 4, 6, 8, 'high', 4, False, '0827ec465a4302bc'),
        ('ex-bes-2', 25, 23, 5, True, 4, 6, 8, 'high', 4, False, '8c6fb5a61235f4b3'),
        ('ex-bes-3', 25, 23, 5, True, 4, 6, 8, 'high', 4, False, '46a87af7fe0661dd'),
        ('random-0', 25, 23, 8, True, 4, 6, 8, 'high', 4, False, '07a75eb77ca02efc'),
        ('random-1', 25, 23, 8, True, 4, 6, 8, 'high', 4, False, '059b09f080e75865'),
        ('perturbed-ex-bes-1-0', 25, 23, 7, True, 4, 6, 8, 'high', 4, False, '22bebdbe68ecc829'),
    ]
    KEYS = ("source", "n", "delta", "optimum", "proved_optimal", "formula_high",
            "formula_mid", "formula_low", "applicable_piece", "applicable_value",
            "below_formula")

    def test_records_and_hosts_are_pinned(self, monkeypatch):
        solved = []
        table = verifiers._triangle_table

        def recording(g):
            solved.append(edge_digest(g))
            return table(g)

        monkeypatch.setattr(verifiers, "_triangle_table", recording)
        recs = probe_question(n_values=(25,), delta_values=(20, 23), samples_per_cell=2,
                             perturbed_per_cell=1, seed=11)
        assert all(set(r.as_dict()) == set(self.KEYS) for r in recs)
        assert [(*(r.as_dict()[k] for k in self.KEYS), digest)
                for r, digest in zip(recs, solved, strict=True)] == self.PINNED

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="n=25"):
            probe_question(n_values=(24,))
        with pytest.raises(ValueError, match="outside"):
            probe_question(n_values=(25,), delta_values=(19,))
