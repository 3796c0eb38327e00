"""Verification-engine tests: frozen scan counts and dual-route cross-checks.

The exhaustive counts asserted here (12 bad K5 colourings, 4662 K7 codes
without a disjoint mono pair, 7810 qualifying K6 codes, ...) were computed
once with the slow python predicates and frozen; the vector kernels must
keep reproducing them exactly.
"""

from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritile.graphs import AnomalyError, colouring_code, complete_colouring
from tritile.verifiers import (
    AUDIT_INSTANCES,
    K7X2_EDGES,
    LemmaReport,
    audit_tightness,
    compute_ramsey,
    compute_special_ramsey,
    enumerate_colourings,
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
    _confirm_witnesses,
    _fewer_mono,
    _has_mono_clique,
    _k7x2_objective,
    _no_mono_pair,
    _ramsey_codes,
    _run_scan,
    _split_pair,
)
from tritile.solvers import find_bowtie


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

    @pytest.mark.slow
    def test_extractor_subset_runs_clean(self):
        rep = verify_lemma_k8(workers=1, extractor_samples=300, seed=7)
        assert rep.extra["extractor_failures"] == 0
        assert rep.universe_size == 1 << 28
        assert rep.checked == 1 << 27
        assert rep.reduction_factor == 2
        assert rep.violation_count == 0

    def test_extractor_subset_rejects_other_orders(self):
        with pytest.raises(ValueError, match="K8"):
            verify_lemma_k8(n=7, extractor_samples=10)

    def test_scan_size_guard(self):
        with pytest.raises(ValueError, match="exhaustive"):
            verify_fact_k6(n=9)

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
        qualifying = np.flatnonzero(_split_pair(np.arange(1 << 15, dtype=np.uint64), 6, 0))
        good = int(qualifying[0])
        assert bowtie_extraction_holds(complete_colouring(6, 2, good))
        with pytest.raises(AnomalyError, match="bowtie-k6 witness"):
            _confirm_witnesses(self.report("bowtie-k6", 6, (good,)), "bowtie")

    def test_report_comparable_drops_wall_clock(self):
        rep = verify_fact_k6(n=4)
        d = rep.as_dict()
        assert d["holds"] is (rep.violation_count == 0)
        assert "elapsed" in d and "elapsed" not in rep.comparable()


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
        rng = np.random.default_rng(9)
        for _ in range(60):
            bits = rng.integers(0, 2, size=len(K7X2_EDGES), dtype=np.uint8)
            g = k7x2_graph(bits)
            assert _k7x2_objective(bits) == (max_disjoint_mono_capped(g, 3),
                                             len(g.mono_triangles()))

    def test_all_red_host_floor(self):
        bits = np.zeros(len(K7X2_EDGES), dtype=np.uint8)
        assert _k7x2_objective(bits)[0] == 3

    def test_small_campaign_is_clean_and_reproducible(self):
        kwargs = dict(samples=1200, adversarial_restarts=3, plateau_steps=100,
                      seed=3, chunk_size=500)
        a = verify_k7_blowup(workers=1, **kwargs)
        b = verify_k7_blowup(workers=2, **kwargs)
        assert a.violation_count == 0
        assert a.extra["extractor_failures"] == 0
        assert a.extra["adversarial_min_packing"] == 3
        assert a.mode == "adversarial"
        assert a.comparable() == b.comparable()

    def test_rejects_a_nonpositive_chunk_size(self):
        with pytest.raises(ValueError, match="chunk size"):
            verify_k7_blowup(samples=1, chunk_size=0)

    def test_pure_sampling_mode_label(self):
        rep = verify_k7_blowup(samples=50, adversarial_restarts=0, workers=1)
        assert rep.mode == "randomized"
        assert rep.checked == 50


def reference_has_mono_clique(g, ell):
    """The flat check: some ell-set whose edges all carry one colour."""
    for verts in combinations(range(g.n), ell):
        colours = {g.edge_colour(u, v) for u, v in combinations(verts, 2)}
        if len(colours) == 1:
            return True
    return False


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
        stream, count = _ramsey_codes(4, 3, True)
        codes = list(stream)
        assert len(codes) == count == 2 ** 3 * 3 ** 3
        assert codes == sorted(codes)
        g = complete_colouring(4, 3, codes[0])
        assert all(g.edge_colour(0, v) != 0 for v in range(1, 4))

    def test_classic_codes_are_the_whole_universe(self):
        stream, count = _ramsey_codes(4, 3, False)
        assert list(stream) == list(range(3 ** 6)) and count == 3 ** 6

    def test_two_colour_special_codes_force_the_apex_bits(self):
        stream, count = _ramsey_codes(4, 2, True)
        codes = [int(c) for chunk in stream for c in chunk]
        assert codes == [(i << 3) | 0b111 for i in range(8)] and count == 8

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("ell", [3, 4])
    def test_mono_clique_check_matches_reference(self, n, ell):
        rng = np.random.default_rng(100 * n + ell)
        hits = 0
        for code in rng.integers(0, 3 ** (n * (n - 1) // 2), size=2000):
            g = complete_colouring(n, 3, int(code))
            want = reference_has_mono_clique(g, ell)
            assert _has_mono_clique(g, ell) == want
            hits += want
        assert 0 < hits < 2000

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="ell"):
            compute_ramsey(1, 2)
        with pytest.raises(ValueError, match="ell"):
            compute_special_ramsey(3, 1)


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
        assert [r.theorem_equality for r in rows] == \
            [inst[4] for inst in AUDIT_INSTANCES]


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

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="n=25"):
            probe_question(n_values=(24,))
        with pytest.raises(ValueError, match="outside"):
            probe_question(n_values=(25,), delta_values=(19,))
