"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single ``criterion NN PASS`` line on success (visible
under ``pytest -rA`` or ``-s``) and pins the exact counts, optima, and time
limits the release is held to.  Nothing here is approximate: violation
counts must be zero where a theorem says zero and equal to the frozen value
where sharpness says nonzero.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from tritile.constructions import (
    ex_triangle,
    extremal_min_formula,
    random_min_degree_colouring,
)
from tritile.graphs import AnomalyError, complete_colouring
from tritile.proofs import bes_large, bes_small, moon_large, moon_small
from tritile.solvers import max_mixed_tiling
from tritile.verifiers import (
    AUDIT_INSTANCES,
    audit_tightness,
    compute_ramsey,
    compute_special_ramsey,
    has_mono_pair_sharing_at_most,
    max_disjoint_mono_capped,
    mono_triangle_count,
    verify_bowtie_lemmas,
    verify_claim_k7,
    verify_fact_k6,
    verify_k7_blowup,
    verify_lemma_k8,
)


def test_criterion_01_every_k6_colouring_has_two_mono_triangles():
    rep = verify_fact_k6(workers=1)
    assert rep.universe_size == 32768
    assert rep.checked == 32768
    assert rep.violation_count == 0
    assert rep.elapsed < 1.0
    print(f"criterion 01 PASS: 32768 K6 colourings, 0 violations, "
          f"{rep.elapsed:.3f}s")


def test_criterion_02_every_k7_colouring_has_a_pair_sharing_at_most_one():
    rep = verify_claim_k7(workers=1)
    assert rep.universe_size == 1 << 21
    assert rep.checked == 1 << 21
    assert rep.violation_count == 0
    assert rep.elapsed < 60.0
    print(f"criterion 02 PASS: 2^21 K7 colourings, 0 violations, "
          f"{rep.elapsed:.1f}s single-threaded")


@pytest.mark.slow
def test_criterion_03_every_k8_colouring_has_two_disjoint_mono_triangles():
    rep = verify_lemma_k8(workers=4, extractor_samples=100_000, seed=0)
    assert rep.universe_size == 1 << 28
    assert rep.checked == 1 << 27
    assert rep.reduction_factor == 2
    assert rep.violation_count == 0
    assert rep.elapsed < 3600.0
    assert rep.extra["extractor_samples"] == 100_000
    assert rep.extra["extractor_failures"] == 0
    print(f"criterion 03 PASS: 2^27 swap-reduced K8 colourings, 0 violations, "
          f"extractor clean on 10^5 samples, {rep.elapsed:.0f}s at 4 workers")


def test_criterion_04_k7_shows_the_two_triangle_threshold_is_sharp(tmp_path):
    rep = verify_lemma_k8(n=7, workers=1)
    assert rep.violation_count == 4662
    assert rep.violations[0] == 1006
    path = tmp_path / "sharpness-witnesses.json"
    path.write_text(json.dumps(
        {"n": 7, "codes": list(rep.violations)}, indent=2))
    reloaded = json.loads(path.read_text())
    assert reloaded["codes"]
    for code in reloaded["codes"]:
        g = complete_colouring(reloaded["n"], 2, code)
        assert max_disjoint_mono_capped(g, cap=2) == 1
        assert not has_mono_pair_sharing_at_most(g, 0)
    print(f"criterion 04 PASS: {rep.violation_count} K7 colourings without "
          f"two disjoint mono triangles; {len(reloaded['codes'])} witnesses "
          f"stored and re-verified")


@pytest.mark.slow
def test_criterion_05_bowtie_extraction_succeeds_on_every_qualifying_colouring():
    k6, k7 = verify_bowtie_lemmas(workers=1)
    assert k6.universe_size == 32768
    assert k6.extra["qualifying"] == 7810
    assert k6.violation_count == 0
    assert k7.universe_size == 1 << 21
    assert k7.extra["qualifying"] == 1_830_150
    assert k7.violation_count == 0
    print(f"criterion 05 PASS: verified bowties through all 6 vertices on "
          f"{k6.extra['qualifying']} K6 colourings and second bowties on "
          f"{k7.extra['qualifying']} K7 colourings, 0 failures")


def test_criterion_06_triangle_ramsey_numbers_with_witnesses():
    r = compute_ramsey(3, 2, n_max=8)
    assert r.value == 6
    assert (r.witness_n, r.witness_code) == (5, 220)
    assert r.checked == {3: 8, 4: 64, 5: 1024, 6: 32768}
    w = r.witness()
    assert mono_triangle_count(w) == 0
    assert all(w.colour_adj[c][v].bit_count() == 2
               for c in range(2) for v in range(5))
    s = compute_special_ramsey(3, 2, n_max=6)
    assert s.value == 4
    assert (s.witness_n, s.witness_code) == (3, 3)
    sw = s.witness()
    assert sw.edges() == [(0, 1, 1), (0, 2, 1), (1, 2, 0)]
    print("criterion 06 PASS: ramsey(K3)=6 with the 5-cycle witness, "
          "special ramsey(K3)=4 with the one-apex witness, both exhaustive")


def test_criterion_07_extremal_constructions_are_exactly_tight():
    start = time.perf_counter()
    rows = audit_tightness()
    elapsed = time.perf_counter() - start
    expected = {
        ("ex-triangle", 12, 10): 2,
        ("ex-triangle", 30, 25): 5,
        ("ex-triangle-alt", 24, 21): 6,
        ("ex-bes-1", 9, 8): 1,
        ("ex-bes-1", 22, 16): 3,
        ("ex-bes-2", 25, 22): 4,
        ("ex-bes-3", 24, 20): 2,
    }
    assert len(rows) == len(AUDIT_INSTANCES) == len(expected)
    for row in rows:
        assert row.optimum == expected[(row.construction, row.n, row.delta)]
        assert row.matches
        assert row.proved_optimal
    assert elapsed < 600.0
    print(f"criterion 07 PASS: all {len(rows)} extremal instances solved to "
          f"proven optimality at their closed-form value, {elapsed:.2f}s")


def _band_pairs(lo_num, lo_den, hi_num, hi_den, n_range):
    pairs = []
    for n in n_range:
        lo = -(-lo_num * n // lo_den)
        hi = min(hi_num * n // hi_den, n - 1)
        pairs.extend((n, d) for d in range(lo, hi + 1))
    return pairs


def test_criterion_08_randomized_regime_sweeps_meet_the_closed_forms():
    regimes = [
        ("moon-small", moon_small,
         _band_pairs(4, 5, 5, 6, range(12, 43)),
         lambda n, d: 5 * d - 4 * n, False),
        ("bes-small", bes_small,
         _band_pairs(4, 5, 5, 6, range(12, 43)),
         lambda n, d: (5 * d - 4 * n + 1) // 2, True),
        ("moon-large", moon_large,
         _band_pairs(7, 8, 1, 1, range(16, 61)),
         lambda n, d: (2 * d - n) // 3, False),
        ("bes-large", bes_large,
         _band_pairs(65, 66, 1, 1, range(66, 133)),
         lambda n, d: (d + 1) // 5, True),
    ]
    anomalies = 0
    for idx, (name, algorithm, pairs, bound, one_colour) in enumerate(regimes):
        assert pairs
        for k in range(100):
            n, d = pairs[k % len(pairs)]
            rng = np.random.default_rng([8, idx, k])
            g = random_min_degree_colouring(n, d, rng)
            try:
                tiling = algorithm(g)
            except AnomalyError:
                anomalies += 1
                continue
            assert tiling.verify(g), f"{name} n={n} d={d} k={k}"
            assert len(tiling) >= bound(n, d), f"{name} n={n} d={d} k={k}"
            if one_colour:
                assert len({t.colour for t in tiling}) <= 1
    assert anomalies == 0
    print("criterion 08 PASS: 4 regimes x 100 seeded hosts, every tiling "
          "re-verified and at or above its closed-form guarantee, 0 anomalies")


def test_criterion_09_fifty_k66_colourings_yield_thirteen_one_colour_triangles():
    for seed in range(50):
        g = random_min_degree_colouring(66, 65, np.random.default_rng([9, seed]))
        tiling = bes_large(g)
        assert tiling.verify(g)
        assert len(tiling) >= 13
        assert len({t.colour for t in tiling}) == 1
    print("criterion 09 PASS: 50 seeded K66 colourings each gave >= 13 "
          "disjoint same-colour triangles")


@pytest.mark.slow
def test_criterion_10_doubled_k7_campaign_finds_no_packing_below_three():
    rep = verify_k7_blowup(samples=1_000_000, adversarial_restarts=1_000,
                           seed=0, workers=1)
    assert rep.violation_count == 0
    assert rep.checked >= 1_000_000
    assert rep.extra["extractor_failures"] == 0
    assert rep.extra["adversarial_min_packing"] >= 3
    print(f"criterion 10 PASS: 10^6 uniform samples + 10^3 adversarial "
          f"descents on the doubled K7, extractor clean, minimum packing "
          f"{rep.extra['adversarial_min_packing']}, {rep.elapsed:.0f}s")


def test_criterion_11_mixed_optima_in_the_middle_band_match_the_formula():
    expected = {(24, 20): 4, (24, 21): 6, (36, 30): 6, (36, 31): 8,
                (48, 40): 8, (48, 41): 10, (48, 42): 12}
    for (n, d), value in expected.items():
        result = max_mixed_tiling(ex_triangle(n, d))
        assert result.proved_optimal
        assert result.optimum == value == extremal_min_formula(n, d)
    print(f"criterion 11 PASS: {len(expected)} middle-band instances solved "
          f"exactly at the three-way formula minimum")


def test_criterion_12_results_are_independent_of_seed_reuse_and_worker_count():
    assert (verify_fact_k6(workers=1).comparable()
            == verify_fact_k6(workers=2).comparable())
    assert (verify_lemma_k8(n=7, workers=1).comparable()
            == verify_lemma_k8(n=7, workers=3).comparable())
    one = verify_k7_blowup(samples=10_000, adversarial_restarts=5, seed=11,
                           workers=1)
    two = verify_k7_blowup(samples=10_000, adversarial_restarts=5, seed=11,
                           workers=2)
    again = verify_k7_blowup(samples=10_000, adversarial_restarts=5, seed=11,
                             workers=2)
    assert one.comparable() == two.comparable() == again.comparable()
    first = [row.comparable() for row in audit_tightness()]
    second = [row.comparable() for row in audit_tightness()]
    assert first == second
    g = ex_triangle(24, 21)
    a = max_mixed_tiling(g)
    b = max_mixed_tiling(g)
    assert (a.optimum, a.nodes_explored, a.proved_optimal) \
        == (b.optimum, b.nodes_explored, b.proved_optimal)
    print("criterion 12 PASS: scans, campaigns, audits, and solvers agree "
          "across worker counts and repeat runs")
