"""Tests of the benchmark itself: checkers, small workloads and the output contract.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def one_pass(name, tmp_path=None, small=True):
    if name == "sweep":
        w = workloads.Sweep(3, str(tmp_path), small=small)
    else:
        w = workloads.WORKLOADS[name](3, small=small)
    return w, w.run(lambda name: contextlib.nullcontext())


# -- checkers reject corrupted outputs -----------------------------------------

def test_tiling_checker_accepts_a_valid_tiling_and_rejects_corruptions():
    colour = checks.colour_map(
        [(u, v, 0) for u in range(3) for v in range(u + 1, 3)]
        + [(u, v, 1) for u in range(3, 6) for v in range(u + 1, 6)]
        + [(0, 3, 1)])
    good = [((0, 1, 2), 0), ((3, 4, 5), 1)]
    assert checks.check_tiling(colour, good, 2, single=False) == []
    assert checks.check_tiling(colour, good, 2, single=True)          # two colours
    assert checks.check_tiling(colour, good, 3, single=False)         # wrong size
    overlap = [((0, 1, 2), 0), ((0, 1, 2), 0)]
    assert any("overlaps" in p for p in checks.check_tiling(colour, overlap, 2, False))
    mixed = [((0, 1, 3), 0)]
    assert any("monochromatic" in p for p in checks.check_tiling(colour, mixed, 1, False))


def test_scan_checker_rejects_a_wrong_violation_count_and_a_bad_witness():
    scan, result = one_pass("scan")
    assert scan.check(result) == 0
    reports = result.outputs
    wrong = copy.deepcopy(reports)
    wrong["claim_k7"]["violation_count"] = 1
    assert checks.check_scan(wrong, scan.samples)["claim_k7"]
    bad_witness = copy.deepcopy(reports)
    bad_witness["disjoint_pair_k7"]["violations"][0] = 0   # all-red K7
    assert checks.check_scan(bad_witness, scan.samples)["disjoint_pair_k7"]
    wrong_ramsey = copy.deepcopy(reports)
    wrong_ramsey["ramsey"]["value"] = 7
    assert checks.check_scan(wrong_ramsey, scan.samples)["ramsey"]
    # a later pass that disagrees with the first counts as failed
    drift = workloads.Pass(result.items, wrong)
    assert scan.check(drift) >= 1


def test_campaign_checker_rejects_violations_and_wrong_counts():
    campaign, result = one_pass("campaign")
    assert campaign.check(result) == 0
    sampling, descent = result.outputs
    assert checks.check_campaign(sampling, descent, campaign.samples, campaign.restarts) == []
    for corrupt in ({"violation_count": 1}, {"checked": campaign.samples + 1}):
        bad = dict(sampling, **corrupt)
        assert checks.check_campaign(bad, descent, campaign.samples, campaign.restarts)
    floor = copy.deepcopy(descent)
    floor["extra"]["adversarial_min_packing"] = 2
    assert checks.check_campaign(sampling, floor, campaign.samples, campaign.restarts)


def test_solve_checker_rejects_a_corrupted_tiling():
    solve, result = one_pass("solve")
    assert solve.check(result) == 0
    index = next(i for i, r in enumerate(result.outputs) if len(r.tiling) >= 2)
    res = result.outputs[index]
    first = res.tiling.cliques[0]
    broken = type(res)(optimum=res.optimum, nodes_explored=res.nodes_explored,
                       proved_optimal=True,
                       tiling=type(res.tiling)((first, first) + res.tiling.cliques[2:]))
    outputs = list(result.outputs)
    outputs[index] = broken
    assert solve.check(workloads.Pass(result.items, outputs)) == 1


def test_sweep_checker_rejects_corrupted_rows(tmp_path):
    sweep, result = one_pass("sweep", tmp_path)
    assert sweep.check(result) == 0
    rows = [row for _, rs in result.outputs for row in rs]
    assert rows and all(checks.check_sweep_row(r) == [] for r in rows)
    row = next(r for r in rows if r["moon_large"])
    assert checks.check_sweep_row(dict(row, moon_large="0"))
    assert checks.check_sweep_row(dict(row, moon_bound=str(int(row["moon_bound"]) + 1)))
    assert checks.check_sweep_row(dict(row, status="budget"))
    assert checks.check_sweep_row(dict(row, mixed_optimum=str(int(row["single_optimum"]) - 1)))
    ex = next(r for r in rows if r["source"] == "ex-triangle")
    assert checks.check_sweep_row(dict(ex, mixed_optimum=str(int(ex["mixed_optimum"]) + 1)))


def test_independent_decoder_matches_the_paper_facts():
    # the badly coloured K5: both colour classes are 5-cycles
    code = sum(1 << i for i, (u, v) in enumerate(checks.complete_edges(5))
               if (v - u) % 5 in (1, 4))
    assert checks.mono_triangles(checks.decode(5, code), 5) == []
    assert len(checks.mono_triangles(checks.decode(6, 0), 6)) == 20


# -- smoke runs and the output contract ----------------------------------------

@pytest.mark.parametrize("name", ["campaign", "solve", "sweep"])
def test_small_workloads_pass_their_checks(name, tmp_path):
    w, result = one_pass(name, tmp_path)
    assert result.items > 0
    assert w.check(result) == 0


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_benchmark_contract(trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "campaign", "--seed", "2", "--seconds", "1", "--trace", trace],
                          capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layers.PER_LAYER.items()]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
