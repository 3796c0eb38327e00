"""The four benchmark workloads.

Each workload builds its inputs from the seed and warms the program's lazy
tables in ``__init__`` (that is the set-up the benchmark times), then
``run`` makes one pass: a fixed batch of calls into public ``tritile``
entry points, each wrapped in a phase that only the traced run records.
``check`` tests one pass's outputs with :mod:`checks` and returns the
number of failed operations.  Every pass attempts the same operations, so
the failed share of a run does not depend on its length.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

# Entry points are looked up on the package at call time, so that the
# traced run sees the wrapped functions.
import tritile as tt
from tritile import cli

import checks


@dataclass
class Pass:
    items: int
    outputs: object
    phase_items: dict = field(default_factory=dict)


class Scan:
    """Exhaustive numpy kernels over the K6 and K7 code universes.

    The scans have fixed sizes, so ``small`` changes nothing here; the seed
    picks the codes the independent checker decodes.
    """

    name = "scan"
    reference = "numpy"
    ops = 5
    spot_checks = 64

    def __init__(self, seed: int, small: bool = False):
        rng = np.random.default_rng(seed)
        self.samples = {"fact_k6": [int(c) for c in rng.integers(0, 1 << 15, self.spot_checks)],
                        "claim_k7": [int(c) for c in rng.integers(0, 1 << 21, self.spot_checks)]}
        self.first: dict | None = None
        tt.verify_fact_k6(workers=1)
        tt.compute_ramsey(3)
        tt.compute_special_ramsey(3)

    def run(self, phase) -> Pass:
        with phase("fact_k6"):
            fact = tt.verify_fact_k6(workers=1)
        with phase("claim_k7"):
            claim = tt.verify_claim_k7(workers=1)
        with phase("disjoint_pair_k7"):
            pair = tt.verify_lemma_k8(n=7, workers=1)
        with phase("ramsey"):
            ram = tt.compute_ramsey(3)
            spec = tt.compute_special_ramsey(3)
        reports = {"fact_k6": fact.comparable(), "claim_k7": claim.comparable(),
                   "disjoint_pair_k7": pair.comparable(), "ramsey": ram.comparable(),
                   "special_ramsey": spec.comparable()}
        items = (fact.checked + claim.checked + pair.checked
                 + sum(ram.checked.values()) + sum(spec.checked.values()))
        return Pass(items, reports, {
            "fact_k6": fact.checked, "claim_k7": claim.checked,
            "disjoint_pair_k7": pair.checked,
            "ramsey": sum(ram.checked.values()) + sum(spec.checked.values())})

    def check(self, out: Pass) -> int:
        reports = out.outputs
        problems = checks.check_scan(reports, self.samples)
        if self.first is None:
            self.first = reports
        for key, report in reports.items():
            if report != self.first[key]:
                problems[key].append("report differs from the first pass")
        return sum(1 for p in problems.values() if p)


class Campaign:
    """Doubled-K7 sampling and adversarial descent, pure-Python hot path.

    The seed drives the sampled colourings.  The descents start from a fixed
    seed: their state count, and with it the share of slow descent states
    among the items, varies by about a tenth between seeds.
    """

    name = "campaign"
    reference = "python"
    ops = 2
    descent_seed = 0

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.samples = 40 if small else 1500
        self.restarts = 1 if small else 8
        self.first: tuple | None = None
        tt.verify_k7_blowup(samples=20, adversarial_restarts=1, seed=seed, workers=1)

    def run(self, phase) -> Pass:
        with phase("k7x2_sampling"):
            sampling = tt.verify_k7_blowup(samples=self.samples, adversarial_restarts=0,
                                        seed=self.seed, workers=1)
        with phase("k7x2_descent"):
            descent = tt.verify_k7_blowup(samples=0, adversarial_restarts=self.restarts,
                                       seed=self.descent_seed, workers=1)
        return Pass(sampling.checked + descent.checked,
                    (sampling.comparable(), descent.comparable()),
                    {"k7x2_sampling": sampling.checked, "k7x2_descent": descent.checked})

    def check(self, out: Pass) -> int:
        sampling, descent = out.outputs
        failed = 1 if checks.check_campaign(sampling, descent, self.samples,
                                            self.restarts) else 0
        if self.first is None:
            self.first = out.outputs
        failed += (sampling != self.first[0]) + (descent != self.first[1])
        return min(failed, self.ops)


def recolour(g: tt.ColouredGraph, fraction: float, seed: int) -> tt.ColouredGraph:
    """Flip the colour of ``round(fraction * |E|)`` seeded edges; degrees stay."""
    edges = g.edges()
    k = max(1, round(len(edges) * fraction))
    flip = set(int(i) for i in np.random.default_rng(seed).choice(len(edges), k, replace=False))
    return tt.ColouredGraph(g.n, g.r, [(u, v, 1 - c if i in flip else c)
                                    for i, (u, v, c) in enumerate(edges)])


# (builder, n, delta, recolour fraction, recolour seed, modes).  The hosts
# are pinned: node counts of recoloured hosts differ by orders of magnitude
# between recolourings, so a seeded choice would change the work per pass.
SOLVE_HOSTS = (
    ("ex_bes_1", 20, 16, 0.08, 1, ("mixed", "single")),
    ("ex_bes_2", 25, 22, 0.08, 2, ("mixed", "single")),
    ("ex_bes_3", 25, 21, 0.05, 2, ("mixed", "single")),
    ("ex_bes_2", 25, 23, 0.0, 0, ("mixed",)),
)
SMALL_SOLVE_HOSTS = (
    ("ex_triangle", 12, 10, 0.1, 0, ("mixed", "single")),
    ("ex_bes_3", 24, 20, 0.0, 0, ("single",)),
)


class Solve:
    """Deep branch and bound on recoloured extremal hosts; the seed orders the solves."""

    name = "solve"
    reference = "python"

    def __init__(self, seed: int, small: bool = False):
        self.jobs = []
        for build, n, d, frac, rseed, modes in SMALL_SOLVE_HOSTS if small else SOLVE_HOSTS:
            g = getattr(tt, build)(n, d)
            if frac:
                g = recolour(g, frac, rseed)
            host = (build.replace("_", "-"), n, d, frac, rseed)
            colour = checks.colour_map(g.edges())
            self.jobs.extend((host, g, colour, mode) for mode in modes)
        order = np.random.default_rng(seed).permutation(len(self.jobs))
        self.jobs = [self.jobs[i] for i in order]
        self.ops = len(self.jobs)
        tt.max_mixed_tiling(tt.ex_triangle(12, 10))
        tt.max_single_colour_tiling(tt.ex_triangle(12, 10))

    def run(self, phase) -> Pass:
        results = []
        for _, g, _, mode in self.jobs:
            with phase(mode):
                if mode == "mixed":
                    results.append(tt.max_mixed_tiling(g))
                else:
                    results.append(tt.max_single_colour_tiling(g))
        return Pass(len(results), results)

    def check(self, out: Pass) -> int:
        single = {host: res.optimum for (host, _, _, mode), res in zip(self.jobs, out.outputs)
                  if mode == "single"}
        failed = 0
        for (host, _, colour, mode), res in zip(self.jobs, out.outputs):
            cliques = [(t.vertices, t.colour) for t in res.tiling]
            problems = checks.check_tiling(colour, cliques, res.optimum, mode == "single")
            if not res.proved_optimal:
                problems.append("optimality not proved")
            if mode == "mixed" and res.optimum < single.get(host, 0):
                problems.append("mixed optimum below single")
            family, n, d, frac, _ = host
            if not frac:
                problems += checks.check_closed_form(family, mode, n, d, res.optimum)
            failed += bool(problems)
        return failed


# (n, delta, families, random hosts) cells.  Each host gets its own
# `tritile experiment` call, so that the speed scaling follows the machine
# closely; the seed drives the random hosts.  Every solve in this grid
# certifies at the root on the seeds tried: random hosts at (36, 30) and
# (36, 35) did so for 40 seeds, while at (36, 34) one of five seeds needed
# 600 mixed nodes (4 s), and ex-bes-2 needs deep search at cells such as
# (36, 33).
FAMILIES = ("ex-triangle", "ex-triangle-alt", "ex-bes-1", "ex-bes-2", "ex-bes-3")
SWEEP_CELLS = (
    (24, 20, FAMILIES, 0), (24, 22, FAMILIES, 0), (24, 23, FAMILIES, 0),
    (36, 30, FAMILIES, 1), (36, 35, FAMILIES, 1),
    (48, 47, ("ex-triangle-alt",), 0),
)
SMALL_SWEEP_CELLS = ((12, 10, FAMILIES, 1), (12, 11, FAMILIES, 1))


def family_applies(family: str, n: int, d: int) -> bool:
    """Whether the construction exists at (n, d), from its stated degree range."""
    if not d <= n - 1:
        return False
    if family == "ex-triangle-alt":
        return 8 * d >= 7 * n
    if family == "ex-bes-1":
        return d >= 5
    if family == "ex-bes-2":
        return n >= 25 and 4 * n <= 5 * d
    return 4 * n <= 5 * d


class Sweep:
    """`tritile experiment` in-process, one call per host of a grid of (n, delta) cells."""

    name = "sweep"
    reference = "python"

    def __init__(self, seed: int, workdir: str, small: bool = False):
        os.makedirs(workdir, exist_ok=True)
        self.calls = []
        self.ops = 0
        hosts = []
        for n, d, families, samples in SMALL_SWEEP_CELLS if small else SWEEP_CELLS:
            hosts += [(n, d, [f], 0, 1) for f in families if family_applies(f, n, d)]
            if samples:
                hosts.append((n, d, [], samples, samples))
        for i, (n, d, families, samples, rows) in enumerate(hosts):
            config = os.path.join(workdir, f"sweep-{i}.json")
            with open(config, "w", encoding="ascii") as fh:
                json.dump({"n_values": [n], "delta_values": [d], "families": families,
                           "samples_per_cell": samples, "seed": seed}, fh)
            self.calls.append((config, os.path.join(workdir, f"sweep-{i}.csv"), rows))
            self.ops += rows
        warm = os.path.join(workdir, "sweep-warm.json")
        with open(warm, "w", encoding="ascii") as fh:
            json.dump({"n_values": [12], "delta_values": [10], "samples_per_cell": 1,
                       "seed": seed}, fh)
        if cli.run(["experiment", "--config", warm, "--out", warm + ".csv"]) != 0:
            raise RuntimeError("warm-up sweep failed")

    def run(self, phase) -> Pass:
        outputs = []
        for config, out, _ in self.calls:
            with phase("experiment"):
                code = cli.run(["experiment", "--config", config, "--out", out])
            rows = []
            if code == 0:
                with open(out, encoding="ascii", newline="") as fh:
                    rows = list(csv.DictReader(fh))
            outputs.append((code, rows))
        return Pass(sum(len(rows) for _, rows in outputs), outputs)

    def check(self, out: Pass) -> int:
        failed = 0
        for (_, _, expected), (code, rows) in zip(self.calls, out.outputs):
            bad = sum(1 for row in rows if checks.check_sweep_row(row))
            failed += bad + max(0, expected - len(rows)) if code == 0 else expected
        return min(failed, self.ops)


WORKLOADS = {"scan": Scan, "campaign": Campaign, "solve": Solve, "sweep": Sweep}
