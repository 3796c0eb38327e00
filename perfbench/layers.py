"""Per-layer metrics of a traced run.

Module self shares and call counts cover the timed passes only.  Costs per
call also take in the traced set-up, where ``solve`` builds its hosts.  A
metric whose function the workload never calls reads 0.
"""

from __future__ import annotations

from tracing import LAYERS

EXTREMAL = ("ex_triangle", "ex_triangle_alt", "ex_bes_1", "ex_bes_2", "ex_bes_3")

# name -> (unit, better); the order is the order of the output.
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_share"] = ("ratio", "lower")
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
PER_LAYER.update({
    "verifiers.fact_k6.codes_per_s": ("1/s", "higher"),
    "verifiers.claim_k7.codes_per_s": ("1/s", "higher"),
    "verifiers.disjoint_pair_k7.codes_per_s": ("1/s", "higher"),
    "verifiers.ramsey.codes_per_s": ("1/s", "higher"),
    "verifiers.k7x2_sampling.samples_per_s": ("1/s", "higher"),
    "verifiers.k7x2_descent.states_per_s": ("1/s", "higher"),
    "proofs.extract_three_disjoint_k7x2.us_per_call": ("us", "lower"),
    "proofs.claim_pair_k7.us_per_call": ("us", "lower"),
    "proofs.extract_mono_triangle_k6.us_per_call": ("us", "lower"),
    "verifiers.k7x2_graph.us_per_call": ("us", "lower"),
    "graphs.edge_colour.calls_per_item": ("count", "lower"),
    "solvers.nodes_per_s": ("1/s", "higher"),
    "solvers.max_mixed_tiling.ms_per_call": ("ms", "lower"),
    "solvers.max_single_colour_tiling.ms_per_call": ("ms", "lower"),
    "solvers.nodes_per_item": ("count", "lower"),
    "graphs.mono_triangles.ms_per_call": ("ms", "lower"),
    "constructions.random_min_degree_colouring.ms_per_call": ("ms", "lower"),
    "constructions.extremal.ms_per_call": ("ms", "lower"),
    "proofs.moon_small.ms_per_call": ("ms", "lower"),
    "proofs.bes_small.ms_per_call": ("ms", "lower"),
    "proofs.moon_large.ms_per_call": ("ms", "lower"),
    "proofs.bes_large.ms_per_call": ("ms", "lower"),
    "solvers.clique_tiling_interpolated.ms_per_call": ("ms", "lower"),
    "solvers.find_perfect_clique_tiling.ms_per_call": ("ms", "lower"),
    "graphs.tiling_verify.us_per_call": ("us", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
})
SOLVERS = ("solvers.max_mixed_tiling", "solvers.max_single_colour_tiling")


def metrics(totals: dict, setup_totals: dict, nodes: dict, run, overhead: float) -> dict:
    """``totals`` and ``setup_totals`` come from :meth:`Tracer.totals`; ``run`` is the traced Tally."""
    pass_time = sum(run.times)
    passes = len(run.times)
    values: dict[str, float] = {}
    for layer in LAYERS:
        mine = [v for k, v in totals.items() if k.split(".")[0] == layer]
        values[f"{layer}.self_share"] = sum(v["self"] for v in mine) / pass_time
        values[f"{layer}.calls"] = sum(v["calls"] for v in mine) / passes

    merged = {k: dict(v) for k, v in totals.items()}
    for k, v in setup_totals.items():
        entry = merged.setdefault(k, {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += v["calls"]
        entry["total"] += v["total"]

    def per_call(names, scale: float) -> float:
        calls = sum(merged.get(n, {}).get("calls", 0) for n in names)
        return scale * sum(merged.get(n, {}).get("total", 0.0) for n in names) / calls if calls else 0.0

    def phase_rate(phase: str) -> float:
        seconds = totals.get("bench." + phase, {}).get("total", 0.0)
        return run.phase_items.get(phase, 0) / seconds if seconds else 0.0

    for key in ("fact_k6", "claim_k7", "disjoint_pair_k7", "ramsey"):
        values[f"verifiers.{key}.codes_per_s"] = phase_rate(key)
    values["verifiers.k7x2_sampling.samples_per_s"] = phase_rate("k7x2_sampling")
    values["verifiers.k7x2_descent.states_per_s"] = phase_rate("k7x2_descent")
    for name in ("proofs.extract_three_disjoint_k7x2", "proofs.claim_pair_k7",
                 "proofs.extract_mono_triangle_k6", "verifiers.k7x2_graph"):
        values[f"{name}.us_per_call"] = per_call([name], 1e6)
    values["graphs.edge_colour.calls_per_item"] = (
        totals.get("graphs.edge_colour", {}).get("calls", 0) / run.items)
    solver_seconds = sum(totals.get(n, {}).get("total", 0.0) for n in SOLVERS)
    solver_nodes = sum(nodes.values())
    values["solvers.nodes_per_s"] = solver_nodes / solver_seconds if solver_seconds else 0.0
    for name in SOLVERS:
        values[f"{name}.ms_per_call"] = per_call([name], 1e3)
    values["solvers.nodes_per_item"] = solver_nodes / run.items
    values["graphs.mono_triangles.ms_per_call"] = per_call(["graphs.mono_triangles"], 1e3)
    values["constructions.random_min_degree_colouring.ms_per_call"] = per_call(
        ["constructions.random_min_degree_colouring"], 1e3)
    values["constructions.extremal.ms_per_call"] = per_call(
        [f"constructions.{b}" for b in EXTREMAL], 1e3)
    for name in ("proofs.moon_small", "proofs.bes_small", "proofs.moon_large",
                 "proofs.bes_large", "solvers.clique_tiling_interpolated",
                 "solvers.find_perfect_clique_tiling"):
        values[f"{name}.ms_per_call"] = per_call([name], 1e3)
    values["graphs.tiling_verify.us_per_call"] = per_call(["graphs.tiling_verify"], 1e6)
    values["trace.overhead_share"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
