"""Command-line front end for generators, solvers, tilers, and verifiers.

Exit codes: 0 success; 1 usage or input errors; 2 a verification campaign
found violations, in which case a witness file is written and re-confirmed
by reloading it before the process exits; 3 an internal anomaly, meaning a
step that a proven statement says cannot fail did fail, with the offending
graph dumped alongside.

Output is deterministic: identical argv and seed produce byte-identical
stdout and files, except for the ``elapsed`` wall-clock fields inside JSON
reports.  ``--workers 1`` is the reference configuration; other worker
counts must produce the same bytes there too.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from typing import Optional, Sequence

import numpy as np

from tritile.constructions import (
    CONSTRUCTIONS,
    badly_coloured_k5,
    bound_report,
    pinned_apex_colouring,
    pinned_apex_sizes,
    random_min_degree_colouring,
    special_blowup,
)
from tritile.graphs import (
    MAX_VERTICES,
    AnomalyError,
    ColouredGraph,
    MonoClique,
    SearchBudgetExceeded,
    from_json_dict,
    parse_graph_text,
    to_json_dict,
    write_graph,
)
from tritile.proofs import bes_large, bes_small, moon_large, moon_small, phased_tiler
from tritile.solvers import max_mixed_tiling, max_single_colour_tiling
from tritile.verifiers import (
    K7X2_EDGES,
    audit_tightness,
    compute_ramsey,
    compute_special_ramsey,
    k7x2_graph,
    lemma_violated,
    probe_question,
    verify_bowtie_lemmas,
    verify_claim_k7,
    verify_fact_k6,
    verify_k7_blowup,
    verify_lemma_k8,
)

SCHEMA = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# --------------------------------------------------------------------------
# output plumbing


def _dump_json(payload: dict, stream) -> None:
    json.dump(payload, stream, sort_keys=True, indent=2)
    stream.write("\n")


def _emit(args, *, text: Optional[str] = None, payload: Optional[dict] = None,
          headers: Optional[Sequence[str]] = None,
          rows: Optional[Sequence[Sequence]] = None) -> None:
    """Route a command's result to stdout or --out in the requested format."""
    if args.json and payload is not None:
        body = dict(payload)
        body["schema"] = SCHEMA
        buf = io.StringIO()
        _dump_json(body, buf)
        out = buf.getvalue()
    elif args.csv and rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if headers:
            writer.writerow(headers)
        writer.writerows(rows)
        out = buf.getvalue()
    else:
        out = (text or "") + ("\n" if text and not text.endswith("\n") else "")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _load_graph(path: str) -> ColouredGraph:
    """Read a host file in the JSON or the text format, whichever it holds."""
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return from_json_dict(json.loads(text))
    return parse_graph_text(text)


def _clique_rows(tiling) -> list:
    return [{"vertices": list(t.vertices), "colour": t.colour}
            for t in tiling.cliques]


# --------------------------------------------------------------------------
# gen


GEN_FAMILIES = tuple(CONSTRUCTIONS) + (
    "pinned-apex", "special-blowup", "random", "badly-k5", "doubled-k7")


def _cmd_gen(args) -> int:
    if not args.out:
        raise _UsageError("gen writes files; pass --out PATH")
    family = args.family
    params: dict = {}
    classes = None
    if family in CONSTRUCTIONS:
        _require(args, "n", "delta")
        builder, layout = CONSTRUCTIONS[family]
        g = builder(args.n, args.delta)
        classes = layout(args.n, args.delta)
        params = {"n": args.n, "delta": args.delta}
    elif family == "pinned-apex":
        _require(args, "n", "delta")
        sizes = pinned_apex_sizes(args.n, args.delta)
        g = pinned_apex_colouring(sizes)
        classes = {"sizes": sizes}
        params = {"n": args.n, "delta": args.delta}
    elif family == "special-blowup":
        if args.t is not None:
            g = special_blowup(t=args.t)
            params = {"t": args.t}
        else:
            _require(args, "n", "delta")
            g = special_blowup(n=args.n, delta=args.delta)
            params = {"n": args.n, "delta": args.delta}
    elif family == "random":
        _require(args, "n", "delta")
        rng = np.random.default_rng(np.random.SeedSequence(args.seed))
        g = random_min_degree_colouring(args.n, args.delta, rng)
        params = {"n": args.n, "delta": args.delta, "seed": args.seed}
    elif family == "badly-k5":
        g = badly_coloured_k5()
    elif family == "doubled-k7":
        rng = np.random.default_rng(np.random.SeedSequence(args.seed))
        g = k7x2_graph(rng.integers(0, 2, size=len(K7X2_EDGES), dtype=np.uint8))
        params = {"seed": args.seed}
    else:
        raise _UsageError(f"unknown family {family!r}")
    write_graph(g, args.out)
    sidecar = args.out + ".classes.json"
    with open(sidecar, "w", encoding="ascii") as fh:
        _dump_json({"schema": SCHEMA, "family": family, "params": params,
                    "n": g.n, "r": g.r, "min_degree": g.min_degree(),
                    "classes": classes}, fh)
    summary = (f"wrote {family} host (n={g.n}, min degree {g.min_degree()}) "
               f"to {args.out} and {sidecar}")
    if args.json:
        print(json.dumps({"schema": SCHEMA, "command": "gen", "family": family,
                          "params": params, "path": args.out,
                          "sidecar": sidecar, "n": g.n,
                          "min_degree": g.min_degree()}, sort_keys=True))
    else:
        print(summary)
    return 0


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise _UsageError(f"--family {args.family} needs --{name}")


# --------------------------------------------------------------------------
# solve / tile


def _cmd_solve(args) -> int:
    g = _load_graph(args.path)
    start = time.perf_counter()
    if args.mode == "single":
        result = max_single_colour_tiling(g, budget=args.budget)
    else:
        result = max_mixed_tiling(g, budget=args.budget)
    elapsed = time.perf_counter() - start
    payload = {"command": "solve", "mode": args.mode, "n": g.n,
               "optimum": result.optimum,
               "proved_optimal": result.proved_optimal,
               "nodes_explored": result.nodes_explored,
               "tiling": _clique_rows(result.tiling), "elapsed": elapsed}
    text = (f"{args.mode} optimum {result.optimum} "
            f"({'proved' if result.proved_optimal else 'budget exhausted'}, "
            f"{result.nodes_explored} nodes)")
    _emit(args, text=text, payload=payload)
    return 0


_ALGORITHMS = {
    "moon-small": moon_small,
    "bes-small": bes_small,
    "moon-large": moon_large,
    "bes-large": bes_large,
}


def _cmd_tile(args) -> int:
    g = _load_graph(args.path)
    start = time.perf_counter()
    notes: tuple[str, ...] = ()
    if args.algorithm == "phased":
        if not args.seed_clique:
            raise _UsageError("phased needs --seed-clique v0,v1,...")
        verts = tuple(int(v) for v in args.seed_clique.split(","))
        if len(verts) < 2:
            raise _UsageError("the seed clique needs at least two vertices")
        colour = g.edge_colour(verts[0], verts[1])
        result = phased_tiler(g, MonoClique(verts, colour))
        tiling, notes = result.tiling, result.notes
    else:
        tiling = _ALGORITHMS[args.algorithm](g, budget=args.budget)
    elapsed = time.perf_counter() - start
    if not tiling.verify(g):
        raise AnomalyError(f"{args.algorithm} produced a tiling that fails "
                           "re-verification", graph=g)
    payload = {"command": "tile", "algorithm": args.algorithm, "n": g.n,
               "count": len(tiling), "verified": True,
               "tiling": _clique_rows(tiling), "notes": list(notes),
               "elapsed": elapsed}
    lines = [f"{args.algorithm}: {len(tiling)} verified triangles"]
    lines += [f"  {t.vertices} colour {t.colour}" for t in tiling.cliques]
    lines += [f"  note: {n}" for n in notes]
    _emit(args, text="\n".join(lines), payload=payload)
    return 0


# --------------------------------------------------------------------------
# verify


LEMMAS = ("fact-k6", "claim-k7", "lemma-k8", "bowtie", "k7x2")


def _write_and_reconfirm_witnesses(lemma: str, reports, path: str) -> None:
    entries = []
    for rep in reports:
        for code in rep.violations:
            g = rep.graph(code)
            entries.append({"code": code, "n": rep.n,
                            "graph": to_json_dict(g),
                            "extra": {k: v for k, v in rep.extra.items()
                                      if isinstance(v, (int, str, bool))}})
    with open(path, "w", encoding="ascii") as fh:
        _dump_json({"schema": SCHEMA, "lemma": lemma,
                    "violation_count": sum(r.violation_count for r in reports),
                    "witnesses": entries}, fh)
    with open(path, encoding="ascii") as fh:
        reloaded = json.load(fh)
    for entry in reloaded["witnesses"]:
        g = from_json_dict(entry["graph"])
        if not lemma_violated(lemma, g, entry.get("extra", {})):
            raise AnomalyError(
                f"reloaded {lemma} witness {entry['code']} no longer violates",
                graph=g, detail={"path": path})


def _cmd_verify(args) -> int:
    lemma = args.lemma
    if lemma == "fact-k6":
        reports = [verify_fact_k6(workers=args.workers)]
    elif lemma == "claim-k7":
        reports = [verify_claim_k7(workers=args.workers)]
    elif lemma == "lemma-k8":
        reports = [verify_lemma_k8(workers=args.workers,
                                   extractor_samples=args.samples or 0,
                                   seed=args.seed)]
    elif lemma == "bowtie":
        reports = list(verify_bowtie_lemmas(workers=args.workers))
    elif lemma == "k7x2":
        reports = [verify_k7_blowup(
            samples=args.samples if args.samples is not None else 1_000_000,
            adversarial_restarts=args.restarts if args.restarts is not None else 1_000,
            seed=args.seed, workers=args.workers)]
    else:
        raise _UsageError(f"unknown lemma {lemma!r}; choose from {LEMMAS}")
    payload = {"command": "verify", "lemma": lemma,
               "reports": [r.as_dict() for r in reports]}
    lines = []
    for r in reports:
        status = "holds" if r.holds else f"{r.violation_count} violations"
        lines.append(f"{r.lemma_id}: {status} "
                     f"({r.checked} of {r.universe_size} checked, "
                     f"mode {r.mode}, {r.elapsed:.1f}s)")
    _emit(args, text="\n".join(lines), payload=payload)
    if any(not r.holds for r in reports):
        path = args.witness or f"{lemma}-violations.json"
        _write_and_reconfirm_witnesses(lemma, reports, path)
        print(f"violations found; witness file {path} written and re-confirmed",
              file=sys.stderr)
        return 2
    return 0


# --------------------------------------------------------------------------
# ramsey / special-ramsey


def _ramsey_output(args, res, label: str) -> int:
    payload = {"command": label, "ell": res.ell, "colours": res.r,
               "n_max": res.n_max, "value": res.value,
               "resolved": res.resolved, "witness_n": res.witness_n,
               "witness_code": res.witness_code,
               "checked": {str(k): v for k, v in res.checked.items()},
               "elapsed": res.elapsed}
    w = res.witness()
    if w is not None:
        payload["witness_graph"] = to_json_dict(w)
    shown = res.value if res.resolved else "UNKNOWN"
    text = (f"{label}(K{res.ell}; {res.r} colours) = {shown}; "
            f"sharpness witness on {res.witness_n} vertices, "
            f"code {res.witness_code}")
    _emit(args, text=text, payload=payload)
    return 0


def _cmd_ramsey(args) -> int:
    return _ramsey_output(
        args, compute_ramsey(args.ell, args.colours, args.n_max), "ramsey")


def _cmd_special_ramsey(args) -> int:
    return _ramsey_output(
        args, compute_special_ramsey(args.ell, args.colours, args.n_max),
        "special-ramsey")


# --------------------------------------------------------------------------
# audit / probe


AUDIT_HEADERS = ("construction", "n", "delta", "mode", "optimum", "bound",
                 "proved_optimal", "nodes_explored", "theorem_equality",
                 "matches")


def _cmd_audit(args) -> int:
    rows = audit_tightness(budget=args.budget)
    table = [[r.construction, r.n, r.delta, r.mode, r.optimum, r.bound,
              r.proved_optimal, r.nodes_explored, r.theorem_equality,
              r.matches] for r in rows]
    payload = {"command": "audit", "rows": [r.as_dict() for r in rows]}
    lines = [f"{r.construction}({r.n},{r.delta}) {r.mode}: optimum "
             f"{r.optimum} vs bound {r.bound} "
             f"[{'tight' if r.matches else 'GAP'}"
             f"{', proved' if r.proved_optimal else ', budget exhausted'}]"
             for r in rows]
    _emit(args, text="\n".join(lines), payload=payload,
          headers=AUDIT_HEADERS, rows=table)
    return 0


PROBE_HEADERS = ("n", "delta", "source", "optimum", "c1", "c2", "c3", "below")


def _cmd_probe(args) -> int:
    n_values = tuple(int(v) for v in args.n.split(","))
    deltas = tuple(int(v) for v in args.deltas.split(",")) if args.deltas else None
    records = probe_question(n_values=n_values, delta_values=deltas,
                             samples_per_cell=args.samples,
                             perturbed_per_cell=args.perturbed,
                             seed=args.seed, budget=args.budget)
    table = [[p.n, p.delta, p.source, p.optimum, p.formula_high, p.formula_mid,
              p.formula_low, p.below_formula] for p in records]
    payload = {"command": "probe", "records": [p.as_dict() for p in records]}
    lines = [f"n={p.n} delta={p.delta} {p.source}: optimum {p.optimum} "
             f"({p.applicable_piece} piece {p.applicable_value})"
             + (" BELOW FORMULA" if p.below_formula else "")
             for p in records]
    _emit(args, text="\n".join(lines), payload=payload,
          headers=PROBE_HEADERS, rows=table)
    hits = [p for p in records if p.below_formula]
    if hits:
        path = args.witness or "probe-violations.json"
        with open(path, "w", encoding="ascii") as fh:
            _dump_json({"schema": SCHEMA, "records": [p.as_dict() for p in hits]},
                       fh)
        print(f"{len(hits)} hosts beat the formula; witness file {path} written",
              file=sys.stderr)
        return 2
    return 0


# --------------------------------------------------------------------------
# experiment


EXPERIMENT_HEADERS = (
    "source", "n", "delta", "mixed_optimum", "mixed_proved",
    "single_optimum", "single_proved", "moon_small", "bes_small",
    "moon_large", "bes_large", "moon_bound", "moon_piece", "moon_asymptotic",
    "bes_bound", "bes_piece", "bes_conjectural", "extremal_min", "status")


def _algorithm_cell(fn, g, budget) -> tuple[str, bool]:
    """Run one extracted algorithm; empty cell when its band excludes g."""
    try:
        tiling = fn(g, budget=budget)
    except ValueError:
        return "", False
    except SearchBudgetExceeded:
        return "", True
    if not tiling.verify(g):
        raise AnomalyError("experiment row produced an unverifiable tiling",
                           graph=g)
    return str(len(tiling)), False


# Experiment config keys other than the list keys must hold integers, each
# at least the value given here; a key left out or set to null takes its
# default.
_CONFIG_LISTS = {"n_values": int, "delta_values": int, "families": str}
_CONFIG_INTS = {"samples_per_cell": 0, "seed": 0, "node_budget": 0, "max_cells": 1}


def _is_a(value, kind: type) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_config(config) -> None:
    """Reject a malformed experiment config before any host is built."""
    if not isinstance(config, dict):
        raise _UsageError("experiment config must be a JSON object")
    for key, kind in _CONFIG_LISTS.items():
        value = config.get(key)
        if value is not None and not (isinstance(value, list)
                                      and all(_is_a(v, kind) for v in value)):
            raise _UsageError(
                f"experiment config {key} must be a list of {kind.__name__}, got {value!r}")
    for key, least in _CONFIG_INTS.items():
        value = config.get(key)
        if value is not None and not _is_a(value, int):
            raise _UsageError(f"experiment config {key} must be an integer, got {value!r}")
        if value is not None and value < least:
            raise _UsageError(f"experiment config {key} must be at least {least}, got {value}")
    if not config.get("n_values"):
        raise _UsageError("experiment config needs n_values")
    bad = [n for n in config["n_values"] if not 1 <= n <= MAX_VERTICES]
    if bad:
        raise _UsageError(f"experiment config n_values must lie in 1..{MAX_VERTICES}, got {bad}")
    bad = [d for d in config.get("delta_values") or () if d < 0]
    if bad:
        raise _UsageError(f"experiment config delta_values must be non-negative, got {bad}")


def _experiment_rows(config: dict) -> list[list]:
    n_values = config["n_values"]
    families = config.get("families")
    if families is None:
        families = list(CONSTRUCTIONS)
    unknown = [f for f in families if f not in CONSTRUCTIONS]
    if unknown:
        raise _UsageError(f"unknown families in config: {unknown}")
    samples = config.get("samples_per_cell") or 0
    seed = config.get("seed") or 0
    node_budget = config.get("node_budget")
    max_cells = config.get("max_cells")
    rows: list[list] = []
    cells = 0
    for n in n_values:
        deltas = config.get("delta_values") or range(-(-4 * n // 5), n)
        for delta in deltas:
            if max_cells is not None and cells >= max_cells:
                rows.append(["TRUNCATED"] + [""] * (len(EXPERIMENT_HEADERS) - 1))
                return rows
            cells += 1
            hosts = []
            for fam in families:
                try:
                    hosts.append((fam, CONSTRUCTIONS[fam][0](n, delta)))
                except ValueError:
                    continue
            for k in range(samples):
                rng = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(n, delta, k)))
                hosts.append((f"random-{k}",
                              random_min_degree_colouring(n, delta, rng)))
            report = bound_report(n, delta)
            for source, g in hosts:
                mixed = max_mixed_tiling(g, budget=node_budget)
                single = max_single_colour_tiling(g, budget=node_budget)
                cells_out = []
                overrun = False
                for fn in (moon_small, bes_small, moon_large, bes_large):
                    value, over = _algorithm_cell(fn, g, node_budget)
                    cells_out.append(value)
                    overrun = overrun or over
                status = "ok"
                if overrun or not (mixed.proved_optimal and single.proved_optimal):
                    status = "budget"
                rows.append([source, n, delta, mixed.optimum,
                             mixed.proved_optimal, single.optimum,
                             single.proved_optimal, *cells_out,
                             report.moon_bound, report.moon_piece,
                             report.moon_asymptotic, report.bes_bound,
                             report.bes_piece, report.bes_conjectural,
                             report.extremal_min, status])
    return rows


def _cmd_experiment(args) -> int:
    with open(args.config, encoding="ascii") as fh:
        config = json.load(fh)
    _check_config(config)
    rows = _experiment_rows(config)
    forced = argparse.Namespace(**{**vars(args), "csv": True, "json": False})
    _emit(forced, headers=EXPERIMENT_HEADERS, rows=rows)
    return 0


# --------------------------------------------------------------------------
# parser and entry points


def _seed(text: str) -> int:
    """The ``--seed`` value; numpy seed sequences take non-negative integers only."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=_seed, default=0,
                        help="campaign seed (default 0)")
    common.add_argument("--workers", type=int, default=1,
                        help="parallel worker count (default 1)")
    common.add_argument("--json", action="store_true",
                        help="emit a schema-1 JSON document")
    common.add_argument("--csv", action="store_true",
                        help="emit CSV (where the command has rows)")
    common.add_argument("--out", help="write output to this path")
    common.add_argument("--budget", type=int, default=None,
                        help="search node budget override")
    common.add_argument("--witness",
                        help="violation/anomaly witness file path")

    parser = _Parser(prog="tritile",
                     description="exact tiling constructions, solvers, "
                                 "and lemma verifiers")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("gen", parents=[common],
                       help="write a construction to disk with its classes")
    p.add_argument("--family", required=True, choices=GEN_FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--t", type=int)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", parents=[common],
                       help="exact optimum triangle tiling of a host file")
    p.add_argument("path")
    p.add_argument("--mode", choices=("mixed", "single"), default="mixed")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("tile", parents=[common],
                       help="run a constructive tiling algorithm on a host file")
    p.add_argument("path")
    p.add_argument("--algorithm", required=True,
                   choices=tuple(_ALGORITHMS) + ("phased",))
    p.add_argument("--seed-clique", dest="seed_clique",
                   help="comma-separated seed clique vertices (phased only)")
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser("verify", parents=[common],
                       help="run an exhaustive or randomized lemma campaign")
    p.add_argument("--lemma", required=True, choices=LEMMAS)
    p.add_argument("--samples", type=int, default=None,
                   help="sample count (lemma-k8 extractor subset / k7x2)")
    p.add_argument("--restarts", type=int, default=None,
                   help="adversarial restart count (k7x2)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ramsey", parents=[common],
                       help="exhaustive mono-clique Ramsey search")
    p.add_argument("--ell", type=int, default=3)
    p.add_argument("--colours", type=int, default=2)
    p.add_argument("--n-max", dest="n_max", type=int, default=8)
    p.set_defaults(func=_cmd_ramsey)

    p = sub.add_parser("special-ramsey", parents=[common],
                       help="Ramsey search over colourings missing a colour "
                            "at a vertex")
    p.add_argument("--ell", type=int, default=3)
    p.add_argument("--colours", type=int, default=2)
    p.add_argument("--n-max", dest="n_max", type=int, default=6)
    p.set_defaults(func=_cmd_special_ramsey)

    p = sub.add_parser("audit", parents=[common],
                       help="exact optima vs closed-form bounds on the "
                            "pinned instances")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("probe", parents=[common],
                       help="search for hosts beating the single-colour "
                            "formulas")
    p.add_argument("--n", default="25",
                   help="comma-separated host orders (all >= 25)")
    p.add_argument("--deltas", default=None,
                   help="comma-separated min degrees (default: whole band)")
    p.add_argument("--samples", type=int, default=2,
                   help="random hosts per cell")
    p.add_argument("--perturbed", type=int, default=1,
                   help="perturbed constructions per cell")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("experiment", parents=[common],
                       help="CSV sweep over constructions, solvers, and "
                            "extracted algorithms")
    p.add_argument("--config", required=True,
                   help="JSON config with n_values and options")
    p.set_defaults(func=_cmd_experiment)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}; raise --budget", file=sys.stderr)
        return 1
    except AnomalyError as exc:
        path = getattr(args, "witness", None) or "anomaly-witness.json"
        dump = {"schema": SCHEMA, "anomaly": str(exc), "detail": exc.detail}
        if exc.graph is not None:
            dump["graph"] = to_json_dict(exc.graph)
        with open(path, "w", encoding="ascii") as fh:
            _dump_json(dump, fh)
        print(f"anomaly: {exc}; witness dumped to {path}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
