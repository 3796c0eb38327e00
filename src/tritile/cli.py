"""Command-line front end for generators, solvers, tilers, and verifiers.

Exit codes: 0 success; 1 usage or input errors; 2 a lemma campaign found
violations, or a grid command a host below a conjectural formula, and a
witness file is written and re-confirmed by reloading it; 3 an internal
anomaly, meaning a step that a proven statement says cannot fail did fail,
with the offending graph dumped alongside.

Output is deterministic: identical argv and seed produce byte-identical
stdout and files, except for the ``elapsed`` wall-clock fields inside JSON
reports.  ``verify --workers 1`` is the reference configuration; other
worker counts must produce the same bytes there too.

Each subcommand takes only the flags it reads, and so does each choice
that `gen`, `tile` and `verify` run (a family, an algorithm, a lemma).
Flags are spelled out in full: a flag a command or its choice would ignore
ends with exit 1 and one ``error:`` line, like any other usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from tritile import __version__
from tritile.constructions import (
    CONSTRUCTIONS,
    BoundReport,
    _degree_band,
    badly_coloured_k5,
    bound_report,
    cell_hosts,
    pinned_apex_colouring,
    pinned_apex_sizes,
    random_min_degree_colouring,
    special_blowup,
)
from tritile.graphs import (
    MAX_VERTICES,
    AnomalyError,
    MonoClique,
    SearchBudgetExceeded,
    _is_a,
    from_json_dict,
    parse_json,
    read_graph,
    to_json_dict,
    write_graph,
)
from tritile.proofs import K7X2_EDGES, phased_tiler
from tritile.solvers import max_mixed_tiling, max_single_colour_tiling
from tritile.verifiers import (
    AUDIT_COLUMNS,
    TILERS,
    GridRow,
    audit_tightness,
    compute_ramsey,
    compute_special_ramsey,
    grid_row,
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
    def __init__(self, **kwargs):
        # No prefix matching: on `tile`, `--seed` would otherwise mean `--seed-clique`.
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


# --------------------------------------------------------------------------
# output plumbing


def _dump_json(payload: dict, stream) -> None:
    json.dump(payload, stream, sort_keys=True, indent=2)
    stream.write("\n")


def _emit(args, *, text: Optional[str] = None, payload: Optional[dict] = None,
          rows: Optional[Sequence[Sequence]] = None) -> None:
    """Route a command's result to stdout or --out in the requested format.

    ``rows`` are CSV rows, headers first.  A command with no JSON payload takes no
    --json, and one with rows but no text form takes no --csv: its rows are always CSV.
    """
    if payload is not None and args.json:
        out = json.dumps({**payload, "schema": SCHEMA}, sort_keys=True, indent=2) + "\n"
    elif rows is not None and (text is None or args.csv):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        out = buf.getvalue()
    else:
        out = (text or "") + ("\n" if text and not text.endswith("\n") else "")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _clique_rows(tiling) -> list:
    return [{"vertices": list(t.vertices), "colour": t.colour}
            for t in tiling.cliques]


# --------------------------------------------------------------------------
# per-choice flags: `gen`, `tile` and `verify` each map a choice to (the per-choice
# flags it reads, by keyword, with "|" between alternative sets; what it runs on
# their values).  The parser leaves every per-choice flag None unless it is given.


def _chosen(args, option: str, table: dict) -> tuple:
    """The runner that ``--option`` chose, and the given per-choice flags it reads, by keyword.

    A per-choice flag given to a choice that does not read it is refused, naming the
    choices that do.  A left-out ``--seed`` takes its default 0, which the sidecar and
    an anomaly dump name.
    """
    choice = getattr(args, option)
    reads = {c: keys.replace("|", " ").split() for c, (keys, _) in table.items()}
    for key in dict.fromkeys(sum(reads.values(), [])):
        if getattr(args, key) is not None and key not in reads[choice]:
            raise _UsageError(f"--{key.replace('_', '-')} applies to {_readers(table, key)}, "
                              f"not {choice}")
    if getattr(args, "seed", 0) is None:
        args.seed = 0
    return table[choice][1], _given(**{key: getattr(args, key) for key in reads[choice]})


def _readers(table: dict, key: str) -> str:
    """The choices in ``table`` that read the per-choice flag ``key``, as "a, b and c"."""
    readers = [c for c, (keys, _) in table.items() if key in keys.replace("|", " ").split()]
    return f"{', '.join(readers[:-1])} and {readers[-1]}" if readers[1:] else readers[0]


def _given(**flags) -> dict:
    """The flags the user passed, so that left-out ones take the callee's defaults."""
    return {k: v for k, v in flags.items() if v is not None}


# --------------------------------------------------------------------------
# gen


def _construction(family: str, n: int, delta: int) -> tuple:
    builder, layout = CONSTRUCTIONS[family]
    return builder(n, delta), layout(n, delta)


def _pinned_apex(n: int, delta: int) -> tuple:
    sizes = pinned_apex_sizes(n, delta)
    return pinned_apex_colouring(sizes), {"sizes": sizes}


def _seeded(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


# Each family's builder returns (host, classes).  A family needs every flag of the
# alternative set that its given flags pick, else of its first set.
GEN_FAMILIES = {
    **{family: ("n delta", functools.partial(_construction, family))
       for family in CONSTRUCTIONS},
    "pinned-apex": ("n delta", _pinned_apex),
    "special-blowup": ("t | n delta", lambda **flags: (special_blowup(**flags), None)),
    "random": ("n delta seed", lambda n, delta, seed: (
        random_min_degree_colouring(n, delta, _seeded(seed)), None)),
    "badly-k5": ("", lambda: (badly_coloured_k5(), None)),
    "doubled-k7": ("seed", lambda seed: (
        k7x2_graph(_seeded(seed).integers(0, 2, size=len(K7X2_EDGES), dtype=np.uint8)), None)),
}


def _cmd_gen(args) -> int:
    family = args.family
    build, params = _chosen(args, "family", GEN_FAMILIES)
    _check_order(args.n, "--n")
    _check_order(None if args.t is None else 3 * args.t + 1, "--t")
    sets = [keys.split() for keys in GEN_FAMILIES[family][0].split("|")]
    picked = [keys for keys in sets if params.keys() & set(keys)] or sets[:1]
    if picked[1:]:
        alternatives = " or ".join(" ".join(f"--{key}" for key in keys) for keys in sets)
        raise _UsageError(f"--family {family} takes {alternatives}, not both")
    missing = [key for key in picked[0] if key not in params]
    if missing:
        raise _UsageError(f"--family {family} needs --{missing[0]}")
    g, classes = build(**params)
    write_graph(g, args.out)
    sidecar = args.out + ".classes.json"
    # The fields that the sidecar and the --json line share.
    shared = {"schema": SCHEMA, "family": family, "params": params, "n": g.n,
              "min_degree": g.min_degree()}
    with open(sidecar, "w", encoding="ascii") as fh:
        _dump_json({**shared, "r": g.r, "classes": classes}, fh)
    if args.json:
        print(json.dumps({**shared, "command": "gen", "path": args.out, "sidecar": sidecar},
                         sort_keys=True))
    else:
        print(f"wrote {family} host (n={g.n}, min degree {g.min_degree()}) "
              f"to {args.out} and {sidecar}")
    return 0


def _check_order(n: Optional[int], flag: str) -> None:
    """Reject a host order above MAX_VERTICES before any of its O(n^2) edges is built."""
    if n is not None and n > MAX_VERTICES:
        raise _UsageError(f"{flag} asks for a host of {n} vertices; hosts have at most "
                          f"{MAX_VERTICES}")


# --------------------------------------------------------------------------
# solve / tile


def _cmd_solve(args) -> int:
    g = read_graph(args.path)
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


def _tiler(tiler, g, budget: Optional[int] = None) -> tuple:
    return tiler(g, budget=budget), ()


def _phased(g, seed_clique: tuple[int, ...] = ()) -> tuple:
    if len(seed_clique) < 2:
        raise _UsageError("phased needs --seed-clique v0,v1,... with at least two vertices")
    if not all(0 <= v < g.n for v in seed_clique):
        raise ValueError("seed must be a monochromatic clique of the host")
    result = phased_tiler(g, MonoClique(seed_clique, g.edge_colour(*seed_clique[:2])))
    return result.tiling, result.notes


# Each algorithm's tiler returns (tiling, notes); the constructive tilers go by
# their command-line names.
_ALGORITHMS = {
    **{name.replace("_", "-"): ("budget", functools.partial(_tiler, tiler))
       for name, (tiler, _, _) in TILERS.items()},
    "phased": ("seed_clique", _phased),
}


def _cmd_tile(args) -> int:
    tiler, flags = _chosen(args, "algorithm", _ALGORITHMS)
    g = read_graph(args.path)
    start = time.perf_counter()
    tiling, notes = tiler(g, **flags)
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


def _write_and_reload(path: str, doc: dict) -> list:
    """Write ``doc`` as a witness file and read it back: (host, entry) per witness."""
    with open(path, "w", encoding="ascii") as fh:
        _dump_json({"schema": SCHEMA, **doc}, fh)
    with open(path, encoding="ascii") as fh:
        reloaded = json.load(fh)
    return [(from_json_dict(entry["graph"]), entry) for entry in reloaded["witnesses"]]


def _write_and_reconfirm_witnesses(lemma: str, reports, path: str) -> None:
    entries = [{"code": code, "n": rep.n, "graph": to_json_dict(rep.graph(code)),
                "extra": {k: v for k, v in rep.extra.items() if isinstance(v, (int, str, bool))}}
               for rep in reports for code in rep.violations]
    doc = {"lemma": lemma, "violation_count": sum(r.violation_count for r in reports),
           "witnesses": entries}
    for g, entry in _write_and_reload(path, doc):
        if not lemma_violated(lemma, g, entry.get("extra", {})):
            raise AnomalyError(
                f"reloaded {lemma} witness {entry['code']} no longer violates",
                graph=g, detail={"path": path})


# Each lemma's campaign returns its reports; a left-out --samples or --restarts
# takes the campaign's default.
LEMMAS = {
    "fact-k6": ("", lambda workers: [verify_fact_k6(workers=workers)]),
    "claim-k7": ("", lambda workers: [verify_claim_k7(workers=workers)]),
    "lemma-k8": ("seed samples", lambda workers, seed, samples=None: [
        verify_lemma_k8(workers=workers, seed=seed, **_given(extractor_samples=samples))]),
    "bowtie": ("", lambda workers: list(verify_bowtie_lemmas(workers=workers))),
    "k7x2": ("seed samples restarts", lambda workers, seed, samples=None, restarts=None: [
        verify_k7_blowup(seed=seed, workers=workers,
                         **_given(samples=samples, adversarial_restarts=restarts))]),
}


def _cmd_verify(args) -> int:
    lemma = args.lemma
    campaign, flags = _chosen(args, "lemma", LEMMAS)
    reports = campaign(workers=args.workers, **flags)
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


def _cmd_ramsey(args) -> int:
    label = args.command
    search = compute_ramsey if label == "ramsey" else compute_special_ramsey
    res = search(args.ell, args.colours, args.n_max, **_given(budget=args.budget))
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


# --------------------------------------------------------------------------
# audit / probe / experiment: presets of the grid engine (verifiers.grid_row)


AUDIT_HEADERS = tuple(c for c in AUDIT_COLUMNS if c != "elapsed")
PROBE_HEADERS = ("n", "delta", "source", "optimum", "c1", "c2", "c3", "below")
EXPERIMENT_HEADERS = (
    "source", "n", "delta", "mixed_optimum", "mixed_proved",
    "single_optimum", "single_proved", "moon_small", "bes_small",
    "moon_large", "bes_large", "moon_bound", "moon_piece", "moon_asymptotic",
    "bes_bound", "bes_piece", "bes_conjectural", "extremal_min", "status")

# Experiment config keys other than the list keys must hold integers, each
# at least the value given here; a key left out or set to null takes its
# default.
_CONFIG_LISTS = {"n_values": int, "delta_values": int, "families": str}
_CONFIG_INTS = {"samples_per_cell": 0, "seed": 0, "node_budget": 0, "max_cells": 1}


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


def _experiment_grid(args) -> list[Optional[GridRow]]:
    """Every host of the config's cells in both modes with every tiler; None marks a cut grid."""
    with open(args.config, encoding="ascii") as fh:
        config = parse_json(fh.read(), "experiment config")
    _check_config(config)
    families = list(CONSTRUCTIONS) if config.get("families") is None else config["families"]
    unknown = [f for f in families if f not in CONSTRUCTIONS]
    if unknown:
        raise _UsageError(f"unknown families in config: {unknown}")
    cells = [(n, delta) for n in config["n_values"]
             for delta in config.get("delta_values") or _degree_band(n)]
    kept = cells[:config.get("max_cells")]
    rows: list[Optional[GridRow]] = []
    for n, delta in kept:
        bound_report(n, delta)  # rejects a delta outside the band before any host is built
        rows += [grid_row(source, n, delta, g, ("mixed", "single"), config.get("node_budget"),
                          tilers=True)
                 for source, g in cell_hosts(n, delta, families,
                                             config.get("samples_per_cell") or 0,
                                             config.get("seed") or 0, ())]
    return rows if len(kept) == len(cells) else rows + [None]


def _probe_grid(args) -> list[GridRow]:
    for n in args.n:
        _check_order(n, "--n")
    return probe_question(n_values=args.n, delta_values=args.deltas,
                          samples_per_cell=args.samples, perturbed_per_cell=args.perturbed,
                          seed=args.seed, budget=args.budget)


# Each grid command: its rows, the JSON key of its rows (None: no JSON form), its CSV
# headers and the row attribute under each, and its text line (None: always CSV).
_GRIDS = {
    "audit": (lambda args: audit_tightness(budget=args.budget), "rows",
              AUDIT_HEADERS, AUDIT_HEADERS,
              lambda r: (f"{r.source}({r.n},{r.delta}) {r.mode}: optimum {r.optimum} "
                         f"vs bound {r.bound} [{'tight' if r.matches else 'GAP'}"
                         f"{', proved' if r.proved_optimal else ', budget exhausted'}]")),
    "probe": (_probe_grid, "records", PROBE_HEADERS,
              ("n", "delta", "source", "optimum", "formula_high", "formula_mid",
               "formula_low", "below_formula"),
              lambda r: (f"n={r.n} delta={r.delta} {r.source}: optimum {r.optimum} "
                         f"({r.applicable_piece} piece {r.applicable_value})"
                         + (" BELOW FORMULA" if r.below_formula else ""))),
    "experiment": (_experiment_grid, None, EXPERIMENT_HEADERS,
                   [f"report.{h}" if h in BoundReport.__dataclass_fields__ else h
                    for h in EXPERIMENT_HEADERS], None),
}


def _cmd_grid(args) -> int:
    """Run a grid preset and print its rows; hosts that beat a conjectural formula exit 2."""
    grid, key, headers, attrs, line = _GRIDS[args.command]
    rows = grid(args)
    table = [["TRUNCATED"] + [""] * (len(headers) - 1) if r is None
             else attrgetter(*attrs)(r) for r in rows]
    rows = [r for r in rows if r is not None]
    _emit(args, text=line and "\n".join(map(line, rows)),
          payload=key and {"command": args.command, key: [r.as_dict() for r in rows]},
          rows=[headers, *table])
    hits = [r for r in rows if r.below_formula]
    if not hits:
        return 0
    path = args.witness or f"{args.command}-violations.json"
    entries = [{"source": r.source, "n": r.n, "delta": r.delta, "optimum": r.single_optimum,
                "formula": r.applicable_value, "nodes_explored": r.nodes_explored,
                "graph": to_json_dict(r.host)} for r in hits]
    # The search is deterministic, so the nodes of the first solve prove it again.
    for g, entry in _write_and_reload(path, {"command": args.command, "witnesses": entries}):
        if not grid_row(entry["source"], g.n, g.min_degree(), g, ("single",),
                        entry["nodes_explored"]).below_formula:
            raise AnomalyError(f"reloaded {args.command} witness {entry['source']}"
                               f"({entry['n']},{entry['delta']}) no longer beats its formula",
                               graph=g, detail={"path": path})
    print(f"{len(hits)} hosts beat the formula; witness file {path} written and re-confirmed",
          file=sys.stderr)
    return 2


# --------------------------------------------------------------------------
# parser and entry points


def _nonnegative(text: str) -> int:
    """A seed, a count or a node budget; numpy seed sequences take non-negative integers only."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers, such as seed-clique vertices or probe orders."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers, got {text!r}") from None


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    flags = {
        "--seed": dict(type=_nonnegative, default=0, help="campaign seed (default 0)"),
        "--workers": dict(type=int, default=1, help="parallel worker count (default 1)"),
        "--json": dict(action="store_true", help="emit a schema-1 JSON document"),
        "--csv": dict(action="store_true", help="emit CSV rows"),
        "--out": dict(help="write output to this path"),
        "--budget": dict(type=_nonnegative, default=None,
                         help="search node budget override"),
        "--witness": dict(help="violation/anomaly witness file path"),
    }
    parser = _Parser(prog="tritile",
                     description="exact tiling constructions, solvers, "
                                 "and lemma verifiers")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def command(name: str, func, takes: str, help: str) -> _Parser:
        """A subcommand with the common flags it reads, named in ``takes``."""
        p = sub.add_parser(name, help=help)
        for flag in takes.split():
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)
        return p

    p = command("gen", _cmd_gen, "--seed --json",
                help="write a construction to disk with its classes")
    p.add_argument("--out", required=True,
                   help="host file path; the classes go to PATH.classes.json")
    p.add_argument("--family", required=True, choices=GEN_FAMILIES)
    p.set_defaults(seed=None)  # so that a family without a seed can refuse one
    for key, what in (("n", "host order"), ("delta", "min degree"), ("t", "3t+1 vertices")):
        p.add_argument(f"--{key}", type=int, help=f"{what} ({_readers(GEN_FAMILIES, key)})")

    p = command("solve", _cmd_solve, "--json --out --budget",
                help="exact optimum triangle tiling of a host file")
    p.add_argument("path")
    p.add_argument("--mode", choices=("mixed", "single"), default="mixed")

    p = command("tile", _cmd_tile, "--json --out --budget --witness",
                help="run a constructive tiling algorithm on a host file")
    p.add_argument("path")
    p.add_argument("--algorithm", required=True, choices=_ALGORITHMS)
    p.add_argument("--seed-clique", dest="seed_clique", type=_int_list,
                   help="comma-separated seed clique vertices (phased only)")

    p = command("verify", _cmd_verify, "--seed --workers --json --out --witness",
                help="run an exhaustive or randomized lemma campaign")
    p.add_argument("--lemma", required=True, choices=LEMMAS)
    p.set_defaults(seed=None)  # so that a lemma without a seed can refuse one
    p.add_argument("--samples", type=_nonnegative, default=None,
                   help="sample count (lemma-k8 extractor subset / k7x2)")
    p.add_argument("--restarts", type=_nonnegative, default=None,
                   help="adversarial restart count (k7x2)")

    for name, n_max, about in (
            ("ramsey", 8, "exhaustive mono-clique Ramsey search"),
            ("special-ramsey", 6, "Ramsey search over colourings missing a colour "
                                  "at a vertex")):
        p = command(name, _cmd_ramsey, "--json --out --budget", help=about)
        p.add_argument("--ell", type=int, default=3)
        p.add_argument("--colours", type=int, default=2)
        p.add_argument("--n-max", dest="n_max", type=int, default=n_max)

    command("audit", _cmd_grid, "--json --csv --out --budget --witness",
            help="exact optima vs closed-form bounds on the pinned instances")

    p = command("probe", _cmd_grid, "--seed --json --csv --out --budget --witness",
                help="search for hosts beating the single-colour formulas")
    p.add_argument("--n", type=_int_list, default="25",
                   help="comma-separated host orders (all >= 25)")
    p.add_argument("--deltas", type=_int_list, default=None,
                   help="comma-separated min degrees (default: whole band)")
    p.add_argument("--samples", type=_nonnegative, default=2,
                   help="random hosts per cell")
    p.add_argument("--perturbed", type=_nonnegative, default=1,
                   help="perturbed constructions per cell")

    p = command("experiment", _cmd_grid, "--out --witness",
                help="CSV sweep over constructions, solvers, and extracted algorithms")
    p.add_argument("--config", required=True,
                   help="JSON config with n_values and options")

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}; raise --budget", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except AnomalyError as exc:
        path = getattr(args, "witness", None) or "anomaly-witness.json"
        # Where the anomaly came from: the release, the command line, the seed.
        dump = {"schema": SCHEMA, "anomaly": str(exc), "detail": exc.detail,
                "version": __version__,
                "argv": list(sys.argv[1:] if argv is None else argv),
                "seed": getattr(args, "seed", None)}
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
