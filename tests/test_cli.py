"""CLI behaviour: exit codes, file outputs, determinism, witness plumbing."""

import contextlib
import csv
import io
import json
import os
import tempfile

import pytest
from helpers import edge_digest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritile import cli, constructions, verifiers
from tritile.graphs import (
    Tiling,
    complete_colouring,
    from_json_dict,
    read_graph,
    to_json_dict,
    write_graph,
)
from tritile.verifiers import verify_fact_k6, verify_lemma_k8


def run_in(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    return cli.run(argv)


class TestGen:
    def test_construction_with_sidecar(self, tmp_path, monkeypatch):
        rc = run_in(tmp_path, monkeypatch,
                    ["gen", "--family", "ex-bes-2", "--n", "25", "--delta", "22",
                     "--out", "host.txt"])
        assert rc == 0
        g = read_graph(tmp_path / "host.txt")
        assert (g.n, g.min_degree()) == (25, 22)
        side = json.loads((tmp_path / "host.txt.classes.json").read_text())
        assert side["schema"] == 1
        assert side["family"] == "ex-bes-2"
        assert side["classes"]

    @pytest.mark.parametrize("argv,n", [
        (["gen", "--family", "badly-k5", "--out", "g.txt"], 5),
        (["gen", "--family", "doubled-k7", "--seed", "4", "--out", "g.txt"], 14),
        (["gen", "--family", "special-blowup", "--t", "3", "--out", "g.txt"], 10),
        (["gen", "--family", "random", "--n", "15", "--delta", "12",
          "--seed", "1", "--out", "g.txt"], 15),
        (["gen", "--family", "pinned-apex", "--n", "18", "--delta", "15",
          "--out", "g.txt"], 18),
    ])
    def test_other_families(self, tmp_path, monkeypatch, argv, n):
        assert run_in(tmp_path, monkeypatch, argv) == 0
        assert read_graph(tmp_path / "g.txt").n == n

    def test_random_is_seed_deterministic(self, tmp_path, monkeypatch):
        base = ["gen", "--family", "random", "--n", "14", "--delta", "11",
                "--seed", "9"]
        run_in(tmp_path, monkeypatch, base + ["--out", "a.txt"])
        run_in(tmp_path, monkeypatch, base + ["--out", "b.txt"])
        assert (tmp_path / "a.txt").read_text() == (tmp_path / "b.txt").read_text()

    def test_gen_requires_out(self, tmp_path, monkeypatch):
        assert run_in(tmp_path, monkeypatch,
                      ["gen", "--family", "badly-k5"]) == 1

    def test_gen_requires_family_params(self, tmp_path, monkeypatch):
        assert run_in(tmp_path, monkeypatch,
                      ["gen", "--family", "ex-triangle", "--n", "12",
                       "--out", "g.txt"]) == 1

    @pytest.mark.parametrize("argv, flag, n", [
        (["gen", "--family", "ex-bes-1", "--n", "65537", "--delta", "65536"], "--n", 65537),
        (["gen", "--family", "random", "--n", "65537", "--delta", "3"], "--n", 65537),
        (["gen", "--family", "special-blowup", "--t", "21846"], "--t", 65539),
        (["probe", "--n", "25,65537"], "--n", 65537),
    ])
    def test_orders_above_the_vertex_cap_are_one_error_line(self, tmp_path, monkeypatch,
                                                            capsys, argv, flag, n):
        # The builders are replaced, so that a missing check fails here
        # instead of building the host's 2^31 edges.
        def built(*args, **kwargs):
            raise AssertionError("a host was built")

        monkeypatch.setitem(cli.CONSTRUCTIONS, "ex-bes-1", (built, built))
        for name in ("random_min_degree_colouring", "special_blowup", "probe_question"):
            monkeypatch.setattr(cli, name, built)
        assert run_in(tmp_path, monkeypatch, argv + ["--out", "g.txt"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {flag} asks for a host of {n} vertices; hosts have at most 65536"]
        assert not (tmp_path / "g.txt").exists()

    def test_out_of_memory_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        # A legal order can still need more memory than the machine has:
        # special-blowup at t = 21845 asks for 65,536 vertices and 2^31 edges.
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(constructions, "_pattern_blow_up", exhausted)
        argv = ["gen", "--family", "special-blowup", "--t", "21845", "--out", "g.txt"]
        assert run_in(tmp_path, monkeypatch, argv) == 1
        assert capsys.readouterr().err.splitlines() == ["error: out of memory"]
        assert not (tmp_path / "g.txt").exists()


class TestSeedFlag:
    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "random", "--n", "10", "--delta", "8", "--seed", "-1",
         "--out", "x"],
        ["verify", "--lemma", "k7x2", "--samples", "10", "--restarts", "1",
         "--seed", "-1"],
    ])
    def test_negative_seed_is_one_error_line(self, tmp_path, monkeypatch, capsys, argv):
        assert run_in(tmp_path, monkeypatch, argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: argument --seed: ")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv,flag", [
        (["verify", "--lemma", "lemma-k8", "--samples", "-5"], "--samples"),
        (["verify", "--lemma", "k7x2", "--samples", "-1", "--restarts", "1"], "--samples"),
        (["verify", "--lemma", "k7x2", "--samples", "10", "--restarts", "-1"], "--restarts"),
        (["probe", "--n", "25", "--deltas", "21", "--perturbed", "-1"], "--perturbed"),
        (["solve", "host.txt", "--budget", "-3"], "--budget"),
        (["tile", "host.txt", "--algorithm", "moon-small", "--budget", "-1"], "--budget"),
    ])
    def test_negative_count_is_one_error_line(self, tmp_path, monkeypatch, capsys, argv, flag):
        # Rejected by the parser, before lemma-k8 would scan its 2^27 codes.
        assert run_in(tmp_path, monkeypatch, argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: argument {flag}: ")


class TestSolveAndTile:
    @pytest.fixture()
    def host(self, tmp_path, monkeypatch):
        run_in(tmp_path, monkeypatch,
               ["gen", "--family", "ex-triangle", "--n", "12", "--delta", "10",
                "--out", "host.txt"])
        return tmp_path / "host.txt"

    def test_solve_json(self, host, tmp_path, monkeypatch, capsys):
        rc = run_in(tmp_path, monkeypatch,
                    ["solve", str(host), "--mode", "mixed", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["optimum"] == 2
        assert doc["proved_optimal"] is True

    def test_solve_single_mode(self, host, tmp_path, monkeypatch, capsys):
        rc = run_in(tmp_path, monkeypatch,
                    ["solve", str(host), "--mode", "single", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["mode"] == "single"

    def test_tile_algorithm(self, host, tmp_path, monkeypatch, capsys):
        rc = run_in(tmp_path, monkeypatch,
                    ["tile", str(host), "--algorithm", "bes-small", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["verified"] is True
        assert doc["count"] >= 1
        colours = {tuple(t["vertices"]): t["colour"] for t in doc["tiling"]}
        assert len(set(colours.values())) == 1

    def test_tile_band_mismatch_is_usage_error(self, host, tmp_path, monkeypatch):
        rc = run_in(tmp_path, monkeypatch,
                    ["tile", str(host), "--algorithm", "moon-large"])
        assert rc == 1

    def test_missing_file(self, tmp_path, monkeypatch):
        assert run_in(tmp_path, monkeypatch, ["solve", "absent.txt"]) == 1

    def test_tile_phased(self, tmp_path, monkeypatch, capsys):
        g = complete_colouring(15, 2, 0)  # all red
        write_graph(g, tmp_path / "k15.txt")
        rc = run_in(tmp_path, monkeypatch,
                    ["tile", str(tmp_path / "k15.txt"), "--algorithm", "phased",
                     "--seed-clique", "0,1,2,3,4,5,6,7,8,9,10,11", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["count"] >= (15 - 2) // 3

    def test_phased_needs_seed_clique(self, tmp_path, monkeypatch):
        g = complete_colouring(15, 2, 0)
        write_graph(g, tmp_path / "k15.txt")
        assert run_in(tmp_path, monkeypatch,
                      ["tile", str(tmp_path / "k15.txt"),
                       "--algorithm", "phased"]) == 1

    @pytest.mark.parametrize("seed", ["-1,0,1", "0,1,15", "0,-1"])
    def test_phased_seed_outside_the_host_is_one_error_line(self, tmp_path, monkeypatch,
                                                            capsys, seed):
        write_graph(complete_colouring(15, 2, 0), tmp_path / "k15.txt")
        rc = run_in(tmp_path, monkeypatch,
                    ["tile", str(tmp_path / "k15.txt"), "--algorithm", "phased",
                     f"--seed-clique={seed}"])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: seed must be a monochromatic clique of the host\n"

    @pytest.mark.parametrize("argv, flag", [
        (["tile", "k15.txt", "--algorithm", "phased", "--seed-clique", "0,x"], "--seed-clique"),
        (["tile", "k15.txt", "--algorithm", "phased", "--seed-clique", "0,,1"], "--seed-clique"),
        (["probe", "--n", "25,x"], "--n"),
        (["probe", "--n", "25", "--deltas", "21,2.5"], "--deltas"),
    ])
    def test_malformed_integer_list_is_one_error_line(self, tmp_path, monkeypatch, capsys,
                                                      argv, flag):
        write_graph(complete_colouring(15, 2, 0), tmp_path / "k15.txt")
        assert run_in(tmp_path, monkeypatch, argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: argument {flag}: must be comma-separated integers")

    def test_solve_reads_json_graphs(self, tmp_path, monkeypatch, capsys):
        from tritile.graphs import to_json_dict
        g = complete_colouring(6, 2, 0)
        (tmp_path / "g.json").write_text(json.dumps(to_json_dict(g)))
        rc = run_in(tmp_path, monkeypatch,
                    ["solve", str(tmp_path / "g.json"), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["optimum"] == 2

    def test_solve_reads_json_after_leading_whitespace(self, tmp_path, monkeypatch,
                                                       capsys):
        (tmp_path / "g.json").write_text(
            '\n  {"n": 3, "r": 2, "edges": [[0, 1, 0], [0, 2, 0], [1, 2, 0]]}')
        rc = run_in(tmp_path, monkeypatch,
                    ["solve", str(tmp_path / "g.json"), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["optimum"] == 1

    @pytest.mark.parametrize("text", [
        '{"n": 3, "r": 2, "edges": [1, 2]}',
        '{"n": "3", "r": 2, "edges": [[0, 1, 0]]}',
        '  {"n": 3, "r": 2, "edges": [[0, 1]]}',
        '{"n": 1000000, "r": 2, "edges": []}',
        '{"n": true, "r": 2, "edges": []}',
        '{"n": 3, "r": true, "edges": []}',
        '{"n": 3, "r": 2, "edges": [[0, 1, true]]}',
    ])
    def test_malformed_json_graph_is_one_error_line(self, tmp_path, monkeypatch,
                                                    capsys, text):
        (tmp_path / "g.json").write_text(text)
        rc = run_in(tmp_path, monkeypatch, ["solve", str(tmp_path / "g.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: graph json") and err.count("\n") == 1


    def test_huge_declared_order_is_one_error_line(self, tmp_path, monkeypatch,
                                                   capsys):
        (tmp_path / "g.txt").write_text("1000000000 2\n")
        rc = run_in(tmp_path, monkeypatch, ["solve", str(tmp_path / "g.txt")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: vertex count") and err.count("\n") == 1


class TestVerifyCommand:
    def test_clean_lemma_exits_zero(self, tmp_path, monkeypatch, capsys):
        rc = run_in(tmp_path, monkeypatch,
                    ["verify", "--lemma", "fact-k6", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["reports"][0]["violation_count"] == 0

    def test_violations_exit_two_with_reconfirmed_witness(
            self, tmp_path, monkeypatch, capsys):
        # Swap in the K5 analogue, whose 12 violations are genuine.
        monkeypatch.setattr(cli, "verify_fact_k6",
                            lambda workers: verify_fact_k6(n=5, min_triangles=1))
        rc = run_in(tmp_path, monkeypatch, ["verify", "--lemma", "fact-k6"])
        assert rc == 2
        doc = json.loads((tmp_path / "fact-k6-violations.json").read_text())
        assert doc["violation_count"] == 12
        assert doc["witnesses"][0]["code"] == 220
        capsys.readouterr()

    def test_witness_path_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "verify_fact_k6",
                            lambda workers: verify_fact_k6(n=5, min_triangles=1))
        rc = run_in(tmp_path, monkeypatch,
                    ["verify", "--lemma", "fact-k6", "--witness", "w.json"])
        assert rc == 2
        assert (tmp_path / "w.json").exists()
        capsys.readouterr()

    def test_small_k7x2_campaign(self, tmp_path, monkeypatch, capsys):
        rc = run_in(tmp_path, monkeypatch,
                    ["verify", "--lemma", "k7x2", "--samples", "200",
                     "--restarts", "2", "--seed", "5", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["reports"][0]["extra"]["extractor_failures"] == 0

    @pytest.mark.parametrize("argv, campaign, given", [
        (["--lemma", "k7x2"], "verify_k7_blowup", {}),
        (["--lemma", "k7x2", "--samples", "10"], "verify_k7_blowup", {"samples": 10}),
        (["--lemma", "k7x2", "--restarts", "0"], "verify_k7_blowup",
         {"adversarial_restarts": 0}),
        (["--lemma", "lemma-k8"], "verify_lemma_k8", {}),
        (["--lemma", "lemma-k8", "--samples", "0"], "verify_lemma_k8",
         {"extractor_samples": 0}),
    ])
    def test_left_out_flags_take_the_campaign_defaults(self, tmp_path, monkeypatch, capsys,
                                                       argv, campaign, given):
        seen = []

        def record(**kwargs):
            seen.append(kwargs)
            return verify_fact_k6()

        monkeypatch.setattr(cli, campaign, record)
        assert run_in(tmp_path, monkeypatch, ["verify", *argv]) == 0
        assert seen == [{"seed": 0, "workers": 1, **given}]
        capsys.readouterr()

    def test_unknown_lemma_rejected(self, tmp_path, monkeypatch):
        assert run_in(tmp_path, monkeypatch,
                      ["verify", "--lemma", "nope"]) == 1

    def test_reconfirm_helper_on_real_k7_witnesses(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rep = verify_lemma_k8(n=7, workers=1)
        cli._write_and_reconfirm_witnesses("lemma-k8", [rep], "k7.json")
        doc = json.loads((tmp_path / "k7.json").read_text())
        assert doc["violation_count"] == 4662
        assert len(doc["witnesses"]) == 32


class TestAnomalyExit:
    def test_anomaly_dumps_witness_and_exits_three(
            self, tmp_path, monkeypatch, capsys):
        from tritile.graphs import AnomalyError

        def boom(g, budget=None):
            raise AnomalyError("manufactured failure", graph=g,
                               detail={"reason": "test"})

        monkeypatch.setitem(cli._ALGORITHMS, "moon-small", ("budget", boom))
        g = complete_colouring(6, 2, 0)
        write_graph(g, tmp_path / "g.txt")
        rc = run_in(tmp_path, monkeypatch,
                    ["tile", str(tmp_path / "g.txt"), "--algorithm", "moon-small"])
        assert rc == 3
        doc = json.loads((tmp_path / "anomaly-witness.json").read_text())
        assert doc["detail"] == {"reason": "test"}
        assert doc["graph"]["n"] == 6
        assert doc["seed"] is None  # tile takes no --seed
        capsys.readouterr()

    def test_anomaly_dump_names_version_argv_and_seed(self, tmp_path, monkeypatch, capsys):
        from tritile import __version__
        from tritile.graphs import AnomalyError

        def boom(*args, **kwargs):
            raise AnomalyError("manufactured failure")

        monkeypatch.setattr(cli, "verify_k7_blowup", boom)
        argv = ["verify", "--lemma", "k7x2", "--samples", "5", "--seed", "17",
                "--witness", "dump.json"]
        assert run_in(tmp_path, monkeypatch, argv) == 3
        doc = json.loads((tmp_path / "dump.json").read_text())
        assert (doc["version"], doc["argv"], doc["seed"]) == (__version__, argv, 17)
        capsys.readouterr()


# The common flags, each with the argument it is given here (None for a
# switch) and the value it parses to; a subcommand takes only the ones in
# FLAGS_TAKEN and refuses the others.
COMMON_FLAGS = {"--seed": ("5", 5), "--workers": ("2", 2), "--json": (None, True),
                "--csv": (None, True), "--out": ("o.txt", "o.txt"),
                "--budget": ("100", 100), "--witness": ("w.json", "w.json")}
FLAGS_TAKEN = {
    "gen": "--seed --json --out",
    "solve": "--json --out --budget",
    "tile": "--json --out --budget --witness",
    "verify": "--seed --workers --json --out --witness",
    "ramsey": "--json --out --budget",
    "special-ramsey": "--json --out --budget",
    "audit": "--json --csv --out --budget --witness",
    "probe": "--seed --json --csv --out --budget --witness",
    "experiment": "--out --witness",
}
# An argv per subcommand that writes o.txt and exits 0 without a refused flag.
FLAG_BASES = {
    "gen": ["gen", "--family", "badly-k5"],
    "solve": ["solve", "host.txt"],
    "tile": ["tile", "host.txt", "--algorithm", "bes-small"],
    "verify": ["verify", "--lemma", "fact-k6"],
    "ramsey": ["ramsey"],
    "special-ramsey": ["special-ramsey"],
    "audit": ["audit"],
    "probe": ["probe", "--n", "25", "--deltas", "21", "--samples", "1", "--perturbed", "0"],
    "experiment": ["experiment", "--config", "cfg.json"],
}
DROPPED_FLAGS = [(command, flag) for command, taken in FLAGS_TAKEN.items()
                 for flag in COMMON_FLAGS if flag not in taken.split()]


LEMMA_REFUSALS = [
    ("fact-k6", "--samples"), ("claim-k7", "--samples"), ("bowtie", "--samples"),
    ("fact-k6", "--restarts"), ("claim-k7", "--restarts"), ("lemma-k8", "--restarts"),
    ("bowtie", "--restarts"), ("fact-k6", "--seed"), ("claim-k7", "--seed"),
    ("bowtie", "--seed"),
]


def flag_argv(flag: str) -> list[str]:
    given = COMMON_FLAGS[flag][0]
    return [flag] if given is None else [flag, given]


class TestFlagSurface:
    def test_the_tables_cover_every_subcommand(self):
        assert set(FLAGS_TAKEN) == set(FLAG_BASES) and len(FLAGS_TAKEN) == 9
        assert sum(len(t.split()) for t in FLAGS_TAKEN.values()) == 34
        assert len(DROPPED_FLAGS) == 29

    @pytest.mark.parametrize("command, flag", [(c, f) for c, taken in FLAGS_TAKEN.items()
                                               for f in taken.split()])
    def test_every_taken_flag_parses(self, command, flag):
        argv = FLAG_BASES[command] + flag_argv(flag)
        if command == "gen" and flag != "--out":
            argv += ["--out", "o.txt"]
        args = cli._build_parser().parse_args(argv)
        assert getattr(args, flag[2:]) == COMMON_FLAGS[flag][1]

    @pytest.mark.parametrize("command, flag", DROPPED_FLAGS)
    def test_a_flag_the_command_ignores_is_one_error_line(self, tmp_path, monkeypatch, capsys,
                                                          command, flag):
        write_graph(constructions.ex_triangle(12, 10), tmp_path / "host.txt")
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"n_values": [12], "delta_values": [10], "families": ["ex-triangle"]}))
        argv = FLAG_BASES[command] + flag_argv(flag) + ["--out", "o.txt"]
        assert run_in(tmp_path, monkeypatch, argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: unrecognized arguments: {' '.join(flag_argv(flag))}"]
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("lemma, flag", LEMMA_REFUSALS)
    def test_a_campaign_option_the_lemma_ignores_is_one_error_line(
            self, tmp_path, monkeypatch, capsys, lemma, flag):
        argv = ["verify", "--lemma", lemma, flag, "3", "--out", "o.txt"]
        assert run_in(tmp_path, monkeypatch, argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag} applies to ")
        assert not (tmp_path / "o.txt").exists()


# The per-choice flags that each gen family, tile algorithm and verify lemma
# reads, written out here rather than read from cli.
CHOICE_READS = {
    "gen": {**dict.fromkeys(("ex-triangle", "ex-triangle-alt", "ex-bes-1", "ex-bes-2",
                             "ex-bes-3", "pinned-apex"), "--n --delta"),
            "special-blowup": "--t --n --delta", "random": "--n --delta --seed",
            "badly-k5": "", "doubled-k7": "--seed"},
    "tile": {**dict.fromkeys(("moon-small", "bes-small", "moon-large", "bes-large"), "--budget"),
             "phased": "--seed-clique"},
    "verify": {"fact-k6": "", "claim-k7": "", "lemma-k8": "--seed --samples", "bowtie": "",
               "k7x2": "--seed --samples --restarts"},
}
PER_CHOICE_FLAGS = {"gen": "--n --delta --t --seed", "tile": "--budget --seed-clique",
                    "verify": "--seed --samples --restarts"}
UNREAD_FLAGS = [(command, choice, flag) for command, table in CHOICE_READS.items()
                for choice, reads in table.items() for flag in PER_CHOICE_FLAGS[command].split()
                if flag not in reads.split()]
# A value for each per-choice flag, and each choice's own flags with values
# that it accepts; special-blowup reads --t, or --n and --delta.
FLAG_VALUES = {"--n": "12", "--delta": "10", "--t": "3", "--seed": "5", "--budget": "3",
               "--seed-clique": "0,1,2", "--samples": "3", "--restarts": "3"}
CHOICE_FLAGS = {
    "gen": {"ex-triangle": "--n 12 --delta 10", "ex-triangle-alt": "--n 25 --delta 22",
            "ex-bes-1": "--n 20 --delta 16", "ex-bes-2": "--n 25 --delta 22",
            "ex-bes-3": "--n 18 --delta 15", "pinned-apex": "--n 18 --delta 15",
            "special-blowup": "--t 3", "random": "--n 15 --delta 12 --seed 1",
            "badly-k5": "", "doubled-k7": "--seed 4"},
    "tile": {**dict.fromkeys(("moon-small", "bes-small", "moon-large", "bes-large"),
                             "--budget 100"),
             "phased": "--seed-clique 0,1,2,3,4,5,6,7,8,9,10,11"},
    "verify": {"fact-k6": "", "claim-k7": "", "lemma-k8": "--seed 3 --samples 5",
               "bowtie": "", "k7x2": "--seed 3 --samples 5 --restarts 1"},
}
TILE_HOSTS = {"moon-small": "tri.txt", "bes-small": "tri.txt", "moon-large": "high.txt",
              "bes-large": "top.txt", "phased": "k15.txt"}
# What each lemma's campaign is called with, beside workers, given CHOICE_FLAGS.
CAMPAIGN_KEYWORDS = {"fact-k6": {}, "claim-k7": {}, "bowtie": {},
                     "lemma-k8": {"seed": 3, "extractor_samples": 5},
                     "k7x2": {"seed": 3, "samples": 5, "adversarial_restarts": 1}}
CHOICE_OPTION = {"gen": "--family", "tile": "--algorithm", "verify": "--lemma"}


def choice_argv(command: str, choice: str, flags: str) -> list[str]:
    """An argv running ``choice`` with ``flags``, its output to o.txt."""
    path = [TILE_HOSTS[choice]] if command == "tile" else []
    return [command, *path, CHOICE_OPTION[command], choice, *flags.split(), "--out", "o.txt"]


def write_choice_hosts(tmp_path) -> None:
    write_graph(constructions.ex_triangle(12, 10), tmp_path / "tri.txt")
    write_graph(constructions.ex_bes_1(25, 22), tmp_path / "high.txt")
    write_graph(constructions.ex_triangle(66, 65), tmp_path / "top.txt")
    write_graph(complete_colouring(15, 2, 0), tmp_path / "k15.txt")


def record_campaigns(monkeypatch) -> list:
    """Replace the campaigns with one that records its keywords and holds."""
    seen = []

    def record(**kwargs):
        seen.append(kwargs)
        return verify_fact_k6()

    for name in ("verify_fact_k6", "verify_claim_k7", "verify_lemma_k8", "verify_k7_blowup"):
        monkeypatch.setattr(cli, name, record)
    monkeypatch.setattr(cli, "verify_bowtie_lemmas", lambda **kwargs: [record(**kwargs)])
    return seen


class TestChoiceFlags:
    def test_the_unread_pairs(self):
        counts = {c: sum(1 for command, _, _ in UNREAD_FLAGS if command == c)
                  for c in PER_CHOICE_FLAGS}
        assert counts == {"gen": 21, "tile": 5, "verify": 10}
        assert sorted((choice, flag) for command, choice, flag in UNREAD_FLAGS
                      if command == "verify") == sorted(LEMMA_REFUSALS)

    @pytest.mark.parametrize("command, choice, flag",
                             [p for p in UNREAD_FLAGS if p[0] != "verify"])
    def test_a_flag_the_choice_ignores_is_one_error_line(self, tmp_path, monkeypatch, capsys,
                                                         command, choice, flag):
        write_choice_hosts(tmp_path)
        before = set(os.listdir(tmp_path))
        argv = choice_argv(command, choice,
                           f"{CHOICE_FLAGS[command][choice]} {flag} {FLAG_VALUES[flag]}")
        assert run_in(tmp_path, monkeypatch, argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag} applies to ")
        assert err[0].endswith(f", not {choice}")
        assert set(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("command, choice, own",
                             [(c, choice, own) for c, table in CHOICE_FLAGS.items()
                              for choice, own in table.items()]
                             + [("gen", "special-blowup", "--n 12 --delta 8")])
    def test_a_choice_given_its_own_flags_exits_zero(self, tmp_path, monkeypatch, capsys,
                                                     command, choice, own):
        write_choice_hosts(tmp_path)
        seen = record_campaigns(monkeypatch)
        assert run_in(tmp_path, monkeypatch, choice_argv(command, choice, own)) == 0
        assert (tmp_path / "o.txt").exists()
        if command == "verify":
            assert seen == [{"workers": 1, **CAMPAIGN_KEYWORDS[choice]}]
        capsys.readouterr()

    @pytest.mark.parametrize("family, n", [("random", "12"), ("doubled-k7", None)])
    def test_a_left_out_seed_is_recorded_as_zero(self, tmp_path, monkeypatch, capsys,
                                                 family, n):
        sizes = ["--n", n, "--delta", "9"] if n else []
        assert run_in(tmp_path, monkeypatch,
                      ["gen", "--family", family, *sizes, "--out", "g.txt"]) == 0
        side = json.loads((tmp_path / "g.txt.classes.json").read_text())
        assert side["params"]["seed"] == 0
        seeded = ["gen", "--family", family, *sizes, "--seed", "0", "--out", "s.txt"]
        assert run_in(tmp_path, monkeypatch, seeded) == 0
        assert (tmp_path / "s.txt").read_text() == (tmp_path / "g.txt").read_text()
        capsys.readouterr()

    @pytest.mark.parametrize("sizes", [["--n", "12"], ["--delta", "8"],
                                       ["--n", "12", "--delta", "8"]])
    def test_special_blowup_takes_t_or_sizes_not_both(self, tmp_path, monkeypatch, capsys,
                                                      sizes):
        argv = ["gen", "--family", "special-blowup", "--t", "3", *sizes, "--out", "g.txt"]
        assert run_in(tmp_path, monkeypatch, argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --family special-blowup takes --t or --n --delta, not both"]
        assert os.listdir(tmp_path) == []

    def test_size_flags_name_the_families_that_read_them(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "400")
        with pytest.raises(SystemExit):
            cli.run(["gen", "--help"])
        helps = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
                 if line.lstrip().startswith("--")}
        sizes = ("(ex-triangle, ex-triangle-alt, ex-bes-1, ex-bes-2, ex-bes-3, pinned-apex, "
                 "special-blowup and random)")
        assert helps["--n"].endswith(sizes) and helps["--delta"].endswith(sizes)
        assert helps["--t"].endswith("(special-blowup)")

    @pytest.mark.parametrize("argv, need", [
        (["--family", "ex-triangle", "--n", "12"], "--delta"),
        (["--family", "random", "--delta", "9"], "--n"),
        (["--family", "special-blowup", "--n", "12"], "--delta"),
        (["--family", "special-blowup"], "--t"),
    ])
    def test_a_missing_flag_is_named(self, tmp_path, monkeypatch, capsys, argv, need):
        assert run_in(tmp_path, monkeypatch, ["gen", *argv, "--out", "g.txt"]) == 1
        assert capsys.readouterr().err == f"error: --family {argv[1]} needs {need}\n"


class TestReportingCommands:
    def test_audit_csv_round_trip(self, tmp_path, monkeypatch):
        rc = run_in(tmp_path, monkeypatch, ["audit", "--csv", "--out", "a.csv"])
        assert rc == 0
        with open(tmp_path / "a.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(cli.AUDIT_HEADERS)
        assert len(rows) == 8
        assert all(row[4] == row[5] for row in rows[1:])  # optimum == bound

    def test_probe_csv_columns(self, tmp_path, monkeypatch):
        rc = run_in(tmp_path, monkeypatch,
                    ["probe", "--n", "25", "--deltas", "21", "--samples", "1",
                     "--perturbed", "0", "--csv", "--out", "p.csv"])
        assert rc == 0
        with open(tmp_path / "p.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "delta", "source", "optimum", "c1", "c2", "c3",
                           "below"]
        assert all(row[7] == "False" for row in rows[1:])

    def test_probe_byte_determinism(self, tmp_path, monkeypatch):
        argv = ["probe", "--n", "25", "--deltas", "21", "--samples", "1",
                "--perturbed", "1", "--seed", "3", "--csv"]
        run_in(tmp_path, monkeypatch, argv + ["--out", "x.csv"])
        run_in(tmp_path, monkeypatch, argv + ["--out", "y.csv"])
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()

    def test_ramsey_json(self, tmp_path, monkeypatch, capsys):
        rc = run_in(tmp_path, monkeypatch, ["ramsey", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["value"] == 6
        assert doc["witness_graph"]["n"] == 5

    def test_ramsey_searches_take_the_budget(self, tmp_path, monkeypatch, capsys):
        rc = run_in(tmp_path, monkeypatch, ["ramsey", "--budget", "100", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert (doc["value"], doc["checked"], doc["witness_n"]) == (None, {"3": 8, "4": 64}, 4)
        rc = run_in(tmp_path, monkeypatch, ["special-ramsey", "--budget", "0", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert (doc["value"], doc["checked"]) == (None, {})

    @pytest.mark.parametrize("argv, least", [
        (["ramsey", "--n-max", "-1"], 3), (["ramsey", "--ell", "4", "--n-max", "3"], 4),
        (["special-ramsey", "--n-max", "0"], 1),
    ])
    def test_an_n_max_below_the_first_order_is_one_error_line(self, tmp_path, monkeypatch,
                                                              capsys, argv, least):
        assert run_in(tmp_path, monkeypatch, argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: n_max must be at least the first order scanned, {least}, "
            f"got {argv[-1]}"]

    def test_three_colour_ramsey_json_is_pinned(self, tmp_path, monkeypatch, capsys):
        rc = run_in(tmp_path, monkeypatch, ["ramsey", "--colours", "3", "--n-max", "6", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        del doc["elapsed"]
        assert doc == {"schema": 1, "command": "ramsey", "ell": 3, "colours": 3, "n_max": 6,
                       "value": None, "resolved": False, "witness_n": 6, "witness_code": 635283,
                       "checked": {"3": 27, "4": 729, "5": 59049, "6": 14348907},
                       "witness_graph": to_json_dict(complete_colouring(6, 3, 635283))}
        assert from_json_dict(doc["witness_graph"]).mono_triangles() == []

    def test_colour_count_above_eight_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        assert run_in(tmp_path, monkeypatch, ["ramsey", "--colours", "9", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need ell >= 2 and 2 <= r <= 8, got ell=3, r=9\n"

    def test_special_ramsey_text(self, tmp_path, monkeypatch, capsys):
        rc = run_in(tmp_path, monkeypatch, ["special-ramsey"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "= 4" in out

    def test_reused_parser_matches_a_fresh_one(self, tmp_path, monkeypatch, capsys):
        probe = ["probe", "--n", "25", "--deltas", "21", "--samples", "1", "--perturbed", "0"]
        calls = [probe + ["--json"], ["audit", "--csv", "--budget", "100000"], probe]

        def output(argv):
            assert run_in(tmp_path, monkeypatch, argv) == 0
            return capsys.readouterr().out

        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(output(argv))
        reused = [output(argv) for argv in calls]
        assert reused == fresh
        assert cli._build_parser() is cli._build_parser()


class TestExperiment:
    def test_rows_and_round_trip(self, tmp_path, monkeypatch):
        config = {"n_values": [12], "delta_values": [10], "families":
                  ["ex-triangle"], "samples_per_cell": 1, "seed": 2}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        rc = run_in(tmp_path, monkeypatch,
                    ["experiment", "--config", "cfg.json", "--out", "e.csv"])
        assert rc == 0
        with open(tmp_path / "e.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(cli.EXPERIMENT_HEADERS)
        assert [r[0] for r in rows[1:]] == ["ex-triangle", "random-0"]
        by = dict(zip(rows[0], rows[1]))
        assert by["mixed_optimum"] == "2"
        assert by["moon_small"] == "2"
        assert by["extremal_min"] == "2"
        assert by["status"] == "ok"

    def test_truncation_marker(self, tmp_path, monkeypatch):
        config = {"n_values": [12], "delta_values": [10, 10], "families":
                  ["ex-triangle"], "max_cells": 1}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        rc = run_in(tmp_path, monkeypatch,
                    ["experiment", "--config", "cfg.json", "--out", "e.csv"])
        assert rc == 0
        with open(tmp_path / "e.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[-1][0] == "TRUNCATED"
        assert len(rows[-1]) == len(cli.EXPERIMENT_HEADERS)

    def test_config_validation(self, tmp_path, monkeypatch):
        (tmp_path / "cfg.json").write_text(json.dumps({"families": ["x"]}))
        assert run_in(tmp_path, monkeypatch,
                      ["experiment", "--config", "cfg.json"]) == 1

    @pytest.mark.parametrize("config", [
        {"n_values": "x"},
        [1, 2],
        {"n_values": [12], "delta_values": "ab"},
        {"n_values": [12], "families": "ex-triangle"},
        {"n_values": [12], "seed": "1"},
        {"n_values": [10000000]},
        {"n_values": [12], "seed": -1, "samples_per_cell": 1},
        {"n_values": [12], "delta_values": [-3], "samples_per_cell": 1},
        {"n_values": [12], "delta_values": [10], "samples_per_cell": -4},
        {"n_values": [12], "delta_values": [10], "max_cells": 0},
        {"n_values": [12], "delta_values": [10], "node_budget": -1},
    ])
    def test_malformed_config_is_one_error_line(self, tmp_path, monkeypatch, capsys,
                                                config):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run_in(tmp_path, monkeypatch,
                      ["experiment", "--config", "cfg.json", "--out", "e.csv"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: experiment config")
        if isinstance(config, dict):
            assert any(f"config {key} " in err[0] for key in config)
        assert not (tmp_path / "e.csv").exists()


# `tritile experiment` on the config of test_hosts_and_rows_are_pinned: its
# CSV and the edge digest of each host it solves, recorded before the cell
# hosts had one builder, so that the spawn keys (n, delta, k) and the host
# order stay fixed.
PINNED_EXPERIMENT_CSV = """\
source,n,delta,mixed_optimum,mixed_proved,single_optimum,single_proved,moon_small,bes_small,moon_large,bes_large,moon_bound,moon_piece,moon_asymptotic,bes_bound,bes_piece,bes_conjectural,extremal_min,status
ex-triangle,12,10,2,True,2,True,2,2,,,2,low,False,1,low,False,2,ok
ex-bes-1,12,10,3,True,2,True,2,2,,,2,low,False,1,low,False,2,ok
ex-bes-3,12,10,2,True,1,True,2,1,,,2,low,False,1,low,False,2,ok
random-0,12,10,4,True,4,True,2,1,,,2,low,False,1,low,False,2,ok
random-1,12,10,4,True,4,True,2,2,,,2,low,False,1,low,False,2,ok
ex-triangle,12,11,3,True,3,True,,,3,,3,high,False,2,high,True,3,ok
ex-triangle-alt,12,11,3,True,3,True,,,3,,3,high,False,2,high,True,3,ok
ex-bes-1,12,11,3,True,2,True,,,3,,3,high,False,2,high,True,3,ok
ex-bes-3,12,11,4,True,2,True,,,3,,3,high,False,2,high,True,3,ok
random-0,12,11,4,True,4,True,,,3,,3,high,False,2,high,True,3,ok
random-1,12,11,4,True,4,True,,,3,,3,high,False,2,high,True,3,ok
ex-triangle,20,16,0,True,0,True,0,0,,,0,low,False,0,low,False,0,ok
ex-bes-1,20,16,5,True,3,True,0,0,,,0,low,False,0,low,False,0,ok
ex-bes-3,20,16,0,True,0,True,0,0,,,0,low,False,0,low,False,0,ok
random-0,20,16,6,True,6,True,0,0,,,0,low,False,0,low,False,0,ok
random-1,20,16,6,True,6,True,0,0,,,0,low,False,0,low,False,0,ok
ex-triangle,20,17,4,True,4,True,,,,,4,mid,True,3,low,True,4,ok
ex-bes-1,20,17,5,True,3,True,,,,,4,mid,True,3,low,True,4,ok
ex-bes-3,20,17,4,True,3,True,,,,,4,mid,True,3,low,True,4,ok
random-0,20,17,6,True,6,True,,,,,4,mid,True,3,low,True,4,ok
random-1,20,17,6,True,6,True,,,,,4,mid,True,3,low,True,4,ok
ex-triangle,20,18,5,True,5,True,,,5,,5,high,False,3,high,True,5,ok
ex-triangle-alt,20,18,5,True,5,True,,,5,,5,high,False,3,high,True,5,ok
ex-bes-1,20,18,6,True,3,True,,,5,,5,high,False,3,high,True,5,ok
ex-bes-3,20,18,6,True,4,True,,,5,,5,high,False,3,high,True,5,ok
random-0,20,18,6,True,6,True,,,5,,5,high,False,3,high,True,5,ok
random-1,20,18,6,True,6,True,,,5,,5,high,False,3,high,True,5,ok
ex-triangle,20,19,6,True,6,True,,,6,,6,high,False,4,high,True,6,ok
ex-triangle-alt,20,19,6,True,6,True,,,6,,6,high,False,4,high,True,6,ok
ex-bes-1,20,19,6,True,4,True,,,6,,6,high,False,4,high,True,6,ok
ex-bes-3,20,19,6,True,4,True,,,6,,6,high,False,4,high,True,6,ok
random-0,20,19,6,True,6,True,,,6,,6,high,False,4,high,True,6,ok
random-1,20,19,6,True,6,True,,,6,,6,high,False,4,high,True,6,ok
"""
PINNED_EXPERIMENT_HOSTS = [
        '6be9311ab187b577', '9c77fdbe0754b5a4', '6bfe34ca091ee8bd', 'f9e3c3e1853fc4ac',
        '817a6ee5b7d66630', '02dd2fc9a855dd55', 'edde2cbf2eea738f', '8d108f6cc4440a90',
        '03fbeff2f1511827', 'e5964599bd9939f9', '432557c58cb2f447', 'a5ded6183dc6f58b',
        'd1865e4fcf69705a', 'a5ded6183dc6f58b', '4d1695ed2fd24afe', 'b0d11043b50df7f5',
        '89d3cc1132704787', '1638153d98cd3676', 'd3dfa5899168aabb', '6787d5cea927b829',
        'e75acefa29c5d023', 'dcab45f126ab4627', 'b8730f142784615b', 'c4bb893dc6a019b1',
        'd172fe1d4a9ff2e2', '29f30f4d17b065d0', 'f390c8ae76f45c42', 'e10417ae752b4b28',
        '961235191a59639e', 'ce05ce0156a085c4', '6b879a8588aaad75', '97c040430a5f9d79',
        'f1358fd014f3205b',
]


class TestExperimentPins:
    def test_hosts_and_rows_are_pinned(self, tmp_path, monkeypatch):
        solved = []
        table = verifiers._triangle_table

        def recording(g):
            solved.append(edge_digest(g))
            return table(g)

        monkeypatch.setattr(verifiers, "_triangle_table", recording)
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"n_values": [12, 20], "samples_per_cell": 2, "seed": 11}))
        assert run_in(tmp_path, monkeypatch,
                      ["experiment", "--config", "cfg.json", "--out", "e.csv"]) == 0
        assert (tmp_path / "e.csv").read_text() == PINNED_EXPERIMENT_CSV
        assert solved == PINNED_EXPERIMENT_HOSTS


def raised_piece(monkeypatch, piece):
    """Raise one single-colour piece by one wherever it is read."""
    formulas = constructions.bes_formulas

    def raised(n, delta):
        return {**formulas(n, delta), piece: formulas(n, delta)[piece] + 1}

    monkeypatch.setattr(constructions, "bes_formulas", raised)
    monkeypatch.setattr(verifiers, "bes_formulas", raised)


class TestGridVerdicts:
    def test_a_tiler_below_its_guarantee_is_an_anomaly(self, tmp_path, monkeypatch, capsys):
        tiler, formulas, piece = verifiers.TILERS["moon_small"]

        def short(g, budget=None):
            return Tiling(tiler(g, budget=budget).cliques[1:])

        monkeypatch.setitem(verifiers.TILERS, "moon_small", (short, formulas, piece))
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"n_values": [12], "delta_values": [10], "families": ["ex-triangle"]}))
        assert run_in(tmp_path, monkeypatch,
                      ["experiment", "--config", "cfg.json", "--out", "e.csv"]) == 3
        doc = json.loads((tmp_path / "anomaly-witness.json").read_text())
        assert doc["anomaly"] == "ex-triangle(12,10) moon_small tiles 1, below its guarantee 2"
        assert from_json_dict(doc["graph"]) == constructions.ex_triangle(12, 10)
        assert not (tmp_path / "e.csv").exists()
        capsys.readouterr()

    def test_a_construction_above_its_cap_is_an_anomaly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(verifiers.CONSTRUCTION_CAPS, "ex-bes-1", (
            "single", lambda n, delta: constructions.bes_formulas(n, delta)["low"]))
        assert run_in(tmp_path, monkeypatch, ["audit", "--csv", "--out", "a.csv"]) == 3
        doc = json.loads((tmp_path / "anomaly-witness.json").read_text())
        assert doc["anomaly"] == "ex-bes-1(22,16) packs 3 triangles, above its closed-form cap -4"
        assert from_json_dict(doc["graph"]) == constructions.ex_bes_1(22, 16)
        capsys.readouterr()

    @pytest.mark.parametrize("argv, config, hits", [
        (["experiment", "--config", "cfg.json", "--out", "e.csv"],
         {"n_values": [14], "delta_values": [12], "families": ["ex-bes-1"],
          "samples_per_cell": 1}, [("ex-bes-1", 14, 12, 2, 3)]),
        (["probe", "--n", "25", "--deltas", "22", "--samples", "1", "--perturbed", "0",
          "--out", "p.txt"], None, [("ex-bes-1", 25, 22, 4, 5), ("ex-bes-2", 25, 22, 4, 5)]),
    ])
    def test_a_host_below_a_conjectural_piece_exits_two(self, tmp_path, monkeypatch, capsys,
                                                         argv, config, hits):
        raised_piece(monkeypatch, "mid")
        if config:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run_in(tmp_path, monkeypatch, argv + ["--witness", "w.json"]) == 2
        assert capsys.readouterr().err == (f"{len(hits)} hosts beat the formula; witness "
                                           "file w.json written and re-confirmed\n")
        doc = json.loads((tmp_path / "w.json").read_text())
        assert doc["command"] == argv[0]
        assert [(w["source"], w["n"], w["delta"], w["optimum"], w["formula"])
                for w in doc["witnesses"]] == hits
        for w in doc["witnesses"]:
            g = from_json_dict(w["graph"])
            assert (g.n, g.min_degree()) == (w["n"], w["delta"])
            assert constructions.CONSTRUCTIONS[w["source"]][0](g.n, g.min_degree()) == g

    def test_a_witness_that_no_longer_beats_its_piece_is_an_anomaly(
            self, tmp_path, monkeypatch, capsys):
        raised_piece(monkeypatch, "mid")
        reload = cli._write_and_reload

        def swapped(path, doc):
            """Each witness read back as ex-bes-3, which meets the raised piece."""
            return [(constructions.ex_bes_3(25, 22), {**entry, "source": "ex-bes-3"})
                    for _, entry in reload(path, doc)]

        monkeypatch.setattr(cli, "_write_and_reload", swapped)
        argv = ["probe", "--n", "25", "--deltas", "22", "--samples", "0", "--perturbed", "0"]
        assert run_in(tmp_path, monkeypatch, argv) == 3
        doc = json.loads((tmp_path / "anomaly-witness.json").read_text())
        assert doc["anomaly"] == "reloaded probe witness ex-bes-3(25,22) no longer beats its formula"
        assert doc["detail"] == {"path": "probe-violations.json"}
        capsys.readouterr()

    def test_a_host_below_a_proved_piece_is_an_anomaly(self, tmp_path, monkeypatch, capsys):
        # The low band is proved at n = 25, and ex-bes-3 meets the unraised piece exactly.
        raised_piece(monkeypatch, "low")
        argv = ["probe", "--n", "25", "--deltas", "20", "--samples", "0", "--perturbed", "0"]
        assert run_in(tmp_path, monkeypatch, argv) == 3
        doc = json.loads((tmp_path / "anomaly-witness.json").read_text())
        assert doc["anomaly"] == "ex-bes-3(25,20) single optimum 0 is below the proved bound 1"
        assert not (tmp_path / "probe-violations.json").exists()
        capsys.readouterr()

    def test_the_top_band_cell_runs_every_large_tiler(self, tmp_path, monkeypatch):
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"n_values": [66], "delta_values": [65], "samples_per_cell": 1}))
        assert run_in(tmp_path, monkeypatch,
                      ["experiment", "--config", "cfg.json", "--out", "e.csv"]) == 0
        with open(tmp_path / "e.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["source"] for r in rows] == list(constructions.CONSTRUCTIONS) + ["random-0"]
        assert {(r["moon_large"], r["bes_large"], r["moon_bound"], r["bes_bound"],
                 r["bes_conjectural"], r["status"]) for r in rows} == \
            {("21", "13", "21", "13", "False", "ok")}
        assert [(r["mixed_optimum"], r["single_optimum"]) for r in rows] == [
            ("21", "21"), ("21", "21"), ("21", "13"), ("22", "15"), ("22", "16"), ("22", "22")]
        # The same cell with bes_large one tile short of its guarantee.
        tiler, formulas, piece = verifiers.TILERS["bes_large"]
        monkeypatch.setitem(verifiers.TILERS, "bes_large", (
            lambda g, budget=None: Tiling(tiler(g, budget=budget).cliques[1:]), formulas, piece))
        assert run_in(tmp_path, monkeypatch,
                      ["experiment", "--config", "cfg.json", "--out", "e.csv"]) == 3
        doc = json.loads((tmp_path / "anomaly-witness.json").read_text())
        assert doc["anomaly"] == "ex-triangle(66,65) bes_large tiles 12, below its guarantee 13"


class TestDeterminism:
    def test_verify_json_identical_modulo_elapsed(self, tmp_path, monkeypatch):
        argv = ["verify", "--lemma", "claim-k7", "--json"]
        run_in(tmp_path, monkeypatch, argv + ["--out", "a.json"])
        run_in(tmp_path, monkeypatch, argv + ["--out", "b.json"])
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        for doc in (a, b):
            for rep in doc["reports"]:
                rep.pop("elapsed")
        assert a == b

    def test_workers_do_not_change_output(self, tmp_path, monkeypatch):
        base = ["verify", "--lemma", "fact-k6", "--json"]
        run_in(tmp_path, monkeypatch, base + ["--workers", "1", "--out", "a.json"])
        run_in(tmp_path, monkeypatch, base + ["--workers", "3", "--out", "b.json"])
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        for doc in (a, b):
            for rep in doc["reports"]:
                rep.pop("elapsed")
        assert a == b


def run_captured(argv) -> tuple[int, list[str]]:
    """Exit code and stderr lines of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, err.getvalue().splitlines()


def assert_clean_exit(rc: int, err: list[str]) -> None:
    """Exit 0, or exit 1 with exactly one ``error:`` line; never an anomaly."""
    assert rc == 0 or (rc == 1 and len(err) == 1 and err[0].startswith("error:")), (rc, err)


@st.composite
def host_files(draw) -> str:
    """Text or JSON host files with n <= 10: well formed when ``tidy``, else anything."""
    n = draw(st.integers(-1, 10))
    r = draw(st.integers(0, 3))
    edges = draw(st.lists(st.tuples(st.integers(-1, 10), st.integers(-1, 10),
                                    st.integers(-1, 3)), max_size=30))
    if draw(st.booleans()) and n > 0 and r > 0:
        edges = sorted({(min(u % n, v % n), max(u % n, v % n), c % r)
                        for u, v, c in edges if u % n != v % n})
    if draw(st.booleans()):
        return json.dumps({"n": n, "r": r, "edges": [list(e) for e in edges]})
    return "".join([f"{n} {r}\n"] + [f"{u} {v} {c}\n" for u, v, c in edges])


class TestInputFuzz:
    @settings(max_examples=50, deadline=None)
    @given(st.fixed_dictionaries({
        "n_values": st.lists(st.integers(-3, 16), min_size=1, max_size=2),
    }, optional={
        "delta_values": st.none() | st.lists(st.integers(-3, 16), max_size=2),
        "samples_per_cell": st.none() | st.integers(0, 1),
        "max_cells": st.none() | st.integers(1, 2),
        "seed": st.none() | st.integers(-2, 3),
    }))
    def test_experiment_configs_end_cleanly(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            rc, err = run_captured(["experiment", "--config", path,
                                    "--out", os.path.join(tmp, "e.csv"),
                                    "--witness", os.path.join(tmp, "w.json")])
        assert_clean_exit(rc, err)

    @pytest.mark.parametrize("argv, key, what", [
        (["solve", "doc.json"], "n", "graph json"),
        (["experiment", "--config", "doc.json"], "n_values", "experiment config"),
    ])
    def test_deeply_nested_json_is_one_error_line(self, tmp_path, monkeypatch, capsys,
                                                  argv, key, what):
        # Nested past the json module's recursion limit.
        (tmp_path / "doc.json").write_text(f'{{"{key}": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert run_in(tmp_path, monkeypatch, argv) == 1
        assert capsys.readouterr().err == f"error: {what} is nested too deeply\n"

    @settings(max_examples=50, deadline=None)
    @given(host_files())
    def test_solve_host_files_end_cleanly(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.txt")
            with open(path, "w") as fh:
                fh.write(text)
            rc, err = run_captured(["solve", path])
        assert_clean_exit(rc, err)
