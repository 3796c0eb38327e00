"""CLI behaviour: exit codes, file outputs, determinism, witness plumbing."""

import contextlib
import csv
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritile import cli
from tritile.graphs import complete_colouring, read_graph, write_graph
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

    @pytest.mark.parametrize("seed", ["-1,0,1", "0,1,15"])
    def test_phased_seed_outside_the_host_is_one_error_line(self, tmp_path, monkeypatch,
                                                            capsys, seed):
        write_graph(complete_colouring(15, 2, 0), tmp_path / "k15.txt")
        rc = run_in(tmp_path, monkeypatch,
                    ["tile", str(tmp_path / "k15.txt"), "--algorithm", "phased",
                     f"--seed-clique={seed}"])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: seed must be a monochromatic clique of the host\n"

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

        monkeypatch.setitem(cli._ALGORITHMS, "moon-small", boom)
        g = complete_colouring(6, 2, 0)
        write_graph(g, tmp_path / "g.txt")
        rc = run_in(tmp_path, monkeypatch,
                    ["tile", str(tmp_path / "g.txt"), "--algorithm", "moon-small"])
        assert rc == 3
        doc = json.loads((tmp_path / "anomaly-witness.json").read_text())
        assert doc["detail"] == {"reason": "test"}
        assert doc["graph"]["n"] == 6
        capsys.readouterr()


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

    @settings(max_examples=50, deadline=None)
    @given(host_files())
    def test_solve_host_files_end_cleanly(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.txt")
            with open(path, "w") as fh:
                fh.write(text)
            rc, err = run_captured(["solve", path,
                                    "--witness", os.path.join(tmp, "w.json")])
        assert_clean_exit(rc, err)
