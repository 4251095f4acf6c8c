import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from icx import cli, costfn, serialization
from icx.cli import main
from icx.families import gen_gap_instance, gen_intro_example, gen_nonic_example
from icx.model import deterministic_scheme
from icx.serialization import instance_to_json, scheme_to_json
from conftest import random_instance

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture
def intro_file(tmp_path):
    path = tmp_path / "intro.json"
    path.write_text(json.dumps(instance_to_json(gen_intro_example())))
    return str(path)


class TestSolve:
    def test_det(self, capsys, intro_file):
        code, doc = run(capsys, "solve", "--mode", "det", intro_file)
        assert code == 0
        assert doc["utility"] == pytest.approx(11 / 20, abs=1e-12)
        assert doc["scheme"]["suggested"] == "g"
        assert any(c["provenance"] == "zero_cost" for c in doc["candidates"])
        assert doc["query_counts"]["value"] <= 9

    def test_rand(self, capsys, intro_file):
        code, doc = run(capsys, "solve", "--mode", "rand", intro_file)
        assert code == 0
        assert doc["utility"] == pytest.approx(71 / 120, abs=1e-9)
        # decomposition identity: utility = f(g) - payment - inspection cost
        assert doc["utility"] == pytest.approx(
            1.0 - doc["payment"] - doc["inspection_cost"], abs=1e-9)

    def test_byte_identical_reruns(self, capsys, intro_file):
        main(["solve", "--mode", "rand", intro_file])
        first = capsys.readouterr().out
        main(["solve", "--mode", "rand", intro_file])
        second = capsys.readouterr().out
        assert first == second

    def test_missing_null_action_exit_3(self, capsys, tmp_path):
        doc = instance_to_json(gen_intro_example())
        doc["null_id"] = "nope"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--mode", "det", str(path)]) == 3

    def test_unparseable_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["solve", "--mode", "det", str(path)]) == 2

    @pytest.mark.parametrize("cost_fn, message", [
        ({"type": "table", "values": [0.0, 0.5, 0.25, 0.75, 1.0, 0.2, 1.0, 1.0]},
         "table not monotone"),
        ({"type": "additive", "weights": {"b": -0.1}}, "weights must be nonnegative"),
        ({"type": "concave_cardinality", "table": [0.0, 0.1, 0.5, 0.6]},
         "must be concave"),
    ])
    @pytest.mark.parametrize("command", ["solve", "eval", "check-costfn"])
    def test_cost_fn_constructor_error_exit_3(self, capsys, tmp_path, cost_fn, message,
                                              command):
        doc = instance_to_json(gen_intro_example())
        doc["cost_fn"] = cost_fn
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        argv = {"solve": ["solve", "--mode", "det", str(path)],
                "eval": ["eval", str(path), str(path)],
                "check-costfn": ["check-costfn", str(path)]}[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and message in err
        assert err.count("\n") == 1

    def test_cost_fn_missing_key_still_exit_2(self, tmp_path):
        doc = instance_to_json(gen_intro_example())
        doc["cost_fn"] = {"type": "budget_additive", "weights": {"b": 0.5}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--mode", "det", str(path)]) == 2

    @pytest.mark.parametrize("field", ["cost", "prob"])
    def test_non_numeric_action_field_exit_2(self, capsys, tmp_path, field):
        doc = instance_to_json(gen_intro_example())
        doc["actions"][1][field] = "abc"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--mode", "det", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "parse error: could not convert string to float: 'abc'\n"

    def test_coverage_covers_not_an_object_exit_2(self, capsys, tmp_path):
        doc = instance_to_json(gen_intro_example())
        doc["cost_fn"] = {"type": "coverage", "universe": 2, "covers": [[0], [1]],
                          "element_weights": [1, 1]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--mode", "det", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("where", ["cost", "table", "weights", "cap", "cardinality"])
    def test_non_finite_number_exit_3(self, capsys, tmp_path, where, value):
        doc = instance_to_json(gen_intro_example())
        if where == "cost":
            doc["actions"][1]["cost"] = value
        elif where == "table":
            doc["cost_fn"] = {"type": "table", "values": [0.0] + [value] + [1.0] * 6}
        elif where == "weights":
            doc["cost_fn"] = {"type": "additive", "weights": {"b": value}}
        elif where == "cap":
            doc["cost_fn"] = {"type": "budget_additive", "weights": {"b": 0.5}, "cap": value}
        else:
            doc["cost_fn"] = {"type": "concave_cardinality", "table": [0.0, 0.5, value, 1.0]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # json writes NaN and Infinity bare
        assert main(["solve", "--mode", "det", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation error: ") and "finite" in captured.err
        assert captured.err.count("\n") == 1

    def test_negative_cost_still_exit_3(self, capsys, tmp_path):
        doc = instance_to_json(gen_intro_example())
        doc["actions"][1]["cost"] = -0.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--mode", "det", str(path)]) == 3
        assert capsys.readouterr().err.startswith("validation error: ")

    @pytest.mark.parametrize("argv", [
        ["solve", "--mode", "det"], ["solve", "--mode", "rand"],
        ["brute-force", "--mode", "det"], ["compare", "--mode", "det"],
    ], ids=" ".join)
    def test_table_monotonicity_scanned_once(self, capsys, tmp_path, monkeypatch, argv):
        # ExplicitTable checks monotonicity when read; the CLI does not repeat it.
        inst = gen_intro_example()
        table_inst = inst.with_cost_fn(costfn.ExplicitTable(inst.cost_fn.table()))
        path = tmp_path / "table.json"
        path.write_text(json.dumps(instance_to_json(table_inst)))
        scans = []
        scan = costfn._monotone_violation
        monkeypatch.setattr(costfn, "_monotone_violation",
                            lambda vals, n: scans.append(n) or scan(vals, n))
        assert main(argv + [str(path)]) == 0
        assert scans == [3]

    @pytest.mark.parametrize("mode", ["det", "rand"])
    def test_non_monotone_table_exit_3_message(self, capsys, tmp_path, mode):
        doc = instance_to_json(gen_intro_example())
        doc["cost_fn"] = {"type": "table",
                          "values": [0.0, 0.5, 0.25, 0.75, 1.0, 0.2, 1.0, 1.0]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--mode", mode, str(path)]) == 3
        assert capsys.readouterr().err == (
            "validation error: table not monotone at S=1, element 2\n")

    def test_non_submodular_rand_exit_4(self, capsys, tmp_path):
        code = main(["gen", "--family", "xos-hard", "--k", "7", "--seed", "1",
                     "--out", str(tmp_path / "hard.json")])
        assert code == 0
        assert main(["solve", "--mode", "rand", str(tmp_path / "hard.json")]) == 4

    def test_non_submodular_rand_exit_4_at_n_14(self, capsys, tmp_path):
        # The whole 2^14 table is scanned: no size is trusted unchecked.
        path = str(tmp_path / "hard11.json")
        assert main(["gen", "--family", "xos-hard", "--k", "11", "--seed", "0",
                     "--out", path]) == 0
        capsys.readouterr()
        assert main(["solve", "--mode", "rand", path]) == 4
        assert capsys.readouterr() == ("", "cost-class check failed: inspection cost is "
                                           "not submodular; witness (1016, 10, 12)\n")

    @pytest.mark.parametrize("mode", ["det", "rand"])
    def test_large_additive_weights_solve(self, capsys, tmp_path, mode):
        # Submodular by type: not refused over a rounding error of ~1e-12.
        inst = gen_intro_example().with_cost_fn(costfn.Additive([0.88, 40.0, 22000.0]))
        path = tmp_path / "large.json"
        path.write_text(json.dumps(instance_to_json(inst)))
        code, doc = run(capsys, "solve", "--mode", mode, str(path))
        assert code == 0
        assert doc["warnings"] == []

    def test_out_file(self, tmp_path, intro_file):
        out = tmp_path / "report.json"
        assert main(["solve", "--mode", "det", intro_file, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["mode"] == "det"


class TestUnreadableInput:
    @pytest.mark.parametrize("command", ["solve", "eval"])
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_parse_error_exit_2(self, capsys, tmp_path, intro_file, command, kind):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe{}")
        # eval reads the instance first, so its scheme file is the bad one.
        argv = (["solve", "--mode", "det", str(bad)] if command == "solve"
                else ["eval", intro_file, str(bad)])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ") and str(bad) in captured.err
        assert captured.err.count("\n") == 1


class TestUnwritableOutput:
    @pytest.mark.parametrize("command, target", [
        ("solve", "directory"), ("solve", "missing-parent"),
        ("gen-xos-hard", "directory"), ("gen-xos-hard", "missing-parent"),
        ("gen-xos-hard", "sidecar")])
    def test_output_error_exit_2(self, capsys, tmp_path, intro_file, command, target):
        out = tmp_path / "out.json"
        if target == "directory":
            out.mkdir()
            bad = out
        elif target == "missing-parent":
            out = bad = tmp_path / "missing" / "out.json"
        else:
            bad = tmp_path / "out.json.T.json"
            bad.mkdir()
        argv = (["solve", "--mode", "det", intro_file, "--out", str(out)]
                if command == "solve"
                else ["gen", "--family", "xos-hard", "--out", str(out)])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("output error: ") and str(bad) in captured.err
        assert captured.err.count("\n") == 1


class TestEval:
    def test_nonic_scheme_report(self, capsys, tmp_path):
        inst, scheme, refs = gen_nonic_example()
        ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
        ipath.write_text(json.dumps(instance_to_json(inst)))
        spath.write_text(json.dumps(scheme_to_json(scheme)))
        code, doc = run(capsys, "eval", str(ipath), str(spath))
        assert code == 0
        assert doc["ic"] is True  # suggested null action ties as a best response
        assert set(doc["best_responses"]) == {"bot", "1", "2"}
        assert doc["best_response_for_principal"]["action"] == "2"
        assert doc["best_response_for_principal"]["principal_utility"] == \
            pytest.approx(refs["non_ic_principal_utility"], abs=1e-12)

    def test_unknown_action_exit_2(self, capsys, tmp_path, intro_file):
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({
            "suggested": "zzz", "alpha": 0.0,
            "distribution": [{"set": [], "prob": 1.0}]}))
        assert main(["eval", intro_file, str(spath)]) == 3

    @pytest.mark.parametrize("field", ["alpha", "prob"])
    def test_non_numeric_scheme_field_exit_2(self, capsys, tmp_path, intro_file, field):
        scheme = {"suggested": "g", "alpha": 0.35,
                  "distribution": [{"set": ["g"], "prob": 1.0}]}
        if field == "alpha":
            scheme["alpha"] = "abc"
        else:
            scheme["distribution"][0]["prob"] = "abc"
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(scheme))
        assert main(["eval", intro_file, str(spath)]) == 2
        err = capsys.readouterr().err
        assert err == "parse error: could not convert string to float: 'abc'\n"

    def test_non_numeric_action_field_exit_2(self, capsys, tmp_path):
        doc = instance_to_json(gen_intro_example())
        doc["actions"][2]["prob"] = "abc"
        ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
        ipath.write_text(json.dumps(doc))
        spath.write_text(json.dumps(scheme_to_json(
            deterministic_scheme("g", 0.35, frozenset(["g"])))))
        assert main(["eval", str(ipath), str(spath)]) == 2
        assert capsys.readouterr().err.startswith("parse error: ")

    def test_scheme_out_of_range_alpha_still_exit_3(self, capsys, tmp_path, intro_file):
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"suggested": "g", "alpha": 1.5,
                                     "distribution": [{"set": [], "prob": 1.0}]}))
        assert main(["eval", intro_file, str(spath)]) == 3
        assert capsys.readouterr().err.startswith("validation error: ")

    def test_nan_probability_exit_3(self, capsys, tmp_path, intro_file):
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"suggested": "g", "alpha": 0.35,
                                     "distribution": [{"set": ["g"], "prob": float("nan")}]}))
        assert main(["eval", intro_file, str(spath)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation error: ") and "finite" in captured.err
        assert captured.err.count("\n") == 1

    def test_hidden_shift_reference_scheme(self, capsys, tmp_path):
        from icx.families import HardParams, gen_xos_hard, unique_optimal_scheme
        params = HardParams(7, frozenset([1, 2, 4, 5, 6, 7]))
        ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
        ipath.write_text(json.dumps(instance_to_json(gen_xos_hard(params))))
        spath.write_text(json.dumps(scheme_to_json(unique_optimal_scheme(params))))
        code, doc = run(capsys, "eval", str(ipath), str(spath))
        assert code == 0
        assert doc["ic"] is True
        assert doc["principal_utility_suggested"] == pytest.approx(847 / 960, abs=1e-12)


class TestCompareAndBruteForce:
    def test_compare_det_gap_zero(self, capsys, intro_file):
        code, doc = run(capsys, "compare", "--mode", "det", intro_file)
        assert code == 0
        assert doc["pass"] is True
        assert doc["gap"] <= 1e-9

    def test_compare_rand(self, capsys, intro_file):
        code, doc = run(capsys, "compare", "--mode", "rand", intro_file)
        assert code == 0
        assert doc["pass"] is True
        assert doc["tolerance"] == cli.RAND_COMPARE_TOL

    @pytest.mark.parametrize("value", ["1e-20", "1e-3", "nan"])
    def test_compare_rand_refuses_tolerance(self, capsys, intro_file, value):
        assert main(["compare", "--mode", "rand", intro_file, "--tol", value]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("validation error: --tol applies to --mode det only; "
                                "--mode rand passes within 0.0001\n")

    def test_compare_rand_ignores_env_tolerance(self, capsys, intro_file, monkeypatch):
        # ICX_TOL is the utility-comparison tolerance; the rand-mode bound stays.
        monkeypatch.setenv("ICX_TOL", "1e-20")
        code, doc = run(capsys, "compare", "--mode", "rand", intro_file)
        assert code == 0
        assert doc["tolerance"] == cli.RAND_COMPARE_TOL and doc["pass"] is True

    @pytest.mark.parametrize("command", ["solve", "brute-force", "check-costfn"])
    def test_tolerance_flag_only_where_read(self, capsys, intro_file, command):
        argv = [command, intro_file, "--tol", "1e-9"]
        if command != "check-costfn":
            argv += ["--mode", "det"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["compare", "--mode", "rand"],
                                      ["brute-force", "--mode", "rand"]],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("step", ["0", "nan", "-0.5", "inf", "0.05"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_alpha_grid_refused_or_ignored(self, capsys, monkeypatch, intro_file, argv,
                                           step, source):
        # The LP oracle's payment search takes no step: the flag is refused,
        # and the environment variable changes nothing.
        argv = argv + [intro_file]
        if source == "flag":
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--alpha-grid", step])
            assert exc.value.code == 2
            assert f"unrecognized arguments: --alpha-grid {step}" in capsys.readouterr().err
            return
        assert main(argv) == 0
        expected = capsys.readouterr()
        monkeypatch.setenv("ICX_ALPHA_GRID", step)
        assert main(argv) == 0
        assert capsys.readouterr() == expected

    def test_oracle_size_limit_exit_5(self, capsys, tmp_path):
        for command, mode, n, limit in [
                ("compare", "det", 13, "deterministic oracle limited to n <= 12"),
                ("brute-force", "det", 13, "deterministic oracle limited to n <= 12"),
                ("brute-force", "rand", 8, "randomized oracle limited to n <= 7")]:
            path = str(tmp_path / f"gap{n}.json")
            assert main(["gen", "--family", "gap", "--n", str(n), "--out", path]) == 0
            assert main([command, "--mode", mode, path]) == 5
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"oracle limit: {limit}\n"

    def test_brute_force_det(self, capsys, intro_file):
        code, doc = run(capsys, "brute-force", "--mode", "det", intro_file)
        assert code == 0
        assert doc["utility"] == pytest.approx(11 / 20, abs=1e-12)


class TestGenAndExperiment:
    def test_gen_gap_matches_library(self, capsys):
        code, doc = run(capsys, "gen", "--family", "gap", "--n", "10")
        assert code == 0
        from icx.families import gen_gap_instance
        assert doc == instance_to_json(gen_gap_instance(10))

    def test_gen_nonic_bundle(self, capsys):
        code, doc = run(capsys, "gen", "--family", "nonic")
        assert code == 0
        assert doc["references"]["non_ic_principal_utility"] == 0.425

    def test_gen_xos_hard_sidecar(self, tmp_path):
        out = tmp_path / "hard.json"
        assert main(["gen", "--family", "xos-hard", "--k", "7", "--seed", "5",
                     "--out", str(out)]) == 0
        inst_doc = json.loads(out.read_text())
        assert inst_doc["cost_fn"]["type"] == "table"
        sidecar = json.loads((tmp_path / "hard.json.T.json").read_text())
        assert sidecar["k"] == 7 and len(sidecar["T"]) == 6

    def test_gen_xos_hard_needs_out(self, capsys):
        assert main(["gen", "--family", "xos-hard", "--k", "7"]) == 2

    def test_query_experiment(self, capsys):
        code, doc = run(capsys, "query-experiment", "--k", "7", "--trials", "5",
                        "--seed", "1")
        assert code == 0
        assert doc["classes"] == 1 and doc["mean_queries"] == 1.0


# sha256 of the hidden-shift family's CLI output, recorded before its cost
# table was built from structure and its shifts by bit rotation: those must
# not move a byte.
GEN_XOS_HARD_SHA256 = {
    (7, 0): "c0037e112db5a484ff30ed185c082ae88d3cd8c3afbf8bd6dccd4b23958ab2e8",
    (7, 1): "b349ab4f15d84352d665454d373cb36626fedb42807a15fcfb4830be83e1f631",
    (11, 0): "238b203f4b0f362bfe92510572d0db2b6dc7da2825ecb0efe4cce58711b842e0",
    (11, 1): "be68d70a61b1586be461dc710ab54f6058d10e561149f2fcb31eb141c9800101",
    (13, 0): "aa96be01d9f11daea920752a4e37149e5c729177ccc713523cc1d4d6fba8a176",
    (13, 1): "fa424dbfda118015d853796cf7efa72ba2550a86a6ced30f78ce197c531067c5",
}
QUERY_EXPERIMENT_K13_SHA256 = {
    0: "9f506a35fe285dd68033962aa46379b51a1aec01a3e3a3fef638900a3524d846",
    1: "5dfb7e32d620ef368b5953307278fb9276d28be29dad29bb4b64293f48a49d16",
}


class TestHiddenShiftGolden:
    @pytest.mark.parametrize("k, seed", sorted(GEN_XOS_HARD_SHA256))
    def test_gen_xos_hard_bytes(self, tmp_path, k, seed):
        out = tmp_path / "hard.json"
        assert main(["gen", "--family", "xos-hard", "--k", str(k), "--seed", str(seed),
                     "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes())
        digest.update((tmp_path / "hard.json.T.json").read_bytes())
        assert digest.hexdigest() == GEN_XOS_HARD_SHA256[k, seed]

    @pytest.mark.parametrize("seed", sorted(QUERY_EXPERIMENT_K13_SHA256))
    def test_query_experiment_k13_bytes(self, capsys, seed):
        assert main(["query-experiment", "--k", "13", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == QUERY_EXPERIMENT_K13_SHA256[seed]


# sha256 of `brute-force --mode det` and `compare --mode det` stdout,
# recorded while the deterministic oracle still settled its IC bounds in
# Fractions: settling them in integers must not move a byte.
DET_ORACLE_INSTANCES = {
    "intro": gen_intro_example,
    "nonic": lambda: gen_nonic_example()[0],
    "gap10": lambda: gen_gap_instance(10),
    "table12": lambda: random_instance(random.Random(27), 12),  # ties; n = DET_ORACLE_MAX_N
}
DET_ORACLE_SHA256 = {
    ("intro", "brute-force"): "df6f06c13ec822cbb163cdfd2b605393924c1994e2614293091a314d04c5c2bf",
    ("intro", "compare"): "c9039c7034dcb4cc62ebc8792e9b2d5513731e59fe154b1c53fb0f88ae79bace",
    ("nonic", "brute-force"): "47c7572acd40693e863055480b4dec0b44d4ce6d5b361452e9da97ca6c8394c1",
    ("nonic", "compare"): "a7121997e165981b47b552e9b1823d3fd07f6c7d6a6e5ab666f092992214d221",
    ("gap10", "brute-force"): "5e55ffb0ac54eb1733ab37fa38000c631157dc0dd7a12af1a15ffc13b85af1ad",
    ("gap10", "compare"): "5a85f9c6d9d667d0575ff4c59b393df0b36c063173db76d548870b63e4128a76",
    ("table12", "brute-force"): "7aef5a245d9c0ff731f068f3a39772d8e0e54b274bac426cb79d9155ed8edbe4",
    ("table12", "compare"): "62539ee87acfdb8dac7bfbf9465399fe4d21d582e95e6188524f4c71a8fd736f",
}


class TestDetOracleGolden:
    @pytest.mark.parametrize("name, command", sorted(DET_ORACLE_SHA256))
    def test_det_oracle_bytes(self, capsys, tmp_path, name, command):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(instance_to_json(DET_ORACLE_INSTANCES[name]())))
        assert main([command, "--mode", "det", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == DET_ORACLE_SHA256[name, command]


def _distinct_table13():
    # 2^13 values, all distinct, v(empty) = -0.0: hashed in two pieces.
    rng = random.Random(13)
    vals = [-0.0] * (1 << 13)
    for mask in range(1, 1 << 13):
        vals[mask] = max(vals[mask & ~(1 << i)] for i in costfn.bits(mask)) \
            + rng.uniform(1e-3, 0.1)
    return random_instance(rng, 13, fn=costfn.ExplicitTable(vals))


# sha256 of `solve --mode det|rand` stdout, and of `eval` of the rand
# solve's scheme, recorded while a table's instance_digest still encoded
# every entry: hashing a table at the cost of its distinct values must not
# move a byte.  The `rand` pins were re-recorded when the randomized solver
# began reading suffix values lazily; only `query_counts.value` moved.
# table13 is not submodular, and since the cost-class check covers every n
# `solve --mode rand` refuses it (REFUSED); its `eval` pin evaluates the
# scheme the solver returns when it is made to trust the table.
STDOUT_INSTANCES = {
    "intro": gen_intro_example,
    "typed16": lambda: random_instance(random.Random(16), 16, fn_kind="sub"),
    "table13": _distinct_table13,
}
STDOUT_SHA256 = {
    ("intro", "det"):
        "7f224db8aa2026f23174ad477f3602cecd94e740728fe4499db150ef12e8d508",
    ("intro", "rand"):
        "d8f361b798ead5a3859ce7c00163b522741a4576de79c6819f17c70271231240",
    ("intro", "eval"):
        "5bd959567c06c62a4359bb984f20a6b17bfadab39b3ef1628f4d377a4633f383",
    ("typed16", "det"):
        "c5aee73a5d1a0e024910a0049ef1763ea47215c45d66e3795ed8e558445124b0",
    ("typed16", "rand"):
        "d76e6a183684a61a1f544c78535acee852cc876ef0a1476afb04498c5397f045",
    ("typed16", "eval"):
        "21e37a6bf571af5b0248cf02d2b7e1f05796d5656268b8d9a5f0b306d867fbc3",
    ("table13", "det"):
        "ecc605cea72a7991d0324c42db26d82fc82fc365a9a67ffa122ea4c274df8956",
    ("table13", "eval"):
        "2437ace78af4d0d240ffb7054e3df44986bb73c75aff4d65fdb1d60a985a522e",
    ("xos11", "det"):
        "761ad6d8424dd624a501982498e81bfa34df711650725c04f2c78a4bdcb00977",
}
# The stderr of a solve that exits 4, with nothing on stdout.
REFUSED = {
    ("table13", "rand"):
        "cost-class check failed: inspection cost is not submodular; witness (0, 0, 1)\n",
}

# sha256 of every other command's output, recorded while _emit still wrote
# each document through json.dump: writing small documents through json's
# C encoder must not move a byte. "sub6" is a random submodular instance
# with ties; "solve-det-out" hashes the --out file.
COMMAND_ARGV = {
    "compare-det": ["compare", "--mode", "det", "{sub6}"],
    "compare-rand": ["compare", "--mode", "rand", "{sub6}"],
    "brute-force-det": ["brute-force", "--mode", "det", "{sub6}"],
    "brute-force-rand": ["brute-force", "--mode", "rand", "{sub6}"],
    "check-costfn-none": ["check-costfn", "{intro}"],
    "check-costfn-witness": ["check-costfn", "{hard7}"],
    "gen-intro": ["gen", "--family", "intro"],
    "gen-gap": ["gen", "--family", "gap", "--n", "12"],
    "gen-nonic": ["gen", "--family", "nonic"],
    "query-experiment-k7": ["query-experiment", "--k", "7"],
    "eval-nonic": ["eval", "{nonic}", "{nonic_scheme}"],
    "solve-det-out": ["solve", "--mode", "det", "{intro}", "--out", "{out}"],
}
COMMAND_SHA256 = {
    "brute-force-det":
        "3fc2056f4830940ea0caf516c79d2673ee454c8949169ab0be5fb846d9a81e74",
    "brute-force-rand":
        "d9661e22bb915dd19273e09f1c6d8016371b18c095d3d79c1e3285d8928e4c09",
    "check-costfn-none":
        "d507fa6cf478c5fd0805effc753296e1a05afd5f31ab37ffd08339b7ec63c58f",
    "check-costfn-witness":
        "b1860f959862bfcc19f55bd1a3121bd98c734a94c44bc12eaeac39d137250ff6",
    "compare-det":
        "4696f54508c3fab61f04a268fc33d3900fe3caddddcebbcfe811d94eb147f516",
    "compare-rand":
        "1ef19d5ecd25da4c93f3ab8ce4d08183387f3d149c997898f675791a80dc5735",
    "eval-nonic":
        "f6f972ef0b9ba102e55634172a181fd6553a9b695bff94aaa11ff2e83c56d5ef",
    "gen-gap":
        "f53f87eb8e06ab5130ab5c80e3d4a19cf53efab0bd3a7f91979c3d51517627d3",
    "gen-intro":
        "946eb8969df053ac50f7400d2d815de43106147bece790c1acf8757f0ffd4c15",
    "gen-nonic":
        "e62ad3993c2f29b1b4cfdf2c30b8838b2c4729c7af117c8d3e6638e1d72e0114",
    "query-experiment-k7":
        "79a5e845684233e50f3d25d51a351a636aa79a679eff603d07ebafaff96daf14",
    "solve-det-out":
        "7f224db8aa2026f23174ad477f3602cecd94e740728fe4499db150ef12e8d508",
}


class TestStdoutGolden:
    @pytest.mark.parametrize("name, command", sorted([*STDOUT_SHA256, *REFUSED]))
    def test_stdout_bytes(self, capsys, monkeypatch, tmp_path, name, command):
        path = tmp_path / f"{name}.json"
        if name == "xos11":
            assert main(["gen", "--family", "xos-hard", "--k", "11", "--seed", "0",
                         "--out", str(path)]) == 0
        else:
            path.write_text(json.dumps(instance_to_json(STDOUT_INSTANCES[name]())))
        if (name, command) in REFUSED:
            assert main(["solve", "--mode", command, str(path)]) == 4
            assert capsys.readouterr() == ("", REFUSED[name, command])
            return
        if command == "eval":
            if (name, "rand") in REFUSED:
                monkeypatch.setattr(cli.randomized, "submodular_by_type", lambda fn: True)
            assert main(["solve", "--mode", "rand", str(path)]) == 0
            scheme = tmp_path / "scheme.json"
            scheme.write_text(json.dumps(json.loads(capsys.readouterr().out)["scheme"]))
            argv = ["eval", str(path), str(scheme)]
        else:
            argv = ["solve", "--mode", command, str(path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[name, command]

    @pytest.mark.parametrize("case", sorted(COMMAND_SHA256))
    def test_command_bytes(self, capsys, tmp_path, case):
        data = _command_output(capsys, tmp_path, case)
        assert hashlib.sha256(data).hexdigest() == COMMAND_SHA256[case]

    @pytest.mark.parametrize("case", ["eval-nonic", "gen-nonic", "solve-det-out"])
    def test_command_bytes_without_c_encoder(self, capsys, tmp_path, monkeypatch, case):
        # Where json has no C encoder, _emit falls back to json.dump: same bytes.
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        assert serialization.indented_dumps({"a": [1]}) is None
        data = _command_output(capsys, tmp_path, case)
        assert hashlib.sha256(data).hexdigest() == COMMAND_SHA256[case]


def _command_output(capsys, tmp_path, case) -> bytes:
    """The bytes COMMAND_ARGV[case] writes to stdout, or to its --out file."""
    files = _command_files(tmp_path)
    argv = [arg.format(**files) for arg in COMMAND_ARGV[case]]
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    return files["out"].read_bytes() if "--out" in argv else out.encode()


def _command_files(tmp_path) -> dict:
    """The input files COMMAND_ARGV names, written to tmp_path, by name."""
    inst, scheme, _ = gen_nonic_example()
    files = {name: tmp_path / f"{name}.json" for name in
             ("intro", "sub6", "nonic", "nonic_scheme", "hard7", "out")}
    files["intro"].write_text(json.dumps(instance_to_json(gen_intro_example())))
    files["sub6"].write_text(json.dumps(instance_to_json(
        random_instance(random.Random(6), 6, fn_kind="sub"))))
    files["nonic"].write_text(json.dumps(instance_to_json(inst)))
    files["nonic_scheme"].write_text(json.dumps(scheme_to_json(scheme)))
    assert main(["gen", "--family", "xos-hard", "--k", "7", "--seed", "2",
                 "--out", str(files["hard7"])]) == 0
    return files


class TestRealStdout:
    @pytest.mark.parametrize("command", ["det", "rand", "eval"])
    def test_subprocess_bytes_match_in_process(self, capsys, tmp_path, intro_file, command):
        # A child process writes to a real TextIOWrapper stdout, not capsys.
        if command == "eval":
            assert main(["solve", "--mode", "rand", intro_file]) == 0
            scheme = tmp_path / "scheme.json"
            scheme.write_text(json.dumps(json.loads(capsys.readouterr().out)["scheme"]))
            argv = ["eval", intro_file, str(scheme)]
        else:
            argv = ["solve", "--mode", command, intro_file]
        assert main(argv) == 0
        expected = capsys.readouterr().out.encode()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "icx.cli", *argv], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected

    @pytest.mark.parametrize("case", ["brute-force-rand", "compare-rand"])
    def test_lp_oracle_commands_run_without_numpy(self, tmp_path, case):
        # A child process where `import numpy` fails writes the pinned bytes.
        argv = [arg.format(**_command_files(tmp_path)) for arg in COMMAND_ARGV[case]]
        code = ("import sys; sys.modules['numpy'] = None; from icx import cli; "
                "sys.exit(cli.main(sys.argv[1:]))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == COMMAND_SHA256[case]


class TestConfigPrecedence:
    def test_env_tol_used_and_flag_wins(self, capsys, tmp_path, intro_file,
                                        monkeypatch):
        inst, scheme, _ = gen_nonic_example()
        ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
        ipath.write_text(json.dumps(instance_to_json(inst)))
        spath.write_text(json.dumps(scheme_to_json(scheme)))
        # A huge env tolerance makes every action a best response.
        monkeypatch.setenv("ICX_TOL", "10")
        _, doc = run(capsys, "eval", str(ipath), str(spath))
        assert set(doc["best_responses"]) == {"bot", "1", "2"}
        assert doc["tolerance"] == 10.0
        # The flag overrides the environment.
        _, doc = run(capsys, "eval", str(ipath), str(spath), "--tol", "1e-12")
        assert doc["tolerance"] == 1e-12

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_nan_tolerance_exit_3(self, capsys, tmp_path, monkeypatch, source):
        inst, scheme, _ = gen_nonic_example()
        ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
        ipath.write_text(json.dumps(instance_to_json(inst)))
        spath.write_text(json.dumps(scheme_to_json(scheme)))
        argv = ["eval", str(ipath), str(spath)]
        if source == "flag":
            argv += ["--tol", "nan"]
        else:
            monkeypatch.setenv("ICX_TOL", "nan")
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validation error: tolerance must be nonnegative, got nan\n"

    @pytest.mark.parametrize("command", ["compare", "eval"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_bad_tolerance_exit_3(self, capsys, tmp_path, monkeypatch, intro_file,
                                  command, value, source):
        if command == "eval":
            scheme = tmp_path / "s.json"
            scheme.write_text(json.dumps(scheme_to_json(
                deterministic_scheme("g", 0.35, ["g"]))))
            argv = ["eval", intro_file, str(scheme)]
        else:
            argv = ["compare", "--mode", "det", intro_file]
        if source == "flag":
            argv += ["--tol", value]
        else:
            monkeypatch.setenv("ICX_TOL", value)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = "finite" if value == "inf" else "nonnegative"
        assert captured.err == (
            f"validation error: tolerance must be {reason}, got {float(value)}\n")

    def test_bad_env_value_is_parse_error(self, tmp_path, monkeypatch):
        inst, scheme, _ = gen_nonic_example()
        ipath, spath = tmp_path / "i.json", tmp_path / "s.json"
        ipath.write_text(json.dumps(instance_to_json(inst)))
        spath.write_text(json.dumps(scheme_to_json(scheme)))
        monkeypatch.setenv("ICX_TOL", "not-a-number")
        assert main(["eval", str(ipath), str(spath)]) == 2


class TestCheckCostfn:
    def test_intro_additive(self, capsys, intro_file):
        code, doc = run(capsys, "check-costfn", intro_file)
        assert code == 0
        assert doc["monotone"] and doc["submodular"] and doc["normalized"]

    def test_large_typed_costs_are_submodular(self, capsys, tmp_path):
        inst = gen_intro_example().with_cost_fn(costfn.Additive([0.88, 40.0, 22000.0]))
        path = tmp_path / "large.json"
        path.write_text(json.dumps(instance_to_json(inst)))
        code, doc = run(capsys, "check-costfn", str(path))
        assert code == 0
        assert (doc["submodular"], doc["submodular_witness"]) == (True, None)

    def test_hard_instance_not_submodular(self, capsys, tmp_path):
        main(["gen", "--family", "xos-hard", "--k", "7", "--seed", "2",
              "--out", str(tmp_path / "h.json")])
        capsys.readouterr()
        code, doc = run(capsys, "check-costfn", str(tmp_path / "h.json"))
        assert code == 0
        assert doc["monotone"] is True
        assert doc["submodular"] is False
        assert doc["submodular_witness"] is not None


class TestParserReuse:
    def _calls(self, tmp_path, intro_file):
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(scheme_to_json(
            deterministic_scheme("g", 0.35, frozenset(["g"])))))
        hard = str(tmp_path / "hard.json")
        return [
            ["solve", "--mode", "det", intro_file],
            ["solve", "--mode", "rand", intro_file, "--timing"],
            ["eval", intro_file, str(spath), "--tol", "0.5"],
            ["eval", intro_file, str(spath)],
            ["gen", "--family", "intro"],
            ["gen", "--family", "xos-hard", "--k", "7", "--seed", "3", "--out", hard],
            ["check-costfn", hard],
            ["brute-force", "--mode", "det", intro_file],
            ["compare", "--mode", "det", intro_file],
            ["solve", "--mode", "sideways", intro_file],
            ["solve", "--mode", "det", str(tmp_path / "missing.json")],
            ["solve", "--mode", "rand", hard],
            ["solve", "--mode", "det", hard],
        ]

    def _run_all(self, capsys, monkeypatch, calls, fresh):
        monkeypatch.setattr(cli, "_parser", None)
        results = []
        for argv in calls:
            if fresh:
                monkeypatch.setattr(cli, "_parser", cli.build_parser())
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            out, err = capsys.readouterr()
            if "--timing" in argv:
                out = json.loads(out)
                out.pop("wall_clock_sec")
            written = None
            if "--out" in argv:
                with open(argv[argv.index("--out") + 1]) as fh:
                    written = fh.read()
            results.append((argv, code, out, err, written))
        return results

    def test_reused_parser_matches_fresh_parser(self, capsys, monkeypatch, tmp_path,
                                                intro_file):
        calls = self._calls(tmp_path, intro_file)
        reused = self._run_all(capsys, monkeypatch, calls, fresh=False)
        fresh = self._run_all(capsys, monkeypatch, calls, fresh=True)
        assert reused == fresh
        codes = [code for _, code, *_ in reused]
        assert codes == [0] * 9 + [("SystemExit", 2), 2, 4, 0]

    def test_patched_command_reached_after_first_call(self, capsys, monkeypatch,
                                                      intro_file):
        assert main(["solve", "--mode", "det", intro_file]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args.mode) or 17)
        assert main(["solve", "--mode", "rand", intro_file]) == 17
        assert seen == ["rand"]
