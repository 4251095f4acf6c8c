import json

import pytest

from icx import cli, costfn
from icx.cli import main
from icx.families import gen_intro_example, gen_nonic_example
from icx.model import deterministic_scheme
from icx.serialization import instance_to_json, scheme_to_json


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
