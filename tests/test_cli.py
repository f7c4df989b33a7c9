"""End-to-end tests of the command-line interface: exit codes, JSON
round-trips, determinism, and the CSV table variant."""

import json

import pytest

from qbounds.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestEval:
    def test_johnson_value(self, capsys):
        code, doc, _ = run_json(capsys, "eval", "johnson", "--q", "3",
                                "--delta", "0.25", "--deterministic")
        assert code == 0
        assert doc["results"]["value"]["value"] <= 0.14
        assert doc["results"]["value"]["provenance"] == "computed"

    def test_entropy_near_max(self, capsys):
        code, doc, _ = run_json(capsys, "eval", "entropy", "--q", "3",
                                "--x", "0.6666666667", "--deterministic")
        assert code == 0
        assert doc["results"]["value"]["value"] == pytest.approx(1.0, abs=1e-9)

    def test_ball_volume(self, capsys):
        code, doc, _ = run_json(capsys, "eval", "ball_volume", "--q", "3",
                                "--n", "4", "--e", "1", "--deterministic")
        assert code == 0
        assert doc["results"]["value"]["value"] == 9

    def test_stirling_bracket(self, capsys):
        code, doc, _ = run_json(capsys, "eval", "stirling", "--k", "10",
                                "--deterministic")
        assert code == 0
        assert doc["results"]["lower"]["value"] < doc["results"]["upper"]["value"]

    def test_unknown_function_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "nope", "--q", "3"])
        assert exc.value.code == 2

    def test_domain_error_exit_2(self, capsys):
        code, out, err = run(capsys, "eval", "entropy", "--q", "3",
                             "--x", "1.5")
        assert code == 2
        assert "error" in err


class TestBound:
    def test_finite_includes_e13(self, capsys):
        code, doc, _ = run_json(capsys, "bound", "--q", "3", "--n", "100",
                                "--d", "25", "--form", "finite",
                                "--deterministic")
        assert code == 0
        assert doc["results"]["e"]["value"] == 13

    def test_rank_monotonicity_across_delta(self, capsys):
        _, doc14, _ = run_json(capsys, "bound", "--p", "3", "--n", "16",
                               "--delta", "0.25", "--form", "rank",
                               "--deterministic")
        _, doc13, _ = run_json(capsys, "bound", "--p", "3", "--n", "16",
                               "--delta", "0.3333333333333333",
                               "--form", "rank", "--deterministic")
        assert doc13["results"]["r_upper"]["value"] < \
            doc14["results"]["r_upper"]["value"]

    def test_continuous_dominates_finite(self, capsys):
        _, fin, _ = run_json(capsys, "bound", "--q", "3", "--n", "100",
                             "--d", "25", "--deterministic")
        _, cont, _ = run_json(capsys, "bound", "--q", "3", "--n", "100",
                              "--d", "25", "--form", "continuous",
                              "--deterministic")
        assert (cont["results"]["rate_upper"]["value"]
                >= fin["results"]["rate_upper"]["value"])

    def test_terms_sum_to_total(self, capsys):
        _, doc, _ = run_json(capsys, "bound", "--q", "3", "--n", "100",
                             "--d", "25", "--deterministic")
        total = sum(t["value"] for t in doc["results"]["terms"])
        assert total == pytest.approx(doc["results"]["rate_upper"]["value"],
                                      rel=1e-12)

    def test_precondition_exit_2(self, capsys):
        code, _, err = run(capsys, "bound", "--q", "3", "--n", "4",
                           "--d", "1")
        assert code == 2
        assert "error" in err


class TestTables:
    def test_constants_f5_definition(self, capsys):
        code, doc, _ = run_json(capsys, "tables", "--which", "constants",
                                "--primes", "3", "--deterministic")
        assert code == 0
        row = doc["results"]["rows"][0]
        from qbounds import johnson_radius
        assert row["f5"]["value"] == pytest.approx(johnson_radius(3, 0.25))

    def test_candn0_match(self, capsys):
        code, doc, _ = run_json(capsys, "tables", "--which", "candn0",
                                "--primes", "3", "19", "--deterministic")
        assert code == 0
        rows = {r["p"]: r for r in doc["results"]["rows"]}
        assert rows[3]["n0_recomputed"]["value"] == 1908
        assert rows[3]["n0_paper"]["provenance"] == "paper-constant"
        assert rows[19]["match"]

    def test_np_match(self, capsys):
        code, doc, _ = run_json(capsys, "tables", "--which", "Np",
                                "--primes", "3", "--deterministic")
        assert code == 0
        assert doc["results"]["rows"][0]["N_recomputed"]["value"] == 91

    def test_anchor(self, capsys):
        code, doc, _ = run_json(capsys, "tables", "--which", "anchor",
                                "--primes", "3", "--deterministic")
        assert code == 0
        assert doc["results"]["rows"][0]["anchor_holds"]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "candn0",
                           "--primes", "3", "--format", "csv",
                           "--deterministic")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("p,c,n0_paper")
        assert lines[1].startswith("3,9/32,1908,1908")

    def test_unsupported_prime(self, capsys):
        code, _, err = run(capsys, "tables", "--which", "candn0",
                           "--primes", "31")
        assert code == 2


class TestVerify:
    def test_pigeonhole_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--suite", "pigeonhole",
                             "--seed", "7", "--deterministic")
        code2, out2, _ = run(capsys, "verify", "--suite", "pigeonhole",
                             "--seed", "7", "--deterministic")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_f1_suite(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--suite", "f1",
                                "--deterministic")
        assert code == 0
        rep = doc["results"]["reports"][0]
        assert rep["passed"]
        assert rep["payload"]["f1_29"] < 0.375 < rep["payload"]["f1_31"]

    def test_stirling_suite(self, capsys):
        # ln k! lies within float64 noise of the bracket's upper edge from
        # k ~ 1e3 on; the suite must compare in software precision
        code, doc, _ = run_json(capsys, "verify", "--suite", "stirling",
                                "--deterministic")
        assert code == 0
        assert doc["results"]["reports"][0]["passed"]


class TestOracle:
    def test_a3_4_3(self, capsys):
        code, doc, _ = run_json(capsys, "oracle", "--q", "3", "--n", "4",
                                "--d", "3", "--deterministic")
        assert code == 0
        assert doc["results"]["max_code_size"]["value"] == 9
        assert doc["results"]["witness"].startswith("3 4 9 3\n")

    def test_soundness_comparison_when_in_domain(self, capsys):
        code, doc, _ = run_json(capsys, "oracle", "--q", "2", "--n", "6",
                                "--d", "2", "--deterministic")
        assert code == 0
        assert doc["results"]["sound"]

    def test_repetition(self, capsys):
        code, doc, _ = run_json(capsys, "oracle", "--q", "2", "--n", "5",
                                "--d", "5", "--deterministic")
        assert code == 0
        assert doc["results"]["max_code_size"]["value"] == 2

    def test_whole_space(self, capsys):
        code, doc, _ = run_json(capsys, "oracle", "--q", "3", "--n", "4",
                                "--d", "1", "--deterministic")
        assert code == 0
        assert doc["results"]["max_code_size"]["value"] == 81

    def test_budget_exit_2(self, capsys):
        code, _, err = run(capsys, "oracle", "--q", "5", "--n", "10",
                           "--d", "3")
        assert code == 2

    def test_deep_clique_exit_0(self, capsys):
        code, doc, _ = run_json(capsys, "oracle", "--q", "2", "--n", "11",
                                "--d", "2", "--deterministic")
        assert code == 0
        assert doc["results"]["max_code_size"]["value"] == 1024

    @pytest.mark.parametrize("q, n, d, value, by, optimality", [
        (3, 4, 3, 9, "singleton", "bound met"),
        (2, 7, 3, 16, "sphere-packing", "bound met"),
        (2, 8, 4, 28, "sphere-packing", "search exhausted"),
    ])
    def test_upper_bound_and_optimality(self, capsys, q, n, d, value, by,
                                        optimality):
        argv = ("oracle", "--q", str(q), "--n", str(n), "--d", str(d),
                "--deterministic")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["upper_bound"] == {"value": value, "by": by,
                                          "provenance": "computed"}
        assert results["optimality"] == optimality
        assert run(capsys, *argv)[1] == out


class TestClassify:
    def test_main_theorem(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--p", "3", "--n", "2000",
                                "--r", "600", "--deterministic")
        assert code == 0
        assert doc["results"]["classification"] == "MAIN_THEOREM"
        assert "codim_caps" in doc["results"]
        assert "homotopy equivalent" in doc["results"]["conclusion"]

    def test_impossible(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--p", "3", "--n", "20",
                                "--r", "11", "--deterministic")
        assert code == 0
        assert doc["results"]["classification"] == "IMPOSSIBLE"

    def test_no_conclusion(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--p", "3", "--n", "50",
                                "--r", "3", "--deterministic")
        assert code == 0
        assert doc["results"]["classification"] == "NO_CONCLUSION"


class TestDocumentContract:
    def test_round_trip_and_determinism(self, capsys):
        _, out1, _ = run(capsys, "bound", "--q", "3", "--n", "100", "--d",
                         "25", "--deterministic")
        _, out2, _ = run(capsys, "bound", "--q", "3", "--n", "100", "--d",
                         "25", "--deterministic")
        assert out1 == out2
        doc = json.loads(out1)
        assert json.loads(json.dumps(doc)) == doc
        assert doc["schema_version"] == "1"
        assert "timestamp" not in doc

    def test_timestamp_present_without_flag(self, capsys):
        _, doc, _ = run_json(capsys, "eval", "johnson", "--q", "3",
                             "--delta", "0.25")
        assert "timestamp" in doc

    def test_qb_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QB_PRECISION", "30")
        code, doc, _ = run_json(capsys, "eval", "entropy", "--q", "3",
                                "--x", "0.25", "--deterministic")
        assert code == 0
        assert doc["inputs"]["digits"] == 30

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QB_PRECISION", "30")
        _, doc, _ = run_json(capsys, "eval", "entropy", "--q", "3",
                             "--x", "0.25", "--digits", "40",
                             "--deterministic")
        assert doc["inputs"]["digits"] == 40

    @pytest.mark.parametrize("argv, env", [
        (["eval", "entropy", "--digits", "-5"], None),
        (["eval", "entropy", "--digits", "0"], None),
        (["eval", "entropy"], "0"),
        (["tables", "--which", "constants", "--digits", "0"], None),
        (["bound", "--q", "3", "--n", "100", "--d", "25", "--digits", "-5"],
         None),
    ], ids=["digits-negative", "digits-zero", "env-zero", "tables-digits-zero",
            "bound-digits-negative"])
    def test_bad_precision_exit_2(self, capsys, monkeypatch, argv, env):
        if env is None:
            monkeypatch.delenv("QB_PRECISION", raising=False)
        else:
            monkeypatch.setenv("QB_PRECISION", env)
        if argv[0] == "eval":
            argv = argv + ["--q", "3", "--x", "0.3"]
        code, out, err = run(capsys, *argv, "--deterministic")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1

    def test_pretty_renders(self, capsys):
        code, out, _ = run(capsys, "eval", "johnson", "--q", "3",
                           "--delta", "0.25", "--pretty", "--deterministic")
        assert code == 0
        assert "computed" in out
