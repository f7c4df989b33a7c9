"""End-to-end tests of the command-line interface: exit codes, JSON
round-trips, determinism, the CSV table variant, which modules each request
loads, a fuzz of the exit-code contract, and the one-subcommand parser
against the full one."""

import argparse
import io
import json
import os
import subprocess
import sys
import time
import typing
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qbounds
from qbounds import (BoundParams, VerificationReport, classify_rank,
                     codim_guarantees, constants, eb_rate_bound,
                     eb_rate_bound_continuous, entropy_d2, johnson_radius,
                     parse_code, rank_bound)
from qbounds import cli, oracle
from qbounds.cli import _COMMANDS, _EVAL, build_parser, main
from qbounds.suites import SUITES

SRC = Path(__file__).resolve().parents[1] / "src"


def _src_env():
    """The environment for a child process that imports qbounds from src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


_P = BoundParams(q=3, n=100, d=25)


def _bound_values(res):
    """The values the CLI prints for a bound: the headline, then the terms."""
    headline = res.rate_upper if hasattr(res, "rate_upper") else res.r_upper
    return [headline, *(v for _, v in res.terms)]


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

    @pytest.mark.parametrize("function, flag", [
        ("entropy", "--x"), ("entropy_d1", "--x"), ("entropy_d2", "--x"),
        ("johnson", "--delta"), ("johnson_d1", "--delta"),
    ])
    def test_missing_argument_exit_2(self, capsys, function, flag):
        code, out, err = run(capsys, "eval", function, "--q", "3")
        assert code == 2
        assert out == ""
        assert err == f"error: eval {function} requires {flag}\n"

    @pytest.mark.parametrize("function", ["entropy_d1", "entropy_d2"])
    def test_non_finite_result_exit_2(self, capsys, function):
        # in float64 the value overflows to +-inf, which is not JSON
        code, out, err = run(capsys, "eval", function, "--q", "2",
                             "--x", "5e-324", "--deterministic")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "--digits" in lines[0]

    @pytest.mark.parametrize("n, e, cause", [
        # 4,771 digits: more than an int prints (4,300)
        ("10000", "5000", "more than 4300 digits, too many to print"),
        # over the ball-volume budget
        (str(10 ** 300), str(10 ** 300), "budget"),
    ], ids=["print-limit", "budget"])
    def test_huge_ball_volume_exit_2(self, capsys, n, e, cause):
        code, out, err = run(capsys, "eval", "ball_volume", "--q", "3",
                             "--n", n, "--e", e, "--deterministic")
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert cause in lines[0] and "--digits" not in lines[0]

    @pytest.mark.parametrize("function, flag, library", [
        ("entropy_d2", "--x", lambda: entropy_d2(2, 5e-324, 30)),  # overflow
        ("johnson", "--delta", lambda: johnson_radius(2, 5e-324, 30)),  # to 0
    ])
    def test_out_of_double_range_at_digits(self, capsys, function, flag,
                                           library):
        # computed at --digits, a value a double cannot hold prints as a
        # decimal string with that many significant digits
        import mpmath
        code, doc, err = run_json(capsys, "eval", function, "--q", "2",
                                  flag, "5e-324", "--digits", "30",
                                  "--deterministic")
        assert code == 0, err
        assert doc["results"]["value"]["value"] == mpmath.nstr(library(), 30)


class TestBound:
    def test_finite_includes_e13(self, capsys):
        code, doc, _ = run_json(capsys, "bound", "--q", "3", "--n", "100",
                                "--d", "25", "--form", "finite",
                                "--deterministic")
        assert code == 0
        assert doc["results"]["e"]["value"] == 13

    def test_integer_johnson_radius_e(self, capsys):
        # J_2(4/9) = 1/3, so 9 J is exactly 3 and e/n < J needs e = 2
        code, doc, _ = run_json(capsys, "bound", "--q", "2", "--n", "9",
                                "--d", "4", "--deterministic")
        assert code == 0
        assert doc["results"]["e"]["value"] == 2

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

    @pytest.mark.parametrize("argv, vacuous", [
        (["--q", "2", "--n", "12", "--d", "2"], True),  # rate 1.168
        (["--q", "2", "--n", "12", "--d", "2", "--form", "continuous"], True),
        (["--q", "3", "--n", "100", "--d", "25"], False),  # rate 0.667
        (["--p", "3", "--n", "16", "--delta", "0.25", "--form", "rank"],
         True),  # 17.5 ranks of 16
        (["--p", "3", "--n", "100", "--delta", "0.25", "--form", "rank"],
         False),  # 67.0 ranks of 100
    ])
    @pytest.mark.parametrize("digits", [[], ["--digits", "30"]])
    def test_vacuous(self, capsys, argv, vacuous, digits):
        code, doc, _ = run_json(capsys, "bound", *argv, *digits,
                                "--deterministic")
        assert code == 0
        assert doc["results"]["vacuous"] is vacuous

    def test_vacuous_is_null_when_undecided(self, capsys):
        # the rate bound at n = 10^320 is within 1e-300 of 1
        code, doc, _ = run_json(capsys, "bound", "--q", "3", "--n", _HUGE,
                                "--d", "5", "--digits", "30",
                                "--deterministic")
        assert code == 0 and doc["results"]["vacuous"] is None

    @pytest.mark.parametrize("p", ["3", "5"])
    def test_q_and_p_together_exit_2(self, capsys, p):
        code, out, err = run(capsys, "bound", "--q", "3", "--p", p, "--n",
                             "100", "--d", "25", "--deterministic")
        assert (code, out) == (2, "")
        assert err == "error: --p is an alias for --q: give one of them\n"

    def test_precondition_exit_2(self, capsys):
        code, _, err = run(capsys, "bound", "--q", "3", "--n", "4",
                           "--d", "1")
        assert code == 2
        assert "error" in err

    def test_rank_zero_length_exit_2(self, capsys):
        code, out, err = run(capsys, "bound", "--p", "3", "--n", "0",
                             "--d", "1", "--form", "rank")
        assert code == 2
        assert out == ""
        assert err == "error: n must be an integer >= 1, got 0\n"

    @pytest.mark.parametrize("argv, printed, library", [
        (["bound", "--p", "3", "--n", "100", "--delta", "0.25",
          "--form", "rank"],
         lambda r: [r["r_upper"], *r["terms"]],
         lambda dig: _bound_values(rank_bound(3, 100, 0.25, dig))),
        (["bound", "--q", "3", "--n", "100", "--d", "25"],
         lambda r: [r["rate_upper"], *r["terms"]],
         lambda dig: _bound_values(eb_rate_bound(_P, dig))),
        (["bound", "--q", "3", "--n", "100", "--d", "25",
          "--form", "continuous"],
         lambda r: [r["rate_upper"], *r["terms"]],
         lambda dig: _bound_values(eb_rate_bound_continuous(_P, dig))),
        (["classify", "--p", "3", "--n", "2000", "--r", "600"],
         lambda r: [r["F_value"], r["codim_caps"]["rank_bound_quarter"],
                    r["codim_caps"]["rank_bound_third"]],
         lambda dig: [classify_rank(3, 2000, 600, dig).F_value,
                      codim_guarantees(3, 2000, 600, dig).rank_bound_quarter,
                      codim_guarantees(3, 2000, 600, dig).rank_bound_third]),
        (["tables", "--which", "constants", "--primes", "3"],
         lambda r: [r["rows"][0][f] for f in ("f1", "f2", "f3", "f4", "f5")],
         lambda dig: [getattr(constants(3, dig), f)
                      for f in ("f1", "f2", "f3", "f4", "f5")]),
        (["oracle", "--q", "2", "--n", "6", "--d", "2"],
         lambda r: [r["eb_rate_bound"]],
         lambda dig: [eb_rate_bound(BoundParams(q=2, n=6, d=2),
                                    dig).rate_upper]),
    ], ids=["rank", "finite", "continuous", "classify", "constants",
            "oracle"])
    def test_rank_digits(self, capsys, argv, printed, library):
        code, doc, _ = run_json(capsys, *argv, "--digits", "30",
                                "--deterministic")
        assert code == 0
        assert doc["inputs"]["digits"] == 30
        assert doc["diagnostics"] == []
        assert [v["value"] for v in printed(doc["results"])] == \
            [float(v) for v in library(30)]


class TestTables:
    def test_constants_f5_definition(self, capsys):
        code, doc, _ = run_json(capsys, "tables", "--which", "constants",
                                "--primes", "3", "--deterministic")
        assert code == 0
        row = doc["results"]["rows"][0]
        from qbounds import johnson_radius
        assert row["f5"]["value"] == pytest.approx(johnson_radius(3, 0.25))

    def test_constants_reads_no_published_value(self, capsys, monkeypatch):
        import qbounds.geometry

        def unreadable():
            raise OSError("paper_constants.json is not to be read")
        monkeypatch.setattr(qbounds.geometry, "paper_tables", unreadable)
        code, doc, _ = run_json(capsys, "tables", "--which", "constants",
                                "--primes", "3", "--deterministic")
        assert code == 0
        assert [r["p"] for r in doc["results"]["rows"]] == [3]

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

    def test_anchor_fails_past_the_true_N(self, capsys, monkeypatch):
        # a published N(3) of 100 claims the anchor past its first
        # failure at 92: the row reads false and the scan stops there
        from qbounds import geometry
        published = geometry.paper_tables

        def raised():
            tables = published()
            tables["N"] = {**tables["N"], 3: 100}
            return tables

        monkeypatch.setattr(geometry, "paper_tables", raised)
        code, doc, err = run_json(capsys, "tables", "--which", "anchor",
                                  "--primes", "3", "--deterministic")
        assert code == 1 and err == "table mismatch against published values\n"
        row, = doc["results"]["rows"]
        assert row["anchor_holds"] is False
        assert row["N_paper"]["value"] == 100
        assert row["scanned"]["value"] == 92 - 15

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "candn0",
                           "--primes", "3", "--format", "csv",
                           "--deterministic")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("p,c,n0_paper")
        assert lines[1].startswith("3,9/32,1908,1908")

    def test_repeated_prime_exit_2(self, capsys):
        code, out, err = run(capsys, "tables", "--which", "constants",
                             "--primes", "3", "5", "3", "--deterministic")
        assert (code, out) == (2, "")
        assert err == "error: prime 3 is given more than once\n"

    def test_primes_needs_a_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--which", "constants", "--primes"])
        assert exc.value.code == 2
        assert "--primes: expected at least one argument" in \
            capsys.readouterr().err

    def test_unsupported_prime(self, capsys):
        code, _, err = run(capsys, "tables", "--which", "candn0",
                           "--primes", "31")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_mismatch_exit_1(self, capsys, monkeypatch, fmt):
        import qbounds.geometry
        published = qbounds.geometry.paper_tables()
        shifted = {**published, "n0": {**published["n0"],
                                       3: published["n0"][3] + 1}}
        monkeypatch.setattr(qbounds.geometry, "paper_tables", lambda: shifted)
        code, out, err = run(capsys, "tables", "--which", "candn0",
                             "--primes", "3", "--format", fmt,
                             "--deterministic")
        assert code == 1
        assert err == "table mismatch against published values\n"
        if fmt == "json":
            row, = json.loads(out)["results"]["rows"]
            assert row["match"] is False
            assert row["n0_paper"]["value"] == 1909
        else:
            assert out.splitlines()[1] == "3,9/32,1909,1908,False"


class TestVerify:
    def test_pigeonhole_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--suite", "pigeonhole",
                             "--seed", "7", "--deterministic")
        code2, out2, _ = run(capsys, "verify", "--suite", "pigeonhole",
                             "--seed", "7", "--deterministic")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("suite", ["pigeonhole", "johnson"])
    def test_lemma_suites_count_degenerate_radii(self, capsys, suite):
        code, doc, _ = run_json(capsys, "verify", "--suite", suite,
                                "--deterministic")
        assert code == 0
        rep, = doc["results"]["reports"]
        assert 0 < rep["payload"]["degenerate_radius"] < 200

    @pytest.mark.parametrize("suite", ["pigeonhole", "johnson"])
    def test_lemma_suites_match_the_golden_files(self, capsys, suite):
        # the files hold the stdout of an earlier release, byte for byte
        golden = Path(__file__).parent / "golden" / f"verify-{suite}-seed1.json"
        code, out, _ = run(capsys, "verify", "--suite", suite, "--seed", "1",
                           "--deterministic")
        assert code == 0
        assert out == golden.read_text()

    @pytest.mark.parametrize("suite", ["stirling", "monotonicity", "f1",
                                       "eb-soundness"])
    def test_deterministic_suites_match_the_golden_files(self, capsys, suite):
        # the files hold the stdout of an earlier release, byte for byte
        golden = Path(__file__).parent / "golden" / f"verify-{suite}.json"
        code, out, _ = run(capsys, "verify", "--suite", suite,
                           "--deterministic")
        assert code == 0
        assert out == golden.read_text()

    @pytest.mark.parametrize("suite", ["all", *SUITES])
    def test_negative_seed_exit_2(self, capsys, suite):
        # random.Random seeds from |seed|, so -1 would rerun seed 1; the
        # check comes before any suite runs
        code, out, err = run(capsys, "verify", "--suite", suite,
                             "--seed", "-1", "--deterministic")
        assert (code, out) == (2, "")
        assert err == "error: --seed must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize("which", ["anchor", "Np", "candn0"])
    def test_tables_match_the_golden_files(self, capsys, which):
        # the files hold an earlier release's stdout; they print integers
        # only, so they hold on every platform
        golden = Path(__file__).parent / "golden" / f"tables-{which}.json"
        code, out, _ = run(capsys, "tables", "--which", which,
                           "--deterministic")
        assert code == 0
        assert out == golden.read_text()

    def test_envelope_matches_the_golden_file(self, capsys):
        # the file holds the stdout of a release that scanned every n up to
        # 10^5; the proven tail must not move n* or the count of instances
        golden = Path(__file__).parent / "golden" / "verify-envelope.json"
        code, out, _ = run(capsys, "verify", "--suite", "envelope",
                           "--deterministic")
        assert code == 0
        assert out == golden.read_text()

    @pytest.mark.parametrize("golden, argv", [
        ("tables-anchor", ["tables", "--which", "anchor"]),
        ("tables-Np", ["tables", "--which", "Np"]),
        ("tables-candn0", ["tables", "--which", "candn0"]),
        ("verify-envelope", ["verify", "--suite", "envelope"])],
        ids=["anchor", "Np", "candn0", "envelope"])
    def test_scan_goldens_hold_at_40_digits(self, capsys, golden, argv):
        # more digits re-decide only the close comparisons, and no scan
        # decision changes: the document is the golden one but for its
        # inputs.digits
        code, doc, _ = run_json(capsys, *argv, "--digits", "40",
                                "--deterministic")
        assert code == 0
        assert doc["inputs"].pop("digits") == 40
        path = Path(__file__).parent / "golden" / f"{golden}.json"
        assert doc == json.loads(path.read_text())

    def test_f1_suite(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--suite", "f1",
                                "--deterministic")
        assert code == 0
        rep = doc["results"]["reports"][0]
        assert rep["passed"]
        assert rep["payload"]["f1_29"] < 0.375 < rep["payload"]["f1_31"]

    @pytest.mark.parametrize("suite, library", [
        ("f1", "f1_monotonicity_scan"), ("envelope", "envelope_check")])
    # explicit ids: these test ids are tracked across versions
    @pytest.mark.parametrize("digits", [None, 40],
                             ids=["None-policy0", "40-policy1"])
    def test_digits_sets_the_policy(self, capsys, monkeypatch, suite, library,
                                    digits):
        import qbounds.geometry
        seen = []

        def fake(*args):
            seen.append(args[-1])
            return VerificationReport(suite, 1, True, payload={
                "n_star": 16, "escalations": 0})

        # the f1 suite looks its scan up in the package namespace, the
        # envelope suite in geometry
        monkeypatch.setattr(qbounds, library, fake, raising=False)
        monkeypatch.setattr(qbounds.geometry, library, fake)
        argv = ["verify", "--suite", suite, "--deterministic"]
        if digits is not None:
            argv += ["--digits", str(digits)]
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0
        assert doc["inputs"].get("digits") == digits
        assert seen and all(d == digits for d in seen)

    @pytest.mark.parametrize("pretty", [False, True],
                             ids=["json", "pretty"])
    def test_failed_suite_exit_1(self, capsys, monkeypatch, pretty):
        # a failing johnson report carries its centre as a tuple
        failed = VerificationReport(
            suite="johnson", instances_checked=4, passed=False,
            counterexample={"code": "2 3 2\n000\n111", "e": 1, "cap": 18,
                            "center": (0, 1, 0), "count": 19})
        monkeypatch.setitem(SUITES, "f1", lambda seed, digits=None: failed)
        code, out, err = run(capsys, "verify", "--suite", "f1",
                             *["--pretty"] * pretty, "--deterministic")
        assert (code, err) == (1, "")
        if pretty:
            lines = out.splitlines()
            assert "      passed: False" in lines
            assert "        center: (0, 1, 0)" in lines
            assert "        count: 19" in lines
        else:
            rep, = json.loads(out)["results"]["reports"]
            assert rep["passed"] is False
            assert rep["counterexample"] == {
                "code": "2 3 2\n000\n111", "e": 1, "cap": 18,
                "center": [0, 1, 0], "count": 19}

    def test_stirling_suite(self, capsys):
        # ln k! lies within float64 noise of the bracket's upper edge from
        # k ~ 1e3 on; the suite must compare in software precision
        code, doc, _ = run_json(capsys, "verify", "--suite", "stirling",
                                "--deterministic")
        assert code == 0
        assert doc["results"]["reports"][0]["passed"]


class TestOracle:
    @pytest.mark.parametrize("q, n, d", [(2, 8, 4), (2, 12, 7), (3, 5, 3),
                                         (4, 5, 4), (5, 6, 6), (2, 19, 15)])
    def test_matches_the_golden_files(self, capsys, q, n, d):
        # the files hold an earlier release's stdout, whose search built its
        # candidates and rows with numpy; the witness, the bound and the
        # verdict must not move
        golden = Path(__file__).parent / "golden" / f"oracle-q{q}-n{n}-d{d}.json"
        code, out, _ = run(capsys, "oracle", "--q", str(q), "--n", str(n),
                           "--d", str(d), "--deterministic")
        assert code == 0
        assert out == golden.read_text()

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

    def test_witness_beyond_ten_symbols_parses(self, capsys):
        code, doc, _ = run_json(capsys, "oracle", "--q", "11", "--n", "2",
                                "--d", "2", "--deterministic")
        assert code == 0
        witness = parse_code(doc["results"]["witness"])
        assert witness.size == doc["results"]["max_code_size"]["value"] == 11
        assert (10, 10) in witness.words

    def test_budget_exit_2(self, capsys):
        code, _, err = run(capsys, "oracle", "--q", "5", "--n", "10",
                           "--d", "3")
        assert code == 2

    @pytest.mark.parametrize("n", ["10000", "30000000"])
    def test_huge_space_exit_2(self, capsys, n):
        # 3^10000 has too many digits for str(); 3^(3 10^7) took seconds
        start = time.monotonic()
        code, out, err = run(capsys, "oracle", "--q", "3", "--n", n,
                             "--d", "3")
        assert time.monotonic() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: q^n = 3^{n} exceeds budget 1000000\n"

    def test_time_limit_is_no_option(self, capsys):
        # the work budget ends every search; the library keeps its clock
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--q", "3", "--n", "4", "--d", "3",
                  "--time-limit", "5"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --time-limit 5" in err

    def test_sum_code_exit_0(self, capsys):
        # A_3(12, 2) = 3^11 in closed form, its witness serialized with
        # the distance it has by construction
        start = time.monotonic()
        code, doc, _ = run_json(capsys, "oracle", "--q", "3", "--n", "12",
                                "--d", "2", "--deterministic")
        assert time.monotonic() - start < 2.0
        assert code == 0
        assert doc["results"]["max_code_size"]["value"] == 177147
        assert doc["results"]["witness"].startswith("3 12 177147 2\n")

    def test_work_budget_exit_2(self, capsys):
        # the search for A_5(4, 3) needs 125,532,664 units of work; it
        # stops at the fixed budget, whatever the machine's speed
        start = time.monotonic()
        code, out, err = run(capsys, "oracle", "--q", "5", "--n", "4",
                             "--d", "3")
        assert time.monotonic() - start < 2.0
        assert (code, out) == (2, "")
        assert err == "error: work budget 2000000 spent\n"

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

    def test_F_rounded_to_r_is_re_decided(self, capsys):
        # F = 273222997.99999997 rounds to r in double precision
        code, doc, _ = run_json(capsys, "classify", "--p", "3", "--n",
                                "1004637445", "--r", "273222998",
                                "--deterministic")
        assert code == 0
        assert doc["results"]["F_value"]["value"] == 273222998.0
        assert doc["results"]["classification"] == "MAIN_THEOREM"


# 10^320: an integer past the largest double
_HUGE = str(10 ** 320)

# subcommand -> the arguments of one small valid request
_MINIMAL_REQUESTS = {
    "eval": ["entropy", "--q", "3", "--x", "0.3"],
    "bound": ["--q", "3", "--n", "100", "--d", "25"],
    "tables": ["--which", "constants", "--primes", "3"],
    "verify": ["--suite", "f1"],
    "oracle": ["--q", "3", "--n", "4", "--d", "3"],
    "classify": ["--p", "3", "--n", "2000", "--r", "600"],
}


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

    def test_precision_comes_from_digits_alone(self, capsys, monkeypatch):
        argv = ["eval", "entropy", "--q", "3", "--x", "0.25", "--deterministic"]
        plain = run(capsys, *argv)
        monkeypatch.setenv("QB_PRECISION", "40")
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == plain
        assert "digits" not in json.loads(out)["inputs"]

    @pytest.mark.parametrize("argv", [
        ["eval", "entropy", "--digits", "-5"],
        ["eval", "entropy", "--digits", "0"],
        ["tables", "--which", "constants", "--digits", "0"],
        ["bound", "--q", "3", "--n", "100", "--d", "25", "--digits", "-5"],
    ], ids=["digits-negative", "digits-zero", "tables-digits-zero",
            "bound-digits-negative"])
    def test_bad_precision_exit_2(self, capsys, argv):
        if argv[0] == "eval":
            argv = argv + ["--q", "3", "--x", "0.3"]
        code, out, err = run(capsys, *argv, "--deterministic")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["eval", "stirling", "--k", _HUGE],
        ["bound", "--q", "3", "--n", _HUGE, "--d", "5"],
        ["bound", "--p", "3", "--n", _HUGE, "--delta", "0.25", "--form",
         "rank"],
        ["eval", "johnson", "--q", _HUGE, "--delta", "0.5"],
        ["eval", "entropy_d1", "--q", _HUGE, "--x", "0.5"],
        ["classify", "--p", "3", "--n", _HUGE, "--r", "3"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_int_beyond_double_exit_2(self, capsys, argv):
        # 10^320 is past the largest double: float64 cannot take it, and
        # --digits can
        code, out, err = run(capsys, *argv, "--deterministic")
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "--digits" in lines[0]
        code, doc, err = run_json(capsys, *argv, "--digits", "30",
                                  "--deterministic")
        assert (code, err) == (0, "")
        assert doc["inputs"]["digits"] == 30

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_document_shape(self, capsys, command):
        argv = [command, *_MINIMAL_REQUESTS[command], "--digits", "30"]
        code, doc, _ = run_json(capsys, *argv, "--deterministic")
        assert code == 0
        assert set(doc) == {"schema_version", "command", "inputs", "results",
                            "diagnostics"}
        assert doc["command"] == command
        assert doc["inputs"]["digits"] == 30
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0 and "timestamp" in doc

    def test_broken_pipe_exit_141(self, monkeypatch, capsys):
        # a reader that closed the pipe: no traceback, the SIGPIPE code
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["tables", "--which", "constants", "--deterministic"])
        assert sys.stdout.name == os.devnull
        sys.stdout.close()
        assert code == 141
        assert capsys.readouterr().err == ""

    def test_pretty_renders(self, capsys):
        code, out, _ = run(capsys, "eval", "johnson", "--q", "3",
                           "--delta", "0.25", "--pretty", "--deterministic")
        assert code == 0
        assert "computed" in out
        lines = out.splitlines()
        assert "command: eval" in lines
        assert "  q: 3" in lines
        assert "schema_version: 1" in lines


# Stages of requests run in order in one process: each stage's requests
# with their exit codes, which of dataclasses, numpy and mpmath are loaded
# after it, and which qbounds submodules it added.  No stage may load
# dataclasses, none before the oracle requests numpy, none before the
# high-precision requests mpmath, and only the oracle requests the oracle.
_STAGES = [
    ([(["eval", "entropy", "--q", "3", "--x", "0.3"], 0)], [], ["qcore"]),
    ([(["bound", "--q", "3", "--n", "100", "--d", "25"], 0),
      (["bound", "--p", "3", "--n", "16", "--delta", "0.25", "--form", "rank"],
       0)],
     [], ["eb_bounds"]),
    ([(["classify", "--p", "3", "--n", "2000", "--r", "600"], 0),
      (["tables", "--which", "constants"], 0),
      (["verify", "--suite", "f1"], 0),
      (["verify", "--suite", "monotonicity"], 0)],
     [], ["geometry"]),
    # the n0 scan proves its tail and searches below it with scalar
    # enclosures in double precision
    ([(["tables", "--which", "candn0"], 0)], [], ["data"]),
    ([(["oracle", "--q", "2", "--n", "30", "--d", "3"], 2)],  # over budget
     [], ["oracle"]),
    # the search's candidates and rows come from half-word bitset tables,
    # and its witness's distance is set by construction
    ([(["oracle", "--q", "3", "--n", "4", "--d", "3"], 0)], [], []),
    # the envelope proves its tail and searches below it with scalar
    # enclosures in double precision
    ([(["verify", "--suite", "envelope"], 0)], [], []),
    # so do the N scan and the anchor table read from it
    ([(["tables", "--which", "Np", "--primes", "3"], 0),
      (["tables", "--which", "anchor", "--primes", "3"], 0),
      (["tables", "--which", "candn0", "--primes", "3"], 0)],
     [], []),
    # high precision
    ([(["eval", "entropy", "--q", "3", "--x", "0.3", "--digits", "50"], 0)],
     ["mpmath"], []),
]

_IMPORT_PROBE = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

def run(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return qbounds.cli.main(argv + ["--deterministic"])

seen = set()

def loaded():
    global seen
    now = {m.split(".")[1] for m in sys.modules if m.startswith("qbounds.")}
    added, seen = sorted(now - seen), now
    heavy = [m for m in ("dataclasses", "numpy", "mpmath") if m in sys.modules]
    return [heavy, added]

import qbounds
result = [[[], *loaded()]]
import qbounds.cli
result.append([[], *loaded()])
for stage in json.loads(sys.argv[1]):
    result.append([[run(argv) for argv in stage], *loaded()])
print(json.dumps(result))
"""


def test_heavy_imports_load_only_on_use():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                           json.dumps([[argv for argv, _ in requests]
                                       for requests, _, _ in _STAGES])],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [[], [], ["errors"]],  # import qbounds
        [[], [], ["cli", "precision", "report", "suites"]],  # its CLI
        *([[code for _, code in requests], heavy, added]
          for requests, heavy, added in _STAGES),
    ]


_PUBLIC_NAMES = [
    "AmbiguousComparisonError", "BoundParams", "BoundResult", "Classification",
    "Code", "CodimReport", "DerivedCN0", "DerivedN",
    "DomainError", "PreconditionError", "PrimeConstants",
    "QBoundsError", "RankBoundResult", "ResourceBudgetError",
    "ThresholdReport", "VerificationReport", "baseline_rank", "classify_rank",
    "codim_guarantees", "constants", "derive_N", "derive_c_n0",
    "eb_rate_bound", "eb_rate_bound_continuous", "eb_soundness_sweep",
    "entropy", "entropy_d1", "entropy_d2", "envelope_check",
    "f1_monotonicity_scan", "hamming_ball_volume", "is_prime",
    "johnson_ball_check", "johnson_radius", "johnson_radius_d1",
    "johnson_suite", "make_code", "max_code_size", "paper_tables",
    "parse_code", "pigeonhole_suite", "pigeonhole_witness", "random_code",
    "rank_bound", "serialize_code", "stirling_bounds", "threshold_F",
    "threshold_F_array", "verify_rank_monotonicity",
]


def test_public_names_resolve():
    import qbounds
    assert sorted(qbounds.__all__) == _PUBLIC_NAMES
    assert set(_PUBLIC_NAMES) <= set(dir(qbounds))
    for name in _PUBLIC_NAMES:
        getattr(qbounds, name)  # AttributeError if it does not resolve
    assert qbounds.geometry.threshold_F is qbounds.threshold_F
    with pytest.raises(AttributeError):
        qbounds.no_such_name


def test_type_hints_resolve():
    # the modules import numpy inside functions only, so an annotation
    # naming np would raise NameError here
    for obj in [*(getattr(qbounds, name) for name in qbounds.__all__),
                oracle.all_words_array, oracle._words_array,
                oracle._distance_blocks, oracle._lemma_space]:
        typing.get_type_hints(obj)


# --- fuzz: every request ends with exit 0, 1 or 2, never a traceback ------

# integers on both sides of the largest double (about 1.8e308)
_HUGE_INTS = st.integers(10 ** 300, 10 ** 320)
_INTS = st.integers(-3, 300) | _HUGE_INTS
_SIZES = st.integers(-3, 40) | st.integers(-3, 10 ** 6) | _HUGE_INTS
# subnormal floats reach values that overflow a double (entropy_d1 near 0)
_FLOATS = (st.floats(allow_nan=True, allow_infinity=True)
           | st.floats(-0.5, 1.5) | st.floats(0.0, 1e-308))


def _flags(draw, options):
    """``--name=value`` for a drawn subset of ``options`` (name -> values);
    the ``=`` form keeps a value such as -inf from reading as a flag."""
    argv = []
    for name, values in options.items():
        value = draw(st.none() | values)
        if value is not None:
            argv.append(f"--{name}={value!r}")
    return argv


@st.composite
def _eval_argv(draw):
    return ["eval", draw(st.sampled_from(list(_EVAL))), *_flags(draw, {
        "q": _INTS, "x": _FLOATS, "delta": _FLOATS, "n": _INTS, "e": _INTS,
        "k": st.integers(-3, 10 ** 9) | _HUGE_INTS,
        "digits": st.integers(-2, 60)})]


@st.composite
def _bound_argv(draw):
    form = draw(st.sampled_from(["finite", "continuous", "rank"]))
    return ["bound", f"--form={form}", f"--n={draw(_SIZES)}", *_flags(draw, {
        "q": _INTS, "p": _INTS, "d": _SIZES, "delta": _FLOATS,
        "digits": st.integers(-2, 60)})]


@st.composite
def _classify_argv(draw):
    return ["classify", *(f"--{name}={draw(_SIZES)}" for name in "pnr"),
            *_flags(draw, {"digits": st.integers(-2, 60)})]


@st.composite
def _oracle_argv(draw):
    q, n = draw(st.integers(-1, 16)), draw(st.integers(0, 12))
    if q ** n > 4096:
        n = 1
    d = draw(st.integers(-1, n + 1))
    return ["oracle", f"--q={q}", f"--n={n}", f"--d={d}"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--deterministic"])
    assert code in (0, 1, 2), argv
    if code == 0:  # strict JSON: no Infinity, -Infinity or NaN
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(argv=_eval_argv())
def test_fuzz_eval_requests(argv):
    _check_contract(argv)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(argv=_bound_argv())
def test_fuzz_bound_requests(argv):
    _check_contract(argv)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(argv=_classify_argv())
def test_fuzz_classify_requests(argv):
    _check_contract(argv)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(argv=_oracle_argv())
def test_fuzz_oracle_requests(argv):
    _check_contract(argv)


# --- a request's parser: the named subcommand's alone, as the full one ----

_ARGV_CORPUS = [
    ["-h"], *([name, "-h"] for name in _COMMANDS), ["--version"], [],
    ["nope"],  # unknown subcommand
    ["eval", "nope", "--q", "3"],  # invalid choice
    ["bound", "--q", "x", "--n", "5"],  # bad int
    ["eval", "entropy", "--q", "3", "--x", "abc"],  # bad float
    ["oracle", "--q", "3", "--n", "4", "--d", "3", "--time-limit", "abc"],
    ["eval", "entropy", "--q", "3", "--x", "0.3", "--bogus"],  # unrecognized
    ["eval", "entropy", "--q", "3", "--x", "0.3", "stray"],
    ["--", "eval", "entropy", "--q", "3", "--x", "0.3"],
    ["bound", "--d", "3"], ["tables"], ["eval"],  # a required one missing
    ["bound", "--q", "3", "--n", "100", "--de", "0.2"],  # ambiguous prefix
    ["eval", "entropy", "--q", "3", "--x", "0.3", "--det"],  # unique prefix
    ["--bogus", "eval"], ["--version", "eval"], ["-h", "eval"],
    ["tables", "--which", "anchor", "--primes", "3", "19", "--format", "csv"],
    ["verify", "--suite", "f1", "--seed", "7", "--pretty"],
    ["classify", "--p", "3", "--n", "20", "--r", "11", "--digits", "30"],
]


def _parse(parser, argv):
    """The namespace parsing ``argv`` gives, or its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


def _same_as_full_parser(argv):
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    # repr, as a parsed nan is not equal to itself
    assert repr(_parse(build_parser(command), argv)) == \
        repr(_parse(build_parser(), argv)), argv


@pytest.fixture
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to it


@pytest.mark.parametrize("argv", _ARGV_CORPUS, ids=" ".join)
def test_named_parser_parses_as_full(fixed_width, argv):
    _same_as_full_parser(argv)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=_eval_argv() | _bound_argv() | _classify_argv() | _oracle_argv())
def test_named_parser_parses_drawn_requests_as_full(argv):
    _same_as_full_parser(argv)


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["nope"], "argument command: invalid choice: 'nope'"),
])
def test_usage_errors_name_the_command(argv, message):
    code, out, err = _parse(build_parser(), argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(f"qbounds: error: {message}")


def _subcommands(parser):
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


def test_full_parser_registers_every_subcommand():
    assert _subcommands(build_parser()) == [
        "eval", "bound", "tables", "verify", "oracle", "classify"]
    assert _subcommands(build_parser("tables")) == ["tables"]


def test_main_reads_sys_argv(capsys, monkeypatch):
    built = []

    def recording(command=None):
        built.append(command)
        return build_parser(command)

    argv = ["eval", "entropy", "--q", "3", "--x", "0.3", "--deterministic"]
    expected = run(capsys, *argv)
    monkeypatch.setattr(cli, "build_parser", recording)
    monkeypatch.setattr(sys, "argv", ["qbounds", *argv])
    assert main() == 0
    assert (0, *capsys.readouterr()) == expected
    assert built == ["eval"]
