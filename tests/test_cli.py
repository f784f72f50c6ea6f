"""Tests for the command-line interface: solve, residual, verify, eval,
and diff subcommands, their exit codes, and the three output styles."""

import contextlib
import io
import json
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltanabla import cli
from deltanabla.cli import main
from deltanabla.oracle import IdentityFuzz
from deltanabla.problemfile import load_problem


@pytest.fixture
def example_file(tmp_path):
    doc = {
        "timescale": {"uniform": {"a": 0, "b": 3, "n": 4}},
        "boundary": {"alpha": 0, "beta": 3},
        "objective": {"delta": "v^2", "nabla": "v^2 + v"},
        "constraint": {"delta": "t*v", "nabla": {"constant_over_measure": True}},
        "k": 1,
    }
    path = tmp_path / "example.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def unsat_file(tmp_path):
    doc = {
        "timescale": {"uniform": {"a": 0, "b": 3, "n": 4}},
        "boundary": {"alpha": 0, "beta": 1},
        "objective": {"delta": "v^2", "nabla": "v^2"},
        "constraint": {"delta": "2", "nabla": "1"},
        "k": 5,
    }
    path = tmp_path / "unsat.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_solve_table(example_file, capsys):
    rc = main(["solve", example_file])
    out = capsys.readouterr().out
    assert rc == 0
    assert "converged: yes" in out
    assert "classification: normal" in out
    assert "lambda: -26" in out
    assert "objective: delta 5 nabla 8 product 40" in out
    assert "t  y  y_delta  y_nabla  residual_EL1  residual_EL2" in out
    # undefined corners render as dashes
    assert "0  0  2        -        -             57" in out


def test_solve_structured(example_file, capsys):
    rc = main(["solve", example_file, "--output", "structured"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "solve"
    assert doc["result"]["converged"] is True
    assert doc["result"]["lambda"] == pytest.approx(-26.0, abs=1e-6)
    assert doc["result"]["classification"] == "normal"
    assert doc["result"]["y"] == pytest.approx([0.0, 2.0, 3.0, 3.0], abs=1e-8)
    rows = doc["rows"]
    assert len(rows) == 4
    assert rows[0]["residual_EL1"] is None
    assert rows[0]["y_nabla"] is None
    assert rows[-1]["y_delta"] is None
    assert rows[-1]["residual_EL2"] is None
    assert rows[1]["residual_EL2"] == pytest.approx(57.0, abs=1e-6)
    assert doc["abnormal"] == []


def test_solve_csv(example_file, capsys):
    rc = main(["solve", example_file, "--output", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,y,y_delta,y_nabla,residual_EL1,residual_EL2"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[3] == "" and first[4] == ""
    last = lines[4].split(",")
    assert last[2] == "" and last[5] == ""


def test_solve_emit_problem_round_trip(example_file, capsys):
    rc = main(["solve", example_file, "--emit-problem"])
    first = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(first)
    assert doc["timescale"] == {"points": [0.0, 1.0, 2.0, 3.0]}
    # feeding the emitted document back (the CLI takes JSON text as
    # well as a path) prints the same bytes
    assert main(["solve", first, "--emit-problem"]) == 0
    assert capsys.readouterr().out == first


def test_solve_input_error_exit_code(tmp_path, capsys):
    doc = {
        "timescale": {"uniform": {"a": 0, "b": 1, "n": 2}},
        "boundary": {"alpha": 0, "beta": 1},
        "objective": {"delta": "v", "nabla": "v"},
        "constraint": {"delta": "v", "nabla": "v"},
        "k": 1,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = main(["solve", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "interior point" in err


def test_solve_missing_file(capsys):
    rc = main(["solve", "/nonexistent/problem.json"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err


def test_solve_numeric_failure_exit_code(unsat_file, capsys):
    rc = main(["solve", unsat_file])
    out = capsys.readouterr().out
    assert rc == 2
    assert "converged: no" in out


def test_residual_stationary(example_file, capsys):
    rc = main(["residual", example_file, "--y", "0,2,3,3", "--lam", "-26"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "classification: stationary" in out
    assert "EL1: defect 0 constant 57" in out
    assert "EL2: defect 0 constant 57" in out


def test_residual_not_stationary(example_file, capsys):
    rc = main(["residual", example_file, "--y", "0,2,3,3", "--lam", "-20"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "classification: not stationary" in out


def test_residual_abnormal_pair(example_file, capsys):
    rc = main(
        ["residual", example_file, "--y", "0,2,3,3", "--lam0", "0", "--lam", "1"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "multipliers: lambda0 0 lambda 1" in out
    assert "EL2: defect 2" in out


def test_residual_raw_mode_and_warning(example_file, capsys):
    rc = main(["residual", example_file, "--y", "0,1,2,3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "multipliers: none (raw objective residuals)" in out
    assert "warning: constraint gap 2 exceeds tol" in out
    assert "classification:" not in out


def test_residual_length_mismatch(example_file, capsys):
    rc = main(["residual", example_file, "--y", "0,1,2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "expected 4 values" in err


def test_residual_structured(example_file, capsys):
    rc = main(
        [
            "residual",
            example_file,
            "--y",
            "0,2,3,3",
            "--lam",
            "-26",
            "--output",
            "structured",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "residual"
    assert doc["with_multiplier"] is True
    assert doc["classification"] == "stationary"
    assert doc["EL1"]["defect"] == pytest.approx(0.0, abs=1e-12)
    assert doc["EL2"]["constant_estimate"] == pytest.approx(57.0, abs=1e-9)
    assert len(doc["rows"]) == 4


def test_verify_example(capsys):
    rc = main(["verify", "example", "--M", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS ") == 6
    assert "result: PASS" in out
    fit_line = next(l for l in out.splitlines() if l.startswith("lambda_fit:"))
    assert float(fit_line.split(":")[1]) == pytest.approx(-26.0, abs=1e-4)


def test_verify_example_at_m_48(capsys):
    rc = main(["verify", "example", "--M", "48"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "result: PASS" in out


def test_verify_example_structured(capsys):
    rc = main(["verify", "example", "--M", "4", "--output", "structured"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["m"] == 4
    assert len(doc["checks"]) == 6
    assert all(c["passed"] for c in doc["checks"])


def test_verify_example_bad_m(capsys):
    rc = main(["verify", "example", "--M", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "m >= 2" in err


@pytest.mark.parametrize(
    "m", [2**50, 2**63 - 2, 10**22, 10**400], ids=["2**50", "2**63-2", "10**22", "10**400"]
)
def test_verify_example_too_many_points(capsys, m):
    rc = main(["verify", "example", "--M", str(m)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: example m = {m}: too many points for an array\n"


def test_verify_identities(capsys):
    rc = main(["verify", "identities", "--seed", "5", "--count", "20"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "result: PASS" in out
    assert "8 identities" in out


def test_verify_identities_prints_each_failure(capsys, monkeypatch):
    failed = IdentityFuzz(seed=0, count=1, identities=8, max_rel_error=0.5, passed=False,
                          failures=("trial 0: first", "trial 0: second"))
    monkeypatch.setattr(cli, "identity_fuzz", lambda seed, count: failed)
    rc = main(["verify", "identities", "--count", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == ""
    assert captured.out.splitlines()[-3:] == [
        "FAIL trial 0: first", "FAIL trial 0: second", "result: FAIL"]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_identities_needs_a_positive_count(capsys, count):
    rc = main(["verify", "identities", "--count", count])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: identity fuzz needs count >= 1\n"


def test_verify_identities_needs_a_nonnegative_seed(capsys):
    rc = main(["verify", "identities", "--seed", "-1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: identity fuzz needs seed >= 0, got -1\n"


def test_eval(capsys):
    rc = main(["eval", "v^2 + u", "--at", "0,1,3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip() == "10.0"


def test_eval_numeric_error(capsys):
    rc = main(["eval", "log(t)", "--at=-1,0,0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "numerical error:" in err


def test_eval_parse_error(capsys):
    rc = main(["eval", "v^", "--at", "0,0,1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "position" in err


def test_eval_bad_at_shape(capsys):
    # A wrong count and a value that is no number read alike.
    for at in ("1,2", "0,a,1"):
        rc = main(["eval", "v", "--at", at])
        assert rc == 1
        assert capsys.readouterr().err == "error: --at expects t,u,v\n"


def test_diff(capsys):
    rc = main(["diff", "v^2 + t*u"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value: v^2 + t*u"
    assert lines[1] == "d_u: t"
    assert lines[2] == "d_v: 2.0*v"


def test_solver_flag_overrides_reach_the_options(example_file, capsys):
    rc = main(
        [
            "solve",
            example_file,
            "--seed",
            "7",
            "--multistart",
            "2",
            "--tol",
            "1e-9",
            "--emit-problem",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["options"]["seed"] == 7
    assert doc["options"]["multistart"] == 2
    assert doc["options"]["tol"] == 1e-9


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--max-iter", "-1", "options.max_iter: max_iter -1 must be nonnegative"),
        ("--multistart", "-2", "options.multistart: multistart -2 must be nonnegative"),
        ("--seed", "-5", "options.seed: seed -5 must be nonnegative"),
        ("--spread", "-1", "options.spread: spread -1.0 must be nonnegative"),
        ("--spread", "1e308", "options.spread: spread 1e+308 is too large: 2 * spread overflows"),
        ("--tol", "0", "options.tol: feas_tol 0.0 must be positive and finite"),
    ],
    ids=["max-iter", "multistart", "seed", "spread", "huge-spread", "tol"],
)
@pytest.mark.parametrize("emit", [False, True], ids=["solve", "emit"])
def test_bad_solver_flags_are_input_errors(
    example_file, capsys, flag, value, message, emit
):
    # The flags are validated as the options block they override, so a
    # bad value is an input error naming the field, before any solve or
    # emitted document.
    rc = main(["solve", example_file, flag, value] + (["--emit-problem"] if emit else []))
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("multistart", [2**62, 2**63])
def test_a_start_stack_too_large_for_an_array_names_multistart(example_file, capsys, multistart):
    # numpy refuses both sizes before it allocates anything.
    rc = main(["solve", example_file, "--multistart", str(multistart)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: multistart {multistart}: too many starts for an array\n"


def test_emitted_document_with_flag_overrides_reloads_byte_for_byte(
    example_file, tmp_path, capsys
):
    flags = ["--max-iter", "7", "--multistart", "2", "--seed", "3",
             "--spread", "0.5", "--tol", "1e-9"]
    assert main(["solve", example_file, *flags, "--emit-problem"]) == 0
    first = capsys.readouterr().out
    path = tmp_path / "emitted.json"
    path.write_text(first)
    assert main(["solve", str(path), "--emit-problem"]) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["options"] == {
        "max_iter": 7, "multistart": 2, "seed": 3, "spread": 0.5, "tol": 1e-9
    }


def test_module_entry_point(example_file):
    proc = subprocess.run(
        [sys.executable, "-m", "deltanabla", "solve", example_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "converged: yes" in proc.stdout


def test_non_finite_newton_iterate_is_a_numerical_failure(tmp_path, capsys):
    # v^30 * v^30 overflows to inf at the spread-1e6 starts.  Each such
    # start ends with its own error status, the others still run, and
    # the exit code is the numerical one, not the input-error one.  The
    # overflow is caught as a status, so numpy prints no warning.
    doc = {
        "timescale": {"uniform": {"a": 0, "b": 5, "n": 6}},
        "boundary": {"alpha": 0, "beta": 0},
        "objective": {"delta": "v^30*v^30", "nabla": "v^2"},
        "constraint": {"delta": "u", "nabla": {"constant_over_measure": True}},
        "k": 1,
        "options": {"spread": 1e6},
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    rc = main(["solve", str(path), "--output", "structured"])
    captured = capsys.readouterr()
    assert rc == 2, captured.err
    result = json.loads(captured.out)["result"]
    assert result["converged"] is False
    statuses = result["message"].split("; ")
    assert len(statuses) == 9
    assert statuses[1] == "start 1: error: non-finite residual"
    proc = subprocess.run(
        [sys.executable, "-m", "deltanabla", "solve", str(path), "--output", "structured"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == captured.out
    assert proc.stderr == ""


def test_nan_certificate_document_warns_of_nothing(tmp_path, capsys):
    # 1e200*1e200*u is inf*0.0 = NaN at u = 0.  Every normal start ends
    # with an error, and the report of the best iterate shows NaN
    # factors and NaN bracket rows; the abnormal candidate y = 0 has a
    # NaN certificate.  The NaN is output, not a warning.
    doc = {
        "timescale": {"points": [0.0, 1.0, 2.0, 3.0]},
        "boundary": {"alpha": 0.0, "beta": 0.0},
        "objective": {"delta": "1e200*1e200*u + v^2", "nabla": "v^2"},
        "constraint": {"delta": "v^2", "nabla": "v^2"},
        "k": 0.0,
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    argv = ["solve", str(path), "--output", "structured"]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    payload = json.loads(captured.out)
    result = payload["result"]
    assert result["converged"] is False
    assert result["objective"]["delta_factor"] != result["objective"]["delta_factor"]
    assert all(r["residual_EL1"] is None or r["residual_EL1"] != r["residual_EL1"]
               for r in payload["rows"])
    [abnormal] = payload["abnormal"]
    assert abnormal["converged"] is False
    assert abnormal["el_defect"] != abnormal["el_defect"]
    proc = subprocess.run(
        [sys.executable, "-m", "deltanabla", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stdout == captured.out
    assert proc.stderr == ""


def test_subnormal_gaps_are_a_numerical_failure(tmp_path, capsys):
    # On gaps of 1e-320 every difference quotient overflows: each start
    # ends with a non-finite residual, and the report's rows show the
    # overflowing quotients as inf, in every output style, instead of
    # failing as an input error.
    doc = {
        "timescale": {"points": [0, 1e-320, 2e-320]},
        "boundary": {"alpha": 0, "beta": 1},
        "objective": {"delta": "v^2", "nabla": "v^2 + v"},
        "constraint": {"delta": "t*v", "nabla": {"constant_over_measure": True}},
        "k": 1,
    }
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(doc))
    argv = ["solve", str(path), "--output", "structured"]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2, captured.err
    payload = json.loads(captured.out)
    statuses = payload["result"]["message"].split("; ")
    assert statuses == [f"start {i}: error: non-finite residual" for i in range(9)]
    inf = float("inf")
    assert [r["y_delta"] for r in payload["rows"]] == [inf, inf, None]
    assert [r["y_nabla"] for r in payload["rows"]] == [None, inf, inf]
    for output in ("structured", "table", "csv"):
        proc = subprocess.run(
            [sys.executable, "-m", "deltanabla", "solve", str(path), "--output", output],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == ""
        if output == "structured":
            assert proc.stdout == captured.out


def test_undefined_best_iterate_still_reports_every_start(tmp_path, capsys):
    # log(u) is undefined at every start (u < 0 throughout), so each
    # normal start ends with its own error status.  The report of the
    # best iterate shows NaN where the objective is undefined, and the
    # abnormal search and the rows still follow, in every output style,
    # with the numerical exit code and nothing on stderr.
    doc = {
        "timescale": {"points": [0.0, 1.0, 2.0, 3.0]},
        "boundary": {"alpha": -1.0, "beta": -2.0},
        "objective": {"delta": "log(u) + v^2", "nabla": "v^2"},
        "constraint": {"delta": "t*v", "nabla": "1"},
        "k": 1.0,
    }
    path = tmp_path / "undefined.json"
    path.write_text(json.dumps(doc))
    argv = ["solve", str(path), "--output", "structured"]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2, captured.err
    payload = json.loads(captured.out)
    result = payload["result"]
    assert result["converged"] is False
    statuses = result["message"].split("; ")
    assert len(statuses) == 9
    assert all(s.startswith(f"start {i}: error: log(") for i, s in enumerate(statuses))
    assert all(x != x for x in result["objective"].values())
    assert result["constraint"]["product"] == result["constraint"]["product"]
    assert payload["abnormal"] == []
    assert [r["y"] for r in payload["rows"]] == result["y"]
    assert all(r[c] is None or r[c] != r[c]
               for r in payload["rows"] for c in ("residual_EL1", "residual_EL2"))
    for output in ("structured", "table", "csv"):
        proc = subprocess.run(
            [sys.executable, "-m", "deltanabla", "solve", str(path), "--output", output],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == ""
        if output == "structured":
            assert proc.stdout == captured.out
        elif output == "table":
            assert "note: start 0: error: log(" in proc.stdout
            assert "objective: delta nan nabla nan product nan" in proc.stdout
            assert "abnormal candidates: 0" in proc.stdout
        else:
            assert proc.stdout.splitlines()[2].startswith("1.0,-1.3333333333333333,")
            assert proc.stdout.splitlines()[2].endswith(",nan,nan")


def test_residual_csv(example_file, capsys):
    rc = main(["residual", example_file, "--y", "0,2,3,3", "--lam", "-26", "--output", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == [
        "t,y,y_delta,y_nabla,residual_EL1,residual_EL2",
        "0.0,0.0,2.0,,,57.0",
        "1.0,2.0,1.0,2.0,57.0,57.0",
        "2.0,3.0,0.0,1.0,57.0,57.0",
        "3.0,3.0,,0.0,57.0,",
    ]


def test_residual_emit_problem(example_file, capsys):
    # the candidate is not evaluated: the document is printed and reloads
    rc = main(["residual", example_file, "--y", "0,2,3,3", "--emit-problem"])
    out = capsys.readouterr().out
    assert rc == 0
    from deltanabla import emit_problem, load_problem

    assert json.loads(out)["timescale"] == {"points": [0.0, 1.0, 2.0, 3.0]}
    assert emit_problem(load_problem(out)) == out.rstrip("\n")


def test_residual_malformed_y(example_file, capsys):
    rc = main(["residual", example_file, "--y", "0,two,3,3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: --y expects comma-separated numbers\n"


def test_residual_whose_bracket_overflows_is_a_numerical_error(tmp_path, capsys):
    # |y| = 1e200 overflows the factors of v^2 and so the bracket: a
    # numerical failure (exit 2) naming the form and its first
    # non-finite point, where it used to be the input error "grid
    # function values must be finite" (exit 1).  A non-finite --y value
    # is still an input error.
    doc = {
        "timescale": {"points": [0, 1, 2, 3]},
        "boundary": {"alpha": 0, "beta": 1},
        "objective": {"delta": "v^2", "nabla": "v^2"},
        "constraint": {"delta": "t*v", "nabla": "1"},
        "k": 1,
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    for flags in ([], ["--lam", "1"], ["--output", "structured"]):
        rc = main(["residual", str(path), "--y", "0,1e200,-1e200,1", *flags])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == "numerical error: EL1 residual is inf at t=1.0\n"
    rc = main(["residual", str(path), "--y", "0,inf,-1e200,1"])
    assert (rc, capsys.readouterr().err) == (1, "error: grid function values must be finite\n")


def test_verify_identities_structured(capsys):
    rc = main(["verify", "identities", "--count", "5", "--output", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["command"] == "verify-identities"
    assert (doc["seed"], doc["count"], doc["passed"], doc["failures"]) == (0, 5, True, [])
    assert doc["identities"] > 0 and doc["max_rel_error"] <= 1e-12


def test_solve_table_lists_abnormal_candidates(tmp_path, capsys):
    # The constraint (sum v^2 mu)(sum v^2 nu) = 0 holds only at constant
    # y, where its gradient vanishes: no normal start converges, and the
    # table lists the one abnormal candidate.
    doc = {
        "timescale": {"points": [0.0, 0.4, 1.0, 1.3, 2.0]},
        "boundary": {"alpha": 1.0, "beta": 1.0},
        "objective": {"delta": "v^2 + u", "nabla": "v^2 + 1"},
        "constraint": {"delta": "v^2", "nabla": "v^2"},
        "k": 0.0,
        "options": {"multistart": 4},
    }
    path = tmp_path / "abnormal.json"
    path.write_text(json.dumps(doc))
    rc = main(["solve", str(path)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "abnormal candidates: 1\n  abnormal[0]: y = (1, 1, 1, 1, 1), defect 0\n" in out


def _huge_boundary_doc():
    # beta - alpha overflows, so the boundary interpolant, and every
    # start perturbed from it, is inf
    return {
        "timescale": {"points": [0.0, 1.0, 2.0, 3.0]},
        "boundary": {"alpha": -1e308, "beta": 1e308},
        "objective": {"delta": "v^2", "nabla": "v^2"},
        "constraint": {"delta": "t*v", "nabla": "1"},
        "k": 1.0,
    }


def test_huge_boundary_values_are_a_numerical_failure(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_huge_boundary_doc()))
    rc = main(["solve", str(path), "--output", "structured"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    statuses = "; ".join(f"start {i}: error: non-finite iterate" for i in range(9))
    assert captured.err == f"numerical error: no start has a finite iterate: {statuses}\n"


def _overflowing_start_doc(alpha, beta, spread=1.0):
    return {
        "timescale": {"points": [0, 1, 2, 3]},
        "boundary": {"alpha": alpha, "beta": beta},
        "objective": {"delta": "v^2", "nabla": "v^2 + v"},
        "constraint": {"delta": "t*v", "nabla": {"constant_over_measure": True}},
        "k": 1,
        "options": {"spread": spread},
    }


def test_overflowing_starts_are_numerical_failures_without_warnings(tmp_path, capsys):
    # Every start overflows at beta = 1.7e308: one numerical error line.
    # At alpha = beta = 1.75e308 only perturbed starts overflow, and the
    # solve reports its best finite iterate.  Neither writes a warning.
    path = tmp_path / "every.json"
    path.write_text(json.dumps(_overflowing_start_doc(0.0, 1.7e308)))
    rc = main(["solve", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("numerical error: no start has a finite iterate: ")
    assert captured.err.count("\n") == 1
    path = tmp_path / "some.json"
    path.write_text(json.dumps(_overflowing_start_doc(1.75e308, 1.75e308, 5e307)))
    rc = main(["solve", str(path), "--output", "structured"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == ""
    result = json.loads(captured.out)["result"]
    assert result["converged"] is False
    assert "error: non-finite iterate" in result["message"]


def test_malformed_number_is_an_input_error_naming_its_field(tmp_path, capsys):
    doc = {**_huge_boundary_doc(), "boundary": {"alpha": 0.0, "beta": 1.0}}
    doc["objective"] = {"delta": "v^2 + .", "nabla": "v^2"}
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    rc = main(["solve", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: objective.delta: malformed number (at position 6)")


_SQUARE_DOC = {
    "timescale": {"points": [0, 1, 2, 3]},
    "boundary": {"alpha": 0, "beta": 1},
    "objective": {"delta": "v^2", "nabla": "v^2"},
    "constraint": {"delta": "t*v", "nabla": "1"},
    "k": 1,
}


@pytest.mark.parametrize(
    "doc, flags, message",
    [
        # the gap difference overflows, and so do the kernel's squares
        (_SQUARE_DOC, ["--y", "0,1.7e308,-1.7e308,1"], "EL1 residual is inf at t=1.0"),
        # 0 * inf: the objective's overflowed bracket weighted by lambda0 = 0
        (_SQUARE_DOC, ["--y", "0,1e200,-1e200,1", "--lam", "1", "--lam0", "0"],
         "EL1 residual is nan at t=1.0"),
        # the prefix sums and factor products of 1e308*u
        ({**_SQUARE_DOC, "timescale": {"points": [0, 1, 2, 3, 4]},
          "objective": {"delta": "1e308*u", "nabla": "1"}},
         ["--y", "0,1,2,3,4"], "EL1 residual is nan at t=1.0"),
    ],
    ids=["gap", "zero-weight", "prefix-sum"],
)
def test_an_overflowing_residual_writes_one_stderr_line(tmp_path, capsys, doc, flags, message):
    # pyproject's filterwarnings setting turns a numpy warning into an
    # error, so in-process these calls check that none is issued; the
    # console run checks stderr.
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    for output in ("table", "csv", "structured"):
        rc = main(["residual", str(path), *flags, "--output", output])
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (2, "", f"numerical error: {message}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "deltanabla", "residual", str(path), *flags],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"numerical error: {message}\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lam0", "nan", "--lam", "1"], "multiplier lambda0 must be finite, got nan"),
        (["--lam", "inf"], "multiplier lambda must be finite, got inf"),
        (["--lam=-inf", "--lam0", "0"], "multiplier lambda must be finite, got -inf"),
    ],
    ids=["lambda0-nan", "lambda-inf", "lambda-minus-inf"],
)
def test_non_finite_multipliers_are_input_errors(tmp_path, capsys, flags, message):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(_SQUARE_DOC))
    rc = main(["residual", str(path), "--y", "0,1,2,1", *flags])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (1, "", f"error: {message}\n")


def test_a_directory_as_the_problem_file_is_an_input_error(tmp_path, capsys):
    rc = main(["solve", str(tmp_path)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err.startswith("error: [Errno ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["solve"],
        ["bogus"],
        ["solve", "problem.json", "--tol", "abc"],
        ["residual", "problem.json"],
        ["verify", "example"],
        ["verify", "example", "--M", "8", "--output", "csv"],
        ["verify", "identities", "--output", "csv"],
        ["eval", "v"],
    ],
    ids=["no-command", "solve-no-file", "unknown-command", "bad-float", "residual-no-y",
         "verify-no-m", "verify-example-csv", "verify-identities-csv", "eval-no-at"],
)
def test_usage_errors_are_input_errors(capsys, argv):
    # argparse prints its usage text; the exit code is 1 (input), not
    # its own 2, which reads as a numerical failure.
    rc = main(argv)
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err.startswith("usage: deltanabla")


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["verify", "example", "-h"]])
def test_help_exits_zero(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: deltanabla")


def _wrap(inner):
    """Larger integrands from smaller ones: a function of one, two joined
    by an operator (division included), or one raised to a power."""
    return st.one_of(
        st.builds("{}({})".format, st.sampled_from(["log", "sqrt", "exp", "sin", "cos"]), inner),
        st.builds("({}) {} ({})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("({})^{}".format, inner, st.integers(0, 40)),
    )


HOSTILE_INTEGRANDS = st.recursive(
    st.sampled_from(["t", "u", "v", "2", "0.5", "1e300", "1e-300", "-1e300"]), _wrap, max_leaves=4
)


@st.composite
def hostile_documents(draw):
    """A valid document with hostile integrands on a scale of extreme
    size, with few starts and iterations so that each solve is short."""
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
    size = 10.0 ** draw(st.sampled_from([-300, -100, -8, 0, 8, 100, 300]))
    points = [size * x for x in [0.0, *gaps]]
    for i in range(1, len(points)):
        points[i] += points[i - 1]
    ends = st.floats(-1e300, 1e300)
    return {
        "timescale": {"points": points},
        "boundary": {"alpha": draw(ends), "beta": draw(ends)},
        "objective": {"delta": draw(HOSTILE_INTEGRANDS), "nabla": draw(HOSTILE_INTEGRANDS)},
        "constraint": {"delta": draw(HOSTILE_INTEGRANDS), "nabla": draw(HOSTILE_INTEGRANDS)},
        "k": draw(ends),
        "options": {"multistart": draw(st.integers(0, 2)), "max_iter": draw(st.integers(1, 20))},
    }


@settings(max_examples=80, deadline=None)
@given(hostile_documents())
def test_hostile_documents_solve_or_fail_numerically(doc):
    # A document that loads is solved (exit 0) or reported as a
    # numerical failure (exit 2), with no exception and no warning:
    # exit 1 is for input errors only.
    text = json.dumps(doc)
    load_problem(text)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main(["solve", text, "--output", "structured"])
    assert rc in (0, 2), err.getvalue()
    if out.getvalue():
        assert json.loads(out.getvalue())["result"]["converged"] is (rc == 0)
    else:
        assert rc == 2 and err.getvalue().startswith("numerical error: ")
