"""Command-line front end.

Commands: solve (run the solver on a problem file), verify (built-in
example end-to-end, or randomized identity checks), residual (evaluate
stationarity residuals for a candidate y), eval and diff (expression
utilities).  Output modes: table (default), csv (solve and residual),
structured (JSON).  Exit codes: 0 success, 1 input error (a usage error
included), 2 numerical failure.

Each command builds its structured payload, its table lines and its
rows, and _emit prints the one its output mode asks for; main alone
reports a failure and picks the exit code.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from .expressions import EvaluationError, evaluate, make_lagrangian, to_str
from .functional import EL1, el_residual, eval_functional, iso_residual
from .functional import tables_bracket, tables_or_nan
from .oracle import identity_fuzz, verify_example
from .problemfile import OPTION_FIELDS, LoadedProblem, emit_problem, load_problem
from .solver import SolveResult, find_abnormal, solve_normal
from .timescale import GridFunction

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _point_rows(y: GridFunction, bracket: np.ndarray) -> list[dict]:
    """Per-point table: t, y, both difference quotients on their genuine
    windows, and the bracket read as each residual form on its window;
    None marks undefined cells.  The difference quotients of gap i are
    y_delta at point i and y_nabla at point i+1; where they overflow
    (on subnormal gaps), they are shown as inf."""
    t = y.scale.points
    n = len(t)
    with np.errstate(all="ignore"):
        quot = np.diff(y.values) / np.diff(t)
    rows = []
    for i in range(n):
        rows.append(
            {
                "t": float(t[i]),
                "y": float(y.values[i]),
                "y_delta": float(quot[i]) if i < n - 1 else None,
                "y_nabla": float(quot[i - 1]) if i > 0 else None,
                "residual_EL1": float(bracket[i - 1]) if i > 0 else None,
                "residual_EL2": float(bracket[i]) if i < n - 1 else None,
            }
        )
    return rows


_CSV_COLUMNS = ("t", "y", "y_delta", "y_nabla", "residual_EL1", "residual_EL2")


def _emit(
    output: str, payload: dict | None, lines: list[str], rows: list[dict] | None = None
) -> None:
    """Print a command's result, the one place that does: in structured
    output the payload as JSON with sorted keys, in csv the rows, and in
    a table the lines, then a blank line and the rows when there are
    any."""
    if output == "structured":
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif output == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                ["" if row[c] is None else repr(row[c]) for c in _CSV_COLUMNS]
            )
    else:
        if rows:
            lines = lines + [""] + _table_lines(rows)
        for line in lines:
            print(line)


def _table_lines(rows: list[dict]) -> list[str]:
    """The rows as left-aligned columns under a header line."""
    table = [_CSV_COLUMNS]
    for row in rows:
        table.append(
            ["-" if row[c] is None else _fmt(row[c]) for c in _CSV_COLUMNS]
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(_CSV_COLUMNS))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in table]


def _result_payload(result: SolveResult, k: float) -> dict:
    return {
        "converged": result.converged,
        "iterations": result.iterations,
        "classification": result.classification,
        "lambda0": result.lam0,
        "lambda": result.lam,
        "objective": dataclasses.asdict(result.objective_value),
        "constraint": {
            **dataclasses.asdict(result.constraint_value),
            "k": k,
            "gap": abs(result.constraint_value.product - k),
        },
        "el_defect": result.el_defect,
        "kkt_residual_norm": result.kkt_residual_norm,
        "message": result.message,
        "y": [float(v) for v in result.y.values],
        "points": [float(t) for t in result.y.scale.points],
        "stationary_points": [
            {
                "values": [float(v) for v in sp.values],
                "lambda": sp.lam,
                "objective_product": sp.objective_product,
            }
            for sp in result.stationary_points
        ],
    }


def _solve_row_data(loaded: LoadedProblem, result: SolveResult):
    """Rows of the answer's combined bracket, or of the objective's raw
    bracket at the best iterate of a solve that did not converge, which
    may be inf or NaN there, or undefined and shown as NaN."""
    y = result.y
    if result.converged:
        return _point_rows(y, result.bracket)
    tab = tables_or_nan(loaded.problem.objective, y.scale.points, y.values)
    return _point_rows(y, tables_bracket(tab))


def cmd_solve(args: argparse.Namespace) -> int:
    loaded = _load(args)
    p = loaded.problem
    result = solve_normal(p, loaded.options)
    abnormal = find_abnormal(p, loaded.options)
    rows = _solve_row_data(loaded, result)
    payload = {
        "command": "solve",
        "problem": loaded.document,
        "result": _result_payload(result, p.k),
        "abnormal": [_result_payload(r, p.k) for r in abnormal],
        "rows": rows,
    }
    obj = result.objective_value
    con = result.constraint_value
    lines = [
        f"scale: {len(p.scale)} points on "
        f"[{_fmt(p.scale.a)}, {_fmt(p.scale.b)}]"
    ]
    lines.append(f"converged: {'yes' if result.converged else 'no'} "
                 f"({result.iterations} iterations)")
    if result.message:
        lines.append(f"note: {result.message}")
    lines.append(f"classification: {result.classification}")
    lines.append(f"lambda0: {_fmt(result.lam0)}")
    lines.append(f"lambda: {_fmt(result.lam)}")
    lines.append(
        f"objective: delta {_fmt(obj.delta_factor)} "
        f"nabla {_fmt(obj.nabla_factor)} product {_fmt(obj.product)}"
    )
    lines.append(
        f"constraint: product {_fmt(con.product)} "
        f"(k = {_fmt(p.k)}, gap {_fmt(abs(con.product - p.k))})"
    )
    lines.append(f"bracket defect: {_fmt(result.el_defect)}")
    lines.append(f"kkt residual: {_fmt(result.kkt_residual_norm)}")
    lines.append(f"stationary points found: {len(result.stationary_points)}")
    lines.append(f"abnormal candidates: {len(abnormal)}")
    for i, r in enumerate(abnormal):
        vals = ", ".join(_fmt(v) for v in r.y.values)
        lines.append(f"  abnormal[{i}]: y = ({vals}), defect {_fmt(r.el_defect)}")
    _emit(args.output, payload, lines, rows)
    return EXIT_OK if result.converged else EXIT_NUMERIC


def cmd_residual(args: argparse.Namespace) -> int:
    loaded = _load(args)
    p = loaded.problem
    try:
        values = np.array([float(x) for x in args.y.split(",")])
    except ValueError:
        raise ValueError("--y expects comma-separated numbers") from None
    y = GridFunction(p.scale, values)

    with_multiplier = args.lam is not None
    # EL1 and EL2 read one bracket array, so they share their defect and
    # constant: one report serves both.
    if with_multiplier:
        report = iso_residual(p.objective, p.constraint, y, args.lam0, args.lam, EL1)
    else:
        report = el_residual(p.objective, y, EL1)
    con = eval_functional(p.constraint, y)
    gap = abs(con.product - p.k)
    feasible = gap <= loaded.options.feas_tol
    classification = None
    if with_multiplier:
        stationary = report.defect <= loaded.options.stat_tol
        classification = "stationary" if stationary else "not stationary"
    rows = _point_rows(y, report.residual.values)
    residual = {"defect": report.defect, "constant_estimate": report.constant_estimate}
    payload = {
        "command": "residual",
        "problem": loaded.document,
        "with_multiplier": with_multiplier,
        "lambda0": args.lam0 if with_multiplier else None,
        "lambda": args.lam,
        "constraint": {
            **dataclasses.asdict(con),
            "k": p.k,
            "gap": gap,
            "feasible": feasible,
        },
        "EL1": residual,
        "EL2": residual,
        "classification": classification,
        "rows": rows,
    }
    if with_multiplier:
        lines = [f"multipliers: lambda0 {_fmt(args.lam0)} lambda {_fmt(args.lam)}"]
    else:
        lines = ["multipliers: none (raw objective residuals)"]
    lines.append(
        f"constraint: product {_fmt(con.product)} "
        f"(k = {_fmt(p.k)}, gap {_fmt(gap)})"
    )
    if not feasible:
        lines.append(f"warning: constraint gap {_fmt(gap)} exceeds tol "
                     f"{_fmt(loaded.options.feas_tol)}")
    for form in ("EL1", "EL2"):
        lines.append(f"{form}: defect {_fmt(report.defect)} "
                     f"constant {_fmt(report.constant_estimate)}")
    if with_multiplier:
        lines.append(f"classification: {classification}")
    _emit(args.output, payload, lines, rows)
    return EXIT_OK


def cmd_verify_example(args: argparse.Namespace) -> int:
    report = verify_example(args.M)
    payload = {"command": "verify-example", **dataclasses.asdict(report)}
    lines = [f"example m={report.m}"]
    for c in report.checks:
        tag = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{tag} {c.name}: measured {_fmt(c.measured)} "
            f"(bound {_fmt(c.bound)})"
        )
    lines.append(f"lambda_fit: {_fmt(report.lambda_fit)}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    _emit(args.output, payload, lines)
    return EXIT_OK if report.passed else EXIT_NUMERIC


def cmd_verify_identities(args: argparse.Namespace) -> int:
    fuzz = identity_fuzz(seed=args.seed, count=args.count)
    payload = {"command": "verify-identities", **dataclasses.asdict(fuzz)}
    lines = [
        f"identity fuzz: seed {fuzz.seed}, {fuzz.count} scales, "
        f"{fuzz.identities} identities"
    ]
    lines.append(f"max relative error: {_fmt(fuzz.max_rel_error)}")
    for line in fuzz.failures:
        lines.append(f"FAIL {line}")
    lines.append(f"result: {'PASS' if fuzz.passed else 'FAIL'}")
    _emit(args.output, payload, lines)
    return EXIT_OK if fuzz.passed else EXIT_NUMERIC


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        t, u, v = (float(x) for x in args.at.split(","))
    except ValueError:
        raise ValueError("--at expects t,u,v") from None
    lag = make_lagrangian(args.expression)
    _emit("table", None, [repr(evaluate(lag.value, t, u, v))])
    return EXIT_OK


def cmd_diff(args: argparse.Namespace) -> int:
    lag = make_lagrangian(args.expression)
    lines = [f"value: {to_str(lag.value)}"]
    lines.append(f"d_u: {to_str(lag.d_u)}")
    lines.append(f"d_v: {to_str(lag.d_v)}")
    _emit("table", None, lines)
    return EXIT_OK


def _load(args: argparse.Namespace) -> LoadedProblem:
    """The problem file, with the solver flags merged into the same-named
    fields of its normalized options block, loaded again so that they are
    validated as part of it."""
    loaded = load_problem(args.file)
    overrides = {f: getattr(args, f) for f in OPTION_FIELDS if getattr(args, f) is not None}
    if not overrides:
        return loaded
    options = {**loaded.document["options"], **overrides}
    return load_problem({**loaded.document, "options": options})


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=float, default=None,
                     help="feasibility and stationarity tolerance")
    sub.add_argument("--max-iter", type=int, default=None)
    sub.add_argument("--multistart", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--spread", type=float, default=None)
    sub.add_argument("--emit-problem", action="store_true",
                     help="print the normalized problem document and exit")
    _add_output_flag(sub)


def _add_output_flag(
    sub: argparse.ArgumentParser, choices: tuple[str, ...] = ("table", "csv", "structured")
) -> None:
    sub.add_argument("--output", choices=choices, default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltanabla",
        description="Solve and verify delta-nabla isoperimetric problems "
        "on finite time scales.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("file")
    _add_common_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_res = sub.add_parser("residual", help="residuals for a candidate y")
    p_res.add_argument("file")
    p_res.add_argument("--y", required=True,
                       help="comma-separated values, one per scale point")
    p_res.add_argument("--lam", type=float, default=None,
                       help="multiplier lambda (omit for raw residuals)")
    p_res.add_argument("--lam0", type=float, default=1.0,
                       help="multiplier lambda0 (default 1)")
    _add_common_flags(p_res)
    p_res.set_defaults(func=cmd_residual)

    p_verify = sub.add_parser("verify", help="built-in verification suites")
    verify_sub = p_verify.add_subparsers(dest="what", required=True)
    p_ex = verify_sub.add_parser("example", help="end-to-end example check")
    p_ex.add_argument("--M", type=int, required=True)
    _add_output_flag(p_ex, ("table", "structured"))
    p_ex.set_defaults(func=cmd_verify_example)
    p_id = verify_sub.add_parser("identities", help="randomized identity checks")
    p_id.add_argument("--seed", type=int, default=0)
    p_id.add_argument("--count", type=int, default=100)
    _add_output_flag(p_id, ("table", "structured"))
    p_id.set_defaults(func=cmd_verify_identities)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("expression")
    p_eval.add_argument("--at", required=True, help="t,u,v")
    p_eval.set_defaults(func=cmd_eval)

    p_diff = sub.add_parser("diff", help="print symbolic partials")
    p_diff.add_argument("expression")
    p_diff.set_defaults(func=cmd_diff)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place that reports a failure and picks
    the exit code.  argparse prints its own usage text."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error, or --help (code 0)
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        if getattr(args, "emit_problem", False):
            print(emit_problem(_load(args)))
            return EXIT_OK
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EvaluationError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
