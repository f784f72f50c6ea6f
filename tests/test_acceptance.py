"""Acceptance suite: seven end-to-end criteria covering the built-in
example family, abnormality detection, structural identity fuzzing,
derivative cross-checks, solver/oracle cross-certification, reduction
to the single-integral special cases, and byte determinism.

Each test prints exactly one PASS or FAIL line so the suite reads as a
checklist when run verbosely."""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from deltanabla import (
    EL1,
    EL2,
    DeltaNablaFunctional,
    GridFunction,
    IsoperimetricProblem,
    SolverOptions,
    TimeScale,
    constant_lagrangian,
    eval_functional,
    fd_gradient,
    find_abnormal,
    identity_fuzz,
    iso_residual,
    kkt_check,
    make_lagrangian,
    solve_normal,
)
from deltanabla.solver import closed_form_example, example_problem


def _checklist(capsys, number, label, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {number}] FAIL  {label}")
        raise
    with capsys.disabled():
        print(f"[criterion {number}] PASS  {label}")


def test_criterion_1_example_family(capsys):
    def body():
        for m in range(2, 13):
            t0 = time.perf_counter()
            res = solve_normal(example_problem(m))
            elapsed = time.perf_counter() - t0
            want, _ = closed_form_example(m)
            assert res.converged, f"m={m} did not converge"
            assert np.max(np.abs(res.y.values - want.values)) <= 1e-8, f"m={m}"
            assert abs(res.constraint_value.product - 1.0) <= 1e-10, f"m={m}"
            assert elapsed < 1.0, f"m={m} took {elapsed:.2f}s"
        # the size-3 instance has a small integer solution and its
        # multiplier is pinned by the independent complex-step oracle
        y3, _ = closed_form_example(3)
        assert np.array_equal(y3.values, [0.0, 2.0, 3.0, 3.0])
        res3 = solve_normal(example_problem(3))
        assert np.max(np.abs(res3.y.values - y3.values)) <= 1e-8
        report = kkt_check(example_problem(3), y3, res3.lam)
        assert abs(report.lambda_fit - (-26.0)) <= 1e-6
        assert abs(res3.lam - (-26.0)) <= 1e-6

    _checklist(capsys, 1, "example family solved to closed form", body)


def test_criterion_2_abnormality_check(capsys):
    def body():
        for m in (2, 3, 5, 8):
            p = example_problem(m)
            y, _ = closed_form_example(m)
            r = iso_residual(p.objective, p.constraint, y, 0.0, 1.0, EL2)
            want = -p.scale.points[:-1]
            assert np.max(np.abs(r.residual.values - want)) <= 1e-12, f"m={m}"
            assert find_abnormal(p) == [], f"m={m}"

    _checklist(capsys, 2, "constraint is never abnormal on the example", body)


def test_criterion_3_identity_fuzzing(capsys):
    def body():
        t0 = time.perf_counter()
        report = identity_fuzz(seed=0, count=100, tol=1e-12)
        elapsed = time.perf_counter() - t0
        assert report.passed, report.failures[:3]
        assert report.max_rel_error <= 1e-12
        assert report.identities == 8
        assert elapsed < 5.0, f"fuzzing took {elapsed:.2f}s"

    _checklist(capsys, 3, "structural identities hold on 100 random scales", body)


def _random_safe_integrand(rng):
    def c(lo=-0.5, hi=0.5):
        return repr(round(float(rng.uniform(lo, hi)), 6))

    kind = int(rng.integers(5))
    if kind == 0:
        return (
            f"{c()} + {c()}*u + {c()}*v + {c()}*u*v"
            f" + {c()}*t*v^2 + {c()}*u^3"
        )
    if kind == 1:
        return (
            f"{c(-1, 1)}*sin({c(-1, 1)}*t + {c(-1, 1)}*u)"
            f" + {c(-1, 1)}*cos({c(-1, 1)}*v)"
        )
    if kind == 2:
        return f"exp({c(-0.25, 0.25)}*u + {c(-0.25, 0.25)}*v)*({c(-1, 1)} + {c(-1, 1)}*v)"
    if kind == 3:
        return f"log((u + {c(-1, 1)})^2 + {c(0.5, 2.0)})"
    return f"(u + {c(-1, 1)})/(v^2 + {c(0.5, 2.0)})"


def test_criterion_4_symbolic_vs_numeric_partials(capsys):
    def body():
        rng = np.random.default_rng(404)
        h = 1e-5
        for _ in range(1000):
            L = make_lagrangian(_random_safe_integrand(rng))
            t, u, v = rng.uniform(-2.0, 2.0, 3)
            sym_u = L.du(t, u, v)
            sym_v = L.dv(t, u, v)
            fd_u = (L(t, u + h, v) - L(t, u - h, v)) / (2.0 * h)
            fd_v = (L(t, u, v + h) - L(t, u, v - h)) / (2.0 * h)
            assert abs(sym_u - fd_u) <= 1e-6 * (1.0 + abs(sym_u))
            assert abs(sym_v - fd_v) <= 1e-6 * (1.0 + abs(sym_v))

    _checklist(capsys, 4, "state/velocity partials match central differences", body)


def _random_small_problem(rng):
    while True:
        size = int(rng.integers(4, 9))
        pts = np.sort(rng.uniform(0.0, 3.0, size))
        if np.all(np.diff(pts) > 0.0):
            break
    scale = TimeScale(pts)

    def c(lo=-0.5, hi=0.5):
        return repr(round(float(rng.uniform(lo, hi)), 6))

    objective = DeltaNablaFunctional(
        make_lagrangian(f"v^2 + {c()}*u*v + {c()}*u + {c()}*t"),
        make_lagrangian(f"v^2 + {c()}*u + {c()}*v + {c(0.5, 1.5)}"),
    )
    constraint = DeltaNablaFunctional(
        make_lagrangian(f"{c()}*t*v + {c()}*u + {c(0.8, 1.5)}"),
        make_lagrangian(f"{c()}*v + {c()}*u + {c(0.8, 1.5)}"),
    )
    alpha = float(rng.uniform(-1.0, 1.0))
    beta = float(rng.uniform(-1.0, 1.0))
    # pick the constraint level from a random admissible competitor so
    # the problem is always feasible
    probe = np.linspace(alpha, beta, size) + np.concatenate(
        ([0.0], rng.uniform(-0.3, 0.3, size - 2), [0.0])
    )
    k = eval_functional(constraint, GridFunction(scale, probe)).product
    return IsoperimetricProblem(
        scale=scale,
        alpha=alpha,
        beta=beta,
        objective=objective,
        constraint=constraint,
        k=k,
    )


def _bracket_verdict(p, y, lam0, lam):
    try:
        d1 = iso_residual(p.objective, p.constraint, y, lam0, lam, EL1).defect
        d2 = iso_residual(p.objective, p.constraint, y, lam0, lam, EL2).defect
    except (ArithmeticError, ValueError):
        return False
    return bool(d1 <= 1e-8 and d2 <= 1e-8)


def _kkt_verdict(p, y, lam0, lam):
    try:
        if lam0 == 0.0:

            def constraint_map(g):
                return eval_functional(p.constraint, g).product

            resid = float(np.max(np.abs(fd_gradient(constraint_map, y, 1e-6))))
        else:
            resid = kkt_check(p, y, lam / lam0).residual_inf_norm
    except (ArithmeticError, ValueError):
        return False
    return bool(resid <= 1e-5)


def test_criterion_5_solver_oracle_cross_certification(capsys):
    def body():
        rng = np.random.default_rng(2024)
        converged = 0
        for i in range(50):
            p = _random_small_problem(rng)
            res = solve_normal(p, SolverOptions(multistart=4, seed=i))
            candidates = [(res.y, 1.0, res.lam, res.converged)]
            for ab in find_abnormal(p):
                candidates.append((ab.y, 0.0, 1.0, True))
            if res.converged:
                converged += 1
                r1 = iso_residual(p.objective, p.constraint, res.y, 1.0, res.lam, EL1)
                r2 = iso_residual(p.objective, p.constraint, res.y, 1.0, res.lam, EL2)
                assert r1.defect <= 1e-8 and r2.defect <= 1e-8, f"problem {i}"
                report = kkt_check(p, res.y, res.lam)
                assert report.residual_inf_norm <= 1e-5, f"problem {i}"
            # agreement must also hold away from stationary points, so
            # check a visibly perturbed copy of each candidate as well
            if res.converged:
                bumped = res.y.values.copy()
                bumped[1:-1] += 0.05 * (1.0 + np.arange(len(bumped) - 2))
                candidates.append(
                    (GridFunction(p.scale, bumped), 1.0, res.lam, False)
                )
            for y, lam0, lam, _ in candidates:
                assert _bracket_verdict(p, y, lam0, lam) == _kkt_verdict(
                    p, y, lam0, lam
                ), f"certificates disagree on problem {i}"
        # the sample must actually exercise the solver for the
        # certification to mean anything
        assert converged >= 15, f"only {converged} of 50 converged"

    _checklist(capsys, 5, "bracket and KKT certificates agree on 50 problems", body)


def _delta_slot_bracket(L, y):
    t = y.scale.points
    w = np.diff(t)
    q = np.diff(y.values) / w
    du = np.array([L.du(t[i], y.values[i + 1], q[i]) for i in range(len(w))])
    dv = np.array([L.dv(t[i], y.values[i + 1], q[i]) for i in range(len(w))])
    prefix = np.concatenate(([0.0], np.cumsum(du * w)))
    return dv - prefix[:-1]


def _nabla_slot_bracket(L, y):
    t = y.scale.points
    w = np.diff(t)
    q = np.diff(y.values) / w
    du = np.array([L.du(t[i + 1], y.values[i], q[i]) for i in range(len(w))])
    dv = np.array([L.dv(t[i + 1], y.values[i], q[i]) for i in range(len(w))])
    return dv - np.cumsum(du * w)


def test_criterion_6_reduction_to_single_integral_forms(capsys):
    def body():
        rng = np.random.default_rng(66)
        for _ in range(20):
            size = int(rng.integers(4, 10))
            pts = np.sort(rng.uniform(0.0, 3.0, size))
            if np.any(np.diff(pts) <= 0.0):
                continue
            scale = TimeScale(pts)
            span = scale.b - scale.a
            y = GridFunction(scale, rng.uniform(-1.0, 1.0, size))
            lam0 = float(rng.uniform(-2.0, 2.0))
            lam = float(rng.uniform(-2.0, 2.0))
            Ld = make_lagrangian("v^2 + 0.4*u - 0.2*t*u")
            Kd = make_lagrangian("0.5*t*v + 0.3*u + 1")
            unit = constant_lagrangian(1.0 / span)
            # forward-only problem: unit nabla factors drop out and the
            # combined residual is the classical forward bracket pair
            J = DeltaNablaFunctional(Ld, unit)
            K = DeltaNablaFunctional(Kd, unit)
            got = iso_residual(J, K, y, lam0, lam, EL2).residual.values
            want = lam0 * _delta_slot_bracket(Ld, y) - lam * _delta_slot_bracket(Kd, y)
            scale_f = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale_f
            # mirrored backward-only problem
            Ln = make_lagrangian("v^2 - 0.3*u + 0.1*t")
            Kn = make_lagrangian("0.4*v + 0.2*u + 1")
            J = DeltaNablaFunctional(unit, Ln)
            K = DeltaNablaFunctional(unit, Kn)
            got = iso_residual(J, K, y, lam0, lam, EL1).residual.values
            want = lam0 * _nabla_slot_bracket(Ln, y) - lam * _nabla_slot_bracket(Kn, y)
            scale_f = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale_f

    _checklist(capsys, 6, "single-integral reductions match the classical brackets", body)


def test_criterion_7_byte_determinism(capsys, tmp_path):
    def body():
        doc = {
            "timescale": {"uniform": {"a": 0, "b": 3, "n": 4}},
            "boundary": {"alpha": 0, "beta": 3},
            "objective": {"delta": "v^2", "nabla": "v^2 + v"},
            "constraint": {
                "delta": "t*v",
                "nabla": {"constant_over_measure": True},
            },
            "k": 1,
            "options": {"seed": 11, "multistart": 6},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        runs = [
            subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "deltanabla",
                    "solve",
                    str(path),
                    "--output",
                    "structured",
                ],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0 and runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout  # nonempty
        fuzz = [
            subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "deltanabla",
                    "verify",
                    "identities",
                    "--seed",
                    "3",
                    "--count",
                    "25",
                    "--output",
                    "structured",
                ],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert fuzz[0].returncode == 0
        assert fuzz[0].stdout == fuzz[1].stdout

    _checklist(capsys, 7, "identical seeds give byte-identical structured output", body)
