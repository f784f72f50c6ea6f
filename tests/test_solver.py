"""Tests for the constrained stationary-point solver: symbolic interior
gradients, the exact Newton Jacobians, the damped multistart Newton
iteration, abnormal-candidate search, and the built-in closed-form
family."""

import warnings
from dataclasses import fields, replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltanabla import (
    DeltaNablaFunctional,
    EvaluationBreakdown,
    EvaluationError,
    GridFunction,
    IsoperimetricProblem,
    SolverOptions,
    TimeScale,
    constant_lagrangian,
    discrete_gradient,
    eval_functional,
    find_abnormal,
    make_lagrangian,
    solve_normal,
)
from deltanabla import expressions, solver
from deltanabla.functional import (
    COLUMNS,
    EL2,
    SlotTables,
    bracket_defect,
    el_residual,
    iso_bracket,
    iso_residual,
    row_tables,
    tables_bracket,
)
from deltanabla.solver import closed_form_example, example_problem
from test_acceptance import _random_small_problem


def test_discrete_gradient_on_the_example_extremal():
    p = example_problem(3)
    y, _ = closed_form_example(3)
    assert np.array_equal(discrete_gradient(p.objective, y), [26.0, 26.0])
    assert np.array_equal(discrete_gradient(p.constraint, y), [-1.0, -1.0])


def test_gradient_matches_the_bracket_difference():
    # interior gradient entries are first differences of the combined
    # stationarity bracket, so gradient zero and bracket constancy are
    # the same statement
    rng = np.random.default_rng(2)
    F = DeltaNablaFunctional(
        make_lagrangian("v^2 + 0.3*u"), make_lagrangian("v^2 - u*t")
    )
    for _ in range(15):
        size = int(rng.integers(4, 10))
        pts = np.sort(rng.uniform(0.0, 2.0, size))
        if np.any(np.diff(pts) <= 0.0):
            continue
        scale = TimeScale(pts)
        y = GridFunction(scale, rng.uniform(-1.0, 1.0, size))
        grad = discrete_gradient(F, y)
        r = el_residual(F, y, EL2).residual.values
        assert np.max(np.abs(grad - (r[:-1] - r[1:]))) <= 1e-10


def test_gradient_matches_finite_differences():
    p = example_problem(3)
    y, _ = closed_form_example(3)
    h = 1e-6
    base = y.values
    for functional, want in ((p.objective, [26.0, 26.0]), (p.constraint, [-1.0, -1.0])):
        fd = []
        for j in (1, 2):
            up, dn = base.copy(), base.copy()
            up[j] += h
            dn[j] -= h
            fd.append(
                (
                    eval_functional(functional, GridFunction(y.scale, up)).product
                    - eval_functional(functional, GridFunction(y.scale, dn)).product
                )
                / (2 * h)
            )
        assert np.allclose(fd, want, atol=1e-5)
        assert np.allclose(discrete_gradient(functional, y), want, atol=1e-12)


def test_solve_recovers_the_m3_extremal():
    res = solve_normal(example_problem(3))
    assert res.converged
    assert res.classification == "normal"
    assert np.allclose(res.y.values, [0.0, 2.0, 3.0, 3.0], atol=1e-8)
    assert res.lam == pytest.approx(-26.0, abs=1e-6)
    assert res.lam0 == 1.0
    assert abs(res.constraint_value.product - 1.0) <= 1e-10
    assert res.el_defect <= 1e-8
    assert res.kkt_residual_norm <= 1e-8
    assert res.objective_value.product == pytest.approx(40.0, rel=1e-10)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8])
def test_solve_matches_the_closed_form_family(m):
    res = solve_normal(example_problem(m))
    want, meta = closed_form_example(m)
    assert res.converged
    assert np.max(np.abs(res.y.values - want.values)) <= 1e-8
    assert res.lam == pytest.approx(meta.lam, abs=1e-6 * max(1.0, abs(meta.lam)))


def test_closed_form_fixture_values():
    y2, meta2 = closed_form_example(2)
    assert np.array_equal(y2.values, [0.0, 1.0, 2.0])
    assert meta2.lam == 0.0
    y3, meta3 = closed_form_example(3)
    assert np.array_equal(y3.values, [0.0, 2.0, 3.0, 3.0])
    assert meta3.lam == -26.0
    assert meta3.delta_factor == 5.0 and meta3.nabla_factor == 8.0
    y4, _ = closed_form_example(4)
    assert np.array_equal(y4.values, [0.0, 2.5, 4.0, 4.5, 4.0])
    # endpoint condition holds exactly in floating point for any m
    for m in range(2, 40):
        y, _ = closed_form_example(m)
        assert y.values[0] == 0.0
        assert y.values[-1] == float(m)


def test_closed_form_satisfies_both_residual_forms():
    for m in (2, 3, 4, 6, 9):
        p = example_problem(m)
        y, meta = closed_form_example(m)
        for form in ("EL1", "EL2"):
            r = iso_residual(p.objective, p.constraint, y, 1.0, meta.lam, form)
            assert r.defect <= 1e-9 * max(1.0, abs(r.constant_estimate))


def test_example_needs_two_intervals():
    with pytest.raises(ValueError):
        example_problem(1)
    with pytest.raises(ValueError):
        closed_form_example(1)


# Past 2^53 points numpy cannot allocate (2^50: 8 PiB), at 2^63 - 2 its
# float length wraps to no points, and past 2^64 it refuses the size.
@pytest.mark.parametrize(
    "m", [2**50, 2**63 - 2, 10**22, 10**400], ids=["2**50", "2**63-2", "10**22", "10**400"]
)
def test_example_too_large_for_an_array_names_m(m):
    with pytest.raises(ValueError, match=f"^example m = {m}: too many points for an array$"):
        example_problem(m)


def test_problem_assemble_and_interior_count():
    p = example_problem(3)
    assert p.interior_count() == 2
    y = p.assemble(np.array([7.0, 9.0]))
    assert np.array_equal(y.values, [0.0, 7.0, 9.0, 3.0])


def test_a_problem_needs_interior_points_and_finite_data():
    p = example_problem(3)
    two = TimeScale(np.array([0.0, 3.0]))
    with pytest.raises(ValueError, match="^isoperimetric problem needs interior points$"):
        replace(p, scale=two)
    for name in ("alpha", "beta", "k"):
        for value in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                replace(p, **{name: value})
    with pytest.raises(ValueError, match="^gradient needs at least one interior point$"):
        discrete_gradient(p.objective, GridFunction(two, np.array([0.0, 3.0])))


def test_solver_is_deterministic():
    opts = SolverOptions(seed=123, multistart=6)
    r1 = solve_normal(example_problem(4), opts)
    r2 = solve_normal(example_problem(4), opts)
    assert np.array_equal(r1.y.values, r2.y.values)
    assert r1.lam == r2.lam
    assert r1.iterations == r2.iterations
    assert len(r1.stationary_points) == len(r2.stationary_points)


def _unsatisfiable_problem():
    scale = TimeScale(np.arange(4.0))
    return IsoperimetricProblem(
        scale=scale,
        alpha=0.0,
        beta=1.0,
        objective=DeltaNablaFunctional(
            make_lagrangian("v^2"), make_lagrangian("v^2")
        ),
        # constant integrands: the constraint value cannot move
        constraint=DeltaNablaFunctional(
            constant_lagrangian(2.0), constant_lagrangian(1.0)
        ),
        k=5.0,
    )


def test_unsatisfiable_constraint_reports_no_convergence():
    res = solve_normal(_unsatisfiable_problem())
    assert not res.converged
    assert res.classification == "unknown"
    assert res.message != ""
    assert len(res.y.values) == 4


def test_find_abnormal_empty_for_the_example():
    assert find_abnormal(example_problem(3)) == []


def _constraint_extremal_problem(objective_delta="v^2 + u", k=0.0):
    """On {0, 1, 2, 3} with zero ends, y = 0 is an extremal of the
    constraint (v^2, v^2), at level 0."""
    return IsoperimetricProblem(
        scale=TimeScale(np.arange(4.0)),
        alpha=0.0,
        beta=0.0,
        objective=DeltaNablaFunctional(
            make_lagrangian(objective_delta), make_lagrangian("v^2")
        ),
        constraint=DeltaNablaFunctional(
            make_lagrangian("v^2"), make_lagrangian("v^2")
        ),
        k=k,
    )


def test_find_abnormal_locates_a_constraint_extremal():
    p = _constraint_extremal_problem()
    found = find_abnormal(p)
    assert found
    res = found[0]
    assert res.lam0 == 0.0 and res.lam == 1.0
    assert res.classification == "abnormal"
    assert np.allclose(res.y.values, 0.0, atol=1e-8)
    assert res.el_defect <= 1e-8
    # the multiplier-free bracket of the constraint is constant there
    r = iso_residual(p.constraint, p.constraint, res.y, 1.0, 0.0, EL2)
    assert r.defect <= 1e-8


def test_find_abnormal_ignores_infeasible_constraint_extremals():
    # same constraint as above but a level it cannot attain at an
    # extremal: candidates must be feasible to count
    assert find_abnormal(_constraint_extremal_problem(k=3.0)) == []


def test_abnormal_answer_with_a_non_finite_certificate_is_not_converged():
    # 1e200*1e200 overflows to inf and inf*u is NaN at u = 0.  The
    # constraint's own bracket is constant there, so the candidate is
    # found, but its combined bracket and KKT residual are NaN, which
    # meets no tolerance; numpy warns of nothing on the way.
    p = _constraint_extremal_problem("1e200*1e200*u + v^2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = find_abnormal(p)
    assert len(found) == 1
    res = found[0]
    assert res.classification == "abnormal"
    assert np.isnan(res.el_defect) and np.isnan(res.kkt_residual_norm)
    assert res.converged is False
    assert res.message == "stationary rows met but bracket defect nan exceeds stat_tol"


def test_abnormal_candidate_keeps_an_undefined_objective_as_nan():
    # log(u - 1) is undefined at the candidate y = 0.  The candidate is
    # abnormal whatever the objective does there, so it is kept with NaN
    # objective values and a NaN certificate, and the search goes on.
    p = _constraint_extremal_problem("log(u - 1) + v^2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = find_abnormal(p)
    assert len(found) == 1
    res = found[0]
    assert res.classification == "abnormal"
    assert np.array_equal(res.y.values, np.zeros(4))
    obj = res.objective_value
    assert np.isnan([obj.delta_factor, obj.nabla_factor, obj.product]).all()
    assert res.constraint_value.product == 0.0
    assert np.isnan(res.el_defect) and np.isnan(res.kkt_residual_norm)
    assert res.converged is False
    assert res.message == "stationary rows met but bracket defect nan exceeds stat_tol"


def test_zero_hessian_takes_the_zero_step_without_lstsq(monkeypatch):
    # example_problem's constraint is affine in y, so its Hessian is
    # zero: the abnormal search's Newton runs take the zero step of the
    # stacked SVD and end at their starts (find_abnormal decides this
    # problem without them).  Every round makes one stacked SVD for all
    # its starts, and lstsq is never called.
    calls = {"svd": 0, "rounds": 0}
    svd, steps = np.linalg.svd, solver._steps

    def counting_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    def counting_steps(*args, **kwargs):
        calls["rounds"] += 1
        return steps(*args, **kwargs)

    def no_lstsq(*args, **kwargs):
        raise AssertionError("lstsq called")

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    monkeypatch.setattr(solver, "_steps", counting_steps)
    p, opts = example_problem(8), SolverOptions()
    z0 = solver._starts(p, opts)
    runs = solver._newton(solver._abnormal_system(p), z0, opts)
    assert not any(solver._met(run, p, opts) for run in runs)
    assert all((run.z == start).all() for run, start in zip(runs, z0))
    assert 0 < calls["svd"] <= calls["rounds"]
    calls.update(svd=0, rounds=0)
    assert find_abnormal(_constraint_extremal_problem())
    assert 0 < calls["svd"] <= calls["rounds"]


def _degenerate_abnormal_problem():
    """On {0, 1, 2, 3} with zero ends, the constraint (t*u^2, 1) is
    K = 3*y(2)^2, since the delta slot of gap 1 is the only one with
    t > 0 and a free u.  K is flat in y(1), so every y with y(2) = 0 is
    an abnormal point at level 0, and the Hessian is singular
    everywhere."""
    return IsoperimetricProblem(
        scale=TimeScale(np.arange(4.0)),
        alpha=0.0,
        beta=0.0,
        objective=DeltaNablaFunctional(
            make_lagrangian("v^2 + u"), make_lagrangian("v^2")
        ),
        constraint=DeltaNablaFunctional(
            make_lagrangian("t*u^2"), make_lagrangian("1")
        ),
        k=0.0,
    )


def test_find_abnormal_keeps_every_start_on_a_degenerate_abnormal_set():
    # The minimum-norm step moves only y(2), never along the flat
    # direction, so each start keeps its own y(1) and ends on the line
    # y(2) = 0.  Were a singular Hessian to end a start, only the base
    # start, which starts on the line, would be found.
    p = _degenerate_abnormal_problem()
    opts = SolverOptions()
    found = find_abnormal(p, opts)
    assert len(found) == 9
    y1 = [r.y.values[1] for r in found]
    assert np.allclose(y1, [s[0] for s in solver._starts(p, opts)], rtol=0.0, atol=1e-12)
    for res in found:
        assert abs(res.y.values[2]) <= 1e-12
        assert res.converged and res.classification == "abnormal"
        _assert_certificate_bitwise(p, res)


def test_no_abnormal_start_runs_to_max_iter():
    # Square Newton on grad(K) = 0 ends each start of the criterion-5
    # problems, whose constraints have rank-2 Hessians, at a root or a
    # stall: none crawls on toward a nonzero least-squares minimum.  The
    # runs are the search's own; find_abnormal decides these problems
    # without them.
    runs = []
    opts = SolverOptions()
    rng = np.random.default_rng(2024)
    for _ in range(6):
        p = _random_small_problem(rng)
        assert find_abnormal(p, opts) == []
        z0 = solver._starts(p, opts)
        runs.extend(solver._newton(solver._abnormal_system(p), z0, opts))
        assert not any(solver._met(run, p, opts) for run in runs[-len(z0):])
    assert len(runs) == 6 * 9
    assert [run.status for run in runs if run.status == "maxiter"] == []


def test_a_constant_nabla_factor_has_a_zero_gradient():
    # example_problem's nabla factor is constant_lagrangian(1/m): b = 0
    # exactly, so the decision reads grad K = B·a at every start.
    p = example_problem(8)
    for functional in (p.constraint, replace(p.constraint, l_nabla=make_lagrangian("2"))):
        tab = row_tables(functional, p.scale.points, p._values(solver._starts(p, SolverOptions())))[0]
        assert not tab.grad_nabla.any() and tab.grad_delta.any()
    assert solver._none_met(p, SolverOptions(), solver._starts(p, SolverOptions()))


def _results_bytes(results):
    return [
        [(v.values if isinstance(v, GridFunction) else v).tobytes()
         if isinstance(v, (GridFunction, np.ndarray)) else repr(v)
         for v in (getattr(res, f.name) for f in fields(res))]
        for res in results
    ]


@st.composite
def _affine_constraint_problems(draw):
    """A random scale (3 to 8 points, gaps scaled by 10^-3 to 10^3) and
    a constraint whose factors are affine: independent gradients a and
    b, a constant nabla or delta factor (b = 0 or a = 0), b = c·a, or b
    nearly parallel to a; the level k is 0, the constraint at a random
    competitor, or a random number."""
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=7))
    scale = TimeScale(np.concatenate(([0.0], np.cumsum(gaps))) * 10.0 ** draw(st.integers(-3, 3)))
    c = _coefs(draw, 8, -2.0, 2.0)
    delta = f"{c[0]}*t*v + {c[1]}*u + {c[2]}"
    shape = draw(st.sampled_from(["independent", "b = 0", "a = 0", "b = c·a", "nearly parallel"]))
    nabla = {
        "independent": f"{c[3]}*v + {c[4]}*u + {c[5]}*t + {c[6]}",
        "b = 0": c[3],
        "a = 0": f"{c[3]}*v + {c[4]}*u + {c[5]}",
        "b = c·a": f"{c[3]}*({delta})",
        "nearly parallel": f"{c[3]}*({delta}) + 1e-9*{c[4]}*v",
    }[shape]
    if shape == "a = 0":
        delta = c[7]
    constraint = DeltaNablaFunctional(make_lagrangian(delta), make_lagrangian(nabla))
    objective = DeltaNablaFunctional(make_lagrangian("v^2 + u"), make_lagrangian("v^2"))
    alpha, beta = (draw(st.floats(-2.0, 2.0)) for _ in range(2))
    level = draw(st.sampled_from(["zero", "competitor", "random"]))
    if level == "zero":
        k = 0.0
    elif level == "competitor":
        probe = np.linspace(alpha, beta, len(scale))
        probe[1:-1] += draw(st.lists(st.floats(-0.3, 0.3), min_size=len(gaps) - 1,
                                     max_size=len(gaps) - 1))
        k = eval_functional(constraint, GridFunction(scale, probe)).product
    else:
        k = draw(st.floats(-10.0, 10.0))
    opts = SolverOptions(multistart=draw(st.integers(0, 4)), seed=draw(st.integers(0, 99)))
    return IsoperimetricProblem(scale, alpha, beta, objective, constraint, k), opts


@settings(max_examples=150, deadline=None)
@given(_affine_constraint_problems())
def test_the_affine_decision_agrees_with_the_newton_search(case):
    # Where the decision proves that no run is met, the Newton search
    # finds no point; where it cannot decide, find_abnormal's list is the
    # search's, bit for bit.
    p, opts = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decided = solver._none_met(p, opts, solver._starts(p, opts))
        found = find_abnormal(p, opts)
        with mock.patch.object(solver, "_none_met", return_value=False):
            searched = find_abnormal(p, opts)
    if decided:
        assert found == [] and searched == []
    else:
        assert _results_bytes(found) == _results_bytes(searched)


def _bits(*xs):
    return np.array(xs, dtype=float).tobytes()


def _assert_certificate_bitwise(p, res):
    """The answer's numbers are the public certificate functions' at its
    y and multipliers, bit for bit."""
    y = res.y
    for got, functional in (
        (res.objective_value, p.objective),
        (res.constraint_value, p.constraint),
    ):
        want = eval_functional(functional, y)
        assert _bits(got.delta_factor, got.nabla_factor, got.product) == _bits(
            want.delta_factor, want.nabla_factor, want.product
        )
    bracket = iso_bracket(p.objective, p.constraint, y, res.lam0, res.lam)
    assert res.bracket.tobytes() == bracket.tobytes()
    assert _bits(res.el_defect) == _bits(bracket_defect(bracket))
    gl = discrete_gradient(p.objective, y)
    gk = discrete_gradient(p.constraint, y)
    kkt = np.max(np.abs(res.lam0 * gl - res.lam * gk))
    assert _bits(res.kkt_residual_norm) == _bits(kkt)


def test_answers_agree_bitwise_with_the_certificate_functions():
    for m in (3, 8, 32):
        res = solve_normal(example_problem(m))
        assert res.converged
        _assert_certificate_bitwise(example_problem(m), res)
    rng = np.random.default_rng(2024)
    for i in range(6):
        p = _random_small_problem(rng)
        _assert_certificate_bitwise(p, solve_normal(p, SolverOptions(multistart=4, seed=i)))
    p = _constraint_extremal_problem()
    found = find_abnormal(p)
    assert found
    for res in found:
        _assert_certificate_bitwise(p, res)


def test_no_kernel_pass_after_the_newton_runs(monkeypatch):
    # Both searches read their answers from the tables each run kept
    # of its final iterate: a converged solve evaluates nothing after
    # its runs, and an abnormal answer evaluates only its objective, once.
    outside = []
    in_run = [False]
    tables = expressions.Lagrangian.tables
    newton = solver._newton

    def counting(lag, *slots):
        if not in_run[0]:
            outside.append(lag)
        return tables(lag, *slots)

    def running(*args, **kwargs):
        in_run[0] = True
        try:
            return newton(*args, **kwargs)
        finally:
            in_run[0] = False

    # Every kernel pass, whether of a stack (the runs) or of one point,
    # is one Lagrangian.tables call per integrand.
    monkeypatch.setattr(expressions.Lagrangian, "tables", counting)
    monkeypatch.setattr(solver, "_newton", running)
    assert solve_normal(example_problem(8)).converged
    assert outside == []
    p = _constraint_extremal_problem()
    found = find_abnormal(p)
    assert found
    objective = [id(p.objective.l_delta), id(p.objective.l_nabla)]
    assert [id(lag) for lag in outside] == objective * len(found)


def _undefined_objective_problem():
    # log(u) is undefined at every start (u < 0 throughout), so no normal
    # start can be evaluated; the constraint is defined everywhere.
    return IsoperimetricProblem(
        scale=TimeScale(np.arange(4.0)),
        alpha=-1.0,
        beta=-2.0,
        objective=DeltaNablaFunctional(
            make_lagrangian("log(u) + v^2"), make_lagrangian("v^2")
        ),
        constraint=DeltaNablaFunctional(make_lagrangian("t*v"), make_lagrangian("1")),
        k=1.0,
    )


def test_no_finite_start_is_an_evaluation_error():
    # beta - alpha overflows, so the boundary interpolant and every start
    # perturbed from it are inf: no start is evaluated, and with no
    # finite iterate to report the solve raises, listing every start.
    p = replace(_unsatisfiable_problem(), alpha=-1e308, beta=1e308)
    statuses = "; ".join(f"start {i}: error: non-finite iterate" for i in range(9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError) as exc:
            solve_normal(p)
        assert find_abnormal(p) == []
    assert str(exc.value) == f"no start has a finite iterate: {statuses}"


def test_overflowing_starts_end_in_errors_without_warnings():
    # With beta = 1.7e308 the interpolant overflows in (beta - alpha) *
    # (t - a), so no start is finite; at alpha = beta = 1.75e308 the
    # interpolant is finite and most of its 5e307 perturbations overflow.
    # Each such start ends "non-finite iterate", numpy warns of nothing,
    # and every finite start keeps its bits.
    every = replace(example_problem(3), alpha=0.0, beta=1.7e308)
    some = replace(example_problem(3), alpha=1.75e308, beta=1.75e308)
    opts = SolverOptions(spread=5e307)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="no start has a finite iterate"):
            solve_normal(every)
        assert find_abnormal(every) == []
        starts = solver._starts(some, opts)
        res = solve_normal(some, opts)
        assert find_abnormal(some, opts) == []
    finite = np.isfinite(starts).all(axis=1)
    assert finite[0] and not finite.all()
    rng = np.random.default_rng(opts.seed)
    for start, ok in zip(starts[1:], finite[1:]):
        draw = rng.uniform(-opts.spread, opts.spread, start.size)
        if ok:
            assert start.tobytes() == (starts[0] + draw).tobytes()
    statuses = res.message.split("; ")
    assert not res.converged
    for i in np.flatnonzero(~finite):
        assert statuses[i] == f"start {i}: error: non-finite iterate"


@pytest.mark.parametrize("problem", [_unsatisfiable_problem, _undefined_objective_problem])
def test_non_converged_report_values_are_the_functionals_at_its_y(problem):
    # The report's breakdowns are eval_functional's at its y bit for bit,
    # NaN where the functional is undefined there.
    p = problem()
    res = solve_normal(p)
    assert not res.converged and res.classification == "unknown"
    assert res.bracket is None
    for got, functional in (
        (res.objective_value, p.objective),
        (res.constraint_value, p.constraint),
    ):
        try:
            want = eval_functional(functional, res.y)
        except EvaluationError:
            want = EvaluationBreakdown(np.nan, np.nan, np.nan)
        assert _bits(got.delta_factor, got.nabla_factor, got.product) == _bits(
            want.delta_factor, want.nabla_factor, want.product
        )
    if problem is _undefined_objective_problem:
        assert np.isnan(res.objective_value.product)
        assert np.isfinite(res.constraint_value.product)
        assert np.isnan([res.el_defect, res.kkt_residual_norm]).all()


def test_one_slot_pass_per_product_per_point_and_one_compile_per_lagrangian(monkeypatch):
    # Every evaluated point costs each product one pass over its slots,
    # within the one kernel pass over the stack of all the round's
    # points, the Jacobians none (they read the same tables), and each
    # Lagrangian compiles its one kernel once.
    passes, points, compiles = [], [], []
    in_jacobian = [False]
    tables = expressions.Lagrangian.tables
    evaluate = solver._evaluate
    compile_kernel = expressions._compile

    def counting_tables(lag, t, u, v):
        # one entry per row of the slot arrays, and per function
        assert not in_jacobian[0]
        passes.extend([id(lag)] * (len(v) if v.ndim == 2 else 1))
        return tables(lag, t, u, v)

    def counting_points(system, z):
        points.extend(z)
        return evaluate(system, z)

    def counting_compile(roots):
        compiles.append(roots)
        return compile_kernel(roots)

    def counted(make_system):
        def make(p):
            system = make_system(p)

            def jacobian(*args):
                in_jacobian[0] = True
                try:
                    return system.jacobian(*args)
                finally:
                    in_jacobian[0] = False

            return system._replace(jacobian=jacobian)

        return make

    monkeypatch.setattr(expressions.Lagrangian, "tables", counting_tables)
    monkeypatch.setattr(solver, "_evaluate", counting_points)
    monkeypatch.setattr(expressions, "_compile", counting_compile)
    monkeypatch.setattr(solver, "_normal_system", counted(solver._normal_system))
    monkeypatch.setattr(solver, "_abnormal_system", counted(solver._abnormal_system))
    p = example_problem(16)
    assert solve_normal(p).converged
    assert len(points) > 9
    lagrangians = (p.objective.l_delta, p.objective.l_nabla,
                   p.constraint.l_delta, p.constraint.l_nabla)
    assert [passes.count(id(lag)) for lag in lagrangians] == [len(points)] * 4
    assert len(passes) == 4 * len(points)
    assert len(compiles) == len(lagrangians)
    q = _constraint_extremal_problem()
    passes.clear()
    points.clear()
    found = find_abnormal(q)
    assert found
    # and each abnormal answer one pass of the objective at its point
    sides = (q.constraint.l_delta, q.constraint.l_nabla, q.objective.l_delta, q.objective.l_nabla)
    assert [passes.count(id(lag)) for lag in sides] == [len(points)] * 2 + [len(found)] * 2
    assert len(passes) == 2 * len(points) + 2 * len(found)
    assert len(compiles) == len(lagrangians) + 4
    solve_normal(p)
    find_abnormal(q)
    assert len(compiles) == len(lagrangians) + 4


def test_undefined_second_partial_ends_its_start_at_the_jacobian():
    # d_uu of log(u) is -1/u^2, undefined where u^2 underflows: the
    # residual is finite, the Jacobian reads the NaN curvature column.
    p = IsoperimetricProblem(
        scale=TimeScale(np.arange(3.0)),
        alpha=1e-170,
        beta=1e-170,
        objective=DeltaNablaFunctional(make_lagrangian("log(u)"), make_lagrangian("v^2 + 1")),
        constraint=DeltaNablaFunctional(make_lagrangian("t*v"), make_lagrangian("1")),
        k=2.0,
    )
    res = solve_normal(p, SolverOptions(multistart=0))
    assert res.message == "start 0: error: non-finite Jacobian"


def test_a_spread_whose_width_overflows_is_a_value_error():
    # The starts are drawn by rng.uniform(-spread, spread), which raises
    # OverflowError where 2 * spread is not finite; the widest spread
    # below that still draws finite starts.
    widest = np.finfo(float).max / 2
    assert np.isfinite(solver._starts(example_problem(3), SolverOptions(spread=widest))).all()
    for spread in (np.nextafter(widest, np.inf), 1e308, -1e308, np.inf):
        with pytest.raises(ValueError, match="2 [*] spread overflows"):
            SolverOptions(spread=spread)
    with pytest.raises(ValueError, match="^spread nan is not a number$"):
        SolverOptions(spread=np.nan)


@pytest.mark.parametrize(
    "field, value",
    [
        ("feas_tol", 0.0), ("stat_tol", -1e-8), ("feas_tol", np.inf), ("stat_tol", np.nan),
        ("max_iter", -1), ("multistart", -3), ("seed", -1), ("spread", -0.5),
        ("max_iter", 2.5), ("max_iter", np.inf), ("multistart", 2.5), ("seed", 1.5),
        ("max_iter", True), ("multistart", False), ("seed", "1"), ("seed", None),
        ("feas_tol", True), ("stat_tol", True), ("spread", True), ("spread", np.nan),
        ("feas_tol", "1e-8"), ("spread", None),
        ("stat_tol", 10**400), ("feas_tol", 10**400), ("spread", 10**400), ("spread", -10**400),
    ],
)
def test_out_of_range_solver_options_are_value_errors_naming_the_field(field, value):
    # max_iter = -1 would lift the iteration cap (a run stops at
    # iterations == max_iter), and so would 2.5 or inf, which it never
    # meets; multistart = -3 would run one start; a negative seed, and
    # multistart = 2.5 or seed = 1.5 (a TypeError), would fail only at
    # solve time; max_iter = True would run as 1, and a bool tolerance
    # or spread as 1.0; a string or None would fail with a TypeError,
    # and an int beyond the float range with an OverflowError.
    with pytest.raises(ValueError, match=f"^{field} "):
        SolverOptions(**{field: value})


def test_solver_option_messages_are_unchanged_for_ints():
    # A count that is not an int has a message of its own.
    for field in ("max_iter", "multistart", "seed"):
        with pytest.raises(ValueError) as info:
            SolverOptions(**{field: -1})
        assert str(info.value) == f"{field} -1 must be nonnegative"
        with pytest.raises(ValueError) as info:
            SolverOptions(**{field: 2.5})
        assert str(info.value) == f"{field} 2.5 must be an int"
        assert getattr(SolverOptions(**{field: 3}), field) == 3


def test_solver_options_thread_through():
    res = solve_normal(example_problem(3), SolverOptions(multistart=0))
    # multistart 0 still runs the base interpolant start
    assert res.converged


def _huge_power_problem():
    """v^30*v^30 overflows to inf at every start perturbed by 1e6."""
    return IsoperimetricProblem(
        scale=TimeScale(np.linspace(0.0, 5.0, 6)),
        alpha=0.0,
        beta=0.0,
        objective=DeltaNablaFunctional(
            make_lagrangian("v^30*v^30"), make_lagrangian("v^2")
        ),
        constraint=DeltaNablaFunctional(
            make_lagrangian("u"), constant_lagrangian(1.0 / 5.0)
        ),
        k=1.0,
    )


def test_non_finite_residual_ends_only_its_own_start():
    p = _huge_power_problem()
    res = solve_normal(p, SolverOptions(spread=1e6))  # and warns of nothing
    assert not res.converged
    assert res.classification == "unknown"
    statuses = res.message.split("; ")
    assert len(statuses) == 9
    assert all(s.endswith("error: non-finite residual") for s in statuses[1:])


def _abnormal_document_problem():
    """The abnormal document of the CLI benchmark: the constraint
    (sum v^2 mu)(sum v^2 nu) = 0 holds only for constant y, where its
    gradient vanishes, so no normal start converges."""
    return IsoperimetricProblem(
        scale=TimeScale(np.array([0.0, 0.4, 1.0, 1.3, 2.0])),
        alpha=1.0,
        beta=1.0,
        objective=DeltaNablaFunctional(
            make_lagrangian("v^2 + u"), make_lagrangian("v^2 + 1")
        ),
        constraint=DeltaNablaFunctional(make_lagrangian("v^2"), make_lagrangian("v^2")),
        k=0.0,
    )


def test_a_singular_start_ends_alone_in_a_stacked_solve(monkeypatch):
    # Start 0 is the constant interpolant, where the bordered Jacobian is
    # singular.  Its matrix fails the first round's stacked solve, which
    # is then solved matrix by matrix, each as a stack of one: only
    # start 0 ends.
    failed_stacks = []
    solve = np.linalg.solve

    def recording(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            failed_stacks.append(len(a) if a.ndim == 3 else None)
            raise

    monkeypatch.setattr(np.linalg, "solve", recording)
    res = solve_normal(_abnormal_document_problem(), SolverOptions(multistart=4))
    assert res.message == (
        "start 0: singular; start 1: maxiter; start 2: maxiter; start 3: maxiter; "
        "start 4: maxiter"
    )
    assert failed_stacks == [5, 1]


def test_find_abnormal_drops_a_met_start_whose_bracket_is_not_constant():
    # With no Newton step, start 0 (the constant interpolant) is an
    # abnormal point, and start 3 meets _met at stat_tol 4.7
    # (||grad K||∞ 4.52, |K| 0.47) but its bracket defect is 4.86: it is
    # a candidate at stat_tol 5.0 and not at 4.7, where the answer is
    # start 0's alone, as it is at 5.0.
    p = _abnormal_document_problem()
    opts = SolverOptions(multistart=4, max_iter=0, stat_tol=5.0, feas_tol=0.5)
    base, other = find_abnormal(p, opts)
    assert np.array_equal(base.y.values, np.ones(5))
    assert other.y.values[1:-1].tobytes() == solver._starts(p, opts)[3].tobytes()
    assert other.kkt_residual_norm <= 4.7 < other.el_defect <= 5.0
    assert abs(other.constraint_value.product - p.k) <= opts.feas_tol
    assert _results_bytes(find_abnormal(p, replace(opts, stat_tol=4.7))) == _results_bytes([base])


def _log_problem():
    """log(u) is undefined where a trial point's u drops to 0 or below."""
    return IsoperimetricProblem(
        scale=TimeScale(np.arange(5.0)),
        alpha=1.0,
        beta=2.0,
        objective=DeltaNablaFunctional(make_lagrangian("log(u) + v^2"), make_lagrangian("v^2")),
        constraint=DeltaNablaFunctional(make_lagrangian("t*v"), make_lagrangian("1")),
        k=3.0,
    )


def test_an_undefined_trial_point_rejects_only_its_own_trial(monkeypatch):
    # In the first round the trial points of starts 2 and 3 leave the
    # domain of log: the one kernel pass over the round's stack marks
    # them, and those two starts halve their step while starts 0 and 1
    # go on.  Start 1 ends within the radius of a met run's, as a
    # duplicate, and start 2 crawls after start 0 is met and ends "slow"
    # (alone it goes on to an answer).
    undefined = []
    evaluate = solver._evaluate

    def recording(system, z):
        ev = evaluate(system, z)
        undefined.append(sorted(ev.errors))
        return ev

    monkeypatch.setattr(solver, "_evaluate", recording)
    p = _log_problem()
    opts = SolverOptions(multistart=3, seed=5, spread=1.5)
    runs, _ = _runs_match_each_start_alone(p, opts, min_norm=False)
    assert [run.status for run in runs] == ["stalled", "duplicate", "slow", "ok"]
    assert undefined[1] == [2, 3]
    assert solve_normal(p, opts).converged


def _runs_match_each_start_alone(p, opts, min_norm, z0=None):
    """The runs of one batch from the problem's starts (or z0), each
    checked against its start run as a batch of one: a run not ended
    "duplicate" or "slow" bit for bit; a duplicate is not met, took at
    most the lone run's iterations, and lies within the radius of a met
    run of the batch; a slow run ended in a batch with a met run, at
    the iterate its lone run reaches in as many iterations.  Returns the
    batch's runs and the lone runs."""
    system = (solver._abnormal_system if min_norm else solver._normal_system)(p)
    if z0 is None:
        z0 = solver._starts(p, opts)
        if not min_norm:
            z0 = np.concatenate((z0, np.zeros((len(z0), 1))), axis=1)
    met = partial(solver._met, p=p, opts=opts)
    runs = solver._newton(system, z0, opts)
    assert len(runs) == len(z0)
    kept = [run.z for run in runs if met(run)]
    alones = [solver._newton(system, start[None], opts)[0] for start in z0]
    for run, alone, start in zip(runs, alones, z0):
        if run.status == "duplicate":
            assert not met(run)
            assert run.iterations <= alone.iterations
            assert min(np.max(np.abs(run.z - z)) for z in kept) <= solver._RADIUS
            continue
        if run.status == "slow":
            assert kept
            assert run.iterations <= alone.iterations
            alone = solver._newton(
                system, start[None], replace(opts, max_iter=run.iterations))[0]
            assert run.z.tobytes() == alone.z.tobytes()
            assert run.f.tobytes() == alone.f.tobytes()
            continue
        assert run.z.tobytes() == alone.z.tobytes()
        assert run.f.tobytes() == alone.f.tobytes()
        assert (run.iterations, run.status) == (alone.iterations, alone.status)
    return runs, alones


@pytest.mark.parametrize(
    "problem, opts, min_norm",
    [
        (_degenerate_abnormal_problem, SolverOptions(), True),
        (_huge_power_problem, SolverOptions(spread=1e6), False),
        (_abnormal_document_problem, SolverOptions(multistart=4), False),
        (_abnormal_document_problem, SolverOptions(multistart=4), True),
    ],
    ids=["degenerate-abnormal", "non-finite-residual", "singular", "abnormal-document"],
)
def test_fixed_batches_run_each_start_as_it_runs_alone(problem, opts, min_norm):
    _runs_match_each_start_alone(problem(), opts, min_norm)


def _two_point_problem():
    """A seven-point problem of the random_small family with two
    distinct stationary points, each reached from several starts."""
    return IsoperimetricProblem(
        scale=TimeScale(np.array([
            1.329890496276747, 1.3599444126761282, 1.7606061573225533, 1.7801615132853703,
            2.367803402838559, 2.5983794028768568, 2.9630842129671247,
        ])),
        alpha=-0.22090457920085638,
        beta=0.9614757633202162,
        objective=DeltaNablaFunctional(
            make_lagrangian("v^2 + -0.197875*u*v + 0.430628*u + -0.204768*t"),
            make_lagrangian("v^2 + 0.136125*u + 0.443171*v + 1.197572"),
        ),
        constraint=DeltaNablaFunctional(
            make_lagrangian("-0.44622*t*v + 0.121751*u + 1.399267"),
            make_lagrangian("-0.447418*v + -0.299238*u + 1.087072"),
        ),
        k=1.4127958215102878,
    )


def _seven_point_problem():
    """Problem 4 of the seed-1 random_small pool: two of its nine starts
    stall at one stationary point, which the other seven reach."""
    return IsoperimetricProblem(
        scale=TimeScale(np.array([
            1.141272809659597, 1.2936802463322186, 1.8964053525005011, 1.8994798381096734,
            1.961598033205183, 2.175881814228717, 2.6019615169265977,
        ])),
        alpha=-0.24752299714381154,
        beta=-0.15815721076507416,
        objective=DeltaNablaFunctional(
            make_lagrangian("v^2 + 0.310274*u*v + -0.158205*u + 0.043669*t"),
            make_lagrangian("v^2 + -0.303703*u + 0.496141*v + 0.743215"),
        ),
        constraint=DeltaNablaFunctional(
            make_lagrangian("-0.243133*t*v + -0.42681*u + 0.980462"),
            make_lagrangian("0.263129*v + 0.197894*u + 0.890071"),
        ),
        k=1.9540575235121849,
    )


def test_a_rejected_trial_is_followed_up_before_the_next_duplicate_test():
    # A start whose trial is rejected gets its next trial point, or its
    # end, in the round of the evaluation that rejected it, so that a
    # run that stalls there is kept before the next round's duplicate
    # test.  Deferring that work a round changes how four of these
    # starts end, start 1 the first.  Start 0 crawls after other starts
    # are met and ends "slow".
    runs, _ = _runs_match_each_start_alone(_seven_point_problem(), SolverOptions(), False)
    assert [(run.status, run.iterations) for run in runs] == [
        ("slow", 20), ("duplicate", 12), ("stalled", 10), ("duplicate", 14),
        ("duplicate", 12), ("duplicate", 13), ("stalled", 10), ("duplicate", 12),
        ("duplicate", 12),
    ]


def _crawling_start_problem():
    """Problem 72 of the seed-1 random_small pool: its start 0 (the
    linear interpolant) crawls, with ||f|| falling from 0.065 to 0.038
    over 100 steps, while the other eight starts converge in 10."""
    return IsoperimetricProblem(
        scale=TimeScale(np.array([
            0.4110446304490095, 0.4889760845382435, 0.6500878365698589, 0.9763410108973748,
            1.117307044085456, 1.6767201349348655,
        ])),
        alpha=-0.14735513207544537,
        beta=-0.20892373317049007,
        objective=DeltaNablaFunctional(
            make_lagrangian("v^2 + 0.177524*u*v + -0.068702*u + 0.014328*t"),
            make_lagrangian("v^2 + 0.451888*u + -0.457769*v + 1.136839"),
        ),
        constraint=DeltaNablaFunctional(
            make_lagrangian("0.236203*t*v + -0.319882*u + 1.402354"),
            make_lagrangian("-0.377158*v + 0.308776*u + 0.934897"),
        ),
        k=2.180131207121625,
    )


def test_a_crawling_start_ends_slow_within_its_window(monkeypatch):
    # Start 0 does not halve ||f|| over its first _WINDOW accepted steps,
    # after the other starts are met, and ends "slow" there, not
    # "maxiter" after 100.  No answer read it:
    # the solve is the same bit for bit with a window past max_iter.
    p, opts = _crawling_start_problem(), SolverOptions()
    runs, _ = _runs_match_each_start_alone(p, opts, min_norm=False)
    assert [run.status == "slow" for run in runs] == [True] + [False] * 8
    assert runs[0].iterations <= solver._WINDOW + 1
    res = solve_normal(p, opts)
    assert res.converged
    monkeypatch.setattr(solver, "_WINDOW", opts.max_iter + 1)
    runs, _ = _runs_match_each_start_alone(p, opts, min_norm=False)
    assert (runs[0].status, runs[0].iterations) == ("maxiter", 100)
    assert _results_bytes([solve_normal(p, opts)]) == _results_bytes([res])


def test_a_slow_start_that_converges_is_spared():
    # Start 3 of the log problem crawls at 1 to 6 % a step for 19 steps,
    # and after _WINDOW steps it is still not met; but its 20th step
    # brings ||f|| to 0.2 of its start's, under _PROGRESS, and it goes on
    # to end "ok" after 25 iterations.
    p, opts = _log_problem(), SolverOptions(multistart=3, seed=5, spread=1.5)
    runs, _ = _runs_match_each_start_alone(p, opts, min_norm=False)
    assert (runs[3].status, runs[3].iterations) == ("ok", 25)
    z0 = np.append(solver._starts(p, opts)[3], 0.0)[None]
    short = replace(opts, max_iter=solver._WINDOW)
    early = solver._newton(solver._normal_system(p), z0, short)[0]
    assert early.status == "maxiter"
    assert not solver._met(early, p, opts)


@pytest.mark.parametrize(
    "problem, opts, start, iterations",
    [
        (_seven_point_problem, SolverOptions(), 0, 29),
        (_log_problem, SolverOptions(multistart=3, seed=5, spread=1.5), 2, 32),
    ],
    ids=["seven-point", "log"],
)
def test_a_crawling_start_alone_goes_on_to_its_answer(problem, opts, start, iterations):
    # These starts end "slow" in their batches, once another start is
    # met, and each would converge later at a met run's point.  Alone no
    # run is met, so the window does not end them: they are met as before
    # the window, and with no other start the solve converges.
    p = problem()
    runs, alones = _runs_match_each_start_alone(p, opts, min_norm=False)
    assert runs[start].status == "slow"
    assert "slow" not in [run.status for run in alones]
    assert all(solver._met(run, p, opts) for run in alones)
    assert alones[start].iterations == iterations
    if start == 0:  # the start multistart=0 runs alone
        res = solve_normal(p, replace(opts, multistart=0))
        assert (res.converged, res.iterations) == (True, iterations)


def test_no_start_ends_slow_with_fewer_iterations_than_the_window():
    # A run's ||f|| history has at most max_iter + 1 entries, so with
    # max_iter < _WINDOW the progress test never runs: the crawling start
    # ends "maxiter".
    short = solver._WINDOW - 1
    for p, _, opts, min_norm, z0 in _max_iter_cases():
        runs, _ = _runs_match_each_start_alone(p, replace(opts, max_iter=short), min_norm, z0)
        assert "slow" not in [run.status for run in runs]
    runs, _ = _runs_match_each_start_alone(
        _crawling_start_problem(), SolverOptions(max_iter=short), min_norm=False)
    assert "slow" not in [run.status for run in runs]
    assert runs[0].status == "maxiter"


@pytest.mark.parametrize(
    "problem, points", [(lambda: example_problem(8), 1), (_two_point_problem, 2)],
    ids=["example", "two-points"],
)
def test_starts_that_reach_one_point_end_as_duplicates(problem, points):
    # Several starts reach each stationary point, and at least half of
    # the runs end "duplicate" there.  The answer is a met run that is
    # no duplicate, and the distinct stationary points are those of the
    # starts run alone, each within the radius of one of theirs.
    p, opts = problem(), SolverOptions()
    n = p.interior_count()
    runs, alones = _runs_match_each_start_alone(p, opts, min_norm=False)
    met = partial(solver._met, p=p, opts=opts)
    assert sum(run.status == "duplicate" for run in runs) >= len(runs) // 2
    res = solve_normal(p, opts)
    winner = min((run for run in runs if met(run)), key=lambda run: run.value(0))
    assert winner.status != "duplicate"
    assert res.y.values[1:-1].tobytes() == winner.z[:n].tobytes()
    assert (res.iterations, res.lam) == (winner.iterations, winner.z[n])
    lone = []
    for alone in filter(met, alones):
        if all(np.max(np.abs(alone.z[:n] - q)) > solver._RADIUS for q in lone):
            lone.append(alone.z[:n])
    assert len(res.stationary_points) == len(lone) == points
    matched = [i for sp in res.stationary_points for i, q in enumerate(lone)
               if np.max(np.abs(sp.values - q)) <= solver._RADIUS]
    assert sorted(matched) == list(range(points))


def test_a_start_within_the_radius_of_a_met_iterate_ends_before_its_step():
    # At z* = (2, 3, -26), the closed form of example_problem(3) and its
    # multiplier, f is exactly zero: start 0 ends "ok" on its first
    # evaluation.  A start within the radius of z* (∞-norm) ends
    # "duplicate" at its first step request, whatever its ||z||₂; one
    # just outside it takes one step first.
    p, opts = example_problem(3), SolverOptions()
    offsets = np.array([[0.0, 0.0, 0.0], [0.9e-6, 0.0, 0.0], [0.0, -0.9e-6, 0.9e-6],
                        [1.1e-6, 0.0, 0.0]])
    runs, _ = _runs_match_each_start_alone(p, opts, False, np.array([2.0, 3.0, -26.0]) + offsets)
    assert [(run.status, run.iterations) for run in runs] == [
        ("ok", 1), ("duplicate", 1), ("duplicate", 1), ("duplicate", 2)]


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_min_norm_steps_match_lstsq(n):
    # Each stack holds a matrix of every rank 0 to n, with singular
    # values spread over six decades from matrix to matrix: each step of
    # the one stacked SVD is lstsq's minimum-norm step, and the zero
    # matrix's step is zero.
    rng = np.random.default_rng(n)
    for _ in range(5):
        stack = []
        for rank in range(n + 1):
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
            s = np.zeros(n)
            s[:rank] = rng.uniform(0.5, 2.0, rank) * 10.0 ** rng.integers(-3, 4)
            stack.append((q1 * s) @ q2.T)
        jac, f = np.array(stack), rng.standard_normal((n + 1, n))
        steps = solver._steps(jac, f, True, np.ones(n + 1, dtype=bool))
        for a, b, step in zip(jac, f, steps):
            want = np.linalg.lstsq(a, -b, rcond=None)[0]
            assert np.linalg.norm(step - want) <= 1e-12 * np.linalg.norm(want)


def _eager_rows(tab, index):
    """Fresh tables of the given rows of a stack, built from the sliced
    columns and factors, so that their value and every gradient are
    computed again on first read (as the runs did, with numpy's
    warnings on the way to inf or NaN silenced)."""
    with np.errstate(all="ignore"):
        sliced = tab.rows(index)
        return SlotTables(*(getattr(sliced, f.name) for f in fields(SlotTables)))


def _assert_same_tables(a, b):
    for name in ("values", *COLUMNS, "j_delta", "j_nabla", "value", "grad_delta", "grad_nabla",
                 "grad"):
        x, y = getattr(a, name), getattr(b, name)
        assert type(x) is type(y)
        assert np.shape(x) == np.shape(y)
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize(
    "problem, undefined_row",
    [
        (lambda: example_problem(6), None),
        (_log_problem, None),
        (_degenerate_abnormal_problem, None),
        (_log_problem, 2),
    ],
    ids=["example", "log", "degenerate", "undefined-row"],
)
def test_product_rows_slice_what_the_stack_computed(problem, undefined_row):
    # Bit for bit the tables whose value and gradients are computed from
    # the sliced columns, for one row, a list of one and lists of
    # several, and for a factor whose gradient is one row for the whole
    # stack.  Each row's Hessian and bracket are those of the tables of
    # its function alone, and a row where log(u) is undefined (u = -1)
    # reads NaN in both, as in its value and gradient.
    p = problem()
    values = p._values(solver._starts(p, SolverOptions(multistart=3, seed=2, spread=0.2)))
    if undefined_row is not None:
        values[undefined_row, 1] = -1.0
    shared = 0
    for functional in (p.objective, p.constraint):
        tab, undefined = row_tables(functional, p.scale.points, values)
        defined = undefined_row is None or functional is p.constraint
        assert list(undefined) == ([] if defined else [undefined_row])
        shared += tab.grad_delta.ndim == 1 or tab.grad_nabla.ndim == 1
        for index in (0, 3, [2], [0, 3], [1, 2, 3], [0, 1, 2, 3]):
            _assert_same_tables(tab.rows(index), _eager_rows(tab, index))
        for i in range(len(values)):
            alone = row_tables(functional, p.scale.points, values[i : i + 1])[0]
            got = (tab.hessian([i]), tab.rows([i]).hessian([0]), tables_bracket(tab.rows(i)))
            want = (alone.hessian([0]), alone.hessian([0]), tables_bracket(alone.rows(0)))
            if i in undefined:
                row = tab.rows(i)
                assert np.isnan(row.value) and np.isnan(row.grad).all()
                assert all(np.isnan(x).all() for x in got + want)
            else:
                assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
    assert shared  # the constraint's constant nabla side


def test_rows_copy_what_the_stack_computed_without_computing_again(monkeypatch):
    # A stack whose value and gradients are computed hands them to its
    # rows: for one row, a list of one and a longer list the slice reads
    # the bits of fresh tables, and reading it computes nothing again.
    # A stack that has computed nothing hands nothing on.
    p = example_problem(6)
    values = p._values(solver._starts(p, SolverOptions(multistart=3, seed=2, spread=0.2)))
    derived = SlotTables._derived.func
    computed = []

    def counting(tab):
        computed.append(tab)
        return derived(tab)

    monkeypatch.setattr(SlotTables._derived, "func", counting)
    for functional in (p.objective, p.constraint):
        tab = row_tables(functional, p.scale.points, values)[0]
        assert "_derived" not in tab.rows(0).__dict__ and computed == []
        assert tab.grad.shape == (len(values), p.scale.points.size - 2)
        assert computed == [tab]
        for index in (2, [1], [0, 2, 3]):
            sliced = tab.rows(index)
            assert sliced.value is not None and sliced.grad is not None
            assert computed == [tab]
            _assert_same_tables(sliced, _eager_rows(tab, index))
            assert len(computed) == 2 and computed[1] is not sliced  # the fresh tables
            del computed[1:]
        computed.clear()


@pytest.mark.parametrize(
    "problem, opts",
    [
        (_log_problem, SolverOptions(multistart=3, seed=5, spread=1.5)),
        (_undefined_objective_problem, SolverOptions(multistart=2)),
        (_huge_power_problem, SolverOptions(spread=1e6)),
    ],
    ids=["log", "undefined-start", "non-finite-residual"],
)
def test_runs_slice_their_products_only_when_read(problem, opts, monkeypatch):
    # A run keeps its last evaluation and row; no tables are sliced to
    # one row during the runs.  Read, a run's tables are the ones sliced
    # eagerly at its end (None where the start was not evaluated), and
    # value(i) is their value, read without slicing.
    sliced = []
    rows = SlotTables.rows

    def counting(tab, index):
        if isinstance(index, int):
            sliced.append(index)
        return rows(tab, index)

    monkeypatch.setattr(SlotTables, "rows", counting)
    p = problem()
    for min_norm in (False, True):
        z0 = solver._starts(p, opts)
        if not min_norm:
            z0 = np.concatenate((z0, np.zeros((len(z0), 1))), axis=1)
        system = (solver._abnormal_system if min_norm else solver._normal_system)(p)
        runs = solver._newton(system, z0, opts)
        assert sliced == []
        for run in runs:
            if run.ev is None:
                assert run.tables is None
                continue
            eager = [_eager_rows(tab, run.row) for tab in run.ev.tables]
            assert [run.value(i) for i in range(len(eager))] == [e.value for e in eager]
            for lazy, want in zip(run.tables, eager):
                _assert_same_tables(lazy, want)
            assert run.tables is run.tables
        sliced.clear()


def test_a_failed_svd_ends_only_its_own_start(monkeypatch):
    # One matrix whose SVD fails fails the round's stacked SVD, which is
    # then made one matrix at a time: that start ends with an error, and
    # every other run is the one it makes when no SVD fails.
    p = _constraint_extremal_problem()
    opts = SolverOptions()
    system, z0 = solver._abnormal_system(p), solver._starts(p, opts)
    unpatched = solver._newton(system, z0, opts)
    svd = np.linalg.svd
    marked = []

    def failing(a, *args, **kwargs):
        if not marked:
            marked.append(a[2].copy())  # the third matrix of the first stack
        if any(np.array_equal(m, marked[0]) for m in a):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    runs = solver._newton(system, z0, opts)
    ended = [i for i, run in enumerate(runs) if run.status.startswith("error")]
    assert len(ended) == 1
    assert runs[ended[0]].status == "error: SVD did not converge"
    assert runs[ended[0]].iterations == 1
    for i, (run, alone) in enumerate(zip(runs, unpatched)):
        if i != ended[0]:
            assert run.z.tobytes() == alone.z.tobytes()
            assert (run.iterations, run.status) == (alone.iterations, alone.status)
    assert find_abnormal(p, opts)


def _max_iter_cases():
    """(system, options, min_norm, z0) of both searches on problems whose
    starts converge, stall, hit a singular Jacobian, overflow or cannot
    be evaluated at all."""
    for problem, opts in (
        (lambda: example_problem(8), SolverOptions(multistart=4)),
        (_log_problem, SolverOptions(multistart=3, seed=5, spread=1.5)),
        (_abnormal_document_problem, SolverOptions(multistart=4)),
        (_undefined_objective_problem, SolverOptions(multistart=4)),
        (_huge_power_problem, SolverOptions(spread=1e6)),
    ):
        p = problem()
        for min_norm in (False, True):
            z0 = solver._starts(p, opts)
            if not min_norm:
                z0 = np.concatenate((z0, np.zeros((len(z0), 1))), axis=1)
            system = (solver._abnormal_system if min_norm else solver._normal_system)(p)
            yield p, system, opts, min_norm, z0


def _start_residual(system, start):
    """The residual at the start, or None where the system is undefined."""
    with np.errstate(all="ignore"):
        ev = solver._evaluate(system, start[None])
    return None if ev.errors else ev.f[0]


def test_max_iter_0_ends_every_start_at_its_own_point():
    # A start whose residual is finite ends "maxiter" after 0 iterations,
    # where it started, with that residual; any other ends in an error.
    for p, system, opts, min_norm, z0 in _max_iter_cases():
        runs, _ = _runs_match_each_start_alone(p, replace(opts, max_iter=0), min_norm, z0)
        for start, run in zip(z0, runs):
            f = _start_residual(system, start)
            assert run.iterations == 0
            assert run.z.tobytes() == start.tobytes()
            if f is not None and np.isfinite(f).all():
                assert run.status == "maxiter"
                assert run.f.tobytes() == f.tobytes()
            else:
                assert run.status.startswith("error: ")


def test_max_iter_1_ends_every_start_after_at_most_one_step():
    # A start that runs out of iterations took its one step: it moved and
    # its residual decreased.
    statuses = set()
    for p, system, opts, min_norm, z0 in _max_iter_cases():
        runs, _ = _runs_match_each_start_alone(p, replace(opts, max_iter=1), min_norm, z0)
        for start, run in zip(z0, runs):
            statuses.add(run.status)
            assert run.iterations <= 1
            if run.status == "maxiter":
                assert run.iterations == 1
                assert run.z.tobytes() != start.tobytes()
                assert np.linalg.norm(run.f) < np.linalg.norm(_start_residual(system, start))
    assert {"maxiter", "ok", "stalled", "singular"} <= statuses


@pytest.mark.parametrize(
    "f0, jac",
    [([1.0], [[1.0]]), ([1.0, 1.0], [[1e-200, 0.0], [0.0, 1e-200]])],
    ids=["huge-trial-residual", "huge-step"],
)
def test_step_search_counts_an_overflowing_norm_as_no_decrease(f0, jac):
    # Away from the start the residual is finite, but its sum of squares
    # overflows: ||f|| is inf there, which is no decrease, so the search
    # rejects every trial and the run stalls at the start, warning of
    # nothing.  In the second system the step's norm overflows too.
    def residual(z, products):
        return np.array([f0 if not x.any() else np.full(x.size, 1e200) for x in z])

    def jacobian(z, products, rows):
        return np.array([jac] * len(z[rows]))

    # No functionals: the problem only sizes the values no table reads.
    system = solver._System((), example_problem(3), False, residual, jacobian)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [run] = solver._newton(system, np.zeros((1, len(f0))), SolverOptions())
    assert run.status == "stalled"
    assert run.iterations == 1
    assert not run.z.any()


def _coefs(draw, count, lo=-0.5, hi=0.5):
    return [repr(draw(st.floats(lo, hi))) for _ in range(count)]


@st.composite
def newton_systems(draw):
    """A random problem and point: a gappy 4-8 point scale, criterion-5
    polynomial integrands or transcendental ones like the CLI
    benchmark documents' (sin, log, sqrt, exp, also in the constraint),
    and interior values (plus lambda) in [-1, 1]."""
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=7))
    scale = TimeScale(np.concatenate(([0.0], np.cumsum(gaps))))
    c = _coefs(draw, 10)
    pos = _coefs(draw, 4, 0.5, 2.0)
    if draw(st.booleans()):
        texts = (
            f"v^2 + {c[0]}*u*v + {c[1]}*u + {c[2]}*t",
            f"v^2 + {c[3]}*u + {c[4]}*v + {pos[0]}",
            f"{c[5]}*t*v + {c[6]}*u + {pos[1]}",
            f"{c[7]}*v + {c[8]}*u + {pos[2]}",
        )
    else:
        texts = (
            f"v^2 + {c[0]}*sin(t + u) + {c[1]}*log(u^2 + {pos[0]})",
            f"v^2 + {c[2]}*sqrt(v^2 + {pos[1]}) + {c[3]}*exp({c[4]}*u) + {pos[2]}",
            f"{c[5]}*t*v + {c[6]}*u*v + {c[7]}*cos(u) + {pos[3]}",
            f"{c[8]}*exp({c[9]}*v) + u^2 + 1",
        )
    objective, constraint = (
        DeltaNablaFunctional(make_lagrangian(d), make_lagrangian(n))
        for d, n in (texts[:2], texts[2:])
    )
    p = IsoperimetricProblem(scale, 0.3, -0.2, objective, constraint, 0.7)
    z = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=len(gaps), max_size=len(gaps))))
    return p, z


@settings(max_examples=60, deadline=None)
@given(newton_systems())
def test_newton_jacobians_match_central_differences(case):
    p, z = case
    for system, at in ((solver._normal_system(p), z), (solver._abnormal_system(p), z[:-1])):
        ev = solver._evaluate(system, at[None])
        f = ev.f[0]
        jac = system.jacobian(ev.z, ev.tables, [0])[0]
        fd = np.empty_like(jac)
        for j in range(at.size):
            h = 1e-6 * (1.0 + abs(at[j]))
            up, dn = at.copy(), at.copy()
            up[j] += h
            dn[j] -= h
            steps = solver._evaluate(system, np.array([up, dn])).f
            fd[:, j] = (steps[0] - steps[1]) / (2 * h)
        assert jac.shape == (f.size, at.size)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * max(1.0, np.max(np.abs(jac)))


@settings(max_examples=40, deadline=None)
@given(newton_systems(), st.integers(0, 2**16), st.booleans())
def test_a_batched_run_is_each_start_run_alone(case, seed, min_norm):
    # Every start of a batch ends where it ends alone, bit for bit: the
    # drawn point and five seeded starts around the interpolant.
    p, z = case
    opts = SolverOptions(multistart=4, seed=seed, max_iter=30)
    starts = solver._starts(p, opts)
    if min_norm:
        z0 = np.vstack([z[:-1], starts])
    else:
        z0 = np.vstack([z, np.concatenate((starts, np.zeros((len(starts), 1))), axis=1)])
    _runs_match_each_start_alone(p, opts, min_norm, z0)


@pytest.mark.parametrize("m, fd_iterations", [(32, 8), (64, 5), (128, 4), (256, 7)])
def test_example_family_needs_no_more_newton_iterations(m, fd_iterations):
    # fd_iterations: what the one start took with a forward-difference
    # Jacobian and full first steps, before the exact Jacobian
    res = solve_normal(example_problem(m), SolverOptions(multistart=0))
    want, _ = closed_form_example(m)
    assert res.converged
    assert np.max(np.abs(res.y.values - want.values)) <= 1e-12
    assert res.iterations <= fd_iterations


def _four_point_problem():
    """A four-point problem of the random_small family whose answer, as
    a start, sits at its rounding level."""
    return IsoperimetricProblem(
        scale=TimeScale(
            np.array([0.4560237075676111, 1.1825602980866927, 2.771236072125544, 2.976069685744335])
        ),
        alpha=-0.854683302703358,
        beta=-0.9642171582060495,
        objective=DeltaNablaFunctional(
            make_lagrangian("v^2 + 0.089961*u*v + 0.196215*u + -0.363457*t"),
            make_lagrangian("v^2 + -0.187404*u + 0.215918*v + 1.401108"),
        ),
        constraint=DeltaNablaFunctional(
            make_lagrangian("-0.158257*t*v + -0.261056*u + 1.375254"),
            make_lagrangian("0.084983*v + -0.023412*u + 0.979305"),
        ),
        k=10.3485233083566,
    )


@pytest.mark.parametrize(
    "problem", [lambda: example_problem(3), _four_point_problem], ids=["example", "random"]
)
def test_at_four_points_acceptance_is_the_absolute_test(problem):
    # There every rounding level is far below stat_tol = 1e-8, so
    # max(stat_tol, rho) is stat_tol: a run of either search that is no
    # duplicate counts, and an answer converges, exactly where the
    # absolute tests say so.
    p = problem()
    opts = SolverOptions()
    n = p.interior_count()
    levels = []
    for min_norm in (False, True):
        runs, alones = _runs_match_each_start_alone(p, opts, min_norm)
        # A duplicate ends before its floor: the levels are the lone runs'.
        levels.extend(alone.level for alone in alones)
        for run in runs + alones:
            absolute = (
                run.status != "duplicate"
                and run.tables is not None
                and np.max(np.abs(run.f[:n])) <= opts.stat_tol
                and abs(run.tables[-1].value - p.k) <= opts.feas_tol
            )
            assert solver._met(run, p, opts) == absolute
    assert 0.0 < max(levels) < 1e-3 * opts.stat_tol
    res = solve_normal(p, opts)
    gap = abs(res.constraint_value.product - p.k)
    assert res.converged
    assert res.el_defect <= opts.stat_tol and gap <= opts.feas_tol


def test_a_start_at_its_answer_ends_at_its_rounding_level(monkeypatch):
    # Started at its own answer, a run is at its rounding level at once:
    # it tries the full and the half step at most twice and ends there,
    # where the step search used to halve alpha through the noise.
    p = _four_point_problem()
    opts = SolverOptions()
    res = solve_normal(p, opts)
    z = np.concatenate((res.y.values[1:-1], [res.lam]))
    evaluated = []
    evaluate = solver._evaluate

    def counting(system, points):
        evaluated.append(len(points))
        return evaluate(system, points)

    monkeypatch.setattr(solver, "_evaluate", counting)
    [run] = solver._newton(solver._normal_system(p), z[None], opts)
    assert run.status == "stalled"
    assert run.iterations <= 2
    assert sum(evaluated) <= 3
    assert np.max(np.abs(run.f)) <= run.level
    assert solver._met(run, p, opts)


def test_rounding_levels_are_formed_wherever_f_can_be_at_them():
    # The level of a row is c·u·||J||∞·||z||∞ wherever ||f||∞ is at or
    # below it; the cheap bound leaves 0.0 only at rows above it.
    rng = np.random.default_rng(3)
    jac = rng.standard_normal((6, 5, 5)) * np.array([1.0, 1e3, 1e-3, 1.0, 1.0, 1.0])[:, None, None]
    z = rng.standard_normal((6, 5))
    rho = solver._LEVEL_C * np.finfo(float).eps * np.abs(z).max(axis=1) * np.abs(jac).sum(axis=2).max(axis=1)
    jac[4, 2, 2] = np.inf
    for ratio in (0.0, 0.5, 1.0, 2.0, 1e3):
        f = rng.standard_normal((6, 5))
        f *= (ratio * rho / np.abs(f).max(axis=1))[:, None]
        f[4] = 1e-300  # a non-finite Jacobian has no level
        f_norms, z_norms = [np.linalg.norm(a) for a in f], [np.linalg.norm(b) for b in z]
        levels = solver._levels(jac, z, f_norms, z_norms, np.abs(jac).max(axis=(1, 2)))
        for i, level in enumerate(levels):
            if i == 4:
                assert level == 0.0
            elif np.abs(f[i]).max() <= rho[i]:
                assert level == rho[i]
            else:
                assert level in (0.0, rho[i])
