"""Tests for the constrained stationary-point solver: symbolic interior
gradients, the exact Newton Jacobians, the damped multistart Newton
iteration, abnormal-candidate search, and the built-in closed-form
family."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltanabla import (
    DeltaNablaFunctional,
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
from deltanabla import functional, solver
from deltanabla.functional import (
    EL2,
    bracket_defect,
    el_residual,
    iso_bracket,
    iso_residual,
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


def test_problem_assemble_and_interior_count():
    p = example_problem(3)
    assert p.interior_count() == 2
    y = p.assemble(np.array([7.0, 9.0]))
    assert np.array_equal(y.values, [0.0, 7.0, 9.0, 3.0])


def test_solver_is_deterministic():
    opts = SolverOptions(seed=123, multistart=6)
    r1 = solve_normal(example_problem(4), opts)
    r2 = solve_normal(example_problem(4), opts)
    assert np.array_equal(r1.y.values, r2.y.values)
    assert r1.lam == r2.lam
    assert r1.iterations == r2.iterations
    assert len(r1.stationary_points) == len(r2.stationary_points)


def test_unsatisfiable_constraint_reports_no_convergence():
    scale = TimeScale(np.arange(4.0))
    p = IsoperimetricProblem(
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
    res = solve_normal(p)
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


def test_no_abnormal_start_runs_to_max_iter(monkeypatch):
    # Square Newton on grad(K) = 0 ends each start of the criterion-5
    # problems, whose constraints have rank-2 Hessians, at a root or a
    # stall: none crawls on toward a nonzero least-squares minimum.
    runs = []
    newton = solver._newton

    def recording(*args, **kwargs):
        runs.append(newton(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(solver, "_newton", recording)
    rng = np.random.default_rng(2024)
    for _ in range(6):
        assert find_abnormal(_random_small_problem(rng)) == []
    assert len(runs) == 6 * 9
    assert [run.status for run in runs if run.status == "maxiter"] == []


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
    # Both searches read their answers from the products each run kept
    # of its final iterate: a converged solve evaluates nothing after
    # its runs, and an abnormal answer evaluates only its objective, once.
    outside = []
    in_run = [False]
    tables = functional.slot_tables_at
    newton = solver._newton

    def counting(fn, points, values):
        if not in_run[0]:
            outside.append(fn)
        return tables(fn, points, values)

    def running(*args, **kwargs):
        in_run[0] = True
        try:
            return newton(*args, **kwargs)
        finally:
            in_run[0] = False

    monkeypatch.setattr(solver, "slot_tables_at", counting)
    monkeypatch.setattr(functional, "slot_tables_at", counting)
    monkeypatch.setattr(solver, "_newton", running)
    assert solve_normal(example_problem(8)).converged
    assert outside == []
    p = _constraint_extremal_problem()
    found = find_abnormal(p)
    assert found
    assert outside == [p.objective] * len(found)


def test_solver_options_thread_through():
    res = solve_normal(example_problem(3), SolverOptions(multistart=0))
    # multistart 0 still runs the base interpolant start
    assert res.converged


def test_non_finite_residual_ends_only_its_own_start():
    scale = TimeScale(np.linspace(0.0, 5.0, 6))
    p = IsoperimetricProblem(
        scale=scale,
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
    res = solve_normal(p, SolverOptions(spread=1e6))  # and warns of nothing
    assert not res.converged
    assert res.classification == "unknown"
    statuses = res.message.split("; ")
    assert len(statuses) == 9
    assert all(s.endswith("error: non-finite residual") for s in statuses[1:])


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
    def system(z):
        f = np.array(f0) if not z.any() else np.full(z.size, 1e200)
        return f, lambda: np.array(jac), ()

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = solver._newton(system, np.zeros(len(f0)), SolverOptions(), False)
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
        f, jacobian, _ = system(at)
        jac = jacobian()
        fd = np.empty_like(jac)
        for j in range(at.size):
            h = 1e-6 * (1.0 + abs(at[j]))
            up, dn = at.copy(), at.copy()
            up[j] += h
            dn[j] -= h
            fd[:, j] = (system(up)[0] - system(dn)[0]) / (2 * h)
        assert jac.shape == (f.size, at.size)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * max(1.0, np.max(np.abs(jac)))


@pytest.mark.parametrize("m, fd_iterations", [(32, 8), (64, 5), (128, 4), (256, 7)])
def test_example_family_needs_no_more_newton_iterations(m, fd_iterations):
    # fd_iterations: what the one start took with a forward-difference
    # Jacobian and full first steps, before the exact Jacobian
    res = solve_normal(example_problem(m), SolverOptions(multistart=0))
    want, _ = closed_form_example(m)
    assert res.converged
    assert np.max(np.abs(res.y.values - want.values)) <= 1e-12
    assert res.iterations <= fd_iterations
