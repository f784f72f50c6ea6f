"""Tests for the constrained stationary-point solver: symbolic interior
gradients, the exact Newton Jacobians, the damped multistart Newton
iteration, abnormal-candidate search, and the built-in closed-form
family."""

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
from deltanabla import solver
from deltanabla.functional import EL2, el_residual, iso_residual
from deltanabla.solver import closed_form_example, example_problem


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


def test_find_abnormal_locates_a_constraint_extremal():
    scale = TimeScale(np.arange(4.0))
    p = IsoperimetricProblem(
        scale=scale,
        alpha=0.0,
        beta=0.0,
        objective=DeltaNablaFunctional(
            make_lagrangian("v^2 + u"), make_lagrangian("v^2")
        ),
        constraint=DeltaNablaFunctional(
            make_lagrangian("v^2"), make_lagrangian("v^2")
        ),
        k=0.0,
    )
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
    scale = TimeScale(np.arange(4.0))
    p = IsoperimetricProblem(
        scale=scale,
        alpha=0.0,
        beta=0.0,
        objective=DeltaNablaFunctional(
            make_lagrangian("v^2 + u"), make_lagrangian("v^2")
        ),
        constraint=DeltaNablaFunctional(
            make_lagrangian("v^2"), make_lagrangian("v^2")
        ),
        k=3.0,
    )
    assert find_abnormal(p) == []


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
        f, jacobian = system(at)
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
