"""Tests for the independent verification layer: finite-difference
and complex-step gradients, black-box stationarity reports, the
end-to-end example certification, and randomized structural-identity
fuzzing."""

import numpy as np
import pytest

from deltanabla import (
    DeltaNablaFunctional,
    EvaluationError,
    GridFunction,
    IsoperimetricProblem,
    TimeScale,
    constant_lagrangian,
    fd_gradient,
    identity_fuzz,
    kkt_check,
    make_lagrangian,
    verify_example,
)
from deltanabla.functional import eval_functional
from deltanabla.solver import (
    closed_form_example,
    discrete_gradient,
    example_problem,
)


@pytest.fixture
def m3():
    return example_problem(3), closed_form_example(3)[0]


def test_fd_gradient_on_the_example(m3):
    p, y = m3

    def objective_map(g):
        return eval_functional(p.objective, g).product

    def constraint_map(g):
        return eval_functional(p.constraint, g).product

    assert np.allclose(fd_gradient(objective_map, y, 1e-6), [26.0, 26.0], atol=1e-4)
    assert np.allclose(fd_gradient(constraint_map, y, 1e-6), [-1.0, -1.0], atol=1e-7)
    assert np.allclose(fd_gradient(lambda g: 3.5, y, 1e-6), [0.0, 0.0])
    with pytest.raises(ValueError):
        fd_gradient(objective_map, y, 0.0)


def test_kkt_check_certifies_the_extremal(m3):
    p, y = m3
    report = kkt_check(p, y, -26.0)
    assert report.residual_inf_norm <= 1e-4
    assert report.feasibility_gap <= 1e-12
    assert report.lambda_fit == pytest.approx(-26.0, abs=1e-4)


def test_kkt_check_flags_a_wrong_multiplier(m3):
    p, y = m3
    report = kkt_check(p, y, 0.0)
    # with lambda 0 the residual is just the objective gradient
    assert report.residual_inf_norm == pytest.approx(26.0, abs=1e-3)


def test_kkt_check_flags_an_infeasible_point(m3):
    p, _ = m3
    bad = GridFunction(p.scale, np.array([0.0, 0.0, 0.0, 3.0]))
    report = kkt_check(p, bad, -26.0)
    # constraint product there is 6 against level 1
    assert report.feasibility_gap == pytest.approx(5.0, abs=1e-9)


def test_lambda_fit_handles_a_flat_constraint(m3):
    p, y = m3
    flat = type(p)(
        scale=p.scale,
        alpha=p.alpha,
        beta=p.beta,
        objective=p.objective,
        constraint=DeltaNablaFunctional(
            constant_lagrangian(1.0), constant_lagrangian(1.0 / 3.0)
        ),
        k=3.0,
    )
    report = kkt_check(flat, y, -26.0)
    # zero constraint gradient: the fit falls back to 0 instead of dividing
    assert np.allclose(report.grad_constraint, 0.0)
    assert report.lambda_fit == 0.0


def test_fd_agrees_with_symbolic_gradient_at_random_points():
    rng = np.random.default_rng(17)
    p = example_problem(4)

    def objective_map(g):
        return eval_functional(p.objective, g).product

    for _ in range(40):
        vals = np.concatenate(([0.0], rng.uniform(-2.0, 2.0, 3), [4.0]))
        y = GridFunction(p.scale, vals)
        fd = fd_gradient(objective_map, y, 1e-6)
        sym = discrete_gradient(p.objective, y)
        scale = max(1.0, float(np.max(np.abs(sym))))
        assert np.max(np.abs(fd - sym)) <= 1e-6 * scale


def _functional(delta, nabla):
    return DeltaNablaFunctional(make_lagrangian(delta), make_lagrangian(nabla))


def _assert_matches_discrete_gradient(p, y):
    report = kkt_check(p, y, 1.0)
    for got, functional in (
        (report.grad_objective, p.objective),
        (report.grad_constraint, p.constraint),
    ):
        want = discrete_gradient(functional, y)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_complex_step_matches_discrete_gradient_on_the_example():
    rng = np.random.default_rng(17)
    p = example_problem(4)
    for _ in range(40):
        vals = np.concatenate(([0.0], rng.uniform(-2.0, 2.0, 3), [4.0]))
        _assert_matches_discrete_gradient(p, GridFunction(p.scale, vals))


def test_complex_step_matches_discrete_gradient_through_every_node():
    # all five functions, division, a negative power, negation, and an
    # odd power past 100 of a negative base
    p = IsoperimetricProblem(
        scale=TimeScale(np.array([0.0, 0.2, 0.45, 0.5, 0.8, 1.0])),
        alpha=1.0,
        beta=2.0,
        objective=_functional(
            "sin(u)*exp(-v^2/4) + log(u)/(1 + t)", "sqrt(1 + v^2) + cos(t*u) - u^-2"
        ),
        constraint=_functional("exp(t)*v + ((u - 3)/2)^101", "log(1 + u^2)"),
        k=1.0,
    )
    rng = np.random.default_rng(5)
    for _ in range(20):
        vals = np.concatenate(([1.0], rng.uniform(1.0, 2.0, 4), [2.0]))
        _assert_matches_discrete_gradient(p, GridFunction(p.scale, vals))


def test_complex_step_spans_several_chunks():
    # 127 interior points of 128 slots each: the stack is walked in
    # several chunks, the last one shorter than the others
    p = example_problem(128)
    y, _ = closed_form_example(128)
    rng = np.random.default_rng(3)
    bumped = y.values + np.concatenate(([0.0], rng.uniform(-1.0, 1.0, 127), [0.0]))
    for vals in (y.values, bumped):
        _assert_matches_discrete_gradient(p, GridFunction(p.scale, vals))


def test_kkt_check_outside_the_domain_is_an_evaluation_error():
    p = IsoperimetricProblem(
        scale=TimeScale(np.array([0.0, 1.0, 2.0, 3.0])),
        alpha=1.0,
        beta=1.0,
        objective=_functional("log(u)", "v^2"),
        constraint=_functional("v^2", "v^2"),
        k=1.0,
    )
    y = GridFunction(p.scale, np.array([1.0, -0.5, 2.0, 1.0]))
    with pytest.raises(EvaluationError, match="log"):
        kkt_check(p, y, 1.0)


@pytest.mark.parametrize("m", [2, 3, 5, 32, 48, 128, 256])
def test_verify_example_passes(m):
    report = verify_example(m)
    assert report.passed
    assert report.m == m
    assert len(report.checks) == 6
    assert all(c.passed for c in report.checks)
    names = [c.name for c in report.checks]
    assert "constraint level" in names
    assert any("EL1" in n for n in names) and any("EL2" in n for n in names)
    want_lam = closed_form_example(m)[1].lam
    assert report.lambda_fit == pytest.approx(want_lam, abs=1e-4 * max(1.0, abs(want_lam)))


def test_verify_example_kkt_line_holds_at_m_1024():
    report = verify_example(1024)
    kkt = next(c for c in report.checks if c.name.startswith("kkt residual"))
    assert kkt.passed


def test_verify_example_rejects_tiny_m():
    with pytest.raises(ValueError):
        verify_example(1)


def test_identity_fuzz_clean_run():
    report = identity_fuzz(seed=0, count=100)
    assert report.passed
    assert report.failures == ()
    assert report.identities == 8
    assert report.count == 100
    assert report.max_rel_error <= 1e-12


@pytest.mark.parametrize("count", [0, -3])
def test_identity_fuzz_rejects_a_count_below_one(count):
    with pytest.raises(ValueError, match="count >= 1"):
        identity_fuzz(count=count)


def test_identity_fuzz_is_deterministic():
    a = identity_fuzz(seed=42, count=30)
    b = identity_fuzz(seed=42, count=30)
    assert a.max_rel_error == b.max_rel_error
    c = identity_fuzz(seed=43, count=30)
    assert c.passed
