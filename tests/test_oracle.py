"""Tests for the independent verification layer: finite-difference
and complex-step gradients, black-box stationarity reports, the
end-to-end example certification, and randomized structural-identity
fuzzing."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from deltanabla import (
    DeltaNablaFunctional,
    EvaluationError,
    GridFunction,
    IsoperimetricProblem,
    Lagrangian,
    TimeScale,
    constant_lagrangian,
    evaluate,
    fd_gradient,
    identity_fuzz,
    kkt_check,
    make_lagrangian,
    verify_example,
)
from deltanabla import oracle
from deltanabla.expressions import FUNCTIONS, Add, Call, Const, Div, Mul, Neg, Pow, Sub, Var
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


# All five functions, division, a negative power, negation, and an odd
# power past 100 of a negative base; defined for u in [1, 2].
_EVERY_NODE = (
    "sin(u)*exp(-v^2/4) + log(u)/(1 + t)",
    "sqrt(1 + v^2) + cos(t*u) - u^-2",
    "exp(t)*v + ((u - 3)/2)^101",
    "log(1 + u^2)",
)


def _every_node_problem():
    return IsoperimetricProblem(
        scale=TimeScale(np.array([0.0, 0.2, 0.45, 0.5, 0.8, 1.0])),
        alpha=1.0,
        beta=2.0,
        objective=_functional(*_EVERY_NODE[:2]),
        constraint=_functional(*_EVERY_NODE[2:]),
        k=1.0,
    )


def test_complex_step_matches_discrete_gradient_through_every_node():
    p = _every_node_problem()
    rng = np.random.default_rng(5)
    for _ in range(20):
        vals = np.concatenate(([1.0], rng.uniform(1.0, 2.0, 4), [2.0]))
        _assert_matches_discrete_gradient(p, GridFunction(p.scale, vals))


def test_complex_step_matches_discrete_gradient_at_m_128():
    # 127 interior points: the walk covers 254 slots, two per interior
    # value, at the closed-form extremal and at a visibly bumped point
    p = example_problem(128)
    y, _ = closed_form_example(128)
    rng = np.random.default_rng(3)
    bumped = y.values + np.concatenate(([0.0], rng.uniform(-1.0, 1.0, 127), [0.0]))
    for vals in (y.values, bumped):
        _assert_matches_discrete_gradient(p, GridFunction(p.scale, vals))


def _full_stack_gradient(functional, y):
    """The complex step as one walk of each value tree over the whole
    (N - 2, N - 1) stack of y + i*h*e_j, entry j the imaginary part of
    row j's product over h: the reference the two-gap walk replaces.
    Also the size of each entry's terms, the same sum in absolute values,
    which bounds its rounding where the terms cancel."""
    t, v = y.scale.points, y.values
    dt = t[1:] - t[:-1]
    interior = np.arange(1, v.size - 1)
    stack = np.tile(v.astype(complex), (interior.size, 1))
    stack.imag[np.arange(interior.size), interior] = 1e-30
    with np.errstate(all="ignore"):
        quot = (stack[:, 1:] - stack[:, :-1]) / dt
        delta = dt * oracle._complex_walk(
            functional.l_delta.value, {"t": t[:-1], "u": stack[:, 1:], "v": quot}
        )
        nabla = dt * oracle._complex_walk(
            functional.l_nabla.value, {"t": t[1:], "u": stack[:, :-1], "v": quot}
        )
        j_delta, j_nabla = np.sum(delta, axis=-1), np.sum(nabla, axis=-1)
        size = np.abs(j_nabla.real) * np.sum(np.abs(delta.imag), axis=-1)
        size += np.abs(j_delta.real) * np.sum(np.abs(nabla.imag), axis=-1)
    return (np.broadcast_to(x / 1e-30, interior.shape) for x in ((j_delta * j_nabla).imag, size))


def _assert_matches_full_stack(report, p, y):
    for got, functional in (
        (report.grad_objective, p.objective),
        (report.grad_constraint, p.constraint),
    ):
        want, size = _full_stack_gradient(functional, y)
        assert got.shape == want.shape
        # Agreement to 1e-14 of the largest entry's terms: where an
        # entry's terms cancel (a v side across the two gaps of a flat
        # y), it is 0 up to their rounding.  The stack's real parts carry
        # the step's h^2, ~1e-60 where the exact gradient is 0 (2.7e-54
        # in _flat_case), below the absolute floor of 1e-40.
        assert np.max(np.abs(got - want)) <= max(1e-14 * np.max(size), 1e-40)


# Integrands for the differential test: the every-node ones, the
# example's, sides that are constant and sides that read t only.
_SIDES = (
    *(make_lagrangian(source) for source in _EVERY_NODE),
    make_lagrangian("v^2"),
    make_lagrangian("v^2 + v"),
    make_lagrangian("t*v"),
    make_lagrangian("2.5"),
    constant_lagrangian(-0.75),
    make_lagrangian("t^2 + sin(t)"),
    make_lagrangian("exp(-t)"),
)


@st.composite
def _gappy_cases(draw):
    gaps = draw(st.lists(st.sampled_from([1e-3, 0.05, 0.3, 1.0, 4.0]), min_size=2, max_size=12))
    points = np.cumsum([0.0, *gaps])
    values = draw(st.lists(st.floats(1.0, 2.0), min_size=points.size, max_size=points.size))
    delta, nabla, c_delta, c_nabla = (draw(st.sampled_from(_SIDES)) for _ in range(4))
    p = IsoperimetricProblem(
        scale=TimeScale(points),
        alpha=values[0],
        beta=values[-1],
        objective=DeltaNablaFunctional(delta, nabla),
        constraint=DeltaNablaFunctional(c_delta, c_nabla),
        k=1.0,
    )
    return p, GridFunction(p.scale, np.array(values))


_EVERY_NODE_Y = np.array([1.0, 1.3, 1.9, 1.2, 1.6, 2.0])


def _flat_case():
    """A constant y, where the exact constraint gradient is -0: the
    two-gap walk gives -0.0, and the full stack's h^2 terms 2.7e-54."""
    p = IsoperimetricProblem(
        scale=TimeScale(np.array([0.0, 4.0, 4.001, 8.001])),
        alpha=1.0,
        beta=1.0,
        objective=_functional("v^2", "v^2"),
        constraint=_functional("v^2", _EVERY_NODE[2]),
        k=1.0,
    )
    return p, GridFunction(p.scale, np.ones(4))


@settings(max_examples=300, deadline=None)
@given(_gappy_cases())
@example((_every_node_problem(), GridFunction(_every_node_problem().scale, _EVERY_NODE_Y)))
@example(_flat_case())
def test_kkt_check_matches_the_full_stack_walk(case):
    p, y = case
    _assert_matches_full_stack(kkt_check(p, y, 0.5), p, y)


def test_complex_step_walks_only_the_slots_each_value_enters(monkeypatch):
    # y_j enters gaps j - 1 and j, so no array of the walk, slot or
    # node, holds more than 2(N - 2) entries
    sizes = []
    walk = oracle._complex_walk

    def spy(e, slots):
        out = walk(e, slots)
        sizes.extend(np.size(x) for x in (*slots.values(), out))
        return out

    monkeypatch.setattr(oracle, "_complex_walk", spy)
    problems = [example_problem(m) for m in (2, 3, 8, 128)]
    problems.append(_every_node_problem())
    for p in problems:
        sizes.clear()
        y = GridFunction(p.scale, np.linspace(1.0, 2.0, len(p.scale)))
        kkt_check(p, y, 0.5)
        assert max(sizes) == 2 * (len(p.scale) - 2)


class _Tripwire(Const):
    """A derivative tree that fails any walk reaching it."""

    def __init__(self):
        pass  # nothing to store: value is the property below

    @property
    def value(self):
        raise AssertionError("a derivative tree was walked")


def test_kkt_check_reads_only_the_value_trees(monkeypatch):
    from deltanabla import expressions, functional

    p = _every_node_problem()
    y = GridFunction(p.scale, _EVERY_NODE_Y)
    want = kkt_check(p, y, 0.5)

    def forbidden(*args, **kwargs):
        raise AssertionError("the fast path was used")

    monkeypatch.setattr(functional.DeltaNablaFunctional, "_kernel", property(forbidden))
    monkeypatch.setattr(expressions, "compile_kernel", forbidden)
    monkeypatch.setattr(expressions, "_power", forbidden)  # the oracle has its own power
    for name in ("slot_tables", "system_tables", "SlotTables", "eval_functional",
                 "compile_kernel"):
        monkeypatch.setattr(functional, name, forbidden)

    def values_only(f):
        trip = _Tripwire()
        return DeltaNablaFunctional(
            *(dataclasses.replace(side, d_u=trip, d_v=trip) for side in (f.l_delta, f.l_nabla))
        )

    blind = dataclasses.replace(
        p, objective=values_only(p.objective), constraint=values_only(p.constraint)
    )
    got = kkt_check(blind, y, 0.5)
    assert np.array_equal(got.grad_objective, want.grad_objective)
    assert np.array_equal(got.grad_constraint, want.grad_constraint)
    assert (got.lambda_fit, got.residual_inf_norm, got.feasibility_gap) == (
        want.lambda_fit,
        want.residual_inf_norm,
        want.feasibility_gap,
    )


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


def test_kkt_check_at_overflowing_gaps_is_not_finite_without_warnings(m3):
    # The gap difference 1.7e308 - (-1.7e308) overflows in the real walk
    # that decides the domain; pyproject's filterwarnings setting turns a
    # numpy warning there into an error.  Both gradients read NaN, and so
    # does the fitted multiplier, not the 0.0 of a flat constraint.
    p, _ = m3
    y = GridFunction(p.scale, np.array([0.0, 1.7e308, -1.7e308, 3.0]))
    report = kkt_check(p, y, 1.0)
    assert np.isnan(report.residual_inf_norm)
    assert np.isnan(report.feasibility_gap)
    assert np.isnan(report.grad_constraint).all()
    assert np.isnan(report.lambda_fit)


def _one_sided(delta):
    """Objective delta on three unit gaps; every other side is v^2."""
    return IsoperimetricProblem(
        scale=TimeScale(np.arange(4.0)),
        alpha=0.0,
        beta=0.0,
        objective=DeltaNablaFunctional(delta, make_lagrangian("v^2")),
        constraint=_functional("v^2", "v^2"),
        k=1.0,
    )


@pytest.mark.parametrize(
    "text, u, match",
    [
        ("exp(u)", 800.0, "exp"),  # numpy's exp overflows to inf, math.exp raises
        ("u^-2", 0.0, r"u\^-2"),  # 0 to a negative power: numpy inf, Python raises
    ],
)
def test_kkt_check_raises_where_evaluate_does(text, u, match):
    p = _one_sided(make_lagrangian(text))
    y = GridFunction(p.scale, np.array([0.0, u, 1.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match=match):
            kkt_check(p, y, 1.0)


def test_kkt_check_at_an_overflowing_factor_is_not_finite():
    # Three terms of 1e308: math.fsum raises OverflowError, and the
    # factor reads inf, as a plain sum does.
    p = dataclasses.replace(
        _one_sided(make_lagrangian("v^2")),
        constraint=DeltaNablaFunctional(constant_lagrangian(1e308), constant_lagrangian(1.0)),
    )
    y = GridFunction(p.scale, np.array([0.0, 1.0, 2.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = kkt_check(p, y, 1.0)
    assert report.feasibility_gap == np.inf


# Trees whose domain-checked operands (divisors, powers' bases, function
# arguments) are built from + - * /, negation, variables and constants,
# which the oracle's walk and expressions.evaluate round alike.
_DOMAIN_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 1e300, -1e-300, np.inf]
_rational = st.recursive(
    st.one_of(
        st.builds(Const, st.one_of(st.sampled_from(_DOMAIN_VALUES), st.floats(-4.0, 4.0))),
        st.sampled_from([Var("t"), Var("u"), Var("v")]),
    ),
    lambda c: st.one_of(
        st.builds(Neg, c), *(st.builds(op, c, c) for op in (Add, Sub, Mul, Div))
    ),
    max_leaves=5,
)
_domain_trees = st.recursive(
    st.one_of(
        _rational,
        st.builds(Pow, _rational, st.integers(-3, 3)),
        st.builds(Call, st.sampled_from(FUNCTIONS), _rational),
    ),
    lambda c: st.one_of(
        st.builds(Neg, c),
        *(st.builds(op, c, c) for op in (Add, Sub, Mul)),
        st.builds(Div, c, _rational),
    ),
    max_leaves=4,
)


def _evaluate_rejects(tree, p, y):
    """Whether expressions.evaluate raises at any delta or nabla slot of y."""
    t, v = p.scale.points, y.values
    with np.errstate(all="ignore"):
        quot = (v[1:] - v[:-1]) / (t[1:] - t[:-1])
    slots = [(t[i], v[i + 1], quot[i]) for i in range(quot.size)]
    slots += [(t[i + 1], v[i], quot[i]) for i in range(quot.size)]
    for point in slots:
        try:
            evaluate(tree, *map(float, point))
        except EvaluationError:
            return True
    return False


_DOMAIN_GRID = [(0.0, 1.0), (1.0, 1e300), (0.5, -1.0), (3.0, 0.0)]


@settings(max_examples=300, deadline=None)
@given(
    _domain_trees,
    st.lists(
        st.tuples(
            st.sampled_from([0.25, 0.5, 1.0, 3.0]),
            st.one_of(st.sampled_from(_DOMAIN_VALUES[:-1]), st.floats(-4.0, 4.0)),
        ),
        min_size=3,
        max_size=6,
    ),
)
@example(Call("sin", Mul(Var("u"), Var("u"))), _DOMAIN_GRID)  # sin(inf)
@example(Call("cos", Mul(Var("u"), Var("u"))), _DOMAIN_GRID)
# A constant base whose square underflows to 0.0: inf, not a ZeroDivisionError.
@example(Pow(Const(-1e-300), -2), _DOMAIN_GRID)
def test_kkt_check_rejects_exactly_where_evaluate_does(tree, grid):
    points = np.cumsum([gap for gap, _ in grid]) - grid[0][0]
    values = [value for _, value in grid]
    lag = Lagrangian(tree, Const(0.0), Const(0.0))  # the oracle reads the value only
    p = IsoperimetricProblem(
        scale=TimeScale(points),
        alpha=values[0],
        beta=values[-1],
        objective=DeltaNablaFunctional(lag, lag),
        constraint=_functional("v^2", "v^2"),
        k=1.0,
    )
    y = GridFunction(p.scale, np.array(values))
    want = _evaluate_rejects(tree, p, y)
    try:
        kkt_check(p, y, 1.0)
        got = False
    except EvaluationError:
        got = True
    event(f"rejected {want}")
    assert got == want


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


def test_verify_example_reads_no_closed_form_meta(monkeypatch):
    # The meta block's multiplier comes from two discrete_gradient
    # passes; verify_example reads only the oracle's fitted one, so it
    # builds the extremal alone and makes no such pass.
    from deltanabla import solver

    def forbidden(*args):
        raise AssertionError("discrete_gradient called")

    monkeypatch.setattr(solver, "discrete_gradient", forbidden)
    with pytest.raises(AssertionError):
        closed_form_example(8)
    report = verify_example(8)
    assert report.passed


def test_verify_example_kkt_line_holds_at_m_1024():
    report = verify_example(1024)
    kkt = next(c for c in report.checks if c.name.startswith("kkt residual"))
    assert kkt.passed


@pytest.mark.parametrize("m", [1024, 2048, 4096])
def test_verify_example_constraint_level_holds_beyond_m_1024(m):
    # The factors are correctly rounded sums, so the gap stays below the
    # bound where a left-to-right sum reads 1.84e-10 (m = 1024).  The
    # bracket lines still exceed their absolute 1e-9.
    lines = {c.name: c for c in verify_example(m).checks}
    assert lines["constraint level"].passed
    assert lines["constraint level"].bound == 1e-10
    for form in ("EL1", "EL2"):
        line = lines[f"bracket defect {form}"]
        assert not line.passed and line.bound == 1e-9


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
