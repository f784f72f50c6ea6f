"""Tests for the product-form functional: evaluation breakdown, the two
stationarity residual forms, combined multiplier residuals, and the
degenerate reductions to single-integral problems."""

import warnings

import numpy as np
import pytest

from deltanabla import (
    EL1,
    EL2,
    DeltaNablaFunctional,
    EvaluationError,
    GridFunction,
    TimeScale,
    constant_lagrangian,
    el_residual,
    eval_functional,
    evaluate,
    is_extremal_for_K,
    iso_residual,
    make_lagrangian,
)
from deltanabla import functional
from deltanabla.solver import closed_form_example, discrete_gradient, example_problem


@pytest.fixture
def m3():
    p = example_problem(3)
    y, meta = closed_form_example(3)
    return p, y, meta


def test_breakdown_on_m3_extremal(m3):
    p, y, _ = m3
    assert np.array_equal(y.values, [0.0, 2.0, 3.0, 3.0])
    out = eval_functional(p.objective, y)
    assert out.delta_factor == 5.0
    assert out.nabla_factor == 8.0
    assert out.product == 40.0
    con = eval_functional(p.constraint, y)
    assert con.delta_factor == 1.0
    assert con.nabla_factor == 1.0
    assert con.product == 1.0


def test_breakdown_linear_velocity():
    scale = TimeScale(np.arange(4.0))
    y = GridFunction.sample(scale, lambda t: t)
    F = DeltaNablaFunctional(make_lagrangian("v"), make_lagrangian("v"))
    out = eval_functional(F, y)
    assert out.delta_factor == 3.0
    assert out.nabla_factor == 3.0
    assert out.product == 9.0


def test_breakdown_constant_integrand():
    scale = TimeScale(np.arange(4.0))
    y = GridFunction(scale, np.zeros(4))
    F = DeltaNablaFunctional(constant_lagrangian(0.5), constant_lagrangian(0.5))
    out = eval_functional(F, y)
    assert out.delta_factor == 1.5
    assert out.nabla_factor == 1.5
    assert out.product == 2.25


def test_breakdown_scales_linearly_in_each_factor(m3):
    p, y, _ = m3
    base = eval_functional(p.objective, y)
    tripled = DeltaNablaFunctional(
        make_lagrangian("3*v^2"), p.objective.l_nabla
    )
    out = eval_functional(tripled, y)
    assert out.delta_factor == pytest.approx(3.0 * base.delta_factor, rel=1e-15)
    assert out.nabla_factor == base.nabla_factor
    assert out.product == pytest.approx(3.0 * base.product, rel=1e-15)


def test_a_negative_power_of_zero_is_undefined_as_for_python_floats():
    # v = 0 on the first gap: 0.0 ** -2 raises for Python floats, as
    # `deltanabla eval "v^-2" --at 0,0,0` does, where numpy scalars give
    # inf with a warning.  The kernel follows the Python rule.
    f = DeltaNablaFunctional(make_lagrangian("v^-2"), make_lagrangian("v^2"))
    y = GridFunction(TimeScale(np.array([0.0, 1.0, 2.0])), np.array([1.0, 1.0, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="cannot raise 0.0 to -2"):
            eval_functional(f, y)


def test_el_residual_forms_on_m3(m3):
    p, y, _ = m3
    r2 = el_residual(p.objective, y, EL2)
    assert np.array_equal(r2.residual.scale.points, [0.0, 1.0, 2.0])
    assert np.array_equal(r2.residual.values, [57.0, 31.0, 5.0])
    assert r2.defect == 52.0
    assert r2.constant_estimate == pytest.approx(31.0)
    assert r2.form == EL2
    r1 = el_residual(p.objective, y, EL1)
    assert np.array_equal(r1.residual.scale.points, [1.0, 2.0, 3.0])
    assert np.array_equal(r1.residual.values, [57.0, 31.0, 5.0])


def test_el_forms_agree_under_the_point_shift():
    # the two forms read the same slot bracket at shifted points, so
    # their value arrays coincide entry by entry
    rng = np.random.default_rng(5)
    F = DeltaNablaFunctional(
        make_lagrangian("v^2 + u*t"), make_lagrangian("v^2 - 0.5*u + 1")
    )
    for _ in range(20):
        size = int(rng.integers(3, 12))
        pts = np.sort(rng.uniform(0.0, 2.0, size))
        if np.any(np.diff(pts) <= 0.0):
            continue
        scale = TimeScale(pts)
        y = GridFunction(scale, rng.uniform(-1.0, 1.0, size))
        r1 = el_residual(F, y, EL1)
        r2 = el_residual(F, y, EL2)
        assert np.array_equal(r1.residual.values, r2.residual.values)
        assert r1.defect == r2.defect


def test_el_residual_needs_an_interior_point():
    scale = TimeScale(np.array([0.0, 1.0]))
    y = GridFunction(scale, np.array([0.0, 1.0]))
    F = DeltaNablaFunctional(make_lagrangian("v^2"), make_lagrangian("v^2"))
    with pytest.raises(ValueError):
        el_residual(F, y, EL2)
    with pytest.raises(ValueError, match="^residual evaluation needs at least 3 points$"):
        iso_residual(F, F, y, 1.0, 1.0, EL2)
    for tol in (0.0, -1.0):
        with pytest.raises(ValueError, match="^tolerance must be positive$"):
            is_extremal_for_K(F, y, tol)
    with pytest.raises(ValueError, match="^residual evaluation needs at least 3 points$"):
        is_extremal_for_K(F, y)


def test_el_residual_names_an_unknown_form(m3):
    p, y, _ = m3
    with pytest.raises(ValueError, match="^unknown residual form 'EL3'$"):
        el_residual(p.objective, y, "EL3")


def test_an_overflowing_bracket_is_an_evaluation_error_naming_form_and_point():
    # A bracket that overflows is a numerical failure, an EvaluationError
    # (exit 2 from the CLI) that names the form and its first non-finite
    # point, not the ValueError (an input error) of a residual grid
    # function with non-finite values.  |y| = 1e200 overflows both
    # factors of v^2 and so every entry; d_v = -1/v^2 of 1/v overflows
    # only in the middle gap, whose difference quotient is about 1e-160.
    scale = TimeScale(np.arange(4.0))
    square = DeltaNablaFunctional(make_lagrangian("v^2"), make_lagrangian("v^2"))
    y = GridFunction(scale, np.array([0.0, 1e200, -1e200, 1.0]))
    K = DeltaNablaFunctional(make_lagrangian("t*v"), make_lagrangian("1"))
    for call, message in [
        (lambda: el_residual(square, y, EL2), "EL2 residual is inf at t=0.0"),
        (lambda: el_residual(square, y, EL1), "EL1 residual is inf at t=1.0"),
        (lambda: iso_residual(square, K, y, 1.0, 1.0, EL2), "EL2 residual is inf at t=0.0"),
        (lambda: is_extremal_for_K(square, y), "EL1 residual is inf at t=1.0"),
    ]:
        with pytest.raises(EvaluationError) as info:
            call()
        assert str(info.value) == message
    inverse = DeltaNablaFunctional(make_lagrangian("1/v"), make_lagrangian("1"))
    y = GridFunction(scale, np.array([1e-150, 2e-150, 2e-150 + 1e-160, 1.0]))
    for form, message in [(EL1, "EL1 residual is -inf at t=2.0"),
                          (EL2, "EL2 residual is -inf at t=1.0")]:
        with pytest.raises(EvaluationError) as info:
            el_residual(inverse, y, form)
        assert str(info.value) == message


def test_overflowing_brackets_raise_without_numpy_warnings():
    # pyproject's filterwarnings setting turns every RuntimeWarning into
    # an error, so each call below would fail with the warning instead of
    # the EvaluationError: the gap difference 1.7e308 - (-1.7e308) and the
    # squares in the kernel; 0 * inf when the objective's
    # overflowed bracket is weighted by lambda0 = 0; the prefix sums and
    # factor products of 1e308*u.
    scale = TimeScale(np.arange(4.0))
    square = DeltaNablaFunctional(make_lagrangian("v^2"), make_lagrangian("v^2"))
    K = DeltaNablaFunctional(make_lagrangian("t*v"), make_lagrangian("1"))
    huge = GridFunction(scale, np.array([0.0, 1.7e308, -1.7e308, 1.0]))
    large = GridFunction(scale, np.array([0.0, 1e200, -1e200, 1.0]))
    F = DeltaNablaFunctional(make_lagrangian("1e308*u"), make_lagrangian("1"))
    ramp = GridFunction(TimeScale(np.arange(5.0)), np.arange(5.0))
    for call, message in [
        (lambda: el_residual(square, huge, EL1), "EL1 residual is inf at t=1.0"),
        (lambda: iso_residual(square, K, large, 0.0, 1.0, EL1), "EL1 residual is nan at t=1.0"),
        (lambda: el_residual(F, ramp, EL1), "EL1 residual is nan at t=1.0"),
    ]:
        with pytest.raises(EvaluationError) as info:
            call()
        assert str(info.value) == message
    out = eval_functional(K, huge)
    assert np.isnan(out.delta_factor) and out.nabla_factor == 3.0


def test_functional_and_gradient_overflow_silently(m3):
    # The example at a point whose gaps overflow: the same numbers as
    # with numpy's warnings on, and no warning.
    p, _, _ = m3
    y = GridFunction(p.scale, np.array([0.0, 1.7e308, -1.7e308, 3.0]))
    out = eval_functional(p.objective, y)
    assert out.delta_factor == np.inf
    assert np.isnan(out.nabla_factor) and np.isnan(out.product)
    assert np.isnan(discrete_gradient(p.objective, y)).all()
    assert np.isnan(discrete_gradient(p.constraint, y)).all()


@pytest.mark.parametrize("point", [[0.0, 2.0, 3.0, 3.0], [0.0, -0.7, 1.3e154, 3.0]],
                         ids=["extremal", "overflow"])
def test_eval_functional_computes_no_gradient(m3, monkeypatch, point):
    # The tables behind eval_functional give the factors and their
    # product without the gradients a read of their value computes, and
    # the product is the value's bits, also where a factor overflows.
    p, _, _ = m3
    made = []
    row_tables = functional.row_tables

    def keeping(*args, **kwargs):
        made.append(row_tables(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(functional, "row_tables", keeping)
    for f in (p.objective, p.constraint):
        out = eval_functional(f, GridFunction(p.scale, np.array(point)))
        [(tab, errors)] = made
        assert errors == {}
        assert "_derived" not in tab.__dict__
        assert np.array(out.product).tobytes() == np.array(tab.value).tobytes()
        made.clear()


@pytest.mark.parametrize("lambda0, lam, name", [
    (np.nan, 1.0, "lambda0"), (np.inf, 1.0, "lambda0"),
    (1.0, np.inf, "lambda"), (1.0, -np.inf, "lambda"), (0.0, np.nan, "lambda"),
])
def test_non_finite_multipliers_are_value_errors_naming_the_multiplier(m3, lambda0, lam, name):
    # An input error (CLI exit 1), not a NaN residual (a numerical error).
    p, y, _ = m3
    with pytest.raises(ValueError, match=f"^multiplier {name} must be finite, got "):
        iso_residual(p.objective, p.constraint, y, lambda0, lam, EL2)


def test_iso_residual_constant_at_the_extremal(m3):
    p, y, meta = m3
    assert meta.lam == -26.0
    r = iso_residual(p.objective, p.constraint, y, 1.0, meta.lam, EL2)
    assert np.allclose(r.residual.values, 57.0, atol=1e-12)
    assert r.defect <= 1e-12
    assert r.constant_estimate == pytest.approx(57.0)
    r1 = iso_residual(p.objective, p.constraint, y, 1.0, meta.lam, EL1)
    assert r1.defect <= 1e-12


def test_iso_residual_with_zero_lambda_matches_raw(m3):
    p, y, _ = m3
    raw = el_residual(p.objective, y, EL2)
    iso = iso_residual(p.objective, p.constraint, y, 1.0, 0.0, EL2)
    assert np.array_equal(iso.residual.values, raw.residual.values)


def test_iso_residual_abnormal_pair_isolates_the_constraint(m3):
    p, y, _ = m3
    r = iso_residual(p.objective, p.constraint, y, 0.0, 1.0, EL2)
    # the constraint bracket is t on this scale, so (0, 1) flips the sign
    assert np.array_equal(r.residual.values, [0.0, -1.0, -2.0])
    assert r.defect == 2.0


def test_iso_residual_rejects_the_zero_multiplier_pair(m3):
    p, y, _ = m3
    with pytest.raises(ValueError):
        iso_residual(p.objective, p.constraint, y, 0.0, 0.0, EL2)


def test_extremal_check_for_constraint(m3):
    p, y, _ = m3
    check = is_extremal_for_K(p.constraint, y)
    assert not check.is_extremal
    assert check.el2.defect == 2.0  # m - 1
    assert check.el1.form == EL1 and check.el2.form == EL2


def test_extremal_check_degenerate_constraints():
    scale = TimeScale(np.arange(4.0))
    y = GridFunction(scale, np.array([0.0, 0.3, -0.2, 1.0]))
    # d/dv of v is 1, state-free: bracket is constant for every y
    K = DeltaNablaFunctional(make_lagrangian("v"), constant_lagrangian(1.0 / 3.0))
    assert is_extremal_for_K(K, y).is_extremal
    # constants have identically zero brackets
    K0 = DeltaNablaFunctional(constant_lagrangian(2.0), constant_lagrangian(0.5))
    assert is_extremal_for_K(K0, y).is_extremal


def _delta_only_bracket(L, y):
    # classical forward-difference stationarity bracket, written from
    # scratch: dL/dv at each slot minus the running sum of dL/du * mu
    t = y.scale.points
    w = np.diff(t)
    q = np.diff(y.values) / w
    du = np.array([evaluate(L.d_u, t[i], y.values[i + 1], q[i]) for i in range(len(w))])
    dv = np.array([evaluate(L.d_v, t[i], y.values[i + 1], q[i]) for i in range(len(w))])
    prefix = np.concatenate(([0.0], np.cumsum(du * w)))
    return dv - prefix[:-1]


def test_reduction_to_pure_delta_problem():
    rng = np.random.default_rng(9)
    L = make_lagrangian("v^2 + 0.5*u*t - u^2")
    for _ in range(10):
        size = int(rng.integers(4, 10))
        pts = np.sort(rng.uniform(0.0, 3.0, size))
        if np.any(np.diff(pts) <= 0.0):
            continue
        scale = TimeScale(pts)
        span = scale.b - scale.a
        y = GridFunction(scale, rng.uniform(-1.0, 1.0, size))
        # unit nabla factor: the product collapses to the delta integral
        F = DeltaNablaFunctional(L, constant_lagrangian(1.0 / span))
        out = eval_functional(F, y)
        assert out.nabla_factor == pytest.approx(1.0, rel=1e-14)
        assert out.product == pytest.approx(out.delta_factor, rel=1e-13)
        want = _delta_only_bracket(L, y)
        got = el_residual(F, y, EL2).residual.values
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_reduction_to_pure_nabla_problem():
    rng = np.random.default_rng(10)
    L = make_lagrangian("v^2 + u")
    for _ in range(10):
        size = int(rng.integers(4, 10))
        pts = np.sort(rng.uniform(0.0, 3.0, size))
        if np.any(np.diff(pts) <= 0.0):
            continue
        scale = TimeScale(pts)
        span = scale.b - scale.a
        y = GridFunction(scale, rng.uniform(-1.0, 1.0, size))
        F = DeltaNablaFunctional(constant_lagrangian(1.0 / span), L)
        out = eval_functional(F, y)
        assert out.delta_factor == pytest.approx(1.0, rel=1e-14)
        assert out.product == pytest.approx(out.nabla_factor, rel=1e-13)
        # backward bracket, independent recomputation on nabla slots
        t = scale.points
        w = np.diff(t)
        q = np.diff(y.values) / w
        du = np.array(
            [evaluate(L.d_u, t[i + 1], y.values[i], q[i]) for i in range(len(w))]
        )
        dv = np.array(
            [evaluate(L.d_v, t[i + 1], y.values[i], q[i]) for i in range(len(w))]
        )
        want = dv - np.cumsum(du * w)
        got = el_residual(F, y, EL1).residual.values
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
