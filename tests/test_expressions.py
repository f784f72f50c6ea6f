"""Tests for the expression layer: parsing, printing, evaluation, and
symbolic differentiation of integrand expressions in t, u, v."""

import math

import numpy as np
import pytest

from deltanabla import (
    EvaluationError,
    Lagrangian,
    ParseError,
    constant_lagrangian,
    differentiate,
    evaluate,
    make_lagrangian,
    parse,
    to_str,
)
from deltanabla.expressions import Add, Call, Const, Mul, Neg, Pow, Sub, Var


def test_parse_builds_expected_trees():
    assert parse("t + u*v") == Add(Var("t"), Mul(Var("u"), Var("v")))
    assert parse("v^2") == Pow(Var("v"), 2)
    assert parse("v^-2") == Pow(Var("v"), -2)
    assert parse("-v^2") == Neg(Pow(Var("v"), 2))
    assert parse("sin(t)") == Call("sin", Var("t"))
    assert parse("2e-3") == Const(2e-3)
    assert parse("t - u - v") == Sub(Sub(Var("t"), Var("u")), Var("v"))


def test_numbers_in_every_ascii_form():
    for text, value in (("1.e5", 1e5), (".5", 0.5), ("5.", 5.0), ("2E+3", 2e3), ("007", 7.0)):
        assert parse(text) == Const(value)
    # an e without digits after it is not part of the number
    with pytest.raises(ParseError, match="unexpected 'e'"):
        parse("2e")


@pytest.mark.parametrize(
    "text, pos",
    [
        ("v^^2", 2),
        ("v^u", 2),
        ("v^2.5", 3),
        ("w + 1", 0),
        ("t t", 2),
        ("(t + u", 6),
        ("", 0),
        ("sin t", 4),
        # malformed numbers
        (".", 0),
        ("v + .", 4),
        (".e5", 0),
        ("2*.e-1", 2),
        # digits other than ASCII 0-9
        ("\u00b2", 0),  # superscript two
        ("v^\u0662 + \u0663*u", 2),  # Arabic-Indic two and three
        ("v^2 + \u0663*u", 6),
    ],
)
def test_parse_errors_carry_a_position(text, pos):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.pos == pos
    assert f"position {pos}" in str(exc.value)


def test_evaluate_fixtures():
    assert evaluate(parse("t + u*v"), 1.0, 2.0, 2.5) == 6.0
    assert evaluate(parse("v^2 + v"), 0.0, 0.0, 3.0) == 12.0
    assert evaluate(parse("v^-2"), 0.0, 0.0, 2.0) == 0.25
    got = evaluate(parse("sin(t)*exp(u) + sqrt(v)"), 0.5, 1.0, 4.0)
    assert got == pytest.approx(math.sin(0.5) * math.e + 2.0, abs=1e-15)


@pytest.mark.parametrize(
    "text, at",
    [
        ("log(t)", (-1.0, 0.0, 0.0)),
        ("sqrt(u)", (0.0, -4.0, 0.0)),
        ("1/(t - 1)", (1.0, 0.0, 0.0)),
        ("t^-1", (0.0, 0.0, 0.0)),
        ("exp(v)", (0.0, 0.0, 1000.0)),
    ],
)
def test_evaluate_domain_errors(text, at):
    expr = parse(text)
    with pytest.raises(EvaluationError):
        evaluate(expr, *at)


def test_evaluate_error_names_the_subexpression():
    with pytest.raises(EvaluationError) as exc:
        evaluate(parse("1 + log(u - 2)"), 0.0, 1.0, 0.0)
    assert "log" in str(exc.value)


def test_differentiate_fixtures():
    assert differentiate(parse("v^2"), "v") == Mul(Const(2.0), Var("v"))
    assert differentiate(parse("u*v"), "u") == Var("v")
    assert differentiate(parse("u*v"), "v") == Var("u")
    assert differentiate(parse("7"), "t") == Const(0.0)
    assert differentiate(parse("u"), "v") == Const(0.0)
    assert differentiate(parse("sin(t)"), "t") == Call("cos", Var("t"))


def test_differentiate_by_evaluation():
    expr = parse("2*v + 1")
    d = differentiate(expr, "v")
    for v in (-3.0, 0.0, 1.7):
        assert evaluate(d, 0.0, 0.0, v) == 2.0
    expr = parse("t*v^2 - u/v")
    dv = differentiate(expr, "v")
    # d/dv = 2*t*v + u/v^2
    assert evaluate(dv, 2.0, 3.0, 1.5) == pytest.approx(
        2.0 * 2.0 * 1.5 + 3.0 / 1.5**2, abs=1e-14
    )


def test_differentiate_rejects_unknown_variable():
    with pytest.raises(ValueError):
        differentiate(parse("v"), "x")


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Const(round(float(rng.uniform(-3.0, 3.0)), 3))
        return Var(("t", "u", "v")[int(rng.integers(3))])
    pick = int(rng.integers(6))
    left = _random_expr(rng, depth - 1)
    right = _random_expr(rng, depth - 1)
    if pick == 0:
        return Add(left, right)
    if pick == 1:
        return Sub(left, right)
    if pick == 2:
        return Mul(left, right)
    if pick == 3:
        return Neg(left)
    if pick == 4:
        return Pow(left, int(rng.integers(0, 4)))
    return Call(("sin", "cos", "exp")[int(rng.integers(3))], left)


def test_print_then_reparse_preserves_values_exactly():
    rng = np.random.default_rng(3)
    kept = 0
    for _ in range(200):
        expr = _random_expr(rng, 4)
        text = to_str(expr)
        back = parse(text)
        t, u, v = rng.uniform(-2.0, 2.0, 3)
        try:
            want = evaluate(expr, t, u, v)
        except EvaluationError:
            continue
        kept += 1
        # identical arithmetic tree modulo constant sign spelling,
        # so the values agree to the last bit
        assert evaluate(back, t, u, v) == want
        # one round trip normalizes the spelling; after that it is stable
        normalized = to_str(back)
        assert to_str(parse(normalized)) == normalized
    assert kept > 150


def test_symbolic_matches_central_differences():
    rng = np.random.default_rng(11)
    h = 1e-5
    exprs = [
        parse("v^2 + t*u"),
        parse("sin(v)*cos(t) + exp(0.25*u)"),
        parse("(v + 2)^3 - u*v"),
        parse("v/(u^2 + 1)"),
    ]
    for expr in exprs:
        for _ in range(10):
            t, u, v = rng.uniform(-1.5, 1.5, 3)
            for var in ("t", "u", "v"):
                sym = evaluate(differentiate(expr, var), t, u, v)
                args_up = {"t": t, "u": u, "v": v}
                args_dn = dict(args_up)
                args_up[var] += h
                args_dn[var] -= h
                fd = (
                    evaluate(expr, args_up["t"], args_up["u"], args_up["v"])
                    - evaluate(expr, args_dn["t"], args_dn["u"], args_dn["v"])
                ) / (2.0 * h)
                assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym))


def test_lagrangian_bundles_value_and_partials():
    L = make_lagrangian("v^2 + u")
    assert isinstance(L, Lagrangian)
    assert evaluate(L.value, 1.0, 2.0, 3.0) == 11.0
    assert evaluate(L.d_u, 1.0, 2.0, 3.0) == 1.0
    assert evaluate(L.d_v, 1.0, 2.0, 3.0) == 6.0
    # accepts an already-parsed expression too
    same = make_lagrangian(parse("v^2 + u"))
    assert evaluate(same.value, 1.0, 2.0, 3.0) == 11.0


def test_constant_lagrangian():
    C = constant_lagrangian(0.25)
    assert evaluate(C.value, 9.0, -9.0, 9.0) == 0.25
    assert evaluate(C.d_u, 0.0, 0.0, 0.0) == 0.0
    assert evaluate(C.d_v, 0.0, 0.0, 0.0) == 0.0


@pytest.mark.parametrize(
    "lagrangian, affine",
    [
        (make_lagrangian("2*u + t*v"), True),
        (make_lagrangian("-t*v + sin(t)*u + 1"), True),
        (constant_lagrangian(0.25), True),
        (make_lagrangian("u*v"), False),
        (make_lagrangian("v^2"), False),
        (make_lagrangian("sin(u)"), False),
        # Second partials that fold to zero, but d_u reads v.
        (make_lagrangian("u*(v + 1) - u*v"), False),
    ],
)
def test_affine_means_slopes_in_t_alone(lagrangian, affine):
    assert lagrangian.affine is affine
    if affine:
        assert all(isinstance(e, Const) and e.value == 0.0 for e in lagrangian.second)
