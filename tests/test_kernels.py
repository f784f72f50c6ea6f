"""Tests for the compiled integrand kernel: bit-for-bit agreement with the
reference tree walk (expressions.evaluate) on random trees and points,
for the value, both partials and the three second partials in one pass
over whole slot arrays, stacked rows each as if alone, the one factor
sum against a left-to-right loop, the walk as fallback wherever kernel
arithmetic fails, silent overflow, shared subtrees and code objects,
and pickling of problems whose kernels were built."""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from deltanabla import (
    DeltaNablaFunctional,
    EvaluationError,
    GridFunction,
    Lagrangian,
    SolverOptions,
    TimeScale,
    constant_lagrangian,
    eval_functional,
    evaluate,
    make_lagrangian,
    solve_normal,
)
from deltanabla import expressions
from deltanabla.expressions import (
    FUNCTIONS,
    Add,
    Call,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
)
from deltanabla.functional import (
    SlotTables,
    _factor,
    _kernel_tables as kernel_tables,
    bracket_values,
    row_tables,
    slot_tables,
    tables_bracket,
)
from deltanabla.solver import closed_form_example, example_problem

SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 1e-300, 1e300, -1e300, 1e308,
           math.inf, -math.inf]

constants = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, width=64))
leaves = st.one_of(
    st.builds(Const, constants),
    st.sampled_from([Var("t"), Var("u"), Var("v")]),
)


def _extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Pow, children, st.integers(-4, 5)),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
    )


trees = st.recursive(leaves, _extend, max_leaves=12)
points = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.5, 0.5, 3.0, 1e-200, 1e200, -1e200]),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


def _bits(x) -> bytes:
    x = float(x)
    return b"nan" if math.isnan(x) else np.float64(x).tobytes()


def _same(a, b) -> bool:
    return len(a) == len(b) and all(_bits(x) == _bits(y) for x, y in zip(a, b))


def _column(column, size: int) -> list:
    """A kernel or SlotTables column at every slot, row after row: a
    constant tree's column is its float."""
    return [column] * size if isinstance(column, float) else list(np.ravel(column))


def _tables(lag, *slots):
    """Lagrangian.tables on the arrays of the given lists."""
    return lag.tables(*(np.array(x, dtype=float) for x in slots))


def _reference(e, ts, us, vs):
    """evaluate() at every point on numpy scalars, as the solver's walk
    calls it; None where it raises."""
    out = []
    with np.errstate(all="ignore"):
        for t, u, v in zip(ts, us, vs):
            try:
                out.append(evaluate(e, np.float64(t), np.float64(u), np.float64(v)))
            except EvaluationError:
                out.append(None)
    return out


@settings(max_examples=400, deadline=None)
@given(trees, st.lists(st.tuples(points, points, points), min_size=1, max_size=4))
def test_kernel_matches_evaluate_bitwise(tree, slots):
    lag = make_lagrangian(tree)
    ts, us, vs = (list(c) for c in zip(*slots))
    refs = [_reference(e, ts, us, vs) for e in (lag.value, lag.d_u, lag.d_v, *lag.second)]
    try:
        got = _tables(lag, ts, us, vs)
    except (ArithmeticError, ValueError):
        event("kernel raised")
        return  # the callers fall back to the walk; checked below
    assert len(got) == 6
    assert all(r is not None for ref in refs for r in ref)
    for ref, col in zip(refs, got):
        assert _same(ref, _column(col, len(ts)))
    # The same slots twice over, as two rows: the same columns.
    twice = _tables(lag, ts, [us, us], [vs, vs])
    for col, col2 in zip(got, twice):
        assert _same(_column(col, len(ts)) * 2, _column(col2, 2 * len(ts)))


def _stack_of_rows(m):
    rows = st.lists(st.tuples(points, points), min_size=m, max_size=m)
    return st.tuples(st.lists(points, min_size=m, max_size=m), st.lists(rows, min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(trees, st.integers(1, 4).flatmap(_stack_of_rows))
def test_stacked_rows_match_each_row_alone_and_the_walk(tree, stack):
    # Rows of different slots on one shared row of times, as
    # kernel_tables stacks the points of a Newton round: the stack
    # raises if and only if some row alone raises, and otherwise each
    # row of every column is that row's own, and the walk's, bit for
    # bit.  The factors are checked on row_tables below.
    lag = make_lagrangian(tree)
    ts, rows = stack
    us = [[u for u, _ in row] for row in rows]
    vs = [[v for _, v in row] for row in rows]
    alone = []
    for u, v in zip(us, vs):
        try:
            alone.append(_tables(lag, ts, u, v))
        except (ArithmeticError, ValueError):
            alone.append(None)
    try:
        got = _tables(lag, ts, us, vs)
    except (ArithmeticError, ValueError):
        assert None in alone
        event("stack raised")
        return
    assert None not in alone
    trees_ = (lag.value, lag.d_u, lag.d_v, *lag.second)
    for i, (u, v, own) in enumerate(zip(us, vs, alone)):
        for col, own_col, e in zip(got, own, trees_):
            row = _column(col if isinstance(col, float) else col[i], len(ts))
            assert _same(row, _column(own_col, len(ts)))
            assert _same(row, _reference(e, ts, u, v))


# Entries of a factor's value column: signed zeros, infinities, NaN,
# the largest finite floats and the smallest subnormals among any floats.
entries = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308,
                     5e-324, -5e-324, 1.0, -1.0]),
    st.floats(width=64),
)
gap_widths = st.one_of(st.sampled_from([1.0, 0.5, 2.0, 1e-300, 1e300]),
                       st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))


def _loop(values, dt):
    """A factor summed by a Python loop, left to right from 0.0."""
    total = 0.0
    for x, w in zip(values, dt):
        total += x * w
    return total


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 9).flatmap(lambda m: st.tuples(
    st.lists(st.lists(entries, min_size=m, max_size=m), min_size=1, max_size=4),
    st.lists(gap_widths, min_size=m, max_size=m),
    entries,
)))
def test_factor_is_the_left_to_right_loop(case):
    # The one factor sum, for one row (a float), for stacked rows (a
    # (rows, 1) array, each row its own loop) and for a constant column
    # over a stack, against the loop bit for bit, signed zeros included.
    rows, dt, constant = case
    dt = np.array(dt)
    with np.errstate(over="ignore", invalid="ignore"):
        one = _factor(np.array(rows[0]), dt, dt.shape)
        stacked = _factor(np.array(rows), dt, (len(rows), dt.size))
        flat = _factor(constant, dt, (len(rows), dt.size))
    assert type(one) is float and _same([_loop(rows[0], dt.tolist())], [one])
    assert stacked.shape == flat.shape == (len(rows), 1)
    assert _same([_loop(row, dt.tolist()) for row in rows], _column(stacked, len(rows)))
    assert _same([_loop([constant] * dt.size, dt.tolist())] * len(rows), _column(flat, len(rows)))


def test_overflow_in_array_operations_is_silent():
    # v^30 is finite at |v| = 1e6, and v^30*v^30 overflows there, as
    # does its difference with u^30*u^30 (inf - inf): the array
    # operations overflow to inf or NaN silently, as Python floats do,
    # and no numpy RuntimeWarning escapes where warnings are errors,
    # nor where the factor of the stacked tables overflows.  The columns
    # are the walk's numbers.
    ts, us, vs = [0.0, 1.0, 2.0], [[1e6, 2.0, 1.0], [-1e6, 1e6, 1.0]], [[1e6, 2.0, -1e6]] * 2
    v2 = make_lagrangian("v^2")
    for text in ("v^30*v^30", "v^30*v^30 - u^30*u^30"):
        lag = make_lagrangian(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _tables(lag, ts, us, vs)
            stacked = kernel_tables(
                DeltaNablaFunctional(lag, v2), np.arange(4.0), np.array([[0.0, 1e6, 0.0, 1e6]] * 2)
            )
        assert not np.isfinite(got[0]).all()
        assert not np.isfinite(stacked.j_delta).all()
        for col, e in zip(got, (lag.value, lag.d_u, lag.d_v, *lag.second)):
            for i in range(2):
                row = _column(col if isinstance(col, float) else col[i], len(ts))
                assert _same(row, _reference(e, ts, us[i], vs[i]))


@pytest.mark.parametrize(
    "text, values",
    [
        ("1e308*v*10", [0.0, 1.0, 2.0]),  # the array walk overflows to inf
        ("v^400", [0.0, 10.0, 30.0]),  # Python's ** raises; the per-point walk runs
        ("v^30*v^30 - u^30*u^30", [0.0, 1e6, 0.0]),  # inf - inf is NaN
    ],
)
def test_eval_functional_overflows_silently(text, values):
    # A factor that overflows is inf or NaN, the walk's bits, and numpy
    # warns of nothing on the way, where warnings are errors.
    functional = DeltaNablaFunctional(make_lagrangian(text), make_lagrangian("v^2 + u"))
    y = GridFunction(TimeScale(np.arange(3.0)), np.array(values))
    with np.errstate(all="ignore"):
        want = _walk_breakdown(functional, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = eval_functional(functional, y)
    assert not np.isfinite(b.delta_factor)
    assert _same(want, (b.delta_factor, b.nabla_factor, b.product))


def _walk(delta_trees, nabla_trees, y, undefined=None):
    """The per-point loop of slot_tables, kept here as the reference:
    raises where a tree is undefined, or reads ``undefined`` there."""
    t, v = y.scale.points, y.values
    dt = np.diff(t)
    quot = np.diff(v) / dt
    cols = [np.empty(dt.size) for _ in range(6)]
    for i in range(dt.size):
        args_d = (t[i], v[i + 1], quot[i])
        args_n = (t[i + 1], v[i], quot[i])
        for col, tree, args in zip(
            cols, (*delta_trees, *nabla_trees), (args_d,) * 3 + (args_n,) * 3
        ):
            try:
                col[i] = evaluate(tree, *args)
            except EvaluationError:
                if undefined is None:
                    raise
                col[i] = undefined
    return cols


def _walk_tables(functional, y):
    """The ten SlotTables columns in field order and both factors: the
    first partials as the walk gives them (which raises where a value is
    undefined), then the second partials, NaN where undefined."""
    ld, ln = functional.l_delta, functional.l_nabla
    first = _walk((ld.value, ld.d_u, ld.d_v), (ln.value, ln.d_u, ln.d_v), y)
    with np.errstate(all="ignore"):
        second = _walk(ld.second, ln.second, y, undefined=np.nan)
    cols = [*first[1:3], *second[:3], *first[4:], *second[3:]]
    # both factors summed left to right from 0.0, as eval_functional sums
    return cols, *_walk_breakdown(functional, y)[:2]


_COLUMNS = ("delta_du", "delta_dv", "delta_uu", "delta_uv", "delta_vv",
            "nabla_du", "nabla_dv", "nabla_uu", "nabla_uv", "nabla_vv")


def _walk_breakdown(functional, y):
    t, v = y.scale.points, y.values
    dt = np.diff(t)
    quot = np.diff(v) / dt
    j_delta = j_nabla = 0.0
    for i in range(dt.size):
        j_delta += functional.l_delta(t[i], v[i + 1], quot[i]) * dt[i]
        j_nabla += functional.l_nabla(t[i + 1], v[i], quot[i]) * dt[i]
    return float(j_delta), float(j_nabla), float(j_delta * j_nabla)


def _outcome(fn):
    with np.errstate(all="ignore"):
        try:
            return "ok", fn()
        except EvaluationError as exc:
            return "raised", str(exc)


def _check_against_walk(functional, y):
    ref = _outcome(lambda: _walk_tables(functional, y))
    got = _outcome(lambda: slot_tables(functional, y))
    if ref[0] == "ok":
        # The bracket reads only the first partials and the factors.
        cols, j_delta, j_nabla = ref[1]
        want = _outcome(lambda: tables_bracket(
            SlotTables(y.values, np.diff(y.scale.points), *cols, j_delta, j_nabla)))
        assert _same(want[1], _outcome(lambda: bracket_values(functional, y))[1])
    assert got[0] == ref[0]
    if ref[0] == "raised":
        assert got[1] == ref[1]
    else:
        tab = got[1]
        for want, name in zip(ref[1][0], _COLUMNS, strict=True):
            have = getattr(tab, name)
            if not isinstance(have, float):
                assert have.dtype == np.float64 and have.flags.c_contiguous
            assert _same(want, _column(have, len(want))), name
        assert _same(ref[1][1:], (tab.j_delta, tab.j_nabla))
    ref = _outcome(lambda: _walk_breakdown(functional, y))
    got = _outcome(lambda: eval_functional(functional, y))
    assert got[0] == ref[0]
    if ref[0] == "raised":
        assert got[1] == ref[1]
    else:
        b = got[1]
        assert _same(ref[1], (b.delta_factor, b.nabla_factor, b.product))
    return ref[0]


# Up to 40 points, so that the left-to-right factor sums are long.
grids = st.lists(
    st.tuples(st.floats(0.01, 2.0), st.floats(-1e3, 1e3)), min_size=2, max_size=40
)


@settings(max_examples=300, deadline=None)
@given(trees, trees, grids)
def test_slot_tables_and_eval_functional_match_the_walk(delta, nabla, grid):
    t = np.cumsum([g for g, _ in grid]) - grid[0][0]
    y = GridFunction(TimeScale(t), np.array([v for _, v in grid]))
    outcome = _check_against_walk(
        DeltaNablaFunctional(make_lagrangian(delta), make_lagrangian(nabla)), y
    )
    event(f"walk {outcome}")


@settings(max_examples=200, deadline=None)
@given(trees, trees, st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n),
    st.lists(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n), min_size=1, max_size=4),
)))
def test_row_tables_factors_are_each_rows_own(delta, nabla, grid):
    # The factors of stacked tables, as a Newton round reads them: each
    # row's is that of slot_tables over the row alone and the walk's
    # left-to-right loop, bit for bit, or NaN where slot_tables names an
    # undefined value or first partial.
    gaps, rows = grid
    t = np.cumsum(gaps) - gaps[0]
    functional = DeltaNablaFunctional(make_lagrangian(delta), make_lagrangian(nabla))
    with np.errstate(all="ignore"):
        tab, errors = row_tables(functional, t, np.array(rows))
    assert tab.j_delta.shape == tab.j_nabla.shape == (len(rows), 1)
    for i, row in enumerate(rows):
        y = GridFunction(TimeScale(t), np.array(row))
        outcome, alone = _outcome(lambda: slot_tables(functional, y))
        got = (tab.j_delta[i, 0], tab.j_nabla[i, 0])
        if outcome == "raised":
            assert errors[i] == alone and np.isnan(got).all()
            continue
        assert i not in errors and _same(got, (alone.j_delta, alone.j_nabla))
        assert _same(_outcome(lambda: _walk_breakdown(functional, y))[1][:2], got)
    event(f"{len(errors)} of {len(rows)} rows undefined")


@pytest.mark.parametrize(
    "text, values",
    [
        ("1/(v - 1)", [0.0, 1.0, 2.0]),  # zero divisor
        ("log(u)", [1.0, 0.0, 2.0]),  # log of zero
        ("sqrt(u - 1)", [0.0, 3.0, 2.0]),  # sqrt of a negative
        ("v^400", [0.0, 10.0, 30.0]),  # numpy overflows to inf, Python raises
        ("u^-3 + v^-1", [-2.0, -1.0, -4.0]),  # negative bases, negative exponents
        ("v^-2", [1.0, 1.0, 2.0]),  # 0 to a negative power: numpy inf
        ("exp(v)", [0.0, 800.0, 0.0]),  # math.exp overflows
        ("1e308*v*10", [0.0, 1.0, 2.0]),  # overflow to inf without an exception
        ("(0 - 1)^3/(v - v + 1e-320)", [0.0, 1.0, 2.0]),
        ("log(u)", [0.0, 1e-170, 2e-170]),  # u^2 underflows to 0 in d_uu only
    ],
)
def test_failing_arithmetic_falls_back_to_the_walk(text, values):
    y = GridFunction(TimeScale(np.arange(3.0)), np.array(values))
    _check_against_walk(
        DeltaNablaFunctional(make_lagrangian(text), make_lagrangian("v^2 + u")), y
    )


def test_undefined_second_partial_reads_nan():
    # d_uu of log(u) is -1/u^2, and u^2 underflows to 0 at u = 1e-170:
    # the kernel raises, the walk gives the value and first partials,
    # and the second partial reads NaN without a warning.
    y = GridFunction(TimeScale(np.arange(3.0)), np.array([0.0, 1e-170, 2e-170]))
    lag = make_lagrangian("log(u)")
    with pytest.raises(ZeroDivisionError):
        _tables(lag, [0.0], [1e-170], [1e-170])
    tab = slot_tables(DeltaNablaFunctional(lag, make_lagrangian("v^2 + u")), y)
    assert np.isnan(tab.delta_uu).all()
    assert np.isfinite([tab.delta_du, tab.delta_dv]).all()
    assert np.array_equal(tab.delta_du, [1e170, 5e169])
    assert np.isfinite([tab.j_delta, tab.j_nabla]).all()


def test_constant_roots_are_returned_as_their_floats():
    # A constant root is returned as its float, which numpy broadcasts
    # wherever the column is read: all six roots of a constant
    # Lagrangian, whose factor is still summed over every row, and the
    # second partials of v^2.  A root of t alone, or a bare variable, is
    # a fresh array of the slots' shape.  slot_tables keeps the floats.
    const = constant_lagrangian(0.5)
    square = make_lagrangian("v^2")
    roots = _tables(const, [0.0, 1.0], [[1.0, 2.0]] * 3, [[3.0, -4.0]] * 3)
    assert roots == (0.5, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert all(type(x) is float for x in roots)
    assert _tables(square, [0.0, 1.0], [1.0, 2.0], [3.0, -4.0])[3:] == (0.0, 0.0, 2.0)
    t, u, v = np.array([0.0, 1.0]), np.array([[1.0, 2.0]] * 2), np.array([[3.0, -4.0]] * 2)
    for lag, root in ((make_lagrangian("t*v"), t), (make_lagrangian("u*v"), u)):
        d_v = lag.tables(t, u, v)[2]
        assert d_v.shape == v.shape and d_v.flags.c_contiguous and d_v.flags.writeable
        assert not np.shares_memory(d_v, root)
        assert np.array_equal(d_v, np.broadcast_to(root, v.shape))
    y = GridFunction(TimeScale(np.array([0.0, 0.5, 2.0, 2.25])), np.array([1.0, -2.0, 0.5, 3.0]))
    tab = slot_tables(DeltaNablaFunctional(const, square), y)
    assert (tab.delta_du, tab.delta_dv, tab.nabla_uu, tab.nabla_vv) == (0.0, 0.0, 0.0, 2.0)
    assert all(isinstance(x, float) for x in (tab.delta_du, tab.nabla_vv, tab.j_delta))
    assert tab.j_delta == 1.125  # 0.5 * (0.5 + 1.5 + 0.25)
    stacked, errors = row_tables(DeltaNablaFunctional(const, square), y.scale.points,
                                 np.stack([y.values] * 3))
    assert errors == {} and stacked.j_delta.tolist() == [[1.125]] * 3
    assert stacked.j_nabla.tolist() == [[tab.j_nabla]] * 3
    assert _check_against_walk(DeltaNablaFunctional(const, square), y) == "ok"
    assert _check_against_walk(DeltaNablaFunctional(square, const), y) == "ok"


def test_eval_functional_walks_whole_slot_arrays(monkeypatch):
    # The array walk covers the example at m = 128 and a 16-point
    # transcendental functional without one per-point evaluation, and
    # gives the per-point walk's factors bit for bit.
    y128, _ = closed_form_example(128)
    p = example_problem(128)
    rng = np.random.default_rng(3)
    scale = TimeScale(np.cumsum(rng.uniform(0.05, 0.2, 16)))
    y16 = GridFunction(scale, rng.uniform(-1.0, 1.0, 16))
    transcendental = DeltaNablaFunctional(
        make_lagrangian("v^2 + 0.2*sin(t + u) - 0.1*log(u^2 + 1.3)"),
        make_lagrangian("v^2 + 0.15*sqrt(v^2 + 0.7) - 0.2*exp(0.1*u) + 1.1"),
    )
    # Odd powers and exp round differently through numpy's array
    # functions in a few per cent of the slots.
    powers = DeltaNablaFunctional(
        make_lagrangian("u^3 + 0.5*v^3"), make_lagrangian("exp(0.01*u) + v^5")
    )
    cases = [(p.objective, y128), (p.constraint, y128), (powers, y128), (transcendental, y16)]
    calls = []
    walk = Lagrangian.__call__

    def counting(self, *args):
        calls.append(1)
        return walk(self, *args)

    monkeypatch.setattr(Lagrangian, "__call__", counting)
    for functional, y in cases:
        b = eval_functional(functional, y)
        assert calls == []
        want = _walk_breakdown(functional, y)
        assert _same(want, (b.delta_factor, b.nabla_factor, b.product))
        calls.clear()


def test_signed_zero_constants_stay_apart():
    u = Var("u")
    lag = Lagrangian(Mul(Const(-0.0), u), Mul(Const(0.0), u), Const(-0.0))
    assert Const(0.0) == Const(-0.0)  # why sharing cannot key on equality
    value, du, dv, *_ = _tables(lag, [0.0], [1.0], [1.0])
    assert dv == -0.0 and isinstance(dv, float)  # a constant root
    assert [math.copysign(1.0, x) for x in (value[0], du[0], dv)] == [-1.0, 1.0, -1.0]


def test_long_sum_compiles_without_nesting():
    text = " + ".join(["v"] * 300)
    lag = make_lagrangian(text)
    y = GridFunction(TimeScale(np.arange(4.0)), np.array([0.0, 1.0, 3.0, 2.0]))
    _check_against_walk(DeltaNablaFunctional(lag, make_lagrangian(text + " + u")), y)
    assert _tables(lag, [0.0], [0.0], [1.5])[0].tolist() == [evaluate(lag.value, 0.0, 0.0, 1.5)]


def test_same_shape_shares_code_objects():
    a = make_lagrangian("v^2 + 0.25*u*v + sin(t)")
    b = make_lagrangian("v^2 + 0.75*u*v + sin(t)")
    assert a._tables_kernel.__code__ is b._tables_kernel.__code__
    assert _tables(a, [1.0], [2.0], [3.0])[0] != _tables(b, [1.0], [2.0], [3.0])[0]


def test_problem_pickles_after_a_solve():
    p = example_problem(4)
    opts = SolverOptions(multistart=0)
    first = solve_normal(p, opts)
    built = [name for name in vars(p.objective.l_delta) if "kernel" in name]
    assert built == ["_tables_kernel"]  # built by the solve
    for clone in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        again = solve_normal(clone, opts)
        assert np.array_equal(again.y.values, first.y.values)
        assert again.lam == first.lam


def test_trees_the_compiler_does_not_cover_use_the_walk(monkeypatch):
    # Hand-built nodes the parser never makes: an int constant and a
    # float exponent (its d_vv is the int Const(3) as well).  Compiling
    # them raises ValueError, so the walk runs, and the failure is
    # remembered rather than compiled again.
    compiles = []
    original = expressions._compile

    def compile_counted(roots):
        compiles.append(roots)
        return original(roots)

    monkeypatch.setattr(expressions, "_compile", compile_counted)
    v = Var("v")
    lag = Lagrangian(Pow(Mul(Const(3), v), 2.0), Const(0), Mul(Const(3), v))
    for _ in range(2):
        with pytest.raises(ValueError):
            _tables(lag, [0.0], [0.0], [1.0])
    assert len(compiles) == 1
    y = GridFunction(TimeScale(np.arange(3.0)), np.array([0.0, 1.0, 3.0]))
    assert _check_against_walk(DeltaNablaFunctional(lag, lag), y) == "ok"
    assert len(compiles) == 1