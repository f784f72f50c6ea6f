"""Tests for the compiled kernel of a functional: bit-for-bit agreement
with the reference tree walk (expressions.evaluate) on random trees and
points, for the value, both partials and the three second partials of
both integrands in one pass over whole slot arrays, with each tree's
undefined slots marked exactly where evaluate raises, stacked rows each
as if alone, the factor sums against a left-to-right loop, the tables
of the system pass (columns, factors, values, gradients and messages,
per functional and per row) against a per-point walk wherever kernel
arithmetic fails, silent overflow, powers as array products that
overflow rather than turn undefined, shared subtrees and code objects,
and pickling of problems whose kernels were built."""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
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
from deltanabla import functional as functional_module
from deltanabla.expressions import (
    FUNCTIONS,
    parse,
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
    bracket_values,
    slot_tables,
    system_tables,
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


def _tables(lag, t, u, v):
    """The kernel of a functional with lag on both sides, at the arrays
    of the given lists as the slots of either side: the delta side's six
    columns and masks (None where every slot is defined), which are the
    nabla side's too."""
    t, u, v = (np.array(x, dtype=float) for x in (t, u, v))
    with np.errstate(over="ignore", invalid="ignore"):  # as system_tables runs it
        columns, masks = DeltaNablaFunctional(lag, lag)._kernel(v, t, u, t, u)
    assert _same(_flat(columns[:6], v.size), _flat(columns[6:], v.size))
    if masks is not None:
        assert np.array_equal(masks[:6], masks[6:])
        masks = masks[:6]
    return columns[:6], masks


def _flat(columns, size):
    return [x for column in columns for x in _column(column, size)]


def _masks(masks, shape):
    """A kernel's masks of one side, all six, None read as nothing marked."""
    return np.zeros((6, *shape), bool) if masks is None else masks


def _reference(e, ts, us, vs):
    """evaluate() at every point on numpy scalars, as functional calls it
    to name an undefined row; None where it raises."""
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
    _, masks = _assert_kernel_is_the_walk(tree, slots)
    event("undefined" if masks is not None else "defined")


def _assert_kernel_is_the_walk(tree, slots):
    """Each tree's mask is set at a slot exactly where evaluate raises,
    and its column reads NaN there; every other slot is evaluate's
    number bit for bit.  No mask at all means every slot is defined.
    The kernel's six columns and masks are returned."""
    lag = make_lagrangian(tree)
    ts, us, vs = (list(c) for c in zip(*slots))
    refs = [_reference(e, ts, us, vs) for e in (lag.value, lag.d_u, lag.d_v, *lag.second)]
    got, masks = _tables(lag, ts, us, vs)
    assert len(got) == 6
    assert (masks is None) == all(r is not None for ref in refs for r in ref)
    for ref, col, mask in zip(refs, got, _masks(masks, (len(ts),))):
        assert mask.tolist() == [r is None for r in ref]
        assert _same([math.nan if r is None else r for r in ref], _column(col, len(ts)))
    # The same slots twice over, as two rows: the same columns and masks.
    twice, masks2 = _tables(lag, ts, [us, us], [vs, vs])
    for col, col2 in zip(got, twice):
        assert _same(_column(col, len(ts)) * 2, _column(col2, 2 * len(ts)))
    assert np.array_equal(np.tile(_masks(masks, (len(ts),)), 2),
                          _masks(masks2, (2, len(ts))).reshape(6, -1))
    return got, masks


def _stack_of_rows(m):
    rows = st.lists(st.tuples(points, points), min_size=m, max_size=m)
    return st.tuples(st.lists(points, min_size=m, max_size=m), st.lists(rows, min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(trees, st.integers(1, 4).flatmap(_stack_of_rows))
def test_stacked_rows_match_each_row_alone_and_the_walk(tree, stack):
    # Rows of different slots on one shared row of times, as
    # system_tables stacks the points of a Newton round: each row of
    # every column and of every mask is that row's own, and the column
    # is the walk's, bit for bit, NaN where the walk raises.  The
    # factors are checked on system_tables below.
    lag = make_lagrangian(tree)
    ts, rows = stack
    us = [[u for u, _ in row] for row in rows]
    vs = [[v for _, v in row] for row in rows]
    got, masks = _tables(lag, ts, us, vs)
    masks = _masks(masks, (len(rows), len(ts)))
    trees_ = (lag.value, lag.d_u, lag.d_v, *lag.second)
    for i, (u, v) in enumerate(zip(us, vs)):
        own, own_masks = _tables(lag, ts, u, v)
        assert np.array_equal(masks[:, i], _masks(own_masks, (len(ts),)))
        for col, own_col, e in zip(got, own, trees_):
            row = _column(col if isinstance(col, float) else col[i], len(ts))
            assert _same(row, _column(own_col, len(ts)))
            ref = _reference(e, ts, u, v)
            assert _same(row, [math.nan if r is None else r for r in ref])
    event(f"{int(masks.any(axis=(0, 2)).sum())} of {len(rows)} rows undefined")


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
    # The factor sums of the system pass, for one function (a float), for
    # stacked rows (a (rows, 1) array, each row its own loop) and for a
    # constant column over a stack, against the loop bit for bit, signed
    # zeros included: the delta integrand u reads each row's entries.
    rows, gaps, constant = case
    with np.errstate(all="ignore"):  # rounded points may repeat: v reads inf or NaN there
        t = np.cumsum([0.0, *gaps])
        dt = (t[1:] - t[:-1]).tolist()
        functional = DeltaNablaFunctional(make_lagrangian("u"), constant_lagrangian(constant))
        values = np.array([[0.0, *row] for row in rows])
        (one,), _ = system_tables((functional,), t, values[0])
        (stacked,), _ = system_tables((functional,), t, values)
    assert type(one.j_delta) is float and _same([_loop(rows[0], dt)], [one.j_delta])
    assert stacked.j_delta.shape == stacked.j_nabla.shape == (len(rows), 1)
    assert _same([_loop(row, dt) for row in rows], _column(stacked.j_delta, len(rows)))
    assert _same([_loop([constant] * len(dt), dt)] * len(rows), _column(stacked.j_nabla, len(rows)))


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
            got, masks = _tables(lag, ts, us, vs)
            (stacked,), errors = system_tables(
                (DeltaNablaFunctional(lag, v2),), np.arange(4.0), np.array([[0.0, 1e6, 0.0, 1e6]] * 2)
            )
        assert masks is None and errors == {}
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
        ("v^400", [0.0, 10.0, 30.0]),  # Python's ** raises; evaluate reads inf
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
        j_delta += evaluate(functional.l_delta.value, t[i], v[i + 1], quot[i]) * dt[i]
        j_nabla += evaluate(functional.l_nabla.value, t[i + 1], v[i], quot[i]) * dt[i]
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
        (tab,), errors = system_tables((functional,), t, np.array(rows))
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


def _walk_gradients(cols, j_delta, j_nabla, dt):
    """grad_delta, grad_nabla and grad from the walk's columns, by a loop
    over the interior points on Python floats."""
    du, dv, nu, nv = (cols[k].tolist() for k in (0, 1, 5, 6))
    gd = [du[j] * dt[j] + dv[j] - dv[j + 1] for j in range(len(dt) - 1)]
    gn = [nu[j + 1] * dt[j + 1] - nv[j + 1] + nv[j] for j in range(len(dt) - 1)]
    return gd, gn, [j_nabla * a + j_delta * b for a, b in zip(gd, gn)]


sides = st.one_of(trees.map(make_lagrangian), constants.map(constant_lagrangian))
functionals = st.one_of(
    st.builds(DeltaNablaFunctional, sides, sides),
    # one text on both sides, each side reading its own t and u
    sides.map(lambda lag: DeltaNablaFunctional(lag, lag)),
)
# log of the delta side's u, and sqrt of the nabla side's u: on the stack
# below, only the first is undefined in row 0, only the second in row 1,
# both in row 2 and neither in row 3.
_LOG = DeltaNablaFunctional(make_lagrangian("log(u) + v^2"), make_lagrangian("v^2 + t"))
_SQRT = DeltaNablaFunctional(make_lagrangian("t*v"), make_lagrangian("sqrt(u) + 1/v"))
_SAME = DeltaNablaFunctional(*[make_lagrangian("t*u + v^2 + log(t + 1) + 2/u")] * 2)
_STACK = ([1.0, 0.5, 1.5, 1.0], [[1.0, 2.0, 3.0, -1.0], [-1.0, 2.0, 3.0, 1.0],
                                  [-1.0, -2.0, 3.0, 1.0], [1.0, 2.0, 3.0, 1.0]])


@settings(max_examples=200, deadline=None)
@example(_LOG, _SQRT, _STACK)
@example(_SQRT, _LOG, _STACK)
@example(_SAME, _LOG, _STACK)
@given(functionals, functionals, st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n),
    st.lists(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n), min_size=1, max_size=4),
)))
def test_system_pass_matches_the_walk_per_functional_and_row(objective, constraint, grid):
    # One system pass over a stack, as a Newton evaluation makes it: in
    # each row, each functional's columns, factors, value and gradients
    # are the walk's over that row alone, bit for bit, or NaN, every one
    # of them, where the walk names the row undefined for that
    # functional; the messages are the walk's, the first functional's
    # where both are undefined.
    gaps, rows = grid
    t = np.cumsum(gaps) - gaps[0]
    dt = np.diff(t).tolist()
    with np.errstate(all="ignore"):
        tabs, errors = system_tables((objective, constraint), t, np.array(rows), derive=True)
    names = (*_COLUMNS, "j_delta", "j_nabla", "value", "grad_delta", "grad_nabla", "grad")
    want_errors, undefined = {}, []
    for i, row in enumerate(rows):
        y = GridFunction(TimeScale(t), np.array(row))
        for k, (functional, tab) in enumerate(zip((objective, constraint), tabs)):
            got = [_column(c if isinstance(c, float) else c[i], len(dt))
                   for c in (getattr(tab, name) for name in names)]
            outcome, walk = _outcome(lambda: _walk_tables(functional, y))
            if outcome == "raised":
                want_errors.setdefault(i, walk)
                undefined.append(k)
                assert all(np.isnan(column).all() for column in got)
                continue
            cols, j_delta, j_nabla = walk
            want = [*cols, [j_delta], [j_nabla], [j_delta * j_nabla],
                    *_walk_gradients(cols, j_delta, j_nabla, dt)]
            for name, w, g in zip(names, want, got, strict=True):
                assert _same(list(w), g[: len(w)]), name
    assert errors == want_errors
    event(f"undefined: {sorted(set(undefined))}")


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
    # Where Python float arithmetic fails, the tables, factors and
    # messages are still the reference walk's: the kernel marks the
    # undefined slots, and a power that overflows reads inf.
    y = GridFunction(TimeScale(np.arange(3.0)), np.array(values))
    _check_against_walk(
        DeltaNablaFunctional(make_lagrangian(text), make_lagrangian("v^2 + u")), y
    )


def test_undefined_second_partial_reads_nan():
    # d_uu of log(u) is -1/u^2, and u^2 underflows to 0 at u = 1e-170:
    # the kernel marks d_uu there and reads NaN, the value and first
    # partials stay defined, and the tables read NaN there without a
    # warning.
    y = GridFunction(TimeScale(np.arange(3.0)), np.array([0.0, 1e-170, 2e-170]))
    lag = make_lagrangian("log(u)")
    columns, masks = _tables(lag, [0.0], [1e-170], [1e-170])
    assert masks[:, 0].tolist() == [False, False, False, True, False, False]
    assert np.isnan(columns[3]).all() and all(np.isfinite(c).all() for c in columns[:3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tab = slot_tables(DeltaNablaFunctional(lag, make_lagrangian("v^2 + u")), y)
    assert np.isnan(tab.delta_uu).all()
    assert np.isfinite(tab.delta_du).all() and tab.delta_dv == 0.0
    assert np.array_equal(tab.delta_du, [1e170, 5e169])
    assert np.isfinite([tab.j_delta, tab.j_nabla]).all()


def test_a_power_that_overflows_stays_in_the_kernel():
    # v^400 at v = 10 overflows, where Python's ** would raise: the
    # multiplication chain reads inf in the kernel and in evaluate, and
    # the kernel marks nothing.
    columns, masks = _tables(make_lagrangian("v^400"), [0.0, 1.0], [1.0, 1.0], [10.0, -10.0])
    assert masks is None
    assert columns[0].tolist() == [math.inf, math.inf] == [evaluate(parse("v^400"), 0.0, 1.0, x)
                                                           for x in (10.0, -10.0)]


@pytest.mark.parametrize(
    "tree, v, want",
    [
        # A negative power is the chain of 1/v, so a tiny base overflows
        # to inf; v^2 first would underflow to 0.0 and leave 1/0.0.
        (parse("v^-2"), 1e-200, math.inf),
        (parse("v^-3"), -1e-200, -math.inf),
        (Pow(Pow(Var("v"), -1), -1), 1e-310, 0.0),
        (Pow(Pow(Var("v"), -2), -1), 1e-200, 0.0),
        # Odd powers keep the sign of the base as they overflow, even ones do not.
        (parse("v^3"), -1e200, -math.inf),
        (parse("v^4"), -1e200, math.inf),
        (parse("v^-4"), -1e-200, math.inf),
        # x^0 is 1.0 at every x, NaN and inf included.
        (parse("v^0"), math.nan, 1.0),
        (parse("v^0"), math.inf, 1.0),
        (parse("v^0"), -math.inf, 1.0),
    ],
)
def test_powers_that_overflow_are_defined_and_signed(tree, v, want):
    # The value column and every partial are evaluate's bit for bit,
    # with no slot marked undefined.
    (value, *_), masks = _assert_kernel_is_the_walk(tree, [(0.0, 1.0, v)])
    assert masks is None
    assert _same([want], _column(value, 1)) and _same([want], [evaluate(tree, 0.0, 1.0, v)])


@pytest.mark.parametrize("text, zero", [("v^-2", 0.0), ("v^-2", -0.0), ("v^-3", -0.0)])
def test_a_zero_base_to_a_negative_power_stays_undefined(text, zero):
    # The one undefined case of a power: evaluate raises with the message
    # it always had, and the kernel marks the slot and reads NaN there.
    tree = parse(text)
    with pytest.raises(EvaluationError) as exc:
        evaluate(tree, 0.0, 1.0, zero)
    assert str(exc.value) == f"cannot raise {zero} to {tree.exponent} in {text}"
    (value, *_), masks = _assert_kernel_is_the_walk(tree, [(0.0, 1.0, zero), (0.0, 1.0, 2.0)])
    assert masks[0].tolist() == [True, False] and np.isnan(value[0])


@pytest.fixture
def per_slot_raises(monkeypatch):
    """expressions._per_slot raising, in kernels compiled meanwhile."""
    def forbidden(*args):
        raise AssertionError("per_slot was called")

    monkeypatch.setattr(expressions, "_per_slot", forbidden)
    expressions._factory.cache_clear()  # compiled code binds _per_slot
    yield
    expressions._factory.cache_clear()


def test_powers_compile_to_array_products(per_slot_raises):
    # A kernel whose only nodes besides + - * / are powers runs no
    # slot-by-slot call; one with exp still runs one.
    y = GridFunction(TimeScale(np.arange(4.0)), np.array([1.0, 2.0, 0.5, 3.0]))
    powers = DeltaNablaFunctional(make_lagrangian("v^2 + u^-3"), make_lagrangian("v^5 - t^2"))
    assert _check_against_walk(powers, y) == "ok"
    exp = DeltaNablaFunctional(make_lagrangian("v^2 + exp(u)"), make_lagrangian("v^2"))
    with pytest.raises(AssertionError, match="per_slot was called"):
        slot_tables(exp, y)


def test_an_undefined_row_costs_no_extra_kernel_call(monkeypatch):
    # One row of a stack leaves the domain of log: the stack still costs
    # one kernel call, its other rows are their lone rows bit for bit,
    # and the undefined row reads NaN in every column and factor, with
    # the walk's message.
    calls = []
    kernel_of = DeltaNablaFunctional._kernel.func

    def counted(functional):
        kernel = kernel_of(functional)

        def kernel_counted(*args):
            calls.append(functional)
            return kernel(*args)

        return kernel_counted

    monkeypatch.setattr(DeltaNablaFunctional, "_kernel", property(counted))
    functional = DeltaNablaFunctional(make_lagrangian("v^2 + log(u)"), make_lagrangian("u*v + 1"))
    t = np.array([0.0, 1.0, 2.5, 3.0])
    values = np.array([[1.0, 2.0, 3.0, 1.0], [1.0, 2.0, -1.0, 1.0], [0.5, 0.25, 2.0, 1.0]])
    (tab,), errors = system_tables((functional,), t, values)
    assert calls == [functional]
    y = GridFunction(TimeScale(t), values[1])
    with np.errstate(all="ignore"):
        _, message = _outcome(lambda: _walk_tables(functional, y))
    assert errors == {1: message} == {1: "log(-1.0) undefined in log(u) at t=1.0, u=-1.0, v=-2.0"}

    def row(tables, name, i):
        return list(np.broadcast_to(getattr(tables, name), (len(tables.values), t.size - 1))[i])

    alone = [system_tables((functional,), t, values[i : i + 1]) for i in (0, 2)]
    assert [errors for _, errors in alone] == [{}, {}]
    for name in (*_COLUMNS, "j_delta", "j_nabla"):
        assert np.isnan(row(tab, name, 1)).all(), name
        for i, ((own,), _) in zip((0, 2), alone):
            assert _same(row(tab, name, i), row(own, name, 0)), name


def test_constant_roots_are_returned_as_their_floats():
    # A constant root is returned as its float, which numpy broadcasts
    # wherever the column is read: all six roots of a constant
    # Lagrangian, whose factor is still summed over every row, and the
    # second partials of v^2.  A root of t alone, or a bare variable, is
    # a fresh array of the slots' shape.  slot_tables keeps the floats.
    const = constant_lagrangian(0.5)
    square = make_lagrangian("v^2")
    roots, masks = _tables(const, [0.0, 1.0], [[1.0, 2.0]] * 3, [[3.0, -4.0]] * 3)
    assert roots == (0.5, 0.0, 0.0, 0.0, 0.0, 0.0) and masks is None
    assert all(type(x) is float for x in roots)
    assert _tables(square, [0.0, 1.0], [1.0, 2.0], [3.0, -4.0])[0][3:] == (0.0, 0.0, 2.0)
    t, u, v = np.array([0.0, 1.0]), np.array([[1.0, 2.0]] * 2), np.array([[3.0, -4.0]] * 2)
    for lag, root in ((make_lagrangian("t*v"), t), (make_lagrangian("u*v"), u)):
        d_v = DeltaNablaFunctional(lag, const)._kernel(v, t, u, t, u)[0][2]
        assert d_v.shape == v.shape and d_v.flags.c_contiguous and d_v.flags.writeable
        assert not np.shares_memory(d_v, root)
        assert np.array_equal(d_v, np.broadcast_to(root, v.shape))
    y = GridFunction(TimeScale(np.array([0.0, 0.5, 2.0, 2.25])), np.array([1.0, -2.0, 0.5, 3.0]))
    tab = slot_tables(DeltaNablaFunctional(const, square), y)
    assert (tab.delta_du, tab.delta_dv, tab.nabla_uu, tab.nabla_vv) == (0.0, 0.0, 0.0, 2.0)
    assert all(isinstance(x, float) for x in (tab.delta_du, tab.nabla_vv, tab.j_delta))
    assert tab.j_delta == 1.125  # 0.5 * (0.5 + 1.5 + 0.25)
    (stacked,), errors = system_tables((DeltaNablaFunctional(const, square),), y.scale.points,
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
    walk = functional_module.evaluate

    def counting(*args):
        calls.append(1)
        return walk(*args)

    monkeypatch.setattr(functional_module, "evaluate", counting)
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
    (value, du, dv, *_), _ = _tables(lag, [0.0], [1.0], [1.0])
    assert dv == -0.0 and isinstance(dv, float)  # a constant root
    assert [math.copysign(1.0, x) for x in (value[0], du[0], dv)] == [-1.0, 1.0, -1.0]


def test_long_sum_compiles_without_nesting():
    text = " + ".join(["v"] * 300)
    lag = make_lagrangian(text)
    y = GridFunction(TimeScale(np.arange(4.0)), np.array([0.0, 1.0, 3.0, 2.0]))
    _check_against_walk(DeltaNablaFunctional(lag, make_lagrangian(text + " + u")), y)
    assert _tables(lag, [0.0], [0.0], [1.5])[0][0].tolist() == [evaluate(lag.value, 0.0, 0.0, 1.5)]


def test_same_shape_shares_code_objects():
    # Functionals whose trees differ only in their constants, the sign of
    # a coefficient included, compile to one code object; another shape
    # compiles to its own.
    a = make_lagrangian("v^2 + 0.25*u*v + sin(t)")
    b = make_lagrangian("v^2 + -0.75*u*v + sin(t)")
    nabla = make_lagrangian("v^2 + u")
    kernels = [DeltaNablaFunctional(lag, nabla)._kernel for lag in (a, b)]
    assert kernels[0].__code__ is kernels[1].__code__
    assert DeltaNablaFunctional(a, a)._kernel.__code__ is not kernels[0].__code__
    assert _tables(a, [1.0], [2.0], [3.0])[0][0] != _tables(b, [1.0], [2.0], [3.0])[0][0]


def test_problem_pickles_after_a_solve():
    # A solve compiles one kernel per functional, which a pickled or
    # copied problem leaves behind and builds again on first use.
    p = example_problem(4)
    opts = SolverOptions(multistart=0)
    first = solve_normal(p, opts)
    for functional in (p.objective, p.constraint):
        assert [name for name in vars(functional) if "kernel" in name] == ["_kernel"]
        for lag in (functional.l_delta, functional.l_nabla):
            assert not [name for name in vars(lag) if "kernel" in name]
    for clone in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert "_kernel" not in vars(clone.objective) and "_kernel" not in vars(clone.constraint)
        again = solve_normal(clone, opts)
        assert np.array_equal(again.y.values, first.y.values)
        assert again.lam == first.lam


def test_trees_the_compiler_does_not_cover_raise_naming_the_node():
    # Hand-built nodes the parser never makes: an int constant and a
    # float exponent (its d_vv is the int Const(3) as well).  Compiling
    # them raises a ValueError that names the node, at every use of the
    # kernel: the kernel itself, slot_tables and eval_functional.
    v = Var("v")
    lag = Lagrangian(Pow(Mul(Const(3), v), 2.0), Const(0), Mul(Const(3), v))
    y = GridFunction(TimeScale(np.arange(3.0)), np.array([0.0, 1.0, 3.0]))
    functional = DeltaNablaFunctional(lag, lag)
    uses = (lambda: _tables(lag, [0.0], [0.0], [1.0]), lambda: slot_tables(functional, y),
            lambda: eval_functional(functional, y))
    node = r"^no kernel for Pow\(base=Mul\(left=Const\(value=3\)"
    for use in uses:
        with pytest.raises(ValueError, match=node):
            use()
