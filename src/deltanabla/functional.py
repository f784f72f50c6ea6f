"""Product functionals of a delta and a nabla integral, and their
stationarity residuals.

A functional here is J(y) = (sum of L_delta(t, y_sigma, y_delta) * mu)
* (sum of L_nabla(t, y_rho, y_nabla) * nu).  Stationarity of such a
product under fixed boundary values is equivalent to a bracket
expression being constant in t; this module evaluates that bracket
pointwise (two index conventions, EL1 and EL2), reports its departure
from constancy (the defect), and combines brackets of an objective and
a constraint with multipliers (lambda0, lambda) for constrained
stationarity checks.

Both integrands of a functional are evaluated over whole slot arrays by
its one compiled numpy kernel, which overflows to inf or NaN silently,
reads NaN and marks the slots where expressions.evaluate raises.
system_tables, the one function that runs the kernels, alone reads
those marks: it names each undefined row by one evaluate() call and,
for a stack of functions, reads NaN in those rows.  The oracle computes
its factors on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Literal

import numpy as np

from .expressions import Const, EvaluationError, Lagrangian, compile_kernel, evaluate
from .timescale import GridFunction, TimeScale

Form = Literal["EL1", "EL2"]

EL1: Form = "EL1"
EL2: Form = "EL2"

DEFAULT_TOL = 1e-8
"""Default absolute tolerance on the constancy defect."""


@dataclass(frozen=True)
class DeltaNablaFunctional:
    """Pair of integrands: l_delta feeds the forward (delta) integral
    with slots (t, y_sigma, y_delta); l_nabla feeds the backward (nabla)
    integral with slots (t, y_rho, y_nabla).  _kernel, the compiled kernel
    of both sides' six trees, is built on first use and not pickled."""

    l_delta: Lagrangian
    l_nabla: Lagrangian

    @cached_property
    def _kernel(self) -> Callable:
        lags = (self.l_delta, self.l_nabla)
        return compile_kernel(tuple((lag.value, lag.d_u, lag.d_v, *lag.second) for lag in lags))

    @cached_property
    def _terms(self) -> tuple[bool, bool]:
        """SlotTables.terms: the band unless every second partial folds to 0.0,
        the rank-2 term unless a side's d_u and d_v do (its factor gradient is 0)."""
        lags, zero = (self.l_delta, self.l_nabla), Const(0.0)
        return (any(e != zero for lag in lags for e in lag.second),
                all((lag.d_u, lag.d_v) != (zero, zero) for lag in lags))

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_kernel"}


@dataclass(frozen=True)
class EvaluationBreakdown:
    """Functional value split into its two integral factors."""

    delta_factor: float
    nabla_factor: float
    product: float


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise residual of a "bracket = const" condition.

    The residual grid function lives on the sub-scale where the chosen
    form applies: all points but the maximum for EL2, all but the
    minimum for EL1.  defect = max - min measures departure from
    constancy; constant_estimate is the mean.
    """

    form: Form
    residual: GridFunction
    defect: float
    constant_estimate: float


@dataclass(frozen=True)
class ExtremalCheck:
    """Outcome of testing whether y makes a functional's bracket constant."""

    is_extremal: bool
    el1: ResidualReport
    el2: ResidualReport


Column = np.ndarray | float

COLUMNS = tuple(f"{s}_{p}" for s in ("delta", "nabla") for p in ("du", "dv", "uu", "uv", "vv"))
"""The names of the ten SlotTables columns, in field order."""
_CHUNK = 2**20  # entries of each (n, n) stack that hessian_into holds at a time


@dataclass
class SlotTables:
    """A product functional at one function (values, a bare array), or
    at each row of a (rows, N) stack of them on one scale: the partials
    of its integrands on the two slot sequences, the two factors, and
    what is read from them: the value, the factors' gradients
    (grad_delta, grad_nabla), the gradient in the interior values
    (grad), the breakdown, the Hessians (hessian) and the bracket
    (tables_bracket).

    Delta entries are indexed by the left point of each gap
    (positions 0..N-2), nabla entries by the right point
    (positions 1..N-1, stored at array offset 0..N-2).  weights holds
    the gap widths, which serve as both mu and nu.  A column whose tree
    is a constant is that float, which numpy broadcasts like the array
    it stands for; every other column is an array of its own.  A second
    partial that is undefined at a slot where the value and first
    partials are defined reads NaN there.  A stack has a (rows, N-1)
    array for each column that is not constant and the factors as
    (rows, 1) columns; every row's numbers are those of its function
    alone; terms, the Hessian terms its functional can make non-zero.

    Each interior value y_j enters two delta slots (as shifted value and
    in two difference quotients) and two nabla slots, and the product
    rule gives grad = J_nabla * grad_delta + J_delta * grad_nabla.  The
    value and the gradients are computed together (_derive), with
    numpy's overflow warnings off, by system_tables or on first read, so
    that tables read only for their bracket never compute them.
    """

    values: np.ndarray
    weights: np.ndarray
    delta_du: Column
    delta_dv: Column
    delta_uu: Column
    delta_uv: Column
    delta_vv: Column
    nabla_du: Column
    nabla_dv: Column
    nabla_uu: Column
    nabla_uv: Column
    nabla_vv: Column
    j_delta: float | np.ndarray
    j_nabla: float | np.ndarray
    terms: tuple[bool, bool] = (True, True)

    @cached_property
    def _derived(self) -> tuple[float | np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The value, grad_delta, grad_nabla and grad, computed together
        on the first read of any of them (one error state for all)."""
        shape = self.values[..., 1:].shape
        first = [np.broadcast_to(getattr(self, c), shape) for c in COLUMNS[:2] + COLUMNS[5:7]]
        with np.errstate(over="ignore", invalid="ignore"):
            return _derive(self.weights, first, (self.j_delta, self.j_nabla))

    value = property(lambda self: self._derived[0])
    grad_delta = property(lambda self: self._derived[1])
    grad_nabla = property(lambda self: self._derived[2])
    grad = property(lambda self: self._derived[3])

    def rows(self, index: int | list[int]) -> SlotTables:
        """The given rows of a stack: a list of rows stays a stack, one
        row gives its function's tables.  The gradients the stack has
        computed are sliced, not computed again; gradients the stack has
        not computed are left to the first read."""
        columns = [
            c if isinstance(c, float) else c[index]
            for c in (getattr(self, name) for name in COLUMNS)
        ]
        j_delta, j_nabla = self.j_delta[index], self.j_nabla[index]
        if isinstance(index, int):
            j_delta, j_nabla = float(j_delta[0]), float(j_nabla[0])
        tab = SlotTables(self.values[index], self.weights, *columns, j_delta, j_nabla, self.terms)
        if "_derived" in self.__dict__:
            value, *grads = self._derived
            value = j_delta * j_nabla if isinstance(index, int) else value[index]
            tab.__dict__["_derived"] = (value, *(g[index] for g in grads))
        return tab

    def breakdown(self) -> EvaluationBreakdown:
        """The factors and their product, the value's bits, without the
        gradients that a read of value computes."""
        with np.errstate(over="ignore", invalid="ignore"):
            return EvaluationBreakdown(self.j_delta, self.j_nabla, self.j_delta * self.j_nabla)

    def hessian(self, rows: list[int]) -> np.ndarray:
        """Exact Hessians in the interior values of the given rows of a
        stack (an increasing list), stacked (see hessian_into)."""
        n = self.weights.size - 1
        h = np.empty((len(rows), n, n))
        hessian_into(h, (self,), rows)
        return h


def _derive(w: np.ndarray, first, factors) -> tuple:
    """The value, grad_delta, grad_nabla and grad from the d_u and d_v
    columns of either side and the two factors, of one table or stacked
    for several (one pass for all); callers silence overflow."""
    (du, dv, nu, nv), (jd, jn) = first, factors
    gd = du[..., :-1] * w[:-1] + dv[..., :-1] - dv[..., 1:]
    gn = nu[..., 1:] * w[1:] - nv[..., 1:] + nv[..., :-1]
    return jd * jn, gd, gn, jn * gd + jd * gn


def hessian_into(
    out: np.ndarray, tabs: tuple[SlotTables, ...], rows: list[int], lam: np.ndarray | None = None
) -> None:
    """Write into the leading (S, n, n) block of out, a C-contiguous
    (S, m, m) stack, the exact Hessians in the interior values at the
    given rows (an increasing list) of the stack tabs[0], or with lam,
    an (S, 1, 1) array, those of tabs[0] less lam times those of tabs[1]
    (stacks on one scale).  Each is J_nabla * H_delta + J_delta *
    H_nabla, which is tridiagonal (gap i's integrand sees y_i and
    y_(i+1) only, through u and v = (y_(i+1) - y_i) / w_i), plus the
    rank-2 grad_delta grad_nabla^T + its transpose, each only where the
    table's functional can make it non-zero (SlotTables.terms): a term
    left out is zero where the factors and gradients are finite, as at
    every Newton iterate.  One pass gives the bands; the matrices are
    assembled _CHUNK entries at a time, so that besides out no (S, n, n)
    stack is alive.
    """
    n = tabs[0].weights.size - 1
    bands: dict = {}
    if banded := [f for f, tab in enumerate(tabs) if tab.terms[0]]:
        # Every operand at its full shape: numpy broadcasts small arrays slowly.
        columns = np.empty((9, len(banded), *tabs[0].values[..., 1:].shape))
        for k, name in enumerate(COLUMNS[2:5] + COLUMNS[7:] + ("j_delta", "j_nabla", "weights")):
            for b, f in enumerate(banded):
                columns[k, b] = getattr(tabs[f], name)
        uu, uv, vv, n_uu, n_uv, n_vv, jd, jn, w = columns
        d_vv, n_vv = vv / w, n_vv / w
        left = jn * d_vv + jd * (n_uu * w - 2.0 * n_uv + n_vv)
        cross = jn * -(uv + d_vv) + jd * (n_uv - n_vv)
        right = jn * (uu * w + 2.0 * uv + d_vv) + jd * n_vv
        diagonal, off = right[..., :-1] + left[..., 1:], cross[..., 1:-1]
        bands = {f: (_take(d, rows), _take(o, rows)) for f, d, o in zip(banded, diagonal, off)}
    grads = [(_take(t.grad_delta, rows), _take(t.grad_nabla, rows)) if t.terms[1] else None
             for t in tabs]
    step = max(1, _CHUNK // (n * n))
    for i in range(0, len(rows), step):
        part, r, block = slice(i, i + step), None, out[i : i + step, :n, :n]
        for f, grad in [(f, g) for f, g in enumerate(grads) if f == 0 or any(tabs[f].terms)]:
            h = np.empty(block.shape) if f else block
            if grad is None:
                h[...] = 0.0
            else:
                r = np.multiply(grad[0][part, :, None], grad[1][part, None, :], out=r)
                np.add(r, np.swapaxes(r, 1, 2), out=h)
            if f in bands:
                _band(h if f else out[part], n, *(x[part] for x in bands[f]))
            if f:
                h *= lam[part]
                block -= h


def _band(m: np.ndarray, n: int, diagonal: np.ndarray, off: np.ndarray) -> None:
    """Add a diagonal and, above and below it, off to the leading
    (S, n, n) block of a C-contiguous (S, k, k) stack m."""
    k = m.shape[-1]
    flat = m.reshape(len(m), k * k)
    flat[:, : n * (k + 1) : k + 1] += diagonal
    flat[:, 1 : (n - 1) * (k + 1) : k + 1] += off
    flat[:, k : k + (n - 1) * (k + 1) : k + 1] += off


def _take(stack: np.ndarray, rows: list[int]) -> np.ndarray:
    """The given rows of a stack, an increasing list of them.  All rows
    are the stack itself and one row a view, not a copy."""
    if len(rows) == len(stack):
        return stack
    if len(rows) == 1:
        return stack[rows[0] : rows[0] + 1]
    return stack[rows]


def slot_tables(functional: DeltaNablaFunctional, y: GridFunction) -> SlotTables:
    """Evaluate both integrands and their partials on every slot of y.
    Where a value or first partial is undefined, the EvaluationError of
    the first such slot (see system_tables) is raised; a second partial
    reads NaN where it alone is undefined."""
    (tab,), errors = system_tables((functional,), y.scale.points, y.values)
    if errors:
        raise EvaluationError(errors[0])
    return tab


def system_tables(
    functionals: tuple[DeltaNablaFunctional, ...], points: np.ndarray, values: np.ndarray,
    trees: int = 3, derive: bool = False,
) -> tuple[tuple[SlotTables, ...], dict[int, str]]:
    """The slot tables of each functional at one function on the points
    of a scale, or stacked (see SlotTables) for a (rows, N) stack, not
    checked, and {row: message} for each row (0 for one function) where
    a functional is undefined (_undefined), the first one's message; in
    a stack, its columns and factors read NaN in that row.  Each kernel
    runs once, one accumulate sums every factor (each row's value * dt,
    left to right from 0.0) and, with derive, one pass gives every value
    and gradient of a stack; each row's numbers are its function's."""
    if not functionals:
        return (), {}
    with np.errstate(over="ignore", invalid="ignore"):
        dt = points[1:] - points[:-1]  # np.diff's arithmetic, without its call overhead
        quot = (values[..., 1:] - values[..., :-1]) / dt  # each gap's difference quotient
        sides = points[:-1], values[..., 1:], points[1:], values[..., :-1]
        runs = [f._kernel(quot, *sides) for f in functionals]
        first = np.empty((6, len(runs), *quot.shape))  # value, d_u and d_v of either side
        for f, (columns, _) in enumerate(runs):
            for k, column in enumerate(columns[:3] + columns[6:9]):
                first[k, f] = column
        # Adding 0.0 turns the -0.0 of a row of negative zeros into 0.0.
        factors = np.add.accumulate(first[::3] * dt, axis=-1)[..., -1:] + 0.0
        tabs, errors = [], {}
        for f, (func, (columns, masks)) in enumerate(zip(functionals, runs)):
            bad = {} if masks is None else _undefined(func, points, values, quot, masks, trees)
            if bad and values.ndim == 2:
                columns = [np.full(quot.shape, c) if isinstance(c, float) else c for c in columns]
                for c in (*columns, first[:, f], factors[:, f]):
                    c[..., list(bad), :] = np.nan
            j = factors[:, f] if values.ndim == 2 else factors[:, f, 0].tolist()
            terms = (True, True) if bad else func._terms  # an undefined row's Hessian is NaN
            tabs.append(SlotTables(values, dt, *columns[1:6], *columns[7:], *j, terms))
            errors = bad | errors
        if derive:
            value, *grads = _derive(dt, (first[1], first[2], first[4], first[5]), factors)
            for f, tab in enumerate(tabs):
                tab.__dict__["_derived"] = (value[f], grads[0][f], grads[1][f], grads[2][f])
    return tuple(tabs), errors


def _undefined(
    functional: DeltaNablaFunctional, points: np.ndarray, values: np.ndarray,
    quot: np.ndarray, masks: np.ndarray, trees: int,
) -> dict[int, str]:
    """{row: message} of the rows where the functional's kernel masks a
    value or, unless trees is 1, a first partial: the message of the
    EvaluationError of evaluate() at the row's first such (slot, tree),
    in the order of a walk slot by slot, at each slot value, d_u and d_v
    of the delta side before those of the nabla side."""
    ld, ln = functional.l_delta, functional.l_nabla
    # (rows, slot-major (slot, side, tree)) marks of the trees that count
    marks = np.concatenate((masks[:trees], masks[6 : 6 + trees]))
    marks = np.moveaxis(marks, 0, -1).reshape(-1, 2 * trees * quot.shape[-1])
    rows, quots = values.reshape(len(marks), -1), quot.reshape(len(marks), -1)
    errors = {}
    with np.errstate(all="ignore"):
        for row in np.flatnonzero(marks.any(axis=1)).tolist():
            slot, k = divmod(int(np.argmax(marks[row])), 2 * trees)
            side, tree = divmod(k, trees)
            lag, v, q = (ld, ln)[side], rows[row], quots[row][slot]
            at = (points[slot], v[slot + 1], q) if side == 0 else (points[slot + 1], v[slot], q)
            try:
                evaluate((lag.value, lag.d_u, lag.d_v)[tree], *at)
            except EvaluationError as exc:
                errors[row] = str(exc)
    return errors


def tables_or_nan(
    functional: DeltaNablaFunctional, points: np.ndarray, values: np.ndarray
) -> SlotTables:
    """The slot tables of one function whose every column, factor,
    gradient and bracket reads NaN where its integrands are undefined
    (see system_tables); numpy's warnings on the way to inf or NaN are
    silenced."""
    with np.errstate(all="ignore"):
        return system_tables((functional,), points, values[None])[0][0].rows(0)


def eval_functional(
    functional: DeltaNablaFunctional, y: GridFunction
) -> EvaluationBreakdown:
    """Value of the product functional, with both factors reported.

    The factors are the slot tables' (system_tables).  Only the value
    trees decide the domain: a partial undefined alone (sqrt(u) at
    u = 0) changes nothing, and the EvaluationError names the first
    slot where an integrand is undefined.  Overflow is silent.
    """
    (tab,), errors = system_tables((functional,), y.scale.points, y.values, trees=1)
    if errors:
        raise EvaluationError(errors[0])
    return tab.breakdown()


def bracket_values(
    functional: DeltaNablaFunctional, y: GridFunction
) -> np.ndarray:
    """Raw stationarity bracket, one value per gap of the scale (see
    tables_bracket)."""
    return tables_bracket(slot_tables(functional, y))


def tables_bracket(tab: SlotTables) -> np.ndarray:
    """The stationarity bracket from the slot tables of y.

    Entry i combines the delta bracket at point i with the nabla
    bracket at point i+1:

        J_nabla * (d3 L_delta(i) - sum_{j<i} d2 L_delta(j) mu_j)
        + J_delta * (d3 L_nabla(i+1) - sum_{1<=j<=i+1} d2 L_nabla(j) nu_j)

    Read on points 0..N-2 this is the EL2 residual; the EL1 residual is
    the same array read on points 1..N-1.  The inner sums are prefix
    sums computed once.  Overflow to inf or NaN is silent.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        delta_prefix = np.concatenate(([0.0], np.cumsum(tab.delta_du * tab.weights)))
        delta_bracket = tab.delta_dv - delta_prefix[:-1]
        nabla_prefix = np.cumsum(tab.nabla_du * tab.weights)
        nabla_bracket = tab.nabla_dv - nabla_prefix
        return tab.j_nabla * delta_bracket + tab.j_delta * nabla_bracket


def bracket_defect(values: np.ndarray) -> float:
    """Departure of a bracket array from constancy: max - min."""
    return float(np.max(values) - np.min(values))


def _report(values: np.ndarray, points: np.ndarray, form: Form) -> ResidualReport:
    i = int(np.argmin(np.isfinite(values)))  # an overflowed bracket's first non-finite entry
    if not np.isfinite(values[i]):
        raise EvaluationError(f"{form} residual is {float(values[i])!r} at t={float(points[i])!r}")
    residual = GridFunction(TimeScale(points), values)
    return ResidualReport(
        form=form,
        residual=residual,
        defect=bracket_defect(values),
        constant_estimate=float(np.mean(values)),
    )


def _form_points(scale: TimeScale, form: Form) -> np.ndarray:
    if form == EL2:
        return scale.points[:-1]
    if form == EL1:
        return scale.points[1:]
    raise ValueError(f"unknown residual form {form!r}")


def el_residual(
    functional: DeltaNablaFunctional, y: GridFunction, form: Form
) -> ResidualReport:
    """Stationarity residual of a single functional in the given form."""
    if len(y) < 3:
        raise ValueError("residual evaluation needs at least 3 points")
    points = _form_points(y.scale, form)
    return _report(bracket_values(functional, y), points, form)


def iso_bracket(
    objective: DeltaNablaFunctional,
    constraint: DeltaNablaFunctional,
    y: GridFunction,
    lambda0: float,
    lam: float,
) -> np.ndarray:
    """Combined bracket lambda0 * B_obj - lam * B_con, one value per gap,
    read like bracket_values in either form; overflow is silent."""
    for name, value in (("lambda0", lambda0), ("lambda", lam)):
        if not np.isfinite(value):
            raise ValueError(f"multiplier {name} must be finite, got {value!r}")
    if lambda0 == 0.0 and lam == 0.0:
        raise ValueError("multipliers (lambda0, lambda) must not both be zero")
    if len(y) < 3:
        raise ValueError("residual evaluation needs at least 3 points")
    b_obj, b_con = bracket_values(objective, y), bracket_values(constraint, y)
    with np.errstate(over="ignore", invalid="ignore"):
        return lambda0 * b_obj - lam * b_con


def iso_residual(
    objective: DeltaNablaFunctional,
    constraint: DeltaNablaFunctional,
    y: GridFunction,
    lambda0: float,
    lam: float,
    form: Form,
) -> ResidualReport:
    """Constrained stationarity residual lambda0 * R_obj - lam * R_con.

    The combination is taken pointwise at each t, so the report's
    defect measures constancy of the combined bracket, not a difference
    of separate defects.
    """
    points = _form_points(y.scale, form)
    return _report(iso_bracket(objective, constraint, y, lambda0, lam), points, form)


def is_extremal_for_K(
    constraint: DeltaNablaFunctional, y: GridFunction, tol: float = DEFAULT_TOL
) -> ExtremalCheck:
    """Whether y makes the constraint's bracket constant.

    Both residual forms read the one bracket array, so they share
    their defect and the verdict.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if len(y) < 3:
        raise ValueError("residual evaluation needs at least 3 points")
    values = bracket_values(constraint, y)
    el1, el2 = (_report(values, _form_points(y.scale, form), form) for form in (EL1, EL2))
    return ExtremalCheck(el1.defect <= tol, el1, el2)
