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

The integrands are evaluated over whole slot arrays by each
Lagrangian's compiled numpy kernel, for the slot tables and for
eval_functional alike; it overflows to inf or NaN silently, reads NaN
and marks the slots where expressions.evaluate raises, and _factor sums
every factor.  row_tables, the one function that runs the kernels,
alone reads those marks: it names each undefined row by one evaluate()
call at its first undefined slot and, for a stack of functions, reads
NaN in those rows.  The oracle computes its factors on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from .expressions import EvaluationError, Lagrangian, evaluate
from .timescale import GridFunction, TimeScale

Form = Literal["EL1", "EL2"]

EL1: Form = "EL1"
EL2: Form = "EL2"

DEFAULT_TOL = 1e-8
"""Default absolute tolerance on the constancy defect."""


@dataclass(frozen=True)
class DeltaNablaFunctional:
    """Pair of integrands: l_delta feeds the forward (delta) integral
    with slots (t, y_sigma, y_delta); l_nabla feeds the backward
    (nabla) integral with slots (t, y_rho, y_nabla)."""

    l_delta: Lagrangian
    l_nabla: Lagrangian


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

COLUMNS = tuple(
    f"{side}_{part}"
    for side in ("delta", "nabla")
    for part in ("du", "dv", "uu", "uv", "vv")
)
"""The names of the ten SlotTables columns, in field order."""

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
    alone.

    Each interior value y_j enters two delta slots (as shifted value and
    in two difference quotients) and two nabla slots, and the product
    rule gives grad = J_nabla * grad_delta + J_delta * grad_nabla.  The
    value and the gradients are computed together (_derived) on the
    first read of any of them, with numpy's overflow and invalid-value
    warnings off, so that tables read only for their bracket never
    compute them.
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

    @cached_property
    def _derived(self) -> tuple[float | np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The value, grad_delta, grad_nabla and grad, computed together
        on the first read of any of them (one error state for all)."""
        w = self.weights
        (du, _), (dv, dv_next) = _ends(self.delta_du), _ends(self.delta_dv)
        (_, nu), (nv_prev, nv) = _ends(self.nabla_du), _ends(self.nabla_dv)
        with np.errstate(over="ignore", invalid="ignore"):
            gd = du * w[:-1] + dv - dv_next
            gn = nu * w[1:] - nv + nv_prev
            return self.j_delta * self.j_nabla, gd, gn, self.j_nabla * gd + self.j_delta * gn

    value = property(lambda self: self._derived[0])
    grad_delta = property(lambda self: self._derived[1])
    grad_nabla = property(lambda self: self._derived[2])
    grad = property(lambda self: self._derived[3])

    def rows(self, index: int | list[int]) -> SlotTables:
        """The given rows of a stack: a list of rows stays a stack, one
        row gives its function's tables.  The gradients the stack has
        computed are sliced, not computed again, and a factor's gradient
        that is one row for the whole stack stays shared; gradients the
        stack has not computed are left to the first read."""
        columns = [
            c if isinstance(c, float) else c[index]
            for c in (getattr(self, name) for name in COLUMNS)
        ]
        j_delta, j_nabla = self.j_delta[index], self.j_nabla[index]
        if isinstance(index, int):
            j_delta, j_nabla = float(j_delta[0]), float(j_nabla[0])
        tab = SlotTables(self.values[index], self.weights, *columns, j_delta, j_nabla)
        if "_derived" in self.__dict__:
            value, *grads = self._derived
            value = j_delta * j_nabla if isinstance(index, int) else value[index]
            tab.__dict__["_derived"] = (value, *(g if g.ndim == 1 else g[index] for g in grads))
        return tab

    def breakdown(self) -> EvaluationBreakdown:
        """The factors and their product, the value's bits, without the
        gradients that a read of value computes."""
        with np.errstate(over="ignore", invalid="ignore"):
            return EvaluationBreakdown(self.j_delta, self.j_nabla, self.j_delta * self.j_nabla)

    def hessian(self, rows: list[int]) -> np.ndarray:
        """Exact Hessians in the interior values of the given rows of a
        stack (an increasing list), stacked: J_nabla * H_delta + J_delta
        * H_nabla, which is tridiagonal, plus the rank-2 grad_delta
        grad_nabla^T + its transpose.

        Gap i's integrand sees its end values y_i, y_(i+1) only through
        u (y_(i+1) on the delta side, y_i on the nabla side) and
        v = (y_(i+1) - y_i) / w_i, so each gap adds a 2x2 block of
        weighted second partials; interior point j is the right end of
        gap j-1 and the left end of gap j.
        """
        w = self.weights
        d_vv = self.delta_vv / w
        n_vv = self.nabla_vv / w
        jd, jn = self.j_delta, self.j_nabla
        left = jn * d_vv + jd * (self.nabla_uu * w - 2.0 * self.nabla_uv + n_vv)
        cross = jn * -(self.delta_uv + d_vv) + jd * (self.nabla_uv - n_vv)
        right = jn * (self.delta_uu * w + 2.0 * self.delta_uv + d_vv) + jd * n_vv
        n = w.size - 1
        diagonal = _take(right, rows)[:, :-1] + _take(left, rows)[:, 1:]
        off = _take(cross, rows)[:, 1:-1]
        # A factor's gradient is one row, the same for every row of the
        # stack, when its d_u and d_v are constants.
        gd, gn = (g if g.ndim == 1 else _take(g, rows) for g in (self.grad_delta, self.grad_nabla))
        rank2 = gd[..., :, None] * gn[..., None, :]
        h = rank2 + np.swapaxes(rank2, -1, -2)
        if h.ndim == 2:
            h = np.repeat(h[None], len(diagonal), axis=0)
        flat = h.reshape(len(diagonal), n * n)
        flat[:, :: n + 1] += diagonal
        flat[:, 1 :: n + 1] += off
        flat[:, n :: n + 1] += off
        return h


def _ends(column: Column) -> tuple[Column, Column]:
    """A column's slots but the last and its slots but the first (of
    every row); a constant stands for all of them."""
    return (column, column) if isinstance(column, float) else (column[..., :-1], column[..., 1:])


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
    the first such slot (see row_tables) is raised; a second partial
    reads NaN where it alone is undefined."""
    tab, errors = row_tables(functional, y.scale.points, y.values)
    if errors:
        raise EvaluationError(errors[0])
    return tab


def _slots(points: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Gap widths and the difference quotient of every gap (of every row
    of a stack of values); callers silence overflow."""
    dt = points[1:] - points[:-1]  # np.diff's arithmetic, without its call overhead
    return dt, (values[..., 1:] - values[..., :-1]) / dt


def row_tables(
    functional: DeltaNablaFunctional, points: np.ndarray, values: np.ndarray, trees: int = 3
) -> tuple[SlotTables, dict[int, str]]:
    """The slot tables of one function on the points of a scale, or
    stacked (see SlotTables) for a (rows, N) stack of them, neither
    checked, and {row: message} for each row (0 for one function) where
    the value or, unless trees is 1, a first partial is undefined on
    either side.  One compiled kernel per integrand fills all its
    columns for all rows, each row's numbers those of a pass over it
    alone, and _factor sums the value columns.  Every column and factor
    of an undefined row of a stack reads NaN; elsewhere a tree reads NaN
    where it is undefined.

    The message is that of the EvaluationError of evaluate() at the
    row's first undefined (slot, tree), in the order of a walk slot by
    slot, at each slot value, d_u and d_v of the delta side before those
    of the nabla side."""
    ld, ln = functional.l_delta, functional.l_nabla
    with np.errstate(over="ignore", invalid="ignore"):
        dt, quot = _slots(points, values)
        (delta_value, *delta), delta_masks = ld.tables(points[:-1], values[..., 1:], quot)
        (nabla_value, *nabla), nabla_masks = ln.tables(points[1:], values[..., :-1], quot)
        factors = _factor(delta_value, dt, quot.shape), _factor(nabla_value, dt, quot.shape)
        tab = SlotTables(values, dt, *delta, *nabla, *factors)
    if delta_masks is None and nabla_masks is None:
        return tab, {}
    # (rows, slot-major (slot, side, tree)) marks of the trees that count
    marks = np.concatenate([
        np.zeros((trees, *quot.shape), bool) if m is None else m[:trees]
        for m in (delta_masks, nabla_masks)
    ])
    marks = np.moveaxis(marks, 0, -1).reshape(-1, 2 * trees * dt.size)
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
    if errors and values.ndim == 2:
        for name in (*COLUMNS, "j_delta", "j_nabla"):
            column = getattr(tab, name)
            if isinstance(column, float):
                column = np.full(quot.shape, column)
                setattr(tab, name, column)
            column[list(errors)] = np.nan
    return tab, errors


def tables_or_nan(
    functional: DeltaNablaFunctional, points: np.ndarray, values: np.ndarray
) -> SlotTables:
    """The slot tables of one function whose every column, factor,
    gradient and bracket reads NaN where its integrands are undefined
    (see row_tables); numpy's warnings on the way to inf or NaN are
    silenced."""
    with np.errstate(all="ignore"):
        return row_tables(functional, points, values[None])[0].rows(0)


def _factor(value: Column, dt: np.ndarray, shape: tuple[int, ...]) -> float | np.ndarray:
    """The factor of an integrand's value column over slots of the given
    shape: each row's sum of value * dt, left to right from 0.0, a float
    for one function and a (rows, 1) array for a stack.  Adding 0.0 to
    accumulate's last entry turns the -0.0 of a row of negative zeros
    into 0.0 and changes nothing else; callers silence overflow."""
    products = np.multiply(value, dt, out=np.empty(shape))
    total = np.add.accumulate(products, axis=-1)[..., -1:] + 0.0
    return float(total[0]) if len(shape) == 1 else total


def eval_functional(
    functional: DeltaNablaFunctional, y: GridFunction
) -> EvaluationBreakdown:
    """Value of the product functional, with both factors reported.

    The factors are the slot tables' (row_tables).  Only the value
    trees decide the domain: a partial undefined alone (sqrt(u) at
    u = 0) changes nothing, and the EvaluationError names the first
    slot where an integrand is undefined.  Overflow is silent.
    """
    tab, errors = row_tables(functional, y.scale.points, y.values, trees=1)
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
