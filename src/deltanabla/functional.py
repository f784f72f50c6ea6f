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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .expressions import Expr, Lagrangian, evaluate
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


@dataclass(frozen=True)
class SlotTables:
    """Integrand and partial values on the two slot sequences.

    Delta entries are indexed by the left point of each gap
    (positions 0..N-2), nabla entries by the right point
    (positions 1..N-1, stored at array offset 0..N-2).  weights holds
    the gap widths, which serve as both mu and nu.
    """

    weights: np.ndarray
    delta_value: np.ndarray
    delta_du: np.ndarray
    delta_dv: np.ndarray
    nabla_value: np.ndarray
    nabla_du: np.ndarray
    nabla_dv: np.ndarray
    j_delta: float
    j_nabla: float


def slot_tables(functional: DeltaNablaFunctional, y: GridFunction) -> SlotTables:
    """Evaluate both integrands and their partials on every slot of y."""
    return slot_tables_at(functional, y.scale.points, y.values)


def _slots(points: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Gap widths and the difference quotient of every gap."""
    dt = points[1:] - points[:-1]  # np.diff's arithmetic, without its call overhead
    return dt, (values[1:] - values[:-1]) / dt


def slot_tables_at(
    functional: DeltaNablaFunctional, points: np.ndarray, values: np.ndarray
) -> SlotTables:
    """slot_tables on bare arrays: the points of a scale and the values
    of a function on it, neither checked.

    The compiled kernels fill the tables and sum both factors left to
    right from 0.0 in the same pass; where their float arithmetic fails,
    the tree walk evaluates point by point and decides between an
    EvaluationError and numpy's inf.
    """
    dt, quot = _slots(points, values)
    ld = functional.l_delta
    ln = functional.l_nabla
    try:
        delta_args, nabla_args = _slot_lists(points, values, quot)
        w = dt.tolist()
        *delta, j_delta = ld.tables(*delta_args, w)
        *nabla, j_nabla = ln.tables(*nabla_args, w)
        d_val, d_du, d_dv, n_val, n_du, n_dv = (
            np.array(column, dtype=float) for column in (*delta, *nabla)
        )
    except (ArithmeticError, ValueError):
        d_val, d_du, d_dv, n_val, n_du, n_dv = _walk_columns(
            (ld.value, ld.d_u, ld.d_v), (ln.value, ln.d_u, ln.d_v), points, values, quot
        )
        j_delta = _left_sum(d_val, dt)
        j_nabla = _left_sum(n_val, dt)
    return SlotTables(
        weights=dt,
        delta_value=d_val,
        delta_du=d_du,
        delta_dv=d_dv,
        nabla_value=n_val,
        nabla_du=n_du,
        nabla_dv=n_dv,
        j_delta=float(j_delta),
        j_nabla=float(j_nabla),
    )


@dataclass(frozen=True)
class SlotCurvature:
    """Second partials of both integrands on the slots, indexed as in
    SlotTables."""

    delta_uu: np.ndarray
    delta_uv: np.ndarray
    delta_vv: np.ndarray
    nabla_uu: np.ndarray
    nabla_uv: np.ndarray
    nabla_vv: np.ndarray


def slot_curvature(
    functional: DeltaNablaFunctional, points: np.ndarray, values: np.ndarray
) -> SlotCurvature:
    """d_uu, d_uv and d_vv of both integrands on every slot, on bare
    arrays as slot_tables_at, with the same fallback to the walk."""
    _, quot = _slots(points, values)
    ld = functional.l_delta
    ln = functional.l_nabla
    try:
        delta_args, nabla_args = _slot_lists(points, values, quot)
        columns = [
            np.array(column, dtype=float)
            for column in (*ld.curvature(*delta_args), *ln.curvature(*nabla_args))
        ]
    except (ArithmeticError, ValueError):
        columns = _walk_columns(ld.second, ln.second, points, values, quot)
    return SlotCurvature(*columns)


def _slot_lists(
    t: np.ndarray, v: np.ndarray, quot: np.ndarray
) -> tuple[tuple[list, list, list], tuple[list, list, list]]:
    """The (t, u, v) slot sequences of the delta and the nabla side, as
    the kernels take them."""
    q = quot.tolist()
    return (t[:-1].tolist(), v[1:].tolist(), q), (t[1:].tolist(), v[:-1].tolist(), q)


def _walk_columns(
    delta_trees: tuple[Expr, ...],
    nabla_trees: tuple[Expr, ...],
    t: np.ndarray,
    v: np.ndarray,
    quot: np.ndarray,
) -> list[np.ndarray]:
    """Each tree walked on every slot of its side, slot by slot, the
    delta side's trees before the nabla side's."""
    trees = (*delta_trees, *nabla_trees)
    columns = [np.empty(quot.size) for _ in trees]
    for i in range(quot.size):
        args_d = (t[i], v[i + 1], quot[i])
        args_n = (t[i + 1], v[i], quot[i])
        for j, (column, tree) in enumerate(zip(columns, trees)):
            column[i] = evaluate(tree, *(args_d if j < len(delta_trees) else args_n))
    return columns


def _left_sum(values: np.ndarray, weights: np.ndarray) -> float:
    acc = 0.0
    for x, w in zip(values.tolist(), weights.tolist()):
        acc += x * w
    return acc


def eval_functional(
    functional: DeltaNablaFunctional, y: GridFunction
) -> EvaluationBreakdown:
    """Value of the product functional, with both factors reported.

    This is the reference tree walk: each factor is summed left to right
    from 0.0 over expressions.evaluate, never over the compiled kernels,
    so that the oracle, which sums with it, rests on no kernel.
    slot_tables reports the same factors, bit for bit, from the kernels.
    """
    t = y.scale.points
    v = y.values
    dt, quot = _slots(t, v)
    ld = functional.l_delta
    ln = functional.l_nabla
    j_delta = 0.0
    j_nabla = 0.0
    for i in range(dt.size):
        j_delta += ld(t[i], v[i + 1], quot[i]) * dt[i]
        j_nabla += ln(t[i + 1], v[i], quot[i]) * dt[i]
    j_delta, j_nabla = float(j_delta), float(j_nabla)
    return EvaluationBreakdown(j_delta, j_nabla, j_delta * j_nabla)


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
    sums computed once.
    """
    delta_prefix = np.concatenate(([0.0], np.cumsum(tab.delta_du * tab.weights)))
    delta_bracket = tab.delta_dv - delta_prefix[:-1]
    nabla_prefix = np.cumsum(tab.nabla_du * tab.weights)
    nabla_bracket = tab.nabla_dv - nabla_prefix
    return tab.j_nabla * delta_bracket + tab.j_delta * nabla_bracket


def bracket_defect(values: np.ndarray) -> float:
    """Departure of a bracket array from constancy: max - min."""
    return float(np.max(values) - np.min(values))


def _report(values: np.ndarray, points: np.ndarray, form: Form) -> ResidualReport:
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


def residual_pair(
    values: np.ndarray, scale: TimeScale
) -> tuple[ResidualReport, ResidualReport]:
    """EL1 and EL2 reports of one bracket array, read on their two
    subgrids of the scale.  Their defects are equal by construction."""
    return (
        _report(values, _form_points(scale, EL1), EL1),
        _report(values, _form_points(scale, EL2), EL2),
    )


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
    read like bracket_values in either form."""
    if lambda0 == 0.0 and lam == 0.0:
        raise ValueError("multipliers (lambda0, lambda) must not both be zero")
    if len(y) < 3:
        raise ValueError("residual evaluation needs at least 3 points")
    return lambda0 * bracket_values(objective, y) - lam * bracket_values(
        constraint, y
    )


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
    el1, el2 = residual_pair(bracket_values(constraint, y), y.scale)
    return ExtremalCheck(el1.defect <= tol, el1, el2)
