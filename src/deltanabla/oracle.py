"""Independent verification of solver output.

Everything here treats the functionals as black boxes, walking only
their value trees: the factors by one real walk over the N - 1 slots,
each sum correctly rounded (math.fsum; Shewchuk, Discrete Comput. Geom.
18, 1997), and gradients by the complex step Im J(y + i*h*e_j) / h at
h = 1e-30.  Each interior value enters only the two gaps around it, so
one complex walk of each value tree over those 2(N - 2) slots gives
every entry, in O(N), exact to rounding (Squire & Trapp, SIAM Review
40(1), 1998).  Nothing here reads the symbolic partials, the kernels or
the slot and factor code of the fast path.  The reports certify
stationarity in the plain finite-dimensional (KKT) sense, which on a
finite scale is the same statement as the bracket-constancy conditions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expressions import (
    Add, Call, Const, Div, EvaluationError, Expr, Mul, Neg, Pow, Sub, Var, to_str,
)
from .functional import DeltaNablaFunctional, bracket_defect, iso_bracket
from .solver import IsoperimetricProblem, _closed_form_y, example_problem
from .timescale import (
    GridFunction,
    TimeScale,
    delta_derivative,
    delta_integral,
    nabla_derivative,
    nabla_integral,
    shift,
)

_STEP = 1e-30
_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
# Where the math module raises on a real x, given out = f(x) in numpy.
_UNDEFINED = {
    "sin": lambda x, out: np.isinf(x),
    "cos": lambda x, out: np.isinf(x),
    "exp": lambda x, out: np.isinf(out) & np.isfinite(x),
    "log": lambda x, out: x <= 0.0,
    "sqrt": lambda x, out: x < 0.0,
}


@dataclass(frozen=True)
class KktReport:
    """Complex-step stationarity report at a candidate point.

    lambda_fit is the least-squares multiplier fitting
    grad(objective) ~ lambda * grad(constraint): 0.0 where the constraint
    gradient is exactly zero, NaN where the sum of its squares is NaN;
    residual_inf_norm uses the caller's multiplier, not the fitted one.
    """

    grad_objective: np.ndarray
    grad_constraint: np.ndarray
    lambda_fit: float
    residual_inf_norm: float
    feasibility_gap: float


@dataclass(frozen=True)
class CheckLine:
    """One named measurement compared against a bound."""

    name: str
    passed: bool
    measured: float
    bound: float


@dataclass(frozen=True)
class ExampleVerification:
    """Outcome of the end-to-end check of the built-in example."""

    m: int
    passed: bool
    lambda_fit: float
    checks: tuple[CheckLine, ...]


def fd_gradient(
    scalar_map: Callable[[GridFunction], float], y: GridFunction, h: float
) -> np.ndarray:
    """Central-difference gradient over the interior values of y."""
    if h <= 0.0:
        raise ValueError("step h must be positive")
    base = y.values
    grad = np.empty(len(base) - 2)
    for j in range(1, len(base) - 1):
        up = base.copy()
        up[j] += h
        down = base.copy()
        down[j] -= h
        grad[j - 1] = (
            scalar_map(GridFunction(y.scale, up))
            - scalar_map(GridFunction(y.scale, down))
        ) / (2.0 * h)
    return grad


def kkt_check(p: IsoperimetricProblem, y: GridFunction, lam: float) -> KktReport:
    """Stationarity and feasibility report from complex-step gradients.

    The factors at y itself come first, so the real walk decides the
    domain: a point outside it raises EvaluationError.  Numpy's warnings
    are off; what overflows reads inf or NaN, and so does what reads it.
    """
    with np.errstate(all="ignore"):
        at_obj, at_con = _factors(p.objective, y), _factors(p.constraint, y)
        gap = abs(at_con[0] * at_con[1] - p.k)
        g_obj = _complex_step_gradient(p.objective, y, at_obj)
        g_con = _complex_step_gradient(p.constraint, y, at_con)
        denom = float(g_con @ g_con)
        lambda_fit = float(g_obj @ g_con) / denom if denom != 0.0 else 0.0
        residual = float(np.max(np.abs(g_obj - lam * g_con)))
    return KktReport(g_obj, g_con, lambda_fit, residual, gap)


def _factors(functional: DeltaNablaFunctional, y: GridFunction) -> tuple[float, float]:
    """(J_delta, J_nabla) at y, each value tree walked over its N - 1 real
    slots and each sum of value * mu correctly rounded; where math.fsum
    raises (a term not finite, or overflow), numpy's sum, inf or NaN."""
    t, v = y.scale.points, y.values
    mu = t[1:] - t[:-1]
    quot = (v[1:] - v[:-1]) / mu
    delta = _complex_walk(functional.l_delta.value, {"t": t[:-1], "u": v[1:], "v": quot})
    nabla = _complex_walk(functional.l_nabla.value, {"t": t[1:], "u": v[:-1], "v": quot})
    sums = []
    for terms in (delta * mu, nabla * mu):
        try:
            sums.append(math.fsum(terms.tolist()))
        except (ValueError, OverflowError):
            sums.append(float(np.sum(terms)))
    return sums[0], sums[1]


def _complex_step_gradient(functional: DeltaNablaFunctional, y: GridFunction, at) -> np.ndarray:
    """Gradient over the interior values of y, whose factors are at,
    (J_delta, J_nabla).  y_j enters only gaps j - 1 and j, as the right
    end of one and the left end of the other, so each value tree is
    walked over those 2(N - 2) slots with y_j + i*h in them; a slot left
    out would have imaginary part 0.  On each side dJ/dy_j is
    Im(L(gap j - 1) * mu_{j-1} + L(gap j) * mu_j) / h, and entry j is
    J_nabla * dJ_delta/dy_j + J_delta * dJ_nabla/dy_j."""
    t, v = y.scale.points, y.values
    gap = np.arange(v.size - 2) + np.array([[0], [1]])  # rows: gaps j - 1, gaps j
    right, left = v[1:][gap].astype(complex), v[:-1][gap].astype(complex)
    right.imag[0] = left.imag[1] = _STEP
    mu = (t[1:] - t[:-1])[gap]
    quot = (right - left) / mu
    delta = _complex_walk(functional.l_delta.value, {"t": t[:-1][gap], "u": right, "v": quot})
    nabla = _complex_walk(functional.l_nabla.value, {"t": t[1:][gap], "u": left, "v": quot})
    d_delta, d_nabla = (np.imag(side * mu).sum(axis=0) for side in (delta, nabla))
    return (at[1] * d_delta + at[0] * d_nabla) / _STEP


def _complex_walk(e: Expr, slots: dict):
    """The tree at every slot of the arrays in slots (by variable name),
    in numpy's arithmetic of their dtype.  In complex arithmetic every
    node of the grammar is analytic, so the imaginary part carries the
    step through.  On real operands it raises EvaluationError where
    expressions.evaluate does: at a zero divisor, a zero base to a
    negative power, and where _UNDEFINED holds.  Operands built from
    + - * / alone round alike in both walks; elsewhere (** and the
    functions) the oracle decides by its own rounding."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return slots[e.name]
    if isinstance(e, Neg):
        return -_complex_walk(e.arg, slots)
    if isinstance(e, Pow):
        base = _complex_walk(e.base, slots)
        _check(e, e.exponent < 0 and np.isrealobj(base) and base == 0.0, slots)
        return _power(base, e.exponent)
    if isinstance(e, Call):
        x = _complex_walk(e.arg, slots)
        out = getattr(np, e.func)(x)
        _check(e, np.isrealobj(x) and _UNDEFINED[e.func](x, out), slots)
        return out
    left, right = _complex_walk(e.left, slots), _complex_walk(e.right, slots)
    _check(e, isinstance(e, Div) and np.isrealobj(right) and right == 0.0, slots)
    return _OPS[type(e)](left, right)


def _check(e: Expr, bad, slots: dict) -> None:
    """EvaluationError naming e and the first slot where bad holds."""
    if bad is not False and np.any(bad):  # False: nothing to check
        i = int(np.argmax(np.broadcast_to(bad, np.shape(slots["v"]))))
        at = ", ".join(f"{name}={float(np.ravel(slots[name])[i])!r}" for name in "tuv")
        raise EvaluationError(f"{to_str(e)} undefined at {at}")


def _power(z, n: int):
    """z**n by repeated squaring: numpy's complex power goes through log
    and exp for |n| >= 100, which loses the step on a negative base.  A
    float power that underflows to 0.0 has numpy's reciprocal, inf."""
    out, k = 1.0, abs(n)
    while k:
        if k & 1:
            out = out * z
        z, k = z * z, k >> 1
    return np.divide(1.0, out) if n < 0 else out


def verify_example(m: int) -> ExampleVerification:
    """End-to-end certification of the built-in example at size m.

    Checks the closed-form extremal for exact boundary values,
    feasibility, complex-step KKT stationarity with the fitted
    multiplier, and bracket constancy in both residual forms with that
    same multiplier.  Every line passes for m <= 384.  The bounds are
    absolute while the functionals grow with m: the bracket defect
    exceeds 1e-9 from m = 385 (7.4e-9 at m = 1024).  The feasibility gap,
    from correctly rounded factors, stays within 1e-10 up to m = 4096
    (2.6e-11 there).
    """
    p = example_problem(m)  # raises for m < 2
    y = _closed_form_y(p)
    report = kkt_check(p, y, 0.0)  # no line reads the residual at lam = 0
    lam = report.lambda_fit
    fit_residual = np.max(np.abs(report.grad_objective - lam * report.grad_constraint))
    # EL1 and EL2 read the same bracket array, so they share one defect.
    defect = bracket_defect(iso_bracket(p.objective, p.constraint, y, 1.0, lam))

    checks = (
        _line("boundary start", abs(y.values[0] - p.alpha), 0.0),
        _line("boundary end", abs(y.values[-1] - p.beta), 0.0),
        _line("constraint level", report.feasibility_gap, 1e-10),
        _line("kkt residual (fitted multiplier)", fit_residual, 1e-6),
        _line("bracket defect EL1", defect, 1e-9),
        _line("bracket defect EL2", defect, 1e-9),
    )
    return ExampleVerification(
        m=m,
        passed=all(c.passed for c in checks),
        lambda_fit=lam,
        checks=checks,
    )


def _line(name: str, measured: float, bound: float) -> CheckLine:
    return CheckLine(name, bool(measured <= bound), float(measured), bound)


# ---------------------------------------------------------------------------
# Identity fuzzing


@dataclass(frozen=True)
class IdentityFuzz:
    """Aggregate outcome of randomized structural-identity checks."""

    seed: int
    count: int
    identities: int
    max_rel_error: float
    passed: bool
    failures: tuple[str, ...]


def _rel_gap(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _max_gap(lhs: GridFunction, rhs: GridFunction) -> float:
    return float(np.max(np.abs(lhs.values - rhs.values)))


def _product(f: GridFunction, g: GridFunction) -> GridFunction:
    return GridFunction(f.scale, f.values * g.values)


def _random_scale(rng: np.random.Generator, size: int) -> TimeScale:
    while True:
        pts = np.sort(rng.uniform(0.0, 2.0, size))
        if np.all(np.diff(pts) > 0.0):
            return TimeScale(pts)


def _random_poly(rng: np.random.Generator, scale: TimeScale) -> GridFunction:
    coeffs = rng.uniform(-0.5, 0.5, 4)
    return GridFunction(scale, np.polyval(coeffs, scale.points))


def identity_fuzz(seed: int = 0, count: int = 100, tol: float = 1e-12) -> IdentityFuzz:
    """Fuzz the derivative/integral structure on random scales.

    Per trial: a random scale (3 to 50 points, distinct continuous
    draws) and random cubic grid functions.  Checked identities, all to
    relative tolerance tol: the two derivative conversions through the
    jump shifts, the two integral conversions, telescoping of both
    derivative/integral pairings, and both integration-by-parts
    formulas.  A count below 1 would check nothing, so it is a
    ValueError.
    """
    if count < 1:
        raise ValueError("identity fuzz needs count >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures: list[str] = []
    for trial in range(count):
        scale = _random_scale(rng, int(rng.integers(3, 51)))
        a, b = scale.a, scale.b
        y, f, g = (_random_poly(rng, scale) for _ in range(3))
        jump = y.values[-1] - y.values[0]
        boundary = f.values[-1] * g.values[-1] - f.values[0] * g.values[0]
        gaps = {
            # Derivative conversions through the jump shifts.
            "nabla from delta": _max_gap(
                nabla_derivative(y), shift(delta_derivative(y), "backward")
            ),
            "delta from nabla": _max_gap(
                delta_derivative(y), shift(nabla_derivative(y), "forward")
            ),
            # Integral conversions.
            "delta integral as nabla": _rel_gap(
                delta_integral(f, a, b), nabla_integral(shift(f, "backward"), a, b)
            ),
            "nabla integral as delta": _rel_gap(
                nabla_integral(f, a, b), delta_integral(shift(f, "forward"), a, b)
            ),
            # Telescoping.
            "delta telescoping": _rel_gap(delta_integral(delta_derivative(y), a, b), jump),
            "nabla telescoping": _rel_gap(nabla_integral(nabla_derivative(y), a, b), jump),
            # Integration by parts, both orientations.
            "delta integration by parts": _rel_gap(
                delta_integral(_product(shift(f, "forward"), delta_derivative(g)), a, b),
                boundary - delta_integral(_product(delta_derivative(f), g), a, b),
            ),
            "nabla integration by parts": _rel_gap(
                nabla_integral(_product(shift(f, "backward"), nabla_derivative(g)), a, b),
                boundary - nabla_integral(_product(nabla_derivative(f), g), a, b),
            ),
        }
        for name, gap in gaps.items():
            worst = max(worst, gap)
            if gap > tol:
                failures.append(f"trial {trial}: {name} rel error {gap:.3e}")

    return IdentityFuzz(
        seed=seed,
        count=count,
        identities=len(gaps),
        max_rel_error=worst,
        passed=not failures,
        failures=tuple(failures),
    )
