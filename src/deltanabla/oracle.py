"""Independent verification of solver output.

Everything here treats the functionals as black boxes: values come from
eval_functional, which walks the integrand trees over whole slot arrays
(with the per-point walk as its fallback), and gradients from the
complex step Im J(y + i*h*e_j) / h at h = 1e-30.  Each interior value
enters only the two gaps around it, so one complex walk of each value
tree over those 2(N - 2) slots gives every entry, in O(N).  Nothing is
subtracted, so the gradient is exact to rounding (Squire & Trapp, SIAM
Review 40(1), 1998).  Neither reads the symbolic partials or the
compiled kernels the fast path uses.  The reports certify stationarity
in the plain finite-dimensional (KKT) sense, which on a finite scale is
the same statement as the bracket-constancy conditions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expressions import Add, Call, Const, Div, Expr, Mul, Neg, Pow, Sub, Var
from .functional import DeltaNablaFunctional, bracket_defect, eval_functional, iso_bracket
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

    Both functionals are evaluated at y itself first, so the real walk
    decides the domain: a point outside it raises EvaluationError.  Their
    factors there weight the two sides of every gradient entry.  The
    complex pass runs with numpy's warnings off; a gradient entry it
    cannot compute is not finite, and neither is the residual.
    """
    at_obj, at_con = eval_functional(p.objective, y), eval_functional(p.constraint, y)
    gap = abs(at_con.product - p.k)
    g_obj = _complex_step_gradient(p.objective, y, at_obj)
    g_con = _complex_step_gradient(p.constraint, y, at_con)
    denom = float(g_con @ g_con)
    lambda_fit = float(g_obj @ g_con) / denom if denom != 0.0 else 0.0
    residual = float(np.max(np.abs(g_obj - lam * g_con)))
    return KktReport(g_obj, g_con, lambda_fit, residual, gap)


def _complex_step_gradient(functional: DeltaNablaFunctional, y: GridFunction, at) -> np.ndarray:
    """Gradient over the interior values of y, whose factors are at (an
    EvaluationBreakdown).  y_j enters only gaps j - 1 and j, as the right
    end of one and the left end of the other, so each value tree is
    walked over those 2(N - 2) slots with y_j + i*h in them; a slot left
    out would have imaginary part 0.  On each side dJ/dy_j is
    Im(L(gap j - 1) * mu_{j-1} + L(gap j) * mu_j) / h, and entry j is
    J_nabla * dJ_delta/dy_j + J_delta * dJ_nabla/dy_j."""
    t, v = y.scale.points, y.values
    gap = np.arange(v.size - 2) + np.array([[0], [1]])  # rows: gaps j - 1, gaps j
    right, left = v[1:][gap].astype(complex), v[:-1][gap].astype(complex)
    right.imag[0] = left.imag[1] = _STEP
    with np.errstate(all="ignore"):
        mu = (t[1:] - t[:-1])[gap]
        quot = (right - left) / mu
        delta = _complex_walk(functional.l_delta.value, {"t": t[:-1][gap], "u": right, "v": quot})
        nabla = _complex_walk(functional.l_nabla.value, {"t": t[1:][gap], "u": left, "v": quot})
        d_delta, d_nabla = (np.imag(side * mu).sum(axis=0) for side in (delta, nabla))
        return (at.nabla_factor * d_delta + at.delta_factor * d_nabla) / _STEP


def _complex_walk(e: Expr, slots: dict):
    """The tree at every slot of the arrays in slots (by variable name),
    in numpy's complex arithmetic.  Every node of the grammar is
    analytic, so the imaginary part carries the step through; the
    grammar's function names are numpy's."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return slots[e.name]
    if isinstance(e, Neg):
        return -_complex_walk(e.arg, slots)
    if isinstance(e, Pow):
        return _power(_complex_walk(e.base, slots), e.exponent)
    if isinstance(e, Call):
        return getattr(np, e.func)(_complex_walk(e.arg, slots))
    return _OPS[type(e)](_complex_walk(e.left, slots), _complex_walk(e.right, slots))


def _power(z, n: int):
    """z**n by repeated squaring: numpy's complex power goes through log
    and exp for |n| >= 100, which loses the step on a negative base."""
    out, k = 1.0, abs(n)
    while k:
        if k & 1:
            out = out * z
        z, k = z * z, k >> 1
    return 1.0 / out if n < 0 else out


def verify_example(m: int) -> ExampleVerification:
    """End-to-end certification of the built-in example at size m.

    Checks the closed-form extremal for exact boundary values,
    feasibility, complex-step KKT stationarity with the fitted
    multiplier, and bracket constancy in both residual forms with that
    same multiplier.  Every line passes for m <= 384.  The bounds are
    absolute while the functionals grow with m: the bracket defect
    exceeds 1e-9 from m = 385 (7.4e-9 at m = 1024), and at m = 1024 the
    feasibility gap exceeds 1e-10 (1.8e-10).
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
