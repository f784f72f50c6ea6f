"""Slow, independent verification of solver output.

Everything here treats the functionals as black boxes: gradients come
from central differences of the scalar value, never from the symbolic
partials the fast path uses, and the value itself is summed by the
reference tree walk (eval_functional), never by the compiled kernels.
The reports certify stationarity in the plain finite-dimensional (KKT)
sense, which on a finite scale is the same statement as the
bracket-constancy conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .functional import bracket_defect, eval_functional, iso_bracket
from .solver import IsoperimetricProblem, closed_form_example, example_problem
from .timescale import (
    GridFunction,
    TimeScale,
    delta_derivative,
    delta_integral,
    nabla_derivative,
    nabla_integral,
    shift,
)

DEFAULT_FD_STEP = 1e-6


@dataclass(frozen=True)
class KktReport:
    """Finite-difference stationarity report at a candidate point.

    lambda_fit is the least-squares multiplier fitting
    grad(objective) ~ lambda * grad(constraint); residual_inf_norm uses
    the caller's multiplier, not the fitted one.
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


def kkt_check(
    p: IsoperimetricProblem,
    y: GridFunction,
    lam: float,
    h: float = DEFAULT_FD_STEP,
) -> KktReport:
    """Stationarity and feasibility report from black-box differencing."""

    def objective_map(g: GridFunction) -> float:
        return eval_functional(p.objective, g).product

    def constraint_map(g: GridFunction) -> float:
        return eval_functional(p.constraint, g).product

    grad_objective = fd_gradient(objective_map, y, h)
    grad_constraint = fd_gradient(constraint_map, y, h)
    denom = float(grad_constraint @ grad_constraint)
    lambda_fit = (
        float(grad_objective @ grad_constraint) / denom if denom > 0.0 else 0.0
    )
    residual = grad_objective - lam * grad_constraint
    return KktReport(
        grad_objective=grad_objective,
        grad_constraint=grad_constraint,
        lambda_fit=lambda_fit,
        residual_inf_norm=float(np.max(np.abs(residual))),
        feasibility_gap=abs(constraint_map(y) - p.k),
    )


def verify_example(m: int) -> ExampleVerification:
    """End-to-end certification of the built-in example at size m.

    Checks the closed-form extremal for exact boundary values,
    feasibility, finite-difference KKT stationarity with the fitted
    multiplier, and bracket constancy in both residual forms with the
    recovered multiplier.  The finite-difference bounds are tuned for
    moderate m; differencing noise grows with the functional magnitude.
    """
    if m < 2:
        raise ValueError("example needs m >= 2")
    y, meta = closed_form_example(m)
    p = example_problem(m)

    report = kkt_check(p, y, meta.lam)
    fit_residual = float(
        np.max(
            np.abs(report.grad_objective - report.lambda_fit * report.grad_constraint)
        )
    )
    # EL1 and EL2 read the same bracket array, so they share one defect.
    defect = bracket_defect(iso_bracket(p.objective, p.constraint, y, 1.0, meta.lam))

    checks = (
        CheckLine(
            "boundary start",
            bool(y.values[0] == p.alpha),
            float(abs(y.values[0] - p.alpha)),
            0.0,
        ),
        CheckLine(
            "boundary end",
            bool(y.values[-1] == p.beta),
            float(abs(y.values[-1] - p.beta)),
            0.0,
        ),
        CheckLine(
            "constraint level",
            bool(report.feasibility_gap <= 1e-10),
            float(report.feasibility_gap),
            1e-10,
        ),
        CheckLine(
            "kkt residual (fitted multiplier)",
            fit_residual <= 1e-6,
            fit_residual,
            1e-6,
        ),
        CheckLine("bracket defect EL1", defect <= 1e-9, defect, 1e-9),
        CheckLine("bracket defect EL2", defect <= 1e-9, defect, 1e-9),
    )
    return ExampleVerification(
        m=m,
        passed=all(c.passed for c in checks),
        lambda_fit=report.lambda_fit,
        checks=checks,
    )


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
    formulas.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures: list[str] = []
    names_checked = 8

    def note(trial: int, name: str, gap: float) -> None:
        nonlocal worst
        worst = max(worst, gap)
        if gap > tol:
            failures.append(f"trial {trial}: {name} rel error {gap:.3e}")

    for trial in range(count):
        size = int(rng.integers(3, 51))
        scale = _random_scale(rng, size)
        a, b = scale.a, scale.b
        y = _random_poly(rng, scale)
        f = _random_poly(rng, scale)
        g = _random_poly(rng, scale)

        # Derivative conversions through the jump shifts.
        lhs = nabla_derivative(y).values
        rhs = shift(delta_derivative(y), "backward").values
        note(trial, "nabla from delta", float(np.max(np.abs(lhs - rhs))))
        lhs = delta_derivative(y).values
        rhs = shift(nabla_derivative(y), "forward").values
        note(trial, "delta from nabla", float(np.max(np.abs(lhs - rhs))))

        # Integral conversions.
        note(
            trial,
            "delta integral as nabla",
            _rel_gap(
                delta_integral(f, a, b),
                nabla_integral(shift(f, "backward"), a, b),
            ),
        )
        note(
            trial,
            "nabla integral as delta",
            _rel_gap(
                nabla_integral(f, a, b),
                delta_integral(shift(f, "forward"), a, b),
            ),
        )

        # Telescoping.
        jump = y.values[-1] - y.values[0]
        note(
            trial,
            "delta telescoping",
            _rel_gap(delta_integral(delta_derivative(y), a, b), jump),
        )
        note(
            trial,
            "nabla telescoping",
            _rel_gap(nabla_integral(nabla_derivative(y), a, b), jump),
        )

        # Integration by parts, both orientations.
        boundary = f.values[-1] * g.values[-1] - f.values[0] * g.values[0]
        lhs_ibp = delta_integral(
            GridFunction(scale, shift(f, "forward").values * delta_derivative(g).values),
            a,
            b,
        )
        rhs_ibp = boundary - delta_integral(
            GridFunction(scale, delta_derivative(f).values * g.values), a, b
        )
        note(trial, "delta integration by parts", _rel_gap(lhs_ibp, rhs_ibp))
        lhs_ibp = nabla_integral(
            GridFunction(scale, shift(f, "backward").values * nabla_derivative(g).values),
            a,
            b,
        )
        rhs_ibp = boundary - nabla_integral(
            GridFunction(scale, nabla_derivative(f).values * g.values), a, b
        )
        note(trial, "nabla integration by parts", _rel_gap(lhs_ibp, rhs_ibp))

    return IdentityFuzz(
        seed=seed,
        count=count,
        identities=names_checked,
        max_rel_error=worst,
        passed=not failures,
        failures=tuple(failures),
    )
