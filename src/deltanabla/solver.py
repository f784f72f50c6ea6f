"""Newton solution of isoperimetric stationarity systems on finite scales.

On a finite time scale the constrained variational problem is a plain
finite-dimensional problem: unknowns are the interior values of y plus
the multiplier.  The solver drives the exact gradient of the product
functionals to a multiple of the constraint gradient while meeting the
constraint level, using damped Newton iterations with the exact
Jacobian (the Hessian of a product functional is tridiagonal plus rank
two) and seeded multistart.  The bracket-constancy residuals from the
functional module serve as an independent certificate of every
solution; they are never the solve target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .expressions import EvaluationError, constant_lagrangian, make_lagrangian
from .functional import (
    DeltaNablaFunctional,
    EvaluationBreakdown,
    bracket_defect,
    bracket_values,
    eval_functional,
    is_extremal_for_K,
    slot_curvature,
    slot_tables_at,
)
from .timescale import GridFunction, TimeScale

Classification = Literal["normal", "abnormal", "unknown"]


@dataclass(frozen=True)
class IsoperimetricProblem:
    """Problem data: extremize the objective subject to y(a) = alpha,
    y(b) = beta, and constraint(y) = k."""

    scale: TimeScale
    alpha: float
    beta: float
    objective: DeltaNablaFunctional
    constraint: DeltaNablaFunctional
    k: float

    def __post_init__(self) -> None:
        if len(self.scale) < 3:
            raise ValueError("isoperimetric problem needs interior points")
        for name in ("alpha", "beta", "k"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def assemble(self, interior: np.ndarray) -> GridFunction:
        """Grid function with the given interior values and fixed ends."""
        return GridFunction(self.scale, self._values(interior))

    def _values(self, interior: np.ndarray) -> np.ndarray:
        return np.concatenate(([self.alpha], interior, [self.beta]))

    def interior_count(self) -> int:
        return len(self.scale) - 2


@dataclass(frozen=True)
class SolverOptions:
    """Newton and multistart controls.

    feas_tol bounds |constraint - k|, stat_tol bounds the stationarity
    rows and the residual defect.  Multistart draws interior
    perturbations uniformly from [-spread, spread] with the given seed;
    the unperturbed linear interpolant is always tried first.  Each
    Newton step search starts at twice the last accepted step length
    (at most 1) and multiplies it by damping until ||f|| decreases or
    the length falls below min_step.
    """

    feas_tol: float = 1e-8
    stat_tol: float = 1e-8
    max_iter: int = 100
    multistart: int = 8
    seed: int = 0
    spread: float = 1.0
    damping: float = 0.5
    min_step: float = 1e-12


@dataclass(frozen=True)
class StationaryPoint:
    """Distinct converged iterate kept for diagnostics."""

    values: np.ndarray
    lam: float
    objective_product: float


@dataclass(frozen=True)
class SolveResult:
    y: GridFunction
    lam: float
    lam0: float
    objective_value: EvaluationBreakdown
    constraint_value: EvaluationBreakdown
    el_defect: float
    kkt_residual_norm: float
    classification: Classification
    iterations: int
    converged: bool
    message: str = ""
    stationary_points: tuple[StationaryPoint, ...] = ()


def discrete_gradient(
    functional: DeltaNablaFunctional, y: GridFunction
) -> np.ndarray:
    """Exact gradient of the product functional in the interior values.

    Product rule: grad = J_nabla * grad(J_delta) + J_delta *
    grad(J_nabla), where each interior value y(t_i) enters two delta
    slots (as shifted value and in two difference quotients) and two
    nabla slots.
    """
    if len(y) < 3:
        raise ValueError("gradient needs at least one interior point")
    return _Product(functional, y.scale.points, y.values).grad


class _Product:
    """A product functional at one point (the points of the scale and
    all values of the function, as bare arrays), from one pass over its
    slots: the value, the factors' gradients and the gradient in the
    interior values, and the Hessian on request."""

    def __init__(
        self, functional: DeltaNablaFunctional, points: np.ndarray, values: np.ndarray
    ) -> None:
        self.functional = functional
        self.points = points
        self.values = values
        self.tab = tab = slot_tables_at(functional, points, values)
        w = tab.weights
        self.value = float(tab.j_delta * tab.j_nabla)
        self.grad_delta = tab.delta_du[:-1] * w[:-1] + tab.delta_dv[:-1] - tab.delta_dv[1:]
        self.grad_nabla = tab.nabla_du[1:] * w[1:] - tab.nabla_dv[1:] + tab.nabla_dv[:-1]
        self.grad = tab.j_nabla * self.grad_delta + tab.j_delta * self.grad_nabla

    def hessian(self) -> np.ndarray:
        """Exact Hessian in the interior values: J_nabla * H_delta +
        J_delta * H_nabla, which is tridiagonal, plus the rank-2
        grad_delta grad_nabla^T + its transpose.

        Gap i's integrand sees its end values y_i, y_(i+1) only through
        u (y_(i+1) on the delta side, y_i on the nabla side) and
        v = (y_(i+1) - y_i) / w_i, so each gap adds a 2x2 block of
        weighted second partials; interior point j is the right end of
        gap j-1 and the left end of gap j.
        """
        tab = self.tab
        c = slot_curvature(self.functional, self.points, self.values)
        w = tab.weights
        d_vv = c.delta_vv / w
        n_vv = c.nabla_vv / w
        jd, jn = tab.j_delta, tab.j_nabla
        left = jn * d_vv + jd * (c.nabla_uu * w - 2.0 * c.nabla_uv + n_vv)
        cross = jn * -(c.delta_uv + d_vv) + jd * (c.nabla_uv - n_vv)
        right = jn * (c.delta_uu * w + 2.0 * c.delta_uv + d_vv) + jd * n_vv
        n = w.size - 1
        rank2 = np.outer(self.grad_delta, self.grad_nabla)
        h = rank2 + rank2.T
        flat = h.reshape(-1)
        flat[:: n + 1] += right[:-1] + left[1:]
        flat[1 :: n + 1] += cross[1:-1]
        flat[n :: n + 1] += cross[1:-1]
        return h


_EPS = float(np.finfo(float).eps)

_System = Callable[[np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]]
"""A Newton system: z -> (f(z), a thunk for the Jacobian of f at z)."""


@dataclass
class _NewtonRun:
    z: np.ndarray
    f: np.ndarray
    iterations: int
    status: str  # "ok", "stalled", "singular", "maxiter", "error"


def _finite(system: _System) -> _System:
    """system, with a non-finite iterate, residual or Jacobian raised as
    an EvaluationError like any other failed evaluation.  numpy's
    warnings on the way to such a value are silenced here, where the
    value is caught, and nowhere else."""

    def checked(z: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        if not np.isfinite(z).all():
            raise EvaluationError("non-finite iterate")
        with np.errstate(all="ignore"):
            f, jacobian = system(z)
        if not np.isfinite(f).all():
            raise EvaluationError("non-finite residual")

        def checked_jacobian() -> np.ndarray:
            with np.errstate(all="ignore"):
                jac = jacobian()
            if not np.isfinite(jac).all():
                raise EvaluationError("non-finite Jacobian")
            return jac

        return f, checked_jacobian

    return checked


def _newton(
    system: _System,
    z0: np.ndarray,
    opts: SolverOptions,
    square: bool,
) -> _NewtonRun:
    """Damped Newton (or Gauss-Newton via least squares when the system
    is rectangular).  Each step search starts at twice the last
    accepted step length, at most 1.  Iterates until the step search
    can no longer reduce ||f|| or the Newton step is below the rounding
    level of the iterate, which polishes converged roots to rounding
    level.  A failed evaluation, or a non-finite iterate, residual or Jacobian,
    ends the run with an "error" status; the step search skips such
    trial points.
    """
    system = _finite(system)
    try:
        z = np.asarray(z0, dtype=float)
        f, jacobian = system(z)
    except EvaluationError as exc:
        return _NewtonRun(
            np.asarray(z0, dtype=float), np.full(1, np.inf), 0, f"error: {exc}"
        )
    status = "maxiter"
    it = 0
    first_alpha = 1.0
    for it in range(1, opts.max_iter + 1):
        norm = np.linalg.norm(f)
        if norm == 0.0:
            status = "ok"
            break
        try:
            jac = jacobian()
        except EvaluationError as exc:
            status = f"error: {exc}"
            break
        if square:
            try:
                step = np.linalg.solve(jac, -f)
            except np.linalg.LinAlgError:
                status = "singular"
                break
        else:
            step = np.linalg.lstsq(jac, -f, rcond=None)[0]
        if np.linalg.norm(step) <= _EPS * np.linalg.norm(z):
            # A step below the rounding level of the iterate: the root
            # is polished as far as it can be.
            status = "stalled"
            break
        alpha = first_alpha
        moved = False
        while alpha >= opts.min_step:
            z_try = z + alpha * step
            try:
                f_try, jac_try = system(z_try)
            except EvaluationError:
                f_try = None
            if f_try is not None and np.linalg.norm(f_try) < norm:
                z, f, jacobian = z_try, f_try, jac_try
                moved = True
                break
            alpha *= opts.damping
        if not moved:
            # No direction of decrease at this resolution: either the
            # root is polished to rounding level or the start is stuck.
            status = "stalled"
            break
        first_alpha = min(1.0, 2.0 * alpha)
    return _NewtonRun(z, f, it, status)


def _starts(p: IsoperimetricProblem, opts: SolverOptions) -> list[np.ndarray]:
    t = p.scale.points
    base = p.alpha + (p.beta - p.alpha) * (t[1:-1] - t[0]) / (t[-1] - t[0])
    rng = np.random.default_rng(opts.seed)
    starts = [base]
    for _ in range(opts.multistart):
        starts.append(base + rng.uniform(-opts.spread, opts.spread, base.size))
    return starts


def _certify(
    p: IsoperimetricProblem,
    y: GridFunction,
    lam0: float,
    lam: float,
    opts: SolverOptions,
) -> tuple[float, float, Classification]:
    """Defect of the combined bracket (the same in both forms, which
    read one array), the exact KKT residual norm, and the
    normal/abnormal classification from the constraint's own bracket."""
    bo = bracket_values(p.objective, y)
    bk = bracket_values(p.constraint, y)
    combined = lam0 * bo - lam * bk
    gl = discrete_gradient(p.objective, y)
    gk = discrete_gradient(p.constraint, y)
    kkt = float(np.max(np.abs(lam0 * gl - lam * gk)))
    abnormal = bracket_defect(bk) <= opts.stat_tol
    cls: Classification = "abnormal" if abnormal else "normal"
    return bracket_defect(combined), kkt, cls


def _normal_system(p: IsoperimetricProblem) -> _System:
    """Stationarity rows grad(objective) - lambda * grad(constraint) and
    the feasibility row constraint - k, in z = (interior values,
    lambda).  The Jacobian is the Hessian of the Lagrangian bordered by
    -grad(constraint) on the right and grad(constraint) below."""
    t = p.scale.points
    n = p.interior_count()

    def system(z: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        v = p._values(z[:n])
        lam = z[n]
        obj = _Product(p.objective, t, v)
        con = _Product(p.constraint, t, v)
        f = np.append(obj.grad - lam * con.grad, con.value - p.k)

        def jacobian() -> np.ndarray:
            jac = np.zeros((n + 1, n + 1))
            jac[:n, :n] = obj.hessian() - lam * con.hessian()
            jac[:n, n] = -con.grad
            jac[n, :n] = con.grad
            return jac

        return f, jacobian

    return system


def _abnormal_system(p: IsoperimetricProblem) -> _System:
    """Rows grad(constraint) and constraint - k in the interior values,
    one more than the unknowns; the Jacobian stacks grad(constraint)
    under the constraint's Hessian."""
    t = p.scale.points

    def system(z: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        con = _Product(p.constraint, t, p._values(z))
        f = np.append(con.grad, con.value - p.k)
        return f, lambda: np.vstack((con.hessian(), con.grad))

    return system


def solve_normal(
    p: IsoperimetricProblem, opts: SolverOptions | None = None
) -> SolveResult:
    """Solve for a stationary point with multiplier pair (1, lambda).

    Unknowns are the interior values plus lambda; equations are the
    stationarity rows grad(objective) - lambda * grad(constraint) and
    the feasibility row constraint - k.  Starts are the boundary
    interpolant and seeded perturbations of it; among converged starts
    the one with smallest objective product is returned, with all
    distinct stationary points kept as diagnostics.
    """
    opts = opts or SolverOptions()
    n = p.interior_count()

    system = _normal_system(p)
    runs: list[_NewtonRun] = []
    for start in _starts(p, opts):
        runs.append(_newton(system, np.append(start, 0.0), opts, square=True))

    converged_runs = []
    for run in runs:
        if run.f.size != n + 1:
            continue
        stat_ok = float(np.max(np.abs(run.f[:n]))) <= opts.stat_tol if n else True
        feas_ok = abs(float(run.f[n])) <= opts.feas_tol
        if stat_ok and feas_ok:
            converged_runs.append(run)

    points: list[StationaryPoint] = []
    for run in converged_runs:
        values = run.z[:n]
        if any(
            np.max(np.abs(values - sp.values)) <= 1e-6 for sp in points
        ):
            continue
        y = p.assemble(values)
        points.append(
            StationaryPoint(
                values=values.copy(),
                lam=float(run.z[n]),
                objective_product=eval_functional(p.objective, y).product,
            )
        )

    if converged_runs:
        best = min(
            converged_runs,
            key=lambda run: eval_functional(
                p.objective, p.assemble(run.z[:n])
            ).product,
        )
        y = p.assemble(best.z[:n])
        lam = float(best.z[n])
        defect, kkt, cls = _certify(p, y, 1.0, lam, opts)
        obj = eval_functional(p.objective, y)
        con = eval_functional(p.constraint, y)
        converged = (
            defect <= opts.stat_tol and abs(con.product - p.k) <= opts.feas_tol
        )
        message = "" if converged else (
            f"stationary rows met but bracket defect {defect:.3e} "
            f"exceeds stat_tol"
        )
        return SolveResult(
            y=y,
            lam=lam,
            lam0=1.0,
            objective_value=obj,
            constraint_value=con,
            el_defect=defect,
            kkt_residual_norm=kkt,
            classification=cls,
            iterations=best.iterations,
            converged=converged,
            message=message,
            stationary_points=tuple(points),
        )

    # No start converged: report the best iterate for inspection.
    best = min(runs, key=lambda run: float(np.max(np.abs(run.f))))
    y = p.assemble(best.z[:n])
    lam = float(best.z[n])
    obj = eval_functional(p.objective, y)
    con = eval_functional(p.constraint, y)
    try:
        defect, kkt, _ = _certify(p, y, 1.0, lam, opts)
    except EvaluationError:
        defect, kkt = float("nan"), float("nan")
    statuses = "; ".join(
        f"start {i}: {run.status}" for i, run in enumerate(runs)
    )
    return SolveResult(
        y=y,
        lam=lam,
        lam0=1.0,
        objective_value=obj,
        constraint_value=con,
        el_defect=defect,
        kkt_residual_norm=kkt,
        classification="unknown",
        iterations=best.iterations,
        converged=False,
        message=statuses,
        stationary_points=(),
    )


def find_abnormal(
    p: IsoperimetricProblem, opts: SolverOptions | None = None
) -> list[SolveResult]:
    """Search for functions that are extremal for the constraint itself.

    Solves grad(constraint) = 0 together with constraint = k for the
    interior values (one more equation than unknowns, handled by
    Gauss-Newton least squares).  Every converged, distinct solution is
    re-verified with is_extremal_for_K before being reported; an empty
    list means no abnormal candidates were found.
    """
    opts = opts or SolverOptions()
    n = p.interior_count()

    system = _abnormal_system(p)
    found: list[SolveResult] = []
    kept_values: list[np.ndarray] = []
    for start in _starts(p, opts):
        run = _newton(system, start, opts, square=False)
        if run.f.size != n + 1:
            continue
        if float(np.max(np.abs(run.f[:n]))) > opts.stat_tol:
            continue
        if abs(float(run.f[n])) > opts.feas_tol:
            continue
        if any(np.max(np.abs(run.z - v)) <= 1e-6 for v in kept_values):
            continue
        y = p.assemble(run.z)
        check = is_extremal_for_K(p.constraint, y, opts.stat_tol)
        if not check.is_extremal:
            continue
        defect, kkt, _ = _certify(p, y, 0.0, 1.0, opts)
        kept_values.append(run.z.copy())
        found.append(
            SolveResult(
                y=y,
                lam=1.0,
                lam0=0.0,
                objective_value=eval_functional(p.objective, y),
                constraint_value=eval_functional(p.constraint, y),
                el_defect=defect,
                kkt_residual_norm=kkt,
                classification="abnormal",
                iterations=run.iterations,
                converged=True,
            )
        )
    return found


# ---------------------------------------------------------------------------
# Built-in quadratic example family


@dataclass(frozen=True)
class ClosedFormMeta:
    """Factor values and recovered multiplier of a closed-form extremal."""

    delta_factor: float
    nabla_factor: float
    lam: float


def example_problem(m: int) -> IsoperimetricProblem:
    """Built-in example on the integer scale {0, ..., m}: objective
    integrands v^2 (delta side) and v^2 + v (nabla side), constraint
    t*v against the constant 1/m, level k = 1, boundary y(0) = 0,
    y(m) = m."""
    if m < 2:
        raise ValueError("example needs m >= 2")
    scale = TimeScale(np.arange(m + 1, dtype=float))
    objective = DeltaNablaFunctional(
        make_lagrangian("v^2"), make_lagrangian("v^2 + v")
    )
    constraint = DeltaNablaFunctional(
        make_lagrangian("t*v"), constant_lagrangian(1.0 / m)
    )
    return IsoperimetricProblem(
        scale=scale,
        alpha=0.0,
        beta=float(m),
        objective=objective,
        constraint=constraint,
        k=1.0,
    )


def closed_form_example(m: int) -> tuple[GridFunction, ClosedFormMeta]:
    """The known extremal of example_problem(m).

    y(t) = (4m^2 - 7m - 3mt + 6t) t / (m(m-1)) sampled at t = 0..m.
    The multiplier in the meta block is recovered from the gradients at
    the sampled grid (least squares of grad(objective) against
    grad(constraint)), not from any closed-form multiplier expression.
    """
    if m < 2:
        raise ValueError("example needs m >= 2")
    p = example_problem(m)
    t = p.scale.points
    values = (4 * m * m - 7 * m - 3 * m * t + 6 * t) * t / (m * (m - 1))
    y = GridFunction(p.scale, values)
    obj = eval_functional(p.objective, y)
    gl = discrete_gradient(p.objective, y)
    gk = discrete_gradient(p.constraint, y)
    denom = float(gk @ gk)
    lam = float(gl @ gk) / denom if denom > 0.0 else 0.0
    return y, ClosedFormMeta(
        delta_factor=obj.delta_factor,
        nabla_factor=obj.nabla_factor,
        lam=lam,
    )
