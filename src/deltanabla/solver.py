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

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, Generator, Literal, NamedTuple

import numpy as np

from .expressions import EvaluationError, constant_lagrangian, make_lagrangian
from .functional import (
    DeltaNablaFunctional,
    EvaluationBreakdown,
    SlotTables,
    _take,
    bracket_defect,
    eval_functional,
    row_tables,
    slot_tables,
    tables_bracket,
    tables_or_nan,
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
        """All values of the function, or of each function of a stack,
        with the given interior values."""
        values = np.empty(interior.shape[:-1] + (interior.shape[-1] + 2,))
        values[..., 0] = self.alpha
        values[..., 1:-1] = interior
        values[..., -1] = self.beta
        return values

    def interior_count(self) -> int:
        return len(self.scale) - 2


@dataclass(frozen=True)
class SolverOptions:
    """Newton and multistart controls.

    feas_tol bounds |constraint - k|.  stat_tol is the floor of the bound
    on the stationarity rows and the bracket defect of an answer: the
    bound is max(stat_tol, rho), where rho is the rounding level of the
    Newton run that found it (see _LEVEL_C), so that an answer is not
    held to a tolerance its rounded point cannot meet.  Multistart draws
    interior perturbations uniformly from [-spread, spread] with the
    given seed; the unperturbed linear interpolant is always tried
    first.  Each start runs at most max_iter Newton steps, and ends
    early at its rounding level or near a point another start has met
    (see _newton).  A ValueError names the field that is out of range:
    a tolerance or spread that is not a real number, is a bool or is too
    large for a float, a tolerance that is not positive and finite, a
    count or seed that is not an int (a bool included), a negative
    count, seed or spread, a NaN spread, or a spread whose width
    2·spread overflows.
    """

    feas_tol: float = 1e-8
    stat_tol: float = 1e-8
    max_iter: int = 100
    multistart: int = 8
    seed: int = 0
    spread: float = 1.0

    def __post_init__(self) -> None:
        reals = {}
        for name in ("feas_tol", "stat_tol", "spread"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} {value!r} must be a real number")
            try:
                reals[name] = float(value)
            except OverflowError:
                # No repr: str() of an int of over 4300 digits raises.
                raise ValueError(f"{name} is too large for a float") from None
            if name != "spread" and not 0.0 < reals[name] < math.inf:
                raise ValueError(f"{name} {value!r} must be positive and finite")
        for name in ("max_iter", "multistart", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} {value!r} must be an int")
            if value < 0:
                raise ValueError(f"{name} {value!r} must be nonnegative")
        spread = reals["spread"]
        if math.isnan(spread):
            raise ValueError(f"spread {self.spread!r} is not a number")
        # rng.uniform(-spread, spread) raises OverflowError on an infinite width.
        if not math.isfinite(2.0 * spread):
            raise ValueError(f"spread {self.spread!r} is too large: 2 * spread overflows")
        if spread < 0:
            raise ValueError(f"spread {self.spread!r} must be nonnegative")


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
    # The combined bracket whose defect is el_defect; None if no start converged.
    bracket: np.ndarray | None = None


def discrete_gradient(
    functional: DeltaNablaFunctional, y: GridFunction
) -> np.ndarray:
    """Exact gradient of the product functional in the interior values
    (see SlotTables)."""
    if len(y) < 3:
        raise ValueError("gradient needs at least one interior point")
    return slot_tables(functional, y).grad


_EPS = float(np.finfo(float).eps)
_MIN_STEP = 1e-12
"""Shortest step length the step search tries: a component that is
exactly 0.0 takes any nonzero step, so the search needs a floor."""
_RADIUS = 1e-6
"""Stationary-point radius (∞-norm) of both dedupes and of a "duplicate" run."""
_LEVEL_C = 8.0
"""c of the rounding level rho = c·u·||J||∞·||z||∞ of a Newton system
J s = -f at z, with u = 2^-52, the machine epsilon: the scale of the
normwise backward error of a rounded z (Higham, Accuracy and Stability
of Numerical Algorithms, ch. 7; Dennis and Schnabel, Numerical Methods
for Unconstrained Optimization and Nonlinear Equations, 7.2).  At the
float-rounded closed form of example_problem(m) the stationarity rows
are 0.10 to 0.33 times u·||J||∞·||z||∞ for m from 32 to 4096, so c = 8
leaves them a margin of 24 or more."""


class _System(NamedTuple):
    """A square Newton system in z, read from the slot tables of its
    functionals at the function values(z) on the points: for a stack of
    points z and the tables stacked over its rows, residual(z, tables)
    gives f row by row and jacobian(z, tables, rows) the stacked
    Jacobians of f at the given rows (an increasing list)."""

    functionals: tuple[DeltaNablaFunctional, ...]
    points: np.ndarray
    values: Callable[[np.ndarray], np.ndarray]
    residual: Callable[[np.ndarray, tuple[SlotTables, ...]], np.ndarray]
    jacobian: Callable[[np.ndarray, tuple[SlotTables, ...], list[int]], np.ndarray]


class _Evaluation(NamedTuple):
    """A system at every row of a stack of points z: the residuals f and
    the tables f was computed from, stacked over the rows (the
    constraint's last).  errors maps each row where the system is not
    defined to what stopped it; its rows of f and the tables are not
    read."""

    z: np.ndarray
    f: np.ndarray
    tables: tuple[SlotTables, ...]
    errors: dict[int, str]


def _evaluate(system: _System, z: np.ndarray) -> _Evaluation:
    """The system at every row of z, each functional in one row_tables
    call.  A row with a non-finite entry is a "non-finite iterate";
    any other row where a functional is undefined has the message of
    the first such functional."""
    values = system.values(z)
    tables, errors = [], {}
    for functional in system.functionals:
        tab, undefined = row_tables(functional, system.points, values)
        tables.append(tab)
        errors = undefined | errors
    if not np.isfinite(z).all():
        rows = np.flatnonzero(~np.isfinite(z).all(axis=1)).tolist()
        errors |= dict.fromkeys(rows, "non-finite iterate")
    return _Evaluation(z, system.residual(z, tables), tuple(tables), errors)


@dataclass
class _NewtonRun:
    """The end of a run: the iterate z, its residual f (all inf if the
    start is no iterate), the evaluation and row f is read from (ev None
    if the start could not be evaluated), which later code reads instead
    of evaluating z again (value(i) at the row, tables sliced on first
    read), and the rounding level of its last step (0.0 if none)."""

    z: np.ndarray
    f: np.ndarray
    iterations: int
    status: str  # "ok", "stalled", "singular", "maxiter", "error", or "duplicate":
    # ended, with level 0.0, within _RADIUS of the iterate of a met run
    ev: _Evaluation | None
    row: int = 0
    level: float = 0.0

    def value(self, i: int) -> float:
        return float(self.ev.tables[i].value[self.row, 0])

    @cached_property
    def tables(self) -> tuple[SlotTables, ...] | None:
        return None if self.ev is None else tuple(tab.rows(self.row) for tab in self.ev.tables)


def _norm(x: np.ndarray) -> float:
    """||x||, computed as np.linalg.norm computes it, sqrt(x . x): inf
    where the sum of squares overflows."""
    return math.sqrt(x.dot(x))


def _steps(
    jac: np.ndarray, f: np.ndarray, min_norm: bool, finite: np.ndarray
) -> list[np.ndarray | str]:
    """The Newton step for each stacked Jacobian and residual row, or the
    status that ends its start: a Jacobian that is not finite (finite
    marks those that are) is an error, and a singular one ends
    np.linalg.solve's step.  With min_norm the step is the minimum-norm
    step of _min_norm, which only a failed SVD ends."""
    if not finite.all():
        steps = iter(_steps(jac[finite], f[finite], min_norm, finite[finite]))
        return [next(steps) if ok else "error: non-finite Jacobian" for ok in finite.tolist()]
    if min_norm:
        # A zero Jacobian (an affine K) has the zero step: no SVD needed.
        steps: list[np.ndarray | str] = list(np.zeros(f.shape))
        nonzero = np.flatnonzero(jac.any(axis=(1, 2))).tolist()
        if nonzero:
            for i, step in zip(nonzero, _min_norm(_take(jac, nonzero), _take(f, nonzero))):
                steps[i] = step
        return steps
    try:
        return list(np.linalg.solve(jac, -f[:, :, None])[:, :, 0])
    except np.linalg.LinAlgError:
        # One singular matrix fails the whole stack: solve one by one, so
        # that it ends only its own start.
        return [_solve(a, b) for a, b in zip(jac, f)]


def _min_norm(jac: np.ndarray, f: np.ndarray) -> list[np.ndarray | str]:
    """The minimum-norm solution of each stacked J s = -f by one stacked
    SVD (Golub and Van Loan, Matrix Computations, 5.5), with the cutoff
    of lstsq(rcond=None), which does not stack: singular values at or
    below eps·max(M, N)·sigma_max count as zero."""
    try:
        u, s, vt = np.linalg.svd(jac)
    except np.linalg.LinAlgError as exc:  # solve one by one: it ends only its own start
        return [f"error: {exc}"] if len(jac) == 1 else [
            step for i in range(len(jac)) for step in _min_norm(jac[i : i + 1], f[i : i + 1])]
    keep = s > _EPS * max(jac.shape[1:]) * s[:, :1]
    coef = np.divide(np.swapaxes(u, 1, 2) @ -f[:, :, None], s[:, :, None],
                     out=np.zeros(f.shape + (1,)), where=keep[:, :, None])
    return list((np.swapaxes(vt, 1, 2) @ coef)[:, :, 0])


def _levels(
    jac: np.ndarray, z: np.ndarray, norms: list[tuple[float, float]], top: np.ndarray
) -> list[float]:
    """The rounding level rho = c·u·||J||∞·||z||∞ (see _LEVEL_C) of each
    stacked Newton system J s = -f at z where ||f||∞ can be at or below
    it, else 0.0, as where rho is not finite.  norms gives each row's
    (||f||₂, ||z||₂) and top each matrix's largest |J_ij|.  For n
    unknowns ||J||∞ <= n·top and ||f||₂ <= √n·||f||∞, so a row whose
    ||f||₂ exceeds √n·c·u·n·top·||z||₂ is above its level, which is then
    not formed."""
    n = jac.shape[-1]
    bound = _LEVEL_C * _EPS * n * math.sqrt(n)
    near = [
        i for i, ((f_norm, z_norm), t) in enumerate(zip(norms, top.tolist()))
        if f_norm <= bound * t * z_norm
    ]
    levels = [0.0] * len(jac)
    if near:
        z_max = np.abs(_take(z, near)).max(axis=1)
        rho = _LEVEL_C * _EPS * z_max * np.abs(_take(jac, near)).sum(axis=2).max(axis=1)
        for i, level in zip(near, rho.tolist()):
            levels[i] = level if math.isfinite(level) else 0.0
    return levels


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | str:
    try:
        return np.linalg.solve(a, -b)
    except np.linalg.LinAlgError:
        return "singular"


def _run(
    z: np.ndarray, opts: SolverOptions
) -> Generator[np.ndarray | tuple, object, _NewtonRun]:
    """Damped Newton from the start z, as _newton describes it.  The run
    yields each point it needs evaluated and is sent back (evaluation,
    row of it) or, where the system is undefined there, the message; it
    yields the row of the last evaluation at which it needs its step,
    with (||f||₂, ||z||₂) there, and is sent back the step, or the status
    that ends the run, with the rounding level of the system there (see
    _levels).  It returns the end of the run."""
    reply = yield z
    if isinstance(reply, str):
        return _NewtonRun(z, np.full(z.shape, np.inf), 0, f"error: {reply}", None)
    ev, row = reply
    f, norm = ev.f[row], _norm(ev.f[row])
    alpha, iterations = 1.0, 0  # alpha: the step length of the next trial
    level, floor_steps = 0.0, 0

    def end(status: str) -> _NewtonRun:
        return _NewtonRun(z, f, iterations, status, ev, row, level)

    # A finite norm is a finite residual; an overflowing one may be.
    if not (math.isfinite(norm) or np.isfinite(f).all()):
        f = np.full(z.shape, np.inf)
        return end("error: non-finite residual")
    while iterations != opts.max_iter:
        iterations += 1
        if norm == 0.0:
            return end("ok")
        z_norm = _norm(z)
        step, level = yield row, (norm, z_norm)
        if isinstance(step, str):
            return end(step)
        if _norm(step) <= _EPS * z_norm:
            # A step below the rounding level of the iterate: the root is
            # polished as far as it can be.
            return end("stalled")
        # At its rounding level f is noise, which a short step cannot
        # reduce: only the full and the half step are tried there.
        floor = level > 0.0 and float(np.max(np.abs(f))) <= level
        if floor:
            alpha = 1.0
        while True:
            if alpha < (0.5 if floor else _MIN_STEP):
                # No direction of decrease at this resolution: either the
                # root is polished to rounding level or the start is stuck.
                return end("stalled")
            z_try = z + alpha * step
            if (z_try == z).all():
                # The step rounds away, and so does every shorter one
                # (alpha halves exactly and rounding is monotone): each
                # would only evaluate f again.
                return end("stalled")
            reply = yield z_try
            if not isinstance(reply, str):
                ev_try, row_try = reply
                norm_try = _norm(ev_try.f[row_try])
                # A non-finite residual's norm is inf or NaN: no decrease.
                if norm_try < norm:
                    z, ev, row, norm = z_try, ev_try, row_try, norm_try
                    f = ev.f[row]
                    floor_steps += floor
                    if floor_steps == 2:
                        return end("stalled")
                    alpha = min(1.0, 2.0 * alpha)
                    break
            alpha *= 0.5
    return end("maxiter")


def _newton(
    system: _System,
    z0: np.ndarray,
    opts: SolverOptions,
    min_norm: bool,
    met: Callable[[_NewtonRun], bool],
) -> list[_NewtonRun]:
    """Damped Newton on a square system from every row of the stack z0:
    np.linalg.solve steps, which a singular Jacobian ends, or with
    min_norm the minimum-norm step of _min_norm, which it does not.
    Each step search starts at twice the last accepted step length, at
    most 1, and halves it until ||f|| decreases (a trial whose ||f||
    overflows never does).  A start iterates until its search fails or
    its step is below the rounding level of its iterate, which polishes
    roots to rounding level.  Every step comes with the rounding level
    rho of its system (see _levels); where ||f||∞ <= rho the search
    tries only the full and the half step, and the start ends "stalled"
    when both fail or after its second step taken there.  A failed
    evaluation, or a non-finite iterate, residual or Jacobian, ends the
    start with an "error" status; the step search skips such trial
    points.  Each run keeps the evaluation of the last iterate it
    evaluated and the level of its last step.

    Each start is one _run, and the runs advance in lockstep rounds.  A
    round first gives every run that asks for a step its step and level,
    from one stacked Jacobian over the last evaluation's rows and one
    stacked solve, then evaluates the point every run asks for, in start
    order, in one system call.  The iterate of every run that has ended
    and passed the search's acceptance test met is kept, and before the
    Jacobians a run whose iterate is within _RADIUS of a kept one ends
    "duplicate", which met must reject.  Apart from that end, no start's
    numbers depend on another's, so every run not ended "duplicate" is,
    bit for bit, the run its start makes alone.
    """
    with np.errstate(all="ignore"):  # the runs catch the non-finite values numpy warns of
        ends: list = [None] * len(z0)
        waiting: dict = {}  # start: (its run, what the run asks for), in start order
        starts = np.array(z0, dtype=float)
        kept, lengths = starts[:0], []  # the met runs' iterates, stacked, and their ||.||₂
        # Within _RADIUS (∞-norm) of k, ||z||₂ is within √d·_RADIUS of ||k||₂:
        # twice that, with a margin for their rounding, selects the runs compared.
        reach, slack = 2.0 * math.sqrt(starts.shape[1]) * _RADIUS, 4.0 * starts.shape[1] * _EPS

        def send(start: int, run: Generator, answer: object = None) -> None:
            nonlocal kept
            try:
                waiting[start] = run, run.send(answer)
            except StopIteration as stop:
                del waiting[start]
                ends[start] = stop.value
                if met(stop.value):
                    kept = np.vstack((kept, stop.value.z))
                    lengths.append(_norm(stop.value.z))

        for start, z in enumerate(starts):
            send(start, _run(z, opts))
        while waiting:
            stepping = [(start, run, ask) for start, (run, ask) in waiting.items()
                        if isinstance(ask, tuple)]
            maybe = [(start, run, row) for start, run, (row, (_, z_norm)) in stepping
                     if any(not abs(z_norm - k) > reach + slack * (z_norm + k) for k in lengths)]
            if maybe:
                z = _take(ev.z, [row for _, _, row in maybe])
                near = (np.abs(z[:, None] - kept).max(axis=2).min(axis=1) <= _RADIUS).tolist()
                for (start, run, _), duplicate in zip(maybe, near):
                    if duplicate:
                        send(start, run, ("duplicate", 0.0))
                stepping = [ask for ask in stepping if ask[0] in waiting]
            if stepping:
                rows = [row for _, _, (row, _) in stepping]
                jac = system.jacobian(ev.z, ev.tables, rows)
                top = np.abs(jac).max(axis=(1, 2))  # NaN or inf where J is not finite
                steps = _steps(jac, _take(ev.f, rows), min_norm, np.isfinite(top))
                norms = [ask[1] for _, _, ask in stepping]
                levels = _levels(jac, _take(ev.z, rows), norms, top)
                for (start, run, _), answer in zip(stepping, zip(steps, levels)):
                    send(start, run, answer)
            if waiting:  # every run still going asks for a point now
                trying = list(waiting.items())
                ev = _evaluate(system, np.array([point for _, (_, point) in trying]))
                for i, (start, (run, _)) in enumerate(trying):
                    send(start, run, ev.errors.get(i, (ev, i)))
        return ends


def _starts(p: IsoperimetricProblem, opts: SolverOptions) -> np.ndarray:
    """The stack of starts: the boundary interpolant, then its seeded
    perturbations.  A start that overflows is kept as it is, inf or NaN,
    without numpy's warning: the runs end it ("non-finite iterate")."""
    t = p.scale.points
    rng = np.random.default_rng(opts.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        base = p.alpha + (p.beta - p.alpha) * (t[1:-1] - t[0]) / (t[-1] - t[0])
        noise = rng.uniform(-opts.spread, opts.spread, (opts.multistart, base.size))
        return np.concatenate((base[None], base + noise))


def _met(run: _NewtonRun, p: IsoperimetricProblem, opts: SolverOptions) -> bool:
    """Whether a run of either search ended, not as a "duplicate", with
    its stationarity rows (the first n of f) within max(stat_tol, its
    rounding level) and its kept constraint within feas_tol of k."""
    n = p.interior_count()
    return (
        run.status != "duplicate"
        and run.ev is not None
        and float(np.max(np.abs(run.f[:n]))) <= max(opts.stat_tol, run.level)
        and abs(run.value(-1) - p.k) <= opts.feas_tol
    )


def _answer(
    p: IsoperimetricProblem,
    obj: SlotTables,
    con: SlotTables,
    lam0: float,
    lam: float,
    iterations: int,
    opts: SolverOptions,
    level: float,
    points: tuple[StationaryPoint, ...] = (),
) -> SolveResult:
    """The answer at the point where obj and con were evaluated, with
    the multiplier pair (lam0, lam), from their tables alone: both
    values, the combined bracket and its defect (the same in both
    forms, which read one array), the exact KKT residual norm, and the
    normal/abnormal classification from the constraint's own bracket.
    It is converged when the defect is within max(stat_tol, level), the
    rounding level of the run that found the point, and the constraint
    gap within feas_tol, which a non-finite certificate never is;
    numpy's warnings on the way to one are silenced for that reason."""
    y = GridFunction(p.scale, con.values)
    with np.errstate(all="ignore"):
        bracket_k = tables_bracket(con)
        bracket = lam0 * tables_bracket(obj) - lam * bracket_k
        defect = bracket_defect(bracket)
        kkt = float(np.max(np.abs(lam0 * obj.grad - lam * con.grad)))
        abnormal = bracket_defect(bracket_k) <= opts.stat_tol
    converged = defect <= max(opts.stat_tol, level) and abs(con.value - p.k) <= opts.feas_tol
    return SolveResult(
        y=y,
        lam=lam,
        lam0=lam0,
        objective_value=obj.breakdown(),
        constraint_value=con.breakdown(),
        el_defect=defect,
        kkt_residual_norm=kkt,
        classification="abnormal" if abnormal else "normal",
        iterations=iterations,
        converged=converged,
        message="" if converged else (
            f"stationary rows met but bracket defect {defect:.3e} exceeds stat_tol"
        ),
        stationary_points=points,
        bracket=bracket,
    )


def _normal_system(p: IsoperimetricProblem) -> _System:
    """Stationarity rows grad(objective) - lambda * grad(constraint) and
    the feasibility row constraint - k, in z = (interior values,
    lambda).  The Jacobian is the Hessian of the Lagrangian bordered by
    -grad(constraint) on the right and grad(constraint) below."""
    n = p.interior_count()

    def residual(z: np.ndarray, tables: tuple[SlotTables, ...]) -> np.ndarray:
        obj, con = tables
        return np.concatenate((obj.grad - z[:, n:] * con.grad, con.value - p.k), axis=1)

    def jacobian(
        z: np.ndarray, tables: tuple[SlotTables, ...], rows: list[int]
    ) -> np.ndarray:
        obj, con = tables
        lam = _take(z, rows)[:, n:, None]
        jac = np.zeros((len(lam), n + 1, n + 1))
        jac[:, :n, :n] = obj.hessian(rows)
        # In place, so that at most three (n, n) stacks are alive at once.
        h_con = con.hessian(rows)
        h_con *= lam
        jac[:, :n, :n] -= h_con
        grad = _take(con.grad, rows)
        jac[:, :n, n] = -grad
        jac[:, n, :n] = grad
        return jac

    return _System(
        (p.objective, p.constraint), p.scale.points, lambda z: p._values(z[:, :n]),
        residual, jacobian,
    )


def _abnormal_system(p: IsoperimetricProblem) -> _System:
    """The square system grad(constraint) = 0 in the interior values,
    whose Jacobian is the constraint's Hessian."""
    return _System(
        (p.constraint,), p.scale.points, p._values,
        lambda z, tables: tables[0].grad,
        lambda z, tables, rows: tables[0].hessian(rows),
    )


def solve_normal(
    p: IsoperimetricProblem, opts: SolverOptions | None = None
) -> SolveResult:
    """Solve for a stationary point with multiplier pair (1, lambda).

    Unknowns are the interior values plus lambda; equations are the
    stationarity rows grad(objective) - lambda * grad(constraint) and
    the feasibility row constraint - k.  Starts are the boundary
    interpolant and seeded perturbations of it; among converged starts
    the one with smallest objective product is returned, with all
    distinct stationary points kept as diagnostics.  If none converged,
    the finite iterate with the smallest residual is reported; if none
    is finite (as where beta - alpha overflows), EvaluationError lists
    every start's status.
    """
    opts = opts or SolverOptions()
    n = p.interior_count()

    starts = _starts(p, opts)
    z0 = np.concatenate((starts, np.zeros((len(starts), 1))), axis=1)
    runs = _newton(_normal_system(p), z0, opts, False, partial(_met, p=p, opts=opts))

    converged = [run for run in runs if _met(run, p, opts)]
    points: list[StationaryPoint] = []
    for run in converged:
        values = run.z[:n]
        if any(np.max(np.abs(values - sp.values)) <= _RADIUS for sp in points):
            continue
        points.append(StationaryPoint(values.copy(), float(run.z[n]), run.value(0)))
    if converged:
        best = min(converged, key=lambda run: run.value(0))
        lam = float(best.z[n])
        return _answer(
            p, *best.tables, 1.0, lam, best.iterations, opts, best.level, tuple(points)
        )

    # No start converged: report the best finite iterate for inspection.
    statuses = "; ".join(f"start {i}: {run.status}" for i, run in enumerate(runs))
    finite = [run for run in runs if np.isfinite(run.z).all()]
    if not finite:
        raise EvaluationError(f"no start has a finite iterate: {statuses}")
    best = min(finite, key=lambda run: float(np.max(np.abs(run.f))))
    tables = best.tables or tuple(
        tables_or_nan(functional, p.scale.points, p._values(best.z[:n]))
        for functional in (p.objective, p.constraint)
    )
    report = _answer(p, *tables, 1.0, float(best.z[n]), best.iterations, opts, best.level)
    return replace(
        report, classification="unknown", converged=False, message=statuses, bracket=None
    )


def _none_met(p: IsoperimetricProblem, opts: SolverOptions, starts: np.ndarray) -> bool:
    """Whether no run of the abnormal search from these starts can meet
    _met, decided without a Newton step; False where it cannot decide.

    Where both constraint integrands are affine (Lagrangian.affine), the
    factors A and B are affine in the interior values y, with gradients
    a and b that are the same bits at every y.  So grad K = B·a + A·b
    and the Hessian of K is H = a·bᵀ + b·aᵀ.  One kernel pass over the
    starts, which the search's first evaluation repeats bit for bit,
    gives a, b and grad K at each start; an undefined or non-finite
    start, factor or gradient leaves the question to the search.

    - a = 0 or b = 0 (b = 0 where the nabla factor is a constant, as in
      example_problem): the computed H is exactly zero, so every run
      takes the zero step and ends at its start with rounding level 0.
      _met accepts a start only where ||grad K||∞ <= stat_tol there, so
      where every start's exceeds stat_tol, no run is met.
    - a and b independent, with the smallest singular value sigma of
      [a b] above 16·n·u times the largest: grad K = [a b](B, A)ᵀ, so
      every y has ||(A, B)||₂ <= √n·||grad K||∞/sigma and
      |K| <= n·||grad K||∞²/(2·sigma²).  The cutoff keeps the rounding
      of the computed grad K and K within the factor 2 of the bound
      n·tau²/sigma² used here.  _met accepts a run only where
      ||grad K||∞ <= tau = max(stat_tol, rho), rho the run's rounding
      level c·u·||H||∞·||y||∞ (see _levels), where ||H||∞ <= √n·||H||₂
      is at most 2·√n times the square of the largest singular value.
      The minimum-norm steps move y in the span of a and b while
      ||grad K||₂ falls, so a run from y0 stays within
      2·||grad K(y0)||₂/sigma² of y0; rho is bounded over that reach,
      with a factor 2 for rounding.  Where |k| - feas_tol exceeds the
      bound, no run ends within feas_tol of k.

    Everything else is left to the search: k near 0, b a multiple of a,
    a = b = 0, and factors that are not affine.
    """
    con = p.constraint
    if not (con.l_delta.affine and con.l_nabla.affine and np.isfinite(starts).all()):
        return False
    n = p.interior_count()
    tab, undefined = row_tables(con, p.scale.points, p._values(starts))
    with np.errstate(all="ignore"):
        grad = tab.grad
        # A finite grad K at every start means finite factors and slopes.
        if undefined or not np.isfinite(grad).all():
            return False
        a, b = (g if g.ndim == 1 else g[0] for g in (tab.grad_delta, tab.grad_nabla))
        if not (a.any() and b.any()):
            return bool((np.abs(grad).max(axis=1) > opts.stat_tol).all())
        if n < 2:
            return False
        s = np.linalg.svd(np.stack((a, b), axis=1), compute_uv=False)
        if not s[1] > 16.0 * n * _EPS * s[0]:
            return False
        sigma2 = s[1] * s[1]  # a numpy float: it may underflow to 0.0
        reach = np.abs(starts).max() + 4.0 * np.sqrt((grad * grad).sum(axis=1).max()) / sigma2
        h_norm = 2.0 * math.sqrt(n) * s[0] * s[0]
        tau = max(opts.stat_tol, 2.0 * _LEVEL_C * _EPS * h_norm * reach)
        return bool(abs(p.k) - opts.feas_tol > n * tau * tau / sigma2)


def find_abnormal(
    p: IsoperimetricProblem, opts: SolverOptions | None = None
) -> list[SolveResult]:
    """Search for functions that are extremal for the constraint itself.

    Where both constraint integrands are affine, _none_met first decides
    from the factor structure alone whether the search can find a
    point; where it proves that none can, the list is empty without a
    Newton step.  Otherwise the search solves grad(constraint) = 0 for
    the interior values by Newton steps of minimum norm, which a
    singular Hessian (low rank, or a line of extremals) does not stop,
    then keeps the points within feas_tol of the level k.  Every
    distinct one must also make the constraint's bracket constant within
    max(stat_tol, the run's rounding level), the test of
    is_extremal_for_K, read from the constraint as the run last
    evaluated it; only then is the objective evaluated, once, for the
    answer.  An empty list from the decision is a proof that no start
    can end at an abnormal point; from the search it means only that no
    start found one.
    """
    opts = opts or SolverOptions()
    t = p.scale.points
    starts = _starts(p, opts)
    if _none_met(p, opts, starts):
        return []

    found: list[SolveResult] = []
    for run in _newton(_abnormal_system(p), starts, opts, True, partial(_met, p=p, opts=opts)):
        if not _met(run, p, opts):
            continue
        if any(np.max(np.abs(run.z - r.y.values[1:-1])) <= _RADIUS for r in found):
            continue
        [con] = run.tables
        with np.errstate(all="ignore"):  # a non-finite bracket fails the test
            if not bracket_defect(tables_bracket(con)) <= max(opts.stat_tol, run.level):
                continue
        # The candidate is abnormal whatever the objective does there; a
        # NaN certificate keeps it from converging.
        obj = tables_or_nan(p.objective, t, con.values)
        found.append(_answer(p, obj, con, 0.0, 1.0, run.iterations, opts, run.level))
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
    try:  # numpy refusing the array size, or from m = 2^63 - 2 returning none
        points = np.arange(m + 1, dtype=float)
        if points.size != m + 1:
            raise ValueError("arange lost its length")
    except (ValueError, IndexError, MemoryError) as exc:
        raise ValueError(f"example m = {m}: too many points for an array") from exc
    scale = TimeScale(points)
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
    p = example_problem(m)
    y = _closed_form_y(p)
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


def _closed_form_y(p: IsoperimetricProblem) -> GridFunction:
    """closed_form_example's extremal on p = example_problem(m)."""
    t = p.scale.points
    m = t.size - 1
    return GridFunction(p.scale, (4 * m * m - 7 * m - 3 * m * t + 6 * t) * t / (m * (m - 1)))
