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
from functools import cached_property
from typing import Callable, Literal, NamedTuple

import numpy as np

from .expressions import EvaluationError, constant_lagrangian, make_lagrangian
from .functional import (
    DeltaNablaFunctional,
    EvaluationBreakdown,
    SlotTables,
    _take,
    bracket_defect,
    eval_functional,
    hessian_into,
    slot_tables,
    system_tables,
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
    early at its rounding level, near a point another start has met,
    or, once a start has met, where it fails to halve ||f|| over 20
    accepted steps (see _newton).  The real fields are stored as floats,
    so an int tolerance or spread reads back as 1.0.  This is the one
    check of option values, for library callers and problem files
    alike: a ValueError names the field that is out of range, a
    tolerance or spread that is not a real number, is a bool or is too
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
        for name in ("feas_tol", "stat_tol", "spread"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} {value!r} must be a real number")
            try:
                real = float(value)
            except OverflowError:
                # No repr: str() of an int of over 4300 digits raises.
                raise ValueError(f"{name} is too large for a float") from None
            object.__setattr__(self, name, real)
            if name != "spread" and not 0.0 < real < math.inf:
                raise ValueError(f"{name} {value!r} must be positive and finite")
        for name in ("max_iter", "multistart", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} {value!r} must be an int")
            if value < 0:
                raise ValueError(f"{name} {value!r} must be nonnegative")
        spread = self.spread
        if math.isnan(spread):
            raise ValueError(f"spread {spread!r} is not a number")
        # rng.uniform(-spread, spread) raises OverflowError on an infinite width.
        if not math.isfinite(2.0 * spread):
            raise ValueError(f"spread {spread!r} is too large: 2 * spread overflows")
        if spread < 0:
            raise ValueError(f"spread {spread!r} must be nonnegative")


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
_WINDOW = 20
_PROGRESS = 0.5
"""The progress test of a Newton run (Dennis and Schnabel, 7.2): once
a run of its batch is met, a run ends "slow" at an accepted step whose
||f||₂ is not below _PROGRESS times that of its iterate _WINDOW
accepted steps back.  A crawling run may still converge, so the test
waits for a met run, as the duplicate test does: a lone start, or a
batch with nothing met, runs on to max_iter.  A window of 10 would end
a start that crawls for 19 steps and then converges within 25."""


class _System(NamedTuple):
    """A square Newton system in z, read from the slot tables of its
    functionals at the functions of p whose interior values are the
    first p.interior_count() entries of z: for a stack of points z and
    the tables stacked over its rows, residual(z, tables) gives f row by
    row and jacobian(z, tables, rows) the stacked Jacobians of f at the
    given rows (an increasing list).  min_norm picks the search's step:
    the minimum-norm step of _min_norm, or else np.linalg.solve's."""

    functionals: tuple[DeltaNablaFunctional, ...]
    p: IsoperimetricProblem
    min_norm: bool
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
    """The system at every row of z, from one system_tables pass.  A row
    with a non-finite entry is a "non-finite iterate"; any other row where
    a functional is undefined has the message of the first such one."""
    p = system.p
    values = p._values(z[:, :p.interior_count()])
    tables, errors = system_tables(system.functionals, p.scale.points, values, derive=True)
    if not np.isfinite(z).all():
        rows = np.flatnonzero(~np.isfinite(z).all(axis=1)).tolist()
        errors |= dict.fromkeys(rows, "non-finite iterate")
    return _Evaluation(z, system.residual(z, tables), tables, errors)


@dataclass
class _NewtonRun:
    """The end of a run: the iterate z, its residual f (all inf if the
    start is no iterate), its status ("ok", "stalled", "singular",
    "maxiter", "slow": ended by the progress test of _WINDOW and
    _PROGRESS once a run of its batch was met, "error: ..." or
    "duplicate": ended, with level 0.0, within
    _RADIUS of the iterate of a met run), the evaluation and row f is
    read from (ev None if the start could not be evaluated), which later
    code reads instead of evaluating z again (value(i) at the row, tables
    sliced on first read), and the rounding level of its last step (0.0
    if none)."""

    z: np.ndarray
    f: np.ndarray
    iterations: int
    status: str
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
    """The Newton step for each stacked Jacobian and residual row, by
    one stacked solve, or the status that ends its start: a Jacobian
    that is not finite (finite marks those that are) is an error.  The
    step is np.linalg.solve's, or with min_norm the minimum-norm step of
    _min_norm.  One matrix that fails the stacked solve (a singular one,
    or for _min_norm one whose SVD fails) fails the whole stack, which
    is then solved matrix by matrix, each as a stack of one, so that
    the matrix ends only its own start: "singular", or "error: ..."
    with the SVD's message."""
    if not finite.all():
        steps = iter(_steps(jac[finite], f[finite], min_norm, finite[finite]))
        return [next(steps) if ok else "error: non-finite Jacobian" for ok in finite.tolist()]
    try:
        if min_norm:
            return _min_norm(jac, f)
        return list(np.linalg.solve(jac, -f[:, :, None])[:, :, 0])
    except np.linalg.LinAlgError as exc:
        if len(jac) == 1:
            return [f"error: {exc}" if min_norm else "singular"]
        return [step for i in range(len(jac))
                for step in _steps(jac[i : i + 1], f[i : i + 1], min_norm, finite[i : i + 1])]


def _min_norm(jac: np.ndarray, f: np.ndarray) -> list[np.ndarray | str]:
    """The minimum-norm solution of each stacked J s = -f by one stacked
    SVD (Golub and Van Loan, Matrix Computations, 5.5), with the cutoff
    of lstsq(rcond=None), which does not stack: singular values at or
    below eps·max(M, N)·sigma_max count as zero, so a zero matrix has
    the zero step."""
    u, s, vt = np.linalg.svd(jac)
    keep = s > _EPS * max(jac.shape[1:]) * s[:, :1]
    coef = np.divide(np.swapaxes(u, 1, 2) @ -f[:, :, None], s[:, :, None],
                     out=np.zeros(f.shape + (1,)), where=keep[:, :, None])
    return list((np.swapaxes(vt, 1, 2) @ coef)[:, :, 0])


def _levels(
    jac: np.ndarray, z: np.ndarray, f_norms: list[float], z_norms: list[float], top: np.ndarray
) -> list[float]:
    """The rounding level rho = c·u·||J||∞·||z||∞ (see _LEVEL_C) of each
    stacked Newton system J s = -f at z where ||f||∞ can be at or below
    it, else 0.0, as where rho is not finite.  f_norms and z_norms give
    each row's ||f||₂ and ||z||₂, and top each matrix's largest |J_ij|.
    For n unknowns ||J||∞ <= n·top and ||f||₂ <= √n·||f||∞, so a row
    whose ||f||₂ exceeds √n·c·u·n·top·||z||₂ is above its level, which
    is then not formed."""
    n = jac.shape[-1]
    bound = _LEVEL_C * _EPS * n * math.sqrt(n)
    near = [
        i for i, (f_norm, z_norm, t) in enumerate(zip(f_norms, z_norms, top.tolist()))
        if f_norm <= bound * t * z_norm
    ]
    levels = [0.0] * len(jac)
    if near:
        z_max = np.abs(_take(z, near)).max(axis=1)
        rho = _LEVEL_C * _EPS * z_max * np.abs(_take(jac, near)).sum(axis=2).max(axis=1)
        for i, level in zip(near, rho.tolist()):
            levels[i] = level if math.isfinite(level) else 0.0
    return levels


def _newton(system: _System, z0: np.ndarray, opts: SolverOptions) -> list[_NewtonRun]:
    """Damped Newton on a square system from every row of the stack z0,
    with the steps the system declares (see _steps): np.linalg.solve
    steps, which a singular Jacobian ends, or with system.min_norm the
    minimum-norm step of _min_norm, which it does not.  Each step search
    starts at twice the last accepted step length, at most 1, and
    halves it until ||f|| decreases (a trial whose ||f|| overflows
    never does).  A start iterates until its search fails or
    its step is below the rounding level of its iterate, which polishes
    roots to rounding level.  Every step comes with the rounding level
    rho of its system (see _levels); where ||f||∞ <= rho the search
    tries only the full and the half step, and the start ends "stalled"
    when both fail or after its second step taken there.  Once a run
    of the batch is met, a start whose accepted step leaves ||f|| at or
    above _PROGRESS times its value _WINDOW accepted steps back (its
    start point counted) ends "slow", met or not.  A failed evaluation,
    or a non-finite iterate, residual or Jacobian, ends the start with
    an "error" status; the step search skips such trial points.  Each
    run keeps the evaluation of the last iterate it evaluated and the
    level of its last step.

    The starts advance in lockstep rounds over per-start state: (S, d)
    arrays of iterates, residuals, steps and trial points, a list per
    scalar, and each start's ||f|| history, one entry per accepted
    iterate.  After one evaluation of the starts, a round (1) ends
    "duplicate" each start that asks for a step within _RADIUS of the
    iterate of a run that has ended and is met (_met, on the system's
    problem); (2) gives each other such start its step and level, from
    one stacked Jacobian over the last evaluation's rows and one stacked
    solve, and its trial point; (3) evaluates every running start's
    trial point, in start order, in one system call; (4) moves each
    start whose trial decreased ||f|| and gives each other start its
    next trial point at once, so that a start whose search fails ends
    before the next duplicate test.  Apart from the duplicate and slow
    ends, no start's numbers depend on another's, so every run not
    ended "duplicate" or "slow" is, bit for bit, the run its start makes
    alone, and a slow run is that run cut short.
    """
    with np.errstate(all="ignore"):  # the runs catch the non-finite values numpy warns of
        z = np.array(z0, dtype=float)
        ev = _evaluate(system, z.copy())
        f, step, trial = np.full(z.shape, np.inf), np.zeros_like(z), np.zeros_like(z)
        count = len(z)
        ends, at = [None] * count, [(None, 0)] * count  # at: (evaluation, row) accepted
        z_norm, level = [0.0] * count, [0.0] * count
        history = [[] for _ in range(count)]  # ||f||₂ of each start's accepted iterates
        alpha = [1.0] * count  # the step length of each start's next trial
        floor, floor_steps, iterations = [False] * count, [0] * count, [0] * count
        kept, lengths = [], []  # the starts of the met runs, and their iterates' ||.||₂
        # Within _RADIUS (∞-norm) of k, ||z||₂ is within √d·_RADIUS of ||k||₂:
        # twice that, with a margin for their rounding, selects the starts compared.
        reach, slack = 2.0 * math.sqrt(z.shape[1]) * _RADIUS, 4.0 * z.shape[1] * _EPS

        def end(i: int, status: str) -> None:
            ends[i] = run = _NewtonRun(z[i], f[i], iterations[i], status, *at[i], level[i])
            if _met(run, system.p, opts):
                kept.append(i)
                lengths.append(_norm(z[i]))

        def asks_step(i: int) -> bool:
            """Start i's next iteration: whether it asks for a step, or ended."""
            if iterations[i] == opts.max_iter:
                end(i, "maxiter")
                return False
            iterations[i] += 1
            if history[i][-1] == 0.0:
                end(i, "ok")
                return False
            z_norm[i] = _norm(z[i])
            return True

        def next_trial(i: int) -> None:
            """Start i's trial point at its step length, or its end."""
            if alpha[i] < (0.5 if floor[i] else _MIN_STEP):
                # No direction of decrease at this resolution: either the
                # root is polished to rounding level or the start is stuck.
                return end(i, "stalled")
            trial[i] = z[i] + alpha[i] * step[i]
            if (trial[i] == z[i]).all():
                # The step rounds away, and so does every shorter one
                # (alpha halves exactly and rounding is monotone): each
                # would only evaluate f again.
                end(i, "stalled")

        for i in range(count):
            if i in ev.errors:
                end(i, f"error: {ev.errors[i]}")
                continue
            at[i] = ev, i
            history[i].append(_norm(ev.f[i]))
            # A finite norm is a finite residual; an overflowing one may be.
            if math.isfinite(history[i][-1]) or np.isfinite(ev.f[i]).all():
                f[i] = ev.f[i]
            else:
                end(i, "error: non-finite residual")
        running = list(range(count))
        stepping = [i for i in running if ends[i] is None and asks_step(i)]  # in start order
        while True:
            maybe = [i for i in stepping if any(
                not abs(z_norm[i] - k) > reach + slack * (z_norm[i] + k) for k in lengths)]
            if maybe:
                near = np.abs(_take(z, maybe)[:, None] - z[kept]).max(axis=2).min(axis=1)
                for i, duplicate in zip(maybe, (near <= _RADIUS).tolist()):
                    if duplicate:
                        level[i] = 0.0
                        end(i, "duplicate")
                stepping = [i for i in stepping if ends[i] is None]
            if stepping:
                rows = [at[i][1] for i in stepping]
                jac = system.jacobian(ev.z, ev.tables, rows)
                top = np.abs(jac).max(axis=(1, 2))  # NaN or inf where J is not finite
                steps = _steps(jac, _take(ev.f, rows), system.min_norm, np.isfinite(top))
                levels = _levels(jac, _take(ev.z, rows), [history[i][-1] for i in stepping],
                                 [z_norm[i] for i in stepping], top)
                for i, s, rho in zip(stepping, steps, levels):
                    level[i] = rho
                    if isinstance(s, str):
                        end(i, s)
                    elif _norm(s) <= _EPS * z_norm[i]:
                        # A step below the rounding level of the iterate: the
                        # root is polished as far as it can be.
                        end(i, "stalled")
                    else:
                        # At its rounding level f is noise, which a short step cannot
                        # reduce: only the full and the half step are tried there.
                        step[i] = s
                        floor[i] = level[i] > 0.0 and float(np.max(np.abs(f[i]))) <= level[i]
                        if floor[i]:
                            alpha[i] = 1.0
                        next_trial(i)
            running = [i for i in running if ends[i] is None]
            if not running:
                return ends
            # Copied, as trial is written on; one row is sliced, not fancy-indexed.
            ev, stepping = _evaluate(system, _take(trial, running).copy()), []
            for row, i in enumerate(running):
                # A non-finite residual's norm is inf or NaN: no decrease.
                if row not in ev.errors and (norm_try := _norm(ev.f[row])) < history[i][-1]:
                    z[i], f[i], at[i] = trial[i], ev.f[row], (ev, row)
                    history[i].append(norm_try)
                    floor_steps[i] += floor[i]
                    if floor_steps[i] == 2:
                        end(i, "stalled")
                    elif (kept and len(history[i]) > _WINDOW
                          and norm_try >= _PROGRESS * history[i][-1 - _WINDOW]):
                        end(i, "slow")
                    else:
                        alpha[i] = min(1.0, 2.0 * alpha[i])
                        if asks_step(i):
                            stepping.append(i)
                else:
                    alpha[i] *= 0.5
                    next_trial(i)


def _starts(p: IsoperimetricProblem, opts: SolverOptions) -> np.ndarray:
    """The stack of starts: the boundary interpolant, then its seeded
    perturbations.  A start that overflows is kept as it is, inf or NaN,
    without numpy's warning: the runs end it ("non-finite iterate").  A
    multistart too large for an array is a ValueError that names it."""
    t = p.scale.points
    rng = np.random.default_rng(opts.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        base = p.alpha + (p.beta - p.alpha) * (t[1:-1] - t[0]) / (t[-1] - t[0])
        try:
            noise = rng.uniform(-opts.spread, opts.spread, (opts.multistart, base.size))
        except (ValueError, MemoryError) as exc:
            raise ValueError(f"multistart {opts.multistart}: too many starts for an array") from exc
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


def _distinct(runs: list[_NewtonRun], n: int) -> list[_NewtonRun]:
    """The runs whose first n unknowns, the interior values, are not
    within _RADIUS (∞-norm) of those of an earlier run kept."""
    kept: list[_NewtonRun] = []
    for run in runs:
        if not any(np.max(np.abs(run.z[:n] - k.z[:n])) <= _RADIUS for k in kept):
            kept.append(run)
    return kept


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
    lambda).  The Jacobian is the Hessian of the Lagrangian (one
    hessian_into pass) bordered by -grad(constraint) on the right and
    grad(constraint) below."""
    n = p.interior_count()

    def residual(z: np.ndarray, tables: tuple[SlotTables, ...]) -> np.ndarray:
        obj, con = tables
        return np.concatenate((obj.grad - z[:, n:] * con.grad, con.value - p.k), axis=1)

    def jacobian(
        z: np.ndarray, tables: tuple[SlotTables, ...], rows: list[int]
    ) -> np.ndarray:
        lam = _take(z, rows)[:, n:, None]
        jac = np.zeros((len(lam), n + 1, n + 1))
        hessian_into(jac, tables, rows, lam)
        grad = _take(tables[1].grad, rows)
        jac[:, :n, n] = -grad
        jac[:, n, :n] = grad
        return jac

    return _System((p.objective, p.constraint), p, False, residual, jacobian)


def _abnormal_system(p: IsoperimetricProblem) -> _System:
    """The square system grad(constraint) = 0 in the interior values,
    whose Jacobian is the constraint's Hessian."""
    return _System(
        (p.constraint,), p, True,
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
    runs = _newton(_normal_system(p), z0, opts)

    converged = [run for run in runs if _met(run, p, opts)]
    if converged:
        points = tuple(StationaryPoint(run.z[:n].copy(), float(run.z[n]), run.value(0))
                       for run in _distinct(converged, n))
        best = min(converged, key=lambda run: run.value(0))
        return _answer(p, *best.tables, 1.0, float(best.z[n]), best.iterations, opts,
                       best.level, points)

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
    (tab,), undefined = system_tables((con,), p.scale.points, p._values(starts))
    with np.errstate(all="ignore"):
        grad = tab.grad
        # A finite grad K at every start means finite factors and slopes.
        if undefined or not np.isfinite(grad).all():
            return False
        a, b = tab.grad_delta[0], tab.grad_nabla[0]
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
    then keeps the points within feas_tol of the level k that also make
    the constraint's bracket constant within max(stat_tol, the run's
    rounding level), the test of is_extremal_for_K, read from the
    constraint as the run last evaluated it.  Only at each distinct one
    (see _distinct) is the objective evaluated, once, for the answer.
    An empty list from the decision is a proof that no start can end at
    an abnormal point; from the search it means only that no start
    found one.
    """
    opts = opts or SolverOptions()
    starts = _starts(p, opts)
    if _none_met(p, opts, starts):
        return []

    candidates = []
    for run in _newton(_abnormal_system(p), starts, opts):
        if _met(run, p, opts):
            with np.errstate(all="ignore"):  # a non-finite bracket fails the test
                defect = bracket_defect(tables_bracket(run.tables[0]))
            if defect <= max(opts.stat_tol, run.level):
                candidates.append(run)
    # A candidate is abnormal whatever the objective does there; a NaN
    # certificate keeps it from converging.
    return [
        _answer(p, tables_or_nan(p.objective, p.scale.points, run.tables[0].values),
                *run.tables, 0.0, 1.0, run.iterations, opts, run.level)
        for run in _distinct(candidates, p.interior_count())
    ]


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
