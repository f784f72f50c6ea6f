"""Seeded inputs and one unit of work for each benchmark workload.

A workload is a fixed sequence of items generated from the seed.  An
item is one problem (solve_normal followed by find_abnormal, or one
``deltanabla solve`` process) together with the verifications of its
answer, or, on the CLI workload, one pair of ``deltanabla verify``
processes.  Every item returns the timings, outcomes and gate failures
that run.py aggregates.

The package is always reached through module attributes looked up at
call time (``dn.solver.solve_normal``), so the tracer in tracing.py can
swap them for wrapped versions.

Run as a script, this module is the set-up probe that run.py times in a
fresh interpreter: it imports deltanabla and builds every problem of
the workload, then exits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Single-threaded numerics: OpenBLAS would otherwise start up to 64
# threads on a small machine.  Set before numpy is imported here and in
# every child process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import deltanabla as dn  # noqa: E402
import deltanabla.cli  # noqa: E402,F401
import deltanabla.oracle  # noqa: E402,F401
import deltanabla.problemfile  # noqa: E402,F401
import deltanabla.solver  # noqa: E402,F401

EXAMPLE_M = 128
CLOSED_FORM_TOL = 1e-12
# Oracle verdict: finite-difference KKT residual at the caller's
# multiplier (or the constraint-only gradient for lambda0 = 0) at most
# this, as in acceptance criterion 5.
ORACLE_TOL = 1e-5
RANDOM_POOL = 128
CLI_DOCS = 24
CLI_POINTS = 16
VERIFY_EXAMPLE_M = 48
VERIFY_IDENTITY_COUNT = 200


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def digest(parts: list[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class Outcome:
    """What one item did: at most one problem (solve_s is None when it
    raised) and any number of verifications, each attempted operation
    counted once as failed however many gates it broke."""

    problems: int = 0
    solve_s: float | None = None
    converged: bool = False
    verifications: int = 0
    verify_s: list[float] = field(default_factory=list)
    agree: list[bool] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    problem_failed: bool = False
    verifications_failed: int = 0
    scale: float = 1.0

    def rescale(self, factor: float) -> None:
        """Put the timings on the reference speed scale (see speed.py)."""
        self.scale = factor
        if self.solve_s is not None:
            self.solve_s *= factor
        self.verify_s = [t * factor for t in self.verify_s]

    def fail_problem(self, message: str) -> None:
        self.failures.append(message)
        self.problem_failed = True

    def fail_verification(self, message: str) -> None:
        self.failures.append(message)
        self.verifications_failed += 1

    @property
    def attempted(self) -> int:
        return self.problems + self.verifications

    @property
    def failed(self) -> int:
        return int(self.problem_failed) + self.verifications_failed


# ---------------------------------------------------------------------------
# Library workloads


def _coef(rng, lo=-0.5, hi=0.5) -> str:
    return repr(round(float(rng.uniform(lo, hi)), 6))


@dataclass
class LibraryProblem:
    problem: object
    options: object
    key: str
    closed_form: object = None


def _random_small(rng, size: int) -> LibraryProblem:
    """Acceptance criterion 5's recipe: a random gappy scale of the given
    size, random-coefficient polynomial integrands, and the constraint
    level taken from a random feasible competitor."""
    while True:
        pts = np.sort(rng.uniform(0.0, 3.0, size))
        if np.all(np.diff(pts) > 0.0):
            break
    texts = (
        f"v^2 + {_coef(rng)}*u*v + {_coef(rng)}*u + {_coef(rng)}*t",
        f"v^2 + {_coef(rng)}*u + {_coef(rng)}*v + {_coef(rng, 0.5, 1.5)}",
        f"{_coef(rng)}*t*v + {_coef(rng)}*u + {_coef(rng, 0.8, 1.5)}",
        f"{_coef(rng)}*v + {_coef(rng)}*u + {_coef(rng, 0.8, 1.5)}",
    )
    objective = dn.functional.DeltaNablaFunctional(
        dn.expressions.make_lagrangian(texts[0]),
        dn.expressions.make_lagrangian(texts[1]),
    )
    constraint = dn.functional.DeltaNablaFunctional(
        dn.expressions.make_lagrangian(texts[2]),
        dn.expressions.make_lagrangian(texts[3]),
    )
    scale = dn.timescale.TimeScale(pts)
    alpha, beta = (float(x) for x in rng.uniform(-1.0, 1.0, 2))
    probe = np.linspace(alpha, beta, size) + np.concatenate(
        ([0.0], rng.uniform(-0.3, 0.3, size - 2), [0.0])
    )
    k = dn.functional.eval_functional(
        constraint, dn.timescale.GridFunction(scale, probe)
    ).product
    problem = dn.solver.IsoperimetricProblem(
        scale=scale, alpha=alpha, beta=beta,
        objective=objective, constraint=constraint, k=k,
    )
    key = json.dumps([pts.tolist(), alpha, beta, texts, k])
    return LibraryProblem(problem, dn.solver.SolverOptions(), key)


def build_library(
    workload: str, seed: int, count: int | None = None, reference: bool = False
) -> list[LibraryProblem]:
    """The workload's problem sequence.  example_large is one fixed
    instance; the seed only sets the (unused, one-start) multistart
    seed, so every seed sees the same input.  With ``reference`` the
    example carries its closed-form extremal for the accuracy gate."""
    if workload == "example_large":
        p = dn.solver.example_problem(EXAMPLE_M)
        opts = dn.solver.SolverOptions(multistart=0, seed=seed)
        lp = LibraryProblem(p, opts, f"example_problem({EXAMPLE_M})")
        if reference:
            lp.closed_form = dn.solver.closed_form_example(EXAMPLE_M)[0]
        return [lp]
    # Sizes 4 to 8 come in shuffled blocks of five, so that every run
    # sees the same mix of sizes whatever the seed; cost grows with size.
    rng = np.random.default_rng(seed)
    problems = []
    for i in range(count or RANDOM_POOL):
        if i % 5 == 0:
            block = rng.permutation(5)
        problems.append(_random_small(rng, 4 + int(block[i % 5])))
    return problems


def _bracket_says_stationary(p, y, lam0, lam, tol) -> bool:
    f = dn.functional
    d1 = f.iso_residual(p.objective, p.constraint, y, lam0, lam, f.EL1).defect
    d2 = f.iso_residual(p.objective, p.constraint, y, lam0, lam, f.EL2).defect
    return bool(d1 <= tol and d2 <= tol)


def _oracle_says_stationary(p, y, lam0, lam) -> bool:
    if lam0 == 0.0:
        def constraint_map(g):
            return dn.functional.eval_functional(p.constraint, g).product

        resid = float(np.max(np.abs(dn.oracle.fd_gradient(constraint_map, y, 1e-6))))
    else:
        resid = dn.oracle.kkt_check(p, y, lam / lam0).residual_inf_norm
    return bool(resid <= ORACLE_TOL)


def _verify(out: Outcome, lp: LibraryProblem, y, lam0: float, lam: float) -> None:
    """Oracle verdict on y and on a visibly perturbed copy (a negative
    control, as in acceptance criterion 5), each compared with the
    bracket certificate."""
    p = lp.problem
    bumped = y.values.copy()
    bumped[1:-1] += 0.05 * (1.0 + np.arange(len(bumped) - 2))
    for cand in (y, dn.timescale.GridFunction(p.scale, bumped)):
        out.verifications += 1
        try:
            t0 = time.perf_counter()
            oracle = _oracle_says_stationary(p, cand, lam0, lam)
            out.verify_s.append(time.perf_counter() - t0)
            bracket = _bracket_says_stationary(p, cand, lam0, lam, lp.options.stat_tol)
        except Exception as exc:  # counted as a failed verification
            out.fail_verification(f"verification raised {exc!r}")
            continue
        out.agree.append(oracle == bracket)


def run_library_item(lp: LibraryProblem) -> Outcome:
    out = Outcome(problems=1)
    p, opts = lp.problem, lp.options
    try:
        t0 = time.perf_counter()
        result = dn.solver.solve_normal(p, opts)
        abnormal = dn.solver.find_abnormal(p, opts)
        out.solve_s = time.perf_counter() - t0
    except Exception as exc:  # a crash is a failed problem, not a crashed run
        out.fail_problem(f"solve raised {exc!r}")
        return out
    out.converged = bool(result.converged)
    if result.converged and not result.el_defect <= opts.stat_tol:
        out.fail_problem(f"converged with bracket defect {result.el_defect:.3e}")
    if lp.closed_form is not None:
        err = float(np.max(np.abs(result.y.values - lp.closed_form.values)))
        if not err <= CLOSED_FORM_TOL:
            out.fail_problem(f"closed-form error {err:.3e}")
    _verify(out, lp, result.y, 1.0, result.lam)
    for ab in abnormal:
        _verify(out, lp, ab.y, 0.0, 1.0)
    return out


# ---------------------------------------------------------------------------
# CLI workload


ABNORMAL_DOC = {
    # Constraint (sum v^2 mu)(sum v^2 nu) = 0 forces y constant, where the
    # constraint gradient vanishes: find_abnormal succeeds and the normal
    # solve cannot converge (exit 2).
    "timescale": {"points": [0.0, 0.4, 1.0, 1.3, 2.0]},
    "boundary": {"alpha": 1.0, "beta": 1.0},
    "objective": {"delta": "v^2 + u", "nabla": "v^2 + 1"},
    "constraint": {"delta": "v^2", "nabla": "v^2"},
    "k": 0.0,
    "options": {"multistart": 4},
}


def _transcendental_doc(rng) -> dict:
    gaps = rng.uniform(0.05, 0.2, CLI_POINTS - 1)
    pts = [0.0] + [round(float(x), 6) for x in np.cumsum(gaps)]
    alpha, beta = (round(float(x), 6) for x in rng.uniform(-1.0, 1.0, 2))
    c = _coef
    doc = {
        "timescale": {"points": pts},
        "boundary": {"alpha": alpha, "beta": beta},
        "objective": {
            "delta": f"v^2 + {c(rng, -.3, .3)}*sin(t + u)"
                     f" + {c(rng, -.3, .3)}*log(u^2 + {c(rng, .5, 2)})",
            "nabla": f"v^2 + {c(rng, -.3, .3)}*sqrt(v^2 + {c(rng, .5, 2)})"
                     f" + {c(rng, -.3, .3)}*exp({c(rng, -.25, .25)}*u)"
                     f" + {c(rng, .5, 1.5)}",
        },
        "constraint": {
            "delta": f"{c(rng)}*t*v + {c(rng)}*u + {c(rng, .8, 1.5)}",
            "nabla": {"constant_over_measure": True},
        },
        "k": 0.0,
        "options": {"multistart": 4, "seed": int(rng.integers(1000))},
    }
    # Level from a random feasible competitor, as for random_small.
    loaded = dn.problemfile.load_problem(doc)
    probe = np.linspace(alpha, beta, CLI_POINTS) + np.concatenate(
        ([0.0], rng.uniform(-0.3, 0.3, CLI_POINTS - 2), [0.0])
    )
    doc["k"] = dn.functional.eval_functional(
        loaded.problem.constraint,
        dn.timescale.GridFunction(loaded.problem.scale, probe),
    ).product
    return doc


def write_cli_docs(seed: int, workdir: Path) -> list[Path]:
    rng = np.random.default_rng(seed)
    docs = [ABNORMAL_DOC] + [_transcendental_doc(rng) for _ in range(CLI_DOCS)]
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, doc in enumerate(docs):
        path = workdir / f"doc{i:03d}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        paths.append(path)
    return paths


def cli_items(paths: list[Path]) -> list[list[str]]:
    """Each document is solved twice in a row (the byte-identity gate),
    and every second document is followed by one verify pair."""
    items = []
    for i, path in enumerate(paths):
        argv = ["solve", str(path), "--output", "structured"]
        items += [argv, argv]
        if i % 2 == 1:
            items.append(["verify-pair"])
    return items


VERIFY_PAIR = (
    ["verify", "example", "--M", str(VERIFY_EXAMPLE_M)],
    ["verify", "identities", "--count", str(VERIFY_IDENTITY_COUNT)],
)


def run_cli_argv(argv: list[str], in_process: bool) -> tuple[int, str, float]:
    """Exit code, stdout and wall time of one ``deltanabla`` command:
    a fresh process, or deltanabla.cli.main in this one."""
    t0 = time.perf_counter()
    if in_process:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = dn.cli.main(argv)
        return code, buf.getvalue(), time.perf_counter() - t0
    proc = subprocess.run(
        [sys.executable, "-m", "deltanabla", *argv],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
    )
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def run_cli_item(argv: list[str], seen: dict, in_process: bool) -> Outcome:
    out = Outcome()
    if argv == ["verify-pair"]:
        for cmd in VERIFY_PAIR:
            out.verifications += 1
            try:
                code, stdout, elapsed = run_cli_argv(cmd, in_process)
            except Exception as exc:
                out.fail_verification(f"{' '.join(cmd)} raised {exc!r}")
                continue
            if code not in (0, 2):
                out.fail_verification(f"{' '.join(cmd)}: exit {code}")
                continue
            out.verify_s.append(elapsed)
            # Both suites check inputs that are exact by construction (the
            # closed-form extremal, exact identities), so the oracle
            # agrees with the certificate when it prints PASS.
            out.agree.append(code == 0 and stdout.rstrip().endswith("result: PASS"))
        return out
    out.problems = 1
    path = argv[1]
    try:
        code, stdout, elapsed = run_cli_argv(argv, in_process)
    except Exception as exc:
        out.fail_problem(f"solve {path} raised {exc!r}")
        return out
    out.solve_s = elapsed
    out.converged = code == 0
    if code not in (0, 2):
        out.fail_problem(f"solve {path}: exit {code}")
        return out
    if seen.setdefault(path, stdout) != stdout:
        out.fail_problem(f"solve {path}: structured output differs between runs")
    try:
        result = json.loads(stdout)["result"]
        tol = json.loads(Path(path).read_text()).get("options", {}).get("tol", 1e-8)
    except (ValueError, KeyError) as exc:
        out.fail_problem(f"solve {path}: unreadable output {exc!r}")
        return out
    if result["converged"] and not result["el_defect"] <= tol:
        out.fail_problem(f"solve {path}: converged with defect {result['el_defect']}")
    return out


if __name__ == "__main__":
    # Set-up probe: python3 workloads.py WORKLOAD SEED [DOCDIR]
    name, seed = sys.argv[1], int(sys.argv[2])
    if name == "cli_transcendental":
        for path in sorted(Path(sys.argv[3]).glob("doc*.json")):
            dn.problemfile.load_problem(path)
    else:
        build_library(name, seed)
