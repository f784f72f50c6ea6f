"""deltanabla benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the workload runs closed-loop, one client, for S seconds
(and at least MIN_SOLVES problems), and the last stdout line carries the
end-to-end metrics.  With --trace 1 a fixed prefix of the same workload
runs once untraced and once with the layer tracer installed, and the
last line carries the per-layer metrics.  The line before it is a report
with provenance, sample counts and gate failures.  NOTES.md explains
the workloads and metrics.

Run from any directory; the package is taken from ../src relative to
this file.  Exits 2 without a result when the package is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

MIN_SOLVES = 11  # the tail sample needs 10 samples above it
HARD_CAP_S = 150.0  # stop a timed phase here even below MIN_SOLVES
SETUP_REPEATS = 9
PROCESS_START_REPEATS = 3
TRACE_PREFIX = {"example_large": 1, "random_small": 12, "cli_transcendental": 4}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _timed_child(argv: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True)
    return time.perf_counter() - t0


def _provenance(W) -> dict:
    import numpy as np

    commit = "unknown (not a git checkout)"
    try:
        # The ceiling keeps git from reading a repository above the checkout.
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "thread_env": W.THREAD_ENV,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "clients": 1,
    }


class Inputs:
    """The generated inputs of one workload and seed."""

    def __init__(self, W, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        if workload == "cli_transcendental":
            self.paths = W.write_cli_docs(seed, workdir)
            self.items = W.cli_items(self.paths)
            self.sha256 = W.digest([p.read_text() for p in self.paths])
            self.setup_argv = [str(workdir)]
        else:
            self.items = W.build_library(workload, seed, reference=True)
            self.sha256 = W.digest([lp.key for lp in self.items])
            self.setup_argv = []
        self.count = len(self.items)


def _tail(samples: list[float]) -> tuple[float, float | None]:
    """The value with exactly ten samples above it, and its percentile
    (None when there are too few samples and the maximum is reported)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < MIN_SOLVES:
        return ordered[-1], None
    rank = n - MIN_SOLVES
    return ordered[rank], 100.0 * rank / (n - 1)


def _run_item(W, inputs: Inputs, item, seen: dict, in_process: bool):
    if inputs.workload == "cli_transcendental":
        return W.run_cli_item(item, seen, in_process)
    return W.run_library_item(item)


def end_to_end(W, inputs: Inputs, seconds: float, report: dict):
    import speed

    scaler = speed.Scaler()
    cmd = [sys.executable, str(BENCH / "workloads.py"), inputs.workload,
           str(inputs.seed), *inputs.setup_argv]
    setups_raw, setups = [], []
    for _ in range(SETUP_REPEATS):
        scaler.mark()
        took = _timed_child(cmd, W.child_env())
        setups_raw.append(took)
        setups.append(took * scaler.factor())

    seen: dict = {}
    outcomes = []
    solves = 0
    busy_raw = busy = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and solves >= MIN_SOLVES):
            break
        item = inputs.items[i % inputs.count]
        i += 1
        scaler.mark()
        t0 = time.perf_counter()
        out = _run_item(W, inputs, item, seen, in_process=False)
        took = time.perf_counter() - t0
        factor = scaler.factor()
        busy_raw += took
        busy += took * factor
        out.rescale(factor)
        outcomes.append(out)
        solves += out.solve_s is not None
    wall = time.perf_counter() - start

    solve_s = [o.solve_s for o in outcomes if o.solve_s is not None]
    verify_s = [t for o in outcomes for t in o.verify_s]
    problems = sum(o.problems for o in outcomes)
    verifications = sum(o.verifications for o in outcomes)
    tail, tail_pct = _tail(solve_s) if solve_s else (0.0, None)
    cli = inputs.workload == "cli_transcendental"
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    values = {
        "setup_s": statistics.median(setups),
        "problems_per_s": len(solve_s) / busy if busy else 0.0,
        "solve_p50_s": statistics.median(solve_s) if solve_s else 0.0,
        "solve_tail_s": tail,
        "verify_p50_s": statistics.median(verify_s) if verify_s else 0.0,
        "converged_frac": sum(o.converged for o in outcomes) / max(problems, 1),
        "oracle_agree_frac": sum(a for o in outcomes for a in o.agree) / max(verifications, 1),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    report["samples"] = {
        "setup_s": len(setups),
        "problems": problems,
        "solve_timings": len(solve_s),
        "verifications": verifications,
        "verify_timings": len(verify_s),
        "timed_wall_s": wall,
        "solve_tail_percentile": tail_pct,
        "solve_tail_note": (
            "value with exactly 10 samples above it" if tail_pct is not None
            else f"fewer than {MIN_SOLVES} solves: maximum reported"
        ),
    }
    report["speed"] = scaler.summary()
    report["unscaled"] = {
        "setup_s": statistics.median(setups_raw),
        "problems_per_s": len(solve_s) / busy_raw if busy_raw else 0.0,
        "solve_p50_s": statistics.median(o.solve_s / o.scale for o in outcomes
                                         if o.solve_s is not None) if solve_s else 0.0,
    }
    report["setup_runs_s"] = setups
    report["solve_runs_s"] = solve_s
    report["verify_runs_s"] = verify_s
    return values, outcomes


def per_layer(W, inputs: Inputs, report: dict):
    import tracing

    cli = inputs.workload == "cli_transcendental"
    prefix = TRACE_PREFIX[inputs.workload]
    seen: dict = {}

    def one_pass(tracer=None):
        """Build (library workloads) and run the fixed prefix in-process;
        with a tracer, each item's spans hang under one item span."""
        t0 = time.perf_counter()
        if cli:
            work = W.cli_items(inputs.paths[:prefix])
        else:
            work = W.build_library(inputs.workload, inputs.seed, count=prefix)
            for lp, ref in zip(work, inputs.items):
                lp.closed_form = ref.closed_form
        outs = []
        for item in work:
            with tracer.span("bench.item") if tracer else contextlib.nullcontext():
                outs.append(_run_item(W, inputs, item, seen, in_process=True))
        return time.perf_counter() - t0, outs

    untraced_s, outcomes = one_pass()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced_s, traced_outcomes = one_pass(tracer)
    finally:
        tracer.restore()
    outcomes += traced_outcomes
    tracer.dump(BENCH / "_out" / f"spans-{inputs.workload}-seed{inputs.seed}.jsonl")

    starts = [
        _timed_child([sys.executable, "-c", "import deltanabla"], W.child_env())
        for _ in range(PROCESS_START_REPEATS)
    ]
    st = tracer.stats
    normal = st["solver.solve_normal"].total_s
    abnormal = st["solver.find_abnormal"].total_s
    values = {
        "expressions.point_evals": st["expressions.lagrangian"].calls,
        "expressions.lagrangian.self_s": st["expressions.lagrangian"].self_s,
        "expressions.make_lagrangian.calls": st["expressions.make_lagrangian"].calls,
        "expressions.make_lagrangian.self_s": st["expressions.make_lagrangian"].self_s,
        "functional.slot_tables.calls": st["functional.slot_tables"].calls,
        "functional.slot_tables.self_s": st["functional.slot_tables"].self_s,
        "functional.eval_functional.calls": st["functional.eval_functional"].calls,
        "functional.eval_functional.self_s": st["functional.eval_functional"].self_s,
        "functional.bracket_values.calls": st["functional.bracket_values"].calls,
        "solver.discrete_gradient.calls": st["solver.discrete_gradient"].calls,
        "solver.discrete_gradient.self_s": st["solver.discrete_gradient"].self_s,
        "solver.solve_normal.self_s": st["solver.solve_normal"].self_s,
        "solver.find_abnormal.self_s": st["solver.find_abnormal"].self_s,
        "solver.find_abnormal.share": abnormal / (normal + abnormal) if normal + abnormal else 0.0,
        "solver.abnormal_found_per_start": tracer.found / tracer.starts if tracer.starts else 0.0,
        "solver.linalg.calls": st["solver.linalg"].calls,
        "solver.linalg.self_s": st["solver.linalg"].self_s,
        "solver.iterations": tracer.iterations / tracer.answers if tracer.answers else 0.0,
        "timescale.gridfunction.constructions": st["timescale.gridfunction"].calls,
        "oracle.kkt_check.self_s": st["oracle.kkt_check"].self_s,
        "oracle.fd_gradient.calls": st["oracle.fd_gradient"].calls,
        "oracle.verify_example.self_s": st["oracle.verify_example"].self_s,
        "oracle.identity_fuzz.self_s": st["oracle.identity_fuzz"].self_s,
        "problemfile.load_problem.self_s": st["problemfile.load_problem"].self_s,
        "cli.main.self_s": st["cli.main"].self_s,
        "cli.process_start_s": statistics.median(starts),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    report["samples"] = {
        "trace_prefix_items": len(traced_outcomes),
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "spans": len(tracer.spans),
        "abnormal_found": tracer.found,
        "abnormal_starts": tracer.starts,
        "normal_answers": tracer.answers,
        "process_start_runs_s": starts,
    }
    report["calls"] = {name: s.calls for name, s in sorted(st.items())}
    return values, outcomes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "deltanabla" / "__init__.py").is_file():
        print(f"error: no deltanabla package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads as W

    # One CPU for the benchmark and its children, so that the speed probe
    # (speed.py) runs where the timed work runs.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": _provenance(W),
    }
    try:
        inputs = Inputs(W, args.workload, args.seed, workdir)
        report["inputs"] = {"count": inputs.count, "sha256": inputs.sha256}
        if args.trace:
            values, outcomes = per_layer(W, inputs, report)
        else:
            values, outcomes = end_to_end(W, inputs, args.seconds, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    report["failures"] = [f for o in outcomes for f in o.failures][:20]
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC["per_layer" if args.trace else "end_to_end"]
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
