"""Self-checks of the benchmark harness (not part of the package suite).

    python3 -m pytest bench/test_bench.py -q

Two traced runs with one seed must give identical call counts and input
hashes, the tracer must survive removed names and restore what it
wrapped, and a directory without the package must give no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    return proc


def _report_and_result(proc):
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


def _counts(result):
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


@pytest.mark.parametrize("workload", ["example_large", "random_small"])
def test_traced_runs_repeat_exactly(workload):
    report1, result1 = _report_and_result(_run(workload, 7, 1))
    report2, result2 = _report_and_result(_run(workload, 7, 1))
    assert report1["inputs"]["sha256"] == report2["inputs"]["sha256"]
    assert report1["calls"] == report2["calls"]
    assert report1["calls"]["solver.solve_normal"] > 0
    assert _counts(result1) == _counts(result2)
    assert result1["correct"] and result2["correct"]


def test_seed_changes_random_inputs():
    a = _report_and_result(_run("random_small", 1, 0))[0]["inputs"]["sha256"]
    b = _report_and_result(_run("random_small", 2, 0))[0]["inputs"]["sha256"]
    assert a != b


def test_tracer_skips_missing_names_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads  # noqa: F401  (imports the package from src/)
    import deltanabla.functional as functional
    import deltanabla.solver as solver
    import deltanabla.timescale as timescale

    originals = (solver.solve_normal, solver.eval_functional, functional.eval_functional,
                 timescale.GridFunction.__init__)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.wrap_function("solver", "no_such_function", "solver.no_such_function")
    try:
        assert solver.eval_functional is functional.eval_functional
        assert solver.eval_functional is not originals[1]
        solver.solve_normal(solver.example_problem(3), solver.SolverOptions(multistart=0))
    finally:
        tracer.restore()
    assert (solver.solve_normal, solver.eval_functional, functional.eval_functional,
            timescale.GridFunction.__init__) == originals
    assert tracer.stats["solver.no_such_function"].calls == 0
    assert tracer.stats["functional.eval_functional"].calls > 0
    assert tracer.stats["expressions.lagrangian"].calls > 0
    assert tracer.answers == 1


def test_no_result_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("random_small", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
