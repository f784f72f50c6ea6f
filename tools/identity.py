"""Fingerprint what the solver computes, to show a refactor changed no bit.

    OPENBLAS_NUM_THREADS=1 python3 tools/identity.py [SRC_DIR]

imports the deltanabla package from SRC_DIR (default: this checkout's
src) and prints two short hashes per item, of its answers and of its
raw Newton runs, then a total of each column.  Run it on two checkouts
and diff the outputs: a line that differs names the item whose numbers
moved, and a change that moves only runs whose ends no answer reads
(a run that is not accepted, say) leaves the first column as it was.
The items are

- ``random_small[i]``: the 128 seed-1 problems of the benchmark's
  random_small pool;
- ``example[m]``: example_problem(m) for m = 3, 8, 128 and 1024 with
  the default options;
- ``cli[docNNN]``: ``deltanabla solve DOC --output structured`` on the
  25 seed-1 documents of the cli_transcendental workload, run in
  process.

A problem's answer hash covers every field of solve_normal's answer
and of each answer of find_abnormal; a document's covers the exit code,
stdout and stderr.  The run hash covers every raw Newton run the item
made, in either search (z and f bytes, iterations, status and rounding
level).  The problems and documents come from bench/workloads.py,
which is only read.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Single-threaded numerics, as in the benchmark: set before numpy loads.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

import numpy as np  # noqa: E402


def _canon(x, out: list[bytes]) -> None:
    """Append an exact, typed encoding of x to out."""
    if isinstance(x, np.ndarray):
        out.append(f"array{x.dtype}{x.shape}".encode())
        out.append(np.ascontiguousarray(x).tobytes())
    elif dataclasses.is_dataclass(x):
        out.append(type(x).__name__.encode())
        for field in dataclasses.fields(x):
            if field.name != "ev":  # a run's evaluation: its z and f are kept
                _canon(getattr(x, field.name), out)
    elif isinstance(x, (list, tuple)):
        out.append(f"seq{len(x)}".encode())
        for item in x:
            _canon(item, out)
    else:  # None, bool, int, str, and floats by their exact repr
        out.append(repr(x).encode())


def _hash(x) -> str:
    parts: list[bytes] = []
    _canon(x, parts)
    return hashlib.sha256(b"\0".join(parts)).hexdigest()[:12]


def _recorded(dn, call):
    """call()'s result and the raw Newton runs it made."""
    runs = []
    newton = dn.solver._newton

    def recording(*args):
        runs.append(newton(*args))
        return runs[-1]

    dn.solver._newton = recording
    try:
        return call(), runs
    finally:
        dn.solver._newton = newton


def _problem(dn, p, opts) -> tuple[str, str]:
    """The hashes of the answers of both searches and of the runs they made."""
    answers, runs = _recorded(
        dn, lambda: (dn.solver.solve_normal(p, opts), dn.solver.find_abnormal(p, opts)))
    return _hash(answers), _hash(runs)


def _document(dn, path: Path) -> tuple[str, str]:
    """The hashes of the exit code and output, and of the runs made."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code, runs = _recorded(
            dn, lambda: dn.cli.main(["solve", str(path), "--output", "structured"]))
    texts = (stdout.getvalue(), stderr.getvalue())
    return _hash((code, [text.replace(str(path.parent), "DIR") for text in texts])), _hash(runs)


def main(argv: list[str]) -> int:
    src = Path(argv[0]).resolve() if argv else ROOT / "src"
    sys.path.insert(0, str(src))
    import deltanabla as dn
    import deltanabla.cli  # noqa: F401

    if Path(dn.__file__).resolve().parent.parent != src:
        print(f"deltanabla was imported from {dn.__file__}, not {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads  # finds the package above already imported

    lines = []
    for i, lp in enumerate(workloads.build_library("random_small", 1)):
        lines.append((f"random_small[{i}]", _problem(dn, lp.problem, lp.options)))
    for m in (3, 8, 128, 1024):
        p = dn.solver.example_problem(m)
        lines.append((f"example[{m}]", _problem(dn, p, dn.solver.SolverOptions())))
    with tempfile.TemporaryDirectory() as tmp:
        for path in workloads.write_cli_docs(1, Path(tmp)):
            lines.append((f"cli[{path.stem}]", _document(dn, path)))
    for name, (answers, runs) in lines:
        print(name, answers, runs)
    print("total", *(_hash([digests[k] for _, digests in lines]) for k in (0, 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
