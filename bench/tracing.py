"""Layer tracing by wrapping the package's public names from outside.

Each traced name is a public function, a public class's method or a
numpy.linalg routine.  A module-level function is replaced in every
deltanabla module that binds it, because modules call each other
through names they imported (solver calls its own binding of
eval_functional).  Names that do not exist, for instance after a later
change removes a function, are skipped and report zero calls.

Calls of a *span* name are kept in memory as spans (id, parent id, name,
start, end) and written out by ``dump``.  Calls of a *leaf* name are far
too frequent to keep one by one (integrand evaluation runs millions of
times per problem at n = 128): they are counted and timed in aggregate,
and their time is charged to the enclosing span as child time.  A name's
self time is its total time minus the time of the traced calls it
covers.  ``restore`` puts every original back.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, start, child seconds]
        self.found = 0  # abnormal answers returned by find_abnormal
        self.starts = 0  # starts find_abnormal tried
        self.iterations = 0  # Newton iterations of solve_normal's answers
        self.answers = 0
        self._patches: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        frame = [len(self.spans), time.perf_counter(), 0.0]
        self.spans.append((frame[0], parent, name))
        self.stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame[1]
        self.spans[frame[0]] += (frame[1], end)
        st = self.stat(name)
        st.calls += 1
        st.self_s += duration - frame[2]
        st.total_s += duration
        if self.stack:
            self.stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens around traced work."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, frame)

    def _spanned(self, name, fn, observe=None):
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if observe is not None:
                observe(self, result, args, kwargs)
            return result

        return wrapper

    def _leaf(self, name, fn, timed=True):
        st = self.stat(name)
        stack = self.stack
        clock = time.perf_counter

        if not timed:
            def counter(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)

            return counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                st.calls += 1
                st.self_s += d
                st.total_s += d
                if stack:
                    stack[-1][2] += d

        return wrapper

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module: str, attr: str, name: str, observe=None) -> None:
        """Wrap deltanabla.<module>.<attr> in every deltanabla module
        that binds the same object."""
        home = sys.modules.get(f"deltanabla.{module}")
        original = getattr(home, attr, None)
        self.stat(name)
        if original is None:
            return
        wrapped = self._spanned(name, original, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "deltanabla" and mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def wrap_method(self, owner, attr: str, name: str, timed=True) -> None:
        self.stat(name)
        if owner is None or attr not in owner.__dict__:
            return
        self._set(owner, attr, self._leaf(name, owner.__dict__[attr], timed))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _observe_abnormal(tracer, result, args, kwargs) -> None:
    opts = kwargs.get("opts", args[1] if len(args) > 1 else None)
    if opts is None:
        opts = sys.modules["deltanabla.solver"].SolverOptions()
    tracer.found += len(result)
    tracer.starts += opts.multistart + 1


def _observe_normal(tracer, result, args, kwargs) -> None:
    tracer.iterations += result.iterations
    tracer.answers += 1


SPAN_FUNCTIONS = (
    ("expressions", "make_lagrangian", "expressions.make_lagrangian", None),
    ("functional", "slot_tables", "functional.slot_tables", None),
    ("functional", "eval_functional", "functional.eval_functional", None),
    ("functional", "bracket_values", "functional.bracket_values", None),
    ("solver", "discrete_gradient", "solver.discrete_gradient", None),
    ("solver", "solve_normal", "solver.solve_normal", _observe_normal),
    ("solver", "find_abnormal", "solver.find_abnormal", _observe_abnormal),
    ("oracle", "fd_gradient", "oracle.fd_gradient", None),
    ("oracle", "kkt_check", "oracle.kkt_check", None),
    ("oracle", "verify_example", "oracle.verify_example", None),
    ("oracle", "identity_fuzz", "oracle.identity_fuzz", None),
    ("problemfile", "load_problem", "problemfile.load_problem", None),
    ("cli", "main", "cli.main", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every traced name.  The package must already be imported."""
    for module, attr, name, observe in SPAN_FUNCTIONS:
        tracer.wrap_function(module, attr, name, observe)
    lagrangian = getattr(sys.modules.get("deltanabla.expressions"), "Lagrangian", None)
    for attr in ("__call__", "du", "dv"):
        tracer.wrap_method(lagrangian, attr, "expressions.lagrangian")
    grid = getattr(sys.modules.get("deltanabla.timescale"), "GridFunction", None)
    tracer.wrap_method(grid, "__init__", "timescale.gridfunction", timed=False)
    for attr in ("solve", "lstsq"):
        tracer.wrap_method(np.linalg, attr, "solver.linalg")
