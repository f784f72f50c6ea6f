"""Machine-speed probe that puts timings of different runs on one scale.

On a shared machine the speed of the same code drifts by up to 2x over
tens of seconds, so raw wall times of two runs are not comparable.  The
benchmark therefore runs a fixed probe between consecutive timed
operations and multiplies each operation's wall time by
``PROBE_REF_S / probe``, the mean of the probes just before and after
it.  The result is the time the operation would take at the speed at
which the probe lasts PROBE_REF_S (about the 2-vCPU reference machine
when unloaded).  The probe uses no deltanabla code: a small expression
tree interpreter and small numpy operations, the same mix of
interpreter and numpy dispatch work as the package, so a change to the
package cannot change the probe.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_REF_S = 0.009

_TREE = ("+", ("*", ("v",), ("v",)),
         ("*", ("c", 0.3), ("+", ("u",), ("*", ("t",), ("v",)))))


def _ev(node, t, u, v):
    op = node[0]
    if op == "+":
        return _ev(node[1], t, u, v) + _ev(node[2], t, u, v)
    if op == "*":
        return _ev(node[1], t, u, v) * _ev(node[2], t, u, v)
    if op == "c":
        return node[1]
    return {"t": t, "u": u, "v": v}[op]


def probe() -> float:
    """Wall time of a fixed piece of work, in seconds."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(3000):
        total += _ev(_TREE, i * 1e-3, 0.5, 0.25)
    a = np.arange(8.0)
    for _ in range(300):
        a = np.diff(np.concatenate(([0.0], a))) + 1.0
    return time.perf_counter() - t0


class Scaler:
    """Probes around timed operations: call ``mark`` before one and
    ``factor`` after it.  The probe after an operation serves as the
    probe before the next."""

    def __init__(self) -> None:
        probe()  # first call pays for imports and caches; discarded
        self.probes: list[float] = []
        self._before: float | None = None

    def mark(self) -> None:
        if self._before is None:
            self._before = probe()
            self.probes.append(self._before)

    def factor(self) -> float:
        after = probe()
        self.probes.append(after)
        f = PROBE_REF_S / (0.5 * (self._before + after))
        self._before = after
        return f

    def summary(self) -> dict:
        return {
            "probe_ref_s": PROBE_REF_S,
            "probes": len(self.probes),
            "probe_median_s": statistics.median(self.probes),
            "probe_min_s": min(self.probes),
            "probe_max_s": max(self.probes),
        }
