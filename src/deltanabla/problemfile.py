"""Problem files: a small JSON document format for isoperimetric problems.

A document looks like:

    {
      "timescale": {"uniform": {"a": 0, "b": 3, "n": 4}},
      "boundary": {"alpha": 0, "beta": 3},
      "objective": {"delta": "v^2", "nabla": "v^2 + v"},
      "constraint": {"delta": "t*v", "nabla": {"constant_over_measure": true}},
      "k": 1,
      "options": {"tol": 1e-8, "max_iter": 100, "multistart": 8,
                  "seed": 0, "spread": 1.0}
    }

The time scale is either an explicit "points" list or a "uniform"
block.  Integrands are expression strings in the t/u/v grammar; the
{"constant_over_measure": true} form injects the numeric constant
1/(b-a), which the grammar itself cannot express.  Validation errors
carry the dotted path of the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .expressions import ParseError, constant_lagrangian, make_lagrangian, to_str
from .functional import DeltaNablaFunctional
from .solver import IsoperimetricProblem, SolverOptions
from .timescale import TimeScale


class ProblemFileError(ValueError):
    """Raised on an invalid problem document; names the field."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class LoadedProblem:
    """A validated problem plus its solver options and the normalized
    document (explicit points, canonical expression strings) that
    emit/round-trip use."""

    problem: IsoperimetricProblem
    options: SolverOptions
    document: dict


def _object(doc, path: str, fields: tuple[str, ...]) -> dict:
    """doc, checked to be an object with no key outside fields; an
    unknown key is named by its dotted path."""
    if not isinstance(doc, dict):
        raise ProblemFileError(path, "expected an object")
    for key in doc:
        if key not in fields:
            raise ProblemFileError(f"{path}.{key}" if path else key, "unknown field")
    return doc


def _require(doc: dict, field: str, path: str):
    if field not in doc:
        raise ProblemFileError(f"{path}.{field}" if path else field, "missing")
    return doc[field]


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFileError(path, f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = np.inf
    if not np.isfinite(out):
        raise ProblemFileError(path, "must be finite")
    return out


def _scale(doc, path: str) -> TimeScale:
    doc = _object(doc, path, ("points", "uniform"))
    has_points = "points" in doc
    has_uniform = "uniform" in doc
    if has_points == has_uniform:
        raise ProblemFileError(path, "give exactly one of 'points' or 'uniform'")
    if has_points:
        field = f"{path}.points"
        pts = doc["points"]
        if not isinstance(pts, list) or len(pts) < 3:
            raise ProblemFileError(field, "needs interior point (at least 3 points)")
        points = np.array([_real(x, f"{field}[{i}]") for i, x in enumerate(pts)])
    else:
        field = f"{path}.uniform"
        uni = _object(doc["uniform"], field, ("a", "b", "n"))
        a = _real(_require(uni, "a", field), f"{field}.a")
        b = _real(_require(uni, "b", field), f"{field}.b")
        n = _require(uni, "n", field)
        if isinstance(n, bool) or not isinstance(n, int):
            raise ProblemFileError(f"{field}.n", "expected an integer")
        if n < 3:
            raise ProblemFileError(f"{field}.n", "needs interior point (n >= 3)")
        if not b > a:
            raise ProblemFileError(field, "b must exceed a")
        try:
            with np.errstate(all="ignore"):  # b - a may overflow; TimeScale says so
                points = np.linspace(a, b, n)
        except (ValueError, IndexError, MemoryError) as exc:
            # numpy refusing the array size; near 2^63 it raises IndexError
            raise ProblemFileError(f"{field}.n", "too many points for an array") from exc
    try:
        return TimeScale(points)
    except ValueError as exc:
        raise ProblemFileError(field, str(exc)) from exc


def _integrand(raw, path: str, measure: float):
    """Returns (lagrangian, normalized document value)."""
    if isinstance(raw, str):
        try:
            lag = make_lagrangian(raw)
        except ParseError as exc:
            raise ProblemFileError(path, str(exc)) from exc
        return lag, to_str(lag.value)
    if isinstance(raw, dict) and raw.get("constant_over_measure") is True:
        if len(raw) != 1:
            raise ProblemFileError(path, "unexpected keys next to constant_over_measure")
        return constant_lagrangian(1.0 / measure), {"constant_over_measure": True}
    raise ProblemFileError(
        path, "expected an expression string or {\"constant_over_measure\": true}"
    )


def _functional(doc, path: str, measure: float):
    doc = _object(doc, path, ("delta", "nabla"))
    raw_delta = _require(doc, "delta", path)
    raw_nabla = _require(doc, "nabla", path)
    l_delta, norm_delta = _integrand(raw_delta, f"{path}.delta", measure)
    l_nabla, norm_nabla = _integrand(raw_nabla, f"{path}.nabla", measure)
    return DeltaNablaFunctional(l_delta, l_nabla), {
        "delta": norm_delta,
        "nabla": norm_nabla,
    }


OPTION_FIELDS = ("tol", "max_iter", "multistart", "seed", "spread")


def load_options(doc) -> SolverOptions:
    """Solver options from a document's "options" block (None for the
    defaults); errors name the field."""
    path = "options"
    if doc is None:
        return SolverOptions()
    doc = _object(doc, path, OPTION_FIELDS)
    kwargs = {}
    if "tol" in doc:
        tol = _real(doc["tol"], f"{path}.tol")
        if tol <= 0:
            raise ProblemFileError(f"{path}.tol", "must be positive")
        kwargs["feas_tol"] = tol
        kwargs["stat_tol"] = tol
    for key, target in (("max_iter", "max_iter"), ("multistart", "multistart"), ("seed", "seed")):
        if key in doc:
            value = doc[key]
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ProblemFileError(f"{path}.{key}", "expected a nonnegative integer")
            kwargs[target] = value
    if "spread" in doc:
        spread = _real(doc["spread"], f"{path}.spread")
        if spread < 0:
            raise ProblemFileError(f"{path}.spread", "must be nonnegative")
        kwargs["spread"] = spread
    for name, value in kwargs.items():  # one at a time, so that an error names its field
        try:
            SolverOptions(**{name: value})
        except ValueError as exc:
            key = "tol" if name.endswith("_tol") else name
            raise ProblemFileError(f"{path}.{key}", str(exc)) from exc
    return SolverOptions(**kwargs)


def load_problem(source) -> LoadedProblem:
    """Load and validate a problem from a path, JSON text, or dict.

    This is the one builder of the normalized document, and a normalized
    document loads back to the same document and problem."""
    if isinstance(source, dict):
        doc = source
    else:
        text = Path(source).read_text() if not _looks_like_json(source) else str(source)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProblemFileError("document", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError("document", "top level must be an object")

    _object(doc, "", ("timescale", "boundary", "objective", "constraint", "k", "options"))

    scale = _scale(_require(doc, "timescale", ""), "timescale")
    measure = scale.b - scale.a

    boundary = _object(_require(doc, "boundary", ""), "boundary", ("alpha", "beta"))
    alpha = _real(_require(boundary, "alpha", "boundary"), "boundary.alpha")
    beta = _real(_require(boundary, "beta", "boundary"), "boundary.beta")

    objective, norm_objective = _functional(
        _require(doc, "objective", ""), "objective", measure
    )
    constraint, norm_constraint = _functional(
        _require(doc, "constraint", ""), "constraint", measure
    )
    k = _real(_require(doc, "k", ""), "k")
    options = load_options(doc.get("options"))

    problem = IsoperimetricProblem(
        scale=scale,
        alpha=alpha,
        beta=beta,
        objective=objective,
        constraint=constraint,
        k=k,
    )
    document = {
        "timescale": {"points": [float(t) for t in scale.points]},
        "boundary": {"alpha": alpha, "beta": beta},
        "objective": norm_objective,
        "constraint": norm_constraint,
        "k": k,
        "options": {
            "tol": options.stat_tol,
            "max_iter": options.max_iter,
            "multistart": options.multistart,
            "seed": options.seed,
            "spread": options.spread,
        },
    }
    return LoadedProblem(problem=problem, options=options, document=document)


def _looks_like_json(source) -> bool:
    return isinstance(source, str) and source.lstrip().startswith("{")


def emit_problem(loaded: LoadedProblem) -> str:
    """Normalized document as deterministic JSON text."""
    return json.dumps(loaded.document, sort_keys=True, indent=2)
