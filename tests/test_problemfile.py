"""Tests for the JSON problem-file loader: field validation with dotted
paths, the uniform-scale shorthand, option mapping, the normalized
round-trip document, and mutated documents that must either load or name
the field at fault."""

import copy
import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltanabla import (
    ProblemFileError,
    emit_problem,
    evaluate,
    load_problem,
    solve_normal,
)


def base_doc():
    return {
        "timescale": {"points": [0.0, 1.0, 2.0, 3.0]},
        "boundary": {"alpha": 0.0, "beta": 3.0},
        "objective": {"delta": "v^2", "nabla": "v^2 + v"},
        "constraint": {"delta": "t*v", "nabla": {"constant_over_measure": True}},
        "k": 1.0,
    }


def test_load_from_dict_builds_a_solvable_problem():
    loaded = load_problem(base_doc())
    p = loaded.problem
    assert np.array_equal(p.scale.points, [0.0, 1.0, 2.0, 3.0])
    assert p.alpha == 0.0 and p.beta == 3.0 and p.k == 1.0
    # the shorthand becomes the constant 1/(b - a)
    assert evaluate(p.constraint.l_nabla.value, 9.0, 9.0, 9.0) == pytest.approx(1.0 / 3.0)
    res = solve_normal(p, loaded.options)
    assert res.converged
    assert np.allclose(res.y.values, [0.0, 2.0, 3.0, 3.0], atol=1e-8)


def test_load_from_json_text_and_file(tmp_path):
    text = json.dumps(base_doc())
    from_text = load_problem(text)
    path = tmp_path / "problem.json"
    path.write_text(text)
    from_file = load_problem(str(path))
    assert from_text.document == from_file.document


def test_uniform_shorthand_expands_to_points():
    doc = base_doc()
    doc["timescale"] = {"uniform": {"a": 0.0, "b": 3.0, "n": 4}}
    loaded = load_problem(doc)
    assert np.array_equal(loaded.problem.scale.points, [0.0, 1.0, 2.0, 3.0])
    # the normalized document spells the points out
    assert loaded.document["timescale"] == {"points": [0.0, 1.0, 2.0, 3.0]}


def test_options_map_onto_solver_options():
    doc = base_doc()
    doc["options"] = {"tol": 1e-10, "max_iter": 55, "multistart": 3, "seed": 9, "spread": 0.5}
    loaded = load_problem(doc)
    assert loaded.options.feas_tol == 1e-10
    assert loaded.options.stat_tol == 1e-10
    assert loaded.options.max_iter == 55
    assert loaded.options.multistart == 3
    assert loaded.options.seed == 9
    assert loaded.options.spread == 0.5


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.__setitem__("timescale", {"uniform": {"a": 0, "b": 1, "n": 2}}), "timescale.uniform.n"),
        (lambda d: d.__setitem__("timescale", {"points": [0.0, 1.0]}), "timescale.points"),
        (lambda d: d.__setitem__("timescale", {}), "timescale"),
        (
            lambda d: d.__setitem__(
                "timescale",
                {"points": [0.0, 1.0, 2.0], "uniform": {"a": 0, "b": 2, "n": 3}},
            ),
            "timescale",
        ),
        (lambda d: d.__setitem__("objective", {"delta": "v^", "nabla": "v"}), "objective.delta"),
        pytest.param(
            lambda d: d.__setitem__("objective", {"delta": "v^2 + .", "nabla": "v"}),
            "objective.delta",
            id="malformed-number",
        ),
        pytest.param(
            lambda d: d.__setitem__("objective", {"delta": "v", "nabla": "v^\u0662"}),
            "objective.nabla",
            id="non-ascii-digit",
        ),
        (lambda d: d.__setitem__("constraint", {"delta": "w", "nabla": "v"}), "constraint.delta"),
        (lambda d: d.__setitem__("k", "one"), "k"),
        (lambda d: d.pop("k"), "k"),
        (lambda d: d.pop("boundary"), "boundary"),
        (lambda d: d.__setitem__("extra", 1), "extra"),
        (lambda d: d.__setitem__("options", {"tol": "tight"}), "options.tol"),
        (lambda d: d.__setitem__("timescale", {"points": [0.0, 1.0, 1.0]}), "timescale.points"),
        # b - a overflows: the points are not finite
        (lambda d: d.__setitem__("timescale", {"uniform": {"a": -1e308, "b": 1e308, "n": 4}}), "timescale.uniform"),
        # the step rounds to zero: the points are not strictly increasing
        (lambda d: d.__setitem__("timescale", {"uniform": {"a": 1, "b": 1.000000000000001, "n": 100}}), "timescale.uniform"),
        # integers beyond the float range, as JSON allows them
        (lambda d: d["timescale"]["points"].__setitem__(2, 10**400), "timescale.points[2]"),
        (lambda d: d["boundary"].__setitem__("beta", -(10**400)), "boundary.beta"),
        (lambda d: d.__setitem__("k", 10**400), "k"),
        # a point count too large for any array, refused before allocating
        pytest.param(
            lambda d: d.__setitem__("timescale", {"uniform": {"a": 0, "b": 1, "n": 10**400}}),
            "timescale.uniform.n",
            id="huge-n",
        ),
        # unknown keys, in every block
        (lambda d: d["boundary"].__setitem__("gamma", 5), "boundary.gamma"),
        (lambda d: d["timescale"].__setitem__("uniformm", 3), "timescale.uniformm"),
        (lambda d: d.__setitem__("timescale", {"uniform": {"a": 0, "b": 2, "n": 3, "step": 1}}), "timescale.uniform.step"),
        (lambda d: d["objective"].__setitem__("extra", 1), "objective.extra"),
        (lambda d: d["constraint"].__setitem__("extra", 1), "constraint.extra"),
        (lambda d: d.__setitem__("options", {"tries": 3}), "options.tries"),
        # 2 * spread overflows, the width the starts are drawn over
        (lambda d: d.__setitem__("options", {"spread": 1e308}), "options.spread"),
    ],
)
def test_validation_errors_name_the_field(mutate, field):
    doc = base_doc()
    mutate(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProblemFileError) as exc:
            load_problem(doc)
    assert str(exc.value).startswith(field + ":")


def test_interior_point_error_message():
    doc = base_doc()
    doc["timescale"] = {"uniform": {"a": 0.0, "b": 1.0, "n": 2}}
    with pytest.raises(ProblemFileError, match="interior point"):
        load_problem(doc)


def test_malformed_json_text_is_reported():
    with pytest.raises(ProblemFileError):
        load_problem("{not json")


def test_emit_round_trip_is_byte_stable(tmp_path):
    loaded = load_problem(base_doc())
    emitted = emit_problem(loaded)
    again = load_problem(emitted)
    assert emit_problem(again) == emitted
    # documents are plain JSON data, deterministically ordered
    assert json.loads(emitted) == loaded.document


def test_normalized_document_echoes_solver_defaults():
    loaded = load_problem(base_doc())
    assert loaded.document["options"] == {
        "tol": 1e-8,
        "max_iter": 100,
        "multistart": 8,
        "seed": 0,
        "spread": 1.0,
    }
    # expressions are kept as canonical strings, the shorthand survives
    assert loaded.document["objective"] == {"delta": "v^2", "nabla": "v^2 + v"}
    assert loaded.document["constraint"]["nabla"] == {"constant_over_measure": True}


def test_integer_beyond_the_float_range_is_an_input_error(tmp_path):
    # A 401-digit integer is valid JSON; the loader names its field, and
    # the CLI exits 1 with that message and no traceback.
    doc = base_doc()
    doc["boundary"]["beta"] = 10**400
    with pytest.raises(ProblemFileError, match=r"^boundary\.beta: must be finite$"):
        load_problem(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "deltanabla", "solve", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: boundary.beta: must be finite\n"
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# Mutated documents


def _full_doc():
    doc = base_doc()
    doc["options"] = {"tol": 1e-8, "max_iter": 50, "multistart": 2, "seed": 3, "spread": 0.5}
    return doc


def _uniform_doc():
    doc = _full_doc()
    doc["timescale"] = {"uniform": {"a": -1.0, "b": 2.0, "n": 5}}
    doc["objective"]["nabla"] = {"constant_over_measure": True}
    return doc


# Integer fields only ever get small values: n sizes an array.
INTEGER_FIELDS = {("timescale", "uniform", "n"), ("options", "max_iter"),
                  ("options", "multistart"), ("options", "seed")}
EXPRESSION_FIELDS = [(side, part) for side in ("objective", "constraint")
                     for part in ("delta", "nabla")]
BAD_NUMBERS = [math.inf, -math.inf, math.nan, 1e308, -1e308, 10**400, -(10**400), 0.0, -1.5]
SMALL_NUMBERS = [math.inf, math.nan, 1e308, 2.5, -1, 0, 1, 2, 3, 7]
WRONG_TYPES = [None, True, "x", [], {}, [1.0], {"a": 1}]
BAD_EXPRESSIONS = ["", "v^", "w", "sin(", "v^1.5", "((v)", "2 +* v", "log", "v^99999999999999999999"]
FIELD = re.compile(r"^[a-z_]+(\.[a-z_]+|\[\d+\])*$")


def _nodes(node, path=()):
    """(path, value) of every node below the root, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


@st.composite
def mutated_documents(draw):
    """A valid document after one to three mutations: a key dropped, a
    value of the wrong type, an unknown key, a non-finite or oversized
    number, a malformed expression."""
    doc = copy.deepcopy(draw(st.sampled_from([_full_doc(), _uniform_doc()])))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        kind = draw(st.sampled_from(["drop", "type", "unknown", "number", "expression"]))
        if kind == "expression":
            side, part = draw(st.sampled_from(EXPRESSION_FIELDS))
            if isinstance(doc.get(side), dict):
                doc[side][part] = draw(st.sampled_from(BAD_EXPRESSIONS))
            continue
        if kind == "unknown":
            containers = [doc] + [v for _, v in nodes if isinstance(v, dict)]
            draw(st.sampled_from(containers))["zz_unknown"] = 1
            continue
        path, _ = draw(st.sampled_from(nodes))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "type":
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(WRONG_TYPES)))
        else:
            small = path in INTEGER_FIELDS
            parent[path[-1]] = draw(st.sampled_from(SMALL_NUMBERS if small else BAD_NUMBERS))
    return doc


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_mutated_documents_load_or_name_the_field(doc):
    # Through the JSON text, as the CLI reads a file: the document loads
    # (and then round-trips), or the error names a dotted field of it.
    # A document that still has an unknown key never loads.
    text = json.dumps(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            loaded = load_problem(text)
        except ProblemFileError as exc:
            assert FIELD.match(exc.field), exc.field
            assert str(exc).startswith(exc.field + ": ")
            head = re.split(r"[.\[]", exc.field)[0]
            assert head in set(doc) | {"timescale", "boundary", "objective", "constraint", "k"}
            return
    assert '"zz_unknown"' not in text
    emitted = emit_problem(loaded)
    assert emit_problem(load_problem(emitted)) == emitted
