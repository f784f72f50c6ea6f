"""Tests for the JSON problem-file loader: field validation with dotted
paths, the uniform-scale shorthand, option mapping, and the normalized
round-trip document."""

import json
import warnings

import numpy as np
import pytest

from deltanabla import (
    ProblemFileError,
    emit_problem,
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
    assert p.constraint.l_nabla(9.0, 9.0, 9.0) == pytest.approx(1.0 / 3.0)
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
