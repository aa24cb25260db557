"""The session front door: any input ends with exit 0-5 and a located message.

The regression tests pin three inputs that used to end in a traceback or
never end: a task coefficient that is not a string, a huge `max_degree` on
a one dimensional module (co)algebra, and a declared `dim` beyond the cap.
The fuzz test mutates the bundled sessions one value at a time and runs
`report` in-process under a small dimension cap.
"""

import json
import re
import tempfile
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from hopfcontra.cli import main

SESSIONS = Path(__file__).resolve().parent.parent / "sessions"
BUNDLED = sorted(p.stem for p in SESSIONS.glob("*.session"))
SMALL_CAP = "64"
DELETE = object()


def _report(doc, tmp, cap=None):
    path = Path(tmp) / "mutated.session"
    path.write_text(json.dumps(doc))
    env = {"HOPFCONTRA_DIM_CAP": cap} if cap is not None else {}
    return CliRunner().invoke(main, ["report", str(path)], env=env)


def _located(res):
    """No exception but SystemExit, and an exit code of 0-5; the session is
    valid JSON, so an error is a validation error (4) or a task error (5),
    and its message says where the problem is."""
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exc_info
    assert res.exit_code in (0, 1, 4, 5), res.output
    if res.exit_code == 4:
        assert re.search(r"^validation error at \S", res.output, re.M), res.output
    elif res.exit_code == 5:
        assert (re.search(r"^task error: .*\(task \d+: ", res.output, re.M)
                or "task error: session declares no tasks" in res.output), res.output


def _bundled(name):
    return json.loads((SESSIONS / f"{name}.session").read_text())


@pytest.mark.parametrize("value", [[], {}, [[1]]])
def test_non_string_task_coefficient_is_a_validation_error(value, tmp_path):
    doc = _bundled("c2_cocyclic")
    doc["tasks"][1]["coefficient"] = value
    res = _report(doc, tmp_path)
    assert res.exit_code == 4, res.output
    assert ("validation error at tasks[1].coefficient: expected a coefficient id string"
            in res.output)


@pytest.mark.parametrize("session, kind", [("trivial_hopf", "cyclic"),
                                           ("c2_cocyclic", "cocyclic")])
@pytest.mark.parametrize("degree", [99, 10 ** 30])
def test_large_max_degree_is_bounded_from_shapes(session, kind, degree, tmp_path):
    # a one dimensional module (co)algebra keeps every ambient dimension at
    # dim M, so only the number of relations can bound the work
    doc = _bundled(session)
    for task in doc["tasks"][1:]:
        task["max_degree"] = degree
    start = time.perf_counter()
    res = _report(doc, tmp_path)
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 5, res.output
    assert (f"task error: DimensionCapExceeded: the {kind} relations up to degree "
            f"{degree} number more than the cap 20000 (task 2: build-{kind} [k])"
            in res.output)
    _located(res)


@pytest.mark.parametrize("dim, cap", [(10 ** 30, None), (9, "8")])
@pytest.mark.parametrize("session", ["sweedler_gf7", "h4_cyclic"])
def test_declared_dim_is_checked_against_the_cap(session, dim, cap, tmp_path):
    doc = _bundled(session)
    doc["coefficients"][0]["dim"] = dim
    res = _report(doc, tmp_path, cap=cap)
    assert res.exit_code == 4, res.output
    want = f"dimension {dim} exceeds the cap {cap or 20000}"
    assert f"validation error at coefficients[0].dim: {want}" in res.output


def _paths(node, prefix=()):
    """Every key path below the top level of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(BUNDLED))
    path = draw(st.sampled_from(list(_paths(_bundled(name)))))
    value = draw(st.sampled_from([DELETE, None, -1, 10 ** 30, 1.5, "x", [], {}]))
    return name, path, value


@settings(max_examples=40, deadline=None)
@given(mutations())
@example(("c2_cocyclic", ("tasks", 1, "coefficient"), []))
@example(("trivial_hopf", ("tasks", 1, "max_degree"), 10 ** 30))
@example(("sweedler_gf7", ("coefficients", 0, "dim"), 10 ** 30))
def test_mutated_sessions_end_with_a_located_exit(mutation):
    name, path, value = mutation
    doc = _bundled(name)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        _located(_report(doc, tmp, cap=SMALL_CAP))
