import json
from fractions import Fraction
from pathlib import Path

import pytest

from hopfcontra.errors import ParseError, ValidationError
from hopfcontra.hopf import check_hopf_axioms
from hopfcontra.session import load_session

SESSIONS = Path(__file__).resolve().parent.parent / "sessions"

EXPLICIT_C2 = {
    "dim": 2,
    "mul": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]],
    "unit": [1, 0],
    "comul": [[0, 0, 0, 1], [1, 1, 1, 1]],
    "counit": [1, 1],
    "antipode": [[0, 0, 1], [1, 1, 1]],
}


def _write(tmp_path, doc, name="case.session"):
    p = tmp_path / name
    p.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
    return p


def _base(**overrides):
    doc = {"field": {"kind": "Q"}, "hopf": {"name": "group_C2"}}
    doc.update(overrides)
    return doc


def test_bundled_sessions_all_load():
    paths = sorted(SESSIONS.glob("*.session"))
    assert len(paths) == 9
    for p in paths:
        session = load_session(p)
        assert session.tasks, p.name


def test_bundled_c2_trivial_contents():
    s = load_session(SESSIONS / "c2_trivial.session")
    assert s.field.p is None
    assert s.hopf.dim == 2
    assert s.module_coalgebra is not None and s.module_algebra is None
    assert s.coefficient_order == ["k"]
    assert len(s.tasks) == 3
    assert s.tasks[1].task == "build-cyclic" and s.tasks[1].max_degree == 3
    assert s.tasks[2].mode == "connes"
    # the single declared structure pins down the homology kind
    assert s.tasks[2].kind == "cyclic"
    assert len(s.digest) == 64 and int(s.digest, 16) >= 0


def test_bundled_gf7_session():
    s = load_session(SESSIONS / "sweedler_gf7.session")
    assert s.field.p == 7
    assert s.hopf.dim == 4
    coeff = s.coefficients["c0"]
    assert coeff.dim == 1
    assert coeff.action.matrices[0].data[0][0] == 1


def test_empty_file_is_a_parse_error(tmp_path):
    for text in ("", "  \n\t "):
        p = _write(tmp_path, text)
        with pytest.raises(ParseError) as exc:
            load_session(p)
        assert exc.value.line == 1 and exc.value.column == 1


def test_malformed_json_carries_position(tmp_path):
    p = _write(tmp_path, '{\n  "field": {"kind": }\n}')
    with pytest.raises(ParseError) as exc:
        load_session(p)
    assert exc.value.line == 2
    assert isinstance(exc.value.column, int)


def test_top_level_must_be_an_object(tmp_path):
    p = _write(tmp_path, "[1, 2, 3]")
    with pytest.raises(ValidationError):
        load_session(p)


def test_unknown_top_level_key(tmp_path):
    p = _write(tmp_path, _base(extras=1))
    with pytest.raises(ValidationError) as exc:
        load_session(p)
    assert exc.value.path == "extras"


def test_unknown_hopf_name(tmp_path):
    p = _write(tmp_path, {"field": {"kind": "Q"}, "hopf": {"name": "nope"}})
    with pytest.raises(ValidationError) as exc:
        load_session(p)
    assert exc.value.path == "hopf.name"


def test_composite_modulus_rejected(tmp_path):
    p = _write(tmp_path, {"field": {"kind": "GF", "p": 6},
                          "hopf": {"name": "group_C2"}})
    with pytest.raises(ValidationError) as exc:
        load_session(p)
    assert exc.value.path == "field.p"


def test_unknown_field_kind(tmp_path):
    p = _write(tmp_path, {"field": {"kind": "R"}, "hopf": {"name": "group_C2"}})
    with pytest.raises(ValidationError) as exc:
        load_session(p)
    assert exc.value.path == "field.kind"


def test_duplicate_coefficient_id(tmp_path):
    coeffs = [{"id": "k", "kind": "contramodule", "flavour": "lr", "name": "trivial"},
              {"id": "k", "kind": "contramodule", "flavour": "rr", "name": "trivial"}]
    p = _write(tmp_path, _base(coefficients=coeffs))
    with pytest.raises(ValidationError) as exc:
        load_session(p)
    assert exc.value.path == "coefficients[1].id"


def test_task_referencing_undeclared_coefficient(tmp_path):
    p = _write(tmp_path, _base(module_coalgebra={"name": "regular"},
                               tasks=[{"task": "build-cyclic", "coefficient": "ghost"}]))
    with pytest.raises(ValidationError) as exc:
        load_session(p)
    assert exc.value.path == "tasks[0].coefficient"


def test_bad_flavour_code(tmp_path):
    coeffs = [{"id": "k", "kind": "contramodule", "flavour": "xq", "name": "trivial"}]
    p = _write(tmp_path, _base(coefficients=coeffs))
    with pytest.raises(ValidationError) as exc:
        load_session(p)
    assert exc.value.path == "coefficients[0].flavour"


def test_unknown_coefficient_shortcut_name(tmp_path):
    coeffs = [{"id": "k", "kind": "contramodule", "flavour": "lr", "name": "mystery"}]
    p = _write(tmp_path, _base(coefficients=coeffs))
    with pytest.raises(ValidationError, match="mystery"):
        load_session(p)


def test_wrong_length_character(tmp_path):
    coeffs = [{"id": "k", "kind": "contramodule", "flavour": "lr",
               "character": [1], "alpha_row": [1, 0]}]
    p = _write(tmp_path, _base(coefficients=coeffs))
    with pytest.raises(ValidationError) as exc:
        load_session(p)
    assert exc.value.path == "coefficients[0].character"
    assert "expected 2 scalars" in str(exc.value)


def test_fraction_strings_only_over_the_rationals(tmp_path):
    doc = {"field": {"kind": "GF", "p": 7}, "hopf": {"name": "group_C2"},
           "coefficients": [{"id": "k", "kind": "contramodule", "flavour": "lr",
                             "character": ["1/2", 1], "alpha_row": [1, 0]}]}
    p = _write(tmp_path, doc)
    with pytest.raises(ValidationError, match="integers"):
        load_session(p)


def test_rational_scalar_strings_parse(tmp_path):
    coeffs = [{"id": "k", "kind": "contramodule", "flavour": "lr",
               "character": ["1/2", "-3/4"], "alpha_row": [1, 0]}]
    p = _write(tmp_path, _base(coefficients=coeffs))
    s = load_session(p)
    c = s.coefficients["k"]
    assert c.action.matrices[0].data[0][0] == Fraction(1, 2)
    assert c.action.matrices[1].data[0][0] == Fraction(-3, 4)


def test_sparse_index_out_of_range(tmp_path):
    coeffs = [{"id": "m", "kind": "contramodule", "flavour": "rr", "dim": 1,
               "action": [[0, 1, 0, 1]], "alpha": [[0, 0, 1]]}]
    p = _write(tmp_path, _base(coefficients=coeffs))
    with pytest.raises(ValidationError, match="out of range") as exc:
        load_session(p)
    assert exc.value.path.startswith("coefficients[0].action[0]")


def test_sparse_entries_accumulate(tmp_path):
    coeffs = [{"id": "m", "kind": "contramodule", "flavour": "rr", "dim": 1,
               "action": [[0, 0, 0, 1], [0, 0, 0, 1], [1, 0, 0, 1]],
               "alpha": [[0, 0, 1]]}]
    p = _write(tmp_path, _base(coefficients=coeffs))
    s = load_session(p)
    assert s.coefficients["m"].action.matrices[0].data[0][0] == 2


def test_structure_constants_accumulate_too(tmp_path):
    # e0 e0 listed twice is 2 e0, which breaks the unit laws
    doubled = dict(EXPLICIT_C2, mul=EXPLICIT_C2["mul"] + [[0, 0, 0, 1]],
                   comul=EXPLICIT_C2["comul"] + [[1, 1, 1, 1]])
    s = load_session(_write(tmp_path, {"field": {"kind": "Q"}, "hopf": doubled}))
    assert s.hopf.mul.entry(0, 0) == 2
    assert s.hopf.comul.entry(1 * 2 + 1, 1) == 2
    assert not check_hopf_axioms(s.hopf).ok
    # over GF(5) the scalars 1, 1 and 4 at one position sum to 6 = 1
    mod5 = dict(doubled, mul=doubled["mul"] + [[0, 0, 0, 4]])
    s5 = load_session(_write(tmp_path, {"field": {"kind": "GF", "p": 5}, "hopf": mod5},
                             name="gf5.session"))
    assert s5.hopf.mul.entry(0, 0) == 1 and type(s5.hopf.mul.entry(0, 0)) is int


def test_homology_kind_required_when_ambiguous(tmp_path):
    both = _base(module_coalgebra={"name": "regular"},
                 module_algebra={"name": "trivial"},
                 coefficients=[{"id": "k", "kind": "contramodule",
                                "flavour": "lr", "name": "trivial"}],
                 tasks=[{"task": "homology", "coefficient": "k"}])
    with pytest.raises(ValidationError, match='needs "kind"'):
        load_session(_write(tmp_path, both))
    neither = _base(tasks=[{"task": "homology"}])
    with pytest.raises(ValidationError, match='needs "kind"'):
        load_session(_write(tmp_path, neither, name="n.session"))


def test_tasks_demand_their_structure(tmp_path):
    p = _write(tmp_path, _base(tasks=[{"task": "build-cocyclic"}]))
    with pytest.raises(ValidationError, match="module_algebra"):
        load_session(p)
    p2 = _write(tmp_path, _base(tasks=[{"task": "build-cyclic"}]), name="b.session")
    with pytest.raises(ValidationError, match="module_coalgebra"):
        load_session(p2)


def test_unknown_task_name(tmp_path):
    p = _write(tmp_path, _base(tasks=[{"task": "frobnicate"}]))
    with pytest.raises(ValidationError) as exc:
        load_session(p)
    assert exc.value.path == "tasks[0].task"


def test_bad_mode_and_degree(tmp_path):
    p = _write(tmp_path, _base(module_coalgebra={"name": "regular"},
                               tasks=[{"task": "build-cyclic", "mode": "weird"}]))
    with pytest.raises(ValidationError) as exc:
        load_session(p)
    assert exc.value.path == "tasks[0].mode"
    p2 = _write(tmp_path, _base(module_coalgebra={"name": "regular"},
                                tasks=[{"task": "build-cyclic", "max_degree": -1}]),
                name="d.session")
    with pytest.raises(ValidationError, match=">= 0"):
        load_session(p2)


def test_explicit_hopf_constants(tmp_path):
    p = _write(tmp_path, {"field": {"kind": "Q"}, "hopf": EXPLICIT_C2})
    s = load_session(p)
    assert s.hopf.dim == 2
    assert check_hopf_axioms(s.hopf).ok
    # same constants under a prime modulus
    p2 = _write(tmp_path, {"field": {"kind": "GF", "p": 5}, "hopf": EXPLICIT_C2},
                name="p.session")
    s2 = load_session(p2)
    assert s2.field.p == 5 and check_hopf_axioms(s2.hopf).ok


def test_explicit_hopf_shape_errors(tmp_path):
    bad = dict(EXPLICIT_C2, mul=[[0, 0, 0]])
    p = _write(tmp_path, {"field": {"kind": "Q"}, "hopf": bad})
    with pytest.raises(ValidationError, match=r"\[i, j, k, scalar\]"):
        load_session(p)


def test_digest_tracks_file_bytes(tmp_path):
    p1 = _write(tmp_path, _base(), name="a.session")
    p2 = _write(tmp_path, _base(), name="b.session")
    s1, s2 = load_session(p1), load_session(p2)
    assert s1.digest == s2.digest
    p3 = _write(tmp_path, '{"field": {"kind": "Q"}, "hopf":  {"name": "group_C2"}}',
                name="c.session")
    assert load_session(p3).digest != s1.digest
