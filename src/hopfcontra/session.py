"""Session files: one JSON document describing a computation request.

A session names a field, a Hopf structure (by example name or explicit
structure constants), optional module coalgebra and module algebra data,
a list of coefficients, and a list of tasks.  Scalars are written as
"num/den" strings over the rationals and plain integers over a prime
field; tensors are sparse lists of (indices..., scalar) rows, whose
scalars add up at a repeated position; every index is 0-based.

Loading validates everything up front: a session either produces fully
constructed in-memory objects or raises ParseError / ValidationError with
a position or field path.  Nothing downstream re-checks shapes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .ayd import (FLAVOUR_CODES, AydCoefficient, AydFlavour, AydModuleData,
                  build_trivial_coefficient, one_dim_coefficient)
from .cyclic import (MODES, ModuleAlgebraData, ModuleCoalgebraData,
                     build_named_module_algebra, build_named_module_coalgebra,
                     dim_cap)
from .errors import (CharacteristicClash, HopfContraError, ParseError,
                     ShapeMismatch, UnknownName, ValidationError)
from .exactla import FieldSpec, Matrix
from .hopf import AlgebraData, CoalgebraData, HopfData, build_named_example
from .reps import ComoduleRep, ContraRep, ModuleRep

TASK_NAMES = ("check", "build-cyclic", "build-cocyclic", "homology", "homconn")


@dataclass
class TaskSpec:
    task: str
    coefficient: str | None = None
    kind: str | None = None
    mode: str = "hochschild"
    max_degree: int = 3
    allow_unstable: bool = False


@dataclass
class SessionData:
    path: str
    digest: str
    field: FieldSpec
    hopf: HopfData
    module_coalgebra: ModuleCoalgebraData | None
    module_algebra: ModuleAlgebraData | None
    coefficients: dict
    coefficient_order: list
    tasks: list = dc_field(default_factory=list)
    # built complexes and their relation reports, shared by the session's
    # tasks: (kind, coefficient id, max_degree, allow_unstable) -> (cx, report)
    complexes: dict = dc_field(default_factory=dict)


def _fail(message, path):
    raise ValidationError(message, path=path)


def _as_object(value, path):
    if not isinstance(value, dict):
        _fail("expected an object", path)
    return value


def _as_list(value, path):
    if not isinstance(value, list):
        _fail("expected a list", path)
    return value


def _get(obj, key, path, required=True, default=None):
    if key not in obj:
        if required:
            _fail(f"missing key {key!r}", path)
        return default
    return obj[key]


def _as_int(value, path, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        _fail("expected an integer", path)
    if minimum is not None and value < minimum:
        _fail(f"expected an integer >= {minimum}", path)
    return value


def _as_dim(obj, path):
    """The declared "dim" of obj: a positive integer no larger than the cap,
    checked before anything of that size is allocated."""
    dim = _as_int(_get(obj, "dim", path), f"{path}.dim", minimum=1)
    cap = dim_cap()
    if dim > cap:
        _fail(f"dimension {dim} exceeds the cap {cap}", f"{path}.dim")
    return dim


def _as_index(value, bound, path):
    v = _as_int(value, path)
    if not 0 <= v < bound:
        _fail(f"index {v} out of range [0, {bound})", path)
    return v


def _as_scalar(field, value, path):
    if field.p is None:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            _fail('rational scalars are integers or "num/den" strings', path)
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                _fail(f"not a rational scalar: {value!r}", path)
        return Fraction(value)
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"scalars over GF({field.p}) are integers", path)
    return value % field.p


def _scalar_list(field, value, n, path):
    values = _as_list(value, path)
    if len(values) != n:
        _fail(f"expected {n} scalars, got {len(values)}", path)
    return [_as_scalar(field, v, f"{path}[{i}]") for i, v in enumerate(values)]


def _entries(field, value, path, bounds, names):
    """Entries as [index..., scalar] lists, one index below each bound;
    names spells out the layout for the error message."""
    out = []
    for k, entry in enumerate(_as_list(value, path)):
        epath = f"{path}[{k}]"
        row = _as_list(entry, epath)
        if len(row) != len(bounds) + 1:
            _fail(f"expected [{names}, scalar]", epath)
        indices = tuple(_as_index(v, b, f"{epath}[{n}]")
                        for n, (v, b) in enumerate(zip(row, bounds)))
        out.append(indices + (_as_scalar(field, row[-1], f"{epath}[{len(bounds)}]"),))
    return out


def _sparse_matrix(field, rows, cols, value, path):
    """Entries as [row, col, scalar] triples."""
    return Matrix.from_entries(field, rows, cols,
                               _entries(field, value, path, (rows, cols), "row, col"))


def _structure_triples(field, dim, value, path):
    """Entries as [i, j, k, scalar] quadruples for mul/comul constants."""
    return _entries(field, value, path, (dim, dim, dim), "i, j, k")


def _action_matrices(field, dh, dim, value, path):
    """Entries as [hopf index, row, col, scalar]; one matrix per Hopf basis."""
    per_basis = [[] for _ in range(dh)]
    for a, i, j, s in _entries(field, value, path, (dh, dim, dim), "hopf, row, col"):
        per_basis[a].append((i, j, s))
    return [Matrix.from_entries(field, dim, dim, e) for e in per_basis]


def _parse_field(value, path):
    obj = _as_object(value, path)
    kind = _get(obj, "kind", path)
    if kind == "Q":
        return FieldSpec()
    if kind == "GF":
        p = _as_int(_get(obj, "p", path), f"{path}.p", minimum=2)
        try:
            return FieldSpec(p)
        except ValueError as e:
            _fail(str(e), f"{path}.p")
    _fail(f'field kind must be "Q" or "GF", got {kind!r}', f"{path}.kind")


def _parse_hopf(field, value, path):
    obj = _as_object(value, path)
    if "name" in obj:
        name = obj["name"]
        if not isinstance(name, str):
            _fail("expected a string", f"{path}.name")
        try:
            return build_named_example(name, field)
        except (UnknownName, CharacteristicClash) as e:
            _fail(str(e), f"{path}.name")
    dim = _as_dim(obj, path)
    algebra = AlgebraData.from_triples(
        field, dim,
        _structure_triples(field, dim, _get(obj, "mul", path), f"{path}.mul"),
        _scalar_list(field, _get(obj, "unit", path), dim, f"{path}.unit"))
    coalgebra = CoalgebraData.from_triples(
        field, dim,
        _structure_triples(field, dim, _get(obj, "comul", path), f"{path}.comul"),
        _scalar_list(field, _get(obj, "counit", path), dim, f"{path}.counit"))
    antipode = _sparse_matrix(field, dim, dim, _get(obj, "antipode", path),
                              f"{path}.antipode")
    antipode_inv = None
    if "antipode_inv" in obj:
        antipode_inv = _sparse_matrix(field, dim, dim, obj["antipode_inv"],
                                      f"{path}.antipode_inv")
    try:
        return HopfData(algebra, coalgebra, antipode, antipode_inv)
    except HopfContraError as e:
        _fail(str(e), path)


def _parse_module_coalgebra(hopf, value, path):
    obj = _as_object(value, path)
    F = hopf.field
    if "name" in obj:
        try:
            return build_named_module_coalgebra(obj["name"], hopf)
        except UnknownName as e:
            _fail(str(e), f"{path}.name")
    dim = _as_dim(obj, path)
    coalgebra = CoalgebraData.from_triples(
        F, dim,
        _structure_triples(F, dim, _get(obj, "comul", path), f"{path}.comul"),
        _scalar_list(F, _get(obj, "counit", path), dim, f"{path}.counit"))
    mats = _action_matrices(F, hopf.dim, dim, _get(obj, "action", path),
                            f"{path}.action")
    try:
        return ModuleCoalgebraData(coalgebra, ModuleRep(hopf, "left", mats))
    except HopfContraError as e:
        _fail(str(e), path)


def _parse_module_algebra(hopf, value, path):
    obj = _as_object(value, path)
    F = hopf.field
    if "name" in obj:
        try:
            return build_named_module_algebra(obj["name"], hopf)
        except UnknownName as e:
            _fail(str(e), f"{path}.name")
    dim = _as_dim(obj, path)
    algebra = AlgebraData.from_triples(
        F, dim,
        _structure_triples(F, dim, _get(obj, "mul", path), f"{path}.mul"),
        _scalar_list(F, _get(obj, "unit", path), dim, f"{path}.unit"))
    mats = _action_matrices(F, hopf.dim, dim, _get(obj, "action", path),
                            f"{path}.action")
    try:
        return ModuleAlgebraData(algebra, ModuleRep(hopf, "left", mats))
    except HopfContraError as e:
        _fail(str(e), path)


def _parse_coefficient(hopf, value, path):
    obj = _as_object(value, path)
    F = hopf.field
    cid = _get(obj, "id", path)
    if not isinstance(cid, str) or not cid:
        _fail("coefficient id must be a nonempty string", f"{path}.id")
    kind = _get(obj, "kind", path)
    if kind == "contramodule":
        code = _get(obj, "flavour", path)
        if code not in FLAVOUR_CODES:
            _fail(f"flavour must be one of {', '.join(FLAVOUR_CODES)}",
                  f"{path}.flavour")
        flavour = AydFlavour.from_code(code)
        if obj.get("name") == "trivial":
            return cid, build_trivial_coefficient(hopf, flavour)
        if "name" in obj:
            _fail(f"unknown coefficient name {obj['name']!r}", f"{path}.name")
        if "character" in obj:
            character = _scalar_list(F, obj["character"], hopf.dim,
                                     f"{path}.character")
            alpha_row = _scalar_list(F, _get(obj, "alpha_row", path), hopf.dim,
                                     f"{path}.alpha_row")
            return cid, one_dim_coefficient(hopf, flavour, character, alpha_row)
        dim = _as_dim(obj, path)
        mats = _action_matrices(F, hopf.dim, dim, _get(obj, "action", path),
                                f"{path}.action")
        alpha = _sparse_matrix(F, dim, hopf.dim * dim, _get(obj, "alpha", path),
                               f"{path}.alpha")
        try:
            return cid, AydCoefficient(hopf, flavour,
                                       ModuleRep(hopf, flavour.module_side, mats),
                                       ContraRep(hopf.coalgebra,
                                                 flavour.contra_side, alpha))
        except ShapeMismatch as e:
            _fail(str(e), path)
    if kind == "ayd_module":
        dim = _as_dim(obj, path)
        mats = _action_matrices(F, hopf.dim, dim, _get(obj, "action", path),
                                f"{path}.action")
        coaction = _sparse_matrix(F, hopf.dim * dim, dim,
                                  _get(obj, "coaction", path), f"{path}.coaction")
        try:
            return cid, AydModuleData(hopf, ModuleRep(hopf, "right", mats),
                                      ComoduleRep(hopf, "left", coaction))
        except ShapeMismatch as e:
            _fail(str(e), path)
    _fail(f'coefficient kind must be "contramodule" or "ayd_module", got {kind!r}',
          f"{path}.kind")


def declared_kind(session):
    """The one kind of complex the session declares; None for both or neither."""
    has_c = session.module_coalgebra is not None
    if has_c == (session.module_algebra is not None):
        return None
    return "cyclic" if has_c else "cocyclic"


def _parse_task(session, value, path):
    obj = _as_object(value, path)
    name = _get(obj, "task", path)
    if name not in TASK_NAMES:
        _fail(f"task must be one of {', '.join(TASK_NAMES)}, got {name!r}",
              f"{path}.task")
    spec = TaskSpec(task=name)
    if "coefficient" in obj:
        cid = obj["coefficient"]
        if not isinstance(cid, str):
            _fail("expected a coefficient id string", f"{path}.coefficient")
        if cid not in session.coefficients:
            _fail(f"coefficient {cid!r} is not declared", f"{path}.coefficient")
        spec.coefficient = cid
    if "max_degree" in obj:
        spec.max_degree = _as_int(obj["max_degree"], f"{path}.max_degree", minimum=0)
    if "mode" in obj:
        if obj["mode"] not in MODES:
            _fail(f"mode must be one of {', '.join(MODES)}", f"{path}.mode")
        spec.mode = obj["mode"]
    if "allow_unstable" in obj:
        if not isinstance(obj["allow_unstable"], bool):
            _fail("expected a boolean", f"{path}.allow_unstable")
        spec.allow_unstable = obj["allow_unstable"]
    if "kind" in obj:
        if obj["kind"] not in ("cyclic", "cocyclic"):
            _fail('kind must be "cyclic" or "cocyclic"', f"{path}.kind")
        spec.kind = obj["kind"]
    if name == "homology" and spec.kind is None:
        spec.kind = declared_kind(session)
        if spec.kind is None:
            _fail('homology task needs "kind" when the session declares '
                  "both or neither complex structure", path)
    if name == "build-cyclic" or (name == "homology" and spec.kind == "cyclic"):
        if session.module_coalgebra is None:
            _fail("task needs a module_coalgebra in the session", path)
    if name == "build-cocyclic" or (name == "homology" and spec.kind == "cocyclic"):
        if session.module_algebra is None:
            _fail("task needs a module_algebra in the session", path)
    return spec


def load_session(path) -> SessionData:
    """Parse and fully validate a session file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    text = raw.decode("utf-8", errors="replace")
    if not text.strip():
        raise ParseError("session file is empty", line=1, column=1)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, column=e.colno)
    if not isinstance(doc, dict):
        _fail("top level must be an object", "")
    field = _parse_field(_get(doc, "field", "field"), "field")
    hopf = _parse_hopf(field, _get(doc, "hopf", "hopf"), "hopf")
    session = SessionData(
        path=str(path), digest=digest, field=field, hopf=hopf,
        module_coalgebra=None, module_algebra=None,
        coefficients={}, coefficient_order=[])
    if "module_coalgebra" in doc:
        session.module_coalgebra = _parse_module_coalgebra(
            hopf, doc["module_coalgebra"], "module_coalgebra")
    if "module_algebra" in doc:
        session.module_algebra = _parse_module_algebra(
            hopf, doc["module_algebra"], "module_algebra")
    for i, entry in enumerate(_as_list(doc.get("coefficients", []), "coefficients")):
        cid, coeff = _parse_coefficient(hopf, entry, f"coefficients[{i}]")
        if cid in session.coefficients:
            _fail(f"duplicate coefficient id {cid!r}", f"coefficients[{i}].id")
        session.coefficients[cid] = coeff
        session.coefficient_order.append(cid)
    for i, entry in enumerate(_as_list(doc.get("tasks", []), "tasks")):
        session.tasks.append(_parse_task(session, entry, f"tasks[{i}]"))
    known = {"field", "hopf", "module_coalgebra", "module_algebra",
             "coefficients", "tasks"}
    for key in doc:
        if key not in known:
            _fail(f"unknown key {key!r}", key)
    return session
