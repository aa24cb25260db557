"""Equivariant bases and restricted operators, pinned bit for bit.

`tests/golden/equivariant_bases.json` holds a sha256 digest of every basis
and of every restricted face, degeneracy and cyclic operator of five
complexes.  A digest covers the field, the shape and the repr of every
entry, so a value of another type (an int for a Fraction) changes it as
surely as a different value does.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hopfcontra import cyclic
from hopfcontra.ayd import AydFlavour, build_trivial_coefficient
from hopfcontra.cyclic import (build_cocyclic_complex, build_cyclic_complex,
                               build_named_module_coalgebra,
                               equivariant_hom_basis)
from hopfcontra.errors import NotEquivariant
from hopfcontra.exactla import Matrix, kron, solve_columns
from hopfcontra.session import load_session

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = ROOT / "sessions"
GOLDEN = Path(__file__).resolve().parent / "golden" / "equivariant_bases.json"


def matrix_digest(m):
    h = hashlib.sha256(f"{m.field!r};{m.rows}x{m.cols};".encode())
    for row in m.data:
        h.update((",".join(repr(v) for v in row) + ";").encode())
    return h.hexdigest()


def complex_digests(cx):
    out = {f"basis {n}": matrix_digest(b.space.basis) for n, b in enumerate(cx.bases)}
    for n, ops in cx.faces.items():
        for i, op in enumerate(ops):
            out[f"face {i} at degree {n}"] = matrix_digest(op)
    for n, ops in cx.degens.items():
        for j, op in enumerate(ops):
            out[f"degeneracy {j} at degree {n}"] = matrix_digest(op)
    for n, op in cx.cyclers.items():
        out[f"cyclic operator at degree {n}"] = matrix_digest(op)
    return out


def _session_complex(name, cid, max_degree, **kw):
    s = load_session(SESSIONS / f"{name}.session")
    if s.module_coalgebra is not None:
        return build_cyclic_complex(s.module_coalgebra, s.coefficients[cid],
                                    max_degree=max_degree, **kw)
    return build_cocyclic_complex(s.module_algebra, s.coefficients[cid],
                                  max_degree=max_degree, **kw)


def _c2_regular_trivial():
    h = load_session(SESSIONS / "c2_trivial.session").hopf
    return build_cyclic_complex(build_named_module_coalgebra("regular", h),
                                build_trivial_coefficient(h, AydFlavour.from_code("lr")),
                                max_degree=4)


CASES = {
    "c2 regular trivial, degrees 0-4": _c2_regular_trivial,
    "h4 ndual over Q, degrees 0-3": lambda: _session_complex("h4_cyclic", "ndual", 3),
    "sweedler_gf7 c0 over GF(7), degrees 0-4":
        lambda: _session_complex("sweedler_gf7", "c0", 4),
    "h4_adjoint c0, degrees 0-3": lambda: _session_complex("h4_adjoint", "c0", 3),
    "c2_nonstable sgn, unstable allowed, degrees 0-2":
        lambda: _session_complex("c2_nonstable", "sgn", 2, allow_unstable=True),
}


def test_bases_and_operators_match_golden_digests():
    want = json.loads(GOLDEN.read_text())
    assert sorted(want) == sorted(CASES)
    for case, build in CASES.items():
        assert complex_digests(build()) == want[case], case


def _equivariant_dims(path):
    """Equivariant dimensions of every coefficient that fits the session's
    module (co)algebra, up to the session's highest task degree."""
    s = load_session(path)
    data, flavour = ((s.module_coalgebra, "lr") if s.module_coalgebra is not None
                     else (s.module_algebra, "ll"))
    top = max(t.max_degree for t in s.tasks)
    return {cid: [equivariant_hom_basis(data.action, c, n).dim for n in range(top + 1)]
            for cid, c in s.coefficients.items()
            if getattr(getattr(c, "flavour", None), "code", None) == flavour}


def test_equivariant_dimensions_agree_over_q_and_gf7(tmp_path):
    sessions = [p for p in sorted(SESSIONS.glob("*.session"))
                if {"module_coalgebra", "module_algebra"} & set(json.loads(p.read_text()))]
    assert len(sessions) == 7
    for path in sessions:
        dims = {}
        for kind, field in (("Q", {"kind": "Q"}), ("GF7", {"kind": "GF", "p": 7})):
            doc = json.loads(path.read_text())
            doc["field"] = field
            moved = tmp_path / f"{kind}-{path.name}"
            moved.write_text(json.dumps(doc))
            dims[kind] = _equivariant_dims(moved)
        assert dims["Q"], path.name
        assert dims["Q"] == dims["GF7"], path.name


@pytest.mark.parametrize("session, cid", [("c2_trivial", "k"), ("h4_cyclic", "ndual")])
def test_restrict_matches_solve_columns(session, cid):
    # the faces and a non-equivariant operator between degrees 2 and 1,
    # restricted by coordinate selection and by a full solve
    s = load_session(SESSIONS / f"{session}.session")
    coalg, coeff = s.module_coalgebra, s.coefficients[cid]
    F, dx, dm = coeff.field, coalg.dim, coeff.dim
    src = equivariant_hom_basis(coalg.action, coeff, 2)
    dst = equivariant_hom_basis(coalg.action, coeff, 1)
    comul = coalg.coalgebra.comul
    eye = Matrix.identity(F, dx)
    for g in (kron(comul, eye), kron(eye, comul)):
        op = kron(g.transpose(), Matrix.identity(F, dm))
        want = solve_columns(dst.space.basis, op @ src.space.basis)
        assert want is not None
        got = cyclic._restrict("face", op, src, dst)
        assert matrix_digest(got) == matrix_digest(want)
    # a single entry moving the first basis vector onto one coordinate
    stray = Matrix.zeros(F, dst.ambient, src.ambient)
    stray.data[0][src.space.basis.col(0).index(F.one)] = F.one
    assert solve_columns(dst.space.basis, stray @ src.space.basis) is None
    with pytest.raises(NotEquivariant, match="stray does not preserve"):
        cyclic._restrict("stray", stray, src, dst)
