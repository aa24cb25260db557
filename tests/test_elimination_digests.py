"""Elimination results outside the equivariant bases, pinned bit for bit.

`tests/golden/elimination.json` holds sha256 digests (field, shape and the
repr of every entry, as in test_equivariant_bases) of:

* the quotient dimension, projection and section of `tensor_over_H` for
  the cases of the c08 acceptance test (H4 with the module `n` of
  h4_cyclic, C2 with the trivial pairing, diagonal powers 1 to 4);
* the Connes data of the bundled sessions with a connes task: the
  quotient projections by the image of 1 - (sign) * cyclic operator for a
  cyclic complex, and for a cocyclic one the invariant kernels, the images
  and the coboundaries restricted to the kernels;
* the antipode inverses of the named examples over Q and GF(7), and of
  every bundled session.
"""

import json
from pathlib import Path

from hopfcontra.cyclic import (build_cocyclic_complex, build_cyclic_complex,
                               build_named_module_coalgebra, tensor_over_H)
from hopfcontra.exactla import GF, QQ, Matrix, inverse, solve_columns
from hopfcontra.hopf import build_named_example
from hopfcontra.reps import ModuleRep
from hopfcontra.session import load_session

from dense_routes import quotient_projection, rank_kernel_image
from test_acceptance import _alt_sum
from test_cyclic import _power_module
from test_equivariant_bases import matrix_digest

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = ROOT / "sessions"
GOLDEN = Path(__file__).resolve().parent / "golden" / "elimination.json"

CONNES_SESSIONS = {"c2_trivial": ("k", 3), "c2_cocyclic": ("k", 3),
                   "h4_adjoint": ("c0", 2)}


def _tensor_digests():
    out = {}
    h4_cyclic = load_session(SESSIONS / "h4_cyclic.session")
    c2 = build_named_example("group_C2", QQ)
    one = Matrix.from_rows(QQ, [[1]])
    cases = (("h4 module n", h4_cyclic.hopf, h4_cyclic.coefficients["n"]),
             ("c2 trivial pairing", c2, ModuleRep(c2, "right", [one, one])))
    for name, h, module in cases:
        action = build_named_module_coalgebra("regular", h).action
        for k in range(1, 5):
            q = tensor_over_H(module, _power_module(action, k))
            out[f"{name}, power {k}"] = [q.ambient, q.dim, matrix_digest(q.proj),
                                         matrix_digest(q.lift)]
    return out


def _connes_digests(name):
    cid, top = CONNES_SESSIONS[name]
    s = load_session(SESSIONS / f"{name}.session")
    if s.module_coalgebra is not None:
        cx = build_cyclic_complex(s.module_coalgebra, s.coefficients[cid], max_degree=top)
    else:
        cx = build_cocyclic_complex(s.module_algebra, s.coefficients[cid], max_degree=top)
    F = cx.field
    out = {}
    ker = {}
    for n in range(top + 1):
        lam = cx.cyclers[n] if n % 2 == 0 else -cx.cyclers[n]
        one_minus = Matrix.identity(F, cx.bases[n].dim) - lam
        if cx.kind == "cyclic":
            qdim, proj, lift = quotient_projection(one_minus)
            out[f"quotient at degree {n}"] = [qdim, matrix_digest(proj),
                                              matrix_digest(lift)]
        else:
            rank, ker[n], image = rank_kernel_image(one_minus)
            out[f"invariants at degree {n}"] = [rank, matrix_digest(ker[n]),
                                                matrix_digest(image)]
    if cx.kind == "cocyclic":
        for n in range(1, top + 1):
            b = _alt_sum(cx.faces[n])
            out[f"restricted coboundary at degree {n}"] = matrix_digest(
                solve_columns(ker[n], b @ ker[n - 1]))
    return out


def _antipode_digests():
    out = {}
    for field in (QQ, GF(7)):
        for name in ("trivial", "group_C2", "group_C3", "sweedler_H4"):
            h = build_named_example(name, field)
            out[f"{name} over {field!r}"] = matrix_digest(inverse(h.antipode))
    for path in sorted(SESSIONS.glob("*.session")):
        out[path.stem] = matrix_digest(load_session(path).hopf.antipode_inv)
    return out


def elimination_digests():
    out = {"tensor over H": _tensor_digests(), "antipode inverses": _antipode_digests()}
    for name in CONNES_SESSIONS:
        out[f"connes {name}"] = _connes_digests(name)
    return out


def test_elimination_results_match_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = elimination_digests()
    assert sorted(got) == sorted(want)
    for case in want:
        assert got[case] == want[case], case
