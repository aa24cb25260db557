"""Sparse operator assembly against the dense ambient-size route.

`hopfcontra.cyclic` applies each operator to sparse basis columns and reads
the result off at the free coordinates.  Here every restricted face,
degeneracy and cyclic operator must equal, digest for digest, the dense
operator of `dense_routes` re-expressed by a full solve.
"""

import json

import pytest

from hopfcontra.ayd import (AydCoefficient, AydFlavour,
                            build_trivial_coefficient, one_dim_coefficient)
from hopfcontra.cyclic import (build_cocyclic_complex, build_cyclic_complex,
                               build_named_module_algebra,
                               build_named_module_coalgebra, homology_dims)
from hopfcontra.errors import CompositionNotZero, NotEquivariant
from hopfcontra.exactla import Matrix, kron, solve_columns
from hopfcontra.reps import ContraRep, ModuleRep
from hopfcontra.session import load_session

from dense_routes import dense_basis, dense_operators
from explicit_hopf import relabelled_session, taft_session
from test_equivariant_bases import matrix_digest


def _from_session(tmp_path, doc):
    path = tmp_path / "explicit.session"
    path.write_text(json.dumps(doc))
    s = load_session(path)
    return "cyclic", s.module_coalgebra, s.coefficients["c"]


def _h4_two_dimensional(tmp_path, h4):
    """(eps, sigma = g) plus (g -> -1, sigma = 1), conjugated by P so that
    neither the action nor alpha is block diagonal."""
    F = h4.field
    P = Matrix.from_rows(F, [[1, 1], [0, 1]])
    P_inv = Matrix.from_rows(F, [[1, -1], [0, 1]])
    signs = (1, -1, 0, 0)
    mats = [P @ Matrix.from_rows(F, [[e, 0], [0, d]]) @ P_inv
            for e, d in zip(h4.counit.data[0], signs)]
    # alpha(f) = (f(g)_0, f(1)_1) on the direct sum; f(h)_i sits at h*2 + i
    alpha = Matrix.from_entries(F, 2, 8, [(0, 1 * 2 + 0, 1), (1, 0 * 2 + 1, 1)])
    alpha = P @ alpha @ kron(Matrix.identity(F, 4), P_inv)
    coeff = AydCoefficient(h4, AydFlavour.from_code("lr"), ModuleRep(h4, "left", mats),
                           ContraRep(h4.coalgebra, "right", alpha))
    return "cyclic", build_named_module_coalgebra("regular", h4), coeff


def _h4_adjoint(tmp_path, h4):
    coeff = one_dim_coefficient(h4, AydFlavour.from_code("ll"), [1, 1, 0, 0], [0, 1, 0, 0])
    return "cocyclic", build_named_module_algebra("adjoint", h4), coeff


CASES = {
    # T_3(2) over GF(7), delta(g) = 1 and sigma = g^2
    "taft T3 over GF(7), degrees 0-2": (lambda tmp, h4: _from_session(tmp, taft_session(7, 3, 2, 2)), 2),
    # H4 with basis order (x, gx, 1, g): the unit no longer sits at index 0
    "h4 relabelled over Q, degrees 0-3": (lambda tmp, h4: _from_session(
        tmp, relabelled_session("sweedler_H4", [2, 3, 0, 1], [1, 1, 0, 0], 1, 3)), 3),
    "h4 with a two dimensional coefficient over Q, degrees 0-3": (_h4_two_dimensional, 3),
    "h4 adjoint cocyclic over Q, degrees 0-2": (_h4_adjoint, 2),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_restricted_operators_match_dense_assembly(case, tmp_path, h4):
    make, top = CASES[case]
    kind, data, coeff = make(tmp_path, h4)
    build = build_cyclic_complex if kind == "cyclic" else build_cocyclic_complex
    cx = build(data, coeff, max_degree=top)
    checked = 0
    for name, n, index, op, src, dst in dense_operators(kind, data, coeff, top):
        got = (cx.cyclers[n] if name == "cyclic operator"
               else (cx.faces if name == "face" else cx.degens)[n][index])
        want = solve_columns(dense_basis(cx.field, cx.bases[dst]),
                             op @ dense_basis(cx.field, cx.bases[src]))
        assert want is not None, (name, index, n)
        assert matrix_digest(got) == matrix_digest(want), (name, index, n)
        checked += 1
    # every face, degeneracy and cyclic operator of the built complex
    assert checked == (sum(map(len, cx.faces.values())) + sum(map(len, cx.degens.values()))
                       + len(cx.cyclers))


def test_errors_carry_degree_and_operator(c2, h4):
    # unchecked, the trivial lr coefficient of H4 breaks equivariance
    bad = build_trivial_coefficient(h4, AydFlavour.from_code("lr"))
    with pytest.raises(NotEquivariant) as exc:
        build_cyclic_complex(build_named_module_coalgebra("regular", h4),
                             bad, max_degree=1, require_checked=False)
    err = exc.value
    assert str(err) == f"{err.operator} at degree {err.degree} does not preserve " \
                       "the equivariant subspaces"
    assert (err.operator, err.degree) == ("face 1", 1)
    # a boundary out of degree 1 that is nonzero while 1 - lambda is the identity
    cx = build_cyclic_complex(build_named_module_coalgebra("regular", c2),
                              build_trivial_coefficient(c2, AydFlavour.from_code("lr")),
                              max_degree=2)
    d0, d1 = cx.bases[0].dim, cx.bases[1].dim
    cx.faces[1] = [Matrix.from_rows(cx.field, [[1] * d1] * d0), Matrix.zeros(cx.field, d0, d1)]
    cx.cyclers[1] = Matrix.zeros(cx.field, d1, d1)
    with pytest.raises(CompositionNotZero) as exc:
        homology_dims(cx, "connes")
    assert exc.value.degree == 1
    assert str(exc.value) == "boundary does not descend to the cyclic quotient at degree 1"
