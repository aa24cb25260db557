import json
from fractions import Fraction
from pathlib import Path

import pytest

from hopfcontra import cyclic
from hopfcontra.ayd import (AydFlavour, build_trivial_coefficient,
                            dualize_ayd_module, one_dim_coefficient)
from hopfcontra.cyclic import (build_cocyclic_complex, build_cyclic_complex,
                               build_named_module_algebra,
                               build_named_module_coalgebra,
                               check_module_algebra, check_module_coalgebra,
                               diagonal_power, equivariant_hom_basis,
                               homology_dims, tensor_over_H,
                               verify_cyclic_relations)
from hopfcontra.errors import (CharacteristicUnsupported, DimensionCapExceeded,
                               NotEquivariant, PrerequisiteFailed, ShapeMismatch,
                               UnknownName)
from hopfcontra.exactla import QQ, Matrix
from hopfcontra.reps import ModuleRep

from dense_routes import hom_bimodule_actions
from oracles import (diagonal_power as raw_diagonal_power, frac_rank,
                     group_tuple_orbits, homology_dim, intertwiner_dim)
from test_ayd import _sweedler_ayd_module

GOLDEN = Path(__file__).resolve().parent / "golden"


def _lr_trivial(h):
    return build_trivial_coefficient(h, AydFlavour.from_code("lr"))


def _eval_at_group(h, code):
    one, zero = h.field.one, h.field.zero
    return one_dim_coefficient(h, AydFlavour.from_code(code),
                               [one, one, zero, zero], [zero, one, zero, zero])


def _raw_power(action, k):
    """Dense entries of the diagonal action on X^(x)k, from the oracle."""
    return raw_diagonal_power([m.data for m in action.matrices],
                              action.hopf.coalgebra.comul.data, k)


def _power_module(action, k):
    """The diagonal action on X^(x)k as a ModuleRep, from the oracle."""
    return ModuleRep(action.hopf, "left",
                     [Matrix.from_rows(action.field, rows) for rows in _raw_power(action, k)])


def test_diagonal_power_matches_raw_entries(c2, h4, h4_gf7):
    for h, top in ((c2, 4), (h4, 3), (h4_gf7, 3)):
        action = build_named_module_coalgebra("regular", h).action
        p = h.field.p
        counit = diagonal_power(action, 0)
        assert counit == [[{0: e} if e else {}] for e in h.counit.data[0]]
        for k in range(1, top + 1):
            want = _raw_power(action, k)
            got = diagonal_power(action, k)
            assert len(got) == h.dim
            for cols, rows in zip(got, want):
                dense = [[v if p is None else v % p for v in row] for row in rows]
                assert len(cols) == len(dense)
                for j, col in enumerate(cols):
                    assert all(v for v in col.values())
                    assert col == {i: row[j] for i, row in enumerate(dense) if row[j]}


def test_named_structures(c2, h4):
    assert check_module_coalgebra(build_named_module_coalgebra("regular", c2)).ok
    assert check_module_coalgebra(build_named_module_coalgebra("trivial", h4)).ok
    assert check_module_algebra(build_named_module_algebra("trivial", c2)).ok
    rep = check_module_algebra(build_named_module_algebra("adjoint", h4))
    assert rep.ok, rep.failures()
    assert "module-algebra-two-factors" in rep.notes
    with pytest.raises(UnknownName):
        build_named_module_coalgebra("adjoint", c2)
    with pytest.raises(UnknownName):
        build_named_module_algebra("regular", c2)


def test_dimension_law_c2(c2):
    coalg = build_named_module_coalgebra("regular", c2)
    coeff = _lr_trivial(c2)
    expected = []
    for n in range(4):
        basis = equivariant_hom_basis(coalg.action, coeff, n)
        expected.append(basis.dim)
    assert expected == [1, 2, 4, 8]
    # free rank formula and orbit count agree
    assert expected == [2 ** n for n in range(4)]
    assert expected == [group_tuple_orbits(2, n + 1) for n in range(4)]
    # brute force intertwiner solve over raw entries
    for n in range(4):
        x_ops = _raw_power(coalg.action, n + 1)
        m_ops = [m.data for m in coeff.action.matrices]
        assert intertwiner_dim(x_ops, m_ops) == expected[n]


def test_dimension_law_sweedler(h4):
    coalg = build_named_module_coalgebra("regular", h4)
    coeff = _eval_at_group(h4, "lr")
    dims = []
    for n in range(3):
        basis = equivariant_hom_basis(coalg.action, coeff, n)
        dims.append(basis.dim)
    assert dims == [1, 4, 16]
    assert dims == [4 ** n for n in range(3)]
    for n in range(3):
        x_ops = _raw_power(coalg.action, n + 1)
        m_ops = [m.data for m in coeff.action.matrices]
        assert intertwiner_dim(x_ops, m_ops) == dims[n]


def test_cyclic_relations_c2(c2):
    cx = build_cyclic_complex(build_named_module_coalgebra("regular", c2),
                              _lr_trivial(c2), max_degree=3)
    assert cx.dims == [1, 2, 4, 8]
    rep = verify_cyclic_relations(cx)
    assert rep.ok, rep.failures()


def test_cyclic_relations_sweedler_dual_coefficient(h4):
    # coefficient produced by dualizing the checked one dimensional module
    dual = dualize_ayd_module(_sweedler_ayd_module(h4))
    cx = build_cyclic_complex(build_named_module_coalgebra("regular", h4),
                              dual, max_degree=3)
    assert cx.dims == [1, 4, 16, 64]
    rep = verify_cyclic_relations(cx)
    assert rep.ok, rep.failures()


def test_cocyclic_relations_c2(c2):
    cx = build_cocyclic_complex(build_named_module_algebra("trivial", c2),
                                build_trivial_coefficient(
                                    c2, AydFlavour.from_code("ll")),
                                max_degree=3)
    assert cx.dims == [1, 1, 1, 1]
    rep = verify_cyclic_relations(cx)
    assert rep.ok, rep.failures()


def test_cocyclic_relations_sweedler_adjoint(h4):
    cx = build_cocyclic_complex(build_named_module_algebra("adjoint", h4),
                                _eval_at_group(h4, "ll"), max_degree=2)
    assert cx.dims == [2, 5, 18]
    rep = verify_cyclic_relations(cx)
    assert rep.ok, rep.failures()


def test_stability_failure_breaks_exactly_the_cyclic_order(c2):
    sgn = one_dim_coefficient(c2, AydFlavour.from_code("lr"),
                              [Fraction(1), Fraction(-1)],
                              [Fraction(0), Fraction(1)])
    with pytest.raises(PrerequisiteFailed):
        build_cyclic_complex(build_named_module_coalgebra("regular", c2),
                             sgn, max_degree=2)
    cx = build_cyclic_complex(build_named_module_coalgebra("regular", c2),
                              sgn, max_degree=2, allow_unstable=True)
    rep = verify_cyclic_relations(cx)
    failing = sorted(v.name for v in rep.failures())
    assert failing == ["t^1 = id at degree 0", "t^2 = id at degree 1",
                       "t^3 = id at degree 2"]


def test_flavour_gates(c2):
    coalg = build_named_module_coalgebra("regular", c2)
    alg = build_named_module_algebra("trivial", c2)
    ll = build_trivial_coefficient(c2, AydFlavour.from_code("ll"))
    lr = _lr_trivial(c2)
    with pytest.raises(PrerequisiteFailed):
        build_cyclic_complex(coalg, ll, max_degree=1)
    with pytest.raises(PrerequisiteFailed):
        build_cocyclic_complex(alg, lr, max_degree=1)


def test_not_equivariant_without_gate(h4):
    bad = build_trivial_coefficient(h4, AydFlavour.from_code("lr"))
    with pytest.raises(NotEquivariant):
        build_cyclic_complex(build_named_module_coalgebra("regular", h4),
                             bad, max_degree=1, require_checked=False)


def test_dimension_cap(h4, monkeypatch):
    # the cap is checked from shapes, before any diagonal power exists
    monkeypatch.setenv("HOPFCONTRA_DIM_CAP", "100")

    def unreachable(*args):
        raise AssertionError("diagonal_power ran before the cap check")

    monkeypatch.setattr(cyclic, "diagonal_power", unreachable)
    coalg = build_named_module_coalgebra("regular", h4)
    coeff = _eval_at_group(h4, "lr")
    for attempt in (lambda: build_cyclic_complex(coalg, coeff, max_degree=3),
                    lambda: equivariant_hom_basis(coalg.action, coeff, 3)):
        with pytest.raises(DimensionCapExceeded) as exc:
            attempt()
        assert str(exc.value) == "hom space dimension 256 exceeds the cap 100"


def test_relation_names_match_golden(c2):
    # verdict names and their order, pinned at degree 4 for both kinds
    want = json.loads((GOLDEN / "relation_names_c2_degree4.json").read_text())
    built = {
        "cyclic": build_cyclic_complex(build_named_module_coalgebra("regular", c2),
                                       _lr_trivial(c2), max_degree=4),
        "cocyclic": build_cocyclic_complex(build_named_module_algebra("trivial", c2),
                                           build_trivial_coefficient(
                                               c2, AydFlavour.from_code("ll")),
                                           max_degree=4),
    }
    for kind, cx in built.items():
        rep = verify_cyclic_relations(cx)
        assert rep.title == f"{kind} relations"
        assert [v.name for v in rep.verdicts] == want[kind]
        assert len(want[kind]) == 98
        assert rep.ok, rep.failures()


def test_hochschild_homology_golden(c2, trivial):
    cx = build_cyclic_complex(build_named_module_coalgebra("regular", c2),
                              _lr_trivial(c2), max_degree=3)
    assert homology_dims(cx, mode="hochschild") == [1, 0, 0]
    # alternating collapse over the one dimensional Hopf structure
    cx0 = build_cyclic_complex(build_named_module_coalgebra("trivial", trivial),
                               _lr_trivial(trivial), max_degree=4)
    assert homology_dims(cx0, mode="hochschild") == [1, 0, 0, 0]


def test_connes_homology_golden(c2):
    cx = build_cyclic_complex(build_named_module_coalgebra("regular", c2),
                              _lr_trivial(c2), max_degree=3)
    assert homology_dims(cx, mode="connes") == [1, 0, 1]


def test_homology_against_rank_oracle(c2):
    cx = build_cyclic_complex(build_named_module_coalgebra("regular", c2),
                              _lr_trivial(c2), max_degree=3)
    boundaries = {}
    for n in range(1, 4):
        total = Matrix.zeros(QQ, cx.faces[n][0].rows, cx.faces[n][0].cols)
        for i, face in enumerate(cx.faces[n]):
            total = total + (face if i % 2 == 0 else face.scale(Fraction(-1)))
        boundaries[n] = total
    # b squares to zero, degree by degree
    for n in range(1, 3):
        assert (boundaries[n] @ boundaries[n + 1]).is_zero()
    dims = homology_dims(cx, mode="hochschild")
    assert dims[0] == cx.dims[0] - frac_rank(boundaries[1].data)
    for n in (1, 2):
        assert dims[n] == homology_dim(boundaries[n + 1], boundaries[n])


def test_sweedler_hochschild_golden(h4, h4_gf7):
    for h in (h4, h4_gf7):
        cx = build_cyclic_complex(build_named_module_coalgebra("regular", h),
                                  _eval_at_group(h, "lr"), max_degree=3)
        assert homology_dims(cx, mode="hochschild") == [0, 1, 0]


def test_connes_needs_characteristic_zero(h4_gf7):
    cx = build_cyclic_complex(build_named_module_coalgebra("regular", h4_gf7),
                              _eval_at_group(h4_gf7, "lr"), max_degree=2)
    with pytest.raises(CharacteristicUnsupported):
        homology_dims(cx, mode="connes")
    with pytest.raises(ShapeMismatch):
        homology_dims(cx, mode="sideways")


def test_cocyclic_homology_goldens(c2, h4):
    cx = build_cocyclic_complex(build_named_module_algebra("trivial", c2),
                                build_trivial_coefficient(
                                    c2, AydFlavour.from_code("ll")),
                                max_degree=3)
    assert homology_dims(cx, mode="hochschild") == [1, 0, 0]
    assert homology_dims(cx, mode="connes") == [1, 0, 1]
    cx4 = build_cocyclic_complex(build_named_module_algebra("adjoint", h4),
                                 _eval_at_group(h4, "ll"), max_degree=2)
    assert homology_dims(cx4, mode="hochschild") == [2, 0]
    assert homology_dims(cx4, mode="connes") == [2, 0]


def test_hom_bimodule_laws(c2, h4):
    left_ops, right_ops, rep = hom_bimodule_actions(
        build_named_module_algebra("trivial", c2),
        build_trivial_coefficient(c2, AydFlavour.from_code("ll")))
    assert rep.ok, rep.failures()
    left_ops, right_ops, rep = hom_bimodule_actions(
        build_named_module_algebra("adjoint", h4), _eval_at_group(h4, "ll"))
    assert rep.ok, rep.failures()
    assert "hom-right-action-associativity" in rep.notes
    assert "module-algebra-two-factors" in rep.notes
    assert len(left_ops) == len(right_ops) == 4


def test_duality_of_dimensions(c2, h4):
    # hom into the dual coefficient against tensoring the module itself
    module = _sweedler_ayd_module(h4)
    dual = dualize_ayd_module(module)
    coalg = build_named_module_coalgebra("regular", h4)
    for n in range(4):
        diag = _power_module(coalg.action, n + 1)
        hom_dim = equivariant_hom_basis(coalg.action, dual, n).dim
        assert tensor_over_H(module, diag).dim == hom_dim, n
    # over the group algebra with the trivial pairing
    coalg2 = build_named_module_coalgebra("regular", c2)
    one = Matrix.from_rows(QQ, [[1]])
    trivial_right = ModuleRep(c2, "right", [one, one])
    coeff = _lr_trivial(c2)
    for n in range(4):
        diag = _power_module(coalg2.action, n + 1)
        hom_dim = equivariant_hom_basis(coalg2.action, coeff, n).dim
        assert tensor_over_H(trivial_right, diag).dim == hom_dim, n


def test_tensor_quotient_against_rank_oracle(c2):
    one = Matrix.from_rows(QQ, [[1]])
    trivial_right = ModuleRep(c2, "right", [one, one])
    coalg = build_named_module_coalgebra("regular", c2)
    for n in range(3):
        diag = _power_module(coalg.action, n + 1)
        q = tensor_over_H(trivial_right, diag)
        dx = diag.matrices[0].rows
        rows = []
        # span of n.(a x) - (n.a) x over all basis inputs, assembled by hand
        for a in range(2):
            act = diag.matrices[a].data
            rho = trivial_right.matrices[a].data[0][0]
            for x in range(dx):
                row = [Fraction(0)] * dx
                for y in range(dx):
                    row[y] += act[y][x]
                row[x] -= rho
                rows.append(row)
        assert q.dim == dx - frac_rank(rows)
