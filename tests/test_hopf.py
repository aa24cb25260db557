import json
import random
import time
from fractions import Fraction

import pytest

from hopfcontra.errors import CharacteristicClash, UnknownName
from hopfcontra.exactla import GF, QQ, Matrix, split_index, tensor_permutation
from hopfcontra.hopf import (AlgebraData, CoalgebraData, HopfData,
                             build_named_example, check_hopf_axioms)
from hopfcontra.report import first_difference
from hopfcontra.session import load_session

from dense_routes import iterated_comul, product_of_coproducts
from explicit_hopf import taft_session

NAMED = ("trivial", "group_C2", "group_C3", "sweedler_H4")


def test_all_named_examples_pass_axioms():
    start = time.perf_counter()
    for name in NAMED:
        rep = check_hopf_axioms(build_named_example(name, QQ))
        assert rep.ok, (name, rep.failures())
    for p in (5, 7):
        rep = check_hopf_axioms(build_named_example("sweedler_H4", GF(p)))
        assert rep.ok, (p, rep.failures())
    assert time.perf_counter() - start < 1.0


def test_unknown_name():
    with pytest.raises(UnknownName):
        build_named_example("nope", QQ)


def test_sweedler_needs_odd_characteristic():
    with pytest.raises(CharacteristicClash):
        build_named_example("sweedler_H4", GF(2))
    # group algebras are fine in any characteristic
    assert check_hopf_axioms(build_named_example("group_C2", GF(2))).ok


def test_cocommutativity():
    def cocommutative(h):
        swap = tensor_permutation(h.field, (h.dim, h.dim), (1, 0))
        return swap @ h.comul == h.comul

    assert cocommutative(build_named_example("group_C2", QQ))
    assert cocommutative(build_named_example("group_C3", QQ))
    assert not cocommutative(build_named_example("sweedler_H4", QQ))


def test_antipode_order(h4):
    s = h4.antipode
    s2 = s @ s
    ident = Matrix.identity(QQ, 4)
    assert s2 != ident
    assert s2 @ s2 == ident
    # the inverse sends the nilpotent generator to its left translate
    assert h4.antipode_inv.col(2) == Matrix.from_entries(QQ, 4, 1, [(3, 0, 1)]).col(0)
    # and squares to the same involution
    assert h4.antipode_inv @ h4.antipode_inv == s2


def test_sweedler_coproduct_terms(h4):
    # basis order: unit, group element, nilpotent, their product
    terms = {idx: c for (idx, c) in h4.comul_terms(2)[2]}
    assert terms == {(2, 0, 0): Fraction(1), (1, 2, 0): Fraction(1),
                     (1, 1, 2): Fraction(1)}


def test_iterated_comul_shapes(h4):
    assert h4.comul_terms(0) == [[((i,), Fraction(1))] for i in range(4)]
    for k in range(1, 5):
        terms = h4.comul_terms(k)
        assert len(terms) == 4
        for per_basis in terms:
            assert per_basis
            assert all(len(idx) == k + 1 and max(idx) < 4 for idx, _ in per_basis)
    with pytest.raises(ValueError):
        h4.comul_terms(-1)


def _c2_in_basis_one_and_one_plus_g():
    # e1 = 1 + g: Delta(e1) = 2 e0e0 - e0e1 - e1e0 + e1e1, so expanding the
    # first leg of Delta(e1) cancels the term e0e0e0
    one = QQ.one
    algebra = AlgebraData.from_triples(
        QQ, 2, [(0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one), (1, 1, 1, 2)], [1, 0])
    coalgebra = CoalgebraData.from_triples(
        QQ, 2, [(0, 0, 0, one), (1, 0, 0, 2), (1, 0, 1, -1), (1, 1, 0, -1), (1, 1, 1, one)],
        [1, 2])
    ident = Matrix.identity(QQ, 2)
    return HopfData(algebra, coalgebra, ident, ident)


def test_comul_terms_match_dense_iterated_coproduct(tmp_path):
    path = tmp_path / "taft.session"
    path.write_text(json.dumps(taft_session(7, 3, 2, 1)))
    cases = [build_named_example(name, field) for name in NAMED for field in (QQ, GF(7))]
    cases.append(load_session(path).hopf)
    cancelling = _c2_in_basis_one_and_one_plus_g()
    assert check_hopf_axioms(cancelling).ok
    assert ((0, 0, 0), Fraction(0)) not in cancelling.comul_terms(2)[1]
    cases.append(cancelling)
    for h in cases:
        d = h.dim
        for k in range(5):
            dense = iterated_comul(h, k)
            want = [[] for _ in range(d)]
            for row, i, v in dense.nonzero_entries():
                want[i].append((tuple(split_index(row, (d,) * (k + 1))), v))
            assert h.comul_terms(k) == want, (d, h.field, k)


def _mutated_copy(h, rng):
    """Change one structure constant by a random nonzero integer amount."""
    parts = {
        "mul": [list(r) for r in h.mul.data],
        "unit": [list(r) for r in h.unit.data],
        "comul": [list(r) for r in h.comul.data],
        "counit": [list(r) for r in h.counit.data],
        "antipode": [list(r) for r in h.antipode.data],
    }
    name = rng.choice(sorted(parts))
    grid = parts[name]
    i = rng.randrange(len(grid))
    j = rng.randrange(len(grid[0]))
    grid[i][j] = grid[i][j] + rng.choice([-2, -1, 1, 2])
    d = h.dim
    from hopfcontra.hopf import AlgebraData, CoalgebraData
    algebra = AlgebraData(h.field, d,
                          Matrix(h.field, d, d * d, parts["mul"]),
                          Matrix(h.field, d, 1, parts["unit"]))
    coalgebra = CoalgebraData(h.field, d,
                              Matrix(h.field, d * d, d, parts["comul"]),
                              Matrix(h.field, 1, d, parts["counit"]))
    antipode = Matrix(h.field, d, d, parts["antipode"])
    # reuse the original inverse so construction never divides by the mutation
    return HopfData(algebra, coalgebra, antipode, h.antipode_inv)


@pytest.mark.parametrize("name", ["group_C3", "sweedler_H4"])
def test_comultiplicativity_witness_matches_the_dense_route(name):
    h = build_named_example(name, QQ)
    rng = random.Random(11)
    for mutant in [h] + [_mutated_copy(h, rng) for _ in range(30)]:
        verdict = next(v for v in check_hopf_axioms(mutant).verdicts
                       if v.name == "comultiplication multiplicative")
        d = mutant.dim
        assert verdict.witness == first_difference(
            mutant.comul @ mutant.mul, product_of_coproducts(mutant),
            row_dims=(d, d), col_dims=(d, d))


@pytest.mark.parametrize("name,seed", [("group_C2", 20240), ("sweedler_H4", 20241)])
def test_single_constant_mutations_always_fail(name, seed):
    h = build_named_example(name, QQ)
    rng = random.Random(seed)
    for trial in range(20):
        mutant = _mutated_copy(h, rng)
        rep = check_hopf_axioms(mutant)
        assert not rep.ok, (name, trial)
        failing = rep.failures()
        assert any(v.witness is not None for v in failing), (name, trial)


def test_mult_by_and_side_operators(c2):
    left = c2.left_mult()
    right = c2.right_mult()
    # C2 is commutative so the two translation families agree
    assert left[1] == right[1]
    coords = c2.mult_by([Fraction(2), Fraction(3)], "left")
    assert coords == left[0].scale(Fraction(2)) + left[1].scale(Fraction(3))


def test_axioms_report_is_made_once_per_hopf_algebra():
    h = build_named_example("sweedler_H4", QQ)
    first = check_hopf_axioms(h)
    assert check_hopf_axioms(h) is first
    # a new object with the same constants gets its own report
    again = HopfData(h.algebra, h.coalgebra, h.antipode, h.antipode_inv)
    assert check_hopf_axioms(again) is not first
    assert check_hopf_axioms(again).as_json() == first.as_json()
