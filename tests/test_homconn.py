import dataclasses
import json

import pytest

from dense_routes import dense_check_coring, dense_degree_maps, twisted_left_action
from explicit_hopf import cyclic_group_session
from hopfcontra import homconn
from hopfcontra.ayd import (AydFlavour, build_trivial_coefficient,
                            one_dim_coefficient)
from hopfcontra.errors import CounitDegenerate, PrerequisiteFailed
from hopfcontra.exactla import Matrix, QQ, kron
from hopfcontra.homconn import (build_ayd_coring, build_dga, check_coring,
                                check_leibniz, coring_contramodule_equivalence,
                                curvature_and_flatness,
                                hom_connection_from_contramodule)
from hopfcontra.hopf import CoalgebraData, HopfData
from hopfcontra.session import load_session

RR = AydFlavour.from_code("rr")


@pytest.fixture(scope="module")
def oracle_cases(trivial, c2, c3, h4, h4_gf7, tmp_path_factory):
    path = tmp_path_factory.mktemp("z5") / "z5.session"
    path.write_text(json.dumps(cyclic_group_session(7, 5)))
    return [trivial, c2, c3, h4, h4_gf7, load_session(path).hopf]


def _eval_at_group_rr(h):
    # action through the counit character, alpha evaluates at the grouplike
    return one_dim_coefficient(h, RR, [1, 1, 0, 0], [0, 1, 0, 0])


def _corrupted_rr(h):
    # alpha evaluates at a non grouplike basis vector; nothing downstream holds
    return one_dim_coefficient(h, RR, [1, 1, 0, 0], [0, 0, 1, 0])


# ---------------------------------------------------------------- coring


def test_coring_laws_group_algebra(c2, c3):
    for h in (c2, c3):
        coring = build_ayd_coring(h)
        assert coring.dim == h.dim ** 2
        rep = check_coring(coring)
        assert rep.ok, rep.failures()[0].name


def test_coring_laws_sweedler(h4, h4_gf7):
    for h in (h4, h4_gf7):
        coring = build_ayd_coring(h)
        rep = check_coring(coring)
        assert rep.ok, rep.failures()[0].name


def test_coring_on_one_dimensional_hopf(trivial):
    coring = build_ayd_coring(trivial)
    assert coring.dim == 1
    assert check_coring(coring).ok


def test_coring_grouplike_is_unit_tensor_unit(c2):
    coring = build_ayd_coring(c2)
    expected = kron(c2.unit, c2.unit)
    assert coring.grouplike == expected


def test_coring_requires_hopf_axioms(h4):
    broken = HopfData(h4.algebra, h4.coalgebra, Matrix.identity(QQ, 4))
    with pytest.raises(PrerequisiteFailed):
        build_ayd_coring(broken)


def test_coring_matches_the_dense_route(oracle_cases):
    for h in oracle_cases:
        coring = build_ayd_coring(h)
        assert coring.left_action == twisted_left_action(h, 2)
        rep = check_coring(coring)
        assert rep.ok
        assert rep.as_json() == dense_check_coring(coring).as_json()


def _bumped(m, i, j):
    """m with one added to its entry (i, j)."""
    return m + Matrix.from_entries(m.field, m.rows, m.cols, [(i, j, 1)])


def _broken_corings(c):
    """One coring per structure map, each with one entry of it changed."""
    d, dc = c.hopf.dim, c.dim
    last = [_bumped(m, dc - 1, 0) if a == d - 1 else m for a, m in enumerate(c.left_action)]
    first = [_bumped(m, 0, dc - 1) if a == 0 else m for a, m in enumerate(c.right_action)]
    yield dataclasses.replace(c, left_action=last)
    yield dataclasses.replace(c, right_action=first)
    yield dataclasses.replace(c, coproduct=_bumped(c.coproduct, d ** 3 - 1, dc // 2))
    yield dataclasses.replace(c, counit=_bumped(c.counit, 0, dc - 1))


def test_broken_corings_fail_with_the_dense_witnesses(oracle_cases):
    for h in oracle_cases:
        for broken in _broken_corings(build_ayd_coring(h)):
            rep = check_coring(broken)
            assert not rep.ok
            assert all(v.witness for v in rep.failures())
            assert rep.as_json() == dense_check_coring(broken).as_json()


def test_calculus_and_connection_match_the_dense_route(oracle_cases):
    for h in oracle_cases:
        dga = build_dga(h)
        d0, d1, omega1_act = dense_degree_maps(h, dga.incl, dga.proj_plus)
        dense = dataclasses.replace(dga, d0=d0, d1=d1, omega1_act=omega1_act)
        assert dga == dense
        coeff = _eval_at_group_rr(h) if h.dim == 4 else build_trivial_coefficient(h, RR)
        hc = hom_connection_from_contramodule(coeff, dga)
        hc_dense = hom_connection_from_contramodule(coeff, dense)
        assert (hc.nabla0, hc.nabla1) == (hc_dense.nabla0, hc_dense.nabla1)


# -------------------------------------------------- contramodule equivalence


def test_equivalence_two_paths_agree(h4, c2):
    for h, coeff in ((h4, _eval_at_group_rr(h4)),
                     (c2, build_trivial_coefficient(c2, RR))):
        coring = build_ayd_coring(h)
        rep = coring_contramodule_equivalence(coring, coeff)
        assert rep.ok, rep.failures()[0].name


def test_equivalence_two_paths_agree_mod_p(h4_gf7):
    coring = build_ayd_coring(h4_gf7)
    coeff = one_dim_coefficient(h4_gf7, RR, [1, 1, 0, 0], [0, 1, 0, 0])
    assert coring_contramodule_equivalence(coring, coeff).ok


def test_equivalence_rejects_other_flavours(c2):
    coring = build_ayd_coring(c2)
    coeff = build_trivial_coefficient(c2, AydFlavour.from_code("lr"))
    with pytest.raises(PrerequisiteFailed, match="right-right"):
        coring_contramodule_equivalence(coring, coeff)


def test_equivalence_verdicts_track_incompatible_coefficient(h4):
    # evaluation at 1 is a lawful structure map but the wrong one for this
    # flavour; both detection routes must flag it, and must agree
    coring = build_ayd_coring(h4)
    coeff = one_dim_coefficient(h4, RR, [1, 1, 0, 0], [1, 0, 0, 0])
    rep = coring_contramodule_equivalence(coring, coeff)
    assert not rep.ok
    names = {v.name for v in rep.failures()}
    assert any(n.startswith("structure map right linear") for n in names)
    assert "identified verdict agrees with flavour verdict" not in names
    assert "identified counit and coassociation laws hold" not in names


# ------------------------------------------------------------------ calculus


def test_dga_dimension_law(c2, h4, h4_gf7, trivial):
    for h in (c2, h4, h4_gf7, trivial):
        dga = build_dga(h)
        d = h.dim
        assert dga.plus_dim == d - 1
        for n in range(4):
            assert dga.omega_dim(n) == (d - 1) ** n * d, (h.dim, n)


def test_dga_degree_maps_compose_to_zero(c2, h4, h4_gf7):
    for h in (c2, h4, h4_gf7):
        dga = build_dga(h)
        composite = dga.d1 @ dga.d0
        assert composite.is_zero()


def test_dga_shapes_sweedler(h4):
    dga = build_dga(h4)
    assert dga.d0.shape == (12, 4)
    assert dga.d1.shape == (36, 12)
    assert dga.incl.shape == (4, 3)
    assert dga.proj_plus.shape == (3, 4)
    # the inclusion splits the projection
    assert dga.proj_plus @ dga.incl == Matrix.identity(QQ, 3)


def test_dga_needs_a_counit_pivot(c2):
    dead = CoalgebraData(QQ, 2, c2.comul, Matrix.zeros(QQ, 1, 2))
    broken = HopfData(c2.algebra, dead, c2.antipode)
    with pytest.raises(CounitDegenerate):
        build_dga(broken)


def test_dga_rejects_non_hopf_input(h4):
    broken = HopfData(h4.algebra, h4.coalgebra, Matrix.identity(QQ, 4))
    with pytest.raises(PrerequisiteFailed, match="hopf axioms fail"):
        build_dga(broken)


# ------------------------------------------------------------ hom connection


def test_connection_flat_for_trivial_coefficient(c2):
    dga = build_dga(c2)
    hc = hom_connection_from_contramodule(build_trivial_coefficient(c2, RR), dga)
    assert check_leibniz(hc).ok
    curvature, rep = curvature_and_flatness(hc)
    assert curvature.is_zero() and rep.ok


def test_connection_flat_for_compatible_coefficient(h4):
    dga = build_dga(h4)
    hc = hom_connection_from_contramodule(_eval_at_group_rr(h4), dga)
    assert hc.nabla0.shape == (1, 3)
    assert hc.nabla1.shape == (3, 9)
    assert check_leibniz(hc).ok
    curvature, rep = curvature_and_flatness(hc)
    assert curvature.is_zero() and rep.ok


def test_connection_flat_mod_p(h4_gf7):
    dga = build_dga(h4_gf7)
    coeff = one_dim_coefficient(h4_gf7, RR, [1, 1, 0, 0], [0, 1, 0, 0])
    hc = hom_connection_from_contramodule(coeff, dga)
    assert check_leibniz(hc).ok
    assert curvature_and_flatness(hc)[0].is_zero()


def test_connection_gate_rejects_bad_coefficient(h4):
    dga = build_dga(h4)
    with pytest.raises(PrerequisiteFailed):
        hom_connection_from_contramodule(_corrupted_rr(h4), dga)


def test_connection_rejects_other_flavours(c2):
    dga = build_dga(c2)
    coeff = build_trivial_coefficient(c2, AydFlavour.from_code("rl"))
    with pytest.raises(PrerequisiteFailed, match="right-right"):
        hom_connection_from_contramodule(coeff, dga)


def test_corrupted_coefficient_has_curvature(h4, monkeypatch):
    # pushed past the gate, the broken structure map fails the product rule
    # and the curvature picks up a nonzero entry with an exact witness
    monkeypatch.setattr(homconn, "ensure_coefficient_checked", lambda *args, **kw: None)
    dga = build_dga(h4)
    hc = hom_connection_from_contramodule(_corrupted_rr(h4), dga)
    leib = check_leibniz(hc)
    assert not leib.ok
    curvature, rep = curvature_and_flatness(hc)
    assert not curvature.is_zero()
    assert not rep.ok
    assert rep.failures()[0].witness == {
        "row": 0, "col": 1, "lhs": "-1", "rhs": "0"}


def test_leibniz_failure_alone_does_not_force_curvature(h4, monkeypatch):
    # evaluation at 1 breaks the product rule yet still composes to zero
    monkeypatch.setattr(homconn, "ensure_coefficient_checked", lambda *args, **kw: None)
    dga = build_dga(h4)
    coeff = one_dim_coefficient(h4, RR, [1, 1, 0, 0], [1, 0, 0, 0])
    hc = hom_connection_from_contramodule(coeff, dga)
    assert not check_leibniz(hc).ok
    assert curvature_and_flatness(hc)[0].is_zero()


def test_connection_on_one_dimensional_hopf(trivial):
    # no forms at all: everything is vacuously flat
    dga = build_dga(trivial)
    assert dga.plus_dim == 0
    hc = hom_connection_from_contramodule(build_trivial_coefficient(trivial, RR),
                                          dga)
    assert hc.nabla0.shape == (1, 0)
    assert check_leibniz(hc).ok
    curvature, rep = curvature_and_flatness(hc)
    assert curvature.is_zero() and rep.ok
