from fractions import Fraction

import pytest

from hopfcontra.errors import InvalidComodule
from hopfcontra.exactla import QQ, Matrix
from hopfcontra.reps import (ComoduleRep, ContraRep, ModuleRep, check_comodule,
                             check_contramodule, check_module, dualize_comodule)


def test_regular_module_passes(c2, h4):
    for h in (c2, h4):
        rep = check_module(ModuleRep(h, "left", h.left_mult()))
        assert rep.ok, rep.failures()
        rep = check_module(ModuleRep(h, "right", h.right_mult()))
        assert rep.ok, rep.failures()


def test_broken_module_fails(c2):
    bad = [m.scale(Fraction(2)) for m in c2.left_mult()]
    rep = check_module(ModuleRep(c2, "left", bad))
    assert not rep.ok
    assert rep.failures()[0].witness is not None


def test_regular_comodule_passes(h4):
    rep = check_comodule(ComoduleRep(h4, "left", h4.comul))
    assert rep.ok, rep.failures()


def test_trivial_contramodule_passes(h4):
    alpha = ContraRep(h4.coalgebra, "right",
                      Matrix.from_rows(QQ, [[1, 0, 0, 0]]))
    rep = check_contramodule(alpha)
    assert rep.ok, rep.failures()
    assert "theta-convention" in rep.notes


def test_left_contramodule_uses_co_opposite(h4):
    # evaluation at the group element is a structure map on either side
    alpha = ContraRep(h4.coalgebra, "left",
                      Matrix.from_rows(QQ, [[0, 1, 0, 0]]))
    rep = check_contramodule(alpha)
    assert rep.ok, rep.failures()


def test_broken_contramodule_fails(h4):
    alpha = ContraRep(h4.coalgebra, "right",
                      Matrix.from_rows(QQ, [[0, 0, 1, 0]]))
    rep = check_contramodule(alpha)
    assert not rep.ok


def test_dualize_comodule_round_trip(h4):
    left = ComoduleRep(h4, "left", h4.comul)
    contra = dualize_comodule(left)
    assert contra.side == "right"
    assert contra.dim == 4
    assert check_contramodule(contra).ok
    # right comodules dualize to the other side
    right = ComoduleRep(h4, "right", h4.comul)
    other = dualize_comodule(right)
    assert other.side == "left"
    assert check_contramodule(other).ok


def test_dualize_rejects_invalid_comodule(h4):
    bad = Matrix.zeros(QQ, 16, 4)
    with pytest.raises(InvalidComodule):
        dualize_comodule(ComoduleRep(h4, "left", bad))
