from fractions import Fraction

import pytest

from hopfcontra.ayd import (AydCoefficient, AydFlavour, AydModuleData,
                            build_trivial_coefficient, check_ayd_compatibility,
                            check_ayd_module, check_stability,
                            dualize_ayd_module, ensure_coefficient_checked,
                            one_dim_coefficient, _transport_operator)
from hopfcontra.errors import PrerequisiteFailed, ShapeMismatch
from hopfcontra.exactla import GF, QQ, Matrix
from hopfcontra.reps import ComoduleRep, ModuleRep

FLAVOURS = ("ll", "lr", "rl", "rr")


def test_flavour_codes():
    fl = AydFlavour.from_code("lr")
    assert fl.module_side == "left" and fl.contra_side == "right"
    assert fl.code == "lr"
    with pytest.raises(ShapeMismatch):
        AydFlavour.from_code("xx")


def test_trivial_coefficient_over_cocommutative(c2):
    # with trivial S = S inverse every flavour identity collapses
    for code in FLAVOURS:
        c = build_trivial_coefficient(c2, AydFlavour.from_code(code))
        assert check_ayd_compatibility(c).ok, code
        assert check_stability(c).ok, code


def test_trivial_coefficient_fails_on_sweedler(h4):
    # the twisting by S^2 != id shows up in every flavour
    for code in FLAVOURS:
        c = build_trivial_coefficient(h4, AydFlavour.from_code(code))
        rep = check_ayd_compatibility(c)
        assert not rep.ok, code


def test_group_character_coefficient_on_sweedler(h4, h4_gf7):
    for h in (h4, h4_gf7):
        one = h.field.one
        zero = h.field.zero
        for code in FLAVOURS:
            c = one_dim_coefficient(h, AydFlavour.from_code(code),
                                    [one, one, zero, zero],
                                    [zero, one, zero, zero])
            assert check_ayd_compatibility(c).ok, code
            assert check_stability(c).ok, code


def ll_transport_direct(c, a):
    """Scalar-loop construction of the ll twisting map, for cross checking.

    Builds h' -> h_(2).f(Sinv(h_(1)) h' h_(3)) entry by entry from structure
    constants, avoiding the operator-composition route entirely.
    """
    h = c.hopf
    F = h.field
    d, dm = h.dim, c.dim
    rho = c.action.matrices
    zero = F.zero
    out = Matrix.zeros(F, d * dm, d * dm)
    for (idx, coeff) in h.comul_terms(2)[a]:
        b, mid, dd = idx
        sinv_b = h.antipode_inv_of(b)
        for hp in range(d):
            # coordinates of Sinv(e_b) * e_hp * e_dd
            mid_prod = [zero] * d
            for s in range(d):
                if sinv_b[s] == zero:
                    continue
                for k in range(d):
                    c1 = h.mul.data[k][s * d + hp]
                    if c1 != zero:
                        mid_prod[k] = F.coerce(mid_prod[k] + sinv_b[s] * c1)
            full = [zero] * d
            for k in range(d):
                if mid_prod[k] == zero:
                    continue
                for t in range(d):
                    c2 = h.mul.data[t][k * d + dd]
                    if c2 != zero:
                        full[t] = F.coerce(full[t] + mid_prod[k] * c2)
            for x in range(d):
                if full[x] == zero:
                    continue
                for mp in range(dm):
                    for m in range(dm):
                        r = rho[mid].data[mp][m]
                        if r != zero:
                            cur = out.data[hp * dm + mp][x * dm + m]
                            out.data[hp * dm + mp][x * dm + m] = F.coerce(
                                cur + coeff * full[x] * r)
    return out


def test_ll_transport_two_construction_paths(h4, c2):
    for h in (h4, c2):
        one, zero = h.field.one, h.field.zero
        character = [one] * h.dim if h.dim == 2 else [one, one, zero, zero]
        alpha_row = [zero, one] + [zero] * (h.dim - 2)
        c = one_dim_coefficient(h, AydFlavour.from_code("ll"),
                                character, alpha_row)
        for a in range(h.dim):
            assert _transport_operator(c, a) == ll_transport_direct(c, a)


def test_nonstable_coefficient(c2):
    c = one_dim_coefficient(c2, AydFlavour.from_code("lr"),
                            [Fraction(1), Fraction(-1)],
                            [Fraction(0), Fraction(1)])
    assert check_ayd_compatibility(c).ok
    rep = check_stability(c)
    assert not rep.ok
    with pytest.raises(PrerequisiteFailed) as exc:
        ensure_coefficient_checked(c, need_stable=True)
    assert "allow_unstable" in str(exc.value)
    # without the stability requirement the gate lets it through
    ensure_coefficient_checked(c, need_stable=False)


def test_incompatible_coefficient_gate(h4):
    c = build_trivial_coefficient(h4, AydFlavour.from_code("lr"))
    with pytest.raises(PrerequisiteFailed) as exc:
        ensure_coefficient_checked(c, need_stable=False)
    assert "compatibility" in str(exc.value)


def _sweedler_ayd_module(h):
    one, zero = h.field.one, h.field.zero
    action = ModuleRep(h, "right", [
        Matrix.from_rows(h.field, [[one]]),
        Matrix.from_rows(h.field, [[one]]),
        Matrix.from_rows(h.field, [[zero]]),
        Matrix.from_rows(h.field, [[zero]]),
    ])
    coaction = Matrix.zeros(h.field, 4, 1)
    coaction.data[1][0] = one
    return AydModuleData(h, action, ComoduleRep(h, "left", coaction))


def test_module_side_compatibility_and_stability(h4):
    n = _sweedler_ayd_module(h4)
    rep = check_ayd_module(n)
    assert rep.ok, rep.failures()
    assert "ayd-twisted-condition" in rep.notes
    assert check_stability(n).ok


def test_duality_square(h4):
    # transpose-and-dualize lands on the checked one dimensional coefficient
    n = _sweedler_ayd_module(h4)
    dual = dualize_ayd_module(n)
    assert dual.flavour.code == "lr"
    assert check_ayd_compatibility(dual).ok and check_stability(dual).ok
    direct = one_dim_coefficient(h4, AydFlavour.from_code("lr"),
                                 [1, 1, 0, 0], [0, 1, 0, 0])
    assert dual.action.matrices == direct.action.matrices
    assert dual.alpha.alpha == direct.alpha.alpha


def test_dualize_rejects_incompatible_module(h4):
    n = _sweedler_ayd_module(h4)
    # corrupt the coaction: land on the nilpotent component instead
    n.coaction.coaction.data[1][0] = Fraction(0)
    n.coaction.coaction.data[2][0] = Fraction(1)
    with pytest.raises(PrerequisiteFailed):
        dualize_ayd_module(n)


def test_module_side_shape_gates(h4):
    one = h4.field.one
    action = ModuleRep(h4, "left", [Matrix.from_rows(QQ, [[one]])] * 4)
    coaction = ComoduleRep(h4, "left", Matrix.zeros(QQ, 4, 1))
    with pytest.raises(ShapeMismatch):
        AydModuleData(h4, action, coaction)
