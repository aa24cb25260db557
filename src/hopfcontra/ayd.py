"""Contramodule coefficients with a compatible Hopf action.

A coefficient is a module structure and a contramodule structure on the same
space, tied together by an antipode-twisted compatibility identity.  There
are four flavours, named by (module side, contramodule side): ll, lr, rl, rr.
Writing D2(h) = h_(1) (x) h_(2) (x) h_(3), the identities are

  ll:  h.alpha(f) = alpha(h' -> h_(2) . f(Sinv(h_(1)) h' h_(3)))
  lr:  h.alpha(f) = alpha(h' -> h_(2) . f(S(h_(3)) h' h_(1)))
  rl:  alpha(f).h = alpha(h' -> f(h_(3) h' S(h_(1))) . h_(2))
  rr:  alpha(f).h = alpha(h' -> f(h_(1) h' Sinv(h_(3))) . h_(2))

Module-side data (an action together with a coaction) is supported for the
right module / left comodule flavour, whose twisted condition is
rho(x.h) = S(h_(3)) x_(-1) h_(1) (x) x_(0).h_(2); dualizing it yields an
lr coefficient on the dual space.

Checks are pure functions that store nothing on the object; builders gate
on verified inputs through ensure_coefficient_checked, which reruns them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PrerequisiteFailed, ShapeMismatch
from .exactla import Matrix, combine, kron, tensor_permutation, vstack
from .hopf import HopfData
from .report import Report
from .reps import (ComoduleRep, ContraRep, ModuleRep, check_comodule,
                   check_contramodule, check_module, counit_module, dualize_comodule)

FLAVOUR_CODES = ("ll", "lr", "rl", "rr")


@dataclass(frozen=True)
class AydFlavour:
    module_side: str
    contra_side: str

    @classmethod
    def from_code(cls, code: str) -> "AydFlavour":
        if code not in FLAVOUR_CODES:
            raise ShapeMismatch(f"flavour must be one of {FLAVOUR_CODES}, got {code!r}")
        sides = {"l": "left", "r": "right"}
        return cls(sides[code[0]], sides[code[1]])

    @property
    def code(self):
        return self.module_side[0] + self.contra_side[0]


class AydCoefficient:
    """Module + contramodule on one space."""

    __slots__ = ("hopf", "flavour", "action", "alpha")

    def __init__(self, hopf: HopfData, flavour: AydFlavour,
                 action: ModuleRep, alpha: ContraRep):
        if action.side != flavour.module_side:
            raise ShapeMismatch(f"action side {action.side!r} clashes with flavour {flavour.code}")
        if alpha.side != flavour.contra_side:
            raise ShapeMismatch(f"alpha side {alpha.side!r} clashes with flavour {flavour.code}")
        if action.dim != alpha.dim:
            raise ShapeMismatch("action and alpha act on spaces of different dimension")
        if alpha.coalgebra is not hopf.coalgebra:
            # allow equal-but-distinct coalgebra objects, just match shapes
            if alpha.coalgebra.dim != hopf.dim or alpha.coalgebra.field != hopf.field:
                raise ShapeMismatch("alpha is a contramodule over the wrong coalgebra")
        self.hopf = hopf
        self.flavour = flavour
        self.action = action
        self.alpha = alpha

    @property
    def dim(self):
        return self.action.dim

    @property
    def field(self):
        return self.hopf.field


class AydModuleData:
    """Action + coaction on one space (right module, left comodule)."""

    __slots__ = ("hopf", "action", "coaction")

    def __init__(self, hopf: HopfData, action: ModuleRep, coaction: ComoduleRep):
        if action.side != "right" or coaction.side != "left":
            raise ShapeMismatch(
                "only the right module / left comodule flavour is implemented")
        if action.dim != coaction.dim:
            raise ShapeMismatch("action and coaction spaces differ in dimension")
        self.hopf = hopf
        self.action = action
        self.coaction = coaction

    @property
    def dim(self):
        return self.action.dim

    @property
    def field(self):
        return self.hopf.field


def _transport_operator(c: AydCoefficient, a: int) -> Matrix:
    """Matrix on Hom(H, M) of the flavour's inner twisting map at basis a."""
    h = c.hopf
    F = h.field
    dm = c.dim
    rho = c.action.matrices
    L = h.left_mult()
    R = h.right_mult()
    code = c.flavour.code

    def inner(b, d):
        if code == "ll":
            return h.mult_by(h.antipode_inv_of(b), "left") @ R[d]
        if code == "lr":
            return h.mult_by(h.antipode_of(d), "left") @ R[b]
        if code == "rl":
            return L[d] @ h.mult_by(h.antipode_of(b), "right")
        return L[b] @ h.mult_by(h.antipode_inv_of(d), "right")

    return combine(F, h.dim * dm, h.dim * dm,
                   [(coeff, kron(inner(b, d).transpose(), rho[mid]))
                    for ((b, mid, d), coeff) in h.comul_terms(2)[a]])


def check_ayd_compatibility(c: AydCoefficient) -> Report:
    """Flavour compatibility between the action and the contramodule map.

    Requires the action and alpha to pass their own axioms first; failures
    there raise PrerequisiteFailed.
    """
    mod = check_module(c.action)
    if not mod.ok:
        raise PrerequisiteFailed(f"action fails {mod.failures()[0].name}")
    contra = check_contramodule(c.alpha)
    if not contra.ok:
        raise PrerequisiteFailed(f"alpha fails {contra.failures()[0].name}")
    rep = Report(f"{c.flavour.code} compatibility")
    rep.note("theta-convention")
    h = c.hopf
    A = c.alpha.alpha
    rho = c.action.matrices
    for a in range(h.dim):
        lhs = rho[a] @ A
        rhs = A @ _transport_operator(c, a)
        rep.compare(
            f"compatibility at basis {a}", lhs, rhs,
            row_dims=(c.dim,), col_dims=(h.dim, c.dim),
        )
    return rep


def check_ayd_module(n: AydModuleData) -> Report:
    """Twisted compatibility rho(x.h) = S(h_(3)) x_(-1) h_(1) (x) x_(0).h_(2)."""
    mod = check_module(n.action)
    if not mod.ok:
        raise PrerequisiteFailed(f"action fails {mod.failures()[0].name}")
    com = check_comodule(n.coaction)
    if not com.ok:
        raise PrerequisiteFailed(f"coaction fails {com.failures()[0].name}")
    rep = Report("module-side compatibility")
    rep.note("ayd-twisted-condition")
    h = n.hopf
    F = h.field
    dn = n.dim
    act = n.action.matrices
    rho = n.coaction.coaction
    R = h.right_mult()
    for a in range(h.dim):
        lhs = rho @ act[a]
        rhs = combine(F, h.dim * dn, dn,
                      [(coeff, kron(h.mult_by(h.antipode_of(d), "left") @ R[b], act[mid]) @ rho)
                       for ((b, mid, d), coeff) in h.comul_terms(2)[a]])
        rep.compare(
            f"compatibility at basis {a}", lhs, rhs,
            row_dims=(h.dim, dn), col_dims=(dn,),
        )
    return rep


def check_stability(c) -> Report:
    """Stability: evaluating the structure map on the orbit map is the identity.

    For coefficients this is alpha(h -> h.m) = m (left module side) or
    alpha(h -> m.h) = m (right side); for module-side data it is
    x_(0).x_(-1) = x.
    """
    rep = Report("stability")
    F = c.field
    if isinstance(c, AydCoefficient):
        A = c.alpha.alpha
        orbit = vstack(c.action.matrices)
        rep.compare("structure map fixes orbit maps", A @ orbit,
                    Matrix.identity(F, c.dim), col_dims=(c.dim,))
    elif isinstance(c, AydModuleData):
        h = c.hopf
        d, dn = h.dim, c.dim
        act = c.action.matrices
        # evaluate N (x) H -> N with the right action, after swapping the coaction
        flat = Matrix.from_entries(F, dn, dn * d, [
            (i, y * d + a, v) for a in range(d) for (i, y, v) in act[a].nonzero_entries()])
        swap = tensor_permutation(F, (d, dn), (1, 0))
        rep.compare("coaction followed by action is the identity",
                    flat @ swap @ c.coaction.coaction,
                    Matrix.identity(F, dn), col_dims=(dn,))
    else:
        raise ShapeMismatch(f"cannot check stability of {type(c).__name__}")
    return rep


def dualize_ayd_module(n: AydModuleData) -> AydCoefficient:
    """Dual coefficient on the linear dual space: the right action transposes
    to a left action and the left coaction becomes a right contramodule map.
    The input must pass its compatibility check."""
    compat = check_ayd_module(n)
    if not compat.ok:
        bad = compat.failures()[0]
        raise PrerequisiteFailed(f"module-side data fails {bad.name}: {bad.witness}")
    h = n.hopf
    action = ModuleRep(h, "left", [m.transpose() for m in n.action.matrices])
    alpha = dualize_comodule(n.coaction)
    return AydCoefficient(h, AydFlavour.from_code("lr"), action, alpha)


def build_trivial_coefficient(h: HopfData, flavour: AydFlavour) -> AydCoefficient:
    """One dimensional coefficient: the counit action and evaluation at 1."""
    alpha = ContraRep(h.coalgebra, flavour.contra_side, h.unit.transpose())
    return AydCoefficient(h, flavour, counit_module(h, flavour.module_side), alpha)


def one_dim_coefficient(h: HopfData, flavour: AydFlavour,
                        character, alpha_row) -> AydCoefficient:
    """One dimensional coefficient from a character and an evaluation row.

    character[a] is the scalar through which basis element a acts; alpha_row[a]
    is the value of alpha on the elementary map sending e_a to 1.
    """
    F = h.field
    action = ModuleRep(h, flavour.module_side,
                       [Matrix.from_rows(F, [[F.coerce(v)]]) for v in character])
    alpha = ContraRep(h.coalgebra, flavour.contra_side,
                      Matrix.from_rows(F, [[F.coerce(v) for v in alpha_row]]))
    return AydCoefficient(h, flavour, action, alpha)


def ensure_coefficient_checked(c: AydCoefficient, need_stable=True):
    """Run the coefficient checks and gate on the outcome."""
    if not check_ayd_compatibility(c).ok:
        raise PrerequisiteFailed("coefficient fails its flavour compatibility check")
    if need_stable and not check_stability(c).ok:
        raise PrerequisiteFailed(
            "coefficient is not stable; pass allow_unstable to proceed anyway")
