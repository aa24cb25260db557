"""Modules, comodules and contramodules as explicit matrix data.

A module is a list of action matrices, one per basis element of the acting
algebra.  A comodule is a single coaction matrix.  A contramodule structure
on M over a coalgebra C is a matrix alpha: Hom(C, M) -> M, where Hom(C, M)
carries the flat index c*dim(M) + m.

Left contramodules are checked as right contramodules over the co-opposite
coalgebra, which is the same axiom after rewiring the currying step.
"""

from __future__ import annotations

from .errors import InvalidComodule, ShapeMismatch
from .exactla import Matrix, combine, kron
from .hopf import CoalgebraData, HopfData
from .report import Report

_SIDES = ("left", "right")


def _check_side(side):
    if side not in _SIDES:
        raise ShapeMismatch(f"side must be 'left' or 'right', got {side!r}")


class ModuleRep:
    """Module over the algebra part of a Hopf algebra.

    matrices[a] is the operator of the basis element a; for a right module it
    is the operator of acting by a on the right, so composition reverses.
    """

    __slots__ = ("hopf", "side", "matrices", "dim")

    def __init__(self, hopf: HopfData, side: str, matrices):
        _check_side(side)
        if len(matrices) != hopf.dim:
            raise ShapeMismatch("need one action matrix per basis element")
        dim = matrices[0].rows if matrices else 0
        for m in matrices:
            if m.shape != (dim, dim):
                raise ShapeMismatch("action matrices must be square of equal size")
            if m.field != hopf.field:
                raise ShapeMismatch("action matrices live over the wrong field")
        self.hopf = hopf
        self.side = side
        self.matrices = list(matrices)
        self.dim = dim

    @property
    def field(self):
        return self.hopf.field


def counit_module(h: HopfData, side: str) -> ModuleRep:
    """The ground field as a module on which each basis element acts by its
    counit."""
    return ModuleRep(h, side, [Matrix.from_rows(h.field, [[h.counit.entry(0, a)]])
                               for a in range(h.dim)])


class ComoduleRep:
    """Comodule over the coalgebra part; rho is C (x) N valued on the left
    side and N (x) C valued on the right side."""

    __slots__ = ("hopf", "side", "coaction", "dim")

    def __init__(self, hopf: HopfData, side: str, coaction: Matrix):
        _check_side(side)
        d = hopf.dim
        if coaction.cols == 0:
            dim = 0
            if coaction.rows != 0:
                raise ShapeMismatch("coaction on the zero space must be empty")
        else:
            dim, rem = divmod(coaction.rows, d)
            if rem or coaction.cols != dim:
                raise ShapeMismatch(f"coaction shape {coaction.shape} is not {d}*n x n")
        if coaction.field != hopf.field:
            raise ShapeMismatch("coaction lives over the wrong field")
        self.hopf = hopf
        self.side = side
        self.coaction = coaction
        self.dim = dim

    @property
    def field(self):
        return self.hopf.field


class ContraRep:
    """Contramodule over a coalgebra: alpha sends Hom(C, M) to M."""

    __slots__ = ("coalgebra", "side", "alpha", "dim")

    def __init__(self, coalgebra: CoalgebraData, side: str, alpha: Matrix):
        _check_side(side)
        d = coalgebra.dim
        dim = alpha.rows
        if alpha.cols != d * dim:
            raise ShapeMismatch(f"alpha must be {dim}x{d * dim}, got {alpha.shape}")
        if alpha.field != coalgebra.field:
            raise ShapeMismatch("alpha lives over the wrong field")
        self.coalgebra = coalgebra
        self.side = side
        self.alpha = alpha
        self.dim = dim

    @property
    def field(self):
        return self.coalgebra.field


def check_module(r: ModuleRep) -> Report:
    """Associativity and unitality of a module structure."""
    rep = Report(f"{r.side} module")
    F = r.field
    h = r.hopf
    d = h.dim
    mats = r.matrices
    unit = h.unit
    ident = Matrix.identity(F, r.dim)
    terms_of = h.algebra.mul
    for a in range(d):
        for b in range(d):
            combo = combine(F, r.dim, r.dim, zip(terms_of.col(a * d + b), mats))
            if r.side == "left":
                lhs = mats[a] @ mats[b]
            else:
                lhs = mats[b] @ mats[a]
            rep.compare(f"associativity at basis pair ({a},{b})", lhs, combo)
    acted = combine(F, r.dim, r.dim, zip(unit.col(0), mats))
    rep.compare("unit acts as identity", acted, ident)
    return rep


def check_comodule(r: ComoduleRep) -> Report:
    """Coassociativity and counitality of a comodule structure."""
    rep = Report(f"{r.side} comodule")
    F = r.field
    h = r.hopf
    d, n = h.dim, r.dim
    rho = r.coaction
    I_n = Matrix.identity(F, n)
    if r.side == "left":
        lhs = kron(h.comul, I_n) @ rho
        rhs = kron(Matrix.identity(F, d), rho) @ rho
        rep.compare("coassociativity", lhs, rhs, row_dims=(d, d, n), col_dims=(n,))
        rep.compare("counit law", kron(h.counit, I_n) @ rho, I_n, col_dims=(n,))
    else:
        lhs = kron(I_n, h.comul) @ rho
        rhs = kron(rho, Matrix.identity(F, d)) @ rho
        rep.compare("coassociativity", lhs, rhs, row_dims=(n, d, d), col_dims=(n,))
        rep.compare("counit law", kron(I_n, h.counit) @ rho, I_n, col_dims=(n,))
    return rep


def check_contramodule(m: ContraRep) -> Report:
    """Contraassociativity and counit law.

    Right side: alpha . Hom(C, alpha) = alpha . Hom(comul, M) after currying.
    Left side: the same diagrams over the co-opposite coalgebra.
    """
    rep = Report(f"{m.side} contramodule")
    rep.note("theta-convention")
    F = m.field
    C = m.coalgebra if m.side == "right" else m.coalgebra.co_opposite()
    d, dm = C.dim, m.dim
    A = m.alpha
    I_m = Matrix.identity(F, dm)
    I_c = Matrix.identity(F, d)
    # Hom(C, alpha): postcompose alpha inside Hom(C, Hom(C, M))
    inner = kron(I_c, A)
    # Hom(C, Hom(C, M)) and Hom(C (x) C, M) share coordinates, so uncurrying
    # is the identity; then precompose comul
    outer = kron(C.comul.transpose(), I_m)
    rep.compare(
        "contraassociativity", A @ inner, A @ outer,
        row_dims=(dm,), col_dims=(d, d, dm),
    )
    rep.compare(
        "counit law", A @ kron(C.counit.transpose(), I_m), I_m,
        col_dims=(dm,),
    )
    return rep


def dualize_comodule(n: ComoduleRep) -> ContraRep:
    """Linear dual of a comodule, carried as a contramodule on the dual space.

    A left comodule dualizes to a right contramodule and vice versa.  The
    coaction must satisfy its axioms; otherwise InvalidComodule is raised.
    """
    check = check_comodule(n)
    if not check.ok:
        bad = check.failures()[0]
        raise InvalidComodule(f"coaction fails {bad.name}: {bad.witness}")
    h = n.hopf
    F, d, dn = n.field, h.dim, n.dim
    coalgebra = h.coalgebra
    # alpha(f)(x) = sum over rho(x) = c (x) y, or y (x) c on the right, of f(c)(y)
    left = n.side == "left"
    entries = []
    for (row, x, coeff) in n.coaction.nonzero_entries():
        if left:
            c, y = divmod(row, dn)
        else:
            y, c = divmod(row, d)
        entries.append((x, c * dn + y, coeff))
    alpha = Matrix.from_entries(F, dn, d * dn, entries)
    return ContraRep(coalgebra, "right" if left else "left", alpha)
