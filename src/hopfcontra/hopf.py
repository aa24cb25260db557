"""Hopf algebra data as exact structure-constant matrices.

Multiplication is a matrix mul: H (x) H -> H with mul[k, i*dim + j] the
coefficient of e_k in e_i e_j; comultiplication is comul: H -> H (x) H with
comul[j*dim + k, i] the coefficient of e_j (x) e_k in the coproduct of e_i.
Unit is a column, counit a row, antipode and its inverse square matrices.

Structure constants enter as sparse triples (i, j, k, scalar), and the
scalars given at a repeated triple add up; how the structure matrices are
stored is `exactla`'s business.  Iterated coproducts are kept only as sparse
terms (`comul_terms`), each one expanding the first leg of the one before;
they, the one-sided multiplication operators and the axiom report are cached
on the object after first use.  The algebra and coalgebra law verdicts are
written once (`compare_algebra_laws`, `compare_coalgebra_laws`) and shared
with the module (co)algebra checks.
"""

from __future__ import annotations

from .errors import CharacteristicClash, ShapeMismatch, UnknownName
from .exactla import (FieldSpec, Matrix, combine, inverse, kron, sparse_vector,
                      tensor_permutation)
from .report import Report


class CoalgebraData:
    """Finite dimensional coalgebra: comultiplication matrix plus counit row."""

    __slots__ = ("field", "dim", "comul", "counit", "_cache")

    def __init__(self, field: FieldSpec, dim: int, comul: Matrix, counit: Matrix):
        if comul.shape != (dim * dim, dim):
            raise ShapeMismatch(f"comultiplication must be {dim * dim}x{dim}, got {comul.shape}")
        if counit.shape != (1, dim):
            raise ShapeMismatch(f"counit must be 1x{dim}, got {counit.shape}")
        if comul.field != field or counit.field != field:
            raise ShapeMismatch("coalgebra pieces disagree on the scalar field")
        self.field = field
        self.dim = dim
        self.comul = comul
        self.counit = counit
        self._cache = {}

    @classmethod
    def from_triples(cls, field, dim, comul_triples, counit_values):
        comul = Matrix.from_entries(
            field, dim * dim, dim,
            [(j * dim + k, i, c) for (i, j, k, c) in comul_triples],
        )
        counit = Matrix.from_rows(field, [list(counit_values)])
        return cls(field, dim, comul, counit)

    def co_opposite(self):
        """Same underlying space with the two output legs of comul swapped."""
        if "cop" not in self._cache:
            swap = tensor_permutation(self.field, (self.dim, self.dim), (1, 0))
            self._cache["cop"] = CoalgebraData(self.field, self.dim, swap @ self.comul, self.counit)
        return self._cache["cop"]


class AlgebraData:
    """Finite dimensional unital algebra: multiplication matrix plus unit column."""

    __slots__ = ("field", "dim", "mul", "unit", "_cache")

    def __init__(self, field: FieldSpec, dim: int, mul: Matrix, unit: Matrix):
        if mul.shape != (dim, dim * dim):
            raise ShapeMismatch(f"multiplication must be {dim}x{dim * dim}, got {mul.shape}")
        if unit.shape != (dim, 1):
            raise ShapeMismatch(f"unit must be {dim}x1, got {unit.shape}")
        if mul.field != field or unit.field != field:
            raise ShapeMismatch("algebra pieces disagree on the scalar field")
        self.field = field
        self.dim = dim
        self.mul = mul
        self.unit = unit
        self._cache = {}

    @classmethod
    def from_triples(cls, field, dim, mul_triples, unit_values):
        mul = Matrix.from_entries(
            field, dim, dim * dim,
            [(k, i * dim + j, c) for (i, j, k, c) in mul_triples],
        )
        unit = Matrix.from_rows(field, [[v] for v in unit_values])
        return cls(field, dim, mul, unit)

    def left_mult(self):
        """Operators L_i of left multiplication by each basis element."""
        return self._mult_ops("left")

    def right_mult(self):
        """Operators R_j of right multiplication by each basis element."""
        return self._mult_ops("right")

    def _mult_ops(self, side):
        if side not in self._cache:
            d = self.dim
            entries = [[] for _ in range(d)]
            for k, col, c in self.mul.nonzero_entries():
                i, j = divmod(col, d)
                if side == "left":
                    entries[i].append((k, j, c))
                else:
                    entries[j].append((k, i, c))
            self._cache[side] = [Matrix.from_entries(self.field, d, d, e) for e in entries]
        return self._cache[side]

    def mult_by(self, coords, side):
        """Multiplication operator by the element with the given coordinates."""
        ops = self.left_mult() if side == "left" else self.right_mult()
        return combine(self.field, self.dim, self.dim, zip(coords, ops))


class HopfData:
    """Hopf algebra: compatible algebra and coalgebra plus an antipode pair."""

    __slots__ = ("field", "dim", "algebra", "coalgebra", "antipode", "antipode_inv", "_cache")

    def __init__(self, algebra: AlgebraData, coalgebra: CoalgebraData,
                 antipode: Matrix, antipode_inv: Matrix | None = None):
        if algebra.dim != coalgebra.dim:
            raise ShapeMismatch("algebra and coalgebra dimensions differ")
        if algebra.field != coalgebra.field:
            raise ShapeMismatch("algebra and coalgebra fields differ")
        dim = algebra.dim
        if antipode.shape != (dim, dim):
            raise ShapeMismatch(f"antipode must be {dim}x{dim}, got {antipode.shape}")
        if antipode_inv is None:
            # raises Singular when the antipode is not bijective
            antipode_inv = inverse(antipode)
        if antipode_inv.shape != (dim, dim):
            raise ShapeMismatch(f"antipode inverse must be {dim}x{dim}")
        self.field = algebra.field
        self.dim = dim
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.antipode = antipode
        self.antipode_inv = antipode_inv
        self._cache = {}

    # Short handles for the structure matrices, used all over the package.
    @property
    def mul(self):
        return self.algebra.mul

    @property
    def unit(self):
        return self.algebra.unit

    @property
    def comul(self):
        return self.coalgebra.comul

    @property
    def counit(self):
        return self.coalgebra.counit

    def left_mult(self):
        return self.algebra.left_mult()

    def right_mult(self):
        return self.algebra.right_mult()

    def mult_by(self, coords, side):
        return self.algebra.mult_by(coords, side)

    def comul_terms(self, k=1):
        """Per basis index, the sparse terms of the k-fold coproduct
        H -> H^(x)(k+1) as [(index tuple of length k+1, scalar)], sorted by
        index tuple; k = 0 is the identity, k = 1 is read off comul, and each
        further k expands the first leg of the (k-1)-fold terms by comul."""
        key = ("terms", k)
        if key not in self._cache:
            if k < 0:
                raise ValueError("negative coproduct iteration")
            F = self.field
            if k == 0:
                terms = [[((i,), F.one)] for i in range(self.dim)]
            elif k == 1:
                terms = [[] for _ in range(self.dim)]
                for row, i, c in self.comul.nonzero_entries():
                    terms[i].append((divmod(row, self.dim), c))
            else:
                first = self.comul_terms(1)
                terms = []
                for prev in self.comul_terms(k - 1):
                    acc = {}
                    for idx, c in prev:
                        for head, c2 in first[idx[0]]:
                            legs = head + idx[1:]
                            acc[legs] = acc.get(legs, 0) + c * c2
                    terms.append(sorted(sparse_vector(F, acc).items()))
            self._cache[key] = terms
        return self._cache[key]

    def antipode_of(self, j):
        """Coordinates of the antipode applied to basis element j."""
        return self.antipode.col(j)

    def antipode_inv_of(self, j):
        return self.antipode_inv.col(j)


def compare_algebra_laws(rep: Report, a: AlgebraData):
    """Add the associativity and unit verdicts of an algebra to rep."""
    d = a.dim
    I = Matrix.identity(a.field, d)
    mul, unit = a.mul, a.unit
    rep.compare(
        "algebra associativity",
        mul @ kron(mul, I), mul @ kron(I, mul),
        row_dims=(d,), col_dims=(d, d, d),
    )
    rep.compare("algebra left unit", mul @ kron(unit, I), I, col_dims=(d,))
    rep.compare("algebra right unit", mul @ kron(I, unit), I, col_dims=(d,))


def compare_coalgebra_laws(rep: Report, c: CoalgebraData):
    """Add the coassociativity and counit verdicts of a coalgebra to rep."""
    d = c.dim
    I = Matrix.identity(c.field, d)
    com, eps = c.comul, c.counit
    rep.compare(
        "coalgebra coassociativity",
        kron(com, I) @ com, kron(I, com) @ com,
        row_dims=(d, d, d), col_dims=(d,),
    )
    rep.compare("coalgebra left counit", kron(eps, I) @ com, I, col_dims=(d,))
    rep.compare("coalgebra right counit", kron(I, eps) @ com, I, col_dims=(d,))


def check_hopf_axioms(h: HopfData) -> Report:
    """Verify every Hopf axiom, including the co-opposite axiom for the
    declared antipode inverse.  Each verdict carries a witness on failure.
    The report is cached on h; callers copy its verdicts, never change it."""
    if "axioms" in h._cache:
        return h._cache["axioms"]
    rep = Report("hopf axioms")
    F = h.field
    d = h.dim
    I = Matrix.identity(F, d)
    mul, unit, com, eps = h.mul, h.unit, h.comul, h.counit
    S, Sinv = h.antipode, h.antipode_inv

    compare_algebra_laws(rep, h.algebra)
    compare_coalgebra_laws(rep, h.coalgebra)

    # Bialgebra: comul and counit are algebra maps.
    # Delta(e_i) Delta(e_j), written from the terms and the columns of mul
    terms = h.comul_terms(1)
    prods = mul.sparse_columns()
    products = Matrix.from_entries(F, d * d, d * d, [
        (k * d + l, i * d + j, v * w * x * y)
        for i in range(d) for j in range(d)
        for ((a, b), v) in terms[i] for ((c, e), w) in terms[j]
        for k, x in prods[a * d + c].items() for l, y in prods[b * d + e].items()])
    rep.compare(
        "comultiplication multiplicative", com @ mul, products,
        row_dims=(d, d), col_dims=(d, d),
    )
    rep.compare("counit multiplicative", eps @ mul, kron(eps, eps), col_dims=(d, d))
    rep.compare("comultiplication preserves unit", com @ unit, kron(unit, unit), row_dims=(d, d))
    one = Matrix.from_rows(F, [[F.one]])
    rep.compare("counit preserves unit", eps @ unit, one)

    target = unit @ eps
    rep.compare("antipode left", mul @ kron(S, I) @ com, target, col_dims=(d,))
    rep.compare("antipode right", mul @ kron(I, S) @ com, target, col_dims=(d,))

    rep.compare("antipode inverse left composite", Sinv @ S, I, col_dims=(d,))
    rep.compare("antipode inverse right composite", S @ Sinv, I, col_dims=(d,))

    # The inverse is the antipode of the co-opposite coalgebra structure.
    com_op = h.coalgebra.co_opposite().comul
    rep.compare("co-opposite antipode left", mul @ kron(Sinv, I) @ com_op, target, col_dims=(d,))
    rep.compare("co-opposite antipode right", mul @ kron(I, Sinv) @ com_op, target, col_dims=(d,))
    h._cache["axioms"] = rep
    return rep


def _group_algebra(field, elems, mult, inv):
    """Hopf structure of a finite group algebra given by a multiplication table."""
    index = {g: i for i, g in enumerate(elems)}
    d = len(elems)
    one = field.one
    mul_triples = [(i, j, index[mult(a, b)], one)
                   for i, a in enumerate(elems) for j, b in enumerate(elems)]
    unit = [one if i == index[elems[0]] else field.zero for i in range(d)]
    comul_triples = [(i, i, i, one) for i in range(d)]
    counit = [one] * d
    algebra = AlgebraData.from_triples(field, d, mul_triples, unit)
    coalgebra = CoalgebraData.from_triples(field, d, comul_triples, counit)
    antipode = Matrix.from_entries(field, d, d, [(index[inv(g)], i, one) for i, g in enumerate(elems)])
    return HopfData(algebra, coalgebra, antipode, antipode)


def build_named_example(name: str, field: FieldSpec) -> HopfData:
    """Construct one of the bundled Hopf algebras over the given field.

    Names: trivial, group_C2, group_C3, sweedler_H4.  The four dimensional
    example needs 2 to be invertible, so it refuses characteristic 2.
    """
    one = field.one
    if name == "trivial":
        algebra = AlgebraData.from_triples(field, 1, [(0, 0, 0, one)], [one])
        coalgebra = CoalgebraData.from_triples(field, 1, [(0, 0, 0, one)], [one])
        ident = Matrix.identity(field, 1)
        return HopfData(algebra, coalgebra, ident, ident)
    if name == "group_C2":
        return _group_algebra(field, [0, 1], lambda a, b: (a + b) % 2, lambda a: (-a) % 2)
    if name == "group_C3":
        return _group_algebra(field, [0, 1, 2], lambda a, b: (a + b) % 3, lambda a: (-a) % 3)
    if name == "sweedler_H4":
        if field.characteristic == 2:
            raise CharacteristicClash("the four dimensional example degenerates in characteristic 2")
        minus = field.coerce(-1)
        # basis 0:1, 1:g, 2:x, 3:gx with g^2 = 1, x^2 = 0, x g = -g x
        mul_triples = [
            (0, 0, 0, one), (0, 1, 1, one), (0, 2, 2, one), (0, 3, 3, one),
            (1, 0, 1, one), (1, 1, 0, one), (1, 2, 3, one), (1, 3, 2, one),
            (2, 0, 2, one), (2, 1, 3, minus),
            (3, 0, 3, one), (3, 1, 2, minus),
        ]
        unit = [one, field.zero, field.zero, field.zero]
        comul_triples = [
            (0, 0, 0, one),
            (1, 1, 1, one),
            (2, 2, 0, one), (2, 1, 2, one),
            (3, 3, 1, one), (3, 0, 3, one),
        ]
        counit = [one, one, field.zero, field.zero]
        antipode = Matrix.from_entries(
            field, 4, 4,
            [(0, 0, one), (1, 1, one), (3, 2, minus), (2, 3, one)],
        )
        algebra = AlgebraData.from_triples(field, 4, mul_triples, unit)
        coalgebra = CoalgebraData.from_triples(field, 4, comul_triples, counit)
        return HopfData(algebra, coalgebra, antipode)
    raise UnknownName(f"no bundled hopf algebra named {name!r}")
