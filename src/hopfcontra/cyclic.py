"""Equivariant hom complexes with contramodule coefficients.

Two shapes are built over a Hopf algebra H with coefficient space M:

* cyclic: C_n = Hom_H(C^(x)(n+1), M) for a module coalgebra C, with faces
  lowering n, degeneracies raising n, and a cyclic operator of order n+1;
* cocyclic: C^n = Hom_H(A^(x)(n+1), M) for a module algebra A, with the
  arrows reversed.

Tensor powers carry the diagonal action.  An equivariant basis is never a
dense matrix: it is the list of sparse kernel columns `exactla.sparse_kernel`
returns, the identity on its free coordinates.  No operator is built on the
full hom space: each is a structure-map precomposition or the contramodule
map routed through a rotation of the tensor legs, applied to the sparse
columns of the equivariant basis it starts from.  The images are checked
against the target basis and read off at its free coordinates, so a
restriction that fails to close raises NotEquivariant rather than silently
projecting.  Matrices are read only through `exactla`'s sparse views.
Every Hochschild and Connes table is read off ranks of one chain complex,
the transpose of a cocyclic one (`homology_dims`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice

from .ayd import AydCoefficient, AydFlavour, ensure_coefficient_checked
from .errors import (CharacteristicUnsupported, CompositionNotZero,
                     DimensionCapExceeded, NotEquivariant, PrerequisiteFailed,
                     ShapeMismatch, ValidationError)
from .exactla import (Matrix, combine, hstack, kron, rank_of, sparse_kernel,
                      sparse_quotient, sparse_vector, vstack)
from .hopf import (AlgebraData, CoalgebraData, HopfData, compare_algebra_laws,
                   compare_coalgebra_laws)
from .report import Report
from .reps import ModuleRep, check_module, counit_module

DEFAULT_DIM_CAP = 20000
MODES = ("hochschild", "connes")


def dim_cap():
    """The cap on ambient dimensions: HOPFCONTRA_DIM_CAP, a positive integer,
    or DEFAULT_DIM_CAP when the variable is unset or empty."""
    raw = os.environ.get("HOPFCONTRA_DIM_CAP")
    if not raw:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValidationError(f"must be a positive integer, got {raw!r}",
                              path="HOPFCONTRA_DIM_CAP")
    return cap


class ModuleCoalgebraData:
    """Coalgebra C with a left H-action by coalgebra maps."""

    __slots__ = ("coalgebra", "action")

    def __init__(self, coalgebra: CoalgebraData, action: ModuleRep):
        if action.side != "left":
            raise ShapeMismatch("module coalgebras act on the left here")
        if action.dim != coalgebra.dim:
            raise ShapeMismatch("action matrices do not fit the coalgebra")
        self.coalgebra = coalgebra
        self.action = action

    @property
    def hopf(self):
        return self.action.hopf

    @property
    def dim(self):
        return self.coalgebra.dim


class ModuleAlgebraData:
    """Algebra A with a left H-action by two-factor compatible maps."""

    __slots__ = ("algebra", "action")

    def __init__(self, algebra: AlgebraData, action: ModuleRep):
        if action.side != "left":
            raise ShapeMismatch("module algebras act on the left here")
        if action.dim != algebra.dim:
            raise ShapeMismatch("action matrices do not fit the algebra")
        self.algebra = algebra
        self.action = action

    @property
    def hopf(self):
        return self.action.hopf

    @property
    def dim(self):
        return self.algebra.dim


def build_named_module_coalgebra(name: str, h: HopfData) -> ModuleCoalgebraData:
    """'regular' is H itself under left multiplication; 'trivial' is the
    one dimensional coalgebra with the counit action."""
    if name == "regular":
        action = ModuleRep(h, "left", h.left_mult())
        return ModuleCoalgebraData(h.coalgebra, action)
    if name == "trivial":
        one = h.field.one
        coalgebra = CoalgebraData.from_triples(h.field, 1, [(0, 0, 0, one)], [one])
        return ModuleCoalgebraData(coalgebra, counit_module(h, "left"))
    from .errors import UnknownName
    raise UnknownName(f"no bundled module coalgebra named {name!r}")


def build_named_module_algebra(name: str, h: HopfData) -> ModuleAlgebraData:
    """'trivial' is the ground field with the counit action; 'adjoint' is H
    itself with h.a = h_(1) a S(h_(2))."""
    F = h.field
    one = F.one
    if name == "trivial":
        algebra = AlgebraData.from_triples(F, 1, [(0, 0, 0, one)], [one])
        return ModuleAlgebraData(algebra, counit_module(h, "left"))
    if name == "adjoint":
        L = h.left_mult()
        mats = [combine(F, h.dim, h.dim,
                        [(coeff, L[b] @ h.mult_by(h.antipode_of(c), "right"))
                         for ((b, c), coeff) in terms])
                for terms in h.comul_terms(1)]
        return ModuleAlgebraData(h.algebra, ModuleRep(h, "left", mats))
    from .errors import UnknownName
    raise UnknownName(f"no bundled module algebra named {name!r}")


def check_module_coalgebra(c: ModuleCoalgebraData) -> Report:
    """Module axioms plus: the action commutes with comul and counit."""
    rep = Report("module coalgebra")
    rep.extend(check_module(c.action))
    F = c.action.field
    h = c.hopf
    dx = c.dim
    com, eps = c.coalgebra.comul, c.coalgebra.counit
    act = c.action.matrices
    compare_coalgebra_laws(rep, c.coalgebra)
    for a in range(h.dim):
        diag = _diagonal_square(F, dx, act, h.comul_terms(1)[a])
        rep.compare(f"action commutes with comultiplication at basis {a}",
                    com @ act[a], diag @ com, row_dims=(dx, dx), col_dims=(dx,))
        rep.compare(f"action commutes with counit at basis {a}",
                    eps @ act[a], eps.scale(h.counit.entry(0, a)), col_dims=(dx,))
    return rep


def check_module_algebra(a: ModuleAlgebraData) -> Report:
    """Module axioms plus: h.(b b') = (h_(1).b)(h_(2).b') and h.1 = eps(h) 1."""
    rep = Report("module algebra")
    rep.note("module-algebra-two-factors")
    rep.extend(check_module(a.action))
    F = a.action.field
    h = a.hopf
    da = a.dim
    mul, unit = a.algebra.mul, a.algebra.unit
    act = a.action.matrices
    compare_algebra_laws(rep, a.algebra)
    for t in range(h.dim):
        diag = _diagonal_square(F, da, act, h.comul_terms(1)[t])
        rep.compare(f"action respects products at basis {t}",
                    act[t] @ mul, mul @ diag, row_dims=(da,), col_dims=(da, da))
        rep.compare(f"action respects unit at basis {t}",
                    act[t] @ unit, unit.scale(h.counit.entry(0, t)), row_dims=(da,))
    return rep


def _diagonal_square(field, dim, act, terms):
    """The diagonal action h_(1) (x) h_(2) on the tensor square, from the
    coproduct terms [((b, c), scalar)] of h."""
    return combine(field, dim * dim, dim * dim,
                   [(coeff, kron(act[b], act[c])) for ((b, c), coeff) in terms])


def diagonal_power(action: ModuleRep, k: int):
    """Diagonal action on the k-th tensor power; k = 0 is the counit action.

    Returns one list per Hopf basis element a: entry j is column j of the
    operator of a on X^(x)k, as a {row: scalar} dict of its nonzero entries.
    The power is built by the coproduct, one tensor leg at a time.
    """
    h = action.hopf
    F = action.field
    if k == 0:
        return [[col] for col in h.counit.sparse_columns()]
    first = [m.sparse_columns() for m in action.matrices]
    cur = first
    terms = h.comul_terms(1)
    for _ in range(k - 1):
        size = len(cur[0])
        nxt = []
        for a in range(h.dim):
            cols = [{} for _ in range(action.dim * size)]
            for ((b, c), coeff) in terms[a]:
                for j1, col1 in enumerate(first[b]):
                    for j2, col2 in enumerate(cur[c]):
                        out = cols[j1 * size + j2]
                        for i1, v1 in col1.items():
                            base, v1 = i1 * size, coeff * v1
                            for i2, v2 in col2.items():
                                out[base + i2] = out.get(base + i2, 0) + v1 * v2
            nxt.append([sparse_vector(F, col) for col in cols])
        cur = nxt
    return cur


@dataclass(frozen=True)
class EquivariantBasis:
    """Basis of the H-linear maps inside Hom(X, M) at one degree.

    `columns` are the basis vectors of k^ambient as sparse {coordinate:
    scalar} dicts, from `sparse_kernel`; the basis is the identity on the
    ambient coordinates `free`.
    """

    ambient: int
    free: tuple
    columns: tuple

    @property
    def dim(self):
        return len(self.free)


def _check_cap(ambient):
    cap = dim_cap()
    if ambient > cap:
        raise DimensionCapExceeded(
            f"hom space dimension {ambient} exceeds the cap {cap}")


def equivariant_hom_basis(x: ModuleRep, m: AydCoefficient, n: int) -> EquivariantBasis:
    """Basis of Hom_H(X^(x)(n+1), M), from one reduced echelon pass.

    For every Hopf basis element a, the map f (flat coordinate j*dim M + i
    holds f[i][j]) must satisfy f D_a = A_a f, where D_a acts diagonally on
    X^(x)(n+1) and A_a on M.  Constraint row (j, i) of
    kron(D_a^T, I_M) - kron(I_X, A_a) is written straight from the sparse
    columns of D_a and the entries of A_a.  The coefficient is not checked
    here: the builders gate on it first.
    """
    if x.side != "left" or m.flavour.module_side != "left":
        raise ShapeMismatch("equivariance here means left-linear maps")
    _check_cap(x.dim ** (n + 1) * m.dim)
    F = x.field
    dM = m.dim
    power = diagonal_power(x, n + 1)
    dX = len(power[0])
    rows = []
    for cols, act in zip(power, m.action.matrices):
        arows = act.sparse_rows()
        for j, col in enumerate(cols):
            for i, arow in enumerate(arows):
                row = {k * dM + i: v for k, v in col.items()}
                for l, w in arow.items():
                    row[j * dM + l] = row.get(j * dM + l, 0) - w
                row = sparse_vector(F, row)
                if row:
                    rows.append(row)
    _, free, columns = sparse_kernel(F, rows, dX * dM)
    return EquivariantBasis(dX * dM, tuple(free), tuple(columns))


def _restrict(field, operator, degree, images, dst: EquivariantBasis) -> Matrix:
    """Sparse images of src's basis columns, re-expressed in dst's basis.

    dst's basis is the identity on its free coordinates, so an image y can
    only be the combination of dst's columns with y's entries at the free
    coordinates as coefficients.  It lies in dst's subspace exactly when
    that combination agrees with y at the other coordinates too, so the
    check visits only y's nonzero entries, and those free entries are y's
    coordinates in dst's basis.
    """
    index = {c: r for r, c in enumerate(dst.free)}
    entries = []
    for k, y in enumerate(images):
        residue = {c: v for c, v in y.items() if c not in index}
        for f, v in y.items():
            if f in index:
                entries.append((index[f], k, v))
                for c, w in dst.columns[index[f]].items():
                    if c != f:
                        residue[c] = residue.get(c, 0) - v * w
        if sparse_vector(field, residue):
            raise NotEquivariant(f"{operator} at degree {degree} does not preserve "
                                 "the equivariant subspaces", degree=degree, operator=operator)
    return Matrix.from_entries(field, dst.dim, len(images), entries)


@dataclass
class CyclicComplexData:
    """Bases and restricted operators of a (co)cyclic complex up to max_degree.

    For kind 'cyclic', faces[n][i] and cyclers[n] lower or fix the degree and
    degens[n][j] raises it; for kind 'cocyclic', faces[n][i] maps degree n-1
    to n and degens[n][j] maps n+1 to n.
    """

    kind: str
    coefficient: AydCoefficient
    max_degree: int
    bases: list
    faces: dict
    degens: dict
    cyclers: dict

    @property
    def field(self):
        return self.coefficient.field

    @property
    def dims(self):
        return [b.dim for b in self.bases]


def build_cyclic_complex(c: ModuleCoalgebraData, m: AydCoefficient,
                         max_degree: int = 3, allow_unstable: bool = False) -> CyclicComplexData:
    """Cyclic complex of a module coalgebra with a left-right coefficient."""
    return _build_complex("cyclic", "lr", c, check_module_coalgebra, c.coalgebra.comul,
                          c.coalgebra.counit, m, max_degree, allow_unstable)


def build_cocyclic_complex(a: ModuleAlgebraData, m: AydCoefficient,
                           max_degree: int = 3, allow_unstable: bool = False) -> CyclicComplexData:
    """Cocyclic complex of a module algebra with a left-left coefficient."""
    return _build_complex("cocyclic", "ll", a, check_module_algebra, a.algebra.mul,
                          a.algebra.unit, m, max_degree, allow_unstable)


def _build_complex(kind, flavour, data, check, g, e, m, N, allow_unstable):
    """The complex of `data` with structure map g (comul or mul) and e its
    counit or unit.

    No operator is built at ambient size: each one is applied to the sparse
    basis columns of its source degree.  Inner (co)faces and
    (co)degeneracies precompose with id^i (x) u (x) id^k, u being g or e.
    The (co)cyclic operator precomposes with a rotation of the tensor legs
    followed by the action, which sits on the last leg for cyclic and on the
    first for cocyclic, and then applies the contramodule map to each
    Hom(H, M) block.  The last (co)face is that operator composed with the
    0-th (co)face map.
    """
    cyclic = kind == "cyclic"
    if m.flavour.code != flavour:
        sides = AydFlavour.from_code(flavour)
        raise PrerequisiteFailed(f"{kind} complexes take {sides.module_side}-"
                                 f"{sides.contra_side} coefficients, got {m.flavour.code}")
    struct = check(data)
    if not struct.ok:
        raise PrerequisiteFailed(f"{struct.title} fails {struct.failures()[0].name}")
    ensure_coefficient_checked(m, need_stable=not allow_unstable)
    x = data.action
    F = x.field
    dx, dm = x.dim, m.dim
    # the ambient dimension grows with the degree, and stays dm when dx is 1
    for n in range(N + 1 if dx > 1 else 1):
        _check_cap(dx ** (n + 1) * dm)
    cap = dim_cap()
    if sum(1 for _ in islice(_relation_table(N), cap + 1)) > cap:
        raise DimensionCapExceeded(
            f"the {kind} relations up to degree {N} number more than the cap {cap}")
    bases = [equivariant_hom_basis(x, m, n) for n in range(N + 1)]
    prefix = "" if cyclic else "co"
    # u: X^a -> X^b as (its rows as [(column, scalar)], a, b)
    g_map = (g.sparse_rows(),) + ((1, 2) if cyclic else (2, 1))
    e_map = (e.sparse_rows(),) + ((1, 0) if cyclic else (0, 1))
    # acts[z] lists (h, y, scalar) with h.y having that scalar at z
    act_rows = [act.sparse_rows() for act in x.matrices]
    acts = [[(h, y, a) for h, rows in enumerate(act_rows) for y, a in rows[z].items()]
            for z in range(dx)]
    alpha = m.alpha.alpha.sparse_columns()

    def precompose(cols, u, i, k):
        """f -> f . (id^i (x) u (x) id^k) on sparse columns."""
        rows, a, b = u
        low = dx ** k
        high, shift = dx ** b * low, dx ** a
        out = []
        for col in cols:
            acc = {}
            for flat, v in col.items():
                j, s = divmod(flat, dm)
                pre, rest = divmod(j, high)
                mid, suf = divmod(rest, low)
                for mid2, w in rows[mid].items():
                    t = ((pre * shift + mid2) * low + suf) * dm + s
                    acc[t] = acc.get(t, 0) + v * w
            out.append(sparse_vector(F, acc))
        return out

    def turn(cols, n):
        """f -> (xi -> alpha(h -> f(w(h (x) xi)))) at degree n, where w sends
        h (x) x0..xn to x1..xn (h.x0) for cyclic and to (h.xn) x0..x(n-1)
        for cocyclic."""
        top = dx ** n
        out = []
        for col in cols:
            acc = {}
            for flat, v in col.items():
                j, s = divmod(flat, dm)
                if cyclic:
                    rest, z = divmod(j, dx)
                else:
                    z, rest = divmod(j, top)
                for h, y, a in acts[z]:
                    base = (y * top + rest if cyclic else rest * dx + y) * dm
                    va = v * a
                    for s2, c in alpha[h * dm + s].items():
                        acc[base + s2] = acc.get(base + s2, 0) + va * c
            out.append(sparse_vector(F, acc))
        return out

    def restrict(name, n, k, images):
        # cyclic operators run from degree n to k, cocyclic ones from k to n
        return _restrict(F, prefix + name, n, images, bases[k if cyclic else n])

    cols = [b.columns for b in bases]
    turned, faces, degens, cyclers = {}, {}, {}, {}
    for n in range(1, N + 1):
        src = cols[n] if cyclic else cols[n - 1]
        images = [precompose(src, g_map, i, n - 1 - i) for i in range(n)]
        if cyclic:
            turned[n] = turn(src, n)
            images.append(precompose(turned[n], g_map, 0, n - 1))
        else:
            images.append(turn(images[0], n))
        faces[n] = [restrict(f"face {i}", n, n - 1, im) for i, im in enumerate(images)]
    for n in range(N):
        src = cols[n] if cyclic else cols[n + 1]
        degens[n] = [restrict(f"degeneracy {j}", n, n + 1, precompose(src, e_map, j + 1, n - j))
                     for j in range(n + 1)]
    for n in range(N + 1):
        images = turned[n] if n in turned else turn(cols[n], n)
        cyclers[n] = restrict("cyclic operator", n, n, images)
    return CyclicComplexData(kind, m, N, bases, faces, degens, cyclers)


def _relation_table(N):
    """Every cyclic-module identity that fits in degrees 0..N, in report order.

    Yields (lhs, rhs, phrases).  A side is a word of factors (letter, index,
    degree) for d, s, t, the power t^ and id; the word is composed as written
    for a cyclic complex and read right to left for a cocyclic one, whose
    degree phrase is phrases[1].
    """
    for n in range(2, N + 1):
        for j in range(n + 1):
            for i in range(j):
                yield ([("d", i, n - 1), ("d", j, n)], [("d", j - 1, n - 1), ("d", i, n)],
                       (f"at degree {n}", f"from degree {n - 2}"))
    for n in range(N - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                yield ([("s", i, n + 1), ("s", j, n)], [("s", j + 1, n + 1), ("s", i, n)],
                       (f"at degree {n}", f"into degree {n}"))
    for n in range(N):
        at = (f"at degree {n}",) * 2
        for j in range(n + 1):
            for i in range(n + 2):
                if i < j:
                    rhs = [("s", j - 1, n - 1), ("d", i, n)]
                elif i in (j, j + 1):
                    rhs = [("id", None, n)]
                else:
                    rhs = [("s", j, n - 1), ("d", i - 1, n)]
                yield [("d", i, n + 1), ("s", j, n)], rhs, at
    for n in range(1, N + 1):
        at = (f"at degree {n}",) * 2
        yield [("d", 0, n), ("t", None, n)], [("d", n, n)], at
        for i in range(1, n + 1):
            yield [("d", i, n), ("t", None, n)], [("t", None, n - 1), ("d", i - 1, n)], at
    for n in range(N):
        at = (f"at degree {n}",) * 2
        yield ([("s", 0, n), ("t", None, n)],
               [("t", None, n + 1), ("t", None, n + 1), ("s", n, n)], at)
        for i in range(1, n + 1):
            yield [("s", i, n), ("t", None, n)], [("t", None, n + 1), ("s", i - 1, n)], at
    for n in range(N + 1):
        yield [("t^", n + 1, n)], [("id", None, n)], (f"at degree {n}",) * 2


_LETTERS = {
    "cyclic": {"d": "d", "s": "s", "t": "t", "t^": "t^", "id": "id"},
    "cocyclic": {"d": "delta", "s": "sigma", "t": "tau", "t^": "tau^", "id": "id"},
}


def verify_cyclic_relations(cx: CyclicComplexData) -> Report:
    """All simplicial, degeneracy, and cyclic-operator identities that fit
    inside the built range of degrees."""
    rep = Report(f"{cx.kind} relations")
    cyclic = cx.kind == "cyclic"
    letters = _LETTERS[cx.kind]

    def factor(letter, index, n):
        if letter == "d":
            return cx.faces[n][index]
        if letter == "s":
            return cx.degens[n][index]
        if letter == "t":
            return cx.cyclers[n]
        # t^index, with id as t^0
        out = Matrix.identity(cx.field, cx.bases[n].dim)
        for _ in range(index or 0):
            out = cx.cyclers[n] @ out
        return out

    def word(side):
        side = side if cyclic else side[::-1]
        name = " ".join(letters[l] + ("" if k is None else str(k)) for l, k, _ in side)
        ops = [factor(*f) for f in side]
        out = ops[0]
        for op in ops[1:]:
            out = out @ op
        return name, out

    for lhs, rhs, phrases in _relation_table(cx.max_degree):
        (lname, lmat), (rname, rmat) = word(lhs), word(rhs)
        rep.compare(f"{lname} = {rname} {phrases[0 if cyclic else 1]}", lmat, rmat)
    return rep


def homology_dims(cx: CyclicComplexData, mode: str = "hochschild"):
    """Homology dimensions in degrees 0 .. max_degree - 1, read off ranks.

    A cocyclic complex is read as the chain complex of its transpose, whose
    coinvariants are dual to its invariants.  With b_n the alternating face
    sum, and S_n spanned by 1 - (-1)^n t_n in mode 'connes' (characteristic
    zero only) and zero in mode 'hochschild', the homology of C / S is
    H_n = dim C_n - r(S_n) - rho_n - rho_(n+1), where rho_0 = 0 and
    rho_n = r([b_n | S_(n-1)]) - r(S_(n-1)) is the rank of b_n on C / S.
    Every b_n S_n, then every b_n b_(n+1), must lie in S_(n-1).
    """
    if mode not in MODES:
        raise ShapeMismatch(f"unknown homology mode {mode!r}")
    F = cx.field
    if mode == "connes" and F.characteristic != 0:
        raise CharacteristicUnsupported(
            "the cyclic quotient needs characteristic zero")
    N = cx.max_degree
    dims = cx.dims
    cyclic = cx.kind == "cyclic"
    b = {n: combine(F, *cx.faces[n][0].shape,
                    [((-1) ** i, op) for i, op in enumerate(cx.faces[n])])
         for n in range(1, N + 1)}
    S = {}
    if mode == "connes":
        S = {n: Matrix.from_entries(F, dims[n], dims[n], [(k, k, 1) for k in range(dims[n])] + [
            (i, j, (-1) ** (n + 1) * v) for i, j, v in cx.cyclers[n].nonzero_entries()])
            for n in range(N + 1)}
    rank_S = [rank_of(S[n]) if S else 0 for n in range(N + 1)]

    # Ranks do not see a transpose, so a cocyclic complex keeps its matrices
    # as built: products run in the opposite order and [m | S] is m over S.
    def then(x, y):
        return x @ y if cyclic else y @ x

    def added_rank(m, n):
        """r([m | S_n]) - r(S_n)"""
        return rank_of((hstack if cyclic else vstack)([m, S[n]]) if S else m) - rank_S[n]

    if S:
        descent = ("boundary does not descend to the cyclic quotient" if cyclic
                   else "coboundary leaves the invariant subcomplex")
        for n in range(1, N + 1):
            if added_rank(then(b[n], S[n]), n - 1):
                raise CompositionNotZero(f"{descent} at degree {n}", degree=n)
    for n in range(1, N):
        if added_rank(then(b[n], b[n + 1]), n - 1):
            raise CompositionNotZero(
                f"differentials do not compose to zero at degree {n}", degree=n)
    rho = [0] + [added_rank(b[n], n - 1) for n in range(1, N + 1)]
    return [dims[n] - rank_S[n] - rho[n] - rho[n + 1] for n in range(N)]


@dataclass(frozen=True)
class QuotientData:
    """A quotient of a tensor product, with projection and section."""

    ambient: int
    dim: int
    proj: Matrix
    lift: Matrix


def tensor_over_H(n, x: ModuleRep) -> QuotientData:
    """N (x)_H X for a right module N and left module X: the quotient of
    N (x) X by the span of n.h (x) xi - n (x) h.xi."""
    from .ayd import AydModuleData
    if isinstance(n, AydModuleData):
        right = n.action
    elif isinstance(n, ModuleRep):
        right = n
    else:
        raise ShapeMismatch(f"cannot tensor {type(n).__name__}")
    if right.side != "right" or x.side != "left":
        raise ShapeMismatch("tensor over H pairs a right module with a left module")
    F = x.field
    dn, dx = right.dim, x.dim
    ambient = dn * dx
    cap = dim_cap()
    if ambient > cap:
        raise DimensionCapExceeded(
            f"tensor product dimension {ambient} exceeds the cap {cap}")
    # column (i, j) of kron(R_a, I_x) - kron(I_n, X_a), written as a sparse row
    rows = []
    for r_a, x_a in zip(right.matrices, x.matrices):
        r_cols, x_cols = r_a.sparse_columns(), x_a.sparse_columns()
        for i in range(dn):
            for j in range(dx):
                row = {k * dx + j: v for k, v in r_cols[i].items()}
                for k, v in x_cols[j].items():
                    row[i * dx + k] = row.get(i * dx + k, 0) - v
                rows.append(sparse_vector(F, row))
    qdim, proj, lift = sparse_quotient(F, rows, ambient)
    return QuotientData(ambient, qdim, proj, lift)
