"""Equivariant hom complexes with contramodule coefficients.

Two shapes are built over a Hopf algebra H with coefficient space M:

* cyclic: C_n = Hom_H(C^(x)(n+1), M) for a module coalgebra C, with faces
  lowering n, degeneracies raising n, and a cyclic operator of order n+1;
* cocyclic: C^n = Hom_H(A^(x)(n+1), M) for a module algebra A, with the
  arrows reversed.

Tensor powers carry the diagonal action.  No operator is built on the full
hom space: each is a structure-map precomposition or the contramodule map
routed through a rotation of the tensor legs, applied to the sparse columns
of the equivariant basis it starts from.  The images are checked against
the target basis's echelon rows and read off at its free coordinates, so a
restriction that fails to close raises NotEquivariant rather than silently
projecting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .ayd import AydCoefficient, AydFlavour, ensure_coefficient_checked
from .errors import (CharacteristicUnsupported, CompositionNotZero,
                     DimensionCapExceeded, NotEquivariant, PrerequisiteFailed,
                     ShapeMismatch, ValidationError)
from .exactla import (Matrix, Subspace, combine, kron, quotient_projection,
                      rank_kernel_image, rank_of, solve_columns, sparse_kernel,
                      sparse_quotient)
from .exactla import homology_dims as _middle_homology
from .hopf import (AlgebraData, CoalgebraData, HopfData, compare_algebra_laws,
                   compare_coalgebra_laws)
from .report import Report
from .reps import ModuleRep, check_module

DEFAULT_DIM_CAP = 20000


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
        F = h.field
        one = F.one
        coalgebra = CoalgebraData.from_triples(F, 1, [(0, 0, 0, one)], [one])
        mats = [Matrix.from_rows(F, [[h.counit.data[0][a]]]) for a in range(h.dim)]
        return ModuleCoalgebraData(coalgebra, ModuleRep(h, "left", mats))
    from .errors import UnknownName
    raise UnknownName(f"no bundled module coalgebra named {name!r}")


def build_named_module_algebra(name: str, h: HopfData) -> ModuleAlgebraData:
    """'trivial' is the ground field with the counit action; 'adjoint' is H
    itself with h.a = h_(1) a S(h_(2))."""
    F = h.field
    one = F.one
    if name == "trivial":
        algebra = AlgebraData.from_triples(F, 1, [(0, 0, 0, one)], [one])
        mats = [Matrix.from_rows(F, [[h.counit.data[0][a]]]) for a in range(h.dim)]
        return ModuleAlgebraData(algebra, ModuleRep(h, "left", mats))
    if name == "adjoint":
        L = h.left_mult()
        mats = [combine(F, h.dim, h.dim,
                        [(coeff, L[b] @ h.mult_by(h.antipode_of(c), "right"))
                         for (b, c, coeff) in terms])
                for terms in h.coalgebra.comul_terms()]
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
        diag = _diagonal_square(F, dx, act, h.coalgebra.comul_terms()[a])
        rep.compare(f"action commutes with comultiplication at basis {a}",
                    com @ act[a], diag @ com, row_dims=(dx, dx), col_dims=(dx,))
        rep.compare(f"action commutes with counit at basis {a}",
                    eps @ act[a], eps.scale(h.counit.data[0][a]), col_dims=(dx,))
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
        diag = _diagonal_square(F, da, act, h.coalgebra.comul_terms()[t])
        rep.compare(f"action respects products at basis {t}",
                    act[t] @ mul, mul @ diag, row_dims=(da,), col_dims=(da, da))
        rep.compare(f"action respects unit at basis {t}",
                    act[t] @ unit, unit.scale(h.counit.data[0][t]), row_dims=(da,))
    return rep


def _diagonal_square(field, dim, act, terms):
    """The diagonal action h_(1) (x) h_(2) on the tensor square, from the
    coproduct terms [(b, c, scalar)] of h."""
    return combine(field, dim * dim, dim * dim,
                   [(coeff, kron(act[b], act[c])) for (b, c, coeff) in terms])


def diagonal_power(action: ModuleRep, k: int):
    """Diagonal action on the k-th tensor power; k = 0 is the counit action.

    Returns one list per Hopf basis element a: entry j is column j of the
    operator of a on X^(x)k, as a {row: scalar} dict of its nonzero entries.
    The power is built by the coproduct, one tensor leg at a time.
    """
    h = action.hopf
    p = action.field.p
    if k == 0:
        return [[{0: e} if e else {}] for e in h.counit.data[0]]
    first = [_sparse_columns(m) for m in action.matrices]
    cur = first
    terms = h.coalgebra.comul_terms()
    for _ in range(k - 1):
        size = len(cur[0])
        nxt = []
        for a in range(h.dim):
            cols = [{} for _ in range(action.dim * size)]
            for (b, c, coeff) in terms[a]:
                for j1, col1 in enumerate(first[b]):
                    for j2, col2 in enumerate(cur[c]):
                        out = cols[j1 * size + j2]
                        for i1, v1 in col1.items():
                            base, v1 = i1 * size, coeff * v1
                            for i2, v2 in col2.items():
                                out[base + i2] = out.get(base + i2, 0) + v1 * v2
            nxt.append([_nonzero(col, p) for col in cols])
        cur = nxt
    return cur


def _sparse_columns(m: Matrix):
    return [{i: v for i, row in enumerate(m.data) if (v := row[j])} for j in range(m.cols)]


def _sparse_rows(m: Matrix):
    return [[(j, v) for j, v in enumerate(row) if v] for row in m.data]


def _nonzero(entries, p):
    """The nonzero entries of a {index: scalar} dict, reduced mod p over GF(p)."""
    if p is not None:
        entries = {i: v % p for i, v in entries.items()}
    return {i: v for i, v in entries.items() if v}


@dataclass(frozen=True)
class EquivariantBasis:
    """Basis of the H-linear maps inside Hom(X, M) at one degree.

    The basis is the identity on the ambient coordinates `free`, and the
    rows of `rref` (sparse {coordinate: scalar} dicts) are the reduced row
    echelon form of the H-linearity constraints, so they span them.
    """

    degree: int
    source_dim: int
    coeff_dim: int
    space: Subspace
    free: tuple
    rref: tuple

    @property
    def dim(self):
        return self.space.dim

    @property
    def ambient(self):
        return self.space.ambient_dim

    @cached_property
    def columns(self):
        """The basis columns as {coordinate: scalar} dicts: column f is one at
        the free coordinate f and minus row[f] at each rref row's pivot."""
        F = self.space.basis.field
        p = F.p
        cols = {f: {f: F.one} for f in self.free}
        for row in self.rref:
            c = min(row)
            for f, v in row.items():
                if f != c:
                    cols[f][c] = -v if p is None else -v % p
        return [cols[f] for f in self.free]


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
    p = F.p
    dM = m.dim
    power = diagonal_power(x, n + 1)
    dX = len(power[0])
    rows = []
    for cols, act in zip(power, m.action.matrices):
        for j, col in enumerate(cols):
            for i, arow in enumerate(act.data):
                row = {k * dM + i: v for k, v in col.items()}
                for l, w in enumerate(arow):
                    if w:
                        row[j * dM + l] = row.get(j * dM + l, 0) - w
                row = _nonzero(row, p)
                if row:
                    rows.append(row)
    rref, free, basis = sparse_kernel(F, rows, dX * dM)
    return EquivariantBasis(n, dX, dM, Subspace(dX * dM, basis), tuple(free), tuple(rref))


def _restrict(operator, degree, images, dst: EquivariantBasis) -> Matrix:
    """Sparse images of src's basis columns, re-expressed in dst's basis.

    An image y lies in dst's subspace exactly when every row of dst.rref
    annihilates it.  The row with pivot c evaluates to y[c] minus the sum of
    y[f] * column_f[c] over the free coordinates f, so the check visits only
    y's nonzero entries.  The coordinates of y are then its entries at dst's
    free coordinates, where dst's basis is the identity.
    """
    F = dst.space.basis.field
    p = F.p
    index = {c: r for r, c in enumerate(dst.free)}
    columns = dst.columns
    data = [[F.zero] * len(images) for _ in dst.free]
    for k, y in enumerate(images):
        residue = {c: v for c, v in y.items() if c not in index}
        for f, v in y.items():
            if f in index:
                data[index[f]][k] = v
                for c, w in columns[index[f]].items():
                    if c != f:
                        residue[c] = residue.get(c, 0) - v * w
        if any(v % p if p is not None else v for v in residue.values()):
            raise NotEquivariant(f"{operator} at degree {degree} does not preserve "
                                 "the equivariant subspaces", degree=degree, operator=operator)
    return Matrix(F, len(dst.free), len(images), data)


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
                         max_degree: int = 3, allow_unstable: bool = False,
                         require_checked: bool = True) -> CyclicComplexData:
    """Cyclic complex of a module coalgebra with a left-right coefficient."""
    return _build_complex("cyclic", "lr", c, check_module_coalgebra, c.coalgebra.comul,
                          c.coalgebra.counit, m, max_degree, allow_unstable, require_checked)


def build_cocyclic_complex(a: ModuleAlgebraData, m: AydCoefficient,
                           max_degree: int = 3, allow_unstable: bool = False,
                           require_checked: bool = True) -> CyclicComplexData:
    """Cocyclic complex of a module algebra with a left-left coefficient."""
    return _build_complex("cocyclic", "ll", a, check_module_algebra, a.algebra.mul,
                          a.algebra.unit, m, max_degree, allow_unstable, require_checked)


def _build_complex(kind, flavour, data, check, g, e, m, N, allow_unstable, require_checked):
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
    if require_checked:
        ensure_coefficient_checked(m, need_stable=not allow_unstable)
    x = data.action
    p = x.field.p
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
    g_map = (_sparse_rows(g),) + ((1, 2) if cyclic else (2, 1))
    e_map = (_sparse_rows(e),) + ((1, 0) if cyclic else (0, 1))
    # acts[z] lists (h, y, scalar) with h.y having that scalar at z
    acts = [[(h, y, a) for h, act in enumerate(x.matrices)
             for y, a in enumerate(act.data[z]) if a] for z in range(dx)]
    alpha = [list(col.items()) for col in _sparse_columns(m.alpha.alpha)]

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
                for mid2, w in rows[mid]:
                    t = ((pre * shift + mid2) * low + suf) * dm + s
                    acc[t] = acc.get(t, 0) + v * w
            out.append(_nonzero(acc, p))
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
                    for s2, c in alpha[h * dm + s]:
                        acc[base + s2] = acc.get(base + s2, 0) + va * c
            out.append(_nonzero(acc, p))
        return out

    def restrict(name, n, k, images):
        # cyclic operators run from degree n to k, cocyclic ones from k to n
        return _restrict(prefix + name, n, images, bases[k if cyclic else n])

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
    """Homology dimensions in degrees 0 .. max_degree - 1.

    mode 'hochschild' uses the alternating face sum; mode 'connes' first
    passes to the quotient by the image of 1 - (sign) * cyclic operator,
    which needs characteristic zero.
    """
    if mode not in ("hochschild", "connes"):
        raise ShapeMismatch(f"unknown homology mode {mode!r}")
    F = cx.field
    N = cx.max_degree
    b = {n: combine(F, *cx.faces[n][0].shape,
                    [((-1) ** i, op) for i, op in enumerate(cx.faces[n])])
         for n in range(1, N + 1)}
    if mode == "hochschild":
        dims0 = [cx.bases[n].dim for n in range(N + 1)]
        return _graded_dims(cx.kind, b, dims0, N)
    if F.characteristic != 0:
        raise CharacteristicUnsupported(
            "the cyclic quotient needs characteristic zero")
    def one_minus_lambda(n):
        lam = cx.cyclers[n] if n % 2 == 0 else -cx.cyclers[n]
        return Matrix.identity(F, cx.bases[n].dim) - lam
    bq = {}
    if cx.kind == "cyclic":
        # chains: the boundary descends to the quotient by im(1 - lambda)
        proj, lift, qdims = {}, {}, {}
        for n in range(N + 1):
            qdims[n], proj[n], lift[n] = quotient_projection(one_minus_lambda(n))
        for n in range(1, N + 1):
            if not (proj[n - 1] @ b[n] @ one_minus_lambda(n)).is_zero():
                raise CompositionNotZero(
                    f"boundary does not descend to the cyclic quotient at degree {n}", degree=n)
            bq[n] = proj[n - 1] @ b[n] @ lift[n]
        space_dims = [qdims[n] for n in range(N + 1)]
    else:
        # cochains: the coboundary preserves the lambda-invariant subcomplex
        ker = {}
        for n in range(N + 1):
            _, sub, _ = rank_kernel_image(one_minus_lambda(n))
            ker[n] = sub.basis
        for n in range(1, N + 1):
            restricted = solve_columns(ker[n], b[n] @ ker[n - 1])
            if restricted is None:
                raise CompositionNotZero(
                    f"coboundary leaves the invariant subcomplex at degree {n}", degree=n)
            bq[n] = restricted
        space_dims = [ker[n].cols for n in range(N + 1)]
    return _graded_dims(cx.kind, bq, space_dims, N)


def _graded_dims(kind, b, space_dims, N):
    # degree 0 is weakly covered: kernel of the first arrow out of (into) it
    out = []
    for n in range(N):
        if n == 0:
            out.append(space_dims[0] - rank_of(b[1]))
        elif kind == "cyclic":
            out.append(_middle_homology(b[n + 1], b[n]))
        else:
            out.append(_middle_homology(b[n], b[n + 1]))
    return out


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
        for i in range(dn):
            for j in range(dx):
                row = {k * dx + j: v for k, r in enumerate(r_a.data) if (v := r[i])}
                for k, r in enumerate(x_a.data):
                    if r[j]:
                        row[i * dx + k] = row.get(i * dx + k, 0) - r[j]
                rows.append(_nonzero(row, F.p))
    qdim, proj, lift = sparse_quotient(F, rows, ambient)
    return QuotientData(ambient, qdim, proj, lift)
