"""Equivariant hom complexes with contramodule coefficients.

Two shapes are built over a Hopf algebra H with coefficient space M:

* cyclic: C_n = Hom_H(C^(x)(n+1), M) for a module coalgebra C, with faces
  lowering n, degeneracies raising n, and a cyclic operator of order n+1;
* cocyclic: C^n = Hom_H(A^(x)(n+1), M) for a module algebra A, with the
  arrows reversed.

Tensor powers carry the diagonal action.  Every operator is assembled on the
full hom space out of slot permutations, structure-map precompositions, and
a single application route for the contramodule map, then re-expressed in
the computed equivariant bases.  A restriction that fails to close raises
NotEquivariant rather than silently projecting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .ayd import AydCoefficient, AydFlavour, ensure_coefficient_checked
from .errors import (CharacteristicUnsupported, CompositionNotZero,
                     DimensionCapExceeded, NotEquivariant, PrerequisiteFailed,
                     ShapeMismatch, ValidationError)
from .exactla import (Matrix, Subspace, hstack, kron, permute_cols,
                      permute_rows, quotient_projection, rank_kernel_image,
                      rank_of, solve_columns, sparse_kernel,
                      tensor_permutation_map)
from .exactla import homology_dims as _middle_homology
from .hopf import AlgebraData, CoalgebraData, HopfData
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
        mats = []
        for t in range(h.dim):
            m = Matrix.zeros(F, h.dim, h.dim)
            for (b, c, coeff) in h.coalgebra.comul_terms()[t]:
                m = m + (L[b] @ h.mult_by(h.antipode_of(c), "right")).scale(coeff)
            mats.append(m)
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
    # coalgebra axioms of C itself
    I_x = Matrix.identity(F, dx)
    rep.compare("coalgebra coassociativity",
                kron(com, I_x) @ com, kron(I_x, com) @ com,
                row_dims=(dx, dx, dx), col_dims=(dx,))
    rep.compare("coalgebra left counit", kron(eps, I_x) @ com, I_x, col_dims=(dx,))
    rep.compare("coalgebra right counit", kron(I_x, eps) @ com, I_x, col_dims=(dx,))
    for a in range(h.dim):
        diag = Matrix.zeros(F, dx * dx, dx * dx)
        for (b, cc, coeff) in h.coalgebra.comul_terms()[a]:
            diag = diag + kron(act[b], act[cc]).scale(coeff)
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
    I_a = Matrix.identity(F, da)
    rep.compare("algebra associativity",
                mul @ kron(mul, I_a), mul @ kron(I_a, mul),
                row_dims=(da,), col_dims=(da, da, da))
    rep.compare("algebra left unit", mul @ kron(unit, I_a), I_a, col_dims=(da,))
    rep.compare("algebra right unit", mul @ kron(I_a, unit), I_a, col_dims=(da,))
    for t in range(h.dim):
        diag = Matrix.zeros(F, da * da, da * da)
        for (b, cc, coeff) in h.coalgebra.comul_terms()[t]:
            diag = diag + kron(act[b], act[cc]).scale(coeff)
        rep.compare(f"action respects products at basis {t}",
                    act[t] @ mul, mul @ diag, row_dims=(da,), col_dims=(da, da))
        rep.compare(f"action respects unit at basis {t}",
                    act[t] @ unit, unit.scale(h.counit.data[0][t]), row_dims=(da,))
    return rep


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


def _hom_precompose(g: Matrix, dm: int) -> Matrix:
    """Hom(X, M) -> Hom(X', M), f -> f . g for g: X' -> X."""
    return kron(g.transpose(), Matrix.identity(g.field, dm))


def _alpha_route(alpha: Matrix, w: Matrix, dh: int, dxp: int, dm: int) -> Matrix:
    """Operator Hom(X, M) -> Hom(X', M) sending f to xi -> alpha(h -> f(w(h (x) xi)))."""
    pre = _hom_precompose(w, dm)
    new_to_old = tensor_permutation_map((dh, dxp, dm), (1, 0, 2))
    curried = permute_rows(pre, new_to_old)
    return kron(Matrix.identity(alpha.field, dxp), alpha) @ curried


def _restrict(name: str, op: Matrix, src: EquivariantBasis, dst: EquivariantBasis) -> Matrix:
    """op re-expressed in the bases of src and dst.

    Y = op @ src.basis lies in dst's subspace exactly when every constraint
    row of dst annihilates it; its coordinates are then its rows at dst's
    free coordinates, where dst's basis is the identity.
    """
    y = op @ src.space.basis
    p = y.field.p
    for row in dst.rref:
        acc = [0] * y.cols
        for c, v in row.items():
            for k, w in enumerate(y.data[c]):
                if w:
                    acc[k] += v * w
        if any(a % p if p is not None else a for a in acc):
            raise NotEquivariant(f"{name} does not preserve the equivariant subspaces")
    return Matrix(y.field, len(dst.free), y.cols, [y.data[c] for c in dst.free])


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

    Inner (co)faces and (co)degeneracies precompose with id (x) g (x) id and
    id (x) e (x) id, and are restricted from the degree of that map's
    codomain to the degree of its domain.  The (co)cyclic operator routes
    the contramodule map through a slot rotation followed by the action,
    which sits on the last tensor leg for cyclic and on the first for
    cocyclic; the last (co)face is that route composed with the 0-th
    (co)face map.
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
    F = x.field
    dh, dx, dm = x.hopf.dim, x.dim, m.dim
    for n in range(N + 1):
        _check_cap(dx ** (n + 1) * dm)
    alpha = m.alpha.alpha
    act_flat = x.action_matrix()
    bases = [equivariant_hom_basis(x, m, n) for n in range(N + 1)]
    prefix = "" if cyclic else "co"

    def eye(k):
        return Matrix.identity(F, dx ** k)

    def inner(i, u, k):
        return kron(eye(i), kron(u, eye(k)))

    def restrict(name, op, n, k):
        # cyclic operators run from degree n to k, cocyclic ones from k to n
        src, dst = (n, k) if cyclic else (k, n)
        return _restrict(prefix + name, op, bases[src], bases[dst])

    def rotation(n):
        """H (x) X^(n+1) -> X^(n+1): rotate the tensor legs, then act."""
        if cyclic:
            perm, acted = [s + 2 for s in range(n)] + [0, 1], kron(eye(n), act_flat)
        else:
            perm, acted = [0, n + 1] + [s + 1 for s in range(n)], kron(act_flat, eye(n))
        return permute_cols(acted, tensor_permutation_map((dh,) + (dx,) * (n + 1), tuple(perm)))

    def routed(w):
        return _alpha_route(alpha, w, dh, w.cols // dh, dm)

    faces, degens, cyclers = {}, {}, {}
    for n in range(1, N + 1):
        ops = [restrict(f"face {i} at degree {n}",
                        _hom_precompose(inner(i, g, n - 1 - i), dm), n, n - 1)
               for i in range(n)]
        g0 = inner(0, g, n - 1)
        w = rotation(n) @ kron(Matrix.identity(F, dh), g0) if cyclic else g0 @ rotation(n)
        ops.append(restrict(f"face {n} at degree {n}", routed(w), n, n - 1))
        faces[n] = ops
    for n in range(N):
        degens[n] = [restrict(f"degeneracy {j} at degree {n}",
                              _hom_precompose(inner(j + 1, e, n - j), dm), n, n + 1)
                     for j in range(n + 1)]
    for n in range(N + 1):
        cyclers[n] = restrict(f"cyclic operator at degree {n}", routed(rotation(n)), n, n)
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


def _alternating_sum(ops):
    out = ops[0]
    sign = -1
    for op in ops[1:]:
        out = out + op.scale(sign)
        sign = -sign
    return out


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
    b = {n: _alternating_sum(cx.faces[n]) for n in range(1, N + 1)}
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
                    f"boundary does not descend to the cyclic quotient at degree {n}")
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
                    f"coboundary leaves the invariant subcomplex at degree {n}")
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


def hom_bimodule_actions(a: ModuleAlgebraData, m: AydCoefficient):
    """The two commuting actions of A on Hom(A, M) and their verified laws.

    Returns (left_ops, right_ops, report).  The left action precomposes with
    right multiplication; the right action routes through the contramodule
    map.  The coefficient must be left-left and pass its compatibility check.
    """
    if m.flavour.code != "ll":
        raise PrerequisiteFailed(
            f"the hom bimodule needs a left-left coefficient, got {m.flavour.code}")
    struct = check_module_algebra(a)
    if not struct.ok:
        raise PrerequisiteFailed(f"module algebra fails {struct.failures()[0].name}")
    ensure_coefficient_checked(m, need_stable=False)
    F = a.action.field
    h = a.hopf
    dh, da, dm = h.dim, a.dim, m.dim
    alpha = m.alpha.alpha
    mul, unit = a.algebra.mul, a.algebra.unit
    right_mult = a.algebra.right_mult()
    I_m = Matrix.identity(F, dm)
    left_ops = [kron(right_mult[i].transpose(), I_m) for i in range(da)]
    right_ops = []
    for i in range(da):
        act_col = Matrix.zeros(F, da, dh)
        for hh in range(dh):
            col = a.action.matrices[hh].col(i)
            for r in range(da):
                act_col.data[r][hh] = col[r]
        w = mul @ kron(act_col, Matrix.identity(F, da))
        right_ops.append(_alpha_route(alpha, w, dh, da, dm))
    rep = Report("hom bimodule")
    rep.note("hom-right-action-associativity")
    rep.note("module-algebra-two-factors")
    hom_dim = da * dm
    ident = Matrix.identity(F, hom_dim)
    for i in range(da):
        for j in range(da):
            combo_r = Matrix.zeros(F, hom_dim, hom_dim)
            combo_l = Matrix.zeros(F, hom_dim, hom_dim)
            for k in range(da):
                c = mul.data[k][i * da + j]
                if c != F.zero:
                    combo_r = combo_r + right_ops[k].scale(c)
                    combo_l = combo_l + left_ops[k].scale(c)
            rep.compare(f"right action multiplicative at pair ({i},{j})",
                        right_ops[j] @ right_ops[i], combo_r)
            rep.compare(f"left action multiplicative at pair ({i},{j})",
                        left_ops[i] @ left_ops[j], combo_l)
            rep.compare(f"actions commute at pair ({i},{j})",
                        left_ops[i] @ right_ops[j], right_ops[j] @ left_ops[i])
    unit_r = Matrix.zeros(F, hom_dim, hom_dim)
    unit_l = Matrix.zeros(F, hom_dim, hom_dim)
    for k in range(da):
        c = unit.data[k][0]
        if c != F.zero:
            unit_r = unit_r + right_ops[k].scale(c)
            unit_l = unit_l + left_ops[k].scale(c)
    rep.compare("right action unital", unit_r, ident)
    rep.compare("left action unital", unit_l, ident)
    return left_ops, right_ops, rep


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
    h = x.hopf
    dn, dx = right.dim, x.dim
    ambient = dn * dx
    cap = dim_cap()
    if ambient > cap:
        raise DimensionCapExceeded(
            f"tensor product dimension {ambient} exceeds the cap {cap}")
    I_n = Matrix.identity(F, dn)
    I_x = Matrix.identity(F, dx)
    blocks = []
    for a in range(h.dim):
        block = kron(right.matrices[a], I_x) - kron(I_n, x.matrices[a])
        if not block.is_zero():
            blocks.append(block)
    if not blocks:
        qdim, proj, lift = quotient_projection(Matrix.zeros(F, ambient, 0))
        return QuotientData(ambient, qdim, proj, lift)
    rel = hstack(blocks)
    _, _, img = rank_kernel_image(rel)
    qdim, proj, lift = quotient_projection(img.basis)
    return QuotientData(ambient, qdim, proj, lift)
