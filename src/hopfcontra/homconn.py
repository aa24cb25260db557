"""The twisted coring on H (x) H, its differential calculus, and
hom-connections induced by contramodule coefficients.

The coring carries the left action h.(u (x) x) = h_(1) u Sinv(h_(3)) (x) h_(2) x
and right action (u (x) x).h = u (x) xh.  Its coproduct and counit are written
in identified coordinates: the tensor product over H of two copies collapses
onto H (x) H (x) H via (u (x) 1) (x)_H (x (x) y) <-> u (x) x (x) y.

The calculus has forms Omega^n = Hplus^(x)n (x) H for the counit kernel
Hplus, with the degree raising map built from the same twisting.  A
right-right coefficient induces nabla: Hom(Omega^1, M) -> M; the induced
pair (nabla1, nabla0) composes to zero exactly when the coefficient is
compatible, which curvature_and_flatness verifies.

No structure map on H (x) H (x) H or beyond is built as a matrix: the
twisted actions, one-leg multiplications, coproducts, counits and the raw
degree maps are applied to sparse {index: scalar} columns (`_apply`), as
`cyclic` applies its operators, and the coring laws compare such columns
(`Report.compare_columns`).  The coring and calculus matrices kept have at
most d^5 cells, d = dim H, and d^3 is checked against the cap first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ayd import AydCoefficient, check_ayd_compatibility, ensure_coefficient_checked
from .ayd import _transport_operator
from .cyclic import dim_cap
from .errors import CounitDegenerate, DimensionCapExceeded, PrerequisiteFailed
from .exactla import Matrix, inverse, kron, sparse_vector
from .hopf import HopfData, check_hopf_axioms
from .report import Report
from .reps import check_contramodule


def check_dimension_cap(h: HopfData):
    """Refuse H when H (x) H (x) H, the largest space the coring checks and
    the calculus work on, has a dimension over the cap; nothing is built."""
    cap = dim_cap()
    if h.dim ** 3 > cap:
        raise DimensionCapExceeded(
            f"threefold tensor power dimension {h.dim ** 3} exceeds the cap {cap}")


def _apply(F, op, columns, rows=0, post=1):
    """op, given by its sparse columns, applied to one slot of each sparse
    tensor column: post is the dimension of the slots right of it, and rows,
    op's output dimension, matters only when slots lie left of it."""
    width = len(op) * post
    out = []
    for vec in columns:
        acc = {}
        for idx, v in vec.items():
            pre, rest = divmod(idx, width)
            s, rest = divmod(rest, post)
            for r, w in op[s].items():
                k = (pre * rows + r) * post + rest
                acc[k] = acc[k] + v * w if k in acc else v * w
        out.append(sparse_vector(F, acc))
    return out


def _from_columns(F, rows, columns):
    return Matrix.from_entries(F, rows, len(columns), (
        (i, j, v) for j, col in enumerate(columns) for i, v in col.items()))


def _twisted_columns(h: HopfData, n: int):
    """Per basis a, the sparse columns of h.(u (x) x) = h_(1) u Sinv(h_(3)) (x)
    h_(2) x on H^(x)n (n = 2) or its transport: over the legs of the (2n-2)-fold
    coproduct, factor i < n-1 is L(leg i) R(Sinv(leg 2n-2-i)), the last L(leg n-1)."""
    F, d, L = h.field, h.dim, h.left_mult()
    out = []
    for terms in h.comul_terms(2 * n - 2):
        acc = [{} for _ in range(d ** n)]
        for legs, coeff in terms:
            cols = [{0: coeff}]
            for i in range(n):
                op = L[legs[i]]
                if i < n - 1:
                    op = op @ h.mult_by(h.antipode_inv_of(legs[2 * n - 2 - i]), "right")
                op = op.sparse_columns()
                cols = [{r * d + s: v * w for r, v in col.items() for s, w in c.items()}
                        for col in cols for c in op]
            for sums, col in zip(acc, cols):
                for k, v in col.items():
                    sums[k] = sums[k] + v if k in sums else v
        out.append([sparse_vector(F, sums) for sums in acc])
    return out


@dataclass
class CoringData:
    """The coring H (x) H with its bimodule actions, coproduct, counit, and
    the grouplike element 1 (x) 1."""

    hopf: HopfData
    left_action: list
    right_action: list
    coproduct: Matrix
    counit: Matrix
    grouplike: Matrix

    @property
    def dim(self):
        return self.hopf.dim ** 2


def build_ayd_coring(h: HopfData) -> CoringData:
    """Assemble the coring; the underlying Hopf data must pass its axioms."""
    check_dimension_cap(h)
    axioms = check_hopf_axioms(h)
    if not axioms.ok:
        raise PrerequisiteFailed(f"hopf axioms fail: {axioms.failures()[0].name}")
    F = h.field
    d = h.dim
    I_d = Matrix.identity(F, d)
    left = [_from_columns(F, d * d, cols) for cols in _twisted_columns(h, 2)]
    right = [kron(I_d, R) for R in h.right_mult()]
    return CoringData(h, left, right, kron(h.comul, I_d), kron(h.counit, I_d),
                      kron(h.unit, h.unit))


def check_coring(c: CoringData) -> Report:
    """Bimodule laws, coassociativity and counit laws over H, H-linearity of
    the structure maps, and grouplikeness of 1 (x) 1."""
    rep = Report("coring structure")
    h = c.hopf
    F, d, dc = h.field, h.dim, c.dim
    A = [m.sparse_columns() for m in c.left_action]
    B = [m.sparse_columns() for m in c.right_action]
    P = c.coproduct.sparse_columns()
    E = c.counit.sparse_columns()
    L = [m.sparse_columns() for m in h.left_mult()]
    R = [m.sparse_columns() for m in h.right_mult()]
    ident = [{j: F.one} for j in range(dc)]

    def combos(ops, coords):
        # per vector of coords, the columns of the sum of coords[k] * ops[k]
        return list(zip(*(_apply(F, col_t, coords) for col_t in zip(*ops))))

    products, unit = h.mul.sparse_columns(), h.unit.sparse_columns()
    for i in range(d):
        left, right = combos(A, products[i * d:i * d + d]), combos(B, products[i * d:i * d + d])
        for j in range(d):
            rep.compare_columns(f"left action multiplicative at ({i},{j})",
                                _apply(F, A[i], A[j]), left[j])
            rep.compare_columns(f"right action multiplicative at ({i},{j})",
                                _apply(F, B[j], B[i]), right[j])
            rep.compare_columns(f"actions commute at ({i},{j})",
                                _apply(F, A[i], B[j]), _apply(F, B[j], A[i]))
    rep.compare_columns("left action unital", combos(A, unit)[0], ident)
    rep.compare_columns("right action unital", combos(B, unit)[0], ident)

    three = _twisted_columns(h, 3)
    for a in range(d):
        rep.compare_columns(f"counit left linear at basis {a}",
                            _apply(F, E, A[a]), _apply(F, L[a], E))
        rep.compare_columns(f"counit right linear at basis {a}",
                            _apply(F, E, B[a]), _apply(F, R[a], E))
        rep.compare_columns(f"coproduct left linear at basis {a}",
                            _apply(F, P, A[a]), _apply(F, three[a], P))
        rep.compare_columns(f"coproduct right linear at basis {a}",
                            _apply(F, P, B[a]), _apply(F, R[a], P, d))
    rep.compare_columns("coassociativity", _apply(F, h.comul.sparse_columns(), P, d * d, d * d),
                        _apply(F, P, P, d ** 3), row_dims=(d, d, d, d), col_dims=(d, d))
    rep.compare_columns("left counit law", _apply(F, h.counit.sparse_columns(), P, 1, d * d),
                        ident, col_dims=(d, d))
    rep.compare_columns("right counit law", _apply(F, E, P, d), ident, col_dims=(d, d))
    rep.compare("grouplike coproduct",
                c.coproduct @ c.grouplike, kron(h.unit, kron(h.unit, h.unit)),
                row_dims=(d, d, d))
    rep.compare("grouplike counit", c.counit @ c.grouplike, h.unit, row_dims=(d,))
    return rep


def _block_entries(blocks, rho, dm):
    """The entries of the sum of c * kron(E_ij, rho[v]) over blocks
    (i, j, v, c), E_ij a matrix unit: block (i, j) gains c times the action
    matrix rho[v] on the dm dimensional coefficient."""
    for i, j, v, c in blocks:
        for r, s, w in rho[v].nonzero_entries():
            yield i * dm + r, j * dm + s, c * w


def _identified_right_action(coring: CoringData, m: AydCoefficient):
    """Per basis a, the operator on Hom(H, M) of the coring-induced right
    action (f.h)(h') = f(h.(h' (x) 1)), read through f(u (x) x) = f(u).x."""
    h = coring.hopf
    F = h.field
    d, dm = h.dim, m.dim
    emb = kron(Matrix.identity(F, d), h.unit)
    out = []
    for a in range(d):
        restricted = coring.left_action[a] @ emb
        out.append(Matrix.from_entries(F, d * dm, d * dm, _block_entries(
            [(hp, *divmod(row, d), coeff) for (row, hp, coeff) in restricted.nonzero_entries()],
            m.action.matrices, dm)))
    return out


def coring_contramodule_equivalence(coring: CoringData, m: AydCoefficient) -> Report:
    """The coring-contramodule structure in identified coordinates is the
    right-right flavour: the induced Hom(H, M) action must agree with the
    direct coproduct expansion operator for operator, and the resulting
    linearity verdict must match the flavour compatibility verdict."""
    if m.flavour.code != "rr":
        raise PrerequisiteFailed(
            f"the coring identification needs a right-right coefficient, got {m.flavour.code}")
    rep = Report("coring contramodule equivalence")
    h = coring.hopf
    A = m.alpha.alpha
    rho = m.action.matrices
    induced = _identified_right_action(coring, m)
    linear_ok = True
    for a in range(h.dim):
        rep.compare(f"induced action matches direct expansion at basis {a}",
                    induced[a], _transport_operator(m, a))
        ok = rep.compare(f"structure map right linear at basis {a}",
                        A @ induced[a], rho[a] @ A,
                        row_dims=(m.dim,), col_dims=(h.dim, m.dim))
        linear_ok = linear_ok and ok
    direct = check_ayd_compatibility(m)
    rep.add("identified verdict agrees with flavour verdict",
            linear_ok == direct.ok,
            None if linear_ok == direct.ok else
            {"identified": linear_ok, "flavour": direct.ok})
    contra = check_contramodule(m.alpha)
    rep.add("identified counit and coassociation laws hold", contra.ok,
            None if contra.ok else contra.failures()[0].witness)
    return rep


@dataclass
class DgaData:
    """Counit-adapted calculus: forms are Hplus powers with a trailing H leg."""

    hopf: HopfData
    plus_dim: int
    incl: Matrix
    proj_w: Matrix
    proj_plus: Matrix
    d0: Matrix
    d1: Matrix
    omega1_act: list

    def omega_dim(self, n):
        if n == 0:
            return self.hopf.dim
        return self.plus_dim ** n * self.hopf.dim


def build_dga(h: HopfData) -> DgaData:
    """First two levels of the calculus, with exactness checks built in.

    Raises CounitDegenerate when no basis vector has nonzero counit, and
    PrerequisiteFailed when the underlying structure is not a Hopf algebra
    or the degree raising maps escape the counit kernel.
    """
    check_dimension_cap(h)
    F, d = h.field, h.dim
    eps = h.counit
    counit = eps.sparse_rows()[0]
    if not counit:
        raise CounitDegenerate("the counit vanishes on every basis vector")
    pivot = min(counit)
    axioms = check_hopf_axioms(h)
    if not axioms.ok:
        raise PrerequisiteFailed(f"hopf axioms fail: {axioms.failures()[0].name}")
    dplus = d - 1
    # column k of incl is e_i - (eps(e_i) / eps(e_pivot)) e_pivot, i the k-th other index
    inv_piv = F.invert(counit[pivot])
    others = [i for i in range(d) if i != pivot]
    cols = ([(i, k, 1) for k, i in enumerate(others)]
            + [(pivot, k, -counit.get(i, 0) * inv_piv) for k, i in enumerate(others)])
    incl = Matrix.from_entries(F, d, dplus, cols)
    w_inv = inverse(Matrix.from_entries(F, d, d, cols + [(pivot, dplus, 1)]))
    proj_w = Matrix.from_entries(F, dplus, d,
                                 [e for e in w_inv.nonzero_entries() if e[0] < dplus])
    I_d = Matrix.identity(F, d)
    proj_plus = proj_w @ (I_d - h.unit @ eps)

    # T(h) = h_(1) Sinv(h_(3)) (x) h_(2), the twisted part of the differential,
    # is the twisting applied to 1 (x) 1; with no forms the lists below are empty
    twisted = _twisted_columns(h, 2)
    units = kron(h.unit, h.unit).sparse_columns()
    T = [_apply(F, tw, units)[0] for tw in twisted]
    raw0 = kron(h.unit, I_d) - _from_columns(F, d * d, T)
    if not (kron(eps, I_d) @ raw0).is_zero():
        raise PrerequisiteFailed("degree one image escapes the counit kernel")
    d0 = kron(proj_plus, I_d) @ raw0

    # the columns of kron(incl, I_d), and the raw degree two map on them:
    # u (x) y -> 1 (x) u (x) y - Delta(u) (x) y + u (x) T(y)
    plus = [{u * d + y: v for u, v in col.items()}
            for col in incl.sparse_columns() for y in range(d)]
    slot_one = _apply(F, (kron(h.unit, I_d) - h.comul).sparse_columns(), plus, d * d, d)
    raw1 = [sparse_vector(F, {k: x.get(k, 0) + y.get(k, 0) for k in x.keys() | y.keys()})
            for x, y in zip(slot_one, _apply(F, T, plus, d * d))]
    eps_cols = eps.sparse_columns()
    if any(_apply(F, eps_cols, raw1, 1, d * d)):
        raise PrerequisiteFailed("degree two image escapes the counit kernel in slot one")
    if any(_apply(F, eps_cols, raw1, 1, d)):
        raise PrerequisiteFailed("degree two image escapes the counit kernel in slot two")
    pp = proj_plus.sparse_columns()
    d1 = _apply(F, pp, _apply(F, pp, raw1, dplus, d), dplus, dplus * d)
    if any(_apply(F, d1, d0.sparse_columns())):
        raise PrerequisiteFailed("the degree raising maps do not compose to zero")
    d1 = _from_columns(F, dplus * dplus * d, d1)

    omega1_act = []
    for tw in twisted:
        restricted = _apply(F, tw, plus)
        if any(_apply(F, eps_cols, restricted, 1, d)):
            raise PrerequisiteFailed("the action leaks out of the counit kernel")
        omega1_act.append(_from_columns(F, dplus * d, _apply(F, pp, restricted, dplus, d)))
    return DgaData(h, dplus, incl, proj_w, proj_plus, d0, d1, omega1_act)


@dataclass
class HomConnectionData:
    """nabla0: Hom(Omega^1, M) -> M and nabla1: Hom(Omega^2, M) -> Hom(Omega^1, M),
    in identified coordinates where Hom(Omega^n, M) = Hom(Hplus^(x)n, M)."""

    coefficient: AydCoefficient
    dga: DgaData
    nabla0: Matrix
    nabla1: Matrix


def _form_entries(coords, d, right_mats, dm):
    """The entries of the operator f -> sum over the form's legs of
    rho(last leg) f(plus legs), one block row wide.

    coords is a vector over (plus-power, H) with the H leg minor.
    """
    return _block_entries([(0, *divmod(idx, d), v) for idx, v in enumerate(coords) if v],
                          right_mats, dm)


def hom_connection_from_contramodule(m: AydCoefficient, dga: DgaData) -> HomConnectionData:
    """nabla0(f) applies the structure map to f composed with the projection
    onto the counit kernel; nabla1 extends it to one-form arguments.

    The coefficient must be right-right and pass compatibility; stability is
    not required."""
    if m.flavour.code != "rr":
        raise PrerequisiteFailed(
            f"hom connections need a right-right coefficient, got {m.flavour.code}")
    ensure_coefficient_checked(m, need_stable=False)
    F = m.field
    h = dga.hopf
    d, dm, dplus = h.dim, m.dim, dga.plus_dim
    A = m.alpha.alpha
    nabla0 = A @ kron(dga.proj_plus.transpose(), Matrix.identity(F, dm))
    if dplus == 0:
        return HomConnectionData(m, dga, nabla0, Matrix.zeros(F, 0, 0))
    emb1 = kron(Matrix.identity(F, dplus), h.unit)
    d1_on_units = dga.d1 @ emb1
    rho = m.action.matrices
    width = dplus * dm
    entries = []
    for i in range(dplus):
        # block row i: nabla0 on the i-th slice of Hom(Omega^2, M), plus the form term
        entries += [(i * dm + r, i * width + s, v) for r, s, v in nabla0.nonzero_entries()]
        entries += [(i * dm + r, s, v)
                    for r, s, v in _form_entries(d1_on_units.col(i), d, rho, dm)]
    nabla1 = Matrix.from_entries(F, dplus * dm, dplus * width, entries)
    return HomConnectionData(m, dga, nabla0, nabla1)


def check_leibniz(hc: HomConnectionData) -> Report:
    """nabla0(f.a) = nabla0(f).a + f(d a) for every basis element a of H."""
    rep = Report("hom connection leibniz rule")
    F = hc.coefficient.field
    dga = hc.dga
    h = dga.hopf
    d, dm, dplus = h.dim, hc.coefficient.dim, dga.plus_dim
    rho = hc.coefficient.action.matrices
    if dplus == 0:
        rep.add("leibniz rule (no forms)", True)
        return rep
    emb1 = kron(Matrix.identity(F, dplus), h.unit)
    for a in range(d):
        restricted = dga.omega1_act[a] @ emb1
        act_op = Matrix.from_entries(F, dplus * dm, dplus * dm, _block_entries(
            [(w, *divmod(row, d), coeff) for (row, w, coeff) in restricted.nonzero_entries()],
            rho, dm))
        evaluated = Matrix.from_entries(F, dm, dplus * dm,
                                        _form_entries(dga.d0.col(a), d, rho, dm))
        rep.compare(f"leibniz rule at basis {a}",
                    hc.nabla0 @ act_op, rho[a] @ hc.nabla0 + evaluated,
                    row_dims=(dm,), col_dims=(dplus, dm))
    return rep


def curvature_and_flatness(hc: HomConnectionData):
    """The composite nabla0 . nabla1 and a report asserting it vanishes."""
    curvature = hc.nabla0 @ hc.nabla1
    rep = Report("curvature")
    rep.compare("curvature vanishes", curvature,
                Matrix.zeros(hc.coefficient.field, curvature.rows, curvature.cols))
    return curvature, rep
