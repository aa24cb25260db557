"""Dense, ambient-size operators of the hom complexes, kept as oracles.

`hopfcontra.cyclic` applies every face, degeneracy and cyclic operator to
sparse basis columns and never builds one at ambient size.  The routes here
build each operator as a full matrix on Hom(X, M): precomposition with a map
g is kron(g^T, I_M), and the contramodule map is reached through a dense
rotation of the tensor legs, a re-currying permutation and kron(I, alpha).  The hom bimodule of a module algebra, whose
right action takes the same route, lives here too, and so does the dense
iterated coproduct that `HopfData.comul_terms` computes sparsely.  An
equivariant basis, kept by the package as sparse columns only, is
densified here (`dense_basis`) for the oracles to solve against.

The dense product of coproducts that `check_hopf_axioms` once formed
through a d^4 x d^2 middle swap is `product_of_coproducts`.

`hopfcontra.homconn` checks the coring laws and builds the calculus on
sparse columns.  The dense route it replaced is kept here: the twisted
actions as combinations of kron products (`twisted_left_action`), the
coring laws as products of full matrices up to H^(x)4 (`dense_check_coring`)
and the calculus's degree maps and one-form actions through the raw maps on
H (x) H (x) H (`dense_degree_maps`).

The package reads every homology table off ranks of one chain complex.
The three routes it used before are kept here as its oracle
(`quotient_route_dims`): Hochschild tables from the middle homology of
consecutive boundaries, Connes tables of a cyclic complex through the dense
quotient projection and section, and those of a cocyclic complex through
the invariant kernels and the coboundaries solved into them.
"""

from hopfcontra.ayd import ensure_coefficient_checked
from hopfcontra.cyclic import check_module_algebra
from hopfcontra.errors import (CharacteristicUnsupported, CompositionNotZero,
                               PrerequisiteFailed, ShapeMismatch)
from hopfcontra.exactla import (Matrix, combine, kron, rank_of, solve_columns,
                                sparse_kernel, sparse_quotient, split_index)
from hopfcontra.report import Report


def dense_columns(field, rows, columns):
    """The rows x len(columns) matrix with the given sparse {row: scalar} columns."""
    return Matrix.from_entries(field, rows, len(columns),
                               [(i, k, v) for k, col in enumerate(columns) for i, v in col.items()])


def dense_basis(field, basis):
    """An equivariant basis as its dense ambient x dim matrix."""
    return dense_columns(field, basis.ambient, basis.columns)


def rank_kernel_image(m):
    """Exact rank, kernel basis and image basis of a matrix, the bases as
    dense matrices: the kernel is the identity on the free columns, the
    image is the pivot columns of m itself."""
    rref, free, kernel = sparse_kernel(m.field, m.sparse_rows(), m.cols)
    columns = m.sparse_columns()
    image = [columns[min(row)] for row in rref]
    return len(rref), dense_columns(m.field, m.cols, kernel), dense_columns(m.field, m.rows, image)


def quotient_projection(sub):
    """(dim, proj, lift) for the ambient space modulo the column span of
    sub: proj vanishes on the span, lift selects the standard coordinates
    the span misses, and proj @ lift = id."""
    return sparse_quotient(sub.field, sub.sparse_columns(), sub.rows)


def middle_homology(d_in, d_out):
    """dim ker(d_out) - rank(d_in); the composite d_out @ d_in must vanish."""
    if not (d_out @ d_in).is_zero():
        raise CompositionNotZero("d_out @ d_in is not zero")
    return (d_out.cols - rank_of(d_out)) - rank_of(d_in)


def quotient_route_dims(cx, mode="hochschild"):
    """Homology dimensions in degrees 0 .. max_degree - 1 by the routes the
    package replaced: the alternating face sums themselves in mode
    'hochschild'; in mode 'connes' the boundaries pushed to the quotient by
    the image of 1 - (sign) * cyclic operator (cyclic) or restricted to its
    kernel (cocyclic)."""
    if mode not in ("hochschild", "connes"):
        raise ShapeMismatch(f"unknown homology mode {mode!r}")
    F = cx.field
    N = cx.max_degree
    b = {n: combine(F, *cx.faces[n][0].shape,
                    [((-1) ** i, op) for i, op in enumerate(cx.faces[n])])
         for n in range(1, N + 1)}
    if mode == "hochschild":
        return _graded_dims(cx.kind, b, cx.dims, N)
    if F.characteristic != 0:
        raise CharacteristicUnsupported("the cyclic quotient needs characteristic zero")

    def one_minus_lambda(n):
        lam = cx.cyclers[n] if n % 2 == 0 else -cx.cyclers[n]
        return Matrix.identity(F, cx.bases[n].dim) - lam

    bq = {}
    if cx.kind == "cyclic":
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
        ker = {n: rank_kernel_image(one_minus_lambda(n))[1] for n in range(N + 1)}
        for n in range(1, N + 1):
            bq[n] = solve_columns(ker[n], b[n] @ ker[n - 1])
            if bq[n] is None:
                raise CompositionNotZero(
                    f"coboundary leaves the invariant subcomplex at degree {n}", degree=n)
        space_dims = [ker[n].cols for n in range(N + 1)]
    return _graded_dims(cx.kind, bq, space_dims, N)


def _graded_dims(kind, b, space_dims, N):
    # degree 0 is weakly covered: kernel of the first arrow out of (into) it
    out = []
    for n in range(N):
        if n == 0:
            out.append(space_dims[0] - rank_of(b[1]))
        elif kind == "cyclic":
            out.append(middle_homology(b[n + 1], b[n]))
        else:
            out.append(middle_homology(b[n], b[n + 1]))
    return out


def iterated_comul(h, k):
    """Matrix of the k-fold coproduct H -> H^(x)(k+1); k = 0 is the identity.

    Each step expands the last leg, (comul^(k-1) (x) id) . comul, which by
    coassociativity equals the package's first-leg expansion, and keeps every
    intermediate matrix at d^(k+1) x d^2 cells at most.
    """
    out = Matrix.identity(h.field, h.dim)
    for _ in range(k):
        out = kron(out, Matrix.identity(h.field, h.dim)) @ h.comul
    return out


def product_of_coproducts(h):
    """Delta(e_i) Delta(e_j) as columns (i, j): kron(mul, mul) after the
    four-fold tensor (comul (x) comul) with its middle legs swapped."""
    F, d = h.field, h.dim
    terms = h.comul_terms(1)
    mid_swapped = Matrix.from_entries(F, d ** 4, d * d, [
        (((a * d + c) * d + b) * d + e, i * d + j, v * w)
        for i in range(d) for j in range(d)
        for ((a, b), v) in terms[i] for ((c, e), w) in terms[j]])
    return kron(h.mul, h.mul) @ mid_swapped


def hom_precompose(g, dm):
    """Hom(X, M) -> Hom(X', M), f -> f . g for g: X' -> X."""
    return kron(g.transpose(), Matrix.identity(g.field, dm))


def alpha_route(alpha, w, dh, dxp, dm):
    """Hom(X, M) -> Hom(X', M) sending f to xi -> alpha(h -> f(w(h (x) xi)))."""
    pre = hom_precompose(w, dm)
    # re-curry Hom(H (x) X', M) to Hom(X', Hom(H, M)): row (h, x, m) moves to (x, h, m)
    rows = [None] * pre.rows
    for old in range(pre.rows):
        h, x, s = split_index(old, (dh, dxp, dm))
        rows[(x * dh + h) * dm + s] = pre.data[old]
    curried = Matrix(pre.field, pre.rows, pre.cols, rows)
    return kron(Matrix.identity(alpha.field, dxp), alpha) @ curried


def rotation(x, n, cyclic):
    """w: H (x) X^(n+1) -> X^(n+1), entry by entry from its definition:
    h x0..xn goes to x1..xn (h.x0) for cyclic, (h.xn) x0..x(n-1) otherwise."""
    dh, dx, legs = x.hopf.dim, x.dim, n + 1
    w = Matrix.zeros(x.field, dx ** legs, dh * dx ** legs)
    for col in range(w.cols):
        h, *xs = split_index(col, (dh,) + (dx,) * legs)
        moved, kept = (xs[0], xs[1:]) if cyclic else (xs[-1], xs[:-1])
        for z in range(dx):
            a = x.matrices[h].data[z][moved]
            if a:
                out = kept + [z] if cyclic else [z] + kept
                row = 0
                for digit in out:
                    row = row * dx + digit
                w.data[row][col] = a
    return w


def dense_operators(kind, data, m, top):
    """Every ambient operator of the complex up to degree top, as
    (name, degree, index, operator, source degree, target degree), with the
    names, degrees and indices of CyclicComplexData."""
    cyclic = kind == "cyclic"
    x = data.action
    F, dh, dx, dm = x.field, x.hopf.dim, x.dim, m.dim
    if cyclic:
        g, e = data.coalgebra.comul, data.coalgebra.counit
    else:
        g, e = data.algebra.mul, data.algebra.unit
    alpha = m.alpha.alpha

    def eye(k):
        return Matrix.identity(F, dx ** k)

    def inner(i, u, k):
        return kron(eye(i), kron(u, eye(k)))

    def routed(w):
        return alpha_route(alpha, w, dh, w.cols // dh, dm)

    def arrow(n, k):
        # cyclic operators run from degree n to k, cocyclic ones from k to n
        return (n, k) if cyclic else (k, n)

    for n in range(top + 1):
        rot = rotation(x, n, cyclic)
        yield ("cyclic operator", n, None, routed(rot)) + arrow(n, n)
        if n:
            for i in range(n):
                yield ("face", n, i, hom_precompose(inner(i, g, n - 1 - i), dm)) + arrow(n, n - 1)
            g0 = inner(0, g, n - 1)
            w = rot @ kron(Matrix.identity(F, dh), g0) if cyclic else g0 @ rot
            yield ("face", n, n, routed(w)) + arrow(n, n - 1)
        if n < top:
            for j in range(n + 1):
                yield (("degeneracy", n, j, hom_precompose(inner(j + 1, e, n - j), dm))
                       + arrow(n, n + 1))


def hom_bimodule_actions(a, m):
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
        right_ops.append(alpha_route(alpha, w, dh, da, dm))
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


def twisted_left_action(h, n):
    """Operators on H^(x)n of the twisting h.(u (x) x) = h_(1) u Sinv(h_(3)) (x) h_(2) x
    (n = 2) and its transport to more factors: with the 2n-1 legs of the
    (2n-2)-fold coproduct, factor i < n-1 is L(leg i) R(Sinv(leg 2n-2-i)) and
    the last factor is L(leg n-1)."""
    L = h.left_mult()

    def term(legs):
        op = L[legs[n - 1]]
        for i in reversed(range(n - 1)):
            twist = h.mult_by(h.antipode_inv_of(legs[2 * n - 2 - i]), "right")
            op = kron(L[legs[i]] @ twist, op)
        return op

    size = h.dim ** n
    return [combine(h.field, size, size, [(coeff, term(legs)) for legs, coeff in terms])
            for terms in h.comul_terms(2 * n - 2)]


def dense_check_coring(c):
    """The coring laws of `homconn.check_coring`, each side a full matrix."""
    rep = Report("coring structure")
    h = c.hopf
    F = h.field
    d = h.dim
    dc = c.dim
    L = h.left_mult()
    R = h.right_mult()
    I_d = Matrix.identity(F, d)
    I_c = Matrix.identity(F, dc)

    def combo(ops, i, j):
        return combine(F, dc, dc, zip(h.mul.col(i * d + j), ops))

    for i in range(d):
        for j in range(d):
            rep.compare(f"left action multiplicative at ({i},{j})",
                        c.left_action[i] @ c.left_action[j], combo(c.left_action, i, j))
            rep.compare(f"right action multiplicative at ({i},{j})",
                        c.right_action[j] @ c.right_action[i], combo(c.right_action, i, j))
            rep.compare(f"actions commute at ({i},{j})",
                        c.left_action[i] @ c.right_action[j],
                        c.right_action[j] @ c.left_action[i])
    unit = h.unit.col(0)
    rep.compare("left action unital", combine(F, dc, dc, zip(unit, c.left_action)), I_c)
    rep.compare("right action unital", combine(F, dc, dc, zip(unit, c.right_action)), I_c)

    three = twisted_left_action(h, 3)
    for a in range(d):
        rep.compare(f"counit left linear at basis {a}",
                    c.counit @ c.left_action[a], L[a] @ c.counit)
        rep.compare(f"counit right linear at basis {a}",
                    c.counit @ c.right_action[a], R[a] @ c.counit)
        rep.compare(f"coproduct left linear at basis {a}",
                    c.coproduct @ c.left_action[a], three[a] @ c.coproduct)
        rep.compare(f"coproduct right linear at basis {a}",
                    c.coproduct @ c.right_action[a],
                    kron(Matrix.identity(F, d * d), R[a]) @ c.coproduct)
    rep.compare("coassociativity",
                kron(h.comul, Matrix.identity(F, d * d)) @ c.coproduct,
                kron(I_d, c.coproduct) @ c.coproduct,
                row_dims=(d, d, d, d), col_dims=(d, d))
    rep.compare("left counit law",
                kron(h.counit, Matrix.identity(F, d * d)) @ c.coproduct, I_c,
                col_dims=(d, d))
    rep.compare("right counit law",
                kron(I_d, c.counit) @ c.coproduct, I_c, col_dims=(d, d))
    rep.compare("grouplike coproduct",
                c.coproduct @ c.grouplike, kron(h.unit, kron(h.unit, h.unit)),
                row_dims=(d, d, d))
    rep.compare("grouplike counit", c.counit @ c.grouplike, h.unit, row_dims=(d,))
    return rep


def dense_degree_maps(h, incl, proj_plus):
    """(d0, d1, omega1_act) of the calculus on the counit kernel with the given
    inclusion and projection, through the dense raw maps: T(h) =
    h_(1) Sinv(h_(3)) (x) h_(2) from the iterated coproduct, the raw degree two
    map on H (x) H (x) H and the twisted action restricted to Hplus (x) H."""
    F = h.field
    d = h.dim
    I_d = Matrix.identity(F, d)
    L = h.left_mult()
    T = Matrix.from_entries(F, d * d, d, (
        (r * d + c, a, coeff * v)
        for a, terms in enumerate(h.comul_terms(2)) for ((b, c, dd), coeff) in terms
        for r, v in enumerate(
            (h.mult_by(h.antipode_inv_of(dd), "right") @ L[b] @ h.unit).col(0))))
    d0 = kron(proj_plus, I_d) @ (kron(h.unit, I_d) - T)
    raw1 = (kron(h.unit, Matrix.identity(F, d * d))
            - kron(h.comul, I_d)
            + kron(I_d, T)) @ kron(incl, I_d)
    d1 = kron(proj_plus, kron(proj_plus, I_d)) @ raw1
    omega1_act = [kron(proj_plus, I_d) @ op @ kron(incl, I_d)
                  for op in twisted_left_action(h, 2)]
    return d0, d1, omega1_act
