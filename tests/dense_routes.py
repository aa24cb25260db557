"""Dense, ambient-size operators of the hom complexes, kept as oracles.

`hopfcontra.cyclic` applies every face, degeneracy and cyclic operator to
sparse basis columns and never builds one at ambient size.  The routes here
build each operator as a full matrix on Hom(X, M): precomposition with a map
g is kron(g^T, I_M), and the contramodule map is reached through a dense
rotation of the tensor legs, a re-currying permutation and kron(I, alpha).  The hom bimodule of a module algebra, whose
right action takes the same route, lives here too, and so does the dense
iterated coproduct that `HopfData.comul_terms` computes sparsely.
"""

from hopfcontra.ayd import ensure_coefficient_checked
from hopfcontra.cyclic import check_module_algebra
from hopfcontra.errors import PrerequisiteFailed
from hopfcontra.exactla import Matrix, kron, split_index
from hopfcontra.report import Report


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
