"""Exact linear algebra of the benchmark's own, sharing no code with hopfcontra.

Matrices are sparse: a dict from row index to a dict from column index to a
nonzero scalar.  Scalars are Fractions over Q (p is None) or ints mod p.
Ranks come from a plain incremental row reduction.  From the generated
session files alone this module rebuilds the diagonal actions and counts
equivariant maps, so the equivariant dimension tables the program prints are
checked against a computation that never touches `hopfcontra.exactla`.
"""

from __future__ import annotations

from fractions import Fraction

import inputs


class Field:
    def __init__(self, p=None):
        self.p = p

    def scalar(self, value):
        if self.p is None:
            return Fraction(value)
        return int(value) % self.p

    def inv(self, v):
        return 1 / v if self.p is None else pow(v, -1, self.p)

    def norm(self, v):
        return v if self.p is None else v % self.p


def add_into(row, col, value, field):
    v = field.norm(row.get(col, 0) + value)
    if v:
        row[col] = v
    else:
        row.pop(col, None)


def matmul(a, b, field):
    """Product of sparse matrices a @ b."""
    out = {}
    for i, arow in a.items():
        acc = {}
        for k, av in arow.items():
            brow = b.get(k)
            if brow:
                for j, bv in brow.items():
                    add_into(acc, j, av * bv, field)
        if acc:
            out[i] = acc
    return out


def kron(a, b, b_rows, b_cols, field):
    out = {}
    for i1, arow in a.items():
        for i2, brow in b.items():
            row = {}
            for j1, av in arow.items():
                for j2, bv in brow.items():
                    v = field.norm(av * bv)
                    if v:
                        row[j1 * b_cols + j2] = v
            if row:
                out[i1 * b_rows + i2] = row
    return out


def combine(terms, field):
    """Sum of scale * matrix over (scale, matrix) pairs."""
    out = {}
    for s, m in terms:
        for i, row in m.items():
            acc = out.setdefault(i, {})
            for j, v in row.items():
                add_into(acc, j, s * v, field)
    return {i: r for i, r in out.items() if r}


def from_dense(rows, field):
    out = {}
    for i, row in enumerate(rows):
        r = {j: field.scalar(v) for j, v in enumerate(row)}
        r = {j: v for j, v in r.items() if v}
        if r:
            out[i] = r
    return out


def transpose(m):
    out = {}
    for i, row in m.items():
        for j, v in row.items():
            out.setdefault(j, {})[i] = v
    return out


class RowReducer:
    """Incremental row reduction: feed rows, read the rank."""

    def __init__(self, field):
        self.field = field
        self.pivots = {}

    def add(self, row):
        field = self.field
        row = dict(row)
        while row:
            c = min(row)
            piv = self.pivots.get(c)
            if piv is None:
                inv = field.inv(row[c])
                self.pivots[c] = {j: field.norm(v * inv) for j, v in row.items()}
                return True
            f = row[c]
            for j, v in piv.items():
                add_into(row, j, -f * v, field)
        return False

    @property
    def rank(self):
        return len(self.pivots)


def rank(m, field):
    red = RowReducer(field)
    for row in m.values():
        red.add(row)
    return red.rank


def kernel_basis(m, ncols, field):
    """Columns spanning {x : m x = 0}, as a sparse ncols x k matrix."""
    red = RowReducer(field)
    for row in m.values():
        red.add(row)
    piv = dict(red.pivots)
    # back-substitute to the reduced echelon form
    for c in sorted(piv, reverse=True):
        row = piv[c]
        for c2 in sorted(k for k in row if k != c and k in piv):
            f = row.get(c2)
            if f:
                for j, v in piv[c2].items():
                    add_into(row, j, -f * v, field)
    free = [c for c in range(ncols) if c not in piv]
    out = {}
    for k, fc in enumerate(free):
        out.setdefault(fc, {})[k] = field.scalar(1)
        for c, row in piv.items():
            v = row.get(fc)
            if v:
                out.setdefault(c, {})[k] = field.norm(-v)
    return out, len(free)


def identity(n, field):
    return {i: {i: field.scalar(1)} for i in range(n)}


# -- structures rebuilt from the session document ---------------------------

class Hopf:
    def __init__(self, doc, field):
        consts = inputs.hopf_constants(doc["name"]) if "name" in doc else doc
        self.field = field
        self.dim = consts["dim"]
        self.mul = {}
        for i, j, k, s in consts["mul"]:
            add_into(self.mul.setdefault((i, j), {}), k, field.scalar(s), field)
        self.comul = {a: [] for a in range(self.dim)}
        for a, b, c, s in consts["comul"]:
            self.comul[a].append((b, c, field.scalar(s)))
        self.unit = [field.scalar(v) for v in consts["unit"]]
        self.counit = [field.scalar(v) for v in consts["counit"]]
        self.antipode = {}
        for r, c, s in consts["antipode"]:
            add_into(self.antipode.setdefault(c, {}), r, field.scalar(s), field)

    def product(self, u, v):
        """Product of two vectors given as {basis: scalar}."""
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in self.mul.get((i, j), {}).items():
                    add_into(out, k, a * b * c, self.field)
        return out

    def left_mult(self, a):
        out = {}
        for j in range(self.dim):
            for k, c in self.mul.get((a, j), {}).items():
                out.setdefault(k, {})[j] = c
        return out

    def adjoint(self, t):
        """Matrix of z -> t_(1) z S(t_(2))."""
        out = {}
        for z in range(self.dim):
            for b, c, s in self.comul[t]:
                img = self.product(self.product({b: 1}, {z: 1}), self.antipode.get(c, {}))
                for k, v in img.items():
                    add_into(out.setdefault(k, {}), z, s * v, self.field)
        return {i: r for i, r in out.items() if r}


def source_action(session, hopf):
    """(dim, [action matrix per Hopf basis]) of the module (co)algebra."""
    spec = session.get("module_coalgebra") or session.get("module_algebra")
    name = spec["name"]
    if name == "regular":
        return hopf.dim, [hopf.left_mult(a) for a in range(hopf.dim)]
    if name == "trivial":
        return 1, [({0: {0: hopf.counit[a]}} if hopf.counit[a] else {}) for a in range(hopf.dim)]
    if name == "adjoint":
        return hopf.dim, [hopf.adjoint(t) for t in range(hopf.dim)]
    raise ValueError(f"no oracle for module structure {name!r}")


def coefficient_action(coeff, hopf):
    """(dim, [left action matrix per Hopf basis]) of a contramodule coefficient."""
    field = hopf.field
    if coeff.get("name") == "trivial":
        return 1, [({0: {0: hopf.counit[a]}} if hopf.counit[a] else {}) for a in range(hopf.dim)]
    if "character" in coeff:
        vals = [field.scalar(v) for v in coeff["character"]]
        return 1, [({0: {0: v}} if v else {}) for v in vals]
    mats = [{} for _ in range(hopf.dim)]
    for a, r, c, s in coeff["action"]:
        add_into(mats[a].setdefault(r, {}), c, field.scalar(s), field)
    return coeff["dim"], [{i: r for i, r in m.items() if r} for m in mats]


def diagonal_power(hopf, dim, action, k):
    """Action of each Hopf basis element on the k-th tensor power (k >= 1)."""
    cur, size = action, dim
    for _ in range(k - 1):
        cur = [combine([(s, kron(action[b], cur[c], size, size, hopf.field))
                        for b, c, s in hopf.comul[a]], hopf.field)
               for a in range(hopf.dim)]
        size *= dim
    return size, cur


def equivariant_dim(hopf, dx, act_x, dm, act_m):
    """dim of the left H-linear maps X -> M, f stored with f[i][j] at j*dm + i."""
    field = hopf.field
    red = RowReducer(field)
    for a in range(hopf.dim):
        x_t = transpose(act_x[a])
        for j in range(dx):
            for i in range(dm):
                # (f . a) - (a . f) at entry (i, j)
                row = {}
                for l, v in x_t.get(j, {}).items():
                    add_into(row, l * dm + i, v, field)
                for l, v in act_m[a].get(i, {}).items():
                    add_into(row, j * dm + l, -v, field)
                if row:
                    red.add(row)
    return dx * dm - red.rank


def equivariant_dims(session, coeff_id, max_degree, budget):
    """Equivariant dimension table for degrees 0..max_degree, or None when
    some ambient dimension is above the budget."""
    field = Field(session["field"].get("p"))
    hopf = Hopf(session["hopf"], field)
    dx, act = source_action(session, hopf)
    coeff = next(c for c in session["coefficients"] if c["id"] == coeff_id)
    dm, act_m = coefficient_action(coeff, hopf)
    if dx ** (max_degree + 1) * dm > budget:
        return None
    out = []
    for n in range(max_degree + 1):
        size, power = diagonal_power(hopf, dx, act, n + 1)
        out.append(equivariant_dim(hopf, size, power, dm, act_m))
    return out
