"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive: plain Gaussian elimination over
Fraction or a prime modulus, constraint systems assembled entry by entry
with nested loops, and orbit counting by explicit enumeration.  None of it
shares code with the package's linear algebra, so agreement is evidence
rather than tautology.
"""

from fractions import Fraction


def frac_rref(rows):
    """Reduced row echelon form over the rationals by textbook row reduction.

    Returns (reduced rows, pivot columns): the nonzero rows of the reduced
    form, top to bottom, and the column of each row's leading one.
    """
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, n_rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for r in range(n_rows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    return m[:row], pivots


def modp_rref(rows, p):
    """Reduced row echelon form over GF(p) by textbook row reduction.

    Returns (reduced rows, pivot columns) as frac_rref does, with entries
    the least nonnegative residues.
    """
    m = [[v % p for v in row] for row in rows]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, n_rows):
            if m[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = pow(m[row][col], p - 2, p)
        m[row] = [v * inv % p for v in m[row]]
        for r in range(n_rows):
            if r != row and m[r][col]:
                factor = m[r][col]
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    return m[:row], pivots


def frac_rank(rows):
    """Rank over the rationals."""
    return len(frac_rref(rows)[1])


def modp_rank(rows, p):
    """Rank over GF(p)."""
    return len(modp_rref(rows, p)[1])


def rank_of(matrix):
    """Rank of a package Matrix, using only its raw entries."""
    rows = [list(r) for r in matrix.data]
    if matrix.field.p is None:
        return frac_rank(rows)
    return modp_rank(rows, matrix.field.p)


def entry_sums(rows, cols, entries, p=None):
    """Row-major entries of the matrix whose (i, j) entry is the sum of the
    scalars of every (i, j, scalar) triple, over the rationals or mod p."""
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i, j, v in entries:
        out[i][j] = out[i][j] + v
    if p is None:
        return out
    return [[int(v) % p for v in row] for row in out]


def homology_dim(d_in, d_out):
    """dim ker(d_out) - rank(d_in) from two package matrices, by plain ranks."""
    return d_out.cols - rank_of(d_out) - rank_of(d_in)


def intertwiner_dim(x_ops, m_ops, p=None):
    """Dimension of {f : f A_x = A_m f for all paired operators}.

    x_ops[a] and m_ops[a] are raw row-major entry lists; f is an
    (m-rows) x (x-rows) unknown solved entry by entry.
    """
    dx = len(x_ops[0])
    dm = len(m_ops[0])
    rows = []
    for xa, ma in zip(x_ops, m_ops):
        for i in range(dm):
            for j in range(dx):
                row = [0] * (dm * dx)
                for k in range(dx):
                    row[i * dx + k] += xa[k][j]
                for k in range(dm):
                    row[k * dx + j] -= ma[i][k]
                rows.append(row)
    n_unknowns = dm * dx
    r = frac_rank(rows) if p is None else modp_rank(rows, p)
    return n_unknowns - r


def diagonal_power(x_ops, comul, k):
    """Raw entries of the diagonal action on the k-th tensor power, k >= 1.

    x_ops[a] is the row-major operator of Hopf basis element a on X, and
    comul the row-major (d*d) x d coproduct: entry [b*d + c][a] is the
    coefficient of b (x) c in Delta(a).  Each power adds up, entry by entry,
    those coefficients times the Kronecker products of x_ops[b] with the
    previous power of c.
    """
    d = len(x_ops)
    cur = x_ops
    for _ in range(k - 1):
        s = len(cur[0])
        size = len(x_ops[0]) * s
        nxt = []
        for a in range(d):
            acc = [[0] * size for _ in range(size)]
            for b in range(d):
                for c in range(d):
                    coeff = comul[b * d + c][a]
                    if not coeff:
                        continue
                    for i1, row1 in enumerate(x_ops[b]):
                        for j1, x in enumerate(row1):
                            if not x:
                                continue
                            for i2, row2 in enumerate(cur[c]):
                                out = acc[i1 * s + i2]
                                for j2, y in enumerate(row2):
                                    if y:
                                        out[j1 * s + j2] += coeff * x * y
            nxt.append(acc)
        cur = nxt
    return cur


def group_tuple_orbits(order, length):
    """Orbits of the diagonal shift action of Z/order on index tuples."""
    seen = set()
    orbits = 0
    for flat in range(order ** length):
        if flat in seen:
            continue
        orbits += 1
        digits = []
        rem = flat
        for _ in range(length):
            digits.append(rem % order)
            rem //= order
        for shift in range(order):
            moved = 0
            for pos, dgt in enumerate(reversed(digits)):
                moved = moved * order + (dgt + shift) % order
            seen.add(moved)
    return orbits
