"""Exact linear algebra over the rationals and prime fields.

Scalars are `fractions.Fraction` over the rationals and least nonnegative
residues (plain ints) over GF(p).  No floating point anywhere.

`Matrix` is the one matrix type, and this is the only module that knows
how it is stored (densely, row-major) and how a sparse vector is written
(a {index: scalar} dict of nonzero canonical scalars, `sparse_vector`).
Other modules read a matrix through `entry`, `col`, `nonzero_entries` and
the sparse views `sparse_rows` and `sparse_columns`, compare two with
`first_difference`, and write one through `from_entries`, which adds the
scalars given at a repeated position.

There is one elimination: the reduced row echelon form of {column: scalar}
rows behind `sparse_kernel`, which returns its kernel as sparse columns.
Ranks (`rank_of`), kernels, solves, inverses and quotient projections all
read their results off it, and systems that are almost all zeros, like the
H-linearity constraints of an equivariant hom space or the relations of a
tensor product over H, are written to it as sparse rows directly
(`sparse_kernel`, `sparse_quotient`).  Homology needs ranks only.

There is one sum: `combine` adds scaled matrices, visiting only their
nonzero entries.  `+`, `-`, negation and `scale` call it, and so does
every Sweedler-leg sum of structure operators in the other modules.
`combine`, `from_entries` and `@` collect their sums in per-row dicts and
share one reduction, so every sum is reduced mod p once.  The operators of
the hom complexes are not built here: `cyclic` applies them to sparse basis
columns and hands over only their restrictions.

Basis conventions, fixed once and used by every other module:

* a basis of V (x) W is v_i (x) w_j ordered with the left index major,
  so the pair (i, j) sits at flat position i*dim(W) + j;
* a linear map f: V -> W is stored as a rows(W) x cols(V) matrix, and its
  vectorisation in Hom(V, W) = V* (x) W puts the dual index first:
  coordinate j*dim(W) + i holds the matrix entry f[i][j].
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    FieldMismatch,
    ShapeMismatch,
    Singular,
)


# Miller-Rabin with the first 13 prime bases decides primality exactly below
# MODULUS_LIMIT (Sorenson and Webster, 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MODULUS_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; exact for n < MODULUS_LIMIT."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """The rationals (p is None) or the prime field GF(p)."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None and p >= MODULUS_LIMIT:
            raise ValueError(f"modulus {p} is too large; primality is decided "
                             f"only below {MODULUS_LIMIT}")
        if p is not None and not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    @property
    def characteristic(self):
        return 0 if self.p is None else self.p

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def coerce(self, value):
        """Bring an int / Fraction / scalar string into canonical form."""
        if self.p is None:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            if isinstance(value, str):
                return Fraction(value.strip())
            raise TypeError(f"cannot coerce {value!r} into the rationals")
        if isinstance(value, str):
            value = int(value.strip(), 10)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        if isinstance(value, int):
            return value % self.p
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    def invert(self, value):
        if self.p is None:
            if value == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / Fraction(value)
        if value % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(value, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(("FieldSpec", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = FieldSpec()


def GF(p) -> FieldSpec:
    return FieldSpec(p)


class Matrix:
    """Dense row-major matrix over a FieldSpec.  Treated as immutable."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows, cols, data):
        # data is adopted, not copied; constructors below build fresh lists
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        data = [[z] * n for _ in range(n)]
        for i in range(n):
            data[i][i] = o
        return cls(field, n, n, data)

    @classmethod
    def from_rows(cls, field, rows_list):
        data = [[field.coerce(v) for v in row] for row in rows_list]
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ShapeMismatch("ragged rows")
        return cls(field, len(data), cols, data)

    @classmethod
    def from_entries(cls, field, rows, cols, entries):
        """Build from sparse (row, col, scalar) triples; the scalars given at
        a repeated position add up, and each sum is brought into canonical
        form once."""
        acc = [{} for _ in range(rows)]
        for i, j, v in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch(f"entry ({i},{j}) outside {rows}x{cols}")
            out = acc[i]
            out[j] = out[j] + v if j in out else v
        return _from_row_sums(field, rows, cols, acc)

    # -- basic queries ------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i, j):
        return self.data[i][j]

    def col(self, j):
        return [row[j] for row in self.data]

    def is_zero(self):
        return all(not v for row in self.data for v in row)

    def nonzero_entries(self):
        return [
            (i, j, v)
            for i, row in enumerate(self.data)
            for j, v in enumerate(row)
            if v
        ]

    def sparse_rows(self):
        """Row i as the {column: scalar} dict of its nonzero entries."""
        return [{j: v for j, v in enumerate(row) if v} for row in self.data]

    def sparse_columns(self):
        """Column j as the {row: scalar} dict of its nonzero entries."""
        cols = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, v in enumerate(row):
                if v:
                    cols[j][i] = v
        return cols

    def first_difference(self, other):
        """The first (row, col), in row-major order, where two matrices of
        one shape differ, or None when they are equal."""
        for i, (lrow, rrow) in enumerate(zip(self.data, other.data)):
            if lrow != rrow:
                return i, next(j for j, (a, b) in enumerate(zip(lrow, rrow)) if a != b)
        return None

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"

    # -- arithmetic ---------------------------------------------------

    def _check_same_field(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def __add__(self, other):
        return combine(self.field, self.rows, self.cols, [(1, self), (1, other)])

    def __sub__(self, other):
        return combine(self.field, self.rows, self.cols, [(1, self), (-1, other)])

    def __neg__(self):
        return combine(self.field, self.rows, self.cols, [(-1, self)])

    def scale(self, scalar):
        return combine(self.field, self.rows, self.cols, [(scalar, self)])

    def __matmul__(self, other):
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.shape} @ {other.shape}")
        bdata = other.data
        acc = [{} for _ in range(self.rows)]
        for out, arow in zip(acc, self.data):
            for k, a in enumerate(arow):
                if a:
                    for j, b in enumerate(bdata[k]):
                        if b:
                            out[j] = out[j] + a * b if j in out else a * b
        return _from_row_sums(self.field, self.rows, other.cols, acc)

    def transpose(self):
        data = [
            [self.data[i][j] for i in range(self.rows)] for j in range(self.cols)
        ]
        return Matrix(self.field, self.cols, self.rows, data)


def hstack(matrices):
    first = matrices[0]
    if any(m.rows != first.rows or m.field != first.field for m in matrices):
        raise ShapeMismatch("hstack needs equal row counts over one field")
    data = [
        [v for m in matrices for v in m.data[i]]
        for i in range(first.rows)
    ]
    return Matrix(first.field, first.rows, sum(m.cols for m in matrices), data)


def vstack(matrices):
    first = matrices[0]
    if any(m.cols != first.cols or m.field != first.field for m in matrices):
        raise ShapeMismatch("vstack needs equal column counts over one field")
    data = [row[:] for m in matrices for row in m.data]
    return Matrix(first.field, sum(m.rows for m in matrices), first.cols, data)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; the left factor's index is major on both sides."""
    a._check_same_field(b)
    p = a.field.p
    z = a.field.zero
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = [[z] * cols for _ in range(rows)]
    for i1, arow in enumerate(a.data):
        for j1, av in enumerate(arow):
            if not av:
                continue
            rbase = i1 * b.rows
            cbase = j1 * b.cols
            for i2, brow in enumerate(b.data):
                orow = out[rbase + i2]
                if p is None:
                    for j2, bv in enumerate(brow):
                        if bv:
                            orow[cbase + j2] = av * bv
                else:
                    for j2, bv in enumerate(brow):
                        if bv:
                            orow[cbase + j2] = (av * bv) % p
    return Matrix(a.field, rows, cols, out)


def combine(field, rows, cols, terms) -> Matrix:
    """The sum of c * m over (scalar, Matrix) terms, as a dense rows x cols
    matrix; with no terms it is the zero matrix.

    Only the nonzero entries of each term are visited, zero scalars are
    skipped, and the sums are reduced as in `from_entries`.
    """
    acc = [{} for _ in range(rows)]
    for c, m in terms:
        if m.field != field:
            raise FieldMismatch(f"{field!r} vs {m.field!r}")
        if m.shape != (rows, cols):
            raise ShapeMismatch(f"{m.shape} in a sum of {rows}x{cols} matrices")
        c = field.coerce(c)
        if not c:
            continue
        one = c == 1
        for out, row in zip(acc, m.data):
            for j, v in enumerate(row):
                if v:
                    w = v if one else c * v
                    out[j] = out[j] + w if j in out else w
    return _from_row_sums(field, rows, cols, acc)


def _from_row_sums(field, rows, cols, acc):
    """Dense matrix from per-row {column: sum} dicts, each sum brought into
    the field's canonical type (reduced mod p over GF(p)) once; zeros too
    are canonical."""
    coerce = field.coerce
    z = field.zero
    data = [[z] * cols for _ in range(rows)]
    for drow, out in zip(data, acc):
        for j, v in out.items():
            v = coerce(v)
            if v:
                drow[j] = v
    return Matrix(field, rows, cols, data)


def sparse_vector(field, sums):
    """The nonzero entries of a {index: sum} dict whose sums are products
    and sums of canonical scalars, reduced mod p over GF(p)."""
    p = field.p
    if p is None:
        return {i: v for i, v in sums.items() if v}
    return {i: r for i, v in sums.items() if (r := v % p)}


def split_index(flat, dims):
    """Split a flat tensor index into per-slot digits, left slot major."""
    digits = []
    for d in reversed(dims):
        flat, r = divmod(flat, d)
        digits.append(r)
    digits.reverse()
    return digits


def tensor_permutation(field, dims, perm) -> Matrix:
    """Permutation matrix rearranging tensor slots.

    Output slot s carries input slot perm[s]; dims are the input slot
    dimensions.  tensor_permutation(F, (a, b), (1, 0)) is the swap
    V(x)W -> W(x)V.
    """
    k = len(dims)
    if sorted(perm) != list(range(k)):
        raise ShapeMismatch(f"{perm} is not a permutation of 0..{k - 1}")
    total = 1
    for d in dims:
        total *= d
    entries = []
    for flat_in in range(total):
        digits = split_index(flat_in, dims)
        flat_out = 0
        for s in perm:
            flat_out = flat_out * dims[s] + digits[s]
        entries.append((flat_out, flat_in, 1))
    return Matrix.from_entries(field, total, total, entries)


# -- elimination ------------------------------------------------------
#
# Every rank, kernel, solve and quotient below comes from one reduced row
# echelon form of sparse {column: scalar} rows.  That form is unique, so
# pivot columns, the kernel that is the identity on the free columns, the
# solution of a @ X = b and the projection onto a fixed complement do not
# depend on the order in which rows arrive.

def _rref(field, rows):
    """Reduced row echelon form of sparse rows, as {pivot column: row}.

    Each row is a {column: scalar} dict of nonzero field scalars.  Rows are
    taken one at a time against a fully reduced pivot set: a new row loses
    its entries at the pivot columns, takes its leftmost remaining column as
    pivot (scaled to one), and that column is cleared from the earlier pivot
    rows.
    """
    p = field.p
    pivots = {}
    for given in rows:
        row = dict(given)
        for c in [c for c in row if c in pivots]:
            _axpy(row, -row.pop(c), pivots[c], c, p)
        if not row:
            continue
        c = min(row)
        inv = field.invert(row[c])
        row = {j: v * inv if p is None else v * inv % p for j, v in row.items()}
        for prow in pivots.values():
            if c in prow:
                _axpy(prow, -prow.pop(c), row, c, p)
        pivots[c] = row
    return pivots


def _axpy(row, factor, other, skip, p):
    """row += factor * other in place, leaving out column `skip`; zeros drop."""
    for j, v in other.items():
        if j == skip:
            continue
        w = row.get(j, 0) + factor * v
        if p is not None:
            w %= p
        if w:
            row[j] = w
        else:
            row.pop(j, None)


def sparse_kernel(field, rows, ncols):
    """Reduced row echelon form of sparse rows, and the kernel it fixes.

    Returns (rref, free, kernel): rref lists the pivot rows by pivot column,
    free lists the other columns in increasing order, and kernel lists the
    basis of the kernel that is the identity on the free columns, as sparse
    columns: column f is one at f and minus row[f] at each rref row's pivot.
    """
    p = field.p
    pivots = _rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    kernel = {f: {f: field.one} for f in free}
    rref = [pivots[c] for c in sorted(pivots)]
    for row in rref:
        c = min(row)
        for f, v in row.items():
            if f != c:
                kernel[f][c] = -v if p is None else -v % p
    return rref, free, [kernel[f] for f in free]


def rank_of(m: Matrix) -> int:
    return len(_rref(m.field, m.sparse_rows()))


def solve_columns(a: Matrix, b: Matrix):
    """Solve a @ X = b for X, or return None when inconsistent.

    Requires the columns of `a` to be linearly independent, which makes any
    solution unique.  X is read off the reduced row echelon form of [a | b].
    """
    a._check_same_field(b)
    if a.rows != b.rows:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    n = a.cols
    pivots = _rref(a.field, hstack([a, b]).sparse_rows())
    if any(c >= n for c in pivots):
        return None
    if len(pivots) != n:
        raise Singular("coefficient columns are dependent; solution not unique")
    z = a.field.zero
    data = [[pivots[i].get(n + k, z) for k in range(b.cols)] for i in range(n)]
    return Matrix(a.field, n, b.cols, data)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ShapeMismatch(f"inverse of non-square {m.shape}")
    sol = solve_columns(m, Matrix.identity(m.field, m.rows))
    if sol is None:
        raise Singular("matrix is not invertible")
    return sol


def sparse_quotient(field, rows, ambient):
    """Projection data for k^ambient modulo the span of sparse {coordinate:
    scalar} rows, which may be dependent.

    Returns (dim, proj, lift).  The free columns of the reduced echelon form
    of the rows are the standard coordinates the span misses; lift is the
    ambient x dim section that selects them, and proj, the transpose of the
    kernel of the rows, is the dim x ambient projection that vanishes on the
    span with proj @ lift = id.
    """
    _, free, kernel = sparse_kernel(field, rows, ambient)
    proj = Matrix.from_entries(field, len(free), ambient, (
        (k, i, v) for k, col in enumerate(kernel) for i, v in col.items()))
    lift = Matrix.from_entries(field, ambient, len(free), [(i, k, 1) for k, i in enumerate(free)])
    return len(free), proj, lift
