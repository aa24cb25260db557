"""Exact linear algebra over the rationals and prime fields.

Scalars are `fractions.Fraction` over the rationals and least nonnegative
residues (plain ints) over GF(p).  No floating point anywhere.

`Matrix` stores its entries densely, and its elimination (fraction-free
Bareiss over the rationals, plain row reduction mod p) works on dense
copies.  Systems that are almost all zeros, like the H-linearity
constraints of an equivariant hom space, go to `sparse_kernel` instead,
which keeps its rows as {column: scalar} dicts.

Basis conventions, fixed once and used by every other module:

* a basis of V (x) W is v_i (x) w_j ordered with the left index major,
  so the pair (i, j) sits at flat position i*dim(W) + j;
* a linear map f: V -> W is stored as a rows(W) x cols(V) matrix, and its
  vectorisation in Hom(V, W) = V* (x) W puts the dual index first:
  coordinate j*dim(W) + i holds the matrix entry f[i][j].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    CompositionNotZero,
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
    def kind(self):
        return "Rationals" if self.p is None else "PrimeField"

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

    def format(self, value) -> str:
        return str(value)

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
        """Build from sparse (row, col, scalar) triples."""
        m = cls.zeros(field, rows, cols)
        for i, j, v in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch(f"entry ({i},{j}) outside {rows}x{cols}")
            m.data[i][j] = field.coerce(v)
        return m

    @classmethod
    def column(cls, field, values):
        return cls(field, len(values), 1, [[field.coerce(v)] for v in values])

    @classmethod
    def row(cls, field, values):
        return cls(field, 1, len(values), [[field.coerce(v) for v in values]])

    @classmethod
    def basis_column(cls, field, n, i):
        m = cls.zeros(field, n, 1)
        m.data[i][0] = field.one
        return m

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

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, tuple(map(tuple, self.data))))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"

    # -- arithmetic ---------------------------------------------------

    def _check_same_field(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def __add__(self, other):
        self._check_same_field(other)
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} + {other.shape}")
        p = self.field.p
        if p is None:
            data = [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        else:
            data = [
                [(a + b) % p for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        return Matrix(self.field, self.rows, self.cols, data)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        p = self.field.p
        if p is None:
            data = [[-a for a in row] for row in self.data]
        else:
            data = [[(-a) % p for a in row] for row in self.data]
        return Matrix(self.field, self.rows, self.cols, data)

    def scale(self, scalar):
        c = self.field.coerce(scalar)
        p = self.field.p
        if p is None:
            data = [[c * a for a in row] for row in self.data]
        else:
            data = [[(c * a) % p for a in row] for row in self.data]
        return Matrix(self.field, self.rows, self.cols, data)

    def __matmul__(self, other):
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.shape} @ {other.shape}")
        p = self.field.p
        z = self.field.zero
        m, n = self.rows, other.cols
        out = [[z] * n for _ in range(m)]
        bdata = other.data
        for i, arow in enumerate(self.data):
            orow = out[i]
            for k, a in enumerate(arow):
                if a:
                    brow = bdata[k]
                    for j, b in enumerate(brow):
                        if b:
                            orow[j] = orow[j] + a * b
            if p is not None:
                out[i] = [v % p for v in orow]
        return Matrix(self.field, m, n, out)

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
    new_to_old = tensor_permutation_map(dims, perm)
    return permute_rows(Matrix.identity(field, len(new_to_old)), new_to_old)


def tensor_permutation_map(dims, perm):
    """Row map of tensor_permutation: new_to_old[flat_out] = flat_in.

    Lets callers apply large slot permutations by row reindexing instead of
    multiplying by an explicit permutation matrix.
    """
    k = len(dims)
    if sorted(perm) != list(range(k)):
        raise ShapeMismatch(f"{perm} is not a permutation of 0..{k - 1}")
    total = 1
    for d in dims:
        total *= d
    out_dims = [dims[perm[s]] for s in range(k)]
    new_to_old = [0] * total
    for flat_in in range(total):
        digits = split_index(flat_in, dims)
        flat_out = 0
        for s in range(k):
            flat_out = flat_out * out_dims[s] + digits[perm[s]]
        new_to_old[flat_out] = flat_in
    return new_to_old


def permute_rows(m: Matrix, new_to_old) -> Matrix:
    """The matrix whose row i is row new_to_old[i] of m."""
    if len(new_to_old) != m.rows:
        raise ShapeMismatch(f"row map of length {len(new_to_old)} on {m.rows} rows")
    data = [list(m.data[old]) for old in new_to_old]
    return Matrix(m.field, m.rows, m.cols, data)


def permute_cols(m: Matrix, new_to_old) -> Matrix:
    """Precompose m with the permutation whose row map is new_to_old.

    Equals m @ permute_rows(identity, new_to_old): column new_to_old[k] of
    the result is column k of m.
    """
    if len(new_to_old) != m.cols:
        raise ShapeMismatch(f"column map of length {len(new_to_old)} on {m.cols} cols")
    out = Matrix.zeros(m.field, m.rows, m.cols)
    for i in range(m.rows):
        src = m.data[i]
        dst = out.data[i]
        for k, j in enumerate(new_to_old):
            dst[j] = src[k]
    return out


@dataclass(frozen=True)
class Subspace:
    """A subspace of k^ambient_dim, spanned by the columns of `basis`."""

    ambient_dim: int
    basis: Matrix

    @property
    def dim(self):
        return self.basis.cols

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
            raise ShapeMismatch(
                f"basis lives in dim {self.basis.rows}, ambient is {self.ambient_dim}"
            )


# -- elimination ------------------------------------------------------

def _integerize_rows(data):
    """Scale each row of a Fraction matrix to coprime integers (row ops only)."""
    out = []
    for row in data:
        mult = 1
        for v in row:
            if v:
                mult = lcm(mult, v.denominator)
        ints = [int(v * mult) for v in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _echelon_int(rows, ncols):
    """Fraction-free (Bareiss) row echelon on integer rows, in place.

    Returns the pivot column list; after the call rows[r] is the echelon row
    with pivot at pivots[r].  Division-free pivoting prefers small pivots so
    entries stay near machine size on the sparse systems we feed it.
    """
    pivots = []
    prev = 1
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        if r >= nrows:
            break
        best = -1
        best_abs = None
        for i in range(r, nrows):
            v = rows[i][c]
            if v:
                a = -v if v < 0 else v
                if best_abs is None or a < best_abs:
                    best, best_abs = i, a
                    if a == 1:
                        break
        if best < 0:
            continue
        if best != r:
            rows[r], rows[best] = rows[best], rows[r]
        pr = rows[r]
        pv = pr[c]
        for i in range(r + 1, nrows):
            ri = rows[i]
            vic = ri[c]
            if vic:
                for j in range(c + 1, ncols):
                    ri[j] = (ri[j] * pv - vic * pr[j]) // prev
                ri[c] = 0
            elif pv != prev:
                # Bareiss update with a zero multiplier is a pure rescale
                if pv == -prev:
                    for j in range(c + 1, ncols):
                        if ri[j]:
                            ri[j] = -ri[j]
                else:
                    for j in range(c + 1, ncols):
                        if ri[j]:
                            ri[j] = ri[j] * pv // prev
        prev = pv
        pivots.append(c)
        r += 1
    return pivots


def _echelon_gf(rows, ncols, p):
    """Naive row echelon mod p, in place; returns pivot columns."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        if r >= nrows:
            break
        piv = -1
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        inv = pow(pr[c], -1, p)
        for j in range(c, ncols):
            pr[j] = pr[j] * inv % p
        for i in range(r + 1, nrows):
            ri = rows[i]
            vic = ri[c]
            if vic:
                for j in range(c, ncols):
                    ri[j] = (ri[j] - vic * pr[j]) % p
        pivots.append(c)
        r += 1
    return pivots


def _echelon(m: Matrix):
    """Row echelon copy of m; returns (rows, pivot column list)."""
    if m.field.p is None:
        rows = _integerize_rows(m.data)
        pivots = _echelon_int(rows, m.cols)
    else:
        rows = [row[:] for row in m.data]
        pivots = _echelon_gf(rows, m.cols, m.field.p)
    return rows, pivots


def _kernel_from_echelon(field, rows, pivots, ncols) -> Matrix:
    """Kernel basis by back-substitution; one column per free column."""
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    rank = len(pivots)
    cols = []
    for fc in free:
        x = [field.zero] * ncols
        x[fc] = field.one
        for r in range(rank - 1, -1, -1):
            pc = pivots[r]
            if pc > fc:
                continue
            acc = field.zero
            row = rows[r]
            for j in range(pc + 1, ncols):
                if row[j] and x[j]:
                    acc += field.coerce(row[j]) * x[j]
            if acc:
                x[pc] = field.coerce(-acc / field.coerce(row[pc])
                                     if field.p is None
                                     else -acc * field.invert(row[pc]))
            else:
                x[pc] = field.zero
        cols.append(x)
    data = [[cols[k][i] for k in range(len(free))] for i in range(ncols)]
    return Matrix(field, ncols, len(free), data)


def rank_kernel_image(m: Matrix):
    """Exact rank, kernel basis, and image basis of a matrix.

    rank + dim kernel = cols always; kernel vectors satisfy m @ v = 0
    exactly; the image basis is the pivot columns of m itself.
    """
    rows, pivots = _echelon(m)
    rank = len(pivots)
    kernel = Subspace(m.cols, _kernel_from_echelon(m.field, rows, pivots, m.cols))
    img_data = [[m.data[i][c] for c in pivots] for i in range(m.rows)]
    image = Subspace(m.rows, Matrix(m.field, m.rows, rank, img_data))
    return rank, kernel, image


def rank_of(m: Matrix) -> int:
    _, pivots = _echelon(m)
    return len(pivots)


def sparse_kernel(field, rows, ncols):
    """Reduced row echelon form of sparse rows, and the kernel it fixes.

    Each row is a {column: scalar} dict of nonzero field scalars.  Rows are
    taken one at a time against a fully reduced pivot set: a new row loses
    its entries at the pivot columns, takes its leftmost remaining column as
    pivot (scaled to one), and that column is cleared from the earlier pivot
    rows.  The pivot rows are then the unique reduced row echelon form of
    the input, whatever the row order, so the free columns are the non-pivot
    columns of rank_kernel_image and the kernel equals its kernel.

    Returns (rref, free, kernel): rref lists the pivot rows by pivot column,
    free lists the other columns in increasing order, and kernel is the
    dense ncols x len(free) basis that is the identity on the free columns
    and minus the rref entries at the pivot columns.
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
    free = [c for c in range(ncols) if c not in pivots]
    index = {c: k for k, c in enumerate(free)}
    data = [[field.zero] * len(free) for _ in range(ncols)]
    for k, c in enumerate(free):
        data[c][k] = field.one
    for c, prow in pivots.items():
        out = data[c]
        for j, v in prow.items():
            if j != c:
                out[index[j]] = -v if p is None else -v % p
    rref = [pivots[c] for c in sorted(pivots)]
    return rref, free, Matrix(field, ncols, len(free), data)


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


def solve_columns(a: Matrix, b: Matrix):
    """Solve a @ X = b for X, or return None when inconsistent.

    Requires the columns of `a` to be linearly independent, which makes any
    solution unique; this is how operators get re-expressed in subspace bases.
    """
    a._check_same_field(b)
    if a.rows != b.rows:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    aug = hstack([a, b])
    rows, pivots = _echelon(aug)
    if any(c >= a.cols for c in pivots):
        return None
    if len(pivots) != a.cols:
        raise Singular("coefficient columns are dependent; solution not unique")
    field = a.field
    n = a.cols
    xcols = []
    for k in range(b.cols):
        bc = a.cols + k
        x = [field.zero] * n
        for r in range(n - 1, -1, -1):
            row = rows[r]
            pc = pivots[r]
            acc = field.coerce(row[bc])
            for j in range(pc + 1, n):
                if row[j] and x[j]:
                    acc -= field.coerce(row[j]) * x[j]
            if acc:
                x[pc] = (acc / field.coerce(row[pc])) if field.p is None \
                    else acc * field.invert(row[pc]) % field.p
        xcols.append(x)
    data = [[xcols[k][i] for k in range(b.cols)] for i in range(n)]
    return Matrix(field, n, b.cols, data)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ShapeMismatch(f"inverse of non-square {m.shape}")
    sol = solve_columns(m, Matrix.identity(m.field, m.rows))
    if sol is None:
        raise Singular("matrix is not invertible")
    return sol


def homology_dims(d_in: Matrix, d_out: Matrix) -> int:
    """dim ker(d_out) - rank(d_in) for consecutive differentials.

    d_in maps into the middle space, d_out maps out of it; the composite
    d_out @ d_in must vanish exactly.
    """
    if d_out.cols != d_in.rows:
        raise ShapeMismatch(
            f"middle space mismatch: d_out has {d_out.cols} cols, d_in has {d_in.rows} rows"
        )
    comp = d_out @ d_in
    for j in range(comp.cols):
        for i in range(comp.rows):
            if comp.data[i][j]:
                raise CompositionNotZero(
                    f"d_out @ d_in nonzero at column {j}", column=j
                )
    return (d_out.cols - rank_of(d_out)) - rank_of(d_in)


def quotient_projection(sub: Matrix):
    """Projection data for ambient / column-span(sub).

    Returns (dim, proj, lift): proj is a dim x ambient matrix, lift is an
    ambient x dim section built from standard basis vectors missed by the
    subspace, and proj @ lift = id.  The columns of `sub` may be dependent;
    they are reduced to a basis first.
    """
    field = sub.field
    ambient = sub.rows
    _, _, img = rank_kernel_image(sub)
    basis = img.basis
    _, pivots = _echelon(basis.transpose())
    # pivot columns of basis^T are the standard coordinates the span covers
    covered = set(pivots)
    complement = [i for i in range(ambient) if i not in covered]
    qdim = len(complement)
    sel = Matrix.zeros(field, ambient, qdim)
    for k, i in enumerate(complement):
        sel.data[i][k] = field.one
    full = hstack([basis, sel])
    inv = solve_columns(full, Matrix.identity(field, ambient))
    if inv is None:
        raise Singular("complement construction failed")
    proj = Matrix(field, qdim, ambient, [inv.data[basis.cols + k] for k in range(qdim)])
    return qdim, proj, sel
