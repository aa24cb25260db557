import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfcontra.errors import (CompositionNotZero, FieldMismatch, ShapeMismatch,
                               Singular)
from hopfcontra.exactla import (GF, QQ, Matrix, combine, homology_dims, hstack,
                                inverse, kron, quotient_projection,
                                rank_kernel_image, rank_of, solve_columns,
                                sparse_kernel, split_index, tensor_permutation,
                                vstack)

import oracles
from dense_routes import dense_columns
from oracles import frac_rank, frac_rref, modp_rank, modp_rref, rank_of as oracle_rank

F7 = GF(7)

# small exact scalars; denominators keep the fraction paths honest
q_scalars = st.integers(-5, 5).flatmap(
    lambda n: st.integers(1, 4).map(lambda d: Fraction(n, d)))


def q_matrices(rows, cols):
    return st.lists(
        st.lists(q_scalars, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(lambda data: Matrix(QQ, rows, cols, data))


def gf_matrices(rows, cols):
    return st.lists(
        st.lists(st.integers(0, 6), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(lambda data: Matrix(F7, rows, cols, data))


dims = st.integers(1, 4)


def test_field_kinds():
    assert QQ.characteristic == 0
    assert F7.characteristic == 7
    with pytest.raises(ValueError):
        GF(6)


def test_primality_is_exact_and_fast():
    start = time.perf_counter()
    assert GF(2 ** 61 - 1).characteristic == 2 ** 61 - 1
    assert time.perf_counter() - start < 1.0
    # a Carmichael number, strong pseudoprimes to the first 1, 4 and 9
    # prime bases, and a neighbour of 2^61 - 1
    for composite in (561, 2047, 3215031751, 3825123056546413051, 2 ** 61 + 1):
        with pytest.raises(ValueError):
            GF(composite)
    for n in range(2, 2000):
        prime = all(n % d for d in range(2, int(n ** 0.5) + 1))
        try:
            GF(n)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == prime, n
    with pytest.raises(ValueError, match="too large"):
        GF(10 ** 25)


def test_coerce_round_trip():
    assert QQ.coerce("3/4") == Fraction(3, 4)
    assert F7.coerce(-1) == 6
    assert F7.coerce(7) == 0
    # (p-1) + 1 folds back to zero
    assert (F7.coerce(6) + F7.coerce(1)) % 7 == 0


def test_invert():
    assert QQ.invert(Fraction(2, 3)) == Fraction(3, 2)
    assert F7.invert(3) == 5
    with pytest.raises(ZeroDivisionError):
        F7.invert(0)


def test_known_rank_one_kernel():
    m = Matrix.from_rows(QQ, [[1, 1], [2, 2]])
    rank, kernel, image = rank_kernel_image(m)
    assert rank == 1
    assert kernel.cols == 1
    v = kernel.col(0)
    assert v[0] == -v[1] and v[0] != 0
    assert image.cols == 1


def test_zero_dimensional_matrices():
    a = Matrix.zeros(QQ, 0, 3)
    b = Matrix.zeros(QQ, 3, 0)
    assert (a @ b).shape == (0, 0)
    assert (b @ a).shape == (3, 3)
    assert (b @ a).is_zero()
    rank, kernel, image = rank_kernel_image(a)
    assert rank == 0 and kernel.cols == 3 and image.cols == 0


@settings(max_examples=60)
@given(dims, dims, st.data())
def test_rank_matches_oracle_rationals(r, c, data):
    m = data.draw(q_matrices(r, c))
    rank, kernel, image = rank_kernel_image(m)
    assert rank == frac_rank(m.data)
    assert rank + kernel.cols == c
    assert image.cols == rank
    if kernel.cols:
        assert (m @ kernel).is_zero()


@settings(max_examples=60)
@given(dims, dims, st.data())
def test_rank_matches_oracle_gf7(r, c, data):
    m = data.draw(gf_matrices(r, c))
    rank, kernel, image = rank_kernel_image(m)
    assert rank == modp_rank(m.data, 7)
    assert rank + kernel.cols == c
    if kernel.cols:
        assert (m @ kernel).is_zero()


@settings(max_examples=40)
@given(st.data())
def test_kron_mixed_product(data):
    a_r, a_c, b_r, b_c = (data.draw(st.integers(1, 3)) for _ in range(4))
    inner_a, inner_b = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    a = data.draw(q_matrices(a_r, a_c))
    b = data.draw(q_matrices(b_r, b_c))
    c = data.draw(q_matrices(a_c, inner_a))
    d = data.draw(q_matrices(b_c, inner_b))
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


@settings(max_examples=40)
@given(st.data())
def test_kron_respects_transpose(data):
    a = data.draw(q_matrices(data.draw(dims), data.draw(dims)))
    b = data.draw(q_matrices(data.draw(dims), data.draw(dims)))
    assert kron(a, b).transpose() == kron(a.transpose(), b.transpose())


def test_tensor_permutation_relabels_indices():
    # output slot s carries input slot perm[s]
    p = tensor_permutation(QQ, (2, 3), (1, 0))
    for i in range(2):
        for j in range(3):
            src = Matrix.from_entries(QQ, 6, 1, [(i * 3 + j, 0, 1)])
            dst = p @ src
            assert dst.data[j * 2 + i][0] == 1


@settings(max_examples=30)
@given(st.permutations([0, 1, 2]))
def test_tensor_permutation_agrees_with_slot_relabelling(perm):
    dims3 = (2, 3, 2)
    mat = tensor_permutation(QQ, dims3, tuple(perm))
    for flat_in in range(12):
        digits = split_index(flat_in, dims3)
        out = [digits[s] for s in perm]
        flat_out = (out[0] * dims3[perm[1]] + out[1]) * dims3[perm[2]] + out[2]
        assert mat.col(flat_in) == [Fraction(int(i == flat_out)) for i in range(12)]
    with pytest.raises(ShapeMismatch):
        tensor_permutation(QQ, dims3, (0, 0, 1))


def _mostly_zero(scalars, zero):
    return st.integers(0, 3).flatmap(lambda k: scalars if k == 0 else st.just(zero))


def _fold(field, rows, cols, terms):
    """The old dense route: start from zeros, then add each term scaled."""
    out = Matrix.zeros(field, rows, cols).data
    for c, m in terms:
        c = field.coerce(c)
        for i in range(rows):
            for j in range(cols):
                v = out[i][j] + c * m.data[i][j]
                out[i][j] = v if field.p is None else v % field.p
    return out


@settings(max_examples=60)
@given(st.sampled_from([QQ, F7]), dims, dims, st.data())
def test_combine_matches_dense_fold(field, r, c, data):
    if field == QQ:
        entries, scalars = _mostly_zero(q_scalars, Fraction(0)), q_scalars
    else:
        entries, scalars = _mostly_zero(st.integers(0, 6), 0), st.integers(-9, 9)
    matrix = st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)
    terms = data.draw(st.lists(st.tuples(scalars, matrix.map(
        lambda rows: Matrix(field, r, c, rows))), max_size=4))
    # cancellation: a term and its negative
    if terms and data.draw(st.booleans()):
        terms.append((-field.coerce(terms[0][0]), terms[0][1]))
    got = combine(field, r, c, terms)
    assert got.shape == (r, c)
    assert got.data == _fold(field, r, c, terms)
    canonical = Fraction if field == QQ else int
    assert all(type(v) is canonical for row in got.data for v in row)
    if field == F7:
        assert all(0 <= v < 7 for row in got.data for v in row)


def test_combine_checks_shape_and_field():
    a = Matrix.identity(QQ, 2)
    with pytest.raises(ShapeMismatch):
        combine(QQ, 2, 3, [(1, a)])
    with pytest.raises(FieldMismatch):
        combine(F7, 2, 2, [(1, a)])
    with pytest.raises(ShapeMismatch):
        a + Matrix.identity(QQ, 3)
    with pytest.raises(FieldMismatch):
        a - Matrix.identity(F7, 2)


@settings(max_examples=80)
@given(st.sampled_from([QQ, F7]), dims, dims, st.data())
def test_from_entries_and_sparse_views_against_oracle(field, r, c, data):
    # ints over Q too, and few positions, so that repeats and cancellations occur
    scalars = (st.one_of(q_scalars, st.integers(-3, 3)) if field == QQ
               else st.integers(-9, 9))
    triple = st.tuples(st.integers(0, r - 1), st.integers(0, c - 1), scalars)
    triples = data.draw(st.lists(triple, max_size=12))
    got = Matrix.from_entries(field, r, c, triples)
    assert got.shape == (r, c)
    assert got.data == oracles.entry_sums(r, c, triples, field.p)
    canonical = Fraction if field == QQ else int
    assert all(type(v) is canonical for row in got.data for v in row)
    # the sparse views hold exactly the nonzero entries and round-trip
    rows, cols = got.sparse_rows(), got.sparse_columns()
    assert len(rows) == r and len(cols) == c
    from_rows = [(i, j, v) for i, row in enumerate(rows) for j, v in row.items()]
    from_cols = [(i, j, v) for j, col in enumerate(cols) for i, v in col.items()]
    assert sorted(from_rows) == sorted(from_cols) == got.nonzero_entries()
    assert Matrix.from_entries(field, r, c, from_rows) == got
    assert Matrix.from_entries(field, r, c, from_cols) == got
    # first_difference agrees with a brute-force scan, on near and equal pairs
    other = Matrix.from_entries(field, r, c, triples + data.draw(st.lists(triple, max_size=2)))
    want = next(((i, j) for i in range(r) for j in range(c)
                 if got.data[i][j] != other.data[i][j]), None)
    assert got.first_difference(other) == want
    assert other.first_difference(got) == want
    assert got.first_difference(got) is None
    for i, j in ((r, 0), (0, c), (-1, 0), (0, -1)):
        with pytest.raises(ShapeMismatch):
            Matrix.from_entries(field, r, c, triples + [(i, j, 1)])


def test_stacking():
    a = Matrix.from_rows(QQ, [[1, 2]])
    b = Matrix.from_rows(QQ, [[3, 4]])
    assert vstack([a, b]) == Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert hstack([a, b]) == Matrix.from_rows(QQ, [[1, 2, 3, 4]])


def test_field_mismatch():
    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(F7, 2)
    with pytest.raises(FieldMismatch):
        a @ b


def test_solve_columns_exact_and_none():
    a = Matrix.from_rows(QQ, [[1, 0], [1, 1], [0, 2]])
    x = Matrix.from_rows(QQ, [[Fraction(1, 2)], [3]])
    sol = solve_columns(a, a @ x)
    assert sol == x
    outside = Matrix.from_rows(QQ, [[1], [0], [0]])
    assert solve_columns(a, outside) is None
    dependent = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    with pytest.raises(Singular):
        solve_columns(dependent, Matrix.zeros(QQ, 2, 1))


@settings(max_examples=40)
@given(st.data())
def test_inverse_round_trip(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(q_matrices(n, n))
    if frac_rank(m.data) < n:
        with pytest.raises(Singular):
            inverse(m)
        return
    assert m @ inverse(m) == Matrix.identity(QQ, n)


def test_homology_dims_hand_example():
    # 0 -> Q^2 --0--> Q^2 -> 0 has homology Q^2 in the middle
    z = Matrix.zeros(QQ, 2, 2)
    assert homology_dims(z, z) == 2
    # exact pair: image of the first equals kernel of the second
    d_in = Matrix.from_rows(QQ, [[1], [0]])
    d_out = Matrix.from_rows(QQ, [[0, 1]])
    assert homology_dims(d_in, d_out) == 0
    with pytest.raises(ShapeMismatch):
        homology_dims(Matrix.zeros(QQ, 3, 1), Matrix.zeros(QQ, 1, 2))
    bad_in = Matrix.from_rows(QQ, [[1], [0]])
    bad_out = Matrix.from_rows(QQ, [[1, 0]])
    with pytest.raises(CompositionNotZero) as exc:
        homology_dims(bad_in, bad_out)
    assert exc.value.column == 0


def test_quotient_projection():
    sub = Matrix.from_rows(QQ, [[1], [1], [0]])
    qdim, proj, lift = quotient_projection(sub)
    assert qdim == 2
    assert (proj @ sub).is_zero()
    assert proj @ lift == Matrix.identity(QQ, 2)


@settings(max_examples=40)
@given(st.data())
def test_rank_of_agrees_both_fields(data):
    m = data.draw(gf_matrices(data.draw(dims), data.draw(dims)))
    assert rank_of(m) == oracle_rank(m)


# mostly zero small integers, the shape of H-linearity constraints
sparse_ints = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])


def _entry_reprs(m):
    return [[repr(v) for v in row] for row in m.data]


def _oracle_rref(field, rows):
    if field.p is None:
        return frac_rref(rows)
    return modp_rref(rows, field.p)


def _oracle_kernel(field, reduced, pivots, ncols):
    """Kernel columns that are the identity on the free columns, read off the
    oracle's reduced rows entry by entry."""
    free = [c for c in range(ncols) if c not in pivots]
    zero, one = (Fraction(0), Fraction(1)) if field.p is None else (0, 1)
    data = [[zero] * len(free) for _ in range(ncols)]
    for k, f in enumerate(free):
        data[f][k] = one
        for row, pc in zip(reduced, pivots):
            if row[f]:
                data[pc][k] = -row[f] if field.p is None else -row[f] % field.p
    return free, [[repr(v) for v in row] for row in data]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.data())
def test_sparse_kernel_matches_oracle_rref(r, c, data):
    ints = data.draw(st.lists(st.lists(sparse_ints, min_size=c, max_size=c),
                              min_size=r, max_size=r))
    order = data.draw(st.permutations(range(r)))
    kernel_dims = {}
    for field in (QQ, F7):
        m = Matrix.from_rows(field, ints)
        rows = [{j: v for j, v in enumerate(m.data[i]) if v} for i in order]
        rref, free, kernel = sparse_kernel(field, rows, c)
        reduced, want_pivots = _oracle_rref(field, m.data)
        want_free, want_kernel = _oracle_kernel(field, reduced, want_pivots, c)
        assert free == want_free
        assert _entry_reprs(dense_columns(field, c, kernel)) == want_kernel
        assert rref == [{j: v for j, v in enumerate(row) if v} for row in reduced]
        # reduced echelon: a leading one, zero at every other pivot column
        pivots = [min(row) for row in rref]
        assert pivots == sorted(pivots) == want_pivots
        assert sorted(pivots + free) == list(range(c))
        for pc, row in zip(pivots, rref):
            assert row[pc] == field.one
            assert not any(q in row for q in pivots if q != pc)
        _, via_matrix, _ = rank_kernel_image(m)
        assert _entry_reprs(via_matrix) == want_kernel
        kernel_dims[field] = len(kernel)
    assert kernel_dims[F7] >= kernel_dims[QQ]


def _field_matrices(field, rows, cols):
    return q_matrices(rows, cols) if field.p is None else gf_matrices(rows, cols)


def _joined_rank(field, a, b):
    return len(_oracle_rref(field, [ra + rb for ra, rb in zip(a.data, b.data)])[1])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, F7]), st.integers(1, 5), st.integers(1, 4),
       st.integers(1, 3), st.data())
def test_solve_columns_against_oracle_ranks(field, r, c, k, data):
    a = data.draw(_field_matrices(field, r, c))
    rank = len(_oracle_rref(field, a.data)[1])
    independent = rank == c
    x = data.draw(_field_matrices(field, c, k))
    if independent:
        assert solve_columns(a, a @ x) == x
    else:
        with pytest.raises(Singular):
            solve_columns(a, a @ x)
    b = data.draw(_field_matrices(field, r, k))
    if _joined_rank(field, a, b) > rank:
        assert solve_columns(a, b) is None
    elif independent:
        assert a @ solve_columns(a, b) == b
    else:
        with pytest.raises(Singular):
            solve_columns(a, b)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, F7]), st.integers(1, 6), st.integers(1, 5), st.data())
def test_quotient_projection_against_oracle_rank(field, ambient, k, data):
    sub = data.draw(_field_matrices(field, ambient, k))
    qdim, proj, lift = quotient_projection(sub)
    assert qdim == ambient - len(_oracle_rref(field, sub.data)[1])
    assert proj.shape == (qdim, ambient) and lift.shape == (ambient, qdim)
    assert (proj @ sub).is_zero()
    assert proj @ lift == Matrix.identity(field, qdim)
    # the section selects standard coordinates
    assert all(sorted(col) == [field.zero] * (ambient - 1) + [field.one]
               for col in (lift.col(j) for j in range(qdim)))


def test_oracles_import_nothing_from_the_package():
    # in a fresh interpreter that could import the package, loading the
    # oracles (and whatever they import) must leave it unloaded
    tests = Path(oracles.__file__).resolve().parent
    code = ("import sys; import oracles; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'hopfcontra'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests), str(tests.parent / "src")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
