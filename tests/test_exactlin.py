import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from hh2 import exactlin, quiver
from hh2 import Hh2Error
from hh2.exactlin import (CompositionNotZero, Homology, NotACocycle,
                          NotOddPrime, check_odd_prime, combo_add, coo_pivot_rows,
                          coo_reduce, coo_terms, matmul, rank, rank_and_kernel, rref,
                          sparse_rank, zeros)
from hh2.koszulhh import build_model

from dict_elimination import dict_rank, sparse_pivots, sparse_reduce


def test_odd_prime_guard():
    for p in (3, 5, 7, 11):
        check_odd_prime(p)
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(NotOddPrime):
            check_odd_prime(bad)


def test_identity_rank_kernel():
    r, kern = rank_and_kernel(np.eye(3, dtype=np.int64), 5)
    assert r == 3 and kern.shape[0] == 0


def test_zero_map_kernel():
    r, kern = rank_and_kernel(zeros(2, 4), 3)
    assert r == 0 and kern.shape[0] == 4
    # reduced echelon kernel: identity on the free columns
    assert np.array_equal(kern, np.eye(4, dtype=np.int64))


def test_rank_kernel_counts():
    rng = np.random.default_rng(7)
    for p in (3, 5, 7):
        for _ in range(20):
            m, n = rng.integers(1, 9, size=2)
            a = rng.integers(0, p, size=(m, n)).astype(np.int64)
            r, kern = rank_and_kernel(a, p)
            assert r + kern.shape[0] == n
            if kern.shape[0]:
                assert not np.any((a @ kern.T) % p)


def test_rank_equals_rank_of_transpose():
    rng = np.random.default_rng(11)
    for p in (3, 5):
        for _ in range(25):
            m, n = rng.integers(1, 8, size=2)
            a = rng.integers(0, p, size=(m, n)).astype(np.int64)
            assert rank(a, p) == rank(a.T.copy(), p)


def test_sparse_rank_matches_dense():
    rng = np.random.default_rng(3)
    for p in (3, 5):
        for _ in range(25):
            m, n = rng.integers(1, 10, size=2)
            a = rng.integers(0, p, size=(m, n)).astype(np.int64)
            cols = [{i: int(a[i, j]) for i in range(m) if a[i, j]} for j in range(n)]
            assert sparse_rank(cols, p) == rank(a, p)


def test_homology_trivial_cases():
    # zero in, zero out on a 4-dim space
    hom = Homology(zeros(4, 0), zeros(0, 4), 5)
    assert hom.dimension == 4
    # identity in, zero out
    hom = Homology(np.eye(4, dtype=np.int64), zeros(0, 4), 5)
    assert hom.dimension == 0


def test_homology_rejects_nonzero_composition():
    d_in = np.eye(2, dtype=np.int64)
    d_out = np.eye(2, dtype=np.int64)
    with pytest.raises(CompositionNotZero):
        Homology(d_in, d_out, 3)


def test_projection_of_representatives_is_standard_basis():
    rng = np.random.default_rng(5)
    p = 5
    for _ in range(20):
        mid = int(rng.integers(2, 8))
        a = rng.integers(0, p, size=(mid, int(rng.integers(1, 5)))).astype(np.int64)
        # choose d_out with d_out @ a = 0: rows from kernel of a^T ... simplest:
        # use d_out = 0 so any a works
        hom = Homology(a, zeros(0, mid), p)
        for i in range(hom.dimension):
            coords = hom.project(hom.representatives[i])
            want = zeros(1, hom.dimension)[0]
            want[i] = 1
            assert np.array_equal(coords, want)
        # boundaries project to zero
        for col in a.T:
            assert not np.any(hom.project(col % p))


def test_kernel_dim_of_first_slice_matches_derivation():
    # the k=0 -> k=1 differential of the degree-(0,*) column for p=3 has a
    # one-dimensional kernel (the central element 1 (x) 1)
    p = 3
    c = quiver.build_zigzag_c(p)
    om = quiver.build_omega(p)
    model = build_model(c, quiver.regular_bimodule(om))
    assert len(model.bucket_of[(0, 0)]) - model.rank_at((0, 0)) == 1


def test_middle_slice_homology_p5():
    # the l=1 slice at p=5 has shape (0 -> F^{p-l} -> F^{2p-2-2l} -> F^{p-2-l} -> 0)
    # = (F^4 -> F^6 -> F^2), with one-dimensional homology in the middle
    p, ell = 5, 1
    c = quiver.build_zigzag_c(p)
    om = quiver.build_omega(p)
    model = build_model(c, quiver.regular_bimodule(om))
    key = (-2 * ell, 2 * ell + 1)  # total degree of the middle of the slice
    sizes = (len(model.bucket_of[(-2, 2)]), len(model.bucket_of[(-2, 3)]),
             len(model.bucket_of[(-2, 4)]))
    assert sizes == (p - ell, 2 * p - 2 - 2 * ell, p - 2 - ell)
    assert model.homology_dim(key) == 1


def test_homology_invariant_under_column_shuffle():
    rng = np.random.default_rng(13)
    p = 3
    for _ in range(10):
        mid = 6
        d_in = rng.integers(0, p, size=(mid, 3)).astype(np.int64)
        # build d_out vanishing on im(d_in): rows spanning left-kernel of d_in
        _, lk = rank_and_kernel(d_in.T, p)
        d_out = lk  # rows v with v @ d_in = 0 -> use as map out
        hom = Homology(d_in, d_out, p)
        perm = rng.permutation(mid)
        hom2 = Homology(d_in[perm], d_out[:, perm], p)
        assert hom.dimension == hom2.dimension


def test_rref_deterministic():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 5, size=(6, 7)).astype(np.int64)
    r1, p1 = rref(a, 5)
    r2, p2 = rref(a.copy(), 5)
    assert np.array_equal(r1, r2) and p1 == p2


def _sympy_rank(mat: np.ndarray, p: int) -> int:
    if 0 in mat.shape:
        return 0
    dm = DomainMatrix.from_list_sympy(*mat.shape, mat.tolist())
    return dm.convert_to(sympy.GF(p)).rank()


@st.composite
def complexes(draw):
    """F^a -> F^mid -> F^b with d_out . d_in = 0 mod p, in a random basis.

    d_in hits the first r1 coordinates and d_out reads the next r2; a
    unit-triangular change of basis S of F^mid then mixes them.
    """
    p = draw(st.sampled_from([3, 5, 7]))
    a, b, r1, r2, free = (draw(st.integers(0, n)) for n in (4, 4, 3, 3, 2))
    mid = r1 + r2 + free

    def rand(rows, cols):
        vals = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                             max_size=rows * cols))
        return np.array(vals, dtype=np.int64).reshape(rows, cols)

    d_in, d_out = zeros(mid, a), zeros(b, mid)
    d_in[:r1] = rand(r1, a)
    d_out[:, r1:r1 + r2] = rand(b, r2)
    if mid == 0:
        return p, d_in, d_out
    eye = np.eye(mid, dtype=np.int64)
    s = (np.tril(rand(mid, mid), -1) + eye) @ (np.triu(rand(mid, mid), 1) + eye) % p
    s_inv = np.array(sympy.Matrix(s.tolist()).inv_mod(p).tolist(), dtype=np.int64)
    return p, s @ d_in % p, d_out @ s_inv % p


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_homology_matches_sympy_ranks(case):
    p, d_in, d_out = case
    hom = Homology(d_in, d_out, p)
    assert hom.mid == d_in.shape[0]
    nullity_out = d_out.shape[1] - _sympy_rank(d_out, p)
    assert hom.dimension == nullity_out - _sympy_rank(d_in, p)
    for i, rep in enumerate(hom.representatives):
        unit = np.zeros(hom.dimension, dtype=np.int64)
        unit[i] = 1
        assert np.array_equal(hom.project(rep), unit)


@st.composite
def sparse_matrices(draw):
    """(p, columns, dense) for a tall, thin, sparse matrix like the bar
    oracle's pieces: a few entries per column, with empty and repeated
    columns, and coefficients outside [0, p) (negative, >= p, multiples of
    p) that sparse_rank must reduce."""
    p = draw(st.sampled_from([3, 5, 7]))
    n_rows = draw(st.integers(1, 40))
    coeff = st.one_of(st.integers(-3 * p, 3 * p), st.sampled_from([-p, p, 2 * p]))
    columns: list[dict] = []
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["sparse", "sparse", "empty", "repeat"]))
        if shape == "repeat" and columns:
            scale = draw(st.integers(1, p - 1))
            columns.append({r: c * scale for r, c in draw(st.sampled_from(columns)).items()})
        elif shape == "empty":
            columns.append({r: p * k for r, k in
                            draw(st.dictionaries(st.integers(0, n_rows - 1),
                                                 st.integers(-2, 2), max_size=2)).items()})
        else:
            columns.append(draw(st.dictionaries(st.integers(0, n_rows - 1), coeff,
                                                min_size=1, max_size=4)))
    dense = zeros(n_rows, len(columns))
    for j, col in enumerate(columns):
        for r, c in col.items():
            dense[r, j] = c % p
    return p, columns, dense


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_sparse_rank_matches_dense_rank(case, rnd):
    p, columns, dense = case
    want = rank(dense, p)
    assert sparse_rank(columns, p) == want
    # the rank ignores row labels and column order: relabel the rows by a
    # random injection and shuffle the columns
    ids = rnd.sample(range(10 * dense.shape[0] + 10), dense.shape[0])
    moved = [{ids[r]: c for r, c in col.items()} for col in columns]
    rnd.shuffle(moved)
    assert sparse_rank(moved, p) == want
    # the input columns are left as they were
    assert all(dense[r, j] == c % p for j, col in enumerate(columns) for r, c in col.items())


def test_project_rejects_non_cocycle():
    # d_out is the identity on F^2, so only 0 is a cocycle
    hom = Homology(zeros(2, 0), np.eye(2, dtype=np.int64), 5)
    with pytest.raises(NotACocycle, match="vector is not a cocycle") as exc:
        hom.project([0, 3])
    assert isinstance(exc.value, Hh2Error)


@st.composite
def dense_matrices(draw):
    """(p, mat): from empty and single-row to wide shapes; all-zero,
    random (entries outside [0, p) included, which rref reduces) or of low
    rank with dependent rows."""
    p = draw(st.sampled_from([3, 5, 7]))
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 9))
    fill = draw(st.sampled_from(["zero", "random", "random", "low rank"]))

    def rand(rows, cols, lo, hi):
        vals = draw(st.lists(st.integers(lo, hi), min_size=rows * cols, max_size=rows * cols))
        return np.array(vals, dtype=np.int64).reshape(rows, cols)

    if fill == "zero":
        return p, zeros(m, n)
    if fill == "random":
        return p, rand(m, n, -p, 2 * p)
    r = draw(st.integers(0, 2))
    return p, rand(m, r, 0, p - 1) @ rand(r, n, 0, p - 1) % p


@settings(max_examples=100, deadline=None)
@given(dense_matrices())
def test_rref_matches_sympy(case):
    p, mat = case
    red, piv = rref(mat, p)
    r = _sympy_rank(mat, p)
    assert len(piv) == r and rank(mat, p) == r
    assert red.shape == mat.shape and not np.any(red[r:])
    rows = red[:r]
    # each pivot is the leading column of its row, holds a 1 and is the
    # only nonzero entry of its column; pivots increase strictly
    assert all(a < b for a, b in zip(piv, piv[1:]))
    for i, c in enumerate(piv):
        assert not np.any(rows[i, :c])
        assert np.array_equal(rows[:, c], np.eye(r, dtype=np.int64)[i])
    # the r independent rows lie in the r-dimensional row space of mat
    assert _sympy_rank(np.vstack([mat % p, rows]), p) == r


@settings(max_examples=100, deadline=None)
@given(dense_matrices())
def test_rank_and_kernel_matches_sympy(case):
    p, mat = case
    n = mat.shape[1]
    r, kern = rank_and_kernel(mat, p)
    assert r == _sympy_rank(mat, p)
    assert kern.shape == (n - r, n)
    assert not np.any(matmul(mat, kern.T, p))
    assert _sympy_rank(kern, p) == n - r


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_sparse_pivot_rows_are_independent_original_rows(case, rnd):
    p, columns, dense = case
    rows = list(sparse_pivots(columns, p))
    assert len(rows) == len(set(rows)) == rank(dense, p) == sparse_rank(columns, p)
    # the pivot rows carry the full rank of the matrix
    assert rank(dense[rows], p) == len(rows)
    # under a random injection of row ids the pivots come back as the new ids
    ids = rnd.sample(range(10 * dense.shape[0] + 10), dense.shape[0])
    back = {new: old for old, new in enumerate(ids)}
    moved = [{ids[r]: c for r, c in col.items()} for col in columns]
    rnd.shuffle(moved)
    moved_rows = list(sparse_pivots(moved, p))
    assert set(moved_rows) <= set(back)
    assert len(moved_rows) == rank(dense[[back[r] for r in moved_rows]], p) == len(rows)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_sparse_pivots_are_reduced_columns_of_the_span(case):
    p, columns, dense = case
    pivots = sparse_pivots(columns, p)
    # each reduced column is 1 at its pivot and empty on every row below it
    for r, col in pivots.items():
        assert col[r] == 1 and min(col) == r
        assert all(0 < c < p for c in col.values())
    # the reduced columns lie in the column span and there are rank of them
    stacked = zeros(dense.shape[0], len(pivots))
    for j, col in enumerate(pivots.values()):
        for r, c in col.items():
            stacked[r, j] = c
    want = rank(dense, p)
    assert len(pivots) == want == rank(np.hstack([dense, stacked]), p)


def _scaled_pivots(columns: list[dict], p: int) -> dict[int, dict]:
    """The elimination loop that scaled each pivot column as it was found,
    kept as the reference for ``sparse_pivots``."""
    pivots: dict[int, dict] = {}
    for col in columns:
        cur = {r: v for r, c in col.items() if (v := c % p)}
        while cur:
            r = min(cur)
            piv = pivots.get(r)
            if piv is None:
                inv = pow(cur[r], -1, p)
                pivots[r] = {rr: (cc * inv) % p for rr, cc in cur.items()}
                break
            f = cur[r]
            for rr, cc in piv.items():
                v = (cur.get(rr, 0) - f * cc) % p
                if v:
                    cur[rr] = v
                else:
                    cur.pop(rr, None)
        # empty cur: column was dependent
    return pivots


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_sparse_pivots_equal_the_scaling_loop(case):
    # pivots left unscaled until the end give the same dict, in the same
    # order, with every reduced column in the same order too
    p, columns, _dense = case
    want = _scaled_pivots(columns, p)
    got = sparse_pivots(columns, p)
    assert list(got.items()) == list(want.items())
    assert all(list(got[r].items()) == list(col.items()) for r, col in want.items())


@settings(max_examples=100, deadline=None)
@given(complexes())
def test_rank_off_pivot_rows_of_previous_map(case):
    # with d_out . d_in = 0 the coordinates off the pivot rows R of d_in span a
    # complement of im d_in, so d_out has the same rank on the columns off R
    p, d_in, d_out = case
    mid = d_in.shape[0]
    cols_in = [{i: int(v) for i, v in enumerate(col) if v} for col in d_in.T]
    cols_out = [{i: int(v) for i, v in enumerate(col) if v} for col in d_out.T]
    pivots = set(coo_pivot_rows(*_coo(cols_in), p).tolist())
    off = [j for j in range(mid) if j not in pivots]
    complement = np.hstack([d_in, np.eye(mid, dtype=np.int64)[:, off]])
    assert _sympy_rank(complement, p) == mid
    want = _sympy_rank(d_out, p)
    assert sparse_rank([cols_out[j] for j in off], p) == sparse_rank(cols_out, p) == want


def _coo(columns: list[dict]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(col, row, val) of sparse columns, column j with id j, sorted by column
    and then row, values reduced to [1, p) by the caller."""
    entries = sorted((j, r, c) for j, col in enumerate(columns) for r, c in col.items())
    return tuple(np.array(x, dtype=np.int64) for x in zip(*entries)) if entries else (
        np.zeros(0, dtype=np.int64),) * 3


@st.composite
def coo_columns(draw):
    """(p, columns) with coefficients in [1, p), p - 1 often: sparse columns,
    columns sharing the leading row of an earlier one, dependent columns
    (s * a + b for earlier a, b) and staircases {r + i, r + i + 1}, i < k,
    closed by {r}, whose reduction meets one pivot per round."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    n_rows = draw(st.integers(1, 30))
    coeff = st.one_of(st.just(p - 1), st.integers(1, p - 1))
    columns: list[dict] = []
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["sparse", "lead", "combo", "chain"]))
        if shape == "lead" and columns:
            r = min(draw(st.sampled_from(columns)))
            col = {r: draw(coeff), **draw(st.dictionaries(st.integers(r + 1, r + n_rows),
                                                          coeff, max_size=3))}
        elif shape == "combo" and columns:
            a, b, s = draw(st.sampled_from(columns)), draw(st.sampled_from(columns)), draw(coeff)
            col = {r: (s * a.get(r, 0) + b.get(r, 0)) % p for r in a.keys() | b.keys()}
        elif shape == "chain":
            r, k = draw(st.integers(0, n_rows - 1)), draw(st.integers(1, 8))
            columns += [{r + i: draw(coeff), r + i + 1: draw(coeff)} for i in range(k)]
            col = {r: draw(coeff)}
        else:
            col = draw(st.dictionaries(st.integers(0, n_rows - 1), coeff, min_size=1, max_size=4))
        if col := {r: c for r, c in col.items() if c}:
            columns.append(col)
    return p, columns


def _pivot_rows_in_bounded_rounds(columns: list[dict], p: int) -> list[int]:
    """``coo_pivot_rows`` of the columns, failing once it runs more rounds (one
    ``_summed`` each) than the columns have distinct rows."""
    bound, rounds, summed = len({r for col in columns for r in col}), [], exactlin._summed

    def counted(key, val, q):
        rounds.append(1)
        assert len(rounds) <= bound, "more rounds than distinct rows"
        return summed(key, val, q)

    arrays = _coo(columns)
    kept = [a.copy() for a in arrays]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlin, "_summed", counted)
        got = coo_pivot_rows(*arrays, p)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, kept))  # input left as it was
    return got.tolist()


@settings(max_examples=300, deadline=None)
@given(coo_columns(), st.randoms(use_true_random=False))
def test_coo_pivot_rows_are_the_pivot_rows_of_sparse_pivots(case, rnd):
    # the same rows, ascending, hence the same set and count, in any column order
    p, columns = case
    want = sorted(sparse_pivots(columns, p))
    assert _pivot_rows_in_bounded_rounds(columns, p) == want
    moved = columns[:]
    rnd.shuffle(moved)
    assert _pivot_rows_in_bounded_rounds(moved, p) == want


def test_coo_pivot_rows_walk_a_collision_chain_one_pivot_per_round():
    # {i, i + 1} for i < 6 become pivots in the first round; {0} then meets
    # the pivots of rows 0..5 in turn and becomes the pivot of row 6
    p, calls, summed = 5, [], exactlin._summed
    columns = [{i: 1, i + 1: p - 1} for i in range(6)] + [{0: 2}]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlin, "_summed", lambda *a: calls.append(1) or summed(*a))
        assert coo_pivot_rows(*_coo(columns), p).tolist() == list(range(7))
    assert len(calls) == 7
    assert coo_pivot_rows(*_coo([]), p).tolist() == []


def _reduced(columns: list[dict], p: int) -> dict[int, dict]:
    """{pivot row: B} of the fully reduced basis of ``coo_pivot_rows``."""
    lead, at, row, val = coo_pivot_rows(*_coo(columns), p, reduced=True)
    out: dict[int, dict] = {r: {} for r in lead.tolist()}
    for a, r, v in zip(at.tolist(), row.tolist(), val.tolist()):
        out[int(lead[a])][r] = v
    return out


def _back_substituted(pivots: dict[int, dict], p: int) -> dict[int, dict]:
    """The columns of ``sparse_pivots`` cleared on every other pivot row: each
    pivot column is empty below its own row, so from the last row up each
    column is cleared by the fully reduced columns of the rows after it."""
    out: dict[int, dict] = {}
    for r in sorted(pivots, reverse=True):
        col = dict(pivots[r])
        for s, done in out.items():
            if s in col:
                combo_add(col, done, -col[s], p)
        out[r] = col
    return dict(sorted(out.items()))


def _sympy_rref(columns: list[dict], p: int) -> dict[int, dict]:
    """{pivot column: row} of sympy's RREF over GF(p) of the matrix whose rows
    are the columns: the same fully reduced basis, read as rows."""
    if not columns:
        return {}
    width = 1 + max(r for col in columns for r in col)
    rows = [[col.get(r, 0) % p for r in range(width)] for col in columns]
    red, pivots = DomainMatrix.from_list_sympy(len(rows), width, rows).convert_to(
        sympy.GF(p)).rref()
    dense = red.to_Matrix().tolist()
    return {c: {r: int(x) % p for r, x in enumerate(dense[i]) if int(x) % p}
            for i, c in enumerate(pivots)}


@settings(max_examples=300, deadline=None)
@given(coo_columns(), st.randoms(use_true_random=False))
def test_reduced_basis_is_the_back_substituted_dict_elimination(case, rnd):
    # B_r is 1 at r and 0 at every other pivot row: sparse_pivots' columns
    # after back-substitution, sympy's RREF rows, and the same in any column order
    p, columns = case
    got = _reduced(columns, p)
    assert got == _back_substituted(sparse_pivots(columns, p), p) == _sympy_rref(columns, p)
    moved = columns[:]
    rnd.shuffle(moved)
    assert _reduced(moved, p) == got
    assert list(got) == coo_pivot_rows(*_coo(moved), p).tolist()


@settings(max_examples=300, deadline=None)
@given(coo_columns(), st.data())
def test_batch_reduction_is_sparse_reduce_of_each_vector(case, data):
    # one join reduces every vector to the one vector of v + span that is
    # empty on every pivot row; coefficients outside [0, p) and rows no
    # column has included
    p, columns = case
    n_rows = 2 + max((r for col in columns for r in col), default=0)
    vectors = data.draw(st.lists(st.dictionaries(st.integers(0, n_rows), st.integers(-2 * p, 2 * p),
                                                 max_size=5), max_size=6))
    basis = coo_pivot_rows(*_coo(columns), p, reduced=True)
    owner, row, val = coo_reduce(*coo_terms(vectors), basis, p)
    got: list[dict] = [{} for _ in vectors]
    for o, r, v in zip(owner.tolist(), row.tolist(), val.tolist()):
        got[o][r] = v
    pivots = sparse_pivots(columns, p)
    assert got == [sparse_reduce({r: c % p for r, c in vec.items() if c % p}, pivots, p)
                   for vec in vectors]


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_sparse_rank_is_the_rank_of_the_dict_elimination(case):
    # the adapter to COO arrays keeps the dict loop's count
    p, columns, _dense = case
    assert sparse_rank(columns, p) == dict_rank(columns, p)
