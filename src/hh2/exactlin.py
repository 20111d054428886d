"""Exact linear algebra over the prime field F_p, and the sparse joins.

``coo_pivot_rows`` is the one exact elimination: it finds the leading rows of
the span of columns held as COO arrays, in rounds of array operations, and
on request back-substitutes its pivot columns into the fully reduced basis
of the span.  ``coo_reduce`` reduces a batch of vectors by that basis in one
join.  ``sparse_rank``, which only tests call, hands it dict columns.

The join helpers work on sparse F_p tables held as int64 COO arrays:
``_within`` and ``half_join`` join keys with the runs that carry them, of a
sorted key array or of a column indexed once by ``join_index``, and
``_summed`` sums the values of equal keys mod p.  The elimination, the bar
oracle's presentation and differentials (``koszulhh``), the identity scans
(``quiver.failing_triple``) and the windowed associativity scan of the grid
and club windows (``quiver.window_associativity``) are all such joins; each
packs its indices into one int64 key and raises ``TooLarge`` before any join
whose keys would not fit.

The dense path (``rref``, ``rank``, ``rank_and_kernel``, ``Homology``) works
on numpy int64 arrays reduced to [0, p) and pivots in a fixed column order.
No command runs it: it is the tests' reference for the sparse results, and
the benchmark's tracer binds these names.
"""

from __future__ import annotations

import numpy as np

from . import Hh2Error


class NotOddPrime(Hh2Error):
    """Raised when a modulus is not an odd prime >= 3."""


class CompositionNotZero(Hh2Error):
    """Raised when two maps passed as a complex fail d_out . d_in = 0."""


class NotACocycle(Hh2Error):
    """Raised when a vector or cochain that must be a cocycle is not one."""


class NotInSpan(Hh2Error):
    """Raised when a cocycle does not reduce to zero against the boundaries
    and representatives of its homology: a failed internal invariant."""


class TooLarge(Hh2Error):
    """Raised before a computation whose size passes a cap, or whose packed
    int64 keys would overflow."""


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def check_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise NotOddPrime(f"modulus must be an odd prime >= 3, got {p}")


def combo_add(dst: dict, src: dict, coeff: int, p: int) -> None:
    for idx, c in src.items():
        v = (dst.get(idx, 0) + coeff * c) % p
        if v:
            dst[idx] = v
        else:
            dst.pop(idx, None)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # int64 is safe: entries < p < 2**31 and inner dimensions are small here
    return (a.astype(np.int64) @ b.astype(np.int64)) % p


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form with pivots chosen in fixed column order."""
    a = np.array(mat, dtype=np.int64, copy=True) % p
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if a[i, c] % p:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv], :] = a[[piv, r], :]
        inv = pow(int(a[r, c]), -1, p)
        a[r, :] = (a[r, :] * inv) % p
        for i in range(m):
            if i != r and a[i, c]:
                a[i, :] = (a[i, :] - a[i, c] * a[r, :]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank(mat: np.ndarray, p: int) -> int:
    if mat.size == 0:
        return 0
    return len(rref(mat, p)[1])


def rank_and_kernel(mat: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """Rank and a canonical kernel basis.

    Returns (rank, K) where the rows of K form the reduced-echelon basis of
    {v : mat @ v = 0}; rank + K.shape[0] == mat.shape[1].
    """
    m, n = mat.shape
    if n == 0:
        return 0, zeros(0, 0)
    if m == 0:
        return 0, identity(n)
    r, pivots = rref(mat, p)
    free = [c for c in range(n) if c not in pivots]
    kern = zeros(len(free), n)
    for row, f in enumerate(free):
        kern[row, f] = 1
        for i, c in enumerate(pivots):
            kern[row, c] = (-int(r[i, f])) % p
    return len(pivots), kern


class Homology:
    """Homology of a two-step complex  F^a --d_in--> F^mid --d_out--> F^b.

    Representatives are canonical: boundaries are put in RREF first, kernel
    vectors are reduced against them and then against each other, so the
    surviving rows are uniquely determined by the input matrices.  The
    projection sends ker(d_out) onto homology coordinates, kills im(d_in) and
    maps representative i to the i-th standard basis vector.
    """

    def __init__(self, d_in: np.ndarray, d_out: np.ndarray, p: int):
        self.p = p
        if d_in.shape[0] != d_out.shape[1]:
            raise ValueError("middle dimensions disagree")
        mid = d_in.shape[0]
        comp = matmul(d_out, d_in, p)
        if np.any(comp):
            raise CompositionNotZero("d_out . d_in != 0")
        self.mid = mid

        bnd_rref, bnd_piv = rref(d_in.T, p) if d_in.size else (zeros(0, mid), [])
        nb = len(bnd_piv)
        boundaries = bnd_rref[:nb]

        _, kern = rank_and_kernel(d_out, p)

        # reduce cocycles against the boundary rows
        reduced = []
        for row in kern:
            v = row.copy()
            for i, c in enumerate(bnd_piv):
                if v[c]:
                    v = (v - int(v[c]) * boundaries[i]) % p
            reduced.append(v)
        reduced_mat = np.array(reduced, dtype=np.int64) if reduced else zeros(0, mid)
        rep_rref, rep_piv = rref(reduced_mat, p)
        reps = rep_rref[: len(rep_piv)]

        # representative rows vanish on boundary pivot columns, so coordinates
        # are read off by eliminating boundary pivots first, then rep pivots
        self.dimension = len(rep_piv)
        self.representatives = reps
        self._bnd = boundaries
        self._bnd_piv = bnd_piv
        self._rep_piv = rep_piv
        self._dout = d_out

    def project(self, v: np.ndarray) -> np.ndarray:
        """Homology coordinates of a cocycle v; raises if v is not a cocycle."""
        v = np.array(v, dtype=np.int64, copy=True) % self.p
        if self._dout.size and np.any(matmul(self._dout, v.reshape(-1, 1), self.p)):
            raise NotACocycle("vector is not a cocycle")
        out = zeros(1, self.dimension)[0]
        for i, c in enumerate(self._bnd_piv):
            coeff = int(v[c]) % self.p
            if coeff:
                v = (v - coeff * self._bnd[i]) % self.p
        for i, c in enumerate(self._rep_piv):
            coeff = int(v[c]) % self.p
            if coeff:
                out[i] = coeff
                v = (v - coeff * self.representatives[i]) % self.p
        if np.any(v % self.p):
            raise NotInSpan("cocycle not in ker(d_out) + im(d_in) span (bug)")
        return out


# ---------------------------------------------------------------------------
# joins of sparse tables held as int64 COO arrays

def _expand(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, index) over the members of the ranges [start[i], start[i] +
    count[i]), in order: the range each member lies in, and the member."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) + np.repeat(start - (np.cumsum(count) - count), count)


def _within(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_expand`` over the runs of sorted_keys equal to each of keys: a join
    of keys with the entries that carry them."""
    lo = np.searchsorted(sorted_keys, keys)
    return _expand(lo, np.searchsorted(sorted_keys, keys, "right") - lo)


def join_index(on: np.ndarray, ordered: bool = False) -> tuple[np.ndarray | None, ...]:
    """(order, start, count) of a column of keys >= 0: key k is at the places
    order[start[k]:][:count[k]], with no order when the column is ``ordered``
    (ascending); the last start, of count 0, stands for the keys past all."""
    count = np.append(np.bincount(on), 0)
    return None if ordered else np.argsort(on, kind="stable"), np.cumsum(count) - count, count


def half_join(keys: np.ndarray, index: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``_expand`` over the places of a ``join_index``ed column equal to each
    of keys (>= 0): (s, e) with on[e] == keys[s], by two gathers."""
    order, start, count = index
    at = np.minimum(keys, len(count) - 1)
    s, e = _expand(start[at], count[at])
    return s, e if order is None else order[e]


def _chunks(owner: np.ndarray, work: np.ndarray, size: int):
    """Slices [a0, a1) of the entries, in order, that split no run of equal
    owner (ascending): whole runs, at least one, of about size work each."""
    bounds = np.append(np.flatnonzero(np.diff(owner, prepend=-1)), len(owner))
    total = np.concatenate(([0], np.cumsum(work)))[bounds]
    b = 0
    while b < len(bounds) - 1:
        e = min(max(int(np.searchsorted(total, total[b] + size, "right")) - 1, b + 1),
                len(bounds) - 1)
        yield int(bounds[b]), int(bounds[e])
        b = e


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys (>= 0), ascending, by one sort: ``np.unique`` and the
    set routines on it import numpy.ma on their first call, a large share of
    a short job."""
    keys = np.sort(keys)
    return keys[_starts(keys)]


def _among(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of keys (>= 0) equals an entry of sorted_keys, read at its
    ``searchsorted`` place (``np.isin`` may sort through ``np.unique``); a
    place past the end reads the -1 appended, which no key equals."""
    return np.append(sorted_keys, -1)[np.searchsorted(sorted_keys, keys)] == keys


def _xor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The keys (>= 0) in just one of a and b, each without repeats, ascending."""
    key = np.concatenate((a, b))
    return _summed(key, np.ones_like(key), 2)[0]


def _starts(keys: np.ndarray) -> np.ndarray:
    """Whether each sorted key starts a run (cheaper than ``np.diff`` on short arrays)."""
    step = np.empty(len(keys), dtype=bool)
    step[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=step[1:])
    return step


def _summed(key: np.ndarray, val: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, with their summed values mod p, nonzero
    sums only: one sort and one ``np.add.reduceat``.  The sort is stable
    (timsort), which merges keys that come as a few sorted runs."""
    order = np.argsort(key, kind="stable")
    key, val = key[order], val[order]
    start = _starts(key).nonzero()[0]
    total = np.add.reduceat(val, start) % p if len(key) else val
    keep = total != 0
    return key[start[keep]], total[keep]


def coo_terms(chains: list[dict]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner, key, coeff) over the terms of sparse vectors {key: coeff}, in
    order, as int64 arrays: the vectors as one COO table."""
    owner = np.repeat(np.arange(len(chains)), np.fromiter(map(len, chains), np.int64, len(chains)))
    key = np.fromiter((n for ch in chains for n in ch), np.int64, len(owner))
    return owner, key, np.fromiter((c for ch in chains for c in ch.values()), np.int64, len(owner))


def coo_columns(columns: list[dict], p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse columns {row: coeff}, column j with id j, as ``coo_pivot_rows`` takes them."""
    col, row, val = coo_terms(columns)
    nrows = int(row.max(initial=0)) + 1
    key, val = _summed(col * nrows + row, val, p)
    return *np.divmod(key, nrows), val


def sparse_rank(columns: list[dict], p: int) -> int:
    """Rank of a matrix given as sparse columns {row: coeff} over F_p."""
    return len(coo_pivot_rows(*coo_columns(columns, p), p))


def coo_pivot_rows(col: np.ndarray, row: np.ndarray, val: np.ndarray, p: int,
                   reduced: bool = False):
    """The pivot rows, ascending, of the columns of a COO matrix sorted by
    column and then row, with values in [1, p): the leading rows of its span
    V.  With reduced, V's fully reduced basis (lead, at, row, val) instead:
    lead the pivot rows, and (at, row, val), by at and then row, the entries
    of B_i, the vector of V that is 1 at lead[i] and 0 at the other leads.

    Each round reduces every column whose leading (smallest) row is a pivot's
    by that pivot, makes the first column of each other leading row a pivot
    and reduces the rest by it.  A reduction raises a leading row or empties
    the column, so there are at most as many rounds as rows.  The pivots are
    then a basis of V with distinct leading rows {r : dim V_{>=r} > dim
    V_{>r}}, which depend on V alone.  Back-substitution in rounds, each
    clearing every column's other leads at once, takes their block I + N on
    the leads (N nilpotent) to I - N^2: log2 of the longest chain rounds.
    """
    inv = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=np.int64)
    nrows = int(row.max()) + 1 if len(row) else 1
    # (leading row, start in pool, count) of each pivot, by leading row and closed
    # by nrows; pool holds their (row, val), 1 at the lead, and grows geometrically
    piv = np.array([[nrows], [0], [0]], dtype=np.int64)
    pool, used = np.zeros((2, len(col)), dtype=np.int64), 0
    while len(col):
        head = _starts(col).nonzero()[0]
        size, lead = np.append(head[1:], len(col)) - head, row[head]
        # the first column of each leading row that no pivot holds yet
        fresh = (piv[0, piv[0].searchsorted(lead)] != lead).nonzero()[0]
        fresh = fresh[lead[fresh].argsort(kind="stable")]
        new = np.zeros(len(head), dtype=bool)
        new[fresh[_starts(lead[fresh])]] = True
        moved, size_new = new.repeat(size), size[new]  # the new pivots and their entries
        n_moved = int(size_new.sum())
        if used + n_moved > pool.shape[1]:
            pool = np.hstack((pool, np.zeros((2, used + n_moved), dtype=np.int64)))
        pool[0, used:used + n_moved] = row[moved]
        pool[1, used:used + n_moved] = val[moved] * inv[val[head[new]]].repeat(size_new) % p
        piv = np.hstack((piv, (lead[new], used + size_new.cumsum() - size_new, size_new)))
        piv = piv[:, piv[0].argsort(kind="stable")]
        used += n_moved
        # every other column less its leading entry times that row's pivot
        rest, kept = head[~new], ~moved
        k = piv[0].searchsorted(row[rest])
        o, e = _expand(piv[1, k], piv[2, k])
        key, val = _summed(np.concatenate((col[kept] * nrows + row[kept],
                                           col[rest][o] * nrows + pool[0, e])),
                           np.concatenate((val[kept], p - val[rest][o] * pool[1, e] % p)), p)
        col, row = np.divmod(key, nrows)
    lead = piv[0, :-1]
    if not reduced:
        return lead
    at, e = _expand(piv[1, :-1], piv[2, :-1])
    row, val = pool[:, e]
    while len(hit := np.flatnonzero(_among(lead, row) & (row != lead[at]))):
        o, e = _within(at, lead.searchsorted(row[hit]))
        key, val = _summed(np.concatenate((at * nrows + row, at[hit[o]] * nrows + row[e])),
                           np.concatenate((val, p - val[hit[o]] * val[e] % p)), p)
        at, row = np.divmod(key, nrows)
    return lead, at, row, val


def coo_reduce(owner: np.ndarray, row: np.ndarray, val: np.ndarray, basis: tuple,
               p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each vector v of a batch of entries (owner, row, val) less v[r] B_r for
    every pivot row r of a reduced basis of ``coo_pivot_rows``, in one join: the vector of v + V
    empty on every pivot row, as entries sorted by owner and then row."""
    lead, at, b_row, b_val = basis
    hit = np.flatnonzero(_among(lead, row))
    o, e = _within(at, lead.searchsorted(row[hit]))
    nrows = 1 + max(int(row.max(initial=0)), int(b_row.max(initial=0)))
    key, val = _summed(np.concatenate((owner * nrows + row, owner[hit[o]] * nrows + b_row[e])),
                       np.concatenate((val, -val[hit[o]] * b_val[e])), p)
    return *np.divmod(key, nrows), val
