"""The dict elimination that ``hh2.exactlin`` ran before its array
elimination became the only one: the tests' reference for ``coo_pivot_rows``,
``coo_basis`` and ``coo_reduce``, moved here unchanged.

``sparse_pivots`` reduces columns {row: coeff} in the order given, pivoting
on the smallest row id, into {pivot row: reduced column}, each 1 at its pivot
and empty on the rows below it; ``sparse_reduce`` reduces a vector by them,
and ``dict_rank`` counts them without scaling them.
"""

from __future__ import annotations

from hh2.exactlin import combo_add


def _eliminated(columns: list[dict], p: int) -> dict[int, tuple[int, dict]]:
    """The elimination loop of ``sparse_pivots``: {pivot row: (inverse of the
    leading entry, reduced column)}, each column left unscaled."""
    pivots: dict[int, tuple[int, dict]] = {}
    for col in columns:
        # a fresh copy, reduced mod p unless it is already
        cur = (dict(col) if all(0 < c < p for c in col.values())
               else {r: v for r, c in col.items() if (v := c % p)})
        while cur:
            r = min(cur)
            found = pivots.get(r)
            if found is None:
                pivots[r] = (pow(cur[r], -1, p), cur)
                break
            inv, piv = found
            f = cur[r] * inv
            for rr, cc in piv.items():
                v = (cur.get(rr, 0) - f * cc) % p
                if v:
                    cur[rr] = v
                else:
                    cur.pop(rr, None)
        # empty cur: column was dependent
    return pivots


def sparse_pivots(columns: list[dict], p: int) -> dict[int, dict]:
    """{pivot row: reduced column} of a matrix given as sparse columns
    {row: coeff} over F_p, keyed in the order found; their number is the rank.

    Left-looking elimination of the columns in the order given, pivoting on
    the smallest row id; rows and columns are not reordered.  Each reduced
    column is 1 at its pivot and vanishes on the rows below it, so the pivot
    rows are the leading rows of the column span, and the span projects
    isomorphically onto them.
    """
    return {r: {rr: cc * inv % p for rr, cc in col.items()}
            for r, (inv, col) in _eliminated(columns, p).items()}


def dict_rank(columns: list[dict], p: int) -> int:
    """Rank of a matrix given as sparse columns {row: coeff} over F_p: what
    ``sparse_rank`` returned when it ran this loop."""
    return len(_eliminated(columns, p))


def sparse_reduce(vec: dict, pivots: dict[int, dict], p: int) -> dict:
    """vec reduced in place to the one vector of vec + span(pivots) that is
    empty on every pivot row, in increasing row order: a pivot column is empty
    below its own row, so a row once cleared stays so."""
    while hit := [r for r in vec if r in pivots]:
        r = min(hit)
        combo_add(vec, pivots[r], -vec[r], p)
    return vec
