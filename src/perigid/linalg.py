"""Exact matrix ranks of integer matrices: over Q and over GF(p), p = 2^61 - 1.

Deterministic ranks (gain ranks, lattice independence on columns scaled by
their common denominator) come from fraction-free Bareiss elimination in
`integer_rank`.  Generic ranks of rigidity matrices come from `mod_rank` on
integer rows reduced mod p: for any integer matrix, rank mod p <= rank over
Q, so a modular rank never over-reports.  No verdict ever depends on
floating point.
"""

from __future__ import annotations

from typing import Iterable, Sequence

MOD_P = 2**61 - 1  # a Mersenne prime: the field of the generic-rank samples


def _bareiss_rank(rows: list[list], ncols: int) -> int:
    """Rank via Bareiss fraction-free elimination on integer rows (mutates)."""
    m = len(rows)
    if m == 0 or ncols == 0:
        return 0
    prev = 1
    r0 = 0
    for pc in range(ncols):
        piv = -1
        for i in range(r0, m):
            if rows[i][pc]:
                piv = i
                break
        if piv < 0:
            continue
        rows[r0], rows[piv] = rows[piv], rows[r0]
        prow = rows[r0]
        pval = prow[pc]
        for i in range(r0 + 1, m):
            ri = rows[i]
            f = ri[pc]
            if f:
                for j in range(pc + 1, ncols):
                    ri[j] = (pval * ri[j] - f * prow[j]) // prev
                ri[pc] = 0
            else:
                for j in range(pc + 1, ncols):
                    ri[j] = (pval * ri[j]) // prev
        prev = pval
        r0 += 1
        if r0 == m:
            break
    return r0


def mod_rank(rows: list[list[int]], ncols: int) -> int:
    """Rank over GF(MOD_P) of integer rows (mutates).

    Entries must lie strictly between -MOD_P and MOD_P, so that an entry is
    zero mod p exactly when it is 0; reduce larger ones first.  Same
    elimination as `_bareiss_rank`, but a row below the pivot becomes
    pval*row - f*pivot_row mod p: no division and no inverse, and a row with
    a zero in the pivot column is left alone.
    """
    m = len(rows)
    if m == 0 or ncols == 0:
        return 0
    p = MOD_P
    r0 = 0
    for pc in range(ncols):
        piv = -1
        for i in range(r0, m):
            if rows[i][pc]:
                piv = i
                break
        if piv < 0:
            continue
        rows[r0], rows[piv] = rows[piv], rows[r0]
        prow = rows[r0]
        pval = prow[pc]
        for i in range(r0 + 1, m):
            ri = rows[i]
            f = ri[pc]
            if f:
                for j in range(pc + 1, ncols):
                    ri[j] = (pval * ri[j] - f * prow[j]) % p
                ri[pc] = 0
        r0 += 1
        if r0 == m:
            break
    return r0


def integer_rank(rows: Iterable[Sequence[int]], ncols: int | None = None) -> int:
    """Rank over the rationals of a matrix with integer entries.

    `ncols` is only needed to disambiguate an empty row list.
    """
    data = [list(row) for row in rows]
    if ncols is None:
        ncols = len(data[0]) if data else 0
    if any(len(r) != ncols for r in data):
        raise ValueError("ragged rows")
    return _bareiss_rank(data, ncols)
