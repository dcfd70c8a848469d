"""Exact matrix ranks of integer matrices: over Q and over GF(p), p = 2^61 - 1.

Deterministic ranks (gain ranks, lattice independence on columns scaled by
their common denominator) come from fraction-free Bareiss elimination in
`integer_rank`.  Generic ranks of rigidity matrices are taken mod p: for any
integer matrix, rank mod p <= rank over Q, so a modular rank never
over-reports.  No verdict ever depends on floating point.

There are two modular routines.  `sparse_mod_rank` reduces dict rows
{column: value}.  A bar-joint row has 2d nonzeros out of d|V| columns, so
the bar-joint generic rank and the self-stresses of its vertex deletions
come from it, on the rows that `framework._rigidity_rank` leaves after
peeling.  `mod_rank` reduces dense list rows.  It stays for the body-bar
screw matrix, whose rows on 2-4 bodies are nearly dense: as dict rows, a
round of the bodybar-mix benchmark at seed 1 took about 45 ms against
30 ms dense (2-vCPU Xeon, Python 3.11).  It also ranks the small blocks
that decide a peel and the restricted kernels of the vertex deletions.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
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


def sparse_mod_rank(
    rows: Iterable[dict[int, int]], *, stresses: bool = False
) -> tuple[int, list[dict[int, int]] | None]:
    """Rank over GF(MOD_P) of sparse rows {column: value}, and on request a
    basis of the self-stresses: the vectors y with y^T R = 0 mod p, as
    {row index: coefficient}.

    Entries are any integers; they are reduced mod p.  The m columns that
    occur are relabelled 0..m-1 in order of fewest entries first, ties by
    column: a static Markowitz order, which on a rigidity matrix takes the
    vertices by degree and cut the entries an elimination touches 2-5 fold
    on benchmark instances.  Neither the rank nor the left kernel depends on
    the column order.  The rows are reduced in order against the pivots so
    far.  A pivot row is normalised to 1 at its first column, which it then
    leaves out, so a reduction only ever adds columns after the one it
    clears; a heap takes them in order.

    With `stresses`, row i carries its combination of the input rows as the
    extra column m + i, as if R were [R | I], and a row that reduces to zero
    within the first m columns gives its combination as a self-stress.  That
    stress is 1 at its own row and otherwise lives on the rows that became
    pivots, so the stresses are independent, one per row beyond the rank.
    Returns (rank, stresses), stresses None when not asked for.
    """
    p = MOD_P
    rows = list(rows)
    count = Counter(c for row in rows for c in row)
    label = {c: i for i, c in enumerate(sorted(count, key=lambda c: (count[c], c)))}
    m = len(label)
    pivots: dict[int, dict[int, int]] = {}  # label -> the rest of its normalised row
    kernel: list[dict[int, int]] | None = [] if stresses else None
    for index, given in enumerate(rows):
        row = {label[c]: y for c, x in given.items() if (y := x % p)}
        todo = [c for c in row if c in pivots]
        heapify(todo)
        if stresses:
            row[m + index] = 1
        while todo:
            c = heappop(todo)
            f = row.pop(c, None)
            if f is None:  # cancelled since it was queued
                continue
            f = p - f
            for j, x in pivots[c].items():
                y = row.get(j)
                if y is None:
                    row[j] = f * x % p
                    if j in pivots:
                        heappush(todo, j)
                else:
                    y = (y + f * x) % p
                    if y:
                        row[j] = y
                    else:
                        del row[j]
        c = min(row, default=m)
        if c < m:
            inv = pow(row.pop(c), -1, p)
            pivots[c] = {j: x * inv % p for j, x in row.items()}
        elif kernel is not None:
            kernel.append({j - m: x for j, x in row.items()})
    return len(pivots), kernel


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
