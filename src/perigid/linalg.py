"""Exact matrix ranks: over the rationals and over GF(p), p = 2^61 - 1.

Deterministic ranks (gain ranks, lattice independence, the exact public
`rank`) come from fraction-free Bareiss elimination.  Generic ranks of
rigidity matrices come from `mod_rank` on integer rows reduced mod p: for any
integer matrix, rank mod p <= rank over Q, so a modular rank never
over-reports.  No verdict ever depends on floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Rational = Fraction

MOD_P = 2**61 - 1  # a Mersenne prime: the field of the generic-rank samples


class RationalMatrix:
    """Immutable matrix of exact rationals, row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable[Rational]]):
        data = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("entry grid does not match declared shape")
        self.rows = rows
        self.cols = cols
        self._data = data

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[Rational]], cols: int | None = None) -> "RationalMatrix":
        data = [list(r) for r in entries]
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(len(data), cols, data)

    def entry(self, i: int, j: int) -> Rational:
        return self._data[i][j]

    def row(self, i: int) -> tuple[Rational, ...]:
        return self._data[i]

    def transpose(self) -> "RationalMatrix":
        if self.rows == 0 or self.cols == 0:
            return RationalMatrix(self.cols, self.rows, [[] for _ in range(self.cols)])
        return RationalMatrix(self.cols, self.rows, zip(*self._data))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


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


def rank(matrix: RationalMatrix) -> int:
    """Exact rank over the rationals."""
    scaled = []
    for i in range(matrix.rows):
        row = matrix.row(i)
        mult = lcm(*(x.denominator for x in row)) if row else 1
        scaled.append([x.numerator * (mult // x.denominator) for x in row])
    return _bareiss_rank(scaled, matrix.cols)


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
