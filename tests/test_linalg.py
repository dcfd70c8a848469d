import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, ZZ
from sympy.polys.matrices import DomainMatrix

from perigid.linalg import MOD_P, integer_rank, mod_rank, sparse_mod_rank
from support import RationalMatrix, rank


def M(rows, cols=None):
    return RationalMatrix.from_rows([[Fraction(x) for x in r] for r in rows], cols)


def test_identity_rank():
    assert rank(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_proportional_rows():
    assert rank(M([[1, 2], [2, 4]])) == 1


def test_empty_matrices():
    assert rank(RationalMatrix(0, 5, [])) == 0
    assert rank(RationalMatrix(3, 0, [[], [], []])) == 0
    assert mod_rank([], 3) == 0
    assert mod_rank([[], []], 0) == 0


def test_rational_entries():
    assert rank(M([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 1)]])) == 2
    # second row is 3x the first
    assert rank(M([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(3, 3)]])) == 1


def test_integer_rank_examples():
    assert integer_rank([(1, 0), (0, 1)]) == 2
    assert integer_rank([(2, 4), (1, 2)]) == 1
    assert integer_rank([], ncols=2) == 0


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        integer_rank([[1, 2], [1]])


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        RationalMatrix(2, 2, [[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("seed", range(5))
def test_rank_matches_sympy(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 8), rng.randint(1, 8)
    rows = [
        [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n)]
        for _ in range(m)
    ]
    # plant some dependent rows
    if m >= 3:
        rows[-1] = [2 * x for x in rows[0]]
    expected = sympy.Matrix(rows).rank()
    assert rank(M(rows)) == expected


@pytest.mark.parametrize("seed", range(5))
def test_rank_transpose_invariant(seed):
    rng = random.Random(100 + seed)
    rows = [[Fraction(rng.randint(-5, 5)) for _ in range(6)] for _ in range(4)]
    mat = M(rows)
    assert rank(mat) == rank(mat.transpose())


def test_rank_row_scaling_and_permutation_invariant():
    rng = random.Random(7)
    rows = [[Fraction(rng.randint(-9, 9)) for _ in range(5)] for _ in range(5)]
    base = rank(M(rows))
    shuffled = rows[::-1]
    scaled = [[Fraction(3, 7) * x for x in r] for r in shuffled]
    assert rank(M(scaled)) == base


def test_rank_bounded_by_shape():
    rng = random.Random(11)
    rows = [[Fraction(rng.randint(-9, 9)) for _ in range(3)] for _ in range(7)]
    assert rank(M(rows)) <= 3


@st.composite
def int_matrices(draw, entries):
    """Up to 7x7 integer rows, with planted duplicate rows, zero rows and
    zero columns."""
    ncols = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=7))
    if rows:
        picks = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
        rows += [list(rows[i]) for i in picks]
    for i in draw(st.lists(st.integers(0, len(rows)), max_size=2)):
        rows.insert(i, [0] * ncols)
    if ncols:
        for j in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
            for r in rows:
                r[j] = 0
    return rows, ncols


def sympy_rank_mod_p(rows, ncols):
    dm = DomainMatrix([[ZZ(x) for x in r] for r in rows], (len(rows), ncols), ZZ)
    return dm.convert_to(GF(MOD_P)).rank()


def reduced(rows):
    return [[x % MOD_P for x in r] for r in rows]


def sparse(rows):
    """Dict rows; even columns keep their zeros, which the kernel drops."""
    return [{j: x for j, x in enumerate(r) if x or j % 2 == 0} for r in rows]


# |entries| <= 50 on at most 7 columns: by Hadamard's bound every minor is
# below 132^7 < p, so no nonzero minor vanishes mod p and the ranks agree.
@settings(deadline=None)
@given(int_matrices(st.integers(-50, 50)))
def test_mod_rank_matches_rank_over_q(case):
    rows, ncols = case
    expected = sympy.Matrix(len(rows), ncols, [x for r in rows for x in r]).rank()
    assert integer_rank(rows, ncols) == expected
    assert mod_rank(reduced(rows), ncols) == expected
    assert mod_rank([list(r) for r in rows], ncols) == expected  # negative entries as given
    assert sparse_mod_rank(sparse(rows)) == (expected, None)


GF_P_ENTRIES = st.one_of(
    st.integers(-50, 50),
    st.integers(-3, 3).map(lambda c: c * MOD_P),
    st.integers(-50, 50).map(lambda x: x + MOD_P),
    st.integers(0, MOD_P - 1),
)


@settings(deadline=None)
@given(int_matrices(GF_P_ENTRIES))
def test_mod_rank_is_rank_over_gf_p(case):
    rows, ncols = case
    got = mod_rank(reduced(rows), ncols)
    assert got == sympy_rank_mod_p(rows, ncols)
    assert sparse_mod_rank(sparse(rows))[0] == got
    assert got <= integer_rank(rows, ncols)


def test_mod_rank_drops_where_a_minor_is_divisible_by_p():
    rows = [[1, 2], [2, 4 + MOD_P]]  # determinant p
    assert integer_rank(rows) == 2
    assert mod_rank(reduced(rows), 2) == 1
    assert sparse_mod_rank(sparse(rows))[0] == 1


@settings(deadline=None, max_examples=60)
@given(int_matrices(GF_P_ENTRIES))
def test_sparse_stresses_are_a_basis_of_the_left_kernel(case):
    rows, ncols = case
    r, stresses = sparse_mod_rank(sparse(rows), stresses=True)
    assert r == sympy_rank_mod_p(rows, ncols)
    assert len(stresses) == len(rows) - r
    for y in stresses:
        assert y and all(0 < x < MOD_P for x in y.values())
        assert all(sum(x * rows[i][j] for i, x in y.items()) % MOD_P == 0 for j in range(ncols))
    independent = mod_rank([[y.get(i, 0) for i in range(len(rows))] for y in stresses], len(rows))
    assert independent == len(stresses)


@settings(deadline=None, max_examples=60)
@given(int_matrices(GF_P_ENTRIES), st.data())
def test_deleting_rows_reads_off_the_stresses(case, data):
    # rank(R without rows S) = r - |S| + rank(K restricted to S)
    rows, ncols = case
    deleted = sorted(data.draw(st.sets(st.integers(0, len(rows) - 1))) if rows else [])
    r, stresses = sparse_mod_rank(sparse(rows), stresses=True)
    after = r - len(deleted) + mod_rank([[y.get(i, 0) for i in deleted] for y in stresses], len(deleted))
    assert r - len(deleted) <= after <= r
    assert after == sympy_rank_mod_p([row for i, row in enumerate(rows) if i not in deleted], ncols)
