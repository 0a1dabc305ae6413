"""Exact linear algebra, checked against slow-but-obvious reference code."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from excmono.linalg import (
    gf2_echelon,
    gf2_nullspace,
    integer_rank,
    smith_normal_form,
)
from excmono import chevalley, obs, verify
from oracles import (echelonize, gf2_rank, mat_mul, mat_pow,
                     scan_integer_rank, sparse_rows)


# ---------------------------------------------------------------- oracles --

def rank_by_fractions(rows):
    """Textbook Gaussian elimination over Q."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def det_exact(mat):
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det_exact(minor)
    return total


def invariants_by_minor_gcds(mat):
    """d_1 ... d_k from determinantal divisors: d_k = D_k / D_{k-1}."""
    from math import gcd

    nr, nc = len(mat), len(mat[0])
    divisors = [1]
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rows in itertools.combinations(range(nr), k):
            for cols in itertools.combinations(range(nc), k):
                sub = [[mat[i][j] for j in cols] for i in rows]
                g = gcd(g, det_exact(sub))
        if g == 0:
            break
        divisors.append(g)
    return [divisors[i] // divisors[i - 1] for i in range(1, len(divisors))]


# ----------------------------------------------------------------- tests --

SNF_CASES = [
    ([[1, 2], [3, 4]], [1, 2]),
    ([[2, 0], [0, 3]], [1, 6]),
    ([[6, 0], [0, 10]], [2, 30]),
    ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], [2, 2, 156]),
    ([[0, 0], [0, 0]], []),
    ([[5]], [5]),
    ([[4, 6]], [2]),
]


@pytest.mark.parametrize("mat,expected", SNF_CASES)
def test_smith_normal_form_fixtures(mat, expected):
    assert smith_normal_form(mat) == expected
    assert invariants_by_minor_gcds(mat) == expected


def test_smith_chain_is_divisible():
    inv = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    for a, b in zip(inv, inv[1:]):
        assert b % a == 0


# Cokernels of Cartan matrices are the fundamental groups of the
# simply-connected groups; classical values.
CARTAN_SNF = {
    "A1": ([[2]], [2]),
    "G2": ([[2, -1], [-3, 2]], [1, 1]),
    "B2": ([[2, -2], [-1, 2]], [1, 2]),
    "D4": (
        [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
        [1, 1, 2, 2],
    ),
}


@pytest.mark.parametrize("label", sorted(CARTAN_SNF))
def test_cartan_cokernels(label):
    mat, expected = CARTAN_SNF[label]
    assert smith_normal_form(mat) == expected


small_matrix = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@given(small_matrix)
def test_rank_matches_fraction_elimination(mat):
    assert integer_rank(sparse_rows(mat)) == rank_by_fractions(mat)


@given(small_matrix)
def test_rank_of_transpose(mat):
    t = [list(col) for col in zip(*mat)]
    assert integer_rank(sparse_rows(mat)) == integer_rank(sparse_rows(t))


@given(small_matrix)
def test_smith_invariants_match_minor_gcds(mat):
    assert smith_normal_form(mat) == invariants_by_minor_gcds(mat)


def test_duplicating_a_row_keeps_rank():
    mat = [[1, 2, 3], [4, 5, 6]]
    assert integer_rank(sparse_rows(mat + [mat[0]])) \
        == integer_rank(sparse_rows(mat)) == 2


def test_rank_leaves_its_rows_alone_and_reads_any_columns():
    rows = [{7: 2, 30: 4}, {7: 1, 30: 2}, {}, {-3: 5, 30: 1}]
    copies = [dict(row) for row in rows]
    assert integer_rank(iter(rows)) == 2
    assert rows == copies
    assert integer_rank([]) == integer_rank([{}, {}]) == 0


def seeded_sparse_rows(seed):
    """Up to 40 sparse rows over scattered (some negative) columns, with
    empty rows, repeated rows, sums of earlier rows and entries up to
    10^12."""
    rng = random.Random(seed)
    cols = rng.sample(range(-5, 60), rng.randrange(1, 40))
    rows = []
    for _ in range(rng.randrange(40)):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.2 and rows:
            rows.append(dict(rng.choice(rows)))
        elif kind < 0.3 and len(rows) > 1:
            a, b = rng.sample(rows, 2)
            f = rng.randint(-3, 3)
            row = {k: a.get(k, 0) + f * b.get(k, 0)
                   for k in a.keys() | b.keys()}
            rows.append({k: v for k, v in row.items() if v})
        else:
            big = rng.random() < 0.3
            width = rng.randint(1, min(6, len(cols)))
            row = {c: rng.randint(-10 ** 12, 10 ** 12) if big
                   else rng.choice((-3, -2, -1, 1, 2, 3))
                   for c in rng.sample(cols, width)}
            rows.append({k: v for k, v in row.items() if v})
    return rows


@pytest.mark.parametrize("seed", range(40))
def test_rank_matches_scan_oracle_on_seeded_sparse_rows(seed):
    rows = seeded_sparse_rows(seed)
    copies = [dict(row) for row in rows]
    want = scan_integer_rank(rows)
    assert integer_rank(rows) == want
    assert rows == copies
    cols = sorted(set().union(*rows))
    assert want == rank_by_fractions([[row.get(c, 0) for c in cols]
                                      for row in rows if row])


def test_rank_matches_scan_oracle_on_criterion_5_ad_matrices(monkeypatch):
    seen = []
    real = chevalley.integer_rank

    def recording(rows):
        rows = list(rows)
        seen.append((rows, real(rows)))
        return seen[-1][1]

    monkeypatch.setattr(chevalley, "integer_rank", recording)
    obs.reset()
    verify.criterion_chevalley()
    # a regular nilpotent per label, the v-class searches, Jordan types
    assert len(seen) >= 13
    assert any(len(rows) == 248 for rows, _ in seen)
    for rows, rank in seen:
        assert rank == scan_integer_rank(rows)


def test_mat_mul_and_pow():
    a = [[1, 1], [0, 1]]
    assert mat_mul(a, a) == [[1, 2], [0, 1]]
    assert mat_pow(a, 10) == [[1, 10], [0, 1]]
    assert mat_pow(a, 0) == [[1, 0], [0, 1]]


# -------------------------------------------------------------------- F2 --

def test_gf2_nullspace_regression_seven_chained_pairs():
    # Chained index pairs (7,6),(6,5),...,(1,3)-style masks once produced a
    # functional that failed on the later rows; keep them as a fixture.
    masks = [0b11000000, 0b01100000, 0b00110000, 0b00011000,
             0b00001100, 0b00001010, 0b00000101]
    null = gf2_nullspace(masks, 8)
    assert null == [0b11111111]
    for m in masks:
        assert bin(m & null[0]).count("1") % 2 == 0


bit_rows = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, 2**8 - 1), min_size=0, max_size=10),
    )
)


@given(st.lists(st.integers(0, 255), max_size=10))
def test_gf2_nullspace_members_annihilate(masks):
    null = gf2_nullspace(masks, 8)
    for x in null:
        for m in masks:
            assert bin(m & x).count("1") % 2 == 0
    assert len(null) == 8 - gf2_rank(list(masks))


@given(st.lists(st.integers(0, 2**10 - 1), max_size=12))
def test_gf2_echelon_matches_sorted_echelon_basis(masks):
    pivots = gf2_echelon(masks)
    assert all(row.bit_length() - 1 == c for c, row in pivots.items())
    assert tuple(sorted(pivots.values(), reverse=True)) == echelonize(masks)


@given(st.lists(st.lists(st.integers(0, 1), min_size=6, max_size=6),
                min_size=1, max_size=6))
def test_gf2_rank_bounded_by_integer_rank(mat):
    masks = [sum(b << i for i, b in enumerate(row)) for row in mat]
    assert gf2_rank(masks) <= integer_rank(sparse_rows(mat))
