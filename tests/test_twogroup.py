"""Central extension laws, center structure, and Stone-von-Neumann irreps."""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from excmono import obs, twogroup, verify
from excmono.obs import CheckFailed
from excmono.rootsys import root_system
from excmono.twogroup import _induced_character, build_tilde_group, odd_irreps
from oracles import (
    double_sum_form_tables,
    gauss_conj,
    gauss_mul,
    gauss_sum,
    _reduce_by,
    induced_irreps,
    inverse,
    irrep_matrix,
    law_failures,
    loop_beta,
    loop_mul,
    loop_norm,
    loop_pairing,
    loop_q,
    odd_sets,
)

SUPPORTED = ["A1", "G2", "D4", "D6", "D8", "E7", "E8"]

# label -> (radical size, center factors, center label, #irreps, irrep dim)
CENTER_TABLE = {
    "A1": (2, (4,), "mu4", 2, 1),
    "G2": (1, (2,), "mu2", 1, 2),
    "D4": (4, (2, 2, 2), "mu2^3", 4, 2),
    "D6": (4, (2, 4), "mu2 x mu4", 4, 4),
    "D8": (4, (2, 2, 2), "mu2^3", 4, 8),
    "E7": (2, (4,), "mu4", 2, 8),
    "E8": (1, (2,), "mu2", 1, 16),
}


def group(label):
    return build_tilde_group(root_system(label))


def element(tg, sign, bits):
    """The int element (sign, bits): bits | sign_bit << r."""
    return bits | (sign == -1) << tg.r


@pytest.mark.parametrize("label", SUPPORTED)
def test_order_and_radical(label):
    tg = group(label)
    assert tg.order == 2 ** (tg.r + 1)
    expected = CENTER_TABLE[label][0]
    assert tg.radical_size_crosscheck() == expected
    # radical pairs trivially with everything
    for a in tg.radical_elements():
        assert all(tg.pairing(a, b) == 0 for b in range(1 << tg.r))


@pytest.mark.parametrize("label", SUPPORTED)
def test_center_structure(label):
    tg = group(label)
    factors, name = tg.center_structure()
    assert factors == CENTER_TABLE[label][1]
    assert name == CENTER_TABLE[label][2]


def test_q_values_on_simple_classes():
    tg = group("A1")
    assert tg.q(1) == -1  # (alpha-vee, alpha-vee) = 2
    tg = group("G2")
    assert tg.q(0b01) == -1  # long coroot class, norm 6
    assert tg.q(0b10) == -1  # short coroot class, norm 2
    assert tg.q(0) == 1


@pytest.mark.parametrize("label", SUPPORTED)
def test_polarization_identity_exhaustive(label):
    tg = group(label)
    n = 1 << tg.r
    q = [tg.q(a) for a in range(n)]
    for a in range(n):
        for b in range(n):
            lhs = -1 if tg.pairing(a, b) else 1
            assert lhs == q[a ^ b] * q[a] * q[b]


def pair_mask_by_loops(tg, a):
    """The mask of (a, -) mod 2 from the per-call pairing loop."""
    return sum(loop_pairing(tg, a, 1 << j) << j for j in range(tg.r))


# the two row-loop tests together cover every type of verify.COVERED_LABELS
@pytest.mark.parametrize("label", ["A1", "G2", "D4", "D6"])
def test_form_tables_match_row_loops_exhaustive(label):
    tg = group(label)
    for a in range(1 << tg.r):
        assert tg._norm[a] == loop_norm(tg, a)
        assert tg._pair_mask[a] == pair_mask_by_loops(tg, a)
        assert tg.q(a) == loop_q(tg, a)
        for b in range(1 << tg.r):
            assert tg.pairing(a, b) == loop_pairing(tg, a, b)
            assert tg._beta(a, b) == loop_beta(tg, a, b)


@pytest.mark.parametrize("label", verify.COVERED_LABELS)
def test_gram_tables_by_recurrence_match_the_double_sums(label):
    # the group's norms and pairing masks, grown one top bit at a time
    tg = group(label)
    assert (tg._norm, tg._pair_mask) == double_sum_form_tables(tg.rs, tg.r)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_form_tables_match_row_loops_sampled(data):
    tg = group(data.draw(st.sampled_from(["D8", "E7", "E8"])))
    bits = st.integers(0, (1 << tg.r) - 1)
    a, b = data.draw(bits), data.draw(bits)
    assert tg._norm[a] == loop_norm(tg, a)
    assert tg._pair_mask[a] == pair_mask_by_loops(tg, a)
    assert tg.q(a) == loop_q(tg, a)
    assert tg.pairing(a, b) == loop_pairing(tg, a, b)
    assert tg._beta(a, b) == loop_beta(tg, a, b)


@pytest.mark.parametrize("r", range(5))
def test_odd_sets_match_parities(r):
    odd = odd_sets(r)
    assert len(set(odd)) == len(odd) == 1 << r
    for m, row in enumerate(odd):
        assert row < 1 << (1 << r)
        for b in range(1 << r):
            assert (row >> b) & 1 == bin(m & b).count("1") % 2


@pytest.mark.parametrize("label", ["A1", "G2", "D4", "D6"])
def test_pairing_rows_match_pairings(label):
    # the commutator law's pairing row of a, {b : (a, b) odd}
    tg = group(label)
    odd = odd_sets(tg.r)
    for a in range(1 << tg.r):
        row = odd[tg._pair_mask[a]]
        assert all((row >> b) & 1 == loop_pairing(tg, a, b)
                   for b in range(1 << tg.r))


def bitslice_rows_hold(tg, odd):
    """For each row a, the commutator law as the bitslice compare of the
    2^r-bit odd sets of its beta row, transposed beta row and pairing row."""
    return [odd[tg._cocycle_mask[a]] ^ odd[tg._cocycle_t_mask[a]]
            == odd[tg._pair_mask[a]] for a in range(1 << tg.r)]


def mask_rows_hold(tg):
    """For each row a, the commutator law as the r-bit mask compare."""
    return [tg._cocycle_mask[a] ^ tg._cocycle_t_mask[a] == tg._pair_mask[a]
            for a in range(1 << tg.r)]


@pytest.mark.parametrize("label", SUPPORTED)
def test_mask_compare_matches_the_bitslice_compare(label):
    # mask -> odd set is F2-linear and one-to-one, so the two compares
    # agree on every row, also once one bit of one table row is flipped
    tg = twogroup.TildeGroup(root_system(label))
    odd = odd_sets(tg.r)
    assert mask_rows_hold(tg) == bitslice_rows_hold(tg, odd)
    assert all(mask_rows_hold(tg))
    for table in ("_cocycle_mask", "_cocycle_t_mask", "_pair_mask"):
        rows = getattr(tg, table)
        for a in range(1 << tg.r):
            bit = 1 << (a % tg.r)
            rows[a] ^= bit
            held = mask_rows_hold(tg)
            assert held == bitslice_rows_hold(tg, odd)
            assert held.count(False) == 1 and not held[a]
            rows[a] ^= bit


@pytest.mark.parametrize("label", ["A1", "G2", "D4", "D6"])
def test_law_replay_exhaustive(label):
    tg = group(label)
    n = 1 << tg.r
    assert law_failures(tg, ((a, b) for a in range(n) for b in range(n))) == []


@pytest.mark.parametrize("label", ["A1", "G2", "D4", "D6", "D8", "E7", "E8"])
def test_row_checks_cover_every_pair(label):
    # one run of each law check per row a, and a row holds 2^r pairs (a, b)
    obs.reset()
    tg = twogroup.TildeGroup(root_system(label))
    runs = {c["name"]: c["runs"] for c in obs.runs()}
    assert runs["square-law"] == runs["commutator-law"] == 1 << tg.r


def test_d14_build_stays_small():
    # the tables are 4 * 2^14 ints of at most 14 bits; the 2^r-bit odd
    # sets the row check once built took a 36.7 MB peak here
    rs = root_system("D14")
    tracemalloc.start()
    try:
        twogroup.TildeGroup(rs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_law_replay_sampled(data):
    tg = group(data.draw(st.sampled_from(["D8", "E7", "E8"])))
    bits = st.integers(0, (1 << tg.r) - 1)
    a, b = data.draw(bits), data.draw(bits)
    assert law_failures(tg, [(a, b)]) == []


@pytest.mark.parametrize("table", ["_cocycle_mask", "_cocycle_t_mask",
                                   "_pair_mask"])
def test_flipped_table_bit_breaks_the_row_check(table):
    tg = twogroup.TildeGroup(root_system("D4"))
    getattr(tg, table)[0b0110] ^= 0b0001
    with pytest.raises(AssertionError, match="commutator law broken"):
        tg._check_laws()


def test_replay_sees_only_the_diagonal_of_the_cocycle():
    # the replayed commutator of (+, a) and (+, b) has sign
    # beta(a, b) twice, plus beta(c, c) for c = a, b and a ^ b, so the
    # replay sees a flip only where it changes some beta(c, c); the row
    # check sees every bit of every row
    n = 1 << 4
    pairs = [(a, b) for a in range(n) for b in range(n)]
    off = twogroup.TildeGroup(root_system("D4"))
    off._cocycle_mask[0b0110] ^= 0b0001
    assert law_failures(off, pairs) == []
    diagonal = twogroup.TildeGroup(root_system("D4"))
    diagonal._cocycle_mask[0b0110] ^= 0b0010
    assert (0b0110, 0) in law_failures(diagonal, pairs)
    with pytest.raises(AssertionError, match="square law broken"):
        diagonal._check_laws()


# Under -O no assert statement runs; the group laws must still be checked,
# since `atilde` reports them as passed.
_CORRUPT_LAWS = """
import sys
from excmono import twogroup
from excmono.cli import main
real = twogroup.TildeGroup._check_laws
def corrupted(self):
    getattr(self, "{table}")[{row}] ^= {flip}
    return real(self)
twogroup.TildeGroup._check_laws = corrupted
sys.exit(main(["atilde", "E8"]))
"""


@pytest.mark.parametrize("table,row,flip,code", [
    ("_cocycle_mask", 0, 0, 0),
    ("_cocycle_mask", 0b10110, 1 << 6, 1),
    ("_cocycle_mask", 0b1, 0b1, 1),
    ("_pair_mask", 0b11000000, 0b100, 1),
])
def test_laws_checked_under_optimize(table, row, flip, code):
    src = str(Path(twogroup.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    script = _CORRUPT_LAWS.format(table=table, row=row, flip=flip)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code:
        assert "check failed:" in proc.stderr and "law broken" in proc.stderr


@pytest.mark.parametrize("table,row,flip,name", [
    ("_cocycle_mask", 0b10110, 1 << 6, "commutator-law"),
    ("_cocycle_mask", 0b1, 0b1, "square-law"),
])
def test_flipped_cocycle_bit_names_the_check_under_optimize(table, row,
                                                             flip, name):
    src = str(Path(twogroup.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    script = _CORRUPT_LAWS.format(table=table, row=row, flip=flip)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"check failed: {name}: "), proc.stderr


@pytest.mark.parametrize("label", ["A1", "G2", "D4"])
def test_group_axioms_small(label):
    tg = group(label)
    els = range(tg.order)
    for x in els:
        assert tg.mul(x, inverse(tg, x)) == 0
        assert tg.mul(0, x) == x
        for y in els:
            assert tg.mul(x, y) == loop_mul(tg, x, y)
    for x in els:
        for y in els:
            for z in els:
                assert tg.mul(tg.mul(x, y), z) == tg.mul(x, tg.mul(y, z))


@settings(max_examples=50)
@given(st.data())
def test_commutator_matches_pairing(data):
    tg = group(data.draw(st.sampled_from(["E7", "E8", "D6"])))
    bits = st.integers(0, (1 << tg.r) - 1)
    signs = st.sampled_from([1, -1])
    a, b = data.draw(bits), data.draw(bits)
    x = element(tg, data.draw(signs), a)
    y = element(tg, data.draw(signs), b)
    comm = tg.mul(tg.mul(x, y), tg.mul(inverse(tg, x), inverse(tg, y)))
    assert comm == element(tg, -1 if tg.pairing(a, b) else 1, 0)


@pytest.mark.parametrize("label", ["B3", "C2", "F4", "D5", "D2"])
def test_unsupported_types_rejected(label):
    with pytest.raises(ValueError):
        build_tilde_group(root_system(label))


# ------------------------------------------------------------------ irreps --

def zmat_mul(a, b):
    n = len(a)
    return [[gauss_sum(gauss_mul(a[i][k], b[k][j]) for k in range(n))
             for j in range(n)] for i in range(n)]


def zmat_eq_identity(m):
    n = len(m)
    return all(m[i][j] == ((1, 0) if i == j else (0, 0))
               for i in range(n) for j in range(n))


@pytest.mark.parametrize("label", SUPPORTED)
def test_irrep_census(label):
    tg = group(label)
    irs = odd_irreps(tg)
    _, _, _, count, dim = CENTER_TABLE[label]
    assert len(irs) == count
    assert all(re[0] == dim for re, _ in irs)
    assert sum(re[0] ** 2 for re, _ in irs) == 1 << tg.r


@pytest.mark.parametrize("label", SUPPORTED)
def test_irreps_are_odd(label):
    tg = group(label)
    minus = element(tg, -1, 0)
    for ir, ind in zip(odd_irreps(tg), induced_irreps(tg), strict=True):
        mat = irrep_matrix(ind, minus)
        re, im = ir
        n = re[0]
        assert all(mat[i][j] == ((-1, 0) if i == j else (0, 0))
                   for i in range(n) for j in range(n))
        assert (re[minus], im[minus]) == (-n, 0)


@pytest.mark.parametrize("label", ["A1", "G2", "D4"])
def test_irrep_homomorphism_exhaustive(label):
    tg = group(label)
    for ind in induced_irreps(tg):
        mats = {el: irrep_matrix(ind, el) for el in range(tg.order)}
        for x in range(tg.order):
            for y in range(tg.order):
                assert zmat_mul(mats[x], mats[y]) == mats[tg.mul(x, y)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_irrep_homomorphism_sampled_large(data):
    label = data.draw(st.sampled_from(["E7", "E8"]))
    tg = group(label)
    ir = data.draw(st.sampled_from(induced_irreps(tg)))
    bits = st.integers(0, (1 << tg.r) - 1)
    signs = st.sampled_from([1, -1])
    x = element(tg, data.draw(signs), data.draw(bits))
    y = element(tg, data.draw(signs), data.draw(bits))
    assert zmat_mul(irrep_matrix(ir, x), irrep_matrix(ir, y)) == irrep_matrix(ir, tg.mul(x, y))


@pytest.mark.parametrize("label", SUPPORTED)
def test_irrep_inverses(label):
    tg = group(label)
    for ind in induced_irreps(tg):
        for bits in (0, 1, (1 << tg.r) - 1):
            assert zmat_eq_identity(zmat_mul(
                irrep_matrix(ind, bits), irrep_matrix(ind, inverse(tg, bits))))


@pytest.mark.parametrize("label", SUPPORTED)
def test_character_orthogonality_exact(label):
    tg = group(label)
    irs = odd_irreps(tg)
    tables = [list(zip(*ir)) for ir in irs]
    for i, ti in enumerate(tables):
        for j, tj in enumerate(tables):
            inner = gauss_sum(gauss_mul(x, gauss_conj(y))
                              for x, y in zip(ti, tj))
            assert inner == ((tg.order, 0) if i == j else (0, 0))


def _trace(mat):
    return gauss_sum(mat[i][i] for i in range(len(mat)))


@pytest.mark.parametrize("label", ["D4", "D6"])
def test_character_tables_are_matrix_traces(label):
    tg = group(label)
    for (re, im), ind in zip(odd_irreps(tg), induced_irreps(tg), strict=True):
        assert len(re) == len(im) == tg.order
        for el in range(tg.order):
            assert (re[el], im[el]) == _trace(irrep_matrix(ind, el))


def test_e8_character_table_sampled_traces():
    tg = group("E8")
    ((re, im),) = odd_irreps(tg)
    (ind,) = induced_irreps(tg)
    for el in random.Random(8).sample(range(tg.order), 40):
        assert (re[el], im[el]) == _trace(irrep_matrix(ind, el))


def test_changed_character_value_fails_criterion_4(monkeypatch):
    # odd_irreps checks the characters of the atilde result it builds
    real = twogroup._induced_character
    built = []

    def off_by_one(tg, transversal, m_character):
        re, im = real(tg, transversal, m_character)
        if tg.rs.label == "D6":
            built.append(tg)
            if len(built) == 2:   # the second odd irrep of D6
                re[37] += 1
        return re, im

    verify.criterion_center_table()
    monkeypatch.setattr(twogroup, "_induced_character", off_by_one)
    obs.clear_caches()   # the atilde results are built again
    with pytest.raises(CheckFailed, match="character-orthogonality: D6"):
        verify.criterion_center_table()


@pytest.mark.parametrize("label", ["G2", "E7", "D6"])
def test_characters_do_not_depend_on_lagrangian(label):
    # Stone-von Neumann: same central character => same irrep; induce
    # from the reversed greedy order and compare whole character functions
    tg = group(label)
    first = odd_irreps(tg)
    second = [_induced_character(tg, ind.transversal, ind.m_character)
              for ind in induced_irreps(tg, range((1 << tg.r) - 1, 0, -1))]
    assert first == second


@pytest.mark.parametrize("label", ["A1", "G2", "D4", "D6", "D8", "D10",
                                   "D12", "D14", "E7", "E8"])
def test_transversal_is_the_reduce_by_route(label, monkeypatch):
    # odd_irreps takes the masks that set no pivot column; the oracle
    # clears the pivot columns of every class
    tg = group(label)
    real = twogroup._induced_character
    seen = set()

    def spy(tg, transversal, m_character):
        seen.add(transversal)
        return real(tg, transversal, m_character)

    monkeypatch.setattr(twogroup, "_induced_character", spy)
    odd_irreps(tg)
    m_pivots = induced_irreps(tg)[0].m_pivots
    assert seen == {tuple(sorted({_reduce_by(m_pivots, x)
                                  for x in range(1 << tg.r)}))}


def _conjugation_pairs_agree(tg, pairs):
    for t, m in pairs:
        assert m ^ (tg.pairing(t, m) << tg.r) == \
            tg.mul(tg.mul(t, m), inverse(tg, t)), (t, m)


@pytest.mark.parametrize("label", ["A1", "G2", "D4", "D6"])
def test_conjugation_by_pairing_is_the_product_route(label):
    # t m t^-1 = m with its sign flipped by (t, m), for every class t and
    # every element m
    tg = group(label)
    _conjugation_pairs_agree(tg, itertools.product(range(1 << tg.r),
                                                   range(tg.order)))


@pytest.mark.parametrize("label", ["E7", "E8"])
def test_conjugation_by_pairing_is_the_product_route_sampled(label):
    tg = group(label)
    rng = random.Random(tg.r)
    _conjugation_pairs_agree(tg, [(rng.randrange(1 << tg.r),
                                   rng.randrange(tg.order))
                                  for _ in range(500)])


def test_a1_is_cyclic_of_order_four():
    tg = group("A1")
    g = element(tg, 1, 1)
    powers = [g]
    while powers[-1] != 0:
        powers.append(tg.mul(powers[-1], g))
    assert len(powers) == 4
    chars = [(re[g], im[g]) for re, im in odd_irreps(tg)]
    assert all(re == 0 for re, _ in chars)
    assert sorted(im for _, im in chars) == [-1, 1]  # values are +-i


def test_g2_is_quaternion():
    # every element outside the center squares to (-1, 0)
    tg = group("G2")
    for el in range(tg.order):
        if el & 0b11:
            assert tg.mul(el, el) == element(tg, -1, 0)
