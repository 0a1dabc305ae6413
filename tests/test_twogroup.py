"""Central extension laws, center structure, and Stone-von-Neumann irreps."""

import pytest
from hypothesis import given, settings, strategies as st

from excmono.gaussint import Zi
from excmono.rootsys import root_system
from excmono.twogroup import TildeElement, build_tilde_group, odd_irreps
from oracles import irrep_matrix, loop_beta, loop_pairing, loop_q

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


@pytest.mark.parametrize("label", ["A1", "G2", "D4", "D6"])
def test_form_tables_match_row_loops_exhaustive(label):
    tg = group(label)
    for a in range(1 << tg.r):
        assert tg.q(a) == loop_q(tg, a)
        for b in range(1 << tg.r):
            assert tg.pairing(a, b) == loop_pairing(tg, a, b)
            assert tg._beta(a, b) == loop_beta(tg, a, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_form_tables_match_row_loops_sampled(data):
    tg = group(data.draw(st.sampled_from(["D8", "E7", "E8"])))
    bits = st.integers(0, (1 << tg.r) - 1)
    a, b = data.draw(bits), data.draw(bits)
    assert tg.q(a) == loop_q(tg, a)
    assert tg.pairing(a, b) == loop_pairing(tg, a, b)
    assert tg._beta(a, b) == loop_beta(tg, a, b)


@pytest.mark.parametrize("label", ["A1", "G2", "D4"])
def test_group_axioms_small(label):
    tg = group(label)
    els = list(tg.elements())
    assert len(els) == len(set(els)) == tg.order
    for x in els:
        assert tg.mul(x, tg.inverse(x)) == tg.identity
        assert tg.mul(tg.identity, x) == x
    for x in els:
        for y in els:
            for z in els:
                assert tg.mul(tg.mul(x, y), z) == tg.mul(x, tg.mul(y, z))


@settings(max_examples=50)
@given(st.data())
def test_commutator_matches_pairing(data):
    tg = group(data.draw(st.sampled_from(["E7", "E8", "D6"])))
    bits = st.integers(0, (1 << tg.r) - 1)
    x = TildeElement(data.draw(st.sampled_from([1, -1])), data.draw(bits))
    y = TildeElement(data.draw(st.sampled_from([1, -1])), data.draw(bits))
    comm = tg.mul(tg.mul(x, y), tg.mul(tg.inverse(x), tg.inverse(y)))
    assert comm == TildeElement(-1 if tg.pairing(x.bits, y.bits) else 1, 0)


@pytest.mark.parametrize("label", ["B3", "C2", "F4", "D5", "D2"])
def test_unsupported_types_rejected(label):
    with pytest.raises(ValueError):
        build_tilde_group(root_system(label))


# ------------------------------------------------------------------ irreps --

def zmat_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Zi(0))
             for j in range(n)] for i in range(n)]


def zmat_eq_identity(m):
    n = len(m)
    return all(m[i][j] == (Zi(1) if i == j else Zi(0))
               for i in range(n) for j in range(n))


@pytest.mark.parametrize("label", SUPPORTED)
def test_irrep_census(label):
    tg = group(label)
    irs = odd_irreps(tg)
    _, _, _, count, dim = CENTER_TABLE[label]
    assert len(irs) == count
    assert all(ir.dimension == dim for ir in irs)
    assert sum(ir.dimension ** 2 for ir in irs) == 1 << tg.r


@pytest.mark.parametrize("label", SUPPORTED)
def test_irreps_are_odd(label):
    tg = group(label)
    minus = TildeElement(-1, 0)
    for ir in odd_irreps(tg):
        mat = irrep_matrix(ir, minus)
        n = ir.dimension
        assert all(mat[i][j] == (Zi(-1) if i == j else Zi(0))
                   for i in range(n) for j in range(n))
        assert ir.character(minus) == Zi(-n)


@pytest.mark.parametrize("label", ["A1", "G2", "D4"])
def test_irrep_homomorphism_exhaustive(label):
    tg = group(label)
    for ir in odd_irreps(tg):
        mats = {el: irrep_matrix(ir, el) for el in tg.elements()}
        for x in tg.elements():
            for y in tg.elements():
                assert zmat_mul(mats[x], mats[y]) == mats[tg.mul(x, y)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_irrep_homomorphism_sampled_large(data):
    label = data.draw(st.sampled_from(["E7", "E8"]))
    tg = group(label)
    ir = data.draw(st.sampled_from(odd_irreps(tg)))
    bits = st.integers(0, (1 << tg.r) - 1)
    x = TildeElement(data.draw(st.sampled_from([1, -1])), data.draw(bits))
    y = TildeElement(data.draw(st.sampled_from([1, -1])), data.draw(bits))
    assert zmat_mul(irrep_matrix(ir, x), irrep_matrix(ir, y)) == irrep_matrix(ir, tg.mul(x, y))


@pytest.mark.parametrize("label", SUPPORTED)
def test_irrep_inverses(label):
    tg = group(label)
    for ir in odd_irreps(tg):
        for bits in (0, 1, (1 << tg.r) - 1):
            el = TildeElement(1, bits)
            assert zmat_eq_identity(
                zmat_mul(irrep_matrix(ir, el), irrep_matrix(ir, tg.inverse(el))))


@pytest.mark.parametrize("label", SUPPORTED)
def test_character_orthogonality_exact(label):
    tg = group(label)
    irs = odd_irreps(tg)
    tables = [{el: ir.character(el) for el in tg.elements()} for ir in irs]
    for i, ti in enumerate(tables):
        for j, tj in enumerate(tables):
            inner = sum((ti[el] * tj[el].conj() for el in tg.elements()), Zi(0))
            assert inner == (Zi(tg.order) if i == j else Zi(0))


@pytest.mark.parametrize("label", ["G2", "E7", "D6"])
def test_characters_do_not_depend_on_lagrangian(label):
    # Stone-von Neumann: same central character => same irrep; build with
    # the reversed greedy order and compare whole character functions
    tg = group(label)
    first = odd_irreps(tg)
    second = odd_irreps(tg, order=range((1 << tg.r) - 1, 0, -1))
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.central_character == b.central_character
        for el in tg.elements():
            assert a.character(el) == b.character(el)


def test_a1_is_cyclic_of_order_four():
    tg = group("A1")
    g = TildeElement(1, 1)
    powers = [g]
    while powers[-1] != tg.identity:
        powers.append(tg.mul(powers[-1], g))
    assert len(powers) == 4
    chars = [ir.character(g) for ir in odd_irreps(tg)]
    assert all(c.re == 0 for c in chars)
    assert sorted(c.im for c in chars) == [-1, 1]  # values are +-i


def test_g2_is_quaternion():
    # every element outside the center squares to (-1, 0)
    tg = group("G2")
    for el in tg.elements():
        if el.bits:
            assert tg.mul(el, el) == TildeElement(-1, 0)
