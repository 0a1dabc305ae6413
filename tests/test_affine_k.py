"""Symmetric-subgroup data: the K-table, lattice quotients, and kappa."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from excmono import obs
from excmono.affine_k import (
    K_TYPE_TABLE,
    KappaCharacter,
    _fold_half_rho_vee,
    _simple_system,
    k_fundamental_quotient,
    k_type_row,
    phi_k,
    removed_node_coefficient,
)
from excmono.rootsys import (MAX_RANK, RootSystem, require_covered,
                             root_system)
from oracles import fraction_fold, pair, tuple_simple_system, two_rho_coroot

# label -> (component types, torus rank, pi1 as invariant factors + free rank)
K_TABLE = {
    "A1": ((), 1),
    "B2": (("A1",), 1),
    "B3": (("A1", "A1", "A1"), 0),
    "B4": (("A1", "A1", "B2"), 0),
    "B5": (("B2", "A3"), 0),
    "B6": (("A3", "B3"), 0),
    "B7": (("B3", "D4"), 0),
    "C2": (("A1",), 1),
    "C3": (("A2",), 1),
    "C4": (("A3",), 1),
    "C5": (("A4",), 1),
    "D4": (("A1", "A1", "A1", "A1"), 0),
    "D6": (("A3", "A3"), 0),
    "D8": (("D4", "D4"), 0),
    "E7": (("A7",), 0),
    "E8": (("D8",), 0),
    "F4": (("A1", "C3"), 0),
    "G2": (("A1", "A1"), 0),
}


@pytest.mark.parametrize("label", sorted(K_TABLE))
def test_k_component_types(label):
    sub = phi_k(root_system(label))
    types, torus = K_TABLE[label]
    assert sub.component_types == types
    assert sub.torus_rank == torus


def classical_root_count(label):
    letter, n = label[0], int(label[1:])
    if letter == "E":
        return {6: 72, 7: 126, 8: 240}[n]
    return {"A": n * (n + 1), "B": 2 * n * n, "C": 2 * n * n,
            "D": 2 * n * (n - 1), "F": 48, "G": 12}[letter]


def member_roots(rs):
    """The roots of K: those of even height."""
    return [t for t in rs.roots if sum(t) % 2 == 0]


@pytest.mark.parametrize("label", sorted(K_TABLE))
def test_member_count_matches_component_root_counts(label):
    # oracle: total roots of the classified component types
    rs = root_system(label)
    sub = phi_k(rs)
    expected = sum(classical_root_count(c) for c in sub.component_types)
    assert len(member_roots(rs)) == expected


@pytest.mark.parametrize("label", sorted(K_TABLE))
def test_members_are_the_even_height_roots(label):
    rs = root_system(label)
    members = member_roots(rs)
    two_rho_vee = two_rho_coroot(rs)
    for t in members:
        assert pair(rs, t, two_rho_vee) % 4 == 0  # <rho-vee, alpha> even
    assert len(members) == rs.num_roots // 2 - rs.rank


@pytest.mark.parametrize("label", ["G2", "F4", "E7"])
def test_member_set_closed_under_negation_and_addition(label):
    rs = root_system(label)
    members = set(member_roots(rs))
    allroots = set(rs.roots)
    for a in members:
        assert tuple(-v for v in a) in members
        for b in members:
            s = tuple(x + y for x, y in zip(a, b))
            if s in allroots:
                assert s in members


@pytest.mark.parametrize("label,factors,free", [
    ("A1", (), 1),
    ("C2", (1,), 1),
    ("C3", (1, 1), 1),
    ("C4", (1, 1, 1), 1),
    ("B3", (1, 1, 2), 0),
    ("D4", (1, 1, 1, 2), 0),
    ("D6", (1, 1, 1, 1, 1, 2), 0),
    ("D8", (1, 1, 1, 1, 1, 1, 1, 2), 0),
    ("E7", (1, 1, 1, 1, 1, 1, 2), 0),
    ("E8", (1, 1, 1, 1, 1, 1, 1, 2), 0),
    ("F4", (1, 1, 1, 2), 0),
    ("G2", (1, 2), 0),
])
def test_fundamental_quotients(label, factors, free):
    q = k_fundamental_quotient(root_system(label))
    assert q.invariant_factors == factors
    assert q.free_rank == free


@pytest.mark.parametrize("label", ["B3", "B4", "D4", "D8", "E7", "E8", "F4", "G2"])
def test_removed_node_coefficient_is_two(label):
    assert removed_node_coefficient(root_system(label)) == 2


def test_removed_node_positions():
    # Bourbaki numbering, 0-based
    assert phi_k(root_system("E7")).deleted_node == 1
    assert phi_k(root_system("E8")).deleted_node == 0
    assert phi_k(root_system("F4")).deleted_node == 0
    assert phi_k(root_system("G2")).deleted_node == 1


@pytest.mark.parametrize("label", ["A1", "B2", "C2", "C3", "C5"])
def test_removed_node_not_applicable(label):
    assert removed_node_coefficient(root_system(label)) is None


def test_deleted_node_is_the_single_kept_affine_case():
    # None for the labels whose K has a torus factor, the removed node
    # otherwise
    for label in K_TYPE_TABLE:
        sub = phi_k(root_system(label))
        if label in ("A1", "B2", "C2", "C3", "C4", "C5"):
            assert sub.deleted_node is None, label
        else:
            assert sub.deleted_node in range(root_system(label).rank), label


def test_k_type_row_asks_only_where_a_node_is_deleted():
    # the coefficient is read, and checked to be 2, once per deleted node
    obs.reset()
    rows = {label: k_type_row(label) for label in sorted(K_TYPE_TABLE)}
    runs = {e["name"]: e["runs"] for e in obs.runs()}
    assert runs["c-alpha-prime-is-2"] == sum(
        phi_k(root_system(label)).deleted_node is not None
        for label in K_TYPE_TABLE)
    assert {label for label, row in rows.items()
            if row["c_alpha_prime"] is None} == {
                "A1", "B2", "C2", "C3", "C4", "C5"}


@pytest.mark.parametrize("label", ["D3", "D5", "D7"])
def test_odd_d_rejected(label):
    with pytest.raises(ValueError):
        phi_k(root_system(label))


# -------------------------------------------------------- the alcove fold --

def walls_crossed(rs) -> int:
    """N: the affine walls H(alpha, k), alpha > 0, strictly between
    rho-vee / 2 and the alcove, the k with 0 < 4k < <alpha, 2 rho-vee>."""
    two_rho_vee = two_rho_coroot(rs)
    return sum((pair(rs, t, two_rho_vee) - 1) // 4
               for t in rs.positive_roots)


def admitted_labels() -> list:
    """Every label up to MAX_RANK that `phi_k` admits, each built once."""
    labels = []
    for letter in "ABCDEFG":
        for rank in range(1, MAX_RANK + 1):
            try:
                phi_k(root_system(f"{letter}{rank}"))
            except ValueError:
                continue
            labels.append(f"{letter}{rank}")
    return labels


@pytest.mark.parametrize("label", sorted(K_TYPE_TABLE))
def test_integer_fold_matches_fraction_oracle(label):
    rs = root_system(label)
    x, moves = fraction_fold(rs)
    assert moves == walls_crossed(rs)
    # all r + 1 pairings of the folded point 4x: they fix it, as the
    # simple ones alone do
    theta = rs.highest_root()[0]
    y = [4 * c for c in x]
    assert _fold_half_rho_vee(rs) == [
        pair(rs, s, y) for s in rs.simple_roots] + [4 - pair(rs, theta, y)]
    obs.reset()
    sub = phi_k(rs)
    phi_k(rs)  # cached: no second build
    runs = {e["name"]: e["runs"] for e in obs.runs()}
    # it ran once and passed: the integer fold also took N steps
    assert runs["alcove-fold-length"] == 1
    # the fold and phi_k both read theta, the last root by height
    assert theta == rs.roots[-1]
    # one finite node off the walls of the folded point, and the affine
    # wall through it, name the deleted node
    removed = [i for i in range(rs.rank)
               if pair(rs, rs.simple_roots[i], x) != 0]
    affine = pair(rs, theta, x) == 1
    assert sub.deleted_node == (
        removed[0] if len(removed) == 1 and affine else None)


def test_fold_length_holds_on_every_admitted_label():
    obs.reset()
    assert len(admitted_labels()) == 37
    assert {e["name"]: (e["runs"], e["passed"]) for e in obs.runs()}[
        "alcove-fold-length"] == (37, True)
    assert {label: walls_crossed(root_system(label))
            for label in ("G2", "E8", "B14", "C14")} == {
        "G2": 4, "E8": 532, "B14": 819, "C14": 819}


def test_closure_check_runs_on_every_known_reflection_of_every_label():
    # n = <b, alpha_i-vee> = 0 builds no tuple yet still runs the check:
    # every (positive root, i) runs it once, and no negative root does
    runs = {}
    for label in admitted_labels():
        obs.reset()
        rs = RootSystem(label)
        runs[label] = ({e["name"]: e["runs"] for e in obs.runs()}[
            "root-coroot-closure"], rs.rank * len(rs.positive_roots))
    obs.reset()
    assert len(runs) == 37
    assert {label: n for label, (n, want) in runs.items() if n != want} == {}
    assert runs["E8"][0] == 960


@pytest.mark.parametrize("label", sorted(K_TYPE_TABLE))
def test_simple_system_matches_tuple_difference_oracle(label):
    rs = root_system(label)
    pos = [t for t in rs.positive_roots if sum(t) % 2 == 0]
    assert _simple_system(pos) == tuple_simple_system(pos)
    assert phi_k(rs).simple_members == tuple_simple_system(pos)


# ------------------------------------------------------------------ kappa --

def lattice_membership(basis_vectors, v):
    """Is v an integer combination of the basis vectors?  Exact solve."""
    n = len(v)
    m = [[Fraction(basis_vectors[j][i]) for j in range(len(basis_vectors))]
         for i in range(n)]
    rhs = [Fraction(x) for x in v]
    cols = len(basis_vectors)
    row = 0
    for col in range(cols):
        piv = next((i for i in range(row, n) if m[i][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        rhs[row], rhs[piv] = rhs[piv], rhs[row]
        for i in range(n):
            if i != row and m[i][col]:
                f = m[i][col] / m[row][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
                rhs[i] -= f * rhs[row]
        row += 1
    sol = {}
    for i in range(n):
        lead = next((c for c in range(cols) if m[i][c]), None)
        if lead is None:
            if rhs[i]:
                return False
            continue
        sol[lead] = rhs[i] / m[i][lead]
    return all(x.denominator == 1 for x in sol.values())


def test_kappa_on_e8_by_lattice_membership():
    rs = root_system("E8")
    sub = phi_k(rs)
    kap = KappaCharacter(rs)
    basis = [rs.coroot_of[b] for b in sub.simple_members]
    plus = 0
    for t in rs.roots:
        v = rs.coroot_of[t]
        inside = lattice_membership(basis, v)
        assert (kap(v) == 1) == inside
        plus += kap(v) == 1
    # kernel meets the coroots exactly in the 112 members; the character is
    # nontrivial on the remaining 128
    assert plus == 112
    assert len(rs.roots) - plus == 128


@pytest.mark.parametrize("label", ["G2", "E7", "D4", "F4", "B3"])
def test_kappa_trivial_exactly_on_member_coroots(label):
    rs = root_system(label)
    kap = KappaCharacter(rs)
    for t in member_roots(rs):
        assert kap(rs.coroot_of[t]) == 1


def test_kappa_counts():
    for label, plus in [("G2", 4), ("E7", 56), ("E8", 112), ("D8", 48)]:
        rs = root_system(label)
        kap = KappaCharacter(rs)
        assert sum(1 for t in rs.roots if kap(rs.coroot_of[t]) == 1) == plus


def test_kappa_a1_convention():
    kap = KappaCharacter(root_system("A1"))
    assert kap((1,)) == -1          # the simple coroot generates Lambda-vee
    assert kap((2,)) == 1


def test_kappa_rejects_c_types_and_odd_d():
    # kappa is built only past require_covered, which refuses type Cn;
    # phi_k refuses a type without -1 in its Weyl group
    with pytest.raises(ValueError, match="cover A1"):
        require_covered(root_system("C3"))
    with pytest.raises(ValueError):
        KappaCharacter(root_system("D5"))


@given(st.data())
def test_kappa_is_a_homomorphism(data):
    label = data.draw(st.sampled_from(["G2", "F4", "E7", "E8", "D6"]))
    rs = root_system(label)
    kap = KappaCharacter(rs)
    coords = st.tuples(*[st.integers(-5, 5)] * rs.rank)
    lam = data.draw(coords)
    mu = data.draw(coords)
    s = tuple(a + b for a, b in zip(lam, mu))
    assert kap(s) == kap(lam) * kap(mu)


# ------------------------------------------------------------------ table --

def test_k_type_rows():
    assert k_type_row("E8") == {"g": "E8", "k": "D8", "pi1": "Z/2",
                                "c_alpha_prime": 2}
    assert k_type_row("E7") == {"g": "E7", "k": "A7", "pi1": "Z/2",
                                "c_alpha_prime": 2}
    assert k_type_row("G2") == {"g": "G2", "k": "A1xA1", "pi1": "Z/2",
                                "c_alpha_prime": 2}
    assert k_type_row("A1") == {"g": "A1", "k": "Gm", "pi1": "Z",
                                "c_alpha_prime": None}
    assert k_type_row("C3") == {"g": "C3", "k": "A2xGm", "pi1": "Z",
                                "c_alpha_prime": None}
    assert k_type_row("F4") == {"g": "F4", "k": "A1xC3", "pi1": "Z/2",
                                "c_alpha_prime": 2}
