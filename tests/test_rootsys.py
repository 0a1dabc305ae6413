"""Root-system data against an enumeration oracle that never reflects.

The closure code builds roots by reflecting; the oracle here instead lists
every vector of the coroot lattice with the right norm (exact Fincke-Pohst
style descent on the completed-square form).  For most types the two sets
must agree on the nose.  For Bn with n >= 4 the coroot lattice contains
norm-4 vectors that are not coroots (the (+-1,+-1,+-1,+-1) patterns of the
embedded D lattice), so there the oracle only bounds from above.
"""

import math
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from excmono import obs
from excmono.chevalley import build_algebra
from excmono.rootsys import (MAX_RANK, RootSystem, dynkin_components,
                             fold_dominant, require_covered, root_system)
from excmono.twogroup import build_tilde_group
from excmono.verify import COVERED_LABELS
from oracles import (bourbaki_cn, coroot_dot, coxeter_number,
                     longest_element_matrix, mat_mul, mat_pow, pair,
                     tuple_closure, two_rho_coroot)

ALL_LABELS = ["A1", "B2", "B3", "B4", "B5", "C2", "C3", "C4", "C5",
              "D3", "D4", "D5", "D6", "D7", "D8", "E7", "E8", "F4", "G2"]

# which coroot norms occur, by type letter (normalized: short coroots = 2)
COROOT_NORMS = {"A": {2}, "B": {2, 4}, "C": {2, 4}, "D": {2},
                "E": {2}, "F": {2, 4}, "G": {2, 6}}


def short_vectors(gram, max_norm):
    """All nonzero integer v with v.gram.v <= max_norm, exactly."""
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        assert d[i] > 0, "form must be positive definite"
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for k in range(i + 1, n):
            for l in range(i + 1, n):
                a[k][l] -= d[i] * u[i][k] * u[i][l]
    out = []
    x = [0] * n

    def descend(i, budget):
        if i < 0:
            v = tuple(x)
            if any(v):
                out.append(v)
            return
        c = sum(u[i][j] * x[j] for j in range(i + 1, n))
        radius = math.isqrt(int(budget / d[i])) + 1
        lo = math.ceil(-c - radius)
        hi = math.floor(-c + radius)
        for xi in range(lo, hi + 1):
            spent = d[i] * (xi + c) ** 2
            if spent <= budget:
                x[i] = xi
                descend(i - 1, budget - spent)
        x[i] = 0

    descend(n - 1, Fraction(max_norm))
    return out


def oracle_coroot_vectors(rs):
    norms = COROOT_NORMS[rs.letter]
    vecs = [v for v in short_vectors(rs.form_gram, max(norms))
            if coroot_dot(rs, v, v) in norms]
    assert all(abs(c) <= 8 for v in vecs for c in v)
    return set(vecs)


EXPECTED_COUNTS = {
    "A1": 2, "B2": 8, "B3": 18, "B4": 32, "B5": 50,
    "C2": 8, "C3": 18, "C4": 32, "C5": 50,
    "D3": 12, "D4": 24, "D5": 40, "D6": 60, "D7": 84, "D8": 112,
    "E7": 126, "E8": 240, "F4": 48, "G2": 12,
}


@pytest.mark.parametrize("label", ALL_LABELS)
def test_root_count(label):
    assert root_system(label).num_roots == EXPECTED_COUNTS[label]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_count_is_rank_times_coxeter(label):
    rs = root_system(label)
    assert rs.num_roots == rs.rank * coxeter_number(rs)


@pytest.mark.parametrize(
    "label", [l for l in ALL_LABELS if not (l[0] == "B" and int(l[1:]) >= 4)])
def test_coroots_match_norm_enumeration(label):
    rs = root_system(label)
    assert {rs.coroot_of[t] for t in rs.roots} == oracle_coroot_vectors(rs)


@pytest.mark.parametrize("label", ["B4", "B5"])
def test_b_type_enumeration_only_bounds(label):
    # the D-shaped coroot lattice has extra norm-4 vectors; B4: 16 of them
    rs = root_system(label)
    coroots = {rs.coroot_of[t] for t in rs.roots}
    enum = oracle_coroot_vectors(rs)
    assert coroots < enum
    short = {v for v in enum if coroot_dot(rs, v, v) == 2}
    assert short == {rs.coroot_of[t] for t in rs.roots
                     if rs.norm_of[t] == 2}
    if label == "B4":
        assert len(enum) == 48


def assert_matches_tuple_closure(rs, cartan, coroot_norms):
    want = tuple_closure(cartan, coroot_norms)
    assert set(rs.roots) == set(want) and len(rs.roots) == len(want)
    assert rs.coroot_of == {t: cr for t, (cr, _) in want.items()}
    assert rs.norm_of == {t: norm for t, (_, norm) in want.items()}
    # the unit vectors are alpha_i in root and alpha_i-vee in coroot
    # coordinates: n(t)_i = <t, alpha_i-vee>, m(t)_i = <alpha_i, t-vee>
    units = rs.simple_roots
    for t in rs.roots:
        cr = rs.coroot_of[t]
        assert rs.norm_of[t] == coroot_dot(rs, cr, cr)
        assert rs.pairing_of[t] == tuple(pair(rs, t, e) for e in units)
        assert rs.copairing_of[t] == tuple(pair(rs, e, cr) for e in units)


@pytest.mark.parametrize("name", ALL_LABELS + [
    f"{label} dual" for label in ALL_LABELS if label[0] in "BCFG"])
def test_closure_matches_the_tuple_oracle(name):
    label, _, dual = name.partition(" ")
    rs = root_system(label).dual() if dual else root_system(label)
    assert_matches_tuple_closure(rs, rs.cartan, rs.coroot_norms)


@pytest.mark.parametrize("n", range(2, MAX_RANK + 1))
def test_cn_relabeled_from_bn_matches_bourbaki(n):
    rs = root_system(f"C{n}")
    cartan, coroot_norms = bourbaki_cn(n)
    assert (rs.letter, rs.rank, rs.label) == ("C", n, f"C{n}")
    assert rs.cartan == cartan and rs.coroot_norms == coroot_norms
    # (alpha_i-vee, alpha_j-vee) = <alpha_i, alpha_j-vee> (alpha_i-vee,
    # alpha_i-vee) / 2, read along the row
    assert rs.form_gram == [[cartan[i][j] * coroot_norms[i] // 2
                             for j in range(n)] for i in range(n)]
    assert rs.roots == sorted(rs.roots, key=lambda t: (sum(t), t))
    assert_matches_tuple_closure(rs, cartan, coroot_norms)


def test_cn_and_duals_run_no_closure():
    def closure_runs():
        return {c["name"]: c["runs"] for c in obs.runs()}.get(
            "root-coroot-closure", 0)

    obs.reset()
    closed = [root_system(f"B{n}") for n in range(2, MAX_RANK + 1)]
    g2 = root_system("G2")
    closed.append(g2)
    built = closure_runs()
    assert built == sum(rs.rank * len(rs.positive_roots) for rs in closed)
    for n in range(2, MAX_RANK + 1):
        root_system(f"C{n}")
        root_system(f"C{n}").dual()
    g2.dual()
    assert closure_runs() == built
    obs.reset()


COXETER = {"A1": (2, 2), "B3": (6, 5), "C3": (6, 4), "D4": (6, 6),
           "E7": (18, 18), "E8": (30, 30), "F4": (12, 9), "G2": (6, 4)}


@pytest.mark.parametrize("label", sorted(COXETER))
def test_coxeter_numbers(label):
    rs = root_system(label)
    h, hv = COXETER[label]
    assert coxeter_number(rs) == h
    assert rs.dual_coxeter_number() == hv


def test_highest_root_coordinates():
    assert root_system("E7").highest_root()[0] == (2, 2, 3, 4, 3, 2, 1)
    assert root_system("E8").highest_root()[0] == (2, 3, 4, 6, 5, 4, 3, 2)
    theta, comarks = root_system("F4").highest_root()
    assert theta == (2, 3, 4, 2)
    assert comarks == (2, 3, 2, 1)
    theta, theta_vee = root_system("G2").highest_root()
    assert theta == (3, 2)
    assert theta_vee == (1, 2)


def test_highest_root_is_dominant():
    for label in ["E8", "F4", "G2", "B4"]:
        rs = root_system(label)
        theta = rs.highest_root()[0]
        for i in range(rs.rank):
            cr = rs.coroot_of[rs.simple_roots[i]]
            assert pair(rs, theta, cr) >= 0


def test_dim_y_values():
    assert root_system("E7").dim_y() == 34
    assert root_system("E8").dim_y() == 58
    assert root_system("G2").dim_y() == 6


MINUS_ONE = {"A1": True, "B2": True, "B3": True, "B4": True,
             "C2": True, "C3": True, "C4": True,
             "D3": False, "D4": True, "D5": False, "D6": True,
             "D7": False, "D8": True,
             "E7": True, "E8": True, "F4": True, "G2": True}


@pytest.mark.parametrize("label", sorted(MINUS_ONE))
def test_minus_one_in_weyl(label):
    assert root_system(label).minus_one_in_weyl() is MINUS_ONE[label]


W0_LABELS = (["A1"] + [f"{x}{n}" for x in "BC" for n in range(2, 10)]
             + [f"D{n}" for n in range(3, 12)] + ["E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("label", W0_LABELS + ["F4-dual", "G2-dual"])
def test_minus_one_in_weyl_matches_longest_element_oracle(label):
    rs = root_system(label.removesuffix("-dual"))
    if label.endswith("-dual"):
        rs = rs.dual()
    r = rs.rank
    minus_one = [[-1 if i == j else 0 for j in range(r)] for i in range(r)]
    assert rs.minus_one_in_weyl() is (longest_element_matrix(rs) == minus_one)


# every label `_parse_label` admits: D starts at rank 3, D2 = A1 x A1 is
# reducible
EVERY_LABEL = (["A1"] + [f"{x}{n}" for x in "BC"
                         for n in range(2, MAX_RANK + 1)]
               + [f"D{n}" for n in range(3, MAX_RANK + 1)]
               + ["E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("label", EVERY_LABEL)
def test_fold_of_minus_a_regular_weight_takes_a_step_per_positive_root(label):
    # -x, x with pairings 1..r, lies across the wall of every positive
    # root, and each step crosses one: #Phi+ steps, ending at sigma(x),
    # sigma the diagram symmetry -w0
    rs = root_system(label)
    x = list(range(1, rs.rank + 1))
    n = len(rs.positive_roots)
    folded, steps = fold_dominant(rs.cartan, [-k for k in x], n)
    assert steps == n
    assert sorted(folded) == x
    assert (folded == x) is rs.minus_one_in_weyl()


def test_fold_on_a_matrix_of_infinite_type_stops_at_its_bound():
    # [[2, -3], [-3, 2]] is no finite type's Cartan matrix: from (-1, -1)
    # each reflection leaves a larger negative pairing, so only the bound
    # ends the walk
    def too_slow(signum, frame):
        raise TimeoutError("the fold ran past 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        p, steps = fold_dominant([[2, -3], [-3, 2]], [-1, -1], 1000)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert steps == 1001
    assert min(p) < 0


@pytest.mark.parametrize("label", ["A1", "B3", "D5", "E8", "F4", "G2"])
def test_longest_element_is_an_involution(label):
    rs = root_system(label)
    w0 = longest_element_matrix(rs)
    ident = [[1 if i == j else 0 for j in range(rs.rank)] for i in range(rs.rank)]
    assert mat_mul(w0, w0) == ident
    assert mat_pow(w0, 2) == ident
    # w0 permutes the roots (acting on coordinates)
    imgs = {tuple(sum(w0[i][k] * t[k] for k in range(rs.rank))
                  for i in range(rs.rank))
            for t in rs.roots}
    assert imgs == set(rs.roots)


@pytest.mark.parametrize("label", ["B3", "C4", "F4", "G2", "E7"])
def test_dual_swaps_roots_and_coroots(label):
    rs = root_system(label)
    dual = rs.dual()
    assert {dual.coroot_of[t] for t in dual.roots} == set(rs.roots)
    assert set(dual.roots) == {rs.coroot_of[t] for t in rs.roots}


@pytest.mark.parametrize("label", ["B3", "F4", "G2"])
def test_pairing_against_normalized_form(label):
    # <a, b-vee> * (a-vee, a-vee) == 2 (a-vee, b-vee) for every pair: the
    # Cartan pairing is recovered from the invariant form on the coroot side
    rs = root_system(label)
    for a in rs.roots:
        av = rs.coroot_of[a]
        na = coroot_dot(rs, av, av)
        for b in rs.roots:
            bv = rs.coroot_of[b]
            assert pair(rs, a, bv) * na == 2 * coroot_dot(rs, av, bv)


@settings(max_examples=60)
@given(st.data())
def test_pairing_identity_sampled_on_e8(data):
    rs = root_system("E8")
    a = data.draw(st.sampled_from(rs.roots))
    b = data.draw(st.sampled_from(rs.roots))
    av, bv = rs.coroot_of[a], rs.coroot_of[b]
    assert pair(rs, a, bv) * coroot_dot(rs, av, av) \
        == 2 * coroot_dot(rs, av, bv)


@settings(max_examples=60)
@given(st.data())
def test_reflection_stays_inside(data):
    rs = root_system(data.draw(st.sampled_from(["G2", "F4", "E8"])))
    a = data.draw(st.sampled_from(rs.roots))
    b = data.draw(st.sampled_from(rs.roots))
    n = pair(rs, a, rs.coroot_of[b])
    image = tuple(ai - n * bi for ai, bi in zip(a, b))
    assert image in rs.coroot_of


def test_two_rho_pairs_to_two_on_simples():
    for label in ALL_LABELS:
        rs = root_system(label)
        two_rho_vee = two_rho_coroot(rs)
        for s in rs.simple_roots:
            assert pair(rs, s, two_rho_vee) == 2


def test_reducible_d2():
    # D2 = A1 x A1 is the reducible label a D from rank 2 would admit;
    # the label parser refuses it before any closure
    for _ in range(2):   # a refusal is not cached away
        with pytest.raises(ValueError,
                           match="^unsupported Cartan type 'D2'$"):
            root_system("D2")


def test_every_admitted_cartan_matrix_is_connected():
    # rootsys holds irreducible systems only, so the highest root and the
    # root count |Phi| = r h read one component
    admitted = []
    for label in (f"{x}{n}" for x in "ABCDEFG"
                  for n in range(1, MAX_RANK + 1)):
        try:
            rs = root_system(label)
        except ValueError:
            continue
        admitted.append(label)
        assert dynkin_components(rs.cartan) == [list(range(rs.rank))], label
    assert sorted(admitted) == sorted(EVERY_LABEL)


def test_highest_root_is_the_last_root():
    # the roots are sorted by height, and theta is the one of greatest
    # height; a relabeled dual reads its own last root
    for label in ALL_LABELS:
        for rs in (root_system(label), root_system(label).dual()):
            theta = rs.roots[-1]
            assert rs.highest_root() == (theta, rs.coroot_of[theta])


def test_dynkin_components():
    assert dynkin_components(root_system("E8").cartan) == [list(range(8))]
    assert dynkin_components([[2, 0], [0, 2]]) == [[0], [1]]
    # nodes 0 - 2 and 1 = 3 - 4, numbered out of diagram order
    a = [[2, 0, -1, 0, 0], [0, 2, 0, -1, 0], [-1, 0, 2, 0, 0],
         [0, -2, 0, 2, -1], [0, 0, 0, -1, 2]]
    assert dynkin_components(a) == [[0, 2], [1, 3, 4]]
    assert dynkin_components([]) == []


def test_covered_types_are_one_set():
    covered = set()
    for label in ALL_LABELS + ["B6", "B7", "C6", "D9", "D10"]:
        rs = root_system(label)
        try:
            require_covered(rs)
        except ValueError as exc:
            # the two layers refuse an uncovered type with the one message
            for build in (lambda: build_tilde_group(rs),
                          lambda: build_algebra(label)):
                with pytest.raises(ValueError) as refused:
                    build()
                assert str(refused.value) == str(exc)
            continue
        covered.add(label)
    assert covered == set(COVERED_LABELS) | {"D10"}


@pytest.mark.parametrize("bad", ["A2", "A5", "E6", "E9", "B1", "C1", "D1",
                                 "G3", "F5", "H4", "X3", "B", "42", "",
                                 "Z99", "E\u00b2", "E\u0668"])
def test_unsupported_labels_rejected(bad):
    # '²' and the Arabic-Indic '٨' pass str.isdigit, but are no rank
    with pytest.raises(ValueError, match="^unsupported Cartan type "):
        RootSystem(bad)


def test_rank_over_the_bound_refused_before_closure(monkeypatch):
    def no_closure(self):
        raise RuntimeError("closure ran")

    assert MAX_RANK >= 10   # D10, the largest label tested, is admitted
    monkeypatch.setattr(RootSystem, "_close_roots", no_closure)
    for letter in "ABCDEFG":
        with pytest.raises(ValueError, match=f"rank {MAX_RANK + 1} is above "
                           f"the bound MAX_RANK = {MAX_RANK}"):
            RootSystem(f"{letter}{MAX_RANK + 1}")


def test_rank_is_read_past_its_leading_zeros():
    # zeros past CPython's 4 300-digit int limit still give the rank
    assert root_system("A" + "0" * 5000 + "1").label == "A1"
    with pytest.raises(ValueError) as exc:
        RootSystem("D" + "0" * 5000 + "15")
    assert str(exc.value) == ("D" + "0" * 23 + "...: rank 15 is above the "
                              "bound MAX_RANK = 14")


@pytest.mark.parametrize("command,letter", [
    ("roots", "B"), ("k-type", "C"), ("atilde", "D"), ("monodromy", "D")])
def test_first_refused_rank_exits_2_quickly(command, letter):
    label = f"{letter}{MAX_RANK + 1}"
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "excmono", command, label],
        capture_output=True, text=True, timeout=1.0,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"error: {label}: rank {MAX_RANK + 1} is above "
                           f"the bound MAX_RANK = {MAX_RANK}\n")


def test_json_dict_shape():
    d = root_system("G2").json_dict()
    assert d["type"] == "G2"
    assert d["rank"] == 2
    assert d["num_roots"] == 12
    assert len(d["roots"]) == len(d["coroots"]) == 12
    assert d["cartan"] == [[2, -1], [-3, 2]]
