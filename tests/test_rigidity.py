import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from excmono import rigidity
from excmono.cli import main
from excmono.rigidity import (
    FiniteGroup,
    MatrixRep,
    predicted_triple,
    pgl2_group,
    psl2_group,
    solutions_at,
    triple_count,
)
from oracles import (
    S4_GENS,
    MatrixGroup,
    cycle_type,
    dense_permutations,
    lex_least_multiple,
    matrix_inv,
    matrix_mul,
    matrix_pgl2,
    matrix_psl2,
    centralizer_by_scan,
    matrix_triple_count,
    per_solution_triple_count,
    projective_invariant,
    readme_group_text,
)


def perm_mul(a, b):
    """a then b, the order FiniteGroup composes in."""
    return tuple(b[a[i]] for i in range(len(a)))


def brute_class_count(group):
    """Independent class count: full-orbit conjugation, no generators."""
    elems = group.elements
    inv = {g: group.inv(g) for g in elems}
    assigned = set()
    count = 0
    for g in elems:
        if g in assigned:
            continue
        orbit = {group.mul(x, group.mul(g, inv[x])) for x in elems}
        assigned |= orbit
        count += 1
    return count


# ------------------------------------------------------------ enumeration

def test_s4_order_via_itertools_oracle():
    oracle = set(map(bytes, itertools.permutations(range(4))))
    g = FiniteGroup(S4_GENS)
    assert g.order == 24
    assert set(g.elements) == oracle


def test_s4_five_classes():
    g = FiniteGroup(S4_GENS)
    assert len(g.classes) == 5
    assert sorted(c.size for c in g.classes) == [1, 3, 6, 6, 8]
    assert brute_class_count(g) == 5


def test_s4_class_labels_are_order_letter():
    g = FiniteGroup(S4_GENS)
    labels = {c.label for c in g.classes}
    assert labels == {"1A", "2A", "2B", "3A", "4A"}


def test_sl2_f5_order():
    rep = MatrixRep(5, 2)
    g = FiniteGroup(rep.permutations([(1, 1, 0, 1), (0, 4, 1, 0)]))
    assert g.order == 5 * (5 * 5 - 1) == 120
    assert len(g.center) == 2
    assert len(g.classes) == brute_class_count(g) == 9


def test_cap_overflow_is_explicit(capsys, tmp_path):
    # a file: group has no element cap; one that sets "cap" is refused, so
    # it cannot silently lose the bound it asked for
    path = tmp_path / "capped.json"
    path.write_text(json.dumps({"p": 5, "n": 2, "cap": 10,
                                "generators": [[1, 1, 0, 1], [0, 4, 1, 0]]}))
    assert main(["rigid", "--group", f"file:{path}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {path}: unknown key 'cap'; want only p, n, "
                   "generators, scalars\n")


# the id keeps the 10**7 element cap that this case was first written for
@pytest.mark.parametrize("build,ell", [pytest.param(
    psl2_group, 10007, id="psl2_group-10007-10000000")])
def test_known_order_over_cap_refused_before_closure(monkeypatch, build, ell):
    # a named group's table-bytes bound refuses PSL2(F_10007) from its
    # known order, before any closure
    assert ell * (ell * ell - 1) // 2 > rigidity.MAX_TABLE_BYTES // (ell + 1)

    def no_closure(self):
        raise RuntimeError("closure ran")

    monkeypatch.setattr(FiniteGroup, "_closure", no_closure)
    with pytest.raises(OverflowError, match="bytes each"):
        build(ell)


def test_enumeration_is_deterministic():
    a = FiniteGroup(S4_GENS)
    b = FiniteGroup(S4_GENS)
    assert a.elements == b.elements
    assert [c.label for c in a.classes] == [c.label for c in b.classes]
    assert [c.members for c in a.classes] == [c.members for c in b.classes]


def test_identity_is_first_element():
    g = FiniteGroup(S4_GENS)
    assert g.elements[0] == bytes((0, 1, 2, 3)) == g.identity
    assert g.classes[0].label == "1A" and g.classes[0].size == 1


# ----------------------------------------------------- element arithmetic

def test_permutation_ops():
    g = FiniteGroup(S4_GENS)
    a, b = bytes((1, 0, 2, 3)), bytes((1, 2, 3, 0))
    assert g.mul(a, g.inv(a)) == g.identity
    assert g.mul(a, b) == bytes(perm_mul(a, b))
    assert g.inv(b) == bytes((3, 0, 1, 2))
    assert cycle_type((1, 2, 0, 3)) == (1, 3)


def test_matrix_rep_inverse_roundtrip():
    rep = MatrixRep(7, 2)
    mats = [(1, 1, 0, 1), (2, 3, 1, 2), (0, 6, 1, 0), (3, 1, 5, 2)]
    for m in mats:
        assert matrix_mul(rep, m, matrix_inv(rep, m)) == (1, 0, 0, 1)


def test_matrix_rep_rejects_singular():
    rep = MatrixRep(5, 2)
    with pytest.raises(ValueError, match="not invertible"):
        matrix_inv(rep, (1, 2, 2, 4))
    with pytest.raises(ValueError, match="generator 1 is singular mod 5"):
        rep.permutations([(1, 1, 0, 1), (1, 2, 2, 4)])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("projective", [False, True])
def test_permutation_image_decides_invertibility(p, projective):
    # a matrix is invertible exactly when its image on the frame orbit is
    # a permutation: seeded random matrices, singular ones included, and
    # the inverse by elimination as the oracle
    rng = random.Random(p * 2 + projective)
    compared = singular = 0
    for n in (1, 2, 3):
        rep = MatrixRep(p, n, scalars=range(1, p) if projective else None)
        for _ in range(60):
            m = tuple(rng.choice((0, 0, *range(p))) for _ in range(n * n))
            try:
                matrix_inv(rep, m)
                invertible = True
            except ValueError:
                invertible = False
            try:
                rep.permutations([m])
                permutes = True
            except ValueError:
                permutes = False
            except OverflowError:   # an orbit over MAX_POINTS decides nothing
                continue
            assert permutes == invertible, (p, n, projective, m)
            compared += 1
            singular += not invertible
    assert compared >= 170 and 20 <= singular <= compared - 20, singular


def test_projective_canonical_form_kills_scalars():
    rep = MatrixRep(5, 2, scalars=range(1, 5))
    m = rep.canon((2, 4, 0, 2))
    for s in range(1, 5):
        assert rep.canon(tuple(s * x % 5 for x in (2, 4, 0, 2))) == m


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
def test_group_elements_are_lex_least_multiples(ell):
    for g in (matrix_pgl2(ell), matrix_psl2(ell)):
        for x in g.elements:
            assert lex_least_multiple(x, g.rep.scalars, ell) == x


@pytest.mark.parametrize("p", [3, 5, 7, 13, 10007])
def test_canon_matches_lex_least_multiple(p):
    # scalar lists with repeats, unreduced and negative units, closed under
    # products or not; matrices with unreduced entries and leading zeros
    rng = random.Random(p)
    units = [s for s in range(-p, 3 * p) if s % p]
    for _ in range(60):
        n = rng.randint(1, 3)
        scalars = [rng.choice(units) for _ in range(rng.randint(1, 6))]
        rep = MatrixRep(p, n, scalars=scalars)
        for _ in range(20):
            m = tuple(rng.randrange(-2 * p, 2 * p) if rng.randrange(2) else 0
                      for _ in range(n * n))
            if any(x % p for x in m):
                assert rep.canon(m) == lex_least_multiple(m, scalars, p)


def test_projective_invariant_is_conjugation_stable():
    g = matrix_pgl2(5)
    for cls in g.classes:
        vals = {projective_invariant(g.rep, x) for x in cls.members}
        assert len(vals) == 1


def test_element_order():
    g = FiniteGroup(S4_GENS)
    assert g.element_order(bytes((0, 1, 2, 3))) == 1
    assert g.element_order(bytes((1, 0, 2, 3))) == 2
    assert g.element_order(bytes((1, 2, 3, 0))) == 4


# ----------------------------------------------------- class-equation law

@pytest.mark.parametrize("build", [
    lambda: FiniteGroup(S4_GENS),
    lambda: psl2_group(7),
    lambda: pgl2_group(5),
])
def test_class_sizes_partition_group(build):
    g = build()
    assert sum(c.size for c in g.classes) == g.order
    for c in g.classes:
        assert g.order % c.size == 0
        cent = sum(1 for x in g.elements
                   if g.mul(x, c.rep) == g.mul(c.rep, x))
        assert c.size * cent == g.order


# Under -O no assert statement runs; the class equation must still be
# checked, since `rigid` reports it as passed.
_CORRUPT_CLASSES = """
import sys
from excmono import rigidity
from excmono.cli import main
real = rigidity.FiniteGroup._conjugacy_classes
def corrupted(self, conj):
    classes, conjugator = real(self, conj)
    c = classes[-1]
    classes[-1] = rigidity.ConjClass(c.label, c.members, c.size + {shift})
    return classes, conjugator
rigidity.FiniteGroup._conjugacy_classes = corrupted
sys.exit(main(["rigid", "--group", "psl2", "--ell", "7"]))
"""


@pytest.mark.parametrize("shift,code", [(0, 0), (1, 1)])
def test_class_equation_checked_under_optimize(shift, code):
    src = str(Path(rigidity.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_CLASSES.format(shift=shift)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code:
        assert "check failed: class" in proc.stderr


def test_class_by_label_unknown():
    g = FiniteGroup(S4_GENS)
    with pytest.raises(ValueError, match="no class '9Z'"):
        g.class_by_label("9Z")


# --------------------------------------------------------- named groups

def test_psl2_f7_order_and_classes():
    g = psl2_group(7)
    assert g.order == 168
    assert len(g.center) == 1
    assert sorted(c.size for c in g.classes) == [1, 21, 24, 24, 42, 56]


def test_pgl2_f5_is_s5_shaped():
    g = pgl2_group(5)
    assert g.order == 120
    assert len(g.center) == 1
    assert sorted(c.size for c in g.classes) == [1, 10, 15, 20, 20, 24, 30]


def test_pgl2_rejects_bad_ell():
    for bad in (2, 4, 9):
        with pytest.raises(ValueError, match="odd prime"):
            pgl2_group(bad)


# ------------------------------------------------------------ triples

def hurwitz_setup():
    g = psl2_group(7)
    return (g, g.class_by_label("2A"), g.class_by_label("3A"),
            g.class_by_label("7A"))


def test_hurwitz_triple_is_strictly_rigid():
    g, c2, c3, c7 = hurwitz_setup()
    r = triple_count(g, c2, c3, c7)
    assert r["solution_count"] == 168
    assert r["normalized_count"] == [1, 1]
    assert r["generates"] and r["all_generate"] and r["strictly_rigid"]


def test_hurwitz_other_seventh_class_matches():
    g = psl2_group(7)
    r = triple_count(g, g.class_by_label("2A"), g.class_by_label("3A"),
                     g.class_by_label("7B"))
    assert r["solution_count"] == 168 and r["strictly_rigid"]


def test_count_invariant_under_representative_change():
    g, c2, c3, c7 = hurwitz_setup()
    base = triple_count(g, c2, c3, c7)
    for alt in c2.members[1:6]:
        assert c2.size * len(solutions_at(g, alt, c3, c7)) == \
            base["solution_count"]


def test_solution_count_naive_oracle_on_s4():
    # independent full triple enumeration on a small group
    g = FiniteGroup(S4_GENS)
    c2 = g.class_by_label("2A")
    c3 = g.class_by_label("3A")
    c4 = g.class_by_label("4A")
    naive = sum(1 for a in c2.members for b in c3.members
                for c in c4.members
                if perm_mul(perm_mul(a, b), c) == tuple(range(4)))
    r = triple_count(g, c2, c3, c4)
    assert r["solution_count"] == naive == 24
    assert r["normalized_count"] == [1, 1]
    assert r["strictly_rigid"]  # (2,3,4) transposition triple generates S4


def test_empty_triple_reports_zero():
    g = FiniteGroup(S4_GENS)
    c4 = g.class_by_label("4A")
    c2b = g.class_by_label("2B")
    r = triple_count(g, c4, c4, c2b)
    if r["solution_count"] == 0:
        assert r["normalized_count"] == [0, 1]
        assert not r["generates"] and not r["strictly_rigid"]


def test_singleton_classes_in_cyclic_group():
    # every class of C5 is a singleton; a closing triple has exactly one
    # solution and is vacuously rigid by the normalized-count test
    g = FiniteGroup([(1, 2, 3, 4, 0)])
    assert g.order == 5 and len(g.classes) == 5
    assert all(c.size == 1 for c in g.classes)
    a, b = g.classes[1], g.classes[2]
    target = g.classes[g.class_of[g.inv(g.mul(a.rep, b.rep))]]
    r = triple_count(g, a, b, target)
    assert r["solution_count"] == 1
    assert r["normalized_count"] == [1, 1]
    assert r["generates"]  # any nonidentity element generates C5
    wrong = g.classes[1 if target is not g.classes[1] else 3]
    if wrong is not target:
        r0 = triple_count(g, a, b, wrong)
        assert r0["solution_count"] == 0 and not r0["strictly_rigid"]


# ----------------------------------------------------------- toy fixture

def test_predicted_triple_pgl2_f5_frozen():
    r = predicted_triple(5)
    assert r["group_order"] == 120 and r["center_order"] == 1
    assert r["class_sizes"] == [15, 24, 24]
    assert r["solution_count"] == 120
    assert r["normalized_count"] == [1, 1]
    # solutions exist but all land inside the PSL2 subgroup
    assert not r["generates"] and not r["strictly_rigid"]
    assert "toy fixture" in r["note"]


def test_predicted_triple_empty_when_minus_one_not_square():
    # tr(g0 g1)^2 = -4 must be solvable, so ell = 3 mod 4 gives nothing
    for ell in (3, 7):
        r = predicted_triple(ell)
        assert r["solution_count"] == 0
        assert not r["strictly_rigid"]


def test_predicted_triple_unsupported_instances(monkeypatch):
    with pytest.raises(ValueError, match="4 is not an odd prime"):
        predicted_triple(4)

    def no_closure(self):
        raise RuntimeError("closure ran")

    # PGL2(F_67): 300 696 elements of 68 bytes, refused before any closure
    monkeypatch.setattr(FiniteGroup, "_closure", no_closure)
    with pytest.raises(OverflowError, match="PGL2\\(F_67\\) has 300696 "
                       "elements of 68 bytes each"):
        predicted_triple(67)


def test_predicted_triple_unipotent_class_size():
    r = predicted_triple(7)
    assert r["class_sizes"][1] == 7 * 7 - 1
    assert r["classes"][1] == r["classes"][2]


def test_report_json_shape():
    d = predicted_triple(5)
    assert d["solution_count"] == 120
    assert d["normalized_count"] == [1, 1]
    assert d["classes"][1] == d["classes"][2]
    assert isinstance(d["strictly_rigid"], bool)


# --------------------------------------------- the matrix-product oracle

def _file_group(blob):
    """A `file:` group both ways: permutations of the frame orbit, and
    canonical matrices multiplied out."""
    rep = MatrixRep(blob["p"], blob["n"], scalars=blob.get("scalars"))
    return (FiniteGroup(rep.permutations(blob["generators"])),
            MatrixGroup(rep, blob["generators"]))


ORACLE_FILE_GROUPS = {
    "readme-gens-json": json.loads(readme_group_text()),
    # contains -I: e_i and -e_i are distinct frame points
    "linear-minus-identity": {"p": 7, "n": 3, "generators": [
        [0, 0, 1, 1, 0, 0, 0, 1, 0], [6, 0, 0, 0, 6, 0, 0, 0, 6],
        [2, 0, 0, 0, 4, 0, 0, 0, 1]]},
    # 2I fixes every line of F_7^2 but no S-class, since 2 is not +-1
    "sign-quotient-with-2I": {"p": 7, "n": 2, "scalars": [1, 6],
                              "generators": [[1, 1, 0, 1], [0, 6, 1, 0],
                                             [2, 0, 0, 2]]},
}


def _oracle_cases():
    for ell in (3, 5, 7, 11, 13):
        yield f"pgl2-{ell}", lambda ell=ell: (pgl2_group(ell),
                                              matrix_pgl2(ell))
        yield f"psl2-{ell}", lambda ell=ell: (psl2_group(ell),
                                              matrix_psl2(ell))
    for name, blob in ORACLE_FILE_GROUPS.items():
        yield name, lambda blob=blob: _file_group(blob)


ORACLE_CASES = dict(_oracle_cases())


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_permutation_groups_match_matrix_oracle(case):
    g, m = ORACLE_CASES[case]()
    assert g.order == m.order
    assert len(g.center) == len(m.center)
    assert [(c.label, c.size) for c in g.classes] == \
        [(c.label, c.size) for c in m.classes]
    # (C_i, C_i+1, C_i+2) cyclically from the first four classes, plus the
    # classes of the first two generators and of their product's inverse;
    # each oracle triple with solutions costs about 0.5 s at ell = 13
    k = len(g.classes)
    triples = [(i, (i + 1) % k, (i + 2) % k) for i in range(min(k, 4))]
    a, b = g.generators[:2] if len(g.generators) > 1 else g.generators * 2
    triples.append((g.class_of[a], g.class_of[b],
                    g.class_of[g.inv(g.mul(a, b))]))
    for i, j, l in triples:
        assert triple_count(g, g.classes[i], g.classes[j], g.classes[l]) \
            == matrix_triple_count(m, m.classes[i], m.classes[j],
                                   m.classes[l]), (i, j, l)


# the generators that pgl2_group and psl2_group put on P^1(F_ell); 2 is
# the least primitive root mod 13
PROJECTIVE_LINE = {
    "pgl2-13": (pgl2_group, 13, [(1, 1, 0, 1), (0, 12, 1, 0), (2, 0, 0, 1)]),
    "psl2-7-hurwitz": (psl2_group, 7, [(1, 1, 0, 1), (0, 6, 1, 0)]),
}


@pytest.mark.parametrize("case", ["readme-gens-json", *PROJECTIVE_LINE])
def test_frame_images_match_the_dense_product(case):
    if case in PROJECTIVE_LINE:
        build, ell, gens = PROJECTIVE_LINE[case]
        rep = MatrixRep(ell, 2, scalars=range(1, ell))
        images = build(ell).generators
    else:
        blob = ORACLE_FILE_GROUPS[case]
        rep = MatrixRep(blob["p"], blob["n"], scalars=blob.get("scalars"))
        gens = blob["generators"]
        images = rep.permutations(gens)
    assert images == dense_permutations(rep, gens)


def _orbit_oracle_triples(case):
    """(group, class triples): every triple for a group of order at most
    336 (ell <= 7, the README gens.json), else every triple whose first
    class is 2A."""
    g, _ = ORACLE_CASES[case]()
    k = range(len(g.classes))
    if g.order <= 336:
        return g, list(itertools.product(k, k, k))
    i = g.classes.index(g.class_by_label("2A"))
    return g, [(i, j, l) for j in k for l in k]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_orbit_flags_match_per_solution_oracle(case):
    g, triples = _orbit_oracle_triples(case)
    generating = 0
    for i, j, l in triples:
        c0, c1, cinf = g.classes[i], g.classes[j], g.classes[l]
        report = triple_count(g, c0, c1, cinf, note="n")
        assert report == per_solution_triple_count(g, c0, c1, cinf,
                                                   note="n"), (i, j, l)
        generating += report["generates"]
    assert generating


def test_orbit_flags_match_per_solution_oracle_at_every_hurwitz_g0():
    g, c2, c3, c7 = hurwitz_setup()
    assert triple_count(g, c2, c3, c7) == \
        per_solution_triple_count(g, c2, c3, c7)
    for g0 in c2.members:
        assert c2.size * len(solutions_at(g, g0, c3, c7)) == \
            per_solution_triple_count(g, c2, c3, c7, g0=g0)["solution_count"]


def _centralizer_cases():
    for ell in (3, 5, 7, 11, 13):
        yield f"pgl2-{ell}", lambda ell=ell: pgl2_group(ell)
        yield f"psl2-{ell}", lambda ell=ell: psl2_group(ell)
    for name, blob in ORACLE_FILE_GROUPS.items():
        yield name, lambda blob=blob: FiniteGroup(MatrixRep(
            blob["p"], blob["n"], scalars=blob.get("scalars")).permutations(
                blob["generators"]))


CENTRALIZER_CASES = dict(_centralizer_cases())


@pytest.mark.parametrize("case", CENTRALIZER_CASES)
def test_schreier_centralizers_match_the_per_element_scan(case):
    g = CENTRALIZER_CASES[case]()
    assert len(g.centralizers) == len(g.classes)
    for cls, cent in zip(g.classes, g.centralizers):
        assert cent == centralizer_by_scan(g, cls.rep), cls.label
    assert g.centralizers[0] is g.elements   # the identity's: not a copy
    # no transversal or conjugation table is kept on the group
    assert set(vars(g)) == {"generators", "identity", "_tail", "elements",
                            "index", "order", "classes", "center",
                            "class_of", "centralizers"}


class _Reads(list):
    """A list that records the indices read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = []

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


def test_triple_count_reads_c_g0_from_the_class_scan_at_the_rep():
    g, c2, c3, c7 = hurwitz_setup()
    g.centralizers = _Reads(g.centralizers)
    at_rep = triple_count(g, c2, c3, c7)
    assert g.centralizers.reads == [g.classes.index(c2)]
    assert at_rep == per_solution_triple_count(g, c2, c3, c7)


def test_one_closure_per_centralizer_orbit(monkeypatch):
    g = psl2_group(37)
    calls = []
    real = FiniteGroup.subgroup_generated
    monkeypatch.setattr(FiniteGroup, "subgroup_generated",
                        lambda self, a, b: calls.append(1) or real(self, a, b))
    r = triple_count(g, g.class_by_label("2A"), g.class_by_label("3A"),
                     g.class_by_label("37A"))
    # the 36 solutions at g0 form one orbit of its centralizer
    assert r["solution_count"] == 703 * 36 and r["strictly_rigid"]
    assert len(calls) == 1


def test_pgl2_group_touches_matrices_only_on_the_frame_orbit(monkeypatch):
    calls = []
    real = MatrixRep.canon
    monkeypatch.setattr(MatrixRep, "canon",
                        lambda self, m: calls.append(1) or real(self, m))
    ell, ngens = 13, 3
    g = pgl2_group(ell)
    assert g.order == 2184 and len(g.identity) == ell + 1
    # ell + 1 points, each mapped by every generator, plus the frame
    assert len(calls) <= (ell + 1) * (ngens + 1) + 4


_AT_BOUND = rigidity.MAX_TABLE_BYTES // 252   # elements of 252 bytes


@pytest.mark.parametrize("ell,order,refused", [
    (61, 61 * 60 * 62, False),              # PGL2(F_61): 14.1 MB
    (73, 73 * 72 * 74 // 2, False),         # PSL2(F_73): 14.4 MB
    (79, 79 * 78 * 80 // 2, True),          # PSL2(F_79): 19.7 MB
    (251, _AT_BOUND, False),
    (251, _AT_BOUND + 1, True),
])
def test_table_bytes_bound_on_known_orders(ell, order, refused):
    if not refused:
        rigidity._check_instance(ell, order, "G")
        return
    with pytest.raises(OverflowError,
                       match="over the bound of 16777216 bytes"):
        rigidity._check_instance(ell, order, "G")


def test_psl2_over_the_table_bound_is_refused_before_closure(monkeypatch):
    def no_closure(self):
        raise RuntimeError("closure ran")

    monkeypatch.setattr(FiniteGroup, "_closure", no_closure)
    for ell in (79, 251):
        with pytest.raises(OverflowError, match="bytes each"):
            psl2_group(ell)


def test_frame_orbit_over_the_bound_is_refused():
    # SL2(F_17) moves e_1 to all 288 nonzero vectors of F_17^2
    with pytest.raises(OverflowError, match="bound of 256 points"):
        MatrixRep(17, 2).permutations([(1, 1, 0, 1), (0, 16, 1, 0)])
    with pytest.raises(OverflowError, match="bound of 256 points"):
        MatrixRep(5, 257).permutations([])
    # 3 generates F_257^x: exactly 256 points
    assert len(MatrixRep(257, 1).permutations([(3,)])[0]) == 256


@pytest.mark.parametrize("bound,refused", [(24 * 4, False), (24 * 4 - 1, True),
                                           (10 * 4, True)])
def test_closure_refuses_once_its_elements_pass_the_table_bound(
        monkeypatch, bound, refused):
    # S4 on 4 points: 24 elements of 4 bytes each
    monkeypatch.setattr(rigidity, "MAX_TABLE_BYTES", bound)
    if not refused:
        assert FiniteGroup(S4_GENS).order == 24
        return
    held = bound // 4
    with pytest.raises(OverflowError, match=f"the group has more than {held} "
                       f"elements of 4 bytes each, over the bound of {bound} "
                       "bytes"):
        FiniteGroup(S4_GENS)


def test_file_group_over_the_table_bound_exits_2_quickly(tmp_path):
    # PSL2(F_251) acts on the 252 points of P^1, so the frame orbit passes
    # MAX_POINTS, but its 7 906 500 elements would take 2 GB; the closure
    # stops at 2**24 // 252 = 66 576
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"p": 251, "n": 2,
                                "generators": [[1, 1, 0, 1], [0, 250, 1, 0]],
                                "scalars": list(range(1, 251))}))
    src = str(Path(rigidity.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "excmono", "rigid", "--group", f"file:{path}"],
        capture_output=True, text=True, env=env, timeout=1.0)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"error: {path}: the group has more than 66576 "
                           "elements of 252 bytes each, over the bound of "
                           "16777216 bytes\n")


class _CountingIndex(dict):
    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("kind,ell", [(k, ell) for k in ("pgl2", "psl2")
                                      for ell in (3, 5, 7, 11, 13)])
def test_subgroup_generated_matches_matrix_oracle(kind, ell):
    g, m = ORACLE_CASES[f"{kind}-{ell}"]()
    # both closures are breadth first on the same generators, so the ids
    # of the two groups name the same elements
    reps = [c.rep for c in g.classes[:4]]
    rng = random.Random(ell)
    pairs = [(a, b) for a in reps for b in reps]
    pairs += [(g.elements[rng.randrange(g.order)],
               g.elements[rng.randrange(g.order)]) for _ in range(8)]
    proper = full = 0
    for a, b in pairs:
        ma, mb = m.elements[g.index[a]], m.elements[g.index[b]]
        assert m.index[m.mul(ma, mb)] == g.index[g.mul(a, b)]
        want = m.subgroup_generated(ma, mb)
        assert g.subgroup_generated(a, b) == want, (a, b)
        proper += want < g.order
        full += want == g.order
    assert proper and full


def test_subgroup_closure_stops_past_half_the_group():
    g = psl2_group(13)
    g.index = _CountingIndex(g.index)
    a, b = g.generators
    assert g.subgroup_generated(a, b) == g.order == 1092
    # a full closure looks up two products for each of the 1092 elements
    assert g.index.lookups <= g.order
