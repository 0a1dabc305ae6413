"""Chevalley basis, centralizer dimensions and rigidity budgets.

Structure constants are cross-checked three ways: against root-string
lengths (|N| = p+1), against the Jacobi identity (exhaustive on the small
algebras, a large seeded sample on E8), and against invariance of the
bilinear form.  The budget numbers themselves were computed once with this
code, cross-checked against the closed-form identities d0 + dinf = #Phi,
d1 = rank, and frozen below.
"""

import random
import time

import pytest

from excmono import chevalley, cli, verify
from excmono.affine_k import KappaCharacter
from excmono.chevalley import (
    build_algebra,
    kappa_fixed_dim,
    quasiminuscule_dims,
    regular_nilpotent_centralizer,
    v_class_centralizer,
)
from excmono.linalg import integer_rank
from excmono.rootsys import fold_dominant, root_system
from oracles import (
    TupleConstants,
    coroot_dot,
    coxeter_number,
    dense_centralizer_dim,
    dict_bracket,
    invariant_form,
    jordan_type,
    mat_mul,
    natural_so_matrix,
    orthogonal_quadruples,
    pair,
    quadruple_dim_survey,
    quadruples_by_gram,
    sparse_rows,
)

ALL_TYPES = ["A1", "G2", "D4", "D6", "D8", "E7", "E8"]

# label -> (algebra dim, regular centralizer, v-class centralizer)
DIMS = {
    "A1": (3, 1, None),
    "G2": (14, 2, 6),
    "D4": (28, 4, 12),
    "D6": (66, 6, 30),
    "D8": (120, 8, 56),
    "E7": (133, 7, 63),
    "E8": (248, 8, 120),
}

BUDGETS = {
    "G2": (6, 2, 6),
    "D4": (12, 4, 12),
    "D6": (30, 6, 30),
    "D8": (56, 8, 56),
    "E7": (63, 7, 63),
    "E8": (120, 8, 120),
}


def _zero(alg):
    return tuple([0] * alg.rank)


def _sum_vec(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _neg(a):
    return tuple(-x for x in a)


# --------------------------------------------------------------- dimensions

@pytest.mark.parametrize("label", ALL_TYPES)
def test_algebra_dimension(label):
    alg = build_algebra(label)
    assert alg.dim == DIMS[label][0]
    assert alg.dim == alg.rank + len(alg.roots)


@pytest.mark.parametrize("label", ["B3", "C4", "F4", "D5", "A3", "D2"])
def test_unsupported_types_rejected(label):
    with pytest.raises(ValueError):
        build_algebra(label)


def test_g2_algebra_uses_the_dual_root_system():
    alg = build_algebra("G2")
    # simple roots of the algebra pair like the transposed Cartan matrix
    g_side = root_system("G2")
    assert alg.rs.cartan == [[g_side.cartan[j][i] for j in range(2)]
                             for i in range(2)]


# ------------------------------------------------------ structure constants

def _n_matches_string(alg, a, b):
    if alg.root_sum(a, b) is None:
        return True
    n = alg.structure_constant(a, b)
    p = alg._string_p(b, a)
    return abs(n) == p + 1


@pytest.mark.parametrize("label", ["A1", "G2", "D4"])
def test_magnitude_is_string_length_exhaustive(label):
    alg = build_algebra(label)
    for a in range(len(alg.roots)):
        for b in range(len(alg.roots)):
            assert _n_matches_string(alg, a, b), (a, b)


def test_magnitude_is_string_length_sampled_e8():
    alg = build_algebra("E8")
    rng = random.Random(88)
    for _ in range(3000):
        a, b = (rng.randrange(len(alg.roots)) for _ in range(2))
        assert _n_matches_string(alg, a, b), (a, b)


@pytest.mark.parametrize("label", ["G2", "D4"])
def test_antisymmetry_and_negation_exhaustive(label):
    alg = build_algebra(label)
    for a in range(len(alg.roots)):
        for b in range(len(alg.roots)):
            if alg.root_sum(a, b) is None:
                continue
            n = alg.structure_constant(a, b)
            assert alg.structure_constant(b, a) == -n
            assert alg.structure_constant(alg.neg[a], alg.neg[b]) == -n


@pytest.mark.parametrize("label", ["G2", "D6"])
def test_triple_sum_zero_identity(label):
    # a + b + c = 0  =>  N(a,b) (c-vee,c-vee) = N(b,c) (a-vee,a-vee)
    alg = build_algebra(label)
    rs = alg.rs

    def cn(a):
        cr = rs.coroot_of[alg.roots[a]]
        return coroot_dot(rs, cr, cr)

    for a in range(len(alg.roots)):
        for b in range(len(alg.roots)):
            s = alg.root_sum(a, b)
            if s is None:
                continue
            c = alg.neg[s]
            lhs = alg.structure_constant(a, b) * cn(c)
            rhs = alg.structure_constant(b, c) * cn(a)
            assert lhs == rhs, (a, b)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_root_keys_match_tuple_sums(label):
    # every ordered pair of roots: 57 600 for E8
    alg = build_algebra(label)
    where = {a: p for p, a in enumerate(alg.roots)}
    n = len(alg.roots)
    assert len(set(alg.key)) == n
    for p, a in enumerate(alg.roots):
        assert alg.roots[alg.neg[p]] == _neg(a)
        assert alg.height[p] == sum(a)
        for q, b in enumerate(alg.roots):
            total = _sum_vec(a, b)
            assert alg.root_sum(p, q) == where.get(total), (a, b)
            assert (alg.key[p] + alg.key[q] == 0) == (total == _zero(alg))


@pytest.mark.parametrize("label", ALL_TYPES)
def test_structure_constants_match_the_tuple_oracle(label):
    alg = build_algebra(label)
    oracle = TupleConstants(alg.rs)
    nonzero = 0
    for p, a in enumerate(alg.roots):
        for q, b in enumerate(alg.roots):
            if q == alg.neg[p]:
                continue   # [e_a, e_-a] lies in the Cartan: no N
            want = oracle.n(a, b)
            if alg.root_sum(p, q) is None:
                assert want == 0, (a, b)
                continue
            assert alg.structure_constant(p, q) == want, (a, b)
            nonzero += want != 0
    # N(a, b) != 0 exactly when a + b is a root: 13 440 pairs in E8
    assert nonzero == sum(_sum_vec(a, b) in alg.index
                          for a in alg.roots for b in alg.roots)


@pytest.mark.parametrize("label", ["A1", "G2", "D4", "D6"])
def test_bracket_matches_the_dict_bracket_on_every_pair(label):
    alg = build_algebra(label)
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert alg.bracket(i, j) == dict_bracket(alg, {i: 1}, {j: 1})


def test_bracket_matches_the_dict_bracket_sampled_e8():
    alg = build_algebra("E8")
    rng = random.Random(20000)
    pairs = [(rng.randrange(alg.dim), rng.randrange(alg.dim))
             for _ in range(20000)]
    t0 = time.perf_counter()
    for i, j in pairs:
        assert alg.bracket(i, j) == dict_bracket(alg, {i: 1}, {j: 1})
    assert time.perf_counter() - t0 < 1.0


def _jacobi_defect(alg, i, j, k):
    # [[x, y], z] + [[y, z], x] + [[z, x], y], each outer bracket taken
    # term by term on the inner one's basis products
    total = {}
    for (p, q), r in (((i, j), k), ((j, k), i), ((k, i), j)):
        for t, c in alg.bracket(p, q).items():
            for key, v in alg.bracket(t, r).items():
                total[key] = total.get(key, 0) + c * v
    return {key: c for key, c in total.items() if c}


@pytest.mark.parametrize("label", ["A1", "G2"])
def test_jacobi_exhaustive(label):
    alg = build_algebra(label)
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                assert not _jacobi_defect(alg, i, j, k), (i, j, k)


def test_jacobi_sampled_e8():
    alg = build_algebra("E8")
    rng = random.Random(248)
    for _ in range(10000):
        i, j, k = (rng.randrange(alg.dim) for _ in range(3))
        assert not _jacobi_defect(alg, i, j, k), (i, j, k)


def test_bracket_of_opposite_root_vectors_is_the_coroot():
    alg = build_algebra("G2")
    for a in alg.roots:
        got = alg.bracket(alg.index[a], alg.index[_neg(a)])
        want = {i: c for i, c in enumerate(alg.rs.coroot_of[a]) if c}
        assert got == want


# ------------------------------------------------------------ bilinear form

@pytest.mark.parametrize("label", ["G2"])
def test_form_invariance_exhaustive(label):
    alg = build_algebra(label)
    for i in range(alg.dim):
        for j in range(alg.dim):
            xj = alg.bracket(i, j)
            for k in range(alg.dim):
                lhs = sum(c * invariant_form(alg, t, k) for t, c in xj.items())
                xk = alg.bracket(i, k)
                rhs = sum(c * invariant_form(alg, j, t) for t, c in xk.items())
                assert lhs + rhs == 0, (i, j, k)


def test_form_invariance_sampled_e7():
    alg = build_algebra("E7")
    rng = random.Random(133)
    for _ in range(4000):
        i, j, k = (rng.randrange(alg.dim) for _ in range(3))
        xj = alg.bracket(i, j)
        lhs = sum(c * invariant_form(alg, t, k) for t, c in xj.items())
        xk = alg.bracket(i, k)
        rhs = sum(c * invariant_form(alg, j, t) for t, c in xk.items())
        assert lhs + rhs == 0, (i, j, k)


def test_form_is_nondegenerate_on_g2():
    alg = build_algebra("G2")
    gram = [[invariant_form(alg, i, j) for j in range(alg.dim)]
            for i in range(alg.dim)]
    assert integer_rank(sparse_rows(gram)) == alg.dim


# ----------------------------------------------------- centralizer numbers

@pytest.mark.parametrize("label", ALL_TYPES)
def test_regular_nilpotent_centralizer(label):
    alg = build_algebra(label)
    assert regular_nilpotent_centralizer(alg) == DIMS[label][1] == alg.rank


@pytest.mark.parametrize("label", ALL_TYPES)
def test_centralizer_dims_match_the_dense_oracle(label):
    alg = build_algebra(label)
    e = alg.regular_nilpotent()
    assert alg.centralizer_dim(e) == dense_centralizer_dim(alg, e) == alg.rank
    if label != "A1":
        v = {alg.index[a]: 1 for a in v_class_centralizer(alg).root_combination}
        assert alg.centralizer_dim(v) == dense_centralizer_dim(alg, v) \
            == len(alg.roots) // 2


@pytest.mark.parametrize("label", ALL_TYPES)
def test_kappa_fixed_dim_is_half_the_roots(label):
    alg = build_algebra(label)
    kappa = KappaCharacter(root_system(label))
    assert kappa_fixed_dim(alg, kappa) == len(alg.roots) // 2


@pytest.mark.parametrize("label", [t for t in ALL_TYPES if t != "A1"])
def test_v_class_centralizer(label):
    alg = build_algebra(label)
    w = v_class_centralizer(alg)
    assert w.centralizer_dim == DIMS[label][2] == len(alg.roots) // 2
    # v is nilpotent but neither zero nor regular
    assert w.root_combination
    assert w.centralizer_dim > alg.rank


@pytest.mark.parametrize("label, count", [
    ("G2", 0), ("D4", 3), ("D6", 225), ("E7", 4725)])
def test_orthogonal_quadruples_match_the_gram_route(label, count):
    rs = root_system(label)
    quads = list(orthogonal_quadruples(rs))
    assert quads == quadruples_by_gram(rs)
    assert len(quads) == count


def test_v_class_witnesses_are_orthogonal_in_e_types():
    for label in ("E7", "E8"):
        alg = build_algebra(label)
        w = v_class_centralizer(alg)
        rs = alg.rs
        quad = w.root_combination
        assert len(quad) == 4
        assert list(quad) == sorted(quad, key=lambda a: (sum(a), a))
        for i in range(4):
            for j in range(i + 1, 4):
                assert coroot_dot(rs, rs.coroot_of[quad[i]],
                                  rs.coroot_of[quad[j]]) == 0


@pytest.mark.parametrize("label", ["E7", "E8"])
def test_named_e_quadruple_is_the_first_orthogonal_quadruple(label):
    alg = build_algebra(label)
    assert v_class_centralizer(alg).root_combination == next(
        orthogonal_quadruples(alg.rs))


def test_named_g2_root_is_the_first_short_root():
    # short roots of the dual have the long coroots
    alg = build_algebra("G2")
    rs = alg.rs
    top = max(rs.norm_of.values())
    first = next(a for a in rs.positive_roots if rs.norm_of[a] == top)
    assert v_class_centralizer(alg).root_combination == (first,)


def test_quadruple_survey_sees_two_values():
    # not every orthogonal quadruple lands in the same class: a minority
    # give a strictly larger centralizer (67 in E7, 134 in E8)
    assert quadruple_dim_survey(build_algebra("E7"), 60) == {63: 48, 67: 12}
    assert quadruple_dim_survey(build_algebra("E8"), 25) == {120: 23, 134: 2}


# every even D from D4 to MAX_RANK, and the other budget types
GRADED_LABELS = ["G2", "E7", "E8", "D4", "D6", "D8", "D10", "D12", "D14"]


@pytest.mark.parametrize("label", GRADED_LABELS)
def test_grading_route_equals_rank_route(label):
    alg = build_algebra(label)
    rs = alg.rs
    w = v_class_centralizer(alg)
    # h = sum of beta-vee over the witness's roots, and its grading
    h = [sum(c) for c in zip(*(rs.coroot_of[b] for b in w.root_combination))]
    labels = alg.grading(h)
    assert labels == [sum(x * y for x, y in zip(rs.pairing_of[a], h))
                      for a in alg.roots]
    e = {alg.index[b]: 1 for b in w.root_combination}
    assert alg.rank + labels.count(0) + labels.count(1) \
        == alg.centralizer_dim(e) == w.centralizer_dim == len(alg.roots) // 2
    if rs.letter == "D":
        # the partition (3, 2, ..., 2, 1) puts h at epsilon coordinates
        # (2, 1, ..., 1, 0); alpha_i = e_i - e_{i+1}, alpha_m = e_{m-1} + e_m
        m = rs.rank
        eps = [2, *[1] * (m - 2), 0]
        want = [eps[i] - eps[i + 1] for i in range(m - 1)] \
            + [eps[m - 2] + eps[m - 1]]
        assert want == [1, *[0] * (m - 3), 1, 1]
        simple = [labels[alg.index[s] - alg.rank] for s in rs.simple_roots]
        assert fold_dominant(rs.cartan, simple,
                             len(rs.positive_roots))[0] == want


# --------------------------------------------------- natural representation

def _eps_pair(root, m):
    """A positive root of D_m, sum of c_i alpha_i, as the pair (i, -j) for
    e_i - e_j or (i, j) for e_i + e_j, i < j 1-based."""
    eps = [0] * m
    for i, c in enumerate(root[:-1]):
        eps[i] += c
        eps[i + 1] -= c
    eps[m - 2] += root[-1]
    eps[m - 1] += root[-1]
    (i, _), (j, b) = [(k + 1, v) for k, v in enumerate(eps) if v]
    return i, j if b > 0 else -j


@pytest.mark.parametrize("label", ["D4", "D6", "D8"])
def test_d_witness_has_the_jordan_type_of_its_diagram(label):
    # the natural-representation route, which the diagram check replaced
    alg = build_algebra(label)
    m = alg.rank
    pairs = [_eps_pair(b, m) for b in v_class_centralizer(alg).root_combination]
    assert jordan_type(natural_so_matrix(m, pairs)) == (3, *[2] * (m - 2), 1)


def test_natural_so_matrix_is_skew_adjoint():
    for m in (4, 6, 8):
        pairs = [(1, -2), (1, 2)] + [(i + 1, -(i + 2))
                                     for i in range(2, m - 1, 2)]
        mat = natural_so_matrix(m, pairs)
        n = 2 * m
        for i in range(n):
            for j in range(n):
                # A^T J + J A = 0 with J the antidiagonal identity
                assert mat[j][i] + mat[n - 1 - i][n - 1 - j] == 0


def test_jordan_type_oracle():
    # block diagonal J3 + J2 + J1, conjugated by a unimodular matrix
    base = [[0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0]]
    assert jordan_type(base) == (3, 2, 1)
    upper = [[1, 2, 0, 0, 1, 0],
             [0, 1, 3, 0, 0, 0],
             [0, 0, 1, 0, 2, 1],
             [0, 0, 0, 1, 0, 4],
             [0, 0, 0, 0, 1, 0],
             [0, 0, 0, 0, 0, 1]]
    lower = [[1, 0, 0, 0, 0, 0],
             [2, 1, 0, 0, 0, 0],
             [0, 1, 1, 0, 0, 0],
             [3, 0, 0, 1, 0, 0],
             [0, 0, 2, 0, 1, 0],
             [1, 0, 0, 0, 1, 1]]
    p = mat_mul(upper, lower)

    # p has determinant 1; conjugation preserves the Jordan type
    pinv = _inverse_unimodular(p)
    conj = mat_mul(mat_mul(p, base), pinv)
    assert jordan_type(conj) == (3, 2, 1)


def _inverse_unimodular(p):
    from fractions import Fraction

    n = len(p)
    aug = [[Fraction(p[i][j]) for j in range(n)]
           + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    out = [[x for x in row[n:]] for row in aug]
    assert all(x.denominator == 1 for row in out for x in row)
    return [[int(x) for x in row] for row in out]


def test_d_type_jordan_partitions():
    for label, m in (("D4", 4), ("D6", 6), ("D8", 8)):
        w = v_class_centralizer(build_algebra(label))
        assert f"(3, {'2, ' * (m - 2)}1)" in w.description.replace("  ", " ")


# ----------------------------------------------------------------- budgets

@pytest.mark.parametrize("label", list(BUDGETS))
def test_rigidity_budget(label):
    res = chevalley.monodromy_result(label, 0, samples=0)
    d0, d1, dinf = (res["budget"][d] for d in ("d0", "d1", "dinf"))
    assert (d0, d1, dinf) == BUDGETS[label]
    assert (res["kappa_fixed_dim"], res["regular_nilpotent_centralizer"],
            res["v_class"]["centralizer_dim"]) == (d0, d1, dinf)
    # dim H^1 = dim g - d0 - d1 - dinf vanishes
    assert d0 + dinf == root_system(label).num_roots
    assert d0 + d1 + dinf == build_algebra(label).dim


COUNTED = ("kappa_fixed_dim", "regular_nilpotent_centralizer",
           "v_class_centralizer")


def count_calls(monkeypatch):
    """Calls of each COUNTED function, through every module that binds it."""
    counts = dict.fromkeys(COUNTED, 0)
    for name in COUNTED:
        real = getattr(chevalley, name)

        def counting(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        for mod in (chevalley, verify, cli):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting)
    return counts


def test_criterion_5_computes_each_quantity_once(monkeypatch):
    # one per label, the v class for the six budget labels alone
    counts = count_calls(monkeypatch)
    verify.criterion_chevalley()
    assert counts == {"kappa_fixed_dim": 7,
                      "regular_nilpotent_centralizer": 7,
                      "v_class_centralizer": 6}


def test_monodromy_computes_each_quantity_once(monkeypatch, capsys):
    counts = count_calls(monkeypatch)
    assert cli.main(["monodromy", "E7"]) == 0
    assert counts == dict.fromkeys(COUNTED, 1)


# ---------------------------------------------------------- quasiminuscule

QM = {"G2": (7, 6), "E7": (133, 34), "E8": (248, 58)}


@pytest.mark.parametrize("label", list(QM))
def test_quasiminuscule_dims(label):
    rs = root_system(label)
    qm, y, heis = quasiminuscule_dims(label)
    assert (qm, y) == QM[label]
    # closed form: #Phi minus the strictly negative pairings against the
    # highest coroot, which number 2 h-vee - 3
    assert heis == rs.num_roots - (2 * rs.dual_coxeter_number() - 3)
    theta_vee = rs.highest_root()[1]
    assert heis == sum(1 for b in rs.roots if pair(rs, b, theta_vee) >= 0)


# ------------------------------------------------------ principal grading

@pytest.mark.parametrize("label,h", [("G2", 6), ("D4", 6), ("E7", 18)])
def test_principal_grading_and_power_bijections(label, h):
    alg = build_algebra(label)
    assert coxeter_number(root_system(label)) == h
    _check_hard_lefschetz(alg, h)


def test_principal_grading_e8():
    alg = build_algebra("E8")
    _check_hard_lefschetz(alg, 30)


def _check_hard_lefschetz(alg, h):
    grade = {}
    for a in alg.roots:
        grade.setdefault(sum(a), []).append(alg.index[a])
    grade.setdefault(0, []).extend(range(alg.rank))
    assert len(grade[h - 1]) == len(grade[1 - h]) == 1
    e = alg.regular_nilpotent()
    for n in range(1, h):
        lo, hi = grade[-n], grade[n]
        assert len(lo) == len(hi)
        cols = []
        for idx in lo:
            vec = {idx: 1}
            for _ in range(2 * n):
                vec = dict_bracket(alg, e, vec)
            cols.append(vec)
        # image lives entirely in degree +n
        hi_set = set(hi)
        for vec in cols:
            assert set(vec) <= hi_set
        rows = [[vec.get(idx, 0) for vec in cols] for idx in hi]
        assert integer_rank(sparse_rows(rows)) == len(lo), n
