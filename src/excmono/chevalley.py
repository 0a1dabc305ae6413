"""Exact Chevalley basis for the dual Lie algebra and its centralizer checks.

Structure constants N(a, b) are built from extraspecial pairs ordered by
(height, lexicographic coordinates), with every other value reduced to those
by antisymmetry, negation, the invariant-form identity for triples summing
to zero, and one Jacobi step for special non-extraspecial pairs.  All
brackets are integers; all kernel dimensions come from fraction-free integer
elimination.

The supported types are the self-dual ones, so the "dual" system differs
from the input only for G2, where roots and coroots trade places.

Brackets run on root positions: root p is ``roots[p]``, with basis index
rank + p, and since the roots are sorted by (height, coordinates) that
order is p < q.  Each root is also one int key, `rootsys.root_key`, so
key[p] + key[q] is a root's key exactly when that root is roots[p] +
roots[q].  Every lookup is of such a sum (a difference is a sum with the
negated root): one int add, one dict get.
"""

from __future__ import annotations

import random
from operator import mul
from typing import NamedTuple

from .affine_k import KappaCharacter
from .linalg import integer_rank
from .obs import check, memo
from .rootsys import (RootSystem, fold_dominant, require_covered,
                      root_key, root_system)

# (dim of the quasi-minuscule representation, dim Y) as in the paper
QM_EXPECT = {"E7": (133, 34), "E8": (248, 58), "G2": (7, 6)}
# the v-class witness of E7 and E8: pairwise orthogonal simple roots, as
# Bourbaki nodes, in (height, coordinates) order
E_QUADRUPLE = {7: (7, 5, 3, 2), 8: (8, 6, 4, 1)}


class ChevalleyAlgebra:
    """Basis: h_0..h_{r-1} (simple coroots), then e_alpha per root."""

    def __init__(self, rs_dual: RootSystem):
        self.rs = rs_dual
        self.rank = rs_dual.rank
        self.roots = list(rs_dual.roots)
        self.dim = self.rank + len(self.roots)
        self.index = {a: self.rank + i for i, a in enumerate(self.roots)}
        self.key = [root_key(a) for a in self.roots]
        self._pos = {key: p for p, key in enumerate(self.key)}
        self.neg = [self._pos[-key] for key in self.key]
        self.height = [sum(a) for a in self.roots]
        self.norm_of = [rs_dual.norm_of[a] for a in self.roots]
        self._coroots = [rs_dual.coroot_of[a] for a in self.roots]
        # <root, alpha_i-vee> for every i, one tuple per root, in root order
        self._pairings = [rs_dual.pairing_of[a] for a in self.roots]
        self._extraspecial = self._extraspecial_pairs()
        self._ncache = {}

    def root_sum(self, p: int, q: int):
        """Position of roots[p] + roots[q], or None if it is not a root."""
        return self._pos.get(self.key[p] + self.key[q])

    # ---------------------------------------------------- structure constants

    def _extraspecial_pairs(self):
        """gamma -> (a1, b1), as positions: the minimal-first decomposition
        of each positive non-simple root into two positives."""
        out = {}
        height, neg = self.height, self.neg
        positives = [p for p, h in enumerate(height) if h > 0]
        for gamma in positives:
            if height[gamma] == 1:
                continue
            best = None
            for a in positives:
                if height[a] >= height[gamma]:
                    break
                b = self.root_sum(gamma, neg[a])
                if b is not None and height[b] > 0:
                    best = (a, b)
                    break
            check("extraspecial-pair-found", best is not None,
                  "no decomposition for {}", self.roots[gamma])
            out[gamma] = best
        return out

    def _string_p(self, a: int, b: int) -> int:
        """max p with roots[b] - p*roots[a] a root."""
        p = 0
        cur = self.root_sum(b, self.neg[a])
        while cur is not None:
            p += 1
            cur = self.root_sum(cur, self.neg[a])
        return p

    def structure_constant(self, a: int, b: int) -> int:
        """N(a, b) with [e_a, e_b] = N(a, b) e_{a+b} for root positions a
        and b whose sum is a root: every caller has found that sum first."""
        key = (a, b)
        got = self._ncache.get(key)
        if got is None:
            s = self._pos[self.key[a] + self.key[b]]
            got = self._compute_n(a, b, s)
            self._ncache[key] = got
        return got

    def _compute_n(self, a: int, b: int, s: int) -> int:
        n, neg, height = self.structure_constant, self.neg, self.height
        ha, hb = height[a], height[b]
        if ha < 0 and hb < 0:
            return -n(neg[a], neg[b])
        if ha < 0 < hb:
            return -n(b, a)
        if ha > 0 > hb:
            if height[s] < 0:
                return -n(neg[a], neg[b])
            # a + b + (-s) = 0: N(a,b) (s-vee, s-vee) = N(b, -s) (a-vee, a-vee)
            return self._integral(n(b, neg[s]) * self.norm_of[a],
                                  self.norm_of[s], a, b)
        # positive pair
        if a > b:
            return -n(b, a)
        a1, b1 = self._extraspecial[s]
        if (a, b) == (a1, b1):
            return self._string_p(a1, b1) + 1
        # Jacobi on (-a1, a, b), whose sum is the root b1:
        #   N(-a1,a) N(a-a1,b) + N(a,b) N(s,-a1) + N(b,-a1) N(b-a1,a) = 0
        t1 = t2 = 0
        a_less = self.root_sum(a, neg[a1])
        if a_less is not None:
            t1 = n(neg[a1], a) * n(a_less, b)
        b_less = self.root_sum(b, neg[a1])
        if b_less is not None:
            t2 = n(b, neg[a1]) * n(b_less, a)
        return self._integral(-(t1 + t2), n(s, neg[a1]), a, b)

    def _integral(self, num: int, den: int, a: int, b: int) -> int:
        # only here can an N be 0: the other branches give p + 1 or -N
        q, rem = divmod(num, den)
        check("structure-constant-integral", rem == 0 and q != 0,
              "N({}, {}) = {}/{} is not a nonzero integer", self.roots[a],
              self.roots[b], num, den)
        return q

    # ------------------------------------------------------------- brackets

    def bracket(self, i: int, j: int) -> dict:
        """[b_i, b_j] as {basis index: nonzero coefficient}."""
        r = self.rank
        if i < r or j < r:
            if i >= r:
                return {k: -c for k, c in self.bracket(j, i).items()}
            c = 0 if j < r else self._pairings[j - r][i]
            return {j: c} if c else {}
        a, b = i - r, j - r
        s = self.root_sum(a, b)
        if s is not None:
            return {r + s: self.structure_constant(a, b)}
        if self.neg[a] == b:
            return {k: c for k, c in enumerate(self._coroots[a]) if c}
        return {}

    def bracket_sum(self, terms) -> dict:
        """Sum of c [b_i, b_j] over (i, j, c) in terms, zeros dropped."""
        out = {}
        for i, j, c in terms:
            for k, v in self.bracket(i, j).items():
                out[k] = out.get(k, 0) + c * v
        return {k: v for k, v in out.items() if v}

    def grading(self, h) -> list:
        """<alpha, h> for each root alpha, in root order: the eigenvalue of
        ad(h) on e_alpha, for h in the simple-coroot basis."""
        return [sum(map(mul, p, h)) for p in self._pairings]

    def centralizer_dim(self, x: dict) -> int:
        """dim g - rank ad(x), column j summing c [b_i, b_j] over x's terms."""
        return self.dim - integer_rank(
            self.bracket_sum((i, j, c) for i, c in x.items())
            for j in range(self.dim))

    def regular_nilpotent(self) -> dict:
        return {self.index[s]: 1 for s in self.rs.simple_roots}


def build_algebra(label: str) -> ChevalleyAlgebra:
    rs = root_system(label)
    require_covered(rs)
    return ChevalleyAlgebra(rs.dual())


def jacobi_probe(alg: ChevalleyAlgebra, samples: int, seed: int) -> int:
    """Spot-check the Jacobi identity on random basis triples."""
    rng = random.Random(seed)
    for _ in range(samples):
        x, y, z = (rng.randrange(alg.dim) for _ in range(3))
        total = alg.bracket_sum(
            (a, k, c) for a, b, d in ((x, y, z), (y, z, x), (z, x, y))
            for k, c in alg.bracket(b, d).items())
        check("jacobi-identity-sampled", not total,
              "Jacobi identity failed on sampled triple")
    return samples


def kappa_fixed_dim(alg: ChevalleyAlgebra, kappa) -> int:
    """dim of the kappa-fixed subalgebra; the split-Cartan count.

    kappa lives on the coroot lattice of G, which is the root lattice of
    the dual; the fixed space is the Cartan plus every root line with
    kappa = +1, and the result must land exactly on #Phi/2.
    """
    plus = sum(1 for a in alg.roots if kappa(a) == 1)
    dim = alg.rank + plus
    check("kappa-fixed-is-half-the-roots", dim == len(alg.roots) // 2, "split "
          "Cartan involution identity failed: {} != {}", dim, len(alg.roots) // 2)
    return dim


def regular_nilpotent_centralizer(alg: ChevalleyAlgebra) -> int:
    dim = alg.centralizer_dim(alg.regular_nilpotent())
    check("regular-centralizer-is-rank", dim == alg.rank,
          "regular nilpotent centralizer {} != rank {}", dim, alg.rank)
    return dim


# ------------------------------------------------------------------ v class

class VClassWitness(NamedTuple):
    description: str
    root_combination: tuple
    centralizer_dim: int


def v_class_centralizer(alg: ChevalleyAlgebra) -> VClassWitness:
    """The v-class witness of a covered type other than A1: G2, D or E.

    Each letter names pairwise strongly orthogonal roots beta, and the
    witness is e = sum of e_beta.  With h = sum of beta-vee and f = sum
    of e_-beta, (e, h, f) is an sl2-triple, so dim g^e = dim g_0 + dim
    g_1 for the grading g_j = {x : [h, x] = j x}, that is rank +
    #{alpha : <alpha, h> in {0, 1}} (Collingwood and McGovern, Nilpotent
    Orbits in Semisimple Lie Algebras, 1993, ch. 3).  The check compares
    that count with the rank of ad(e) and #Phi/2.  For D the labels of
    h folded to the dominant chamber, its weighted Dynkin diagram, also
    name the class.
    """
    rs = alg.rs
    diagram = None
    if rs.letter == "G":
        # alpha_2 of the dual has the long coroot: it is the short root
        roots = (rs.simple_roots[1],)
        description = "short root vector"
    elif rs.letter == "E":
        roots = tuple(rs.simple_roots[i - 1] for i in E_QUADRUPLE[rs.rank])
        description = ("sum over the orthogonal simple roots "
                       f"{E_QUADRUPLE[rs.rank]}")
    else:
        # partition (3, 2, ..., 2, 1) of so(2m), m even:
        # X(e1+e2) + X(e1-e2) + X(e3-e4) + ... + X(e_{m-1}-e_m), whose h
        # folds to epsilon coordinates (2, 1, ..., 1, 0): labels
        # (1, 0, ..., 0, 1, 1)
        m = rs.rank
        roots = (rs.highest_root()[0], *rs.simple_roots[0:m - 1:2])
        description = f"Jordan type {(3, *[2] * (m - 2), 1)} nilpotent"
        diagram = [1, *[0] * (m - 3), 1, 1]
    witness = VClassWitness(description, roots, alg.centralizer_dim(
        {alg.index[b]: 1 for b in roots}))
    h = [sum(c) for c in zip(*(rs.coroot_of[b]
                               for b in witness.root_combination))]
    labels = alg.grading(h)
    graded = alg.rank + labels.count(0) + labels.count(1)
    target = len(alg.roots) // 2
    check("v-class-centralizer", witness.centralizer_dim == graded == target,
          "v-class prediction failed for {}: centralizer {}, graded {}, "
          "want {}", rs.label, witness.centralizer_dim, graded, target)
    if diagram is not None:
        # D is simply laced: the labels of h fold as a weight's pairings
        simple = [labels[alg.index[s] - alg.rank] for s in rs.simple_roots]
        folded, _ = fold_dominant(rs.cartan, simple, len(rs.positive_roots))
        check("v-class-weighted-diagram", folded == diagram,
              "{}: weighted Dynkin diagram {} != {}", rs.label, folded,
              diagram)
    return witness


# ---------------------------------------------------------------- results

def monodromy_result(label: str, seed: int, samples: int) -> dict:
    """The `monodromy` result for `label`, with `samples` Jacobi checks."""
    alg = build_algebra(label)
    rs = root_system(label)
    d0 = kappa_fixed_dim(alg, KappaCharacter(rs))
    d1 = regular_nilpotent_centralizer(alg)
    result = {"label": rs.label, "dim": alg.dim, "rank": alg.rank,
              "kappa_fixed_dim": d0, "regular_nilpotent_centralizer": d1}
    if rs.letter != "A":
        witness = v_class_centralizer(alg)
        dinf = witness.centralizer_dim
        # the local centralizer dimensions at 0, 1 and infinity: dim H^1 =
        # dim g - d0 - d1 - dinf for three-point local systems, and the
        # predicted classes give exactly 0.  The checks above fix d0 =
        # dinf = #Phi-vee / 2 and d1 = rank, and dim g = rank + #Phi-vee,
        # #Phi-vee even, so that holds
        result.update(v_class={"centralizer_dim": dinf,
                               "witness": witness.description},
                      budget={"d0": d0, "d1": d1, "dinf": dinf})
    if rs.label in QM_EXPECT:
        qm, y, heis = quasiminuscule_dims(label)
        result["quasiminuscule"] = {"dim": qm, "y_dim": y,
                                    "heisenberg_dim": heis}
    result["jacobi_probe"] = {"samples": jacobi_probe(alg, samples, seed),
                              "seed": seed}
    return result


@memo
def quasiminuscule_dims(label: str):
    """(dim of the quasi-minuscule representation, dim Y, Heisenberg count)
    for a `QM_EXPECT` label; cached: `verify-all` criteria 5 and 6 read it."""
    rs = root_system(label)
    # short roots have long coroots
    top = max(rs.norm_of.values())
    n_short = sum(1 for a in rs.roots if rs.norm_of[a] == top)
    n_short_simple = sum(1 for a in rs.simple_roots if rs.norm_of[a] == top)
    qm_dim = n_short + n_short_simple
    heis = heisenberg_dim(rs)
    # <b, theta-vee> < 0 only at -theta (-2) and at 2 h-vee - 4 roots (-1),
    # h-vee = 1 + the comark sum; so heis + dim Y = #Phi + 1
    below, want = rs.num_roots - heis, 2 * rs.dual_coxeter_number() - 3
    check("heisenberg-count-by-comarks", below == want, "{}: {} roots b "
          "with <b, theta-vee> < 0, want 2 h-vee - 3 = {}", rs.label, below,
          want)
    return qm_dim, rs.dim_y(), heis


def heisenberg_dim(rs: RootSystem) -> int:
    """The number of roots b with <b, theta-vee> >= 0."""
    # <b, theta-vee> = sum over k of b[k] <alpha_k, theta-vee>
    theta_col = rs.copairing_of[rs.highest_root()[0]]
    return sum(1 for b in rs.roots if sum(map(mul, b, theta_col)) >= 0)
