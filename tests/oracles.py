"""Reference helpers that only the tests use.

Each one backs a check in a test file: the invariant form behind the
Chevalley form-invariance tests, explicit odd-irrep matrices behind the
homomorphism tests, conjugation invariants behind the class tests,
groups, classes and triple counts by matrix products behind the
permutation groups of the rigidity layer, the README's `file:` group,
the lex-least scalar multiple that the projective canonical form
replaced, the dense frame images that the sums over a point's support
replaced, the matrix inverse by elimination that the frame-orbit
permutations replaced as the test for a singular generator, exact
Gaussian integers as (re, im) int pairs, the per-call form loops,
per-pair law replay, bitslice odd sets and echelon routine the two-group
tables and row checks replaced, the `Fraction` alcove fold the integer
fold replaced, the tuple reflection closure, tuple-keyed structure
constants and dense ad(x) rank that the carried pairings, root positions
and sparse bracket columns replaced, the dict-by-dict bracket that the
basis products replaced, the longest-element matrix,
tuple-difference simple system, scan-every-row rank and per-solution
generation flags that the pairing descent, root keys, column index and
centralizer orbits replaced, the per-element centralizer scan that the
Schreier generators replaced, the double-sum Gram tables that the
two-group's top-bit recurrence replaced, the Gram double sum that the
copairing orthogonality test replaced, the per-entry extension rows that
the a1 lab's bytes gathers, pair table and half walk replaced, the
Coxeter number, the natural-representation matrix and Jordan type that
the weighted Dynkin diagram replaced as the D class check, the
orthogonal quadruple enumeration that the named E witness roots
replaced, the coset basis the odd irreps are induced on, the coset
reduction and group inverse that the pivot-mask transversal and the
commutator-law conjugation replaced, and
dense-to-sparse rows, plain matrix products and powers, F2 ranks and a
quadruple survey for the rest.
`GOLDEN` holds the sha256 of the stdout of every README example.
"""

import hashlib
import itertools
import json
import operator
import re
import shlex
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from excmono.a1lab import _correlate
from excmono.arith import UNIT_RE, least_primitive_root
from excmono.linalg import _gcd_reduce, gf2_echelon, integer_rank
from excmono.rigidity import ConjClass, MatrixRep
from excmono.twogroup import _extend_character, _greedy_lagrangian

# recorded before the Ã and a1 layers were rewritten for single computation
GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden_stdout.json").read_text())

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_group_text() -> str:
    """The JSON of the README's example `file:` group, gens.json."""
    return re.search(r"`(\{\"p\".*?\})`", README.read_text(), re.S).group(1)


def readme_examples() -> list:
    """argv of every `excmono ...` line in the README's sh blocks."""
    out = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.splitlines():
            cmd = line.split("#", 1)[0].strip()
            if cmd.startswith("excmono "):
                out.append(shlex.split(cmd)[1:])
    return out


def stdout_digest(out) -> str:
    """sha256 of captured stdout, given as str or bytes."""
    return hashlib.sha256(
        out.encode() if isinstance(out, str) else out).hexdigest()


def list_extension_table(index) -> tuple:
    """`a1lab._extension_table` with each of the p rows and its g built
    entry by entry in list comprehensions, the route that the bytes
    gathers, the 25-entry pair table and the half walk of doubled rows
    replaced; the rows meet the same `_correlate`, each of weight 1, and
    it has its own naive oracle."""
    p = len(index)
    nu = next((z for z in range(1, p) if index[z] % 2), 0)
    squares = [a * a % p for a in range(p)]

    def rows():
        for b in range(p):
            nb2 = nu * b * b
            row = [index[(a2 - nb2) % p] for a2 in squares]
            g = [4 if 4 in (row[a - 1], row[a]) else (row[a - 1] - row[a]) % 4
                 for a in range(p)]
            yield g, row, 1

    corr = _correlate(rows(), p, p)
    table = [None, None]
    for lam in range(2, p):
        sign = UNIT_RE[2 * index[lam] % 4]  # chi(lam)^2 = +-1
        table.append((sign * corr[lam][0], sign * corr[lam][1]))
    return tuple(table)


def double_sum_form_tables(rs, r):
    """The norms and pairing masks that `twogroup.TildeGroup` tabulates,
    straight from the gram: each norm and each parity bit a double sum
    over the bits of the mask, the route that the recurrence on the top
    bit replaced."""
    gram = rs.form_gram
    norms, parity = [], []
    for a in range(1 << r):
        idx = [i for i in range(r) if (a >> i) & 1]
        norms.append(sum(gram[i][j] for i in idx for j in idx))
        mask = 0
        for j in range(r):
            if sum(gram[i][j] for i in idx) % 2:
                mask |= 1 << j
        parity.append(mask)
    return norms, parity


def sparse_rows(mat) -> list[dict]:
    """Dense integer rows as the sparse rows `integer_rank` takes."""
    return [{j: v for j, v in enumerate(row) if v} for row in mat]


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += v * bt[j]
    return out


def mat_pow(a, e: int):
    n = len(a)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    base = [row[:] for row in a]
    while e:
        if e & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        e >>= 1
    return out


def gf2_rank(masks) -> int:
    rank = 0
    basis = []
    for m in masks:
        for b in basis:
            m = min(m, m ^ b)
        if m:
            basis.append(m)
            basis.sort(reverse=True)
            rank += 1
    return rank


def invariant_form(alg, i: int, j: int) -> int:
    """<h_i,h_j> = 2 (alpha_i-vee, alpha_j-vee); <e_a,e_-a> = (a-vee,a-vee)."""
    r = alg.rank
    if i < r and j < r:
        return 2 * alg.rs.form_gram[i][j]
    if i >= r and j >= r:
        a, b = alg.roots[i - r], alg.roots[j - r]
        if all(x + y == 0 for x, y in zip(a, b)):
            cr = alg.rs.coroot_of[a]
            return coroot_dot(alg.rs, cr, cr)
    return 0


# ------------------------------------------- the tuple routes of the roots

def bourbaki_cn(n: int):
    """Bourbaki's (cartan, coroot_norms) for Cn, the branch of
    `rootsys._cartan_data` that Bn's dual replaced: alpha_n is the long
    root, so its coroot is the short one."""
    a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
         for i in range(n)]
    a[n - 1][n - 2] = -2
    return a, [4] * (n - 1) + [2]


def tuple_closure(cartan, coroot_norms):
    """{root: (coroot, coroot norm)} by reflecting tuples, with every
    pairing summed from the Cartan matrix and every norm from the form."""
    r = len(cartan)
    a = cartan
    gram = [[a[j][i] * coroot_norms[j] // 2 for j in range(r)]
            for i in range(r)]
    simple = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
    pairs = {s: s for s in simple}
    frontier = list(simple)
    while frontier:
        nxt = []
        for root in frontier:
            cr = pairs[root]
            for i in range(r):
                n = sum(root[k] * a[k][i] for k in range(r))
                new_root = tuple(v - (n if k == i else 0)
                                 for k, v in enumerate(root))
                m = sum(cr[k] * a[i][k] for k in range(r))
                new_cr = tuple(v - (m if k == i else 0)
                               for k, v in enumerate(cr))
                if new_root not in pairs:
                    pairs[new_root] = new_cr
                    nxt.append(new_root)
                else:
                    assert pairs[new_root] == new_cr, (root, i)
        frontier = nxt
    return {root: (cr, sum(cr[i] * gram[i][j] * cr[j] for i in range(r)
                           for j in range(r)))
            for root, cr in pairs.items()}


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vec_neg(a):
    return tuple(-x for x in a)


class TupleConstants:
    """N(a, b) for root tuples by the extraspecial-pair recursion, keyed
    by tuples, with `Fraction` arithmetic and norms from `coroot_dot`."""

    def __init__(self, rs):
        self.rs = rs
        self.root_set = set(rs.roots)
        self.cache = {}
        positives = [a for a in rs.roots if sum(a) > 0]
        self.extraspecial = {}
        for gamma in positives:
            if sum(gamma) == 1:
                continue
            self.extraspecial[gamma] = next(
                (a, _vec_sub(gamma, a)) for a in positives
                if sum(a) < sum(gamma) and _vec_sub(gamma, a) in self.root_set)

    def norm(self, a):
        cr = self.rs.coroot_of[a]
        return coroot_dot(self.rs, cr, cr)

    def string_p(self, a, b) -> int:
        p, cur = 0, _vec_sub(b, a)
        while cur in self.root_set:
            p, cur = p + 1, _vec_sub(cur, a)
        return p

    def n(self, a, b) -> int:
        s = _vec_add(a, b)
        assert any(s), "a + b = 0"
        if s not in self.root_set:
            return 0
        if (a, b) not in self.cache:
            self.cache[a, b] = self._compute(a, b, s)
        return self.cache[a, b]

    def _compute(self, a, b, s) -> int:
        n, neg = self.n, _vec_neg
        ha, hb = sum(a), sum(b)
        if ha < 0 and hb < 0:
            return -n(neg(a), neg(b))
        if ha < 0 < hb:
            return -n(b, a)
        if ha > 0 > hb:
            if sum(s) < 0:
                return -n(neg(a), neg(b))
            val = n(b, neg(s)) * Fraction(self.norm(a), self.norm(s))
            assert val.denominator == 1
            return int(val)
        if (ha, a) > (hb, b):
            return -n(b, a)
        a1, b1 = self.extraspecial[s]
        if (a, b) == (a1, b1):
            return self.string_p(a1, b1) + 1
        t1 = t2 = 0
        if _vec_sub(a, a1) in self.root_set:
            t1 = n(neg(a1), a) * n(_vec_sub(a, a1), b)
        if _vec_sub(b, a1) in self.root_set:
            t2 = n(b, neg(a1)) * n(_vec_sub(b, a1), a)
        val = Fraction(-(t1 + t2), n(s, neg(a1)))
        assert val.denominator == 1
        return int(val)


def dict_bracket(alg, x: dict, y: dict) -> dict:
    """Bracket of elements given as {basis index: coefficient}: the
    dict-by-dict bracket that the basis products replaced."""
    out = {}

    def add(idx, c):
        if c:
            out[idx] = out.get(idx, 0) + c
            if not out[idx]:
                del out[idx]

    r, key, pos = alg.rank, alg.key, alg._pos
    for i, ci in x.items():
        for j, cj in y.items():
            c = ci * cj
            if i < r and j < r:
                continue
            if i < r:
                add(j, c * alg._pairings[j - r][i])
            elif j < r:
                add(i, -c * alg._pairings[i - r][j])
            else:
                a, b = i - r, j - r
                s = pos.get(key[a] + key[b])
                if s is not None:
                    add(r + s, c * alg.structure_constant(a, b))
                elif alg.neg[a] == b:
                    for k, ck in enumerate(alg._coroots[a]):
                        add(k, c * ck)
    return out


def ad_rows(alg, x):
    """Rows of ad(x) as dense integer lists (row index = output basis)."""
    rows = [[0] * alg.dim for _ in range(alg.dim)]
    for j in range(alg.dim):
        for i, c in dict_bracket(alg, x, {j: 1}).items():
            rows[i][j] = c
    return rows


def dense_centralizer_dim(alg, x) -> int:
    """dim g - rank ad(x), the rank taken on the dense rows of ad(x)."""
    return alg.dim - integer_rank(sparse_rows(ad_rows(alg, x)))


def natural_so_matrix(m, eps_pairs):
    """Sum of root vectors of so(2m) w.r.t. the antidiagonal form, the
    natural-representation route that the weighted Dynkin diagram
    replaced as the class check of the D witness.

    eps_pairs lists roots as pairs of 1-based indices: (i, -j) is
    e_i - e_j and (i, j) is e_i + e_j.
    """
    n = 2 * m
    mat = [[0] * n for _ in range(n)]

    def emb(r, c, val):
        mat[r - 1][c - 1] += val
        mat[n - c][n - r] -= val

    for (i, j) in eps_pairs:
        if j < 0:
            emb(i, -j, 1)          # E_{i,j} - E_{2m+1-j,2m+1-i}
        else:
            emb(i, n + 1 - j, 1)   # E_{i,2m+1-j} - E_{j,2m+1-i}
    return mat


def jordan_type(mat):
    """Jordan block sizes of a nilpotent integer matrix, largest first,
    from the ranks of its powers."""
    n = len(mat)
    ranks = [n]
    power = [row[:] for row in mat]
    while True:
        r = integer_rank(sparse_rows(power))
        ranks.append(r)
        if r == 0:
            break
        power = mat_mul(power, mat)
    # number of Jordan blocks of size >= k is rank(A^{k-1}) - rank(A^k)
    blocks = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    out = []
    for k in range(len(blocks), 0, -1):
        exactly = blocks[k - 1] - (blocks[k] if k < len(blocks) else 0)
        out.extend([k] * exactly)
    return tuple(sorted(out, reverse=True))


def orthogonal_quadruples(rs):
    """Every quadruple of pairwise orthogonal positive roots.

    Roots are ranked by (height, coordinates); each quadruple comes with
    its ranks increasing, and the quadruples in lexicographic rank order.
    """
    pos, cop = rs.positive_roots, rs.copairing_of

    def orth(a, b):
        # <a, b-vee> = sum_k a_k <alpha_k, b-vee>, zero iff (a, b) is
        return not sum(map(operator.mul, a, cop[b]))

    n = len(pos)
    for i in range(n):
        for j in range(i + 1, n):
            if not orth(pos[i], pos[j]):
                continue
            for k in range(j + 1, n):
                if not (orth(pos[i], pos[k]) and orth(pos[j], pos[k])):
                    continue
                for l in range(k + 1, n):
                    quad = (pos[i], pos[j], pos[k], pos[l])
                    if all(orth(quad[t], quad[3]) for t in range(3)):
                        yield quad


def quadruples_by_gram(rs) -> list:
    """Every quadruple of pairwise orthogonal positive roots, each pair
    tested by `coroot_dot` on its coroots, in `orthogonal_quadruples`'s
    order."""
    pos = rs.positive_roots
    orth = {(a, b) for a, b in itertools.combinations(pos, 2)
            if coroot_dot(rs, rs.coroot_of[a], rs.coroot_of[b]) == 0}
    return [quad for quad in itertools.combinations(pos, 4)
            if all(pair in orth for pair in itertools.combinations(quad, 2))]


def quadruple_dim_survey(alg, limit: int):
    """Centralizer dims of the first `limit` orthogonal quadruples of
    positive roots, as a sorted dict dim -> count."""
    seen = {}
    for quad in itertools.islice(orthogonal_quadruples(alg.rs), limit):
        dim = alg.centralizer_dim({alg.index[a]: 1 for a in quad})
        seen[dim] = seen.get(dim, 0) + 1
    return dict(sorted(seen.items()))


# ------------------------------------------- Gaussian integers as pairs

def gauss_mul(x, y):
    """The product of Gaussian integers given as (re, im) int pairs."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gauss_sum(zs):
    """The sum of Gaussian integers given as (re, im) int pairs."""
    re = im = 0
    for z in zs:
        re += z[0]
        im += z[1]
    return re, im


def gauss_conj(z):
    return z[0], -z[1]


def i_power(k: int):
    """i^k for k >= 0, by k multiplications of 1 by i."""
    z = (1, 0)
    for _ in range(k):
        z = gauss_mul(z, (0, 1))
    return z


class InducedIrrep(NamedTuple):
    """An odd irrep as the data it is induced from: the echelon form
    `m_pivots` of the Lagrangian's preimage (radical plus greedy
    Lagrangian), the coset representatives `transversal` it leaves, and
    the character `m_character` of the preimage, mapping an element to
    the k of its value i^k."""

    group: object
    transversal: tuple
    m_pivots: dict
    m_character: dict


def induced_irreps(tg, order=None) -> list:
    """The odd irreps of `tg` as `InducedIrrep`s, in the order of
    `twogroup.odd_irreps`, one per central character; the greedy
    Lagrangian is taken in `order`, lexicographic by default as there."""
    r, s = tg.r, len(tg.radical_basis)
    if order is None:
        order = range(1, 1 << r)
    pivots = gf2_echelon(tg.radical_basis + _greedy_lagrangian(tg, order))
    transversal = tuple(sorted({_reduce_by(pivots, x)
                                for x in range(1 << r)}))
    lag_gens = sorted(pivots.values(), reverse=True)
    out = []
    for mask in range(1 << s):
        central = _extend_character(tg, {0: 0, 1 << r: 2}, tg.radical_basis,
                                    [(mask >> i) & 1 for i in range(s)])
        out.append(InducedIrrep(tg, transversal, pivots,
                                _extend_character(tg, central, lag_gens)))
    return out


def _reduce_by(pivots, bits):
    """The coset representative of bits with every pivot column cleared,
    the route the pivot-mask transversal of `twogroup.odd_irreps`
    replaced."""
    for c, row in pivots.items():
        if (bits >> c) & 1:
            bits ^= row
    return bits


def inverse(tg, x: int) -> int:
    """x^-1 in the two-group `tg`, for the conjugations t m t^-1 that the
    commutator law replaced: x * x = q(bits) is central of order at most
    2, so x^-1 is x with its sign flipped where q(bits) = -1."""
    return x ^ (tg.q(x & ((1 << tg.r) - 1)) == -1) << tg.r


def irrep_matrix(ir, el: int):
    """The matrix of the `InducedIrrep` `ir` at the int element `el`, on
    its coset basis, with (re, im) pair entries."""
    tg = ir.group
    n = len(ir.transversal)
    out = [[(0, 0)] * n for _ in range(n)]
    for v, rep in enumerate(ir.transversal):
        moved = tg.mul(el, rep)
        u_rep = _reduce_by(ir.m_pivots, moved & ((1 << tg.r) - 1))
        m = tg.mul(inverse(tg, u_rep), moved)
        out[ir.transversal.index(u_rep)][v] = i_power(ir.m_character[m])
    return out


def pair(rs, root, coroot):
    """<root, coroot>, summed over the Cartan matrix."""
    a, r = rs.cartan, rs.rank
    return sum(root[i] * a[i][j] * coroot[j] for i in range(r)
               for j in range(r))


def coroot_dot(rs, v, w) -> int:
    """(v, w) for coroot-lattice vectors, summed over the Gram matrix: the
    route that the orthogonality test on copairings replaced."""
    g, r = rs.form_gram, rs.rank
    return sum(v[i] * g[i][j] * w[j] for i in range(r) for j in range(r))


def coxeter_number(rs) -> int:
    """h = 1 + the height of the highest root."""
    theta = rs.highest_root()[0]
    return 1 + sum(theta)


def two_rho_coroot(rs) -> tuple:
    """2 rho-vee, the sum of the positive coroots, in the simple-coroot
    basis: the start of the alcove walk, of which `_fold_half_rho_vee`
    keeps only the pairings."""
    return tuple(map(sum, zip(*(rs.coroot_of[t] for t in rs.positive_roots))))


def fraction_fold(rs):
    """Reduce (1/2) rho-vee into the closed fundamental alcove, exactly:
    (x, the number of reflections made), within a cap of 100000 passes."""
    r = rs.rank
    two_rho_vee = two_rho_coroot(rs)
    x = [Fraction(c, 4) for c in two_rho_vee]  # (1/2) * (2 rho-vee) / 2
    theta, theta_vee = rs.highest_root()
    for moves in range(100000):
        for i in range(r):
            v = sum(x[j] * rs.cartan[i][j] for j in range(r))
            if v < 0:
                x[i] -= v  # s_i: x -> x - <alpha_i, x> alpha_i-vee
                break
        else:
            t = pair(rs, theta, x)
            if t <= 1:
                return x, moves
            for k in range(r):
                x[k] -= (t - 1) * theta_vee[k]
    raise RuntimeError(f"{rs.label}: the fraction fold did not terminate")


def longest_element_matrix(rs):
    """w0 as a matrix on root coordinates (greedy descent from 2 rho)."""
    r = rs.rank
    a = rs.cartan
    x = list(map(sum, zip(*rs.positive_roots)))  # 2 rho
    mat = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    while True:
        for i in range(r):
            n = sum(x[k] * a[k][i] for k in range(r))
            if n > 0:
                x[i] -= n
                # mat <- S_i . mat with S_i v = v - <v, alpha_i-vee> e_i
                mat[i] = [mat[i][c] - sum(a[k][i] * mat[k][c] for k in range(r))
                          for c in range(r)]
                break
        else:
            return mat


def tuple_simple_system(positive_members):
    """Members of a positive subsystem that are not sums of two members,
    by one tuple difference per pair."""
    pos = set(positive_members)
    out = []
    for a in sorted(pos, key=lambda t: (sum(t), t)):
        decomposable = any(
            tuple(av - bv for av, bv in zip(a, b)) in pos for b in pos if b != a)
        if not decomposable:
            out.append(a)
    return tuple(out)


def scan_integer_rank(rows) -> int:
    """integer_rank with the pivot of each column found by scanning
    every remaining row."""
    work = [row for row in rows if row]
    columns = sorted(set().union(*work))
    rank = 0
    for col in columns:
        best = None
        for idx, row in enumerate(work):
            v = row.get(col)
            if v:
                key = (len(row), abs(v), idx)
                if best is None or key < best[0]:
                    best = (key, idx)
        if best is None:
            continue
        pidx = best[1]
        pivot = work.pop(pidx)
        pv = pivot[col]
        rank += 1
        touched = []
        for row in work:
            f = row.get(col)
            if not f:
                touched.append(row)
                continue
            new = {}
            for k in row.keys() | pivot.keys():
                val = pv * row.get(k, 0) - f * pivot.get(k, 0)
                if val:
                    new[k] = val
            if new:
                _gcd_reduce(new)
                touched.append(new)
        work = touched
        if not work:
            break
    return rank


def cycle_type(a):
    """Sorted cycle lengths of the permutation tuple a."""
    seen = [False] * len(a)
    cycles = []
    for i in range(len(a)):
        if seen[i]:
            continue
        n, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            n += 1
        cycles.append(n)
    return tuple(sorted(cycles))


S4_GENS = [(1, 0, 2, 3), (1, 2, 3, 0)]


# ------------------------------------------- groups by matrix products

def matrix_inv(rep, a):
    """The canonical form of the inverse of a flattened rep.n x rep.n
    matrix over F_rep.p; ValueError if it is singular."""
    n, p = rep.n, rep.p
    aug = [[a[i * n + j] for j in range(n)]
           + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] % p), None)
        if piv is None:
            raise ValueError("matrix not invertible")
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = pow(aug[col][col], p - 2, p)
        aug[col] = [x * scale % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p
                          for x, y in zip(aug[r], aug[col])]
    return rep.canon(tuple(aug[i][n + j]
                           for i in range(n) for j in range(n)))


def matrix_mul(rep, a, b):
    """The canonical form of the product a b of flattened rep.n x rep.n
    matrices over F_rep.p."""
    n, p = rep.n, rep.p
    out = [0] * (n * n)
    for i in range(n):
        base = i * n
        for k in range(n):
            aik = a[base + k]
            if aik:
                kb = k * n
                for j in range(n):
                    out[base + j] += aik * b[kb + j]
    return rep.canon(tuple(x % p for x in out))


def dense_permutations(rep, matrices) -> list:
    """`MatrixRep.permutations` of invertible matrices with each image
    x m summed over every row of m, the dense product that the sum over
    the support of x replaced; the walk is the same breadth-first one, so
    the point ids are too."""
    n, p = rep.n, rep.p
    points, where = [], {}

    def point_id(y):
        y = rep.canon(y)
        if y not in where:
            where[y] = len(points)
            points.append(y)
        return where[y]

    for i in range(n):
        point_id(tuple(int(i == j) for j in range(n)))
    if rep.scalars:
        point_id((1,) * n)
    images = [bytearray() for _ in matrices]
    for x in points:
        for m, img in zip(matrices, images):
            img.append(point_id(tuple(
                sum(x[k] * m[k * n + j] for k in range(n)) % p
                for j in range(n))))
    return [bytes(img) for img in images]


class MatrixGroup:
    """The group that matrix generators close to, with canonical matrices
    as elements and every product a matrix product: the independent route
    for FiniteGroup, which works on permutations of the frame orbit.
    Closure, classes, labels and subgroup orders follow the same rules.
    The oracle is for small groups: its closure stops at MAX_ELEMENTS."""

    MAX_ELEMENTS = 10 ** 5

    def __init__(self, rep, generators):
        self.rep = rep
        n = rep.n
        self.identity = rep.canon(tuple(int(i == j) for i in range(n)
                                        for j in range(n)))
        self.generators = [rep.canon(tuple(g)) for g in generators]
        self.elements = [self.identity]
        seen = {self.identity}
        for g in self.elements:
            for s in self.generators:
                h = self.mul(g, s)
                if h not in seen:
                    assert len(seen) < self.MAX_ELEMENTS, "over the bound"
                    seen.add(h)
                    self.elements.append(h)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.order = len(self.elements)
        self.center = [g for g in self.elements
                       if all(self.mul(g, s) == self.mul(s, g)
                              for s in self.generators)]
        self.classes = self._conjugacy_classes()
        self.class_of = {g: ci for ci, cls in enumerate(self.classes)
                         for g in cls.members}
        for cls in self.classes:
            cent = sum(1 for x in self.elements
                       if self.mul(x, cls.rep) == self.mul(cls.rep, x))
            assert cls.size * cent == self.order, cls.label

    def mul(self, a, b):
        return matrix_mul(self.rep, a, b)

    def inv(self, a):
        return matrix_inv(self.rep, a)

    def element_order(self, g) -> int:
        n, acc = 1, g
        while acc != self.identity:
            acc = self.mul(acc, g)
            n += 1
        return n

    def _conjugacy_classes(self):
        assigned = set()
        classes = []
        gen_invs = [(s, self.inv(s)) for s in self.generators]
        per_order = {}
        for g in self.elements:
            if g in assigned:
                continue
            orbit = {g}
            frontier = [g]
            while frontier:
                new = []
                for x in frontier:
                    for s, sinv in gen_invs:
                        y = self.mul(s, self.mul(x, sinv))
                        if y not in orbit:
                            orbit.add(y)
                            new.append(y)
                frontier = new
            assigned |= orbit
            members = tuple(sorted(orbit, key=self.index.__getitem__))
            o = self.element_order(g)
            per_order[o] = per_order.get(o, 0) + 1
            label = f"{o}{chr(ord('A') + per_order[o] - 1)}"
            classes.append(ConjClass(label, members, len(members)))
        return classes

    def class_by_label(self, label: str) -> ConjClass:
        return next(c for c in self.classes if c.label == label)

    def subgroup_generated(self, a, b) -> int:
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            new = []
            for g in frontier:
                for s in (a, b):
                    h = self.mul(g, s)
                    if h not in seen:
                        seen.add(h)
                        new.append(h)
            frontier = new
        return len(seen)


def matrix_triple_count(group: MatrixGroup, c0, c1, cinf) -> dict:
    """triple_count by matrix products: g_inf = (g0 g1)^-1 for each g1."""
    g0 = c0.rep
    target = group.class_of[cinf.rep]
    hits = [g1 for g1 in c1.members
            if group.class_of[group.inv(group.mul(g0, g1))] == target]
    solution_count = c0.size * len(hits)
    gen_flags = [group.subgroup_generated(g0, g1) == group.order
                 for g1 in hits]
    return _triple_dict(group, (c0, c1, cinf), solution_count, gen_flags)


def centralizer_by_scan(group, g) -> list:
    """C(g) by one commute test per element, in element order: the scan
    that `FiniteGroup._centralizers` ran for every class before it built
    each centralizer from Schreier generators."""
    return [x for x in group.elements
            if group.mul(x, g) == group.mul(g, x)]


def per_solution_triple_count(group, c0, c1, cinf, g0=None,
                              note: str = "") -> dict:
    """triple_count on a FiniteGroup with one `subgroup_generated` closure
    for every solution at g0, not one per centralizer orbit."""
    if g0 is None:
        g0 = c0.rep
    target = group.class_of[group.inv(cinf.rep)]
    hits = [g1 for g1 in c1.members
            if group.class_of[group.mul(g0, g1)] == target]
    solution_count = c0.size * len(hits)
    gen_flags = [group.subgroup_generated(g0, g1) == group.order
                 for g1 in hits]
    return _triple_dict(group, (c0, c1, cinf), solution_count, gen_flags,
                        note)


def _triple_dict(group, classes, solution_count: int, gen_flags,
                 note: str = "") -> dict:
    """The `rigid` triple dict, normalized through `Fraction`."""
    normalized = Fraction(solution_count * len(group.center), group.order)
    all_generate = bool(gen_flags) and all(gen_flags)
    return {
        "group_order": group.order,
        "center_order": len(group.center),
        "classes": [c.label for c in classes],
        "class_sizes": [c.size for c in classes],
        "solution_count": solution_count,
        "normalized_count": [normalized.numerator, normalized.denominator],
        "generates": any(gen_flags),
        "all_generate": all_generate,
        "strictly_rigid": normalized == 1 and all_generate,
        "note": note,
    }


def matrix_pgl2(ell: int) -> MatrixGroup:
    """PGL2(F_ell) as matrices mod F_ell^x, on pgl2_group's generators."""
    nu = least_primitive_root(ell)
    return MatrixGroup(MatrixRep(ell, 2, scalars=range(1, ell)),
                       [(1, 1, 0, 1), (0, ell - 1, 1, 0), (nu, 0, 0, 1)])


def matrix_psl2(ell: int) -> MatrixGroup:
    """PSL2(F_ell) as SL2(F_ell) matrices mod +-1, not inside PGL2."""
    return MatrixGroup(MatrixRep(ell, 2, scalars=(1, ell - 1)),
                       [(1, 1, 0, 1), (0, ell - 1, 1, 0)])


def lex_least_multiple(m, scalars, p: int):
    """The least of the multiples s*m mod p over all s in scalars."""
    return min(tuple(s * x % p for x in m) for s in scalars)


def projective_invariant(rep, a):
    """A conjugation invariant of a MatrixRep element that is also stable
    under the projective scaling: the trace, or tr^2/det for 2x2."""
    n, p = rep.n, rep.p
    tr = sum(a[i * n + i] for i in range(n)) % p
    if not rep.scalars:
        return (tr,)
    if n == 2:
        det = (a[0] * a[3] - a[1] * a[2]) % p
        return (tr * tr * pow(det, p - 2, p) % p,)
    return ()


# ----------------------------------------------- two-group forms, per call

def form_rows(tg):
    """Mod-2 Gram rows and upper-triangular cocycle rows of tg, as masks."""
    g, r = tg.rs.form_gram, tg.r
    gram_rows, cocycle_rows = [], []
    for i in range(r):
        gm = cm = 0
        for j in range(r):
            if g[i][j] % 2:
                gm |= 1 << j
            if j > i and g[i][j] % 2:
                cm |= 1 << j
        if (g[i][i] // 2) % 2:
            cm |= 1 << i
        gram_rows.append(gm)
        cocycle_rows.append(cm)
    return gram_rows, cocycle_rows


def _popcount_parity(x: int) -> int:
    return bin(x).count("1") & 1


def _row_form(rows, a: int, b: int) -> int:
    acc = 0
    for i, row in enumerate(rows):
        if (a >> i) & 1:
            acc ^= _popcount_parity(row & b)
    return acc


def loop_pairing(tg, a: int, b: int) -> int:
    """(a, b) mod 2, one Gram row at a time."""
    return _row_form(form_rows(tg)[0], a, b)


def loop_beta(tg, a: int, b: int) -> int:
    """The cocycle beta(a, b), one cocycle row at a time."""
    return _row_form(form_rows(tg)[1], a, b)


def loop_norm(tg, a: int) -> int:
    """(a, a), the double sum over the bits of a."""
    g, r = tg.rs.form_gram, tg.r
    return sum(g[i][j] for i in range(r) for j in range(r)
               if (a >> i) & 1 and (a >> j) & 1)


def loop_q(tg, a: int) -> int:
    """(-1)^((a,a)/2) from `loop_norm`."""
    norm = loop_norm(tg, a)
    assert norm % 2 == 0, (a, norm)
    return -1 if (norm // 2) % 2 else 1


def loop_mul(tg, x: int, y: int) -> int:
    """The product of int elements with the cocycle from `loop_beta`."""
    bits = (1 << tg.r) - 1
    return x ^ y ^ loop_beta(tg, x & bits, y & bits) << tg.r


def law_failures(tg, pairs) -> list:
    """The pairs (a, b) at which a group law fails, replayed one pair at a
    time through tg.mul and `inverse`, the route the row check replaced:
    (+, a) must square to q(a), and the commutator of (+, a) and (+, b)
    must be (-1)^(a, b), both read from the per-call loops."""
    minus = 1 << tg.r
    bad = []
    for a, b in pairs:
        square = tg.mul(a, a)
        comm = tg.mul(tg.mul(a, b), tg.mul(inverse(tg, a), inverse(tg, b)))
        if (square != (minus if loop_q(tg, a) == -1 else 0)
                or comm != (minus if loop_pairing(tg, a, b) else 0)):
            bad.append((a, b))
    return bad


def odd_sets(r: int) -> list:
    """For each r-bit mask m, the set {b < 2^r : m.b odd} as a 2^r-bit int
    (bit b set), grown from m with its top bit j removed by XOR with
    B_j = {b : bit j of b is 1}: the bitslice layout in which the
    commutator law of a row was one big-int compare."""
    n = 1 << r
    basis = [sum(1 << b for b in range(n) if (b >> j) & 1) for j in range(r)]
    out = [0] * n
    for m in range(1, n):
        j = m.bit_length() - 1
        out[m] = out[m ^ (1 << j)] ^ basis[j]
    return out


def echelonize(vectors):
    """Reduced echelon basis over F2, rows sorted by descending top bit."""
    basis = []
    for v in vectors:
        for b in basis:
            if v and b.bit_length() == v.bit_length():
                v ^= b
        if v:
            basis.append(v)
            basis.sort(key=lambda x: -x)
    # reduce upwards so each leading bit appears in one row only
    for i, b in enumerate(basis):
        for j in range(i):
            if basis[j] & (1 << (b.bit_length() - 1)):
                basis[j] ^= b
    return tuple(sorted(basis, key=lambda x: -x))
