"""The finite 2-group covering the 2-torsion of the dual torus.

A = coroot lattice mod 2 carries the quadratic refinement
q(a) = (-1)^((a,a)/2) of the mod-2 invariant form; the group here is the
central extension of A by {+-1} whose squares realize q and whose
commutators realize the pairing.  An element is an int
x = bits | sign_bit << r, with bits an r-bit mask over the simple-coroot
basis and sign_bit set for the central -1.

The extension is realized by the upper-triangular cocycle
beta(e_i, e_j) = (e_i, e_j) mod 2 for i < j, (e_i, e_i)/2 on the diagonal,
and 0 below: x * y is x ^ y with the sign bit flipped by beta(x, y).

Both forms are tabulated once per group: for each class a, the masks of
(a, -) mod 2, of beta(a, -) and of beta(-, a), and the integer norm
(a, a), so pairing, cocycle and q are a lookup and a popcount.  Both
defining laws are checked on build for every pair, one row at a time:
the commutator law for a is one r-bit mask compare of its beta row, its
transposed beta row and its pairing row, since the map from a mask m to
the set {b : m.b odd} is linear and one-to-one over F_2.

The odd irreps are induced from the preimage of a Lagrangian: the masks
that set no pivot column of its reduced echelon form from
`linalg.gf2_echelon` represent the cosets, and the checked commutator
law conjugates, t m t^-1 = (-1)^(t, m) m.  Characters of abelian
subgroups are kept as exponents k of i^k; each odd irrep is its
character, tabulated once as int lists (re, im) indexed by the element,
read from `arith.UNIT_RE` and `arith.UNIT_IM`, so its degree is re[0].
"""

from __future__ import annotations

from operator import mul

from .arith import UNIT_IM, UNIT_RE
from .linalg import gf2_echelon, gf2_nullspace, smith_normal_form
from .obs import check, memo
from .rootsys import RootSystem, require_covered, root_system


class TildeGroup:
    def __init__(self, rs: RootSystem):
        require_covered(rs)   # A, D, E or G, with -1 in the Weyl group
        rank = rs.rank
        self.rs = rs
        self.r = rank
        g = rs.form_gram
        # (a, a) is the sum of g_ii over the bits i of a, mod 2
        check("even-norm", not any(g[i][i] % 2 for i in range(rank)),
              "{}: odd norm on the Gram diagonal", rs.label)
        # row i of the Gram form mod 2 and of the cocycle, as masks, and
        # column i of the cocycle: the j with beta(e_j, e_i) = 1
        gram_rows = [sum(1 << j for j in range(rank) if g[i][j] % 2)
                     for i in range(rank)]
        cocycle_rows = [(row >> (i + 1) << (i + 1)) | ((g[i][i] // 2) % 2) << i
                        for i, row in enumerate(gram_rows)]
        cocycle_cols = [sum(1 << j for j in range(rank)
                            if (cocycle_rows[j] >> i) & 1)
                        for i in range(rank)]
        # per class a: the masks a^T G mod 2, a^T U and U a, and the norm
        # (a, a), each grown from a with its top bit i removed
        n = 1 << rank
        self._pair_mask = [0] * n
        self._cocycle_mask = [0] * n
        self._cocycle_t_mask = [0] * n
        self._norm = [0] * n
        for a in range(1, n):
            i = a.bit_length() - 1
            rest = a ^ (1 << i)
            self._pair_mask[a] = self._pair_mask[rest] ^ gram_rows[i]
            self._cocycle_mask[a] = self._cocycle_mask[rest] ^ cocycle_rows[i]
            self._cocycle_t_mask[a] = (self._cocycle_t_mask[rest]
                                       ^ cocycle_cols[i])
            self._norm[a] = self._norm[rest] + g[i][i] + 2 * sum(
                g[i][j] for j in range(i) if (rest >> j) & 1)
        self._bits = n - 1
        self.radical_basis = gf2_nullspace(gram_rows, rank)
        self._check_laws()

    # ------------------------------------------------------------ algebra --

    def pairing(self, a: int, b: int) -> int:
        """(a, b) mod 2."""
        return (self._pair_mask[a] & b).bit_count() & 1

    def _beta(self, a: int, b: int) -> int:
        return (self._cocycle_mask[a] & b).bit_count() & 1

    def q(self, a: int) -> int:
        """(-1)^((a,a)/2) on lattice classes."""
        return -1 if self._norm[a] % 4 else 1

    def mul(self, x: int, y: int) -> int:
        # the cocycle mask has r bits, so the sign bit of y never counts
        return x ^ y ^ ((self._cocycle_mask[x & self._bits] & y).bit_count()
                        & 1) << self.r

    @property
    def order(self) -> int:
        return 1 << (self.r + 1)

    def _check_laws(self) -> None:
        """Both laws for every pair (a, b), one row of 2^r pairs (a, b) per
        run of each check, the pairs the commutator rows covered counted
        in `pairs_checked`.  With beta bilinear, the square of (+, a) is
        beta(a, a) and the commutator of (+, a) and (+, b) is
        beta(a, b) + beta(b, a)."""
        n = 1 << self.r
        self.pairs_checked = 0
        for a in range(n):
            check("square-law", self._beta(a, a) == (self._norm[a] >> 1) & 1,
                  "square law broken by the cocycle at class {:#b}", a)
            check("commutator-law", self._cocycle_mask[a]
                  ^ self._cocycle_t_mask[a] == self._pair_mask[a],
                  "commutator law broken in row {:#b}", a)
            self.pairs_checked += n

    # ------------------------------------------------------------ radical --

    def radical_size_crosscheck(self) -> int:
        """#A0 two ways: pairing kernel and Cartan 2-torsion; must agree."""
        from_kernel = 1 << len(self.radical_basis)
        factors = smith_normal_form([row[:] for row in self.rs.cartan])
        from_snf = 1 << sum(1 for d in factors if d % 2 == 0)
        check("radical-size", from_kernel == from_snf,
              "radical size {} != Cartan 2-torsion {}", from_kernel, from_snf)
        return from_kernel

    def radical_elements(self):
        return sorted(_span(self.radical_basis))

    def center_structure(self):
        """Invariant factors of the center (preimage of the radical)."""
        a0 = self.radical_elements()
        s = len(self.radical_basis)
        order_two = 2 * sum(1 for a in a0 if self.q(a) == 1)
        # abelian 2-group of order 2^(s+1) with n2 = 2^(k+m) elements of
        # order <= 2, where the group is mu2^k x mu4^m
        k_plus_m = order_two.bit_length() - 1
        m = s + 1 - k_plus_m
        k = k_plus_m - m
        factors = (2,) * k + (4,) * m
        label_parts = []
        if k:
            label_parts.append("mu2" if k == 1 else f"mu2^{k}")
        if m:
            label_parts.append("mu4" if m == 1 else f"mu4^{m}")
        return factors, " x ".join(label_parts)


@memo
def build_tilde_group(rs: RootSystem) -> TildeGroup:
    return TildeGroup(rs)


@memo
def atilde_result(label: str) -> dict:
    """The `atilde` result for `label`, cached: callers must not change it."""
    tg = build_tilde_group(root_system(label))   # checks both group laws
    factors, name = tg.center_structure()
    irreps = odd_irreps(tg)
    return {"label": tg.rs.label, "order": tg.order,
            "radical_size": tg.radical_size_crosscheck(), "center": name,
            "center_invariant_factors": list(factors),
            "odd_irreps": {"count": len(irreps),
                           "dims": [re[0] for re, _ in irreps]}}


# ------------------------------------------------------------------ irreps --

def _induced_character(tg: TildeGroup, transversal, m_character):
    """chi(x) = sum over t in the transversal of psi(t^-1 x t), with psi
    zero off its subgroup: each t and m add psi(m) at x = t m t^-1,
    which is m with its sign flipped by (t, m)."""
    re, im = [0] * tg.order, [0] * tg.order
    for t in transversal:
        for m, val in m_character.items():
            x = m ^ (tg.pairing(t, m) << tg.r)
            re[x] += UNIT_RE[val]
            im[x] += UNIT_IM[val]
    return re, im


def _span(vectors):
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return out


def _greedy_lagrangian(tg: TildeGroup, order):
    """Maximal isotropic lift: extend the radical by lex-least vectors."""
    m = (tg.r - len(tg.radical_basis)) // 2
    picked = []
    span = _span(tg.radical_basis)
    for v in order:
        if len(picked) == m:
            break
        if v not in span and all(tg.pairing(v, w) == 0 for w in picked):
            picked.append(v)
            span |= {x ^ v for x in span}
    return picked


def _extend_character(tg: TildeGroup, table: dict, generators, choices=None):
    """Grow a character of an abelian subgroup one generator at a time.

    ``table`` maps element -> exponent k of i^k on the current subgroup;
    each new generator g has g*g already inside, so the new value c solves
    c^2 = table[g*g], taking the root i^0 of i^0 and i^1 of i^2;
    ``choices`` optionally selects the other root, which adds 2.
    """
    table = dict(table)
    pick = list(choices) if choices is not None else None
    for g in generators:
        if g in table:
            continue
        sq = table[tg.mul(g, g)]
        root = {0: 0, 2: 1}[sq]
        if pick is not None and pick.pop(0):
            root += 2
        for el, val in list(table.items()):
            table[tg.mul(g, el)] = (root + val) % 4
    return table


def odd_irreps(tg: TildeGroup):
    """All irreducibles where the central -1 acts by -1 (Stone-von Neumann),
    each as its character tables (re, im).

    Each is induced from a character of the preimage of the greedy
    Lagrangian taken in lexicographic order; another order gives the same
    irreps (up to equality of character functions).
    """
    r = tg.r
    s = len(tg.radical_basis)
    m_pivots = gf2_echelon(tg.radical_basis
                           + _greedy_lagrangian(tg, range(1, 1 << r)))

    # central characters: start from the forced value on the central -1
    base = {0: 0, 1 << r: 2}
    central_chars = []
    for mask in range(1 << s):
        flips = [(mask >> i) & 1 for i in range(s)]
        central_chars.append(
            _extend_character(tg, base, tg.radical_basis, flips))

    lag_gens = sorted(m_pivots.values(), reverse=True)
    # reduced echelon: x with its pivot columns cleared represents its coset
    pivot_cols = sum(1 << c for c in m_pivots)
    transversal = tuple(x for x in range(1 << r) if not x & pivot_cols)
    dim = 1 << ((r - s) // 2)
    # each pick lies outside the span so far: 2^(r - s - #picks) cosets,
    # so 2^m of them means the greedy lift found all m = (r - s) / 2
    check("lagrangian-cosets", len(transversal) == dim,
          "{} cosets of the Lagrangian, want {}", len(transversal), dim)

    out = [_induced_character(tg, transversal,
                              _extend_character(tg, chi, lag_gens))
           for chi in central_chars]
    for i, (re_i, im_i) in enumerate(out):
        for j in range(i, len(out)):
            re_j, im_j = out[j]
            # sum of chi_i(g) * conj(chi_j(g)) over the group
            real = sum(map(mul, re_i, re_j)) + sum(map(mul, im_i, im_j))
            imag = sum(map(mul, im_i, re_j)) - sum(map(mul, re_i, im_j))
            check("character-orthogonality",
                  (real, imag) == (tg.order if i == j else 0, 0),
                  "{}: <chi_{}, chi_{}> = {} + {}i", tg.rs.label, i, j,
                  real, imag)
    return out
