"""The finite 2-group covering the 2-torsion of the dual torus.

A = coroot lattice mod 2 carries the quadratic refinement
q(a) = (-1)^((a,a)/2) of the mod-2 invariant form; the group here is the
central extension of A by {+-1} whose squares realize q and whose
commutators realize the pairing.  Elements are (sign, bits) pairs with
bits an r-bit mask over the simple-coroot basis.

The extension is realized by the upper-triangular cocycle
beta(e_i, e_j) = (e_i, e_j) mod 2 for i < j, (e_i, e_i)/2 on the diagonal,
and 0 below; both defining laws are checked exhaustively on build.

Both forms are tabulated once per group: for each class a, the masks of
(a, -) mod 2 and of beta(a, -) and the integer norm (a, a), so pairing,
cocycle and q are a lookup and a popcount.  The odd irreps reduce modulo
a Lagrangian through its reduced echelon form from `linalg.gf2_echelon`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .gaussint import I, ONE, Zi
from .linalg import gf2_echelon, gf2_nullspace, smith_normal_form
from .rootsys import RootSystem


class TildeElement(NamedTuple):
    sign: int  # +1 or -1
    bits: int  # class in Lambda-vee / 2 Lambda-vee


class TildeGroup:
    def __init__(self, rs: RootSystem):
        letter, rank = rs.letter, rs.rank
        supported = (letter in ("A", "G", "E")
                     or (letter == "D" and rank % 2 == 0 and rank >= 4))
        if not supported or not rs.minus_one_in_weyl():
            raise ValueError(
                f"{rs.label}: the two-group construction needs type "
                "A1, D(2n), E7, E8 or G2")
        self.rs = rs
        self.r = rank
        g = rs.form_gram
        # row i of the Gram form mod 2 and of the cocycle, as masks
        gram_rows = [sum(1 << j for j in range(rank) if g[i][j] % 2)
                     for i in range(rank)]
        cocycle_rows = [(row >> (i + 1) << (i + 1)) | ((g[i][i] // 2) % 2) << i
                        for i, row in enumerate(gram_rows)]
        # per class a: the masks a^T G mod 2 and a^T U, and the norm (a, a),
        # each grown from a with its top bit i removed
        n = 1 << rank
        self._pair_mask = [0] * n
        self._cocycle_mask = [0] * n
        self._norm = [0] * n
        for a in range(1, n):
            i = a.bit_length() - 1
            rest = a ^ (1 << i)
            self._pair_mask[a] = self._pair_mask[rest] ^ gram_rows[i]
            self._cocycle_mask[a] = self._cocycle_mask[rest] ^ cocycle_rows[i]
            norm = self._norm[rest] + g[i][i] + 2 * sum(
                g[i][j] for j in range(i) if (rest >> j) & 1)
            if norm % 2:
                raise AssertionError(f"class {a:#b} has odd norm {norm}")
            self._norm[a] = norm
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

    def mul(self, x: TildeElement, y: TildeElement) -> TildeElement:
        sign = x.sign * y.sign * (-1 if self._beta(x.bits, y.bits) else 1)
        return TildeElement(sign, x.bits ^ y.bits)

    def inverse(self, x: TildeElement) -> TildeElement:
        # x * x = (q(bits), 0), so x^{-1} = (q * sign, bits)
        return TildeElement(x.sign * self.q(x.bits), x.bits)

    @property
    def identity(self) -> TildeElement:
        return TildeElement(1, 0)

    def elements(self):
        for bits in range(1 << self.r):
            yield TildeElement(1, bits)
            yield TildeElement(-1, bits)

    @property
    def order(self) -> int:
        return 1 << (self.r + 1)

    def _check_laws(self):
        for a in range(1 << self.r):
            ea = TildeElement(1, a)
            sq = self.mul(ea, ea)
            if sq != TildeElement(self.q(a), 0):
                raise AssertionError("square law broken by the cocycle")
        for a in range(1 << self.r):
            ea = TildeElement(1, a)
            inv_a = self.inverse(ea)
            for b in range(1 << self.r):
                eb = TildeElement(1, b)
                comm = self.mul(self.mul(ea, eb),
                                self.mul(inv_a, self.inverse(eb)))
                want = TildeElement(-1 if self.pairing(a, b) else 1, 0)
                if comm != want:
                    raise AssertionError("commutator law broken")

    # ------------------------------------------------------------ radical --

    def radical_size_crosscheck(self) -> int:
        """#A0 two ways: pairing kernel and Cartan 2-torsion; must agree."""
        from_kernel = 1 << len(self.radical_basis)
        factors = smith_normal_form([row[:] for row in self.rs.cartan])
        from_snf = 1 << sum(1 for d in factors if d % 2 == 0)
        if from_kernel != from_snf:
            raise AssertionError(
                f"radical size {from_kernel} != Cartan 2-torsion {from_snf}")
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


@lru_cache(maxsize=None)
def build_tilde_group(rs: RootSystem) -> TildeGroup:
    return TildeGroup(rs)


# ------------------------------------------------------------------ irreps --

@dataclass
class OddIrrep:
    """Irreducible with central mu2-kernel acting by -1, via a Lagrangian."""

    group: TildeGroup
    central_character: dict
    dimension: int
    transversal: tuple
    _m_pivots: dict
    _m_character: dict

    def _coset_rep(self, bits: int) -> int:
        return _reduce_by(self._m_pivots, bits)

    def character(self, el: TildeElement) -> Zi:
        tg = self.group
        total = Zi(0)
        for v, rep in enumerate(self.transversal):
            moved = tg.mul(el, TildeElement(1, rep))
            if self._coset_rep(moved.bits) == rep:
                m = tg.mul(tg.inverse(TildeElement(1, rep)), moved)
                total = total + self._m_character[m]
        return total


def _span(vectors):
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return out


def _greedy_lagrangian(tg: TildeGroup, order):
    """Maximal isotropic lift: extend the radical by lex-least vectors."""
    r = tg.r
    s = len(tg.radical_basis)
    m = (r - s) // 2
    picked = []
    span = _span(tg.radical_basis)
    for v in order:
        if len(picked) == m:
            break
        if v in span:
            continue
        if all(tg.pairing(v, w) == 0 for w in picked):
            picked.append(v)
            span = _span(tg.radical_basis + picked)
    if len(picked) != m:
        raise AssertionError("maximal isotropic extension not found")
    return picked


def _extend_character(tg: TildeGroup, table: dict, generators, choices=None):
    """Grow a character of an abelian subgroup one generator at a time.

    ``table`` maps TildeElement -> Zi on the current subgroup; each new
    generator g has g*g already inside, so the new value c solves
    c^2 = table[g*g]; ``choices`` optionally selects which square root.
    """
    table = dict(table)
    pick = list(choices) if choices is not None else None
    for g in generators:
        if g in table:
            continue
        sq = table[tg.mul(g, g)]
        root = {ONE: ONE, Zi(-1): I}[sq]
        if pick is not None and pick.pop(0):
            root = -root
        for el, val in list(table.items()):
            table[tg.mul(g, el)] = root * val
    return table


def odd_irreps(tg: TildeGroup, order=None):
    """All irreducibles where the central -1 acts by -1 (Stone-von Neumann).

    ``order`` overrides the vector ordering used for the greedy Lagrangian;
    the default is lexicographic.  The central characters and the output
    irreps do not depend on it (up to equality of character functions).
    """
    r = tg.r
    s = len(tg.radical_basis)
    if order is None:
        order = range(1, 1 << r)
    m_pivots = gf2_echelon(tg.radical_basis + _greedy_lagrangian(tg, order))

    # central characters: start from the forced value on (-1, 0)
    base = {TildeElement(1, 0): ONE, TildeElement(-1, 0): Zi(-1)}
    radical_gens = [TildeElement(1, b) for b in tg.radical_basis]
    central_chars = []
    for mask in range(1 << s):
        flips = [(mask >> i) & 1 for i in range(s)]
        central_chars.append(_extend_character(tg, base, radical_gens, flips))

    lag_gens = [TildeElement(1, b)
                for b in sorted(m_pivots.values(), reverse=True)]
    transversal = tuple(sorted({_reduce_by(m_pivots, x)
                                for x in range(1 << r)}))
    dim = 1 << ((r - s) // 2)
    if len(transversal) != dim:
        raise AssertionError(
            f"{len(transversal)} cosets of the Lagrangian, want {dim}")

    out = []
    for chi in central_chars:
        out.append(OddIrrep(
            group=tg,
            central_character=chi,
            dimension=dim,
            transversal=transversal,
            _m_pivots=m_pivots,
            _m_character=_extend_character(tg, chi, lag_gens),
        ))
    if sum(ir.dimension ** 2 for ir in out) != 1 << r:
        raise AssertionError(f"odd irrep dimensions do not square-sum to 2^{r}")
    return out


def _reduce_by(pivots, bits):
    """The coset representative of bits with every pivot column cleared."""
    for c, row in pivots.items():
        if (bits >> c) & 1:
            bits ^= row
    return bits
