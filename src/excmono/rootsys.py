"""Finite root systems with an exact, coordinate-only representation.

Roots are integer vectors in the simple-root basis and coroots integer
vectors in the simple-coroot basis; the alpha <-> alpha-vee bijection is
carried along explicitly through the reflection closure, so a dual system
is a relabeling, and Cn is Bn's dual.  No ambient Euclidean coordinates
and no floats anywhere.

The closure carries each root's pairings n(b)_i = <b, alpha_i-vee> and
m(b)_i = <alpha_i, b-vee>: s_i moves b by n(b)_i alpha_i and b-vee by
m(b)_i alpha_i-vee, so a new root's n and m are its source's minus a
multiple of row i, resp. column i, of the Cartan matrix, and n(b)_i = 0
(s_i fixes b) forces m(b)_i = 0.  A reflection keeps the form, so a new
coroot's norm is its source's, seeded from the simple coroots' norms.
Only the positive roots are closed: s_i sends alpha_i, and no other
positive root, below zero.  Each negative root -b takes b's data negated
(Bourbaki, Lie Groups and Lie Algebras, ch. VI, 1.6: Phi = Phi+ u -Phi+).

The invariant form lives on the coroot lattice and is normalized so that
short coroots have squared length 2 (long coroots then have 4, or 6 in
type G2).  ``form_gram`` is its Gram matrix in the simple-coroot basis.
"""

from __future__ import annotations

from operator import neg, sub

from .obs import check, clip, memo

# the largest rank admitted, refused in `_parse_label` before any closure:
# `atilde D14` takes 0.3 s and 19 MB, D16 1.2 s and 31 MB, on 2 cores; the
# paper needs no rank above 8, and 14 keeps every label well under a second
MAX_RANK = 14

# Bourbaki-numbered Dynkin edges for the exceptional types.
_E7_EDGES = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)]
_E8_EDGES = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]


class RootSystem:
    """Cartan data plus the full root/coroot closure for one Cartan type.

    Attributes
    ----------
    cartan : r x r integer matrix, ``cartan[i][j] = <alpha_i, alpha_j-vee>``.
    coroot_norms : ``(alpha_i-vee, alpha_i-vee)`` for each simple coroot.
    form_gram : Gram matrix of the invariant form on the coroot lattice.
    roots : all roots, each an integer tuple in the simple-root basis,
        sorted by (height, coordinates).
    coroot_of : dict mapping each root to its coroot (simple-coroot basis).
    pairing_of, copairing_of : dicts mapping each root b to n(b), resp. m(b).
    norm_of : dict mapping each root b to its coroot's norm (b-vee, b-vee).
    """

    def __init__(self, label: str):
        letter, rank = _parse_label(label)
        if letter == "C":   # Bn's dual
            self._relabel(root_system(f"B{rank}"))
            return
        self.letter = letter
        self.rank = rank
        self.label = f"{letter}{rank}"
        self._set_form(*_cartan_data(letter, rank))
        g = self.form_gram
        check("form-symmetric", all(g[i][j] == g[j][i] for i in range(rank)
                                    for j in range(rank)),
              "invariant form failed to symmetrize")
        self._close_roots()

    def _set_form(self, cartan, coroot_norms):
        self.cartan = a = cartan
        self.coroot_norms = d = coroot_norms
        r = len(a)
        # G[i][j] = (alpha_i-vee, alpha_j-vee) = a[j][i] * d[j] / 2
        self.form_gram = [[a[j][i] * d[j] // 2 for j in range(r)]
                          for i in range(r)]

    # ------------------------------------------------------------------

    def _close_roots(self):
        r = self.rank
        a = self.cartan
        cols = [tuple(row[i] for row in a) for i in range(r)]
        simple = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
        self.coroot_of = pairs = {s: s for s in simple}
        self.pairing_of = pairing = {s: tuple(a[i]) for i, s in enumerate(simple)}
        self.copairing_of = copairing = {s: cols[i] for i, s in enumerate(simple)}
        self.norm_of = norm = {s: self.coroot_norms[i] for i, s in enumerate(simple)}
        frontier = list(simple)
        while frontier:
            nxt = []
            for root in frontier:
                cr, nv, mv = pairs[root], pairing[root], copairing[root]
                for i in range(r):
                    # s_i moves root by n alpha_i and its coroot by m alpha_i-vee
                    n, m = nv[i], mv[i]
                    if root == simple[i]:
                        # s_i alpha_i = -alpha_i, with coroot -alpha_i-vee
                        ok = n == m == 2
                    elif n:
                        new_root = root[:i] + (root[i] - n,) + root[i + 1:]
                        new_cr = cr[:i] + (cr[i] - m,) + cr[i + 1:]
                        if new_root in pairs:
                            ok = pairs[new_root] == new_cr
                        else:
                            # s_i keeps every other positive root positive
                            ok = root[i] >= n
                            pairs[new_root] = new_cr
                            pairing[new_root] = tuple(
                                map(sub, nv, map(n.__mul__, a[i])))
                            copairing[new_root] = tuple(
                                map(sub, mv, map(m.__mul__, cols[i])))
                            norm[new_root] = norm[root]
                            nxt.append(new_root)
                    else:
                        # s_i fixes root, so it fixes its coroot
                        ok = m == 0
                    check("root-coroot-closure", ok,
                          "root/coroot closure inconsistent")
            frontier = nxt
        for root in list(pairs):  # -b takes b's data negated
            low = tuple(map(neg, root))
            for data in (pairs, pairing, copairing):
                data[low] = tuple(map(neg, data[root]))
            norm[low] = norm[root]
        self._sort_roots()
        self.simple_roots = simple
        # |Phi| = r h, h = ht(theta) + 1 (Humphreys, Reflection Groups and
        # Coxeter Groups, 3.18), theta the last root by height
        h = sum(self.roots[-1]) + 1
        check("root-count-is-rank-times-coxeter", len(self.roots) == r * h,
              "{}: {} roots, want rank {} times h = {}", self.label,
              len(self.roots), r, h)

    def _relabel(self, rs: "RootSystem"):
        """Fill self in as the dual of rs: see `dual`."""
        self.letter = {"B": "C", "C": "B"}.get(rs.letter, rs.letter)
        self.rank = r = rs.rank
        self.label = f"{self.letter}{r}"
        top = max(rs.coroot_norms)
        self._set_form([[rs.cartan[j][i] for j in range(r)] for i in range(r)],
                       [2 * top // d for d in rs.coroot_norms])
        up = rs.coroot_of
        self.coroot_of = {up[t]: t for t in rs.roots}
        self.pairing_of = {up[t]: m for t, m in rs.copairing_of.items()}
        self.copairing_of = {up[t]: n for t, n in rs.pairing_of.items()}
        self.norm_of = {up[t]: 2 * top // d for t, d in rs.norm_of.items()}
        self._sort_roots()
        self.simple_roots = rs.simple_roots

    def _sort_roots(self):
        self.roots = sorted(self.coroot_of, key=lambda t: (sum(t), t))
        self.positive_roots = [t for t in self.roots if sum(t) > 0]

    # ------------------------------------------------------------------

    @property
    def num_roots(self) -> int:
        return len(self.roots)

    def highest_root(self):
        """Return (theta, theta-vee): every admitted type is irreducible,
        so theta is the one root of greatest height, the last one.

        theta's coordinates are the marks, and theta-vee's the comarks,
        the coefficients c(alpha) in theta-vee = sum c(alpha) alpha-vee.
        """
        return self.roots[-1], self.coroot_of[self.roots[-1]]

    def dual_coxeter_number(self) -> int:
        # <rho, alpha_i-vee> = 1 for every i
        return 1 + sum(self.highest_root()[1])

    def dim_y(self) -> int:
        """2 h-vee - 2: the dimension attached to the quasi-minuscule orbit."""
        return 2 * self.dual_coxeter_number() - 2

    def minus_one_in_weyl(self) -> bool:
        """True iff the longest Weyl element acts as -1 on the root lattice.

        The x with pairings p_k = <x, alpha_k-vee> = k+1 is dominant and
        regular.  The dominant weight in the orbit of -x is -w0 x =
        sigma(x), sigma the diagram symmetry -w0, and the p_k are
        distinct, so w0 = -1 exactly when folding -x gives back x.  -x
        lies across every positive root's wall: the fold takes #Phi+ steps.
        """
        x = list(range(1, self.rank + 1))
        return fold_dominant(self.cartan, [-k for k in x],
                             len(self.positive_roots))[0] == x

    def dual(self) -> "RootSystem":
        """The dual system, with node numbering kept: roots <-> coroots.

        For A/D/E the Cartan matrix is symmetric, so the system is its own
        dual.  Otherwise the closure is relabeled, with no reflection: the
        roots are the coroots, a pairing is a copairing and back, the Cartan
        matrix is transposed and every norm rescaled so that short coroots
        have norm 2.  That gives the standard Cn for Bn and back, and F4
        and G2 again, self-dual only up to reversing the diagram.
        """
        if self.letter in "ADE":
            return self
        out = object.__new__(RootSystem)
        out._relabel(self)
        return out

    def json_dict(self) -> dict:
        return {
            "type": self.label,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "form_gram": [list(row) for row in self.form_gram],
            "roots": [list(t) for t in self.roots],
            "coroots": [list(self.coroot_of[t]) for t in self.roots],
            "num_roots": self.num_roots,
        }


# ---------------------------------------------------------------------------


def _parse_label(label: str):
    s = str(label).strip().upper().replace("_", "")
    letter, digits = s[:1], s[1:].lstrip("0")
    # ASCII digits only: str.isdigit admits '²', which int refuses; no
    # letter has rank 0, so a label without a rank is refused below; one
    # digit more than MAX_RANK has exceeds it, and int refuses 4 300
    rank = (int(digits[:len(str(MAX_RANK)) + 1])
            if digits.isascii() and digits.isdigit() else 0)
    has_rank = {
        "A": rank == 1,
        "B": rank >= 2,
        "C": rank >= 2,
        "D": rank >= 3,
        "E": rank in (7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }
    if letter in has_rank and rank > MAX_RANK:
        raise ValueError(f"{clip(label)}: rank {clip(digits)} is above the "
                         f"bound MAX_RANK = {MAX_RANK}")
    if not has_rank.get(letter):
        raise ValueError(f"unsupported Cartan type {clip(label)!r}")
    return letter, rank


def _chain_cartan(rank, edges):
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    return a


def _cartan_data(letter: str, rank: int):
    """(cartan, coroot_norms) in Bourbaki numbering; Cn is Bn's dual."""
    n = rank
    if letter == "A":
        return [[2]], [2]
    if letter == "B":
        # alpha_n short; its coroot is the long one
        a = _chain_cartan(n, [(i, i + 1) for i in range(1, n)])
        a[n - 2][n - 1] = -2
        a[n - 1][n - 2] = -1
        return a, [2] * (n - 1) + [4]
    if letter == "D":
        edges = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
        return _chain_cartan(n, edges), [2] * n
    if letter == "E":
        edges = _E7_EDGES if n == 7 else _E8_EDGES
        return _chain_cartan(n, edges), [2] * n
    if letter == "F":
        a = _chain_cartan(4, [(1, 2), (2, 3), (3, 4)])
        a[1][2] = -2
        a[2][1] = -1
        return a, [2, 2, 4, 4]
    # G2, the last letter `_parse_label` admits: alpha_1 short root (long
    # coroot), alpha_2 long root (short coroot)
    return [[2, -1], [-3, 2]], [6, 2]


def dynkin_components(a) -> list:
    """The connected components of the Dynkin diagram of the square
    Cartan-like matrix a, nodes i and j joined when a[i][j] != 0: each
    a sorted list of node indices, the components ordered by least node."""
    comps, seen = [], set()
    for s in range(len(a)):
        if s in seen:
            continue
        seen.add(s)
        comp = [s]
        for u in comp:  # grows while it is walked
            for v, x in enumerate(a[u]):
                if x and v not in seen:
                    seen.add(v)
                    comp.append(v)
        comps.append(sorted(comp))
    return comps


def fold_dominant(matrix, p, limit):
    """(p', steps): the pairings p' of the dominant point in the orbit of
    the point with pairings p, and the number of reflections taken.

    Reflection i subtracts p_i times row i of `matrix` from p: row i of
    the Cartan matrix for a weight's pairings <x, alpha_k-vee>, column i
    for a coroot-lattice point's <alpha_k, y>.  Each step reflects in the
    most negative p_i, a wall between the point and the chamber, and
    crosses no other such wall, so the walk takes one step per separating
    wall and ends at the orbit's dominant point, whatever the pivot.  It
    stops after limit + 1 reflections, dominant or not.
    """
    p = list(p)
    rows = [[(k, c) for k, c in enumerate(row) if c] for row in matrix]
    for steps in range(limit + 1):
        v = min(p)
        if v >= 0:
            return p, steps
        for k, c in rows[p.index(v)]:
            p[k] -= v * c
    return p, limit + 1


def require_covered(rs: RootSystem) -> None:
    """ValueError unless the two-group and Chevalley layers cover the type
    of rs: one whose dual has its type (A, D, E or G, so no Cn, for which
    kappa is not pinned down on the Gm factor of K = A(n-1) x Gm) and
    whose Weyl group holds -1, as `minus_one_in_weyl` decides.  So the
    layers, and `KappaCharacter` below them, test neither again."""
    if not (rs.letter in "ADEG" and rs.minus_one_in_weyl()):
        raise ValueError(f"{rs.label}: the two-group and Chevalley layers "
                         "cover A1, D(2n) with 2n >= 4, E7, E8 or G2")


def root_key(v) -> int:
    """An integer vector as one int, its coordinates as signed base-32
    digits: sum of v[k] * 32**k.

    The key is additive, root_key(a) + root_key(b) = root_key(a + b), and
    a balanced base-32 digit string with digits in (-16, 16) has only one
    value, so on such vectors it is injective.  Root coordinates lie in
    [-6, 6] (E8's highest root has the largest), so the coordinates of a
    difference of two positive roots lie in [-6, 6] and those of a sum of
    two roots in [-12, 12]: a sum or difference of two roots' keys is a
    root's key exactly when the sum or difference of the roots is that
    root, and a set or dict lookup of the key decides it.
    """
    return sum(x << 5 * k for k, x in enumerate(v))


@memo
def root_system(label: str) -> RootSystem:
    return RootSystem(label)
