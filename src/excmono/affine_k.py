"""The symmetric subgroup cut out by the order-two torus element rho-vee(-1).

A root alpha survives into K exactly when <rho-vee, alpha> is even, i.e.
when alpha has even height.  The identification of K's Cartan type runs
through the affine apartment: the point (1/2) rho-vee is folded into the
fundamental alcove by affine reflections, run on 4x so that every step
is exact in integers, and the walls through the folded point name the
surviving affine Dynkin nodes.  For every rank-
preserving case exactly one finite node alpha' is deleted and its
coefficient in theta-vee is 2.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .linalg import gf2_nullspace, smith_normal_form
from .obs import check, memo
from .rootsys import (RootSystem, dynkin_components, fold_dominant,
                      root_key, root_system)

# the component-type table, one entry per family row, instantiated at
# every rank this toolkit supports
K_TYPE_TABLE = {
    "A1": "Gm",
    "B4": "A1xA1xB2", "B6": "A3xB3",            # B even: B_n x D_n
    "B3": "A1xA1xA1", "B5": "B2xA3", "B7": "B3xD4",  # B odd: B_n x D_{n+1}
    "B2": "A1xGm", "C2": "A1xGm", "C3": "A2xGm",     # C_n: A_{n-1} x Gm
    "C4": "A3xGm", "C5": "A4xGm",
    "D4": "A1xA1xA1xA1", "D6": "A3xA3", "D8": "D4xD4",  # D even: D_n x D_n
    "E7": "A7", "E8": "D8", "F4": "A1xC3", "G2": "A1xA1",
}


class LatticeQuotient(NamedTuple):
    """Cokernel data of a lattice inclusion into the coroot lattice."""

    invariant_factors: tuple[int, ...]  # nonzero diagonal of the Smith form
    free_rank: int


class SubRootSystem(NamedTuple):
    simple_members: tuple
    deleted_node: int | None  # the one deleted finite node, 0-based, or None
    component_types: tuple
    torus_rank: int

    def k_label(self) -> str:
        parts = list(self.component_types) + ["Gm"] * self.torus_rank
        return "x".join(parts) if parts else "1"


def _fold_half_rho_vee(rs: RootSystem):
    """The pairings of (1/2) rho-vee folded into the closed fundamental
    alcove, run on y = 4x, which starts at 2 rho-vee and stays integral.

    Returns p, with p_i = <alpha_i, y> for each simple root and, last,
    p_0 = 4 - <theta, y> for alpha_0 = delta - theta at level 4; the
    alcove is p >= 0, so the walk is `fold_dominant` on the transposed
    affine Cartan matrix: s_i takes y to y - p_i alpha_i-vee, and s_0 to
    y + p_0 theta-vee.  It starts at p_i = <alpha_i, 2 rho-vee> = 2 and
    p_0 = 4 - 2 ht(theta).

    Each step crosses exactly one affine wall H(alpha, k), alpha > 0,
    between the point and the alcove: at x = rho-vee / 2, <alpha, x> =
    ht(alpha) / 2, those with 0 < k < ht(alpha) / 2.  So the fold takes
    exactly N = sum of floor((ht(alpha) - 1) / 2) steps, the Iwahori-
    Matsumoto length formula (Publ. Math. IHES 25, 1965).
    """
    r = rs.rank
    theta = rs.highest_root()[0]
    n, m = rs.pairing_of[theta], rs.copairing_of[theta]
    # matrix[i][k] = <alpha_k, alpha_i-vee>, node r standing for alpha_0
    matrix = [[row[i] for row in rs.cartan] + [-n[i]] for i in range(r)]
    matrix.append([-c for c in m] + [2])
    n_walls = sum((sum(t) - 1) // 2 for t in rs.positive_roots)
    p, steps = fold_dominant(matrix, [2] * r + [4 - 2 * sum(theta)], n_walls)
    check("alcove-fold-length", steps == n_walls, "{}: the fold took {} "
          "steps into the alcove, want N = {}", rs.label, steps, n_walls)
    return p


def _simple_system(positive_members):
    """Members of a positive subsystem that are not sums of two members:
    a is one exactly when no key(a) - key(b), b a member, is a member's
    key (`root_key`; key(a) - key(a) = 0 is no root's)."""
    ordered = sorted(positive_members, key=lambda t: (sum(t), t))
    keys = [root_key(a) for a in ordered]
    members = set(keys)
    return tuple(a for a, ka in zip(ordered, keys)
                 if not any(ka - kb in members for kb in keys))


def _classify_components(rs: RootSystem, simple_roots):
    """Cartan labels of the simple system, canonically ordered."""
    # <b_i, b_j-vee> = sum over l of b_i[l] <alpha_l, b_j-vee>
    cols = [rs.copairing_of[b] for b in simple_roots]
    a = [[sum(map(mul, b, col)) for col in cols] for b in simple_roots]
    norms = [rs.norm_of[b] for b in simple_roots]
    labels = [_component_label(a, norms, comp)
              for comp in dynkin_components(a)]
    labels.sort(key=lambda s: (int(s[1:]), s[0]))
    return tuple(labels)


def _component_label(a, norms, comp) -> str:
    """The Cartan label of the component `comp` of a, whose nodes have
    coroot norms `norms`.  The K of every type `phi_k` accepts (A1,
    B2-B14, C2-C14, even D4-D14, E7, E8, F4, G2) has only A, B, C and D
    components, so a double bond means B or C, a branch node D, and any
    other component is a chain, A."""
    n = len(comp)
    if n == 1:
        return "A1"
    mult = {}
    deg = {i: 0 for i in comp}
    for i in comp:
        for j in comp:
            if i < j and a[i][j]:
                mult[(i, j)] = a[i][j] * a[j][i]
                deg[i] += 1
                deg[j] += 1
    if max(mult.values()) == 2:
        if n == 2:
            return "B2"
        (i, j) = next(p for p, m in mult.items() if m == 2)
        end = i if deg[i] == 1 else j
        other = j if end == i else i
        # short simple root at the end <=> its coroot is the long one
        return f"B{n}" if norms[end] > norms[other] else f"C{n}"
    return f"D{n}" if 3 in deg.values() else f"A{n}"


@memo
def phi_k(rs: RootSystem) -> SubRootSystem:
    """Roots of the symmetric subgroup: the even-height part of the system."""
    if not rs.minus_one_in_weyl():
        raise ValueError(
            f"{rs.label}: -1 is not in the Weyl group; no symmetric subgroup here")
    pos = [t for t in rs.positive_roots if sum(t) % 2 == 0]
    simple_members = _simple_system(pos)

    p = _fold_half_rho_vee(rs)
    kept = [i for i in range(rs.rank) if p[i] == 0]
    affine = p[-1] == 0   # the point lies on the affine wall <theta, x> = 1
    delta_k = tuple(rs.simple_roots[i] for i in kept)
    if affine:
        delta_k = delta_k + (tuple(-v for v in rs.highest_root()[0]),)
    removed = [i for i in range(rs.rank) if p[i]]

    types_walk = _classify_components(rs, delta_k)
    types_parity = _classify_components(rs, simple_members)
    check("walk-matches-parity", types_walk == types_parity, "walk and parity "
          "classifications disagree: {} vs {}", types_walk, types_parity)
    return SubRootSystem(
        simple_members=simple_members,
        deleted_node=removed[0] if len(removed) == 1 and affine else None,
        component_types=types_walk,
        torus_rank=rs.rank - len(simple_members),
    )


@memo
def k_fundamental_quotient(rs: RootSystem) -> LatticeQuotient:
    """Smith data of Z Phi_K-vee inside the coroot lattice."""
    sub = phi_k(rs)
    cols = [rs.coroot_of[b] for b in sub.simple_members]
    mat = [[c[i] for c in cols] for i in range(rs.rank)]
    invariants = tuple(smith_normal_form(mat))
    return LatticeQuotient(invariants, rs.rank - len(invariants))


@memo
def removed_node_coefficient(rs: RootSystem):
    """The theta-vee coefficient of the deleted affine-diagram node; None
    where no single node is deleted (torus factors in K: A1, B2 and Cn)."""
    node = phi_k(rs).deleted_node
    if node is None:
        return None
    c = rs.highest_root()[1][node]
    check("c-alpha-prime-is-2", c == 2, "{}: theta-vee coefficient {} of the "
          "deleted node is not 2", rs.label, c)
    return c


class KappaCharacter:
    """The order-two character of the coroot lattice attached to K's double cover.

    Kernel: the span of the coroots of Phi_K and 2 * Lambda-vee, of index
    2 for every covered type.  For A1, Phi_K is empty and the functional
    is coordinate parity: 2 * Lambda-vee is what the squaring cover of Gm
    pulls back to.  Built only past `require_covered`, so never for Cn.
    """

    def __init__(self, rs: RootSystem):
        masks = []
        for b in phi_k(rs).simple_members:
            m = 0
            for i, v in enumerate(rs.coroot_of[b]):
                if v % 2:
                    m |= 1 << i
            masks.append(m)
        null = gf2_nullspace(masks, rs.rank)
        check("kappa-kernel-index-2", len(null) == 1, "{}: kernel lattice "
              "not of index 2 (nullity {})", rs.label, len(null))
        self.functional = null[0]

    def __call__(self, coroot_vector) -> int:
        acc = 0
        for i, v in enumerate(coroot_vector):
            if (self.functional >> i) & 1:
                acc += v
        return -1 if acc % 2 else 1


def k_type_row(label: str) -> dict:
    """One row of the K-type table, as the CLI emits it."""
    rs = root_system(label)
    sub = phi_k(rs)
    quot = k_fundamental_quotient(rs)
    pi1 = " x ".join(["Z"] * quot.free_rank + [
        f"Z/{d}" for d in quot.invariant_factors if d > 1]) or "1"
    return {"g": rs.label, "k": sub.k_label(), "pi1": pi1,
            "c_alpha_prime": removed_node_coefficient(rs)}
