"""Brute-force rigidity checks for triples of conjugacy classes.

A group is given by matrix generators over a prime field, optionally
projective modulo a group S of scalars.  The matrices act on row vectors,
x -> x m, and so on the frame orbit: the S-classes (canonical multiples)
of e_1 ... e_n, plus that of e_1 + ... + e_n when S is set, closed under
the generators.  The images of these points fix a matrix modulo S, so
the action is faithful, and each generator becomes a permutation of the
orbit stored as `bytes`.  A product is then one C call,
`a.translate(b_table)`, where `b_table` is `b` padded to 256 bytes; that
is also why a frame orbit of more than MAX_POINTS = 256 points is refused
before any closure.  PGL2(F_ell) and its subgroup PSL2(F_ell) both act
on the ell + 1 points of P^1(F_ell).

The group is enumerated by breadth-first closure from the generators.
Its order depends only on the abstract group and the generator order, so
element ids (`index`), class labels and class order do too.  Conjugacy
classes come from orbit closure under generator conjugation, which makes
membership during the triple count an exact dictionary lookup.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .arith import is_prime, least_primitive_root
from .obs import check

MAX_POINTS = 256  # entries in a bytes.translate table
# A group whose elements, one byte per point each, would take over this
# many bytes is refused: a named one before any closure (PGL2 passes up
# to ell = 61, PSL2 up to 73), a `file:` one as its closure grows.  A
# group costs about 340 bytes per element in all: under about 90 MB.
MAX_TABLE_BYTES = 1 << 24

_IDENTITY_TABLE = bytes(range(MAX_POINTS))


# ------------------------------------------------------- representations

class MatrixRep:
    """Flattened n x n matrices over F_p, p prime; if `scalars` is given the
    representation is projective and the canonical form of a matrix or a
    vector is its lexicographically least scalar multiple."""

    def __init__(self, p: int, n: int, scalars=None):
        self.p, self.n = p, n
        self.scalars = tuple(scalars) if scalars else None
        self._scale = {}  # first nonzero entry v -> the s making s*v least

    def canon(self, m):
        """The least multiple: every multiple of m is zero before the first
        entry v that is nonzero mod p, and s -> s*v is injective mod p, so
        the least s*v mod p decides."""
        if not self.scalars:
            return m
        p = self.p
        for x in m:
            v = x % p
            if v:
                break
        s = self._scale.get(v)
        if s is None:
            s = self._scale[v] = min(self.scalars, key=lambda t: t * v % p)
        return tuple(s * x % p for x in m)

    def permutations(self, matrices) -> list:
        """Each matrix as a permutation of the frame orbit: `bytes` whose
        entry i is the id of the image of point i.  The orbit is walked
        breadth first; OverflowError once it passes MAX_POINTS points.
        The orbit spans F_p^n, so a matrix is invertible exactly when its
        image is a permutation; ValueError for one that is not."""
        n, p, canon = self.n, self.p, self.canon
        points, where = [], {}

        def point_id(y):
            i = where.get(y)
            if i is None:
                if len(points) == MAX_POINTS:
                    raise OverflowError(
                        f"frame orbit exceeds the bound of {MAX_POINTS} "
                        "points for a permutation domain")
                i = where[y] = len(points)
                points.append(y)
            return i

        frame = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        if self.scalars:
            frame.append((1,) * n)
        for v in frame:
            point_id(canon(v))
        images = [bytearray() for _ in matrices]
        zero = (0,) * n  # x = 0, which a singular m reaches, has no support
        for x in points:  # grows while it is walked
            # x m sums only the rows k of m where x[k] is nonzero
            support = [(v, k * n) for k, v in enumerate(x) if v]
            for m, img in zip(matrices, images):
                rows = [map(v.__mul__, m[k:k + n]) for v, k in support]
                img.append(point_id(canon(tuple(
                    s % p for s in map(sum, zip(zero, *rows))))))
        for i, img in enumerate(images):
            if len(set(img)) < len(points):
                raise ValueError(f"generator {i} is singular mod {p}")
        return [bytes(img) for img in images]


# ---------------------------------------------------------------- groups

class ConjClass(NamedTuple):
    label: str
    members: tuple
    size: int

    @property
    def rep(self):
        return self.members[0]


class FiniteGroup:
    """The group generated by permutations of 0 .. d-1 (d <= MAX_POINTS),
    each given as `bytes` or a tuple: entry i is the image of i.  Products
    compose left to right, (a b)(i) = b(a(i)), the order of x -> x m.
    Elements are `bytes`; `index` maps each to its id, its position in
    `elements`, and class members and `class_of` keys are those objects.
    `centralizers[i]` lists C(classes[i].rep) in element order."""

    def __init__(self, generators):
        self.generators = [bytes(g) for g in generators]
        degree = len(self.generators[0]) if self.generators else 0
        self.identity = _IDENTITY_TABLE[:degree]
        self._tail = _IDENTITY_TABLE[degree:]  # pads an element to a table
        self.elements, self.index = self._closure()
        self.order = len(self.elements)
        # x -> s x s^-1, i -> s^-1(x(s(i))): relabel by s^-1, move by s
        conj = [(s, self.inv(s) + self._tail) for s in self.generators]
        self.classes, conjugator = self._conjugacy_classes(conj)
        # z is central iff its class is {z}; the class equation checks both
        self.center = [c.rep for c in self.classes if len(c.members) == 1]
        self.class_of = {}
        for ci, cls in enumerate(self.classes):
            for g in cls.members:
                self.class_of[g] = ci
        self.centralizers = self._centralizers(conj, conjugator)

    def _closure(self):
        tables = [s + self._tail for s in self.generators]
        elements = [self.identity]
        index = {self.identity: 0}
        degree = len(self.identity)
        for g in elements:  # grows while it is walked: breadth first
            for t in tables:
                h = g.translate(t)
                if h not in index:
                    if (len(elements) + 1) * degree > MAX_TABLE_BYTES:
                        raise _over_table_bytes(
                            "the group", f"more than {len(elements)}", degree)
                    index[h] = len(elements)
                    elements.append(h)
        return elements, index

    def mul(self, a, b):
        return a.translate(b + self._tail)

    def inv(self, a):
        return bytes.maketrans(a, self.identity)[:len(a)]

    def element_order(self, g) -> int:
        table = g + self._tail
        n, acc = 1, g
        while acc != self.identity:
            acc = acc.translate(table)
            n += 1
        return n

    def _conjugacy_classes(self, conj):
        """(classes, conjugator): the orbits under `conj`, and for each id
        x the id of a t_x with x = t_x r t_x^-1, r the class's rep."""
        elements, index, tail = self.elements, self.index, self._tail
        conjugator = [0] * self.order  # y = s x s^-1 gets t_y = s t_x
        assigned = bytearray(self.order)  # classes are disjoint orbits
        classes = []
        per_order = {}
        for i, g in enumerate(elements):
            if assigned[i]:
                continue
            assigned[i] = 1
            orbit = [i]
            for j in orbit:  # grows while it is walked
                x = elements[j]
                t_table = elements[conjugator[j]] + tail
                for s, sinv_table in conj:
                    k = index[s.translate(x.translate(sinv_table) + tail)]
                    if not assigned[k]:
                        assigned[k] = 1
                        orbit.append(k)
                        conjugator[k] = index[s.translate(t_table)]
            orbit.sort()
            members = tuple(elements[k] for k in orbit)
            o = self.element_order(g)
            per_order[o] = per_order.get(o, 0) + 1
            label = f"{o}{chr(ord('A') + per_order[o] - 1)}"
            classes.append(ConjClass(label, members, len(members)))
        return classes, conjugator

    def _centralizers(self, conj, conjugator) -> list:
        """C(c.rep) for each class c, and the class equation checked on
        them: each size times its centralizer order is |G|, and the sizes
        sum to |G|.  A class holds distinct conjugates of r and H <= C(r),
        so the first holds only for a complete class and H = C(r)."""
        centralizers = []
        total = 0
        for cls in self.classes:
            cent = self._centralizer(cls, conj, conjugator)
            check("class-equation", cls.size * len(cent) == self.order,
                  "class {}: size {} times centralizer order {} is not the "
                  "group order {}", cls.label, cls.size, len(cent), self.order)
            centralizers.append(cent)
            total += cls.size
        check("class-equation", total == self.order, "class sizes sum to {}, "
              "not the group order {}", total, self.order)
        return centralizers

    def _centralizer(self, cls, conj, conjugator) -> list:
        """C(r), r = cls.rep, in element order.  An orbit edge x -> y =
        s x s^-1 gives t_y^-1 s t_x, which fixes r, and these generate C(r)
        (Schreier's lemma; Seress, Permutation Group Algorithms, 2003).  A
        new one that commutes with r joins H, closed again each time."""
        elements, index, tail = self.elements, self.index, self._tail
        if len(cls.members) == 1:  # r commutes with every generator
            return elements
        r, r_table = cls.rep, cls.rep + tail
        in_h = bytearray(self.order)
        in_h[0] = 1
        h, tables = [0], []
        for x in cls.members:
            if cls.size * len(h) == self.order:
                break
            t_table = elements[conjugator[index[x]]] + tail
            for s, sinv_table in conj:
                t_y = elements[conjugator[index[
                    s.translate(x.translate(sinv_table) + tail)]]]
                c = self.inv(t_y).translate(s.translate(t_table) + tail)
                if in_h[index[c]] or c.translate(r_table) != r.translate(
                        c + tail):
                    continue
                tables.append(c + tail)
                self._close_ids(h, in_h, tables, self.order)
        return [elements[k] for k in sorted(h)]

    def class_by_label(self, label: str) -> ConjClass:
        for cls in self.classes:
            if cls.label == label:
                return cls
        raise ValueError(
            f"no class {label!r}; have {[c.label for c in self.classes]}")

    def subgroup_generated(self, a, b) -> int:
        """Order of <a, b>.  The closure stops once it holds more than half
        the group: by Lagrange no proper subgroup is that large, so <a, b>
        is then the whole group."""
        seen = bytearray(self.order)
        seen[0] = 1
        found = [0]
        self._close_ids(found, seen, (a + self._tail, b + self._tail),
                        self.order // 2)
        return self.order if 2 * len(found) > self.order else len(found)

    def _close_ids(self, found, seen, tables, limit: int):
        """Close the ids in `found`, marked in `seen`, under products with
        the padded `tables`, breadth first; stop once over `limit` ids."""
        elements, index = self.elements, self.index
        for i in found:  # grows while it is walked
            g = elements[i]
            for t in tables:
                j = index[g.translate(t)]
                if not seen[j]:
                    seen[j] = 1
                    found.append(j)
            if len(found) > limit:
                return


# ---------------------------------------------------------------- triples

def solutions_at(group: FiniteGroup, g0, c1: ConjClass,
                 cinf: ConjClass) -> list:
    """The g1 in C1 with g0 g1 ginf = 1 for some ginf in C_inf."""
    # ginf = (g0 g1)^-1 lies in C_inf iff g0 g1 lies in the class of inverses
    target = group.class_of[group.inv(cinf.rep)]
    class_of, tail = group.class_of, group._tail
    return [g1 for g1 in c1.members
            if class_of[g0.translate(g1 + tail)] == target]


def triple_count(group: FiniteGroup, c0: ConjClass, c1: ConjClass,
                 cinf: ConjClass, note: str = "") -> dict:
    """Count solutions g0 g1 ginf = 1 with g_i in C_i, classes of `group`,
    fixing g0 as C0's representative; the `rigid` triple dict,
    `normalized_count` a [numerator, denominator] pair in lowest terms.

    The total is |C0| times the count at fixed g0.  The centralizer C(g0),
    read from `group.centralizers`, permutes those solutions by
    conjugation, and <g0, c^-1 g1 c> is conjugate to <g0, g1>, so
    generation is tested once per C(g0)-orbit.  Strict rigidity means the
    conjugacy-normalized count is exactly 1 and every solution generates.
    """
    g0 = c0.rep
    hits = solutions_at(group, g0, c1, cinf)
    solution_count = c0.size * len(hits)
    gen_flags = {}  # solution -> whether it generates, one closure per orbit
    if hits:
        tail = group._tail
        # c^-1 x c: relabel by c^-1, move by c
        conj = [(group.inv(c), c + tail)
                for c in group.centralizers[group.class_of[g0]]]
        for g1 in hits:
            if g1 not in gen_flags:
                flag = group.subgroup_generated(g0, g1) == group.order
                table = g1 + tail
                for c_inv, c_table in conj:
                    gen_flags[c_inv.translate(table).translate(c_table)] = flag
    num = solution_count * len(group.center)
    g = gcd(num, group.order)
    normalized = [num // g, group.order // g]
    all_generate = bool(gen_flags) and all(gen_flags.values())
    return {
        "group_order": group.order,
        "center_order": len(group.center),
        "classes": [c0.label, c1.label, cinf.label],
        "class_sizes": [c0.size, c1.size, cinf.size],
        "solution_count": solution_count,
        "normalized_count": normalized,
        "generates": any(gen_flags.values()),
        "all_generate": all_generate,
        "strictly_rigid": normalized == [1, 1] and all_generate,
        "note": note,
    }


def rigid_result(group: FiniteGroup, labels=()) -> dict:
    """The `rigid` result for `group`, with the report of the triple of
    classes C0, C1, C_inf that `labels` names, if it names any."""
    result = {"order": group.order, "center_order": len(group.center),
              "classes": [{"label": c.label, "size": c.size}
                          for c in group.classes]}
    if labels:
        if len(labels) != 3:
            noun = "class" if len(labels) == 1 else "classes"
            raise ValueError(f"--classes {','.join(labels)!r} names "
                             f"{len(labels)} {noun}; a triple needs 3")
        result["triple"] = triple_count(
            group, *map(group.class_by_label, labels))
    return result


# ------------------------------------------------------------- instances

def pgl2_group(ell: int) -> FiniteGroup:
    """PGL2(F_ell) on P^1, generated by a unipotent, the Weyl element and
    diag(nu, 1) for the least primitive root nu."""
    name, order = f"PGL2(F_{ell})", ell * (ell - 1) * (ell + 1)
    _check_instance(ell, order, name)
    nu = least_primitive_root(ell)
    return _projective_line_group(
        ell, [(1, 1, 0, 1), (0, ell - 1, 1, 0), (nu, 0, 0, 1)], order, name)


def psl2_group(ell: int) -> FiniteGroup:
    """PSL2(F_ell) inside PGL2(F_ell), generated by the images of the
    unipotent and the Weyl element of SL2(F_ell)."""
    name, order = f"PSL2(F_{ell})", ell * (ell - 1) * (ell + 1) // 2
    _check_instance(ell, order, name)
    return _projective_line_group(
        ell, [(1, 1, 0, 1), (0, ell - 1, 1, 0)], order, name)


def _projective_line_group(ell: int, gens, order: int,
                           name: str) -> FiniteGroup:
    rep = MatrixRep(ell, 2, scalars=range(1, ell))
    group = FiniteGroup(rep.permutations(gens))
    check("group-order", group.order == order,
          "{} closed to {} elements, want {}", name, group.order, order)
    return group


def _check_instance(ell: int, order: int, name: str):
    """Refuse a bad ell, and a known order whose permutations of the
    ell + 1 points would take over MAX_TABLE_BYTES, before any closure."""
    if not is_prime(ell) or ell == 2:
        raise ValueError(f"{ell} is not an odd prime")
    if order * (ell + 1) > MAX_TABLE_BYTES:
        raise _over_table_bytes(name, order, ell + 1)


def _over_table_bytes(name: str, count, degree: int) -> OverflowError:
    return OverflowError(f"{name} has {count} elements of {degree} bytes "
                         f"each, over the bound of {MAX_TABLE_BYTES} bytes")


def predicted_triple(ell: int = 5) -> dict:
    """The harness analog of the predicted triple in a PGL2 toy instance.

    C0 is the split involution (the image of diag(1, -1), whose
    centralizer is the split-torus normalizer), C1 the regular unipotent
    class, and the infinity class coincides with C1 since PGL2 has a
    single nontrivial unipotent class.  These choices are this harness's
    fixture, not classes named by any conjecture at this scale.
    """
    group = pgl2_group(ell)
    unip, _, nu_diag = group.generators
    # diag(nu, 1)^((ell-1)/2) = diag(-1, 1), the image of diag(1, -1)
    invol = nu_diag
    for _ in range((ell - 3) // 2):
        invol = group.mul(invol, nu_diag)
    c1 = group.classes[group.class_of[unip]]
    c0 = group.classes[group.class_of[invol]]
    check("unipotent-class-size", c1.size == ell * ell - 1, "unipotent class "
          "of PGL2(F_{}) has {} elements, want {}", ell, c1.size, ell * ell - 1)
    return triple_count(group, c0, c1, c1,
                        note=f"pgl2 ell={ell} toy fixture: "
                             "(split involution, unipotent, unipotent)")
