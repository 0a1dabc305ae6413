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

from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime, least_primitive_root
from .obs import check

DEFAULT_CAP = 10 ** 7
MAX_POINTS = 256  # entries in a bytes.translate table
# A named group of known order whose elements, ell + 1 bytes each, would
# take over this many bytes is refused before any closure: PGL2 and PSL2
# pass up to ell = 61, PSL2 up to 73.  A group costs about 340 bytes per
# element in all, so the bound keeps a closure under about 90 MB.
MAX_TABLE_BYTES = 1 << 24

_IDENTITY_TABLE = bytes(range(MAX_POINTS))


# ------------------------------------------------------- representations

class MatrixRep:
    """Flattened n x n matrices over F_p; if `scalars` is given the
    representation is projective and the canonical form of a matrix or a
    vector is its lexicographically least scalar multiple."""

    def __init__(self, p: int, n: int, scalars=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
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

    def inv(self, a):
        n, p = self.n, self.p
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
        return self.canon(tuple(aug[i][n + j]
                                for i in range(n) for j in range(n)))

    def permutations(self, matrices) -> list:
        """Each invertible matrix as a permutation of the frame orbit:
        `bytes` whose entry i is the id of the image of point i.  The
        orbit is walked breadth first; OverflowError once it passes
        MAX_POINTS points."""
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
        for x in points:  # grows while it is walked
            for m, img in zip(matrices, images):
                img.append(point_id(canon(tuple(
                    sum(x[k] * m[k * n + j] for k in range(n)) % p
                    for j in range(n)))))
        return [bytes(img) for img in images]


# ---------------------------------------------------------------- groups

@dataclass(frozen=True)
class ConjClass:
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
    `elements`, and class members and `class_of` keys are those objects."""

    def __init__(self, generators, cap: int = DEFAULT_CAP):
        self.generators = [bytes(g) for g in generators]
        degree = len(self.generators[0]) if self.generators else 0
        self.identity = _IDENTITY_TABLE[:degree]
        self._tail = _IDENTITY_TABLE[degree:]  # pads an element to a table
        self.elements, self.index = self._closure(cap)
        self.order = len(self.elements)
        self.classes = self._conjugacy_classes()
        # z is central iff its class is {z}; the class equation checks both
        self.center = [c.rep for c in self.classes if len(c.members) == 1]
        self.class_of = {}
        for ci, cls in enumerate(self.classes):
            for g in cls.members:
                self.class_of[g] = ci
        self._check_class_equation()

    def _closure(self, cap: int):
        tables = [s + self._tail for s in self.generators]
        elements = [self.identity]
        index = {self.identity: 0}
        for g in elements:  # grows while it is walked: breadth first
            for t in tables:
                h = g.translate(t)
                if h not in index:
                    if len(elements) >= cap:
                        raise OverflowError(
                            f"group exceeds cap of {cap} elements")
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

    def _conjugacy_classes(self):
        elements, index, tail = self.elements, self.index, self._tail
        # x -> s x s^-1, i -> s^-1(x(s(i))): relabel by s^-1, move by s
        conj = [(s, self.inv(s) + tail) for s in self.generators]
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
                for s, sinv_table in conj:
                    k = index[s.translate(x.translate(sinv_table) + tail)]
                    if not assigned[k]:
                        assigned[k] = 1
                        orbit.append(k)
            orbit.sort()
            members = tuple(elements[k] for k in orbit)
            o = self.element_order(g)
            per_order[o] = per_order.get(o, 0) + 1
            label = f"{o}{chr(ord('A') + per_order[o] - 1)}"
            classes.append(ConjClass(label, members, len(members)))
        return classes

    def _check_class_equation(self):
        tail = self._tail
        total = 0
        for cls in self.classes:
            check("class-equation", self.order % cls.size == 0, "class {} of "
                  "size {} does not divide the group order {}", cls.label,
                  cls.size, self.order)
            r = cls.rep
            table = r + tail
            cent = sum(x.translate(table) == r.translate(x + tail)
                       for x in self.elements)
            check("class-equation", cls.size * cent == self.order, "class {}: "
                  "size {} times centralizer order {} is not the group order "
                  "{}", cls.label, cls.size, cent, self.order)
            total += cls.size
        check("class-equation", total == self.order, "class sizes sum to {}, "
              "not the group order {}", total, self.order)

    def class_by_label(self, label: str) -> ConjClass:
        for cls in self.classes:
            if cls.label == label:
                return cls
        raise ValueError(
            f"no class {label}; have {[c.label for c in self.classes]}")

    def subgroup_generated(self, a, b) -> int:
        """Order of <a, b>.  The closure stops once it holds more than half
        the group: by Lagrange no proper subgroup is that large, so <a, b>
        is then the whole group."""
        elements, index = self.elements, self.index
        tables = (a + self._tail, b + self._tail)
        seen = bytearray(self.order)
        seen[0] = 1
        found = [0]
        for i in found:  # grows while it is walked
            g = elements[i]
            for t in tables:
                j = index[g.translate(t)]
                if not seen[j]:
                    seen[j] = 1
                    found.append(j)
            if 2 * len(found) > self.order:
                return self.order
        return len(found)


# ---------------------------------------------------------------- triples

@dataclass(frozen=True)
class TripleReport:
    group_order: int
    center_order: int
    class_labels: tuple
    class_sizes: tuple
    solution_count: int
    normalized_count: Fraction
    generates: bool
    all_generate: bool
    strictly_rigid: bool
    note: str = ""

    def json_dict(self):
        return {
            "group_order": self.group_order,
            "center_order": self.center_order,
            "classes": list(self.class_labels),
            "class_sizes": list(self.class_sizes),
            "solution_count": self.solution_count,
            "normalized_count": [self.normalized_count.numerator,
                                 self.normalized_count.denominator],
            "generates": self.generates,
            "all_generate": self.all_generate,
            "strictly_rigid": self.strictly_rigid,
            "note": self.note,
        }


def triple_count(group: FiniteGroup, c0: ConjClass, c1: ConjClass,
                 cinf: ConjClass, g0=None, note: str = "") -> TripleReport:
    """Count solutions g0 g1 ginf = 1 with g_i in C_i, fixing one g0.

    The total is |C0| times the count at fixed g0; generation is tested
    for every solution at that representative.  Strict rigidity means the
    conjugacy-normalized count is exactly 1 and every solution generates.
    """
    for cls in (c0, c1, cinf):
        if cls.rep not in group.class_of or \
                group.classes[group.class_of[cls.rep]] is not cls:
            raise ValueError(f"class {cls.label} does not belong to group")
    if g0 is None:
        g0 = c0.rep
    elif group.class_of.get(g0) != group.class_of[c0.rep]:
        raise ValueError("g0 is not in C0")
    # ginf = (g0 g1)^-1 lies in C_inf iff g0 g1 lies in the class of inverses
    target = group.class_of[group.inv(cinf.rep)]
    class_of, tail = group.class_of, group._tail
    hits = [g1 for g1 in c1.members
            if class_of[g0.translate(g1 + tail)] == target]
    solution_count = c0.size * len(hits)
    gen_flags = [group.subgroup_generated(g0, g1) == group.order
                 for g1 in hits]
    normalized = Fraction(solution_count * len(group.center), group.order)
    return TripleReport(
        group_order=group.order,
        center_order=len(group.center),
        class_labels=(c0.label, c1.label, cinf.label),
        class_sizes=(c0.size, c1.size, cinf.size),
        solution_count=solution_count,
        normalized_count=normalized,
        generates=any(gen_flags),
        all_generate=bool(gen_flags) and all(gen_flags),
        strictly_rigid=(normalized == 1 and bool(gen_flags)
                        and all(gen_flags)),
        note=note,
    )


# ------------------------------------------------------------- instances

def pgl2_group(ell: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """PGL2(F_ell) on P^1, generated by a unipotent, the Weyl element and
    diag(nu, 1) for the least primitive root nu."""
    name, order = f"PGL2(F_{ell})", ell * (ell - 1) * (ell + 1)
    _check_instance(ell, order, cap, name)
    nu = least_primitive_root(ell)
    return _projective_line_group(
        ell, [(1, 1, 0, 1), (0, ell - 1, 1, 0), (nu, 0, 0, 1)],
        order, name, cap)


def psl2_group(ell: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """PSL2(F_ell) inside PGL2(F_ell), generated by the images of the
    unipotent and the Weyl element of SL2(F_ell)."""
    name, order = f"PSL2(F_{ell})", ell * (ell - 1) * (ell + 1) // 2
    _check_instance(ell, order, cap, name)
    return _projective_line_group(
        ell, [(1, 1, 0, 1), (0, ell - 1, 1, 0)], order, name, cap)


def _projective_line_group(ell: int, gens, order: int, name: str,
                           cap: int) -> FiniteGroup:
    rep = MatrixRep(ell, 2, scalars=range(1, ell))
    group = FiniteGroup(rep.permutations(gens), cap)
    check("group-order", group.order == order,
          "{} closed to {} elements, want {}", name, group.order, order)
    return group


def _check_instance(ell: int, order: int, cap: int, name: str):
    """Refuse a bad ell, and a known order over the cap or whose
    permutations of the ell + 1 points would take over MAX_TABLE_BYTES,
    before any closure."""
    if not is_prime(ell) or ell == 2:
        raise ValueError(f"{ell} is not an odd prime")
    if order > cap:
        raise OverflowError(f"{name} has {order} elements, over the cap "
                            f"of {cap}")
    if order * (ell + 1) > MAX_TABLE_BYTES:
        raise OverflowError(
            f"{name} has {order} elements of {ell + 1} bytes each, over "
            f"the bound of {MAX_TABLE_BYTES} bytes")


SUPPORTED_INSTANCES = "pgl2 with odd prime ell <= 13"


def predicted_triple(kind: str = "pgl2", ell: int = 5,
                 cap: int = DEFAULT_CAP) -> TripleReport:
    """The harness analog of the predicted triple in a PGL2 toy instance.

    C0 is the split involution (the image of diag(1, -1), whose
    centralizer is the split-torus normalizer), C1 the regular unipotent
    class, and the infinity class coincides with C1 since PGL2 has a
    single nontrivial unipotent class.  These choices are this harness's
    fixture, not classes named by any conjecture at this scale.
    """
    if kind != "pgl2" or not 3 <= ell <= 13 or not is_prime(ell):
        raise ValueError(f"unsupported instance; supported: "
                         f"{SUPPORTED_INSTANCES}")
    group = pgl2_group(ell, cap)
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
