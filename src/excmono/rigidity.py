"""Brute-force rigidity checks for triples of conjugacy classes.

Groups are enumerated by breadth-first closure from generators, as
matrices over a prime field (optionally projective, so PGL2 and PSL2 come
out of the same code path).  Conjugacy classes come from orbit closure
under generator conjugation, which makes membership during the triple
count an exact dictionary lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime, least_primitive_root

DEFAULT_CAP = 10 ** 7


# ------------------------------------------------------- representations

class MatrixRep:
    """Elements are flattened n x n tuples over F_p; if `scalars` is given
    the representation is projective and the canonical form is the
    lexicographically least scalar multiple."""

    def __init__(self, p: int, n: int, scalars=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p, self.n = p, n
        self.scalars = tuple(scalars) if scalars else None
        self._scale = {}  # first nonzero entry v -> the s making s*v least
        self.identity = self.canon(tuple(1 if i == j else 0
                                         for i in range(n) for j in range(n)))

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

    def mul(self, a, b):
        n, p = self.n, self.p
        out = [0] * (n * n)
        for i in range(n):
            base = i * n
            for k in range(n):
                aik = a[base + k]
                if aik:
                    kb = k * n
                    for j in range(n):
                        out[base + j] += aik * b[kb + j]
        return self.canon(tuple(x % p for x in out))

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
    def __init__(self, rep, generators, cap: int = DEFAULT_CAP):
        self.rep = rep
        self.generators = [rep.canon(g) for g in generators]
        self.elements = self._closure(cap)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.order = len(self.elements)
        self.center = self._center()
        self.classes = self._conjugacy_classes()
        self.class_of = {}
        for ci, cls in enumerate(self.classes):
            for g in cls.members:
                self.class_of[g] = ci
        self._check_class_equation()

    def _closure(self, cap: int):
        rep = self.rep
        ident = rep.identity
        seen = {ident}
        order = [ident]
        frontier = [ident]
        while frontier:
            new = []
            for g in frontier:
                for s in self.generators:
                    h = rep.mul(g, s)
                    if h not in seen:
                        if len(seen) >= cap:
                            raise OverflowError(
                                f"group exceeds cap of {cap} elements")
                        seen.add(h)
                        order.append(h)
                        new.append(h)
            frontier = new
        return order

    def mul(self, a, b):
        return self.rep.mul(a, b)

    def inv(self, a):
        return self.rep.inv(a)

    def element_order(self, g) -> int:
        ident = self.rep.identity
        n, acc = 1, g
        while acc != ident:
            acc = self.rep.mul(acc, g)
            n += 1
        return n

    def _center(self):
        out = []
        for g in self.elements:
            if all(self.mul(g, s) == self.mul(s, g)
                   for s in self.generators):
                out.append(g)
        return out

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

    def _check_class_equation(self):
        total = 0
        for cls in self.classes:
            if self.order % cls.size:
                raise AssertionError(
                    f"class {cls.label} of size {cls.size} does not divide "
                    f"the group order {self.order}")
            cent = sum(1 for x in self.elements
                       if self.mul(x, cls.rep) == self.mul(cls.rep, x))
            if cls.size * cent != self.order:
                raise AssertionError(
                    f"class {cls.label}: size {cls.size} times centralizer "
                    f"order {cent} is not the group order {self.order}")
            total += cls.size
        if total != self.order:
            raise AssertionError(
                f"class sizes sum to {total}, not the group order {self.order}")

    def class_by_label(self, label: str) -> ConjClass:
        for cls in self.classes:
            if cls.label == label:
                return cls
        raise ValueError(
            f"no class {label}; have {[c.label for c in self.classes]}")

    def subgroup_generated(self, a, b) -> int:
        """Order of <a, b>, with early exit at the full group order."""
        rep = self.rep
        seen = {rep.identity}
        frontier = [rep.identity]
        while frontier:
            new = []
            for g in frontier:
                for s in (a, b):
                    h = rep.mul(g, s)
                    if h not in seen:
                        seen.add(h)
                        new.append(h)
            if len(seen) == self.order:
                return self.order
            frontier = new
        return len(seen)


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
    target = group.class_of[cinf.rep]
    hits = []
    for g1 in c1.members:
        ginf = group.inv(group.mul(g0, g1))
        if group.class_of[ginf] == target:
            hits.append(g1)
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
    name, order = f"PGL2(F_{ell})", ell * (ell - 1) * (ell + 1)
    _check_instance(ell, order, cap, name)
    nu = least_primitive_root(ell)
    rep = MatrixRep(ell, 2, scalars=range(1, ell))
    gens = [(1, 1, 0, 1), (0, ell - 1, 1, 0), (nu, 0, 0, 1)]
    group = FiniteGroup(rep, gens, cap)
    _check_order(group, order, name)
    return group


def psl2_group(ell: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    name, order = f"PSL2(F_{ell})", ell * (ell - 1) * (ell + 1) // 2
    _check_instance(ell, order, cap, name)
    rep = MatrixRep(ell, 2, scalars=(1, ell - 1))
    gens = [(1, 1, 0, 1), (0, ell - 1, 1, 0)]
    group = FiniteGroup(rep, gens, cap)
    _check_order(group, order, name)
    return group


def _check_instance(ell: int, order: int, cap: int, name: str):
    """Refuse a bad ell, and a known order over the cap before any closure."""
    if not is_prime(ell) or ell == 2:
        raise ValueError(f"{ell} is not an odd prime")
    if order > cap:
        raise OverflowError(f"{name} has {order} elements, over the cap "
                            f"of {cap}")


def _check_order(group: FiniteGroup, expected: int, name: str):
    if group.order != expected:
        raise AssertionError(
            f"{name} closed to {group.order} elements, want {expected}")


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
    rep = group.rep
    unip = rep.canon((1, 1, 0, 1))
    invol = rep.canon((1, 0, 0, ell - 1))
    c1 = group.classes[group.class_of[unip]]
    c0 = group.classes[group.class_of[invol]]
    if c1.size != ell * ell - 1:
        raise AssertionError(
            f"unipotent class of PGL2(F_{ell}) has {c1.size} elements, "
            f"want {ell * ell - 1}")
    return triple_count(group, c0, c1, c1,
                        note=f"pgl2 ell={ell} toy fixture: "
                             "(split involution, unipotent, unipotent)")
