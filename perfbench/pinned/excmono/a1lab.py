"""Exact character-sum laboratory for the y^4 = (lam*x - 1)/(lam*x*(x-1)) family.

Everything is integer arithmetic: multiplicative characters take values in
the Gaussian integers {1, i, -1, -i} through a discrete-log table, and all
consistency identities (point counts, Weil bounds, symmetric-square
descent) are asserted exactly, never with floats.

Supported fields are F_p for primes p = 1 mod 4, plus the quadratic
extension F_{p^2} used for the Frobenius-squared sums.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import os
from dataclasses import dataclass
from math import isqrt

from .gaussint import I, ONE, Zi

_RAMIFIED = 4  # x in {0, 1, 1/lam, infinity}, one point each on the 4-cover


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


class FiniteFieldCtx:
    """F_p (e=1) or F_{p^2} (e=2) with an exact order-4 character table.

    Elements are ints mod p for e=1 and pairs (a, b) = a + b*w with
    w^2 = nu (a fixed non-residue) for e=2.  chi is built from a discrete
    log over the least generator for e=1; for e=2 over p = 1 mod 4 it is
    the base character composed with the norm, which is again of exact
    order 4 and is the choice the descent identities refer to.
    """

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p) or p == 2:
            raise ValueError(f"{p} is not an odd prime")
        if e not in (1, 2):
            raise ValueError("only degree 1 and 2 fields are supported")
        self.p, self.e = p, e
        self.q = p ** e
        if self.q % 4 != 1:
            raise ValueError(
                f"q = {self.q} is 3 mod 4: no character of order 4")
        if e == 1:
            self.generator = self._least_generator_prime()
            self._dlog = self._dlog_table_prime()
            self._base = None
            self.nu = None
        else:
            self.nu = self._least_nonresidue()
            if p % 4 == 1:
                self._base = FiniteFieldCtx(p, 1)
                self.generator = None
                self._dlog = None
            else:
                self._base = None
                self.generator = self._least_generator_ext()
                self._dlog = self._dlog_table_ext()
        self._check_character()

    # ------------------------------------------------------------ tables

    def _least_generator_prime(self) -> int:
        p = self.p
        target = p - 1
        factors = _prime_factors(target)
        for g in range(2, p):
            if all(pow(g, target // f, p) != 1 for f in factors):
                return g
        raise AssertionError("no generator found")

    def _dlog_table_prime(self):
        p, g = self.p, self.generator
        table = {}
        acc = 1
        for k in range(p - 1):
            table[acc] = k
            acc = acc * g % p
        return table

    def _least_nonresidue(self) -> int:
        p = self.p
        for n in range(2, p):
            if pow(n, (p - 1) // 2, p) == p - 1:
                return n
        raise AssertionError("no non-residue found")

    def _least_generator_ext(self):
        target = self.q - 1
        factors = _prime_factors(target)
        for a in range(self.p):
            for b in range(self.p):
                z = (a, b)
                if z == (0, 0):
                    continue
                if all(not self.eq(self._power(z, target // f), self.one)
                       for f in factors):
                    return z
        raise AssertionError("no generator found")

    def _dlog_table_ext(self):
        table = {}
        acc = self.one
        for k in range(self.q - 1):
            table[acc] = k
            acc = self.mul(acc, self.generator)
        return table

    def _check_character(self):
        # exact order 4: each fourth root of unity is hit equally often
        counts = {}
        for z in self.units():
            v = self.chi(z)
            counts[v] = counts.get(v, 0) + 1
        share = (self.q - 1) // 4
        assert sorted(counts.values()) == [share] * 4, counts

    # --------------------------------------------------------- arithmetic

    @property
    def zero(self):
        return 0 if self.e == 1 else (0, 0)

    @property
    def one(self):
        return 1 if self.e == 1 else (1, 0)

    def embed(self, n: int):
        n %= self.p
        return n if self.e == 1 else (n, 0)

    def elements(self):
        if self.e == 1:
            yield from range(self.p)
        else:
            for a in range(self.p):
                for b in range(self.p):
                    yield (a, b)

    def units(self):
        for z in self.elements():
            if not self.is_zero(z):
                yield z

    def is_zero(self, z) -> bool:
        return z == self.zero

    def eq(self, a, b) -> bool:
        return a == b

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return ((a[0] + b[0]) % self.p, (a[1] + b[1]) % self.p)

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        return ((a[0] - b[0]) % self.p, (a[1] - b[1]) % self.p)

    def mul(self, a, b):
        if self.e == 1:
            return a * b % self.p
        p, nu = self.p, self.nu
        return ((a[0] * b[0] + nu * a[1] * b[1]) % p,
                (a[0] * b[1] + a[1] * b[0]) % p)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        n = self.norm(a)
        ninv = pow(n, self.p - 2, self.p)
        return (a[0] * ninv % self.p, (-a[1]) * ninv % self.p)

    def _power(self, z, k: int):
        out, acc = self.one, z
        while k:
            if k & 1:
                out = self.mul(out, acc)
            acc = self.mul(acc, acc)
            k >>= 1
        return out

    def norm(self, z) -> int:
        """Norm to the prime field, as an int mod p."""
        if self.e == 1:
            return z % self.p
        return (z[0] * z[0] - self.nu * z[1] * z[1]) % self.p

    # --------------------------------------------------------- characters

    def chi(self, z) -> Zi:
        if self.is_zero(z):
            raise ValueError("chi(0) undefined")
        if self._dlog is not None:
            return I ** (self._dlog[z] % 4)
        return self._base.chi(self.norm(z))

    def chi_pow(self, z, j: int) -> Zi:
        return self.chi(z) ** (j % 4)


def _prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------- sums

def _good_xs(ctx: FiniteFieldCtx, lam):
    bad = {ctx.zero, ctx.one, ctx.inv(lam)}
    return [x for x in ctx.elements() if x not in bad]


def _f_value(ctx: FiniteFieldCtx, lam, x):
    # (lam*x - 1) / (lam * x * (x - 1))
    lx = ctx.mul(lam, x)
    num = ctx.sub(lx, ctx.one)
    den = ctx.mul(lx, ctx.sub(x, ctx.one))
    return ctx.mul(num, ctx.inv(den))


def _check_lambda(ctx: FiniteFieldCtx, lam):
    lam = ctx.embed(lam) if isinstance(lam, int) else lam
    if lam in (ctx.zero, ctx.one):
        raise ValueError("lambda in {0, 1} gives a degenerate fiber")
    return lam


def trace_sums(ctx: FiniteFieldCtx, lam):
    """(t1, t2, t3): character sums of chi^j(f(x)) over the unramified x."""
    lam = _check_lambda(ctx, lam)
    t = [Zi(0), Zi(0), Zi(0)]
    for x in _good_xs(ctx, lam):
        v = _f_value(ctx, lam, x)
        assert not ctx.is_zero(v)
        c = ctx.chi(v)
        c2 = c * c
        t[0] += c
        t[1] += c2
        t[2] += c2 * c
    t1, t2, t3 = t
    assert t3 == t1.conj()
    assert t2.im == 0
    return t1, t2, t3


def smooth_point_count(ctx: FiniteFieldCtx, lam) -> int:
    """Points of the smooth projective 4-cover over F_q.

    Each unramified fiber has size sum_{j=0..3} chi^j(f(x)), which is 0 or
    4; the four ramified x contribute one point each.  The total respects
    the genus-3 Weil bound.
    """
    lam = _check_lambda(ctx, lam)
    q = ctx.q
    count = _RAMIFIED
    for x in _good_xs(ctx, lam):
        v = _f_value(ctx, lam, x)
        fiber = ONE + ctx.chi(v) + ctx.chi_pow(v, 2) + ctx.chi_pow(v, 3)
        assert fiber.im == 0 and fiber.re in (0, 4)
        count += fiber.re
    assert (count - q - 1) ** 2 <= 36 * q
    return count


def legendre_crosscheck(ctx: FiniteFieldCtx, lam):
    """Count the genus-1 double cover y^2 = f(x) naively and match t2."""
    lam = _check_lambda(ctx, lam)
    squares = {}
    for y in ctx.elements():
        squares[ctx.mul(y, y)] = squares.get(ctx.mul(y, y), 0) + 1
    count = _RAMIFIED
    for x in _good_xs(ctx, lam):
        count += squares.get(_f_value(ctx, lam, x), 0)
    _, t2, _ = trace_sums(ctx, lam)
    if count != ctx.q + 1 + t2.re:
        raise AssertionError(
            f"Legendre identity failed: {count} != {ctx.q} + 1 + {t2.re}")
    assert t2.re * t2.re <= 4 * ctx.q
    return t2, count


def _half_int(z: Zi) -> int:
    assert z.im == 0 and z.re % 2 == 0
    return z.re // 2


def _extension_sum(ctx: FiniteFieldCtx, lam) -> Zi:
    """Sum of chi(Norm(f(x))) over the good x of the quadratic extension;
    its negative is the trace of the squared Frobenius on the chi-piece."""
    ext = _extension(ctx)
    lam2 = ext.embed(lam)
    out = Zi(0)
    for x in _good_xs(ext, lam2):
        out += ext.chi(_f_value(ext, lam2, x))
    return out


def sym2_trace(ctx: FiniteFieldCtx, lam):
    """(s, s_conj) with s = (Tr^2 - Tr2)/2, both factors taken as traces.

    Tr = -t1 is the Frobenius trace on the chi-piece and Tr2 the trace of
    its square, so s is the product of the two Frobenius eigenvalues.
    Exact checks: s is a rational integer, matches the value built
    independently from the conjugate character, is divisible by q and
    q-normalizes into [-1, 3].  On every fiber tested the eigenvalue pair
    multiplies to exactly +q, which also forces t1 itself to be real.
    """
    if ctx.e != 1:
        raise ValueError("symmetric-square descent needs a prime base field")
    lam = _check_lambda(ctx, lam)
    t1, _, t3 = trace_sums(ctx, lam)
    t1_sq = _extension_sum(ctx, lam)
    t3_sq = t1_sq.conj()
    s = _half_int(t1 * t1 + t1_sq)
    s_conj = _half_int(t3 * t3 + t3_sq)
    if s != s_conj:
        raise AssertionError(f"descent mismatch: {s} != {s_conj}")
    if s % ctx.q != 0:
        raise AssertionError(f"eigenvalue product {s} not divisible by q")
    if not -ctx.q <= s <= 3 * ctx.q:
        raise AssertionError(f"eigenvalue product {s} outside [-q, 3q]")
    return s, s_conj


def sym2_symmetric_trace(ctx: FiniteFieldCtx, lam) -> int:
    """Trace of Frobenius on the symmetric square of the chi-piece.

    With eigenvalues a, b this is a^2 + ab + b^2 = (t1^2 - t1_sq)/2 for
    the plain character sums; q-normalized it lies in [-1, 3] but is an
    algebraic (not rational) integer ratio in general, so no divisibility
    by q is imposed here.
    """
    if ctx.e != 1:
        raise ValueError("symmetric-square descent needs a prime base field")
    lam = _check_lambda(ctx, lam)
    t1, _, t3 = trace_sums(ctx, lam)
    t1_sq = _extension_sum(ctx, lam)
    s = _half_int(t1 * t1 - t1_sq)
    s_conj = _half_int(t3 * t3 - t1_sq.conj())
    assert s == s_conj
    assert -ctx.q <= s <= 3 * ctx.q
    return s


_EXT_CACHE = {}


def _extension(ctx: FiniteFieldCtx) -> FiniteFieldCtx:
    if ctx.p not in _EXT_CACHE:
        _EXT_CACHE[ctx.p] = FiniteFieldCtx(ctx.p, 2)
    return _EXT_CACHE[ctx.p]


# --------------------------------------------------------------- records

@dataclass(frozen=True)
class TraceRecord:
    q: int
    lam: int
    t1: Zi
    t2: Zi
    t3: Zi
    point_count_smooth: int
    sym2_trace: int
    sym2_trace_conj: int
    sym2_symmetric: int

    def csv_row(self):
        return [self.q, self.lam, self.t1.re, self.t1.im, self.t2.re,
                self.t3.re, self.t3.im, self.point_count_smooth,
                self.sym2_trace, self.sym2_trace // self.q]

    def json_dict(self):
        return {
            "q": self.q,
            "lambda": self.lam,
            "t1": [self.t1.re, self.t1.im],
            "t2": self.t2.re,
            "t3": [self.t3.re, self.t3.im],
            "n_points": self.point_count_smooth,
            "sym2": self.sym2_trace,
            "sym2_over_q": self.sym2_trace // self.q,
            "sym2_symmetric": self.sym2_symmetric,
        }


def compute_record(ctx: FiniteFieldCtx, lam: int) -> TraceRecord:
    t1, t2, t3 = trace_sums(ctx, lam)
    q = ctx.q
    for t in (t1, t2, t3):
        assert t.norm() <= 4 * q
    n = smooth_point_count(ctx, lam)
    total = t1 + t2 + t3
    assert total.im == 0 and n == q + 1 + total.re
    legendre_crosscheck(ctx, lam)
    s, s_conj = sym2_trace(ctx, lam)
    return TraceRecord(q=q, lam=lam % q, t1=t1, t2=t2, t3=t3,
                       point_count_smooth=n, sym2_trace=s,
                       sym2_trace_conj=s_conj,
                       sym2_symmetric=sym2_symmetric_trace(ctx, lam))


_CTX_CACHE = {}


def _context(q: int) -> FiniteFieldCtx:
    if q not in _CTX_CACHE:
        _CTX_CACHE[q] = FiniteFieldCtx(q, 1)
    return _CTX_CACHE[q]


def _record_worker(args) -> TraceRecord:
    q, lam = args
    return compute_record(_context(q), lam)


def scan(primes, threads: int | None = None):
    """TraceRecords for every lambda outside {0, 1}, all invariants checked.

    Rows come out sorted by (q, lambda) regardless of worker scheduling,
    so serialized output is byte-stable.
    """
    for q in primes:
        if not is_prime(q) or q % 4 != 1:
            raise ValueError(f"{q} is not a prime that is 1 mod 4")
    jobs = [(q, lam) for q in sorted(primes) for lam in range(2, q)]
    if threads is None:
        threads = int(os.environ.get("EXCMONO_THREADS", "1"))
    if threads > 1 and len(jobs) > 1:
        with multiprocessing.Pool(threads) as pool:
            records = pool.map(_record_worker, jobs)
    else:
        records = [_record_worker(j) for j in jobs]
    return records


CSV_HEADER = ["q", "lambda", "t1_re", "t1_im", "t2", "t3_re", "t3_im",
              "n_points", "sym2", "sym2_over_q"]


def render_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow(rec.csv_row())
    return buf.getvalue()


def render_json(records) -> str:
    return json.dumps([rec.json_dict() for rec in records], indent=2)
