"""Exact character-sum laboratory for the y^4 = (lam*x - 1)/(lam*x*(x-1)) family.

Everything is integer arithmetic: multiplicative characters take values in
the Gaussian integers {1, i, -1, -i} through a discrete-log table, and all
consistency identities (point counts, Weil bounds, symmetric-square
descent) are checked exactly, never with floats, and raise AssertionError
even under `python -O`.

Supported fields are F_p for primes p = 1 mod 4, plus the quadratic
extension F_{p^2} used for the Frobenius-squared sums.

Per fiber, the F_p sums t1, t2, t3 are direct O(p) loops.  The F_{p^2}
sums of one prime come for every lambda at once from one exact cyclic
correlation per row of F_{p^2} = F_p + F_p*w (`extension_sums`): each
correlation is a Kronecker-packed big-int product, so a scan over all
lambda costs O(p^2) Python steps instead of the direct O(p^3).  q = 101
takes well under a second.
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

# i^k for k = 0..3, shared: no code mutates a Zi
_UNITS = (ONE, I, -ONE, -I)


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
        self._ext_sums = None  # filled by extension_sums, e = 1 only
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
        if sorted(counts.values()) != [share] * 4:
            raise AssertionError(f"character is not of exact order 4: {counts}")

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

    def _chi_index(self, z) -> int:
        """k with chi(z) = i^k."""
        if self.is_zero(z):
            raise ValueError("chi(0) undefined")
        if self._dlog is not None:
            return self._dlog[z] % 4
        return self._base._chi_index(self.norm(z))

    def chi(self, z) -> Zi:
        return _UNITS[self._chi_index(z)]

    def chi_pow(self, z, j: int) -> Zi:
        return _UNITS[self._chi_index(z) * j % 4]


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
        if ctx.is_zero(v):
            raise AssertionError(f"f vanishes at the good point x = {x}")
        c = ctx.chi(v)
        c2 = c * c
        t[0] += c
        t[1] += c2
        t[2] += c2 * c
    t1, t2, t3 = t
    if t3 != t1.conj():
        raise AssertionError(f"t3 = {t3} is not conj(t1), t1 = {t1}")
    if t2.im != 0:
        raise AssertionError(f"t2 = {t2} is not real")
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
        if fiber.im != 0 or fiber.re not in (0, 4):
            raise AssertionError(f"fiber over x = {x} has size {fiber}")
        count += fiber.re
    if (count - q - 1) ** 2 > 36 * q:
        raise AssertionError(f"genus-3 Weil bound failed: {count} points")
    return count


def legendre_crosscheck(ctx: FiniteFieldCtx, lam, sums=None):
    """Count the genus-1 double cover y^2 = f(x) naively and match t2.

    `sums` is `trace_sums(ctx, lam)` when the caller already has it.
    """
    lam = _check_lambda(ctx, lam)
    squares = {}
    for y in ctx.elements():
        squares[ctx.mul(y, y)] = squares.get(ctx.mul(y, y), 0) + 1
    count = _RAMIFIED
    for x in _good_xs(ctx, lam):
        count += squares.get(_f_value(ctx, lam, x), 0)
    _, t2, _ = trace_sums(ctx, lam) if sums is None else sums
    if count != ctx.q + 1 + t2.re:
        raise AssertionError(
            f"Legendre identity failed: {count} != {ctx.q} + 1 + {t2.re}")
    if t2.re * t2.re > 4 * ctx.q:
        raise AssertionError(f"genus-1 Hasse bound failed: t2 = {t2}")
    return t2, count


def _half_int(z: Zi) -> int:
    if z.im != 0 or z.re % 2 != 0:
        raise AssertionError(f"{z} is not an even rational integer")
    return z.re // 2


def _sym2_inputs(ctx: FiniteFieldCtx, lam, sums, ext_sum):
    if ctx.e != 1:
        raise ValueError("symmetric-square descent needs a prime base field")
    lam = _check_lambda(ctx, lam)
    t1, _, t3 = trace_sums(ctx, lam) if sums is None else sums
    t1_sq = extension_sums(ctx)[lam] if ext_sum is None else ext_sum
    return t1, t3, t1_sq


def sym2_trace(ctx: FiniteFieldCtx, lam, sums=None, ext_sum=None):
    """(s, s_conj) with s = (Tr^2 - Tr2)/2, both factors taken as traces.

    Tr = -t1 is the Frobenius trace on the chi-piece and Tr2 the trace of
    its square, so s is the product of the two Frobenius eigenvalues.
    Exact checks: s is a rational integer, matches the value built
    independently from the conjugate character, is divisible by q and
    q-normalizes into [-1, 3].  On every fiber tested the eigenvalue pair
    multiplies to exactly +q, which also forces t1 itself to be real.

    `sums` is `trace_sums(ctx, lam)` and `ext_sum` the lambda entry of
    `extension_sums(ctx)`, when the caller already has them.
    """
    t1, t3, t1_sq = _sym2_inputs(ctx, lam, sums, ext_sum)
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


def sym2_symmetric_trace(ctx: FiniteFieldCtx, lam, sums=None,
                         ext_sum=None) -> int:
    """Trace of Frobenius on the symmetric square of the chi-piece.

    With eigenvalues a, b this is a^2 + ab + b^2 = (t1^2 - t1_sq)/2 for
    the plain character sums; q-normalized it lies in [-1, 3] but is an
    algebraic (not rational) integer ratio in general, so no divisibility
    by q is imposed here.  `sums` and `ext_sum` are as in `sym2_trace`.
    """
    t1, t3, t1_sq = _sym2_inputs(ctx, lam, sums, ext_sum)
    s = _half_int(t1 * t1 - t1_sq)
    s_conj = _half_int(t3 * t3 - t1_sq.conj())
    if s != s_conj:
        raise AssertionError(f"symmetric descent mismatch: {s} != {s_conj}")
    if not -ctx.q <= s <= 3 * ctx.q:
        raise AssertionError(f"symmetric-square trace {s} outside [-q, 3q]")
    return s


_EXT_CACHE = {}


def _extension(ctx: FiniteFieldCtx) -> FiniteFieldCtx:
    if ctx.p not in _EXT_CACHE:
        _EXT_CACHE[ctx.p] = FiniteFieldCtx(ctx.p, 2)
    return _EXT_CACHE[ctx.p]


# sign patterns of Re i^k and Im i^k; index 4 stands for chi(0) = 0
_RE_POS, _RE_NEG = bytes((1, 0, 0, 0, 0)), bytes((0, 0, 1, 0, 0))
_IM_POS, _IM_NEG = bytes((0, 1, 0, 0, 0)), bytes((0, 0, 0, 1, 0))


def _kron_pack(ks, pos: bytes, neg: bytes, width: int) -> int:
    """sum_j v_j * 2^(8*width*j), v_j = pos[ks[j]] - neg[ks[j]]."""
    hi = bytearray(len(ks) * width)
    lo = bytearray(len(ks) * width)
    hi[::width] = bytes(map(pos.__getitem__, ks))
    lo[::width] = bytes(map(neg.__getitem__, ks))
    return int.from_bytes(hi, "little") - int.from_bytes(lo, "little")


def _kron_unpack(total: int, n: int, width: int) -> list:
    """Cyclic correlation of length n from a product of two Kronecker-packed
    vectors, the second reversed: digit k holds shift k - (n - 1), so
    shifts l and l - n are folded together.  Digits are balanced: each
    lies in [-2^(8*width-1), 2^(8*width-1))."""
    ndigits = 2 * n - 1
    half = 1 << (8 * width - 1)
    # adding `half` to every digit makes each one nonnegative
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * ndigits, "little")
    raw = (total + offset).to_bytes(ndigits * width, "little")
    digits = [int.from_bytes(raw[k * width:(k + 1) * width], "little") - half
              for k in range(ndigits)]
    return [digits[lam + n - 1] + (digits[lam - 1] if lam else 0)
            for lam in range(n)]


def _correlate(pairs, n: int, count: int) -> list:
    """c[l] = sum over (x, y) in pairs of sum_a x[a] * conj(y[(a - l) % n]).

    x and y are lists of n indices k, each standing for i^k (k = 4 for 0);
    `pairs` yields at most `count` of them.  Real and imaginary parts are
    four signed integer correlations per pair, each one exact big-int
    product of Kronecker-packed vectors (Harvey 2009).  The products are
    summed and decoded once; |Re c|, |Im c| <= count * n fixes the digit
    width.
    """
    width = ((count * n).bit_length() + 8) // 8   # bytes per digit
    re = im = used = 0
    for x, y in pairs:
        y = y[::-1]
        x_re = _kron_pack(x, _RE_POS, _RE_NEG, width)
        x_im = _kron_pack(x, _IM_POS, _IM_NEG, width)
        y_re = _kron_pack(y, _RE_POS, _RE_NEG, width)
        y_im = _kron_pack(y, _IM_POS, _IM_NEG, width)
        # x * conj(y) = (x_re y_re + x_im y_im) + i (x_im y_re - x_re y_im)
        re += x_re * y_re + x_im * y_im
        im += x_im * y_re - x_re * y_im
        used += 1
    if used > count:
        raise ValueError(f"{used} pairs given, digits sized for {count}")
    return [Zi(a, b) for a, b in zip(_kron_unpack(re, n, width),
                                     _kron_unpack(im, n, width))]


def extension_sums(ctx: FiniteFieldCtx) -> tuple:
    """E(lam) = sum of chi(Norm(f(x))) over the good x of F_{p^2}, for every
    lam in F_p (None at lam = 0, 1); -E(lam) is the trace of the squared
    Frobenius on the chi-piece.  Built once and kept on ctx.

    With u = lam*x, f = lam(u-1)/(u(u-lam)), so with chi_N = chi o Norm
    and chi_N(0) = 0 (which drops the bad points u = 0, 1, lam)

        E(lam) = chi(lam)^2 * sum_u chi_N(u-1) conj(chi_N(u)) conj(chi_N(u-lam)).

    For u = a + b*w the sum over a is a cyclic correlation in lam of
    g_b[a] = chi_N(u-1) conj(chi_N(u)) with chi_N(u); `_correlate` sums
    the p rows b.
    """
    if ctx.e != 1:
        raise ValueError("symmetric-square descent needs a prime base field")
    if ctx._ext_sums is None:
        ctx._ext_sums = _extension_table(ctx)
    return ctx._ext_sums


def _extension_table(ctx: FiniteFieldCtx) -> tuple:
    p = ctx.p
    # chi of F_{p^2} is chi of F_p after the norm a^2 - nu b^2
    nu = _extension(ctx).nu
    index = [4] + [ctx._dlog[z] % 4 for z in range(1, p)]
    squares = [a * a % p for a in range(p)]

    def rows():
        for b in range(p):
            nb2 = nu * b * b
            row = [index[(a2 - nb2) % p] for a2 in squares]
            g = [4 if 4 in (row[a - 1], row[a]) else (row[a - 1] - row[a]) % 4
                 for a in range(p)]
            yield g, row

    corr = _correlate(rows(), p, p)
    table = [None, None]
    for lam in range(2, p):
        c = corr[lam]
        # chi(lam)^2 = +-1
        table.append(c if index[lam] % 2 == 0 else -c)
    return tuple(table)


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
    sums = trace_sums(ctx, lam)
    t1, t2, t3 = sums
    q = ctx.q
    for t in sums:
        if t.norm() > 4 * q:
            raise AssertionError(f"Weil bound failed: |{t}|^2 > 4q")
    n = smooth_point_count(ctx, lam)
    total = t1 + t2 + t3
    if total.im != 0 or n != q + 1 + total.re:
        raise AssertionError(
            f"Lefschetz identity failed: {n} != {q} + 1 + {total}")
    legendre_crosscheck(ctx, lam, sums)
    ext_sum = extension_sums(ctx)[lam % q]
    s, s_conj = sym2_trace(ctx, lam, sums, ext_sum)
    return TraceRecord(q=q, lam=lam % q, t1=t1, t2=t2, t3=t3,
                       point_count_smooth=n, sym2_trace=s,
                       sym2_trace_conj=s_conj,
                       sym2_symmetric=sym2_symmetric_trace(
                           ctx, lam, sums, ext_sum))


_CTX_CACHE = {}


def _context(q: int) -> FiniteFieldCtx:
    if q not in _CTX_CACHE:
        _CTX_CACHE[q] = FiniteFieldCtx(q, 1)
    return _CTX_CACHE[q]


def _record_worker(args) -> TraceRecord:
    q, lam = args
    return compute_record(_context(q), lam)


def thread_count(value) -> int:
    """Worker processes for `value` (an int, its decimal string, or None
    for 1), clamped to [1, os.cpu_count()]; ValueError if not an integer."""
    if value is None:
        return 1
    try:
        n = int(value)
    except ValueError:
        raise ValueError(
            f"EXCMONO_THREADS must be an integer, got {value!r}") from None
    return max(1, min(n, os.cpu_count() or 1))


def scan(primes, threads: int | None = None):
    """TraceRecords for every lambda outside {0, 1}, all invariants checked.

    Rows come out sorted by (q, lambda) regardless of worker scheduling,
    so serialized output is byte-stable.  `threads` defaults to
    EXCMONO_THREADS; either is clamped by `thread_count`.
    """
    for q in primes:
        if not is_prime(q) or q % 4 != 1:
            raise ValueError(f"{q} is not a prime that is 1 mod 4")
    jobs = [(q, lam) for q in sorted(primes) for lam in range(2, q)]
    threads = thread_count(
        os.environ.get("EXCMONO_THREADS") if threads is None else threads)
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
