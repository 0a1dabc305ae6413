"""Exact character-sum laboratory for the y^4 = (lam*x - 1)/(lam*x*(x-1)) family.

Everything is integer arithmetic.  A value of the quartic character chi
is the exponent k of i^k, k in 0..3, with k = 4 standing for chi(0) = 0;
`FiniteFieldCtx.index` holds it for every element of F_p.  Sums of such
values are Gaussian integers, kept as (re, im) int pairs whose terms are
read from `arith.UNIT_RE` and `arith.UNIT_IM`.  The Weil bounds, the
Legendre count, the point count from fourth roots and symmetric-square
integrality are checked exactly, never with floats, through `obs.check`,
which raises CheckFailed even under `python -O`; t3 = conj(t1) and t2
real hold by algebra on the character counts, so they are read, not
checked.

The field context is F_p for a prime p = 1 mod 4.  F_{p^2} enters only
through `extension_sums`, as rows a + b*w of its elements.

Per fiber, `fiber_values` evaluates f once at each unramified x through
the context's table of inverses; the counts of each character value,
which give t1, t2, t3 and the point count, and the Legendre and
fourth-root counts are O(p) table lookups over those values.  The
F_{p^2} sums of one prime come for every lambda at once from one exact
cyclic correlation per row of F_{p^2} = F_p + F_p*w (`extension_sums`),
each row a bytes gather and each correlation a Kronecker-packed big-int
product: a scan costs O(p^2) table steps, not the direct O(p^3).
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .arith import UNIT_IM, UNIT_RE, is_prime, least_primitive_root
from .obs import check, memo

_RAMIFIED = 4  # x in {0, 1, 1/lam, infinity}, one point over each


class FiniteFieldCtx:
    """F_p for a prime p = 1 mod 4, with an exact order-4 character table.

    Elements are ints mod p; chi(z) = i^index[z], where index[z] is the
    discrete log of z to the least primitive root, mod 4, and index[0] = 4.
    inverse[z] is 1/z for every unit z (inverse[0] = 0).
    """

    def __init__(self, p: int):
        self.p = p
        self.generator = least_primitive_root(p)
        self.index = [4] * p
        self.inverse = [0] * p
        g_inv = pow(self.generator, p - 2, p)
        z = z_inv = 1
        for k in range(p - 1):  # z = generator^k, z_inv = generator^-k
            self.index[z] = k % 4
            self.inverse[z] = z_inv
            z = z * self.generator % p
            z_inv = z_inv * g_inv % p
        # exact order 4: each fourth root of unity is hit equally often
        counts = [self.index.count(k) for k in range(4)]
        check("character-order-4", counts == [(p - 1) // 4] * 4,
              "character is not of exact order 4: {}", counts)
        # square_roots[v] = #{y : y^2 = v}, for the Legendre count, and
        # fourth_roots[v] = #{y : y^4 = v}, for the point count
        self.square_roots = [0] * p
        self.fourth_roots = [0] * p
        for y in range(p):
            y2 = y * y % p
            self.square_roots[y2] += 1
            self.fourth_roots[y2 * y2 % p] += 1


# ----------------------------------------------------------------- sums

def _f_value(ctx: FiniteFieldCtx, lam, x):
    # (lam*x - 1) / (lam * x * (x - 1))
    p = ctx.p
    lx = lam * x
    return (lx - 1) * ctx.inverse[lx * (x - 1) % p] % p


def fiber_values(ctx: FiniteFieldCtx, lam) -> list:
    """f(x) at every unramified x, that is x outside {0, 1, 1/lam}, in
    increasing x, for lam in 2 .. p - 1 (`scan` passes no other); f is
    evaluated once per x and vanishes at none of them."""
    p = ctx.p
    bad = {0, 1, ctx.inverse[lam % p]}
    values = [_f_value(ctx, lam, x) for x in range(p) if x not in bad]
    check("f-nonzero-off-ramification", 0 not in values,
          "f vanishes at a good point of lambda = {}", lam)
    return values


def _power_sum(counts, j: int):
    """(re, im) of the sum over k of counts[k] * i^(j*k)."""
    re = im = 0
    for k, c in enumerate(counts):
        re += c * UNIT_RE[j * k % 4]
        im += c * UNIT_IM[j * k % 4]
    return re, im


def trace_sums(ctx: FiniteFieldCtx, values):
    """(t1, t2, t3): character sums of chi^j over the `fiber_values`, as
    (re, im) pairs, from the counts c_k of values of each index k.

    For any counts, t3 = conj(t1) as i^(3k) = conj(i^k), t2 is real as
    i^(2k) = +-1, and the smooth 4-cover has n = q + 1 + 2 Re t1 + t2
    points: sum_{j=0..3} i^(jk) = 4[k = 0] of them lie over an x with f(x)
    of index k and one over each ramified x, so n = 4 + sum_j sum_k c_k
    i^(jk) = 4 + (q - 3) + t1 + t2 + t3.
    """
    ks = bytes(map(ctx.index.__getitem__, values))
    counts = [ks.count(k) for k in range(4)]
    t1, t2 = _power_sum(counts, 1), _power_sum(counts, 2)
    return t1, t2, (t1[0], -t1[1])


def legendre_crosscheck(ctx: FiniteFieldCtx, values, t2) -> int:
    """Points of the genus-1 double cover y^2 = f(x), counted from square
    roots without characters; it must be q + 1 + t2.

    `values` are the `fiber_values` and t2 the second of `trace_sums`.
    """
    count = _RAMIFIED + sum(map(ctx.square_roots.__getitem__, values))
    check("legendre-identity", count == ctx.p + 1 + t2[0],
          "Legendre identity failed: {} != {} + 1 + {}", count, ctx.p, t2[0])
    check("genus-1-hasse-bound", t2[0] * t2[0] <= 4 * ctx.p,
          "genus-1 Hasse bound failed: t2 = {}", t2)
    return count


def _sym2_half(t1, ext_sum, sign: int) -> int:
    """(t1^2 + sign*E)/2 for E = ext_sum, checked to be a rational integer."""
    a, b = t1
    re, im = a * a - b * b + sign * ext_sum[0], 2 * a * b + sign * ext_sum[1]
    check("even-rational-integer", im == 0 and re % 2 == 0,
          "{} + {}i is not an even rational integer", re, im)
    return re // 2


def sym2_trace(ctx: FiniteFieldCtx, t1, ext_sum) -> int:
    """s = (Tr^2 - Tr2)/2, both factors taken as traces.

    Tr = -t1 is the Frobenius trace on the chi-piece and Tr2 the trace of
    its square, so s is the product of the two Frobenius eigenvalues.
    Exact checks: s is a rational integer, is divisible by q and
    q-normalizes into [-1, 3].  On every fiber tested the eigenvalue pair
    multiplies to exactly +q, which also forces t1 itself to be real.

    t3 is not used again: t3 = conj(t1) (see `trace_sums`), so
    (t3^2 + conj(E))/2 is the complex conjugate of (t1^2 + E)/2, and
    equals it once that passes as a rational integer.

    `t1` is the first of `trace_sums` of the fiber and `ext_sum` its
    entry of `extension_sums(ctx)`.
    """
    s = _sym2_half(t1, ext_sum, 1)
    check("sym2-divisible-by-q", s % ctx.p == 0,
          "eigenvalue product {} not divisible by q", s)
    check("sym2-range", -ctx.p <= s <= 3 * ctx.p,
          "eigenvalue product {} outside [-q, 3q]", s)
    return s


def sym2_symmetric_trace(ctx: FiniteFieldCtx, t1, ext_sum) -> int:
    """Trace of Frobenius on the symmetric square of the chi-piece.

    With eigenvalues a, b this is a^2 + ab + b^2 = (t1^2 - t1_sq)/2 for
    the plain character sums; q-normalized it lies in [-1, 3] but is an
    algebraic (not rational) integer ratio in general, so no divisibility
    by q is imposed here.  `t1` and `ext_sum` are as in `sym2_trace`.
    """
    s = _sym2_half(t1, ext_sum, -1)
    check("sym2-symmetric-range", -ctx.p <= s <= 3 * ctx.p,
          "symmetric-square trace {} outside [-q, 3q]", s)
    return s


# `bytes.translate` tables over k = 0..4: where UNIT_RE, UNIT_IM are +-1
_RE_POS, _RE_NEG, _IM_POS, _IM_NEG = (
    bytes(v == sign for v in unit).ljust(256, b"\0")
    for unit in (UNIT_RE, UNIT_IM) for sign in (1, -1))
# and g for the index pair (u, v) at byte 5*u + v: u - v mod 4, or 4 for a 0
_G_OF_PAIR = bytes(4 if 4 in divmod(c, 5) else (c // 5 - c % 5) % 4
                   for c in range(25)).ljust(256, b"\0")


def _kron_pack(ks, pos: bytes, neg: bytes, width: int) -> int:
    """sum_j v_j * 2^(8*width*j), v_j = pos[ks[j]] - neg[ks[j]], for ks
    bytes or a list of indices."""
    ks = bytes(ks)
    hi = bytearray(len(ks) * width)
    lo = bytearray(len(ks) * width)
    hi[::width] = ks.translate(pos)
    lo[::width] = ks.translate(neg)
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


def _correlate(terms, n: int, count: int) -> list:
    """c[l] = sum over (x, y, w) in terms of w * sum_a x[a] conj(y[a - l]).

    x and y are bytes or lists of n indices k, each i^k (k = 4 for 0),
    indexed mod n; the int weights w sum to at most `count` (its one
    caller: (p + 1)/2 rows weighing p), and c[l] is an (re, im) pair.
    x = A + iB and y = C + iD are Kronecker-packed big ints (Harvey 2009),
    and x conj(y) = k1 - k3 + i(k1 + k2) takes three exact products, k1 =
    C(A + B), k2 = A(-D - C) and k3 = B(C - D).  The products are summed
    and decoded once; |Re c|, |Im c| <= count * n fixes the digit width.
    """
    width = ((count * n).bit_length() + 8) // 8   # bytes per digit
    re = im = 0
    for x, y, w in terms:
        y = y[::-1]
        a = _kron_pack(x, _RE_POS, _RE_NEG, width)
        b = _kron_pack(x, _IM_POS, _IM_NEG, width)
        c = _kron_pack(y, _RE_POS, _RE_NEG, width)
        d = _kron_pack(y, _IM_POS, _IM_NEG, width)
        k1 = c * (a + b)
        re += w * (k1 - b * (c - d))
        im += w * (k1 - a * (d + c))
    return list(zip(_kron_unpack(re, n, width), _kron_unpack(im, n, width)))


@memo
def extension_sums(ctx: FiniteFieldCtx) -> tuple:
    """E(lam) = sum of chi(Norm(f(x))) over the good x of F_{p^2}, for every
    lam in F_p as an (re, im) pair (None at lam = 0, 1); -E(lam) is the
    trace of the squared Frobenius on the chi-piece.  Built once per ctx
    from `ctx.index`.

    With u = lam*x, f = lam(u-1)/(u(u-lam)), so with chi_N = chi o Norm
    and chi_N(0) = 0 (which drops the bad points u = 0, 1, lam)

        E(lam) = chi(lam)^2 * sum_u chi_N(u-1) conj(chi_N(u)) conj(chi_N(u-lam)).

    For u = a + b*w the sum over a is a cyclic correlation in lam of
    g_b[a] = chi_N(u-1) conj(chi_N(u)) with chi_N(u); `_correlate` sums
    the p rows b.
    """
    return _extension_table(ctx.index)


def _extension_table(index) -> tuple:
    """`extension_sums` from index[z] = k with chi(z) = i^k (index[0] = 4).

    F_{p^2} = F_p(w) with w^2 = nu, the least z of odd log, a non-residue.
    On the way, chi_N = chi o Norm, Norm(a + b*w) = a^2 - nu*b^2, is checked
    to have exact order 4: over all u each k in 0..3 must occur (p^2-1)/4
    times and index 4 (Norm u = 0) only at u = 0, which also proves nu a
    non-residue.  Rows b and p - b are the same row, so b runs over
    0 .. (p-1)/2 and every row but b = 0 weighs 2.
    """
    p = len(index)
    nu = next((z for z in range(1, p) if index[z] % 2), 0)
    index2 = bytes(index) * 2
    gather = itemgetter(*(a * a % p for a in range(p)))
    counts = [0] * 5

    def rows():
        for b in range(p // 2 + 1):
            off = -nu * b * b % p
            row = bytes(gather(index2[off:off + p]))  # index[a^2 - nu*b^2]
            w = 2 if b else 1
            for k in range(5):
                counts[k] += w * row.count(k)
            # byte a of `pairs` is 5*row[a-1] + row[a] <= 24: no carries
            pairs = 5 * int.from_bytes(row[-1:] + row[:-1], "little") \
                + int.from_bytes(row, "little")
            yield pairs.to_bytes(p, "little").translate(_G_OF_PAIR), row, w

    corr = _correlate(rows(), p, p)
    check("norm-character-order-4", counts == [(p * p - 1) // 4] * 4 + [1],
          "chi o Norm on F_{}^2 is not of exact order 4: {}", p, counts)
    table = [None, None]
    for lam in range(2, p):
        sign = UNIT_RE[2 * index[lam] % 4]  # chi(lam)^2 = +-1
        table.append((sign * corr[lam][0], sign * corr[lam][1]))
    return tuple(table)


# --------------------------------------------------------------- records

class TraceRecord(NamedTuple):
    q: int
    lam: int
    t1: tuple  # (re, im)
    t2: tuple
    t3: tuple
    point_count_smooth: int
    sym2_trace: int
    sym2_symmetric: int

    def json_dict(self):
        return {
            "q": self.q,
            "lambda": self.lam,
            "t1": list(self.t1),
            "t2": self.t2[0],
            "t3": list(self.t3),
            "n_points": self.point_count_smooth,
            "sym2": self.sym2_trace,
            "sym2_over_q": self.sym2_trace // self.q,
            "sym2_symmetric": self.sym2_symmetric,
        }


def compute_record(ctx: FiniteFieldCtx, lam: int) -> TraceRecord:
    """The record of the fiber at lam, in 2 .. q - 1 as in `fiber_values`."""
    values = fiber_values(ctx, lam)
    t1, t2, t3 = trace_sums(ctx, values)
    q = ctx.p
    # t3 = conj(t1), and t2 meets the Hasse bound in legendre_crosscheck;
    # so |n - q - 1| = |2 Re t1 + t2| <= 6 sqrt(q), n as in `trace_sums`
    check("weil-bound", t1[0] ** 2 + t1[1] ** 2 <= 4 * q,
          "Weil bound failed: |{}|^2 > 4q", t1)
    legendre_crosscheck(ctx, values, t2)
    n = q + 1 + 2 * t1[0] + t2[0]
    # the same points counted from fourth roots, without characters
    count = _RAMIFIED + sum(map(ctx.fourth_roots.__getitem__, values))
    check("point-count-by-fourth-roots", count == n, "lambda = {}: {} "
          "points over the fiber, want n = {}", lam, count, n)
    ext_sum = extension_sums(ctx)[lam]
    return TraceRecord(q=q, lam=lam, t1=t1, t2=t2, t3=t3,
                       point_count_smooth=n,
                       sym2_trace=sym2_trace(ctx, t1, ext_sum),
                       sym2_symmetric=sym2_symmetric_trace(ctx, t1, ext_sum))


# a scan of q costs O(q^2) table steps: MAX_Q bounds each prime, and
# MAX_SUM_Q2 = 4 MAX_Q^2 the list, which admits the four largest primes
# together; the README's bounds table gives their measured cost
MAX_Q = 1 << 10
MAX_SUM_Q2 = 1 << 22


def scan(primes):
    """TraceRecords for every lambda outside {0, 1}, all invariants checked,
    sorted by (q, lambda) so serialized output is byte-stable."""
    for q in primes:
        if q > MAX_Q:
            raise ValueError(f"{q} is above the bound MAX_Q = {MAX_Q} "
                             f"on the a1 prime")
        if not is_prime(q) or q % 4 != 1:
            raise ValueError(f"{q} is not a prime that is 1 mod 4")
    total = sum(q * q for q in primes)
    if total > MAX_SUM_Q2:
        raise ValueError(f"the a1 primes' squares sum to {total}, above the "
                         f"bound MAX_SUM_Q2 = {MAX_SUM_Q2}")
    return [compute_record(ctx, lam)
            for ctx in map(FiniteFieldCtx, sorted(primes))
            for lam in range(2, ctx.p)]


def a1_result(primes) -> dict:
    """The `a1` JSON result for `primes`."""
    records = scan(primes)
    return {"primes": list(primes), "fibers": len(records),
            "records": [rec.json_dict() for rec in records]}


CSV_HEADER = ["q", "lambda", "t1_re", "t1_im", "t2", "t3_re", "t3_im",
              "n_points", "sym2", "sym2_over_q"]


def render_csv(records) -> str:
    """The `a1_result` records as CSV with the `CSV_HEADER` columns.

    `sym2_symmetric` is left out on purpose: the JSON records carry it,
    and the ten-column header is a fixed format that the benchmark's
    known-answer check (`perfbench/checks.py`) compares verbatim.  Every
    cell is an int or a header name, so none needs quoting.
    """
    rows = [CSV_HEADER] + [
        [r["q"], r["lambda"], *r["t1"], r["t2"], *r["t3"], r["n_points"],
         r["sym2"], r["sym2_over_q"]] for r in records]
    return "".join(",".join(map(str, row)) + "\n" for row in rows)

