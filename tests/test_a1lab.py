"""Character sums for the quartic curve family, against naive counting.

The oracles here recount every fiber by brute-force y-loops, sum the
F_{p^2} extension sums directly point by point in a separate F_{p^2}
field, find primitive roots by listing powers, correlate vectors in
O(n^2), reverify the ramification orders of f symbolically over Q, and
freeze a handful of records computed once with both methods agreeing.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import excmono
from excmono import a1lab
from excmono.a1lab import (
    CSV_HEADER,
    MAX_Q,
    FiniteFieldCtx,
    a1_result,
    compute_record,
    extension_sums,
    fiber_values,
    legendre_crosscheck,
    render_csv,
    scan,
    sym2_symmetric_trace,
    sym2_trace,
    trace_sums,
    _correlate,
    _extension_table,
)
from excmono.arith import UNIT_IM, UNIT_RE, is_prime, least_primitive_root
from excmono.cli import main
from oracles import (gauss_conj, gauss_mul, gauss_sum, i_power,
                     list_extension_table)

ACCEPT_PRIMES = [5, 13, 17, 29]


def naive_values(p, lam):
    """x -> f(x) = (lam*x - 1)/(lam*x*(x - 1)) over the x where neither
    side vanishes, that is outside {0, 1, 1/lam}; dividing by search."""
    out = {}
    for x in range(p):
        num, den = (lam * x - 1) % p, lam * x * (x - 1) % p
        if num and den:
            out[x] = next(v for v in range(p) if v * den % p == num)
    return out


def naive_quartic_count(ctx, lam):
    """Brute-force point count of the smooth 4-cover: direct y-loops plus
    one point over each of the four ramified x."""
    count = 4
    for v in naive_values(ctx.p, lam).values():
        count += sum(1 for y in range(ctx.p) if pow(y, 4, ctx.p) == v)
    return count


def fiber_sums(ctx, lam):
    """t1 of the fiber and its extension sum, as `compute_record` hands
    them to the sym2 routes."""
    return (trace_sums(ctx, fiber_values(ctx, lam))[0],
            extension_sums(ctx)[lam % ctx.p])


class Fp2:
    """F_{p^2} = F_p(w) with w^2 = nu, the least non-residue by Euler's
    criterion; elements are pairs (a, b) = a + b*w.  chi is the F_p
    character after the norm, as an (re, im) pair."""

    zero, one = (0, 0), (1, 0)

    def __init__(self, p):
        self.p = p
        self.nu = next(n for n in range(2, p)
                       if pow(n, (p - 1) // 2, p) == p - 1)
        self.base = FiniteFieldCtx(p)

    def elements(self):
        return [(a, b) for a in range(self.p) for b in range(self.p)]

    def sub(self, x, y):
        return ((x[0] - y[0]) % self.p, (x[1] - y[1]) % self.p)

    def mul(self, x, y):
        p, nu = self.p, self.nu
        return ((x[0] * y[0] + nu * x[1] * y[1]) % p,
                (x[0] * y[1] + x[1] * y[0]) % p)

    def norm(self, z):
        return (z[0] * z[0] - self.nu * z[1] * z[1]) % self.p

    def inv(self, z):
        n = pow(self.norm(z), self.p - 2, self.p)
        return (z[0] * n % self.p, -z[1] * n % self.p)

    def chi(self, z):
        n = self.norm(z)
        return i_power(self.base.index[n]) if n else (0, 0)


def direct_extension_sum(ctx, lam):
    """Sum of chi(Norm(f(x))) over the good x of the quadratic extension,
    point by point: the O(p^2)-per-lambda oracle for `extension_sums`."""
    ext = Fp2(ctx.p)
    one, lam2 = ext.one, (lam % ctx.p, 0)
    bad = {ext.zero, one, ext.inv(lam2)}
    out = []
    for x in ext.elements():
        if x not in bad:
            # f = (lam*x - 1) / (lam * x * (x - 1))
            lx = ext.mul(lam2, x)
            den = ext.mul(lx, ext.sub(x, one))
            out.append(ext.chi(ext.mul(ext.sub(lx, one), ext.inv(den))))
    return gauss_sum(out)


def naive_correlation(terms, n):
    """sum over (x, y, w) of w * sum_a x[a] * conj(y[(a - l) % n]), in
    O(w n^2)."""
    units = [i_power(k) for k in range(4)] + [(0, 0)]
    return [gauss_sum(gauss_mul(units[x[a]],
                                gauss_conj(units[y[(a - lam) % n]]))
                      for x, y, w in terms for _ in range(w)
                      for a in range(n))
            for lam in range(n)]


def naive_fiber_sizes(ctx, lam):
    return {x: sum(1 for y in range(ctx.p) if pow(y, 4, ctx.p) == v)
            for x, v in naive_values(ctx.p, lam).items()}


# -------------------------------------------------------------- field ctx

def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2 ** 31 - 1)   # the largest input below the bound
    for n in (2 ** 31, 10 ** 18 + 9):
        with pytest.raises(OverflowError, match="2\\^31"):
            is_prime(n)


def test_generators_are_least_primitive():
    assert FiniteFieldCtx(5).generator == 2
    assert FiniteFieldCtx(13).generator == 2
    assert FiniteFieldCtx(17).generator == 3


def test_least_primitive_root_lists_powers():
    # the first g whose powers reach all p - 1 units, found by listing them
    for p in (p for p in range(3, 200) if is_prime(p)):
        want = next(g for g in range(2, p)
                    if len({pow(g, k, p) for k in range(1, p)}) == p - 1)
        assert least_primitive_root(p) == want, p


def test_unit_tables_are_the_powers_of_i():
    assert [(UNIT_RE[k], UNIT_IM[k]) for k in range(4)] == \
        [i_power(k) for k in range(4)]
    assert (UNIT_RE[4], UNIT_IM[4]) == (0, 0)  # chi(0) = 0


@pytest.mark.parametrize("q", ACCEPT_PRIMES)
def test_character_has_exact_order_four(q):
    ctx = FiniteFieldCtx(q)
    values = {}
    for z in range(1, ctx.p):
        values.setdefault(i_power(ctx.index[z]), 0)
        values[i_power(ctx.index[z])] += 1
    assert sorted(values.values()) == [(q - 1) // 4] * 4
    assert set(values) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert ctx.index[0] == 4
    # the index is the discrete log to the generator, mod 4
    for k in range(q - 1):
        assert ctx.index[pow(ctx.generator, k, q)] == k % 4
    # chi^2 is the quadratic-residue character
    for z in range(1, ctx.p):
        euler = pow(z, (q - 1) // 2, q)
        assert i_power(2 * ctx.index[z]) == ((1, 0) if euler == 1 else (-1, 0))


def test_inverse_table_inverts_every_unit():
    for p in (p for p in range(5, MAX_Q) if p % 4 == 1 and is_prime(p)):
        ctx = FiniteFieldCtx(p)
        assert all(ctx.inverse[z] * z % p == 1 for z in range(1, p)), p


def test_conjugate_character_is_complex_conjugate():
    ctx = FiniteFieldCtx(13)
    for z in range(1, ctx.p):
        assert i_power(3 * ctx.index[z]) == gauss_conj(i_power(ctx.index[z]))


def test_extension_field_arithmetic():
    # the oracle field F_25 is a field with a multiplicative norm
    ext = Fp2(5)
    units = [z for z in ext.elements() if z != ext.zero]
    assert len(units) == 24
    for z in units:
        assert ext.mul(z, ext.inv(z)) == ext.one
        acc = ext.one
        for _ in range(24):
            acc = ext.mul(acc, z)
        assert acc == ext.one
        for w in units:
            assert ext.norm(ext.mul(z, w)) == ext.norm(z) * ext.norm(w) % 5


# ------------------------------------------------------------- trace sums

@pytest.mark.parametrize("q", [5, 13, 17, 41, 61])
def test_fiber_values_match_naive_division(q):
    ctx = FiniteFieldCtx(q)
    for lam in [*range(2, q), q + 2]:
        values = fiber_values(ctx, lam)
        assert len(values) == q - 3
        assert values == list(naive_values(q, lam % q).values())


@pytest.mark.parametrize("q", ACCEPT_PRIMES)
def test_lefschetz_identity_every_fiber(q):
    # the reported n, read from the traces, against y-loops
    ctx = FiniteFieldCtx(q)
    for lam in range(2, q):
        t1, t2, t3 = trace_sums(ctx, fiber_values(ctx, lam))
        n = compute_record(ctx, lam).point_count_smooth
        assert n == naive_quartic_count(ctx, lam), lam
        assert n == q + 1 + gauss_sum((t1, t2, t3))[0]
        assert (n - q - 1) ** 2 <= 36 * q  # genus-3 Weil bound
        for t in (t1, t2, t3):
            assert gauss_mul(t, gauss_conj(t))[0] <= 4 * q


@given(st.sampled_from([5, 13, 17, 29, 37]), st.data())
def test_trace_identities_hold_for_any_counts(q, data):
    # any counts c_k of values of index k with sum q - 3, not only those
    # of a fiber: t3 = conj(t1) and t2 real need no check, and the
    # Lefschetz formula is the fourth-root count 4 + sum_x #{y^4 = f(x)}
    ctx = FiniteFieldCtx(q)
    left = q - 3
    counts = []
    for _ in range(3):
        counts.append(data.draw(st.integers(0, left)))
        left -= counts[-1]
    counts.append(left)
    values = [z for k, c in enumerate(counts)
              for z in [pow(ctx.generator, k, q)] * c]
    t1, t2, t3 = trace_sums(ctx, values)
    sums = [gauss_sum(i_power(j * k) for k, c in enumerate(counts)
                      for _ in range(c)) for j in range(4)]
    assert (t1, t2, t3) == tuple(sums[1:])
    assert t3 == gauss_conj(t1) and t2[1] == 0
    fourth_roots = [sum(pow(y, 4, q) == v for y in range(q))
                    for v in range(q)]
    n = 4 + sum(fourth_roots[v] for v in values)
    assert n == 4 + 4 * counts[0] == q + 1 + 2 * t1[0] + t2[0]


@given(st.integers(1, 10 ** 9), st.data())
def test_genus_3_weil_bound_follows_from_the_fiber_checks(q, data):
    # |t1|^2 <= 4q (weil-bound) leaves |Re t1| <= 2 sqrt(q), t2^2 <= 4q
    # (genus-1-hasse-bound), and lefschetz-identity with t3 = conj(t1)
    # gives n - q - 1 = 2 Re t1 + t2: so |n - q - 1| <= 6 sqrt(q)
    bound = math.isqrt(4 * q)
    t1_re = data.draw(st.integers(-bound, bound))
    t2 = data.draw(st.integers(-bound, bound))
    n = q + 1 + 2 * t1_re + t2
    assert (n - q - 1) ** 2 <= 36 * q


@pytest.mark.parametrize("q,lam", [(5, 2), (5, 3), (13, 3), (17, 9), (29, 7)])
def test_counts_match_naive_oracle(q, lam):
    ctx = FiniteFieldCtx(q)
    assert compute_record(ctx, lam).point_count_smooth == \
        naive_quartic_count(ctx, lam)


@pytest.mark.parametrize("q,lam", [(5, 2), (13, 3), (13, 7)])
def test_fiber_sizes_match_character_sums(q, lam):
    ctx = FiniteFieldCtx(q)
    values = naive_values(q, lam)
    for x, size in naive_fiber_sizes(ctx, lam).items():
        v = values[x]
        k = ctx.index[v]
        char_sum = gauss_sum(i_power(j * k) for j in range(4))
        assert char_sum == (size, 0)
        assert size == 4 * (k == 0)


def csv_row(rec):
    """The `render_csv` row of one record, as ints."""
    line = render_csv([rec.json_dict()]).splitlines()[1]
    return [int(cell) for cell in line.split(",")]


FROZEN_ROWS = {
    (5, 2): [5, 2, 0, 0, -2, 0, 0, 4, 5, 1],
    (5, 3): [5, 3, 2, 0, 2, 2, 0, 12, 5, 1],
    (5, 4): [5, 4, -2, 0, 2, -2, 0, 4, 5, 1],
    (13, 2): [13, 2, 0, 0, 6, 0, 0, 20, 13, 1],
    (13, 3): [13, 3, 2, 0, 2, 2, 0, 20, 13, 1],
}


@pytest.mark.parametrize("key", sorted(FROZEN_ROWS))
def test_frozen_records(key):
    q, lam = key
    rec = compute_record(FiniteFieldCtx(q), lam)
    assert csv_row(rec) == FROZEN_ROWS[key]


# ---------------------------------------------------------------- legendre

@pytest.mark.parametrize("q", [5, 13, 17])
def test_legendre_crosscheck_every_fiber(q):
    ctx = FiniteFieldCtx(q)
    for lam in range(2, q):
        values = fiber_values(ctx, lam)
        _, t2, _ = trace_sums(ctx, values)
        count = legendre_crosscheck(ctx, values, t2)
        # the double cover y^2 = f(x), by y-loops
        assert count == 4 + sum(1 for v in values for y in range(q)
                                if y * y % q == v)
        assert count == q + 1 + t2[0]
        assert t2[0] * t2[0] <= 4 * q  # Hasse bound, genus 1
        with pytest.raises(AssertionError, match="Legendre identity"):
            legendre_crosscheck(ctx, values, gauss_sum((t2, (2, 0))))


# -------------------------------------------------------------------- sym2

@pytest.mark.parametrize("q", ACCEPT_PRIMES)
def test_sym2_descent_every_fiber(q):
    ctx = FiniteFieldCtx(q)
    for lam in range(2, q):
        values = fiber_values(ctx, lam)
        t1, _, t3 = trace_sums(ctx, values)
        ext_sum = extension_sums(ctx)[lam]
        s = sym2_trace(ctx, t1, ext_sum)
        assert s % q == 0
        assert -q <= s <= 3 * q
        # the half from the conjugate character, which sym2_trace no
        # longer builds, is the same rational integer
        (c, d), (e, f) = t3, ext_sum
        assert (c * c - d * d + e, 2 * c * d - f) == (2 * s, 0)


@pytest.mark.parametrize("q", [5, 13])
def test_eigenvalue_product_is_exactly_q(q):
    # the two Frobenius eigenvalues on the chi-piece multiply to +q on
    # every fiber, which also forces the trace sum t1 to be real
    ctx = FiniteFieldCtx(q)
    for lam in range(2, q):
        t1, ext_sum = fiber_sums(ctx, lam)
        assert sym2_trace(ctx, t1, ext_sum) == q
        assert t1[1] == 0


@pytest.mark.parametrize("q", [5, 13, 17])
def test_symmetric_square_trace(q):
    ctx = FiniteFieldCtx(q)
    for lam in range(2, q):
        t1, ext_sum = fiber_sums(ctx, lam)
        s = sym2_symmetric_trace(ctx, t1, ext_sum)
        assert -q <= s <= 3 * q
        # with eigenvalue product q and real t1: a^2 + ab + b^2 = t1^2 - q
        assert s == t1[0] ** 2 - q


def test_symmetric_square_not_always_divisible():
    # q = 5, lambda = 3: eigenvalues -1 +- 2i give trace 4 - 5 = -1
    ctx = FiniteFieldCtx(5)
    assert sym2_symmetric_trace(ctx, *fiber_sums(ctx, 3)) == -1


# ------------------------------------------------- extension sums by correlation

# vector entries are indices k standing for i^k, k = 4 for 0: so {0, 2, 4}
# is {1, -1, 0}
@pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (5, 2), (13, 3), (31, 4)])
def test_correlation_matches_naive_signed(n, seed):
    rng = random.Random(seed)
    terms = [([rng.choice((0, 2, 4)) for _ in range(n)],
              [rng.choice((0, 2, 4)) for _ in range(n)], rng.randint(1, 3))
             for _ in range(3)]
    count = sum(w for _, _, w in terms)
    assert _correlate(terms, n, count) == naive_correlation(terms, n)
    assert _correlate(iter(terms), n, count) == naive_correlation(terms, n)


@pytest.mark.parametrize("n,seed", [(7, 5), (17, 6)])
def test_correlation_matches_naive_gaussian(n, seed):
    rng = random.Random(seed)
    terms = [([rng.randrange(5) for _ in range(n)],
              [rng.randrange(5) for _ in range(n)], rng.randint(1, 3))
             for _ in range(4)]
    count = sum(w for _, _, w in terms)
    assert _correlate(terms, n, count) == naive_correlation(terms, n)


@pytest.mark.parametrize("n,count", [(1, 1), (1, 127), (127, 1), (1, 128),
                                     (3, 5), (16, 16), (7, 4681)])
@pytest.mark.parametrize("kx,ky", [(0, 0), (2, 0), (0, 2), (2, 2), (1, 0),
                                   (0, 1), (1, 1), (3, 1)])
def test_correlation_at_carry_boundaries(n, count, kx, ky):
    # constant vectors give |Re c| or |Im c| = count * n, the extreme the
    # digit width is sized for; 127 and 32767 = 7 * 4681 sit right under
    # the sign bit of a one- and a two-byte digit; count terms of weight 1
    # and one term of weight count reach it alike
    term = ([kx] * n, [ky] * n)
    re, im = naive_correlation([(*term, 1)], n)[0]
    want = [(re * count, im * count)] * n
    assert _correlate([(*term, 1)] * count, n, count) == want
    assert _correlate([(*term, count)], n, count) == want


@pytest.mark.parametrize("q", [5, 13, 17, 29, 37])
def test_extension_table_every_lambda(q):
    ctx = FiniteFieldCtx(q)
    table = extension_sums(ctx)
    assert len(table) == q and table[:2] == (None, None)
    for lam in range(2, q):
        assert table[lam] == direct_extension_sum(ctx, lam), lam


@pytest.mark.parametrize("q", [41, 53, 61])
def test_extension_table_seeded_lambdas(q):
    ctx = FiniteFieldCtx(q)
    table = extension_sums(ctx)
    for lam in random.Random(q).sample(range(2, q), 3):
        assert table[lam] == direct_extension_sum(ctx, lam), lam


def test_extension_table_matches_list_rows():
    for p in (p for p in range(5, 200) if p % 4 == 1 and is_prime(p)):
        index = FiniteFieldCtx(p).index
        assert _extension_table(index) == list_extension_table(index), p


@pytest.mark.parametrize("q", [13, 17])
@pytest.mark.parametrize("z,shift", [(2, 1), (-1, 2)])
def test_extension_table_checks_character_order(q, z, shift):
    # a shifted entry (odd: nu may change; even: only the counts do)
    # breaks the exact order 4 of chi o Norm
    ctx = FiniteFieldCtx(q)
    index = list(ctx.index)
    assert _extension_table(index) == extension_sums(ctx)
    index[z] = (index[z] + shift) % 4
    with pytest.raises(AssertionError, match="exact order 4"):
        _extension_table(index)


def test_extension_table_built_once_per_context():
    ctx = FiniteFieldCtx(13)
    assert extension_sums(ctx) is extension_sums(ctx)


def test_compute_record_sums_each_fiber_once(monkeypatch):
    calls = []
    real = a1lab.trace_sums

    def counting(ctx, values):
        calls.append(len(values))
        return real(ctx, values)

    monkeypatch.setattr(a1lab, "trace_sums", counting)
    ctx = FiniteFieldCtx(13)
    rec = compute_record(ctx, 3)
    assert calls == [13 - 3]
    assert csv_row(rec) == FROZEN_ROWS[(13, 3)]


@pytest.mark.parametrize("q,lam", [(5, 3), (13, 3), (17, 16)])
def test_compute_record_evaluates_f_once_per_point(monkeypatch, q, lam):
    calls = []
    real = a1lab._f_value

    def counting(ctx, lam, x):
        calls.append(x)
        return real(ctx, lam, x)

    monkeypatch.setattr(a1lab, "_f_value", counting)
    rec = compute_record(FiniteFieldCtx(q), lam)
    assert len(calls) == len(set(calls)) == q - 3
    if (q, lam) in FROZEN_ROWS:
        assert csv_row(rec) == FROZEN_ROWS[(q, lam)]


# ----------------------------------------------------------- ramification

def _poly_root_multiplicity(coeffs, root):
    """Multiplicity of `root` in the polynomial with Fraction coeffs
    (ascending order)."""
    mult = 0
    while True:
        value = sum(c * root ** k for k, c in enumerate(coeffs))
        if value != 0:
            return mult
        # synthetic division by (x - root)
        out = [Fraction(0)] * (len(coeffs) - 1)
        carry = Fraction(0)
        for k in range(len(coeffs) - 1, 0, -1):
            carry = coeffs[k] + carry * root
            out[k - 1] = carry
        coeffs = out
        mult += 1


@pytest.mark.parametrize("lam", [Fraction(2), Fraction(7, 3), Fraction(-4)])
def test_ramification_orders_of_f(lam):
    # f = (lam x - 1) / (lam x (x - 1)): simple poles at 0 and 1, simple
    # zeros at 1/lam and infinity, so each of the four points is totally
    # ramified on the 4-cover and contributes gcd(4, 1) = 1 point.
    # Riemann-Hurwitz: 2g - 2 = 4(-2) + 4*3 gives genus 3.
    num = [Fraction(-1), lam]
    den = [Fraction(0), -lam, lam]
    for pt, expected in ((Fraction(0), -1), (Fraction(1), -1),
                        (1 / lam, 1)):
        ord_pt = (_poly_root_multiplicity(num, pt)
                  - _poly_root_multiplicity(den, pt))
        assert ord_pt == expected
    assert (len(den) - 1) - (len(num) - 1) == 1  # ord at infinity


# -------------------------------------------------------------------- scan

def test_scan_row_count_and_order():
    recs = scan([5, 13])
    assert len(recs) == 3 + 11
    keys = [(r.q, r.lam) for r in recs]
    assert keys == sorted(keys)


def test_scan_rejects_bad_primes():
    for bad in ([7], [9], [4], [5, 11]):
        with pytest.raises(ValueError):
            scan(bad)


def test_scan_refuses_q_over_the_bound_before_any_context(monkeypatch):
    assert is_prime(1021) and 1021 % 4 == 1 and 1021 <= MAX_Q < 1033

    def no_context(p):
        raise RuntimeError(f"a context for {p} was built")

    monkeypatch.setattr(a1lab, "FiniteFieldCtx", no_context)
    for bad in ([1033], [5, 1033], [1033, 5], [10 ** 18 + 9]):
        with pytest.raises(ValueError, match=f"bound MAX_Q = {MAX_Q}"):
            scan(bad)


def test_scan_builds_one_context_per_prime(monkeypatch, capsys):
    built = []

    class Counting(FiniteFieldCtx):
        def __init__(self, p):
            built.append(p)
            super().__init__(p)

    monkeypatch.setattr(a1lab, "FiniteFieldCtx", Counting)
    assert main(["a1", "--primes", "5,13"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["fibers"] == 3 + 11
    assert built == [5, 13]


# Under -O no assert statement runs; every identity must still be checked.
# Adding 2i to one extension sum changes only the imaginary part of
# t1^2 + E, which no identity but "the eigenvalue product is a rational
# integer" can see.  `main` starts from cold caches, so the sum is shifted
# where the table is built.
_CORRUPT_SCAN = """
import sys
from excmono import a1lab
from excmono.cli import main
from excmono.obs import CheckFailed
real = a1lab._extension_table
def corrupted(index):
    table = list(real(index))
    table[5] = (table[5][0], table[5][1] + {shift})
    return tuple(table)
a1lab._extension_table = corrupted
sys.exit(main(["a1", "--primes", "13"]))
"""


@pytest.mark.parametrize("shift,code", [(0, 0), (2, 1)])
def test_identities_checked_under_optimize(shift, code):
    src = str(Path(excmono.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_SCAN.format(shift=shift)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code:
        assert "check failed" in proc.stderr
        assert "not an even rational integer" in proc.stderr


def test_scan_deterministic():
    assert render_csv(a1_result([5, 13])["records"]) == \
        render_csv(a1_result([5, 13])["records"])


def test_csv_and_json_shapes():
    data = a1_result([5])["records"]
    lines = render_csv(data).splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + 3
    assert [d["lambda"] for d in data] == [2, 3, 4]
    assert all(d["sym2_over_q"] == 1 for d in data)
    assert data[1]["sym2_symmetric"] == -1
