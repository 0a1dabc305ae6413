"""Prime tests, prime factors, least primitive roots, and the units i^k."""

from __future__ import annotations

from math import isqrt

from .obs import check, clip

# Re and Im of i^k for k = 0..3; k = 4 stands for chi(0) = 0
UNIT_RE = (1, 0, -1, 0, 0)
UNIT_IM = (0, 1, 0, -1, 0)


def is_prime(n: int) -> bool:
    """Primality by trial division, for n < 2^31 (about 2 ms at 2^31 - 1,
    where 10^18 would take minutes); OverflowError from 2^31 on."""
    if n >= 1 << 31:
        raise OverflowError(
            f"{clip(str(n))} is at or above the bound 2^31 for prime tests")
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending."""
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


def least_primitive_root(p: int) -> int:
    """Least generator of the unit group of F_p, for an odd prime p."""
    factors = prime_factors(p - 1)
    g = next((g for g in range(2, p)
              if all(pow(g, (p - 1) // f, p) != 1 for f in factors)), None)
    check("primitive-root", g is not None, "no primitive root mod {}", p)
    return g
