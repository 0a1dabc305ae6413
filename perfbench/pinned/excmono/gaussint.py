"""Exact Gaussian integers.

The character and representation arithmetic downstream needs fourth roots
of unity with exact equality tests; float complex is not acceptable there.
"""

from __future__ import annotations


class Zi:
    """a + b*i with integer a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0):
        self.re = re
        self.im = im

    def __add__(self, other) -> "Zi":
        other = _coerce(other)
        return Zi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "Zi":
        other = _coerce(other)
        return Zi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "Zi":
        return _coerce(other) - self

    def __mul__(self, other) -> "Zi":
        other = _coerce(other)
        return Zi(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __neg__(self) -> "Zi":
        return Zi(-self.re, -self.im)

    def __pow__(self, n: int) -> "Zi":
        out, base = Zi(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "Zi":
        return Zi(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        return f"{self.re}{self.im:+}i"


def _coerce(x) -> Zi:
    return x if isinstance(x, Zi) else Zi(int(x))


ONE = Zi(1)
I = Zi(0, 1)
ZERO = Zi(0)
