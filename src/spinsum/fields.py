"""Exact scalar arithmetic: the rationals and prime fields.

Every computation in this package is exact; a field is a small dispatch
object whose elements are plain Python values (``Fraction`` for the
rationals, ints in ``range(p)`` for a prime field).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class Field:
    """Common interface for exact fields."""

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def of(self, x):
        """Coerce an int, string ("p/q"), or native element into the field."""
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == self.zero()

    @property
    def characteristic(self) -> int:
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError

    def format(self, a) -> str:
        return str(a)


@dataclass(frozen=True)
class RationalField(Field):
    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def of(self, x):
        if isinstance(x, str):
            return Fraction(x)
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    @property
    def characteristic(self) -> int:
        return 0

    def to_json(self):
        return "Q"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField(Field):
    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def of(self, x):
        if isinstance(x, str):
            f = Fraction(x)
            return self.div(f.numerator % self.p, f.denominator % self.p)
        if isinstance(x, Fraction):
            return self.div(x.numerator % self.p, x.denominator % self.p)
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    @property
    def characteristic(self) -> int:
        return self.p

    def to_json(self):
        return {"Fp": self.p}


QQ = RationalField()


def field_from_json(obj) -> Field:
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and "Fp" in obj:
        return PrimeField(int(obj["Fp"]))
    raise ValueError(f"unrecognized field spec: {obj!r}")


def mat_mul(F: Field, A, B):
    """Exact matrix product of two lists-of-rows."""
    n, m = len(A), len(B[0])
    k = len(B)
    if any(len(r) != k for r in A):
        raise ValueError(f"mat_mul: left rows must have length {k}")
    out = [[F.zero()] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if F.is_zero(a):
                continue
            Bt = B[t]
            row = out[i]
            for j in range(m):
                row[j] = F.add(row[j], F.mul(a, Bt[j]))
    return out


def mat_inverse(F: Field, A):
    """Gauss-Jordan inverse; raises ValueError on singular input."""
    n = len(A)
    M = [list(row) + [F.one() if i == j else F.zero() for j in range(n)]
         for i, row in enumerate(A)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not F.is_zero(M[r][col]):
                piv = r
                break
        if piv is None:
            raise ValueError("singular matrix")
        M[col], M[piv] = M[piv], M[col]
        inv = F.inv(M[col][col])
        M[col] = [F.mul(inv, x) for x in M[col]]
        for r in range(n):
            if r != col and not F.is_zero(M[r][col]):
                f = M[r][col]
                M[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[r], M[col])]
    return [row[n:] for row in M]


def mat_rank(F: Field, A):
    if not A:
        return 0
    M = [list(row) for row in A]
    n, m = len(M), len(M[0])
    rank = 0
    for col in range(m):
        piv = None
        for r in range(rank, n):
            if not F.is_zero(M[r][col]):
                piv = r
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = F.inv(M[rank][col])
        M[rank] = [F.mul(inv, x) for x in M[rank]]
        for r in range(n):
            if r != rank and not F.is_zero(M[r][col]):
                f = M[r][col]
                M[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank
