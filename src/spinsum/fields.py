"""Exact scalar arithmetic: the rationals and prime fields.

Every computation in this package is exact; a field is a small dispatch
object whose elements are plain Python values (``Fraction`` for the
rationals, ints in ``range(p)`` for a prime field).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class Field:
    """Common interface for exact fields.

    Each field defines ``zero``, ``one``, ``of`` (coerce an int, a "p/q"
    string or a native element), ``add``, ``sub``, ``mul``, ``neg``,
    ``inv``, ``is_zero``, the ``characteristic`` property and
    ``to_json``; ``div`` and ``format`` are shared.
    """

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def format(self, a) -> str:
        return str(a)


@dataclass(frozen=True)
class RationalField(Field):
    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def is_zero(self, a):
        return not a

    def of(self, x):
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

    def is_zero(self, a):
        return a == 0

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
        p = obj["Fp"]
        if type(p) is not int:
            raise ValueError(f"field characteristic {p!r} is not an integer")
        return PrimeField(p)
    raise ValueError(f"unrecognized field spec: {obj!r}")


def row_reduce(F: Field, M):
    """(rows, pivots): the nonzero rows of the reduced row echelon form of
    M and the pivot column of each; row k is 1 at pivots[k] and 0 at the
    other pivots.  The only elimination over a general field."""
    rows = [list(r) for r in M]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        k = len(pivots)
        piv = next((r for r in range(k, len(rows))
                    if not F.is_zero(rows[r][col])), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        inv = F.inv(rows[k][col])
        rows[k] = [F.mul(inv, x) for x in rows[k]]
        for r in range(len(rows)):
            if r != k and not F.is_zero(rows[r][col]):
                f = rows[r][col]
                rows[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[r], rows[k])]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return rows[:len(pivots)], pivots


def mat_inverse(F: Field, A):
    """Inverse by row-reducing [A | I]; raises ValueError on singular input."""
    n = len(A)
    rows, pivots = row_reduce(F, [
        list(row) + [F.one() if i == j else F.zero() for j in range(n)]
        for i, row in enumerate(A)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in rows]
