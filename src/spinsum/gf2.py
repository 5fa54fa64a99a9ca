"""Linear algebra over GF(2) on bitmask-encoded vectors.

Vectors in F_2^n are Python ints (bit i = coordinate i).  Systems are
given as rows ``(mask, rhs)`` meaning ``parity(x & mask) == rhs``.

Every routine runs on one elimination: ``_echelon`` keys vectors by
their leading bit and ``_reduce`` clears those pivot bits of a vector,
highest first; a full reduction is unique given the span and its pivots.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def parity(x: int) -> int:
    return x.bit_count() & 1


class AffineSolutionSpace:
    """Solution set { particular + span(basis) } of an affine F_2 system."""

    def __init__(self, n: int, particular: int, basis: list[int]):
        self.n = n
        self.particular = particular
        self.basis = list(basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __iter__(self) -> Iterator[int]:
        for k in range(1 << self.dim):
            x = self.particular
            for i, b in enumerate(self.basis):
                if (k >> i) & 1:
                    x ^= b
            yield x


def _reduce(pivots: dict[int, int], v: int) -> int:
    """v with each pivot bit cleared, highest first; pivots[p] leads at p."""
    p = v.bit_length()
    while rest := v & ((1 << p) - 1):  # the bits below the last one seen
        p = rest.bit_length() - 1
        if p in pivots:
            v ^= pivots[p]
    return v


def _echelon(vectors: Iterable[int], pivots: dict[int, int]) -> dict[int, int]:
    """pivots grown by each vector reduced against those before it, keyed
    by leading bit; new keys follow in the order of ``vectors``."""
    for v in vectors:
        v = _reduce(pivots, v)
        if v:
            pivots[v.bit_length() - 1] = v
    return pivots


def solve_affine(n: int, rows: Iterable[tuple[int, int]]) -> AffineSolutionSpace | None:
    """Solve the system; returns None if inconsistent.

    Row (mask, rhs) is eliminated as mask << 1 | rhs, so a pivot at bit 0
    reads 0 = 1.  Each pivot row reduced against the others, the rows give
    the particular solution and one basis vector per free column, in order.
    """
    pivots = _echelon([(m << 1 | r & 1) & ((2 << n) - 1) for m, r in rows], {})
    if 0 in pivots:
        return None
    for p, row in pivots.items():
        pivots[p] = 1 << p | _reduce(pivots, row ^ 1 << p)

    def column(c):  # bit c of each pivot row, at its pivot column p - 1
        return sum(1 << (p - 1) for p, row in pivots.items() if (row >> c) & 1)
    basis = [1 << f | column(f + 1) for f in range(n) if f + 1 not in pivots]
    return AffineSolutionSpace(n, column(0), basis)


def echelon_basis(vectors: Iterable[int]) -> list[int]:
    """Echelon basis of the span: distinct leading bits, highest first.
    Not reduced: a vector may hold the leading bit of a later one."""
    return sorted(_echelon(vectors, {}).values(), reverse=True)


def reduce_against(basis: list[int], v: int) -> int:
    """Reduce v against a spanning set (not necessarily echelon)."""
    return _reduce(_echelon(basis, {}), v)


def coset_representatives(space: AffineSolutionSpace,
                          subspace_gens: list[int]) -> list[int]:
    """Representatives of space modulo the span of subspace_gens.

    Representatives are elements of `space` no two of which differ by an
    element of the subspace span.  They are produced as particular +
    span(C) where C is a basis of the direction space complementary to
    the subspace, so the count is 2^(dim - rank of the subspace part)
    without enumerating the space.
    """
    sub = _echelon(subspace_gens, {})
    # C: the basis vectors that stay independent of sub and of those kept
    # before them, each reduced; _echelon adds their keys after sub's
    comp = list(_echelon(space.basis, dict(sub)).values())[len(sub):]
    return list(AffineSolutionSpace(space.n, space.particular, comp))
