"""Linear algebra over GF(2) on bitmask-encoded vectors.

Vectors in F_2^n are Python ints (bit i = coordinate i).  Systems are
given as rows ``(mask, rhs)`` meaning ``parity(x & mask) == rhs``.
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


def solve_affine(n: int, rows: Iterable[tuple[int, int]]) -> AffineSolutionSpace | None:
    """Solve the system; returns None if inconsistent."""
    # Row-reduce (mask, rhs) pairs, tracking pivot columns.
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in rows:
        mask &= (1 << n) - 1
        rhs &= 1
        while mask:
            p = mask.bit_length() - 1
            if p in pivots:
                pm, pr = pivots[p]
                mask ^= pm
                rhs ^= pr
            else:
                pivots[p] = (mask, rhs)
                break
        else:
            if rhs:
                return None
    # Back-substitute to make each pivot column appear in exactly one row.
    cols = sorted(pivots, reverse=True)
    for p in cols:
        pm, pr = pivots[p]
        for q in cols:
            if q > p and (pivots[q][0] >> p) & 1:
                qm, qr = pivots[q]
                pivots[q] = (qm ^ pm, qr ^ pr)
    particular = 0
    for p, (_, pr) in pivots.items():
        if pr:
            particular |= 1 << p
    free = [i for i in range(n) if i not in pivots]
    basis = []
    for f in free:
        v = 1 << f
        for p, (pm, _) in pivots.items():
            if (pm >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return AffineSolutionSpace(n, particular, basis)


def echelon_basis(vectors: Iterable[int]) -> list[int]:
    """Echelon basis of the span: distinct leading bits, highest first.
    Not reduced: a vector may hold the leading bit of a later one."""
    basis: list[int] = []
    for v in vectors:
        v = _reduce(basis, v)
        if v:
            basis.append(v)
            basis.sort(key=int.bit_length, reverse=True)
    return basis


def _reduce(basis: list[int], v: int) -> int:
    changed = True
    while changed:
        changed = False
        for b in basis:
            if v and (v >> (b.bit_length() - 1)) & 1:
                v ^= b
                changed = True
    return v


def reduce_against(basis: list[int], v: int) -> int:
    """Reduce v against a spanning set (not necessarily echelon)."""
    eb = echelon_basis(basis)
    for b in eb:
        if v and (v >> (b.bit_length() - 1)) & 1:
            v ^= b
    return v


def coset_representatives(space: AffineSolutionSpace,
                          subspace_gens: list[int]) -> list[int]:
    """Representatives of space modulo the span of subspace_gens.

    Representatives are elements of `space` no two of which differ by an
    element of the subspace span.  They are produced as particular +
    span(C) where C is a basis of the direction space complementary to
    the subspace, so the count is 2^(dim - rank of the subspace part)
    without enumerating the space.
    """
    acc = echelon_basis(subspace_gens)
    comp: list[int] = []
    for b in space.basis:
        v = b
        for w in acc:
            if v and (v >> (w.bit_length() - 1)) & 1:
                v ^= w
        if v:
            # no vector of acc holds the leading bit of an earlier one,
            # so one pass in list order reduces fully
            comp.append(v)
            acc.append(v)
    return list(AffineSolutionSpace(space.n, space.particular, comp))
