"""Sparse exact tensors with Z2-graded (super vector space) legs.

A ``GradedTensor`` is a morphism between tensor powers of graded vector
spaces: it has an ordered tuple of output legs and an ordered tuple of
input legs, each leg carrying a parity vector (one parity bit per basis
index).  Coefficients are stored sparsely, keyed by the concatenation of
output indices and input indices.

Sign discipline: every structure map handled here (multiplication, unit,
counit, pairing, copairing, Nakayama map, the triangle tensor) is
parity-even, and composition/tensor product of even morphisms carries no
Koszul sign.  So ``precompose``, the one composition loop, only
multiplies entries: it composes a morphism into a group of adjacent
input legs, and ``compose`` is its case of all input legs.  All Koszul
signs therefore live in explicit permutations: ``braiding`` legs,
``permute_out``/``permute_in``, and the relabel of the amplitude's
outputs as inputs in ``flip_out_to_in``.  Each of those multiplies an
entry by (-1)^(sum of |a||b| over inverted pairs).

The permutations and the relabel build no Python generator per entry: a
permutation remaps each key with one ``operator.itemgetter``
(``key_getter``), and only an inverted pair of legs that both have odd
basis vectors can negate an entry.  On legs without odd basis vectors
the relabel is a plain copy of the entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from operator import getitem, itemgetter
from typing import Sequence

from .fields import Field

Parities = tuple[int, ...]


class BudgetExceeded(RuntimeError):
    pass


def key_getter(positions):
    """C-level ``lambda key: tuple(key[q] for q in positions)``."""
    if len(positions) < 2:  # itemgetter of one position gives a bare item
        start = positions[0] if positions else 0
        return itemgetter(slice(start, start + len(positions)))
    return itemgetter(*positions)


def inversion_pairs(new_order: Sequence[int]) -> list[tuple[int, int]]:
    """Pairs (a, b) of old positions with a < b whose order is inverted.

    ``new_order[q] = p`` means new position q is filled by old position p.
    """
    pos = {old: new for new, old in enumerate(new_order)}
    n = len(new_order)
    return [(a, b) for a in range(n) for b in range(a + 1, n)
            if pos[a] > pos[b]]


@dataclass
class GradedTensor:
    field: Field
    out_legs: tuple[Parities, ...]
    in_legs: tuple[Parities, ...]
    data: dict[tuple[int, ...], object] = dc_field(default_factory=dict)

    # -- construction ---------------------------------------------------
    @staticmethod
    def zero(field, out_legs, in_legs) -> "GradedTensor":
        return GradedTensor(field, tuple(map(tuple, out_legs)),
                            tuple(map(tuple, in_legs)), {})

    @staticmethod
    def scalar(field, value) -> "GradedTensor":
        t = GradedTensor(field, (), (), {})
        if not field.is_zero(value):
            t.data[()] = value
        return t

    @staticmethod
    def identity(field, leg: Parities, n: int = 1) -> "GradedTensor":
        legs = tuple([tuple(leg)] * n)
        t = GradedTensor(field, legs, legs, {})
        dim = len(leg)
        if n == 0:
            t.data[()] = field.one()
            return t
        for idx in itertools.product(range(dim), repeat=n):
            t.data[idx + idx] = field.one()
        return t

    @staticmethod
    def from_matrix(field, leg_out: Parities, leg_in: Parities, M) -> "GradedTensor":
        t = GradedTensor(field, (tuple(leg_out),), (tuple(leg_in),), {})
        for i, row in enumerate(M):
            for j, v in enumerate(row):
                if not field.is_zero(v):
                    t.data[(i, j)] = v
        return t

    @staticmethod
    def braiding(field, leg_a: Parities, leg_b: Parities) -> "GradedTensor":
        """sigma_{A,B}: A (x) B -> B (x) A with entry (-1)^{|a||b|}."""
        t = GradedTensor(field, (tuple(leg_b), tuple(leg_a)),
                         (tuple(leg_a), tuple(leg_b)), {})
        one = field.one()
        for a in range(len(leg_a)):
            for b in range(len(leg_b)):
                v = field.neg(one) if leg_a[a] * leg_b[b] else one
                t.data[(b, a, a, b)] = v
        return t

    # -- basic queries --------------------------------------------------
    @property
    def n_out(self) -> int:
        return len(self.out_legs)

    @property
    def n_in(self) -> int:
        return len(self.in_legs)

    def is_zero(self) -> bool:
        return not self.data

    def scalar_value(self):
        if self.out_legs or self.in_legs:
            raise ValueError("scalar_value needs a tensor without legs")
        return self.data.get((), self.field.zero())

    def as_matrix(self):
        if self.n_out != 1 or self.n_in != 1:
            raise ValueError("as_matrix needs one out and one in leg")
        n, m = len(self.out_legs[0]), len(self.in_legs[0])
        M = [[self.field.zero()] * m for _ in range(n)]
        for (i, j), v in self.data.items():
            M[i][j] = v
        return M

    def _set(self, key, val):
        if self.field.is_zero(val):
            self.data.pop(key, None)
        else:
            self.data[key] = val

    def _add_to(self, key, val):
        cur = self.data.get(key)
        if cur is None:
            if not self.field.is_zero(val):
                self.data[key] = val
        else:
            s = self.field.add(cur, val)
            self._set(key, s)

    def __eq__(self, other):
        if not isinstance(other, GradedTensor):
            return NotImplemented
        return (self.out_legs == other.out_legs and self.in_legs == other.in_legs
                and self.data == other.data)

    # -- algebra of morphisms -------------------------------------------
    def compose(self, other: "GradedTensor") -> "GradedTensor":
        """self o other (apply other first)."""
        if self.in_legs != other.out_legs:
            raise ValueError("leg mismatch in compose")
        return self.precompose(0, other)

    def precompose(self, i: int, m: "GradedTensor") -> "GradedTensor":
        """self o (id^(x)i (x) m (x) id^(x)...): the m.n_out input legs of
        self from leg i on become m's input legs.

        Valid without extra signs because all generator tensors are even;
        composition of morphisms never introduces Koszul signs.
        """
        k, p = m.n_out, self.n_out + i  # p: the key position of input leg i
        if not 0 <= i <= self.n_in or m.out_legs != self.in_legs[i:i + k]:
            raise ValueError("leg mismatch in precompose")
        F = self.field
        by_out: dict[tuple, list] = {}
        for key, w in m.data.items():
            by_out.setdefault(key[:k], []).append((key[k:], w))
        # products of nonzero entries are nonzero, so only a sum can vanish
        data, summed = {}, False
        for key, v in self.data.items():
            hits = by_out.get(key[p:p + k])
            if hits:
                head, tail = key[:p], key[p + k:]
                for mk, w in hits:
                    nk = head + mk + tail
                    if nk in data:
                        data[nk], summed = F.add(data[nk], F.mul(v, w)), True
                    else:
                        data[nk] = F.mul(v, w)
        if summed:
            data = {nk: x for nk, x in data.items() if not F.is_zero(x)}
        return GradedTensor(F, self.out_legs, self.in_legs[:i] + m.in_legs
                            + self.in_legs[i + k:], data)

    def tensor(self, other: "GradedTensor") -> "GradedTensor":
        """Tensor product; sign-free for even morphisms (the only kind built here)."""
        F = self.field
        out = GradedTensor(F, self.out_legs + other.out_legs,
                           self.in_legs + other.in_legs, {})
        no1 = self.n_out
        no2 = other.n_out
        data = out.data
        mul = F.mul
        # keys are distinct and a field has no zero divisors, so entries
        # can be stored directly
        for k1, v1 in self.data.items():
            o1, i1 = k1[:no1], k1[no1:]
            for k2, v2 in other.data.items():
                data[o1 + k2[:no2] + i1 + k2[no2:]] = mul(v1, v2)
        return out

    def scale(self, c) -> "GradedTensor":
        F = self.field
        out = GradedTensor(F, self.out_legs, self.in_legs, {})
        for k, v in self.data.items():
            out._add_to(k, F.mul(c, v))
        return out

    def add(self, other: "GradedTensor") -> "GradedTensor":
        if self.out_legs != other.out_legs or self.in_legs != other.in_legs:
            raise ValueError("leg mismatch in add")
        out = GradedTensor(self.field, self.out_legs, self.in_legs, dict(self.data))
        for k, v in other.data.items():
            out._add_to(k, v)
        return out

    # -- Koszul permutations --------------------------------------------
    def permute_out(self, new_order: Sequence[int]) -> "GradedTensor":
        """Reorder output legs; new_order[q] = old output position at new q."""
        return self._permute(new_order, True)

    def permute_in(self, new_order: Sequence[int]) -> "GradedTensor":
        """Reorder input legs; new_order[q] = old input position at new q."""
        return self._permute(new_order, False)

    def _permute(self, new_order, on_out: bool) -> "GradedTensor":
        """Reorder the output legs (``on_out``) or the input legs.

        One ``itemgetter`` over the whole key remaps each key.  Only an
        inverted pair of legs that both have odd basis vectors can carry a
        sign, so the sign is read off the indices on those legs: it is
        worked out once per distinct index tuple there, and the pass over
        the entries is one dict comprehension.
        """
        legs = self.out_legs if on_out else self.in_legs
        n = len(legs)
        if sorted(new_order) != list(range(n)):
            raise ValueError(f"bad leg permutation {list(new_order)}")
        moved = tuple(legs[p] for p in new_order)
        if on_out:
            out = GradedTensor(self.field, moved, self.in_legs, {})
        else:
            out = GradedTensor(self.field, self.out_legs, moved, {})
        start = 0 if on_out else self.n_out
        end = start + n
        remap = key_getter([*range(start), *(start + p for p in new_order),
                            *range(end, self.n_out + self.n_in)])
        signed = [(a, b) for a, b in inversion_pairs(new_order)
                  if any(legs[a]) and any(legs[b])]
        # keys stay distinct under a permutation: store directly
        if not signed:
            out.data = {remap(key): v for key, v in self.data.items()}
            return out
        involved = sorted({p for pair in signed for p in pair})
        at = {p: i for i, p in enumerate(involved)}
        # invmask[i] = involved legs j > i whose pair (i, j) is inverted
        invmask = [0] * len(involved)
        for a, b in signed:
            invmask[at[a]] |= 1 << at[b]
        parities = [legs[p] for p in involved]
        sget = key_getter([start + p for p in involved])
        odd = set()
        for idx in {sget(key) for key in self.data}:
            m = 0
            for i, x in enumerate(idx):
                if parities[i][x]:
                    m |= 1 << i
            s = 0
            mm = m
            while mm:
                low = mm & -mm
                s ^= (m & invmask[low.bit_length() - 1]).bit_count() & 1
                mm ^= low
            if s:
                odd.add(idx)
        neg = self.field.neg
        out.data = {remap(key): neg(v) if sget(key) in odd else v
                    for key, v in self.data.items()}
        return out

    # -- relabel as inputs ----------------------------------------------
    def flip_out_to_in(self) -> "GradedTensor":
        """Relabel every output leg as an input leg, keeping each key.

        The amplitude turns outputs into inputs by b^{(x)m} o tau o
        (id^{(x)m} (x) self), where tau pairs the i'th new input with the
        i'th output.  ``eval.contract_graph`` has already absorbed b into
        the boundary edges, so only tau's crossing sign is left: an entry
        with k odd indices gets (-1)^(k(k-1)/2), one factor per pair of
        odd legs.  Without odd basis vectors the entries are copied as
        they are.
        """
        if self.n_in != 0:
            raise ValueError("flip_out_to_in needs a tensor without in legs")
        F = self.field
        legs = self.out_legs
        if not any(map(any, legs)):
            return GradedTensor(F, (), legs, dict(self.data))
        # flip[k]: whether an entry with k odd indices is negated
        flip = [k * (k - 1) // 2 % 2 for k in range(len(legs) + 1)]
        neg = F.neg
        return GradedTensor(F, (), legs, {
            key: neg(v) if flip[sum(map(getitem, legs, key))] else v
            for key, v in self.data.items()})
