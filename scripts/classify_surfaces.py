#!/usr/bin/env python3
"""Spin-structure classification counts on closed genus-g surfaces.

Counts the equivalence classes of admissible edge-sign assignments
(expected 2^(2g)) and the split of classes by Arf invariant
(2^(g-1)(2^g + 1) even, 2^(g-1)(2^g - 1) odd); exits 1 when either
differs.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass

from spinsum.spin import arf_invariant, classify_spin_structures, \
    symplectic_basis
from spinsum.surface import genus_g_closed_detail


@dataclass(frozen=True)
class Config:
    max_genus: int


def run(cfg: Config) -> bool:
    """Print the counts; True iff every genus has the expected ones."""
    all_ok = True
    for g in range(cfg.max_genus + 1):
        detail = genus_g_closed_detail(g)
        classes = classify_spin_structures(detail.tri)
        basis = symplectic_basis(detail)
        arfs = Counter(arf_invariant(detail, s, basis) for s in classes)
        even, odd = 2 ** g * (2 ** g + 1) // 2, 2 ** g * (2 ** g - 1) // 2
        ok = len(classes) == 4 ** g and (arfs[1], arfs[-1]) == (even, odd)
        print(f"genus {g}: {len(classes)} classes "
              f"(expected {4 ** g}); arf +1: {arfs[1]}, arf -1: {arfs[-1]} "
              f"(expected {even}, {odd}) [{'ok' if ok else 'MISMATCH'}]")
        all_ok = all_ok and ok
    return all_ok


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--max-genus", type=int, default=2)
    args = p.parse_args()
    sys.exit(0 if run(Config(max_genus=args.max_genus)) else 1)


if __name__ == "__main__":
    main()
