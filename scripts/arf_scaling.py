#!/usr/bin/env python3
"""Amplitudes of closed genus-g surfaces versus the Arf invariant.

For every spin structure class on a closed genus-g surface the state
sum with the Clifford algebra equals 2^(1-g) times the Arf invariant
of its quadratic form.  This script tabulates both sides per class and
reports the multiset of amplitudes for each genus.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from fractions import Fraction

from spinsum.algebra import builtin_clifford
from spinsum.eval import evaluate_raw
from spinsum.spin import arf_invariant, classify_spin_structures, \
    symplectic_basis
from spinsum.surface import genus_g_closed_detail


def run(max_genus: int) -> bool:
    """Tabulate every genus; True iff no class mismatches."""
    A = builtin_clifford()
    total = 0
    for g in range(max_genus + 1):
        t0 = time.monotonic()
        detail = genus_g_closed_detail(g)
        basis = symplectic_basis(detail)
        amps, mismatches = [], 0
        for signs in classify_spin_structures(detail.tri):
            amp = evaluate_raw(detail.tri, signs, A).scalar_value()
            arf = arf_invariant(detail, signs, basis)
            if amp != Fraction(2) ** (1 - g) * arf:
                mismatches += 1
            amps.append(amp)
        hist = ", ".join(f"{v} x{c}" for v, c in sorted(Counter(amps).items()))
        print(f"genus {g}: {len(amps)} classes, amplitudes {{{hist}}}, "
              f"{mismatches} mismatches with 2^(1-g)*Arf "
              f"({time.monotonic() - t0:.2f}s)")
        total += mismatches
    return total == 0


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--max-genus", type=int, default=2)
    args = p.parse_args()
    sys.exit(0 if run(args.max_genus) else 1)


if __name__ == "__main__":
    main()
