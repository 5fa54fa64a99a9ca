#!/usr/bin/env python3
"""Statistical sign sum on a closed surface versus the plus-part value.

The weighted sum of the raw amplitude over all edge-sign assignments
(non-admissible ones contribute zero) is computed as one contraction with
the symmetrised copairing (c_+ + c_-)/2 on every edge, and compared with
the state sum built from the symmetrised algebra A+.  Both equal the
amplitude of the underlying oriented surface.  Any closed reference
surface works: sphere, torus or genus-G.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from spinsum.algebra import BUILTIN_NAMES, builtin_by_name
from spinsum.eval import evaluate_raw
from spinsum.spin import classify_spin_structures
from spinsum.surface import named_closed_detail
from spinsum import tft


@dataclass(frozen=True)
class Config:
    algebra: str
    surface: str


def run(cfg: Config) -> bool:
    """Print the comparison; True iff both sums agree."""
    A = builtin_by_name(cfg.algebra)
    tri = named_closed_detail(cfg.surface).tri
    weighted = tft.statistical_sign_sum(tri, A)
    plus = tft.plus_part_state_sum(tri, A)
    per_class = sorted(evaluate_raw(tri, signs, A).scalar_value()
                       for signs in classify_spin_structures(tri))
    print(f"surface {cfg.surface}, algebra {cfg.algebra}")
    print(f"  weighted sign sum   : {weighted}")
    print(f"  A+ state sum        : {plus}")
    print(f"  per-class amplitudes: {[str(v) for v in per_class]}")
    print(f"  agree: {weighted == plus}")
    return weighted == plus


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--algebra", default="clifford", choices=BUILTIN_NAMES)
    p.add_argument("--surface", default="torus",
                   help="sphere | torus | genus-G")
    args = p.parse_args()
    try:
        ok = run(Config(algebra=args.algebra, surface=args.surface))
    except ValueError as exc:
        p.error(str(exc))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
