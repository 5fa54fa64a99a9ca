#!/usr/bin/env python3
"""Random bistellar-move fuzzing of amplitude invariance.

Starting from a reference spin cylinder, pair of pants or closed genus-2
surface (its first spin class), apply a long random sequence of 1-3, 3-1
and 2-2 moves (each transporting the edge signs), re-evaluating the
amplitude periodically.  Any change in the amplitude is a bug.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from spinsum.algebra import BUILTIN_NAMES, builtin_by_name
from spinsum.pachner import run_pachner_fuzz
from spinsum.spin import NS, R_TYPE, classify_spin_structures
from spinsum.surface import genus_g_closed_detail
from spinsum.tensor import BudgetExceeded
from spinsum import tft


@dataclass(frozen=True)
class Config:
    algebra: str
    surface: str
    seeds: tuple[int, ...]
    moves: int
    check_every: int


def _fixture(surface: str):
    if surface == "cylinder":
        return tft.cylinder_spin(NS, 1)
    if surface == "pants":
        return tft.pants_spin((R_TYPE, R_TYPE, NS), 1, -1)
    if surface == "genus-2":
        tri = genus_g_closed_detail(2).tri
        return tri, classify_spin_structures(tri)[0], ()
    raise SystemExit(f"unknown surface {surface!r}")


def run(cfg: Config) -> bool:
    """Fuzz every seed; True iff every checkpoint kept the amplitude."""
    A = builtin_by_name(cfg.algebra)
    all_ok = True
    for seed in cfg.seeds:
        tri, signs, types = _fixture(cfg.surface)
        t0 = time.monotonic()
        try:
            ok, log, _ = run_pachner_fuzz(tri, signs, types, A, seed=seed,
                                          n_moves=cfg.moves,
                                          check_every=cfg.check_every)
        except BudgetExceeded as exc:
            print(f"error: budget exceeded: {exc}", file=sys.stderr)
            sys.exit(2)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(2)
        verdict = "pass" if ok else f"FAIL after move {len(log)}"
        print(f"seed {seed}: {cfg.moves} moves on {cfg.surface} with "
              f"{cfg.algebra}: {verdict} ({time.monotonic() - t0:.2f}s)")
        all_ok = all_ok and ok
    return all_ok


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--algebra", default="clifford", choices=BUILTIN_NAMES)
    p.add_argument("--surface", default="cylinder",
                   choices=("cylinder", "pants", "genus-2"))
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    p.add_argument("--moves", type=int, default=200)
    p.add_argument("--check-every", type=int, default=25)
    args = p.parse_args()
    ok = run(Config(algebra=args.algebra, surface=args.surface,
                    seeds=tuple(args.seeds), moves=args.moves,
                    check_every=args.check_every))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
