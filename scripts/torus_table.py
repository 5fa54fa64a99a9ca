#!/usr/bin/env python3
"""Print the torus amplitude table T(T_delta^eps) for one or all algebras.

For each spin structure on the torus, selected by a boundary type
delta in {NS, R} and a gluing sign eps in {+1, -1}, the script
evaluates the state sum on a fixed triangulation and compares it with
the closed-form expression.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from spinsum.algebra import BUILTIN_NAMES, builtin_by_name
from spinsum.eval import evaluate_raw
from spinsum.spin import NS, R_TYPE
from spinsum import tft


@dataclass(frozen=True)
class Config:
    algebras: tuple[str, ...]


def run(cfg: Config) -> bool:
    """Print the table; True iff every amplitude equals its closed form."""
    all_ok = True
    for name in cfg.algebras:
        A = builtin_by_name(name)
        print(f"== {name} ==")
        t0 = time.monotonic()
        for delta in (NS, R_TYPE):
            for eps in (1, -1):
                tri, signs = tft.torus_spin(delta, eps)
                amp = evaluate_raw(tri, signs, A).scalar_value()
                oracle = tft.torus_closed_form(A, delta, eps)
                tag = "ok" if amp == oracle else "MISMATCH"
                all_ok = all_ok and amp == oracle
                print(f"  T({delta}{'+' if eps == 1 else '-'}) = {amp}"
                      f"   closed form {oracle}   [{tag}]")
        print(f"  ({time.monotonic() - t0:.2f}s)")
    return all_ok


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--algebra", default="clifford",
                   choices=(*BUILTIN_NAMES, "all"))
    args = p.parse_args()
    names = BUILTIN_NAMES if args.algebra == "all" else (args.algebra,)
    sys.exit(0 if run(Config(algebras=tuple(names))) else 1)


if __name__ == "__main__":
    main()
