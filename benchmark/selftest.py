#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 benchmark/selftest.py

For every workload it makes a one-second untraced run and two one-second
traced runs with the same seed, and checks that

- each run passes and prints the result line the benchmark contract asks
  for, with exactly the metric names and units of BENCHMARK.json;
- the two traced runs report identical counters;
- a run whose program output is made wrong (each algebra is swapped for
  another built-in after set-up, so the oracles no longer hold) reports
  failed ops, ``correct: false`` and exits non-zero.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads
from tracing import COUNTERS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 7


def result_line(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def invoke(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{name} trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return result_line(proc.stdout)


def check_names(result: dict, declared: list[dict]):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"printed metrics {got} != declared {want}")


def swap_algebras(wl):
    """The workload with each algebra replaced after set-up."""
    def setup(ss, seed):
        fx = wl.setup(ss, seed)
        names = ss.algebra.BUILTIN_NAMES
        fx["algebras"] = [
            ss.algebra.builtin_by_name(
                names[(names.index(A.name) + 1) % len(names)])
            for A in fx["algebras"]]
        return fx
    return dataclasses.replace(wl, setup=setup)


def check_mismatch_fails(name: str):
    wl = workloads.WORKLOADS[name]
    workloads.WORKLOADS[name] = swap_algebras(wl)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", name, "--seed", str(SEED),
                             "--seconds", "1", "--trace", "0"])
    finally:
        workloads.WORKLOADS[name] = wl
    result = result_line(out.getvalue())
    if code == 0 or result["correct"] or result["failed"] < 1:
        raise AssertionError(f"{name}: wrong outputs not reported: "
                             f"exit {code}, {result}")


def main() -> int:
    declared = {w["name"]: w["why"] for w in SPEC["workloads"]}
    if declared != {n: w.why for n, w in workloads.WORKLOADS.items()}:
        raise AssertionError("BENCHMARK.json workloads differ from "
                             "workloads.py")
    for name in workloads.WORKLOADS:
        check_names(invoke(name, 0), SPEC["end_to_end"])
        first, second = invoke(name, 1), invoke(name, 1)
        check_names(first, SPEC["per_layer"])
        counters = [{k: r["metrics"][k]["value"] for k in COUNTERS}
                    for r in (first, second)]
        if counters[0] != counters[1]:
            raise AssertionError(f"{name}: counters differ between runs "
                                 f"with seed {SEED}: {counters}")
        check_mismatch_fails(name)
        print(f"ok {name}: counters {counters[0]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
