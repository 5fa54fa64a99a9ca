#!/usr/bin/env python3
"""The spinsum benchmark: one workload per invocation.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
run is a closed loop with one caller in one single-threaded process: the
next op starts when the previous one has returned.

Set-up (import, cold ``algebra.derive``, fixture surfaces and oracle
values) is repeated ``SETUPS`` times, each from a fresh import with the
derive cache cleared; ``setup_s`` is the median.  Then ops run for
``--seconds`` of wall time and until the end of a round.  Every op is
checked exactly against its oracle; a mismatch or ``BudgetExceeded``
counts as failed.

Times are reported at a reference machine speed.  On a shared host the
speed of one thread switches between regimes about 1.6x apart every few
seconds, so wall times of identical runs spread by about 20 %.  The loop
therefore runs a fixed pure-Python probe every ``PROBE_EVERY_S`` seconds
and scales each op's wall time by ``REFERENCE_PROBE_S`` over the probe
time around it.  The human-readable lines also give the raw wall rate.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the layer functions are wrapped in spans (see tracing.py) and
the last line reports, per layer, the self seconds of one set-up (median)
plus the self seconds per traced op; the exact counters of the last set-up
and the first ``window`` ops; and the tracing overhead: the scaled time of
those ops traced minus untraced.  The exit code is 0 only when every check
passed, 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from tracing import COUNTERS, LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 9
MODULES = ("algebra", "eval", "pachner", "spin", "surface", "tensor", "tft")
PROBE_EVERY_S = 0.4
PROBE_S = 0.02
# probe kernel time in the fast regime of a 2.1 GHz Xeon vCPU, Python 3.11
REFERENCE_PROBE_S = 120e-6

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {**{f"{layer}_s": "s" for layer in LAYERS},
             **{name: "count" for name in COUNTERS},
             "trace.overhead_s": "s", "trace.overhead_ratio": "ratio"}


def _probe_kernel():
    """Fixed work of the package's kind: tuple-keyed dicts, ints, Fractions."""
    table, acc = {}, Fraction(0)
    for k in range(400):
        key = (k % 31, k % 7)
        table[key] = table.get(key, 0) + k * 7 % 11
        if k % 40 == 0:
            acc += Fraction(k + 1, k % 5 + 2)
    return len(table), acc


def probe() -> float:
    """Machine slowness now: the median kernel time over PROBE_S seconds."""
    calls = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        _probe_kernel()
        t1 = time.perf_counter()
        calls.append(t1 - t0)
        if t1 - start >= PROBE_S:
            return statistics.median(calls)


def import_spinsum() -> SimpleNamespace:
    """Import the package afresh, so every set-up pays the import."""
    for name in [n for n in sys.modules
                 if n == "spinsum" or n.startswith("spinsum.")]:
        del sys.modules[name]
    importlib.import_module("spinsum")
    ss = SimpleNamespace(**{m: importlib.import_module(f"spinsum.{m}")
                            for m in MODULES})
    origin = Path(sys.modules["spinsum"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"spinsum imported from {origin}, not from {SRC}")
    return ss


def set_up(wl, seed, tracer=None):
    """One set-up; returns (fixture, seconds scaled to reference speed)."""
    before = probe()
    start = time.perf_counter()
    ss = import_spinsum()
    ss.algebra.derive.cache_clear()
    ss.algebra.passes_invariance_predicates.cache_clear()
    if tracer is not None:
        tracer.install()
    fx = wl.setup(ss, seed)
    wall = time.perf_counter() - start
    return fx, wall * 2 * REFERENCE_PROBE_S / (before + probe())


def run_ops(wl, fx, seconds, min_ops, after_op=None):
    """Closed loop until ``seconds`` have passed, ``min_ops`` ops are done
    and a round has ended.

    Returns (scaled latencies, failed, wall seconds in ops, state).
    """
    budget = fx["ss"].tensor.BudgetExceeded
    state: dict = {}
    latencies: list[float] = []
    pending: list[float] = []  # raw latencies since the last probe
    failed = 0
    in_ops = 0.0
    last_probe = probe()
    next_probe = time.perf_counter() + PROBE_EVERY_S
    deadline = time.perf_counter() + seconds

    def flush():
        nonlocal last_probe
        now = probe()
        scale = 2 * REFERENCE_PROBE_S / (last_probe + now)
        latencies.extend(x * scale for x in pending)
        pending.clear()
        last_probe = now

    for op, round_end in wl.ops(fx, state):
        t0 = time.perf_counter()
        try:
            ok, entries = op()
        except budget:
            ok, entries = False, 0
        t1 = time.perf_counter()
        pending.append(t1 - t0)
        in_ops += t1 - t0
        failed += not ok
        if after_op is not None:
            after_op(len(latencies) + len(pending), entries)
        if round_end and len(latencies) + len(pending) >= min_ops \
                and t1 >= deadline:
            break
        if t1 >= next_probe:
            flush()
            next_probe = time.perf_counter() + PROBE_EVERY_S
    flush()
    return latencies, failed, in_ops, state


def percentile(latencies, pct):
    if pct == 50 or len(latencies) < 2:
        return statistics.median(latencies)
    return statistics.quantiles(latencies, n=1000)[round(pct * 10) - 1]


def measure(wl, seed, seconds):
    """Untraced run: the end-to-end metrics."""
    setup_times = []
    for _ in range(SETUPS):
        fx, dt = set_up(wl, seed)
        setup_times.append(dt)
    lat, failed, in_ops, state = run_ops(wl, fx, seconds, 1)
    tail_s = percentile(lat, wl.tail_pct)
    beyond = sum(x > tail_s for x in lat)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"setup_s": f"median of {SETUPS} set-ups",
             "ops_per_s": f"{len(lat)} ops; raw wall rate "
                          f"{len(lat) / in_ops:.4g}/s",
             "op_tail_s": f"p{wl.tail_pct:g} of {len(lat)} samples, "
                          f"{beyond} beyond it"}
    problems = fx["problems"] + (wl.finish(fx, state) if wl.finish else [])
    return metrics, notes, len(lat), failed, problems


def measure_traced(wl, seed, seconds):
    """Traced run: per-layer self times, counters and tracing overhead."""
    tracer = Tracer()
    setup_self = []
    for _ in range(SETUPS):
        tracer.uninstall()
        tracer.reset_times()
        tracer.reset_counters()
        tracer.counting = True
        fx, _ = set_up(wl, seed, tracer)
        tracer.counting = False
        setup_self.append(dict(tracer.self_s))
    tracer.uninstall()
    untraced = sum(run_ops(wl, fx, 0, wl.window)[0])
    tracer.install()
    tracer.reset_times()
    tracer.counting = True

    def after_op(n, entries):
        tracer.count_out_entries(entries)
        if n == wl.window:
            tracer.counting = False

    lat, failed, _, state = run_ops(wl, fx, seconds, wl.window, after_op)
    tracer.uninstall()
    problems = fx["problems"] + (wl.finish(fx, state) if wl.finish else [])
    traced = sum(lat[:wl.window])
    metrics = {f"{layer}_s": statistics.median(s[layer] for s in setup_self)
               + tracer.self_s[layer] / len(lat) for layer in LAYERS}
    metrics.update(tracer.counters)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_ratio"] = traced / untraced - 1
    notes = {"trace.overhead_s": f"first {wl.window} ops: "
                                 f"{untraced:.3f} s untraced, "
                                 f"{traced:.3f} s traced"}
    return metrics, notes, len(lat), failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "spinsum" / "__init__.py").is_file():
        print(f"error: no spinsum package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    run = measure_traced if args.trace else measure
    metrics, notes, attempted, failed, problems = run(
        wl, args.seed, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    print(f"  op: {wl.op}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<26} {value:>14.6g} {units[name]}{note}")
    print(f"  failed_ratio {failed / attempted:g} ({failed} of {attempted})")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
