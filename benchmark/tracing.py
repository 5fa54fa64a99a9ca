"""Layer spans and deterministic counters for the traced benchmark run.

The tracer wraps the public functions of each spinsum layer where the
modules reference them: every ``spinsum.*`` module namespace that holds the
function gets the wrapper, so calls made inside the package (``tft`` calling
``eval.evaluate_raw`` calling ``eval.plan_contraction``) are seen as well as
the benchmark's own calls.  Nothing in the package is edited; ``uninstall``
puts the original functions back.

A span covers one call.  Spans nest, and a layer's self time is the time
its spans cover minus the time covered by spans opened inside them, so the
self times of all layers add up to the traced wall time spent in layers.

Counters are exact: they count work (plans, moves, classes) and do not vary
with the machine.  They are only updated while ``counting`` is true, which
the runner sets for a fixed, seed-determined window of the run.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> functions, as (module, attribute) with "Class.method" allowed
LAYERS = {
    "algebra.derive": [("algebra", "derive")],
    "surface.build": [("surface", name) for name in (
        "build_cylinder", "genus_g_closed_detail", "glue_boundaries")],
    "eval.build_graph": [("eval", "build_graph")],
    "eval.plan": [("eval", "plan_contraction")],
    "eval.contract": [("eval", "contract_graph")],
    "tensor.flip": [("tensor", "GradedTensor.flip_out_to_in")],
    "pachner.move": [("pachner", "random_pachner_move"),
                     ("pachner", "apply_pachner_move")],
    "spin.classify": [("spin", "classify_spin_structures")],
    "spin.admissible": [("spin", "is_admissible")],
    "spin.arf": [("spin", "arf_invariant"), ("spin", "symplectic_basis")],
    "tft.sign_sum": [("tft", "statistical_sign_sum")],
    "tft.plus_part": [("tft", "plus_part_state_sum")],
    "tft.closed_form": [("tft", "cylinder_closed_form")],
}

COUNTERS = ("eval.evaluations", "eval.plan_peak_legs_max",
            "eval.plan_peak_legs_sum", "eval.out_entries", "pachner.moves",
            "pachner.attempts", "pachner.faces_max", "spin.classes")


def plan_peak_legs(plan) -> int:
    """Largest number of open legs while a contraction plan runs.

    Replays the plan symbolically: a copairing ('c') opens two legs and a
    triangle ('t') closes three.
    """
    open_legs = peak = 0
    for kind, _ in plan:
        open_legs += 2 if kind == "c" else -3
        peak = max(peak, open_legs)
    return peak


class Tracer:
    """Per-layer self times and exact counters, kept in memory."""

    def __init__(self):
        self.reset_times()
        self.reset_counters()
        self.counting = False
        self._stack: list[list] = []  # [layer, start, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------
    def reset_times(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)

    def reset_counters(self):
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, layer, fn, on_call=None, on_result=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if on_call is not None and self.counting:
                on_call(args)
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                self.self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if on_result is not None and self.counting:
                on_result(result)
            return result
        return spanned

    # -- counters -------------------------------------------------------
    def _count_plan(self, plan):
        peak = plan_peak_legs(plan)
        c = self.counters
        c["eval.evaluations"] += 1
        c["eval.plan_peak_legs_sum"] += peak
        c["eval.plan_peak_legs_max"] = max(c["eval.plan_peak_legs_max"], peak)

    def _count_move(self, result):
        c = self.counters
        c["pachner.moves"] += 1
        c["pachner.faces_max"] = max(c["pachner.faces_max"],
                                     len(result[0].triangles))

    def _count_attempt(self, args):
        self.counters["pachner.attempts"] += 1

    def _count_classes(self, result):
        self.counters["spin.classes"] += len(result)

    def count_out_entries(self, n: int):
        if self.counting:
            self.counters["eval.out_entries"] += n

    # -- installation ---------------------------------------------------
    def install(self):
        """Wrap every layer function of the loaded spinsum modules."""
        hooks = {
            ("eval", "plan_contraction"): (None, self._count_plan),
            ("pachner", "random_pachner_move"): (None, self._count_move),
            ("pachner", "apply_pachner_move"): (self._count_attempt, None),
            ("spin", "classify_spin_structures"): (None, self._count_classes),
        }
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "spinsum"
                                         or name.startswith("spinsum."))]
        for layer, targets in LAYERS.items():
            for modname, attr in targets:
                home = sys.modules[f"spinsum.{modname}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    fn = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(layer, fn))
                    continue
                fn = getattr(home, attr)
                on_call, on_result = hooks.get((modname, attr), (None, None))
                wrapped = self._wrap(layer, fn, on_call, on_result)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, name, wrapped)

    def _patch(self, owner, name, value):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
