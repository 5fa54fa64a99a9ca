"""The four benchmark workloads.

Each workload has a set-up, which builds the inputs from the seed and
computes the oracle values, and an op generator.  The generator yields
``(op, round_end)`` pairs; ``op()`` runs one unit of work through the
package, compares the result exactly with its oracle and returns
``(ok, out_entries)``.  A run only stops at a round end, so every run
holds the same mix of op kinds.  Ops look the package functions up on the
module objects at call time, so the tracer's wrappers are seen.

Which end-to-end metric each layer metric should move, and where:

    eval.contract_s                  ops_per_s, op_tail_s  fuzz-cylinder-f3, genus-clifford
    eval.plan_s, eval.build_graph_s  ops_per_s             sign-scan-torus
    eval.evaluations, eval.plan_peak_legs_max, eval.plan_peak_legs_sum
                                     op_tail_s, peak_rss_mb  fuzz-cylinder-f3
    eval.out_entries                 none; it must never change
    tensor.flip_s                    op_p50_s              fuzz-cylinder-f3
    pachner.move_s, pachner.moves, pachner.attempts, pachner.faces_max
                                     ops_per_s             walk-genus2-clifford
    spin.classify_s, spin.admissible_s, spin.arf_s, spin.classes
                                     ops_per_s / setup_s   walk-genus2-clifford / genus-clifford
    tft.sign_sum_s, tft.plus_part_s  ops_per_s             sign-scan-torus
    tft.closed_form_s, algebra.derive_s, surface.build_s
                                     setup_s               all
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: str
    # leading ops whose exact counters a traced run reports; a whole
    # number of rounds, so an untraced replay of them stops at the same op
    window: int
    # op_tail_s percentile: fixed per workload so that runs compare, and
    # chosen so that a 20 s run has at least ten samples beyond it
    tail_pct: float
    setup: Callable  # (ss, seed) -> fixture dict
    ops: Callable    # (fixture, state dict) -> iterator of (op, round_end)
    finish: Callable | None = None  # (fixture, state) -> list of problems


def _fixture(ss, seed, algebras, expected, **inputs):
    return dict(ss=ss, seed=seed, algebras=algebras, expected=expected,
                problems=[], **inputs)


def _derived(ss, *names):
    algebras = [ss.algebra.builtin_by_name(name) for name in names]
    for A in algebras:
        ss.algebra.derive(A)
    return algebras


# -- fuzz-cylinder-f3 ----------------------------------------------------
# one session is ``spinsum pachner-fuzz --moves 50``; longer sessions drift
# into rarer, costlier triangulations and make runs of different seeds differ
FUZZ_MOVES = 50
FUZZ_CHECK_EVERY = 25


def fuzz_setup(ss, seed):
    [A] = _derived(ss, "twisted-matrix-3-f3")
    tri, signs, types = ss.tft.cylinder_spin(ss.spin.NS, 1)
    base = ss.eval.evaluate_raw(tri, signs, A)
    fx = _fixture(ss, seed, [A], {"amp": base}, tri=tri, signs=signs,
                  types=types)
    if base != ss.tft.cylinder_closed_form(A, ss.spin.NS, 1):
        fx["problems"].append("seed amplitude differs from "
                              "cylinder_closed_form")
    return fx


def fuzz_session_seed(seed, j):
    return seed * 1_000_000 + j


def fuzz_ops(fx, state):
    """Sessions of ``cli.run_pachner_fuzz``: same RNG use and face bias.

    Each session restarts from the cylinder with its own seed and checks
    every checkpoint against the oracle, not only against its own start.
    """
    ss = fx["ss"]
    bias = len(fx["tri"].triangles)
    state["log"] = []  # moves of session 0

    def op(j):
        rng = random.Random(fuzz_session_seed(fx["seed"], j))
        log = state["log"] if j == 0 else []
        tri, signs = fx["tri"], fx["signs"]
        ok, entries = True, 0
        for step in range(1, FUZZ_MOVES + 1):
            tri, signs, move = ss.pachner.random_pachner_move(
                tri, signs, rng, bias_faces=bias)
            log.append((move.kind, move.target, list(move.choice)))
            if step % FUZZ_CHECK_EVERY == 0:
                amp = ss.eval.evaluate_raw(tri, signs, fx["algebras"][0])
                ok = ok and amp == fx["expected"]["amp"]
                entries += len(amp.tensor.data)
        return ok, entries

    j = 0
    while True:
        yield (lambda j=j: op(j)), True
        j += 1


def fuzz_finish(fx, state):
    """Session 0 must replay ``cli.run_pachner_fuzz`` move for move."""
    import spinsum.cli

    ok, ref_log, _ = spinsum.cli.run_pachner_fuzz(
        fx["tri"], fx["signs"], fx["types"], fx["algebras"][0],
        fuzz_session_seed(fx["seed"], 0), FUZZ_MOVES, FUZZ_CHECK_EVERY)
    problems = []
    if not ok:
        problems.append("cli.run_pachner_fuzz reports an amplitude change")
    if ref_log != state["log"]:
        problems.append("move log differs from cli.run_pachner_fuzz")
    return problems


# -- genus-clifford ------------------------------------------------------
GENERA = (1, 2, 3)


def _gauge_shift(tri, signs, rng):
    """A random leaf-exchange image: same spin structure, other signs."""
    out = dict(signs)
    for fid in sorted(tri.triangles):
        if rng.getrandbits(1):
            for slot in tri.triangles[fid].slots:
                out[slot.edge] = -out[slot.edge]
    return out


def genus_setup(ss, seed):
    [A] = _derived(ss, "clifford")
    rng = random.Random(seed)
    classes, expected = {}, {}
    for g in GENERA:
        detail = ss.surface.genus_g_closed_detail(g)
        reps = [_gauge_shift(detail.tri, s, rng)
                for s in ss.spin.classify_spin_structures(detail.tri)]
        classes[g] = (detail.tri, reps)
        scale = Fraction(2) ** (1 - g)
        if g <= 2:
            basis = ss.spin.symplectic_basis(detail)
            for i, signs in enumerate(reps):
                expected[g, i] = scale * ss.spin.arf_invariant(
                    detail, signs, basis)
        else:
            # no symplectic basis ships for g > 2: check the Arf split,
            # 2^(g-1)(2^g + 1) even classes and 2^(g-1)(2^g - 1) odd ones
            half = 2 ** (g - 1)
            expected[g] = {scale: half * (2 ** g + 1),
                           -scale: half * (2 ** g - 1)}
    return _fixture(ss, seed, [A], expected, classes=classes)


def genus_ops(fx, state):
    ss = fx["ss"]
    rng = random.Random(f"{fx['seed']}/order")
    expected = fx["expected"]

    def op(g, i, counts):
        tri, reps = fx["classes"][g]
        amp = ss.eval.evaluate_raw(tri, reps[i], fx["algebras"][0])
        value = amp.scalar_value()
        if (g, i) in expected:
            ok = value == expected[g, i]
        else:
            counts[value] = counts.get(value, 0) + 1
            ok = counts[value] <= expected[g].get(value, 0)
        return ok, len(amp.tensor.data)

    while True:
        # a round is a sweep over all 4 + 16 + 64 classes, so every run
        # evaluates each class equally often
        sweep = [(g, i) for g in GENERA
                 for i in range(len(fx["classes"][g][1]))]
        rng.shuffle(sweep)
        counts: dict = {}  # values seen this sweep, for the Arf split
        for k, (g, i) in enumerate(sweep):
            yield (lambda g=g, i=i: op(g, i, counts)), k == len(sweep) - 1


# -- sign-scan-torus -----------------------------------------------------
def scan_setup(ss, seed):
    # The torus stays the reference one: the cost of a scan depends on the
    # triangulation's contraction plans, so a seeded re-triangulation made
    # runs of different seeds differ by 40 %.  The seed orders the scans.
    algebras = _derived(ss, *ss.algebra.BUILTIN_NAMES)
    tri, _ = ss.tft.torus_spin(ss.spin.NS, 1)
    expected = [ss.tft.plus_part_state_sum(tri, A) for A in algebras]
    return _fixture(ss, seed, algebras, {"value": expected}, tri=tri)


def scan_ops(fx, state):
    ss = fx["ss"]
    rng = random.Random(f"{fx['seed']}/order")

    def op(i):
        A = fx["algebras"][i]
        total = ss.tft.statistical_sign_sum(fx["tri"], A)
        oriented = ss.tft.plus_part_state_sum(fx["tri"], A)
        ok = total == oriented == fx["expected"]["value"][i]
        return ok, (total != 0) + (oriented != 0)

    while True:
        order = list(range(len(fx["algebras"])))
        rng.shuffle(order)
        for k, i in enumerate(order):
            yield (lambda i=i: op(i)), k == len(order) - 1


# -- walk-genus2-clifford ------------------------------------------------
WALK_CHECK_EVERY = 50   # is_admissible and the class count
WALK_AMP_EVERY = 2500   # amplitude against the start; ends a round


def walk_setup(ss, seed):
    [A] = _derived(ss, "clifford")
    detail = ss.surface.genus_g_closed_detail(2)
    reps = ss.spin.classify_spin_structures(detail.tri)
    start = reps[random.Random(seed).randrange(len(reps))]
    arf = ss.spin.arf_invariant(detail, start, ss.spin.symplectic_basis(detail))
    amp = Fraction(1, 2) * arf
    fx = _fixture(ss, seed, [A], {"amp": amp, "classes": 4 ** 2},
                  tri=detail.tri, signs=start)
    if ss.eval.evaluate_raw(detail.tri, start, A).scalar_value() != amp:
        fx["problems"].append("start amplitude differs from 2^(1-g)*Arf")
    return fx


def walk_ops(fx, state):
    ss = fx["ss"]
    rng = random.Random(f"{fx['seed']}/walk")
    walk = [fx["tri"], fx["signs"]]
    # fixed at the start: an unbiased walk grows without bound
    bias = len(fx["tri"].triangles)

    def op(step):
        tri, signs, _ = ss.pachner.random_pachner_move(
            *walk, rng, bias_faces=bias)
        walk[:] = tri, signs
        ok, entries = True, 0
        if step % WALK_CHECK_EVERY == 0:
            ok = (ss.spin.is_admissible(tri, signs, ())
                  and len(ss.spin.classify_spin_structures(tri))
                  == fx["expected"]["classes"])
        if step % WALK_AMP_EVERY == 0:
            amp = ss.eval.evaluate_raw(tri, signs, fx["algebras"][0])
            ok = ok and amp.scalar_value() == fx["expected"]["amp"]
            entries = len(amp.tensor.data)
        return ok, entries

    step = 0
    while True:
        step += 1
        yield (lambda step=step: op(step)), step % WALK_AMP_EVERY == 0


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        "fuzz-cylinder-f3",
        "Fused ungraded contraction and boundary flip on drifting "
        "triangulations; planner and flip changes show. Op = one "
        "pachner-fuzz session: 50 moves, evaluate_raw every 25.",
        "one `spinsum pachner-fuzz --moves 50` session on the NS+ cylinder "
        "with twisted-matrix-3-f3: every 25 random Pachner moves an "
        "evaluate_raw equal to the seed amplitude (= cylinder_closed_form)",
        2, 75, fuzz_setup, fuzz_ops, fuzz_finish),
    Workload(
        "genus-clifford",
        "Only graded (Koszul) contraction path, no flip or Pachner moves; an "
        "engine merge must not slow it. Op = one spin-class evaluate_raw, "
        "genus 1-3.",
        "evaluate_raw of one spin class (gauge-shifted representative) of "
        "a closed genus 1, 2 or 3 surface with Clifford, equal to "
        "2^(1-g)*Arf (g <= 2) or within the Arf split (g = 3)",
        84, 75, genus_setup, genus_ops),
    Workload(
        "sign-scan-torus",
        "Per-call overhead of 512 tiny contractions: build_graph, planning, "
        "derive cache, 0-leg flip. Op = one algebra's statistical_sign_sum "
        "+ plus_part_state_sum.",
        "statistical_sign_sum and plus_part_state_sum of one built-in "
        "algebra on the torus, both equal to the plus-part value of the "
        "torus computed in set-up",
        4, 50, scan_setup, scan_ops),
    Workload(
        "walk-genus2-clifford",
        "Only workload loading the pachner and spin/gf2 layers. Op = one "
        "Pachner move on closed genus 2; admissibility and class count "
        "every 50, amplitude every 2500.",
        "one random Pachner move on closed genus 2 (face bias fixed at the "
        "start); every 50 moves is_admissible and 16 classes, every 2500 "
        "the amplitude equals the start's 2^(1-g)*Arf",
        WALK_AMP_EVERY, 99, walk_setup, walk_ops),
)}
