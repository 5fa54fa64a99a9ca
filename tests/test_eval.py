import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from spinsum.algebra import (BUILTIN_NAMES, GradedFrobeniusAlgebra,
                             builtin_by_name, builtin_clifford, derive,
                             passes_invariance_predicates)
import spinsum.eval as engine
from spinsum.eval import (FUSED_TABLES_KEPT, RUN_STEPS,
                          TABLES_KEPT_PER_SWEEP, WireTarget, _program,
                          boundary_legs, build_graph, contract_exhaustive,
                          contract_graph, contract_network, evaluate,
                          evaluate_raw, is_valid_schedule, plan_contraction)
from spinsum.fields import QQ, PrimeField
from spinsum.pachner import random_pachner_move
from spinsum.spin import (arf_invariant, classify_spin_structures,
                          symplectic_basis)
from spinsum.surface import MarkedTriangulation, genus_g_closed_detail
from spinsum.tensor import BudgetExceeded, GradedTensor
from spinsum import tft


def test_evaluate_rejects_inadmissible(clifford):
    tri, signs, types = tft.cylinder_spin("NS", 1)
    bad = dict(signs)
    eid = sorted(bad)[0]
    bad[eid] = -bad[eid]
    from spinsum.spin import is_admissible
    if not is_admissible(tri, bad, types):
        with pytest.raises(ValueError, match="not admissible"):
            evaluate(tri, bad, types, clifford)


def test_evaluate_matches_evaluate_raw_on_admissible(clifford):
    tri, signs, types = tft.cylinder_spin("R", 1)
    assert evaluate(tri, signs, types, clifford) == \
        evaluate_raw(tri, signs, clifford)


def test_greedy_plan_is_valid(clifford):
    tri, signs, _ = tft.pants_spin(("NS", "NS", "NS"), 1, 1)
    graph = build_graph(tri, signs)
    plan = plan_contraction(graph)
    assert is_valid_schedule(graph, plan)
    # every edge and face appears exactly once
    assert sorted(t for k, t in plan if k == "c") == sorted(graph.wires)
    assert sorted(t for k, t in plan if k == "t") == sorted(tri.triangles)


def test_invalid_schedule_rejected(clifford):
    tri, signs, _ = tft.cylinder_spin("NS", 1)
    graph = build_graph(tri, signs)
    plan = plan_contraction(graph)
    # face before its copairings; unknown face, edge and action; a face
    # placed twice
    last_t = max(k for k, (kind, _) in enumerate(plan) if kind == "t")
    broken = [[p for p in plan if p[0] == "t"] + [p for p in plan
                                                  if p[0] == "c"],
              plan + [("t", 999)], plan + [("c", 999)],
              [("c", 999)] + plan, [("x", 0)] + plan,
              plan[:last_t + 1] + [plan[last_t]] + plan[last_t + 1:]]
    for bad in broken:
        assert not is_valid_schedule(graph, bad)
        with pytest.raises(ValueError, match="invalid contraction schedule"):
            contract_graph(graph, derive(clifford), plan=bad)


def test_contract_network_rejects_an_invalid_plan(clifford):
    """The executor itself checks every plan but the memo's: an inner
    copairing absorbed twice (which would count its scale of 2 twice over
    Q and halve every entry), an unknown face and an unknown edge each
    raise the same ValueError."""
    tri, signs, _ = tft.cylinder_spin("NS", 1)
    graph = build_graph(tri, signs)
    plan = plan_contraction(graph)
    D = derive(clifford)
    cops = {eid: D.boundary_map(signs[eid]) if first.kind == "cod"
            else D.c(signs[eid]) for eid, (first, _) in graph.wires.items()}
    inner = min(eid for eid, (first, _) in graph.wires.items()
                if first.kind == "face")
    for bad in ([("c", inner)] + plan, plan + [("t", 999)],
                plan + [("c", 999)]):
        with pytest.raises(ValueError, match="invalid contraction schedule"):
            contract_network(graph, bad, cops, D.t)
    assert contract_network(graph, list(plan), cops, D.t) == \
        contract_graph(graph, D)


def _greedy_from(tri, start):
    """Reference greedy plan with a forced first face: then the face with
    the fewest unabsorbed edges (ties: smallest id), each face right
    after its unabsorbed edges in id order."""
    faces = tri.triangles
    missing = {fid: {s.edge for s in faces[fid].slots} for fid in faces}
    absorbed, plan, fid = set(), [], start
    while missing:
        if fid is None:
            fid = min(missing, key=lambda f: (len(missing[f]), f))
        edges = sorted(missing.pop(fid))
        plan += [("c", eid) for eid in edges] + [("t", fid)]
        absorbed.update(edges)
        for rest in missing.values():
            rest.difference_update(edges)
        fid = None
    return plan + [("c", eid) for eid in sorted(set(tri.edges) - absorbed)]


def _plan_score(plan):
    """Sum of 3^(open legs) after each triangle step."""
    legs = total = 0
    for kind, _ in plan:
        legs += 2 if kind == "c" else -3
        total += 3 ** legs if kind == "t" else 0
    return total


def _plan_peak(plan):
    """Most open legs after a triangle step."""
    legs = peak = 0
    for kind, _ in plan:
        legs += 2 if kind == "c" else -3
        peak = max(peak, legs) if kind == "t" else peak
    return peak


def _planned_surfaces():
    cases = [("cylinder", tft.cylinder_spin("R", -1)[:2]),
             ("pants", tft.pants_spin(("NS", "R", "R"), 1, -1)[:2])]
    for g in (1, 2):
        tri = genus_g_closed_detail(g).tri
        cases.append((f"genus-{g}", (tri, classify_spin_structures(tri)[-1])))
    # on the walked cylinder the beam and the best greedy start tie in
    # score with different orders
    for (label, (tri, signs)), seed, moves in ((cases[0], 1, 50),
                                               (cases[1], 2, 100)):
        rng, faces = random.Random(seed), len(tri.triangles)
        for _ in range(moves):
            tri, signs, _ = random_pachner_move(tri, signs, rng, faces)
        cases.append((f"{label}-walked", (tri, signs)))
    return cases


@pytest.mark.parametrize("name", ("clifford", "twisted-matrix-3-f3"))
def test_plan_scores_at_most_every_greedy_start_and_every_start_agrees(name):
    """plan_contraction never scores above any forced-start greedy plan
    nor the greedy plan without a forced start; it and every start face
    give valid schedules contracting to the same tensor, which on the
    Clifford cylinder and pants is the exhaustive oracle's."""
    D = derive(builtin_by_name(name))
    for label, (tri, signs) in _planned_surfaces():
        graph = build_graph(tri, signs)
        plan = plan_contraction(graph)
        assert is_valid_schedule(graph, plan), label
        starts = [_greedy_from(tri, fid) for fid in sorted(tri.triangles)]
        starts.append(_greedy_from(tri, None))
        assert _plan_score(plan) <= min(map(_plan_score, starts)), label
        want = contract_graph(graph, D, plan)
        for other in starts:
            assert is_valid_schedule(graph, other), label
            assert contract_graph(graph, D, other) == want, label
        if name == "clifford" and label in ("cylinder", "pants"):
            assert evaluate_raw(tri, signs, D.A) == \
                contract_exhaustive(graph, D.A)


@pytest.mark.parametrize("genus, score, peak, greedy", (
    (2, 17_308, 7, 43_228), (3, 107_056, 8, 693_496),
    (4, 401_572, 10, 1_623_700)))
def test_beam_plan_beats_greedy_on_closed_genus(genus, score, peak, greedy):
    """Deterministic planner counters: the cached plan's sum of
    3^(open legs) and its peak of open legs after a triangle step stay
    at or below the values the beam search reaches, and the sum strictly
    below the best greedy start's."""
    tri = genus_g_closed_detail(genus).tri
    plan = plan_contraction(build_graph(tri, dict.fromkeys(tri.edges, 1)))
    starts = [_greedy_from(tri, fid) for fid in sorted(tri.triangles)]
    assert min(map(_plan_score, starts)) == greedy
    assert _plan_score(plan) <= score < greedy
    assert _plan_peak(plan) <= peak


def test_f3_genus_3_classes_evaluate_to_one():
    """A dim-9 algebra above genus 2: two seeded spin classes of the F3
    matrix algebra on the closed genus-3 surface both give exactly 1."""
    A = builtin_by_name("twisted-matrix-3-f3")
    tri = genus_g_closed_detail(3).tri
    classes = classify_spin_structures(tri)
    for signs in random.Random(3).sample(classes, 2):
        assert evaluate_raw(tri, signs, A).scalar_value() == A.field.one()


def test_plan_is_cached_per_triangulation():
    """Signs do not enter the plan: two graphs on one triangulation share
    the very same list; a Pachner move gives a new triangulation, planned
    afresh."""
    tri, signs, _ = tft.pants_spin(("NS", "R", "R"), 1, -1)
    flipped = {eid: -s for eid, s in signs.items()}
    plan = plan_contraction(build_graph(tri, signs))
    assert plan_contraction(build_graph(tri, flipped)) is plan
    tri2, signs2, _ = random_pachner_move(tri, signs, random.Random(1),
                                          len(tri.triangles))
    graph2 = build_graph(tri2, signs2)
    plan2 = plan_contraction(graph2)
    assert plan2 is not plan and plan2 != plan
    assert is_valid_schedule(graph2, plan2)
    assert plan_contraction(graph2) is plan2


@pytest.mark.parametrize("boundary", (False, True))
def test_edge_sign_other_than_plus_minus_one_rejected(clifford, boundary):
    tri, signs, _ = tft.cylinder_spin("NS", 1)
    eid = next(e for e in sorted(tri.edges)
               if (tri.boundary_of_edge(e) is not None) == boundary)
    with pytest.raises(ValueError, match="must be \\+1 or -1"):
        evaluate_raw(tri, {**signs, eid: 0}, clifford)


@pytest.mark.parametrize("value", (0, 2, None))
def test_bad_or_missing_edge_sign_is_named_before_contraction(clifford,
                                                              value):
    tri, signs, types = tft.cylinder_spin("NS", 1)
    eid = sorted(tri.edges)[-1]
    bad = dict(signs)
    if value is None:
        del bad[eid]
        what = "but it is missing"
    else:
        bad[eid] = value
        what = f"not {value}"
    message = f"edge {eid}: sign must be \\+1 or -1, {what}"
    for call in (lambda: build_graph(tri, bad),
                 lambda: evaluate_raw(tri, bad, clifford),
                 lambda: evaluate(tri, bad, types, clifford)):
        with pytest.raises(ValueError, match=message):
            call()


def test_budget_enforced(clifford):
    tri, signs, _ = tft.pants_spin(("NS", "NS", "NS"), 1, 1)
    with pytest.raises(BudgetExceeded):
        evaluate_raw(tri, signs, clifford, max_open_legs=4)


def test_budget_message_names_step_and_plan(clifford):
    """Each bound raises a message naming the step and the plan, and
    raises the same message when the call is repeated: a call that raises
    does not count toward regrouping, so the program keeps its sweeps."""
    tri, signs, _ = tft.pants_spin(("NS", "NS", "NS"), 1, 1)
    graph = build_graph(tri, signs)
    plan = plan_contraction(graph)
    D = derive(clifford)
    program = _program(graph, plan)
    groups = program.groups
    assert program.calls == 0
    # replay: the first triangle after which more than 4 legs are open
    n_open = 0
    for step, (kind, tid) in enumerate(plan):
        n_open += 2 if kind == "c" else -3
        if kind == "t" and n_open > 4:
            break
    for _ in range(3):
        with pytest.raises(BudgetExceeded) as exc:
            contract_graph(graph, D, plan, max_open_legs=4)
        assert str(exc.value) == (f"open legs {n_open} exceed bound 4 "
                                  f"after plan[{step}] = ('t', {tid}) of "
                                  f"{len(plan)} steps")
    messages = set()
    for _ in range(3):
        with pytest.raises(BudgetExceeded, match=r"stored coefficients "
                           r"exceed budget 1 after plan\[\d+\] = "
                           rf"\('t', \d+\) of {len(plan)} steps") as exc:
            contract_graph(graph, D, plan, max_entries=1)
        messages.add(str(exc.value))
    assert len(messages) == 1
    assert program.groups is groups and program.calls == 0


def test_calls_that_raise_after_the_first_regroup_once(clifford):
    """After one call that returns, the next call cuts the kept program's
    runs, and later calls keep them even when they raise: three calls
    over the entry budget raise one message and share one ``groups``
    object, and an unbounded call after them equals the closed form."""
    tri, signs, _ = tft.pants_spin(("NS", "R", "R"), 1, -1)
    tri = _fresh(tri)
    graph = build_graph(tri, signs)
    plan = plan_contraction(graph)
    D = derive(clifford)
    program = _program(graph, plan)
    contract_graph(graph, D, plan)
    messages, groups = set(), []
    for _ in range(3):
        with pytest.raises(BudgetExceeded, match=r"stored coefficients "
                           r"exceed budget 30 after plan\[\d+\]") as exc:
            contract_graph(graph, D, plan, max_entries=30)
        messages.add(str(exc.value))
        groups.append(program.groups)
    assert len(messages) == 1
    assert all(got is groups[0] for got in groups)
    assert any(len(group.members) > 2 for group in groups[0])
    assert program.calls == 1
    assert evaluate_raw(tri, signs, clifford) == \
        tft.pants_closed_form(clifford, ("NS", "R", "R"), 1, -1)
    assert program.groups is groups[0]


def _random_face_schedule(graph, rng):
    """Faces in random order, each right after its missing copairings
    (shuffled); absorbing no copairing early keeps the reference blob,
    which holds every absorbed copairing, small."""
    faces = graph.tri.triangles
    order = sorted(faces)
    rng.shuffle(order)
    absorbed, plan = set(), []
    for fid in order:
        missing = sorted({s.edge for s in faces[fid].slots} - absorbed)
        rng.shuffle(missing)
        plan += [("c", eid) for eid in missing] + [("t", fid)]
        absorbed.update(missing)
    return plan


def contract_out_with(blob, consumer):
    """Contract the trailing output legs of blob against a pure-input
    consumer (even consumer => no signs)."""
    k, no = consumer.n_in, blob.n_out
    assert consumer.n_out == 0 and blob.out_legs[no - k:] == consumer.in_legs
    F = blob.field
    out = GradedTensor(F, blob.out_legs[:no - k], blob.in_legs, {})
    for key, v in blob.data.items():
        w = consumer.data.get(key[no - k:no])
        if w is not None:
            out._add_to(key[:no - k] + key[no:], F.mul(v, w))
    return out


def _blob_reference(graph, D, plan):
    """Generic blob contraction: absorb copairings by tensor product,
    Koszul-permute each triangle's legs to the end and contract."""
    F = D.mu.field
    blob = GradedTensor.scalar(F, F.one())
    open_targets = []
    for kind, tid in plan:
        if kind == "c":
            blob = blob.tensor(D.c(graph.signs[tid]))
            open_targets.extend(graph.wires[tid])
        else:
            pos = [open_targets.index(WireTarget("face", face=tid, slot=s))
                   for s in range(3)]
            rest = [p for p in range(len(open_targets)) if p not in pos]
            blob = contract_out_with(blob.permute_out(rest + pos), D.t)
            open_targets = [open_targets[p] for p in rest]
    want = [WireTarget("cod", boundary=bi, position=p)
            for bi, p in boundary_legs(len(graph.tri.boundaries))]
    return blob.permute_out([open_targets.index(w) for w in want])


def _absorb_pairing(blob, D):
    """The boundary legs of a copairing-only blob turned into inputs
    through b, without sign: result[x] = sum_a prod_i b(x_i, a_i) blob[a]."""
    F = blob.field
    cols: dict[int, list] = {}  # a -> nonzero b(x, a)
    for (x, a), v in D.b.data.items():
        cols.setdefault(a, []).append((x, v))
    out = GradedTensor(F, blob.out_legs, (), {})
    for akey, v in blob.data.items():
        partial = [((), v)]
        for a in akey:
            partial = [(px + (x,), F.mul(pv, w))
                       for px, pv in partial for x, w in cols.get(a, ())]
        for xkey, val in partial:
            out._add_to(xkey, val)
    return out


@pytest.mark.parametrize("name", ("group-z2", "clifford",
                                  "twisted-matrix-2-q", "twisted-matrix-3-f3"))
def test_fused_and_generic_paths_agree(name):
    """The fused executor, with N_eps(-s) on the boundary edges, and the
    generic blob machinery with c_s everywhere, followed by the pairing
    absorption, must produce identical tensors, for random signs and
    random valid schedules.  The executor runs on ints (scaled over Q,
    unreduced within a step over F_p); the reference on field values."""
    D = derive(builtin_by_name(name))
    rng = random.Random(2024)
    surfaces = [tft.cylinder_spin("R", -1)[0]]
    if name != "twisted-matrix-3-f3":  # its pants reference takes a minute
        surfaces.append(tft.pants_spin(("R", "R", "NS"), 1, -1)[0])
    for tri in surfaces:
        for _ in range(3):
            signs = {eid: rng.choice((1, -1)) for eid in tri.edges}
            graph = build_graph(tri, signs)
            plan = _random_face_schedule(graph, rng)
            assert is_valid_schedule(graph, plan)
            assert contract_graph(graph, D, plan, 40) == \
                _absorb_pairing(_blob_reference(graph, D, plan), D)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_stored_values_are_nonzero_native_field_elements(name):
    """Every stored value, of the executor's output and of the amplitude,
    is a nonzero native element: a Fraction over Q, an int in range(1, p)
    over F_p.  Guards the final division over Q and the once-per-step
    reduction over F_p."""
    A = builtin_by_name(name)
    p = A.field.characteristic
    for tri, signs, _ in (tft.cylinder_spin("NS", 1),
                          tft.pants_spin(("NS", "R", "R"), 1, -1)):
        raw = contract_graph(build_graph(tri, signs), derive(A))
        amp = evaluate_raw(tri, signs, A)
        assert raw.data and amp.tensor.data
        for v in [*raw.data.values(), *amp.tensor.data.values()]:
            if p:
                assert type(v) is int and 0 < v < p
            else:
                assert type(v) is Fraction and v != 0


def test_executor_divides_by_the_scales_of_t_and_the_copairings():
    """Over Q the executor scales t and each copairing to ints and divides
    by the product of the scales at the end: t/3 on every face and 3c/2
    on every edge scale the contraction by (1/3)^F (3/2)^E, exactly."""
    D = derive(builtin_by_name("clifford"))
    tri, signs, _ = tft.pants_spin(("NS", "R", "R"), 1, -1)
    graph = build_graph(tri, signs)
    plan = plan_contraction(graph)
    cops = {eid: D.c(s) for eid, s in signs.items()}
    base = contract_network(graph, plan, cops, D.t)
    scaled = contract_network(
        graph, plan, {eid: c.scale(Fraction(3, 2)) for eid, c in cops.items()},
        D.t.scale(Fraction(1, 3)))
    factor = Fraction(1, 3) ** len(tri.triangles) * \
        Fraction(3, 2) ** len(tri.edges)
    assert base.data and scaled == base.scale(factor)


def _cl1_cl1():
    """Cl_1 (x) Cl_1 as a super tensor product: basis 1, x, y, xy with
    x^2 = y^2 = 1 and yx = -xy, parities (0, 1, 1, 0)."""
    F = QQ
    mu = [[[F.zero()] * 4 for _ in range(4)] for _ in range(4)]
    for a, b, c, d in itertools.product((0, 1), repeat=4):
        # (x^a y^b)(x^c y^d) = (-1)^(bc) x^(a+c) y^(b+d)
        mu[(a ^ c) + 2 * (b ^ d)][a + 2 * b][c + 2 * d] = \
            F.of(-1 if b and c else 1)
    return GradedFrobeniusAlgebra(
        F, 4, (0, 1, 1, 0),
        tuple(tuple(tuple(row) for row in plane) for plane in mu),
        tuple(map(F.of, (1, 0, 0, 0))), tuple(map(F.of, (4, 0, 0, 0))),
        name="cl1-cl1")


def test_dim4_graded_algebra_matches_exhaustive_oracle():
    """A graded algebra with two odd basis vectors: the engine against
    the independent oracle on the R- torus and the NS+ and R- cylinders,
    for spin-structure and random signs."""
    A = _cl1_cl1()
    assert passes_invariance_predicates(A)
    rng = random.Random(7)
    nonzero = 0
    for tri, signs in (tft.torus_spin("R", -1),
                       tft.cylinder_spin("NS", 1)[:2],
                       tft.cylinder_spin("R", -1)[:2]):
        for signs in (signs, {e: rng.choice((1, -1)) for e in tri.edges}):
            amp = evaluate_raw(tri, signs, A)
            assert amp == contract_exhaustive(build_graph(tri, signs), A)
            nonzero += not amp.tensor.is_zero()
    assert nonzero >= 2


@pytest.mark.parametrize("name, surface", (
    ("twisted-matrix-3-f3", "NS+"), ("twisted-matrix-3-f3", "R-"),
    ("twisted-matrix-2-q", "NS+"), ("twisted-matrix-2-q", "R-"),
    ("twisted-matrix-2-q", "NS,R,R:+-"), ("clifford", "NS+"),
    ("clifford", "R-"), ("clifford", "NS,R,R:+-")))
def test_open_surfaces_match_exhaustive_oracle(name, surface):
    """The engine against the independent oracle on open surfaces: F3
    (4-bit slots), 2-q (2-bit slots; neither has an odd basis vector) and
    clifford (a 1-bit index and a parity bit per slot).  The start and
    two checkpoints of a Pachner walk, each with its admissible signs and
    with random signs, cover the decoding of the final blob and its
    reorder into codomain order, with Koszul signs for clifford."""
    A = builtin_by_name(name)
    if surface.startswith("NS,"):
        tri, signs, _ = tft.pants_spin(("NS", "R", "R"), 1, -1)
    else:
        tri, signs, _ = tft.cylinder_spin(surface[:-1],
                                          1 if surface[-1] == "+" else -1)
    rng = random.Random(29)
    nonzero = 0
    for tri, signs in _checkpoints(tri, signs, 29, 16, 8):
        for signs in (signs, {e: rng.choice((1, -1)) for e in tri.edges}):
            amp = evaluate_raw(tri, signs, A)
            assert amp == contract_exhaustive(build_graph(tri, signs), A), \
                signs
            nonzero += not amp.tensor.is_zero()
    assert nonzero >= 3


def test_amplitude_equality_ignores_types(clifford):
    tri, signs, types = tft.cylinder_spin("NS", 1)
    a = evaluate(tri, signs, types, clifford)
    b = evaluate_raw(tri, signs, clifford)
    assert a == b and a.types != b.types


# -- the compiled program and the shared fused-table store -------------
def _fresh(tri):
    """A copy of tri with empty caches: no wires, plan or program."""
    return MarkedTriangulation(tri.edges, tri.triangles, tri.boundaries)


def _clear():
    """Empty the fused-table cache and the interned entry sets."""
    engine._fused_table.cache_clear()
    engine._interned.cache_clear()


def _cold(tri, signs, A):
    """evaluate_raw on a fresh copy of tri with empty table caches."""
    _clear()
    return evaluate_raw(_fresh(tri), signs, A)


def _count_builds():
    """The number of fused tables built so far (misses of their cache)."""
    return engine._fused_table.cache_info().misses


def _cache_sizes():
    return (engine._fused_table.cache_info().currsize,
            engine._interned.cache_info().currsize)


def test_one_triangulation_serves_two_algebras_in_either_order():
    """The fused tables are keyed on the tensors, so an F3 and a Clifford
    evaluation of one genus-2 triangulation, in either order, equal the
    same evaluations on a fresh copy with an empty store; evaluated
    again, every step of both algebras finds its table in the store."""
    tri = genus_g_closed_detail(2).tri
    signs = classify_spin_structures(tri)[5]
    algebras = [builtin_by_name("twisted-matrix-3-f3"),
                builtin_by_name("clifford")]
    want = {A.name: _cold(tri, signs, A) for A in algebras}
    for order in (algebras, algebras[::-1]):
        _clear()
        shared = _fresh(tri)
        for A in order:
            assert evaluate_raw(shared, signs, A) == want[A.name], A.name
        built = _count_builds()
        for A in order:
            assert evaluate_raw(shared, signs, A) == want[A.name], A.name
        assert _count_builds() == built


def _checkpoints(tri, signs, seed, moves, every):
    """The start and every ``every``-th triangulation of a Pachner walk."""
    rng, bias = random.Random(seed), len(tri.triangles)
    out = [(tri, signs)]
    for k in range(1, moves + 1):
        tri, signs, _ = random_pachner_move(tri, signs, rng, bias_faces=bias)
        if k % every == 0:
            out.append((tri, signs))
    return out


def test_shared_store_serves_interleaved_algebras_on_pachner_walks():
    """F3, Clifford and twisted-matrix-2-q take turns, with one warm
    store, on Pachner-walked checkpoints of the NS+ cylinder, the
    NS,R,R:+- pants and closed genus 2.  Every value equals its closed
    form (on genus 2: 2^(1-g) Arf for Clifford, the start's value for the
    others) and a cold evaluation after clearing the store."""
    algebras = [builtin_by_name(name) for name in (
        "twisted-matrix-3-f3", "clifford", "twisted-matrix-2-q")]
    detail = genus_g_closed_detail(2)
    start = classify_spin_structures(detail.tri)[0]
    arf = arf_invariant(detail, start, symplectic_basis(detail))
    assert arf == -1  # an odd class: the even classes' value would fail
    closed = {
        "cylinder": lambda A: tft.cylinder_closed_form(A, "NS", 1),
        "pants": lambda A: tft.pants_closed_form(A, ("NS", "R", "R"), 1,
                                                 -1),
        "genus-2": lambda A: (Fraction(arf, 2) if A.name == "clifford"
                              else _cold(detail.tri, start, A)
                              .scalar_value())}
    walks = {
        "cylinder": _checkpoints(*tft.cylinder_spin("NS", 1)[:2], 1, 100, 20),
        "pants": _checkpoints(*tft.pants_spin(("NS", "R", "R"), 1, -1)[:2],
                              2, 100, 20),
        "genus-2": _checkpoints(detail.tri, start, 3, 100, 20)}
    want = {(surface, A.name): form(A) for surface, form in closed.items()
            for A in algebras}
    _clear()
    warm = []
    for k, points in enumerate(zip(*walks.values())):
        for surface, (tri, signs) in zip(walks, points):
            for A in algebras[k % 3:] + algebras[:k % 3]:
                amp = evaluate_raw(tri, signs, A)
                got = amp.scalar_value() if surface == "genus-2" else amp
                assert got == want[surface, A.name], (surface, k, A.name)
                warm.append((tri, signs, A, amp))
    assert max(_cache_sizes()) <= FUSED_TABLES_KEPT
    for tri, signs, A, amp in warm:
        assert _cold(tri, signs, A) == amp


@pytest.mark.parametrize("name", ("clifford", "twisted-matrix-2-q"))
def test_every_class_twice_in_shuffled_order_matches_a_fresh_copy(name):
    """Every spin class at genus 1 and 2, evaluated twice in a shuffled
    order on one triangulation, equals its first evaluation on a fresh
    copy of that triangulation."""
    A = builtin_by_name(name)
    rng = random.Random(16)
    for g in (1, 2):
        tri = genus_g_closed_detail(g).tri
        classes = classify_spin_structures(tri)
        want = [evaluate_raw(_fresh(tri), s, A) for s in classes]
        order = list(range(len(classes))) * 2
        rng.shuffle(order)
        for i in order:
            assert evaluate_raw(tri, classes[i], A) == want[i], (g, i)


def test_torus_with_warm_tables_matches_exhaustive_oracle():
    """All 512 sign assignments of the torus with Clifford, and random
    ones with Cl_1 (x) Cl_1, on one triangulation whose tables stay in
    the store, equal the exhaustive oracle."""
    tri, _ = tft.torus_spin("NS", 1)
    clifford = builtin_by_name("clifford")
    edges = sorted(tri.edges)
    for bits in itertools.product((1, -1), repeat=len(edges)):
        signs = dict(zip(edges, bits))
        assert evaluate_raw(tri, signs, clifford) == \
            contract_exhaustive(build_graph(tri, signs), clifford), signs
    A, rng = _cl1_cl1(), random.Random(5)
    for _ in range(16):
        signs = {e: rng.choice((1, -1)) for e in edges}
        assert evaluate_raw(tri, signs, A) == \
            contract_exhaustive(build_graph(tri, signs), A), signs


def test_custom_plan_is_compiled_but_not_cached(clifford):
    """A valid plan other than the cached one contracts to the same
    tensor, and the triangulation keeps only the cached plan's program."""
    tri, signs, _ = tft.pants_spin(("NS", "R", "R"), 1, -1)
    D = derive(clifford)
    graph = build_graph(tri, signs)
    custom = _greedy_from(tri, max(tri.triangles))
    assert custom != plan_contraction(graph)
    want = contract_graph(build_graph(_fresh(tri), signs), D)
    compiled = engine._compile_plan  # the memo's key of its program
    assert contract_graph(graph, D, custom) == want
    assert compiled not in tri._cache
    assert contract_graph(graph, D) == want
    program = tri._cache[compiled]
    assert contract_graph(graph, D, custom) == want
    assert tri._cache[compiled] is program
    assert _program(graph, custom) is not _program(graph, custom)
    assert _program(graph, plan_contraction(graph)) is program


def test_fused_table_store_stays_bounded():
    """1,200 calls, each with the copairings of every edge but those of the
    first sweep scaled by its own factor, give the scaled contraction and
    fill the table cache and the interned entry sets to
    FUSED_TABLES_KEPT, never past it.  No sweep keeps more than its
    ``kept`` tables, and that is at least TABLES_KEPT_PER_SWEEP.  The
    first sweep's tensors never change, so it builds its table once and
    keeps it through the evictions of the store.  Then the torus sign
    sums, whose tensors are rebuilt on every call, build no table when
    called again."""
    D = derive(builtin_by_name("clifford"))
    tri, signs, _ = tft.cylinder_spin("NS", 1)
    graph = build_graph(tri, signs)
    plan = plan_contraction(graph)
    cops = {eid: D.c(s) for eid, s in signs.items()}
    base = contract_network(graph, plan, cops, D.t)
    # the second call regroups the kept program: read the sweeps after it
    assert contract_network(graph, plan, cops, D.t) == base
    groups = _program(graph, plan).groups
    first = groups[0]
    assert all(group.kept >= TABLES_KEPT_PER_SWEEP for group in groups)
    kept = {eid: D.c(signs[eid]) for eid in first.eids}
    scaled = len(signs) - len(kept)
    _clear()
    for k in range(1, 1201):
        cops = {eid: kept[eid] if eid in kept else D.c(s).scale(Fraction(k))
                for eid, s in signs.items()}
        assert contract_network(graph, plan, cops, D.t) == \
            base.scale(Fraction(k) ** scaled), k
        assert max(_cache_sizes()) <= FUSED_TABLES_KEPT
        assert all(len(group.tables) <= group.kept for group in groups), k
        if k == 1:
            [hot] = first.tables.values()
    assert _program(graph, plan).groups is groups
    assert _cache_sizes() == (FUSED_TABLES_KEPT, FUSED_TABLES_KEPT)
    assert all(len(group.tables) == group.kept
               for group in groups[1:] if group.eids)
    [table] = first.tables.values()
    assert table is hot
    torus, _ = tft.torus_spin("NS", 1)
    A = builtin_by_name("clifford")

    def sums():
        return (tft.statistical_sign_sum(torus, A),
                tft.plus_part_state_sum(torus, A))
    want = sums()
    built = _count_builds()
    assert sums() == want
    assert _count_builds() == built


def test_stores_keep_the_tensor_set_they_reuse():
    """Tensor sets cycle through the stores, one set reused between each
    two others; the stores drop the set used longest ago, so the reused
    set's table is never built or composed again.  Each part runs on a
    fresh copy called twice, so that it has regrouped into runs.  First
    the first sweep's copairings cycle through one set more than it keeps
    while every other copairing is scaled anew on every call, so every
    later sweep builds its table on every call: the first sweep keeps the
    reused set's table.  Then every copairing cycles through one set more
    than any sweep keeps, and every sweep keeps the reused set's table,
    no row of it composed again."""
    D = derive(builtin_by_name("clifford"))
    tri, signs, _ = tft.cylinder_spin("NS", 1)
    graph = build_graph(tri, signs)
    base = contract_network(graph, plan_contraction(graph),
                            {eid: D.c(s) for eid, s in signs.items()}, D.t)

    def run(graph, factor, first_factor=None):
        """The contraction with every copairing scaled by ``factor``, but
        those of the first sweep by ``first_factor`` when given."""
        plan = plan_contraction(graph)
        first = set(_program(graph, plan).groups[0].eids)
        scale = {eid: Fraction(first_factor if first_factor and eid in first
                               else factor) for eid in signs}
        got = contract_network(graph, plan, {eid: D.c(s).scale(scale[eid])
                                             for eid, s in signs.items()},
                               D.t)
        assert got == base.scale(math.prod(scale.values()))

    def regrouped():
        """The sweeps of a fresh copy called twice."""
        graph = build_graph(_fresh(tri), signs)
        run(graph, 1)
        run(graph, 1)  # the second call regroups: read the sweeps after it
        return graph, _program(graph, plan_contraction(graph)).groups

    graph, groups = regrouped()
    first = groups[0]
    for call, k in enumerate(itertools.chain.from_iterable(
            (1, k) for k in range(2, first.kept + 2))):
        run(graph, 100 + call, k)
        if call == 0:
            [hot] = first.tables.values()
        assert any(table is hot for table in first.tables.values()), call
    assert len(first.tables) == first.kept

    graph, groups = regrouped()
    assert any(len(group.members) > 2 for group in groups)
    stores = [group.tables for group in groups]
    kept = tuple(group.kept for group in groups)
    hot = [next(iter(store.values())) for store in stores]
    sizes = [len(table) for table, *_ in hot]
    for k in range(2, max(kept) + 3):
        run(graph, k)
        run(graph, 1)
        for store, table in zip(stores, hot):
            assert any(got is table for got in store.values()), k
    assert [len(table) for table, *_ in hot] == sizes
    assert tuple(map(len, stores)) == kept


def _gauge_shifted(tri, signs, rng):
    """A random leaf-exchange image of signs: the same spin class."""
    out = dict(signs)
    for fid in sorted(tri.triangles):
        if rng.getrandbits(1):
            for slot in tri.triangles[fid].slots:
                out[slot.edge] = -out[slot.edge]
    return out


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_classes_twice_in_shuffled_order_equal_closed_forms(name,
                                                            monkeypatch):
    """Gauge-shifted representatives of every spin class, at genus 1 to 3
    for clifford (84 classes) and at genus 2 for the other built-ins
    (16), evaluated twice in a shuffled order after one call of each
    surface's program, equal their closed forms.  The second pass packs
    no table, composes no row and builds no fused table: it makes no
    ``_pack`` call, every sweep of more than one step keeps the same
    tables, none of them empty, at the same sizes, and ``_fused_table``
    has no new miss."""
    A = builtin_by_name(name)
    pack, packs = engine._pack, []

    def counted(*args):
        packs.append(args[0])
        return pack(*args)
    monkeypatch.setattr(engine, "_pack", counted)
    rng = random.Random(30)
    work, programs = [], []
    for g in (1, 2, 3) if name == "clifford" else (2,):
        detail = genus_g_closed_detail(g)
        classes = classify_spin_structures(detail.tri)
        for signs in classes:
            form = tft.closed_form(A, tft.spin_class_handles(detail, signs))
            work.append((detail.tri, _gauge_shifted(detail.tri, signs, rng),
                         form.scalar_value()))
        graph = build_graph(detail.tri, classes[0])
        programs.append(_program(graph, plan_contraction(graph)))
        # a first call, whose pairs the second call's regroup replaces
        assert evaluate_raw(detail.tri, classes[0], A).scalar_value() == \
            tft.closed_form(A, tft.spin_class_handles(detail, classes[0])
                            ).scalar_value()
    assert len(work) == (84 if name == "clifford" else 16)

    def sweep():
        rng.shuffle(work)
        for tri, signs, want in work:
            assert evaluate_raw(tri, signs, A).scalar_value() == want

    def run_tables():
        runs = [group for program in programs for group in program.groups
                if len(group.members) > 1]
        assert runs and all(group.tables for group in runs)
        return {(id(group), key): len(table) for group in runs
                for key, (table, *_) in group.tables.items()}
    sweep()
    assert packs
    composed, built, packed = run_tables(), _count_builds(), len(packs)
    sweep()
    assert run_tables() == composed
    assert _count_builds() == built
    assert len(packs) == packed


def _longest_sweep(tri):
    """The most steps one sweep of tri's kept program takes."""
    return max(len(group.members)
               for group in tri.cached(engine._compile_plan).groups)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_first_second_and_third_calls_equal_closed_forms(name):
    """A program's first call sweeps singles and pairs, and its second
    call regroups it into runs of up to ``RUN_STEPS`` steps.  On a fresh
    copy of the triangulation per class, each of the three calls equals
    the closed form: every class at genus 2, every class at genus 3 for
    clifford and 2-q, and eight F3 classes at genus 3."""
    A = builtin_by_name(name)
    genera = {"clifford": (2, 3), "twisted-matrix-2-q": (2, 3),
              "twisted-matrix-3-f3": (2, 3)}.get(name, (2,))
    for g in genera:
        detail = genus_g_closed_detail(g)
        classes = classify_spin_structures(detail.tri)
        if g == 3 and name == "twisted-matrix-3-f3":
            classes = classes[::8]
        assert len(classes) in (8, 4 ** g)
        for k, signs in enumerate(classes):
            want = tft.closed_form(A, tft.spin_class_handles(detail, signs))
            tri = _fresh(detail.tri)
            for call, longest in enumerate((2, RUN_STEPS, RUN_STEPS)):
                got = evaluate_raw(tri, signs, A).scalar_value()
                assert got == want.scalar_value(), (g, k, call)
                assert _longest_sweep(tri) == longest, (g, k, call)


def _open_walks():
    """Walked checkpoints of the NS+ and R- cylinders and the NS,R,R:+-
    pants, with their closed forms."""
    cases = [(tft.cylinder_spin("NS", 1)[:2],
              lambda A: tft.cylinder_closed_form(A, "NS", 1)),
             (tft.cylinder_spin("R", -1)[:2],
              lambda A: tft.cylinder_closed_form(A, "R", -1)),
             (tft.pants_spin(("NS", "R", "R"), 1, -1)[:2],
              lambda A: tft.pants_closed_form(A, ("NS", "R", "R"), 1, -1))]
    return [(points, form) for seed, (start, form) in enumerate(cases, 31)
            for points in [_checkpoints(*start, seed, 60, 20)]]


@pytest.mark.parametrize("name", ("clifford", "twisted-matrix-2-q",
                                  "twisted-matrix-3-f3"))
def test_walked_checkpoints_equal_when_evaluated_three_times(name):
    """Each walked checkpoint of the NS+ and R- cylinders and the
    NS,R,R:+- pants, evaluated three times (pairs, then runs twice),
    gives its closed form every time; some checkpoint regroups into runs
    of more than two steps."""
    A = builtin_by_name(name)
    longest = 0
    for points, form in _open_walks():
        want = form(A)
        for k, (tri, signs) in enumerate(points):
            for call in range(3):
                assert evaluate_raw(tri, signs, A) == want, (k, call)
            longest = max(longest, _longest_sweep(tri))
    assert longest > 2


def test_regrouped_runs_match_exhaustive_oracle():
    """After a first call with its spin signs regroups the program, the
    R- cylinder and the torus with clifford and with Cl_1 (x) Cl_1 equal
    the exhaustive oracle, for the spin signs and random signs."""
    rng = random.Random(31)
    for A in (builtin_by_name("clifford"), _cl1_cl1()):
        for tri, signs in (tft.cylinder_spin("R", -1)[:2],
                           tft.torus_spin("R", -1)):
            evaluate_raw(tri, signs, A)
            for signs in [signs] + [{e: rng.choice((1, -1))
                                     for e in tri.edges} for _ in range(3)]:
                assert evaluate_raw(tri, signs, A) == \
                    contract_exhaustive(build_graph(tri, signs), A), signs
                assert _longest_sweep(tri) > 2


@pytest.mark.parametrize("name", ("twisted-matrix-3-f3", "twisted-matrix-2-q",
                                  "group-z2"))
def test_unsigned_pairs_compose_as_the_generic_compose(name, monkeypatch):
    """``_compose_pair``, the unrolled compose of an unsigned pair, gives
    the rows that ``_compose`` gives for the same two members, as
    {bits: coeff}, on every key that the walked checkpoints of the NS+
    and R- cylinders and the NS,R,R:+- pants compose, each checkpoint
    equal to its closed form."""
    A = builtin_by_name(name)
    pair, keys = engine._compose_pair, []

    def checked(ta, ma, tb, mb, gk):
        rows = pair(ta, ma, tb, mb, gk)
        want = engine._compose([(ta, ma, False), (tb, mb, False)], False, 0,
                               gk)
        assert dict(rows) == dict(want), gk
        keys.append(gk)
        return rows

    monkeypatch.setattr(engine, "_compose_pair", checked)
    for points, form in _open_walks():
        want = form(A)
        for k, (tri, signs) in enumerate(points):
            assert evaluate_raw(tri, signs, A) == want, k
    assert keys


def test_once_evaluated_checkpoint_keeps_singles_and_pairs():
    """A Pachner checkpoint evaluated once, as a walk evaluates it, never
    regroups: its kept program sweeps single steps and pairs only."""
    A = builtin_by_name("clifford")
    detail = genus_g_closed_detail(2)
    walks = [_checkpoints(detail.tri, classify_spin_structures(
        detail.tri)[0], 5, 40, 10)[1:]] + [
        points[1:] for points, _ in _open_walks()]
    for tri, signs in itertools.chain.from_iterable(walks):
        evaluate_raw(tri, signs, A)
        assert tri.cached(engine._compile_plan).calls == 1
        assert _longest_sweep(tri) <= 2


def _regraded_cl1_cl1():
    """``_cl1_cl1``'s structure constants with parities (0, 1, 0, 1):
    x odd and y even, so t and c_- have the same entries."""
    A = _cl1_cl1()
    return GradedFrobeniusAlgebra(A.field, A.dim, (0, 1, 0, 1), A.mu, A.eta,
                                  A.eps, name="cl1-cl1-regraded")


def test_store_keeps_equal_entries_of_other_parities_and_fields_apart():
    """Algebras whose tensors share entries take turns with one warm
    store: clifford and group-z2 (equal t and c_-, parities (0, 1) and
    (0, 0)) and clifford over Q and over F_5 (equal t) on a genus-2
    class and the torus sign sums, and Cl_1 (x) Cl_1 with its regraded
    twin (equal t and c_-, both graded) on the NS+ cylinder's triangles
    with c_- on every edge.  Every value equals the one computed after
    clearing the store, and the two algebras of each pair give different
    values."""
    tri = genus_g_closed_detail(2).tri
    signs = classify_spin_structures(tri)[0]
    torus, _ = tft.torus_spin("NS", 1)
    cyl, _, _ = tft.cylinder_spin("NS", 1)
    cylinder = build_graph(cyl, dict.fromkeys(cyl.edges, -1))

    def closed(A):
        return (evaluate_raw(tri, signs, A).scalar_value(),
                tft.statistical_sign_sum(torus, A),
                tft.plus_part_state_sum(torus, A))

    def open_(A):
        D = derive(A)
        return contract_network(cylinder, plan_contraction(cylinder),
                                dict.fromkeys(cylinder.wires, D.c(-1)), D.t)

    clifford = builtin_by_name("clifford")
    pairs = [(closed, clifford, builtin_by_name("group-z2")),
             (closed, clifford, builtin_clifford(PrimeField(5))),
             (open_, _cl1_cl1(), _regraded_cl1_cl1())]
    want = {}
    for value, *algebras in pairs:
        for A in algebras:
            _clear()
            want[id(A)] = value(A)
        assert want[id(algebras[0])] != want[id(algebras[1])]
    _clear()
    for turn in range(4):
        for value, *algebras in pairs:
            for A in algebras[turn % 2:] + algebras[:turn % 2]:
                assert value(A) == want[id(A)], (turn, A.name, A.field)


def _edge_tensors(graph, D):
    """Fresh copies of the tensors ``contract_graph`` puts on each edge."""
    return {eid: dataclasses.replace(x, data=dict(x.data)) for eid, x in (
        (eid, D.boundary_map(graph.signs[eid]) if first.kind == "cod"
         else D.c(graph.signs[eid]))
        for eid, (first, _) in graph.wires.items())}


@pytest.mark.parametrize("name, surface", (("clifford", "genus-2"),
                                           ("twisted-matrix-3-f3", "cylinder")))
def test_copairing_changed_in_place_between_calls(name, surface):
    """A copairing whose entries change in place between two calls gives
    the value of a cold evaluation with an equal fresh tensor, not the
    value of the tables built for its old entries."""
    A = builtin_by_name(name)
    D, F = derive(A), A.field
    if surface == "genus-2":
        tri = genus_g_closed_detail(2).tri
        signs = classify_spin_structures(tri)[0]
    else:
        tri, signs, _ = tft.cylinder_spin("NS", 1)
    graph = build_graph(tri, signs)
    cops = _edge_tensors(graph, D)
    before = contract_network(graph, plan_contraction(graph), cops, D.t)
    eid = min(e for e, (first, _) in graph.wires.items()
              if first.kind == "face")
    c = cops[eid]
    key = min(c.data)
    c.data[key] = F.add(c.data[key], c.data[key])
    after = contract_network(graph, plan_contraction(graph), cops, D.t)
    assert after != before
    fresh = _edge_tensors(graph, D)
    fresh[eid] = dataclasses.replace(c, data=dict(c.data))
    _clear()
    cold = build_graph(_fresh(tri), signs)
    assert contract_network(cold, plan_contraction(cold), fresh, D.t) == after


@pytest.mark.parametrize("genus, peak", ((2, 7), (3, 8)))
def test_program_open_leg_counts_and_budget_message(clifford, genus, peak):
    """The compiled steps' open-leg counts replay the plan: peak 7 at
    genus 2 and 8 at genus 3.  A bound one below the peak stops the
    contraction after the first step above it, named as before."""
    tri = genus_g_closed_detail(genus).tri
    graph = build_graph(tri, classify_spin_structures(tri)[0])
    plan = plan_contraction(graph)
    counts = [step.n_open for step in _program(graph, plan).steps]
    legs, replay, first = 0, [], None
    for k, (kind, _) in enumerate(plan):
        legs += 2 if kind == "c" else -3
        if kind == "t":
            replay.append(legs)
            if first is None and legs >= peak:
                first = k
    assert counts == replay and max(counts) == peak == _plan_peak(plan)
    with pytest.raises(BudgetExceeded) as exc:
        contract_graph(graph, derive(clifford), plan,
                       max_open_legs=peak - 1)
    assert str(exc.value) == (f"open legs {peak} exceed bound {peak - 1} "
                              f"after plan[{first}] = {plan[first]!r} of "
                              f"{len(plan)} steps")
