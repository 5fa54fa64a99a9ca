"""State-sum evaluation of marked triangulations with edge signs.

The dual diagram of a complex has one trivalent vertex per triangle
(valued by the triangle tensor t, in-legs ordered slot 0,1,2) and one
bivalent vertex per edge: leg 0 toward the left face — or toward the
boundary for boundary edges — and leg 1 toward the right face.  An inner
edge carries the copairing c_{s(e)}.  A boundary edge carries c_{s(e)}
with its boundary leg already turned into an input through the pairing
b; since c_- is the inverse of b and c_+ = sigma o c_-, that composite
(b (x) id) o (id (x) c_s) is N_eps(-s) (id for s = -1, N for s = +1),
stored transposed so that leg 0 holds the input index.  The amplitude
contracts this diagram and relabels the 3 legs per boundary component as
inputs, in the order of ``boundary_legs``.

The schedule comes from ``plan_contraction``.  A face order is scored
symbolically by the sum of 3^(open legs) after each triangle step, the
open legs counted as the executor counts them, boundary legs included.
A beam search over face orders keeps, per number of placed faces, the
``BEAM_WIDTH`` (32) cheapest states: a state is the bitmask of the
placed faces with its open-leg count and partial score, it grows by
the faces on its frontier (any unplaced face when that is empty), and
two states with one mask keep the lower score.  The cheapest complete
state gives the face order.  Any order gives the same exact result, so
the search only saves work.  The plan depends on the triangulation alone
and is kept in its memo (``MarkedTriangulation.cached``), so the
per-class evaluations of one surface share one plan.

One executor, ``contract_network``, contracts the diagram for every
algebra.  It grows a pure-output "blob" tensor along a schedule of
('c', edge) / ('t', face) steps.  A copairing stays pending until a
triangle consumes one of its legs.  Per triangle, t and the pending
copairings it consumes are folded into a small fused table (blob-leg
indices it matches -> indices of the copairings' free ends, coefficient),
applied in one sweep over the blob; the free ends become new open legs.
The sweep slices each blob key with ``operator.itemgetter`` and works on
plain Python ints, not field elements.  Over Q, t and each copairing are
scaled to integers by the lcm of their denominators, the product of the
scales absorbed so far is kept as one denominator, and each entry of the
result becomes the exact ``Fraction(v, denom)`` once at the end.  Over
F_p the values already are ints: a step sums them without reduction and
reduces its new blob mod p once.  Either way the zero sums are dropped
from the new blob in place before the budget check.

The executor is split into a program and a numeric loop.  ``_compile``
replays the schedule on wire ends alone: per triangle step the blob
positions its slots match, the rest positions, the copairing ends it
consumes, the free ends and their key getters, and the open-leg count
after the step; at the end the permutation into codomain order.  None of
it depends on signs, tensors or the algebra, so the program of the
memo's plan is kept in the memo next to it, and a class sweep or a scan
over algebras compiles each triangulation once; any other plan is
checked and compiled per call.  The first graded run adds each step's
sign pairs and entry-sign selectors (see below).  The wires of
``build_graph`` are kept in the memo too; each call only checks the
signs.

A fused table never depends on where its legs sit in the blob, only on
the step's shape and on its tensors.  The shape is the matched slots,
per consumed copairing (in edge-id order) its consumed leg indices and
their slots, and for a graded algebra the inverted leg pairs of the
sign's table part (``_graded_tables``).  So ``_fused_table`` is a pure
function of the shape, the field's characteristic, t's leg parities and
the entries of t and of each consumed copairing, cached with
``functools.lru_cache`` for every step of every program: a Pachner
walk, whose triangulations are all new, finds the tables of the shapes
it has met, and so do tensors that are equal but not the same objects:
those of two algebras with equal entries (clifford and group-z2 share t
and c_-), or those that ``derive`` builds again after
``derive.cache_clear()``.  Each call turns each tensor into the
frozenset of its entries once and interns it (``_interned``), so a hit
compares those sets by identity.  Nothing cached refers to a tensor, so
a tensor may be changed between calls.
What depends on blob positions stays on the compiled step: its key
getters, its open-leg count and its entry-sign selectors.
Both caches keep the ``FUSED_TABLES_KEPT`` (1,024) most recently used
entries.  200-move Pachner walks on the cylinder, the pants and genus 2,
evaluated every 25 moves, plus the class sweeps of genus 1 to 3 (eight
F3 classes at genus 3), for all four built-in algebras in one process,
use 435 tables over 94 shapes, so the bound does not evict on such
traffic; 300 rounds of both torus sign sums for the four algebras use
24.  No result is cached: every call sweeps the blob through every step.

Each triangle step is one leg permutation and carries the Koszul sign
of ``tensor``'s permutations: (-1)^(sum of |a||b| over its inverted
pairs).  The legs start as the blob legs, then the consumed copairings'
legs by (edge id, leg index); they end as the rest legs, the free ends,
and the slot legs in slot order next to t's inputs.  One
``inversion_pairs`` call per step gives the pairs, in two parts.  The
table part is the inverted pairs among slot legs and free ends: a table
row fixes all their parities, so it is folded into the row's
coefficient.  The entry part is the inverted (matched blob leg, rest
leg) pairs; the sweep reads it off each blob key's parities through one
precompiled getter, per bitmask of odd matched legs, of the rest legs
that count.  No other pair is inverted.  When every leg parity is even
all sign work is skipped.  The surviving legs end in codomain order or
are put there by one final ``permute_out``, itself one ``itemgetter``
remap per entry.
Budget: after each triangle at most max_open_legs open legs (read off
the program before the step's sweep) and max_entries stored entries,
else ``BudgetExceeded`` names the step, its action and the plan length.

An independent exhaustive oracle assigns basis indices to every edge
directly and multiplies explicit crossing signs of a fixed planar
layering, in the field's own arithmetic.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .algebra import DerivedStructure, GradedFrobeniusAlgebra, derive, \
    passes_invariance_predicates
from .spin import Signs, edge_sign, is_admissible
from .surface import MarkedTriangulation
from .tensor import BudgetExceeded, GradedTensor, inversion_pairs, \
    key_getter

DEFAULT_MAX_OPEN_LEGS = 16
DEFAULT_MAX_ENTRIES = 10**7
BEAM_WIDTH = 32  # states the planner's beam search keeps per depth
FUSED_TABLES_KEPT = 1024  # entries of each of the two table caches


@dataclass(frozen=True)
class WireTarget:
    kind: str  # 'face' or 'cod'
    face: int = 0
    slot: int = 0
    boundary: int = 0
    position: int = 0


@dataclass
class DiagramGraph:
    tri: MarkedTriangulation
    signs: Signs
    # per edge id: (target of first output leg, target of second output leg)
    wires: dict[int, tuple[WireTarget, WireTarget]]


def boundary_legs(boundaries: int) -> list[tuple[int, int]]:
    """The leg layout of an amplitude with the given number of boundary
    circles: leg 3(b-1)+p is position p of boundary b, as (b, p)."""
    return [(b, p) for b in range(1, boundaries + 1) for p in range(3)]


def _codomain(tri: MarkedTriangulation) -> list[WireTarget]:
    """The diagram's codomain wire targets in amplitude leg order."""
    return [WireTarget("cod", boundary=b, position=p)
            for b, p in boundary_legs(len(tri.boundaries))]


def build_graph(tri: MarkedTriangulation, signs: Signs) -> DiagramGraph:
    """The dual diagram of tri with the given edge signs.  Every sign is
    checked on every call; the wires depend on the triangulation alone,
    so they are built once and kept in its memo (callers must not modify
    them)."""
    for eid in tri.edges:
        edge_sign(signs, eid)
    return DiagramGraph(tri, signs, tri.cached(_build_wires))


def _build_wires(tri: MarkedTriangulation) -> dict:
    wires = {}
    for eid in tri.edges:
        left = tri.sigma_L(eid)
        right = tri.sigma_R(eid)
        if right is None:
            raise ValueError(f"edge {eid}: no face on the right side")
        if left is None:
            bp = tri.boundary_of_edge(eid)
            if bp is None:
                raise ValueError(f"edge {eid}: boundary edge not on a boundary")
            first = WireTarget("cod", boundary=bp[0], position=bp[1])
        else:
            first = WireTarget("face", face=left[0], slot=left[1])
        second = WireTarget("face", face=right[0], slot=right[1])
        wires[eid] = (first, second)
    return wires


@dataclass
class Amplitude:
    """The amplitude of a spin surface with B boundary circles: a map
    A^(x)3B -> k, every leg an input (a scalar when B = 0).  Leg
    3(b-1)+p is position p of boundary b (``boundary_legs``), and
    ``types`` holds the boundary types when they are known.  Two
    amplitudes are equal when their tensors are."""
    tensor: GradedTensor
    types: tuple[str, ...] = ()

    @property
    def boundaries(self) -> int:
        return self.tensor.n_in // 3

    def scalar_value(self):
        return self.tensor.scalar_value()

    def __eq__(self, other):
        if not isinstance(other, Amplitude):
            return NotImplemented
        return self.tensor == other.tensor


def plan_contraction(graph: DiagramGraph) -> list[tuple[str, int]]:
    """Schedule of ('c', edge id) / ('t', face id) actions, cached.

    A face order is scored symbolically by the sum of 3^(open legs)
    after each triangle step.  A beam search of width ``BEAM_WIDTH`` over
    placed-face bitmasks, grown along the frontier, picks the order (see
    ``_beam_order``).  Each face's missing copairings are absorbed in
    edge-id order just before it.
    The plan depends only on the triangulation, so it is kept in the memo
    of ``graph.tri`` and every later call for a graph on that triangulation
    returns the same list (callers must not modify it).
    """
    return graph.tri.cached(_search_plan)


def _search_plan(tri: MarkedTriangulation) -> list[tuple[str, int]]:
    fids = sorted(tri.triangles)  # face index i <-> i-th smallest face id
    index = {fid: i for i, fid in enumerate(fids)}
    face_edges = [sorted({s.edge for s in tri.triangles[fid].slots})
                  for fid in fids]
    on_edge = {eid: {index[f] for f, _ in tri.incidences(eid)}
               for eid in tri.edges}
    bit = {eid: 1 << k for k, eid in enumerate(on_edge)}
    face_bits = [sum(bit[eid] for eid in edges) for edges in face_edges]
    adjacent = [sum({1 << j for eid in edges for j in on_edge[eid] if j != i})
                for i, edges in enumerate(face_edges)]
    absorbed: set[int] = set()
    plan: list[tuple[str, int]] = []
    for i in _beam_order(face_bits, adjacent):
        for eid in face_edges[i]:
            if eid not in absorbed:
                absorbed.add(eid)
                plan.append(("c", eid))
        plan.append(("t", fids[i]))
    return plan  # build_graph checked that every edge has a face


def _beam_order(face_bits, adjacent):
    """Face order of the cheapest complete state of the beam search.
    ``face_bits[i]`` is the edge bitmask of face i and ``adjacent[i]``
    the bitmask of the other faces sharing an edge with it.

    A state is the bitmask of the placed faces with its open-leg count,
    absorbed edges, frontier (unplaced faces sharing an absorbed edge)
    and partial score.  One depth places one more face: a frontier face,
    or any unplaced face when the frontier is empty.  States reaching the
    same mask keep the lower partial score; the ``BEAM_WIDTH`` lowest
    (ties: the lower mask) go on to the next depth, and only those get
    their absorbed edges and frontier worked out.  Every state has a
    successor, so each depth keeps at least one state.
    """
    full = (1 << len(face_bits)) - 1
    pow3 = [3 ** k for k in range(3 * len(face_bits) + 1)]  # legs <= edges
    # (score, mask, open legs, absorbed edges, frontier, (face, parent))
    beam = [(0, 0, 0, 0, 0, None)]
    for _ in face_bits:
        reached = {}  # mask -> (score, mask, open legs, face, parent state)
        for state in beam:
            score, mask, open_legs, absorbed, frontier, _ = state
            todo = frontier or full ^ mask
            while todo:
                low = todo & -todo
                todo ^= low
                i = low.bit_length() - 1
                legs = (open_legs - 3
                        + 2 * (face_bits[i] & ~absorbed).bit_count())
                s = score + pow3[legs]
                m = mask | low
                old = reached.get(m)
                if old is None or s < old[0]:
                    reached[m] = (s, m, legs, i, state)
        # masks are unique, so the tuples never compare past them
        beam = [(s, m, legs, p[3] | face_bits[i], (p[4] | adjacent[i]) & ~m,
                 (i, p[5]))
                for s, m, legs, i, p in heapq.nsmallest(BEAM_WIDTH,
                                                        reached.values())]
    order, chain = [], beam[0][5]
    while chain is not None:
        i, chain = chain
        order.append(i)
    return order[::-1]


def is_valid_schedule(graph: DiagramGraph, plan) -> bool:
    """True iff ``plan`` absorbs every edge's copairing once and places
    every face once, each after the copairings of its three slots.
    Unknown ids and repeated actions make it invalid."""
    faces = graph.tri.triangles
    absorbed, placed = set(), set()
    for kind, tid in plan:
        if kind == "c" and tid in graph.wires and tid not in absorbed:
            absorbed.add(tid)
        elif (kind == "t" and tid in faces and tid not in placed
              and all(s.edge in absorbed for s in faces[tid].slots)):
            placed.add(tid)
        else:
            return False
    return len(absorbed) == len(graph.wires) and len(placed) == len(faces)


def contract_graph(graph: DiagramGraph, D: DerivedStructure,
                   plan=None, max_open_legs=DEFAULT_MAX_OPEN_LEGS,
                   max_entries=DEFAULT_MAX_ENTRIES) -> GradedTensor:
    """Contract the diagram to a pure-output tensor in codomain leg order.

    Runs ``contract_network`` along ``plan`` (checked) or the cached
    ``plan_contraction``, with t on every face, c_{s(e)} on every inner
    edge and ``D.boundary_map(s(e))`` = N_eps(-s(e)) on every boundary
    edge, keyed (input index, index toward the face).  Each codomain leg
    therefore holds the index of an input; the result is the amplitude
    up to ``flip_out_to_in``'s relabel.  All these tensors come from D's
    caches, so every call passes the executor the same objects.
    """
    if plan is None:
        plan = plan_contraction(graph)
    edge_tensors = {
        eid: (D.boundary_map(graph.signs[eid]) if first.kind == "cod"
              else D.c(graph.signs[eid]))
        for eid, (first, _) in graph.wires.items()}
    return contract_network(graph, plan, edge_tensors, D.t, max_open_legs,
                            max_entries)


class _Step:
    """One triangle step of a compiled contraction (see ``_compile``)."""
    __slots__ = ("index", "eids", "mget", "rget", "n_open", "layout",
                 "shape", "graded")

    def __init__(self, index, n_before, matched, rest, used, free_ends):
        eids = sorted(used)
        self.index = index  # its position in the plan
        self.eids = tuple(eids)  # the copairings it consumes, by edge id
        # key getters: blob key -> matched legs, blob key -> rest legs
        self.mget = key_getter([q for _, q in matched])
        self.rget = key_getter(rest)
        self.n_open = len(rest) + len(free_ends)  # open legs after the step
        self.layout = (n_before, matched, rest, used, free_ends)
        # what its fused table depends on besides the tensors: the matched
        # slots and, per consumed copairing, its consumed leg indices and
        # their slots
        self.shape = (tuple(s for s, _ in matched),
                      tuple(tuple(used[eid]) for eid in eids),
                      tuple(tuple(used[eid].values()) for eid in eids))
        # graded: ((shape, table-part sign pairs), entry-sign selectors),
        # built on the first graded run (``_graded_tables``)
        self.graded = None


class _Program:
    """The sign-independent part of a contraction (see ``_compile``)."""
    __slots__ = ("steps", "edges", "legs", "order")

    def __init__(self, steps, edges, legs, order):
        self.steps = steps  # the triangle steps, as ``_Step``
        self.edges = edges  # edge ids in plan order
        self.legs = legs    # number of codomain legs
        self.order = order  # final ``permute_out``, None if already in order


def _program(graph: DiagramGraph, plan) -> _Program:
    """The compiled program of ``plan``: kept in the triangulation's memo
    when ``plan`` is the memo's plan, checked (``is_valid_schedule``) and
    compiled afresh for any other plan."""
    tri = graph.tri
    if plan is not tri.cached(_search_plan):
        if not is_valid_schedule(graph, plan):
            raise ValueError("invalid contraction schedule")
        return _compile(tri, plan)
    return tri.cached(_compile_plan)


def _compile_plan(tri: MarkedTriangulation) -> _Program:
    return _compile(tri, tri.cached(_search_plan))


def _compile(tri: MarkedTriangulation, plan) -> _Program:
    """Replay ``plan`` on wire ends alone: per triangle step the blob
    positions its slots match, the copairing ends it consumes and the
    free ends that become open legs, and at the end the permutation into
    codomain order.  Depends only on the triangulation (the wires) and
    the plan, never on signs or tensors."""
    # the wire end (edge id, leg index) feeding each triangle slot
    wires = tri.cached(_build_wires)
    end_at = {(w.face, w.slot): (eid, li) for eid, ends in wires.items()
              for li, w in enumerate(ends) if w.kind == "face"}
    open_ends: list[tuple[int, int]] = []  # wire end of each blob leg
    at: dict[tuple[int, int], int] = {}  # wire end -> its blob position
    pending: set[int] = set()  # copairings no triangle has consumed yet
    edges, steps = [], []
    for index, (kind, tid) in enumerate(plan):
        if kind == "c":
            pending.add(tid)
            edges.append(tid)
            continue
        matched = []  # (slot, blob position) of slots fed by open legs
        used: dict[int, dict[int, int]] = {}  # eid -> {leg index: slot}
        for s in range(3):
            end = end_at[tid, s]
            if end[0] in pending:
                used.setdefault(end[0], {})[end[1]] = s
            else:  # a valid schedule left it open
                matched.append((s, at[end]))
        pending.difference_update(used)
        # new open legs: the unconsumed ends of the copairings used here
        free_ends = [(eid, li) for eid in sorted(used) for li in (0, 1)
                     if li not in used[eid]]
        matched_pos = [q for _, q in matched]
        rest = [q for q in range(len(open_ends)) if q not in matched_pos]
        steps.append(_Step(index, len(open_ends), matched, rest, used,
                           free_ends))
        open_ends = [open_ends[q] for q in rest] + free_ends
        at = {end: q for q, end in enumerate(open_ends)}
    targets = [wires[eid][li] for eid, li in open_ends]
    want = _codomain(tri)
    if pending or Counter(targets) != Counter(want):
        raise RuntimeError("contraction did not end on the codomain legs")
    at = {w: q for q, w in enumerate(targets)}
    order = [at[w] for w in want]
    return _Program(steps, tuple(edges), len(want),
                    None if order == sorted(order) else order)


def contract_network(graph: DiagramGraph, plan, copairings, t: GradedTensor,
                     max_open_legs=DEFAULT_MAX_OPEN_LEGS,
                     max_entries=DEFAULT_MAX_ENTRIES) -> GradedTensor:
    """The single contraction executor (see the module docstring).

    Puts ``copairings[eid]`` on each edge and t on each face; returns a
    pure-output tensor in codomain leg order with t's leg parities and
    values in t's field.  All bookkeeping comes from the compiled
    program (``_program``): kept in the memo of ``graph.tri`` for the
    memo's plan, whose wires depend on the triangulation alone, and built
    afresh for any other plan.  This function only folds the fused tables
    its steps lack, sweeps the blob once per triangle and reduces.  The
    loop runs on plain ints: over Q the tensors are scaled to integers and
    the product of their scales divides every entry once at the end; over
    F_p each triangle step reduces its sums mod p once.

    The fused tables come from ``_fused_table``'s cache, keyed on the
    step's shape, the characteristic, t's leg parities and the interned
    entries of t and of the copairings the step consumes.  The key holds
    no tensor, so a tensor equal to an earlier one finds its tables, and
    changing a tensor between calls is safe.
    """
    program = _program(graph, plan)
    F = t.field
    p = F.characteristic
    leg = t.in_legs[0]
    graded = any(leg)
    memo: dict[int, tuple] = {}  # id(tensor) -> (interned entries, scale)

    def content(x):
        got = memo.get(id(x))
        if got is None:
            got = memo[id(x)] = (_interned(frozenset(x.data.items())),
                                 _scale(x.data, p))
        return got

    tset, tscale = content(t)
    denom = 1  # over Q: the product of the scales of every tensor placed
    if not p:
        denom = tscale ** len(program.steps)
        for eid in program.edges:
            denom *= content(copairings[eid])[1]
    blob: dict[tuple, int] = {(): 1}
    for step in program.steps:
        if step.n_open > max_open_legs:
            raise BudgetExceeded(f"open legs {step.n_open} exceed bound "
                                 f"{max_open_legs} {_where(plan, step)}")
        shape, selectors = step.shape, None
        if graded:
            if step.graded is None:
                pairs, sels = _graded_tables(step)
                step.graded = (shape, pairs), sels
            shape, selectors = step.graded
        fused, masks = _fused_table(shape, p, leg, tset, *[
            content(copairings[eid])[0] for eid in step.eids])
        # the entry-sign getter of each matched key whose sign can be odd
        sel_of = selectors and masks and {
            mk: sel for mk, m in masks.items()
            if (sel := selectors[m]) is not None}
        mget, rget = step.mget, step.rget
        new_blob: dict[tuple, int] = {}
        get = new_blob.get
        if sel_of:
            # the same sweep, negating v by the entry part of the sign
            parity, sel_get = leg.__getitem__, sel_of.get
            for key, v in blob.items():
                mk = mget(key)
                hits = fused.get(mk)
                if hits is None:
                    continue
                sel = sel_get(mk)
                if sel is not None and sum(map(parity, sel(key))) & 1:
                    v = -v
                base = rget(key)
                for nk, cv in hits:
                    k2 = base + nk
                    new_blob[k2] = get(k2, 0) + v * cv
        else:
            for key, v in blob.items():
                hits = fused.get(mget(key))
                if hits is None:
                    continue
                base = rget(key)
                for nk, cv in hits:
                    k2 = base + nk
                    new_blob[k2] = get(k2, 0) + v * cv
        # reduce and drop the zero sums in place, before the budget check
        zeros = []
        if p:
            for k2, v in new_blob.items():
                v %= p
                if v:
                    new_blob[k2] = v
                else:
                    zeros.append(k2)
        else:
            zeros = [k2 for k2, v in new_blob.items() if not v]
        for k2 in zeros:
            del new_blob[k2]
        blob = new_blob
        if len(blob) > max_entries:
            raise BudgetExceeded(f"{len(blob)} stored coefficients exceed "
                                 f"budget {max_entries} "
                                 f"{_where(plan, step)}")
    if not p:
        for key, v in blob.items():
            blob[key] = Fraction(v, denom)  # the one division
    out = GradedTensor(F, (leg,) * program.legs, (), blob)
    return out if program.order is None else out.permute_out(program.order)


def _where(plan, step: _Step) -> str:
    k = step.index
    return f"after plan[{k}] = {tuple(plan[k])!r} of {len(plan)} steps"


@functools.lru_cache(maxsize=FUSED_TABLES_KEPT)
def _interned(entries: frozenset) -> frozenset:
    """The set of entries equal to ``entries`` that the keys of
    ``_fused_table``'s cache hold, so that a hit compares it by identity."""
    return entries


def _scale(data, p):
    """The lcm of a tensor's denominators over Q (p = 0), else 1."""
    return math.lcm(*(v.denominator for v in data.values())) if not p else 1


def _integral(data, p):
    """A tensor's values as ints: over Q the values times ``_scale``,
    over F_p (p > 0) the values themselves."""
    if p:
        return data
    scale = _scale(data, p)
    return {k: v.numerator * (scale // v.denominator)
            for k, v in data.items()}


def _by_fixed(data, cons):
    """A copairing's entries grouped by its values at the consumed leg
    indices ``cons``: fixed values -> [(values at the free ends, coeff)]."""
    rows: dict[tuple, list] = {}
    for ckey, cv in data.items():
        free = tuple(ckey[li] for li in (0, 1) if li not in cons)
        rows.setdefault(tuple(ckey[li] for li in cons), []).append((free, cv))
    return rows


@functools.lru_cache(maxsize=FUSED_TABLES_KEPT)
def _fused_table(shape, p, leg, t_entries, *copairing_entries):
    """The fused table of one triangle step and the odd-masks of its keys.

    ``shape`` is the step's (matched slots, consumed leg indices and
    their slots per copairing), paired for a graded algebra (t's leg
    parities ``leg`` not all even) with the table part's inverted pairs
    (``_graded_tables``) as positions in a row's t key followed by its
    free ends; ``p`` is the characteristic, and the entries are those of
    t and of each consumed copairing.  The table maps the matched slots'
    indices of a t key to [(the free ends' indices, coeff)]: t times the
    copairings, in ints (``_integral``), each coeff times
    (-1)^(sum of |a||b| over those pairs).  The masks map each matched key
    with an odd index to the bitmask of its odd matched legs; None when
    ungraded.
    """
    graded = any(leg)
    if graded:
        shape, pairs = shape
    matched_slots, cons_of, slots_of = shape
    tget = key_getter(matched_slots)
    opts = [(slots, _by_fixed(_integral(dict(entries), p), cons))
            for entries, cons, slots in zip(copairing_entries, cons_of,
                                            slots_of)]
    fused: dict[tuple, list] = {}
    for tkey, tv in _integral(dict(t_entries), p).items():
        acc = [((), tv)]
        for slots, rows in opts:
            hits = rows.get(tuple(tkey[s] for s in slots))
            if not hits:
                break
            acc = [(nk + free, av * cv)
                   for nk, av in acc for free, cv in hits]
        else:
            if graded and pairs:
                signed = []
                for nk, cv in acc:
                    row = tkey + nk
                    odd = sum(leg[row[a]] & leg[row[b]] for a, b in pairs) & 1
                    signed.append((nk, -cv if odd else cv))
                acc = signed
            fused.setdefault(tget(tkey), []).extend(acc)
    if not graded:
        return fused, None
    masks = {mk: m for mk in fused
             if (m := sum(leg[x] << i for i, x in enumerate(mk)))}
    return fused, masks


def _graded_tables(step: _Step):
    """(table pairs, selectors) of one triangle step, both read off the
    inverted pairs of its one leg permutation.

    The legs start as the blob legs, then the consumed copairings' legs
    by (edge id, leg index), and end as the rest legs, the free ends and
    the slot legs in slot order.  ``table pairs`` are the inverted pairs
    among slot legs and free ends, as positions in a fused table row's
    t key followed by its free ends.  The other inverted pairs are
    (matched blob leg, rest leg) pairs: ``selectors[mask]``, per bitmask
    of the odd matched legs (bit i: the i'th matched slot), is the getter
    of the rest legs in an odd number of them, or None; ``selectors`` is
    None when no such pair exists.
    """
    n_open, matched, rest, used, free_ends = step.layout
    old = {(eid, li): n_open + 2 * k + li for k, eid in enumerate(step.eids)
           for li in (0, 1)}  # old position of each consumed copairing leg
    slot_legs = [0, 0, 0]
    for s, q in matched:
        slot_legs[s] = q
    for eid, legs in used.items():
        for li, s in legs.items():
            slot_legs[s] = old[eid, li]
    free_legs = [old[end] for end in free_ends]
    pairs = inversion_pairs(rest + free_legs + slot_legs)
    row = {q: i for i, q in enumerate(slot_legs + free_legs)}
    table_pairs = tuple((row[a], row[b]) for a, b in pairs
                        if a in row and b in row)
    bit = {q: 1 << i for i, (_, q) in enumerate(matched)}
    over = dict.fromkeys(rest, 0)  # rest leg -> matched legs it passes
    for a, b in pairs:
        if a in bit and b in over:
            over[b] |= bit[a]
    if not any(over.values()):
        return table_pairs, None
    selectors = []
    for mask in range(1 << len(matched)):
        sel = [r for r in rest if (over[r] & mask).bit_count() & 1]
        selectors.append(key_getter(sel) if sel else None)
    return table_pairs, selectors


def evaluate_raw(tri: MarkedTriangulation, signs: Signs,
                 A: GradedFrobeniusAlgebra, plan=None,
                 max_open_legs=DEFAULT_MAX_OPEN_LEGS,
                 max_entries=DEFAULT_MAX_ENTRIES) -> Amplitude:
    """T'_A: the state sum for an arbitrary (total) sign assignment."""
    D = derive(A)
    graph = build_graph(tri, signs)
    raw = contract_graph(graph, D, plan, max_open_legs, max_entries)
    return Amplitude(raw.flip_out_to_in())


def evaluate(tri: MarkedTriangulation, signs: Signs, types: tuple[str, ...],
             A: GradedFrobeniusAlgebra) -> Amplitude:
    """T_A: the state sum of a spin surface.  Raises ``ValueError`` unless
    the signs are admissible for the boundary ``types`` and A passes the
    invariance predicates; the amplitude is ``evaluate_raw``'s, with
    ``types`` recorded."""
    if not is_admissible(tri, signs, types):
        raise ValueError("edge signs are not admissible for the given "
                         "boundary types")
    if not passes_invariance_predicates(A):
        raise ValueError("algebra does not satisfy the invariance predicates")
    amp = evaluate_raw(tri, signs, A)
    amp.types = tuple(types)
    return amp


# -- exhaustive oracle --------------------------------------------------
def contract_exhaustive(graph: DiagramGraph,
                        A: GradedFrobeniusAlgebra) -> Amplitude:
    """Independent brute-force contraction.

    Fixes one planar layering: sources are the copairing legs in edge-id
    order (first leg, then second per edge); targets are the triangle
    in-legs (face-id order, slots 0,1,2) followed by the codomain legs.
    Each wire assignment contributes the product of copairing and
    triangle coefficients times (-1)^(sum of |a||b| over crossing pairs
    of the layering).  The output flip through b is applied entrywise.
    """
    D = derive(A)
    F = A.field
    tri = graph.tri
    edge_ids = sorted(graph.wires)
    # source positions: 2 per edge
    src_pos = {}
    for k, eid in enumerate(edge_ids):
        src_pos[(eid, 0)] = 2 * k
        src_pos[(eid, 1)] = 2 * k + 1
    # target order: triangles then codomain
    faces = [WireTarget("face", face=fid, slot=slot)
             for fid in sorted(tri.triangles) for slot in range(3)]
    codomain = _codomain(tri)
    tgt_index = {w: q for q, w in enumerate(faces + codomain)}
    # permutation: source position -> target position
    perm = [0] * (2 * len(edge_ids))
    for eid in edge_ids:
        first, second = graph.wires[eid]
        perm[src_pos[(eid, 0)]] = tgt_index[first]
        perm[src_pos[(eid, 1)]] = tgt_index[second]
    cross = [(a, b) for a in range(len(perm)) for b in range(a + 1, len(perm))
             if perm[a] > perm[b]]
    # nonzero copairing entries per edge
    c_entries = {}
    for eid in edge_ids:
        c = D.c(graph.signs[eid])
        c_entries[eid] = list(c.data.items())
    # the wire end (edge id, leg index) at each target, looked up once:
    # per face its three slots', and the codomain legs' in order
    end_of = {w: (eid, li) for eid, ends in graph.wires.items()
              for li, w in enumerate(ends)}
    face_ends = {fid: [end_of[WireTarget("face", face=fid, slot=s)]
                       for s in range(3)] for fid in tri.triangles}
    cod_ends = [end_of[w] for w in codomain]
    # order edges so triangles complete as early as possible
    order: list[int] = []
    seen: set[int] = set()
    for fid in sorted(tri.triangles):
        for slot in range(3):
            eid = tri.triangles[fid].slots[slot].edge
            if eid not in seen:
                seen.add(eid)
                order.append(eid)
    # which faces complete at each step of the order
    complete_at: list[list[int]] = [[] for _ in order]
    rank = {eid: k for k, eid in enumerate(order)}
    for fid in sorted(tri.triangles):
        last = max(rank[s.edge] for s in tri.triangles[fid].slots)
        complete_at[last].append(fid)
    parity = A.parity
    result: dict[tuple, object] = {}
    assign: dict[tuple[int, int], int] = {}  # (eid, leg index) -> basis index

    def face_value(fid) -> object | None:
        return D.t.data.get(tuple(assign[end] for end in face_ends[fid]))

    def rec(k: int, acc):
        if k == len(order):
            # crossing sign over the fixed layering
            s = 0
            flat = {}
            for eid in edge_ids:
                flat[src_pos[(eid, 0)]] = assign[(eid, 0)]
                flat[src_pos[(eid, 1)]] = assign[(eid, 1)]
            for a, b in cross:
                s += parity[flat[a]] * parity[flat[b]]
            val = acc if s % 2 == 0 else F.neg(acc)
            out_key = tuple(assign[end] for end in cod_ends)
            result[out_key] = F.add(result.get(out_key, F.zero()), val)
            return
        eid = order[k]
        for (i, j), cval in c_entries[eid]:
            assign[(eid, 0)] = i
            assign[(eid, 1)] = j
            term = F.mul(acc, cval)
            ok = True
            for fid in complete_at[k]:
                tv = face_value(fid)
                if tv is None:
                    ok = False
                    break
                term = F.mul(term, tv)
            if ok:
                rec(k + 1, term)
        assign.pop((eid, 0), None)
        assign.pop((eid, 1), None)

    rec(0, F.one())
    leg = tuple(parity)
    m = len(codomain)
    pre = GradedTensor(F, tuple([leg] * m), (), {})
    for key, v in result.items():
        if not F.is_zero(v):
            pre.data[key] = v
    # independent output flip: sum_a sign(a) prod_i b(x_i, a_i) T[a]
    bdat = D.b.data
    flipped = GradedTensor(F, (), tuple([leg] * m), {})
    dim = A.dim
    for akey, v in pre.data.items():
        s = 0
        for ii in range(m):
            for jj in range(ii + 1, m):
                s += parity[akey[ii]] * parity[akey[jj]]
        base = v if s % 2 == 0 else F.neg(v)
        for xkey in itertools.product(range(dim), repeat=m):
            coeff = base
            for x, a in zip(xkey, akey):
                bv = bdat.get((x, a))
                if bv is None:
                    coeff = None
                    break
                coeff = F.mul(coeff, bv)
            if coeff is not None and not F.is_zero(coeff):
                flipped._add_to(xkey, coeff)
    return Amplitude(flipped)
