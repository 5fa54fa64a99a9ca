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
copairings it consumes are folded into a small fused table (the indices
of the blob legs on its t slots -> indices of the copairings' free ends,
coefficient), applied in one sweep over the blob; the free ends become
new open legs.  The blob is a dict from int to int.  Each open leg owns
a fixed field of the key, its slot, for its whole life: W =
(dim-1).bit_length() bits (at least one) for the basis index, below them
one parity bit when the algebra is graded.  A step reads its matched legs
as ``mk = key & mask``, finds the rows of ``mk`` in its table re-keyed to
those slots, and writes ``(key ^ mk) | nk``: the free ends fill the
lowest free slots.  No tuple is built per entry.
Most sweeps take consecutive triangle steps at once, a run, so the
blobs between them are never built: on a closed surface such a blob
often doubles (one leg opened) only for the next step to merge it back.
A run's table is keyed on its group mask: its members' matched legs
that no earlier member produced (the other matched legs are free ends
of earlier members).  A masked key's rows are composed on its first
miss and stored even when there are none: a mini-blob {key: 1} runs
through the members' packed tables (``_compose``), and rows with equal
bits merge, so a run costs at most the per-key work of its steps once,
and nothing after.  Which compose a run takes follows where the
benchmark's workloads spend their time.  An unsigned run of two goes
through ``_compose_pair``, the same loop unrolled: 300 F3 cylinder fuzz
sessions compose 83,794 such pairs cold, about 9 % of their time, at
about three first-member rows per key, so the per-call cost decides,
and the generic compose made each call about 1.4x slower and the fuzz
about 3 % slower.  Every other run, signed pairs included, takes the
generic compose: together they cost at most 3 % of any workload's time
(the Clifford class sweeps).
Over Q, t and each copairing are scaled to integers by the lcm of their
denominators, the product of the scales absorbed so far is kept as one
denominator, and each entry of the result becomes the exact
``Fraction(v, denom)`` once at the end.  Over F_p the values already are
ints: a sweep sums them without reduction (composed rows included) and
reduces its new blob mod p once.  Either way the zero sums are dropped
from the new blob in place before the budget check.
The final blob is decoded once, one column of indices per slot.

The executor is split into a program and a numeric loop.  ``_compile``
replays the schedule on wire ends alone and assigns the slots: per
triangle step the slots of the blob legs its t slots match, the slots it
keeps, the copairing ends it consumes, the slots its free ends take, and
the open-leg count after the step; at the end the final slots and the
permutation into codomain order.  Then it cuts the steps into sweeps of
one step or a run of two, a pair (``_groups``), by a DP that minimises
the planner's own symbolic score: a sweep pays 3^(open legs before it)
for its visits plus 3^(its members' largest open-leg count) for its
output paths, and nothing for the blobs between its members; ties go to
the longer run.  Two adjacent single sweeps always score more than
their pair, so no two singles are adjacent.  None of it depends on
signs, tensors or the algebra, so the program of the memo's plan is kept
in the memo next to it, and a class sweep or a scan over algebras
compiles each triangulation once; any other plan is checked and
compiled per call.  A program counts the calls that return.  The
second call of a kept program cuts its steps again, into runs of up to
``RUN_STEPS`` (4): a reused program composes the longer runs' rows once
and skips their blobs on every later call, while a program run once,
every Pachner checkpoint's and every custom plan's, keeps the singles
and pairs, which cost the least to compose.  A call that raises does
not count, so a budget failure leaves the sweeps as they were, and a
program regroups once (``regrouped``): a later call that raises keeps
the runs and the rows they composed.  The first graded call adds each
step's sign pairs and crossings (see below).  The wires of
``build_graph`` are kept in the memo too; each call only checks the
signs.

A fused table never depends on where its legs sit in the blob, only on
the step's shape and on its tensors.  The shape is the matched t slots,
per consumed copairing (in edge-id order) its consumed leg indices and
their t slots, and for a graded algebra the inverted leg pairs of the
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
Both caches keep the ``FUSED_TABLES_KEPT`` (1,024) most recently used
entries.  Seeded (28) 200-move Pachner walks on the NS+ cylinder, the
NS,R,R:+- pants and genus 2, evaluated at the start and every 25 moves,
plus the class sweeps of genus 1 to 3 (eight F3 classes at genus 3),
for all four built-in algebras in one process, use 452 tables over 95
shapes, so the bound does not evict on such traffic; 300 rounds of both
torus sign sums for the four algebras use 24.  A run packs its
members' tables as single steps would, so runs build no more tables:
the same traffic builds the same 452 with pairs only, with the runs of
reused programs, or when every sweep is one step.
What depends on slots stays on the compiled step: its open-leg count,
its crossings, and its packed tables (``_pack``), the fused table
re-keyed to its slots.  A run keeps its composed tables.  Both stores
are keyed by the characteristic, t's leg parities and the interned
entries of t and of the copairings the step or run consumes, and both
keep the tables of the tensor sets used last (``_lru``: a hit moves its
table to the end, a miss in a full store drops the first).  A step keeps
``PACKED_TABLES_PER_STEP`` (8): a class sweep gives it at most 2^3 sign
patterns on the up to three copairings it consumes, and a scan over
algebras 4 algebras x 2 sign sums.  A run keeps 2^k tables, where k is
the number of copairings it consumes, and at least 8: one algebra's
classes, gauge-shifted or not, differ on them only by c_+ or c_- per
edge, so a warm pass over any classes of one surface composes no row,
and a scan over algebras fits as it does in a step.  At genus 3 the
first pair consumes five copairings; after the regroup, runs of four
consume up to eight at genus 2 and seven at genus 3, so one run may
keep 256 tables.  The rows of the generic compose are interned
(``_row``), so the tables of signed pairs and longer runs share the rows
they repeat.  A run's members are only read when the run composes.  The
tables go with the program, and a regroup drops the pairs' tables with
the pairs.  No result is cached: every call sweeps the blob through
every sweep.

Each triangle step is one leg permutation and carries the Koszul sign
of ``tensor``'s permutations: (-1)^(sum of |a||b| over its inverted
pairs).  Legs are ordered by slot.  The permutation starts with the
blob legs by slot, then the consumed copairings' legs by (edge id, leg
index); it ends with the new open legs by slot, then the slot legs in t
slot order next to t's inputs.  One ``inversion_pairs`` call per step
gives the pairs, in two parts.  The table part is the inverted pairs
among slot legs and free ends: a table row fixes all their parities, so
it is folded into the row's coefficient.  Every other inverted pair is
a rest leg r against an odd leg x, where x is a matched leg whose slot
is below r's or a free end whose new slot is below r's.  So each packed
row carries one int: the XOR, over its odd matched and free-end legs, of
the parity bits of the rest legs above them; the hit is negated when the
blob key has an odd number of those bits set (``int.bit_count``).  A
composed row carries one such ``odd`` mask too.  The legs a run knows
are its group mask and its members' free ends: the key fixes the first,
and the rows of earlier members the second.  So the parity of a
member's bits on those legs goes into the row's coefficient, and its
other bits, all on blob legs the run never reads, XOR into the row's
``odd``.  When every leg parity is even all sign work is skipped.  The
final legs are read in slot order and put into codomain order by one
``permute_out``; without odd basis vectors that reorder has no sign, and
the decode reads the slots in codomain order directly.
Budget: at most max_open_legs open legs after each triangle, read off
the program for every member before a sweep, and at most max_entries
entries in each stored blob (a run builds none between its members, so
a regrouped call stores fewer blobs), else ``BudgetExceeded`` names the
first member over the leg bound or the sweep's last member, its action
and the plan length.

An independent exhaustive oracle assigns basis indices to every edge
directly and multiplies explicit crossing signs of a fixed planar
layering, in the field's own arithmetic.  It cuts a branch once a
face's assigned legs match no key of t.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem, xor

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
PACKED_TABLES_PER_STEP = 8  # packed tables each compiled step keeps
RUN_STEPS = 4  # the most steps a sweep of a reused program takes


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
    __slots__ = ("index", "eids", "matched", "rest", "free", "n_open",
                 "shape", "graded", "packed")

    def __init__(self, index, matched, rest, used, free):
        eids = sorted(used)
        self.index = index  # its position in the plan
        self.eids = tuple(eids)  # the copairings it consumes, by edge id
        # slots: (t slot, slot of the blob leg feeding it) in t-slot order,
        # the slots of the blob legs it keeps, and the slot each free end
        # takes, in (edge id, leg index) order
        self.matched = tuple(matched)
        self.rest = tuple(rest)
        self.free = tuple(free)
        self.n_open = len(rest) + len(free)  # open legs after the step
        # what its fused table depends on besides the tensors: the matched
        # t slots and, per consumed copairing, its consumed leg indices and
        # their t slots
        self.shape = (tuple(s for s, _ in matched),
                      tuple(tuple(used[eid]) for eid in eids),
                      tuple(tuple(used[eid].values()) for eid in eids))
        # graded: ((shape, table-part sign pairs), crossings), built on the
        # first graded run (``_graded_tables``)
        self.graded = None
        # (characteristic, t's leg parities, interned entries of t and of
        # the consumed copairings) -> (packed table, matched mask, signed)
        # (``_pack``), for the PACKED_TABLES_PER_STEP tensor sets it used
        # last
        self.packed = {}

    @property
    def members(self):
        """A step swept alone is its own group of one."""
        return (self,)


class _Run:
    """Consecutive triangle steps swept as one (see ``_groups``)."""
    __slots__ = ("members", "eids", "kept", "tables")

    def __init__(self, members):
        self.members = tuple(members)
        self.eids = sum((step.eids for step in members), ())
        # one table per sign pattern of its copairings, and at least as
        # many as a step keeps (see the module docstring)
        self.kept = max(PACKED_TABLES_PER_STEP, 1 << len(self.eids))
        # (characteristic, t's leg parities, interned entries of t and of
        # the members' copairings) -> (composed table, group mask, signed,
        # compose) (``_run_table``), for the ``kept`` tensor sets used last
        self.tables = {}


class _Program:
    """The sign-independent part of a contraction (see ``_compile``)."""
    __slots__ = ("steps", "groups", "edges", "slots", "order", "calls",
                 "regrouped")

    def __init__(self, steps, groups, edges, slots, order):
        self.steps = steps  # the triangle steps, as ``_Step``
        self.groups = groups  # the sweeps: a ``_Step`` or a ``_Run`` each
        self.edges = edges  # edge ids in plan order
        self.slots = slots  # the final open legs' slots, ascending
        self.order = order  # final ``permute_out``, None if already in order
        self.calls = 0  # the calls that returned
        self.regrouped = False  # whether its steps were cut into runs


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
    """Replay ``plan`` on wire ends alone: per triangle step the slots of
    the blob legs its t slots match, the copairing ends it consumes and
    the free ends that become open legs, each in the lowest free slot, and
    at the end the permutation into codomain order.  Depends only on the
    triangulation (the wires) and the plan, never on signs or tensors."""
    # the wire end (edge id, leg index) feeding each triangle slot
    wires = tri.cached(_build_wires)
    end_at = {(w.face, w.slot): (eid, li) for eid, ends in wires.items()
              for li, w in enumerate(ends) if w.kind == "face"}
    slot_of: dict[tuple[int, int], int] = {}  # open wire end -> its slot
    pending: set[int] = set()  # copairings no triangle has consumed yet
    edges, steps = [], []
    for index, (kind, tid) in enumerate(plan):
        if kind == "c":
            pending.add(tid)
            edges.append(tid)
            continue
        matched = []  # (t slot, slot) of t slots fed by open legs
        used: dict[int, dict[int, int]] = {}  # eid -> {leg index: t slot}
        for s in range(3):
            end = end_at[tid, s]
            if end[0] in pending:
                used.setdefault(end[0], {})[end[1]] = s
            else:  # a valid schedule left it open
                matched.append((s, slot_of.pop(end)))
        pending.difference_update(used)
        # new open legs: the unconsumed ends of the copairings used here
        free_ends = [(eid, li) for eid in sorted(used) for li in (0, 1)
                     if li not in used[eid]]
        rest = sorted(slot_of.values())
        taken, free = set(rest), []
        slot = 0
        for end in free_ends:
            while slot in taken:
                slot += 1
            slot_of[end] = slot
            free.append(slot)
            slot += 1
        steps.append(_Step(index, matched, rest, used, free))
    open_ends = sorted(slot_of, key=slot_of.get)
    targets = [wires[eid][li] for eid, li in open_ends]
    want = _codomain(tri)
    if pending or Counter(targets) != Counter(want):
        raise RuntimeError("contraction did not end on the codomain legs")
    at = {w: q for q, w in enumerate(targets)}
    order = [at[w] for w in want]
    # pairs at most until a second call: a program run once composes
    # every row it meets, and pairs compose the fewest
    return _Program(steps, _groups(steps, 2), tuple(edges),
                    tuple(slot_of[end] for end in open_ends),
                    None if order == sorted(order) else order)


def _groups(steps: list[_Step], longest: int) -> tuple:
    """The steps cut into sweeps of one step or of a ``_Run`` of up to
    ``longest`` consecutive ones, by a DP over the cut points that
    minimises the planner's symbolic score: a sweep pays 3^(open legs
    before it) for its visits plus 3^(the largest open-leg count after a
    member) for its output paths, and nothing for the blobs between its
    members.  Ties go to the longer run."""
    before = [0] + [step.n_open for step in steps]
    # cost[j]: the cheapest cut of steps[:j]; size[j]: its last sweep's size
    cost, size = [0], [0]
    for j in range(1, len(steps) + 1):
        peak = 0
        for k in range(1, min(longest, j) + 1):
            peak = max(peak, before[j - k + 1])
            score = cost[j - k] + 3 ** before[j - k] + 3 ** peak
            if k == 1 or score <= best:
                best, size_j = score, k
        cost.append(best)
        size.append(size_j)
    groups, j = [], len(steps)
    while j:
        k = size[j]
        groups.append(steps[j - 1] if k == 1 else _Run(steps[j - k:j]))
        j -= k
    return tuple(groups[::-1])


def contract_network(graph: DiagramGraph, plan, copairings, t: GradedTensor,
                     max_open_legs=DEFAULT_MAX_OPEN_LEGS,
                     max_entries=DEFAULT_MAX_ENTRIES) -> GradedTensor:
    """The single contraction executor (see the module docstring).

    Puts ``copairings[eid]`` on each edge and t on each face; returns a
    pure-output tensor in codomain leg order with t's leg parities and
    values in t's field.  All bookkeeping comes from the compiled
    program (``_program``): kept in the memo of ``graph.tri`` for the
    memo's plan, whose wires depend on the triangulation alone, and built
    afresh for any other plan.  This function only packs the tables its
    steps lack, regroups the kept program on its second call, sweeps the
    blob once per single step or run of steps (composing the run rows it
    meets first), reduces and decodes.  The loop runs on plain ints, keys
    included: over Q the tensors are scaled to integers and the product
    of their scales divides every entry once at the end; over F_p each
    sweep reduces its sums mod p once.

    A run's composed table is looked up on the run; a step's packed
    table on the step, then its fused table in ``_fused_table``'s cache.
    All are keyed on the characteristic, t's leg parities and the
    interned entries of t and of the copairings the step or run
    consumes, the fused one also on the step's shape.  No key holds a
    tensor, so a tensor equal to an earlier one finds its tables, and
    changing a tensor between calls is safe.
    """
    program = _program(graph, plan)
    if program.calls and not program.regrouped:  # reused: longer runs
        program.groups = _groups(program.steps, RUN_STEPS)
        program.regrouped = True
    F = t.field
    p = F.characteristic
    leg = t.in_legs[0]
    graded = any(leg)
    width = _field_width(leg)
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
    blob: dict[int, int] = {0: 1}
    for group in program.groups:
        members = group.members
        for step in members:
            if step.n_open > max_open_legs:
                raise BudgetExceeded(f"open legs {step.n_open} exceed bound "
                                     f"{max_open_legs} {_where(plan, step)}")
        tensors = (p, leg, tset,
                   *[content(copairings[eid])[0] for eid in group.eids])
        if len(members) == 1:
            table, mmask, signed = _packed(group, tensors, width)
            compose = None  # a step's packed table holds all its rows
        else:  # a run's table is composed row by row, on a miss
            table, mmask, signed, compose = _lru(
                group.tables, group.kept, tensors, _run_table, group,
                tensors, width)
        new_blob: dict[int, int] = {}
        get = new_blob.get
        if signed:
            # the same sweep, negating a hit by the entry part of its sign
            for key, v in blob.items():
                mk = key & mmask
                hits = table.get(mk)
                if hits is None:
                    if compose is None:
                        continue
                    hits = table[mk] = compose(mk)
                base = key ^ mk
                for nk, cv, odd in hits:
                    k2 = base | nk
                    if (key & odd).bit_count() & 1:
                        new_blob[k2] = get(k2, 0) - v * cv
                    else:
                        new_blob[k2] = get(k2, 0) + v * cv
        else:
            for key, v in blob.items():
                mk = key & mmask
                hits = table.get(mk)
                if hits is None:
                    if compose is None:
                        continue
                    hits = table[mk] = compose(mk)
                base = key ^ mk
                for nk, cv in hits:
                    k2 = base | nk
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
        elif 0 in new_blob.values():
            zeros = [k2 for k2, v in new_blob.items() if not v]
        for k2 in zeros:
            del new_blob[k2]
        blob = new_blob
        if len(blob) > max_entries:
            raise BudgetExceeded(f"{len(blob)} stored coefficients exceed "
                                 f"budget {max_entries} "
                                 f"{_where(plan, members[-1])}")
    program.calls += 1
    values = blob.values()
    if not p:
        values = [Fraction(v, denom) for v in values]  # the one division
    slots, order = program.slots, program.order
    if order is not None and not graded:  # no sign: read in codomain order
        slots, order = [slots[q] for q in order], None
    keys = _decode(blob, slots, width, graded) if slots else [()] * len(blob)
    out = GradedTensor(F, (leg,) * len(slots), (), dict(zip(keys, values)))
    return out if order is None else out.permute_out(order)


def _where(plan, step: _Step) -> str:
    k = step.index
    return f"after plan[{k}] = {tuple(plan[k])!r} of {len(plan)} steps"


def _field_width(leg) -> int:
    """Bits of one slot of a packed blob key: enough for the basis indices
    of ``leg`` (at least one), plus a lowest parity bit when it has odd
    basis vectors."""
    return max(1, (len(leg) - 1).bit_length()) + any(leg)


def _encoding(leg) -> list[int]:
    """The slot value of each basis index: the index, shifted over its
    parity bit when ``leg`` has odd basis vectors."""
    if not any(leg):
        return list(range(len(leg)))
    return [i << 1 | odd for i, odd in enumerate(leg)]


def _decode(blob, slots, width, graded) -> list[tuple]:
    """The blob's packed keys, in order, as tuples of the basis indices at
    ``slots``: one column of indices per slot, zipped."""
    mask = (1 << width - graded) - 1
    return list(zip(*[[key >> shift & mask for key in blob]
                      for shift in (q * width + graded for q in slots)]))


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
    """The fused table of one triangle step.

    ``shape`` is the step's (matched slots, consumed leg indices and
    their slots per copairing), paired for a graded algebra (t's leg
    parities ``leg`` not all even) with the table part's inverted pairs
    (``_graded_tables``) as positions in a row's t key followed by its
    free ends; ``p`` is the characteristic, and the entries are those of
    t and of each consumed copairing.  The table maps the matched slots'
    indices of a t key to [(the free ends' indices, coeff)]: t times the
    copairings, in ints (``_integral``), each coeff times
    (-1)^(sum of |a||b| over those pairs).  It holds no blob slot, so
    every step of that shape shares it; ``_pack`` places it.
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
    return fused


def _graded_tables(step: _Step):
    """((shape, table pairs), crossings) of one triangle step, both read
    off the inverted pairs of its one leg permutation.

    Legs are ordered by slot.  The permutation starts with the blob legs
    by slot, then the consumed copairings' legs by (edge id, leg index),
    and ends with the new open legs by slot, then the slot legs in slot
    order.  ``table pairs`` are the inverted pairs among slot legs and
    free ends, as positions in a fused table row's t key followed by its
    free ends.  Every other inverted pair is a rest leg against a matched
    leg below its slot or against a free end whose new slot is below it:
    ``crossings`` lists, per matched leg (in t-slot order) and then per
    free end, the slots of the rest legs it crosses, or is None when
    there are none.
    """
    matched_slots, cons_of, _ = step.shape
    blob = sorted(step.rest + tuple(q for _, q in step.matched))
    start = [("b", q) for q in blob] + [
        ("c", eid, li) for eid in step.eids for li in (0, 1)]
    free = [("c", eid, li) for eid, cons in zip(step.eids, cons_of)
            for li in (0, 1) if li not in cons]
    slot_legs = [None] * 3
    for s, q in step.matched:
        slot_legs[s] = ("b", q)
    for eid, cons, slots in zip(step.eids, cons_of, step.shape[2]):
        for li, s in zip(cons, slots):
            slot_legs[s] = ("c", eid, li)
    new_open = sorted([(q, ("b", q)) for q in step.rest]
                      + list(zip(step.free, free)))
    pos = {name: i for i, name in enumerate(start)}
    pairs = inversion_pairs([pos[name] for name in
                             [name for _, name in new_open] + slot_legs])
    row = {pos[name]: i for i, name in enumerate(slot_legs + free)}
    table_pairs = tuple((row[a], row[b]) for a, b in pairs
                        if a in row and b in row)
    rest = {pos["b", q]: q for q in step.rest}
    movers = [pos[slot_legs[s]] for s in matched_slots] + [
        pos[name] for name in free]
    crossed = {x: [] for x in movers}
    for a, b in pairs:
        if a in rest and b in crossed:
            crossed[b].append(rest[a])
        elif b in rest and a in crossed:
            crossed[a].append(rest[b])
    crossings = tuple(tuple(crossed[x]) for x in movers)
    return (step.shape, table_pairs), (crossings if any(crossings)
                                       else None)


def _pack(step: _Step, fused, leg, width):
    """(packed table, matched mask, signed) of one triangle step.

    The packed table re-keys ``fused`` to the step's slots of ``width``
    bits, each holding ``_encoding(leg)`` of its index: a blob key masked
    with the matched mask finds its rows, and a row's free ends are the
    bits it ors into the key once the matched legs are cleared.  For a
    step with crossings (``_graded_tables``) each row also carries the
    XOR, over its odd matched and odd free-end indices, of the parity bits
    of the rest legs that leg crosses; ``signed`` is True unless all are
    0, and a hit is negated when the blob key has an odd number of them
    set.
    """
    enc = _encoding(leg)
    mshifts = [q * width for _, q in step.matched]
    mcodes = [[e << shift for e in enc] for shift in mshifts]
    fcodes = [[e << q * width for e in enc] for q in step.free]
    mmask = _fields([q for _, q in step.matched], width)
    crossings = any(leg) and step.graded[1]
    if not crossings:
        return {sum(map(getitem, mcodes, mk)):
                [(sum(map(getitem, fcodes, nk)), cv) for nk, cv in rows]
                for mk, rows in fused.items()}, mmask, False
    # flips: per crossing leg, its index -> the rest legs' parity bits it
    # crosses if that index is odd, else 0
    flips = [[bits if odd else 0 for odd in leg]
             for bits in (sum(1 << r * width for r in slots)
                          for slots in crossings)]
    mflips, fflips = flips[:len(mshifts)], flips[len(mshifts):]
    table, signed = {}, False
    for mk, rows in fused.items():
        odd = functools.reduce(xor, map(getitem, mflips, mk), 0)
        packed = table[sum(map(getitem, mcodes, mk))] = []
        for nk, cv in rows:
            flip = functools.reduce(xor, map(getitem, fflips, nk), odd)
            signed = signed or flip != 0
            packed.append((sum(map(getitem, fcodes, nk)), cv, flip))
    if not signed:  # no odd index crosses a rest leg
        table = {mk: [row[:2] for row in rows] for mk, rows in table.items()}
    return table, mmask, signed


def _lru(store: dict, kept: int, key, build, *args):
    """``store[key]``, made by ``build(*args)`` when missing.  The store
    keeps the ``kept`` entries used last: a hit moves its entry to the
    end, and a miss in a full store drops the first one."""
    got = store.pop(key, None)
    if got is None:
        got = build(*args)
        if len(store) >= kept:
            del store[next(iter(store))]  # the least recently used
    store[key] = got
    return got


def _packed(step: _Step, tensors, width):
    """The step's packed table for ``tensors`` = (characteristic, t's leg
    parities, interned entries of t and of its copairings), from its
    store or packed from ``_fused_table``."""
    return _lru(step.packed, PACKED_TABLES_PER_STEP, tensors, _pack_step,
                step, tensors, width)


def _pack_step(step: _Step, tensors, width):
    shape, leg = step.shape, tensors[1]
    if any(leg):
        if step.graded is None:
            step.graded = _graded_tables(step)
        shape = step.graded[0]
    return _pack(step, _fused_table(shape, *tensors), leg, width)


def _fields(slots, width) -> int:
    """The mask of the key fields of ``slots``, ``width`` bits each."""
    return sum(((1 << width) - 1) << q * width for q in slots)


def _run_table(run: _Run, tensors, width):
    """(composed table, group mask, signed, compose) of a run for
    ``tensors``, the table still empty: ``compose(key)`` gives the rows of
    a masked blob key.  The group mask is the members' matched legs that
    no earlier member produced.  An unsigned run of two composes with
    ``_compose_pair``, every other run with ``_compose`` (see the module
    docstring for why)."""
    parts, at, gmask, made = [], 3, 0, 0
    for step in run.members:
        end = at + len(step.eids)
        parts.append(_packed(step, tensors[:3] + tensors[at:end], width))
        gmask |= parts[-1][1] & ~made
        made |= _fields(step.free, width)
        at = end
    signed = any(part[2] for part in parts)
    if len(parts) == 2 and not signed:  # faster on cold unsigned pairs
        return {}, gmask, False, functools.partial(
            _compose_pair, *parts[0][:2], *parts[1][:2])
    return {}, gmask, signed, functools.partial(_compose, parts, signed,
                                                ~(gmask | made))


def _compose(parts, signed, outer, gk):
    """The rows of a run's masked blob key ``gk``: a mini-blob {gk: 1}
    runs through each member's (packed table, matched mask, signed) in
    ``parts``, as the sweep runs a blob.  The mini-blob holds only the
    legs the run knows: the group mask and the members' free ends.  So a
    member's ``odd`` bits on those legs give a hit's sign at once, and its
    other bits, on the legs ``outer`` of the blob the run never reads, XOR
    into the row's ``odd``.  The mini-blob is keyed on (bits, ``odd``)
    whether or not a member is signed, and rows with equal keys merge;
    zero sums are dropped, and a run with no signed member gets rows
    without ``odd``.  Over F_p the sums are not reduced, as the sweep
    reduces its new blob anyway.  Each row is interned (``_row``)."""
    blob = {(gk, 0): 1}
    for table, mmask, step_signed in parts:
        new: dict = {}
        get = new.get
        for (key, odd), v in blob.items():
            mk = key & mmask
            base = key ^ mk
            for row in table.get(mk, ()):
                flip = row[2] if step_signed else 0
                k = (base | row[0], odd ^ flip & outer)
                cv = -v if (key & flip).bit_count() & 1 else v
                new[k] = get(k, 0) + cv * row[1]
        blob = new
    if signed:
        return [_row((nk, cv, odd)) for (nk, odd), cv in blob.items() if cv]
    return [_row((nk, cv)) for (nk, _), cv in blob.items() if cv]


@functools.lru_cache(maxsize=FUSED_TABLES_KEPT)
def _row(row: tuple) -> tuple:
    """The composed row equal to ``row`` that the runs' tables share: a
    run's keys and tensor sets mostly repeat rows (a Clifford sweep over
    the classes of genus 1 to 3 composes 17,343 rows, 358 of them
    distinct)."""
    return row


def _compose_pair(ta, ma, tb, mb, gk):
    """``_compose`` for a run of two unsigned steps, unrolled: the key
    runs through the first member's packed table ``ta`` (matched mask
    ``ma``), then the second's, whose matched legs are the first's free
    ends or rest legs fixed by ``gk``.  A row ors in the first's free ends
    the second keeps and the second's free ends; rows with equal bits
    merge, and zero sums are dropped."""
    ka = gk & ma
    rest = gk ^ ka  # the second's matched legs among the first's rest legs
    keep, getb, merged = ~mb, tb.get, {}
    mget = merged.get
    for nka, cva in ta.get(ka, ()):
        hits = getb((rest | nka) & mb)
        if hits:
            carry = nka & keep
            for nkb, cvb in hits:
                nk = carry | nkb
                merged[nk] = mget(nk, 0) + cva * cvb
    return [row for row in merged.items() if row[1]]


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
    of the layering).  The edges are assigned one at a time, and a branch
    ends as soon as a face's assigned slots match no key of t.  The output
    flip through b is applied entrywise, over the nonzero entries of b.
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
    # and, per step, the faces it leaves partly assigned: the t keys'
    # values at the assigned slots, and the wire ends at those slots
    partial_at: list[list] = [[] for _ in order]
    t_at = {mask: {tuple(key[s] for s in range(3) if mask >> s & 1)
                   for key in D.t.data} for mask in range(1, 7)}
    rank = {eid: k for k, eid in enumerate(order)}
    for fid in sorted(tri.triangles):
        ranks = [rank[s.edge] for s in tri.triangles[fid].slots]
        complete_at[max(ranks)].append(fid)
        for k in sorted(set(ranks))[:-1]:
            mask = sum(1 << s for s, r in enumerate(ranks) if r <= k)
            partial_at[k].append((t_at[mask], [face_ends[fid][s] for s in
                                               range(3) if mask >> s & 1]))
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
            ok = all(tuple(assign[end] for end in ends) in keys
                     for keys, ends in partial_at[k])
            for fid in complete_at[k] if ok else ():
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
    # independent output flip: sum_a sign(a) prod_i b(x_i, a_i) T[a], over
    # the nonzero b(x, a) of each a alone
    cols: dict[int, list] = {}  # a -> [(x, b(x, a))]
    for (x, a), bv in D.b.data.items():
        cols.setdefault(a, []).append((x, bv))
    flipped = GradedTensor(F, (), tuple([leg] * m), {})
    for akey, v in pre.data.items():
        s = 0
        for ii in range(m):
            for jj in range(ii + 1, m):
                s += parity[akey[ii]] * parity[akey[jj]]
        base = v if s % 2 == 0 else F.neg(v)
        for column in itertools.product(*(cols.get(a, ()) for a in akey)):
            coeff = base
            for _, bv in column:
                coeff = F.mul(coeff, bv)
            flipped._add_to(tuple(x for x, _ in column), coeff)
    return Amplitude(flipped)
