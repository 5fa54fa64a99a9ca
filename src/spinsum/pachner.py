"""Pachner moves with exact edge-sign transport, and a random-move walk
that checks amplitude invariance (``run_pachner_fuzz``).

Every move first checks that each edge of its patch has sign +1 or -1,
raising ``spin.edge_sign``'s SignError otherwise.  The 2-2 and 3-1
moves accept a patch with any marking.  Each first applies the marking
moves that put the patch into its reference configuration (rotations of
a triangle's marked slot and orientation flips of inner edges, each
negating signs as ``spin.apply_marking_move`` does), in place on copies
of the edge, triangle and sign dicts; the marked faces are replaced, so
their rotations are never stored.  The new triangulation is then patched from the
old one (``MarkedTriangulation._patched``), so a move costs O(patch)
rather than O(surface): the incidences, corner counts, corner map
entries and largest ids around the removed and added faces are all it
recomputes.  A 3-1 move rejects a vertex whose corner count is not 3
before any star walk, and walks the star from the kept corner map.
``random_pachner_move`` takes the 2-2 targets from the edges minus the
kept one-sided edges.  Sign transport is a literal transcription of the
local rules on the reference configuration:

2-2 (diagonal flip): both triangles marked on the shared diagonal e.
With sigma1 = left face of e = [e, A, B] and sigma2 = right face =
[e, C, D], the flip replaces e by e' from the C/D corner to the A/B
corner and updates signs as s' = s, s_A' = s_A, s_B' = -s s_B,
s_C' = -s_C, s_D' = -s s_D.

3-1 (star collapse at an inner vertex v of valence 3): the three inner
edges point toward v, each triangle is marked on its outer edge, and the
reference slot tables are sigma1 = [A, e12 L, e31 R], sigma2 =
[B, e23 L, e12 R], sigma3 = [C, e31 L, e23 R].  Requires
s12 s23 s31 = -1; outer signs become s_A' = s_A, s_B' = s12 s_B,
s_C' = -s31 s_C.  The 1-3 move is the exact inverse with the free
choice (s12, s23) and s31 := -s12 s23; any marking of its triangle works.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .eval import evaluate_raw
from .spin import SignError, Signs, edge_sign, flip_edge, marked_slots
from .surface import Edge, L, MarkedTriangulation, R, Slot, Triangle


@dataclass(frozen=True)
class PachnerMove:
    kind: str  # 'two_two' | 'three_one' | 'one_three'
    target: int  # edge id / vertex id / face id
    choice: tuple[int, int] = (1, 1)  # (s12, s23) for one_three


def _fresh_edge_id(tri: MarkedTriangulation) -> int:
    return tri._top_edge + 1


def _fresh_face_id(tri: MarkedTriangulation) -> int:
    return tri._top_face + 1


def _check_patch_signs(tri: MarkedTriangulation, signs: Signs,
                       faces) -> None:
    """``spin.edge_sign`` on every edge of the patch faces, before the
    move reads or copies any of their signs.  A sign of +1 or -1 skips
    the call, which every walk move would otherwise pay six to nine
    times."""
    for fid in faces:
        for slot in tri.triangles[fid].slots:
            if signs.get(slot.edge) not in (1, -1):
                edge_sign(signs, slot.edge)


# -- 2-2 ----------------------------------------------------------------
def pachner_22(tri: MarkedTriangulation, signs: Signs, eid: int):
    incs = tri.incidences(eid)
    if len(incs) == 1:
        raise ValueError(f"edge {eid} is a boundary edge")
    sides = {}  # side -> the diagonal's first incidence on it
    for fid, si in incs:
        sides.setdefault(tri.triangles[fid].slots[si].side, (fid, si))
    left, right = sides.get(L), sides.get(R)
    if left is None or right is None or left[0] == right[0]:
        raise ValueError(f"2-2 move undefined at edge {eid}")
    f1, s1 = left
    f2, s2 = right
    _check_patch_signs(tri, signs, (f1, f2))
    new_signs = signs.copy()
    # both faces marked on the diagonal, [e, A, B] and [e, C, D]; the
    # faces are replaced, so the rotated ones are never stored
    _, A, B = marked_slots(new_signs, tri.triangles[f1].slots, s1)
    _, C, D = marked_slots(new_signs, tri.triangles[f2].slots, s2)
    outer = {A.edge, B.edge, C.edge, D.edge}
    if len(outer) != 4 or eid in outer:
        raise ValueError("2-2 move needs four distinct outer edges")
    v3 = tri.corner_vertex(f1, (s1 + 1) % 3)  # between A and B
    v1 = tri.corner_vertex(f2, (s2 + 1) % 3)  # between C and D
    new_eid = _fresh_edge_id(tri)
    f3 = _fresh_face_id(tri)
    f4 = f3 + 1
    edges, triangles = tri.edges.copy(), tri.triangles.copy()
    del edges[eid]
    edges[new_eid] = Edge(v1, v3)
    del triangles[f1]
    del triangles[f2]
    triangles[f3] = Triangle((Slot(new_eid, L), B, C))
    triangles[f4] = Triangle((Slot(new_eid, R), D, A))
    s = new_signs.pop(eid)
    new_signs[new_eid] = s
    new_signs[B.edge] = -s * new_signs[B.edge]
    new_signs[C.edge] = -new_signs[C.edge]
    new_signs[D.edge] = -s * new_signs[D.edge]
    return (MarkedTriangulation._patched(tri, edges, triangles, (f1, f2),
                                         (f3, f4)), new_signs)


# -- 3-1 ----------------------------------------------------------------
def pachner_31(tri: MarkedTriangulation, signs: Signs, v: int):
    if tri.valence(v) != 3:
        raise ValueError(f"vertex {v} does not have valence 3")
    star = tri.star_cycle(v)
    if len(star) != 3:
        raise ValueError(f"vertex {v} does not have valence 3")
    inner_edges = {eid for _, eid in star}
    if len(inner_edges) != 3:
        raise ValueError(f"star of vertex {v} is degenerate")
    ids = [fid for fid, _ in star]
    _check_patch_signs(tri, signs, ids)
    edges, triangles = tri.edges.copy(), tri.triangles.copy()
    new_signs = signs.copy()
    # reference configuration: inner edges point toward v, each face is
    # marked on its outer edge; the faces are replaced, so the marked
    # ones are never stored
    for eid in inner_edges:
        if edges[eid].src == v:
            flip_edge(tri, edges, triangles, new_signs, eid)
    marked = {}
    for fid in ids:
        slots = triangles[fid].slots
        marked[fid] = marked_slots(new_signs, slots, next(
            k for k in range(3) if slots[k].edge not in inner_edges))
    # faces counterclockwise from the smallest id; A, B, C their outer slots
    rot = ids.index(min(ids))
    faces = ids[rot:] + ids[:rot]
    outer = [marked[fid][0] for fid in faces]
    inner = [marked[fid][1].edge for fid in faces]
    for k, fid in enumerate(faces):
        _, nxt, prv = marked[fid]
        e_next, e_prev = inner[k], inner[k - 1]
        if (nxt.edge != e_next or nxt.side != L or prv.edge != e_prev
                or prv.side != R or edges[e_next].dst != v):
            raise ValueError(f"star of vertex {v} is not a triangulated disk")
    e12, e23, e31 = inner
    if len({e12, e23, e31}) != 3:
        raise ValueError("3-1 move needs three distinct inner edges")
    A, B, C = outer
    if len({A.edge, B.edge, C.edge}) != 3:
        raise ValueError("3-1 move needs three distinct outer edges")
    if {A.edge, B.edge, C.edge} & {e12, e23, e31}:
        raise ValueError("3-1 move patch is degenerate (outer edge equals "
                         "an inner edge)")
    s12, s23, s31 = new_signs[e12], new_signs[e23], new_signs[e31]
    if s12 * s23 * s31 != -1:
        raise ValueError("inner sign product must be -1 (signs are not "
                         "admissible around the collapsing vertex)")
    fnew = _fresh_face_id(tri)
    for e in inner:
        del edges[e]
        del new_signs[e]
    for f in faces:
        del triangles[f]
    triangles[fnew] = Triangle((A, B, C))
    new_signs[B.edge] = s12 * new_signs[B.edge]
    new_signs[C.edge] = -s31 * new_signs[C.edge]
    return (MarkedTriangulation._patched(tri, edges, triangles, faces,
                                         (fnew,)), new_signs)


# -- 1-3 ----------------------------------------------------------------
def pachner_13(tri: MarkedTriangulation, signs: Signs, fid: int,
               choice: tuple[int, int] = (1, 1)):
    if fid not in tri.triangles:
        raise ValueError(f"unknown face {fid}")
    t = tri.triangles[fid]
    A, B, C = t.slots
    if len({A.edge, B.edge, C.edge}) != 3:
        raise ValueError("1-3 move needs three distinct edges")
    _check_patch_signs(tri, signs, (fid,))
    s12, s23 = choice
    if s12 not in (1, -1) or s23 not in (1, -1):
        raise ValueError("choice entries must be +1 or -1")
    s31 = -s12 * s23
    v0 = tri.traversal(fid, 0)[0]
    v1 = tri.traversal(fid, 1)[0]
    v2 = tri.traversal(fid, 2)[0]
    v = max(tri._vertices) + 1
    e12 = _fresh_edge_id(tri)
    e23, e31 = e12 + 1, e12 + 2
    f1 = _fresh_face_id(tri)
    f2, f3 = f1 + 1, f1 + 2
    edges = tri.edges.copy()
    edges[e12] = Edge(v1, v)
    edges[e23] = Edge(v2, v)
    edges[e31] = Edge(v0, v)
    triangles = tri.triangles.copy()
    del triangles[fid]
    triangles[f1] = Triangle((A, Slot(e12, L), Slot(e31, R)))
    triangles[f2] = Triangle((B, Slot(e23, L), Slot(e12, R)))
    triangles[f3] = Triangle((C, Slot(e31, L), Slot(e23, R)))
    new_signs = signs.copy()
    new_signs[e12], new_signs[e23], new_signs[e31] = s12, s23, s31
    new_signs[B.edge] = s12 * signs[B.edge]
    new_signs[C.edge] = -s31 * signs[C.edge]
    return (MarkedTriangulation._patched(tri, edges, triangles, (fid,),
                                         (f1, f2, f3)), new_signs)


def random_pachner_move(tri: MarkedTriangulation, signs: Signs, rng,
                        bias_faces: int):
    """Apply one random valid move; returns (tri, signs, move).

    The kind mix is biased to keep the face count near ``bias_faces``:
    a walk that starts at ``bias_faces`` faces stays within
    ``bias_faces`` to ``bias_faces + 4`` faces.  A move the patch does
    not allow is retried with a new draw; a bad or missing sign on the
    patch raises ``SignError``.
    """
    n_f = len(tri.triangles)
    if n_f <= bias_faces:
        kinds = ["one_three", "one_three", "two_two"]
    elif n_f >= bias_faces + 4:
        kinds = ["three_one", "three_one", "two_two"]
    else:
        kinds = ["one_three", "two_two", "three_one"]
    cands: dict[str, list[int]] = {}  # move targets per kind, built once
    for _ in range(500):
        kind = rng.choice(kinds)
        if kind not in cands:
            if kind == "two_two":
                one_sided = tri._one_sided  # empty on a closed surface
                cands[kind] = sorted(tri.edges.keys() - one_sided
                                     if one_sided else tri.edges)
            elif kind == "three_one":
                cands[kind] = sorted(tri.inner_vertices())
            else:
                cands[kind] = sorted(tri.triangles)
        if not cands[kind]:
            continue
        target = rng.choice(cands[kind])
        choice = ((rng.choice((1, -1)), rng.choice((1, -1)))
                  if kind == "one_three" else (1, 1))
        move = PachnerMove(kind, target, choice)
        try:
            tri2, signs2 = apply_pachner_move(tri, signs, move)
        except SignError:
            raise
        except ValueError:
            continue
        return tri2, signs2, move
    raise RuntimeError("no valid Pachner move found in 500 attempts")


def apply_pachner_move(tri: MarkedTriangulation, signs: Signs,
                       move: PachnerMove):
    if move.kind == "two_two":
        return pachner_22(tri, signs, move.target)
    if move.kind == "three_one":
        return pachner_31(tri, signs, move.target)
    if move.kind == "one_three":
        return pachner_13(tri, signs, move.target, move.choice)
    raise ValueError(f"unknown move kind {move.kind!r}")


def run_pachner_fuzz(tri, signs, types, A, seed: int, n_moves: int,
                     check_every: int = 25):
    """Random Pachner walk asserting exact amplitude invariance.

    Returns (ok, move_log, n_checks); on failure the log ends at the
    first checkpoint whose amplitude differs.  The walk compares raw
    amplitudes, so ``types`` is not read.  Raises ``ValueError`` if
    ``n_moves`` or ``check_every`` is below 1.
    """
    if n_moves < 1:
        raise ValueError(f"the number of moves must be at least 1, "
                         f"got {n_moves}")
    if check_every < 1:
        raise ValueError(f"the check interval must be at least 1, "
                         f"got {check_every}")
    rng = random.Random(seed)
    base = evaluate_raw(tri, signs, A)
    bias = len(tri.triangles)
    log = []
    checks = 0
    for step in range(1, n_moves + 1):
        tri, signs, move = random_pachner_move(tri, signs, rng,
                                               bias_faces=bias)
        log.append((move.kind, move.target, list(move.choice)))
        if step % check_every == 0 or step == n_moves:
            checks += 1
            if evaluate_raw(tri, signs, A) != base:
                return False, log, checks
    return True, log, checks
