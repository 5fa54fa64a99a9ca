"""Marked combinatorial surfaces.

A marked triangulation is an oriented Delta-complex in which every edge
carries an orientation (ordered vertex pair), every triangle carries a
preferred ("marked") edge occupying slot 0 of its cyclic slot order
(slots 0,1,2 run counterclockwise along the triangle boundary), and every
boundary component is parametrised by exactly three edges at positions
0,1,2.

Conventions baked into the data:
  * a triangle sits on side 'L' of an edge in a slot iff traversing that
    slot counterclockwise follows the edge's stored orientation
    (src -> dst); on side 'R' the traversal runs dst -> src;
  * boundary edges are stored with the orientation *opposing* the one
    induced by their unique adjacent triangle, so boundary slots always
    have side flag 'R';
  * the three edges of a boundary component form a head-to-tail directed
    cycle in their stored orientations (position-0 edge's dst is the
    position-1 edge's src, and so on); the distinguished vertex of the
    component is the source of its position-0 edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

L, R = "L", "R"


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int


@dataclass(frozen=True)
class Slot:
    edge: int
    side: str  # 'L' or 'R'


@dataclass(frozen=True)
class Triangle:
    slots: tuple[Slot, Slot, Slot]


@dataclass(frozen=True)
class BoundaryComponent:
    edges: tuple[int, int, int]  # edge ids at positions 0, 1, 2


@dataclass(frozen=True)
class CurveStep:
    face: int
    entry_slot: int
    eta: int  # +1 or -1; exit slot is (entry_slot + eta) mod 3


@dataclass(frozen=True)
class CurveSpec:
    steps: tuple[CurveStep, ...]


class MarkedTriangulation:
    def __init__(self, edges: dict[int, Edge], triangles: dict[int, Triangle],
                 boundaries: Iterable[BoundaryComponent] = ()):
        self.edges = dict(edges)
        self.triangles = dict(triangles)
        self.boundaries = tuple(boundaries)
        incidence: dict[int, list[tuple[int, int]]] = {}
        valence: dict[int, int] = {}
        corner: dict[int, tuple[int, int]] = {}
        for fid, tri in self.triangles.items():
            for c, slot in enumerate(tri.slots):
                incidence.setdefault(slot.edge, []).append((fid, c))
                e = self.edges.get(slot.edge)  # validate reports unknown ones
                if e is not None:
                    v = e.dst if slot.side == L else e.src  # corner c
                    valence[v] = valence.get(v, 0) + 1
                    corner.setdefault(v, (fid, c))
        # edge -> its (fid, slot) incidences in triangle order, as tuples
        # that triangulations patched from this one share
        self._incidence = {e: tuple(inc) for e, inc in incidence.items()}
        # edges with exactly one incidence: the boundary edges
        self._one_sided = {e for e, inc in incidence.items() if len(inc) == 1}
        self._vertices = {v for e in self.edges.values()
                          for v in (e.src, e.dst)}
        self._valence = valence  # vertex -> number of corners
        self._corner = corner  # vertex -> one of its corners (fid, c)
        # the largest edge and face ids, from which moves number new ones
        self._top_edge = max(self.edges, default=0)
        self._top_face = max(self.triangles, default=0)
        # what other modules build from the triangulation alone (``cached``):
        # eval's wires, plan and program, spin's edge bits and equations.
        # A triangulation is never edited after construction, so it stays
        # valid for the object's lifetime.
        self._cache: dict = {}

    def cached(self, build, *args):
        """build(self, *args), built once per args; later calls return it."""
        key = (build, *args) if args else build  # no tuple on the hot path
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = build(self, *args)
        return got

    @classmethod
    def _patched(cls, parent: MarkedTriangulation, edges: dict[int, Edge],
                 triangles: dict[int, Triangle], removed, added):
        """parent with the faces ``removed`` replaced by the faces ``added``.

        ``triangles`` must hold parent's other faces unchanged and in
        parent's order, followed by ``added`` in order; both dicts are
        taken over.  Every vertex of a removed face that keeps a corner
        must be a vertex of an added face, as in a Pachner move.  Each
        container is copied at most once, and the vertex and one-sided
        edge sets are shared with parent unless the patch changes them.
        Only what the patch touches is recomputed: the incidences of
        edges on removed or added faces (the parent's entries minus the
        removed faces, then the added corners) and which of those edges
        are one-sided, the corner counts of their vertices, the largest
        ids, and the corner map, which points every vertex of an added
        face at its last corner there.  Each equals what ``__init__``
        builds, except that a corner map entry may name another corner
        of its vertex.
        """
        self = cls.__new__(cls)
        self.edges, self.triangles = edges, triangles
        self.boundaries = parent.boundaries
        # dict.copy clones the parent's table, where dict() would insert
        # entry by entry into a table that deletions have left sparse
        self._incidence = incidence = parent._incidence.copy()
        self._valence = valence = parent._valence.copy()
        self._corner = corner = parent._corner.copy()
        entries: dict[int, list[tuple[int, int]]] = {}  # touched edges
        emptied = []  # vertices whose last corner was removed
        for fid in removed:
            for slot in parent.triangles[fid].slots:
                eid = slot.edge
                if eid not in entries:
                    entries[eid] = [inc for inc in incidence.get(eid, ())
                                    if inc[0] not in removed]
                e = parent.edges[eid]
                v = e.dst if slot.side == L else e.src  # this corner's vertex
                n = valence[v] - 1
                valence[v] = n
                if not n:
                    emptied.append(v)
        known = len(valence)
        top_edge, top_face = parent._top_edge, parent._top_face
        if top_edge not in edges:
            top_edge = max(edges, default=0)
        if top_face not in triangles:
            top_face = max(triangles, default=0)
        for fid in added:
            if fid > top_face:
                top_face = fid
            for c, slot in enumerate(triangles[fid].slots):
                eid = slot.edge
                if eid > top_edge:
                    top_edge = eid
                entry = entries.get(eid)
                if entry is None:
                    entry = entries[eid] = list(incidence.get(eid, ()))
                entry.append((fid, c))
                e = edges[eid]
                v = e.dst if slot.side == L else e.src
                valence[v] = valence.get(v, 0) + 1
                corner[v] = fid, c
        one_sided = parent._one_sided
        for eid, entry in entries.items():
            if entry:
                incidence[eid] = tuple(entry)
            else:
                del incidence[eid]
            if (len(entry) == 1) != (eid in one_sided):
                one_sided = one_sided ^ {eid}
        self._one_sided = one_sided
        self._top_edge, self._top_face = top_edge, top_face
        self._vertices = parent._vertices
        lost = [v for v in emptied if not valence[v]]
        if lost or len(valence) > known:
            for v in lost:
                del valence[v], corner[v]
            self._vertices = (parent._vertices.difference(lost)
                              .union(corner.keys() - parent._corner.keys()))
        self._cache = {}
        return self

    # -- basic queries --------------------------------------------------
    @property
    def vertices(self) -> set[int]:
        return set(self._vertices)

    def valence(self, v: int) -> int:
        """Number of triangle corners at vertex v (0 if v is unknown)."""
        return self._valence.get(v, 0)

    def incidences(self, eid: int) -> tuple[tuple[int, int], ...]:
        return self._incidence.get(eid, ())

    def is_boundary_edge(self, eid: int) -> bool:
        return eid in self._one_sided

    def face_on_side(self, eid: int, side: str) -> tuple[int, int] | None:
        for fid, si in self.incidences(eid):
            if self.triangles[fid].slots[si].side == side:
                return fid, si
        return None

    def traversal(self, fid: int, si: int) -> tuple[int, int]:
        """(start, end) vertices of slot si traversed counterclockwise."""
        slot = self.triangles[fid].slots[si]
        e = self.edges[slot.edge]
        return (e.src, e.dst) if slot.side == L else (e.dst, e.src)

    def corner_vertex(self, fid: int, c: int) -> int:
        """Vertex at the corner between slots c and c+1 (= end of slot c)."""
        return self.traversal(fid, c)[1]

    def boundary_of_edge(self, eid: int) -> tuple[int, int] | None:
        """(boundary index (1-based), position) if eid is a boundary edge."""
        for bi, b in enumerate(self.boundaries, start=1):
            for pos, e in enumerate(b.edges):
                if e == eid:
                    return bi, pos
        return None

    def boundary_vertices(self, bi: int) -> set[int]:
        b = self.boundaries[bi - 1]
        vs = set()
        for eid in b.edges:
            vs.add(self.edges[eid].src)
            vs.add(self.edges[eid].dst)
        return vs

    def all_boundary_vertices(self) -> set[int]:
        vs = set()
        for bi in range(1, len(self.boundaries) + 1):
            vs |= self.boundary_vertices(bi)
        return vs

    def inner_vertices(self) -> set[int]:
        return self._vertices - self.all_boundary_vertices()

    def euler_characteristic(self) -> int:
        return len(self._vertices) - len(self.edges) + len(self.triangles)

    def genus(self) -> int:
        chi = self.euler_characteristic()
        b = len(self.boundaries)
        g2 = 2 - b - chi
        if g2 < 0 or g2 % 2:
            raise ValueError("complex has no consistent genus")
        return g2 // 2

    def is_closed(self) -> bool:
        return not self.boundaries

    # -- star walks -----------------------------------------------------
    def star_cycle(self, v: int) -> list[tuple[int, int]]:
        """Counterclockwise cycle of the star of an inner vertex.

        Returns one (fid, exit_eid) pair per triangle corner at v, in
        walk order from v's smallest corner (fid, c): the walk leaves the
        corner (fid, c) through slot c, whose edge is exit_eid, into the
        other face on that edge.  The walk starts at v's entry in the
        corner map, so it costs the star, not the surface; the rotation
        makes the output independent of which corner that entry names.
        Only the 3-1 Pachner move walks stars.
        """
        start = self._corner.get(v)
        if start is None:
            raise ValueError(f"vertex {v} has no incident corner")
        fid, c = start
        corners, out = [], []
        while True:
            eid = self.triangles[fid].slots[c].edge
            corners.append((fid, c))
            out.append((fid, eid))
            nxt = None
            for gfid, gsi in self.incidences(eid):
                if gsi != c or gfid != fid:
                    nxt = gfid, (gsi - 1) % 3
            if nxt is None:
                raise ValueError(f"vertex {v} is not inner")
            fid, c = nxt
            if self.corner_vertex(fid, c) != v:
                raise ValueError("star walk left the vertex (invalid complex)")
            if nxt == start:
                k = corners.index(min(corners))
                return out[k:] + out[:k]

    # -- curves ---------------------------------------------------------
    def curve_exit_slot(self, step: CurveStep) -> int:
        return (step.entry_slot + step.eta) % 3

    def validate_curve(self, curve: CurveSpec) -> list[str]:
        errs = []
        n = len(curve.steps)
        if n == 0:
            return ["curve is empty"]
        for i, s in enumerate(curve.steps):
            if s.face not in self.triangles:
                errs.append(f"step {i}: unknown face {s.face}")
                continue
            if s.eta not in (+1, -1):
                errs.append(f"step {i}: eta must be +1 or -1")
            nxt = curve.steps[(i + 1) % n]
            exit_eid = self.triangles[s.face].slots[self.curve_exit_slot(s)].edge
            if self.is_boundary_edge(exit_eid):
                errs.append(f"step {i}: crosses boundary edge {exit_eid}")
                continue
            entry_eid = self.triangles[nxt.face].slots[nxt.entry_slot].edge
            if exit_eid != entry_eid:
                errs.append(f"step {i}: exit edge {exit_eid} does not match "
                            f"next entry edge {entry_eid}")
        return errs


# -- union-find ---------------------------------------------------------
def find(parent: dict, x):
    """The root of x's class in the forest ``parent`` (every element maps
    to its parent, a root to itself), halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def union(parent: dict, x, y) -> bool:
    """Merge the classes of x and y under the smaller root; False if
    they already were one class."""
    rx, ry = find(parent, x), find(parent, y)
    if rx == ry:
        return False
    parent[max(rx, ry)] = min(rx, ry)
    return True


# -- validation ---------------------------------------------------------
def validate(tri: MarkedTriangulation) -> list[str]:
    errs = [] if tri.triangles else ["surface has no triangles"]
    for fid, t in tri.triangles.items():
        if len(t.slots) != 3:
            errs.append(f"triangle {fid}: must have 3 slots")
            continue
        for si, slot in enumerate(t.slots):
            if slot.edge not in tri.edges:
                errs.append(f"triangle {fid} slot {si}: unknown edge {slot.edge}")
            if slot.side not in (L, R):
                errs.append(f"triangle {fid} slot {si}: bad side {slot.side}")
        # counterclockwise traversal must close head-to-tail
        try:
            for c in range(3):
                if tri.traversal(fid, c)[1] != tri.traversal(fid, (c + 1) % 3)[0]:
                    errs.append(f"triangle {fid}: slot traversals do not chain "
                                f"at corner {c}")
        except KeyError:
            pass
    for eid in tri.edges:
        inc = tri.incidences(eid)
        if len(inc) == 0:
            errs.append(f"edge {eid}: not incident to any triangle")
        elif len(inc) > 2:
            errs.append(f"edge {eid}: non-manifold edge ({len(inc)} slots)")
        elif len(inc) == 2:
            sides = {tri.triangles[f].slots[s].side for f, s in inc}
            if len(sides) != 2:
                errs.append(f"edge {eid}: both incident slots on side "
                            f"{sides.pop()}")
            if tri.boundary_of_edge(eid) is not None:
                errs.append(f"edge {eid}: listed on a boundary but has two "
                            f"incident triangles")
        else:
            if tri.boundary_of_edge(eid) is None:
                errs.append(f"edge {eid}: single incidence but not listed on "
                            f"a boundary")
            else:
                fid, si = inc[0]
                if tri.triangles[fid].slots[si].side != R:
                    errs.append(f"edge {eid}: boundary edge orientation "
                                f"convention violated (triangle must sit on "
                                f"side R)")
    for bi, b in enumerate(tri.boundaries, start=1):
        if len(b.edges) != 3:
            errs.append(f"boundary {bi}: must have 3 edges")
            continue
        missing = [e for e in b.edges if e not in tri.edges]
        if missing:
            errs.append(f"boundary {bi}: unknown edges {missing}")
            continue
        for p in range(3):
            a = tri.edges[b.edges[p]]
            c = tri.edges[b.edges[(p + 1) % 3]]
            if a.dst != c.src:
                errs.append(f"boundary {bi}: edges at positions {p},{(p+1)%3} "
                            f"do not chain head-to-tail")
        if len(tri.boundary_vertices(bi)) != 3:
            errs.append(f"boundary {bi}: must have 3 vertices")
    if not errs:
        errs += _vertex_link_errors(tri)
    if not errs:
        chi = tri.euler_characteristic()
        g2 = 2 - len(tri.boundaries) - chi
        if g2 < 0 or g2 % 2:
            errs.append(f"Euler characteristic {chi} inconsistent with any "
                        f"genus for {len(tri.boundaries)} boundaries")
    return errs


def _vertex_link_errors(tri: MarkedTriangulation) -> list[str]:
    """The corners at each vertex must form one cycle (an inner vertex)
    or one fan (a boundary vertex).  An inner edge in slot s of face f
    and slot t of face g makes corner (f, s) adjacent to (g, t - 1) and
    (f, s - 1) to (g, t); a vertex whose corners fall into several
    classes is a non-manifold point."""
    parent = {(fid, c): (fid, c) for fid in tri.triangles for c in range(3)}
    for inc in tri._incidence.values():
        if len(inc) == 2:
            (f, s), (g, t) = inc
            union(parent, (f, s), (g, (t - 1) % 3))
            union(parent, (f, (s - 1) % 3), (g, t))
    classes: dict[int, set] = {}
    for corner in parent:
        classes.setdefault(tri.corner_vertex(*corner), set()).add(
            find(parent, corner))
    return [f"vertex {v}: its corners form {len(cs)} separate cycles or "
            f"fans, not one (non-manifold vertex)"
            for v, cs in sorted(classes.items()) if len(cs) > 1]


# -- reference complexes ------------------------------------------------
def build_cylinder() -> MarkedTriangulation:
    edges = {
        1: Edge(1, 2), 2: Edge(2, 3), 3: Edge(3, 1),
        4: Edge(4, 5), 5: Edge(5, 6), 6: Edge(6, 4),
        7: Edge(1, 4), 8: Edge(2, 4), 9: Edge(2, 6),
        10: Edge(3, 6), 11: Edge(3, 5), 12: Edge(1, 5),
    }
    T = lambda a, sa, b, sb, c, sc: Triangle((Slot(a, sa), Slot(b, sb), Slot(c, sc)))
    triangles = {
        1: T(7, L, 8, R, 1, R),
        2: T(8, L, 6, R, 9, R),
        3: T(9, L, 10, R, 2, R),
        4: T(10, L, 5, R, 11, R),
        5: T(11, L, 12, R, 3, R),
        6: T(12, L, 4, R, 7, R),
    }
    boundaries = [BoundaryComponent((1, 2, 3)), BoundaryComponent((4, 5, 6))]
    return MarkedTriangulation(edges, triangles, boundaries)


def build_pair_of_pants() -> MarkedTriangulation:
    edges = {
        1: Edge(1, 2), 2: Edge(2, 3), 3: Edge(3, 1),
        4: Edge(4, 5), 5: Edge(5, 6), 6: Edge(6, 4),
        7: Edge(7, 8), 8: Edge(8, 9), 9: Edge(9, 7),
        10: Edge(2, 7), 11: Edge(2, 5), 12: Edge(2, 4),
        13: Edge(2, 6), 14: Edge(1, 7), 15: Edge(1, 8),
        16: Edge(1, 9), 17: Edge(5, 9), 18: Edge(6, 9),
        19: Edge(3, 6), 20: Edge(3, 9), 21: Edge(5, 7),
    }
    T = lambda a, sa, b, sb, c, sc: Triangle((Slot(a, sa), Slot(b, sb), Slot(c, sc)))
    triangles = {
        1: T(1, R, 14, L, 10, R),
        2: T(21, R, 11, R, 10, L),
        3: T(4, R, 12, R, 11, L),
        4: T(6, R, 13, R, 12, L),
        5: T(2, R, 13, L, 19, R),
        6: T(7, R, 14, R, 15, L),
        7: T(8, R, 15, R, 16, L),
        8: T(3, R, 20, L, 16, R),
        9: T(9, R, 17, R, 21, L),
        10: T(5, R, 17, L, 18, R),
        11: T(18, L, 20, R, 19, L),
    }
    boundaries = [BoundaryComponent((1, 2, 3)), BoundaryComponent((4, 5, 6)),
                  BoundaryComponent((7, 8, 9))]
    return MarkedTriangulation(edges, triangles, boundaries)


def build_disk() -> MarkedTriangulation:
    """A single triangle whose three edges form one boundary component."""
    edges = {1: Edge(1, 2), 2: Edge(2, 3), 3: Edge(3, 1)}
    triangles = {1: Triangle((Slot(1, R), Slot(3, R), Slot(2, R)))}
    return MarkedTriangulation(edges, triangles, [BoundaryComponent((1, 2, 3))])


# -- gluing -------------------------------------------------------------
@dataclass(frozen=True)
class GlueMap:
    """Relabeling data of a glue_boundaries call.

    pairs[p] = (i-side edge id, j-side edge id) for positions p on
    boundary i (the j-side edge survives).
    """
    pairs: tuple[tuple[int, int], ...]


def glue_boundaries_with_map(tri: MarkedTriangulation, i: int, j: int):
    B = len(tri.boundaries)
    if i == j or not (1 <= i <= B) or not (1 <= j <= B):
        raise ValueError(f"invalid boundary pair ({i}, {j})")
    bi, bj = tri.boundaries[i - 1], tri.boundaries[j - 1]
    pairs = tuple((bi.edges[p], bj.edges[(2 - p) % 3]) for p in range(3))
    # vertex identifications: a.dst ~ b.src and a.src ~ b.dst per pair,
    # each class named by its smallest vertex
    parent = {v: v for v in tri.vertices}
    for a_eid, b_eid in pairs:
        a, b = tri.edges[a_eid], tri.edges[b_eid]
        union(parent, a.dst, b.src)
        union(parent, a.src, b.dst)
    vmap = {v: find(parent, v) for v in tri.vertices}

    removed = {a for a, _ in pairs}
    edge_rename = {a: b for a, b in pairs}
    new_edges = {}
    for eid, e in tri.edges.items():
        if eid in removed:
            continue
        new_edges[eid] = Edge(vmap[e.src], vmap[e.dst])
    new_triangles = {}
    for fid, t in tri.triangles.items():
        slots = []
        for slot in t.slots:
            if slot.edge in edge_rename:
                # the i-side triangle becomes the left face of the merged edge
                slots.append(Slot(edge_rename[slot.edge], L))
            else:
                slots.append(slot)
        new_triangles[fid] = Triangle(tuple(slots))
    new_bd = [b for k, b in enumerate(tri.boundaries, start=1) if k not in (i, j)]
    out = MarkedTriangulation(new_edges, new_triangles, new_bd)
    return out, GlueMap(pairs)


def glue_boundaries(tri: MarkedTriangulation, i: int, j: int) -> MarkedTriangulation:
    out, _ = glue_boundaries_with_map(tri, i, j)
    return out


def disjoint_union(t1: MarkedTriangulation, t2: MarkedTriangulation):
    """Disjoint union; returns (tri, edge_offset, vertex_offset, face_offset)."""
    eo = max(t1.edges, default=0)
    vo = max(t1.vertices, default=0)
    fo = max(t1.triangles, default=0)
    edges = dict(t1.edges)
    for eid, e in t2.edges.items():
        edges[eid + eo] = Edge(e.src + vo, e.dst + vo)
    triangles = dict(t1.triangles)
    for fid, t in t2.triangles.items():
        triangles[fid + fo] = Triangle(tuple(Slot(s.edge + eo, s.side)
                                             for s in t.slots))
    bds = list(t1.boundaries) + [
        BoundaryComponent(tuple(e + eo for e in b.edges)) for b in t2.boundaries]
    return MarkedTriangulation(edges, triangles, bds), eo, vo, fo


@dataclass
class GenusGComplex:
    """A closed complex, with its genus g read off the triangulation."""
    tri: MarkedTriangulation

    @property
    def g(self) -> int:
        return self.tri.genus()


def genus_g_closed_detail(g: int) -> GenusGComplex:
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if g == 0:
        two, *_ = disjoint_union(build_disk(), build_disk())
        return GenusGComplex(glue_boundaries(two, 1, 2))
    if g == 1:
        return GenusGComplex(glue_boundaries(build_cylinder(), 1, 2))
    # g >= 2: cyclic chain of 2g-2 pairs of pants.  Boundary bookkeeping:
    # after each glue the remaining boundaries keep their relative order.
    n = 2 * g - 2
    tri = build_pair_of_pants()
    # boundary labels: list of (piece, local boundary 1..3) in current order
    labels = [(0, 1), (0, 2), (0, 3)]
    for k in range(1, n):
        tri, _, _, _ = disjoint_union(tri, build_pair_of_pants())
        labels += [(k, 1), (k, 2), (k, 3)]

    def glue(lbl_a, lbl_b):
        nonlocal tri
        tri = glue_boundaries(tri, labels.index(lbl_a) + 1,
                              labels.index(lbl_b) + 1)
        for lbl in (lbl_a, lbl_b):
            labels.remove(lbl)

    for k in range(n):
        glue((k, 3), ((k + 1) % n, 1))
    for k in range(0, n, 2):
        glue((k, 2), (k + 1, 2))
    return GenusGComplex(tri)


def genus_g_closed(g: int) -> MarkedTriangulation:
    return genus_g_closed_detail(g).tri


def named_closed_detail(name: str) -> GenusGComplex:
    """The reference closed surface "sphere", "torus" or "genus-G"."""
    genus = {"sphere": "0", "torus": "1"}.get(name)
    if genus is None and name.startswith("genus-"):
        genus = name[len("genus-"):]
    if genus is None or not genus.isdecimal() or str(int(genus)) != genus:
        raise ValueError(f"closed surface must be sphere, torus or genus-G "
                         f"with G a nonnegative integer, got {name!r}")
    return genus_g_closed_detail(int(genus))


# -- JSON ---------------------------------------------------------------
def to_json(tri: MarkedTriangulation) -> dict:
    return {
        "triangles": {str(fid): [{"edge": s.edge, "side": s.side}
                                 for s in t.slots]
                      for fid, t in sorted(tri.triangles.items())},
        "edges": {str(eid): {"src": e.src, "dst": e.dst}
                  for eid, e in sorted(tri.edges.items())},
        "boundaries": [[{"edge": e, "position": p}
                        for p, e in enumerate(b.edges)]
                       for b in tri.boundaries],
    }


def _int_id(value, field: str) -> int:
    """value, if it is an int (not a bool); ValueError naming field if not."""
    if type(value) is not int:
        raise ValueError(f"{field} {value!r} is not an integer id")
    return value


def int_key(key: str, field: str) -> int:
    """The id a JSON object key names; ValueError naming field unless the
    key is the id's canonical decimal string ("4", not "+4" or "0_4")."""
    if not key.removeprefix("-").isdecimal() or str(int(key)) != key:
        raise ValueError(f"{field} key {key!r} is not a canonical integer id")
    return int(key)


def unique_keys(pairs: list) -> dict:
    """json object_pairs_hook: ValueError on a key given twice, of which
    json.load would keep the last value silently."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is given twice")
        obj[key] = value
    return obj


def from_json(obj: dict) -> MarkedTriangulation:
    edges = {int_key(k, "edge"): Edge(_int_id(v["src"], f"edge {k} src"),
                                      _int_id(v["dst"], f"edge {k} dst"))
             for k, v in obj["edges"].items()}
    triangles = {int_key(k, "triangle"): Triangle(tuple(
        Slot(_int_id(s["edge"], f"triangle {k} slot edge"), s["side"])
        for s in v)) for k, v in obj["triangles"].items()}
    bds = []
    for bi, b in enumerate(obj.get("boundaries", []), 1):
        es = [None] * 3
        for rec in b:
            pos = rec["position"]
            if type(pos) is not int or pos not in (0, 1, 2):
                raise ValueError(f"boundary position {pos!r} is not 0, 1 "
                                 f"or 2")
            if es[pos] is not None:
                raise ValueError(f"boundary position {pos} is given twice")
            es[pos] = _int_id(rec["edge"], "boundary edge")
        if None in es:
            raise ValueError(f"boundary {bi}: position {es.index(None)} is "
                             f"missing")
        bds.append(BoundaryComponent(tuple(es)))
    tri = MarkedTriangulation(edges, triangles, bds)
    errs = validate(tri)
    if errs:
        raise ValueError("invalid surface file: " + "; ".join(errs))
    return tri


def load(path: str) -> MarkedTriangulation:
    with open(path) as fh:
        return from_json(json.load(fh, object_pairs_hook=unique_keys))
