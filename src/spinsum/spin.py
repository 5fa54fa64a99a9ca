"""Edge signs as combinatorial spin structures.

An edge-sign assignment is a total map edge id -> {+1, -1}.  Whether it
defines a spin structure is decided vertex by vertex: around an inner
vertex v the product of the incident edge signs must equal (-1)^(D+K+1),
where D counts the triangle corners at v between slots 2 and 0 and K the
corners whose slot ending at v has side flag 'R'.  The counterclockwise
star walk around v, which leaves corner c through slot c, gives their
meaning: D counts the triangles it enters through their marked edge, K
the edge ends pointing away from v.  At boundary vertices the same holds
with the boundary edge ending at v in the product and D shifted by one
at the distinguished vertex in the NS case.

Admissibility over all vertices is one linear system over GF(2) in the
sign exponents, which the admissibility test, enumeration and
classification all solve or evaluate.

Curves and the Arf invariant.  On a closed surface, a primal spanning
tree T and a spanning tree C of the dual graph on the edges outside T
leave 2g edges.  Each closes a dual cycle (cross it, return through C)
that visits every face at most once, so it is embedded and q reads off
its edge signs; together they span H_1(S; GF(2)).  gamma_i . gamma_j is
|shadow(gamma_i) & crossed(gamma_j)| mod 2, where the shadow pushes the
cycle off to its left onto edges: a step from slot k to slot k+1 cuts
off the corner on its right, so its left side runs along the edge in
slot k+2, and a step to slot k-1 adds nothing.  The shadow stays in the
strip of triangles the cycle crosses, so it is homologous to the cycle,
and no vertex order is needed.  Symplectic Gram-Schmidt over GF(2) and
q(x + y) = q(x) + q(y) + x . y then give Arf = (-1)^(sum_k q(a_k) q(b_k)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import gf2
from .surface import (CurveSpec, CurveStep, Edge, GenusGComplex, L,
                      MarkedTriangulation, R, Slot, Triangle, union)

NS, R_TYPE = "NS", "R"

Signs = dict[int, int]


def nu_of(delta: str) -> int:
    if delta == NS:
        return +1
    if delta == R_TYPE:
        return -1
    raise ValueError(f"boundary type must be 'NS' or 'R', got {delta!r}")


# -- admissibility as an F2 system --------------------------------------
def _edge_bits(tri: MarkedTriangulation) -> dict[int, int]:
    """Edge id -> bit index, cached on the triangulation."""
    return tri.cached(_bit_indices)


def _bit_indices(tri: MarkedTriangulation) -> dict[int, int]:
    return {eid: k for k, eid in enumerate(sorted(tri.edges))}


def _vertex_equations(tri: MarkedTriangulation, types: tuple[str, ...]):
    """(mask, rhs) rows over sign exponents (sign -1 <-> exponent 1).

    One row per vertex (inner ones first, each group sorted) from one pass
    over the corners, cached on the triangulation per boundary types.
    """
    return tri.cached(_equations, tuple(types))


def _equations(tri: MarkedTriangulation, types: tuple[str, ...]):
    if len(types) != len(tri.boundaries):
        raise ValueError("one boundary type per boundary component required")
    bits = _edge_bits(tri)
    mask = dict.fromkeys(tri.vertices, 0)
    rhs = dict.fromkeys(tri.vertices, 1)  # the 1 of D + K + 1
    for t in tri.triangles.values():
        for c, slot in enumerate(t.slots):
            right = slot.side == R
            e = tri.edges[slot.edge]
            v = e.src if right else e.dst  # corner c ends slot c
            mask[v] ^= 1 << bits[slot.edge]
            rhs[v] ^= (c == 2) ^ right
    for b, delta in zip(tri.boundaries, types):
        nu_of(delta)  # rejects an unknown type before any row is cached
        for p, eid in enumerate(b.edges):
            v = tri.edges[eid].dst
            mask[v] ^= 1 << bits[eid]
            rhs[v] ^= p == 2 and delta == NS  # v is the distinguished one
    order = sorted(tri.inner_vertices()) + sorted(tri.all_boundary_vertices())
    return tuple((mask[v], rhs[v]) for v in order)


def is_admissible(tri: MarkedTriangulation, signs: Signs,
                  types: tuple[str, ...] = ()) -> bool:
    x = signs_to_vector(tri, signs)
    return all(gf2.parity(x & mask) == rhs
               for mask, rhs in _vertex_equations(tri, types))


def _vector_to_signs(tri: MarkedTriangulation, x: int) -> Signs:
    bits = _edge_bits(tri)
    return {eid: -1 if (x >> k) & 1 else +1 for eid, k in bits.items()}


class SignError(ValueError):
    """An edge sign that is missing or other than +1 and -1."""


def edge_sign(signs: Signs, eid: int) -> int:
    """signs[eid]; SignError naming the edge unless it is +1 or -1."""
    s = signs.get(eid)
    if s != 1 and s != -1:
        what = f"not {s!r}" if eid in signs else "but it is missing"
        raise SignError(f"edge {eid}: sign must be +1 or -1, {what}")
    return s


def signs_to_vector(tri: MarkedTriangulation, signs: Signs) -> int:
    bits = _edge_bits(tri)
    x = 0
    for eid, k in bits.items():
        if edge_sign(signs, eid) == -1:
            x |= 1 << k
    return x


def enumerate_admissible(tri: MarkedTriangulation,
                         types: tuple[str, ...] = ()) -> Iterator[Signs]:
    """Every admissible sign assignment, one at a time: there are
    2^(solution space dimension) of them, 2^25 on the genus-2 reference."""
    space = gf2.solve_affine(len(tri.edges), _vertex_equations(tri, types))
    if space is not None:
        for x in space:
            yield _vector_to_signs(tri, x)


def leaf_exchange_vectors(tri: MarkedTriangulation) -> list[int]:
    """Per face in id order, the edges whose signs its leaf exchange flips."""
    bits, faces = _edge_bits(tri), tri.triangles
    return [(1 << bits[a.edge]) ^ (1 << bits[b.edge]) ^ (1 << bits[c.edge])
            for a, b, c in (faces[fid].slots for fid in sorted(faces))]


def classify_spin_structures(tri: MarkedTriangulation) -> list[Signs]:
    if not tri.is_closed():
        raise ValueError("classification requires a closed surface")
    space = gf2.solve_affine(len(tri.edges), _vertex_equations(tri, ()))
    if space is None:
        return []
    reps = gf2.coset_representatives(space, leaf_exchange_vectors(tri))
    expected = 1 << (2 * tri.genus())
    if len(reps) != expected:
        forest, _ = _spanning_forest(tri.vertices, (
            (eid, e.src, e.dst) for eid, e in tri.edges.items()))
        components = len(tri.vertices) - len(forest)
        if components > 1:
            raise ValueError(f"classification needs a connected surface; "
                             f"this one has {components} components")
        raise RuntimeError(
            f"classification found {len(reps)} classes, expected {expected}; "
            f"leaf-exchange quotient assumption violated")
    return [_vector_to_signs(tri, x) for x in reps]


# -- marking moves ------------------------------------------------------
@dataclass(frozen=True)
class MarkingMove:
    kind: str  # 'leaf_exchange' | 'flip_edge' | 'rotate_marking'
    target: int  # face id for leaf_exchange/rotate_marking, edge id for flip


def marked_slots(signs: Signs, slots: tuple[Slot, Slot, Slot],
                 k: int) -> tuple[Slot, Slot, Slot]:
    """A face's slots rotated so that slot k is marked, negating in place
    the signs of the edges in slots 0..k-1 (one per single rotation)."""
    for slot in slots[:k]:
        signs[slot.edge] = -signs[slot.edge]
    return slots[k:] + slots[:k]


def mark_slot(triangles: dict[int, Triangle], signs: Signs, fid: int,
              k: int) -> None:
    """Rotate face fid in place so that its slot k is marked, negating
    the signs as ``marked_slots`` does."""
    triangles[fid] = Triangle(marked_slots(signs, triangles[fid].slots, k))


def flip_edge(tri: MarkedTriangulation, edges: dict[int, Edge],
              triangles: dict[int, Triangle], signs: Signs, eid: int) -> None:
    """Reverse edge eid in place, toggling its slot sides and its sign.

    The slots are found through tri's incidences, so flip before any
    ``mark_slot`` moves slots in the working dicts.
    """
    e = edges[eid]
    edges[eid] = Edge(e.dst, e.src)
    for fid, si in tri.incidences(eid):
        slots = list(triangles[fid].slots)
        slots[si] = Slot(eid, L if slots[si].side == R else R)
        triangles[fid] = Triangle(tuple(slots))
    signs[eid] = -signs[eid]


def apply_marking_move(tri: MarkedTriangulation, signs: Signs,
                       move: MarkingMove):
    if move.kind not in ("leaf_exchange", "flip_edge", "rotate_marking"):
        raise ValueError(f"unknown marking move kind {move.kind!r}")
    what, ids = (("edge", tri.edges) if move.kind == "flip_edge"
                 else ("face", tri.triangles))
    if move.target not in ids:
        raise ValueError(f"unknown {what} {move.target}")
    signs = dict(signs)
    if move.kind == "leaf_exchange":
        t = tri.triangles[move.target]
        for slot in t.slots:
            signs[slot.edge] = -signs[slot.edge]
        return tri, signs
    edges, triangles = dict(tri.edges), dict(tri.triangles)
    if move.kind == "flip_edge":
        if tri.is_boundary_edge(move.target):
            raise ValueError("cannot flip a boundary edge")
        flip_edge(tri, edges, triangles, signs, move.target)
    else:
        mark_slot(triangles, signs, move.target, 1)
    return MarkedTriangulation(edges, triangles, tri.boundaries), signs


# -- curve lifting ------------------------------------------------------
def curve_lift_sign(tri: MarkedTriangulation, signs: Signs,
                    curve: CurveSpec) -> int:
    errs = tri.validate_curve(curve)
    if errs:
        raise ValueError("malformed curve: " + "; ".join(errs))
    total = 1
    for step in curve.steps:
        k, eta = step.entry_slot, step.eta
        ex = (k + eta) % 3
        slot = tri.triangles[step.face].slots[ex]
        mu = +1 if slot.side == R else -1
        # exp(pi i ((k + eta - [k + eta]_3)/3 + (1 - eta)/2)) as a sign
        phase = ((k + eta - ex) // 3 + (1 - eta) // 2) & 1
        total *= edge_sign(signs, slot.edge) * mu * (-1 if phase else 1)
    return total


# -- tree-cotree cycles and the Arf invariant ---------------------------
def _spanning_forest(nodes, links):
    """Split (id, u, v) links between nodes into spanning-forest ids and
    leftover ids, in link order."""
    parent = {x: x for x in nodes}
    kept, rest = [], []
    for lid, u, v in links:
        (kept if union(parent, u, v) else rest).append(lid)
    return kept, rest


def _tree_cotree_cycles(tri: MarkedTriangulation) -> list[CurveSpec]:
    """One embedded dual cycle per edge outside a tree and a cotree."""
    if not tri.is_closed():
        raise ValueError("symplectic basis requires a closed surface")
    tree, _ = _spanning_forest(tri.vertices, (
        (eid, e.src, e.dst) for eid, e in sorted(tri.edges.items())))
    tree = set(tree)
    dual = [(eid, tri.incidences(eid)[0][0], tri.incidences(eid)[1][0])
            for eid in sorted(tri.edges) if eid not in tree]
    cotree, leftover = _spanning_forest(tri.triangles, dual)
    # cross[f][h] = (slot in f, slot in h) of the cotree edge joining f, h
    cross: dict[int, dict[int, tuple[int, int]]] = {}
    for eid in cotree:
        (f, sf), (h, sh) = tri.incidences(eid)
        cross.setdefault(f, {})[h] = (sf, sh)
        cross.setdefault(h, {})[f] = (sh, sf)
    cycles = []
    for eid in leftover:
        (f1, s1), (f2, s2) = tri.incidences(eid)
        toward = {f1: None}  # next face on the cotree path to f1
        queue = [f1]
        for f in queue:
            for h in cross.get(f, ()):
                if h not in toward:
                    toward[h] = f
                    queue.append(h)
        steps, f, entry = [], f2, s2
        while f != f1:
            h = toward[f]
            exit_, entry_next = cross[f][h]
            steps.append(CurveStep(f, entry, _eta(entry, exit_)))
            f, entry = h, entry_next
        steps.append(CurveStep(f1, entry, _eta(entry, s1)))
        cycles.append(CurveSpec(tuple(steps)))
    return cycles


def _eta(entry: int, exit_: int) -> int:
    return +1 if (exit_ - entry) % 3 == 1 else -1


def _shadow_and_crossed(tri: MarkedTriangulation, curve: CurveSpec,
                        bits: dict[int, int]) -> tuple[int, int]:
    """Edge bitmasks of the curve pushed to its left and of its crossings."""
    shadow = crossed = 0
    for s in curve.steps:
        slots = tri.triangles[s.face].slots
        crossed ^= 1 << bits[slots[(s.entry_slot + s.eta) % 3].edge]
        if s.eta == +1:
            shadow ^= 1 << bits[slots[(s.entry_slot + 2) % 3].edge]
    return shadow, crossed


def _dot(form: tuple[int, ...], x: int, y: int) -> int:
    row = 0
    for i, r in enumerate(form):
        if x >> i & 1:
            row ^= r
    return (row & y).bit_count() & 1


@dataclass(frozen=True)
class SymplecticBasis:
    """Dual cycles, their GF(2) intersection form and symplectic pairs.

    ``form[i]`` has bit j set iff cycles i and j cross an odd number of
    times.  A vector is a bitmask of cycles to add up; ``pairs`` holds
    vectors (a_k, b_k) with a_k . b_l = delta_kl and a_k . a_l =
    b_k . b_l = 0.
    """
    cycles: tuple[CurveSpec, ...]
    form: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]

    def dot(self, x: int, y: int) -> int:
        return _dot(self.form, x, y)

    def q(self, qbits: int, x: int) -> int:
        """q of the sum x, from q(cycle i) = bit i of qbits.

        q(x + y) = q(x) + q(y) + x . y; summing the form over ordered
        pairs of x counts each crossing pair twice.
        """
        twice = sum((r & x).bit_count() for i, r in enumerate(self.form)
                    if x >> i & 1)
        return ((qbits & x).bit_count() + twice // 2) & 1


def symplectic_basis(detail: GenusGComplex) -> SymplecticBasis:
    """Tree-cotree cycles of a closed surface, reduced to symplectic pairs."""
    tri = detail.tri
    cycles = _tree_cotree_cycles(tri)
    n = len(cycles)
    if n != 2 * detail.g:
        raise RuntimeError(f"tree-cotree gave {n} cycles, expected "
                           f"{2 * detail.g}")
    for k, c in enumerate(cycles):
        errs = tri.validate_curve(c)
        if errs:
            raise RuntimeError(f"cycle {k} is malformed: " + "; ".join(errs))
    bits = _edge_bits(tri)
    sc = [_shadow_and_crossed(tri, c, bits) for c in cycles]
    form = tuple(sum(((sh & cr).bit_count() & 1) << j
                     for j, (_, cr) in enumerate(sc)) for sh, _ in sc)
    if any(form[i] >> i & 1 or (form[i] >> j ^ form[j] >> i) & 1
           for i in range(n) for j in range(n)):
        raise RuntimeError("intersection form is not symmetric with zero "
                           "diagonal")
    # symplectic Gram-Schmidt over GF(2)
    rest, pairs = [1 << i for i in range(n)], []
    while rest:
        a = rest.pop(0)
        k = next((k for k, y in enumerate(rest) if _dot(form, a, y)), None)
        if k is None:
            raise RuntimeError("intersection form is degenerate")
        b = rest.pop(k)
        rest = [c ^ (a if _dot(form, c, b) else 0)
                ^ (b if _dot(form, c, a) else 0) for c in rest]
        pairs.append((a, b))
    return SymplecticBasis(tuple(cycles), form, tuple(pairs))


def quadratic_form(tri: MarkedTriangulation, signs: Signs,
                   curve: CurveSpec) -> int:
    """q(curve) in {0,1}: 1 iff the frame curve has a closed lift."""
    return (1 + curve_lift_sign(tri, signs, curve)) // 2


def quadratic_pairs(tri: MarkedTriangulation, signs: Signs,
                    basis: SymplecticBasis) -> list[tuple[int, int]]:
    """(q(a_k), q(b_k)) for the symplectic pairs of ``basis``."""
    qbits = sum(quadratic_form(tri, signs, c) << i
                for i, c in enumerate(basis.cycles))
    return [(basis.q(qbits, a), basis.q(qbits, b)) for a, b in basis.pairs]


def arf_invariant(detail: GenusGComplex, signs: Signs,
                  basis: SymplecticBasis | None = None) -> int:
    tri = detail.tri
    if not tri.is_closed():
        raise ValueError("Arf invariant requires a closed surface")
    if not is_admissible(tri, signs, ()):
        raise ValueError("Arf invariant requires admissible edge signs")
    if basis is None:
        basis = symplectic_basis(detail)
    total = sum(qa * qb for qa, qb in quadratic_pairs(tri, signs, basis))
    return (-1) ** (total & 1)
