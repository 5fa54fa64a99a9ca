import itertools
import random

import pytest

from spinsum import gf2, spin
from spinsum.algebra import derive
from spinsum.pachner import random_pachner_move
from spinsum.spin import (NS, R_TYPE, MarkingMove, apply_marking_move,
                          arf_invariant, classify_spin_structures,
                          curve_lift_sign, enumerate_admissible,
                          is_admissible, leaf_exchange_vectors, nu_of,
                          quadratic_form, signs_to_vector, symplectic_basis)
from spinsum.surface import (R, GenusGComplex, build_cylinder,
                             disjoint_union, genus_g_closed_detail,
                             glue_boundaries_with_map)
from spinsum import tft

from conftest import glue_edge_signs
from test_pachner import GOLDEN_LOGS, _walk_start


def test_nu_of():
    assert nu_of(NS) == 1
    assert nu_of(R_TYPE) == -1
    with pytest.raises(ValueError):
        nu_of("X")


def test_reference_cylinder_signs_admissible():
    for delta in (NS, R_TYPE):
        for eps in (1, -1):
            tri, signs, types = tft.cylinder_spin(delta, eps)
            assert is_admissible(tri, signs, types)


def test_reference_pants_signs_admissible():
    for deltas in itertools.product((NS, R_TYPE), repeat=3):
        if nu_of(deltas[0]) * nu_of(deltas[1]) * nu_of(deltas[2]) == -1:
            with pytest.raises(ValueError):
                tft.pants_spin(deltas, 1, 1)
            continue
        for e1, e2 in itertools.product((1, -1), repeat=2):
            tri, signs, types = tft.pants_spin(deltas, e1, e2)
            assert is_admissible(tri, signs, types)


def test_reference_torus_signs_admissible():
    for delta in (NS, R_TYPE):
        for eps in (1, -1):
            tri, signs = tft.torus_spin(delta, eps)
            assert is_admissible(tri, signs, ())


def test_boundary_type_swap_changes_admissibility():
    tri, signs, _ = tft.cylinder_spin(NS, 1)
    assert is_admissible(tri, signs, (NS, NS))
    assert not is_admissible(tri, signs, (R_TYPE, NS))
    assert not is_admissible(tri, signs, (NS, R_TYPE))


def test_enumerate_admissible_contains_reference():
    tri, signs, types = tft.cylinder_spin(R_TYPE, -1)
    sols = list(enumerate_admissible(tri, types))
    vectors = {signs_to_vector(tri, s) for s in sols}
    assert signs_to_vector(tri, signs) in vectors
    for s in sols:
        assert is_admissible(tri, s, types)


def test_enumerate_admissible_is_lazy_at_genus_2():
    """Genus 2 has 2^25 admissible sign assignments; the first one comes
    without building the others."""
    tri = genus_g_closed_detail(2).tri
    sols = enumerate_admissible(tri)
    first = next(sols)
    assert set(first) == set(tri.edges) and is_admissible(tri, first, ())
    assert is_admissible(tri, next(sols), ())


def test_marking_moves_preserve_admissibility():
    tri, signs, types = tft.cylinder_spin(NS, -1)
    fid = sorted(tri.triangles)[0]
    inner = [e for e in sorted(tri.edges) if not tri.is_boundary_edge(e)]
    for move in (MarkingMove("leaf_exchange", fid),
                 MarkingMove("rotate_marking", fid),
                 MarkingMove("flip_edge", inner[0])):
        t2, s2 = apply_marking_move(tri, signs, move)
        assert is_admissible(t2, s2, types)


def test_marking_move_involutions():
    tri, signs, _ = tft.cylinder_spin(NS, 1)
    fid = sorted(tri.triangles)[0]
    inner = [e for e in sorted(tri.edges) if not tri.is_boundary_edge(e)]
    t2, s2 = apply_marking_move(
        *apply_marking_move(tri, signs, MarkingMove("leaf_exchange", fid)),
        MarkingMove("leaf_exchange", fid))
    assert (t2.triangles, s2) == (tri.triangles, signs)
    t2, s2 = apply_marking_move(
        *apply_marking_move(tri, signs, MarkingMove("flip_edge", inner[0])),
        MarkingMove("flip_edge", inner[0]))
    assert (t2.edges, t2.triangles, s2) == (tri.edges, tri.triangles, signs)
    state = (tri, signs)
    for _ in range(3):
        state = apply_marking_move(*state, MarkingMove("rotate_marking", fid))
    assert state[0].triangles == tri.triangles
    # sign vectors may differ by a gauge transformation in the
    # leaf-exchange span
    diff = signs_to_vector(tri, state[1]) ^ signs_to_vector(tri, signs)
    assert gf2.reduce_against(leaf_exchange_vectors(tri), diff) == 0


def test_flip_boundary_edge_rejected():
    tri, signs, _ = tft.cylinder_spin(NS, 1)
    bedge = next(e for e in sorted(tri.edges) if tri.is_boundary_edge(e))
    with pytest.raises(ValueError):
        apply_marking_move(tri, signs, MarkingMove("flip_edge", bedge))


@pytest.mark.parametrize("kind,what", [("rotate_marking", "face"),
                                       ("leaf_exchange", "face"),
                                       ("flip_edge", "edge")])
def test_marking_move_names_unknown_target(kind, what):
    tri, signs, _ = tft.cylinder_spin(NS, 1)
    with pytest.raises(ValueError, match=f"unknown {what} 999"):
        apply_marking_move(tri, signs, MarkingMove(kind, 999))


def test_vertex_equations_cached_per_types_and_still_checked():
    tri, signs, types = tft.cylinder_spin(NS, 1)
    rows = spin._vertex_equations(tri, types)
    assert spin._vertex_equations(tri, list(types)) is rows
    assert spin._edge_bits(tri) is spin._edge_bits(tri)
    other = (R_TYPE, R_TYPE)
    assert spin._vertex_equations(tri, other) != rows
    assert is_admissible(tri, signs, types)
    assert not is_admissible(tri, signs, other)
    for bad in ((NS,), (NS, "X")):
        with pytest.raises(ValueError):
            is_admissible(tri, signs, bad)


def test_torus_classes_separated_by_quadratic_form():
    detail = genus_g_closed_detail(1)
    a, b = symplectic_basis(detail).cycles
    qs = set()
    for signs in classify_spin_structures(detail.tri):
        qs.add((quadratic_form(detail.tri, signs, a),
                quadratic_form(detail.tri, signs, b)))
    assert qs == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("g", (1, 2))
def test_classification_rejects_a_disconnected_surface(g):
    tri = genus_g_closed_detail(g).tri
    union = disjoint_union(disjoint_union(tri, tri)[0], tri)[0]
    with pytest.raises(ValueError, match="has 3 components"):
        classify_spin_structures(union)


def test_curve_lift_sign_is_plus_minus_one():
    detail = genus_g_closed_detail(1)
    a, b = symplectic_basis(detail).cycles
    for signs in classify_spin_structures(detail.tri):
        for curve in (a, b):
            assert curve_lift_sign(detail.tri, signs, curve) in (1, -1)


def test_arf_requires_admissible_signs():
    detail = genus_g_closed_detail(1)
    signs = classify_spin_structures(detail.tri)[0]
    bad = dict(signs)
    eid = sorted(bad)[0]
    bad[eid] = -bad[eid]
    if not is_admissible(detail.tri, bad, ()):
        with pytest.raises(ValueError):
            arf_invariant(detail, bad)


def test_glue_edge_signs_transport():
    tri = build_cylinder()
    glued, gmap = glue_boundaries_with_map(tri, 1, 2)
    _, signs, _ = tft.cylinder_spin(NS, 1)
    out = glue_edge_signs(signs, gmap, -1)
    assert set(out) == set(glued.edges)
    for a_eid, b_eid in gmap.pairs:
        assert out[b_eid] == -signs[a_eid] * signs[b_eid]


def test_sphere_has_unique_class_with_arf_one():
    detail = genus_g_closed_detail(0)
    classes = classify_spin_structures(detail.tri)
    assert len(classes) == 1
    assert arf_invariant(detail, classes[0]) == 1


def test_unknown_boundary_type_rejected(clifford):
    tri, signs, _ = tft.cylinder_spin(NS, 1)
    with pytest.raises(ValueError, match="boundary type"):
        is_admissible(tri, signs, ("X", NS))
    with pytest.raises(ValueError, match="one boundary type"):
        is_admissible(tri, signs, (NS,))
    with pytest.raises(ValueError, match="boundary type"):
        tft.closed_form(clifford, [(NS, 1), ("X", 1)])
    with pytest.raises(ValueError, match="boundary type"):
        tft.cylinder_closed_form(clifford, "bogus", 1)
    with pytest.raises(ValueError, match="nu must be"):
        derive(clifford).q(0)


@pytest.mark.parametrize("g", (0, 1, 2, 3, 4))
def test_symplectic_basis_form(g):
    detail = genus_g_closed_detail(g)
    basis = symplectic_basis(detail)
    n = 2 * g
    assert len(basis.cycles) == n and len(basis.pairs) == g
    for c in basis.cycles:
        assert detail.tri.validate_curve(c) == []
        # embedded: every face is visited at most once
        assert len({s.face for s in c.steps}) == len(c.steps)
    for i in range(n):
        assert not basis.form[i] >> i & 1
        for j in range(n):
            assert basis.form[i] >> j & 1 == basis.form[j] >> i & 1
    for k, (a, b) in enumerate(basis.pairs):
        for m, (c, d) in enumerate(basis.pairs):
            assert basis.dot(a, d) == (k == m)
            assert basis.dot(a, c) == basis.dot(b, d) == 0
    # the pairs span every homology class
    assert len(gf2.echelon_basis(x for ab in basis.pairs for x in ab)) == n


@pytest.mark.parametrize("g", (0, 1, 2, 3))
def test_gauss_sum_equals_arf(g):
    # sum over all 4^g classes x of (-1)^q(x) is 2^g Arf(q); it uses only
    # the form and the cycles' q values, not the symplectic pairs
    detail = genus_g_closed_detail(g)
    basis = symplectic_basis(detail)
    for signs in classify_spin_structures(detail.tri):
        qbits = sum(quadratic_form(detail.tri, signs, c) << i
                    for i, c in enumerate(basis.cycles))
        total = sum((-1) ** basis.q(qbits, x) for x in range(1 << (2 * g)))
        assert total == 2 ** g * arf_invariant(detail, signs, basis)


@pytest.mark.parametrize("g", (1, 2, 3))
def test_arf_invariant_along_pachner_walk(g):
    detail = genus_g_closed_detail(g)
    rng = random.Random(100 + g)
    tri = detail.tri
    for signs in rng.sample(classify_spin_structures(tri), 4):
        arf = arf_invariant(detail, signs)
        cur = tri
        for step in range(1, 201):
            cur, signs, _ = random_pachner_move(
                cur, signs, rng, bias_faces=len(tri.triangles))
            if step % 40 == 0:
                assert arf_invariant(GenusGComplex(cur), signs) == arf


def _walk_equations(tri, types):
    """Reference (mask, rhs) rows from ordered star walks.

    Around an inner vertex v the walk is a counterclockwise cycle from
    v's first corner in triangle order; around a boundary vertex it is a
    fan from the boundary edge whose dst is v until it leaves through a
    boundary edge.  D counts the faces entered through slot 0 (plus one
    at the distinguished vertex of an NS boundary), K the exits through
    a slot with side R, and the mask holds the exit edges and, for a
    fan, its entry edge.
    """
    bits = spin._edge_bits(tri)
    entered = {}  # boundary vertex -> (boundary index, boundary edge)
    for bi, b in enumerate(tri.boundaries):
        for eid in b.edges:
            entered[tri.edges[eid].dst] = (bi, eid)
    first = {}
    for fid in tri.triangles:
        for c in range(3):
            first.setdefault(tri.corner_vertex(fid, c), (fid, (c + 1) % 3))
    rows = []
    for v in (sorted(tri.inner_vertices())
              + sorted(tri.all_boundary_vertices())):
        if v in entered:
            bi, eid = entered[v]
            ((fid, entry),) = tri.incidences(eid)
            distinguished = tri.edges[tri.boundaries[bi].edges[0]].src
            edges, D = [eid], int(types[bi] == NS and distinguished == v)
        else:
            fid, entry = first[v]
            edges, D = [], 0
        start, K = (fid, entry), 0
        while True:
            c = (entry - 1) % 3
            assert tri.corner_vertex(fid, c) == v
            slot = tri.triangles[fid].slots[c]
            D += entry == 0
            K += slot.side == R
            edges.append(slot.edge)
            nxt = [inc for inc in tri.incidences(slot.edge)
                   if inc != (fid, c)]
            if not nxt:
                assert v in entered and tri.edges[slot.edge].src == v
                break
            ((fid, entry),) = nxt
            if (fid, entry) == start:
                assert v not in entered
                break
        mask = 0
        for eid in edges:
            mask ^= 1 << bits[eid]
        rows.append((mask, (D + K + 1) & 1))
    return tuple(rows)


def _all_types(tri):
    return list(itertools.product((NS, R_TYPE), repeat=len(tri.boundaries)))


@pytest.mark.parametrize("surface", ["genus-0", "genus-1", "genus-2",
                                     "genus-3", "genus-4", "cylinder",
                                     "pants"])
def test_vertex_equations_match_star_walk(surface):
    if surface == "cylinder":
        tri = build_cylinder()
    elif surface == "pants":
        tri = tft.pants_spin((NS, NS, NS), 1, 1)[0]
    else:
        tri = genus_g_closed_detail(int(surface[-1])).tri
    assert len(_all_types(tri)) == 2 ** len(tri.boundaries)
    for types in _all_types(tri):
        rows = spin._vertex_equations(tri, types)
        assert len(rows) == len(tri.vertices)
        assert rows == _walk_equations(tri, types)


@pytest.mark.parametrize("surface,seed", [(s, n) for s, n, _ in GOLDEN_LOGS],
                         ids=[s for s, _, _ in GOLDEN_LOGS])
def test_vertex_equations_match_star_walk_along_pachner_walk(surface, seed):
    tri, signs = _walk_start(surface)
    rng = random.Random(seed)
    bias = len(tri.triangles)
    for step in range(1000):
        tri, signs, _ = random_pachner_move(tri, signs, rng, bias_faces=bias)
        if step % 4 == 0:
            for types in _all_types(tri):
                assert (spin._vertex_equations(tri, types)
                        == _walk_equations(tri, types)), (step, types)


def test_bad_or_missing_edge_sign_is_named():
    detail = genus_g_closed_detail(1)
    tri = detail.tri
    signs = next(s for s in classify_spin_structures(tri)
                 if arf_invariant(detail, s) == -1)
    curve = next(c for c in symplectic_basis(detail).cycles
                 if any(tri.triangles[s.face].slots[
                     tri.curve_exit_slot(s)].edge == 7 for s in c.steps))
    zero = {**signs, 7: 0}
    missing = {e: s for e, s in signs.items() if e != 7}
    for bad, what in ((zero, "not 0"), (missing, "but it is missing")):
        for call in (lambda: signs_to_vector(tri, bad),
                     lambda: is_admissible(tri, bad, ()),
                     lambda: arf_invariant(detail, bad),
                     lambda: curve_lift_sign(tri, bad, curve)):
            with pytest.raises(ValueError, match=f"edge 7: sign must be "
                                                 f"\\+1 or -1, {what}"):
                call()
