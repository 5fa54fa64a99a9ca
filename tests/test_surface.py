import pytest

from spinsum.surface import (BoundaryComponent, Edge, MarkedTriangulation,
                             build_cylinder,
                             build_disk, build_pair_of_pants,
                             disjoint_union, from_json, genus_g_closed,
                             genus_g_closed_detail, glue_boundaries,
                             glue_boundaries_with_map, named_closed_detail,
                             to_json, validate)


def euler(tri):
    return len(tri.vertices) - len(tri.edges) + len(tri.triangles)


def test_builders_validate():
    for tri in (build_disk(), build_cylinder(), build_pair_of_pants(),
                *(genus_g_closed(g) for g in range(6))):
        assert validate(tri) == []


def test_cylinder_combinatorics():
    tri = build_cylinder()
    assert len(tri.boundaries) == 2
    assert euler(tri) == 0
    assert not tri.is_closed()


def test_pair_of_pants_combinatorics():
    tri = build_pair_of_pants()
    assert len(tri.boundaries) == 3
    assert euler(tri) == -1


def test_closed_genus_g():
    for g in (0, 1, 2):
        tri = genus_g_closed(g)
        assert tri.is_closed()
        assert euler(tri) == 2 - 2 * g
        assert tri.genus() == g


def test_glue_boundaries_closes_cylinder():
    tri = build_cylinder()
    glued, gmap = glue_boundaries_with_map(tri, 1, 2)
    assert glued.is_closed()
    assert glued.genus() == 1
    assert len(gmap.pairs) == 3
    assert glue_boundaries(tri, 1, 2).is_closed()


def test_disjoint_union_keeps_components():
    t1, t2 = build_disk(), build_cylinder()
    u, _, _, _ = disjoint_union(t1, t2)
    assert len(u.boundaries) == 3
    assert len(u.triangles) == len(t1.triangles) + len(t2.triangles)
    assert len(u.edges) == len(t1.edges) + len(t2.edges)
    # validate assumes a connected surface, so the only acceptable
    # complaint about a disjoint union is the genus/Euler consistency one
    assert all("Euler" in e for e in validate(u))


def test_json_roundtrip():
    tri = build_pair_of_pants()
    back = from_json(to_json(tri))
    assert back.edges == tri.edges
    assert back.triangles == tri.triangles
    assert back.boundaries == tri.boundaries


def test_genus_three_classification_unsupported_basis():
    # surfaces above genus 2 build and validate
    tri = genus_g_closed(3)
    assert validate(tri) == []
    assert tri.genus() == 3


@pytest.mark.parametrize("name,genus", [("sphere", 0), ("torus", 1),
                                        ("genus-3", 3)])
def test_named_closed_detail(name, genus):
    detail = named_closed_detail(name)
    assert detail.g == genus
    assert to_json(detail.tri) == to_json(genus_g_closed_detail(genus).tri)


@pytest.mark.parametrize("name", ("genus-", "genus--1", "genus-x", "cube"))
def test_named_closed_detail_rejects_other_names(name):
    with pytest.raises(ValueError, match="sphere, torus or genus-G"):
        named_closed_detail(name)


def one_vertex_torus():
    """genus_g_closed(1) with its three vertices identified: every edge
    is a loop, chi = -2, and the one vertex has three corner cycles."""
    t = genus_g_closed(1)
    return MarkedTriangulation({e: Edge(0, 0) for e in t.edges}, t.triangles)


def test_validate_rejects_non_manifold_vertices():
    tri = one_vertex_torus()
    assert validate(tri) == ["vertex 0: its corners form 3 separate cycles "
                             "or fans, not one (non-manifold vertex)"]
    with pytest.raises(ValueError, match="vertex 0: .*non-manifold"):
        from_json(to_json(tri))
    # two disks sharing one boundary vertex: two fans at vertex 1
    two, _, vo, _ = disjoint_union(build_disk(), build_disk())
    wedge = MarkedTriangulation(
        {e: Edge(*(1 if v == vo + 1 else v for v in (x.src, x.dst)))
         for e, x in two.edges.items()}, two.triangles, two.boundaries)
    assert validate(wedge) == ["vertex 1: its corners form 2 separate "
                               "cycles or fans, not one (non-manifold "
                               "vertex)"]


def test_validate_rejects_a_boundary_without_three_edges():
    # from_json always gives a boundary three positions, so only a complex
    # built in code reaches this check
    tri = build_cylinder()
    short = MarkedTriangulation(tri.edges, tri.triangles,
                                [BoundaryComponent((1, 2)), tri.boundaries[1]])
    assert "boundary 1: must have 3 edges" in validate(short)
