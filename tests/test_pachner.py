import hashlib
import random

import pytest

from spinsum.algebra import builtin_by_name
from spinsum.eval import evaluate_raw
from spinsum.pachner import (PachnerMove, apply_pachner_move, pachner_13,
                             pachner_22, pachner_31, random_pachner_move)
from spinsum.spin import (NS, R_TYPE, MarkingMove, SignError,
                          apply_marking_move, classify_spin_structures,
                          is_admissible)
from spinsum.surface import MarkedTriangulation, genus_g_closed, validate
from spinsum import pachner, tft


@pytest.fixture(scope="module")
def cyl():
    return tft.cylinder_spin("NS", 1)


def test_one_three_then_three_one_roundtrip(cyl, clifford):
    tri, signs, _ = cyl
    base = evaluate_raw(tri, signs, clifford)
    fid = sorted(tri.triangles)[0]
    for choice in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        t2, s2 = pachner_13(tri, signs, fid, choice)
        assert validate(t2) == []
        assert len(t2.triangles) == len(tri.triangles) + 2
        # inner sign product around the new vertex is forced to -1
        new_edges = set(t2.edges) - set(tri.edges)
        prod = 1
        for e in new_edges:
            prod *= s2[e]
        assert prod == -1
        v = max(t2.vertices)
        t3, s3 = apply_pachner_move(t2, s2, PachnerMove("three_one", v))
        assert evaluate_raw(t3, s3, clifford) == base


def test_two_two_involution_amplitude(cyl, clifford):
    tri, signs, _ = cyl
    base = evaluate_raw(tri, signs, clifford)
    inner = [e for e in sorted(tri.edges) if not tri.is_boundary_edge(e)]
    for eid in inner[:3]:
        t2, s2 = apply_pachner_move(tri, signs, PachnerMove("two_two", eid))
        assert validate(t2) == []
        assert evaluate_raw(t2, s2, clifford) == base
        new_eid = max(t2.edges)
        t3, s3 = apply_pachner_move(t2, s2, PachnerMove("two_two", new_eid))
        assert evaluate_raw(t3, s3, clifford) == base


def test_moves_preserve_admissibility(cyl):
    tri, signs, types = cyl
    rng = random.Random(11)
    for _ in range(60):
        tri, signs, _move = random_pachner_move(tri, signs, rng, bias_faces=8)
        assert is_admissible(tri, signs, types)
    assert validate(tri) == []


@pytest.mark.parametrize("surface,band", [("genus-1", (6, 10)),
                                          ("genus-2", (22, 26)),
                                          ("pants", (11, 15))])
def test_walk_stays_within_four_faces_of_its_bias(surface, band):
    """A walk that starts at ``bias_faces`` faces stays within
    ``bias_faces`` to ``bias_faces + 4`` faces and reaches both ends."""
    if surface == "pants":
        tri, signs, _ = tft.pants_spin((NS, R_TYPE, R_TYPE), 1, -1)
    else:
        tri = genus_g_closed(int(surface[-1]))
        signs = classify_spin_structures(tri)[0]
    bias = len(tri.triangles)
    rng = random.Random(28)
    seen = set()
    for _ in range(3000):
        tri, signs, _ = random_pachner_move(tri, signs, rng, bias)
        seen.add(len(tri.triangles))
    assert (min(seen), max(seen)) == band == (bias, bias + 4)


def test_three_one_rejects_wrong_sign_product(cyl):
    tri, signs, _ = cyl
    fid = sorted(tri.triangles)[0]
    t2, s2 = pachner_13(tri, signs, fid, (1, 1))
    v = max(t2.vertices)
    bad = dict(s2)
    new_edges = [e for e in t2.edges if e not in tri.edges]
    bad[new_edges[0]] = -bad[new_edges[0]]
    with pytest.raises(ValueError, match="-1"):
        pachner_31(t2, bad, v)


def _scrambled(tri, signs, rotations, flips):
    """tri with each face fid rotated rotations[fid] times and the edges
    in flips reversed, through the marking moves."""
    for eid in flips:
        tri, signs = apply_marking_move(tri, signs,
                                        MarkingMove("flip_edge", eid))
    for fid, n in rotations.items():
        for _ in range(n):
            tri, signs = apply_marking_move(
                tri, signs, MarkingMove("rotate_marking", fid))
    return tri, signs


@pytest.mark.parametrize("name", ["clifford", "twisted-matrix-3-f3"])
def test_moves_accept_any_marking_of_the_patch(name, algebras):
    A = algebras[name]
    tri, signs, types = tft.cylinder_spin("NS", 1)
    base = evaluate_raw(tri, signs, A)
    # 2-2: every rotation of both faces, diagonal flipped or not
    eid = next(e for e in sorted(tri.edges) if not tri.is_boundary_edge(e))
    f1, f2 = (f for f, _ in tri.incidences(eid))
    for n1 in range(3):
        for n2 in range(3):
            flips = [eid] if (n1 + n2) % 2 else []
            t2, s2 = pachner_22(*_scrambled(tri, signs, {f1: n1, f2: n2},
                                            flips), eid)
            assert validate(t2) == []
            assert is_admissible(t2, s2, types)
            assert evaluate_raw(t2, s2, A) == base
    # 3-1: every subset of inner edges flipped, each face rotated
    t1, s1 = pachner_13(tri, signs, sorted(tri.triangles)[0], (1, -1))
    v = max(t1.vertices)
    star = t1.star_cycle(v)
    inner = sorted(e for _, e in star)
    for mask in range(8):
        flips = [e for k, e in enumerate(inner) if mask >> k & 1]
        for n in range(3):
            rotations = {fid: (n + k) % 3
                         for k, (fid, _) in enumerate(star)}
            t2, s2 = pachner_31(*_scrambled(t1, s1, rotations, flips), v)
            assert validate(t2) == []
            assert is_admissible(t2, s2, types)
            assert evaluate_raw(t2, s2, A) == base


def test_two_two_rejects_boundary_edge(cyl):
    tri, signs, _ = cyl
    bedge = next(e for e in sorted(tri.edges) if tri.is_boundary_edge(e))
    with pytest.raises(ValueError):
        apply_pachner_move(tri, signs, PachnerMove("two_two", bedge))


def test_fuzz_on_matrix_algebra_over_f3():
    A = builtin_by_name("twisted-matrix-3-f3")
    tri, signs, _ = tft.cylinder_spin("R", -1)
    base = evaluate_raw(tri, signs, A)
    rng = random.Random(5)
    for _ in range(30):
        tri, signs, _move = random_pachner_move(tri, signs, rng, bias_faces=8)
    assert evaluate_raw(tri, signs, A) == base


@pytest.mark.parametrize("kind,message", [("two_two", "edge 999"),
                                          ("three_one", "vertex 999"),
                                          ("one_three", "unknown face 999")])
def test_unknown_move_target_raises_value_error(cyl, kind, message):
    tri, signs, _ = cyl
    with pytest.raises(ValueError, match=message):
        apply_pachner_move(tri, signs, PachnerMove(kind, 999))


def test_three_one_rejects_valence_before_any_star_walk(monkeypatch):
    tri = genus_g_closed(2)
    signs = classify_spin_structures(tri)[0]
    v = next(v for v in sorted(tri.vertices) if tri.valence(v) != 3)

    def no_walk(self, v):
        raise AssertionError("star walk")

    monkeypatch.setattr(MarkedTriangulation, "star_cycle", no_walk)
    with pytest.raises(ValueError, match=f"vertex {v} does not have "
                                         f"valence 3"):
        apply_pachner_move(tri, signs, PachnerMove("three_one", v))


def _walk_start(surface):
    if surface == "genus-2":
        tri = genus_g_closed(2)
        return tri, classify_spin_structures(tri)[0]
    if surface == "cylinder":
        return tft.cylinder_spin(NS, 1)[:2]
    return tft.pants_spin((R_TYPE, R_TYPE, NS), 1, -1)[:2]


def _rebuild_mismatches(tri):
    """Ways a moved triangulation differs from a full rebuild of itself."""
    full = MarkedTriangulation(tri.edges, tri.triangles, tri.boundaries)
    bad = []
    if tri._cache:
        bad.append("cache not fresh")
    if tri._incidence != full._incidence:  # every entry, in order
        bad.append("incidences")
    if tri._one_sided != full._one_sided:
        bad.append("one-sided edges")
    if (tri._top_edge, tri._top_face) != (full._top_edge, full._top_face):
        bad.append("largest ids")
    if tri.vertices != full.vertices:
        bad.append("vertices")
    if tri.inner_vertices() != full.inner_vertices():
        bad.append("inner vertices")
    if any(tri.valence(v) != full.valence(v) for v in full.vertices):
        bad.append("valence")
    if tri._valence != full._valence:
        bad.append("corner counts")
    if tri._corner.keys() != full._corner.keys():
        bad.append("corner map keys")
    if any(fid not in tri.triangles or tri.corner_vertex(fid, c) != v
           for v, (fid, c) in tri._corner.items()):
        bad.append("corner map entries")
    if any(tri.star_cycle(v) != full.star_cycle(v)
           for v in sorted(full.inner_vertices())):
        bad.append("star cycles")
    return bad


# sha256 of the (kind, target, choice, sorted signs) log of 1000 moves,
# recorded with every move building its triangulation from scratch; it
# pins the RNG use and the sign transport
GOLDEN_LOGS = [
    ("genus-2", 1,
     "e075380b8cffed813dc381e3cc5c55be495b3d89b04a5fd4a1f0cc30df9b8dd6"),
    ("cylinder", 2,
     "d33c2bb67252c214724c3aa8fc562411b6b55ac61b58f0320e8bad2a47cf31bc"),
    ("pants", 3,
     "8d9bd289771cee3870f574d90eaeca0e15569cd819943729d69aaab395cd4ac2"),
]


def _walk_digest(tri, signs, seed, check=None):
    """(sha256 of a 1000-move walk's log, the walk's last triangulation);
    check(tri, step, move) runs after every move."""
    rng = random.Random(seed)
    bias = len(tri.triangles)
    h = hashlib.sha256()
    for step in range(1000):
        tri, signs, m = random_pachner_move(tri, signs, rng, bias_faces=bias)
        h.update(repr((m.kind, m.target, m.choice,
                       sorted(signs.items()))).encode())
        if check is not None:
            check(tri, step, m)
    return h.hexdigest(), tri


@pytest.mark.parametrize("surface,seed,digest", GOLDEN_LOGS,
                         ids=[s for s, _, _ in GOLDEN_LOGS])
def test_walk_matches_rebuild_oracle_and_golden_log(surface, seed, digest):
    def check(tri, step, m):
        assert _rebuild_mismatches(tri) == [], (step, m)

    got, tri = _walk_digest(*_walk_start(surface), seed, check)
    assert got == digest
    vs = tri.vertices
    vs.add(-1)
    assert -1 not in tri.vertices


# module-level apply_pachner_move calls of the golden walks: one per
# attempt, which the benchmark's pachner.attempts counter counts
GOLDEN_ATTEMPTS = {"genus-2": 2170, "cylinder": 1956, "pants": 1774}


@pytest.mark.parametrize("surface,seed", [(s, n) for s, n, _ in GOLDEN_LOGS],
                         ids=[s for s, _, _ in GOLDEN_LOGS])
def test_walk_calls_apply_pachner_move_once_per_attempt(monkeypatch, surface,
                                                         seed):
    apply, calls = pachner.apply_pachner_move, []

    def counted(tri, signs, move):
        calls.append(move)
        return apply(tri, signs, move)

    monkeypatch.setattr(pachner, "apply_pachner_move", counted)
    _walk_digest(*_walk_start(surface), seed)
    assert len(calls) == GOLDEN_ATTEMPTS[surface]


@pytest.mark.parametrize("surface,seed,digest",
                         [g for g in GOLDEN_LOGS if g[0] != "cylinder"],
                         ids=["genus-2", "pants"])
def test_walk_does_not_depend_on_dict_order(surface, seed, digest):
    """The start rebuilt with its triangle and edge dicts (and signs)
    inserted in shuffled order walks the golden log, and every star
    starts at the same corner."""
    tri, signs = _walk_start(surface)
    rng = random.Random(7)

    def shuffled(d):
        keys = list(d)
        rng.shuffle(keys)
        return {k: d[k] for k in keys}

    mixed = MarkedTriangulation(shuffled(tri.edges), shuffled(tri.triangles),
                                tri.boundaries)
    assert list(mixed.triangles) != sorted(mixed.triangles)
    assert list(mixed.edges) != sorted(mixed.edges)
    assert all(mixed.star_cycle(v) == tri.star_cycle(v)
               for v in sorted(tri.inner_vertices()))
    assert _walk_digest(mixed, shuffled(signs), seed)[0] == digest


@pytest.mark.parametrize("surface,seed", [(s, n) for s, n, _ in GOLDEN_LOGS],
                         ids=[s for s, _, _ in GOLDEN_LOGS])
def test_walk_surfaces_pass_validation(surface, seed):
    """Every surface along the golden walks is a manifold: in particular
    the corners at each vertex form one cycle or one boundary fan."""
    def check(tri, step, m):
        assert validate(tri) == [], (step, m)

    _walk_digest(*_walk_start(surface), seed, check)


@pytest.mark.parametrize("bad", [None, 0], ids=["missing", "zero"])
@pytest.mark.parametrize("kind", ["two_two", "three_one", "one_three",
                                  "walk"])
def test_moves_name_a_bad_or_missing_patch_sign(cyl, kind, bad):
    """Edge 7 of the NS+ cylinder is on each patch: the 2-2 diagonal, an
    outer edge of the 3-1 star, an edge of the 1-3 face.  A random walk
    does not retry past the bad sign: it reports it within 20 moves."""
    tri, signs, _ = cyl
    if kind == "three_one":
        tri, signs = pachner_13(tri, signs, 1)
        target = max(tri.vertices)
    else:
        target = 7 if kind == "two_two" else 1
    signs = dict(signs)
    if bad is None:
        del signs[7]
    else:
        signs[7] = bad
    what = "but it is missing" if bad is None else "not 0"
    with pytest.raises(SignError, match=rf"edge 7: sign must be \+1 or -1, "
                                        rf"{what}"):
        if kind == "walk":
            rng, bias = random.Random(1), len(tri.triangles)
            for _ in range(20):
                tri, signs, _ = random_pachner_move(tri, signs, rng, bias)
        else:
            apply_pachner_move(tri, signs, PachnerMove(kind, target))
