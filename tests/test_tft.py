import itertools
import random
from fractions import Fraction

import pytest

import spinsum.algebra as algebra
import spinsum.eval as engine
from spinsum.algebra import builtin_by_name, builtin_twisted_matrix, derive
from spinsum.eval import Amplitude, evaluate, evaluate_raw
from spinsum.fields import QQ, PrimeField
from spinsum.pachner import random_pachner_move
from spinsum.spin import (NS, R_TYPE, classify_spin_structures,
                          enumerate_admissible)
from spinsum.surface import (build_cylinder, build_disk,
                             build_pair_of_pants, disjoint_union,
                             genus_g_closed, genus_g_closed_detail,
                             glue_boundaries_with_map)
from spinsum.tensor import GradedTensor
from spinsum import tft

from conftest import glue_edge_signs

ALL_BUILTINS = ("clifford", "group-z2", "twisted-matrix-3-f3",
                "twisted-matrix-2-q")


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_gluing_cylinder_into_torus(name):
    A = builtin_by_name(name)
    for delta in (NS, R_TYPE):
        for eps in (1, -1):
            tri, signs, types = tft.cylinder_spin(delta, eps)
            amp = evaluate(tri, signs, types, A)
            glued = tft.glue_amplitude(amp, 1, 2, -1, A)
            assert glued.boundaries == 0
            ttri, tsigns = tft.torus_spin(delta, eps)
            assert glued.scalar_value() == \
                evaluate_raw(ttri, tsigns, A).scalar_value()
            assert glued.scalar_value() == \
                tft.closed_form(A, [(delta, eps)]).scalar_value()


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_disk_is_the_closed_form_of_one_ns_boundary(name):
    A = builtin_by_name(name)
    admissible = list(enumerate_admissible(build_disk(), (NS,)))
    assert len(admissible) == 2
    for signs in admissible:
        amp = evaluate(build_disk(), signs, (NS,), A)
        for eps in (1, -1):
            assert amp == tft.closed_form(A, (), [(NS, eps)])


def _boundary_candidates(A, types):
    """closed_form(A, (), [(delta_i, eps_i)]) for every choice of the
    eps_i with the last one +1, keyed by that choice."""
    return {epss + (1,): tft.closed_form(A, (), list(zip(types, epss + (1,))))
            for epss in itertools.product((1, -1), repeat=len(types) - 1)}


def test_open_amplitudes_lie_among_their_boundary_closed_forms():
    """Every admissible sign vector of the disk (NS) and of the NS,NS and
    R,R cylinders, and seeded samples of the 8,192 of each of the
    NS,NS,NS, NS,R,R and R,R,NS pants (32 per pants, 6 for F3), evaluate
    to the closed form of some boundary signs eps_i with eps_n = +1, for
    each built-in.  Clifford tells the two R,R candidates apart, and its
    128 vectors split 64/64 between them; on each pants with two R
    boundaries its samples take both of its two distinct candidates."""
    pants = build_pair_of_pants()
    surfaces = ((build_disk(), (NS,)), (build_cylinder(), (NS, NS)),
                (build_cylinder(), (R_TYPE, R_TYPE)),
                (pants, (NS, NS, NS)), (pants, (NS, R_TYPE, R_TYPE)),
                (pants, (R_TYPE, R_TYPE, NS)))
    rng = random.Random(30)
    vectors = 0
    for name in ALL_BUILTINS:
        A = builtin_by_name(name)
        for tri, types in surfaces:
            candidates = _boundary_candidates(A, types)
            hits = dict.fromkeys(candidates, 0)
            taken = set()  # the candidate values matched, as key sets
            vecs = list(enumerate_admissible(tri, types))
            if tri is pants:
                assert len(vecs) == 8192
                vecs = rng.sample(vecs, 6 if name == "twisted-matrix-3-f3"
                                  else 32)
            for signs in vecs:
                amp = evaluate(tri, signs, types, A)
                matched = [k for k, form in candidates.items() if amp == form]
                assert matched, (name, types, signs)
                for k in matched:
                    hits[k] += 1
                taken.add(frozenset(matched))
                vectors += 1
            if (name, types) == ("clifford", (R_TYPE, R_TYPE)):
                assert candidates[(1, 1)] != candidates[(-1, 1)]
                assert hits == {(1, 1): 64, (-1, 1): 64}
            if name == "clifford" and types.count(R_TYPE) == 2:
                forms = list(candidates.values())
                assert len(taken) == 2 == sum(
                    form not in forms[:k] for k, form in enumerate(forms))
    assert vectors == 4 * (2 + 128 + 128) + 3 * (3 * 32 + 6)


@pytest.mark.parametrize("name", ALL_BUILTINS)
@pytest.mark.parametrize("g", (0, 1, 2, 3))
def test_closed_form_matches_every_spin_class(name, g):
    A = builtin_by_name(name)
    detail = genus_g_closed_detail(g)
    classes = classify_spin_structures(detail.tri)
    # about 0.1 s per class for the F3 matrix algebra at genus 3
    step = 16 if (name, g) == ("twisted-matrix-3-f3", 3) else 1
    for signs in classes[::step]:
        handles = tft.spin_class_handles(detail, signs)
        assert tft.closed_form(A, handles).scalar_value() == \
            evaluate_raw(detail.tri, signs, A).scalar_value()


@pytest.mark.parametrize("name", ("clifford", "twisted-matrix-2-q"))
@pytest.mark.parametrize("g", (4, 5))
def test_closed_form_matches_seeded_classes_at_higher_genus(name, g):
    A = builtin_by_name(name)
    detail = genus_g_closed_detail(g)
    classes = classify_spin_structures(detail.tri)
    for signs in random.Random(g).sample(classes, 3):
        handles = tft.spin_class_handles(detail, signs)
        assert tft.closed_form(A, handles).scalar_value() == \
            evaluate_raw(detail.tri, signs, A).scalar_value()


def test_glue_amplitude_rejects_bad_input(clifford):
    tri, signs, types = tft.cylinder_spin(NS, 1)
    amp = evaluate(tri, signs, types, clifford)
    with pytest.raises(ValueError):
        tft.glue_amplitude(amp, 1, 1, -1, clifford)
    with pytest.raises(ValueError):
        tft.glue_amplitude(amp, 1, 3, -1, clifford)
    mixed = evaluate(*tft.pants_spin((NS, R_TYPE, R_TYPE), 1, 1)[:2],
                     (NS, R_TYPE, R_TYPE), clifford)
    with pytest.raises(ValueError, match="equal type"):
        tft.glue_amplitude(mixed, 1, 2, -1, clifford)


def test_glue_amplitude_rejects_another_algebras_copairing(clifford, m3):
    tri, signs, types = tft.cylinder_spin(NS, 1)
    amp = evaluate(tri, signs, types, clifford)
    with pytest.raises(ValueError, match="leg mismatch"):
        tft.glue_amplitude(amp, 1, 2, -1, m3)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_precompose_is_composition_with_identities(name):
    D = derive(builtin_by_name(name))
    ident, pp = D.identity, tft.pi31(D)
    f = D.b.compose(ident.tensor(D.mu))  # three input legs
    for i, m, full in ((0, D.N, D.N.tensor(ident).tensor(ident)),
                       (1, D.Delta, ident.tensor(D.Delta)),
                       (0, D.c(-1), D.c(-1).tensor(ident)),
                       (2, pp, ident.tensor(ident).tensor(pp))):
        assert f.precompose(i, m) == f.compose(full)


def test_precompose_drops_cancelled_entries():
    one = QQ.one()
    f = GradedTensor(QQ, (), ((0, 0),), {(0,): one, (1,): one})
    m = GradedTensor.from_matrix(QQ, (0, 0), (0,), [[one], [-one]])
    assert f.precompose(0, m) == GradedTensor.zero(QQ, (), ((0,),))
    with pytest.raises(ValueError, match="leg mismatch"):
        f.precompose(1, m)


def _assert_glue_is_the_glued_state_sum(amp, tri, signs, i, j, A):
    """glue_amplitude of amp along boundaries i, j equals evaluate_raw on
    the glued triangulation, for both copairings; returns both gluings."""
    glued, gmap = glue_boundaries_with_map(tri, i, j)
    amps = [tft.glue_amplitude(amp, i, j, eps, A) for eps in (1, -1)]
    for eps, amp_eps in zip((1, -1), amps):
        assert amp_eps == \
            evaluate_raw(glued, glue_edge_signs(signs, gmap, eps), A)
    return amps


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_self_glued_walked_pants_is_the_glued_state_sum(name):
    """Each spin pants, walked 10 seeded Pachner moves, glued along two
    boundaries of equal type into a torus with one boundary.  Each gluing
    is also the closed form of one handle, (NS, +1) or (R, +1), on the
    remaining boundary (delta_rest, +1)."""
    A = builtin_by_name(name)
    seed = itertools.count()
    handles_seen = set()
    for deltas, i, j in (((NS, NS, NS), 1, 3), ((R_TYPE, R_TYPE, NS), 2, 1),
                         ((NS, R_TYPE, R_TYPE), 2, 3)):
        rest, = {1, 2, 3} - {i, j}
        forms = {h: tft.closed_form(A, [h], [(deltas[rest - 1], 1)])
                 for h in ((NS, 1), (R_TYPE, 1))}
        for eps1, eps2 in itertools.product((1, -1), repeat=2):
            tri, signs, types = tft.pants_spin(deltas, eps1, eps2)
            rng = random.Random(next(seed))
            bias = len(tri.triangles)
            for _ in range(10):
                tri, signs, _move = random_pachner_move(tri, signs, rng, bias)
            amp = evaluate(tri, signs, types, A)
            for glued in _assert_glue_is_the_glued_state_sum(amp, tri, signs,
                                                             i, j, A):
                handles = [h for h, form in forms.items() if form == glued]
                assert handles
                handles_seen.update(handles)
    if name == "clifford":
        assert handles_seen == {(NS, 1), (R_TYPE, 1)}


def _disjoint_union(a1, a2):
    """The amplitude of a disjoint union: the tensor product, with a2's
    boundaries numbered after a1's."""
    return Amplitude(a1.tensor.tensor(a2.tensor), a1.types + a2.types)


# the (eps1, eps2) of the pants NS,R,R and the glued boundaries (one on
# each pants, in either order) of its union with the pants R,NS,R, which
# has boundaries 4-6
_EQUAL_TYPE_PAIRS = ((1, 5), (4, 2), (2, 6), (4, 3), (3, 6))
_FOUR_HOLED_CASES = {
    "clifford": [(eps, i, j) for eps in itertools.product((1, -1), repeat=2)
                 for i, j in _EQUAL_TYPE_PAIRS],
    "group-z2": [((1, -1), 3, 4)],
    "twisted-matrix-2-q": [((-1, 1), 2, 6)],
}


@pytest.mark.parametrize("name", sorted(_FOUR_HOLED_CASES))
def test_glued_pants_pair_is_the_glued_state_sum(name):
    """Two spin pants glued along one boundary into a four-holed sphere.
    F3 is left out: its 18-leg union is too large for the suite."""
    A = builtin_by_name(name)
    t2, s2, ty2 = tft.pants_spin((R_TYPE, NS, R_TYPE), -1, 1)
    a2 = evaluate(t2, s2, ty2, A)
    for (eps1, eps2), i, j in _FOUR_HOLED_CASES[name]:
        t1, s1, ty1 = tft.pants_spin((NS, R_TYPE, R_TYPE), eps1, eps2)
        tri, eo, _, _ = disjoint_union(t1, t2)
        signs = {**s1, **{e + eo: s for e, s in s2.items()}}
        amp = _disjoint_union(evaluate(t1, s1, ty1, A), a2)
        _assert_glue_is_the_glued_state_sum(amp, tri, signs, i, j, A)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_composite_maps_split_the_identity(name):
    D = derive(builtin_by_name(name))
    assert tft.pi31(D).compose(tft.iota13(D)) == D.identity


def _assert_splits(F, P, iota, pi, parities):
    assert pi.compose(iota) == GradedTensor.identity(F, parities)
    assert iota.compose(pi) == P
    assert iota.out_legs == P.out_legs and pi.in_legs == P.in_legs
    assert iota.in_legs == pi.out_legs == (parities,)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_state_space_splits_projector(name):
    A = builtin_by_name(name)
    D = derive(A)
    for delta in (NS, R_TYPE):
        sp = tft.state_space(A, delta)
        P = D.q(1 if delta == NS else -1)
        _assert_splits(A.field, P, sp.iota, sp.pi, sp.parities)
    # the plus-part idempotent (id + N)/2 that A_+ is the image of
    plus = D.identity.add(D.N).scale(A.field.inv(A.field.of(2)))
    _assert_splits(A.field, plus,
                   *tft._split_idempotent(A.field, plus, D.leg))


@pytest.mark.parametrize("field,leg,rows,parities", [
    # I - v w^T with w.v = 1 on three even legs, rank 2
    (QQ, (0, 0, 0), [[0, -1, 1], [-1, 0, 1], [-1, -1, 2]], (0, 0)),
    # rank 1 on the even pair (legs 0, 2), image (1, 1), plus rank 1 on
    # the odd pair (legs 1, 3), image (1, 2)
    (PrimeField(3), (0, 1, 0, 1),
     [[2, 0, 2, 0], [0, 1, 0, 0], [2, 0, 2, 0], [0, 2, 0, 0]], (0, 1)),
])
def test_split_of_non_diagonal_idempotent(field, leg, rows, parities):
    P = GradedTensor.from_matrix(field, leg, leg,
                                 [[field.of(x) for x in r] for r in rows])
    assert P.compose(P) == P
    iota, pi, zleg = tft._split_idempotent(field, P, leg)
    assert zleg == parities
    _assert_splits(field, P, iota, pi, zleg)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_z_algebra_is_unital_associative(name):
    Z = tft.z_algebra(builtin_by_name(name))
    A = Z.A
    zleg = Z.mu.out_legs[0]
    idz = GradedTensor.identity(A.field, zleg)
    assert Z.mu.compose(Z.mu.tensor(idz)) == Z.mu.compose(idz.tensor(Z.mu))
    assert Z.mu.compose(Z.eta.tensor(idz)) == idz
    assert Z.mu.compose(idz.tensor(Z.eta)) == idz
    assert Z.dim == Z.ns.dim + Z.r.dim


def test_z_algebra_grading_multiplicative(clifford):
    """Products respect the two-sector decomposition: NS*NS and R*R land
    in NS, NS*R lands in R."""
    Z = tft.z_algebra(clifford)
    F = Z.A.field
    for (i, gi), (j, gj) in itertools.product(enumerate(Z.grading), repeat=2):
        for k, gk in enumerate(Z.grading):
            v = Z.mu.data.get((k, i, j))
            if v is not None and not F.is_zero(v):
                assert gk == gi * gj


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_z_structure_maps_match_block_composition(name):
    """Reference: every structure map of Z composed with the 0/1 block
    embeddings Z_nu -> Z and projections Z -> Z_nu."""
    A = builtin_by_name(name)
    D, F, Z = derive(A), A.field, tft.z_algebra(A)
    zleg = Z.mu.out_legs[0]
    to_z, from_z = {}, {}  # A -> Z_nu -> Z and Z -> Z_nu -> A
    for nu, sp, off in ((1, Z.ns, 0), (-1, Z.r, Z.ns.dim)):
        emb = [[F.one() if row == off + c else F.zero()
                for c in range(sp.dim)] for row in range(Z.dim)]
        to_z[nu] = GradedTensor.from_matrix(F, zleg, sp.parities,
                                            emb).compose(sp.pi)
        from_z[nu] = sp.iota.compose(GradedTensor.from_matrix(
            F, sp.parities, zleg, [list(r) for r in zip(*emb)]))
    mu = GradedTensor.zero(F, (zleg,), (zleg, zleg))
    delta = GradedTensor.zero(F, (zleg, zleg), (zleg,))
    for a, b in itertools.product((1, -1), repeat=2):
        mu = mu.add(to_z[a * b].compose(D.mu).compose(
            from_z[a].tensor(from_z[b])))
        delta = delta.add(to_z[a].tensor(to_z[b]).compose(D.Delta).compose(
            from_z[a * b]))
    n = to_z[1].compose(D.N).compose(from_z[1]).add(
        to_z[-1].compose(D.N).compose(from_z[-1]))
    assert Z.mu == mu
    assert Z.Delta == delta
    assert Z.N == n
    assert Z.eta == to_z[1].compose(D.eta)
    assert Z.eps == D.eps.compose(from_z[1])


def test_sphere_amplitude_is_two(clifford):
    tri = genus_g_closed(0)
    from spinsum.spin import classify_spin_structures
    signs = classify_spin_structures(tri)[0]
    assert evaluate_raw(tri, signs, clifford).scalar_value() == Fraction(2)


def _brute_sign_sum(tri, A):
    """(1/2)^E 2^V sum of T'_A over all 2^E sign assignments, one
    evaluate_raw per assignment: the oracle for small E."""
    F = A.field
    edge_ids = sorted(tri.edges)
    total = F.zero()
    for bits in itertools.product((1, -1), repeat=len(edge_ids)):
        amp = evaluate_raw(tri, dict(zip(edge_ids, bits)), A)
        total = F.add(total, amp.scalar_value())
    half = F.inv(F.add(F.one(), F.one()))
    for _ in edge_ids:
        total = F.mul(total, half)
    for _ in tri.vertices:
        total = F.add(total, total)
    return total


@pytest.mark.parametrize("name", ALL_BUILTINS)
@pytest.mark.parametrize("genus", (0, 1))
def test_sign_sum_matches_brute_force(name, genus):
    A = builtin_by_name(name)
    tri = genus_g_closed(genus)
    assert len(tri.edges) == (3, 9)[genus]
    assert tft.statistical_sign_sum(tri, A) == _brute_sign_sum(tri, A)


@pytest.mark.parametrize("name", ALL_BUILTINS)
@pytest.mark.parametrize("genus", (2, 3))
def test_sign_sum_equals_plus_part_at_higher_genus(name, genus):
    A = builtin_by_name(name)
    tri = genus_g_closed_detail(genus).tri
    assert tft.statistical_sign_sum(tri, A) == tft.plus_part_state_sum(tri, A)


def test_statistical_sum_rejects_open_or_char2(clifford):
    tri, _, _ = tft.cylinder_spin(NS, 1)
    with pytest.raises(ValueError, match="closed"):
        tft.statistical_sign_sum(tri, clifford)
    with pytest.raises(ValueError, match="closed"):
        tft.plus_part_state_sum(tri, clifford)


def test_sign_sums_reject_characteristic_two_on_every_call():
    """The characteristic check runs on every call, before the tensors
    kept on derive(A) are looked up, so a second call raises too."""
    A = builtin_twisted_matrix(1, PrimeField(2), [[1]], 1)
    torus, _ = tft.torus_spin(NS, 1)
    for _ in range(2):
        for sign_sum in (tft.statistical_sign_sum, tft.plus_part_state_sum):
            with pytest.raises(ValueError, match="characteristic"):
                sign_sum(torus, A)


def _counting(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends name to calls."""
    fn = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return fn(*args)
    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("sign_sum, tensors", (
    (tft.statistical_sign_sum, tft.symmetric_copairing),
    (tft.plus_part_state_sum, tft.plus_part)))
@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_sign_sum_tensors_are_built_once_per_algebra(monkeypatch, name,
                                                     sign_sum, tensors):
    """A second call on the same algebra splits no idempotent, inverts no
    pairing and builds no fused table; after derive.cache_clear() the next
    call builds new, equal tensors and returns the same value."""
    A = builtin_by_name(name)
    torus, _ = tft.torus_spin(NS, 1)
    want = sign_sum(torus, A)
    first = derive(A).cached(tensors)
    calls = []
    _counting(monkeypatch, tft, "_split_idempotent", calls)
    _counting(monkeypatch, tft, "copairing", calls)
    _counting(monkeypatch, algebra, "copairing", calls)
    built = engine._fused_table.cache_info().misses
    assert sign_sum(torus, A) == want
    assert calls == []
    assert engine._fused_table.cache_info().misses == built
    assert derive(A).cached(tensors) is first
    derive.cache_clear()
    assert sign_sum(torus, A) == want
    assert calls
    again = derive(A).cached(tensors)
    assert again is not first and again == first


def test_warm_sign_sums_of_the_builtins_in_turn_match_brute_force():
    """With every algebra's tensors already kept, the four built-ins taking
    turns still give the brute-force sign sum at genus 0 and 1."""
    algebras = [builtin_by_name(name) for name in ALL_BUILTINS]
    tris = [genus_g_closed(g) for g in (0, 1)]
    want = {(g, A.name): _brute_sign_sum(tri, A)
            for g, tri in enumerate(tris) for A in algebras}
    for A in algebras:
        tft.statistical_sign_sum(tris[0], A)
    for turn in range(2):
        for g, tri in enumerate(tris):
            for A in algebras[turn:] + algebras[:turn]:
                assert tft.statistical_sign_sum(tri, A) == want[g, A.name]


def test_pants_closed_form_rejects_odd_type_product(clifford):
    with pytest.raises(ValueError, match="\\+1"):
        tft.pants_closed_form(clifford, (NS, NS, R_TYPE), 1, 1)
    with pytest.raises(ValueError, match="\\+1"):
        tft.closed_form(clifford, (), [(R_TYPE, 1)])
    with pytest.raises(ValueError, match="\\+1"):
        tft.closed_form(clifford, [(NS, 1)], [(NS, 1), (R_TYPE, 1)])
    assert list(enumerate_admissible(build_disk(), (R_TYPE,))) == []
    with pytest.raises(ValueError, match="\\+1"):
        tft.pants_spin((NS, NS, R_TYPE), 1, 1)
