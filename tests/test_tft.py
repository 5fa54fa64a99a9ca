import itertools
from fractions import Fraction

import pytest

from spinsum.algebra import builtin_by_name, derive
from spinsum.eval import evaluate, evaluate_raw
from spinsum.spin import NS, R_TYPE
from spinsum.surface import genus_g_closed, genus_g_closed_detail
from spinsum.tensor import GradedTensor
from spinsum import tft

ALL_BUILTINS = ("clifford", "group-z2", "twisted-matrix-3-f3",
                "twisted-matrix-2-q")


@pytest.mark.parametrize("name", ("clifford", "twisted-matrix-3-f3"))
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
            assert glued.scalar_value() == tft.torus_closed_form(A, delta, eps)


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


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_composite_maps_split_the_identity(name):
    D = derive(builtin_by_name(name))
    assert tft.pi31(D).compose(tft.iota13(D)) == D.identity


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_state_space_splits_projector(name):
    A = builtin_by_name(name)
    for delta in (NS, R_TYPE):
        sp = tft.state_space(A, delta)
        P = derive(A).q(1 if delta == NS else -1)
        assert sp.pi.compose(sp.iota) == GradedTensor.identity(A.field,
                                                              sp.parities)
        assert sp.iota.compose(sp.pi) == P


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


def test_pants_closed_form_rejects_odd_type_product(clifford):
    with pytest.raises(ValueError, match="\\+1"):
        tft.pants_closed_form(clifford, (NS, NS, R_TYPE), 1, 1)
    with pytest.raises(ValueError, match="\\+1"):
        tft.pants_spin((NS, NS, R_TYPE), 1, 1)
