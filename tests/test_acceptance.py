"""End-to-end acceptance checks: exact values, exhaustive sweeps, budgets."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from spinsum.algebra import builtin_by_name, derive, validate_predicates
from spinsum.eval import (build_graph, contract_exhaustive, evaluate,
                          evaluate_raw, is_valid_schedule)
from spinsum.pachner import random_pachner_move, run_pachner_fuzz
from spinsum.spin import (NS, R_TYPE, arf_invariant, classify_spin_structures,
                          classify_spin_structures as classify,
                          enumerate_admissible, is_admissible, nu_of,
                          symplectic_basis)
from spinsum.surface import (build_pair_of_pants, genus_g_closed,
                             genus_g_closed_detail)
from spinsum.tensor import GradedTensor
from spinsum import tft

from test_eval import contract_out_with

ALL_BUILTINS = ("clifford", "group-z2", "twisted-matrix-3-f3",
                "twisted-matrix-2-q")
EPS = (1, -1)
PANTS_GAUGE_EDGES = (4, 5, 6, 7, 8, 9, 10, 11, 13, 16, 18)


# -- 1. torus table ------------------------------------------------------
def test_torus_table_clifford(clifford):
    t0 = time.monotonic()
    got = {}
    for delta in (NS, R_TYPE):
        for eps in EPS:
            tri, signs = tft.torus_spin(delta, eps)
            got[(delta, eps)] = evaluate_raw(tri, signs,
                                             clifford).scalar_value()
    one = Fraction(1)
    assert got == {(NS, 1): one, (NS, -1): one,
                   (R_TYPE, -1): one, (R_TYPE, 1): -one}
    assert time.monotonic() - t0 < 5


# -- 2. Arf scaling on closed genus-g surfaces ---------------------------
def test_arf_scaling_genus_0_to_3(clifford):
    t0 = time.monotonic()
    for g in (0, 1, 2, 3):
        detail = genus_g_closed_detail(g)
        basis = symplectic_basis(detail)
        values = []
        for signs in classify_spin_structures(detail.tri):
            amp = evaluate_raw(detail.tri, signs, clifford).scalar_value()
            arf = arf_invariant(detail, signs, basis)
            assert amp == Fraction(2) ** (1 - g) * arf
            values.append(amp)
        if g == 2:
            assert sorted(values).count(Fraction(1, 2)) == 10
            assert sorted(values).count(Fraction(-1, 2)) == 6
            assert len(values) == 16
        if g == 3:
            assert values.count(Fraction(1, 4)) == 36
            assert values.count(Fraction(-1, 4)) == 28
            assert len(values) == 64
    assert time.monotonic() - t0 < 120


# -- 3. cylinder closed form ---------------------------------------------
@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_cylinder_closed_form(name):
    A = builtin_by_name(name)
    for delta in (NS, R_TYPE):
        for eps in EPS:
            tri, signs, types = tft.cylinder_spin(delta, eps)
            amp = evaluate(tri, signs, types, A)
            assert amp == tft.cylinder_closed_form(A, delta, eps)


# -- 4. pair of pants ----------------------------------------------------
def test_pants_admissibility_iff_type_product():
    tri = build_pair_of_pants()
    for deltas in itertools.product((NS, R_TYPE), repeat=3):
        sols = list(enumerate_admissible(tri, deltas))
        product = nu_of(deltas[0]) * nu_of(deltas[1]) * nu_of(deltas[2])
        assert (len(sols) == 0) == (product == -1)


def test_pants_gauge_fixed_solutions_count_four():
    tri = build_pair_of_pants()
    for deltas in itertools.product((NS, R_TYPE), repeat=3):
        if nu_of(deltas[0]) * nu_of(deltas[1]) * nu_of(deltas[2]) == -1:
            continue
        sols = [s for s in enumerate_admissible(tri, deltas)
                if all(s[e] == 1 for e in PANTS_GAUGE_EDGES)]
        assert len(sols) == 4


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_pants_closed_form(name):
    A = builtin_by_name(name)
    for deltas in itertools.product((NS, R_TYPE), repeat=3):
        if nu_of(deltas[0]) * nu_of(deltas[1]) * nu_of(deltas[2]) == -1:
            continue
        for e1, e2 in itertools.product(EPS, repeat=2):
            tri, signs, types = tft.pants_spin(deltas, e1, e2)
            amp = evaluate(tri, signs, types, A)
            assert amp == tft.pants_closed_form(A, deltas, e1, e2)


# -- 5. Pachner fuzz -----------------------------------------------------
@pytest.mark.parametrize("name", ("clifford", "twisted-matrix-3-f3"))
@pytest.mark.parametrize("surface", ("cylinder", "pants"))
def test_pachner_fuzz_invariance(name, surface):
    A = builtin_by_name(name)
    if surface == "cylinder":
        tri, signs, types = tft.cylinder_spin(NS, 1)
    else:
        tri, signs, types = tft.pants_spin((NS, NS, NS), 1, 1)
    for seed in (1, 2, 3, 4, 5):
        t0 = time.monotonic()
        ok, log, checks = run_pachner_fuzz(tri, signs, types, A, seed, 200)
        assert ok, f"seed {seed} failed; move log: {log}"
        assert time.monotonic() - t0 < 60


# -- 6. vanishing forced by the convolution identity N * id = 0 ----------
def test_projected_cylinder_amplitude_zero_iff_inadmissible(clifford):
    """The boundary-projected amplitude vanishes exactly off the
    admissible set: for every total sign assignment on the cylinder and
    every boundary-type pair, composing each boundary with the cylinder
    projector (through the triple coproduct) yields the zero tensor iff
    the signs are not admissible for that type pair."""
    D = derive(clifford)
    block = {delta: tft.iota13(D).compose(
        D.q_plus if delta == NS else D.q_minus) for delta in (NS, R_TYPE)}
    tri, _, _ = tft.cylinder_spin(NS, 1)
    edge_ids = sorted(tri.edges)
    for bits in itertools.product((1, -1), repeat=len(edge_ids)):
        signs = dict(zip(edge_ids, bits))
        amp = evaluate_raw(tri, signs, clifford)
        for d1, d2 in itertools.product((NS, R_TYPE), repeat=2):
            projected = amp.tensor.compose(block[d1].tensor(block[d2]))
            admissible = is_admissible(tri, signs, (d1, d2))
            assert projected.is_zero() == (not admissible)


def test_closed_torus_raw_amplitude_zero_iff_inadmissible(clifford):
    tri, _ = tft.torus_spin(NS, 1)
    edge_ids = sorted(tri.edges)
    n_admissible = 0
    for bits in itertools.product((1, -1), repeat=len(edge_ids)):
        signs = dict(zip(edge_ids, bits))
        value = evaluate_raw(tri, signs, clifford).scalar_value()
        admissible = is_admissible(tri, signs, ())
        assert (value == 0) == (not admissible)
        n_admissible += admissible
    assert n_admissible == 128


@pytest.mark.parametrize("g", (2, 3))
def test_closed_raw_amplitude_vanishing_needs_nakayama_times_id_zero(g):
    """Off the admissible set the raw amplitude of Clifford, which has
    N * id = 0, vanishes; that of group-z2, which has not, does not."""
    clifford, z2 = builtin_by_name("clifford"), builtin_by_name("group-z2")
    assert validate_predicates(clifford)["nakayama_times_id_zero"]
    assert not validate_predicates(z2)["nakayama_times_id_zero"]
    tri = genus_g_closed(g)
    edge_ids = sorted(tri.edges)
    rng = random.Random(g)
    checked = 0
    while checked < 100:
        signs = {eid: rng.choice((1, -1)) for eid in edge_ids}
        if is_admissible(tri, signs, ()):
            continue
        assert evaluate_raw(tri, signs, clifford).tensor.is_zero()
        assert not evaluate_raw(tri, signs, z2).tensor.is_zero()
        checked += 1


# -- 7. classification counts --------------------------------------------
@pytest.mark.parametrize("g,count", [(0, 1), (1, 4), (2, 16)])
def test_classification_counts_and_move_invariance(g, count):
    tri = genus_g_closed(g)
    classes = classify(tri)
    assert len(classes) == count
    rng = random.Random(7)
    cur, signs = tri, classes[0]
    for _ in range(50):
        cur, signs, _move = random_pachner_move(cur, signs, rng,
                                                len(tri.triangles))
    assert len(classify(cur)) == count


# -- 8. projector algebra ------------------------------------------------
@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_projectors_idempotent_and_absorb_nakayama(name):
    A = builtin_by_name(name)
    D = derive(A)
    P_NS, P_R = D.q_plus, D.q_minus
    assert P_NS.compose(P_NS) == P_NS
    assert P_R.compose(P_R) == P_R
    assert P_NS.compose(D.N) == P_NS


@pytest.mark.parametrize("name", ("clifford", "twisted-matrix-3-f3"))
def test_projectors_orthogonal_and_state_space_dims(name):
    A = builtin_by_name(name)
    D = derive(A)
    P_NS, P_R = D.q_plus, D.q_minus
    zero = GradedTensor.zero(A.field, P_NS.out_legs, P_NS.in_legs)
    assert P_NS.compose(P_R) == zero
    assert P_R.compose(P_NS) == zero
    assert tft.state_space(A, NS).dim == 1
    assert tft.state_space(A, R_TYPE).dim == 1


def test_matrix_algebra_ns_state_space_is_span_of_unit():
    A = builtin_by_name("twisted-matrix-2-q")
    ns = tft.state_space(A, NS)
    assert ns.dim == 1
    column = [ns.iota.data.get((row, 0), A.field.zero())
              for row in range(A.dim)]
    # basis order e11, e12, e21, e22; the image is spanned by e11 + e22
    assert column == [Fraction(1), Fraction(0), Fraction(0), Fraction(1)]


# -- 9. equal Euler characters of the two state spaces -------------------
@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_euler_characters_agree(name):
    Z = tft.z_algebra(builtin_by_name(name))
    assert Z.chi_ns == Z.chi_r


# -- 10. engine vs. exhaustive oracle ------------------------------------
def _random_schedule(graph, rng):
    pend = {fid: {s.edge for s in f.slots}
            for fid, f in graph.tri.triangles.items()}
    edges = sorted(graph.wires)
    rng.shuffle(edges)
    absorbed, plan = set(), []
    while edges or pend:
        ready = [f for f, need in pend.items() if need <= absorbed]
        if ready and (not edges or rng.random() < 0.5):
            fid = rng.choice(ready)
            plan.append(("t", fid))
            del pend[fid]
        else:
            eid = edges.pop()
            plan.append(("c", eid))
            absorbed.add(eid)
    return plan


@pytest.mark.parametrize("name", ("clifford", "group-z2"))
def test_engine_matches_exhaustive_oracle(name):
    A = builtin_by_name(name)
    rng = random.Random(42)
    cases = [tft.cylinder_spin(NS, 1)[:2],
             tft.pants_spin((R_TYPE, NS, R_TYPE), -1, 1)[:2],
             tft.torus_spin(R_TYPE, -1)]
    for tri, signs in cases:
        graph = build_graph(tri, signs)
        oracle = contract_exhaustive(graph, A)
        assert evaluate_raw(tri, signs, A) == oracle
        for _ in range(3):
            plan = _random_schedule(graph, rng)
            assert is_valid_schedule(graph, plan)
            assert evaluate_raw(tri, signs, A, plan=plan,
                                max_open_legs=40,
                                max_entries=10_000_000) == oracle


# -- 11. statistical sign scan -------------------------------------------
def test_statistical_sign_sum_matches_oriented_value(clifford):
    t0 = time.monotonic()
    tri, _ = tft.torus_spin(NS, 1)
    total = tft.statistical_sign_sum(tri, clifford)
    oriented = tft.plus_part_state_sum(tri, clifford)
    assert total == oriented == Fraction(1)
    assert time.monotonic() - t0 < 30


# -- 12. local-move relations as tensor identities -----------------------
def _eval_diagram(D, cs, t_wiring, out_wiring):
    """Contract copairings c_{cs[i]} and triangle tensors into one map.

    t_wiring: per-triangle list of 3 labels (ci, side) in slot order;
    out_wiring: labels in output order.  Triangles are contracted as soon
    as their inputs exist, keeping intermediates small.
    """
    F = D.mu.field
    blob = GradedTensor.scalar(F, F.one())
    open_labels, done = [], set()
    for ci, s in enumerate(cs):
        blob = blob.tensor(D.c(s))
        open_labels += [(ci, 0), (ci, 1)]
        progress = True
        while progress:
            progress = False
            for tj, legs in enumerate(t_wiring):
                if tj in done or not all(l in open_labels for l in legs):
                    continue
                pos = [open_labels.index(l) for l in legs]
                rest = [p for p in range(len(open_labels)) if p not in pos]
                blob = contract_out_with(blob.permute_out(rest + pos), D.t)
                open_labels = [open_labels[p] for p in rest]
                done.add(tj)
                progress = True
    return blob.permute_out([open_labels.index(l) for l in out_wiring])


def _decorated_triangle(D, s0, s1, s2):
    return _eval_diagram(D, [s0, s1, s2], [[(0, 0), (1, 0), (2, 0)]],
                         [(0, 1), (1, 1), (2, 1)])


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_local_move_relations(name):
    D = derive(builtin_by_name(name))
    # 1: edge orientation change
    assert D.c_plus == D.sigma.compose(D.c_minus)
    # 2: leaf exchange (global sign inversion on one triangle)
    for a, b, g in itertools.product(EPS, repeat=3):
        assert (_decorated_triangle(D, a, b, g)
                == _decorated_triangle(D, -a, -b, -g))
    # 3: cyclic permutation of the boundary edges of one triangle
    for a, b, g in itertools.product(EPS, repeat=3):
        rotated = _eval_diagram(D, [-a, b, g],
                                [[(1, 0), (2, 0), (0, 0)]],
                                [(0, 1), (1, 1), (2, 1)])
        assert _decorated_triangle(D, a, b, g) == rotated
    # 4: diagonal flip (2-2)
    out4 = [(0, 1), (1, 1), (3, 1), (4, 1)]
    for sA, sB, s, sC, sD in itertools.product(EPS, repeat=5):
        lhs = _eval_diagram(
            D, [sA, sB, s, sC, sD],
            [[(2, 0), (0, 0), (1, 0)], [(2, 1), (3, 0), (4, 0)]], out4)
        rhs = _eval_diagram(
            D, [sA, -s * sB, s, -sC, -s * sD],
            [[(2, 0), (1, 0), (3, 0)], [(2, 1), (4, 0), (0, 0)]], out4)
        assert lhs == rhs
    # 5: star collapse (3-1), defined when s12 s23 s31 = -1
    for sA, sB, sC, s12, s23, s31 in itertools.product(EPS, repeat=6):
        if s12 * s23 * s31 != -1:
            continue
        lhs = _eval_diagram(D, [sA, s12, sB, s31, sC, s23],
                            [[(0, 0), (1, 0), (3, 1)],
                             [(2, 0), (5, 0), (1, 1)],
                             [(4, 0), (3, 0), (5, 1)]],
                            [(0, 1), (2, 1), (4, 1)])
        assert lhs == _decorated_triangle(D, sA, s12 * sB, -s31 * sC)
