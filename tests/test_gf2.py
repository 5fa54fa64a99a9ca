import itertools
import random

from spinsum import gf2


def _contains(space, x):
    """Membership in an affine solution space, by reduction against its
    basis."""
    return gf2.reduce_against(space.basis, x ^ space.particular) == 0


def test_solve_affine_consistent():
    # x0 + x1 = 1, x1 + x2 = 0 over F2^3
    space = gf2.solve_affine(3, [(0b011, 1), (0b110, 0)])
    assert space is not None
    assert space.dim == 1
    sols = set(space)
    assert len(sols) == 2
    for x in sols:
        assert gf2.parity(x & 0b011) == 1
        assert gf2.parity(x & 0b110) == 0
        assert _contains(space, x)
    assert not _contains(space, next(iter(sols)) ^ 0b001)


def test_solve_affine_inconsistent():
    assert gf2.solve_affine(2, [(0b11, 0), (0b11, 1)]) is None


def test_solve_affine_brute_force_agreement():
    rows = [(0b10110, 1), (0b01011, 0), (0b11101, 1)]
    space = gf2.solve_affine(5, rows)
    brute = {x for x in range(32)
             if all(gf2.parity(x & m) == r for m, r in rows)}
    assert set(space) == brute


def test_echelon_basis_and_rank():
    vecs = [0b110, 0b011, 0b101]  # rank 2: third = first xor second
    basis = gf2.echelon_basis(vecs)
    assert len(basis) == 2
    assert gf2.reduce_against(basis, 0b101) == 0


def test_coset_representatives_partition():
    space = gf2.solve_affine(4, [(0b1111, 0)])  # 8 solutions
    sub = [0b0011]
    reps = gf2.coset_representatives(space, sub)
    assert len(reps) == 4
    # no two representatives differ by a subspace element
    for a, b in itertools.combinations(reps, 2):
        assert gf2.reduce_against(sub, a ^ b) != 0
    # every solution is reachable from some representative
    covered = {r ^ m for r in reps for m in (0, 0b0011)}
    assert covered == set(space)


def _old_solve_affine(n, rows):
    """solve_affine as it was: pivot dict, then back-substitution; returns
    (particular, basis), or None if inconsistent."""
    pivots = {}
    for mask, rhs in rows:
        mask &= (1 << n) - 1
        rhs &= 1
        while mask:
            p = mask.bit_length() - 1
            if p in pivots:
                pm, pr = pivots[p]
                mask ^= pm
                rhs ^= pr
            else:
                pivots[p] = (mask, rhs)
                break
        else:
            if rhs:
                return None
    cols = sorted(pivots, reverse=True)
    for p in cols:
        pm, pr = pivots[p]
        for q in cols:
            if q > p and (pivots[q][0] >> p) & 1:
                qm, qr = pivots[q]
                pivots[q] = (qm ^ pm, qr ^ pr)
    particular = 0
    for p, (_, pr) in pivots.items():
        if pr:
            particular |= 1 << p
    basis = []
    for f in (i for i in range(n) if i not in pivots):
        v = 1 << f
        for p, (pm, _) in pivots.items():
            if (pm >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return particular, basis


def _old_reduce(basis, v):
    changed = True
    while changed:
        changed = False
        for b in basis:
            if v and (v >> (b.bit_length() - 1)) & 1:
                v ^= b
                changed = True
    return v


def _old_echelon_basis(vectors):
    """echelon_basis as it was, with its final reduction pass."""
    basis = []
    for v in vectors:
        v = _old_reduce(basis, v)
        if v:
            basis.append(v)
            basis.sort(key=int.bit_length, reverse=True)
    out = []
    for v in sorted(basis, key=int.bit_length, reverse=True):
        for w in out:
            if (v >> (w.bit_length() - 1)) & 1:
                v ^= w
        out.append(v)
    return sorted(out, key=int.bit_length, reverse=True)


def _old_coset_representatives(space, subspace_gens):
    """coset_representatives as it was, re-echeloning for each vector."""
    acc = _old_echelon_basis(subspace_gens)
    comp = []
    for b in space.basis:
        v = b
        for w in acc:
            if v and (v >> (w.bit_length() - 1)) & 1:
                v ^= w
        if v:
            comp.append(v)
            acc = _old_echelon_basis(acc + [v])
    reps = []
    for k in range(1 << len(comp)):
        x = space.particular
        for i, c in enumerate(comp):
            if (k >> i) & 1:
                x ^= c
        reps.append(x)
    return reps


def test_parity_matches_bit_string_count():
    rng = random.Random(3)
    for _ in range(500):
        x = rng.getrandbits(rng.randrange(1, 200))
        assert gf2.parity(x) == bin(x).count("1") & 1


def test_echelon_and_cosets_match_previous_implementation():
    rng = random.Random(20)
    for _ in range(400):
        n = rng.randrange(1, 16)
        vecs = [rng.getrandbits(n) for _ in range(rng.randrange(0, 10))]
        basis = gf2.echelon_basis(vecs)
        assert basis == _old_echelon_basis(vecs)
        assert len({b.bit_length() for b in basis}) == len(basis)
        rows = [(rng.getrandbits(n), rng.getrandbits(1))
                for _ in range(rng.randrange(0, n))]
        space = gf2.solve_affine(n, rows)
        if space is None:
            continue
        # random generators, some inside the solution directions
        gens = [rng.getrandbits(n) for _ in range(rng.randrange(0, 5))]
        gens += [rng.choice(space.basis) for _ in range(2) if space.basis]
        assert (gf2.coset_representatives(space, gens)
                == _old_coset_representatives(space, gens))


def test_solve_affine_matches_previous_implementation_exactly():
    """The particular solution and the basis, not just the solution set:
    the basis order fixes the spin class representatives and their order.
    Masks and right-hand sides carry stray high bits, which are ignored."""
    rng = random.Random(27)
    consistent = 0
    for _ in range(1500):
        n = rng.randrange(1, 40)
        rows = [(rng.getrandbits(n + rng.randrange(0, 3)), rng.getrandbits(2))
                for _ in range(rng.randrange(0, n + 5))]
        space = gf2.solve_affine(n, rows)
        old = _old_solve_affine(n, rows)
        if space is None:
            assert old is None, rows
            continue
        consistent += 1
        assert (space.particular, space.basis) == old, rows
    assert consistent > 1000
