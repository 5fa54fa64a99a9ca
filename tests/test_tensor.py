import itertools
import random
from fractions import Fraction

import pytest

from spinsum.algebra import builtin_by_name, derive
from spinsum.fields import QQ, PrimeField
from spinsum.tensor import GradedTensor, inversion_pairs

EVEN_ODD = (0, 1)  # one even, one odd basis vector


def _rand_tensor(rng, n_out, n_in, leg=EVEN_ODD):
    t = GradedTensor(QQ, (leg,) * n_out, (leg,) * n_in, {})
    for key in _keys(len(leg), n_out + n_in):
        if rng.random() < 0.6:
            t.data[key] = Fraction(rng.randint(-5, 5))
    t.data = {k: v for k, v in t.data.items() if v}
    return t


def _keys(dim, n):
    if n == 0:
        yield ()
        return
    for k in _keys(dim, n - 1):
        for i in range(dim):
            yield k + (i,)


def test_braiding_is_involutive_up_to_swap():
    s = GradedTensor.braiding(QQ, EVEN_ODD, EVEN_ODD)
    assert s.compose(s) == GradedTensor.identity(QQ, EVEN_ODD, 2)


def test_braiding_koszul_sign():
    s = GradedTensor.braiding(QQ, EVEN_ODD, EVEN_ODD)
    assert s.data[(1, 1, 1, 1)] == Fraction(-1)  # odd x odd
    assert s.data[(0, 1, 1, 0)] == Fraction(1)   # odd x even


def test_permute_out_equals_braiding():
    import random
    rng = random.Random(0)
    t = _rand_tensor(rng, 2, 1)
    s = GradedTensor.braiding(QQ, EVEN_ODD, EVEN_ODD)
    ident = GradedTensor.identity(QQ, EVEN_ODD)
    assert t.permute_out([1, 0]) == s.compose(t)
    u = _rand_tensor(rng, 3, 0)
    assert u.permute_out([1, 0, 2]) == s.tensor(ident).compose(u)
    assert u.permute_out([0, 2, 1]) == ident.tensor(s).compose(u)


def test_permutation_coherence():
    import random
    rng = random.Random(1)
    t = _rand_tensor(rng, 4, 0)
    p, q = [2, 0, 3, 1], [1, 3, 0, 2]
    assert (t.permute_out(p).permute_out(q)
            == t.permute_out([p[q[i]] for i in range(4)]))
    inv = sorted(range(4), key=lambda i: p[i])
    assert t.permute_out(p).permute_out(inv) == t


def test_permute_in_matches_permute_out_through_transpose():
    import random
    rng = random.Random(2)
    t = _rand_tensor(rng, 1, 3)
    p = [2, 0, 1]
    direct = t.permute_in(p)
    for key, v in direct.data.items():
        assert v != 0
    # round trip
    inv = sorted(range(3), key=lambda i: p[i])
    assert direct.permute_in(inv) == t


def test_interchange_of_tensor_and_compose():
    import random
    rng = random.Random(3)
    f = _rand_tensor(rng, 1, 1)
    g = _rand_tensor(rng, 1, 1)
    h = _rand_tensor(rng, 1, 1)
    k = _rand_tensor(rng, 1, 1)
    assert (f.compose(g)).tensor(h.compose(k)) == \
        f.tensor(h).compose(g.tensor(k))


def test_scalar_and_zero():
    s = GradedTensor.scalar(QQ, Fraction(3))
    assert s.scalar_value() == 3
    z = GradedTensor.zero(QQ, (EVEN_ODD,), ())
    assert z.is_zero()


def test_flip_out_to_in_relabels_with_koszul_sign():
    """Each entry keeps its key on input legs; k odd indices give the
    sign (-1)^(k(k-1)/2), one factor per pair of odd legs."""
    t = GradedTensor(QQ, (EVEN_ODD,) * 4, (), {})
    for n, key in enumerate(_keys(2, 4), start=1):
        t.data[key] = Fraction(n)
    flipped = t.flip_out_to_in()
    assert flipped.out_legs == () and flipped.in_legs == (EVEN_ODD,) * 4
    assert set(flipped.data) == set(t.data)
    sign_of_k = {0: 1, 1: 1, 2: -1, 3: -1, 4: 1}
    for key, v in t.data.items():
        assert flipped.data[key] == sign_of_k[sum(key)] * v


def test_flip_out_to_in_rejects_input_legs():
    t = GradedTensor.identity(QQ, EVEN_ODD, 1)
    with pytest.raises(ValueError, match="without in legs"):
        t.flip_out_to_in()


def test_compose_leg_mismatch_raises():
    t = GradedTensor.identity(QQ, EVEN_ODD, 1)
    other = GradedTensor.identity(QQ, (0, 0, 1), 1)
    with pytest.raises(ValueError, match="leg mismatch in compose"):
        t.compose(other)


def test_compose_needs_every_input_leg():
    # mu's first input leg matches eta's output leg, but compose needs both
    D = derive(builtin_by_name("clifford"))
    with pytest.raises(ValueError, match="leg mismatch in compose"):
        D.mu.compose(D.eta)
    assert D.mu.precompose(0, D.eta) == D.identity


def test_precompose_rejects_bad_offsets():
    t = GradedTensor.identity(QQ, EVEN_ODD, 2)
    scalar = GradedTensor.scalar(QQ, QQ.one())
    for i in (-1, 3):
        with pytest.raises(ValueError, match="leg mismatch in precompose"):
            t.precompose(i, scalar)
    with pytest.raises(ValueError, match="leg mismatch in precompose"):
        t.precompose(2, GradedTensor.identity(QQ, EVEN_ODD))


# -- precompose against a brute-force sum over the contracted indices --
PRECOMPOSE_SHAPES = [(0, 1), (0, 3), (1, 2), (2, 3)]  # (n_out, n_in) of f
INNER_SHAPES = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (2, 0),
                (3, 1)]  # (n_out, n_in) of m


def _sparse_tensor(rng, out_legs, in_legs, field):
    """Random tensor with about 40 % of all keys set to +-1 or +-2."""
    legs = list(out_legs) + list(in_legs)
    data = {}
    for key in itertools.product(*(range(len(leg)) for leg in legs)):
        if rng.random() < 0.4:
            data[key] = field.of(rng.choice((-2, -1, 1, 2)))
    return GradedTensor(field, tuple(out_legs), tuple(in_legs), data)


def _reference_precompose(f, i, m):
    """Every key of f o (id^(x)i (x) m (x) id^(x)...), its value summed
    over all indices on the contracted legs; zero sums are left out."""
    F, k = f.field, m.n_out
    ranges = [range(len(leg)) for leg in m.out_legs]
    data, cancelled = {}, False
    out_legs = f.out_legs + f.in_legs[:i] + m.in_legs + f.in_legs[i + k:]
    for key in itertools.product(*(range(len(leg)) for leg in out_legs)):
        head = key[:f.n_out + i]
        inner = key[f.n_out + i:f.n_out + i + m.n_in]
        tail = key[f.n_out + i + m.n_in:]
        total, terms = F.zero(), 0
        for x in itertools.product(*ranges):
            v, w = f.data.get(head + x + tail), m.data.get(x + inner)
            if v is not None and w is not None:
                total, terms = F.add(total, F.mul(v, w)), terms + 1
        if not F.is_zero(total):
            data[key] = total
        cancelled |= terms > 0 and F.is_zero(total)
    return data, cancelled


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "F5"])
@pytest.mark.parametrize("kind", ["even", "graded"])
def test_precompose_matches_per_entry_reference(field, kind):
    rng = random.Random(f"precompose-{field.characteristic}-{kind}")
    any_cancelled = False
    for n_out, n_in in PRECOMPOSE_SHAPES:
        legs = LEG_KINDS[kind](n_out + n_in)
        f = _sparse_tensor(rng, legs[:n_out], legs[n_out:], field)
        before = dict(f.data)
        for k, m_in in INNER_SHAPES:
            for i in range(n_in - k + 1):
                m = _sparse_tensor(rng, f.in_legs[i:i + k],
                                   LEG_KINDS[kind](m_in), field)
                got = f.precompose(i, m)
                want, cancelled = _reference_precompose(f, i, m)
                assert got.out_legs == f.out_legs
                assert got.in_legs == (f.in_legs[:i] + m.in_legs
                                       + f.in_legs[i + k:])
                assert got.data == want
                any_cancelled |= cancelled
        assert f.data == before  # the input is never edited
    assert any_cancelled  # the zero drop was exercised


# -- permute and relabel against a per-entry reference -----------------
LEG_KINDS = {
    "even": lambda n: [(0, 0, 0)] * n,
    "graded": lambda n: [EVEN_ODD] * n,
    "mixed": lambda n: [((0, 1), (0, 0, 0), (1, 0, 1), (1, 1))[q % 4]
                        for q in range(n)],
}
SHAPES = [(0, 0), (1, 0), (0, 1), (4, 0), (0, 3), (3, 2), (1, 3), (2, 1)]


def _dense_tensor(rng, out_legs, in_legs, field=QQ):
    """Random tensor with about 70 % of all keys nonzero."""
    legs = list(out_legs) + list(in_legs)
    data = {}
    for key in itertools.product(*(range(len(leg)) for leg in legs)):
        if rng.random() < 0.7:
            data[key] = field.of(rng.choice((-2, -1, 1, 2, 5)))
    return GradedTensor(field, tuple(out_legs), tuple(in_legs), data)


def _reference_permute(t, new_order, start, legs):
    """Per entry: move the indices, sign from the inverted odd pairs."""
    end = start + len(legs)
    pairs = inversion_pairs(new_order)
    data = {}
    for key, v in t.data.items():
        idx = key[start:end]
        s = sum(legs[a][idx[a]] * legs[b][idx[b]] for a, b in pairs)
        new_key = key[:start] + tuple(idx[p] for p in new_order) + key[end:]
        data[new_key] = t.field.neg(v) if s % 2 else v
    return data


@pytest.mark.parametrize("kind", sorted(LEG_KINDS))
@pytest.mark.parametrize("n_out,n_in", SHAPES)
def test_permute_matches_per_entry_reference(kind, n_out, n_in):
    rng = random.Random(f"{kind}-{n_out}-{n_in}")
    legs = LEG_KINDS[kind](n_out + n_in)
    rng.shuffle(legs)
    t = _dense_tensor(rng, legs[:n_out], legs[n_out:])
    before = dict(t.data)
    for side in ("out", "in"):
        group = t.out_legs if side == "out" else t.in_legs
        start = 0 if side == "out" else n_out
        for order in itertools.permutations(range(len(group))):
            got = getattr(t, f"permute_{side}")(list(order))
            moved = tuple(group[p] for p in order)
            assert got.out_legs == (moved if side == "out" else t.out_legs)
            assert got.in_legs == (moved if side == "in" else t.in_legs)
            assert got.data == _reference_permute(t, order, start, group)
            assert got is not t and got.data is not t.data
    assert t.data == before  # the input is never edited


@pytest.mark.parametrize("kind", sorted(LEG_KINDS))
def test_identity_permutation_returns_a_new_tensor(kind):
    rng = random.Random(kind)
    t = _dense_tensor(rng, LEG_KINDS[kind](3), LEG_KINDS[kind](1))
    for got in (t.permute_out([0, 1, 2]), t.permute_in([0])):
        assert got == t
        assert got is not t and got.data is not t.data
        got.data.clear()
        assert t.data


def test_permute_over_a_prime_field():
    rng = random.Random(5)
    F = PrimeField(3)
    t = _dense_tensor(rng, [EVEN_ODD] * 3, [(0, 1, 1)], F)
    got = t.permute_out([2, 0, 1])
    assert got.data == _reference_permute(t, [2, 0, 1], 0, t.out_legs)
    assert any(got.data[k] != t.data[(k[1], k[2], k[0], k[3])]
               for k in got.data)  # some entry is negated


@pytest.mark.parametrize("kind", sorted(LEG_KINDS))
@pytest.mark.parametrize("n_out", [0, 1, 2, 3, 5])
def test_flip_out_to_in_matches_per_entry_reference(kind, n_out):
    rng = random.Random(f"flip-{kind}-{n_out}")
    t = _dense_tensor(rng, LEG_KINDS[kind](n_out), ())
    got = t.flip_out_to_in()
    want = {}
    for key, v in t.data.items():
        k = sum(leg[a] for leg, a in zip(t.out_legs, key))
        want[key] = -v if k * (k - 1) // 2 % 2 else v
    assert got.out_legs == () and got.in_legs == t.out_legs
    assert got.data == want
    assert got is not t and got.data is not t.data
