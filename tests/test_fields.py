from fractions import Fraction

import pytest

from spinsum.fields import (QQ, PrimeField, field_from_json, mat_inverse,
                            row_reduce)


def test_rational_field_ops():
    assert QQ.add(QQ.of("1/2"), QQ.of("1/3")) == Fraction(5, 6)
    assert QQ.mul(QQ.of("2/3"), QQ.of("3/2")) == 1
    assert QQ.inv(QQ.of(-4)) == Fraction(-1, 4)
    assert QQ.is_zero(QQ.zero())
    assert QQ.characteristic == 0


def test_prime_field_ops():
    F3 = PrimeField(3)
    assert F3.add(F3.of(2), F3.of(2)) == F3.of(1)
    assert F3.mul(F3.of(2), F3.of(2)) == F3.of(1)
    assert F3.inv(F3.of(2)) == F3.of(2)
    assert F3.neg(F3.of(1)) == F3.of(2)
    assert F3.characteristic == 3
    with pytest.raises(ZeroDivisionError):
        F3.inv(F3.zero())


@pytest.mark.parametrize("F", (QQ, PrimeField(5)))
def test_is_zero_means_equal_to_zero(F):
    """Each field's own is_zero agrees with comparing against zero()."""
    for a in (F.zero(), F.one(), F.neg(F.one()), F.of("1/2"), F.of(5), 0,
              Fraction(0), Fraction(0, 3), Fraction(-2, 3)):
        assert F.is_zero(a) == (a == F.zero()), a


def test_mat_inverse():
    M = [[Fraction(2), Fraction(1)], [Fraction(5), Fraction(3)]]
    Minv = mat_inverse(QQ, M)
    assert Minv == [[3, -1], [-5, 2]]
    assert mat_inverse(QQ, Minv) == M
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(ValueError, match="singular"):
        mat_inverse(QQ, singular)


def test_row_reduce_gives_rref_rows_and_pivots():
    M = [[0, 2, 4, 2], [0, 1, 2, 3], [0, 3, 6, 5]]
    rows, pivots = row_reduce(QQ, [[QQ.of(x) for x in r] for r in M])
    assert pivots == [1, 3]
    assert rows == [[0, 1, 2, 0], [0, 0, 0, 1]]
    F3 = PrimeField(3)
    rows, pivots = row_reduce(F3, [[1, 1, 0], [2, 2, 1], [1, 1, 2]])
    assert pivots == [0, 2]
    assert rows == [[1, 1, 0], [0, 0, 1]]
    assert row_reduce(QQ, []) == ([], [])
    assert row_reduce(QQ, [[QQ.zero()] * 3]) == ([], [])


def test_field_json_roundtrip():
    for F in (QQ, PrimeField(7)):
        assert field_from_json(F.to_json()).format(F.one()) == F.format(F.one())
