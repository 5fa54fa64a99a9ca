import dataclasses
import re
from fractions import Fraction

import pytest

from spinsum.algebra import (GradedFrobeniusAlgebra, builtin_by_name,
                             builtin_clifford, builtin_twisted_matrix,
                             convolution, derive, from_json, to_json,
                             validate_predicates)
from spinsum.fields import QQ, PrimeField
from spinsum.tensor import GradedTensor

ALL_BUILTINS = ("clifford", "group-z2", "twisted-matrix-3-f3",
                "twisted-matrix-2-q")


STRUCTURAL = ("associative", "unital", "frobenius", "delta_separable",
              "nakayama_involution", "counital", "convolution_unit")


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_builtin_structural_predicates_hold(name):
    report = validate_predicates(builtin_by_name(name))
    assert all(report[k] for k in STRUCTURAL), report
    # diagnostic predicates: symmetric iff the Nakayama map is trivial,
    # and only then does the convolution N * id fail to vanish
    trivial_n = derive(builtin_by_name(name)).N == \
        derive(builtin_by_name(name)).identity
    assert report["symmetric"] == trivial_n
    assert report["nakayama_times_id_zero"] == (not trivial_n)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_nakayama_is_involutive_algebra_map(name):
    D = derive(builtin_by_name(name))
    assert D.N.compose(D.N) == D.identity
    # N is an algebra homomorphism
    assert D.N.compose(D.mu) == D.mu.compose(D.N.tensor(D.N))
    assert D.N.compose(D.eta) == D.eta


@pytest.mark.parametrize("name", ("clifford", "twisted-matrix-3-f3"))
def test_convolution_of_nakayama_with_identity_vanishes(name):
    D = derive(builtin_by_name(name))
    assert convolution(D, D.N, D.identity).is_zero()


def test_clifford_nakayama_is_parity_automorphism(clifford):
    D = derive(clifford)
    m = D.N.as_matrix()
    assert m == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]


def test_pairing_and_copairing_are_mutually_inverse(clifford):
    D = derive(clifford)
    # (b (x) id) o (id (x) c) = id  (snake identity)
    snake = D.b.tensor(D.identity).compose(D.identity.tensor(D.c_minus))
    assert snake == D.identity


@pytest.mark.parametrize("name", ALL_BUILTINS)
@pytest.mark.parametrize("s", (1, -1))
def test_pairing_absorbs_copairing_into_nakayama(name, s):
    """(b (x) id) o (id (x) c_s) = N_eps(-s): the tensor a boundary edge
    carries once its boundary leg is turned into an input."""
    D = derive(builtin_by_name(name))
    absorbed = D.b.tensor(D.identity).compose(D.identity.tensor(D.c(s)))
    assert absorbed == D.N_eps(-s)


def test_triangle_tensor_matches_pairing_of_products(clifford):
    D = derive(clifford)
    assert D.t == D.b.compose(D.mu.tensor(D.identity))


def test_basis_errors_flag_broken_structures():
    A = builtin_clifford()
    broken = GradedFrobeniusAlgebra(
        A.field, A.dim, (0,), A.mu, A.eta, A.eps)
    assert any("parity" in e for e in broken.basis_errors())
    # parity-inhomogeneous structure constants are also flagged
    flipped = GradedFrobeniusAlgebra(
        A.field, A.dim, (1, 0), A.mu, A.eta, A.eps)
    assert any("parity" in e or "odd" in e for e in flipped.basis_errors())
    bad_mu = tuple(tuple(tuple(QQ.of(1) for _ in range(2))
                         for _ in range(2)) for _ in range(2))
    broken2 = GradedFrobeniusAlgebra(
        A.field, A.dim, (0, 0), bad_mu, A.eta, A.eps)
    assert broken2.basis_errors()


def test_derive_names_parity_associativity_and_unit_defects_in_order():
    # 1, a, b with ab = 1 and ba = a^2 = b^2 = 0, b made odd, unit a
    z, o = QQ.zero(), QQ.one()
    mu = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    for k, i, j in ((0, 0, 0), (1, 0, 1), (1, 1, 0), (2, 0, 2), (2, 2, 0),
                    (0, 1, 2)):
        mu[k][i][j] = o
    bad = GradedFrobeniusAlgebra(
        QQ, 3, (0, 0, 1), tuple(tuple(map(tuple, plane)) for plane in mu),
        (z, o, z), (o, o, o))
    errs = bad.basis_errors()
    assert errs == ["mu[0][1][2] violates parity",
                    "eps[2] nonzero on odd index", "mu is not associative",
                    "eta is not a two-sided unit"]
    with pytest.raises(ValueError, match=re.escape("; ".join(errs))):
        derive(bad)


def test_degenerate_pairing_rejected():
    # zero counit makes b degenerate
    A = builtin_clifford()
    bad = GradedFrobeniusAlgebra(A.field, A.dim, A.parity, A.mu, A.eta,
                                 (QQ.zero(), QQ.zero()))
    with pytest.raises(ValueError, match="degenerate"):
        derive(bad)


def test_twisted_matrix_constraints():
    with pytest.raises(ValueError, match="X\\^2"):
        builtin_twisted_matrix(2, QQ, [[1, 1], [0, 1]], 1)
    with pytest.raises(ValueError, match="tr"):
        builtin_twisted_matrix(2, QQ, [[1, 0], [0, -1]], 1)
    with pytest.raises(ValueError, match="nonzero"):
        builtin_twisted_matrix(2, PrimeField(2), [[1, 0], [0, 1]], 2)


def test_cached_hash_keeps_equality_on_the_fields():
    """The hash is stored on first use; equal algebras still compare and
    hash equal and share one derive() entry, and the name still counts."""
    A, B = (builtin_by_name("twisted-matrix-2-q") for _ in range(2))
    assert hash(A) == hash(A) == hash(B)
    assert A == B and derive(A) is derive(B)
    other = dataclasses.replace(A, name="renamed")
    assert other != A and hash(other) != hash(A)


def test_unknown_builtin_name():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_by_name("nope")


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_json_roundtrip(name):
    A = builtin_by_name(name)
    B = from_json(to_json(A))
    assert (B.dim, B.parity, B.mu, B.eta, B.eps) == \
        (A.dim, A.parity, A.mu, A.eta, A.eps)
