"""Graded Frobenius algebras over exact fields.

An algebra is given by structure constants (mu, eta, eps) on a basis
with Z2 parities.  Everything else — the pairing b, its inverse
copairing c_{-1}, the coproduct Delta, the Nakayama automorphism N, the
triangle tensor t, and the cylinder idempotents q_{+-} — is derived.
All derived objects are GradedTensor morphisms, composed through the
same engine the state sum uses.

``derive`` accepts an algebra only if its structure constants are
parity-even, associative and unital and its pairing is nondegenerate;
associativity and unitality are checked once, on the sparse tensors
(``unit_and_associativity``).  Loading an algebra file runs ``derive``.
``passes_invariance_predicates`` adds the Frobenius condition,
Delta-separability and an involutive Nakayama map.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
from dataclasses import dataclass

from .fields import Field, QQ, PrimeField, field_from_json, mat_inverse
from .tensor import GradedTensor


@dataclass(frozen=True)
class GradedFrobeniusAlgebra:
    field: Field
    dim: int
    parity: tuple[int, ...]
    mu: tuple  # mu[k][i][j] = coefficient of e_k in e_i e_j
    eta: tuple
    eps: tuple
    name: str = ""

    def __hash__(self):
        # the caches keyed on the algebra (derive and the predicates) hash
        # it on every call; the fields are frozen, so hash them only once
        try:
            return self._hash
        except AttributeError:
            h = hash(tuple(getattr(self, f.name)
                           for f in dataclasses.fields(self)))
            object.__setattr__(self, "_hash", h)
            return h

    def basis_errors(self) -> list[str]:
        """Defects that keep the structure constants from being an algebra.

        The parity vector must have one bit per basis index, and mu, eta
        and eps must be parity-even.  Associativity and unitality are
        then checked on the sparse tensors, by ``unit_and_associativity``
        as ``validate_predicates`` checks them.
        """
        if len(self.parity) != self.dim or \
                any(p not in (0, 1) for p in self.parity):
            return ["parity vector malformed"]
        mu, eta, eps = structure_tensors(self)
        p = self.parity
        errs = [f"mu[{k}][{i}][{j}] violates parity"
                for k, i, j in mu.data if (p[i] + p[j] - p[k]) % 2]
        errs += [f"{name}[{i}] nonzero on odd index"
                 for i in range(self.dim) if p[i]
                 for name, t in (("eta", eta), ("eps", eps))
                 if (i,) in t.data]
        checks = unit_and_associativity(
            mu, eta, GradedTensor.identity(self.field, p))
        if not checks["associative"]:
            errs.append("mu is not associative")
        if not checks["unital"]:
            errs.append("eta is not a two-sided unit")
        return errs


def structure_tensors(A: GradedFrobeniusAlgebra
                      ) -> tuple[GradedTensor, GradedTensor, GradedTensor]:
    """The sparse mu (1 out, 2 in), eta (1 out) and eps (1 in) of A."""
    F, n, leg = A.field, A.dim, tuple(A.parity)
    mu = GradedTensor(F, (leg,), (leg, leg), {
        (k, i, j): A.mu[k][i][j]
        for k, i, j in itertools.product(range(n), repeat=3)
        if not F.is_zero(A.mu[k][i][j])})
    eta = GradedTensor(F, (leg,), (), {(i,): v for i, v in enumerate(A.eta)
                                       if not F.is_zero(v)})
    eps = GradedTensor(F, (), (leg,), {(i,): v for i, v in enumerate(A.eps)
                                       if not F.is_zero(v)})
    return mu, eta, eps


def unit_and_associativity(mu: GradedTensor, eta: GradedTensor,
                           ident: GradedTensor) -> dict[str, bool]:
    """Whether mu is associative and eta a two-sided unit for it."""
    return {
        "associative": mu.precompose(0, mu) == mu.precompose(1, mu),
        "unital": (mu.precompose(0, eta) == ident
                   and mu.precompose(1, eta) == ident),
    }


@dataclass
class DerivedStructure:
    A: GradedFrobeniusAlgebra
    leg: tuple[int, ...]
    mu: GradedTensor      # 1 out, 2 in
    eta: GradedTensor     # 1 out, 0 in
    eps: GradedTensor     # 0 out, 1 in
    b: GradedTensor       # 0 out, 2 in
    c_minus: GradedTensor  # 2 out, 0 in
    c_plus: GradedTensor   # 2 out, 0 in
    Delta: GradedTensor   # 2 out, 1 in
    N: GradedTensor       # 1 out, 1 in
    t: GradedTensor       # 0 out, 3 in
    q_plus: GradedTensor  # 1 out, 1 in
    q_minus: GradedTensor
    identity: GradedTensor
    sigma: GradedTensor   # braiding A (x) A -> A (x) A
    # tensors built from the fields above on first use (``cached``): the
    # boundary maps and tft's sign-sum tensors.  derive caches D per
    # algebra, so derive.cache_clear() drops them with D.
    _cache: dict = dataclasses.field(default_factory=dict, repr=False,
                                     compare=False)

    def c(self, sign: int) -> GradedTensor:
        if sign == +1:
            return self.c_plus
        if sign == -1:
            return self.c_minus
        raise ValueError(f"edge sign must be +1 or -1, not {sign!r}")

    def N_eps(self, eps: int) -> GradedTensor:
        """N_{+1} = id, N_{-1} = N."""
        if eps == +1:
            return self.identity
        if eps == -1:
            return self.N
        raise ValueError(f"sign must be +1 or -1, not {eps!r}")

    def cached(self, build, *args):
        """build(self, *args), built on the first call with these
        arguments and the same object on every later one."""
        key = (build, *args)
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = build(self, *args)
        return got

    def boundary_map(self, sign: int) -> GradedTensor:
        """What a boundary edge of that sign carries: N_eps(-sign) as a
        2-out tensor keyed (input index, index toward the face).  Built
        once per sign, so every evaluation passes the same object."""
        return self.cached(_boundary_map, sign)

    def q(self, nu: int) -> GradedTensor:
        if nu == +1:
            return self.q_plus
        if nu == -1:
            return self.q_minus
        raise ValueError(f"boundary sign nu must be +1 or -1, not {nu!r}")


def _boundary_map(D: DerivedStructure, sign: int) -> GradedTensor:
    data = D.N_eps(-sign).data
    return GradedTensor(D.t.field, (D.leg, D.leg), (),
                        {(x, y): v for (y, x), v in data.items()})


def copairing(b: GradedTensor) -> GradedTensor:
    """The copairing (2 out legs) inverse to a nondegenerate pairing b."""
    F, leg = b.field, b.in_legs[0]
    n = len(leg)
    bmat = [[b.data.get((i, j), F.zero()) for j in range(n)] for i in range(n)]
    try:
        cmat = mat_inverse(F, bmat)
    except ValueError:
        raise ValueError("pairing b is degenerate (no Frobenius "
                         "structure)") from None
    c = GradedTensor(F, (leg, leg), (), {})
    for i, j in itertools.product(range(n), repeat=2):
        if not F.is_zero(cmat[i][j]):
            c.data[(i, j)] = cmat[i][j]
    return c


@functools.lru_cache(maxsize=None)
def derive(A: GradedFrobeniusAlgebra) -> DerivedStructure:
    errs = A.basis_errors()
    if errs:
        raise ValueError("invalid algebra: " + "; ".join(errs))
    F, leg = A.field, tuple(A.parity)
    mu, eta, eps = structure_tensors(A)
    ident = GradedTensor.identity(F, leg)
    sigma = GradedTensor.braiding(F, leg, leg)
    b = eps.compose(mu)  # b(x, y) = eps(xy)
    c_minus = copairing(b)
    c_plus = sigma.compose(c_minus)
    # N = (b (x) id) o (id (x) sigma) o (id (x) c_minus), and sigma o
    # c_minus is c_plus
    N = b.tensor(ident).precompose(1, c_plus)
    Delta = mu.tensor(ident).precompose(1, c_minus)
    t = b.precompose(0, mu)
    # q_nu = mu o sigma o (N_{-nu} (x) id) o Delta
    def make_q(nu):
        n_eps = ident if -nu == +1 else N
        return mu.compose(sigma).precompose(0, n_eps).compose(Delta)
    return DerivedStructure(A, leg, mu, eta, eps, b, c_minus, c_plus, Delta,
                            N, t, make_q(+1), make_q(-1), ident, sigma)


# -- predicates ---------------------------------------------------------
def convolution(D: DerivedStructure, f: GradedTensor,
                g: GradedTensor) -> GradedTensor:
    """f * g = mu o (f (x) g) o Delta."""
    return D.mu.compose(f.tensor(g)).compose(D.Delta)


def validate_predicates(A: GradedFrobeniusAlgebra) -> dict[str, bool]:
    """Every predicate of A by name.

    ``derive`` rejects a non-associative or non-unital A, and a derived
    A is counital with eta o eps a convolution unit, so those four keys
    read True; "symmetric" and "nakayama_times_id_zero" are diagnostics.
    """
    D = derive(A)
    mu, Delta, ident = D.mu, D.Delta, D.identity
    report = unit_and_associativity(mu, D.eta, ident)
    frob_mid = Delta.compose(mu)
    report["frobenius"] = (
        mu.tensor(ident).precompose(1, Delta) == frob_mid
        and ident.tensor(mu).precompose(0, Delta) == frob_mid)
    report["delta_separable"] = mu.compose(Delta) == ident
    report["nakayama_involution"] = D.N.compose(D.N) == ident
    unit_conv = D.eta.compose(D.eps)
    report["nakayama_times_id_zero"] = convolution(D, D.N, ident).is_zero()
    report["symmetric"] = D.b.compose(D.sigma) == D.b
    report["counital"] = (D.eps.tensor(ident).compose(Delta) == ident
                          and ident.tensor(D.eps).compose(Delta) == ident)
    report["convolution_unit"] = convolution(D, ident, unit_conv) == ident
    return report


@functools.lru_cache(maxsize=None)
def passes_invariance_predicates(A: GradedFrobeniusAlgebra) -> bool:
    r = validate_predicates(A)
    return all(r[k] for k in ("associative", "unital", "frobenius",
                              "delta_separable", "nakayama_involution"))


# -- built-in algebras --------------------------------------------------
def builtin_clifford(field: Field = QQ) -> GradedFrobeniusAlgebra:
    if field.characteristic == 2:
        raise ValueError("Clifford algebra needs characteristic != 2")
    F = field
    z, o = F.zero(), F.one()
    two = F.add(o, o)
    mu = (((o, z), (z, o)), ((z, o), (o, z)))
    return GradedFrobeniusAlgebra(F, 2, (0, 1), mu, (o, z), (two, z),
                                  name="clifford")


def builtin_group_z2(field: Field = QQ) -> GradedFrobeniusAlgebra:
    """Group algebra of Z/2 with counit 2*(coefficient of the identity).

    A trivially graded, symmetric, Delta-separable dimension-2 fixture.
    """
    if field.characteristic == 2:
        raise ValueError("k[Z2] fixture needs characteristic != 2")
    F = field
    z, o = F.zero(), F.one()
    two = F.add(o, o)
    mu = (((o, z), (z, o)), ((z, o), (o, z)))
    return GradedFrobeniusAlgebra(F, 2, (0, 0), mu, (o, z), (two, z),
                                  name="group-z2")


def builtin_twisted_matrix(n: int, field: Field, X, lam
                           ) -> GradedFrobeniusAlgebra:
    """Matrix algebra M_n with counit eps_X(M) = tr(X M).

    Requires X invertible with X^2 = lam*1, tr(X) = lam, lam != 0.
    Basis: elementary matrices E_{ab}, index a*n + b.
    """
    F = field
    X = [[F.of(v) for v in row] for row in X]
    lam = F.of(lam)
    if F.is_zero(lam):
        raise ValueError("lambda must be nonzero")
    X2 = [[sum_f(F, (F.mul(X[a][k], X[k][b]) for k in range(n)))
           for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(n):
            want = lam if a == b else F.zero()
            if X2[a][b] != want:
                raise ValueError("X^2 != lambda * identity")
    tr = sum_f(F, (X[a][a] for a in range(n)))
    if tr != lam:
        raise ValueError("tr(X) != lambda")
    d = n * n
    z = F.zero()
    mu = [[[z] * d for _ in range(d)] for _ in range(d)]
    for a, b, c, e in itertools.product(range(n), repeat=4):
        # E_{ab} E_{ce} = delta_{bc} E_{ae}
        if b == c:
            mu[a * n + e][a * n + b][c * n + e] = F.one()
    eta = [z] * d
    for a in range(n):
        eta[a * n + a] = F.one()
    eps = [z] * d
    for a in range(n):
        for b in range(n):
            eps[a * n + b] = X[b][a]  # tr(X E_{ab}) = X_{ba}
    return GradedFrobeniusAlgebra(
        F, d, (0,) * d,
        tuple(tuple(tuple(row) for row in plane) for plane in mu),
        tuple(eta), tuple(eps), name=f"twisted-matrix-{n}")


def sum_f(F: Field, it):
    acc = F.zero()
    for v in it:
        acc = F.add(acc, v)
    return acc


BUILTIN_NAMES = ("clifford", "group-z2", "twisted-matrix-3-f3",
                 "twisted-matrix-2-q")


def builtin_by_name(name: str) -> GradedFrobeniusAlgebra:
    if name == "clifford":
        return builtin_clifford(QQ)
    if name == "group-z2":
        return builtin_group_z2(QQ)
    if name == "twisted-matrix-3-f3":
        F3 = PrimeField(3)
        X = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
        return dataclasses.replace(builtin_twisted_matrix(3, F3, X, 1),
                                   name=name)
    if name == "twisted-matrix-2-q":
        X = [[2, 0], [0, 2]]
        return dataclasses.replace(builtin_twisted_matrix(2, QQ, X, 4),
                                   name=name)
    raise ValueError(f"unknown builtin algebra {name!r}; "
                     f"available: {', '.join(BUILTIN_NAMES)}")


# -- JSON ---------------------------------------------------------------
def to_json(A: GradedFrobeniusAlgebra) -> dict:
    F = A.field
    return {
        "field": F.to_json(),
        "dim": A.dim,
        "parity": list(A.parity),
        "mu": [[*key, F.format(v)]
               for key, v in structure_tensors(A)[0].data.items()],
        "eta": [F.format(v) for v in A.eta],
        "eps": [F.format(v) for v in A.eps],
    }


def from_json(obj: dict) -> GradedFrobeniusAlgebra:
    F = field_from_json(obj["field"])
    n = obj["dim"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"dim must be a positive integer, got {n!r}")
    parity = tuple(obj["parity"])
    if not all(_is_index(p, 2) for p in parity):
        raise ValueError(f"parity entries must be 0 or 1, got {list(parity)}")
    z = F.zero()
    mu = [[[z] * n for _ in range(n)] for _ in range(n)]
    for k, i, j, v in obj["mu"]:
        if not all(_is_index(x, n) for x in (k, i, j)):
            raise ValueError(f"mu entry [{k}, {i}, {j}] has an index outside "
                             f"0..{n - 1}")
        mu[k][i][j] = _value(F, v, f"mu entry [{k}, {i}, {j}]")
    for key in ("eta", "eps"):
        if len(obj[key]) != n:
            raise ValueError(f"{key} needs {n} entries, got {len(obj[key])}")
    eta = tuple(_value(F, v, f"eta[{i}]") for i, v in enumerate(obj["eta"]))
    eps = tuple(_value(F, v, f"eps[{i}]") for i, v in enumerate(obj["eps"]))
    A = GradedFrobeniusAlgebra(
        F, n, parity,
        tuple(tuple(tuple(row) for row in plane) for plane in mu), eta, eps)
    derive(A)  # rejects every defect, a degenerate pairing included
    return A


def _value(F: Field, v, where: str):
    """F.of(v) for an int (not a bool) or a "p/q" string; ValueError
    naming the entry for any other value, a float or a bool included."""
    try:
        if type(v) is int or isinstance(v, str):
            return F.of(v)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"{where} is {v!r}; values must be integers or \"p/q\" "
                     f"strings with q invertible in the field")


def _is_index(x, n: int) -> bool:
    """x is an int (not a bool) in range(n)."""
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n


def load(path: str) -> GradedFrobeniusAlgebra:
    with open(path) as fh:
        return from_json(json.load(fh))
