"""The TQFT layer: gluing of amplitudes, cylinder projectors and state
spaces, the algebra on the total state space Z, one closed form for
every spin surface (``closed_form``: a handle element per unit of genus
and a leg map per boundary; the cylinder and the pants are its cases),
and the statistical sign sum.  Every composition and gluing goes
through ``GradedTensor.precompose``, which contracts a group of input
legs in time linear in the entries of the tensor contracted.

The state spaces Z_NS and Z_R are the images of the cylinder idempotents
P_NS and P_R, and A_+ is the image of (id + N)/2.  Each idempotent P is
split as iota o pi off the reduced row echelon form of P^T: the RREF
rows are the image basis (iota's columns) and pi reads P's pivot rows.
Each structure map of Z = Z_NS + Z_R is computed sector by sector and
placed in Z by shifting its leg indices by the sector offsets.

The statistical sign sum (1/2)^E 2^V sum_s T'_A(s) over all edge-sign
assignments s of a closed surface equals the oriented state sum of A_+.
T'_A is multilinear in the edge copairings, so
sum_s prod_e c_{s(e)} = prod_e (c_+ + c_-): one contraction at any genus.
Both sums take an edge copairing and a triangle tensor that depend on the
algebra alone: c_sym = (c_+ + c_-)/2 with t (``symmetric_copairing``),
and A_+'s own pair (``plus_part``).  Each pair is built on the first call
for an algebra and kept on ``derive(A)`` (``DerivedStructure.cached``),
so a later call only builds the diagram and contracts it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .algebra import (DerivedStructure, GradedFrobeniusAlgebra, copairing,
                      derive)
from .eval import Amplitude, build_graph, contract_network, plan_contraction
from .fields import Field, row_reduce
from .spin import NS, R_TYPE, arf_invariant, nu_of
from .surface import (GenusGComplex, MarkedTriangulation, build_cylinder,
                      build_pair_of_pants, glue_boundaries)
from .tensor import GradedTensor


# -- composite dual-triangle maps ---------------------------------------
def reversal(D: DerivedStructure, n: int) -> GradedTensor:
    """Full reversal of n tensor factors with Koszul signs."""
    ident = GradedTensor.identity(D.mu.field, D.leg, n)
    return ident.permute_out(list(range(n - 1, -1, -1)))


def iota13(D: DerivedStructure) -> GradedTensor:
    """A -> A^{(x)3}: reversal o (id (x) Delta) o Delta."""
    return reversal(D, 3).precompose(1, D.Delta).compose(D.Delta)


def pi31(D: DerivedStructure) -> GradedTensor:
    """A^{(x)3} -> A: mu o (id (x) mu) o reversal."""
    return D.mu.precompose(1, D.mu).compose(reversal(D, 3))


# -- gluing -------------------------------------------------------------
def glue_amplitude(T: Amplitude, i: int, j: int, eps: int,
                   A: GradedFrobeniusAlgebra) -> Amplitude:
    """Contract boundaries i and j of an amplitude with three copairings.

    The k'th copairing (k = 1,2,3) feeds boundary i position k-1 with its
    first output and boundary j position 3-k with its second, realizing
    the position pairing p <-> 2-p.  The six glued legs are permuted to
    the front in that order and contracted with c (x) c (x) c in one pass.
    """
    B = T.boundaries
    if i == j or not (1 <= i <= B) or not (1 <= j <= B):
        raise ValueError(f"invalid boundary pair ({i}, {j})")
    if T.types and T.types[i - 1] != T.types[j - 1]:
        raise ValueError("glued boundaries must have equal type")
    c = derive(A).c(eps)
    rest = [k for k in range(1, B + 1) if k not in (i, j)]
    a, b = 3 * (i - 1), 3 * (j - 1)  # leg 3(k-1)+p is position p of k
    front = [a, b + 2, a + 1, b + 1, a + 2, b]
    front += [3 * (k - 1) + p for k in rest for p in range(3)]
    glued = T.tensor.permute_in(front).precompose(0, c.tensor(c).tensor(c))
    types = tuple(t for k, t in enumerate(T.types, 1) if k not in (i, j))
    return Amplitude(glued, types)


# -- state spaces and the Z algebra -------------------------------------
@dataclass
class StateSpace:
    dim: int
    iota: GradedTensor  # Z -> A
    pi: GradedTensor    # A -> Z
    parities: tuple[int, ...]


def _split_idempotent(F: Field, P: GradedTensor, leg) -> tuple:
    """Split an idempotent P as iota o pi with pi o iota = id, read off
    the reduced row echelon form of P^T; returns (iota, pi, parities).

    The RREF rows span im P and are iota's columns, so iota is the
    identity on their pivot rows, and pi is P's pivot rows.  An image
    vector equals iota applied to its pivot entries, so iota o pi = P;
    P fixes iota's columns, so pi o iota = id.  No inverse is needed.
    """
    n = len(leg)
    M = P.as_matrix()
    basis, pivots = row_reduce(F, [[M[r][c] for r in range(n)]
                                   for c in range(n)])
    zleg = tuple(leg[p] for p in pivots)
    for v, par in zip(basis, zleg):
        if any(leg[r] != par for r in range(n) if not F.is_zero(v[r])):
            raise ValueError("idempotent image basis is not parity-homogeneous")
    iota_m = [[v[r] for v in basis] for r in range(n)]
    return (GradedTensor.from_matrix(F, leg, zleg, iota_m),
            GradedTensor.from_matrix(F, zleg, leg, [M[p] for p in pivots]),
            zleg)


def state_space(A: GradedFrobeniusAlgebra, delta: str) -> StateSpace:
    D = derive(A)
    P = D.q(nu_of(delta))
    iota_t, pi_t, zleg = _split_idempotent(A.field, P, D.leg)
    if pi_t.compose(iota_t) != GradedTensor.identity(A.field, zleg):
        raise RuntimeError(f"{delta} state space: pi o iota is not the "
                           "identity")
    if iota_t.compose(pi_t) != P:
        raise RuntimeError(f"{delta} state space: iota o pi is not the "
                           "idempotent")
    return StateSpace(len(zleg), iota_t, pi_t, zleg)


@dataclass
class ZAlgebra:
    A: GradedFrobeniusAlgebra
    ns: StateSpace   # Z_{+1}
    r: StateSpace    # Z_{-1}
    dim: int
    grading: tuple[int, ...]  # +1 / -1 per basis vector of Z
    mu: GradedTensor
    eta: GradedTensor
    Delta: GradedTensor
    eps: GradedTensor
    N: GradedTensor
    chi_ns: GradedTensor  # mu o (P_NS (x) P_NS) o Delta o eta, a vector in A
    chi_r: GradedTensor


def _in_z(F: Field, zleg, n_out: int, n_in: int, blocks) -> GradedTensor:
    """The map between tensor powers of Z = Z_NS + Z_R with the given
    blocks: pairs (offsets, t) of a map t between sectors Z_nu and the
    offset in Z of each of its legs' sectors, outputs first."""
    data = {}
    for offsets, t in blocks:
        for key, v in t.data.items():
            data[tuple(map(operator.add, key, offsets))] = v
    return GradedTensor(F, (zleg,) * n_out, (zleg,) * n_in, data)


def z_algebra(A: GradedFrobeniusAlgebra) -> ZAlgebra:
    """The algebra on Z = Z_NS + Z_R, NS first.  With e_nu = iota and
    f_nu = pi of the sector Z_nu, its blocks are f o mu o (e (x) e),
    (f (x) f) o Delta o e, f o N o e, f o eta and eps o e, placed in Z by
    the sector offsets (``_in_z``)."""
    D = derive(A)
    F = A.field
    ns = state_space(A, NS)
    r = state_space(A, R_TYPE)
    zleg = ns.parities + r.parities
    grading = (+1,) * ns.dim + (-1,) * r.dim
    off = {+1: 0, -1: ns.dim}
    e = {+1: ns.iota, -1: r.iota}
    f = {+1: ns.pi, -1: r.pi}
    pairs = list(itertools.product((+1, -1), repeat=2))
    mu_z = _in_z(F, zleg, 1, 2, [
        ((off[a * b], off[a], off[b]),
         f[a * b].compose(D.mu).precompose(0, e[a]).precompose(1, e[b]))
        for a, b in pairs])
    delta_z = _in_z(F, zleg, 2, 1, [
        ((off[a], off[b], off[a * b]),
         f[a].tensor(f[b]).compose(D.Delta).compose(e[a * b]))
        for a, b in pairs])
    n_z = _in_z(F, zleg, 1, 1, [
        ((off[nu], off[nu]), f[nu].compose(D.N).compose(e[nu]))
        for nu in (+1, -1)])
    eta_z = _in_z(F, zleg, 1, 0, [((0,), f[+1].compose(D.eta))])
    eps_z = _in_z(F, zleg, 0, 1, [((0,), D.eps.compose(e[+1]))])
    chi_ns = D.mu.compose(D.q_plus.tensor(D.q_plus)).compose(D.Delta)\
        .compose(D.eta)
    chi_r = D.mu.compose(D.q_minus.tensor(D.q_minus)).compose(D.Delta)\
        .compose(D.eta)
    return ZAlgebra(A, ns, r, ns.dim + r.dim, grading, mu_z, eta_z, delta_z,
                    eps_z, n_z, chi_ns, chi_r)


# -- closed forms -------------------------------------------------------
def closed_form(A: GradedFrobeniusAlgebra, handles=(),
                boundaries=()) -> Amplitude:
    """eps o H_g o ... o H_1 o mu^(n) o (L_1 (x) ... (x) L_n) o pi31^(x)n,
    typed by the boundaries' deltas: H_{delta,eps} = mu o ((P_delta o
    N_{-eps}) (x) id) o Delta per handle, L_{delta,eps} = P_delta o N_eps
    per boundary, and mu^(n) the n-fold product (mu^(0) = eta).  pi31
    comes last, one leg at a time and last leg first.

    A closed spin surface is fixed up to spin diffeomorphism by its genus
    g and its Arf invariant (Atiyah, "Riemann surfaces and spin
    structures", 1971).  Its amplitude is the form with g handles
    (NS, +1), the last one made (R, +1) when the Arf invariant is -1; the
    spin torus T_delta^eps is the single handle (delta, eps).
    """
    types = tuple(delta for delta, _ in boundaries)
    if math.prod(map(nu_of, types)) != 1:
        raise ValueError("no spin structure: product of boundary types "
                         "must be +1")
    D = derive(A)
    vec = D.identity if boundaries else D.eta
    for _ in boundaries[1:]:
        vec = vec.precompose(0, D.mu)
    for delta, eps in handles:
        twist = D.q(nu_of(delta)).compose(D.N_eps(-eps))
        vec = D.mu.precompose(0, twist).compose(D.Delta).compose(vec)
    form = D.eps.compose(vec)
    for i, (delta, eps) in enumerate(boundaries):
        form = form.precompose(i, D.q(nu_of(delta)).compose(D.N_eps(eps)))
    pp = pi31(D)
    for i in reversed(range(len(boundaries))):
        form = form.precompose(i, pp)
    return Amplitude(form, types)


def cylinder_closed_form(A: GradedFrobeniusAlgebra, delta: str,
                         eps: int) -> Amplitude:
    """The spin cylinder C_delta^eps of ``cylinder_spin``."""
    return closed_form(A, (), ((delta, -eps), (delta, 1)))


def pants_closed_form(A: GradedFrobeniusAlgebra, deltas: tuple[str, str, str],
                      eps1: int, eps2: int) -> Amplitude:
    """The spin pair of pants of ``pants_spin``."""
    return closed_form(A, (), ((deltas[0], eps1), (deltas[1], eps2),
                               (deltas[2], 1)))


def spin_class_handles(detail: GenusGComplex, signs) -> list:
    """The handles of the class of signs on detail, as ``closed_form``
    reads them off its genus and Arf invariant."""
    handles = [(NS, 1)] * detail.g
    if arf_invariant(detail, signs) == -1:
        handles[-1] = (R_TYPE, 1)
    return handles


# -- reference spin surfaces -------------------------------------------
def cylinder_spin(delta: str, eps: int):
    """(triangulation, signs, types) for the spin cylinder C_delta^eps."""
    tri = build_cylinder()
    nu = nu_of(delta)
    signs = {1: eps, 2: eps, 3: eps, 4: 1, 5: 1, 6: 1, 7: -nu,
             8: 1, 9: 1, 10: 1, 11: 1, 12: 1}
    return tri, signs, (delta, delta)


def torus_spin(delta: str, eps: int):
    """(triangulation, signs) for the spin torus T_delta^eps."""
    tri = glue_boundaries(build_cylinder(), 1, 2)
    nu = nu_of(delta)
    signs = {4: -eps, 5: -eps, 6: -eps, 7: -nu,
             8: 1, 9: 1, 10: 1, 11: 1, 12: 1}
    return tri, signs


def pants_spin(deltas: tuple[str, str, str], eps1: int, eps2: int):
    """(triangulation, signs, types) for the spin pair of pants."""
    n1, n2, n3 = (nu_of(d) for d in deltas)
    if n1 * n2 * n3 != 1:
        raise ValueError("no spin structure: product of boundary types "
                         "must be +1")
    tri = build_pair_of_pants()
    a1 = eps1 * eps2
    a2 = -n1 * eps2
    signs = {e: 1 for e in (4, 5, 6, 7, 8, 9, 10, 11, 13, 16, 18)}
    signs.update({1: a1, 2: -n2 * a1, 3: n1 * a1 * a2, 12: n2,
                  14: a2, 15: -1, 17: n3 * a2, 19: -1,
                  20: -n3 * a2, 21: -n3 * a2})
    return tri, signs, tuple(deltas)


# -- statistical sign sum ----------------------------------------------
def _half(D: DerivedStructure):
    F = D.A.field
    return F.inv(F.of(2))


def plus_part(D: DerivedStructure) -> tuple[GradedTensor, GradedTensor]:
    """A_+'s copairing and triangle tensor: the Frobenius data of A
    restricted through the split (iota, pi) of (1/2)(id + N)."""
    iota_t, pi_t, _ = _split_idempotent(
        D.A.field, D.identity.add(D.N).scale(_half(D)), D.leg)
    mu_p = pi_t.compose(D.mu).precompose(0, iota_t).precompose(1, iota_t)
    b_p = D.eps.compose(iota_t).compose(mu_p)
    return copairing(b_p), b_p.precompose(0, mu_p)


def symmetric_copairing(D: DerivedStructure
                        ) -> tuple[GradedTensor, GradedTensor]:
    """c_sym = (c_+ + c_-)/2 and A's own triangle tensor."""
    return D.c(+1).add(D.c(-1)).scale(_half(D)), D.t


def _closed_state_sum(tri: MarkedTriangulation, A: GradedFrobeniusAlgebra,
                      tensors):
    """2^V times the contraction of the closed surface tri with c on every
    edge and t on every face, where (c, t) = tensors(derive(A)), built
    once per algebra and kept on derive(A)."""
    if not tri.is_closed():
        raise ValueError("closed surface required")
    F = A.field
    if F.characteristic == 2:
        raise ValueError("the weight 1/2 needs characteristic != 2")
    c, t = derive(A).cached(tensors)
    graph = build_graph(tri, {eid: -1 for eid in tri.edges})
    value = contract_network(graph, plan_contraction(graph),
                             dict.fromkeys(graph.wires, c), t).scalar_value()
    return F.mul(value, F.of(2 ** len(tri.vertices)))


def plus_part_state_sum(tri: MarkedTriangulation, A: GradedFrobeniusAlgebra):
    """Oriented state sum of A_+ = im(1/2 (id + N)) with vertex weight 2.

    The oriented sum places the copairing of A_+'s own Frobenius form on
    every edge and its triangle tensor on every triangle (``plus_part``);
    no spin signs enter.
    """
    return _closed_state_sum(tri, A, plus_part)


def statistical_sign_sum(tri: MarkedTriangulation, A: GradedFrobeniusAlgebra):
    """(1/2)^E 2^V  sum over all 2^E sign assignments s of T'_A(s).

    As sum_s prod_e c_{s(e)} = prod_e (c_+ + c_-), this is 2^V times one
    contraction with c_sym = (c_+ + c_-)/2 on every edge
    (``symmetric_copairing``).  c_+ and c_- are even, so the Koszul signs
    depend on entry keys only and stay linear.
    """
    return _closed_state_sum(tri, A, symmetric_copairing)
