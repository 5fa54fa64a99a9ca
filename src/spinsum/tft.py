"""The TQFT layer: gluing of amplitudes, cylinder projectors and state
spaces, the algebra on the total state space Z, closed forms for the
cylinder / pair of pants / torus, and the statistical sign sum.

The statistical sign sum (1/2)^E 2^V sum_s T'_A(s) over all edge-sign
assignments s of a closed surface equals the oriented state sum of A_+.
T'_A is multilinear in the edge copairings, so
sum_s prod_e c_{s(e)} = prod_e (c_+ + c_-): one contraction at any genus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (DerivedStructure, GradedFrobeniusAlgebra, copairing,
                      derive)
from .eval import Amplitude, build_graph, contract_network, plan_contraction
from .fields import Field, mat_inverse, mat_mul
from .spin import NS, R_TYPE, nu_of
from .surface import (MarkedTriangulation, build_cylinder,
                      build_pair_of_pants, glue_boundaries)
from .tensor import GradedTensor


# -- composite dual-triangle maps ---------------------------------------
def reversal(D: DerivedStructure, n: int) -> GradedTensor:
    """Full reversal of n tensor factors with Koszul signs."""
    ident = GradedTensor.identity(D.mu.field, D.leg, n)
    return ident.permute_out(list(range(n - 1, -1, -1)))


def iota13(D: DerivedStructure) -> GradedTensor:
    """A -> A^{(x)3}: reversal o (id (x) Delta) o Delta."""
    ident = D.identity
    comp = ident.tensor(D.Delta).compose(D.Delta)
    return reversal(D, 3).compose(comp)


def pi31(D: DerivedStructure) -> GradedTensor:
    """A^{(x)3} -> A: mu o (id (x) mu) o reversal."""
    ident = D.identity
    return D.mu.compose(ident.tensor(D.mu)).compose(reversal(D, 3))


def projectors(A: GradedFrobeniusAlgebra):
    """(P_NS, P_R, pi31, iota13) for the algebra A."""
    D = derive(A)
    return D.q_plus, D.q_minus, pi31(D), iota13(D)


# -- gluing -------------------------------------------------------------
def glue_amplitude(T: Amplitude, i: int, j: int, eps: int,
                   A: GradedFrobeniusAlgebra) -> Amplitude:
    """Contract boundaries i and j of an amplitude with three copairings.

    The k'th copairing (k = 1,2,3) feeds boundary i position k-1 with its
    first output and boundary j position 3-k with its second, realizing
    the position pairing p <-> 2-p.
    """
    B = T.boundaries
    if i == j or not (1 <= i <= B) or not (1 <= j <= B):
        raise ValueError(f"invalid boundary pair ({i}, {j})")
    if T.types and T.types[i - 1] != T.types[j - 1]:
        raise ValueError("glued boundaries must have equal type")
    D = derive(A)
    c = D.c(eps)
    rest = [k for k in range(1, B + 1) if k not in (i, j)]
    ident = GradedTensor.identity(D.mu.field, D.leg, 3 * len(rest))
    gamma = c.tensor(c).tensor(c).tensor(ident)
    # current output order: (i,0),(j,2),(i,1),(j,1),(i,2),(j,0), rest...
    cur = [(i, 0), (j, 2), (i, 1), (j, 1), (i, 2), (j, 0)]
    for bk in rest:
        cur += [(bk, p) for p in range(3)]
    target = T.leg_labels  # (boundary, position) per input leg of T
    order = [cur.index(lbl) for lbl in target]
    gamma = gamma.permute_out(order)
    glued = T.tensor.compose(gamma)
    labels = []
    for nk, bk in enumerate(rest, start=1):
        labels += [(nk, p) for p in range(3)]
    types = ()
    if T.types:
        types = tuple(t for k, t in enumerate(T.types, start=1)
                      if k not in (i, j))
    out = Amplitude(glued, B - 2, labels, types)
    return out


# -- state spaces and the Z algebra -------------------------------------
@dataclass
class StateSpace:
    delta: str
    dim: int
    iota: GradedTensor  # Z -> A
    pi: GradedTensor    # A -> Z
    parities: tuple[int, ...]


def _split_idempotent(F: Field, P: GradedTensor, leg) -> tuple:
    """Exact splitting of an idempotent matrix via column echelon."""
    n = len(leg)
    M = P.as_matrix()
    cols = [[M[r][c] for r in range(n)] for c in range(n)]
    basis = []
    pivots = []
    for c in range(n):
        v = list(cols[c])
        for bcol, prow in zip(basis, pivots):
            if not F.is_zero(v[prow]):
                f = v[prow]
                v = [F.sub(x, F.mul(f, y)) for x, y in zip(v, bcol)]
        piv = next((r for r in range(n) if not F.is_zero(v[r])), None)
        if piv is None:
            continue
        inv = F.inv(v[piv])
        v = [F.mul(inv, x) for x in v]
        basis.append(v)
        pivots.append(piv)
    r = len(basis)
    iota_m = [[basis[c][row] for c in range(r)] for row in range(n)]
    # pi = (iota restricted to pivot rows)^{-1} applied to P's pivot rows
    sq = [[iota_m[p][c] for c in range(r)] for p in pivots]
    sq_inv = mat_inverse(F, sq) if r else []
    P_piv = [[M[p][c] for c in range(n)] for p in pivots]
    pi_m = mat_mul(F, sq_inv, P_piv) if r else [[]]
    # parity of each basis column (columns of an even idempotent are
    # parity-homogeneous)
    pars = []
    for c in range(r):
        ps = {leg[row] for row in range(n) if not F.is_zero(iota_m[row][c])}
        if len(ps) != 1:
            raise ValueError("idempotent image basis is not parity-homogeneous")
        pars.append(ps.pop())
    zleg = tuple(pars)
    iota_t = GradedTensor.from_matrix(F, leg, zleg, iota_m)
    pi_t = GradedTensor.from_matrix(F, zleg, leg, pi_m if r else [[] for _ in range(0)])
    return iota_t, pi_t, zleg


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
    return StateSpace(delta, len(zleg), iota_t, pi_t, zleg)


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


def _z_embed(F: Field, spaces, zleg, offsets, nu) -> GradedTensor:
    """e_nu: Z_nu -> Z (block embedding into the total space)."""
    sp = spaces[nu]
    off = offsets[nu]
    M = [[F.one() if row == off + c else F.zero()
          for c in range(sp.dim)] for row in range(len(zleg))]
    return GradedTensor.from_matrix(F, zleg, sp.parities, M)


def z_algebra(A: GradedFrobeniusAlgebra) -> ZAlgebra:
    D = derive(A)
    F = A.field
    ns = state_space(A, NS)
    r = state_space(A, R_TYPE)
    spaces = {+1: ns, -1: r}
    offsets = {+1: 0, -1: ns.dim}
    dim = ns.dim + r.dim
    zleg = ns.parities + r.parities
    grading = (+1,) * ns.dim + (-1,) * r.dim
    embed = {nu: _z_embed(F, spaces, zleg, offsets, nu) for nu in (+1, -1)}
    # e_nu : Z_nu -> A and f_nu : A -> Z_nu, then padded into Z
    e = {nu: spaces[nu].iota for nu in (+1, -1)}
    f = {nu: spaces[nu].pi for nu in (+1, -1)}
    zero_mu = GradedTensor.zero(F, (zleg,), (zleg, zleg))
    mu_z = zero_mu
    for a, b in itertools.product((+1, -1), repeat=2):
        term = embed[a * b].compose(f[a * b]).compose(D.mu).compose(
            e[a].tensor(e[b])).compose(
            _z_project(F, embed[a]).tensor(_z_project(F, embed[b])))
        mu_z = mu_z.add(term)
    eta_z = embed[+1].compose(f[+1]).compose(D.eta)
    eps_z = D.eps.compose(e[+1]).compose(_z_project(F, embed[+1]))
    delta_z = GradedTensor.zero(F, (zleg, zleg), (zleg,))
    for a, b in itertools.product((+1, -1), repeat=2):
        term = (embed[a].compose(f[a])).tensor(embed[b].compose(f[b])).compose(
            D.Delta).compose(e[a * b]).compose(_z_project(F, embed[a * b]))
        delta_z = delta_z.add(term)
    n_z = GradedTensor.zero(F, (zleg,), (zleg,))
    for nu in (+1, -1):
        n_z = n_z.add(embed[nu].compose(f[nu]).compose(D.N).compose(e[nu])
                      .compose(_z_project(F, embed[nu])))
    chi_ns = D.mu.compose(D.q_plus.tensor(D.q_plus)).compose(D.Delta)\
        .compose(D.eta)
    chi_r = D.mu.compose(D.q_minus.tensor(D.q_minus)).compose(D.Delta)\
        .compose(D.eta)
    return ZAlgebra(A, ns, r, dim, grading, mu_z, eta_z, delta_z, eps_z,
                    n_z, chi_ns, chi_r)


def _z_project(F: Field, embed: GradedTensor) -> GradedTensor:
    """Block projection Z -> Z_nu (transpose of the 0/1 embedding)."""
    zleg = embed.out_legs[0]
    nleg = embed.in_legs[0]
    M = [[F.zero()] * len(zleg) for _ in range(len(nleg))]
    for (row, c), v in embed.data.items():
        M[c][row] = v
    return GradedTensor.from_matrix(F, nleg, zleg, M)


# -- closed forms -------------------------------------------------------
def _p_of(D: DerivedStructure, delta: str) -> GradedTensor:
    return D.q_plus if delta == NS else D.q_minus


def cylinder_closed_form(A: GradedFrobeniusAlgebra, delta: str,
                         eps: int) -> Amplitude:
    D = derive(A)
    pp = pi31(D)
    comp = D.b.compose(_p_of(D, delta).tensor(D.identity)).compose(
        D.N_eps(-eps).tensor(D.identity)).compose(pp.tensor(pp))
    labels = [(1, p) for p in range(3)] + [(2, p) for p in range(3)]
    return Amplitude(comp, 2, labels, (delta, delta))


def pants_closed_form(A: GradedFrobeniusAlgebra, deltas: tuple[str, str, str],
                      eps1: int, eps2: int) -> Amplitude:
    if nu_of(deltas[0]) * nu_of(deltas[1]) * nu_of(deltas[2]) != 1:
        raise ValueError("no spin structure: product of boundary types "
                         "must be +1")
    D = derive(A)
    # b o (id (x) mu) o proj o (N (x) N (x) id) o (pi31 (x) pi31 (x) pi31),
    # built one boundary leg at a time without the 3-fold tensor products:
    # first the 3-input functional, then pi31 on each leg, last leg first
    # so that the earlier leg positions stay put
    legmaps = (_p_of(D, deltas[0]).compose(D.N_eps(eps1)),
               _p_of(D, deltas[1]).compose(D.N_eps(eps2)),
               _p_of(D, deltas[2]))
    comp = D.b.compose(D.identity.tensor(D.mu))
    for i, m in enumerate(legmaps):
        comp = _precompose_leg(comp, i, m)
    pp = pi31(D)
    for i in (2, 1, 0):
        comp = _precompose_leg(comp, i, pp)
    labels = [(b, p) for b in (1, 2, 3) for p in range(3)]
    return Amplitude(comp, 3, labels, tuple(deltas))


def _precompose_leg(f: GradedTensor, i: int, m: GradedTensor) -> GradedTensor:
    """f o (id^(x)i (x) m (x) id^(x)...) for a tensor f without output
    legs and a map m with one output leg: input leg i of f becomes m's
    input legs.  m is even, so no Koszul sign enters."""
    if f.n_out or m.n_out != 1 or m.out_legs[0] != f.in_legs[i]:
        raise ValueError("leg mismatch in _precompose_leg")
    F = f.field
    by_out: dict[int, list] = {}
    for key, w in m.data.items():
        by_out.setdefault(key[0], []).append((key[1:], w))
    out = GradedTensor(F, (), f.in_legs[:i] + m.in_legs + f.in_legs[i + 1:],
                       {})
    for key, v in f.data.items():
        head, tail = key[:i], key[i + 1:]
        for mk, w in by_out.get(key[i], ()):
            out._add_to(head + mk + tail, F.mul(v, w))
    return out


def torus_closed_form(A: GradedFrobeniusAlgebra, delta: str, eps: int):
    D = derive(A)
    comp = D.eps.compose(D.mu).compose(
        (_p_of(D, delta).compose(D.N_eps(-eps))).tensor(D.identity)).compose(
        D.Delta).compose(D.eta)
    return comp.scalar_value()


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
def _closed_state_sum(tri: MarkedTriangulation, A: GradedFrobeniusAlgebra,
                      tensors):
    """2^V times the contraction of the closed surface tri with c on every
    edge and t on every face, where (c, t) = tensors(derive(A), 1/2)."""
    if not tri.is_closed():
        raise ValueError("closed surface required")
    F = A.field
    if F.characteristic == 2:
        raise ValueError("the weight 1/2 needs characteristic != 2")
    c, t = tensors(derive(A), F.inv(F.of(2)))
    graph = build_graph(tri, {eid: -1 for eid in tri.edges})
    value = contract_network(graph, plan_contraction(graph),
                             dict.fromkeys(graph.wires, c), t).scalar_value()
    return F.mul(value, F.of(2 ** len(tri.vertices)))


def plus_part_state_sum(tri: MarkedTriangulation, A: GradedFrobeniusAlgebra):
    """Oriented state sum of A_+ = im(1/2 (id + N)) with vertex weight 2.

    The oriented sum places the copairing of A_+'s own Frobenius form on
    every edge and its triangle tensor on every triangle; no spin signs
    enter.
    """
    def plus_part(D: DerivedStructure, half):
        F = A.field
        iota_t, pi_t, zleg = _split_idempotent(
            F, D.identity.add(D.N).scale(half), D.leg)
        # Frobenius data of A_+ restricted through (iota, pi)
        mu_p = pi_t.compose(D.mu).compose(iota_t.tensor(iota_t))
        b_p = D.eps.compose(iota_t).compose(mu_p)
        t_p = b_p.compose(mu_p.tensor(GradedTensor.identity(F, zleg)))
        return copairing(b_p), t_p
    return _closed_state_sum(tri, A, plus_part)


def statistical_sign_sum(tri: MarkedTriangulation, A: GradedFrobeniusAlgebra):
    """(1/2)^E 2^V  sum over all 2^E sign assignments s of T'_A(s).

    As sum_s prod_e c_{s(e)} = prod_e (c_+ + c_-), this is 2^V times one
    contraction with c_sym = (c_+ + c_-)/2 on every edge.  c_+ and c_- are
    even, so the Koszul signs depend on entry keys only and stay linear.
    """
    return _closed_state_sum(tri, A, lambda D, half: (
        D.c(+1).add(D.c(-1)).scale(half), D.t))
