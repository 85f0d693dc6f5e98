"""Chief series, F-centrality of chief factors, and the hypercentre Z_piF.

Normal structure needs no subgroup lattice.  It is read off the distinct
normal closures of the conjugacy classes, which
`groups.class_normal_closures` computes once per group.  The minimal
normal subgroups over a normal Z are the minimal ones among the products
Z<x^G>, and the hypercentre absorbs central minimal normal subgroups as
their product; both products are `groups.normal_product`.
The quotients G/C_G(H/K) that both routes
below act on come from the memoised `quotient_group`, so each is one
shared group; when C_G(H/K) = 1 it is G itself.

Centrality is computed by two independent routes: the canonical-satellite
test on G/C_G(H/K), and direct construction of (H/K) x| (G/C_G(H/K))
followed by a formation membership test.  The extension depends only on
the chief factor, so it is built once per factor and shared by every
formation; one over the order cap is refused before it is built.  The
two routes' agreement on the whole catalog is one of the acceptance gates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClosureCapExceeded, NotNormal, PreconditionViolated
from .formations import FormationSpec, is_member, satellite_member
from .groups import (
    ORDER_CAP,
    Group,
    SubgroupSet,
    _shared,
    bits_of,
    class_normal_closures,
    closure_elements,
    is_normal,
    memo,
    normal_product,
    quotient_group,
    semidirect_product,
)
from .lattice import (
    minimal_members,
    normal_subgroups,
    prime_factors,
    section_centralizer,
    subgroup_as_group,
    translate_into,
)


@dataclass(frozen=True)
class ChiefFactor:
    """A chief factor H/K of G: both normal, nothing normal strictly between."""

    G: Group
    H: SubgroupSet
    K: SubgroupSet

    def __post_init__(self):
        if not (self.K < self.H):
            raise PreconditionViolated("need K < H")

    @property
    def order(self) -> int:
        return self.H.order // self.K.order

    @property
    def primes(self) -> tuple[int, ...]:
        return prime_factors(self.order)


@dataclass(frozen=True)
class ChiefSeries:
    G: Group
    terms: tuple[SubgroupSet, ...]

    @property
    def factors(self) -> tuple[ChiefFactor, ...]:
        return tuple(ChiefFactor(self.G, h, k)
                     for k, h in zip(self.terms, self.terms[1:]))


@memo("min_norm_over")
def minimal_normals_over(G: Group, Z: SubgroupSet) -> list[SubgroupSet]:
    """Lifts of the minimal normal subgroups of G/Z, in canonical order.

    Each candidate is the product Z<x^G> of the normal subgroup Z with the
    memoised normal closure of a class outside Z (`class_normal_closures`);
    minimal candidates are exactly the lifted minimal normals.
    """
    cands: dict[int, SubgroupSet] = {}
    for ncl in class_normal_closures(G):
        if not ncl.issubset(Z):
            N = normal_product(G, (Z, ncl))
            cands.setdefault(N.bits, N)
    return minimal_members(cands.values())


def chief_series(G: Group, choose: str = "first") -> ChiefSeries:
    """Ascending chief series built from canonically-least minimal normals.

    `choose="last"` picks the canonically-greatest minimal normal at each
    step instead; used to exercise Jordan-Hoelder independence.
    """
    return chief_series_through(G, G.trivial_subgroup(), choose=choose)


def chief_series_through(G: Group, N: SubgroupSet,
                         choose: str = "first") -> ChiefSeries:
    """Chief series of G passing through the normal subgroup N."""
    if not is_normal(G, N):
        raise NotNormal("series can only be routed through a normal subgroup")
    pick = 0 if choose == "first" else -1
    terms = [G.trivial_subgroup()]
    while terms[-1].order < G.n:
        cur = terms[-1]
        mins = minimal_normals_over(G, cur)
        if cur.bits & N.bits == cur.bits and cur.bits != N.bits:
            inside = [m for m in mins if m.issubset(N)]
            terms.append(inside[pick])
        else:
            terms.append(mins[pick])
    return ChiefSeries(G, tuple(terms))


# -- centrality -------------------------------------------------------------

def is_f_central_satellite(G: Group, fac: ChiefFactor,
                           F: FormationSpec) -> bool:
    """Satellite route: G/C_G(H/K) in F(p) for every p dividing |H/K|."""
    C = section_centralizer(G, fac.H, fac.K)
    A = quotient_group(G, C).target
    return all(satellite_member(F, p, A) for p in fac.primes)


def is_f_central_semidirect(G: Group, fac: ChiefFactor,
                            F: FormationSpec) -> bool:
    """Definition route: (H/K) x| (G/C_G(H/K)) in F.

    The extension depends on the chief factor alone, so it is built once
    per factor by `section_extension` and shared by every formation asked
    about it.  Raises ClosureCapExceeded when the product is too large;
    callers may fall back to the satellite route.
    """
    return is_member(F, section_extension(G, fac.H, fac.K))


@memo("sec_ext")
def section_extension(G: Group, H: SubgroupSet, K: SubgroupSet) -> Group:
    """(H/K) x| (G/C_G(H/K)), with G/C acting on H/K by conjugation.

    Refused with ClosureCapExceeded, before the quotients and the action
    are built, when |H/K| * |G:C_G(H/K)| exceeds ORDER_CAP.  The product
    is the one derived group with its table (`groups._shared`).
    """
    C = section_centralizer(G, H, K)
    order = H.order // K.order * (G.n // C.order)
    if order > ORDER_CAP:
        raise ClosureCapExceeded(
            f"section extension order {order} exceeds cap {ORDER_CAP}")
    qa = quotient_group(G, C)
    A = qa.target
    hgrp, hel = subgroup_as_group(G, H)
    qv = quotient_group(hgrp, translate_into(G, H, K))
    V = qv.target
    # conjugation action of A on V via least coset representatives; hel is
    # ascending, so searchsorted finds each conjugate's index in H
    vreps = hel[np.unique(qv.proj, return_index=True)[1]]
    areps = np.unique(qa.proj, return_index=True)[1]
    conj = G.mul[G.mul[areps[:, None], vreps], G.inv[areps][:, None]]
    action = qv.proj[np.searchsorted(hel, conj)]
    return _shared(semidirect_product(V, A, action, name="section-extension"))


def is_f_central(G: Group, fac: ChiefFactor, F: FormationSpec) -> bool:
    return _is_f_central(G, fac.H, fac.K, F)


@memo("central")
def _is_f_central(G: Group, H: SubgroupSet, K: SubgroupSet,
                  F: FormationSpec) -> bool:
    fac = ChiefFactor(G, H, K)
    if F.has_satellite:
        return is_f_central_satellite(G, fac, F)
    return is_f_central_semidirect(G, fac, F)


# -- hypercentre ------------------------------------------------------------

def _restrict_pi(G: Group, pi) -> frozenset[int]:
    gp = prime_factors(G.n)
    if pi is None:
        return frozenset(gp)
    return frozenset(pi) & frozenset(gp)


def z_pi_f(G: Group, F: FormationSpec, pi=None, absorb: str = "all") -> SubgroupSet:
    """The piF-hypercentre: fixed point of absorbing exempt/central factors.

    pi=None means all primes dividing |G|.  `absorb` controls the
    absorption schedule ("all" per round, or "first"/"last" one at a
    time); the result is schedule-independent, which the tests assert.
    """
    pi = _restrict_pi(G, pi)
    Z = G.trivial_subgroup()
    while Z.order < G.n:
        mins = minimal_normals_over(G, Z)
        if absorb == "last":
            mins = list(reversed(mins))
        passing = []
        for N in mins:
            if pi.isdisjoint(prime_factors(N.order // Z.order)) \
                    or _is_f_central(G, N, Z, F):
                passing.append(N)
                if absorb != "all":
                    break
        if not passing:
            break
        Z = passing[0] if len(passing) == 1 else normal_product(G, passing)
    return Z


def z_f(G: Group, F: FormationSpec) -> SubgroupSet:
    return z_pi_f(G, F, None)


def z_pi_f_oracle(G: Group, F: FormationSpec, pi=None) -> SubgroupSet:
    """Brute-force reading: join of all normal piF-hypercentral subgroups."""
    pi = _restrict_pi(G, pi)
    passing = [G.trivial_subgroup()]
    for N in normal_subgroups(G):
        if N.order == 1:
            continue
        series = chief_series_through(G, N)
        ok = True
        for fac in series.factors:
            if not fac.H.issubset(N):
                break
            if set(fac.primes) & pi and not is_f_central(G, fac, F):
                ok = False
                break
        if ok:
            passing.append(N)
    elems = np.concatenate([s.elements for s in passing])
    return SubgroupSet(G, bits_of(closure_elements(G, elems)), check=False)
