"""F-maximal subgroups, Int_F(G), K-F-subnormality, and Int*_F(G)."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormalabError
from .formations import FormationSpec, is_member
from .groups import Group, SubgroupSet, is_normal, memo, quotient_group
from .lattice import (
    all_subgroups,
    core,
    intersection,
    maximal_members,
    subgroup_as_group,
    translate_into,
)


@dataclass(frozen=True)
class FMaxReport:
    """All F-maximal subgroups of one group plus the derived intersections."""

    formation: FormationSpec
    f_maximal: tuple[SubgroupSet, ...]
    knormal_flags: tuple[bool, ...]
    int_f: SubgroupSet
    int_star: SubgroupSet


def _in_formation(G: Group, H: SubgroupSet, F: FormationSpec) -> bool:
    sub, _ = subgroup_as_group(G, H)
    return is_member(F, sub)


@memo("f_maximal")
def f_maximal_subgroups(G: Group, F: FormationSpec) -> list[SubgroupSet]:
    """Inclusion-maximal members of {H <= G : H in F}, in lattice order,
    from the downward scan of `maximal_members`.  F is closed under
    isomorphism, so membership is tested once per conjugacy class of
    subgroups.
    """
    lat = all_subgroups(G)
    class_of = dict(zip([s.bits for s in lat.subgroups], lat.classes))
    in_f: dict[int, bool] = {}  # class id -> membership verdict

    def keep(s: SubgroupSet) -> bool:
        c = class_of[s.bits]
        if c not in in_f:
            in_f[c] = _in_formation(G, s, F)
        return in_f[c]

    return maximal_members(lat.subgroups, keep)


def int_f(G: Group, F: FormationSpec) -> SubgroupSet:
    """Intersection of all F-maximal subgroups; always normal in G."""
    res = intersection(G, f_maximal_subgroups(G, F))
    if not is_normal(G, res):
        raise FormalabError("Int_F must be conjugation-invariant")
    return res


@memo("kstep")
def _step_admissible(G: Group, A: SubgroupSet, B: SubgroupSet,
                     F: FormationSpec) -> bool:
    """A < B is a valid chain step: A normal in B, or B/core_B(A) in F."""
    c = core(G, A, B)
    # core equals A means A is normal in B
    return c.bits == A.bits or _quotient_in(G, B, c, F)


@memo("kquot")
def _quotient_in(G: Group, B: SubgroupSet, N: SubgroupSet,
                 F: FormationSpec) -> bool:
    """B/N in F, for N <= B normal in B."""
    bgrp, _ = subgroup_as_group(G, B)
    return is_member(F, quotient_group(bgrp, translate_into(G, B, N)).target)


def is_k_f_subnormal(G: Group, H: SubgroupSet, F: FormationSpec) -> bool:
    """Reachability of G from H through normal-or-core-quotient-in-F steps."""
    if H.order == G.n:
        return True
    lat = all_subgroups(G)
    chain = [s for s in lat.subgroups if H.bits & s.bits == H.bits]
    full_bits = (1 << G.n) - 1
    reached = {H.bits}
    frontier = [H]
    while frontier:
        A = frontier.pop()
        for B in chain:
            if B.bits in reached or A.bits & B.bits != A.bits or A.bits == B.bits:
                continue
            if _step_admissible(G, A, B, F):
                if B.bits == full_bits:
                    return True
                reached.add(B.bits)
                frontier.append(B)
    return False


def _knormal_flags(G: Group, members, F: FormationSpec) -> list[bool]:
    """`is_k_f_subnormal` of each member, asked once per conjugacy class of
    subgroups: an automorphism of G maps admissible chain steps to
    admissible ones, so conjugate subgroups get the same answer."""
    lat = all_subgroups(G)
    class_of = dict(zip([s.bits for s in lat.subgroups], lat.classes))
    verdict: dict[int, bool] = {}  # class id -> K-F-subnormality
    flags = []
    for s in members:
        c = class_of[s.bits]
        if c not in verdict:
            verdict[c] = is_k_f_subnormal(G, s, F)
        flags.append(verdict[c])
    return flags


def int_star_f(G: Group, F: FormationSpec) -> SubgroupSet:
    """Intersection of the non-K-F-subnormal F-maximal subgroups."""
    return f_max_report(G, F).int_star


def f_max_report(G: Group, F: FormationSpec) -> FMaxReport:
    """The F-maximal subgroups of G with their K-F-subnormality flags, and
    Int_F(G) from `int_f`, under its normality postcondition."""
    fmax = tuple(f_maximal_subgroups(G, F))
    flags = tuple(_knormal_flags(G, fmax, F))
    return FMaxReport(
        formation=F,
        f_maximal=fmax,
        knormal_flags=flags,
        int_f=int_f(G, F),
        int_star=intersection(G, [s for s, fl in zip(fmax, flags) if not fl]),
    )
