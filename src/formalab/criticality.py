"""F(p)-critical group detection and boundary-condition scanning.

A scan is evidence, not proof: the boundary condition quantifies over all
finite groups, while these routines only search a fixed catalog.  For the
formations whose boundary condition is a theorem, a nonempty scan means an
implementation bug, which the test suite exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import NoSatellite
from .formations import FormationSpec, is_member, satellite_member
from .groups import Group
from .lattice import all_subgroups, subgroup_as_group


@dataclass(frozen=True)
class CriticalWitness:
    """A catalog group that is F(p)-critical yet outside F."""

    group: str
    formation: FormationSpec
    p: int
    in_f: bool


def is_class_critical(G: Group, class_test: Callable[[Group], bool]) -> bool:
    """G fails the test while every proper subgroup passes it.

    `class_test` must describe a class of groups, closed under isomorphism:
    it is asked of one member of each conjugacy class of proper subgroups,
    and its answer stands for the whole class.
    """
    if class_test(G):
        return False
    lat = all_subgroups(G)
    passed: set[int] = set()  # class ids
    for s, c in zip(lat.subgroups, lat.classes):
        if s.order == G.n or c in passed:
            continue
        sub, _ = subgroup_as_group(G, s)
        if not class_test(sub):
            return False
        passed.add(c)
    return True


def boundary_scan(F: FormationSpec, pi: Iterable[int],
                  catalog: Sequence[Group]) -> list[CriticalWitness]:
    """All catalog groups violating the pi-boundary condition for F.

    A violation is a group of `catalog` that is F(p)-critical for some p in
    pi but lies outside F.  An empty result is catalog-scale evidence only,
    not a proof.
    """
    if not F.has_satellite:
        raise NoSatellite(f"{F} has no local satellite table")
    witnesses = []
    for G in catalog:
        if is_member(F, G):
            continue
        for p in sorted(set(pi)):
            if is_class_critical(G, lambda H: satellite_member(F, p, H)):
                witnesses.append(CriticalWitness(
                    group=G.name, formation=F, p=p, in_f=False))
                break
    return witnesses
