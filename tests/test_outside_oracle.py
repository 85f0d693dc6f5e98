"""formalab's group invariants against sympy's, an oracle written elsewhere.

Each catalog group, and each proper quotient and re-indexed subgroup of
the small ones, becomes a sympy PermutationGroup on its right regular representation: generator g
acts on the element indices by x -> x g, the column `G.mul[:, g]` of the
table.
"""

import pytest

from formalab import (
    all_subgroups,
    catalog_groups,
    centre,
    derived_subgroup,
    is_nilpotent,
    is_soluble,
    normal_subgroups,
    quotient_group,
)
from formalab.groups import conjugacy_classes
from formalab.lattice import derived_series, subgroup_as_group

pytest.importorskip("sympy")
from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402


def _regular_representation(G):
    gens = [Permutation(G.mul[:, g].tolist()) for g in G.gen_idx]
    return PermutationGroup(gens or [Permutation(list(range(G.n)))])


def test_catalog_invariants_match_sympy():
    groups = catalog_groups()
    assert len(groups) == 65
    mismatches = []
    for G in groups:
        P = _regular_representation(G)
        ours = (G.n, centre(G).order, derived_subgroup(G).order, is_soluble(G),
                is_nilpotent(G))
        theirs = (P.order(), P.center().order(), P.derived_subgroup().order(),
                  P.is_solvable, P.is_nilpotent)
        if ours != theirs:
            mismatches.append((G.name, ours, theirs))
    assert mismatches == []


def test_catalog_class_counts_and_derived_lengths_match_sympy():
    mismatches = []
    for G in catalog_groups():
        P = _regular_representation(G)
        ours = (len(conjugacy_classes(G)), len(derived_series(G)))
        theirs = (len(P.conjugacy_classes()), len(P.derived_series()))
        if ours != theirs:
            mismatches.append((G.name, ours, theirs))
    assert mismatches == []


def test_quotient_invariants_match_sympy():
    # every G/N with 1 < N < G, for the catalog groups of order <= 48
    mismatches = []
    count = 0
    for G in catalog_groups():
        if G.n > 48:
            continue
        for N in normal_subgroups(G):
            if N.order in (1, G.n):
                continue
            Q = quotient_group(G, N).target
            P = _regular_representation(Q)
            ours = (Q.n, centre(Q).order, derived_subgroup(Q).order,
                    len(conjugacy_classes(Q)))
            theirs = (P.order(), P.center().order(), P.derived_subgroup().order(),
                      len(P.conjugacy_classes()))
            count += 1
            if ours != theirs:
                mismatches.append((G.name, N.order, ours, theirs))
    assert count > 300
    assert mismatches == []


def test_subgroup_invariants_match_sympy():
    # every subgroup H of the catalog groups of order <= 48, re-indexed: one
    # shared group now answers for every H with its table
    mismatches = []
    count = 0
    for G in catalog_groups():
        if G.n > 48:
            continue
        for H in all_subgroups(G).subgroups:
            S, _ = subgroup_as_group(G, H)
            P = _regular_representation(S)
            ours = (S.n, centre(S).order, derived_subgroup(S).order, is_soluble(S),
                    is_nilpotent(S))
            theirs = (P.order(), P.center().order(), P.derived_subgroup().order(),
                      P.is_solvable, P.is_nilpotent)
            count += 1
            if ours != theirs:
                mismatches.append((G.name, H.order, ours, theirs))
    assert count > 800
    assert mismatches == []
