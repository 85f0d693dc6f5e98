"""F-maximal subgroups, their intersection, and K-F-subnormality."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalab import (
    NA,
    NIL,
    SUP,
    SYLTOWER,
    catalog_group,
    catalog_groups,
    f_max_report,
    f_maximal_subgroups,
    int_f,
    int_star_f,
    is_k_f_subnormal,
    is_member,
    p_dec,
    p_nilp,
    p_sup,
    parse_formation,
)
import formalab.intersections as intersections_mod
from formalab.errors import FormalabError
from formalab.groups import generated_subgroup, group_from_permutations, is_normal
from formalab.intersections import _in_formation
from formalab.lattice import (
    all_subgroups,
    intersection,
    subgroup_as_group,
)

# the CLI formation vocabulary, every entry subgroup-closed
VOCABULARY = tuple(parse_formation(name) for name in (
    "triv", "all", "sol", "nil", "sup", "na", "syltower", "psup:2", "psup:3",
    "pnilp:2", "pnilp:3", "pdec:2", "pdec:3", "piclosed:2", "piclosed:3",
    "piclosed:2,3", "gpi:2", "gpi:2,3", "spi:2,3", "spi:3", "aexp:2",
    "aexp:6", "nilpow:1", "nilpow:2"))


def test_f_maximal_nil_of_s3(s3):
    fam = f_maximal_subgroups(s3, NIL)
    assert sorted(s.order for s in fam) == [2, 2, 2, 3]


def test_f_maximal_sup_of_s4(s4):
    fam = f_maximal_subgroups(s4, SUP)
    assert sorted(s.order for s in fam) == [6, 6, 6, 6, 8, 8, 8]


def test_f_maximal_members_are_in_f(s4):
    for s in f_maximal_subgroups(s4, SUP):
        sub, _ = subgroup_as_group(s4, s)
        assert is_member(SUP, sub)


def test_f_maximal_on_member_is_whole_group(q8):
    fam = f_maximal_subgroups(q8, NIL)
    assert len(fam) == 1 and fam[0].order == 8


def test_int_examples(s3, s4, sl23):
    assert int_f(s3, NIL).order == 1
    assert int_f(s4, SUP).order == 1
    assert int_f(sl23, NIL).order == 2


def test_int_is_normal():
    for name in ("S4", "SL(2,3)", "D12", "C3xA4"):
        G = catalog_group(name)
        for F in (NIL, SUP, NA):
            assert is_normal(G, int_f(G, F))


def test_int_sup_of_ex324(ex324):
    from formalab import designated_module
    assert int_f(ex324, SUP).bits == designated_module(ex324).bits
    assert int_f(ex324, p_sup(3)).order == 1


def test_k_subnormal_basics(s3):
    subs = all_subgroups(s3).subgroups
    c3 = [s for s in subs if s.order == 3][0]
    c2 = [s for s in subs if s.order == 2][0]
    assert is_k_f_subnormal(s3, c3, NIL)     # normal step C3 <| S3
    assert not is_k_f_subnormal(s3, c2, NIL)
    assert is_k_f_subnormal(s3, c2, SUP)     # S3 itself is supersoluble
    assert is_k_f_subnormal(s3, s3.full_subgroup(), NIL)


def test_k_subnormal_sylow2_of_s4(s4):
    # D8 < S4 with core V4 and S4/V4 = S3 not nilpotent, but the step
    # D8 <| ... fails at the top only through the quotient route
    d8 = [s for s in all_subgroups(s4).subgroups if s.order == 8][0]
    assert is_k_f_subnormal(s4, d8, SUP)     # S4/core = S3 is supersoluble
    assert not is_k_f_subnormal(s4, d8, NIL)


def test_int_star_equals_int_examples(s3, s4):
    assert int_star_f(s3, NIL).bits == int_f(s3, NIL).bits
    assert int_star_f(s4, SUP).bits == int_f(s4, SUP).bits


def test_int_star_on_member_is_whole_group(q8):
    # every F-maximal subgroup (the group itself) is K-F-subnormal,
    # so the intersected family is empty and the convention yields G
    assert int_star_f(q8, NIL).order == 8


def test_report_consistency(s4):
    rep = f_max_report(s4, SUP)
    assert rep.int_f.bits == int_f(s4, SUP).bits
    assert rep.int_star.bits == int_star_f(s4, SUP).bits
    assert len(rep.f_maximal) == len(rep.knormal_flags) == 7
    # the three Sylow-2 subgroups are K-Sup-subnormal, the four S3's are not
    assert sorted(rep.knormal_flags) == [False] * 4 + [True] * 3


def test_int_syltower(s4):
    assert int_f(s4, SYLTOWER).order == 1


# -- the downward scan against the exhaustive scan ----------------------------

def _maximal_members_pairwise(family):
    """Reference: the members inside no other member, in order."""
    return [s for s in family
            if not any(s.bits != t.bits and s.bits & t.bits == s.bits for t in family)]


def _exhaustive_f_maximal(G, F):
    """Reference: the maximal members of every lattice member in F."""
    return _maximal_members_pairwise([s for s in all_subgroups(G).subgroups
                                      if _in_formation(G, s, F)])


@pytest.mark.parametrize("F", VOCABULARY, ids=str)
def test_f_maximal_matches_exhaustive_scan_catalogwide(F):
    for G in catalog_groups():
        assert [s.bits for s in f_maximal_subgroups(G, F)] == \
            [s.bits for s in _exhaustive_f_maximal(G, F)], G.name


_two_perms = st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.just(d), st.permutations(range(1, d + 1)), st.permutations(range(1, d + 1))))


@settings(max_examples=25, deadline=None)
@given(_two_perms)
def test_f_maximal_matches_exhaustive_scan_on_random_groups(spec):
    degree, a, b = spec
    G = group_from_permutations(degree, [a, b])
    for F in VOCABULARY:
        assert [s.bits for s in f_maximal_subgroups(G, F)] == \
            [s.bits for s in _exhaustive_f_maximal(G, F)], F


@pytest.mark.parametrize("F", VOCABULARY, ids=str)
def test_menu_formations_are_subgroup_closed(F):
    # the downward scan skips every subgroup of an F-maximal subgroup
    for G in catalog_groups():
        if G.n > 48:
            continue
        for M in f_maximal_subgroups(G, F):
            for s in all_subgroups(G).subgroups:
                if s.issubset(M):
                    assert _in_formation(G, s, F), (G.name, M.order, s.order)


# -- per-class K-F flags against the per-member test -----------------------------

KF_FORMATIONS = (NIL, SUP, NA, SYLTOWER, p_nilp(2), p_nilp(3), p_dec(2))


@pytest.mark.parametrize("F", KF_FORMATIONS, ids=str)
def test_knormal_flags_match_per_member_test_catalogwide(F):
    for G in catalog_groups():
        rep = f_max_report(G, F)
        want = [is_k_f_subnormal(G, s, F) for s in rep.f_maximal]
        assert list(rep.knormal_flags) == want, G.name
        star = intersection(G, [s for s, fl in zip(rep.f_maximal, want) if not fl])
        assert int_star_f(G, F).bits == rep.int_star.bits == star.bits, G.name


def test_f_max_report_checks_that_int_f_is_normal(s4, monkeypatch):
    # f_max_report reads Int_F from int_f, so a non-normal intersection
    # fails the same postcondition on both paths
    transposition = generated_subgroup(s4, [s4.gen_idx[1]])
    assert not is_normal(s4, transposition)
    monkeypatch.setattr(intersections_mod, "f_maximal_subgroups",
                        lambda G, F: [transposition])
    with pytest.raises(FormalabError, match="Int_F"):
        f_max_report(s4, NIL)
