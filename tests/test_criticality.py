"""Critical-group detection and boundary-condition scans."""

import pytest

from formalab import (
    NA,
    NIL,
    SUP,
    SYLTOWER,
    NoSatellite,
    boundary_scan,
    catalog_group,
    catalog_groups,
    is_class_critical,
    is_member,
    p_dec,
    p_nilp,
    pi_closed,
    satellite_member,
)
from formalab.lattice import all_subgroups, subgroup_as_group


def test_s3_is_minimal_nonnilpotent(s3):
    assert is_class_critical(s3, lambda H: is_member(NIL, H))


def test_q8_is_not_critical(q8):
    # Q8 is itself nilpotent
    assert not is_class_critical(q8, lambda H: is_member(NIL, H))


def test_a4_is_sup3_critical(a4):
    assert is_class_critical(a4, lambda H: satellite_member(SUP, 3, H))
    assert not is_member(SUP, a4)


def test_s4_is_not_sup3_critical(s4):
    # its subgroup A4 already fails Sup(3)
    assert not is_class_critical(s4, lambda H: satellite_member(SUP, 3, H))


def test_scan_sup3_finds_a4():
    cat = [catalog_group(n) for n in ("S3", "A4", "S4", "C12")]
    names = {w.group for w in boundary_scan(SUP, {3}, cat)}
    assert "A4" in names
    assert "S3" not in names


def test_scan_nil_empty():
    cat = [catalog_group(n) for n in ("S3", "A4", "S4", "SL(2,3)", "D12")]
    assert boundary_scan(NIL, {2, 3, 5}, cat) == []


def test_scan_pdec_and_pnilp_empty():
    cat = [catalog_group(n) for n in ("S3", "A4", "S4", "C3:C8", "C7:C3")]
    assert boundary_scan(p_dec(2), {2, 3, 5}, cat) == []
    assert boundary_scan(p_nilp(3), {3}, cat) == []
    assert boundary_scan(NA, {2, 3, 5}, cat) == []


def test_scan_piclosed_finds_minimal_non_closed():
    # S3 has no normal Sylow 2-subgroup but every proper subgroup does
    cat = [catalog_group(n) for n in ("S3", "C6", "D8")]
    names = {w.group for w in boundary_scan(pi_closed({2}), {2}, cat)}
    assert "S3" in names


def test_scan_requires_satellite():
    with pytest.raises(NoSatellite):
        boundary_scan(SYLTOWER, {2}, [catalog_group("S3")])


def test_witness_fields():
    w = boundary_scan(SUP, {3}, [catalog_group("A4")])[0]
    assert w.group == "A4" and w.p == 3 and not w.in_f


# -- the per-class scan against the per-member loop -----------------------------

def _is_class_critical_by_member(G, class_test):
    """Reference: the test asked of every proper subgroup, conjugate or not."""
    if class_test(G):
        return False
    for s in all_subgroups(G).subgroups:
        if s.order < G.n and not class_test(subgroup_as_group(G, s)[0]):
            return False
    return True


@pytest.mark.parametrize("F", [NIL, SUP, NA, p_dec(2), p_nilp(3)], ids=str)
def test_is_class_critical_matches_per_member_loop_catalogwide(F):
    tests = [lambda H: is_member(F, H)]
    tests += [lambda H, p=p: satellite_member(F, p, H) for p in (2, 3, 5)]
    for G in catalog_groups():
        for class_test in tests:
            assert is_class_critical(G, class_test) == \
                _is_class_critical_by_member(G, class_test), G.name
