"""Formation membership, residuals, satellite tables, CLI-name parsing."""

import pytest

from formalab import (
    ALL,
    NA,
    NIL,
    SOL,
    SUP,
    SYLTOWER,
    TRIV,
    FormationSpec,
    NoSatellite,
    a_exp,
    catalog_group,
    catalog_groups,
    g_pi,
    is_member,
    nil_pow,
    p_dec,
    p_nilp,
    p_sup,
    parse_formation,
    pi_closed,
    residual,
    s_pi,
    satellite_member,
)
from formalab.errors import PreconditionViolated
from formalab.formations import _SATELLITE_FREE, _TAGS
from formalab.groups import quotient_group
from formalab.lattice import all_subgroups, frattini_subgroup, subgroup_as_group

MENU = (TRIV, ALL, SOL, NIL, SUP, NA, SYLTOWER, p_sup(3), p_nilp(2),
        p_nilp(3), p_dec(2), pi_closed({2}), g_pi({2, 3}), nil_pow(2))


def test_parse_round_trip():
    for F in MENU:
        assert parse_formation(F.cli_name) == F
    assert parse_formation("piclosed:2,3") == pi_closed({2, 3})
    assert parse_formation("spi:2,3") == s_pi({2, 3})
    assert parse_formation("aexp:6") == a_exp(6)


# one valid value of each parameter field
_FIELD_VALUE = {"p": 2, "pi": frozenset({2, 3}), "r": 2, "exp": 6}


def _representative(tag):
    takes = _TAGS[tag]
    if takes is None:
        return FormationSpec(tag)
    return FormationSpec(tag, **{takes: _FIELD_VALUE[takes]})


@pytest.mark.parametrize("tag", list(_TAGS))
def test_every_tag_round_trips(tag):
    F = _representative(tag)
    assert F.cli_name.partition(":")[0] == tag.lower()
    assert parse_formation(F.cli_name) == F
    assert parse_formation(F.cli_name.upper()) == F


@pytest.mark.parametrize("tag", list(_TAGS))
def test_every_tag_has_a_membership_route(s4, tag):
    F = _representative(tag)
    assert is_member(F, s4) in (True, False)
    if tag in _SATELLITE_FREE:
        with pytest.raises(NoSatellite):
            satellite_member(F, 2, s4)
    else:
        assert satellite_member(F, 2, s4) in (True, False)


@pytest.mark.parametrize("name", ["sup:3", "nil:7", "na:2", "syltower:9", "nil:"])
def test_parameterless_name_refuses_a_parameter(name):
    with pytest.raises(PreconditionViolated, match="takes no parameter"):
        parse_formation(name)


@pytest.mark.parametrize("tag, fields", [
    ("Nil", {"p": 3}), ("pNilp", {"p": 2, "r": 1}), ("Sup", {"pi": frozenset({2})}),
    ("NilPow", {"r": 1, "exp": 2}),
], ids=["nil-p", "pnilp-r", "sup-pi", "nilpow-exp"])
def test_spec_refuses_a_field_its_tag_does_not_take(tag, fields):
    with pytest.raises(PreconditionViolated, match="takes no"):
        FormationSpec(tag, **fields)


def test_parse_rejects_garbage():
    with pytest.raises(PreconditionViolated):
        parse_formation("wibble")
    with pytest.raises(PreconditionViolated):
        parse_formation("pnilp:x")


def test_spec_validation():
    with pytest.raises(PreconditionViolated):
        FormationSpec("pNilp", p=6)
    with pytest.raises(PreconditionViolated):
        FormationSpec("PiClosed")
    with pytest.raises(PreconditionViolated):
        FormationSpec("NilPow", r=-1)


@pytest.mark.parametrize("name", ["piclosed:4", "gpi:1", "spi:0,3", "gpi:2,-3"])
def test_pi_formations_need_primes(name):
    with pytest.raises(PreconditionViolated):
        parse_formation(name)


def test_membership_table(s3, s4, a4, q8, sl23):
    A5 = catalog_group("A5")
    assert is_member(NIL, q8) and not is_member(NIL, s3)
    assert is_member(SUP, s3) and not is_member(SUP, s4)
    assert is_member(NA, s3) and is_member(NA, sl23) and not is_member(NA, s4)
    assert is_member(SYLTOWER, s3) and not is_member(SYLTOWER, a4)
    assert is_member(SOL, s4) and not is_member(SOL, A5)
    assert is_member(TRIV, catalog_group("C1")) and not is_member(TRIV, s3)
    assert is_member(ALL, A5)


def test_p_nilpotence():
    s4 = catalog_group("S4")
    s3 = catalog_group("S3")
    assert not is_member(p_nilp(2), s4)      # no normal 2-complement
    assert not is_member(p_nilp(3), s4)      # no normal 3-complement
    assert is_member(p_nilp(2), s3)          # normal 2-complement C3
    assert not is_member(p_nilp(3), s3)      # the order-2 subgroups are not normal
    assert is_member(p_nilp(5), s4)          # vacuous: 5 does not divide 24


def test_p_decomposable():
    c3c8 = catalog_group("C3:C8")
    assert not is_member(p_dec(3), c3c8)     # C3 normal but C8 not
    assert is_member(p_dec(3), catalog_group("D8xC3"))
    assert is_member(p_dec(5), catalog_group("S4"))


def test_pi_closed():
    # pi-closed means the pi-elements form a normal Hall pi-subgroup
    assert not is_member(pi_closed({2}), catalog_group("S4"))
    assert not is_member(pi_closed({2}), catalog_group("S3"))
    assert is_member(pi_closed({3}), catalog_group("S3"))
    assert not is_member(pi_closed({3}), catalog_group("A4"))
    assert is_member(pi_closed({5}), catalog_group("C5:C4"))


def test_p_supersoluble():
    ex = catalog_group("Ex1.2")
    assert not is_member(SUP, ex)
    assert not is_member(p_sup(3), ex)       # the order-27 chief factor
    assert is_member(p_sup(5), ex)           # vacuous: no 5-chief factors
    assert not is_member(p_sup(2), catalog_group("S4"))  # order-4 chief factor
    assert is_member(p_sup(3), catalog_group("S4"))
    assert is_member(p_sup(2), catalog_group("C3:C8"))


def test_nil_pow():
    assert is_member(nil_pow(1), catalog_group("Q8"))
    assert not is_member(nil_pow(1), catalog_group("S3"))
    assert is_member(nil_pow(2), catalog_group("S3"))
    assert not is_member(nil_pow(2), catalog_group("S4"))
    assert is_member(nil_pow(3), catalog_group("S4"))
    assert not is_member(nil_pow(3), catalog_group("A5"))


def test_a_exp():
    assert is_member(a_exp(6), catalog_group("C6"))
    assert not is_member(a_exp(4), catalog_group("C6"))
    assert not is_member(a_exp(6), catalog_group("S3"))
    assert not a_exp(6).saturated


def test_quotient_closure_catalogwide():
    # formation axiom: membership passes to every quotient
    from formalab import normal_subgroups
    for G in catalog_groups():
        if G.n > 100:
            continue
        for F in (NIL, SUP, NA, p_nilp(2), SYLTOWER):
            if not is_member(F, G):
                continue
            for N in normal_subgroups(G):
                assert is_member(F, quotient_group(G, N).target)


def test_subgroup_closure_spotcheck():
    for name in ("S4", "SL(2,3)", "C3:C8", "D12"):
        G = catalog_group(name)
        for F in (SUP, NA, SYLTOWER):
            if not is_member(F, G):
                continue
            for s in all_subgroups(G).subgroups:
                sub, _ = subgroup_as_group(G, s)
                assert is_member(F, sub)


def test_saturation_spotcheck():
    # G/Frattini in F forces G in F for the saturated menu entries
    for G in catalog_groups():
        if G.n > 100:
            continue
        phi = frattini_subgroup(G)
        Q = quotient_group(G, phi).target
        for F in (NIL, SUP, NA, p_nilp(2), p_dec(3), nil_pow(2)):
            if is_member(F, Q):
                assert is_member(F, G)


def test_residual_examples(s4, sl23):
    assert residual(s4, NIL).order == 12
    assert residual(s4, SUP).order == 4
    assert residual(s4, SOL).order == 1
    assert residual(sl23, NIL).order == 8
    assert residual(catalog_group("A5"), SOL).order == 60


def test_residual_respects_quotients(s4):
    # image of the residual is the residual of the image when N sits below it
    from formalab import minimal_normal_subgroups
    V = minimal_normal_subgroups(s4)[0]
    assert V.issubset(residual(s4, NIL))
    qm = quotient_group(s4, V)
    assert qm.image_of(residual(s4, NIL)).bits == residual(qm.target, NIL).bits


def test_satellite_within_formation_catalogwide():
    # F(p) is contained in F for every satellite-bearing menu formation
    for G in catalog_groups():
        if G.n > 100:
            continue
        for F in (NIL, SUP, NA, p_nilp(2), p_nilp(3), p_dec(2), p_dec(3)):
            for p in (2, 3, 5):
                if satellite_member(F, p, G):
                    assert is_member(F, G)


def test_satellite_values(s3, q8, c12):
    assert satellite_member(NIL, 2, q8)
    assert not satellite_member(NIL, 3, q8)
    # Sup(p) asks for G/O_p(G) abelian of exponent dividing p - 1
    assert not satellite_member(SUP, 2, s3)  # S3/O_2 = S3 is not abelian
    assert satellite_member(SUP, 3, s3)      # S3/O_3 = C2 has exponent 2 | 2
    assert not satellite_member(SUP, 3, c12)  # C12/O_3 = C4, exponent 4 does not divide 2
    assert not satellite_member(SUP, 2, c12)  # C12/O_2 = C3 is nontrivial
    assert satellite_member(p_nilp(3), 3, catalog_group("C9"))
    assert not satellite_member(p_dec(2), 3, s3)  # order divisible by 2
    assert satellite_member(p_dec(2), 3, catalog_group("C3"))


def test_syltower_has_no_satellite(s3):
    with pytest.raises(NoSatellite):
        satellite_member(SYLTOWER, 2, s3)
