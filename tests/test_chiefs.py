"""Chief series, centrality of chief factors, and hypercentre computations."""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import formalab.chiefs as chiefs_mod
from formalab import (
    NA,
    NIL,
    SUP,
    SYLTOWER,
    build_group,
    catalog,
    catalog_group,
    catalog_groups,
    chief_series,
    chief_series_through,
    is_f_central,
    is_f_central_satellite,
    is_f_central_semidirect,
    minimal_normal_subgroups,
    nil_pow,
    p_dec,
    p_nilp,
    p_sup,
    quotient_group,
    section_centralizer,
    section_extension,
    z_f,
    z_pi_f,
    z_pi_f_oracle,
)
from formalab.chiefs import ChiefFactor, class_normal_closures, minimal_normals_over
from formalab.errors import ClosureCapExceeded, NotNormal, PreconditionViolated
from formalab.groups import (
    Group,
    SubgroupSet,
    bits_of,
    closure_elements,
    conjugacy_classes,
    direct_product,
    element_orders,
    group_from_permutations,
)
from formalab.lattice import hypercentre, normal_subgroups


def test_chief_series_of_s4(s4):
    cs = chief_series(s4)
    assert [t.order for t in cs.terms] == [1, 4, 12, 24]
    assert [f.order for f in cs.factors] == [4, 3, 2]


def test_chief_series_through(s4):
    A4n = [n for n in chief_series(s4).terms if n.order == 12][0]
    cs = chief_series_through(s4, A4n)
    assert any(t.bits == A4n.bits for t in cs.terms)


def test_series_through_requires_normal(s4):
    from formalab import generated_subgroup
    H = generated_subgroup(s4, [s4.gen_idx[1]])
    with pytest.raises(NotNormal):
        chief_series_through(s4, H)


def test_jordan_hoelder_factor_multiset():
    # the factor-order multiset is series-independent
    for name in ("S4", "SL(2,3)", "S3xS3", "C2xS4", "Ex1.2"):
        G = catalog_group(name)
        first = sorted(f.order for f in chief_series(G, "first").factors)
        last = sorted(f.order for f in chief_series(G, "last").factors)
        assert first == last


def test_chief_factor_validation(s4):
    V = minimal_normal_subgroups(s4)[0]
    with pytest.raises(PreconditionViolated):
        ChiefFactor(s4, V, V)


def test_centrality_verdicts_on_s4(s4):
    cs = chief_series(s4)
    verdicts = [is_f_central(s4, f, SUP) for f in cs.factors]
    # the order-4 factor is the only non-central one for supersolubility
    assert verdicts == [False, True, True]
    # only the top factor S4/A4 is central in its quotient
    assert [is_f_central(s4, f, NIL) for f in cs.factors] == [False, False, True]


def test_dual_oracle_agreement_spot(s4, sl23):
    for G in (s4, sl23):
        for fac in chief_series(G).factors:
            for F in (NIL, SUP, NA, p_nilp(2)):
                assert (is_f_central_satellite(G, fac, F)
                        == is_f_central_semidirect(G, fac, F))


def test_syltower_centrality_uses_semidirect(s3):
    fac = chief_series(s3).factors[0]
    assert fac.order == 3
    assert is_f_central(s3, fac, SYLTOWER) == is_f_central_semidirect(
        s3, fac, SYLTOWER)


def test_z_nil_is_hypercentre(q8, s4, sl23):
    for G in (q8, s4, sl23):
        assert z_f(G, NIL).bits == hypercentre(G).bits


def test_z_sup_examples(s4, s3):
    assert z_f(s4, SUP).order == 1
    assert z_pi_f(s4, SUP, {3}).order == 24   # only 3-chief factors constrained
    assert z_pi_f(s4, SUP, {2}).order == 1
    assert z_f(s3, SUP).order == 6


def test_pi_monotonicity(s4, sl23):
    # enlarging pi can only shrink the hypercentre
    for G in (s4, sl23):
        for F in (NIL, SUP, NA):
            big = z_pi_f(G, F, {2, 3}).order
            assert z_pi_f(G, F, {2}).order >= big
            assert z_pi_f(G, F, {3}).order >= big


def test_absorb_schedule_independence():
    for name in ("S4", "SL(2,3)", "S3xS3", "Q8xS3"):
        G = catalog_group(name)
        for F in (NIL, SUP, NA):
            ref = z_f(G, F).bits
            assert z_pi_f(G, F, absorb="first").bits == ref
            assert z_pi_f(G, F, absorb="last").bits == ref


def test_oracle_agreement_spot():
    for name in ("S4", "SL(2,3)", "C3:C8", "D12", "S3xC4"):
        G = catalog_group(name)
        for F in (NIL, SUP, NA, p_nilp(2)):
            assert z_pi_f(G, F).bits == z_pi_f_oracle(G, F).bits
            assert z_pi_f(G, F, {2}).bits == z_pi_f_oracle(G, F, {2}).bits


def test_z_on_member_is_whole_group(q8, s3):
    assert z_f(q8, NIL).order == 8
    assert z_f(s3, NA).order == 6


# -- dual-oracle identities on random permutation groups -----------------------

SATELLITE_FORMATIONS = (NIL, SUP, NA, p_sup(3), p_nilp(2), p_nilp(3),
                        p_dec(2), p_dec(3), nil_pow(2))

_two_perms = st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.just(d), st.permutations(range(1, d + 1)), st.permutations(range(1, d + 1))))


def _small_group(spec):
    """The group generated by a drawn pair; A6 and S6 are rejected."""
    degree, a, b = spec
    try:
        return group_from_permutations(degree, [a, b], cap=120)
    except ClosureCapExceeded:
        reject()


@settings(max_examples=50, deadline=None)
@given(_two_perms)
def test_z_pi_f_matches_oracle_on_random_groups(spec):
    G = _small_group(spec)
    for F in SATELLITE_FORMATIONS:
        for pi in (None, {2}, {3}):
            assert z_pi_f(G, F, pi).bits == z_pi_f_oracle(G, F, pi).bits, (F, pi)


@settings(max_examples=50, deadline=None)
@given(_two_perms)
def test_centrality_routes_agree_on_random_groups(spec):
    G = _small_group(spec)
    for fac in chief_series(G).factors:
        for F in SATELLITE_FORMATIONS:
            try:
                semidirect = is_f_central_semidirect(G, fac, F)
            except ClosureCapExceeded:
                continue  # (H/K) x| G/C too large to build, as for A5
            assert is_f_central_satellite(G, fac, F) == semidirect, (F, fac.order)


# -- one section extension per chief factor ------------------------------------

def _fresh(name):
    # built anew from its catalog spec, so no other test has warmed its cache
    return build_group(next(e.spec for e in catalog() if e.name == name))


def _counting(monkeypatch, name):
    """Count the calls chiefs makes to its imported `name`."""
    calls = []
    real = getattr(chiefs_mod, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(chiefs_mod, name, counted)
    return calls


@pytest.mark.parametrize("name", ["S4", "SL(2,3)", "S3xS3"])
def test_one_section_extension_per_factor_across_formations(monkeypatch, name):
    G = _fresh(name)
    calls = _counting(monkeypatch, "semidirect_product")
    for fac in chief_series(G).factors:
        before = len(calls)
        verdicts = [is_f_central_semidirect(G, fac, F) for F in SATELLITE_FORMATIONS]
        assert len(calls) == before + 1, fac.order
        assert section_extension(G, fac.H, fac.K) is section_extension(G, fac.H, fac.K)
        assert verdicts == [is_f_central_satellite(G, fac, F)
                            for F in SATELLITE_FORMATIONS]


@pytest.mark.parametrize("name", ["A5", "C2xA5"])
def test_over_cap_factor_is_refused_before_it_is_built(monkeypatch, name):
    G = _fresh(name)
    fac = next(f for f in chief_series(G).factors if f.order == 60)
    built = _counting(monkeypatch, "semidirect_product")
    quotients = _counting(monkeypatch, "quotient_group")
    for F in SATELLITE_FORMATIONS:
        with pytest.raises(ClosureCapExceeded, match="section extension order 3600"):
            is_f_central_semidirect(G, fac, F)
    assert built == [] and quotients == []
    assert not any(isinstance(k, tuple) and k[0] == "sec_ext" for k in G._cache)


# -- minimal normals over Z from memoised class closures -----------------------

def _minimal_normals_over_by_closure(G, Z):
    """Reference: one closure of Z with each conjugacy class outside Z."""
    cands = {}
    for cls in conjugacy_classes(G):
        if Z.contains(int(cls[0])):
            continue
        b = bits_of(closure_elements(G, np.concatenate([Z.elements, cls])))
        cands.setdefault(b, SubgroupSet(G, b, check=False))
    return sorted(_minimal_members_pairwise(list(cands.values())),
                  key=lambda s: (s.order, s.bits))


def _minimal_members_pairwise(family):
    """Reference: the members containing no other member, in order."""
    return [s for s in family
            if not any(t.bits != s.bits and t.bits & s.bits == t.bits for t in family)]


def _assert_minimal_normals_match_reference(G, Zs):
    for Z in Zs:
        assert [m.bits for m in minimal_normals_over(G, Z)] == \
            [m.bits for m in _minimal_normals_over_by_closure(G, Z)], (G.name, Z.order)


def _series_terms(G):
    return list(chief_series(G, "first").terms) + list(chief_series(G, "last").terms)


def test_minimal_normals_over_match_closure_reference_catalogwide():
    for G in catalog_groups():
        if G.n <= 128 or G.name == "Ex1.2":
            _assert_minimal_normals_match_reference(
                G, _series_terms(G) + normal_subgroups(G))


@settings(max_examples=50, deadline=None)
@given(_two_perms)
def test_minimal_normals_over_match_closure_reference_on_random_groups(spec):
    G = _small_group(spec)
    _assert_minimal_normals_match_reference(G, _series_terms(G) + normal_subgroups(G))


def _link_free(D):
    return Group(D.mul, D.name, gen_idx=D.gen_idx)


def _class_closures_by_reference(G):
    """Reference: close every conjugacy class in both directions."""
    return list(dict.fromkeys(bits_of(closure_elements(G, c))
                              for c in conjugacy_classes(G)))


def _element_orders_by_loop(G):
    orders = []
    for x in range(G.n):
        k, y = 1, x
        while y != 0:
            y, k = G.op(y, x), k + 1
        orders.append(k)
    return orders


def _assert_class_kernels_match_references(G):
    assert [s.bits for s in class_normal_closures(G)] == \
        _class_closures_by_reference(G), G.name
    assert element_orders(G).tolist() == _element_orders_by_loop(G), G.name


def test_class_kernels_match_references_catalogwide():
    for G in catalog_groups():
        _assert_class_kernels_match_references(G)


def test_class_kernels_match_references_on_small_quotients():
    for G in catalog_groups():
        if G.n <= 48:
            for N in normal_subgroups(G):
                _assert_class_kernels_match_references(quotient_group(G, N).target)


@settings(max_examples=50, deadline=None)
@given(_two_perms)
def test_class_kernels_match_references_on_random_groups(spec):
    _assert_class_kernels_match_references(_small_group(spec))


@settings(max_examples=30, deadline=None)
@given(_two_perms)
def test_absorb_schedule_independence_on_random_groups(spec):
    G = _small_group(spec)
    for F in SATELLITE_FORMATIONS:
        for pi in (None, {2}, {3}):
            ref = z_pi_f(G, F, pi).bits
            assert z_pi_f(G, F, pi, absorb="first").bits == ref, (F, pi)
            assert z_pi_f(G, F, pi, absorb="last").bits == ref, (F, pi)


def test_quotient_class_closures_match_a_link_free_copy():
    for G in catalog_groups():
        if G.n > 48:
            continue
        for N in normal_subgroups(G):
            Q = quotient_group(G, N).target
            got = class_normal_closures(Q)
            want = class_normal_closures(_link_free(Q))
            assert [s.bits for s in got] == [s.bits for s in want], (G.name, N.order)
            # each distinct closure once
            assert len(got) == len({s.bits for s in got})


# -- vectorised section centralizer --------------------------------------------

def _section_centralizer_by_loop(G, H, K):
    """Reference: test [g, h] in K for each g of G in turn."""
    hel = H.elements
    kmask = np.zeros(G.n, dtype=bool)
    kmask[K.elements] = True
    members = [g for g in range(G.n)
               if kmask[G.mul[G.mul[G.mul[g, hel], G.inv[g]], G.inv[hel]]].all()]
    return bits_of(members)


def _assert_section_centralizers_match_loop(G):
    for choose in ("first", "last"):
        for fac in chief_series(G, choose).factors:
            assert section_centralizer(G, fac.H, fac.K).bits == \
                _section_centralizer_by_loop(G, fac.H, fac.K), (G.name, fac.order)


def test_section_centralizer_matches_loop_catalogwide():
    for G in catalog_groups():
        if G.n <= 128:
            _assert_section_centralizers_match_loop(G)


@settings(max_examples=50, deadline=None)
@given(_two_perms)
def test_section_centralizer_matches_loop_on_random_groups(spec):
    _assert_section_centralizers_match_loop(_small_group(spec))


# -- tables that are groups by construction ------------------------------------
# Their constructors skip the associativity loop; a link-free copy of the same
# table runs it and raises ValueError if the table fails it.

def test_catalog_groups_pass_the_associativity_loop():
    for G in catalog_groups():
        _link_free(G)


def test_section_extensions_pass_the_associativity_loop():
    for G in catalog_groups():
        if G.n > 128:
            continue
        for choose in ("first", "last"):
            for fac in chief_series(G, choose).factors:
                try:
                    E = section_extension(G, fac.H, fac.K)
                except ClosureCapExceeded:
                    continue  # refused before it is built
                _link_free(E)


@settings(max_examples=50, deadline=None)
@given(_two_perms)
def test_permutation_groups_pass_the_associativity_loop(spec):
    _link_free(_small_group(spec))


@settings(max_examples=30, deadline=None)
@given(_two_perms, _two_perms)
def test_direct_products_pass_the_associativity_loop(spec_a, spec_b):
    A, B = _small_group(spec_a), _small_group(spec_b)
    if A.n * B.n > 256:
        reject()
    _link_free(direct_product(A, B))
