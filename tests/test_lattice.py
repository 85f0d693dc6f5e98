"""Subgroup lattice enumeration and the classical named subgroups."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formalab.intersections as intersections_mod
import formalab.lattice as lattice_mod
from formalab import (
    NA,
    NIL,
    SUP,
    Group,
    all_subgroups,
    build_group,
    catalog,
    catalog_group,
    catalog_groups,
    centre,
    core,
    f_max_report,
    fitting_subgroup,
    frattini_subgroup,
    hall,
    hypercentre,
    is_nilpotent,
    is_soluble,
    maximal_subgroups,
    minimal_normal_subgroups,
    named_subgroup,
    nil_pow,
    nilpotent_length,
    normal_subgroups,
    p_nilp,
    p_sup,
    quotient_group,
    section_centralizer,
    socle,
    sylow,
    upper_central_series,
)
from formalab.errors import NotSoluble, SubgroupCountCapExceeded
from formalab.groups import (
    Origin,
    SubgroupSet,
    bits_of,
    closure_elements,
    conjugacy_classes,
    element_orders,
    elems_of,
    group_from_permutations,
    is_normal,
    normal_product,
)
from formalab.lattice import (
    derived_series,
    derived_subgroup,
    join,
    maximal_members,
    minimal_members,
    o_pi,
    prime_factors,
    subgroup_as_group,
)


def test_s3_has_six_subgroups(s3):
    assert len(all_subgroups(s3).subgroups) == 6


def test_s4_has_thirty_subgroups(s4):
    assert len(all_subgroups(s4).subgroups) == 30


def test_subgroup_orders_divide(s4):
    for s in all_subgroups(s4).subgroups:
        assert 24 % s.order == 0


def test_normal_subgroups_of_s4(s4):
    assert sorted(n.order for n in normal_subgroups(s4)) == [1, 4, 12, 24]


def test_minimal_normal(s4, sl23):
    assert [m.order for m in minimal_normal_subgroups(s4)] == [4]
    assert [m.order for m in minimal_normal_subgroups(sl23)] == [2]


def test_maximal_subgroups_of_a4(a4):
    assert sorted(m.order for m in maximal_subgroups(a4)) == [3, 3, 3, 3, 4]


def test_core_of_point_stabilizer(s4):
    stab = [s for s in all_subgroups(s4).subgroups if s.order == 6][0]
    assert core(s4, stab).order == 1


def test_centre_examples(q8, s3, sl23):
    assert centre(q8).order == 2
    assert centre(s3).order == 1
    assert centre(sl23).order == 2


def test_upper_central_series_q8(q8):
    assert [t.order for t in upper_central_series(q8)] == [1, 2, 8]
    assert hypercentre(q8).order == 8


def test_hypercentre_of_s4_trivial(s4):
    assert hypercentre(s4).order == 1


def test_derived_series(s4):
    assert [t.order for t in derived_series(s4)] == [24, 12, 4, 1]


def test_derived_subgroup_of_sl23(sl23):
    assert derived_subgroup(sl23).order == 8


def test_solubility():
    assert is_soluble(catalog_group("S4"))
    assert not is_soluble(catalog_group("A5"))
    assert not is_soluble(catalog_group("S5"))


def _fitting_via_lattice(G):
    """Reference Fitting subgroup: the join by closure of every normal
    nilpotent subgroup, independent of `fitting_subgroup`."""
    nil = []
    for s in normal_subgroups(G):
        sub, _ = subgroup_as_group(G, s)
        if is_nilpotent(sub):
            nil.append(s)
    return join(G, *nil)


def test_fitting_both_routes_agree():
    for name in ("S3", "S4", "SL(2,3)", "A5", "D12", "C3:C8"):
        G = catalog_group(name)
        assert fitting_subgroup(G).bits == _fitting_via_lattice(G).bits


def test_fitting_is_nilpotent_catalogwide():
    # classical sanity: Fitting nilpotent + normal, Frattini below Fitting
    from formalab.groups import is_normal
    for G in catalog_groups():
        fit = fitting_subgroup(G)
        sub, _ = subgroup_as_group(G, fit)
        assert is_nilpotent(sub)
        assert is_normal(G, fit)
        assert frattini_subgroup(G).issubset(fit)


def test_frattini_examples(s4, q8):
    assert frattini_subgroup(s4).order == 1
    assert frattini_subgroup(q8).order == 2


def test_socle(s4, sl23):
    assert socle(s4).order == 4
    assert socle(sl23).order == 2


def test_nilpotent_length():
    assert nilpotent_length(catalog_group("C12")) == 1
    assert nilpotent_length(catalog_group("S3")) == 2
    assert nilpotent_length(catalog_group("S4")) == 3
    with pytest.raises(NotSoluble):
        nilpotent_length(catalog_group("A5"))


def test_o_pi(s4, sl23):
    assert o_pi(s4, {2}).order == 4
    assert o_pi(s4, {3}).order == 1
    assert o_pi(sl23, {2}).order == 8


def test_sylow_and_hall(s4):
    assert sylow(s4, 2).order == 8
    assert sylow(s4, 3).order == 3
    assert hall(s4, {2}).order == 8
    assert hall(s4, {2, 3}).order == 24
    # S4 has no Hall {3}-complement of order 3 paired with... but {3} Hall = Sylow
    assert hall(s4, {3}).order == 3


def test_hall_missing_in_a5():
    A5 = catalog_group("A5")
    assert hall(A5, {3, 5}) is None


def test_named_subgroup_dispatch(s4):
    assert named_subgroup(s4, "derived").order == 12
    assert named_subgroup(s4, "centre").order == 1
    assert named_subgroup(s4, "fitting").order == 4
    assert named_subgroup(s4, "frattini").order == 1
    assert named_subgroup(s4, "hypercentre_inf").order == 1
    assert named_subgroup(s4, "O_pi", pi={2}).order == 4
    assert named_subgroup(s4, "O_pprime_p", p=2).order == 4
    assert named_subgroup(s4, "O_pprime_p", p=3).order == 12
    assert named_subgroup(s4, "socle").order == 4


def test_named_subgroups_but_frattini_build_no_lattice():
    G = build_group({"name": "S4-fresh", "kind": "permutation", "degree": 4,
                     "generators": ["(1 2 3 4)", "(1 2)"]})
    assert named_subgroup(G, "fitting").order == 4
    for kind in ("derived", "centre", "hypercentre_inf", "socle"):
        named_subgroup(G, kind)
    named_subgroup(G, "O_pi", pi={2})
    named_subgroup(G, "O_pprime_p", p=3)
    assert "lattice" not in G._cache


def test_minimal_normal_subgroups_build_no_lattice():
    G = build_group({"name": "S4-fresh", "kind": "permutation", "degree": 4,
                     "generators": ["(1 2 3 4)", "(1 2)"]})
    assert [m.order for m in minimal_normal_subgroups(G)] == [4]
    assert "lattice" not in G._cache


def test_minimal_normal_subgroups_match_lattice_catalogwide():
    for G in catalog_groups():
        want = _minimal_members_pairwise([s for s in normal_subgroups(G) if s.order > 1])
        assert [m.bits for m in minimal_normal_subgroups(G)] == \
            [m.bits for m in want], G.name


def test_section_centralizer(s4):
    V = minimal_normal_subgroups(s4)[0]
    C = section_centralizer(s4, V, s4.trivial_subgroup())
    assert C.order == 4


# -- lattices derived from the parent's lattice ------------------------------

def _link_free(D):
    return Group(D.mul, D.name, gen_idx=D.gen_idx)


def _fresh_quotient(G, N):
    """G/N on a new handle with an empty cache, linked to G itself.

    The shared G/N is one group per table: it may have been built from
    another parent first, or have its lattice cached already.  A direct
    Group call is never merged, so this handle reads its lattice off G's.
    """
    qm = quotient_group(G, N)
    T = qm.target
    return Group(T.mul, T.name, gen_idx=T.gen_idx, origin=Origin(G, N, qm.proj))


def _fresh_subgroup(G, H):
    """H re-indexed, on a new handle linked to G itself (see _fresh_quotient)."""
    T, _ = subgroup_as_group(G, H)
    return Group(T.mul, T.name, gen_idx=T.gen_idx, origin=Origin(G, H, None))


def _no_closure(*args):
    raise AssertionError("derived lattice was enumerated")


def test_derived_lattices_match_enumeration(monkeypatch):
    for G in catalog_groups():
        if G.n > 48:
            continue
        lat = all_subgroups(G)
        derived = [_fresh_quotient(G, N) for N in lat.normal_members()]
        derived += [_fresh_subgroup(G, H) for H in lat.subgroups]
        for D in derived:
            with monkeypatch.context() as m:
                # a derived lattice needs no closure at all
                m.setattr(lattice_mod, "closure_elements", _no_closure)
                got = all_subgroups(D)
            want = all_subgroups(_link_free(D))
            assert [s.bits for s in got.subgroups] == \
                [s.bits for s in want.subgroups], D.name
            assert [s.bits for s in got.normal_members()] == \
                [s.bits for s in want.normal_members()], D.name


@pytest.mark.parametrize("name, count", [("A5", 59), ("S5", 156)])
def test_reference_subgroup_counts(name, count):
    assert len(all_subgroups(catalog_group(name))) == count


def test_derived_lattice_without_parent_lattice_is_enumerated():
    G = build_group({"name": "S4-fresh", "kind": "permutation", "degree": 4,
                     "generators": ["(1 2 3 4)", "(1 2)"]})  # no cached lattice
    Q = _fresh_quotient(G, derived_subgroup(G))
    H = _fresh_subgroup(G, derived_subgroup(G))
    assert "lattice" not in Q._cache
    assert len(all_subgroups(Q)) == 2
    assert "lattice" not in H._cache
    assert len(all_subgroups(H)) == 10
    assert "lattice" not in G._cache


def test_subgroup_cap_on_both_paths(monkeypatch):
    G = build_group({"name": "S4-fresh", "kind": "permutation", "degree": 4,
                     "generators": ["(1 2 3 4)", "(1 2)"]})
    all_subgroups(G)  # 30 subgroups, under the default cap
    H = _fresh_subgroup(G, derived_subgroup(G))  # A4: 10 subgroups
    E = _link_free(H)
    monkeypatch.setattr(lattice_mod, "SUBGROUP_CAP", 5)
    with monkeypatch.context() as m:
        m.setattr(lattice_mod, "closure_elements", _no_closure)
        assert "lattice" not in H._cache
        with pytest.raises(SubgroupCountCapExceeded):
            all_subgroups(H)  # derived from G's lattice
    assert "lattice" not in E._cache
    with pytest.raises(SubgroupCountCapExceeded):
        all_subgroups(E)  # enumerated
    assert "lattice" not in H._cache
    assert "lattice" not in E._cache


# -- enumeration against the cyclic-join reference ----------------------------

def _cyclic_join_closure(G):
    """Reference lattice: every cyclic subgroup, closed under pairwise join."""
    cyclic = {bits_of(closure_elements(G, [x])) for x in range(G.n)}
    found = set(cyclic)
    queue = list(cyclic)
    while queue:
        h = queue.pop()
        for c in cyclic:
            if c & h == c:
                continue
            j = bits_of(closure_elements(G, elems_of(h | c)))
            if j not in found:
                found.add(j)
                queue.append(j)
    return sorted(found, key=lambda b: (b.bit_count(), b))


def test_enumeration_matches_reference_catalogwide():
    for G in catalog_groups():
        if G.n <= 128:
            assert [s.bits for s in all_subgroups(G).subgroups] == \
                _cyclic_join_closure(G), G.name


def test_ex12_has_340_subgroups(ex324):
    assert len(all_subgroups(ex324)) == 340


_two_perms = st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.just(d), st.permutations(range(1, d + 1)), st.permutations(range(1, d + 1))))


@settings(max_examples=25, deadline=None)
@given(_two_perms)
def test_enumeration_matches_reference_on_random_groups(spec):
    degree, a, b = spec
    G = group_from_permutations(degree, [a, b])
    assert [s.bits for s in all_subgroups(G).subgroups] == _cyclic_join_closure(G)


# -- extremal-member scans against the pairwise definitions -------------------

def _maximal_members_pairwise(family):
    """Reference: the members inside no other member, in order."""
    return [s for s in family
            if not any(s.bits != t.bits and s.bits & t.bits == s.bits for t in family)]


def _minimal_members_pairwise(family):
    """Reference: the members containing no other member, in order."""
    return [s for s in family
            if not any(t.bits != s.bits and t.bits & s.bits == t.bits for t in family)]


def _assert_maximal_subgroups_match_pairwise(G):
    proper = [s for s in all_subgroups(G).subgroups if s.order < G.n]
    assert [s.bits for s in maximal_subgroups(G)] == \
        [s.bits for s in _maximal_members_pairwise(proper)], G.name


def test_maximal_subgroups_match_pairwise_catalogwide():
    for G in catalog_groups():
        _assert_maximal_subgroups_match_pairwise(G)


@settings(max_examples=40, deadline=None)
@given(_two_perms)
def test_maximal_subgroups_match_pairwise_on_random_groups(spec):
    degree, a, b = spec
    _assert_maximal_subgroups_match_pairwise(group_from_permutations(degree, [a, b]))


def test_maximal_subgroups_match_pairwise_on_a_fresh_c16xe16():
    G = build_group({"name": "C16xE16", "kind": "direct", "factors": ["C16", "E16"]})
    assert len(all_subgroups(G)) == 1295
    _assert_maximal_subgroups_match_pairwise(G)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, (1 << 30) - 1))
def test_extremal_scans_match_pairwise_on_any_family(s4, pick):
    # a family of S4's 30 subgroups, closed under subgroups or not
    subgroups = all_subgroups(s4).subgroups
    family = [s for i, s in enumerate(subgroups) if pick >> i & 1]
    chosen = {s.bits for s in family}
    want = [s.bits for s in _maximal_members_pairwise(family)]
    assert [s.bits for s in maximal_members(family)] == want
    assert [s.bits for s in maximal_members(subgroups, lambda s: s.bits in chosen)] == want
    assert [s.bits for s in minimal_members(family[::-1])] == \
        [s.bits for s in _minimal_members_pairwise(family)]


# -- cyclic extension against the join enumeration ----------------------------

def _enumerate_bits_by_joins(G):
    """The earlier enumeration, kept as the oracle: one member of each class
    joined by closure with every zuppo it does not contain, each zuppo
    closed from one generator, each class listed by `np.unique` over the
    conjugates by all of G."""
    orders = element_orders(G)
    zuppos = {}
    for x in range(1, G.n):
        if len(prime_factors(int(orders[x]))) == 1:
            c = closure_elements(G, [x])
            zuppos.setdefault(bits_of(c), c)
    found = {1: 1}
    queue = []

    def add_class(hb, hel):
        rows = np.zeros((G.n, G.n), dtype=bool)
        g = np.arange(G.n)[:, None]
        rows[g, G.mul[G.mul[g, hel], G.inv[g]]] = True
        for r in np.unique(np.packbits(rows, axis=1, bitorder="little"), axis=0):
            found[int.from_bytes(r.tobytes(), "little")] = hb
        queue.append((hb, hel))

    for zb, zel in zuppos.items():
        if zb not in found:
            add_class(zb, zel)
    while queue:
        hb, hel = queue.pop()
        for zb, zel in zuppos.items():
            if zb & hb == zb:
                continue
            j = closure_elements(G, np.concatenate([hel, zel]))
            if bits_of(j) not in found:
                add_class(bits_of(j), j)
    return found


def _class_partition(found):
    """The found bitmasks grouped by class key, as a set of frozensets."""
    classes = {}
    for b, key in found.items():
        classes.setdefault(key, set()).add(b)
    return {frozenset(c) for c in classes.values()}


def _assert_same_enumeration(G):
    got = lattice_mod._enumerate_bits(G)
    want = _enumerate_bits_by_joins(G)
    assert got.keys() == want.keys(), G.name
    assert _class_partition(got) == _class_partition(want), G.name


def test_cyclic_extension_matches_joins_catalogwide():
    # all 65 groups: Ex1.2 (order 324) and the non-soluble A5, S5 and C2xA5
    for G in catalog_groups():
        _assert_same_enumeration(G)


@settings(max_examples=40, deadline=None)
@given(_two_perms)
def test_cyclic_extension_matches_joins_on_random_groups(spec):
    degree, a, b = spec
    _assert_same_enumeration(group_from_permutations(degree, [a, b]))


def test_soluble_groups_are_enumerated_without_closure(monkeypatch):
    for C in catalog_groups():
        if not is_soluble(C):
            continue
        G = _link_free(C)
        is_soluble(G)  # the derived series closes; the enumeration must not
        with monkeypatch.context() as m:
            m.setattr(lattice_mod, "closure_elements", _no_closure)
            got = lattice_mod._enumerate_bits(G)
        assert got.keys() == {s.bits for s in all_subgroups(C).subgroups}, G.name


def test_zuppos_from_powers_match_closures_catalogwide():
    for G in catalog_groups():
        orders = element_orders(G)
        want = {}
        for x in range(1, G.n):
            p = prime_factors(int(orders[x]))
            if len(p) == 1:
                zb = bits_of(closure_elements(G, [x]))
                xp = 0
                for _ in range(p[0]):
                    xp = G.mul[xp, x]
                # least generator first, so setdefault keeps it
                want.setdefault(zb, (x, bits_of(closure_elements(G, [xp]))))
        zuppos = lattice_mod._zuppos(G)
        got = {bits_of(zel): (z, bits_of(closure_elements(G, [zp])))
               for z, zp, zel in zuppos}
        assert (got, len(zuppos)) == (want, len(want)), G.name


def test_subgroup_cap_on_a_non_soluble_group(monkeypatch):
    G = build_group({"name": "A5-fresh", "kind": "permutation", "degree": 5,
                     "generators": ["(1 2 3 4 5)", "(1 2 3)"]})
    assert not is_soluble(G)
    monkeypatch.setattr(lattice_mod, "SUBGROUP_CAP", 20)  # A5 has 59
    with pytest.raises(SubgroupCountCapExceeded):
        all_subgroups(G)
    assert "lattice" not in G._cache


@pytest.mark.parametrize("name", ["S4", "SL(2,3)", "A5", "D12"])
def test_conjugate_bits_is_a_conjugacy_class(name):
    G = catalog_group(name)
    for H in all_subgroups(G).subgroups:
        cls = set(lattice_mod._conjugate_bits(G, H.elements))
        assert H.bits in cls
        assert G.n % len(cls) == 0
        for b in cls:
            el = elems_of(b)
            for g in G.gen_idx:
                assert bits_of(G.mul[G.mul[g, el], G.inv[g]]) in cls


# -- derived tables are checked against their parent ---------------------------

def test_forged_quotient_origin_is_rejected(s4):
    N = minimal_normal_subgroups(s4)[0]
    qm = quotient_group(s4, N)
    Q, proj = qm.target, qm.proj
    Group(Q.mul, "copy", origin=Origin(s4, N, proj))  # the genuine link passes
    with pytest.raises(ValueError):
        Group(Q.mul, "forged", origin=Origin(s4, N, np.roll(proj, 1)))


def test_forged_subgroup_origin_is_rejected(s3):
    involutions = np.flatnonzero(element_orders(s3) == 2)
    not_closed = SubgroupSet(s3, bits_of([0, *involutions[:2]]), check=False)
    c3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    with pytest.raises(ValueError):
        Group(c3, "forged", origin=Origin(s3, not_closed, None))


# -- upper central series by centralizers --------------------------------------

def _upper_central_series_by_quotients(G):
    """Reference: Z_{i+1} is the preimage of the centre of G/Z_i."""
    series = [G.trivial_subgroup()]
    while True:
        z = series[-1]
        if z.order == G.n:
            break
        qm = quotient_group(G, z)
        nxt = qm.preimage_of(centre(qm.target))
        if nxt.bits == z.bits:
            break
        series.append(nxt)
    return [t.bits for t in series]


def test_upper_central_series_matches_quotients_catalogwide(ex324):
    for G in catalog_groups():
        if G.n <= 128 or G is ex324:
            assert [t.bits for t in upper_central_series(G)] == \
                _upper_central_series_by_quotients(G), G.name


@settings(max_examples=50, deadline=None)
@given(_two_perms)
def test_upper_central_series_matches_quotients_on_random_groups(spec):
    degree, a, b = spec
    G = group_from_permutations(degree, [a, b])
    assert [t.bits for t in upper_central_series(G)] == \
        _upper_central_series_by_quotients(G)


def _no_quotient(*args):
    raise AssertionError("upper_central_series built a quotient")


@pytest.mark.parametrize("name, orders", [("D16", [1, 2, 4, 16]),
                                          ("SL(2,3)", [1, 2]), ("S4", [1])])
def test_upper_central_series_builds_no_quotient(monkeypatch, name, orders):
    # built anew from its catalog spec, so no series is cached yet
    G = build_group(next(e.spec for e in catalog() if e.name == name))
    monkeypatch.setattr(lattice_mod, "quotient_group", _no_quotient)
    assert [t.order for t in upper_central_series(G)] == orders


# -- conjugacy-class ids of lattice members ------------------------------------

def _assert_classes_exact(G):
    """Members share a class id exactly when they are conjugate in G, and
    each id is the index of its class's first member."""
    lat = all_subgroups(G)
    assert len(lat.classes) == len(lat.subgroups), G.name
    members: dict[int, set[int]] = {}
    for s, c in zip(lat.subgroups, lat.classes):
        members.setdefault(c, set()).add(s.bits)
    for i, (s, c) in enumerate(zip(lat.subgroups, lat.classes)):
        assert members[c] == set(lattice_mod._conjugate_bits(G, s.elements)), \
            (G.name, i)
        assert lat.subgroups[c].bits == min(members[c], key=lambda b: (b.bit_count(), b))


def test_class_ids_exact_catalogwide():
    for G in catalog_groups():
        if G.n <= 128:
            _assert_classes_exact(G)


def test_class_ids_exact_on_derived_lattices(monkeypatch):
    derived = []
    for G in catalog_groups():
        if G.n > 128:
            continue
        lat = all_subgroups(G)
        derived += [_fresh_quotient(G, N) for N in lat.normal_members()]
        if G.n <= 48:
            derived += [_fresh_subgroup(G, H) for H in lat.subgroups]
    for D in derived:
        with monkeypatch.context() as m:
            m.setattr(lattice_mod, "closure_elements", _no_closure)
            all_subgroups(D)
        _assert_classes_exact(D)


@settings(max_examples=25, deadline=None)
@given(_two_perms)
def test_class_ids_exact_on_random_groups(spec):
    degree, a, b = spec
    G = group_from_permutations(degree, [a, b])
    _assert_classes_exact(G)
    lat = all_subgroups(G)
    for N in lat.normal_members():
        _assert_classes_exact(_fresh_quotient(G, N))
    for H in lat.subgroups:
        _assert_classes_exact(_fresh_subgroup(G, H))


def test_class_ids_split_inside_a_subgroup(monkeypatch):
    # S4 on generators (1 2 3 4), (1 3), (1 2)(3 4), (1 2); D8 = <(1 2 3 4), (1 3)>
    G = group_from_permutations(4, [(2, 3, 4, 1), (3, 2, 1, 4), (2, 1, 4, 3),
                                    (2, 1, 3, 4)])
    a, b, c, _ = G.gen_idx
    a2 = G.op(a, a)  # (1 3)(2 4), central in D8
    lat = all_subgroups(G)
    index = {s.bits: i for i, s in enumerate(lat.subgroups)}
    x = closure_elements(G, [a2])
    y = closure_elements(G, [c])
    assert lat.classes[index[bits_of(x)]] == lat.classes[index[bits_of(y)]]
    D8 = SubgroupSet(G, bits_of(closure_elements(G, [a, b])))
    assert D8.order == 8 and D8.contains(a2) and D8.contains(c)
    sub, el = _fresh_subgroup(G, D8), D8.elements
    with monkeypatch.context() as m:
        m.setattr(lattice_mod, "closure_elements", _no_closure)
        sublat = all_subgroups(sub)  # read off the lattice of S4
    subindex = {s.bits: i for i, s in enumerate(sublat.subgroups)}
    xi = subindex[bits_of(np.searchsorted(el, x))]
    yi = subindex[bits_of(np.searchsorted(el, y))]
    assert sublat.classes[xi] != sublat.classes[yi]
    _assert_classes_exact(sub)


# -- normal structure read off conjugacy data ----------------------------------

def _normal_by_test(G):
    """Reference: the members that pass the generator normality test."""
    return [s.bits for s in all_subgroups(G).subgroups if is_normal(G, s)]


def _assert_normal_members_exact(G):
    assert [s.bits for s in all_subgroups(G).normal_members()] == \
        _normal_by_test(G), G.name


def test_normal_members_match_normality_test_catalogwide():
    for G in catalog_groups():
        if G.n <= 128:
            _assert_normal_members_exact(G)


def test_normal_members_match_normality_test_on_derived_lattices(monkeypatch):
    for G in catalog_groups():
        if G.n > 48:
            continue
        lat = all_subgroups(G)
        derived = [_fresh_quotient(G, N) for N in lat.normal_members()]
        derived += [_fresh_subgroup(G, H) for H in lat.subgroups]
        for D in derived:
            with monkeypatch.context() as m:
                m.setattr(lattice_mod, "closure_elements", _no_closure)
                all_subgroups(D)  # read off the parent's lattice
            _assert_normal_members_exact(D)


@settings(max_examples=25, deadline=None)
@given(_two_perms)
def test_normal_members_match_normality_test_on_random_groups(spec):
    degree, a, b = spec
    G = group_from_permutations(degree, [a, b])
    _assert_normal_members_exact(G)
    for N in all_subgroups(G).normal_members():
        _assert_normal_members_exact(_fresh_quotient(G, N))


def _o_pi_by_closure(G, pi):
    """Reference O_pi: close each pi-class, in class order, into the
    accumulated join when its normal closure is a pi-group."""
    orders = element_orders(G)
    acc = np.array([0], dtype=np.intp)
    for cls in conjugacy_classes(G):
        x = int(cls[0])
        if x == 0 or x in acc or any(p not in pi for p in prime_factors(int(orders[x]))):
            continue
        nc = closure_elements(G, cls)
        if all(p in pi for p in prime_factors(nc.size)):
            acc = closure_elements(G, np.concatenate([acc, nc]))
    return bits_of(acc)


def test_o_pi_matches_closure_loop_catalogwide():
    pairs = 0
    for G in catalog_groups():
        primes = prime_factors(G.n)
        for k in range(1, len(primes) + 1):
            for pi in combinations(primes, k):
                assert o_pi(G, pi).bits == _o_pi_by_closure(G, frozenset(pi)), \
                    (G.name, pi)
                pairs += 1
    assert pairs == 156


def test_normal_product_matches_closure_join():
    for G in catalog_groups():
        if G.n > 64:
            continue
        normals = normal_subgroups(G)
        for i, A in enumerate(normals):
            for B in normals[i:]:
                want = join(G, A, B).bits
                assert normal_product(G, [A, B]).bits == want, G.name
                assert normal_product(G, [B, A]).bits == want, G.name
    assert normal_product(catalog_group("S4"), []).order == 1


def _core_by_loop(G, H, within):
    """Reference core: intersect the conjugates one element of `within` at
    a time, stopping at the trivial subgroup."""
    cur = H.bits
    for g in within.elements:
        cur &= bits_of(G.mul[G.mul[g, H.elements], G.inv[g]])
        if cur == 1:
            break
    return cur


def test_core_matches_loop_on_k_subnormality_steps(monkeypatch):
    steps = []
    real_core = intersections_mod.core

    def recording_core(G, H, within=None):
        steps.append((G, H, within))
        return real_core(G, H, within)
    monkeypatch.setattr(intersections_mod, "core", recording_core)
    for entry in catalog():
        G = build_group(entry.spec)  # fresh, so no step verdict is cached
        for F in (NIL, SUP, NA, p_nilp(2), p_nilp(3), p_sup(3), nil_pow(2)):
            f_max_report(G, F)
    assert len(steps) > 300  # 306 on the catalog
    for G, A, B in steps:
        assert core(G, A, B).bits == _core_by_loop(G, A, B), G.name
