"""Multiplication-table construction, products, quotients, isomorphism."""

import ast
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formalab
import formalab.groups as groups_mod
from formalab import (
    NA,
    NIL,
    SUP,
    ClosureCapExceeded,
    FormationSpec,
    Group,
    InvalidPermutation,
    IsoCapExceeded,
    NotAutomorphism,
    NotNormal,
    PreconditionViolated,
    RelationMismatch,
    SubgroupSet,
    all_subgroups,
    are_isomorphic,
    build_group,
    catalog,
    catalog_group,
    catalog_groups,
    centre,
    chief_series,
    derived_subgroup,
    direct_product,
    elementary_abelian_vector_group,
    f_max_report,
    fitting_subgroup,
    generated_subgroup,
    group_from_permutations,
    int_f,
    is_member,
    is_soluble,
    matrix_module_semidirect,
    normal_subgroups,
    quotient_group,
    residual,
    satellite_member,
    section_centralizer,
    section_extension,
    semidirect_product,
    trivial_action,
    upper_central_series,
    z_f,
    z_pi_f,
)
from formalab.chiefs import class_normal_closures
from formalab.errors import NotActionHomomorphism
from formalab.groups import (
    _vector_index_perm,
    bits_of,
    closure_elements,
    conjugacy_classes,
    element_orders,
    elems_of,
    is_normal,
)
from formalab.lattice import subgroup_as_group


def test_identity_is_index_zero(s4):
    assert (s4.mul[0] == np.arange(24)).all()
    assert (s4.mul[:, 0] == np.arange(24)).all()


def test_inverse_table(s4):
    assert (s4.mul[np.arange(24), s4.inv] == 0).all()


def test_bad_table_rejected():
    mul = np.array([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        Group(mul, "broken")


# a Latin square with identity 0 that is not associative: (1*1)*2 = 2, 1*(1*2) = 4
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0],
         [4, 2, 0, 1, 3]]


def test_raw_table_runs_the_associativity_loop():
    with pytest.raises(ValueError, match="associativity fails"):
        Group(np.array(LOOP5), "loop5")


def test_bad_permutation_rejected():
    with pytest.raises(InvalidPermutation):
        group_from_permutations(3, [(1, 1, 2)])


def test_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        group_from_permutations(12, [tuple(range(2, 13)) + (1,),
                                     (2, 1) + tuple(range(3, 13))], cap=100)


def test_cyclic_orders(c12):
    assert c12.n == 12
    assert sorted(element_orders(c12)) == sorted(
        12 // np.gcd(12, k) if k else 1 for k in range(12))


def test_element_order(s4):
    orders = sorted(element_orders(s4).tolist())
    assert orders.count(1) == 1
    assert orders.count(2) == 9
    assert orders.count(3) == 8
    assert orders.count(4) == 6


def test_direct_product_order(s3, c12):
    G = direct_product(s3, c12)
    assert G.n == 72


def test_trivial_action_matches_direct_product(s3, q8):
    via_action = semidirect_product(q8, s3, trivial_action(q8, s3))
    direct = direct_product(q8, s3)
    # both index the pair (x, y) as x*|S3| + y
    assert np.array_equal(via_action.mul, direct.mul)


def test_semidirect_rejects_non_automorphism():
    c4 = catalog_group("C4")
    c2 = catalog_group("C2")
    bad = np.array([[0, 2, 1, 3], [0, 1, 2, 3]])  # swaps order-4 with order-2
    with pytest.raises(Exception):
        semidirect_product(c4, c2, bad)


def _semidirect_rows_loop(N, H, action):
    """The row-block fill of N x| H, one block per element of H."""
    n = N.n * H.n
    mul = np.empty((n, n), dtype=np.intp)
    for h1 in range(H.n):
        block = N.mul[:, action[h1]][:, :, None] * H.n + H.mul[h1][None, None, :]
        mul[np.arange(N.n) * H.n + h1] = block.reshape(N.n, n)
    return mul


def test_semidirect_table_matches_row_loop(s3, q8):
    c4, c2 = catalog_group("C4"), catalog_group("C2")
    e9 = elementary_abelian_vector_group(3, 2)
    rot = np.array([[0, 2], [1, 0]])  # order 4 on F_3^2
    rot_action = np.stack([
        _vector_index_perm(3, 2, np.linalg.matrix_power(rot, _power_index(c4, h)))
        for h in range(4)])
    cases = [(c4, c2, np.stack([np.arange(4), c4.inv])),
             (e9, c2, np.stack([np.arange(9), e9.inv])),
             (e9, c4, rot_action),
             (q8, s3, trivial_action(q8, s3))]
    for N, H, action in cases:
        G = semidirect_product(N, H, action)
        assert np.array_equal(G.mul, _semidirect_rows_loop(N, H, action))


def _power_index(G, h):
    """k with h = g^k for the generator g of a cyclic group G."""
    g, x, k = G.gen_idx[0], 0, 0
    while x != h:
        x, k = G.op(x, g), k + 1
    return k


def test_semidirect_rejects_action_that_is_not_multiplicative():
    c3 = catalog_group("C3")
    # every row is an automorphism, but inversion twice is not inversion
    action = np.stack([np.arange(3), c3.inv, c3.inv])
    with pytest.raises(NotActionHomomorphism, match="not multiplicative at 1"):
        semidirect_product(c3, c3, action)


def test_semidirect_reports_the_first_bad_row_by_its_first_failed_check():
    c4, c2x2 = catalog_group("C4"), catalog_group("E4")
    ident, swap = np.arange(4), np.array([0, 2, 1, 3])  # swap breaks C4's orders
    action = np.stack([ident, swap, [0, 0, 1, 2], ident])
    with pytest.raises(NotAutomorphism, match="element 1 is not an automorphism"):
        semidirect_product(c4, c2x2, action)
    action = np.stack([ident, [0, 0, 1, 2], swap, ident])
    with pytest.raises(NotAutomorphism, match="element 1 is not a bijection"):
        semidirect_product(c4, c2x2, action)


def test_semidirect_validates_before_the_cap():
    e32 = elementary_abelian_vector_group(2, 5)  # 32 * 32 = 1024 > ORDER_CAP
    ident = np.tile(np.arange(32), (32, 1))
    not_bijective = ident.copy()
    not_bijective[3, 5] = 6
    with pytest.raises(NotAutomorphism, match="element 3 is not a bijection"):
        semidirect_product(e32, e32, not_bijective)
    not_multiplicative = ident.copy()
    # the coordinate swap is an automorphism, but element 1 has order 2
    not_multiplicative[1] = _vector_index_perm(2, 5, np.eye(5, dtype=int)[[1, 0, 2, 3, 4]])
    with pytest.raises(NotActionHomomorphism, match="not multiplicative at 1"):
        semidirect_product(e32, e32, not_multiplicative)
    with pytest.raises(ClosureCapExceeded, match="semidirect product order 1024"):
        semidirect_product(e32, e32, ident)


def test_matrix_module_relation_check(a4):
    # an order-3 matrix on an order-2 generator breaks A4's relations
    with pytest.raises(RelationMismatch):
        matrix_module_semidirect(3, 2, [[[1, 1], [0, 1]],
                                        np.eye(2, dtype=int)], a4)


def test_matrix_module_singular_matrix(a4):
    # a singular matrix induces no bijection of V, so it gives no action
    singular = [[1, 0], [0, 0]]
    with pytest.raises(RelationMismatch):
        matrix_module_semidirect(3, 2, [singular, np.eye(2, dtype=int)], a4)
    with pytest.raises(RelationMismatch):
        matrix_module_semidirect(2, 1, [[[0]]], catalog_group("C2"))


def test_semidirect_and_matrix_module_over_trivial_actor():
    c1, c3 = catalog_group("C1"), catalog_group("C3")
    G = build_group({"kind": "semidirect", "normal": "C3", "actor": "C1",
                     "action": []})
    assert are_isomorphic(G, c3)
    M, V = matrix_module_semidirect(3, 1, [], c1)
    assert are_isomorphic(M, c3) and V.order == 3


def test_elementary_abelian():
    E = elementary_abelian_vector_group(3, 2)
    assert E.n == 9
    assert (element_orders(E)[1:] == 3).all()


def test_quotient_of_s4_by_v4(s4):
    from formalab import minimal_normal_subgroups
    V = minimal_normal_subgroups(s4)[0]
    qm = quotient_group(s4, V)
    assert qm.target.n == 6
    assert are_isomorphic(qm.target, catalog_group("S3"))


def test_quotient_requires_normal(s4):
    H = generated_subgroup(s4, [s4.gen_idx[1]])
    with pytest.raises(NotNormal):
        quotient_group(s4, H)


def test_quotient_projection_surjective(s4):
    from formalab import minimal_normal_subgroups
    V = minimal_normal_subgroups(s4)[0]
    qm = quotient_group(s4, V)
    assert set(qm.proj) == set(range(6))


def test_quotient_is_built_once_per_normal_subgroup():
    G = _fresh_s4()
    D = derived_subgroup(G)
    qm = quotient_group(G, D)
    assert quotient_group(G, D) is qm
    assert quotient_group(G, SubgroupSet(G, D.bits)) is qm  # keyed by bitmask
    assert [k for k in G._cache if k[0] == "quot"] == [("quot", D.bits)]


def test_quotient_by_the_trivial_subgroup_is_the_group_itself(s4):
    qm = quotient_group(s4, s4.trivial_subgroup())
    assert qm.source is s4 and qm.target is s4
    assert np.array_equal(qm.proj, np.arange(s4.n))
    D = derived_subgroup(s4)
    assert qm.image_of(D) == D and qm.preimage_of(D) == D


def test_whole_group_as_its_own_subgroup_is_the_group_itself(s4):
    sub, el = subgroup_as_group(s4, s4.full_subgroup())
    assert sub is s4
    assert np.array_equal(el, np.arange(s4.n))


def test_non_normal_quotient_raises_on_every_call():
    G = _fresh_s4()
    H = generated_subgroup(G, [G.gen_idx[1]])
    for _ in range(2):
        with pytest.raises(NotNormal):
            quotient_group(G, H)
    assert not any(k[0] == "quot" for k in G._cache if isinstance(k, tuple))


def test_quotient_by_a_foreign_subgroup_raises_after_a_cached_twin():
    G, other = _fresh_s4(), _fresh_s4()
    quotient_group(G, derived_subgroup(G))
    with pytest.raises(ValueError, match="different parent"):
        quotient_group(G, derived_subgroup(other))


def test_shared_derived_groups_match_link_free_copies_catalogwide():
    # G/1 and G as its own subgroup are G itself, so a quotient's or a
    # subgroup's queries warm G's caches; a copy with none must agree
    for G in formalab.catalog_groups():
        if G.n > 48:
            continue
        E = Group(G.mul, G.name, gen_idx=G.gen_idx)
        for F in (NIL, SUP, NA):
            assert z_f(G, F).bits == z_f(E, F).bits, (G.name, F)
            assert int_f(G, F).bits == int_f(E, F).bits, (G.name, F)
            assert is_member(F, G) == is_member(F, E), (G.name, F)


def test_iso_s3_vs_semidirect(s3):
    inv = semidirect_product(catalog_group("C3"), catalog_group("C2"),
                             np.array([[0, 1, 2], [0, 2, 1]]))
    assert are_isomorphic(s3, inv)


def test_iso_negative():
    assert not are_isomorphic(catalog_group("C4"), catalog_group("E4"))


def test_iso_reflexive(sl23):
    assert are_isomorphic(sl23, sl23)


def test_regular_representation_roundtrip(q8):
    # rows of the table are the regular permutation representation
    gens = [tuple(int(v) + 1 for v in q8.mul[g]) for g in q8.gen_idx]
    R = group_from_permutations(q8.n, gens)
    assert R.n == q8.n
    assert are_isomorphic(R, q8)


@given(st.integers(0, 23), st.integers(0, 23))
def test_antihomomorphism_of_inversion(x, y):
    s4 = catalog_group("S4")
    assert s4.inv[s4.mul[x, y]] == s4.mul[s4.inv[y], s4.inv[x]]


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 23), max_size=3))
def test_closure_satisfies_lagrange(seed):
    s4 = catalog_group("S4")
    elems = closure_elements(s4, sorted(seed))
    assert 24 % elems.size == 0
    # closed under products
    prods = s4.mul[np.ix_(elems, elems)]
    assert set(np.unique(prods)) <= set(int(e) for e in elems)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 23))
def test_conjugates_preserve_order(g):
    s4 = catalog_group("S4")
    orders = element_orders(s4)
    conj = s4.mul[s4.mul[g, np.arange(24)], s4.inv[g]]
    assert (orders[conj] == orders).all()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 400), max_size=40))
def test_bit_conversions_match_loop_reference(elems):
    ref = 0
    for e in elems:
        ref |= 1 << e
    assert bits_of(elems) == bits_of(iter(elems)) == ref
    assert bits_of(np.array(elems, dtype=np.intp)) == ref
    got = elems_of(ref)
    assert got.dtype == np.intp
    assert got.tolist() == sorted(set(elems))


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 23), max_size=3))
def test_closure_matches_naive_reference(seed):
    s4 = catalog_group("S4")
    ref = set(seed) | {0}
    while True:
        grown = ref | {int(s4.mul[a, b]) for a in ref for b in ref}
        if grown == ref:
            break
        ref = grown
    assert closure_elements(s4, sorted(seed)).tolist() == sorted(ref)


def _perm_group_table_loop(degree, generators, cap):
    """The BFS numbering and pairwise composition loop, as a reference."""
    gens = [tuple(g) for g in generators]
    ident = tuple(range(1, degree + 1))
    index, elems, queue = {ident: 0}, [ident], [ident]
    while queue:
        cur = queue.pop(0)
        for g in gens:
            nxt = tuple(cur[g[i] - 1] for i in range(degree))
            if nxt not in index:
                if len(elems) >= cap:
                    raise ClosureCapExceeded("over cap")
                index[nxt] = len(elems)
                elems.append(nxt)
                queue.append(nxt)
    n = len(elems)
    mul = np.empty((n, n), dtype=np.intp)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            mul[i, j] = index[tuple(a[b[k] - 1] for k in range(degree))]
    return mul, [index[g] for g in gens]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.permutations(range(1, d + 1)), max_size=3))))
def test_permutation_table_matches_pairwise_loop(spec):
    degree, generators = spec
    try:
        ref, ref_gens = _perm_group_table_loop(degree, generators, cap=120)
    except ClosureCapExceeded:
        with pytest.raises(ClosureCapExceeded):
            group_from_permutations(degree, generators, cap=120)
        return
    G = group_from_permutations(degree, generators, cap=120)
    assert np.array_equal(G.mul, ref)
    assert list(G.gen_idx) == ref_gens


def _conjugacy_classes_bfs(G):
    """The per-element breadth-first search over generator conjugations,
    as a reference for `conjugacy_classes`."""
    seen = np.zeros(G.n, dtype=bool)
    classes = []
    for x in range(G.n):
        if seen[x]:
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            y = frontier.pop()
            for g in G.gen_idx:
                z = G.conjugate(g, y)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        cls = sorted(orbit)
        seen[cls] = True
        classes.append(cls)
    return classes


def test_conjugacy_classes_match_bfs_catalogwide():
    for G in formalab.catalog_groups():
        got = conjugacy_classes(G)
        assert [c.tolist() for c in got] == _conjugacy_classes_bfs(G), G.name
        assert all(c.dtype == np.intp for c in got), G.name


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.permutations(range(1, d + 1)), max_size=3))))
def test_conjugacy_classes_match_bfs_on_permutation_groups(spec):
    degree, generators = spec
    G = group_from_permutations(degree, generators)
    assert [c.tolist() for c in conjugacy_classes(G)] == _conjugacy_classes_bfs(G)


def _is_normal_by_generator_loop(G, H):
    """Reference: every conjugate of H by a generator lies inside H."""
    el = H.elements
    mask = np.zeros(G.n, dtype=bool)
    mask[el] = True
    return all(mask[G.mul[G.mul[g, el], G.inv[g]]].all() for g in G.gen_idx)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.permutations(range(1, d + 1)), max_size=3))))
def test_is_normal_matches_generator_loop_on_permutation_groups(spec):
    degree, generators = spec
    G = group_from_permutations(degree, generators)
    for H in all_subgroups(G).subgroups:
        assert is_normal(G, H) == _is_normal_by_generator_loop(G, H), H


# -- order caps ----------------------------------------------------------------

def test_direct_product_over_order_cap():
    with pytest.raises(ClosureCapExceeded, match="direct product order 600"):
        direct_product(catalog_group("S5"), catalog_group("C5"))


def test_isomorphism_over_iso_cap():
    s5, c2 = catalog_group("S5"), catalog_group("C2")
    with pytest.raises(IsoCapExceeded, match="order 240"):
        are_isomorphic(direct_product(s5, c2), direct_product(c2, s5))


# -- memoisation ---------------------------------------------------------------

MEMO_FAMILIES = {
    "conj_classes", "elem_orders", "iso_inv",
    "lattice", "core", "sec_cent", "derived", "soluble", "centre", "ucs",
    "o_pi", "fitting", "as_group",
    "min_norm_over", "quot", "central",
    "member", "residual", "sat",
    "f_maximal", "kstep", "kquot", "sec_ext", "class_ncl",
}


def _fresh_s4():
    # built anew, so no other test has warmed its cache
    return build_group({"name": "S4-fresh", "kind": "permutation", "degree": 4,
                        "generators": ["(1 2 3 4)", "(1 2)"]})


def test_memo_returns_the_cached_object():
    G = _fresh_s4()
    assert all_subgroups(G) is all_subgroups(G)
    assert conjugacy_classes(G) is conjugacy_classes(G)
    assert f_max_report(G, NIL).f_maximal == f_max_report(G, NIL).f_maximal
    assert z_pi_f(G, SUP) == z_pi_f(G, SUP)


def test_memo_keys_equal_subgroups_to_one_entry():
    G = _fresh_s4()
    D = derived_subgroup(G)
    twin = SubgroupSet(G, D.bits)
    assert twin is not D
    assert subgroup_as_group(G, twin) is subgroup_as_group(G, D)
    assert [k for k in G._cache if k[0] == "as_group"] == [("as_group", D.bits)]


def test_memo_keys_hold_no_subgroups():
    G = _fresh_s4()
    all_subgroups(G)
    is_soluble(G)
    centre(G)
    upper_central_series(G)
    fitting_subgroup(G)
    are_isomorphic(G, G)
    class_normal_closures(G)
    for F in (NIL, SUP):
        f_max_report(G, F)
        z_pi_f(G, F)
        residual(G, F)
        is_member(F, G)
        satellite_member(F, 2, G)
    for fac in chief_series(G).factors:
        section_extension(G, fac.H, fac.K)
    families = set()
    for key in G._cache:
        parts = key if isinstance(key, tuple) else (key,)
        assert all(isinstance(p, (str, int, frozenset, FormationSpec))
                   for p in parts), key
        families.add(parts[0])
    assert families == MEMO_FAMILIES


def test_memo_caches_nothing_when_the_call_raises():
    G = _fresh_s4()
    D = derived_subgroup(G)
    with pytest.raises(PreconditionViolated):
        section_centralizer(G, G.trivial_subgroup(), D)  # K not inside H
    assert not any(k[0] == "sec_cent" for k in G._cache if isinstance(k, tuple))


def test_no_assert_statements_in_the_package():
    # postconditions must still be checked under `python -O`
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(formalab.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []



# -- one group per derived table ----------------------------------------------

def _normal_of_order(G, order):
    return next(N for N in normal_subgroups(G) if N.order == order)


def test_equal_tables_from_different_parents_are_one_group():
    S3, C4 = catalog_group("S3"), catalog_group("C4")
    C2 = _normal_of_order(C4, 2)
    by_s3 = quotient_group(S3, derived_subgroup(S3)).target  # S3/A3
    by_c4 = quotient_group(C4, C2).target
    assert by_s3.n == 2
    assert by_c4 is by_s3
    assert all_subgroups(by_c4) is all_subgroups(by_s3)  # one warm cache
    # a re-indexed subgroup and a section extension with that table too
    assert subgroup_as_group(C4, C2)[0] is by_s3
    assert section_extension(C4, C2, C4.trivial_subgroup()) is by_s3


def test_different_tables_are_never_merged():
    C8, D8 = catalog_group("C8"), catalog_group("D8")
    c4 = quotient_group(C8, _normal_of_order(C8, 2)).target
    e4 = quotient_group(D8, centre(D8)).target
    assert c4.n == e4.n == 4
    assert c4 is not e4
    # every shared group is still the table its caller's map was built for
    for G in catalog_groups():
        if G.n > 48:
            continue
        for N in normal_subgroups(G):
            qm = quotient_group(G, N)
            assert np.array_equal(qm.proj[G.mul],
                                  qm.target.mul[qm.proj[:, None], qm.proj]), G.name
        for H in all_subgroups(G).subgroups:
            sub, el = subgroup_as_group(G, H)
            assert np.array_equal(el[sub.mul], G.mul[np.ix_(el, el)]), G.name


def test_origin_check_runs_on_every_construction(monkeypatch):
    calls = []
    check = Group._validate_against_origin

    def counted(self):
        calls.append(self.n)
        check(self)

    monkeypatch.setattr(Group, "_validate_against_origin", counted)
    first, second = _fresh_s4(), _fresh_s4()
    for G in (first, second):
        quotient_group(G, derived_subgroup(G))
        subgroup_as_group(G, derived_subgroup(G))
    # the second pair's tables are registered already, and still checked
    assert calls == [2, 12, 2, 12]
    assert quotient_group(second, derived_subgroup(second)).target is \
        quotient_group(first, derived_subgroup(first)).target
    assert subgroup_as_group(second, derived_subgroup(second))[0] is \
        subgroup_as_group(first, derived_subgroup(first))[0]


def test_root_groups_are_never_merged():
    A, B = _fresh_s4(), _fresh_s4()
    assert A is not B and A.name == B.name == "S4-fresh"
    assert Group(A.mul, "copy") is not A
    groups = catalog_groups()
    assert len({id(G) for G in groups}) == 65
    assert [G.name for G in groups] == [e.name for e in catalog()]
    registered = {id(D) for D in groups_mod._DERIVED.values()}
    assert not registered & {id(G) for G in [*groups, A, B]}
    # a derived group with a catalog group's table stays its own object
    S3, C2 = catalog_group("S3"), catalog_group("C2")
    Q = quotient_group(S3, derived_subgroup(S3)).target
    assert np.array_equal(Q.mul, C2.mul) and Q is not C2


def _descends_from(D, G):
    while D.origin is not None:
        D = D.origin.parent
        if D is G:
            return True
    return False


def test_registry_keeps_no_derived_group_alive():
    # S4 on its Coxeter generators: a numbering no other test uses, so its
    # derived tables are registered by this group, not merged into others
    G = build_group({"name": "S4-coxeter", "kind": "permutation", "degree": 4,
                     "generators": ["(1 2)", "(2 3)", "(3 4)"]})
    for F in (NIL, SUP, NA):
        z_f(G, F)
        int_f(G, F)
    mine = [weakref.ref(D) for D in groups_mod._DERIVED.values()
            if _descends_from(D, G)]
    assert mine
    root = weakref.ref(G)
    del G
    gc.collect()
    assert root() is None
    assert [r for r in mine if r() is not None] == []
