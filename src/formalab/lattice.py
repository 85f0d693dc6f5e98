"""Exhaustive subgroup lattices and the classical distinguished subgroups.

Lattice enumeration is cyclic extension over zuppos (cyclic subgroups of
prime-power order, read off the powers of their generators) up to
conjugacy: one member K of each conjugacy class of subgroups is extended by
the zuppos Z in its normaliser with Z^p <= K, each extension the set product
KZ, and a new subgroup brings in its whole class; everything is
deduplicated by canonical bitmask.  A soluble group needs nothing more; in
a non-soluble group K is also joined by closure with each zuppo outside its
normaliser.
A quotient or subgroup-as-group whose parent already has its lattice cached
takes its lattice from the parent's instead (correspondence theorem), with
the same members in the same order.  A lattice is its members and their
conjugacy-class ids: a question invariant under conjugation is asked once
per class, and a member is normal exactly when it is alone in its class.
The element-level helpers (derived series, centre, O_p, ...) deliberately
do not require a lattice so that formation membership tests stay cheap;
O_pi, the Fitting subgroup and the socle are products of normal subgroups
built from the class normal closures of `groups`.
"""

from __future__ import annotations

from collections import Counter
from math import lcm

import numpy as np

from .errors import (
    FormalabError,
    NotSoluble,
    PreconditionViolated,
    SubgroupCountCapExceeded,
)
from .groups import (
    ORDER_CAP,
    Group,
    Origin,
    QuotientMap,
    SubgroupSet,
    _shared,
    bits_of,
    class_normal_closures,
    closure_elements,
    conjugate_rows,
    elems_of,
    element_orders,
    is_normal,
    memo,
    normal_product,
    prime_factors,
    quotient_group,
)

SUBGROUP_CAP = 20000


def is_small_prime(p: int) -> bool:
    """p is a prime no larger than ORDER_CAP.

    No larger prime divides the order of a group here, and the bound is
    checked before trial division, which would take years on a large prime.
    """
    return 1 < p <= ORDER_CAP and prime_factors(p) == (p,)


def pi_part(n: int, pi) -> int:
    """Largest divisor of n with all prime factors in pi."""
    part = 1
    for p in prime_factors(n):
        if p in pi:
            while n % p == 0:
                n //= p
                part *= p
    return part


class Lattice:
    """All subgroups of a group, in increasing-order-then-bitmask order,
    with a parallel list of conjugacy-class ids.

    `classes[i] == classes[j]` exactly when members i and j are conjugate
    in the group, and each id is the index of its class's first member.
    An enumerated lattice records the classes its enumeration finds; a
    quotient's lattice inherits its parent's (X ~ Y in G iff X/N ~ Y/N in
    G/N); a re-indexed subgroup's lattice splits each parent class with two
    or more members inside it into its conjugacy classes there.
    """

    def __init__(self, subgroups: list[SubgroupSet], classes: list[int]):
        self.subgroups = subgroups
        self.classes = classes

    def __len__(self) -> int:
        return len(self.subgroups)

    def normal_members(self) -> list[SubgroupSet]:
        """The members alone in their conjugacy class, in lattice order."""
        size = Counter(self.classes)
        return [s for s, c in zip(self.subgroups, self.classes) if size[c] == 1]


@memo("lattice")
def all_subgroups(G: Group) -> Lattice:
    """Complete subgroup lattice of G, at most SUBGROUP_CAP members, with
    the conjugacy-class id of each member.

    A derived group (`G.origin` set) whose parent's lattice is cached gets
    its lattice, and from it the class ids, from the parent's; any other
    group is enumerated, and its class ids come from the enumeration.
    """
    found = _corresponding_bits(G)
    if found is None:
        found = list(_enumerate_bits(G).items())
    elif len(found) > SUBGROUP_CAP:
        raise SubgroupCountCapExceeded(
            f"{G.name} has more than {SUBGROUP_CAP} subgroups")
    found.sort(key=lambda bk: (bk[0].bit_count(), bk[0]))
    first: dict[int, int] = {}
    classes = [first.setdefault(key, i) for i, (_, key) in enumerate(found)]
    return Lattice([SubgroupSet(G, b, check=False) for b, _ in found], classes)


def _corresponding_bits(G: Group) -> list[tuple[int, int]] | None:
    """Subgroup bitmasks of a derived group read off its parent's cached
    lattice, or None when G has no parent or the parent has no lattice yet
    (a parent lattice is never built just to derive from it).

    Each bitmask comes with a class key shared exactly by the members
    conjugate in G.
    """
    if G.origin is None:
        return None
    parent, sub, proj = G.origin
    lat = parent._cache.get("lattice")
    if lat is None:
        return None
    if proj is None:  # G is `sub` re-indexed by its ascending element array
        el = sub.elements
        inside = [(bits_of(np.searchsorted(el, s.elements)), c)
                  for s, c in zip(lat.subgroups, lat.classes) if s.issubset(sub)]
        return _split_classes(G, inside)
    # a quotient keeps the parent's classes
    return [(bits_of(proj[s.elements]), c)
            for s, c in zip(lat.subgroups, lat.classes) if sub.issubset(s)]


def _split_classes(G: Group, members: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Class keys in G for subgroups of G given with their classes in a
    larger group, as (bitmask, parent class id) pairs.

    Conjugacy in G is finer: a parent class with one member here stays a
    class, and one with more splits into the G-classes of its members.
    Every key returned is the bitmask of a member of its G-class.
    """
    count = Counter(c for _, c in members)
    key: dict[int, int] = {}
    for b, c in members:
        if b in key:
            continue
        if count[c] == 1:
            key[b] = b
        else:
            for conj in _conjugate_bits(G, elems_of(b)):
                key[conj] = b
    return [(b, key[b]) for b, _ in members]


def _enumerate_bits(G: Group) -> dict[int, int]:
    """Subgroup bitmasks of G by cyclic extension, up to conjugacy, each
    mapped to a class key: the bitmask of the member of its conjugacy class
    that the enumeration found first.

    A zuppo is a cyclic subgroup of prime-power order.  One loop takes one
    member K of each conjugacy class, the trivial subgroup first, and
    extends it by the zuppos Z = <z> it does not contain; a new subgroup
    brings in its whole class.

    - Z <= N_G(K): the extension is the set product KZ, taken only when
      Z^p <= K, so that K has prime index p in it.  A longer step
      K < K<z^p> < KZ is taken one prime index at a time.  Every zuppo
      whose generator lies in a product already made for K would make that
      same product again, and is skipped.
    - Z outside N_G(K), G soluble: skipped.  Every subgroup H > 1 of a
      soluble group has a normal subgroup K of prime index p, and H = K<z>
      for a p-element z of N_G(K) with z^p in K, so the products reach it.
    - Z outside N_G(K), G not soluble: the join of K and Z by closure.  The
      found set is then closed under conjugation and, since
      K^g v Z = (K v Z^(g^-1))^g, under joins with zuppos, so it holds every
      subgroup.
    """
    soluble = is_soluble(G)
    zuppos = _zuppos(G)
    found = {1: 1}
    queue: list[tuple[int, np.ndarray, int]] = []

    def add_class(kb: int, kel: np.ndarray) -> None:
        conjugates, normaliser = _conjugates(G, kel)
        found.update((b, kb) for b in conjugates)
        if len(found) > SUBGROUP_CAP:
            raise SubgroupCountCapExceeded(
                f"{G.name} has more than {SUBGROUP_CAP} subgroups")
        queue.append((kb, kel, bits_of(normaliser)))

    queue.append((1, np.zeros(1, dtype=np.intp), (1 << G.n) - 1))
    while queue:
        kb, kel, nb = queue.pop()
        made = kb  # K and the products made from it so far
        for z, zp, zel in zuppos:
            if made >> z & 1:
                continue
            if nb >> z & 1:
                if not kb >> zp & 1:
                    continue
                jb = bits_of(G.mul[kel[:, None], zel].ravel())
                made |= jb
            elif soluble:
                continue
            else:
                jb = bits_of(closure_elements(G, np.concatenate([kel, zel])))
            if jb not in found:
                add_class(jb, elems_of(jb))
    return found


def _zuppos(G: Group) -> list[tuple[int, int, np.ndarray]]:
    """The zuppos of G, one (z, z^p, elements of <z>) for each, with z its
    least generator and p the prime dividing its order.  The elements are
    read off the powers of z, not closed."""
    orders = element_orders(G)
    everything = np.arange(G.n)
    powers = [np.zeros(G.n, dtype=np.intp)]
    for _ in range(int(orders.max()) - 1):
        powers.append(G.mul[powers[-1], everything])
    powers = np.array(powers)  # powers[i, x] = x^i
    zuppos: dict[int, tuple[int, int, np.ndarray]] = {}
    for x in range(1, G.n):
        q = int(orders[x])
        p = prime_factors(q)
        if len(p) == 1:
            zel = powers[:q, x]  # z^p is zel[p % q], since z^q = 1
            zuppos.setdefault(bits_of(zel), (x, int(zel[p[0] % q]), zel))
    return list(zuppos.values())


def _conjugates(G: Group, kel: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Bitmasks of the distinct conjugates of the subgroup K with elements
    `kel`, and the elements of its normaliser N.

    g K g^-1 depends only on the left coset gN, so each conjugate is taken
    once, from the least element of its coset.
    """
    rows = conjugate_rows(G, kel, np.arange(G.n))
    normaliser = np.flatnonzero(rows[:, kel].all(axis=1))
    if normaliser.size == G.n:
        return [bits_of(kel)], normaliser
    least = G.mul[:, normaliser].min(axis=1) == np.arange(G.n)
    packed = np.packbits(rows[least], axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in packed], normaliser


def _conjugate_bits(G: Group, kel: np.ndarray) -> list[int]:
    """Bitmasks of the distinct conjugates of the subgroup with elements `kel`."""
    return _conjugates(G, kel)[0]


def join(G: Group, *subs: SubgroupSet) -> SubgroupSet:
    elems = np.concatenate([s.elements for s in subs]) if subs else [0]
    return SubgroupSet(G, bits_of(closure_elements(G, elems)), check=False)


def normal_subgroups(G: Group) -> list[SubgroupSet]:
    return all_subgroups(G).normal_members()


def maximal_members(members, keep=None) -> list[SubgroupSet]:
    """The maximal members of the family of `members` that `keep` passes
    (all when `keep` is None), in the order given.

    `members` are distinct, by ascending order (lattice order is).  From
    the largest down, one inside a member already found is skipped, unasked,
    and any other is kept if `keep` passes.  This is right for any family:
    every larger member of it lies in a maximal one, which was scanned first.
    """
    found: list[SubgroupSet] = []
    for s in reversed(members):
        if not any(s.issubset(t) for t in found) and (keep is None or keep(s)):
            found.append(s)
    return found[::-1]


def minimal_members(members) -> list[SubgroupSet]:
    """The members containing no other member, in (order, bits) order: the
    mirror of `maximal_members`, scanned from the smallest up."""
    found: list[SubgroupSet] = []
    for s in sorted(members, key=lambda s: (s.order, s.bits)):
        if not any(t.issubset(s) for t in found):
            found.append(s)
    return found


def intersection(G: Group, family) -> SubgroupSet:
    """Intersection of a family of subgroups of G; G itself if it is empty."""
    bits = (1 << G.n) - 1
    for s in family:
        bits &= s.bits
    return SubgroupSet(G, bits, check=False)


def maximal_subgroups(G: Group) -> list[SubgroupSet]:
    """Inclusion-maximal proper subgroups of G."""
    return maximal_members([s for s in all_subgroups(G).subgroups if s.order < G.n])


def minimal_normal_subgroups(G: Group) -> list[SubgroupSet]:
    """Minimal normal subgroups in (order, bits) order, from class closures
    alone: no subgroup lattice is built."""
    from .chiefs import minimal_normals_over  # chiefs imports this module
    return minimal_normals_over(G, G.trivial_subgroup())


def core(G: Group, H: SubgroupSet, within: SubgroupSet | None = None) -> SubgroupSet:
    """Intersection of all conjugates of H by elements of `within` (default G)."""
    return _core(G, H, G.full_subgroup() if within is None else within)


@memo("core")
def _core(G: Group, H: SubgroupSet, within: SubgroupSet) -> SubgroupSet:
    rows = conjugate_rows(G, H.elements, within.elements)
    return SubgroupSet(G, bits_of(np.flatnonzero(rows.all(axis=0))), check=False)


@memo("sec_cent")
def section_centralizer(G: Group, H: SubgroupSet, K: SubgroupSet) -> SubgroupSet:
    """C_G(H/K) = { g : [g, h] in K for all h in H }."""
    if not (K.issubset(H) and is_normal(G, K) and is_normal(G, H)):
        raise PreconditionViolated("need K <= H with both normal in G")
    hel = H.elements
    kmask = np.zeros(G.n, dtype=bool)
    kmask[K.elements] = True
    # comm[g, i] = g h_i g^-1 h_i^-1, for every g at once
    comm = G.mul[G.mul[G.mul[:, hel], G.inv[:, None]], G.inv[hel]]
    return SubgroupSet(G, bits_of(np.flatnonzero(kmask[comm].all(axis=1))),
                       check=False)


# -- element-level structural subgroups (no lattice required) ---------------

@memo("derived")
def derived_subgroup(G: Group) -> SubgroupSet:
    a = G.mul                       # a[x,y] = xy
    b = G.mul.T                     # b[x,y] = yx
    comms = np.unique(G.mul[a, G.inv[b]])   # (xy)(yx)^-1 = x y x^-1 y^-1
    return SubgroupSet(G, bits_of(closure_elements(G, comms)), check=False)


def derived_series(G: Group) -> list[SubgroupSet]:
    series = [G.full_subgroup()]
    cur = derived_subgroup(G)
    while cur.bits != series[-1].bits:
        series.append(cur)
        cur = translate_out(G, cur, derived_subgroup(subgroup_as_group(G, cur)[0]))
    return series


@memo("soluble")
def is_soluble(G: Group) -> bool:
    return derived_series(G)[-1].order == 1


@memo("centre")
def centre(G: Group) -> SubgroupSet:
    members = np.flatnonzero((G.mul == G.mul.T).all(axis=1))
    return SubgroupSet(G, bits_of(members), check=False)


@memo("ucs")
def upper_central_series(G: Group) -> list[SubgroupSet]:
    """1 = Z_0 <= Z_1 <= ... up to the stable term Z_inf.

    Each term is a centralizer in G itself, Z_{i+1} = C_G(G/Z_i), the g
    whose commutators with all of G lie in Z_i; no quotient is built.
    """
    full = G.full_subgroup()
    series = [G.trivial_subgroup()]
    while series[-1].order < G.n:
        nxt = section_centralizer(G, full, series[-1])
        if nxt.bits == series[-1].bits:
            break
        series.append(nxt)
    return series


def hypercentre(G: Group) -> SubgroupSet:
    return upper_central_series(G)[-1]


def is_nilpotent(G: Group) -> bool:
    return hypercentre(G).order == G.n


def is_p_group(G: Group, p: int) -> bool:
    return G.n == 1 or prime_factors(G.n) == (p,)


def is_pi_group(G: Group, pi) -> bool:
    return all(p in pi for p in prime_factors(G.n))


def group_exponent(G: Group) -> int:
    return lcm(*element_orders(G).tolist()) if G.n > 1 else 1


def is_abelian(G: Group) -> bool:
    return bool(np.array_equal(G.mul, G.mul.T))


def o_pi(G: Group, pi) -> SubgroupSet:
    """Largest normal pi-subgroup: the product of the class normal closures
    that are pi-groups, since x lies in it iff <x^G> is a pi-group."""
    return _o_pi(G, frozenset(pi))


@memo("o_pi")
def _o_pi(G: Group, pi: frozenset[int]) -> SubgroupSet:
    return normal_product(G, [s for s in class_normal_closures(G)
                              if all(p in pi for p in prime_factors(s.order))])


def o_p(G: Group, p: int) -> SubgroupSet:
    return o_pi(G, (p,))


@memo("fitting")
def fitting_subgroup(G: Group) -> SubgroupSet:
    """Product of the O_p over the primes dividing |G| (lattice-free)."""
    return normal_product(G, [o_p(G, p) for p in prime_factors(G.n)])


def nilpotent_length(G: Group) -> int:
    """Length of the iterated-Fitting series; 0 for the trivial group."""
    if not is_soluble(G):
        raise NotSoluble(f"{G.name} is not soluble")
    r = 0
    Q = G
    while Q.n > 1:
        f = fitting_subgroup(Q)
        Q = quotient_group(Q, f).target
        r += 1
    return r


# -- lattice-backed named subgroups ----------------------------------------

@memo("as_group")
def subgroup_as_group(G: Group, H: SubgroupSet) -> tuple[Group, np.ndarray]:
    """Reindex a subgroup as a standalone Group.

    Returns (group, elems) where elems[i] is the parent index of the
    subgroup's element i; sorted ascending so identity stays at 0.  G as
    its own subgroup is G itself, since the re-indexed table is G's; any
    other is the one derived group with its table (`groups._shared`).
    """
    el = H.elements
    if el.size == G.n:
        return G, el
    sub_mul = np.searchsorted(el, G.mul[np.ix_(el, el)])
    sub = Group(sub_mul, f"{G.name}[{H.order}]",
                provenance=f"subgroup of {G.name}",
                origin=Origin(G, H, None))
    return _shared(sub), el


def translate_into(G: Group, H: SubgroupSet, S: SubgroupSet) -> SubgroupSet:
    """Express S <= H as a SubgroupSet of the standalone group for H."""
    sub, el = subgroup_as_group(G, H)
    if not S.issubset(H):
        raise PreconditionViolated("S must be contained in H")
    return SubgroupSet(sub, bits_of(np.searchsorted(el, S.elements)), check=False)


def translate_out(G: Group, H: SubgroupSet, S_sub: SubgroupSet) -> SubgroupSet:
    sub, el = subgroup_as_group(G, H)
    return SubgroupSet(G, bits_of(el[S_sub.elements]), check=False)


def frattini_subgroup(G: Group) -> SubgroupSet:
    return intersection(G, maximal_subgroups(G))


def socle(G: Group) -> SubgroupSet:
    return normal_product(G, minimal_normal_subgroups(G))


def o_pprime_p(G: Group, p: int) -> SubgroupSet:
    pp = [q for q in prime_factors(G.n) if q != p]
    opp = o_pi(G, pp) if pp else G.trivial_subgroup()
    qm = quotient_group(G, opp)
    return qm.preimage_of(o_p(qm.target, p))


def named_subgroup(G: Group, kind: str, pi=None, p: int | None = None) -> SubgroupSet:
    """Dispatch for the classical distinguished subgroups."""
    if kind == "derived":
        return derived_subgroup(G)
    if kind == "centre":
        return centre(G)
    if kind == "fitting":
        return fitting_subgroup(G)
    if kind == "frattini":
        return frattini_subgroup(G)
    if kind == "hypercentre_inf":
        return hypercentre(G)
    if kind == "O_pi":
        if not pi:
            raise PreconditionViolated("O_pi needs a nonempty prime set")
        return o_pi(G, pi)
    if kind == "O_pprime_p":
        if p is None:
            raise PreconditionViolated("O_pprime_p needs a prime")
        return o_pprime_p(G, p)
    if kind == "socle":
        return socle(G)
    raise PreconditionViolated(f"unknown subgroup kind {kind!r}")


def sylow(G: Group, p: int) -> SubgroupSet:
    """First subgroup (canonical order) whose order is the p-part of |G|."""
    s = hall(G, (p,))
    if s is None:
        raise FormalabError(f"Sylow {p}-subgroup missing from the lattice of {G.name}")
    return s


def hall(G: Group, pi) -> SubgroupSet | None:
    """A Hall pi-subgroup if one exists in the lattice, else None."""
    target = pi_part(G.n, frozenset(pi))
    for s in all_subgroups(G).subgroups:
        if s.order == target:
            return s
    return None
