"""Concrete finite groups as dense multiplication tables.

A group is stored as an n-by-n table of element indices with the identity
fixed at index 0.  All downstream structures (subgroups, lattices, chief
series) are bitmasks over 0..n-1, so everything here is exact integer
arithmetic; numpy is used only to vectorise table lookups.

Normal structure is read off the conjugacy data kept here: conjugacy
classes and their distinct normal closures, which each group computes for
itself, the product of normal subgroups, and the one conjugation kernel
`conjugate_rows` (g K g^-1 for a list of g).

Per-group results (lattices, distinguished subgroups, memberships, ...)
are memoised on the group by the `memo` decorator; a catalog group's
`designated_module` is the one cache entry written by hand.

The groups this package derives for itself (quotients G/N, re-indexed
subgroups, section extensions) are one object per multiplication table:
each is built and checked, then `_shared` hands back the live group with
the same table if there is one, so every construction of that table reads
and warms one cache.  Every memoised result is a function of the table
alone, so the merge changes no answer.  Groups built by a caller (the
catalog, `build_group`, `Group(...)`) are never merged.
"""

from __future__ import annotations

import functools
import weakref
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    ClosureCapExceeded,
    InvalidPermutation,
    IsoCapExceeded,
    NotActionHomomorphism,
    NotAutomorphism,
    NotNormal,
    PreconditionViolated,
    RelationMismatch,
)

ORDER_CAP = 512
ISO_CAP = 128
# largest index array a vectorised check builds at once (8 bytes an entry)
_BLOCK_ENTRIES = 1 << 21


def _index_array(elems: Iterable[int]) -> np.ndarray:
    if isinstance(elems, np.ndarray):
        return elems.astype(np.intp, copy=False)
    return np.asarray(list(elems), dtype=np.intp)


def bits_of(elems: Iterable[int]) -> int:
    """Bitmask with bit e set for every element index e (duplicates allowed)."""
    idx = _index_array(elems)
    if idx.size == 0:
        return 0
    if idx.min() < 0:
        raise ValueError("negative element index")
    mask = np.zeros(int(idx.max()) + 1, dtype=bool)
    mask[idx] = True
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def elems_of(bits: int) -> np.ndarray:
    """Ascending element indices of the set bits of `bits`."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"),
                        dtype=np.uint8)
    # flatnonzero returns a view onto a second array; SubgroupSet caches
    # element arrays, so copy to keep one array alive instead of two
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).copy()


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


_MISS = object()


def memo(family: str):
    """Cache `fn(G, *args)` on `G._cache`, one entry per group and arguments.

    A derived group's cache is shared by every construction of its table
    (`_shared`), so a result must depend on the table alone, never on the
    name, generators or origin of the construction that built the group.

    The key is `family` alone when there are no further arguments, else the
    tuple of `family` and the arguments, with each SubgroupSet replaced by
    its bitmask so the cache holds no subgroup handles.  Arguments are
    positional and hashable.  An exception propagates and caches nothing.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def cached(G, *args):
            key = (family, *[a.bits if isinstance(a, SubgroupSet) else a
                             for a in args]) if args else family
            res = G._cache.get(key, _MISS)
            if res is _MISS:
                res = G._cache[key] = fn(G, *args)
            return res
        return cached
    return decorate


class Origin(NamedTuple):
    """Link from a quotient or subgroup-as-group back to the group it came from.

    Only proper derived groups carry one: G/1 and G as its own subgroup are
    G itself, with G's own origin or none.

    The derived group is either `parent`/`sub`, with `proj` mapping each
    parent element to its coset's index, or the subgroup `sub` of `parent`
    re-indexed so that its i-th element (ascending) is index i, with `proj`
    None.  By the correspondence theorem its subgroups are the images of
    the parent's subgroups above `sub` (quotient) or below `sub` (subgroup).
    """

    parent: Group
    sub: SubgroupSet
    proj: np.ndarray | None


class Group:
    """Finite group on indices 0..n-1 with a dense multiplication table.

    Immutable after construction; the identity is always index 0.  `origin`
    is set on the groups that `quotient_group` and `subgroup_as_group`
    build, which are G/N for N > 1 and the subgroups H < G; they return G
    itself for G/1 and for G as its own subgroup.  A derived group shared
    by several constructions keeps the origin, name and generators of the
    first; its origin is None when that was a section extension.
    """

    def __init__(self, mul, name: str, gen_idx: Sequence[int] | None = None,
                 provenance: str = "table", origin: Origin | None = None, *,
                 _associative: bool = False):
        mul = np.ascontiguousarray(np.asarray(mul, dtype=np.intp))
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
            raise ValueError("multiplication table must be square")
        n = mul.shape[0]
        if n > ORDER_CAP:
            raise ClosureCapExceeded(f"group order {n} exceeds cap {ORDER_CAP}")
        self.n = n
        self.mul = mul
        self.name = name
        self.provenance = provenance
        self.origin = origin
        self._validate_table(_associative)
        self.inv = self._invert_table()
        if gen_idx is None:
            gen_idx = self._find_generators()
        self.gen_idx = tuple(int(g) for g in gen_idx)
        self._cache: dict = {}
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)

    # -- construction checks ------------------------------------------------

    def _validate_table(self, associative: bool) -> None:
        """Check the table is a group: entries in range, index 0 a two-sided
        identity, rows and columns permutations, and associativity.

        Associativity is checked by the O(n^3) loop only for tables given
        as they are (`Group(mul, name)` called directly, a "table" spec).
        A derived table (`origin` set) is checked as a homomorphic image of
        its parent instead.  The constructors of this module pass
        `_associative=True` because their formula makes the table a group
        once its parts are: a composition table of permutations, a direct
        product of groups, a semidirect product whose action has passed
        its automorphism and multiplicativity checks, and addition in
        (Z/p)^dim.
        """
        n, mul = self.n, self.mul
        ar = np.arange(n)
        if mul.min() < 0 or mul.max() >= n:
            raise ValueError("table entries out of range")
        if not (np.array_equal(mul[0], ar) and np.array_equal(mul[:, 0], ar)):
            raise ValueError("index 0 is not a two-sided identity")
        if not ((np.sort(mul, axis=1) == ar).all()
                and (np.sort(mul, axis=0) == ar[:, None]).all()):
            raise ValueError("table rows/columns are not permutations")
        if self.origin is not None:
            self._validate_against_origin()
            return
        if associative:
            return
        # full associativity check; the order cap keeps this affordable
        for x in range(n):
            if not np.array_equal(mul[mul[x]], mul[x][mul]):
                raise ValueError(f"associativity fails at element {x}")

    def _validate_against_origin(self) -> None:
        """Check the table is a homomorphic image of its validated parent.

        A surjective homomorphic image of a group, or a subset closed under
        an injective homomorphism into one, is associative, so this stands
        in for the associativity loop.
        """
        parent, sub, proj = self.origin
        if proj is None:  # re-indexed subgroup: el[i] is element i's parent index
            el = sub.elements
            ok = (el.size == self.n
                  and np.array_equal(el[self.mul], parent.mul[np.ix_(el, el)]))
        else:  # quotient: proj maps parent elements onto this group
            ok = (proj.shape == (parent.n,)
                  and np.array_equal(np.unique(proj), np.arange(self.n))
                  and np.array_equal(proj[parent.mul], self.mul[proj[:, None], proj]))
        if not ok:
            raise ValueError("table is not a homomorphic image of its origin")

    def _invert_table(self) -> np.ndarray:
        inv = np.argmin(self.mul, axis=1)  # position of 0 in each row
        if not np.all(self.mul[np.arange(self.n), inv] == 0):
            raise ValueError("no inverses")
        return inv.astype(np.intp)

    def _find_generators(self) -> tuple[int, ...]:
        gens: list[int] = []
        have = np.array([0], dtype=np.intp)
        for x in range(1, self.n):
            if have.size == self.n:
                break
            if x in have:
                continue
            gens.append(x)
            have = closure_elements(self, np.append(have, x))
        return tuple(gens)

    # -- element arithmetic -------------------------------------------------

    @property
    def order(self) -> int:
        return self.n

    def op(self, x: int, y: int) -> int:
        return int(self.mul[x, y])

    def conjugate(self, g: int, x: int) -> int:
        return int(self.mul[self.mul[g, x], self.inv[g]])

    # -- subgroup handles ---------------------------------------------------

    def subgroup(self, elems: Iterable[int]) -> "SubgroupSet":
        return SubgroupSet(self, bits_of(elems))

    def trivial_subgroup(self) -> "SubgroupSet":
        return SubgroupSet(self, 1, check=False)

    def full_subgroup(self) -> "SubgroupSet":
        return SubgroupSet(self, (1 << self.n) - 1, check=False)

    def __repr__(self) -> str:
        return f"Group({self.name!r}, order={self.n})"

    __hash__ = object.__hash__

    def __eq__(self, other) -> bool:
        return self is other


class SubgroupSet:
    """A subgroup of a fixed parent group, stored as an element bitmask."""

    __slots__ = ("parent", "bits", "_elems")

    def __init__(self, parent: Group, bits: int, check: bool = True):
        self.parent = parent
        self.bits = bits
        self._elems: np.ndarray | None = None
        if check:
            self._verify()

    def _verify(self) -> None:
        if not self.bits & 1:
            raise ValueError("subgroup must contain the identity")
        el = self.elements
        if self.parent.n % el.size != 0:
            raise ValueError("subgroup order violates Lagrange")
        prods = self.parent.mul[np.ix_(el, el)]
        mask = np.zeros(self.parent.n, dtype=bool)
        mask[el] = True
        if not mask[prods].all():
            raise ValueError("element set is not closed under multiplication")

    @property
    def elements(self) -> np.ndarray:
        if self._elems is None:
            self._elems = elems_of(self.bits)
        return self._elems

    @property
    def order(self) -> int:
        return self.bits.bit_count()

    def contains(self, x: int) -> bool:
        return bool((self.bits >> x) & 1)

    def issubset(self, other: "SubgroupSet") -> bool:
        return self.bits & other.bits == self.bits

    def __and__(self, other: "SubgroupSet") -> "SubgroupSet":
        if other.parent is not self.parent:
            raise ValueError("subgroups of different parents")
        return SubgroupSet(self.parent, self.bits & other.bits, check=False)

    def __le__(self, other: "SubgroupSet") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "SubgroupSet") -> bool:
        return self.bits != other.bits and self.issubset(other)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubgroupSet) and other.parent is self.parent
                and other.bits == self.bits)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.bits))

    def __repr__(self) -> str:
        return f"SubgroupSet(order={self.order} of {self.parent.name})"


class QuotientMap:
    """Projection of a group onto its quotient by a normal subgroup."""

    def __init__(self, source: Group, target: Group, proj: np.ndarray,
                 kernel: SubgroupSet):
        self.source = source
        self.target = target
        self.proj = proj
        self.kernel = kernel

    def image_of(self, sub: SubgroupSet) -> SubgroupSet:
        return SubgroupSet(self.target, bits_of(np.unique(self.proj[sub.elements])),
                           check=False)

    def preimage_of(self, sub: SubgroupSet) -> SubgroupSet:
        mask = np.zeros(self.target.n, dtype=bool)
        mask[sub.elements] = True
        return SubgroupSet(self.source, bits_of(np.nonzero(mask[self.proj])[0]),
                           check=False)


# -- closure machinery ------------------------------------------------------

def closure_elements(G: Group, seed: Iterable[int]) -> np.ndarray:
    """Subgroup generated by `seed`, as a sorted element array.

    Frontier-based: each round only multiplies new elements against the
    current set.  If the set ever exceeds half the group order it must be
    the whole group (Lagrange), which short-circuits large joins.
    """
    n, mul = G.n, G.mul
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    mask[_index_array(seed)] = True
    elems = new = np.flatnonzero(mask)
    while True:
        hit = np.zeros(n, dtype=bool)
        hit[mul[new[:, None], elems]] = True
        hit[mul[elems[:, None], new]] = True
        hit &= ~mask
        if not hit.any():
            return elems
        mask |= hit
        elems = np.flatnonzero(mask)
        if elems.size > n // 2:
            return np.arange(n)
        new = np.flatnonzero(hit)


def generated_subgroup(G: Group, seed: Iterable[int]) -> SubgroupSet:
    return SubgroupSet(G, bits_of(closure_elements(G, seed)), check=False)


@memo("conj_classes")
def conjugacy_classes(G: Group) -> list[np.ndarray]:
    """Conjugacy classes of G, ordered by least element, each ascending.

    The classes are the orbits of the conjugation permutations
    x -> g x g^-1 of the generators.  Each element's label starts as itself
    and repeatedly takes the least label found one generator step away,
    with pointer jumping to shorten chains; it settles on the least element
    of its orbit.
    """
    perms = [G.mul[G.mul[g], G.inv[g]] for g in G.gen_idx]
    least = np.arange(G.n)
    while True:
        new = least
        for p in perms:
            new = np.minimum(new, new[p])
        new = new[new]
        if np.array_equal(new, least):
            break
        least = new
    members = np.argsort(least, kind="stable")
    return np.split(members, np.flatnonzero(np.diff(least[members])) + 1)


@memo("class_ncl")
def class_normal_closures(G: Group) -> list[SubgroupSet]:
    """The distinct normal closures <x^G> of the conjugacy classes, each
    once, in order of the first class (`conjugacy_classes` order) that has
    it.  Every group closes each of its classes itself.

    Only classes of prime-power order are closed, each cyclic subgroup
    once: for k prime to o(x), x^k has the same closure as x.  The closure
    of any other class is the product of those of x^(o/q), one for each
    largest prime power q dividing o = o(x), because <x^G> is the product
    of the normal closures of the primary parts of <x>.
    """
    classes = conjugacy_classes(G)
    cid = np.empty(G.n, dtype=np.intp)
    for i, cls in enumerate(classes):
        cid[cls] = i
    reps = np.array([cls[0] for cls in classes], dtype=np.intp)
    rep_orders = element_orders(G)[reps]
    # powers[k, i] = reps[i]^k, for k up to the exponent
    powers = np.empty((int(rep_orders.max()) + 1, reps.size), dtype=np.intp)
    powers[0] = 0
    for k in range(1, powers.shape[0]):
        powers[k] = G.mul[powers[k - 1], reps]
    primes = {o: prime_factors(o) for o in set(rep_orders.tolist())}
    # the exponents k prime to o, for each order o (k = 1 for o = 1)
    coprime = {o: [k for k in range(1, max(o, 2)) if all(k % p for p in ps)]
               for o, ps in primes.items()}
    closure: list[SubgroupSet | None] = [None] * len(classes)
    # primary classes first, so every primary part is closed when it is read
    for primary in (True, False):
        for i, o in enumerate(rep_orders.tolist()):
            ps = primes[o]
            if closure[i] is not None or (len(ps) <= 1) != primary:
                continue
            if primary:
                ncl = SubgroupSet(G, bits_of(_normal_closure_elements(G, classes[i])),
                                  check=False)
            else:
                parts = [powers[o // _prime_power_part(o, p), i] for p in ps]
                ncl = normal_product(G, [closure[cid[y]] for y in parts])
            for j in cid[powers[coprime[o], i]].tolist():
                closure[j] = ncl
    found = dict.fromkeys(s.bits for s in closure)
    return [SubgroupSet(G, b, check=False) for b in found]


def _normal_closure_elements(G: Group, seed: np.ndarray) -> np.ndarray:
    """`closure_elements` for a seed that is a union of conjugacy classes.

    Every set met on the way is then conjugation-invariant, and two such
    sets A, B have AB = BA, so multiplying the frontier by the elements on
    one side finds every product.
    """
    n, mul = G.n, G.mul
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    mask[seed] = True
    elems = new = np.flatnonzero(mask)
    while True:
        hit = np.zeros(n, dtype=bool)
        hit[mul[new[:, None], elems]] = True
        hit &= ~mask
        if not hit.any():
            return elems
        mask |= hit
        elems = np.flatnonzero(mask)
        if elems.size > n // 2:
            return np.arange(n)
        new = np.flatnonzero(hit)


def _prime_power_part(o: int, p: int) -> int:
    """The largest power of the prime p dividing o."""
    q = 1
    while o % (q * p) == 0:
        q *= p
    return q


def normal_product(G: Group, subs: Iterable[SubgroupSet]) -> SubgroupSet:
    """Join of normal subgroups of G as their set product; a factor that
    contains the product so far replaces it, one inside it is skipped."""
    acc = G.trivial_subgroup()
    for s in subs:
        if acc.issubset(s):
            acc = s
        elif not s.issubset(acc):
            acc = SubgroupSet(G, bits_of(G.mul[acc.elements[:, None], s.elements]),
                              check=False)
    return acc


def conjugate_rows(G: Group, kel: np.ndarray, gs: Iterable[int]) -> np.ndarray:
    """Boolean rows, one per element g of `gs`, each the membership mask
    of the conjugate g K g^-1 of the element set `kel`."""
    gs = _index_array(gs)
    rows = np.zeros((gs.size, G.n), dtype=bool)
    rows[np.arange(gs.size)[:, None],
         G.mul[G.mul[gs[:, None], kel], G.inv[gs][:, None]]] = True
    return rows


@memo("elem_orders")
def element_orders(G: Group) -> np.ndarray:
    """Order of each element: the powers x^k of all x are taken at once,
    one table gather per k, until every element has met the identity."""
    orders = np.zeros(G.n, dtype=np.intp)
    ar = np.arange(G.n)
    power, k = ar, 1
    while True:
        orders[(power == 0) & (orders == 0)] = k
        if orders.all():
            return orders
        power = G.mul[power, ar]
        k += 1


# -- constructors -----------------------------------------------------------

# live derived groups by (order, table digest); weak, so it keeps none alive
_DERIVED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shared(G: Group) -> Group:
    """The live derived group whose table equals G's, else G, registered.

    G has passed every check of its own construction.  A group is merged
    only on an exact table match; the digest just finds the candidate.
    """
    key = (G.n, hash(G.mul.tobytes()))
    known = _DERIVED.get(key)
    if known is not None and np.array_equal(known.mul, G.mul):
        return known
    _DERIVED[key] = G
    return G


def _perm_from_cycles_ok(perm: Sequence[int], degree: int) -> tuple[int, ...]:
    p = tuple(int(v) for v in perm)
    if len(p) != degree or sorted(p) != list(range(1, degree + 1)):
        raise InvalidPermutation(f"not a permutation of 1..{degree}: {perm}")
    return p


def group_from_permutations(degree: int, generators: Sequence[Sequence[int]],
                            name: str = "perm-group",
                            cap: int = ORDER_CAP) -> Group:
    """Group generated by permutations of {1..degree}, as images tuples.

    Elements are indexed in BFS order from the identity, so the numbering
    is deterministic for a fixed generator list.
    """
    if degree < 1:
        raise InvalidPermutation("degree must be positive")
    gens = [_perm_from_cycles_ok(g, degree) for g in generators]
    ident = tuple(range(1, degree + 1))
    index = {ident: 0}
    elems = [ident]
    # right[k][i]: index of elems[i] * gens[k]; element j > 0 was first
    # reached as elems[parent[j]] * gens[via[j]]
    right = [[] for _ in gens]
    parent, via = [0], [0]
    for i, cur in enumerate(elems):  # elems grows while it is scanned: BFS
        for k, g in enumerate(gens):
            # right-multiply: (cur * g)(i) = cur[g(i)]
            nxt = tuple(cur[g[t] - 1] for t in range(degree))
            if nxt not in index:
                if len(elems) >= cap:
                    raise ClosureCapExceeded(
                        f"closure exceeds cap {cap} (degree {degree})")
                index[nxt] = len(elems)
                elems.append(nxt)
                parent.append(i)
                via.append(k)
            right[k].append(index[nxt])
    n = len(elems)
    right = np.asarray(right, dtype=np.intp).reshape(len(gens), n)
    # column j of the table is x -> x * elems[j], which is column parent[j]
    # followed by right multiplication by gens[via[j]]
    cols = np.empty((n, n), dtype=np.intp)
    cols[0] = np.arange(n)
    for j in range(1, n):
        cols[j] = right[via[j], cols[parent[j]]]
    mul = cols.T
    gen_idx = [index[g] for g in gens]
    return Group(mul, name, gen_idx=gen_idx, provenance=f"permutations deg {degree}",
                 _associative=True)


def direct_product(A: Group, B: Group, name: str | None = None) -> Group:
    """Componentwise product; element (a, b) has index a*|B| + b."""
    n = A.n * B.n
    if n > ORDER_CAP:
        raise ClosureCapExceeded(f"direct product order {n} exceeds cap {ORDER_CAP}")
    mul = (A.mul[:, None, :, None] * B.n + B.mul[None, :, None, :]).reshape(n, n)
    gens = [g * B.n for g in A.gen_idx] + list(B.gen_idx)
    return Group(mul, name or f"{A.name} x {B.name}", gen_idx=gens,
                 provenance=f"direct product of {A.name}, {B.name}",
                 _associative=True)


def semidirect_product(N: Group, H: Group, action, name: str | None = None) -> Group:
    """N ⋊ H for a left action of H on N by automorphisms.

    `action[h]` is the permutation of N's indices giving the automorphism
    induced by h; multiplication is (n1,h1)(n2,h2) = (n1 · h1▷n2, h1h2).
    """
    action = np.asarray(action, dtype=np.intp)
    if action.shape != (H.n, N.n):
        raise NotActionHomomorphism(
            f"action table must be {H.n} x {N.n}, got {action.shape}")
    ar = np.arange(N.n)
    bijective = (np.sort(action, axis=1) == ar).all(axis=1) & (action[:, 0] == 0)
    # rows are checked in blocks of bounded size and the first failing row
    # is reported, by the first test it fails, as a row-by-row loop would
    stop = int(np.argmin(bijective)) if not bijective.all() else H.n
    step = max(1, _BLOCK_ENTRIES // (N.n * N.n))
    for lo in range(0, stop, step):
        a = action[lo:min(lo + step, stop)]
        # a(x y) == a(x) a(y) for all x, y
        auto = (a[:, N.mul] == N.mul[a[:, :, None], a[:, None, :]]).all(axis=(1, 2))
        if not auto.all():
            h = lo + int(np.argmin(auto))
            raise NotAutomorphism(f"action of element {h} is not an automorphism")
    if stop < H.n:
        raise NotAutomorphism(f"action of element {stop} is not a bijection fixing e")
    if not np.array_equal(action[0], ar):
        raise NotActionHomomorphism("identity must act trivially")
    step = max(1, _BLOCK_ENTRIES // (H.n * N.n))
    for lo in range(0, H.n, step):
        hi = min(lo + step, H.n)
        # action(h1 h2) must equal action(h1) ∘ action(h2)
        mult = (action[H.mul[lo:hi]] == action[lo:hi][:, action]).all(axis=(1, 2))
        if not mult.all():
            h1 = lo + int(np.argmin(mult))
            raise NotActionHomomorphism(f"action is not multiplicative at {h1}")
    n = N.n * H.n
    if n > ORDER_CAP:
        raise ClosureCapExceeded(
            f"semidirect product order {n} exceeds cap {ORDER_CAP}")
    # entry [(n1, h1), (n2, h2)] is (n1 · h1▷n2, h1 h2)
    mul = (N.mul[:, action][:, :, :, None] * H.n
           + H.mul[None, :, None, :]).reshape(n, n)
    gens = [nx * H.n for nx in N.gen_idx] + list(H.gen_idx)
    return Group(mul, name or f"{N.name} : {H.name}", gen_idx=gens,
                 provenance=f"semidirect product of {N.name} by {H.name}",
                 _associative=True)


def trivial_action(N: Group, H: Group) -> np.ndarray:
    return np.tile(np.arange(N.n), (H.n, 1))


def extend_action(H: Group, gen_perms: Sequence[np.ndarray],
                  degree: int) -> np.ndarray:
    """Action table of H on 0..degree-1 from one permutation per generator.

    Row h·g is row h after g's permutation, filled along a spanning tree of
    H's Cayley graph; `semidirect_product` checks the other edges, which
    hold iff the table is an action.
    """
    action = np.full((H.n, degree), -1, dtype=np.intp)
    action[0] = np.arange(degree)
    queue = [0]
    while queue:
        h = queue.pop(0)
        for g, ag in zip(H.gen_idx, gen_perms):
            nxt = int(H.mul[h, g])
            if action[nxt, 0] < 0:
                action[nxt] = action[h][ag]
                queue.append(nxt)
    return action


def elementary_abelian_vector_group(p: int, dim: int,
                                    name: str | None = None) -> Group:
    """(C_p)^dim with vectors indexed by base-p digit strings."""
    n = p ** dim
    idx = np.arange(n)
    digits = np.empty((n, dim), dtype=np.intp)
    t = idx.copy()
    for d in range(dim):
        digits[:, d] = t % p
        t //= p
    weights = p ** np.arange(dim)
    sums = (digits[:, None, :] + digits[None, :, :]) % p
    mul = sums @ weights
    return Group(mul, name or f"E{n}", provenance=f"elementary abelian {p}^{dim}",
                 _associative=True)


def _vector_index_perm(p: int, dim: int, mat: np.ndarray) -> np.ndarray:
    """Permutation of F_p^dim indices induced by an invertible matrix."""
    n = p ** dim
    idx = np.arange(n)
    digits = np.empty((dim, n), dtype=np.intp)
    t = idx.copy()
    for d in range(dim):
        digits[d] = t % p
        t //= p
    out = (mat % p) @ digits % p
    weights = p ** np.arange(dim)
    return weights @ out


def matrix_module_semidirect(p: int, dim: int, mats: Sequence, H: Group,
                             name: str | None = None) -> tuple[Group, SubgroupSet]:
    """V ⋊ H for V = F_p^dim acted on by matrices given on H's generators.

    Returns the product group together with the designated copy of V.
    Each matrix is turned into the permutation of V's indices it induces,
    and the product is the semidirect product by the action those extend
    to.  A matrix acts faithfully on V and a linear map is additive, so the
    product's automorphism and action checks on the permutations are
    exactly the checks that the matrices are invertible and respect H's
    relations; a failure of either raises RelationMismatch.
    """
    if dim < 1:
        raise PreconditionViolated(f"dim must be positive, got {dim}")
    if len(mats) != len(H.gen_idx):
        raise RelationMismatch(
            f"need one matrix per generator of {H.name} "
            f"({len(H.gen_idx)}), got {len(mats)}")
    mats = [np.asarray(m, dtype=np.intp) for m in mats]
    for i, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise PreconditionViolated(
                f"generator matrix {i} must be {dim}x{dim}, got shape {m.shape}")
    n = p ** dim * H.n
    if n > ORDER_CAP:
        raise ClosureCapExceeded(
            f"matrix module extension order {n} exceeds cap {ORDER_CAP}")
    V = elementary_abelian_vector_group(p, dim)
    perms = [_vector_index_perm(p, dim, m) for m in mats]
    try:
        G = semidirect_product(V, H, extend_action(H, perms, V.n),
                               name=name or f"F{p}^{dim} : {H.name}")
    except (NotAutomorphism, NotActionHomomorphism) as exc:
        raise RelationMismatch(
            f"generator matrices do not give an action of {H.name}: {exc}") from exc
    vsub = SubgroupSet(G, bits_of(np.arange(V.n) * H.n), check=False)
    return G, vsub


def quotient_group(G: Group, N: SubgroupSet) -> QuotientMap:
    """Quotient G/N; cosets are indexed by their least element, ascending.

    One QuotientMap per (G, N) is built and shared by every caller, and its
    target is the one derived group with its table (`_shared`), so the
    quotient's memoised results are computed once.  G/1 is G itself: with
    singleton cosets the indexing gives G's own table and numbering.
    """
    if N.parent is not G:
        raise ValueError("subgroup of a different parent")
    return _quotient_group(G, N)


@memo("quot")
def _quotient_group(G: Group, N: SubgroupSet) -> QuotientMap:
    if not is_normal(G, N):
        raise NotNormal(f"subgroup of order {N.order} is not normal in {G.name}")
    if N.order == 1:
        return QuotientMap(G, G, np.arange(G.n), N)
    reps_arr, proj = np.unique(G.mul[:, N.elements].min(axis=1), return_inverse=True)
    mul = proj[G.mul[np.ix_(reps_arr, reps_arr)]]
    gens = []
    for g in G.gen_idx:
        pg = int(proj[g])
        if pg != 0 and pg not in gens:
            gens.append(pg)
    target = Group(mul, f"{G.name}/({N.order})", gen_idx=gens,
                   provenance=f"quotient of {G.name} by order-{N.order} subgroup",
                   origin=Origin(G, N, proj))
    return QuotientMap(G, _shared(target), proj, N)


def is_normal(G: Group, H: SubgroupSet) -> bool:
    """Conjugation-invariance: each conjugate of H by a generator contains H."""
    el = H.elements
    return bool(conjugate_rows(G, el, G.gen_idx)[:, el].all())


# -- isomorphism testing ----------------------------------------------------

@memo("iso_inv")
def _iso_invariants(G: Group) -> tuple:
    orders = element_orders(G)
    classes = conjugacy_classes(G)
    return (
        G.n,
        tuple(sorted(np.bincount(orders).tolist())),
        tuple(sorted((len(c), int(orders[c[0]])) for c in classes)),
    )


def _extend_hom(A: Group, B: Group, gens: Sequence[int],
                images: Sequence[int]) -> np.ndarray | None:
    """Map on <gens> defined by gens -> images, or None on conflict."""
    phi = np.full(A.n, -1, dtype=np.intp)
    phi[0] = 0
    queue = [0]
    while queue:
        x = queue.pop(0)
        for g, ig in zip(gens, images):
            y = int(A.mul[x, g])
            im = int(B.mul[phi[x], ig])
            if phi[y] < 0:
                phi[y] = im
                queue.append(y)
            elif phi[y] != im:
                return None
    return phi


def are_isomorphic(A: Group, B: Group) -> bool:
    """Generator-image backtracking with element-order pruning."""
    if A.n != B.n:
        return False
    if A.n > ISO_CAP:
        raise IsoCapExceeded(f"order {A.n} exceeds isomorphism cap {ISO_CAP}")
    if _iso_invariants(A) != _iso_invariants(B):
        return False
    gens = list(A.gen_idx)
    orders_a = element_orders(A)
    orders_b = element_orders(B)
    candidates = [np.nonzero(orders_b == orders_a[g])[0] for g in gens]

    def place(k: int, chosen: list[int]) -> bool:
        if k == len(gens):
            phi = _extend_hom(A, B, gens, chosen)
            if phi is None or (phi < 0).any():
                return False
            if np.unique(phi).size != A.n:
                return False
            return bool(np.array_equal(phi[A.mul], B.mul[np.ix_(phi, phi)]))
        for img in candidates[k]:
            # partial consistency: the map on <g_0..g_k> must be injective
            phi = _extend_hom(A, B, gens[:k + 1], chosen + [int(img)])
            if phi is None:
                continue
            assigned = phi[phi >= 0]
            if np.unique(assigned).size != assigned.size:
                continue
            if place(k + 1, chosen + [int(img)]):
                return True
        return False

    return place(0, [])
