"""Seeded request generator for the hypercentre_stream workload.

The generator needs nothing from formalab: permutation specs are sized by
the generator's own BFS over the generated permutation group, and direct
products are sized from the catalog orders it is given.  The same seed
and the same catalog orders give byte-identical specs.
"""

from __future__ import annotations

import json
import random
from collections import Counter

ORDER_CAP = 160
DEGREES = (4, 5, 6, 7)
PERM_EDGES = (8, 24, 60)            # permutation strata: (0,8] (8,24] (24,60] (60,cap]
DIRECT_EDGES = (40, 80, 120)        # direct-product strata, likewise
DIRECT_PER_STRATUM = 10


def perm_group_order(gens, cap: int) -> int:
    """Order of the group generated by `gens` (images tuples on 0..d-1),
    or cap + 1 as soon as the BFS finds more than `cap` elements."""
    degree = len(gens[0])
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in gens:
                prod = tuple(cur[g[i]] for i in range(degree))
                if prod not in seen:
                    seen.add(prod)
                    if len(seen) > cap:
                        return cap + 1
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


def cycle_string(images) -> str:
    """Cycle notation, 1-based, of a 0-based images tuple."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            continue
        cyc = []
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cyc.append(str(cur + 1))
            cur = images[cur]
        out.append("(" + " ".join(cyc) + ")")
    return "".join(out) or "()"


def _permutation_spec(rng: random.Random, index: int, lo: int, hi: int):
    """Random 2-generator permutation group with lo < order <= hi."""
    while True:
        degree = rng.choice(DEGREES)
        gens = []
        for _ in range(2):
            img = list(range(degree))
            rng.shuffle(img)
            gens.append(tuple(img))
        order = perm_group_order(gens, hi)
        if lo < order <= hi:
            spec = {"name": f"req{index}", "kind": "permutation",
                    "degree": degree,
                    "generators": [cycle_string(g) for g in gens]}
            return spec, order


def _strata(edges):
    return list(zip((0,) + edges[:-1], edges))


def direct_menu(catalog_orders: dict[str, int], cap: int = ORDER_CAP):
    """The fixed direct-product menu: per order stratum, DIRECT_PER_STRATUM
    (a, b, order) pairs evenly spaced in (order, a, b) order."""
    names = sorted(catalog_orders)
    pairs = sorted((catalog_orders[a] * catalog_orders[b], a, b)
                   for a in names for b in names
                   if catalog_orders[a] > 1 and catalog_orders[b] > 1
                   and catalog_orders[a] * catalog_orders[b] <= cap)
    menu = []
    for lo, hi in _strata(tuple(e for e in DIRECT_EDGES if e < cap) + (cap,)):
        inside = [(a, b, order) for order, a, b in pairs if lo < order <= hi]
        if inside:
            step = len(inside) / min(DIRECT_PER_STRATUM, len(inside))
            menu.append([inside[int(j * step)]
                         for j in range(min(DIRECT_PER_STRATUM, len(inside)))])
    return menu


def generate(seed: int, count: int, catalog_orders: dict[str, int],
             cap: int = ORDER_CAP) -> list[tuple[dict, int]]:
    """`count` (spec, order) requests.  Even indices are permutation groups,
    odd indices direct products of two nontrivial catalog groups.

    Request size sets the work, so both kinds cycle through fixed order
    strata and every run has the same mix of sizes.  Permutation groups are
    drawn at random inside their stratum.  Direct products come from a fixed
    menu that each seed shuffles per stratum and then cycles through, so a
    run serves every menu pair about equally often: a random subset of the
    ~1300 possible pairs would make the latency tail depend on the seed
    more than on the code.
    """
    rng = random.Random(seed)
    perm_strata = _strata(tuple(e for e in PERM_EDGES if e < cap) + (cap,))
    menu = direct_menu(catalog_orders, cap)
    for stratum in menu:
        rng.shuffle(stratum)
    out = []
    for i in range(count):
        k = i // 2
        if i % 2 == 0:
            lo, hi = perm_strata[k % len(perm_strata)]
            out.append(_permutation_spec(rng, i, lo, hi))
        else:
            stratum = menu[k % len(menu)]
            a, b, order = stratum[(k // len(menu)) % len(stratum)]
            out.append(({"name": f"req{i}", "kind": "direct", "factors": [a, b]},
                        order))
    return out


def encode(reqs) -> bytes:
    """Canonical bytes of a request list, for determinism checks."""
    return json.dumps([spec for spec, _ in reqs], sort_keys=True,
                      separators=(",", ":")).encode()


def describe(reqs, bucket_edges=(8, 16, 32, 64, 128)) -> dict:
    """Order histogram (upper bucket edges) and spec-kind mix."""
    hist = Counter()
    for _, order in reqs:
        label = next((f"<={e}" for e in bucket_edges if order <= e),
                     f">{bucket_edges[-1]}")
        hist[label] += 1
    kinds = Counter(spec["kind"] for spec, _ in reqs)
    labels = [f"<={e}" for e in bucket_edges] + [f">{bucket_edges[-1]}"]
    return {"order_histogram": {k: hist.get(k, 0) for k in labels},
            "kinds": dict(sorted(kinds.items())),
            "over_128": sum(1 for _, o in reqs if o > 128)}
