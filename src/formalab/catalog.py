"""Curated catalog of small groups and the group-spec JSON loader.

A group spec is a JSON object {"name": ..., "kind": ...} where kind is one
of permutation / table / direct / semidirect / matrix_module.  Permutations
are written as cycle strings like "(1 2 3)(4 5)".  Product kinds may
reference other catalog entries by name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConstructionFailed, InvalidPermutation, PreconditionViolated
from .groups import (
    ORDER_CAP,
    Group,
    SubgroupSet,
    direct_product,
    extend_action,
    group_from_permutations,
    matrix_module_semidirect,
    semidirect_product,
)
from .lattice import is_nilpotent, is_small_prime, is_soluble


# -- cycle notation ---------------------------------------------------------

def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Cycle string like "(1 2 3)(4 5)" to a tuple of 1-based images."""
    if not isinstance(text, str):
        raise InvalidPermutation(f"a cycle string is needed, got {text!r}")
    images = list(range(1, degree + 1))
    body = text.strip()
    if body in ("", "()"):
        return tuple(images)
    if not (body.startswith("(") and body.endswith(")")):
        raise InvalidPermutation(f"malformed cycle string {text!r}")
    for chunk in body[1:-1].split(")("):
        pts = [int(tok) for tok in chunk.replace(",", " ").split()]
        if len(set(pts)) != len(pts) or any(not 1 <= p <= degree for p in pts):
            raise InvalidPermutation(f"bad cycle {chunk!r} for degree {degree}")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b
    return tuple(images)


def cycle_string(images) -> str:
    """Inverse of parse_cycles; identity renders as "()"."""
    images = [int(v) for v in images]
    seen = [False] * len(images)
    out = []
    for start in range(1, len(images) + 1):
        if seen[start - 1] or images[start - 1] == start:
            continue
        cyc = [start]
        seen[start - 1] = True
        nxt = images[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt - 1] = True
            nxt = images[nxt - 1]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


# -- spec loader ------------------------------------------------------------

Resolver = Callable[[str], Group]


# Keys each group-spec kind must carry besides "kind" (and an optional "name").
_SPEC_KEYS = {
    "permutation": ("degree", "generators"),
    "table": ("table",),
    "direct": ("factors",),
    "semidirect": ("normal", "actor", "action"),
    "matrix_module": ("actor", "p", "dim", "generators"),
}
# JSON types of the spec fields read as a whole, wherever they occur.
_SPEC_TYPES = {"name": (str, "a string"), "factors": (list, "a list"),
               "generators": (list, "a list"), "action": (list, "a list")}


def build_group(spec: dict, resolve: Resolver | None = None) -> Group:
    """Construct a Group from a group-spec dictionary."""
    if resolve is None:
        resolve = catalog_group
    if not isinstance(spec, dict):
        raise PreconditionViolated(
            f"a group spec must be a JSON object, got {type(spec).__name__}")
    name = spec.get("name", "unnamed")
    kind = spec.get("kind")
    if kind not in _SPEC_KEYS:
        raise PreconditionViolated(f"unknown group-spec kind {kind!r}")
    missing = [k for k in _SPEC_KEYS[kind] if k not in spec]
    if missing:
        raise PreconditionViolated(
            f"{kind} spec {name!r} is missing {', '.join(missing)}")
    for key, (typ, what) in _SPEC_TYPES.items():
        if key in spec and not isinstance(spec[key], typ):
            raise PreconditionViolated(
                f"{kind} spec field {key} must be {what}, got {spec[key]!r}")
    try:
        return _build_kind(kind, spec, name, resolve)
    except TypeError as exc:  # e.g. int(None), or iterating over a number
        raise PreconditionViolated(
            f"{kind} spec {name!r} has a value of the wrong type: {exc}") from exc
    except RecursionError as exc:  # the innermost spec turns it into a load error
        raise PreconditionViolated(f"{kind} spec {name!r} is nested too deeply") from exc


def _build_kind(kind: str, spec: dict, name, resolve: Resolver) -> Group:
    if kind == "permutation":
        degree = _json_int(spec["degree"], "degree")
        gens = [parse_cycles(c, degree) for c in spec["generators"]]
        return group_from_permutations(degree, gens, name=name)
    if kind == "table":
        return Group(_json_int_array(spec["table"], "table"), name)
    if kind == "direct":
        factors = [_resolve(f, resolve) for f in spec["factors"]]
        if len(factors) < 2:
            raise PreconditionViolated("direct product needs two or more factors")
        G = factors[0]
        for B in factors[1:-1]:
            G = direct_product(G, B)
        return direct_product(G, factors[-1], name=name)
    if kind == "semidirect":
        N = _resolve(spec["normal"], resolve)
        H = _resolve(spec["actor"], resolve)
        gen_actions = [_json_int_array(a, "action") for a in spec["action"]]
        if len(gen_actions) != len(H.gen_idx):
            raise PreconditionViolated(
                f"need one action permutation per generator of {H.name}")
        if any(a.shape != (N.n,) or not np.array_equal(np.sort(a), np.arange(N.n))
               for a in gen_actions):
            raise PreconditionViolated(
                f"each generator action must be a permutation of 0..{N.n - 1}")
        return semidirect_product(N, H, extend_action(H, gen_actions, N.n),
                                  name=name)
    if kind == "matrix_module":
        H = _resolve(spec["actor"], resolve)
        p = _json_int(spec["p"], "p")
        if not is_small_prime(p):
            raise PreconditionViolated(
                f"matrix_module p must be a prime up to {ORDER_CAP}, got {p}")
        mats = [_json_int_array(m, "matrix") for m in spec["generators"]]
        G, V = matrix_module_semidirect(
            p, _json_int(spec["dim"], "dim"), mats, H, name=name)
        G._cache["designated_module"] = V
        return G


def _json_int(value, field: str) -> int:
    """`value` if it is a JSON integer: an int, not a bool and not a float."""
    if type(value) is not int:
        raise PreconditionViolated(f"{field} must be an integer, got {value!r}")
    return value


def _json_int_array(value, field: str) -> np.ndarray:
    """Nested lists whose leaves are all JSON integers, as an index array;
    a ragged nesting is refused."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        else:
            _json_int(v, f"every {field} entry")
    try:
        return np.asarray(value, dtype=np.intp)
    except ValueError as exc:  # numpy's message for an inhomogeneous shape
        raise PreconditionViolated(
            f"{field} must be a rectangular array, got ragged lists") from exc
    except OverflowError as exc:
        raise PreconditionViolated(
            f"every {field} entry must fit in a machine integer") from exc


def _resolve(ref, resolve: Resolver) -> Group:
    if isinstance(ref, str):
        return resolve(ref)
    return build_group(ref, resolve)


def load_group_file(path) -> Group:
    try:
        return build_group(json.loads(Path(path).read_text(encoding="utf-8")))
    except RecursionError as exc:  # from json.loads
        raise PreconditionViolated(f"{path}: JSON nested too deeply") from exc


# -- construction helpers for catalog specs ---------------------------------

def _cyclic_spec(n: int) -> dict:
    gens = [] if n == 1 else [cycle_string(list(range(2, n + 1)) + [1])]
    return {"name": f"C{n}", "kind": "permutation", "degree": n,
            "generators": gens}


def _dihedral_spec(order: int) -> dict:
    m = order // 2
    rot = list(range(2, m + 1)) + [1]
    ref = [1] + list(range(m, 1, -1))
    return {"name": f"D{order}", "kind": "permutation", "degree": m,
            "generators": [cycle_string(rot), cycle_string(ref)]}


def _dicyclic_table(m: int) -> list[list[int]]:
    # elements a^i (index 2i) and a^i x (index 2i+1), i mod 2m; x^2 = a^m
    n = 4 * m
    tab = [[0] * n for _ in range(n)]
    for i in range(2 * m):
        for j in range(2 * m):
            tab[2 * i][2 * j] = 2 * ((i + j) % (2 * m))
            tab[2 * i][2 * j + 1] = 2 * ((i + j) % (2 * m)) + 1
            tab[2 * i + 1][2 * j] = 2 * ((i - j) % (2 * m)) + 1
            tab[2 * i + 1][2 * j + 1] = 2 * ((i - j + m) % (2 * m))
    return tab


def _sl23_spec() -> dict:
    # SL(2,3) acting on the eight nonzero vectors of F_3^2
    vecs = [(x, y) for y in range(3) for x in range(3) if (x, y) != (0, 0)]
    pos = {v: i + 1 for i, v in enumerate(vecs)}

    def perm(mat):
        return [pos[((mat[0][0] * x + mat[0][1] * y) % 3,
                     (mat[1][0] * x + mat[1][1] * y) % 3)] for x, y in vecs]

    s = perm([[0, 2], [1, 0]])
    t = perm([[1, 1], [0, 1]])
    return {"name": "SL(2,3)", "kind": "permutation", "degree": 8,
            "generators": [cycle_string(s), cycle_string(t)]}


def _ex324_spec() -> dict:
    # F_3^3 as the sum-zero submodule of the natural permutation module of A4
    def sumzero_mat(perm):
        M = [[0] * 3 for _ in range(3)]
        for i in range(3):
            img, s4 = perm[i], perm[3]
            if img != 4:
                M[img - 1][i] += 1
            if s4 != 4:
                M[s4 - 1][i] -= 1
        return [[v % 3 for v in row] for row in M]

    return {"name": "Ex1.2", "kind": "matrix_module", "p": 3, "dim": 3,
            "actor": "A4",
            "generators": [sumzero_mat((2, 1, 4, 3)), sumzero_mat((2, 3, 1, 4))]}


# -- the catalog ------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """One shipped group: its name, build spec, and structural tags."""

    name: str
    spec: dict
    tags: dict


def _declared_entries() -> list[tuple[dict, bool, bool]]:
    """(spec, soluble, nilpotent) triples in canonical catalog order."""
    entries: list[tuple[dict, bool, bool]] = []
    for n in range(1, 25):
        entries.append((_cyclic_spec(n), True, True))
    for name, facs in [("E4", ["C2", "C2"]), ("E8", ["C2", "C2", "C2"]),
                       ("E9", ["C3", "C3"]), ("E16", ["C2", "C2", "C2", "C2"]),
                       ("E25", ["C5", "C5"]), ("E27", ["C3", "C3", "C3"])]:
        entries.append(({"name": name, "kind": "direct", "factors": facs},
                        True, True))
    entries.append(({"name": "S3", "kind": "permutation", "degree": 3,
                     "generators": ["(1 2 3)", "(1 2)"]}, True, False))
    for order in (8, 10, 12, 14, 16, 18, 20, 22, 24):
        entries.append((_dihedral_spec(order), True, order in (8, 16)))
    entries.append(({"name": "Q8", "kind": "table",
                     "table": _dicyclic_table(2)}, True, True))
    entries.append(({"name": "Q16", "kind": "table",
                     "table": _dicyclic_table(4)}, True, True))
    entries.append((_sl23_spec(), True, False))
    entries.append(({"name": "A4", "kind": "permutation", "degree": 4,
                     "generators": ["(1 2)(3 4)", "(1 2 3)"]}, True, False))
    entries.append(({"name": "S4", "kind": "permutation", "degree": 4,
                     "generators": ["(1 2 3 4)", "(1 2)"]}, True, False))
    entries.append(({"name": "A5", "kind": "permutation", "degree": 5,
                     "generators": ["(1 2 3 4 5)", "(1 2)(3 4)"]}, False, False))
    entries.append(({"name": "S5", "kind": "permutation", "degree": 5,
                     "generators": ["(1 2 3 4 5)", "(1 2)"]}, False, False))
    # C7:C3 via x -> 2x on C7; C5:C4 via x -> 2x on C5; C3:C8 by inversion
    entries.append(({"name": "C7:C3", "kind": "semidirect", "normal": "C7",
                     "actor": "C3",
                     "action": [[(2 * i) % 7 for i in range(7)]]}, True, False))
    entries.append(({"name": "C5:C4", "kind": "semidirect", "normal": "C5",
                     "actor": "C4",
                     "action": [[(2 * i) % 5 for i in range(5)]]}, True, False))
    entries.append(({"name": "C3:C8", "kind": "semidirect", "normal": "C3",
                     "actor": "C8",
                     "action": [[0, 2, 1]]}, True, False))
    # V4:C3 cycles the three involutions of E4 (indices 1 -> 2 -> 3 -> 1)
    entries.append(({"name": "V4:C3", "kind": "semidirect", "normal": "E4",
                     "actor": "C3", "action": [[0, 2, 3, 1]]}, True, False))
    for name, facs, sol, nil in [
            ("D8xC3", ["D8", "C3"], True, True),
            ("Q8xC3", ["Q8", "C3"], True, True),
            ("S3xS3", ["S3", "S3"], True, False),
            ("S3xC4", ["S3", "C4"], True, False),
            ("C2xC4", ["C2", "C4"], True, True),
            ("C2xC6", ["C2", "C6"], True, True),
            ("C4xC4", ["C4", "C4"], True, True),
            ("C2xD8", ["C2", "D8"], True, True),
            ("C3xA4", ["C3", "A4"], True, False),
            ("C5xS3", ["C5", "S3"], True, False),
            ("C2xS4", ["C2", "S4"], True, False),
            ("Q8xS3", ["Q8", "S3"], True, False),
            ("C2xA5", ["C2", "A5"], False, False)]:
        entries.append(({"name": name, "kind": "direct", "factors": facs},
                        sol, nil))
    entries.append((_ex324_spec(), True, False))
    return entries


_GROUPS: dict[str, Group] = {}
_ENTRIES: list[CatalogEntry] | None = None


def catalog_names() -> list[str]:
    return [e[0]["name"] for e in _declared_entries()]


def catalog_group(name: str) -> Group:
    """The built catalog group of the given name (memoized)."""
    if name not in _GROUPS:
        for spec, _, _ in _declared_entries():
            if spec["name"] == name:
                _GROUPS[name] = build_group(spec)
                break
        else:
            raise PreconditionViolated(f"no catalog entry named {name!r}")
    return _GROUPS[name]


def catalog() -> list[CatalogEntry]:
    """All shipped entries, with structural tags recomputed and verified."""
    global _ENTRIES
    if _ENTRIES is not None:
        return _ENTRIES
    out = []
    for spec, sol, nil in _declared_entries():
        G = catalog_group(spec["name"])
        tags = {"order": G.n, "soluble": is_soluble(G), "nilpotent": is_nilpotent(G)}
        if tags["soluble"] != sol or tags["nilpotent"] != nil:
            raise ConstructionFailed(
                f"declared tags for {spec['name']} do not match the built group")
        out.append(CatalogEntry(name=spec["name"], spec=spec, tags=tags))
    _ENTRIES = out
    return out


def catalog_groups() -> list[Group]:
    return [catalog_group(e.name) for e in catalog()]


def designated_module(G: Group) -> SubgroupSet:
    """The distinguished vector-module subgroup of a matrix_module group."""
    if "designated_module" not in G._cache:
        raise PreconditionViolated(f"{G.name} has no designated module subgroup")
    return G._cache["designated_module"]
