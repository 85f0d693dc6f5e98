"""Per-layer tracing of formalab from outside the package.

`Tracer.install()` wraps the public functions of every formalab module, in
each module namespace that holds them (builders import names with
`from .groups import closure_elements`, so patching the defining module
alone would miss those call sites), and wraps `Group.__init__`.  Each call
records one span: name, start, end, parent span and request id.  Spans
stay in memory until the run ends.

A span's self time is its duration minus the part of that interval its
child spans cover.  Calls are single-threaded and properly nested, so the
covered part is the sum of the direct children's durations.  Inclusive time
sums only the outermost span of each name, so recursion is not counted
twice.
"""

from __future__ import annotations

import sys
import time
import types
import weakref
from array import array
from collections import Counter

LAYERS = ("catalog", "groups", "lattice", "chiefs", "formations",
          "intersections", "criticality", "suites", "cli")

# Short span names used by the per-layer metrics; every other public
# function is traced as "<layer>.<function name>".
ALIASES = {
    "groups.closure_elements": "groups.closure",
    "groups.quotient_group": "groups.quotient",
    "groups.semidirect_product": "groups.semidirect",
    "chiefs.is_f_central_semidirect": "chiefs.semidirect_route",
    "intersections.f_maximal_subgroups": "intersections.f_maximal",
    "intersections.is_k_f_subnormal": "intersections.k_subnormal",
}
# Per-element bit helpers run inside every closure; a span per call would
# cost more than the work it measures, so their time stays with the caller.
UNTRACED = {"groups.bits_of", "groups.elems_of"}

SUITE_FAMILIES = ("baer", "theorem_a", "pnilp_structure", "theorem_b",
                  "theorem_c", "theorem_d", "example_1_2", "boundary")
DERIVED_PROVENANCE = ("quotient", "subgroup")


def span_name(layer: str, func: str) -> str:
    full = f"{layer}.{func}"
    if layer == "suites" and func.startswith("suite_"):
        return f"suites.{func[len('suite_'):]}"
    return ALIASES.get(full, full)


class Tracer:
    """In-memory span store plus the few counters spans cannot give."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.recursive = array("b")  # 1 if an ancestor has the same name
        self._stack: list[int] = []
        self._active: list[int] = []  # open spans per name id
        self.current_request = 0
        self.errors: Counter = Counter()  # (span name, exception type) -> n
        self.lattice_builds = 0
        self.lattice_builds_derived = 0
        self.subgroups_found = 0
        self._lattice_seen: weakref.WeakSet = weakref.WeakSet()

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.recursive.append(1 if self._active[nid] else 0)
        self.end.append(0.0)
        self._active[nid] += 1
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()
        self._active[self.name[idx]] -= 1

    def wrap(self, name: str, fn, observe=None):
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _observe_lattice(self, args, lattice) -> None:
        G = args[0]
        if G in self._lattice_seen:
            return
        self._lattice_seen.add(G)
        self.lattice_builds += 1
        self.subgroups_found += len(lattice)
        if G.provenance.startswith(DERIVED_PROVENANCE):
            self.lattice_builds_derived += 1

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every public formalab function; returns an uninstaller."""
        import formalab
        from formalab.groups import Group

        modules = [sys.modules[f"formalab.{layer}"] for layer in LAYERS
                   if f"formalab.{layer}" in sys.modules]
        namespaces = [formalab] + modules
        wrapped: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                name = span_name(layer, attr)
                if name in UNTRACED:
                    continue
                observe = (self._observe_lattice
                           if name == "lattice.all_subgroups" else None)
                wrapped[id(fn)] = (fn, self.wrap(name, fn, observe))
        patched = []
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(ns, attr, hit[1])
                    patched.append((ns, attr, val))
        init = Group.__init__
        Group.__init__ = self.wrap("groups.construct", init)

        def uninstall():
            for ns, attr, val in patched:
                setattr(ns, attr, val)
            Group.__init__ = init

        return uninstall

    # -- aggregation --------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, self_s and incl_s."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {
            name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
            for name in self.names}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if not self.recursive[i]:
                row["incl_s"] += dur
        return out

    def calls_under(self, name: str, parent_name: str) -> int:
        """Spans called `name` whose direct parent is called `parent_name`."""
        nid = self._ids.get(name)
        pid = self._ids.get(parent_name)
        if nid is None or pid is None:
            return 0
        return sum(1 for i in range(len(self.start))
                   if self.name[i] == nid and self.parent[i] >= 0
                   and self.name[self.parent[i]] == pid)

    def save(self, path) -> None:
        """Write every span as columns of a compressed .npz file."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            request=np.frombuffer(self.request, np.int32),
            start=np.frombuffer(self.start, np.float64),
            end=np.frombuffer(self.end, np.float64))


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""
    agg = tracer.aggregate()

    def get(name, field):
        return agg.get(name, {}).get(field, 0)

    join_closures = tracer.calls_under("groups.closure", "lattice.all_subgroups")
    m: dict[str, tuple[float, str]] = {
        "lattice.builds": (tracer.lattice_builds, "count"),
        "lattice.builds_derived": (tracer.lattice_builds_derived, "count"),
        "lattice.all_subgroups.incl_s": (get("lattice.all_subgroups", "incl_s"), "s"),
        "lattice.join_closures": (join_closures, "count"),
        "lattice.subgroups_found": (tracer.subgroups_found, "count"),
        "lattice.join_yield": (tracer.subgroups_found / join_closures
                               if join_closures else 0.0, "ratio"),
        "chiefs.semidirect_route.over_cap": (
            tracer.errors[("chiefs.semidirect_route", "ClosureCapExceeded")],
            "count"),
    }
    for name in ("groups.construct", "groups.semidirect", "groups.closure",
                 "groups.quotient", "lattice.subgroup_as_group",
                 "chiefs.is_f_central", "formations.is_member",
                 "intersections.k_subnormal", "catalog.build_group"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    m["chiefs.chief_series.calls"] = (get("chiefs.chief_series", "calls"), "count")
    for name in ("chiefs.minimal_normals_over", "chiefs.z_pi_f",
                 "lattice.section_centralizer", "formations.satellite_member",
                 "intersections.f_maximal", "lattice.core",
                 "criticality.is_class_critical"):
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for fam in SUITE_FAMILIES:
        m[f"suites.{fam}.self_s"] = (get(f"suites.{fam}", "self_s"), "s")
    return m
