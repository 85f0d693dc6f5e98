"""The three benchmark workloads and their output checks.

Each workload drives formalab only through module attributes looked up at
call time (`fl.int_f`, `chiefs.z_pi_f`, ...), so that wrappers installed by
the tracer after import are the ones called.

- verify_all: `formalab verify all` in-process, the product's headline run.
  Its time is mostly lattices of catalog groups (Ex1.2 above all); it
  builds one lattice of a derived group.
- quotient_pack: quotient and subgroup identities over the catalog groups of
  order <= 128.  Nearly every query lands on a freshly derived Group, so
  derived-lattice work and Group construction dominate.
- hypercentre_stream: a closed loop with one client over seeded group specs.
  It never asks for a subgroup lattice; Group construction, chief series and
  both centrality routes carry the load.

An operation is one per-group verdict (verify_all), one identity check
(quotient_pack) or one request (hypercentre_stream).  A wrong verdict, a
failed identity, a golden mismatch or an exception fails the operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field

import formalab as fl
import formalab.cli  # noqa: F401  (binds fl.cli)
from formalab import chiefs, lattice
from formalab.errors import ClosureCapExceeded

import gen

STREAM_SEED = 1          # golden digests exist for this seed only
STREAM_REQUESTS = 160    # >= 100, so at least ten latencies lie beyond p90
PACK_MAX_ORDER = 128
PACK_SUBGROUP_MAX_ORDER = 48
PACK_FORMATIONS = ("nil", "sup", "na")
STREAM_FORMATIONS = ("nil", "sup", "na", "psup:3", "pnilp:2", "pnilp:3",
                     "pdec:2", "pdec:3", "nilpow:2")
STREAM_PIS = (None, frozenset({2}), frozenset({3}))
ABSORB = ("all", "first", "last")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    latencies: list[tuple[float, float]] = field(default_factory=list)  # (start, s)
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    record: object = None         # what the golden file holds

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(why)


def digest(values) -> str:
    """Short hash of a sequence of result bitmasks (and 0/1 flags)."""
    h = hashlib.sha256()
    for v in values:
        h.update(f"{v:x},".encode())
    return h.hexdigest()[:16]


# -- verify_all -------------------------------------------------------------

def _strip_elapsed(reports):
    return [{k: v for k, v in r.items() if k != "elapsed_s"} for r in reports]


def verify_all(seed, golden, mark=None) -> Outcome:
    """Inputs are the fixed catalog, so `seed` is unused."""
    out = Outcome()
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = fl.cli.main(["verify", "all"])
        reports = _strip_elapsed(json.loads(buf.getvalue()))
    except Exception as exc:  # the program failed: every verdict is lost
        out.latencies.append((t0, time.perf_counter() - t0))
        out.attempted = sum(len(r["verdicts"]) for r in golden or []) or 1
        out.fail(out.attempted, f"verify all raised {exc!r}")
        return out
    out.latencies.append((t0, time.perf_counter() - t0))
    out.record = reports
    out.info["exit_code"] = code
    want = golden if golden is not None else reports
    out.attempted = sum(len(r["verdicts"]) for r in want)
    for k, w in enumerate(want):
        g = reports[k] if k < len(reports) else {}
        same_suite = g.get("suite") == w["suite"] and g.get("label") == w["label"]
        got = g.get("verdicts", []) if same_suite else []
        for i, wv in enumerate(w["verdicts"]):
            gv = got[i] if i < len(got) else None
            if gv != wv or not wv["pass"]:
                out.fail(1, f"{w['suite']} {wv['group']}: got {gv}, want {wv}")
    if len(reports) != len(want):
        out.fail(1, f"{len(reports)} reports, want {len(want)}")
    if code != 0:
        out.fail(1, f"verify all exited {code}")
    return out


# -- quotient_pack ----------------------------------------------------------

def _pack_task(G, F, fails: list[str]) -> tuple[int, list]:
    """Identity checks for one (group, formation); returns (ops, bitmasks)."""
    ops = 0
    bits = []
    tag = f"{G.name}/{F}"

    def check(ok: bool, what: str) -> None:
        nonlocal ops
        ops += 1
        if not ok:
            fails.append(f"{tag}: {what}")

    zg = fl.z_f(G, F)
    ig = fl.int_f(G, F)
    bits += [zg.bits, ig.bits]
    for N in fl.normal_subgroups(G):
        qm = fl.quotient_group(G, N)
        Q = qm.target
        zq = fl.z_f(Q, F)
        iq = fl.int_f(Q, F)
        bits += [N.bits, zq.bits, iq.bits]
        check(qm.image_of(zg).issubset(zq), f"Z_F image not in Z_F(G/N), |N|={N.order}")
        check(zq.issubset(iq), f"Z_F(G/N) not in Int_F(G/N), |N|={N.order}")
        if N.issubset(ig):
            check(qm.image_of(ig).bits == iq.bits,
                  f"Int_F image differs from Int_F(G/N), |N|={N.order}")
    if G.n <= PACK_SUBGROUP_MAX_ORDER:
        for H in lattice.all_subgroups(G).subgroups:
            hg, _ = lattice.subgroup_as_group(G, H)
            ih = fl.int_f(hg, F)
            zh = fl.z_f(hg, F)
            member = fl.is_member(F, hg)
            bits += [ih.bits, zh.bits, int(member)]
            check((ih.order == hg.n) == member,
                  f"Int_F(H) = H disagrees with membership, |H|={H.order}")
            check(zh.issubset(ih), f"Z_F(H) not in Int_F(H), |H|={H.order}")
    return ops, bits


def quotient_pack(seed, golden, mark=None) -> Outcome:
    """Inputs are the fixed catalog, so `seed` is unused."""
    out = Outcome()
    record = {}
    formations = [fl.parse_formation(f) for f in PACK_FORMATIONS]
    groups = [G for G in fl.catalog_groups() if G.n <= PACK_MAX_ORDER]
    task_no = 0
    for G in groups:
        for F in formations:
            task_no += 1
            if mark:
                mark(task_no)
            key = f"{G.name}/{F}"
            want = golden.get(key) if golden is not None else None
            fails: list[str] = []
            t0 = time.perf_counter()
            try:
                ops, bits = _pack_task(G, F, fails)
            except Exception as exc:
                out.latencies.append((t0, time.perf_counter() - t0))
                n = want["ops"] if want else 1
                record[key] = {"ops": n, "digest": "raised"}
                out.attempted += n
                out.fail(n, f"{key} raised {exc!r}")
                continue
            out.latencies.append((t0, time.perf_counter() - t0))
            out.attempted += ops
            for why in fails:
                out.fail(1, why)
            entry = {"ops": ops, "digest": digest(bits)}
            record[key] = entry
            if golden is not None and entry != want:
                out.fail(ops - len(fails), f"{key}: got {entry}, golden {want}")
    if golden is not None:
        for key in golden.keys() - record.keys():
            out.attempted += golden[key]["ops"]
            out.fail(golden[key]["ops"], f"{key} missing")
    out.record = record
    return out


# -- hypercentre_stream -----------------------------------------------------

def _serve(spec: dict, order: int, formations, fails: list[str]) -> tuple[list, int]:
    """One request; returns its result bitmasks and semidirect-route cap hits."""
    G = fl.build_group(spec)
    if G.n != order:
        fails.append(f"built order {G.n}, generator order {order}")
    series = fl.chief_series(G)
    bits = [t.bits for t in series.terms]
    over_cap = 0
    for F in formations:
        for fac in series.factors:
            sat = chiefs.is_f_central_satellite(G, fac, F)
            bits.append(int(sat))
            try:
                semi = chiefs.is_f_central_semidirect(G, fac, F)
            except ClosureCapExceeded:
                over_cap += 1
                continue
            if sat != semi:
                fails.append(f"{F} on |H/K|={fac.order}: satellite {sat}, "
                             f"semidirect {semi}")
    for F in formations:
        for pi in STREAM_PIS:
            zs = [chiefs.z_pi_f(G, F, pi, absorb=a).bits for a in ABSORB]
            bits.append(zs[0])
            if len(set(zs)) != 1:
                fails.append(f"z_pi_f({F}, {pi}) depends on the absorb schedule")
    if chiefs.z_f(G, fl.NIL).bits != fl.hypercentre(G).bits:
        fails.append("Z_Nil differs from the hypercentre")
    return bits, over_cap


def hypercentre_stream(seed, golden, mark=None) -> Outcome:
    """Closed loop, one client: STREAM_REQUESTS seeded requests, each sent
    when the previous one has been answered and checked."""
    out = Outcome()
    formations = [fl.parse_formation(f) for f in STREAM_FORMATIONS]
    orders = {e.name: e.tags["order"] for e in fl.catalog()}
    reqs = gen.generate(seed, STREAM_REQUESTS, orders)
    digests = golden["digests"] if golden and golden["seed"] == seed else []
    record = []
    over_cap = 0
    for i, (spec, order) in enumerate(reqs):
        if mark:
            mark(i + 1)
        fails: list[str] = []
        t0 = time.perf_counter()
        try:
            bits, caps = _serve(spec, order, formations, fails)
        except Exception as exc:
            bits, caps = [], 0
            fails.append(f"raised {exc!r}")
        out.latencies.append((t0, time.perf_counter() - t0))
        over_cap += caps
        record.append(digest(bits))
        if i < len(digests) and record[i] != digests[i]:
            fails.append(f"digest {record[i]}, golden {digests[i]}")
        out.attempted += 1
        if fails:
            out.fail(1, f"request {i} ({json.dumps(spec)}): {'; '.join(fails)}")
    out.record = {"seed": seed, "digests": record}
    out.info.update(gen.describe(reqs))
    out.info["semidirect_over_cap"] = over_cap
    out.info["golden_checked"] = min(len(reqs), len(digests))
    return out


WORKLOADS = {"verify_all": verify_all, "quotient_pack": quotient_pack,
             "hypercentre_stream": hypercentre_stream}
