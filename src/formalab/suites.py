"""Catalog-wide verification suites for the hypercentre/intersection theory.

Each suite checks one universally-quantified statement over every shipped
catalog group and reports per-group verdicts.  Certified suites must pass;
exploratory configurations are allowed to fail and are labeled as such.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .catalog import catalog, catalog_group, designated_module
from .chiefs import z_f, z_pi_f
from .criticality import boundary_scan
from .errors import ConstructionFailed
from .formations import (
    NA,
    NIL,
    SUP,
    SYLTOWER,
    FormationSpec,
    nil_pow,
    p_dec,
    p_nilp,
    p_sup,
)
from .groups import Group, SubgroupSet, is_normal, quotient_group
from .intersections import f_max_report, int_f, int_star_f
from .lattice import hypercentre, o_pi, prime_factors

THEOREM_D_FORMATIONS = (NIL, SUP, p_nilp(2), p_nilp(3), p_dec(2), NA)
CERTIFIED_BOUNDARY = (NIL, p_dec(2), p_dec(3), p_nilp(2), p_nilp(3), NA)


@dataclass
class SuiteReport:
    """Result of one suite run; passes iff every per-group verdict passes."""

    suite: str
    verdicts: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    label: str = "certified"
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def add(self, group: str, ok: bool, data: dict) -> None:
        self.verdicts.append({"group": group, "pass": ok, "data": data})
        if not ok:
            self.failures.append({"group": group, "data": data})

    def to_json(self) -> dict:
        return {"suite": self.suite, "label": self.label,
                "pass": self.passed, "verdicts": self.verdicts,
                "failures": self.failures, "elapsed_s": round(self.elapsed, 3)}


def suite_groups(max_order: int | None = None,
                 soluble_only: bool = False) -> list[Group]:
    out = []
    for entry in catalog():
        if max_order is not None and entry.tags["order"] > max_order:
            continue
        if soluble_only and not entry.tags["soluble"]:
            continue
        out.append(catalog_group(entry.name))
    return out


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.monotonic()
        rep = fn(*args, **kwargs)
        rep.elapsed = time.monotonic() - t0
        return rep
    return wrapper


@_timed
def suite_baer(max_order: int | None = None,
               soluble_only: bool = False) -> SuiteReport:
    """Int_Nil(G) == Z_Nil(G) == Z_inf(G) for every catalog group."""
    rep = SuiteReport("baer")
    for G in suite_groups(max_order, soluble_only):
        i = int_f(G, NIL)
        z = z_f(G, NIL)
        h = hypercentre(G)
        rep.add(G.name, i.bits == z.bits == h.bits,
                {"int_nil": i.order, "z_nil": z.order, "hypercentre": h.order})
    return rep


def is_certified_theorem_a(F: FormationSpec, pi) -> bool:
    """The (F, pi) configurations for which the equality is a theorem."""
    if F.tag in ("Nil", "NA") or F.tag == "pDec":
        return True
    if F.tag == "pNilp":
        return pi is not None and set(pi) == {F.p}
    return False


@_timed
def suite_theorem_a(F: FormationSpec, pi=None,
                    max_order: int | None = None,
                    soluble_only: bool = False) -> SuiteReport:
    """Z_piF(G) == Int_F(G) for every catalog group."""
    rep = SuiteReport(f"theorem_a[{F}, pi={'all' if pi is None else sorted(pi)}]")
    if not is_certified_theorem_a(F, pi):
        rep.label = "exploratory"
    for G in suite_groups(max_order, soluble_only):
        z = z_pi_f(G, F, pi)
        i = int_f(G, F)
        rep.add(G.name, z.bits == i.bits, {"z": z.order, "int": i.order})
    return rep


@_timed
def suite_pnilp_structure(p: int, max_order: int | None = None,
                          soluble_only: bool = False) -> SuiteReport:
    """D = Int_{pNilp(p)}(G) satisfies O_{p'}(D) = O_{p'}(G), and the image
    of D in G/O_{p'}(G) lies inside the hypercentre of that quotient."""
    rep = SuiteReport(f"pnilp_structure[p={p}]")
    for G in suite_groups(max_order, soluble_only):
        pprime = frozenset(q for q in prime_factors(G.n) if q != p)
        D = int_f(G, p_nilp(p))
        og = o_pi(G, pprime)
        od = _o_pi_of_subgroup(G, D, pprime)
        qm = quotient_group(G, og)
        img = qm.image_of(D)
        central = img.issubset(hypercentre(qm.target))
        rep.add(G.name, od.bits == og.bits and central,
                {"int": D.order, "o_pprime_G": og.order,
                 "o_pprime_D": od.order, "image_central": central})
    return rep


def _o_pi_of_subgroup(G: Group, D: SubgroupSet, pi) -> SubgroupSet:
    from .lattice import subgroup_as_group, translate_out
    sub, _ = subgroup_as_group(G, D)
    return translate_out(G, D, o_pi(sub, pi))


@_timed
def suite_theorem_b(r: int, max_order: int | None = None) -> SuiteReport:
    """Z_F == Int_F for F the soluble groups of nilpotent length <= r,
    over the soluble part of the catalog."""
    rep = SuiteReport(f"theorem_b[r={r}]")
    F = nil_pow(r)
    for G in suite_groups(max_order, soluble_only=True):
        z = z_f(G, F)
        i = int_f(G, F)
        rep.add(G.name, z.bits == i.bits, {"z": z.order, "int": i.order})
    return rep


@_timed
def suite_theorem_c(max_order: int | None = None,
                    soluble_only: bool = False) -> SuiteReport:
    """Int_Sup(G) <= Int_SylTower(G), and Int_Nil(G) <= Z_NA(G)."""
    rep = SuiteReport("theorem_c")
    for G in suite_groups(max_order, soluble_only):
        a = int_f(G, SUP)
        b = int_f(G, SYLTOWER)
        c = int_f(G, NIL)
        d = z_f(G, NA)
        rep.add(G.name, a.issubset(b) and c.issubset(d),
                {"int_sup": a.order, "int_syltower": b.order,
                 "int_nil": c.order, "z_na": d.order})
    return rep


@_timed
def suite_theorem_d(max_order: int | None = None,
                    soluble_only: bool = False) -> SuiteReport:
    """Int*_F == Int_F for the six shipped hereditary saturated formations."""
    rep = SuiteReport("theorem_d")
    for G in suite_groups(max_order, soluble_only):
        data = {}
        ok = True
        for F in THEOREM_D_FORMATIONS:
            i = int_f(G, F)
            s = int_star_f(G, F)
            data[str(F)] = {"int": i.order, "int_star": s.order}
            ok = ok and i.bits == s.bits
        rep.add(G.name, ok, data)
    return rep


def _module_simplicity_oracle(G: Group) -> None:
    """Check that the designated F_3^3 module is simple and faithful by
    enumerating every line and plane and every group element's action."""
    V = designated_module(G)
    vel = V.elements
    # proper nonzero invariant subspaces are exactly the invariant subgroups
    # of V of order 3 or 9; conjugation by G must move each of them
    from .lattice import all_subgroups, subgroup_as_group, translate_out
    sub, _ = subgroup_as_group(G, V)
    for s in all_subgroups(sub).subgroups:
        if s.order not in (3, 9):
            continue
        if is_normal(G, translate_out(G, V, s)):
            raise ConstructionFailed("module has a proper invariant subspace")
    # faithfulness: only coset of the identity fixes all of V pointwise
    fixing = 0
    for g in range(G.n):
        conj = G.mul[G.mul[g, vel], G.inv[g]]
        if np.array_equal(conj, vel):
            fixing += 1
    if fixing != V.order:
        raise ConstructionFailed("acting group is not faithful on the module")


@_timed
def suite_example_1_2() -> SuiteReport:
    """The order-324 group where Int over the supersoluble groups is the
    whole module yet Int over the larger 3-supersoluble class is trivial."""
    rep = SuiteReport("example_1_2")
    G = catalog_group("Ex1.2")
    _module_simplicity_oracle(G)
    P = designated_module(G)
    from .lattice import minimal_normal_subgroups
    minimal = any(m.bits == P.bits for m in minimal_normal_subgroups(G))
    i_sup = int_f(G, SUP)
    i_psup = int_f(G, p_sup(3))
    ok = (minimal and P.order == 27 and i_sup.bits == P.bits
          and i_psup.order == 1)
    rep.add(G.name, ok, {"P": P.order, "P_minimal_normal": minimal,
                         "int_sup": i_sup.order, "int_psup3": i_psup.order})
    return rep


@_timed
def suite_boundary(F: FormationSpec, pi, max_order: int | None = None,
                   soluble_only: bool = False) -> SuiteReport:
    """Boundary-condition scan; passes iff no catalog witness exists."""
    rep = SuiteReport(f"boundary[{F}, pi={sorted(pi)}]")
    if F not in CERTIFIED_BOUNDARY:
        rep.label = "exploratory"
    groups = suite_groups(max_order, soluble_only)
    witnesses = boundary_scan(F, pi, groups)
    names = {w.group: w for w in witnesses}
    for G in groups:
        w = names.get(G.name)
        rep.add(G.name, w is None,
                {} if w is None else {"critical_at_p": w.p})
    return rep


def certified_boundary_pi(F: FormationSpec) -> frozenset[int]:
    """Primes for which the scan is expected to come back empty."""
    if F.tag == "pNilp":
        return frozenset({F.p})
    return frozenset({2, 3, 5})


def analyze_report(G: Group, F: FormationSpec, pi=None) -> dict:
    """Single-group analysis: chief series with centrality verdicts, the
    hypercentre, both intersections, and the F-maximal family."""
    from .chiefs import chief_series, is_f_central
    series = chief_series(G)
    factors = []
    for fac in series.factors:
        entry = {"order": fac.order, "top": fac.H.order, "bottom": fac.K.order}
        if F.has_satellite:
            entry["central"] = is_f_central(G, fac, F)
        factors.append(entry)
    report = f_max_report(G, F)
    z = z_pi_f(G, F, pi)
    return {
        "group": G.name,
        "order": G.n,
        "formation": str(F),
        "pi": "all" if pi is None else sorted(pi),
        "chief_factors": factors,
        "z_pi_f": z.order,
        "int_f": report.int_f.order,
        "int_star_f": report.int_star.order,
        "f_maximal": [{"order": s.order, "k_subnormal": fl}
                      for s, fl in zip(report.f_maximal, report.knormal_flags)],
    }
