"""Catalog-wide verification of the hypercentre/intersection theory.

Each statement is one `Statement` record, checked one group at a time by
`run`; `STATEMENTS` is the table `formalab verify` reads.  Certified
statements are theorems and must pass; exploratory ones may fail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .catalog import catalog, catalog_group, designated_module
from .chiefs import chief_series, chief_series_through, is_f_central, z_f, z_pi_f
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
from .groups import Group, is_normal, quotient_group
from .intersections import f_max_report, f_maximal_subgroups, int_f, int_star_f
from .lattice import (
    all_subgroups,
    hypercentre,
    minimal_normal_subgroups,
    o_pi,
    prime_factors,
    subgroup_as_group,
    translate_out,
)

THEOREM_D_FORMATIONS = (NIL, SUP, p_nilp(2), p_nilp(3), p_dec(2), NA)
CERTIFIED_BOUNDARY = (NIL, p_dec(2), p_dec(3), p_nilp(2), p_nilp(3), NA)


@dataclass
class SuiteReport:
    """Result of one statement's run; passes iff every per-group verdict passes."""

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


@dataclass(frozen=True)
class Statement:
    """One statement about a group, checked group by group.

    `check(G)` gives (ok, data); `witness(G)`, where given, explains a
    failing group.  `verify` names the `formalab verify` selection that runs
    the statement.  It ranges over the catalog, over its soluble part when
    `soluble` is set, or over the one catalog group named by `only`.
    """

    name: str
    verify: str
    check: Callable[[Group], tuple[bool, dict]]
    label: str = "certified"
    soluble: bool = False
    only: str | None = None
    witness: Callable[[Group], dict] | None = None

    def groups(self, max_order: int | None = None,
               soluble_only: bool = False) -> list[Group]:
        """The catalog groups it ranges over; `only` ignores both filters."""
        if self.only is not None:
            return [catalog_group(self.only)]
        return suite_groups(max_order, soluble_only or self.soluble)


def run(statement: Statement, groups: Iterable[Group]) -> SuiteReport:
    """Check `statement` on each group in turn; `elapsed` times this loop."""
    rep = SuiteReport(statement.name, label=statement.label)
    t0 = time.monotonic()
    for G in groups:
        ok, data = statement.check(G)
        rep.add(G.name, ok, data)
        if not ok and statement.witness is not None:
            rep.failures[-1]["witness"] = statement.witness(G)
    rep.elapsed = time.monotonic() - t0
    return rep


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


def _baer(G: Group) -> tuple[bool, dict]:
    """Int_Nil(G) == Z_Nil(G) == Z_inf(G)."""
    i = int_f(G, NIL)
    z = z_f(G, NIL)
    h = hypercentre(G)
    return (i.bits == z.bits == h.bits,
            {"int_nil": i.order, "z_nil": z.order, "hypercentre": h.order})


def _z_is_int(F: FormationSpec, pi, G: Group) -> tuple[bool, dict]:
    """Z_piF(G) == Int_F(G)."""
    z = z_pi_f(G, F, pi)
    i = int_f(G, F)
    return z.bits == i.bits, {"z": z.order, "int": i.order}


def _z_is_int_witness(F: FormationSpec, pi, G: Group) -> dict:
    """Where Z = Z_piF(G) and Int = Int_F(G) part, as sorted element lists:
    if Int is not in Z, the first non-F-central chief factor H/K below Int,
    with a prime of pi dividing |H/K|, of the chief series through Int (as
    `z_pi_f_oracle` reads it); if Z is not in Int, the F-maximal subgroups
    that miss Z."""
    z = z_pi_f(G, F, pi)
    i = int_f(G, F)
    out = {}
    if not i.issubset(z):
        for fac in chief_series_through(G, i).factors:
            if not fac.H.issubset(i):
                break
            if ((pi is None or set(fac.primes) & set(pi))
                    and not is_f_central(G, fac, F)):
                out["chief_factor"] = {"H": fac.H.elements.tolist(),
                                       "K": fac.K.elements.tolist()}
                break
    if not z.issubset(i):
        out["f_maximal_missing_z"] = [M.elements.tolist()
                                      for M in f_maximal_subgroups(G, F)
                                      if not z.issubset(M)]
    return out


def _pnilp_structure(p: int, G: Group) -> tuple[bool, dict]:
    """D = Int_{pNilp(p)}(G) satisfies O_{p'}(D) = O_{p'}(G), and the image
    of D in G/O_{p'}(G) lies inside the hypercentre of that quotient."""
    pprime = frozenset(q for q in prime_factors(G.n) if q != p)
    D = int_f(G, p_nilp(p))
    og = o_pi(G, pprime)
    sub, _ = subgroup_as_group(G, D)
    od = translate_out(G, D, o_pi(sub, pprime))
    qm = quotient_group(G, og)
    img = qm.image_of(D)
    central = img.issubset(hypercentre(qm.target))
    return (od.bits == og.bits and central,
            {"int": D.order, "o_pprime_G": og.order,
             "o_pprime_D": od.order, "image_central": central})


def _theorem_c(G: Group) -> tuple[bool, dict]:
    """Int_Sup(G) <= Int_SylTower(G), and Int_Nil(G) <= Z_NA(G)."""
    a = int_f(G, SUP)
    b = int_f(G, SYLTOWER)
    c = int_f(G, NIL)
    d = z_f(G, NA)
    return (a.issubset(b) and c.issubset(d),
            {"int_sup": a.order, "int_syltower": b.order,
             "int_nil": c.order, "z_na": d.order})


def _theorem_d(G: Group) -> tuple[bool, dict]:
    """Int*_F == Int_F for the six shipped hereditary saturated formations."""
    data = {}
    ok = True
    for F in THEOREM_D_FORMATIONS:
        i = int_f(G, F)
        s = int_star_f(G, F)
        data[str(F)] = {"int": i.order, "int_star": s.order}
        ok = ok and i.bits == s.bits
    return ok, data


def _module_simplicity_oracle(G: Group) -> None:
    """Check that the designated F_3^3 module is simple and faithful by
    enumerating every line and plane and every group element's action."""
    V = designated_module(G)
    vel = V.elements
    # proper nonzero invariant subspaces are exactly the invariant subgroups
    # of V of order 3 or 9; conjugation by G must move each of them
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


def _example_1_2(G: Group) -> tuple[bool, dict]:
    """The order-324 group where Int over the supersoluble groups is the
    whole module yet Int over the larger 3-supersoluble class is trivial;
    the module is first checked simple and faithful by enumeration."""
    _module_simplicity_oracle(G)
    P = designated_module(G)
    minimal = any(m.bits == P.bits for m in minimal_normal_subgroups(G))
    i_sup = int_f(G, SUP)
    i_psup = int_f(G, p_sup(3))
    ok = (minimal and P.order == 27 and i_sup.bits == P.bits
          and i_psup.order == 1)
    return ok, {"P": P.order, "P_minimal_normal": minimal,
                "int_sup": i_sup.order, "int_psup3": i_psup.order}


def _no_boundary_witness(F: FormationSpec, pi, G: Group) -> tuple[bool, dict]:
    """G is not F(p)-critical outside F for any p in pi."""
    found = boundary_scan(F, pi, [G])
    return not found, ({"critical_at_p": found[0].p} if found else {})


def certified_boundary_pi(F: FormationSpec) -> frozenset[int]:
    """Primes for which the scan is expected to come back empty."""
    if F.tag == "pNilp":
        return frozenset({F.p})
    return frozenset({2, 3, 5})


def theorem_a_statement(F: FormationSpec, pi=None) -> Statement:
    """Z_piF(G) == Int_F(G).

    Certified where it is a theorem: Nil, NA and pDec(p) with pi the set of
    all primes, and pNilp(p) with pi = {p}.  Any other (F, pi) is
    exploratory; Nil with pi = {2}, for one, fails on S3.
    """
    if F.tag in ("Nil", "NA", "pDec"):
        certified = pi is None
    else:
        certified = F.tag == "pNilp" and pi is not None and set(pi) == {F.p}
    return Statement(
        f"theorem_a[{F}, pi={'all' if pi is None else sorted(pi)}]", "theorem_a",
        partial(_z_is_int, F, pi), "certified" if certified else "exploratory",
        witness=partial(_z_is_int_witness, F, pi))


def boundary_statement(F: FormationSpec, pi) -> Statement:
    """Boundary-condition scan; a group passes iff it is no witness."""
    return Statement(f"boundary[{F}, pi={sorted(pi)}]", "boundary",
                     partial(_no_boundary_witness, F, frozenset(pi)),
                     "certified" if F in CERTIFIED_BOUNDARY else "exploratory")


# every statement `verify` runs, in the order of `verify all`
STATEMENTS = (
    Statement("baer", "baer", _baer),
    *(theorem_a_statement(F, pi) for F, pi in (
        (NIL, None), (p_dec(2), None), (p_dec(3), None),
        (p_nilp(2), frozenset({2})), (p_nilp(3), frozenset({3})), (NA, None))),
    *(Statement(f"pnilp_structure[p={p}]", "theorem_a",
                partial(_pnilp_structure, p)) for p in (2, 3)),
    # theorem B: Z_F == Int_F for F the soluble groups of nilpotent length
    # <= r, over soluble groups
    *(Statement(f"theorem_b[r={r}]", "theorem_b", partial(_z_is_int, nil_pow(r), None),
                soluble=True, witness=partial(_z_is_int_witness, nil_pow(r), None))
      for r in (1, 2, 3)),
    Statement("theorem_c", "theorem_c", _theorem_c),
    Statement("theorem_d", "theorem_d", _theorem_d),
    Statement("example_1_2", "example_1_2", _example_1_2, only="Ex1.2"),
    *(boundary_statement(F, certified_boundary_pi(F)) for F in CERTIFIED_BOUNDARY),
)


def analyze_report(G: Group, F: FormationSpec, pi=None) -> dict:
    """Single-group analysis: chief series with centrality verdicts, the
    hypercentre, both intersections, and the F-maximal family."""
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
