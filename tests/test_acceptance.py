"""Acceptance gate: one test and one printed pass/fail line per criterion.

Every criterion is an exhaustive property check over the full shipped
catalog at the stated runtime tolerance, not a numeric reproduction.
"""

import time

from formalab import (
    NA,
    NIL,
    SUP,
    catalog_groups,
    chief_series,
    int_f,
    is_f_central_satellite,
    is_f_central_semidirect,
    p_dec,
    p_nilp,
    z_pi_f,
    z_pi_f_oracle,
)
from formalab.errors import ClosureCapExceeded
from formalab.suites import (
    STATEMENTS,
    boundary_statement,
    certified_boundary_pi,
    run,
    theorem_a_statement,
)

SATELLITE_MENU = (NIL, SUP, NA, p_nilp(2), p_nilp(3), p_dec(2), p_dec(3))
STATEMENT = {s.name: s for s in STATEMENTS}


def _run(statement):
    """One statement over the catalog groups it ranges over."""
    return run(statement, statement.groups())


def _verdict(num: int, title: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {title}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {title} {detail}"


def test_criterion_01_baer():
    rep = _run(STATEMENT["baer"])
    _verdict(1, "Int_Nil == Z_Nil == hypercentre on all catalog groups",
             rep.passed and rep.elapsed < 60,
             f"{len(rep.verdicts)} groups in {rep.elapsed:.1f}s")


def test_criterion_02_theorem_a_certified():
    t0 = time.monotonic()
    configs = [(p_dec(2), None), (p_dec(3), None), (p_nilp(2), {2}),
               (p_nilp(3), {3}), (NA, None)]
    reports = [_run(theorem_a_statement(F, pi)) for F, pi in configs]
    ok = all(r.passed and r.label == "certified" for r in reports)
    elapsed = time.monotonic() - t0
    _verdict(2, "Z_piF == Int_F for the five certified configurations",
             ok and elapsed < 300, f"{elapsed:.1f}s")


def test_criterion_03_pnilp_structure():
    reports = [_run(STATEMENT[f"pnilp_structure[p={p}]"]) for p in (2, 3)]
    _verdict(3, "Int_{pNilp(p)} has full O_p' and hypercentral image, p in {2,3}",
             all(r.passed for r in reports))


def test_criterion_04_theorem_b():
    t0 = time.monotonic()
    reports = [_run(STATEMENT[f"theorem_b[r={r}]"]) for r in (1, 2, 3)]
    elapsed = time.monotonic() - t0
    _verdict(4, "Z == Int for nilpotent length <= r on soluble groups, r in 1..3",
             all(r.passed for r in reports) and elapsed < 180, f"{elapsed:.1f}s")


def test_criterion_05_theorem_d():
    rep = _run(STATEMENT["theorem_d"])
    _verdict(5, "Int* == Int for the six hereditary saturated formations",
             rep.passed and rep.elapsed < 300, f"{rep.elapsed:.1f}s")


def test_criterion_06_sup_below_syltower():
    rep = _run(STATEMENT["theorem_c"])
    _verdict(6, "Int_Sup contained in Int_SylTower on all catalog groups",
             rep.passed and rep.elapsed < 120, f"{rep.elapsed:.1f}s")


def test_criterion_07_negative_controls():
    t0 = time.monotonic()
    expl = _run(theorem_a_statement(SUP, {3}))
    s4_fail = any(f["group"] == "S4"
                  and f["data"] == {"z": 24, "int": 1} for f in expl.failures)
    scan = _run(boundary_statement(SUP, {3}))
    a4_witness = any(f["group"] == "A4" for f in scan.failures)
    ex = _run(STATEMENT["example_1_2"])
    elapsed = time.monotonic() - t0
    ok = (expl.label == "exploratory" and not expl.passed and s4_fail
          and scan.label == "exploratory" and a4_witness and ex.passed)
    _verdict(7, "exploratory Sup runs fail exactly as predicted; order-324 "
                "example has Int_Sup = P and trivial 3-supersoluble Int",
             ok and elapsed < 300, f"{elapsed:.1f}s")


def test_criterion_08_dual_oracles():
    t0 = time.monotonic()
    ok = True
    checked = skipped = 0
    for G in catalog_groups():
        for fac in chief_series(G).factors:
            for F in SATELLITE_MENU:
                try:
                    agree = (is_f_central_satellite(G, fac, F)
                             == is_f_central_semidirect(G, fac, F))
                except ClosureCapExceeded:
                    skipped += 1
                    continue
                checked += 1
                ok = ok and agree
        for F in SATELLITE_MENU:
            for pi in (None, {2}, {3}):
                ok = ok and (z_pi_f(G, F, pi).bits
                             == z_pi_f_oracle(G, F, pi).bits)
    elapsed = time.monotonic() - t0
    _verdict(8, "satellite and semidirect centrality agree; fixed-point and "
                "series-join hypercentres agree",
             ok and elapsed < 600,
             f"{checked} factors checked, {skipped} over cap, {elapsed:.1f}s")


def test_criterion_09_lemma_pack():
    # the statements themselves live in test_lemmas.py; re-assert the two
    # cheapest catalog-wide consequences as a single gate line
    ok = True
    for G in catalog_groups():
        for F, pi in ((NIL, None), (NA, None), (p_dec(2), None),
                      (p_nilp(2), {2})):
            ok = ok and z_pi_f(G, F, pi).issubset(int_f(G, F))
    _verdict(9, "hypercentre/intersection identity pack holds catalog-wide",
             ok, "full statement set in test_lemmas.py")


def test_criterion_10_boundary_scans():
    t0 = time.monotonic()
    ok = True
    for F in (NIL, p_dec(2), p_dec(3), p_nilp(2), p_nilp(3), NA):
        rep = _run(boundary_statement(F, certified_boundary_pi(F)))
        ok = ok and rep.passed and rep.label == "certified"
    elapsed = time.monotonic() - t0
    _verdict(10, "boundary scans for the certified formations find no witness",
             ok, f"{elapsed:.1f}s")
