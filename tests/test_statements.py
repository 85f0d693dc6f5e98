"""The `verify` reports: the golden `verify all` run, the report names,
labels and verdicts of each selection under both catalog filters, and the
witnesses that failing verdicts carry."""

import hashlib
import json
from pathlib import Path

import pytest

from formalab import SUP, designated_module, f_maximal_subgroups
from formalab.cli import EXIT_OK, main
from formalab.suites import run, theorem_a_statement

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench/golden/verify_all.json"

# (suite, label, digest of its verdict list) for each selection, recorded
# before the suite functions became statement records
PINNED = {
    "--max-order 30": {
        "baer": [("baer", "certified", "798b4efc84454cce")],
        "theorem_a": [
            ("theorem_a[nil, pi=all]", "certified", "7b981ca4b4d1f68a"),
            ("theorem_a[pdec:2, pi=all]", "certified", "fb8e6d80e5b66fd3"),
            ("theorem_a[pdec:3, pi=all]", "certified", "1b2b209fe5364c21"),
            ("theorem_a[pnilp:2, pi=[2]]", "certified", "00607f6caeb5b8f4"),
            ("theorem_a[pnilp:3, pi=[3]]", "certified", "03e6ac069686a8b5"),
            ("theorem_a[na, pi=all]", "certified", "c975409d9133a49e"),
            ("pnilp_structure[p=2]", "certified", "0254ecbe0ae677d2"),
            ("pnilp_structure[p=3]", "certified", "d8fc64e52e2b4beb")],
        "theorem_b": [
            ("theorem_b[r=1]", "certified", "7b981ca4b4d1f68a"),
            ("theorem_b[r=2]", "certified", "c975409d9133a49e"),
            ("theorem_b[r=3]", "certified", "693c78fe9aa55eeb")],
        "theorem_c": [("theorem_c", "certified", "cec3aac37ea79a55")],
        "theorem_d": [("theorem_d", "certified", "60dfd461cc4ad2d7")],
        "example_1_2": [("example_1_2", "certified", "1f902e4d9f56e6a2")],
        "boundary": [
            ("boundary[nil, pi=[2, 3, 5]]", "certified", "54bdbd411617b258"),
            ("boundary[pdec:2, pi=[2, 3, 5]]", "certified", "54bdbd411617b258"),
            ("boundary[pdec:3, pi=[2, 3, 5]]", "certified", "54bdbd411617b258"),
            ("boundary[pnilp:2, pi=[2]]", "certified", "54bdbd411617b258"),
            ("boundary[pnilp:3, pi=[3]]", "certified", "54bdbd411617b258"),
            ("boundary[na, pi=[2, 3, 5]]", "certified", "54bdbd411617b258")],
    },
    "--soluble-only": {
        "baer": [("baer", "certified", "9a04360483917258")],
        "theorem_a": [
            ("theorem_a[nil, pi=all]", "certified", "0112960bce31331d"),
            ("theorem_a[pdec:2, pi=all]", "certified", "13eb238894bbfa19"),
            ("theorem_a[pdec:3, pi=all]", "certified", "8b2ddc57e2edfc27"),
            ("theorem_a[pnilp:2, pi=[2]]", "certified", "8bf205fc47e9c992"),
            ("theorem_a[pnilp:3, pi=[3]]", "certified", "86891d372bf0a528"),
            ("theorem_a[na, pi=all]", "certified", "e08f82df96aa5b49"),
            ("pnilp_structure[p=2]", "certified", "b4737bbc82353777"),
            ("pnilp_structure[p=3]", "certified", "7e68580f32e16c8d")],
        "theorem_b": [
            ("theorem_b[r=1]", "certified", "0112960bce31331d"),
            ("theorem_b[r=2]", "certified", "e08f82df96aa5b49"),
            ("theorem_b[r=3]", "certified", "9837c29d8d214737")],
        "theorem_c": [("theorem_c", "certified", "c2e2580d580812b1")],
        "theorem_d": [("theorem_d", "certified", "59d821c831cc8dc8")],
        "example_1_2": [("example_1_2", "certified", "1f902e4d9f56e6a2")],
        "boundary": [
            ("boundary[nil, pi=[2, 3, 5]]", "certified", "f746eb2b72ccfc51"),
            ("boundary[pdec:2, pi=[2, 3, 5]]", "certified", "f746eb2b72ccfc51"),
            ("boundary[pdec:3, pi=[2, 3, 5]]", "certified", "f746eb2b72ccfc51"),
            ("boundary[pnilp:2, pi=[2]]", "certified", "f746eb2b72ccfc51"),
            ("boundary[pnilp:3, pi=[3]]", "certified", "f746eb2b72ccfc51"),
            ("boundary[na, pi=[2, 3, 5]]", "certified", "f746eb2b72ccfc51")],
    },
}


def _verify(capsys, *argv):
    code = main(["verify", *argv])
    reports = json.loads(capsys.readouterr().out)
    for r in reports:
        r.pop("elapsed_s")
    return code, reports


def _digest(verdicts) -> str:
    text = json.dumps(verdicts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_verify_all_matches_the_golden(capsys):
    code, reports = _verify(capsys, "all")
    assert code == EXIT_OK
    assert reports == json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("option", sorted(PINNED))
@pytest.mark.parametrize("suite", sorted(PINNED["--soluble-only"]))
def test_verify_selection_is_pinned(capsys, suite, option):
    code, reports = _verify(capsys, suite, *option.split())
    assert code == EXIT_OK
    assert [(r["suite"], r["label"], _digest(r["verdicts"]))
            for r in reports] == PINNED[option][suite]


def test_failing_theorem_a_verdict_carries_its_chief_factor(ex324):
    rep = run(theorem_a_statement(SUP), [ex324])
    (failure,) = rep.failures
    assert failure["data"] == {"z": 1, "int": 27}
    assert failure["witness"] == {"chief_factor": {
        "H": designated_module(ex324).elements.tolist(), "K": [0]}}
    assert "witness" not in rep.verdicts[0]


def test_failing_theorem_a_verdict_names_the_f_maximal_subgroups_missing_z(s4):
    # Z_{3}Sup(S4) = S4 while the supersoluble-maximal subgroups intersect
    # in 1, so every one of them misses Z
    rep = run(theorem_a_statement(SUP, {3}), [s4])
    missing = rep.failures[0]["witness"]["f_maximal_missing_z"]
    assert sorted(missing) == sorted(M.elements.tolist()
                                     for M in f_maximal_subgroups(s4, SUP))
