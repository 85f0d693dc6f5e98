"""Command-line surface: subcommands, JSON reports, exit codes."""

import json

import pytest

import formalab.groups as groups_mod
import formalab.lattice as lattice_mod
from formalab.cli import EXIT_CAP, EXIT_LOAD, EXIT_OK, EXIT_SUITE, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_catalog_list(capsys):
    code, data = run(capsys, "catalog", "list")
    assert code == EXIT_OK
    names = [e["name"] for e in data]
    assert "S4" in names and "Ex1.2" in names
    assert all(set(e) == {"name", "order", "soluble", "nilpotent"}
               for e in data)


def test_analyze_s4_sup_pi3(capsys):
    code, data = run(capsys, "analyze", "S4", "--formation", "sup",
                     "--pi", "3")
    assert code == EXIT_OK
    assert data["z_pi_f"] == 24
    assert data["int_f"] == 1
    assert len(data["f_maximal"]) == 7


def test_analyze_c6_nil(capsys):
    code, data = run(capsys, "analyze", "C6", "--formation", "nil")
    assert code == EXIT_OK
    assert data["z_pi_f"] == data["int_f"] == data["int_star_f"] == 6


def test_analyze_sl23(capsys):
    code, data = run(capsys, "analyze", "SL(2,3)", "--formation", "nil")
    assert code == EXIT_OK
    assert data["z_pi_f"] == data["int_f"] == data["int_star_f"] == 2


def test_analyze_file(capsys, tmp_path):
    path = tmp_path / "c5.json"
    path.write_text(json.dumps({"name": "C5", "kind": "permutation",
                                "degree": 5, "generators": ["(1 2 3 4 5)"]}))
    code, data = run(capsys, "analyze", str(path), "--formation", "nil")
    assert code == EXIT_OK and data["order"] == 5


def test_analyze_unknown_group(capsys):
    assert main(["analyze", "NOPE", "--formation", "nil"]) == EXIT_LOAD


def test_analyze_bad_formation(capsys):
    assert main(["analyze", "S4", "--formation", "wibble"]) == EXIT_LOAD


def test_analyze_refuses_a_parameter_on_a_parameterless_formation(capsys):
    # sup:3 used to run sup, so a mistyped psup:3 ran another formation
    assert main(["analyze", "S4", "--formation", "sup:3"]) == EXIT_LOAD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "takes no parameter" in captured.err
    code, data = run(capsys, "analyze", "S4", "--formation", "psup:3")
    assert code == EXIT_OK and data["formation"] == "psup:3"


def test_analyze_semidirect_spec_over_trivial_actor(capsys, tmp_path):
    # the action degree is |N|, not guessed from an empty action list
    path = tmp_path / "c3c1.json"
    path.write_text(json.dumps({"name": "C3:C1", "kind": "semidirect",
                                "normal": "C3", "actor": "C1", "action": []}))
    code, data = run(capsys, "analyze", str(path), "--formation", "nil")
    assert code == EXIT_OK and data["order"] == 3


def test_analyze_missing_file(capsys):
    assert main(["analyze", "no_such_file.json"]) == EXIT_LOAD


def test_verify_example(capsys):
    code, data = run(capsys, "verify", "example_1_2")
    assert code == EXIT_OK
    assert data[0]["pass"] is True


def test_verify_exploratory_failure_does_not_gate(capsys):
    # an uncertified configuration may fail without a suite exit code
    code, data = run(capsys, "verify", "theorem_a", "--formation", "sup",
                     "--pi", "3", "--max-order", "30")
    assert code == EXIT_OK
    assert data[0]["label"] == "exploratory"
    assert data[0]["pass"] is False


def test_verify_theorem_a_with_a_proper_pi_is_exploratory_for_nil(capsys):
    # Z_piNil = Int_Nil is a theorem only for pi = all primes: on S3 with
    # pi = {2} the 3-chief factor is exempt, so Z = S3 while Int = 1
    code, data = run(capsys, "verify", "theorem_a", "--formation", "nil",
                     "--pi", "2", "--max-order", "12")
    assert code == EXIT_OK
    assert data[0]["label"] == "exploratory"
    assert "S3" in {f["group"] for f in data[0]["failures"]}


def test_verify_baer_small(capsys):
    code, data = run(capsys, "verify", "baer", "--max-order", "30")
    assert code == EXIT_OK
    assert data[0]["pass"] is True
    assert data[0]["label"] == "certified"


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nonsense"]) == EXIT_LOAD


def test_hunt_critical(capsys):
    code, data = run(capsys, "hunt-critical", "--formation", "sup",
                     "--p", "3", "--max-order", "60")
    assert code == EXIT_OK
    assert {w["group"] for w in data} == {"A4", "V4:C3"}


def test_hunt_critical_soluble_only(capsys):
    code, data = run(capsys, "hunt-critical", "--formation", "nil",
                     "--p", "2", "--max-order", "60", "--soluble-only")
    assert code == EXIT_OK and data == []


def test_report_determinism(capsys):
    _, first = run(capsys, "verify", "theorem_b", "--max-order", "30")
    _, second = run(capsys, "verify", "theorem_b", "--max-order", "30")
    for a, b in zip(first, second):
        a.pop("elapsed_s"), b.pop("elapsed_s")
    assert first == second


def test_analyze_spec_without_degree(capsys, tmp_path):
    path = tmp_path / "nodeg.json"
    path.write_text(json.dumps({"name": "C5", "kind": "permutation",
                                "generators": ["(1 2 3 4 5)"]}))
    assert main(["analyze", str(path)]) == EXIT_LOAD
    assert "degree" in capsys.readouterr().err


def test_analyze_spec_not_an_object(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([{"name": "C5", "kind": "permutation"}]))
    assert main(["analyze", str(path)]) == EXIT_LOAD
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    {"kind": "permutation", "degree": None, "generators": ["(1 2 3 4 5)"]},
    {"kind": "permutation", "degree": 5, "generators": 5},
    {"kind": "permutation", "degree": 5, "generators": [None]},
    {"kind": "table", "table": None},
    {"kind": "direct", "factors": 2},
    {"kind": "semidirect", "normal": "C3", "actor": "C2", "action": [[5, 5, 5]]},
    {"kind": "matrix_module", "actor": "C3", "p": None, "dim": 2,
     "generators": [[[0, 1], [1, 1]]]},
], ids=["degree-null", "generators-int", "cycle-null", "table-null",
        "factors-int", "action-out-of-range", "p-null"])
def test_analyze_spec_with_wrong_value_type(capsys, tmp_path, spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["analyze", str(path)]) == EXIT_LOAD
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("spec, field", [
    ({"kind": "permutation", "degree": 4, "generators": ["(1 2 3 4)"], "name": ["x"]},
     "name"),
    ({"kind": "direct", "factors": "S3"}, "factors"),
    ({"kind": "direct", "factors": ["C2", {"kind": "direct", "factors": "C3"}]},
     "factors"),
    ({"kind": "permutation", "degree": 3, "generators": "(1 2 3)"}, "generators"),
    ({"kind": "matrix_module", "actor": "C3", "p": 2, "dim": 2,
      "generators": {"a": [[0, 1], [1, 1]]}}, "generators"),
    ({"kind": "semidirect", "normal": "C3", "actor": "C2", "action": "021"},
     "action"),
], ids=["name-list", "factors-string", "nested-factors-string", "generators-string",
        "matrix-generators-object", "action-string"])
def test_analyze_spec_field_of_the_wrong_json_type(capsys, tmp_path, spec, field):
    # a list name was once reported as the group name, and a string of
    # factors was read letter by letter
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["analyze", str(path)]) == EXIT_LOAD
    assert f"field {field} must be" in capsys.readouterr().err


def test_analyze_over_subgroup_cap(capsys, tmp_path, monkeypatch):
    path = tmp_path / "s4.json"
    # a group built from a file has no cached lattice
    path.write_text(json.dumps({"name": "S4", "kind": "permutation", "degree": 4,
                                "generators": ["(1 2 3 4)", "(1 2)"]}))
    monkeypatch.setattr(lattice_mod, "SUBGROUP_CAP", 5)
    assert main(["analyze", str(path)]) == EXIT_CAP
    assert "subgroups" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "theorem_a", "--formation", "nil", "--pi", "1"],
    ["analyze", "S4", "--pi", "4"],
    ["analyze", "S4", "--pi", "0"],
    ["analyze", "S4", "--pi", "2,"],
    ["hunt-critical", "--formation", "nil", "--p", "4"],
], ids=["verify-pi-1", "analyze-pi-4", "analyze-pi-0", "analyze-pi-empty-item",
        "hunt-p-4"])
def test_non_prime_pi_or_p_is_a_usage_error(capsys, argv):
    assert main(argv) == EXIT_LOAD
    assert "not a prime" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "baer", "--pi", "3", "--max-order", "12"],
    ["verify", "theorem_a", "--pi", "3", "--max-order", "12"],
    ["verify", "theorem_d", "--pi", "2", "--max-order", "12"],
    ["verify", "all", "--pi", "3", "--max-order", "12"],
], ids=["baer", "theorem_a-without-formation", "theorem_d", "all"])
def test_verify_rejects_pi_where_no_suite_reads_it(capsys, argv):
    assert main(argv) == EXIT_LOAD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--pi applies only to" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "baer", "--formation", "sup", "--max-order", "8"],
    ["verify", "theorem_d", "--formation", "nonsense", "--max-order", "8"],
    ["verify", "example_1_2", "--formation", "sup"],
    ["verify", "all", "--formation", "sup", "--max-order", "8"],
], ids=["baer", "theorem_d-invalid-name", "example_1_2", "all"])
def test_verify_rejects_formation_where_no_suite_reads_it(capsys, argv):
    assert main(argv) == EXIT_LOAD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "--formation applies only to" in captured.err


def test_verify_theorem_a_reads_formation(capsys):
    code, data = run(capsys, "verify", "theorem_a", "--formation", "sup",
                     "--max-order", "8")
    assert code == EXIT_OK
    assert [r["suite"] for r in data] == ["theorem_a[sup, pi=all]"]


def test_verify_theorem_a_rejects_an_empty_formation(capsys):
    # an empty name is parsed and refused, not taken as "no --formation"
    assert main(["verify", "theorem_a", "--formation", "", "--max-order", "8"]) \
        == EXIT_LOAD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown formation" in captured.err


def test_verify_accepts_pi_all_everywhere(capsys):
    code, data = run(capsys, "verify", "baer", "--pi", "all", "--max-order", "12")
    assert code == EXIT_OK
    assert data[0]["pass"] is True


@pytest.mark.parametrize("argv", [
    ["verify", "baer", "--max-order", "0"],
    ["verify", "all", "--max-order", "-3"],
    ["verify", "example_1_2", "--max-order", "0"],
    ["hunt-critical", "--formation", "nil", "--p", "3", "--max-order", "0"],
    ["hunt-critical", "--formation", "nil", "--p", "2", "--max-order", "-1"],
], ids=["verify-baer-0", "verify-all-negative", "verify-example-0", "hunt-0",
        "hunt-negative"])
def test_max_order_below_one_is_a_usage_error(capsys, argv):
    # no catalog group has order below 1, so a suite would pass on no verdicts
    assert main(argv) == EXIT_LOAD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-order must be at least 1" in captured.err


def test_max_order_one_still_has_a_verdict(capsys):
    code, data = run(capsys, "verify", "baer", "--max-order", "1")
    assert code == EXIT_OK
    assert [v["group"] for v in data[0]["verdicts"]] == ["C1"]
    code, data = run(capsys, "hunt-critical", "--formation", "nil", "--p", "2",
                     "--max-order", "1")
    assert (code, data) == (EXIT_OK, [])


@pytest.mark.parametrize("spec, message", [
    ({"kind": "permutation", "degree": 3.7, "generators": ["(1 2 3)"]},
     "degree must be an integer"),
    ({"kind": "permutation", "degree": True, "generators": ["()"]},
     "degree must be an integer"),
    ({"kind": "table", "table": [[0, 1.5], [1, 0]]},
     "every table entry must be an integer"),
    ({"kind": "semidirect", "normal": "C3", "actor": "C2", "action": [[0, 2.9, 1]]},
     "every action entry must be an integer"),
    ({"kind": "matrix_module", "actor": "C3", "p": 2.5, "dim": 2,
      "generators": [[[0, 1], [1, 1]]]}, "p must be an integer"),
    ({"kind": "matrix_module", "actor": "C3", "p": 2, "dim": 2,
      "generators": [[[0, 1], [1.2, 1]]]}, "every matrix entry must be an integer"),
    ({"kind": "matrix_module", "actor": "C3", "p": 4, "dim": 2,
      "generators": [[[1, 0], [0, 1]]]}, "p must be a prime"),
    ({"kind": "matrix_module", "actor": "C3", "p": 521, "dim": 1,
      "generators": [[[1]]]}, "p must be a prime up to 512"),
], ids=["degree-float", "degree-bool", "table-float", "action-float", "p-float",
        "matrix-float", "p-composite", "p-over-cap"])
def test_analyze_spec_with_non_integer_or_non_prime_number(capsys, tmp_path, spec,
                                                           message):
    # the float, bool and composite inputs once built a group and exited 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["analyze", str(path)]) == EXIT_LOAD
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ({"kind": "matrix_module", "actor": "C2", "p": 2, "dim": 2,
      "generators": [[[1, 0], [0]]]}, "matrix must be a rectangular array"),
    ({"kind": "table", "table": [[0, 1], [1]]}, "table must be a rectangular array"),
    ({"kind": "semidirect", "normal": "C3", "actor": "C2", "action": [[0, [2], 1]]},
     "action must be a rectangular array"),
    ({"kind": "matrix_module", "actor": "C2", "p": 2, "dim": 2,
      "generators": [[[1, 1]]]}, "generator matrix 0 must be 2x2, got shape (1, 2)"),
    ({"kind": "matrix_module", "actor": "C2", "p": 2, "dim": 2,
      "generators": [5]}, "generator matrix 0 must be 2x2, got shape ()"),
    ({"kind": "table", "table": [[0, 2 ** 70], [1, 0]]},
     "every table entry must fit in a machine integer"),
], ids=["matrix-ragged", "table-ragged", "action-ragged", "matrix-1x2",
        "matrix-scalar", "table-entry-too-large"])
def test_analyze_spec_array_of_the_wrong_shape(capsys, tmp_path, spec, message):
    # these once ended on numpy's own messages (matmul, inhomogeneous shape),
    # and the oversized entry on an OverflowError traceback
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["analyze", str(path)]) == EXIT_LOAD
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("dim", [-1, 0])
def test_analyze_matrix_module_dim_below_one(capsys, tmp_path, dim):
    # -1 once exited 2 blaming a float: p**dim was 0.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "matrix_module", "actor": "C3", "p": 2,
                                "dim": dim, "generators": [[[1]]]}))
    assert main(["analyze", str(path)]) == EXIT_LOAD
    err = capsys.readouterr().err
    assert f"dim must be positive, got {dim}" in err
    assert "float" not in err


def test_analyze_non_associative_table_spec(capsys, tmp_path):
    path = tmp_path / "loop5.json"
    path.write_text(json.dumps({"name": "loop5", "kind": "table",
                                "table": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2],
                                          [2, 3, 4, 0, 1], [3, 4, 1, 2, 0],
                                          [4, 2, 0, 1, 3]]}))
    assert main(["analyze", str(path)]) == EXIT_LOAD
    assert "associativity fails" in capsys.readouterr().err


BIG_PRIME = "1000000000000000003"


@pytest.mark.parametrize("argv, message", [
    (["analyze", "S4", "--pi", BIG_PRIME], "not a prime up to 512"),
    (["analyze", "S4", "--pi", "521"], "not a prime up to 512"),
    (["analyze", "S4", "--pi", f"2,{BIG_PRIME}"], "not a prime up to 512"),
    (["verify", "theorem_a", "--formation", "nil", "--pi", BIG_PRIME],
     "not a prime up to 512"),
    (["hunt-critical", "--formation", "nil", "--p", BIG_PRIME],
     "not a prime up to 512"),
    (["analyze", "S4", "--formation", f"pnilp:{BIG_PRIME}"],
     "needs a prime parameter up to 512"),
    (["analyze", "S4", "--formation", f"piclosed:2,{BIG_PRIME}"],
     "needs a nonempty set of primes up to 512"),
], ids=["analyze-pi-big", "analyze-pi-521", "analyze-pi-list", "verify-pi-big",
        "hunt-p-big", "pnilp-big", "piclosed-big"])
def test_prime_over_order_cap_is_refused_before_trial_division(capsys, monkeypatch,
                                                              argv, message):
    # no prime above ORDER_CAP divides a group order; trial division of
    # BIG_PRIME would run for years
    trial_division = lattice_mod.prime_factors

    def capped_trial_division(n):
        if n > 512:
            raise AssertionError(f"trial division of {n}")
        return trial_division(n)
    monkeypatch.setattr(lattice_mod, "prime_factors", capped_trial_division)
    assert main(argv) == EXIT_LOAD
    assert message in capsys.readouterr().err


def _nested_direct_spec(depth):
    """A direct product of order 4 whose first factor is nested `depth` deep."""
    inner = "C2"
    for _ in range(depth):
        inner = {"kind": "direct", "factors": [inner, "C1"]}
    return {"name": "deep", "kind": "direct", "factors": [inner, "C2"]}


@pytest.mark.parametrize("text", [
    json.dumps(_nested_direct_spec(400)),
    '{"kind": "table", "table": ' + "[" * 100_000 + "]" * 100_000 + "}",
], ids=["direct-400-deep", "table-100000-brackets"])
def test_deeply_nested_spec_is_a_load_error(capsys, tmp_path, text):
    # both once ended in a RecursionError traceback and exit 1
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["analyze", str(path)]) == EXIT_LOAD
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err
    assert "Traceback" not in err


def test_direct_spec_over_order_cap_is_a_cap_error(capsys, tmp_path):
    path = tmp_path / "s5xc5.json"
    path.write_text(json.dumps({"kind": "direct", "factors": ["S5", "C5"]}))
    assert main(["analyze", str(path)]) == EXIT_CAP
    assert "exceeds cap 512" in capsys.readouterr().err


def test_matrix_module_over_order_cap_is_refused_before_it_is_built(
        capsys, tmp_path, monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("the module was built")
    monkeypatch.setattr(groups_mod, "elementary_abelian_vector_group", built)
    monkeypatch.setattr(groups_mod, "semidirect_product", built)
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    path = tmp_path / "f3_4_a4.json"  # 3^4 * 12 = 972
    path.write_text(json.dumps({"kind": "matrix_module", "actor": "A4", "p": 3,
                                "dim": 4, "generators": [identity, identity]}))
    assert main(["analyze", str(path)]) == EXIT_CAP
    assert "order 972 exceeds cap 512" in capsys.readouterr().err
