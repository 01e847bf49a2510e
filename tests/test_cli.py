import json
import time

import pytest

from singerlab import Matrix, make_field
from singerlab.cli import main

from conftest import run_python


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *args):
    code, out, _ = run(capsys, *args, "--output", "json")
    return code, json.loads(out)


def test_example_gl2f3(capsys):
    code, report = run_json(capsys, "example", "gl2f3")
    assert code == 0
    assert report["failed"] == 0 and report["passed"] == 8


def test_example_gl2f5(capsys):
    code, report = run_json(capsys, "example", "gl2f5")
    assert code == 0 and report["failed"] == 0 and report["passed"] == 5


def test_example_s4(capsys):
    code, report = run_json(capsys, "example", "s4")
    assert code == 0 and report["failed"] == 0


def test_field_primitive_cubic_over_f512():
    # 7 is the least primitive element of this F_512, so the 6 x 512^2 cubics
    # with c_0 < 7, whose roots have non-primitive norms, are skipped untested
    start = time.monotonic()
    result = run_python("import sys; from singerlab.cli import main; "
                        "sys.exit(main(['field', '--p', '2', '--k', '9', '--n', '3', "
                        "'--output', 'json']))")
    elapsed = time.monotonic() - start
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["primitive_polynomial_degree_n"] == "7,0,5,1"
    assert elapsed < 20


def test_verify_main2_cli(capsys):
    code, report = run_json(capsys, "verify", "main2", "--n", "2", "--p", "3")
    assert code == 0
    assert report["schema"] == 1
    assert report["violations"] == []
    assert report["exceptional_per_cycle"] == 4


def test_verify_main1_cli(capsys):
    code, report = run_json(capsys, "verify", "main1", "--n", "1", "--p", "5")
    assert code == 0 and report["violations"] == []


def test_verify_main1_cli_seed(capsys):
    code, report = run_json(capsys, "verify", "main1", "--n", "2", "--p", "3", "--seed", "7")
    assert code == 0 and report["violations"] == []
    assert report["mode"] == "full" and report["checked"] == 48
    assert report["conjugation_spot_checks"] == 3


def test_verify_main1_has_no_classes_mode(capsys):
    # main1 has one sweep, over every element: --classes is not an option
    with pytest.raises(SystemExit) as exc:
        main(["verify", "main1", "--n", "2", "--p", "3", "--classes"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "unrecognized arguments: --classes" in out.err


@pytest.mark.parametrize("subcommand,flag", [
    ("gill", "--full"), ("main1", "--full"),
    ("singer-equiv", "--seed"), ("length-oracle", "--full"), ("main2", "--seed")])
def test_verify_refuses_mode_flags_the_driver_does_not_read(capsys, subcommand, flag):
    # --seed is declared only on main1's parser, --full only on main2's;
    # any other driver exits 2 naming the flag, with no report, rather than
    # running its plain sweep
    args = [flag, "0"] if flag == "--seed" else [flag]
    with pytest.raises(SystemExit) as exc:
        main(["verify", subcommand, "--n", "2", "--p", "3", *args])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert f"unrecognized arguments: {' '.join(args)}" in out.err


@pytest.mark.parametrize("subcommand,own,foreign", [("main1", "--seed", "--full"),
                                                    ("main2", "--full", "--seed")])
def test_verify_help_lists_only_the_drivers_own_flags(capsys, subcommand, own, foreign):
    with pytest.raises(SystemExit) as exc:
        main(["verify", subcommand, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert own in out and foreign not in out


def test_verify_gill_cli(capsys):
    code, report = run_json(capsys, "verify", "gill", "--n", "2", "--p", "3")
    assert code == 0
    assert {"f": "2,1,1", "g": "1,0,1", "order": 16} in report["exceptional_pairs"]


def test_verify_singer_equiv_cli(capsys):
    code, report = run_json(capsys, "verify", "singer-equiv", "--n", "2", "--p", "3")
    assert code == 0 and report["violations"] == []


def test_verify_length_oracle_cli(capsys):
    code, report = run_json(capsys, "verify", "length-oracle", "--n", "2", "--p", "3")
    assert code == 0 and report["checked"] == 48


@pytest.mark.parametrize("n,p", [(1, 2), (1, 5), (2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("subcommand", ["main1", "main2", pytest.param("main2 --full", id="main2-full"),
                                        "gill", "singer-equiv", "length-oracle"])
def test_every_verify_subcommand_passes_on_small_groups(capsys, subcommand, n, p):
    code, report = run_json(capsys, "verify", *subcommand.split(), "--n", str(n), "--p", str(p))
    assert code == 0 and report["violations"] == []


def test_factorize_single(capsys):
    code, report = run_json(capsys, "factorize", "--matrix", "3,0;0,4", "--p", "5")
    assert code == 0
    assert report["reflection_length"] == 2 and report["count"] == 1
    fl = report["factorizations"][0]
    field = make_field(5)
    prod = Matrix.from_text(field, fl["factors"][0]) @ Matrix.from_text(field, fl["factors"][1])
    assert prod == Matrix.from_text(field, report["matrix"])  # JSON round-trips


def test_factorize_all_contains_worked_pair(capsys):
    code, report = run_json(capsys, "factorize", "--matrix", "3,0;0,4", "--p", "5", "--all")
    assert code == 0
    pairs = {tuple(fl["factors"]) for fl in report["factorizations"]}
    assert ("2,2;2,0", "0,2;4,3") in pairs
    verdicts = {fl["generates"] for fl in report["factorizations"]}
    assert verdicts == {True, False}  # weakly but not strongly quasi-Coxeter


def test_factorize_det_subgroup(capsys):
    code, report = run_json(capsys, "factorize", "--matrix", "0,1;1,3", "--p", "5",
                            "--det-subgroup", "4")
    assert code == 0 and report["count"] == 12
    assert all(set(fl["dets"]) <= {1, 4} for fl in report["factorizations"])
    assert all(fl["generates"] is False for fl in report["factorizations"])


def test_factorize_identity(capsys):
    code, report = run_json(capsys, "factorize", "--matrix", "1,0;0,1", "--p", "3")
    assert code == 0
    assert report["factorizations"][0]["factors"] == []


@pytest.mark.parametrize("text,generates", [("1", True), ("1,0;0,1", False)])
def test_factorize_identity_over_f2(capsys, text, generates):
    # the empty factorization generates GL_1(F_2), but not GL_2(F_2)
    code, report = run_json(capsys, "factorize", "--matrix", text, "--p", "2", "--all")
    assert code == 0 and report["count"] == 1
    assert report["factorizations"] == [{"dets": [], "factors": [], "generates": generates,
                                         "product": text}]


def test_field_command(capsys):
    code, report = run_json(capsys, "field", "--p", "3", "--k", "2",
                            "--poly", "2,1,1", "--n", "1")
    assert code == 0
    assert report["q"] == 9 and report["modulus"] == [2, 1, 1]
    assert report["least_primitive_element"] == 3
    # whole reports, key for key, as computed through the FieldElem wrapper
    # that integer encodings replaced
    expected = {
        ("--p", "3", "--k", "2", "--poly", "2,1,1", "--n", "2"): {
            "p": 3, "k": 2, "modulus": [2, 1, 1], "q": 9, "unit_group_order": 8,
            "least_primitive_element": 3, "primitive_element_order": 8,
            "primitive_polynomial_degree_n": "3,3,1"},
        ("--p", "2", "--k", "13"): {
            "p": 2, "k": 13, "modulus": [1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1],
            "q": 8192, "unit_group_order": 8191, "least_primitive_element": 2,
            "primitive_element_order": 8191},
        ("--p", "7", "--n", "3"): {
            "p": 7, "k": 1, "modulus": [0, 1], "q": 7, "unit_group_order": 6,
            "least_primitive_element": 3, "primitive_element_order": 6,
            "primitive_polynomial_degree_n": "2,1,1,1"},
    }
    for args, fields in expected.items():
        code, report = run_json(capsys, "field", *args)
        assert code == 0 and report == {"schema": 1, **fields}


def test_exit_code_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "2"])  # missing subcommand/p
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    pytest.param(("verify", "main2", "--n", "0", "--p", "2"), id="verify-n0"),
    pytest.param(("verify", "main1", "--n", "2", "--p", "2", "--k", "0"), id="verify-k0"),
    pytest.param(("field", "--p", "2", "--n", "0"), id="field-n0"),
    pytest.param(("field", "--p", "2", "--k", "-1"), id="field-k-1"),
    pytest.param(("factorize", "--matrix", "1", "--p", "2", "--n", "-1"), id="factorize-n-1"),
    pytest.param(("verify", "gill", "--n", "two", "--p", "2"), id="verify-n-text"),
])
def test_exit_code_nonpositive_dimension(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


def test_exit_code_singular_matrix(capsys):
    code, _, err = run(capsys, "factorize", "--matrix", "0,0;0,0", "--p", "3")
    assert code == 2 and "singular" in err


@pytest.mark.parametrize("args", [
    pytest.param(("main2", "--n", "3", "--p", "2", "--k", "3"), id="closure-GL3F8"),
    pytest.param(("main2", "--n", "2", "--p", "3", "--k", "4"), id="main2-sweep-GL2F81"),
    pytest.param(("length-oracle", "--n", "4", "--p", "7"), id="length-oracle-GL4F7"),
])
def test_exit_code_budget(capsys, args):
    code, _, err = run(capsys, "verify", *args)
    assert code == 2 and "budget" in err.lower()


def test_text_output_mode(capsys):
    code, out, _ = run(capsys, "example", "gl2f3")
    assert code == 0 and "PASS" in out
