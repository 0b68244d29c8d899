import json

import pytest

from coxcoh.cli import main

from conftest import FANS_DIR, PSEUDO_FAN_TEXT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_text(capsys):
    code, out, err = run_cli(capsys, "validate", str(FANS_DIR / "blowup_p11336.fan"))
    assert code == 0
    assert "complete:       True" in out


def test_validate_json(capsys):
    code, out, err = run_cli(capsys, "validate", str(FANS_DIR / "p2.fan"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["complete"] is True and doc["simplicial"] is True
    assert out.count("\n") == 1  # exactly one JSON document


def test_validate_skip_sampling(capsys):
    # completeness is decided exactly, so the sampling options are gone
    for argv in (
        ["validate", str(FANS_DIR / "p2.fan"), "--skip-sampling"],
        ["validate", str(FANS_DIR / "p2.fan"), "--seed", "7"],
        ["cohomology-u", str(FANS_DIR / "p2.fan"), "--skip-sampling"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_irrelevant(capsys):
    code, out, _ = run_cli(capsys, "irrelevant", str(FANS_DIR / "blowup_p112236.fan"))
    assert code == 0
    assert out.split()[0] == "x6x7x8"
    assert len(out.split()) == 18


def test_grading_table(capsys):
    code, out, _ = run_cli(capsys, "grading", str(FANS_DIR / "blowup_p11336.fan"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["free_rank"] == 2 and doc["torsion"] == []
    assert len(doc["degrees"]) == 7


def test_sheaf_json_p2(capsys):
    code, out, _ = run_cli(
        capsys, "sheaf", str(FANS_DIR / "p2.fan"), "--degree", "-3", "--p", "2", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["per_degree"] == [{"alpha": [-3], "p": 2, "dim": 1}]
    assert doc["exact"] is True


def test_sheaf_multiple_classes(capsys):
    code, out, _ = run_cli(
        capsys, "sheaf", str(FANS_DIR / "p1.fan"), "--degree=-2;0;1", "--p", "0"
    )
    assert code == 0
    lines = [l for l in out.splitlines() if "dim=" in l]
    assert len(lines) == 3


def test_sheaf_reruns_identical(capsys):
    args = ("sheaf", str(FANS_DIR / "p2.fan"), "--degree=-4;-3;0", "--json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_missing_file_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "sheaf", "missing.fan", "--degree", "-3")
    assert code == 1
    assert "cannot read fan file" in err
    assert out == ""


def test_bad_degree_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "sheaf", str(FANS_DIR / "p2.fan"), "--degree", "1,2,3")
    assert code == 1
    assert "degree class" in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["sheaf", str(FANS_DIR / "p2.fan")])  # missing required --degree
    assert exc.value.code == 2


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_ext_oracle_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "ext-oracle",
        str(FANS_DIR / "p2.fan"),
        "--m", "1", "--p", "3", "--box-radius", "2", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["hilbert"] == [{"degree": [-1, -1, -1], "dim": 1}]


def test_ext_oracle_negative_box_radius_is_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "ext-oracle", str(FANS_DIR / "p2.fan"), "--p", "3", "--box-radius", "-1", "--json"
    )
    assert code == 1
    assert out == ""
    assert "box radius" in err


def test_koszul_check_negative_box_radius_is_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "koszul-check", str(FANS_DIR / "p1.fan"), "--box-radius", "-2", "--json"
    )
    assert code == 1
    assert out == ""
    assert "box radius" in err


@pytest.mark.parametrize("value", ["0", "1", "4", "101", "3000000019"])
def test_modp_not_a_usable_prime_is_usage_error(value, capsys):
    # ranks are exact only; the mod-p backend and its option are gone
    with pytest.raises(SystemExit) as exc:
        main(["cohomology-u", str(FANS_DIR / "p2.fan"), "--modp", value, "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --modp" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["sheaf", str(FANS_DIR / "p2.fan"), "--degree=-3", "--modp", value])
    assert exc.value.code == 2


def test_pseudo_fan_cohomology_u_is_domain_error(tmp_path, capsys):
    path = tmp_path / "pseudo.fan"
    path.write_text(PSEUDO_FAN_TEXT)
    code, out, err = run_cli(capsys, "cohomology-u", str(path), "--json")
    assert code == 1
    assert out == ""
    assert "fan failed validation" in err and "lies in 2 max cones" in err
    code, out, _ = run_cli(capsys, "validate", str(path), "--json")
    assert code == 0
    assert json.loads(out)["complete"] is False


def test_koszul_check_p1(capsys):
    code, out, _ = run_cli(capsys, "koszul-check", str(FANS_DIR / "p1.fan"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["regular"] is True
    assert all(c["self_dual"] for c in doc["checks"])


def test_koszul_check_requires_level_for_big_sequences(capsys):
    code, _, err = run_cli(capsys, "koszul-check", str(FANS_DIR / "blowup_p11336.fan"))
    assert code == 1
    assert "--p" in err


def test_koszul_check_single_level_on_big_sequence(capsys):
    code, out, _ = run_cli(
        capsys,
        "koszul-check",
        str(FANS_DIR / "blowup_p11336.fan"),
        "--p", "0", "--box-radius", "1", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"] == [{"p": 0, "self_dual": True}]
    assert doc["unit_ideal"] is False


def test_cohomology_u_text_output(capsys):
    code, out, _ = run_cli(capsys, "cohomology-u", str(FANS_DIR / "blowup_p11336.fan"))
    assert code == 0
    assert "H^1: cone with negative support {5, 6}" in out
    assert "note:" in out
