import hashlib
import json

import pytest

from coxcoh import cli
from coxcoh.cli import main
from coxcoh.fan import parse_fan

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


def test_ext_oracle_oversized_box_is_domain_error(monkeypatch, capsys):
    # radius 100 on P^2 is 201^3 degrees, over the 2^20 limit: refused
    # before the module is resolved
    from coxcoh import localcoh

    def no_resolution(*args, **kwargs):
        raise AssertionError("resolved an oversized box")

    monkeypatch.setattr(localcoh, "free_resolution", no_resolution)
    code, out, err = run_cli(
        capsys, "ext-oracle", str(FANS_DIR / "p2.fan"), "--p", "3", "--box-radius", "100", "--json"
    )
    assert code == 1
    assert out == ""
    assert "8120601 degrees exceeds the limit of 1048576" in err


def test_koszul_check_oversized_box_is_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "koszul-check", str(FANS_DIR / "p1.fan"), "--box-radius", "1000", "--json"
    )
    assert code == 1
    assert out == ""
    assert "4004001 degrees exceeds the limit" in err


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


# SHA-256 of the --json output of each subcommand on each shipped fan, its
# documents in order where it runs more than once (see cli_runs).  A change
# to any of these documents must be deliberate: update the digest and say
# why in CHANGES.md.  fano8 pins no ext-oracle or koszul-check: they take
# 4 s and 6 s there.
CLI_DIGESTS = {
    "blowup_p112236.fan": {
        "validate": "6b51aa3567f19c9cb7ed8ad691e8e573b578548363179324859c49d08c1e2184",
        "irrelevant": "429bc751d5a1cfbb4afa93fc8b4b5573307352362bfb0d7069b735afc4b7b9e0",
        "grading": "81b5ddbab53b8d6042a550597e672ff8a43a3663585c233e5d899b72071402a4",
        "cohomology-u": "247dc4dccdc163011b65270d37d0e3954764c022e58b924fcf79f3d2b669d8d7",
        "sheaf": "44533b36145ce92637f0770e3740b065c4cf02b18b0d89c38ef4709bd363a39e",
    },
    "blowup_p11336.fan": {
        "validate": "2c5601dcac8523f373b6d5058a5e169db74454b1355bfc152ebd75b425378279",
        "irrelevant": "03934c77e7fb5a0ccebb5291822b31af22ca6888faa9819b541566d4b8960db3",
        "grading": "2a12178f5cb37813f04e4a5cf5fb0be4c1d9e68b6ea66e2d849dae636ed4c374",
        "cohomology-u": "7df3d927ca7a189290d70381a45c17b8cf946bc0d9fdc11cf148ab5fac4a9bab",
        "sheaf": "767c43955b95991f3e2432e82c0d2396b330899b12f830d14dddd384a88de47e",
        "ext-oracle": "c9aa63de3ea7da24fa9c6791587020d2e715fd10a35d0f3cedc8045f78648cc0",
        "koszul-check": "38e58a54086df84a4e0a5daeefbd3e2eded6f393533f05d9322c3910b1722a41",
    },
    "p1.fan": {
        "validate": "d8ca557a81c811432bfaf1323baec6eccdee07e91c5f689b0fecda40c8a789f6",
        "irrelevant": "18a7fce4f7253418611e9830d255c1da958798ab8dd0619d7afd46134cfb396e",
        "grading": "1e8ce7ae06faca5d1128f15dfa47ae38c60a09fa1660f2f30c09972db1a09dba",
        "cohomology-u": "a8690bd04f0cd20c1d03a78129dd20cc8f2816bf44ce84a3edd3487fdc380e7a",
        "sheaf": "5266467765afa49f06821b0e31a6a916284dd5a48139de787cc4556ef1883d69",
        "ext-oracle": "2dc1500402f4b5283137f0726dd6311a25271c29993518b4311b4b146bb06c8b",
        "koszul-check": "1e14d1f199878535fd091fe9f4b651cdccffa7e7154ec663f28756d05ba8d8e9",
    },
    "p112.fan": {
        "validate": "8bdb102e29bd9973fd2fe774108c78100bca666a9f4a8cbbc8ddd74feff7392e",
        "irrelevant": "f7ca2e833e8bda6a9e3dd4e4c753e48816231c90657529fb4db9d12e3e716438",
        "grading": "b44f0ec2909f6941ed2f77f6e5d2876c6f7453c5319e8db389efe6136c245830",
        "cohomology-u": "82245f94446305fcf42f6d2b9dca1157dcb4ad47609ab5ad563d866a82fdd22b",
        "sheaf": "66aed2251d441d6cafa6d4161b92a317ab1ca2dc8f4c8555fd1d5e05f3fb01e8",
        "ext-oracle": "591ce07ca8e9b10b35949864ecb66a4fc05871904bbbd3a80063292692a43406",
        "koszul-check": "72aebe72bf82fa915e6331fc6569c809c731dc801fa0e7ec939aa21c1ca51cfc",
    },
    "p2.fan": {
        "validate": "8bdb102e29bd9973fd2fe774108c78100bca666a9f4a8cbbc8ddd74feff7392e",
        "irrelevant": "f7ca2e833e8bda6a9e3dd4e4c753e48816231c90657529fb4db9d12e3e716438",
        "grading": "98d86f7bd2d1aa28e8d54d86fb61305d677d99629a4af0ce3458df8b4f22e2ee",
        "cohomology-u": "53122d27ebe832b7d6db6c624f4e5292a249f79818e41b58782d0b49549dd5c5",
        "sheaf": "e4005a7fdee9dfb0e83f02fe29bfae2257ee4270952308f39945f416771b7821",
        "ext-oracle": "591ce07ca8e9b10b35949864ecb66a4fc05871904bbbd3a80063292692a43406",
        "koszul-check": "72aebe72bf82fa915e6331fc6569c809c731dc801fa0e7ec939aa21c1ca51cfc",
    },
}


# a few classes per shipped fan for `sheaf`, in the fan's Smith basis
SHEAF_DEGREES = {
    "blowup_p112236.fan": "-1,0,1;0,0,0;1,1,1",
    "blowup_p11336.fan": "-2,-1;0,0;1,2",
    "p1.fan": "-3;0;2",
    "p112.fan": "-4;-1;3",
    "p2.fan": "-4;-1;2",
}


def cli_runs(subcommand, name):
    """The argument lists whose --json documents one digest pins: sheaf at
    every p of a few classes, ext-oracle at radius 1 and every p = 0..n,
    koszul-check at level 1, and the rest on the fan alone."""
    path = str(FANS_DIR / name)
    if subcommand == "sheaf":
        return [[subcommand, path, "--degree=" + SHEAF_DEGREES[name], "--json"]]
    if subcommand == "ext-oracle":
        n = parse_fan((FANS_DIR / name).read_text()).n_rays
        return [
            [subcommand, path, "--box-radius", "1", "--p", str(p), "--json"] for p in range(n + 1)
        ]
    if subcommand == "koszul-check":
        return [[subcommand, path, "--p", "1", "--json"]]
    return [[subcommand, path, "--json"]]


def test_cli_digests_cover_every_shipped_fan():
    assert sorted(CLI_DIGESTS) == sorted(p.name for p in FANS_DIR.glob("*.fan"))


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_cli_json_is_byte_identical(name, capsys):
    for subcommand, digest in CLI_DIGESTS[name].items():
        outs = []
        for argv in cli_runs(subcommand, name):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and err == "", argv
            outs.append(out)
        assert hashlib.sha256("".join(outs).encode()).hexdigest() == digest, subcommand


# SHA-256 of `cohomology-u --json` on generated fans, P^d after k stellar
# subdivisions drawn from seeded_rng(1, "x"), written to P^d+k.fan
GENERATED_DIGESTS = {
    (2, 8): "9103bd1981bfe76c788959d060b027ff603e64037f68e22563006950ce9ac2d5",
    (3, 9): "440e089f283fb2a73e16ebe5ea3b961f03a7fc17335aba8b35360cf3e41382be",
    (4, 12): "865b1900904bee618ee581846e85c51e0036cee46fe73938adc5e57c903f0b3d",
}


@pytest.mark.parametrize("d, k", sorted(GENERATED_DIGESTS))
def test_cohomology_u_json_on_generated_fans_is_byte_identical(d, k, tmp_path, fan_generator, capsys):
    rays, cones = fan_generator.generated_fan(d, k, fan_generator.seeded_rng(1, "x"))
    path = tmp_path / ("P%d+%d.fan" % (d, k))
    path.write_text(fan_generator.fan_text(rays, cones, "P^%d+%d" % (d, k)))
    code, out, err = run_cli(capsys, "cohomology-u", str(path), "--json")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GENERATED_DIGESTS[d, k]


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    # a run, a usage error and a run again share the one parser, and the
    # usage error leaves nothing behind that changes the second run
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    path = str(FANS_DIR / "blowup_p11336.fan")
    digest = CLI_DIGESTS["blowup_p11336.fan"]["cohomology-u"]
    code, out, err = run_cli(capsys, "cohomology-u", path, "--json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    with pytest.raises(SystemExit) as exc:
        main(["cohomology-u", path, "--modp", "7", "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --modp" in capsys.readouterr().err
    code, out, err = run_cli(capsys, "cohomology-u", path, "--json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    assert len(builds) == 1
