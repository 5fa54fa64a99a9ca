import json

import pytest
from click.testing import CliRunner

from spinsum.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_validate_algebra_builtin(runner):
    res = runner.invoke(main, ["validate-algebra", "--builtin", "clifford"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["all"] is True


def test_validate_algebra_requires_one_source(runner):
    res = runner.invoke(main, ["validate-algebra"])
    assert res.exit_code == 2


def test_amplitude_with_oracle(runner):
    res = runner.invoke(main, ["amplitude", "--algebra", "clifford",
                               "--surface", "cylinder", "--spin", "NS+",
                               "--oracle"])
    assert res.exit_code == 0
    assert json.loads(res.output)["oracle"] == "equal"


def test_amplitude_torus_raw_scalar(runner):
    res = runner.invoke(main, ["amplitude", "--algebra", "clifford",
                               "--surface", "torus", "--spin", "R+",
                               "--raw"])
    assert res.exit_code == 0
    assert json.loads(res.output)["amplitude"]["scalar"] == "-1"


def test_amplitude_rejects_bad_selector(runner):
    res = runner.invoke(main, ["amplitude", "--algebra", "clifford",
                               "--surface", "cylinder", "--spin", "X+"])
    assert res.exit_code == 2


def test_classify_torus(runner):
    res = runner.invoke(main, ["classify", "--surface", "torus"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["count"] == 4
    assert sorted(c["arf"] for c in report["classes"]) == [-1, 1, 1, 1]


def test_classify_sphere(runner):
    res = runner.invoke(main, ["classify", "--surface", "sphere"])
    report = json.loads(res.output)
    assert report["count"] == 1
    assert report["classes"][0]["arf"] == 1


def test_pachner_fuzz_passes(runner):
    res = runner.invoke(main, ["pachner-fuzz", "--algebra", "clifford",
                               "--surface", "cylinder", "--spin", "NS+",
                               "--seed", "3", "--moves", "40"])
    assert res.exit_code == 0
    assert json.loads(res.output)["result"] == "pass"


def test_sign_scan_torus(runner):
    res = runner.invoke(main, ["sign-scan", "--algebra", "clifford",
                               "--surface", "torus"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["equal"] is True
    assert report["weighted_sum"] == "1"
    assert sorted(report["class_amplitudes"]) == ["-1", "1", "1", "1"]


def test_deterministic_output(runner):
    args = ["pachner-fuzz", "--algebra", "clifford", "--surface", "cylinder",
            "--spin", "R-", "--seed", "9", "--moves", "30"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2


# -- signs files ----------------------------------------------------------
@pytest.fixture()
def torus_files(tmp_path):
    """A closed torus surface file and a valid signs dict for it."""
    from spinsum import surface, tft
    tri, signs = tft.torus_spin("NS", 1)
    surf = tmp_path / "torus.json"
    surf.write_text(json.dumps(surface.to_json(tri)))
    return tmp_path, str(surf), {str(e): s for e, s in signs.items()}


def _run_with_signs(runner, command, surf, signs_path):
    args = {"amplitude": ["amplitude", "--raw"],
            "pachner-fuzz": ["pachner-fuzz", "--moves", "2"]}[command]
    return runner.invoke(main, args + ["--algebra", "clifford", "--surface",
                                       surf, "--signs", signs_path])


def test_file_surface_with_valid_signs(runner, torus_files):
    tmp, surf, signs = torus_files
    path = tmp / "signs.json"
    path.write_text(json.dumps(signs))
    res = _run_with_signs(runner, "amplitude", surf, str(path))
    assert res.exit_code == 0
    assert json.loads(res.output)["amplitude"]["scalar"] == "1"


def test_pachner_fuzz_missing_signs_file(runner, torus_files):
    tmp, surf, _ = torus_files
    res = _run_with_signs(runner, "pachner-fuzz", surf, str(tmp / "no.json"))
    assert res.exit_code == 2
    assert "cannot load signs" in res.output


def test_amplitude_signs_file_not_a_mapping(runner, torus_files):
    tmp, surf, _ = torus_files
    path = tmp / "signs.json"
    path.write_text("[1, -1]")
    res = _run_with_signs(runner, "amplitude", surf, str(path))
    assert res.exit_code == 2
    assert "cannot load signs" in res.output


@pytest.mark.parametrize("command", ("amplitude", "pachner-fuzz"))
@pytest.mark.parametrize("change", ("drop", "extra"))
def test_signs_must_name_exactly_the_edges(runner, torus_files, command,
                                           change):
    tmp, surf, signs = torus_files
    if change == "drop":
        signs.pop(min(signs, key=int))
    else:
        signs["999"] = 1
    path = tmp / "signs.json"
    path.write_text(json.dumps(signs))
    res = _run_with_signs(runner, command, surf, str(path))
    assert res.exit_code == 2
    assert "exactly the surface's edges" in res.output


@pytest.mark.parametrize("command", ("amplitude", "pachner-fuzz"))
@pytest.mark.parametrize("value", (2, 0, "x"))
def test_signs_must_be_plus_or_minus_one(runner, torus_files, command,
                                         value):
    tmp, surf, signs = torus_files
    signs[min(signs, key=int)] = value
    path = tmp / "signs.json"
    path.write_text(json.dumps(signs))
    res = _run_with_signs(runner, command, surf, str(path))
    assert res.exit_code == 2
    assert "not +1 or -1" in res.output


def test_amplitude_type_count_error_has_a_message(runner, torus_files):
    tmp, surf, signs = torus_files
    path = tmp / "signs.json"
    path.write_text(json.dumps(signs))
    res = runner.invoke(main, ["amplitude", "--algebra", "clifford",
                               "--surface", surf, "--signs", str(path),
                               "--types", "NS"])
    assert res.exit_code == 2
    assert "1 types for 0 boundaries" in res.output
