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


BAD_FUZZ_ARGS = [["--check-every", "0"], ["--moves", "-3"], ["--moves", "0"]]
BAD_FUZZ_IDS = ["check-every-0", "moves-minus-3", "moves-0"]


@pytest.mark.parametrize("bad", BAD_FUZZ_ARGS, ids=BAD_FUZZ_IDS)
def test_pachner_fuzz_bad_counts_exit_2(runner, bad):
    res = runner.invoke(main, ["pachner-fuzz", "--algebra", "clifford",
                               "--surface", "cylinder", "--spin", "NS+"]
                        + bad)
    assert res.exit_code == 2
    assert "must be at least 1" in res.output
    assert "Traceback" not in res.output


def test_sign_scan_torus(runner):
    res = runner.invoke(main, ["sign-scan", "--algebra", "clifford",
                               "--surface", "torus"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["equal"] is True
    assert report["weighted_sum"] == "1"
    assert sorted(report["class_amplitudes"]) == ["-1", "1", "1", "1"]


def test_sign_scan_genus_two(runner):
    res = runner.invoke(main, ["sign-scan", "--algebra", "clifford",
                               "--surface", "genus-2"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["equal"] is True
    assert report["weighted_sum"] == "1/4"
    assert len(report["class_amplitudes"]) == 16


@pytest.mark.parametrize("command", ("sign-scan", "classify"))
def test_named_surface_needs_a_genus(runner, command):
    args = [command, "--surface", "genus-x"]
    if command == "sign-scan":
        args += ["--algebra", "clifford"]
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert "sphere, torus or genus-G" in res.output


@pytest.mark.parametrize("surface", ("cylinder", "pants"))
@pytest.mark.parametrize("command", ("sign-scan", "classify"))
def test_closed_surface_commands_reject_open_built_ins(runner, command,
                                                       surface):
    # at the parent the name was read as a file path
    args = [command, "--surface", surface]
    if command == "sign-scan":
        args += ["--algebra", "clifford"]
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.output == (f"error: surface {surface!r} is open; this command "
                          f"takes sphere, torus, genus-G or a closed surface "
                          f"file\n")


OUTPUT_COMMANDS = {
    "validate-algebra": ["validate-algebra", "--builtin", "clifford"],
    "amplitude": ["amplitude", "--algebra", "clifford", "--surface", "torus",
                  "--spin", "NS+", "--raw"],
    "classify": ["classify", "--surface", "torus"],
    "pachner-fuzz": ["pachner-fuzz", "--algebra", "clifford", "--surface",
                     "cylinder", "--spin", "NS+", "--moves", "4"],
    "sign-scan": ["sign-scan", "--algebra", "clifford", "--surface", "torus"],
}


@pytest.mark.parametrize("command", OUTPUT_COMMANDS)
def test_unwritable_output_exits_2(runner, tmp_path, command):
    path = str(tmp_path / "missing" / "x.json")
    res = runner.invoke(main, OUTPUT_COMMANDS[command] + ["--output", path])
    assert res.exit_code == 2
    assert type(res.exception) is SystemExit
    assert res.output.startswith(f"error: cannot write output {path!r}: ")
    assert "Traceback" not in res.output


@pytest.mark.parametrize("surface", ("genus-\u0662", "genus-02"))
def test_named_surface_genus_must_be_canonical(runner, surface):
    # an Arabic-Indic 2 and a leading zero passed str.isdecimal
    res = runner.invoke(main, ["classify", "--surface", surface])
    assert res.exit_code == 2
    assert "sphere, torus or genus-G" in res.output


@pytest.mark.parametrize("surface,k", [("sphere", 0), ("genus-2", 0),
                                       ("genus-2", 5), ("genus-2", 15)])
def test_amplitude_on_a_spin_class_of_a_named_surface(runner, surface, k):
    from spinsum.algebra import builtin_clifford
    from spinsum.eval import evaluate_raw
    from spinsum.spin import classify_spin_structures
    from spinsum.surface import named_closed_detail
    # no --raw: the admissible path, with no boundary types
    res = runner.invoke(main, ["amplitude", "--algebra", "clifford",
                               "--surface", surface, "--spin", str(k)])
    assert res.exit_code == 0, res.output
    amp = json.loads(res.output)["amplitude"]
    tri = named_closed_detail(surface).tri
    signs = classify_spin_structures(tri)[k]
    expected = evaluate_raw(tri, signs, builtin_clifford()).scalar_value()
    assert amp["scalar"] == str(expected)
    assert "types" not in amp


@pytest.mark.parametrize("algebra", ("clifford", "group-z2",
                                     "twisted-matrix-3-f3",
                                     "twisted-matrix-2-q"))
@pytest.mark.parametrize("surface,k,arf", [("sphere", 0, 1),
                                           ("genus-2", 0, -1),
                                           ("genus-2", 1, 1)])
def test_amplitude_oracle_on_a_spin_class_of_a_named_surface(
        runner, algebra, surface, k, arf):
    res = runner.invoke(main, ["classify", "--surface", surface])
    assert json.loads(res.output)["classes"][k]["arf"] == arf
    res = runner.invoke(main, ["amplitude", "--algebra", algebra,
                               "--surface", surface, "--spin", str(k),
                               "--oracle"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["oracle"] == "equal"


@pytest.mark.parametrize("surface,spin", [("torus", "R+"),
                                          ("pants", "NS,R,R:+-"),
                                          ("genus-2", "0"), ("sphere", "0")])
@pytest.mark.parametrize("command,option,value", [
    ("amplitude", "--signs", "nope.json"),
    ("amplitude", "--types", "NS,NS,NS"),
    ("pachner-fuzz", "--signs", "nope.json")])
def test_signs_and_types_only_on_surface_files(runner, surface, spin,
                                               command, option, value):
    res = runner.invoke(main, [command, "--algebra", "clifford",
                               "--surface", surface, "--spin", spin,
                               option, value])
    assert res.exit_code == 2
    assert "--signs and --types are for surface files" in res.output


def test_pachner_fuzz_walks_a_spin_class_of_genus_2(runner):
    res = runner.invoke(main, ["pachner-fuzz", "--algebra", "clifford",
                               "--surface", "genus-2", "--spin", "5",
                               "--moves", "60"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert (report["result"], report["moves"], report["checks"]) == \
        ("pass", 60, 3)


@pytest.mark.parametrize("command", ("amplitude", "pachner-fuzz"))
@pytest.mark.parametrize("spin", (None, "16", "-1", "x", "03", "\u0663"))
def test_genus_2_needs_a_spin_class_index(runner, command, spin):
    args = [command, "--algebra", "clifford", "--surface", "genus-2"]
    res = runner.invoke(main, args + (["--spin", spin] if spin else []))
    assert res.exit_code == 2
    assert "has 16 spin classes" in res.output
    assert "Traceback" not in res.output


def test_classify_exits_1_on_a_wrong_arf_split(runner, monkeypatch):
    import spinsum.cli
    monkeypatch.setattr(spinsum.cli, "arf_invariant", lambda *args: 1)
    res = runner.invoke(main, ["classify", "--surface", "genus-2"])
    assert res.exit_code == 1
    assert "0 of 16 classes have Arf -1, expected 6 of 16" in res.output


def test_classify_exits_1_when_the_classification_fails(runner, monkeypatch):
    import spinsum.cli

    def fail(tri):
        raise RuntimeError("classification found 3 classes, expected 4")
    monkeypatch.setattr(spinsum.cli, "classify_spin_structures", fail)
    res = runner.invoke(main, ["classify", "--surface", "torus"])
    assert res.exit_code == 1
    assert res.output == ("error: classification found 3 classes, "
                          "expected 4\n")


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


@pytest.mark.parametrize("command", ("amplitude", "pachner-fuzz"))
def test_spin_only_on_built_in_and_named_surfaces(runner, torus_files,
                                                  command):
    tmp, surf, signs = torus_files
    path = tmp / "signs.json"
    path.write_text(json.dumps(signs))
    res = runner.invoke(main, [command, "--algebra", "clifford", "--surface",
                               surf, "--signs", str(path), "--spin", "R-"])
    assert res.exit_code == 2
    assert "--spin is for built-in and named surfaces" in res.output


def test_oracle_on_a_surface_file_exits_2(runner, torus_files):
    tmp, surf, signs = torus_files
    path = tmp / "signs.json"
    path.write_text(json.dumps(signs))
    res = runner.invoke(main, ["amplitude", "--algebra", "clifford",
                               "--surface", surf, "--signs", str(path),
                               "--oracle"])
    assert res.exit_code == 2
    assert "no closed form available for surface" in res.output


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
@pytest.mark.parametrize("value", (2, 0, "x", -1.0, 1.0, True))
def test_signs_must_be_plus_or_minus_one(runner, torus_files, command,
                                         value):
    tmp, surf, signs = torus_files
    signs[min(signs, key=int)] = value
    path = tmp / "signs.json"
    path.write_text(json.dumps(signs))
    res = _run_with_signs(runner, command, surf, str(path))
    assert res.exit_code == 2
    assert "not +1 or -1" in res.output


@pytest.mark.parametrize("command", ("amplitude", "pachner-fuzz"))
@pytest.mark.parametrize("alias", ("+{}", " {}", "0{}", "{}.0", "0_{}"))
def test_signs_file_keys_must_be_canonical_ids(runner, torus_files, command,
                                               alias):
    # int() reads each alias as the same edge id
    tmp, surf, signs = torus_files
    key = min(signs, key=int)
    signs[alias.format(key)] = signs.pop(key)
    path = tmp / "signs.json"
    path.write_text(json.dumps(signs))
    res = _run_with_signs(runner, command, surf, str(path))
    assert res.exit_code == 2
    assert "is not a canonical integer id" in res.output


@pytest.mark.parametrize("command", ("amplitude", "pachner-fuzz"))
def test_signs_file_repeated_edge_exits_2(runner, torus_files, command):
    tmp, surf, signs = torus_files
    key = min(signs, key=int)
    text = json.dumps(signs)
    path = tmp / "signs.json"
    path.write_text(text[:-1] + f', "{key}": {-signs[key]}}}')
    res = _run_with_signs(runner, command, surf, str(path))
    assert res.exit_code == 2
    assert f"key '{key}' is given twice" in res.output


def test_amplitude_type_count_error_has_a_message(runner, torus_files):
    tmp, surf, signs = torus_files
    path = tmp / "signs.json"
    path.write_text(json.dumps(signs))
    res = runner.invoke(main, ["amplitude", "--algebra", "clifford",
                               "--surface", surf, "--signs", str(path),
                               "--types", "NS"])
    assert res.exit_code == 2
    assert "1 types for 0 boundaries" in res.output


@pytest.fixture()
def big_torus_files(tmp_path):
    """A torus walked 200 Pachner moves biased to grow (274 faces, whose
    plan peaks at 23 open legs, past the default bound of 16), written as
    a surface file and a signs file."""
    import random
    from spinsum import surface, tft
    from spinsum.pachner import random_pachner_move
    tri, signs = tft.torus_spin("NS", 1)
    rng = random.Random(3)
    for _ in range(200):
        tri, signs, _ = random_pachner_move(tri, signs, rng, bias_faces=10**6)
    assert len(tri.triangles) == 274
    surf, signs_path = tmp_path / "torus.json", tmp_path / "signs.json"
    surf.write_text(json.dumps(surface.to_json(tri)))
    signs_path.write_text(json.dumps({str(e): s for e, s in signs.items()}))
    return str(surf), str(signs_path)


@pytest.mark.parametrize("command", ("sign-scan", "pachner-fuzz",
                                     "amplitude"))
def test_over_budget_surface_exits_2(runner, big_torus_files, command):
    surf, signs_path = big_torus_files
    args = {"sign-scan": ["sign-scan"],
            "pachner-fuzz": ["pachner-fuzz", "--signs", signs_path],
            "amplitude": ["amplitude", "--raw", "--signs", signs_path]}
    res = runner.invoke(main, args[command] + ["--algebra", "clifford",
                                               "--surface", surf])
    assert res.exit_code == 2
    assert res.output.startswith("error: budget exceeded: open legs 17 "
                                 "exceed bound 16 after plan[")


# -- algebra and surface files --------------------------------------------
def _clifford_json():
    from spinsum import algebra
    return algebra.to_json(algebra.builtin_by_name("clifford"))


def _validate_algebra_file(runner, tmp_path, obj):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(obj))
    return runner.invoke(main, ["validate-algebra", "--file", str(path)])


@pytest.mark.parametrize("index", (5, -1))
def test_algebra_file_mu_index_out_of_range(runner, tmp_path, index):
    # -1 would alias basis element 1 and give back the Clifford algebra
    obj = _clifford_json()
    entry = next(e for e in obj["mu"] if e[1] == 1)
    entry[1] = index
    res = _validate_algebra_file(runner, tmp_path, obj)
    assert res.exit_code == 2
    assert "index outside 0..1" in res.output


@pytest.mark.parametrize("index", (1.9, 1.0, "1", True))
def test_algebra_file_mu_index_must_be_an_integer(runner, tmp_path, index):
    # int() would truncate 1.9 to 1 and give back the Clifford algebra
    obj = _clifford_json()
    entry = next(e for e in obj["mu"] if e[1] == 1)
    entry[1] = index
    res = _validate_algebra_file(runner, tmp_path, obj)
    assert res.exit_code == 2
    assert "index outside 0..1" in res.output


@pytest.mark.parametrize("p", (3.7, "3", True))
def test_algebra_file_characteristic_must_be_an_integer(runner, tmp_path, p):
    # int() would truncate 3.7 to 3 and load the algebra over F_3
    obj = _clifford_json()
    obj["field"] = {"Fp": p}
    res = _validate_algebra_file(runner, tmp_path, obj)
    assert res.exit_code == 2
    assert f"field characteristic {p!r} is not an integer" in res.output


@pytest.mark.parametrize("parity", (1.5, 1.0, 2, -1, "1", True))
def test_algebra_file_parity_must_be_zero_or_one(runner, tmp_path, parity):
    # int() would truncate 1.5 to 1 and give back the Clifford algebra
    obj = _clifford_json()
    obj["parity"] = [0, parity]
    res = _validate_algebra_file(runner, tmp_path, obj)
    assert res.exit_code == 2
    assert "parity entries must be 0 or 1" in res.output


@pytest.mark.parametrize("dim", (-1, 0, 1.5, "2", True))
def test_algebra_file_dim_must_be_a_positive_integer(runner, tmp_path, dim):
    obj = _clifford_json()
    obj["dim"] = dim
    res = _validate_algebra_file(runner, tmp_path, obj)
    assert res.exit_code == 2
    assert "dim must be a positive integer" in res.output


def test_algebra_file_with_wrong_shape(runner, tmp_path):
    obj = _clifford_json()
    obj["mu"] = 5
    res = _validate_algebra_file(runner, tmp_path, obj)
    assert res.exit_code == 2
    assert "cannot load algebra" in res.output


@pytest.mark.parametrize("key", ("eta", "eps"))
@pytest.mark.parametrize("length", (1, 3))
def test_algebra_file_unit_and_counit_lengths(runner, tmp_path, key, length):
    obj = _clifford_json()
    obj[key] = (obj[key] * 2)[:length]
    res = _validate_algebra_file(runner, tmp_path, obj)
    assert res.exit_code == 2
    assert f"{key} needs 2 entries, got {length}" in res.output


def _f3_json():
    from spinsum import algebra
    return algebra.to_json(algebra.builtin_by_name("twisted-matrix-3-f3"))


@pytest.mark.parametrize("make,path,value", [
    (_clifford_json, ("eta", 0), True),     # loaded as 1: Clifford again
    (_clifford_json, ("mu", 0, 3), True),   # loaded as 1: Clifford again
    (_f3_json, ("mu", 0, 3), 1.0),          # died in pow()
    (_clifford_json, ("mu", 0, 3), 0.1),    # loaded as the double's value
    (_clifford_json, ("eps", 0), "2/0"),
    (_f3_json, ("eps", 8), "1/3"),          # 3 has no inverse in F_3
], ids=["eta-bool", "mu-bool", "f3-float", "q-float", "zero-denominator",
        "f3-denominator"])
def test_algebra_file_values_must_be_ints_or_fractions(runner, tmp_path,
                                                       make, path, value):
    obj = make()
    key, k, *rest = path
    if rest:
        where = "mu entry [{}, {}, {}]".format(*obj[key][k][:3])
        obj[key][k][rest[0]] = value
    else:
        where = f"{key}[{k}]"
        obj[key][k] = value
    res = _validate_algebra_file(runner, tmp_path, obj)
    assert res.exit_code == 2
    assert f"{where} is {value!r}; values must be integers" in res.output


@pytest.mark.parametrize("key", ("eta", "mu", "field"))
def test_algebra_file_key_given_twice_exits_2(runner, tmp_path, key):
    # json.load would keep the second value silently; it repeats the
    # first here, so only the duplicate-key rule can reject the file
    obj = _clifford_json()
    text = json.dumps(obj)
    path = tmp_path / "algebra.json"
    path.write_text(text[:-1] + f', "{key}": {json.dumps(obj[key])}}}')
    res = runner.invoke(main, ["validate-algebra", "--file", str(path)])
    assert res.exit_code == 2
    assert f"key '{key}' is given twice" in res.output


def test_algebra_file_takes_int_values(runner, tmp_path):
    obj = _clifford_json()
    obj["eta"], obj["eps"] = [1, 0], [2, 0]
    for entry in obj["mu"]:
        entry[3] = int(entry[3])
    res = _validate_algebra_file(runner, tmp_path, obj)
    assert res.exit_code == 0
    assert json.loads(res.output)["all"] is True


def _degenerate_json():
    # a zero counit makes the pairing b(x, y) = eps(xy) vanish
    obj = _clifford_json()
    obj["eps"] = ["0", "0"]
    return obj


def _non_associative_json():
    """Even algebra on 1, a, b with ab = 1 and ba = a^2 = b^2 = 0:
    (ab)a = a but a(ba) = 0."""
    return {"field": "Q", "dim": 3, "parity": [0, 0, 0],
            "mu": [[0, 0, 0, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"],
                   [2, 0, 2, "1"], [2, 2, 0, "1"], [0, 1, 2, "1"]],
            "eta": ["1", "0", "0"], "eps": ["1", "1", "1"]}


def _non_unital_json():
    obj = _clifford_json()
    obj["eta"] = ["2", "0"]
    return obj


@pytest.mark.parametrize("make,defect", [
    (_degenerate_json, "pairing b is degenerate"),
    (_non_associative_json, "not associative"),
    (_non_unital_json, "not a two-sided unit"),
])
def test_algebra_file_that_is_not_a_frobenius_algebra(runner, tmp_path,
                                                      make, defect):
    res = _validate_algebra_file(runner, tmp_path, make())
    assert res.exit_code == 2
    assert "cannot load algebra" in res.output
    assert defect in res.output


def _classify_cylinder_with(runner, tmp_path, path, value):
    """``classify`` on the cylinder's surface file with the value at
    ``path`` (a key sequence into its JSON) replaced by ``value``."""
    from spinsum import surface
    obj = surface.to_json(surface.build_cylinder())
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    surf = tmp_path / "cylinder.json"
    surf.write_text(json.dumps(obj))
    return runner.invoke(main, ["classify", "--surface", str(surf)])


@pytest.mark.parametrize("position,message", [
    (3, "position 3 is not 0, 1 or 2"),
    (-1, "position -1 is not 0, 1 or 2"),
    (1, "position 1 is given twice"),
])
def test_surface_file_boundary_positions(runner, tmp_path, position,
                                         message):
    res = _classify_cylinder_with(
        runner, tmp_path, ("boundaries", 0, 0, "position"), position)
    assert res.exit_code == 2
    assert message in res.output


def test_surface_file_boundary_needs_every_position(runner, tmp_path):
    from spinsum import surface
    records = surface.to_json(surface.build_cylinder())["boundaries"][0]
    res = _classify_cylinder_with(runner, tmp_path, ("boundaries", 0),
                                  records[:2])
    assert res.exit_code == 2
    assert "boundary 1: position 2 is missing" in res.output


@pytest.mark.parametrize("path,value,message", [
    (("edges", "1", "src"), True, "edge 1 src True"),
    (("edges", "1", "dst"), "2", "edge 1 dst '2'"),
    (("triangles", "1", 0, "edge"), True, "triangle 1 slot edge True"),
    (("boundaries", 0, 0, "edge"), True, "boundary edge True"),
], ids=["src-bool", "dst-str", "slot-edge-bool", "boundary-edge-bool"])
def test_surface_file_ids_must_be_integers(runner, tmp_path, path, value,
                                           message):
    # True would load as id 1; a string vertex id failed in a sort
    res = _classify_cylinder_with(runner, tmp_path, path, value)
    assert res.exit_code == 2
    assert f"{message} is not an integer id" in res.output


@pytest.mark.parametrize("table", ("edges", "triangles"))
@pytest.mark.parametrize("alias", ("+1", " 1", "01", "0_1"))
def test_surface_file_keys_must_be_canonical_ids(runner, tmp_path, table,
                                                 alias):
    from spinsum import surface
    obj = surface.to_json(surface.build_cylinder())
    obj[table][alias] = obj[table].pop("1")
    surf = tmp_path / "cylinder.json"
    surf.write_text(json.dumps(obj))
    res = runner.invoke(main, ["classify", "--surface", str(surf)])
    assert res.exit_code == 2
    assert f"key {alias!r} is not a canonical integer id" in res.output


@pytest.mark.parametrize("table", ("edges", "triangles"))
def test_surface_file_repeated_id_exits_2(runner, tmp_path, table):
    from spinsum import surface
    obj = surface.to_json(surface.build_cylinder())
    text = json.dumps(obj)
    head = f'"{table}": {{'
    first = json.dumps({"1": obj[table]["1"]})[1:-1]
    surf = tmp_path / "cylinder.json"
    surf.write_text(text.replace(head, head + first + ", ", 1))
    res = runner.invoke(main, ["classify", "--surface", str(surf)])
    assert res.exit_code == 2
    assert "key '1' is given twice" in res.output


def _boundary(*edges):
    return [{"edge": e, "position": p} for p, e in enumerate(edges)]


# one defect each of the cylinder's file (edges 1-3 and 4-6 bound it; face
# 1 holds edges 7 L, 8 R, 1 R) and a message that validate gives for it
SURFACE_DEFECTS = {
    "slot-count": (("triangles", "1"), [{"edge": 7, "side": "L"},
                                        {"edge": 8, "side": "R"}],
                   "triangle 1: must have 3 slots"),
    "unknown-edge": (("triangles", "1", 0, "edge"), 99,
                     "triangle 1 slot 0: unknown edge 99"),
    "bad-side": (("triangles", "1", 0, "side"), "X",
                 "triangle 1 slot 0: bad side X"),
    "unchained": (("triangles", "1"), [{"edge": 1, "side": "R"},
                                       {"edge": 8, "side": "R"},
                                       {"edge": 7, "side": "L"}],
                  "triangle 1: slot traversals do not chain at corner"),
    "orphan-edge": (("edges", "99"), {"src": 1, "dst": 2},
                    "edge 99: not incident to any triangle"),
    "non-manifold-edge": (("triangles", "1", 0, "edge"), 8,
                          "edge 8: non-manifold edge (3 slots)"),
    "equal-sides": (("triangles", "1", 1, "side"), "L",
                    "edge 8: both incident slots on side L"),
    "inner-edge-on-boundary": (("boundaries", 0, 0, "edge"), 7,
                               "edge 7: listed on a boundary but has two "
                               "incident triangles"),
    "unlisted-boundary": (("boundaries",), [_boundary(1, 2, 3)],
                          "edge 4: single incidence but not listed on a "
                          "boundary"),
    "boundary-orientation": (("triangles", "1", 2, "side"), "L",
                             "edge 1: boundary edge orientation convention "
                             "violated"),
    "unknown-boundary-edge": (("boundaries", 0, 0, "edge"), 99,
                              "boundary 1: unknown edges [99]"),
    "boundary-chain": (("boundaries", 0), _boundary(1, 3, 2),
                       "boundary 1: edges at positions 0,1 do not chain "
                       "head-to-tail"),
    "boundary-vertices": (("boundaries", 0, 2, "edge"), 6,
                          "boundary 1: must have 3 vertices"),
}


@pytest.mark.parametrize("defect", SURFACE_DEFECTS)
def test_surface_file_defect_exits_2_and_names_it(runner, tmp_path, defect):
    path, value, message = SURFACE_DEFECTS[defect]
    res = _classify_cylinder_with(runner, tmp_path, path, value)
    assert res.exit_code == 2
    assert res.output.startswith("error: cannot load surface")
    assert message in res.output


def test_surface_file_with_wrong_shape(runner, tmp_path):
    from spinsum import surface
    obj = surface.to_json(surface.build_cylinder())
    obj["edges"] = []
    path = tmp_path / "cylinder.json"
    path.write_text(json.dumps(obj))
    res = runner.invoke(main, ["classify", "--surface", str(path)])
    assert res.exit_code == 2
    assert "cannot load surface" in res.output


@pytest.mark.parametrize("command", [
    ["classify"], ["sign-scan", "--algebra", "clifford"]])
def test_non_manifold_surface_file_exits_2(runner, tmp_path, command):
    from spinsum import surface
    from test_surface import one_vertex_torus
    path = tmp_path / "one_vertex_torus.json"
    path.write_text(json.dumps(surface.to_json(one_vertex_torus())))
    res = runner.invoke(main, command + ["--surface", str(path)])
    assert res.exit_code == 2
    assert "vertex 0: its corners form 3 separate cycles" in res.output


@pytest.mark.parametrize("command", [
    ["amplitude", "--algebra", "clifford", "--signs", "SIGNS"],
    ["classify"], ["sign-scan", "--algebra", "clifford"]])
def test_empty_surface_file_exits_2(runner, tmp_path, command):
    """A file without triangles is no surface, not a torus of genus 1."""
    path, signs = tmp_path / "empty.json", tmp_path / "signs.json"
    path.write_text(json.dumps({"edges": {}, "triangles": {}}))
    signs.write_text("{}")
    command = [str(signs) if a == "SIGNS" else a for a in command]
    res = runner.invoke(main, command + ["--surface", str(path)])
    assert res.exit_code == 2
    assert res.output == (f"error: cannot load surface {str(path)!r}: "
                          "invalid surface file: surface has no triangles\n")


def test_sign_scan_rejects_an_open_surface(runner, tmp_path):
    from spinsum import surface
    path = tmp_path / "cylinder.json"
    path.write_text(json.dumps(surface.to_json(surface.build_cylinder())))
    res = runner.invoke(main, ["sign-scan", "--algebra", "clifford",
                               "--surface", str(path)])
    assert res.exit_code == 2
    assert "closed surface" in res.output


def test_sign_scan_rejects_characteristic_two(runner, tmp_path):
    from spinsum import algebra
    from spinsum.fields import PrimeField
    path = tmp_path / "f2.json"
    A = algebra.builtin_twisted_matrix(1, PrimeField(2), [[1]], 1)
    path.write_text(json.dumps(algebra.to_json(A)))
    res = runner.invoke(main, ["sign-scan", "--algebra", str(path),
                               "--surface", "torus"])
    assert res.exit_code == 2
    assert "the weight 1/2 needs characteristic != 2" in res.output
    assert "Traceback" not in res.output


def test_classify_genus_three_reports_arf(runner):
    res = runner.invoke(main, ["classify", "--surface", "genus-3"])
    assert res.exit_code == 0
    classes = json.loads(res.output)["classes"]
    arfs = [c["arf"] for c in classes]
    assert (len(classes), arfs.count(1), arfs.count(-1)) == (64, 36, 28)
    for c in classes:
        odd_pairs = sum(qa * qb for qa, qb in c["q"])
        assert c["arf"] == (-1) ** odd_pairs


# -- exit paths of the selectors, the oracle and the fuzz ------------------
def test_pants_selector_with_oracle(runner):
    res = runner.invoke(main, ["amplitude", "--algebra", "clifford",
                               "--surface", "pants", "--spin", "NS,R,R:+-",
                               "--oracle"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["oracle"] == "equal"
    assert report["amplitude"]["types"] == ["NS", "R", "R"]


@pytest.mark.parametrize("spin", ("NS,R:+-", "NS,R,R:+", "NS,R,R+-"))
def test_bad_pants_selector_exits_2(runner, spin):
    res = runner.invoke(main, ["amplitude", "--algebra", "clifford",
                               "--surface", "pants", "--spin", spin])
    assert res.exit_code == 2
    assert res.output.startswith("error: ")


def test_oracle_mismatch_exits_1(runner, monkeypatch):
    import spinsum.cli
    from spinsum.eval import Amplitude
    evaluate = spinsum.cli.evaluate

    def doubled(*args):
        amp = evaluate(*args)
        return Amplitude(amp.tensor.scale(2), amp.types)
    monkeypatch.setattr(spinsum.cli, "evaluate", doubled)
    res = runner.invoke(main, ["amplitude", "--algebra", "clifford",
                               "--surface", "cylinder", "--spin", "NS+",
                               "--oracle"])
    assert res.exit_code == 1
    assert json.loads(res.output)["oracle"] == "MISMATCH"


def test_pachner_fuzz_failure_exits_1_with_the_move_log(runner, monkeypatch):
    import spinsum.pachner
    # a new object per evaluation never equals the base amplitude
    monkeypatch.setattr(spinsum.pachner, "evaluate_raw", lambda *a: object())
    res = runner.invoke(main, ["pachner-fuzz", "--algebra", "clifford",
                               "--surface", "cylinder", "--spin", "NS+",
                               "--moves", "4", "--check-every", "2"])
    assert res.exit_code == 1
    report = json.loads(res.output)
    assert (report["result"], report["checks"], report["moves"]) == \
        ("FAIL", 1, 2)
    assert len(report["move_log"]) == 2


def test_output_file_holds_what_stdout_prints(runner, tmp_path):
    path = tmp_path / "report.json"
    res = runner.invoke(main, ["classify", "--surface", "torus",
                               "--output", str(path)])
    assert res.exit_code == 0
    assert path.read_text() == res.output
    assert json.loads(res.output)["count"] == 4


def test_classify_rejects_an_open_surface_file(runner, tmp_path):
    from spinsum import surface
    path = tmp_path / "cylinder.json"
    path.write_text(json.dumps(surface.to_json(surface.build_cylinder())))
    res = runner.invoke(main, ["classify", "--surface", str(path)])
    assert res.exit_code == 2
    assert "classification needs a closed surface" in res.output


@pytest.mark.parametrize("command", ("amplitude", "pachner-fuzz"))
def test_built_in_surface_needs_spin(runner, command):
    res = runner.invoke(main, [command, "--algebra", "clifford",
                               "--surface", "cylinder"])
    assert res.exit_code == 2
    assert "built-in surface 'cylinder' needs --spin" in res.output


@pytest.mark.parametrize("command", ("amplitude", "pachner-fuzz"))
def test_surface_file_needs_signs(runner, torus_files, command):
    _, surf, _ = torus_files
    res = runner.invoke(main, [command, "--algebra", "clifford",
                               "--surface", surf])
    assert res.exit_code == 2
    assert "file surfaces need --signs" in res.output


@pytest.fixture()
def two_tori_files(tmp_path):
    """Two disjoint tori as one surface file, and all-+1 signs for it."""
    from spinsum import surface, tft
    tri, _ = tft.torus_spin("NS", 1)
    union = surface.disjoint_union(tri, tri)[0]
    assert surface.validate(union) == [] and union.genus() == 1
    surf, signs_path = tmp_path / "two_tori.json", tmp_path / "signs.json"
    surf.write_text(json.dumps(surface.to_json(union)))
    signs_path.write_text(json.dumps({str(e): 1 for e in union.edges}))
    return str(surf), str(signs_path)


@pytest.mark.parametrize("command", [
    ["classify"], ["sign-scan", "--algebra", "clifford"]])
def test_disconnected_surface_file_exits_2(runner, two_tori_files, command):
    surf, _ = two_tori_files
    res = runner.invoke(main, command + ["--surface", surf])
    assert res.exit_code == 2
    assert res.output == ("error: classification needs a connected surface; "
                          "this one has 2 components\n")


def test_raw_amplitude_of_a_disconnected_surface_file(runner, two_tori_files):
    surf, signs_path = two_tori_files
    res = runner.invoke(main, ["amplitude", "--algebra", "clifford",
                               "--surface", surf, "--signs", signs_path,
                               "--raw"])
    assert res.exit_code == 0
    assert json.loads(res.output)["amplitude"]["scalar"] == "1"
