"""Command-line entry points.

Exit codes: 0 success / all properties hold, 1 property violation,
2 input error.  All JSON output uses sorted keys, so identical configs
(and seeds) produce byte-identical reports.
"""

from __future__ import annotations

import contextlib
import json
import sys

import click

from . import algebra as algebra_io
from . import surface as surface_io
from .algebra import (BUILTIN_NAMES, builtin_by_name,
                      passes_invariance_predicates, validate_predicates)
from .eval import Amplitude, boundary_legs, evaluate, evaluate_raw
from .pachner import run_pachner_fuzz
from .spin import (NS, R_TYPE, arf_invariant, classify_spin_structures,
                   quadratic_pairs, symplectic_basis)
from .surface import named_closed_detail
from .tensor import BudgetExceeded
from .tft import (closed_form, cylinder_closed_form, cylinder_spin,
                  pants_closed_form, pants_spin, plus_part_state_sum,
                  spin_class_handles, statistical_sign_sum, torus_spin)


def _fail(msg: str, code: int = 2):
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


@contextlib.contextmanager
def _input_errors():
    """Exit 2 with the message of a ValueError or an exceeded budget."""
    try:
        yield
    except BudgetExceeded as exc:
        _fail(f"budget exceeded: {exc}")
    except ValueError as exc:
        _fail(str(exc))


def _load_algebra(spec: str):
    try:
        if spec in BUILTIN_NAMES:
            return builtin_by_name(spec)
        return algebra_io.load(spec)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        _fail(f"cannot load algebra {spec!r}: {exc}")


def _load_surface(spec: str):
    try:
        return surface_io.load(spec)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        _fail(f"cannot load surface {spec!r}: {exc}")


def _load_signs(path: str, tri):
    """Read a {edge id: +1/-1} JSON file covering exactly the edges of tri."""
    try:
        with open(path) as fh:
            obj = json.load(fh, object_pairs_hook=surface_io.unique_keys)
        signs = {surface_io.int_key(k, "edge"): v for k, v in obj.items()}
    except (OSError, ValueError, AttributeError) as exc:
        _fail(f"cannot load signs {path!r}: {exc}")
    if set(signs) != set(tri.edges):
        _fail(f"signs {path!r} must name exactly the surface's edges: "
              f"missing {sorted(set(tri.edges) - set(signs))}, "
              f"unknown {sorted(set(signs) - set(tri.edges))}")
    for eid, s in sorted(signs.items()):
        if type(s) is not int or s not in (1, -1):
            _fail(f"signs {path!r}: edge {eid} has sign {s!r}, not +1 or -1")
    return signs


_BUILTIN_SPIN_SURFACES = {
    "cylinder": (cylinder_spin, cylinder_closed_form),
    "torus": (lambda delta, eps: torus_spin(delta, eps) + (None,),
              lambda A, delta, eps: closed_form(A, [(delta, eps)])),
    "pants": (pants_spin, pants_closed_form),
}


def _parse_spin(surface: str, spin: str):
    """Resolve a built-in spin-surface selector.

    cylinder/torus: "NS+", "NS-", "R+", "R-".
    pants: "D1,D2,D3:EE" with D in {NS,R} and E in {+,-}, e.g. "NS,R,R:+-".
    Returns (tri, signs, types or None for closed surfaces, oracle),
    oracle(A) the surface's closed form.
    """
    eps_of = {"+": 1, "-": -1}
    try:
        if surface == "pants":
            dpart, epart = spin.split(":")
            deltas = tuple(dpart.split(","))
            if len(deltas) != 3 or len(epart) != 2:
                raise ValueError(f"bad spin selector {spin!r}")
            args = (deltas, eps_of[epart[0]], eps_of[epart[1]])
        else:
            delta, eps_c = spin[:-1], spin[-1]
            if delta not in (NS, R_TYPE) or eps_c not in eps_of:
                raise ValueError(f"bad spin selector {spin!r}")
            args = (delta, eps_of[eps_c])
        builder, form = _BUILTIN_SPIN_SURFACES[surface]
        return builder(*args) + (lambda A: form(A, *args),)
    except (ValueError, KeyError, IndexError) as exc:
        _fail(str(exc))


def _spin_surface(surface: str, spin, signs_path, types_csv=None):
    """(tri, signs, types, oracle) of the surface a command names.

    A built-in spin surface (cylinder, torus, pants) takes a --spin
    selector; oracle(A) is its closed form (``_parse_spin``).  A named
    closed surface (sphere, genus-G; genus-1 is the closed torus) takes
    --spin K, class K of ``classify_spin_structures`` in the order
    ``spinsum classify`` lists them, with types (); oracle(A) is the
    class's ``closed_form``.  A surface file takes --signs and optional
    comma-separated --types but no --spin, and has no oracle (None).
    """
    builtin = surface in _BUILTIN_SPIN_SURFACES
    detail, tri = (None, None) if builtin else _closed_surface(surface)
    named = builtin or detail is not None
    if named and (signs_path, types_csv) != (None, None):
        _fail(f"--signs and --types are for surface files; {surface!r} "
              f"takes --spin only")
    if builtin:
        if spin is None:
            _fail(f"built-in surface {surface!r} needs --spin")
        return _parse_spin(surface, spin)
    if detail is not None:
        classes = classify_spin_structures(tri)
        if spin not in {str(k) for k in range(len(classes))}:
            _fail(f"surface {surface!r} has {len(classes)} spin classes: "
                  f"--spin must be a class index 0..{len(classes) - 1}, "
                  f"got {spin!r}")
        signs = classes[int(spin)]
        return tri, signs, (), lambda A: closed_form(
            A, spin_class_handles(detail, signs))
    if spin is not None:
        _fail(f"--spin is for built-in and named surfaces; the surface file "
              f"{surface!r} takes --signs and --types")
    if signs_path is None:
        _fail("file surfaces need --signs")
    types = tuple(types_csv.split(",")) if types_csv else None
    return tri, _load_signs(signs_path, tri), types, None


def _closed_surface(spec: str):
    """(detail, tri) of sphere | torus | genus-G; (None, tri) of a file."""
    if spec in ("sphere", "torus") or spec.startswith("genus-"):
        try:
            detail = named_closed_detail(spec)
        except ValueError as exc:
            _fail(str(exc))
        return detail, detail.tri
    return None, _load_surface(spec)


def _amplitude_json(amp: Amplitude, A) -> dict:
    F = A.field
    entries = sorted((list(k), F.format(v)) for k, v in amp.tensor.data.items())
    out = {
        "boundaries": amp.boundaries,
        "legs": [list(lbl) for lbl in boundary_legs(amp.boundaries)],
        "entries": [[k, v] for k, v in entries],
    }
    if amp.boundaries == 0:
        out["scalar"] = F.format(amp.scalar_value())
    if amp.types:
        out["types"] = list(amp.types)
    return out


def _emit(obj: dict, output: str | None):
    text = json.dumps(obj, sort_keys=True, indent=2)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    click.echo(text)


@click.group()
def main():
    """Exact spin-surface state sums."""


@main.command("validate-algebra")
@click.option("--builtin", "builtin_name", type=click.Choice(BUILTIN_NAMES))
@click.option("--file", "file_path", type=str, default=None,
              help="Algebra JSON file (alternative to --builtin).")
@click.option("--output", type=str, default=None)
def cmd_validate_algebra(builtin_name, file_path, output):
    """Check the structure predicates of an algebra."""
    if (builtin_name is None) == (file_path is None):
        _fail("give exactly one of --builtin / --file")
    A = _load_algebra(builtin_name or file_path)
    ok = passes_invariance_predicates(A)
    _emit({"algebra": A.name, "predicates": validate_predicates(A),
           "all": ok}, output)
    sys.exit(0 if ok else 1)


@main.command("amplitude")
@click.option("--algebra", required=True,
              help="Built-in name or algebra JSON file.")
@click.option("--surface", required=True,
              help="cylinder | torus | pants | sphere | genus-G | surface "
                   "JSON file.")
@click.option("--spin", default=None,
              help='Built-in spin selector, e.g. "NS+" or "NS,R,R:+-"; on '
                   'sphere | genus-G a class index K, as classify lists them.')
@click.option("--signs", "signs_path", default=None,
              help="JSON file {edge id: +1/-1} (for file surfaces).")
@click.option("--types", "types_csv", default=None,
              help="Comma-separated boundary types, e.g. NS,R.")
@click.option("--raw", is_flag=True,
              help="Evaluate without the admissibility check.")
@click.option("--oracle", is_flag=True,
              help="Also evaluate the matching closed form and compare.")
@click.option("--output", type=str, default=None)
def cmd_amplitude(algebra, surface, spin, signs_path, types_csv, raw,
                  oracle, output):
    """Evaluate the state sum of a spin surface."""
    A = _load_algebra(algebra)
    tri, signs, types, form = _spin_surface(surface, spin, signs_path,
                                            types_csv)
    with _input_errors():
        if raw:
            amp = evaluate_raw(tri, signs, A)
        else:
            tp = tuple(types) if types else ()
            if len(tp) != len(tri.boundaries):
                _fail(f"admissible evaluation needs one type per boundary: "
                      f"{len(tp)} types for {len(tri.boundaries)} "
                      f"boundaries (use --raw for untyped runs)")
            amp = evaluate(tri, signs, tp, A)
    report = {"algebra": A.name, "surface": surface,
              "amplitude": _amplitude_json(amp, A)}
    code = 0
    if oracle:
        if form is None:
            _fail(f"no closed form available for surface {surface!r}")
        equal = form(A) == amp
        report["oracle"] = "equal" if equal else "MISMATCH"
        if not equal:
            code = 1
    _emit(report, output)
    sys.exit(code)


@main.command("classify")
@click.option("--surface", required=True,
              help="sphere | torus | genus-G | surface JSON file.")
@click.option("--output", type=str, default=None)
def cmd_classify(surface, output):
    """Classify the spin structures of a closed surface."""
    detail, tri = _closed_surface(surface)
    if not tri.is_closed():
        _fail("classification needs a closed surface")
    try:
        reps = classify_spin_structures(tri)
    except RuntimeError as exc:
        _fail(str(exc), code=1)
    except ValueError as exc:
        _fail(str(exc))
    basis = symplectic_basis(detail) if detail is not None else None
    classes = []
    for signs in reps:
        entry = {"signs": {str(e): s for e, s in sorted(signs.items())}}
        if basis is not None:
            entry["arf"] = arf_invariant(detail, signs, basis)
            entry["q"] = [list(qs) for qs in quadratic_pairs(tri, signs,
                                                             basis)]
        classes.append(entry)
    g = tri.genus()
    _emit({"surface": surface, "genus": g,
           "count": len(classes), "classes": classes}, output)
    if basis is not None:
        # 4^g classes, (4^g - 2^g)/2 of them with Arf -1
        odd = (4 ** g - 2 ** g) // 2
        arfs = sorted(c["arf"] for c in classes)
        if arfs != [-1] * odd + [1] * (4 ** g - odd):
            _fail(f"genus {g}: {arfs.count(-1)} of {len(arfs)} classes have "
                  f"Arf -1, expected {odd} of {4 ** g}", code=1)
    sys.exit(0)


@main.command("pachner-fuzz")
@click.option("--algebra", required=True)
@click.option("--surface", required=True,
              help="cylinder | torus | pants | sphere | genus-G (with "
                   "--spin) or a JSON file plus --signs.")
@click.option("--spin", default=None,
              help='Built-in spin selector, e.g. "NS+" or "NS,R,R:+-"; on '
                   'sphere | genus-G a class index K, as classify lists them.')
@click.option("--signs", "signs_path", default=None)
@click.option("--seed", type=int, default=1)
@click.option("--moves", type=int, default=200)
@click.option("--check-every", type=int, default=25)
@click.option("--output", type=str, default=None)
def cmd_pachner_fuzz(algebra, surface, spin, signs_path, seed, moves,
                     check_every, output):
    """Fuzz amplitude invariance under random Pachner moves."""
    A = _load_algebra(algebra)
    tri, signs, types, _ = _spin_surface(surface, spin, signs_path)
    with _input_errors():
        ok, log, checks = run_pachner_fuzz(tri, signs, types, A, seed, moves,
                                           check_every)
    report = {"algebra": A.name, "surface": surface, "seed": seed,
              "moves": len(log), "checks": checks,
              "result": "pass" if ok else "FAIL"}
    if not ok:
        report["move_log"] = [list(m) for m in log]
    _emit(report, output)
    sys.exit(0 if ok else 1)


@main.command("sign-scan")
@click.option("--algebra", required=True)
@click.option("--surface", default="torus",
              help="sphere | torus | genus-G | surface JSON file (closed).")
@click.option("--output", type=str, default=None)
def cmd_sign_scan(algebra, surface, output):
    """Weighted sum over all sign assignments vs. the oriented A+ value."""
    A = _load_algebra(algebra)
    _, tri = _closed_surface(surface)
    F = A.field
    with _input_errors():
        total = statistical_sign_sum(tri, A)
        oriented = plus_part_state_sum(tri, A)
        classes = [F.format(evaluate_raw(tri, signs, A).scalar_value())
                   for signs in classify_spin_structures(tri)]
    equal = total == oriented
    _emit({"algebra": A.name, "surface": surface,
           "weighted_sum": F.format(total),
           "oriented_value": F.format(oriented),
           "equal": equal,
           "class_amplitudes": classes}, output)
    sys.exit(0 if equal else 1)


if __name__ == "__main__":
    main()
