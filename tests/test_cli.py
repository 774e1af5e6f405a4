import copy
import importlib.util
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressing_forge import (ExtendedFrame, Grid, VacuumSeed, cli, dress_extended,
                            dress_permuted, dress_real, dress_spherical,
                            dress_translation, dress_two_pole, frames, geometry,
                            max_abs, metric_from_frame, potential_on_grid,
                            project_onto_span)
from dressing_forge.cli import (DEFAULT_TOLERANCES, REALITY_SAMPLE_SEED,
                                ValidationError, _reality_check, apply_chain,
                                export_metric_csv, load_scenario, main,
                                validate_scenario)
from dressing_forge.report import DEFAULT_TOLERANCES as SHARED_TOLERANCES
from dressing_forge.report import VerificationReport

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def base_scenario(**overrides):
    raw = {
        "schema_version": 1,
        "n": 2,
        "seed": {"type": "constant", "radii": [1.0, 0.7]},
        "grid": [[-0.5, 0.5, 7], [-0.5, 0.5, 7]],
        "lambdas": [[1.0, 0.0], [0.0, 0.0]],
        "chain": [],
        "checks": {},
        "reality_samples": 20,
    }
    raw.update(overrides)
    return raw


def write_scenario(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def run_cli(cmd, scenario_path, out_dir, *extra):
    return main([cmd, "--scenario", scenario_path, "--out", str(out_dir), *extra])


def poly_seed(coeffs, domain=(-1.0, 1.0)):
    return {"type": "polynomial", "profiles": [{"coeffs": coeffs, "domain": list(domain)},
                                               {"coeffs": [0.7], "domain": [-1.0, 1.0]}]}


def sampled_seed(values):
    knots = [-1.0, -0.5, 0.0, 0.5, 1.0]
    return {"type": "sampled", "profiles": [{"knots": knots, "values": values},
                                            {"knots": knots, "values": [0.7] * 5}]}


def test_vacuum_verify_all_pass(tmp_path, capsys):
    path = write_scenario(tmp_path, base_scenario())
    code = run_cli("verify", path, tmp_path / "out")
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    assert any(c["name"] == "reality_tau" for c in report["checks"])


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("verify", str(bad), tmp_path / "out") == 2


def test_parser_is_built_once():
    """main reuses one parser; parsing leaves it unchanged, so the options
    of one call do not carry over to the next.  Every command takes the
    scenario and the output directory and nothing else."""
    parser = cli.build_parser()
    a = parser.parse_args(["verify", "--scenario", "a.json", "--out", "o"])
    b = parser.parse_args(["verify", "--scenario", "b.json"])
    assert cli.build_parser() is parser
    assert vars(a) == {"command": "verify", "scenario": "a.json", "out": "o"}
    assert vars(b) == {"command": "verify", "scenario": "b.json", "out": "out"}


def test_validation_error_names_rule(tmp_path, capsys):
    raw = base_scenario(grid=[[0.1, 0.5, 7], [-0.5, 0.5, 7]])
    path = write_scenario(tmp_path, raw)
    assert run_cli("verify", path, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "origin" in err


@pytest.mark.parametrize("overrides, rule", [
    ({"reality_samples": "abc"}, "reality_samples is a positive integer"),
    ({"reality_samples": -5}, "reality_samples is a positive integer"),
    ({"checks": {"tolerances": [1]}}, "tolerances by name"),
    ({"checks": {"tolerances": {"reality": -1e-10}}}, "finite positive numbers"),
    ({"grid": [[-0.5, 0.5, "x"], [-0.5, 0.5, 7]]}, "at least 3 grid points per axis"),
    ({"grid": [[-0.5, 0.5, 7], [-0.5, 0.5, 2]]}, "at least 3 grid points per axis"),
    ({"lambdas": 5}, "lambdas is a list of [re, im] pairs"),
    ({"lambdas": [[float("nan"), 0.0]]}, "pairs of finite numbers"),
    ({"lambdas": [[True, 0.0]]}, "pairs of finite numbers"),
    ({"export": {"format": "csv", "fixed": [1]}}, "export.fixed: this setting is gone"),
    ({"export": {"format": "csv", "fixed": {"a": 1}}}, "export.fixed: this setting is gone"),
    ({"export": {"format": "csv", "fixed": {"1": 0.1, "01": 0.3}, "slice_axes": [0]}},
     "export.fixed: this setting is gone"),
    ({"chain": [{"type": "real_one_pole", "alpha": float("nan"),
                 "span": [[[1.0, 0.0]], [[1.0, 0.0]]]}]}, "alpha is a finite number"),
    ({"seed": poly_seed([float("nan")])}, "coeffs is a list of finite numbers"),
    ({"seed": poly_seed([float("inf")])}, "coeffs is a list of finite numbers"),
    ({"seed": poly_seed([1.0, float("nan")])}, "coeffs is a list of finite numbers"),
    ({"seed": poly_seed([True])}, "coeffs is a list of finite numbers"),
    ({"seed": sampled_seed([1.0, 1.1, True, 1.1, 1.0])}, "values is a list of finite numbers"),
    ({"seed": poly_seed([1.0], domain=(False, 1.0)),
      "grid": [[0.0, 0.5, 7], [-0.5, 0.5, 7]]}, "domain is a list of finite numbers"),
    ({"schema_version": True}, "schema_version: expected 1, got True"),
    ({"export": {"format": "csv", "path": ["x.csv"]}}, "export path is a file name"),
    ({"export": {"format": "csv", "path": "sub/x.csv"}}, "export path is a file name"),
    ({"export": {"format": "csv", "path": ""}}, "export path is a file name"),
    ({"export": {"format": "csv", "slice_axes": [0, 0]}}, "export.slice_axes: this setting is gone"),
    ({"export": {"format": "csv", "slice_axes": [0, 1], "fixed": {"0": 0.3}}},
     "export.slice_axes: this setting is gone"),
], ids=["samples-text", "samples-negative", "tolerances-list", "tolerance-negative",
        "grid-points-text", "grid-two-points", "lambdas-number", "lambda-nan",
        "lambda-bool", "fixed-list", "fixed-text-key", "fixed-padded-key", "alpha-nan",
        "coeff-nan", "coeff-inf", "second-coeff-nan", "coeff-bool", "sampled-value-bool",
        "domain-bool", "schema-version-bool", "export-path-list", "export-path-subdir",
        "export-path-empty", "slice-axes-repeated", "fixed-on-slice-axis"])
def test_malformed_scenario_exits_3_naming_rule(tmp_path, capsys, overrides, rule):
    path = write_scenario(tmp_path, base_scenario(**overrides))
    assert run_cli("run", path, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "validation error" in err and rule in err


FORMER_TOGGLES = ("reality", "darboux_egoroff", "lagrangian", "sphere", "partial_invariance",
                  "position_equation", "potential", "metric_real", "lambda_zero", "pde_frame")
FORMER_EXPORT_KEYS = {"slice_axes": [0, 1], "fixed": {}, "obj_components": [0, 1]}


@pytest.mark.parametrize("section, key, value", [
    ("checks", "realty", False), ("checks", "permutability", True),
    *[("checks", name, True) for name in FORMER_TOGGLES],
    *[("export", name, value) for name, value in FORMER_EXPORT_KEYS.items()],
], ids=["misspelled", "sub-tolerance", *FORMER_TOGGLES, *FORMER_EXPORT_KEYS])
def test_unknown_check_toggle_exits_3_naming_it(tmp_path, capsys, section, key, value):
    """A check toggle or export setting is refused by name instead of being
    ignored: one that never existed (a misspelling, or a sub-tolerance of
    another check) as an unknown key, and every former toggle and export
    slice setting, even at the value that was its default, as a setting
    that is gone."""
    spec = {key: value, **({"format": "obj"} if section == "export" else {})}
    out = tmp_path / "out"
    assert run_cli("run", write_scenario(tmp_path, base_scenario(**{section: spec})), out) == 3
    err = capsys.readouterr().err
    gone = key in FORMER_TOGGLES or key in FORMER_EXPORT_KEYS
    assert f"{section}.{key}: {'this setting is gone' if gone else 'unknown key'}" in err
    assert not out.exists()


@pytest.mark.parametrize("mutate, name", [
    (lambda raw: raw.update(reality_sample=40), "reality_sample"),
    (lambda raw: raw["export"].update(slice_axis=[0, 1]), "export.slice_axis"),
    (lambda raw: raw["checks"]["tolerances"].update(realty=1e-10), "checks.tolerances.realty"),
    (lambda raw: raw["seed"].update(radius=1.0), "seed.radius"),
    (lambda raw: raw.update(seed=dict(poly_seed([1.0]), radii=[1.0, 0.7])), "seed.radii"),
    (lambda raw: raw.update(seed=poly_seed([1.0])) or raw["seed"]["profiles"][1].update(
        knots=[0.0]), "seed.profiles[1].knots"),
    (lambda raw: raw["chain"][0].update(z=[0.3, 0.7]), "chain[0].z"),
    (lambda raw: raw["chain"].append(dict(TWO_POLE, alpha=0.6)), "chain[1].alpha"),
    (lambda raw: raw["chain"].append({"type": "translation", "alpha": 0.9, "b": [0.1, 0.2],
                                      "span": [[[1.0, 0.0]], [[1.0, 0.0]]]}), "chain[1].span"),
], ids=["top", "export", "tolerance", "seed", "seed-of-other-type", "profile", "entry",
        "two-pole-entry", "translation-entry"])
def test_unknown_key_exits_3_naming_it(tmp_path, capsys, mutate, name):
    """One rule for every object of a scenario: a key its schema does not
    name (on a seed or a chain entry, a key of another type) exits 3 naming
    it, where it would otherwise be ignored."""
    raw = json.loads((SCENARIOS / "one_soliton.json").read_text())
    mutate(raw)
    out = tmp_path / "out"
    assert run_cli("verify", write_scenario(tmp_path, raw), out) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {name}: unknown") and "Traceback" not in err
    assert not out.exists()


REAL_ONE_POLE = {"type": "real_one_pole", "alpha": 0.6, "span": [[[1.0, 0.0]], [[1.0, 0.0]]]}


SEED_AT_POLE_RULE = ("validation error: chain[0]: the seed block at the pole 0+0.6j is not "
                     "finite on the grid (rule: the seed block is finite at every factor pole "
                     "and its conjugate on the grid)\n")


@pytest.mark.parametrize("overrides, message", [
    ({"grid": [[-0.5, 1e300, 7], [-0.5, 0.5, 7]], "chain": [REAL_ONE_POLE]}, SEED_AT_POLE_RULE),
    ({"chain": [dict(REAL_ONE_POLE, alpha=1e300)]}, SEED_AT_POLE_RULE.replace("0.6j", "1e+300j")),
    ({"chain": [REAL_ONE_POLE, {"type": "two_pole", "z": [1e308, 0.8],
                                "span": [[[1.0, 0.0]], [[0.5, -0.25]]]}]},
     "validation error: chain[1]: matrix entries must be finite\n"),
], ids=["grid-bound", "alpha", "two-pole-z"])
def test_finite_numbers_that_overflow_exit_3(tmp_path, capsys, overrides, message):
    """Numbers that pass the number rules but overflow the seed block at a
    pole (the grid bound, the alpha), refused at validation by the rule that
    names it, or overflow while the chain is validated (the two-pole z), end
    in exit 3, not in a traceback, with no numpy warning: pytest makes every
    warning an error."""
    path = write_scenario(tmp_path, base_scenario(**overrides))
    assert run_cli("verify", path, tmp_path / "out") == 3
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("seed", [
    {"type": "constant", "radii": [1e300, 1.0]},
    {"type": "constant", "radii": [1e160, 1.0]},
    poly_seed([1e200]),
], ids=["radius-1e300", "radius-1e160", "coeff-1e200"])
def test_seed_whose_square_overflows_exits_3(tmp_path, capsys, seed):
    """A seed profile whose square, the energy density h_j^2, overflows is
    refused by that rule before anything is evaluated, instead of giving
    NaN residuals."""
    raw = json.loads((SCENARIOS / "one_soliton.json").read_text())
    raw["seed"] = seed
    out = tmp_path / "out"
    assert run_cli("run", write_scenario(tmp_path, raw), out) == 3
    err = capsys.readouterr().err
    assert "validation error: seed." in err and "h_j^2 finite on the profile domain" in err
    assert not out.exists()


@pytest.mark.parametrize("seed", [
    {"type": "constant", "radii": [1e154, 1.0]},
    poly_seed([1e154]),
], ids=["radius-1e154", "coeff-1e154"])
def test_seed_whose_checks_overflow_fails_them(tmp_path, capsys, seed):
    """A seed just inside the finite-square rule: the Lagrangian and
    potential residuals overflow, and each is written as "nan" in the strict
    JSON report and fails; run exits 1 with no numpy warning, which pytest
    would turn into an error."""
    raw = json.loads((SCENARIOS / "one_soliton.json").read_text())
    raw["seed"] = seed
    out = tmp_path / "out"
    assert run_cli("run", write_scenario(tmp_path, raw), out) == 1

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    assert report["passed"] is False
    non_finite = {c["name"]: (c["residual"], c["passed"]) for c in report["checks"]
                  if isinstance(c["residual"], str)}
    assert non_finite == {name: ("nan", False) for name in (
        "lam=1/lagrangian_symplectic", "lam=1/lagrangian_metric",
        "lam=0/lagrangian_symplectic", "lam=0/lagrangian_metric", "potential_agreement")}
    assert "lam=1/lagrangian_symplectic" in capsys.readouterr().err


@pytest.mark.parametrize("name, seed", [
    ("breather_chain", {"type": "constant", "radii": [1e154, 1.0]}),
    ("permute_pair", {"type": "constant", "radii": [1e154, 1.0]}),
    ("breather_chain", poly_seed([1e154])),
], ids=["breather-radius-1e154", "permute-pair-radius-1e154", "breather-coeff-1e154"])
def test_chain_without_closed_potential_overflows_without_a_warning(tmp_path, capsys,
                                                                     name, seed):
    """On a chain without a closed potential the staircase integral of a
    seed just inside the finite-square rule overflows: run fails its
    non-finite checks (exit 1), dress writes nan/inf into metric.csv, and
    seed and sweep pass, each with no numpy warning, which pytest would
    turn into an error."""
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    raw["seed"] = seed
    path = write_scenario(tmp_path, raw)
    assert run_cli("run", path, tmp_path / "run") == 1
    assert "FAILED checks:" in capsys.readouterr().err
    for command in ("dress", "seed", "sweep"):
        assert run_cli(command, path, tmp_path / command) == 0, command
    rows = (tmp_path / "dress" / "metric.csv").read_text().splitlines()[1:]
    assert any("nan" in row or "inf" in row for row in rows)


@pytest.mark.parametrize("tolerance", [None, 1e-20], ids=["default", "1e-20"])
def test_dress_metric_real_is_the_metric_real_verdict(tmp_path, capsys, tolerance):
    """dress prints "metric real" as verify judges metric_real, at the
    default tolerance and at one below breather_chain's 3e-16."""
    raw = json.loads((SCENARIOS / "breather_chain.json").read_text())
    if tolerance is not None:
        raw["checks"]["tolerances"]["metric_real"] = tolerance
    path = write_scenario(tmp_path, raw)
    run_cli("verify", path, tmp_path / "verify")
    report = json.loads((tmp_path / "verify" / "report.json").read_text())
    verdict = next(c["passed"] for c in report["checks"] if c["name"] == "metric_real")
    capsys.readouterr()
    assert run_cli("dress", path, tmp_path / "dress") == 0
    assert f"metric real: {verdict} " in capsys.readouterr().out
    assert verdict is (tolerance is None)


def test_lambda_zero_failure_is_a_failing_check(tmp_path, capsys):
    """X(u, 0) on breather_chain has an imaginary part near 1e-16: with a
    lambda_zero tolerance of 1e-40 the limit net fails as a report entry
    with its residual and tolerance (exit 1), not as an error exit."""
    raw = json.loads((SCENARIOS / "breather_chain.json").read_text())
    raw["checks"]["tolerances"]["lambda_zero"] = 1e-40
    out = tmp_path / "out"
    assert run_cli("verify", write_scenario(tmp_path, raw), out) == 1
    report = json.loads((out / "report.json").read_text())
    failed = [c for c in report["checks"] if c["passed"] is False]
    assert [c["name"] for c in failed] == ["limit_net_imag"]
    assert failed[0]["tolerance"] == 1e-40 and 0 < failed[0]["residual"] < 1e-14
    assert "X(u, 0) has imaginary part" in failed[0]["details"]["reason"]
    assert "limit_net_imag" in capsys.readouterr().err


def test_spherical_violation_refused_names_condition(tmp_path, capsys):
    raw = base_scenario(chain=[{
        "type": "spherical", "alpha": 0.8,
        "span": [[[1.0, 0.0]], [[0.0, 0.0]]],  # image not orthogonal to h(0)
    }])
    path = write_scenario(tmp_path, raw)
    assert run_cli("verify", path, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "orthogonal to h(0)" in err


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_spherical_entry_on_a_non_constant_seed_exits_3(tmp_path, capsys, command):
    """Spherical dressing keeps the sphere of a constant seed only, so every
    command refuses the entry on a polynomial seed before evaluating."""
    raw = json.loads((SCENARIOS / "spherical_soliton.json").read_text())
    raw["seed"] = poly_seed([1.0])
    out = tmp_path / "out"
    assert run_cli(command, write_scenario(tmp_path, raw), out) == 3
    err = capsys.readouterr().err
    assert "chain[0]: a spherical entry needs a constant seed" in err
    assert "Traceback" not in err and not out.exists()


def test_check_failure_exit_code(tmp_path, capsys):
    raw = base_scenario(checks={"tolerances": {"reality": 1e-30}})
    path = write_scenario(tmp_path, raw)
    assert run_cli("verify", path, tmp_path / "out") == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False


VERDICT_RUNS = {"verify": ("one_soliton", "report.json"),
                "run": ("one_soliton", "report.json"),
                "permute-check": ("permute_pair", "permute_report.json")}


def scaled_tolerances(name, scale):
    """The shipped scenario ``name`` with every tolerance it runs at, its
    own and the defaults, multiplied by ``scale`` under checks.tolerances."""
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    checks = raw.setdefault("checks", {})
    checks["tolerances"] = {k: v * scale for k, v in
                            {**DEFAULT_TOLERANCES, **checks.get("tolerances", {})}.items()}
    return raw


@pytest.mark.parametrize("scale, code", [(1, 0), (1e-9, 1)], ids=["pass", "fail"])
@pytest.mark.parametrize("command", list(VERDICT_RUNS))
def test_verdict_names_every_failing_check_on_stderr(tmp_path, capsys, command, scale, code):
    """Every command that judges a report exits 1 on a failing check and
    names each failing entry of the report on stderr, and leaves stderr
    empty when every check passes: the shipped scenario, and a copy whose
    tolerances are 1e-9 times the ones it runs at."""
    name, report_name = VERDICT_RUNS[command]
    path = (str(SCENARIOS / f"{name}.json") if scale == 1
            else write_scenario(tmp_path, scaled_tolerances(name, scale)))
    out = tmp_path / "out"
    assert run_cli(command, path, out) == code
    checks = json.loads((out / report_name).read_text())["checks"]
    failing = [c["name"] for c in checks if c["passed"] is False]
    assert bool(failing) == bool(code)
    err = capsys.readouterr().err
    assert err == (f"FAILED checks: {', '.join(failing)}\n" if failing else "")


@pytest.mark.parametrize("command, name, report_name", [
    ("verify", "spherical_soliton", "report.json"),
    ("verify", "breather_chain", "report.json"),
    ("permute-check", "permute_pair", "permute_report.json"),
])
def test_tol_scale_multiplies_every_written_tolerance(tmp_path, command, name, report_name):
    """Each checks.tolerances value is the tolerance written: with every
    tolerance of the scenario scaled by K, each entry's tolerance is exactly
    K times the one written without it, informational entries stay without
    one, and the residuals do not move."""
    scale = 2.5
    run_cli(command, str(SCENARIOS / f"{name}.json"), tmp_path / "one")
    run_cli(command, write_scenario(tmp_path, scaled_tolerances(name, scale)), tmp_path / "scaled")
    one, scaled = (json.loads((tmp_path / d / report_name).read_text())["checks"]
                   for d in ("one", "scaled"))
    assert [c["name"] for c in one] == [c["name"] for c in scaled]
    assert any(c["tolerance"] is not None for c in one)
    for a, b in zip(one, scaled):
        assert b["residual"] == a["residual"]
        assert b["tolerance"] == (None if a["tolerance"] is None else a["tolerance"] * scale)


SIGNATURE_TOLERANCES = {
    geometry.check_darboux_egoroff: {"tol": "darboux_egoroff"},
    geometry.check_lagrangian: {"tol": "lagrangian", "metric_tol": "lagrangian_metric"},
    geometry.check_sphere: {"tol": "sphere"},
    geometry.check_partial_invariance: {"fd_tol": "partial_invariance",
                                        "norm_tol": "norm_constancy"},
    geometry.limit_net: {"tol": "lambda_zero", "cross_check_tol": "lambda_zero_derivative"},
    dress_permuted: {"tol": "permutability"},
}


@pytest.mark.parametrize("fn", list(SIGNATURE_TOLERANCES), ids=lambda fn: fn.__name__)
def test_check_signature_defaults_are_the_shared_table(fn):
    """Each check's tolerance parameters default to the shared table's own
    entries (the same objects, so a default written out as a number fails),
    and the CLI reads that same table."""
    assert DEFAULT_TOLERANCES is SHARED_TOLERANCES
    names = SIGNATURE_TOLERANCES[fn]
    params = inspect.signature(fn).parameters
    assert {p for p in params if p.endswith("tol")} == set(names)
    for param, name in names.items():
        assert params[param].default is SHARED_TOLERANCES[name]


@pytest.mark.parametrize("flag, value", [
    ("--step", "0"), ("--step", "nan"), ("--step", "-0.01"), ("--step", "inf"),
    ("--step", "abc"), ("--tol-scale", "-1"), ("--tol-scale", "0"),
    ("--tol-scale", "nan"), ("--tol-scale", "inf"),
])
def test_nonpositive_or_nonfinite_flag_exits_2(tmp_path, capsys, flag, value):
    """The RK4 step and the tolerance scale are no flags: given to verify,
    with any value, each is an argument error naming it."""
    path = write_scenario(tmp_path, base_scenario())
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", path, tmp_path / "out", f"{flag}={value}")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in cli.COMMANDS for flag in ("--step", "--tol-scale")])
def test_flag_the_command_does_not_read_exits_2(tmp_path, capsys, command, flag):
    """No command takes --step or --tol-scale: the scenario alone configures
    a run."""
    with pytest.raises(SystemExit) as exc:
        run_cli(command, str(SCENARIOS / "permute_pair.json"), tmp_path / "out", flag, "2")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} 2" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _assert_out_error(capsys, out):
    err = capsys.readouterr().err
    assert f"--out {out}" in err and "Traceback" not in err
    return err


def test_out_on_an_existing_file_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path, base_scenario())
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert run_cli("run", path, out) == 2
    assert "File exists" in _assert_out_error(capsys, out)
    assert out.read_text() == "not a directory\n"


def test_out_below_a_file_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path, base_scenario())
    (tmp_path / "taken").write_text("")
    out = tmp_path / "taken" / "sub"
    assert run_cli("run", path, out) == 2
    assert "Not a directory" in _assert_out_error(capsys, out)


def test_out_with_a_directory_in_place_of_an_output_file_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path, base_scenario())
    out = tmp_path / "out"
    (out / "metric.csv").mkdir(parents=True)
    assert run_cli("run", path, out) == 2
    err = _assert_out_error(capsys, out)
    assert f"cannot write {out / 'metric.csv'}" in err and "Is a directory" in err


def test_one_soliton_export_row_count(tmp_path):
    raw = base_scenario(
        grid=[[-0.5, 0.5, 9], [-0.5, 0.5, 11]],
        chain=[{"type": "real_one_pole", "alpha": 0.6,
                "span": [[[1.0, 0.0]], [[1.0, 0.0]]]}],
        export={"format": "csv", "lambda": [1.0, 0.0], "path": "immersion.csv"},
    )
    path = write_scenario(tmp_path, raw)
    out = tmp_path / "out"
    assert run_cli("export", path, out) == 0
    lines = (out / "immersion.csv").read_text().strip().split("\n")
    assert lines[0].startswith("u1,u2,ReX1,ImX1")
    assert len(lines) - 1 == 9 * 11


def test_export_determinism(tmp_path):
    raw = base_scenario(
        chain=[{"type": "real_one_pole", "alpha": 0.6,
                "span": [[[1.0, 0.0]], [[1.0, 0.0]]]}],
        export={"format": "csv", "lambda": [1.0, 0.0], "path": "immersion.csv"},
        checks={"tolerances": {"darboux_egoroff": 0.1, "position_equation": 0.1}},
    )
    path = write_scenario(tmp_path, raw)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", path, out1) == 0
    assert run_cli("run", path, out2) == 0
    for name in ("immersion.csv", "metric.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_obj_export_structure(tmp_path):
    raw = base_scenario(
        grid=[[-0.4, 0.4, 5], [-0.4, 0.4, 6]],
        export={"format": "obj", "lambda": [1.0, 0.0], "path": "surf.obj"},
    )
    path = write_scenario(tmp_path, raw)
    out = tmp_path / "out"
    assert run_cli("export", path, out) == 0
    lines = (out / "surf.obj").read_text().strip().split("\n")
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 5 * 6
    assert len(faces) == 2 * 4 * 5


def test_gallery_exits_1_naming_each_case_off_the_chart(tmp_path, capsys):
    """scripts/soliton_gallery.py keeps every mesh inside the immersion
    chart at its default half-width, and exits 1 naming each case whose
    grid reaches h <= 0 at half-width 0.9."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "soliton_gallery.py"
    spec = importlib.util.spec_from_file_location("soliton_gallery", path)
    gallery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gallery)
    assert gallery.main(["--out", str(tmp_path / "default"), "--points", "9"]) == 0
    assert capsys.readouterr().err == ""
    assert gallery.main(["--out", str(tmp_path / "wide"), "--points", "9",
                         "--half-width", "0.9"]) == 1
    assert capsys.readouterr().err == ("left the immersion chart (h <= 0): one_soliton, "
                                       "spherical_soliton, breather, soliton_translated\n")


def test_sweep_final_slice_real(tmp_path, capsys):
    raw = base_scenario(lambdas=[[1.0, 0.0], [0.5, 0.0], [0.1, 0.0], [0.0, 0.0]])
    path = write_scenario(tmp_path, raw)
    out = tmp_path / "out"
    assert run_cli("sweep", path, out) == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 4 * 7 * 7
    worst = 0.0
    for row in rows:
        vals = [float(x) for x in row.split(",")]
        if vals[0] == 0.0 and vals[1] == 0.0:
            worst = max(worst, abs(vals[5]), abs(vals[7]))
    assert worst < 1e-10


def test_sweep_without_lambdas_writes_header_only(tmp_path):
    path = write_scenario(tmp_path, base_scenario(lambdas=[]))
    assert run_cli("sweep", path, tmp_path / "out") == 0
    assert (tmp_path / "out" / "sweep.csv").read_text() == "lam_re,lam_im,u1,u2,ReX1,ImX1,ReX2,ImX2\n"


def test_sweep_evaluates_each_lambda_once(tmp_path, capsys, monkeypatch):
    """The lambda = 0 line reads the X the export computed: one evaluation,
    with every lambda value once as a stack of shape (lambdas, 1)."""
    lams = []
    evaluate = ExtendedFrame.evaluate

    def spy(self, u, lam):
        lams.append(lam)
        return evaluate(self, u, lam)

    monkeypatch.setattr(ExtendedFrame, "evaluate", spy)
    assert run_cli("sweep", str(SCENARIOS / "flat_torus.json"), tmp_path / "out") == 0
    assert len(lams) == 1 and lams[0].shape == (4, 1)
    assert np.array_equal(lams[0][:, 0], [1.0, 0.5, 0.1, 0.0])
    assert "lambda=0 slice max |Im X| = " in capsys.readouterr().out


def _reality_by_sample(frame, scenario):
    """Reference for the reality check: draw (lambda, u) one sample at a
    time and evaluate each with one-point calls."""
    rng = np.random.default_rng(REALITY_SAMPLE_SEED)
    guard = [p for q in frame.sensitive_points() for p in (q, -q, np.conj(q), -np.conj(q))]
    lo = [a[0] for a in scenario.grid.axes]
    hi = [a[-1] for a in scenario.grid.axes]
    eye = np.eye(frame.n)
    samples, tau, sigma = [], 0.0, 0.0
    while len(samples) < scenario.reality_samples:
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if any(abs(lam - p) < 0.05 for p in guard):
            continue
        u = np.array([rng.uniform(l, h) for l, h in zip(lo, hi)])
        E = frame.E(u, lam)
        tau = max(tau, max_abs(frame.E(u, np.conj(lam)).conj().T @ E - eye))
        sigma = max(sigma, max_abs(E.T @ frame.E(u, -lam) - eye))
        samples.append((u, lam))
    return samples, tau, sigma


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("name", ["breather_chain", "permute_pair", "spherical_soliton"])
def test_reality_check_matches_per_sample_loop(name, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(frames, "POINT_BLOCK", chunk)
    scenario = load_scenario(str(SCENARIOS / f"{name}.json"))
    frame = apply_chain(scenario)
    samples, tau, sigma = _reality_by_sample(frame, scenario)
    calls = []
    evaluate = ExtendedFrame.evaluate

    def spy(self, u, lam):
        calls.append((np.array(u), np.array(lam)))
        return evaluate(self, u, lam)

    monkeypatch.setattr(ExtendedFrame, "evaluate", spy)
    report = _reality_check(frame, scenario, 1e-10)
    sigma_ok = all(rec.is_sigma_compatible for rec in frame.history)
    expected = []
    for start in range(0, len(samples), frames.POINT_BLOCK):
        part = samples[start:start + frames.POINT_BLOCK]
        U = np.array([u for u, _ in part])
        lams = np.array([lam for _, lam in part])
        expected.append((U, np.array([lams, lams.conj()] + ([-lams] if sigma_ok else []))))
    assert len(calls) == len(expected)
    for (u_call, lam_call), (u_expected, lam_expected) in zip(calls, expected):
        assert np.array_equal(u_call, u_expected) and np.array_equal(lam_call, lam_expected)
    assert abs(report["reality_tau"].residual - tau) <= 1e-15
    if sigma_ok:
        assert abs(report["reality_sigma"].residual - sigma) <= 1e-15
    else:
        assert "reality_sigma_skipped" in [c.name for c in report.checks]


def _nodes(node, path=()):
    """Paths to every node of a JSON tree below its root, leaves and
    subtrees alike."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))}
REPLACEMENTS = ["text", True, False, float("nan"), float("inf"), -float("inf"), [1.0], [], [[]],
                {}, None, -1, -2.5, 1e308, 1e154, 1e-320, 10 ** 30]
# each command and the report whose failed checks its exit code 1 must show
REPORTS = {"seed": None, "dress": None, "export": None, "sweep": None,
           "verify": "report.json", "run": "report.json", "permute-check": "permute_report.json"}


@st.composite
def mutated_scenarios(draw):
    """A shipped scenario with one or two mutations, each at a node of the
    tree as mutated so far: the node replaced by a wrong-typed, non-finite,
    negative or out-of-range value, the node deleted (a key or a list
    entry), or a list entry duplicated in place; and the command to run."""
    name = draw(st.sampled_from(sorted(SHIPPED)))
    raw = copy.deepcopy(SHIPPED[name])
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_nodes(raw))))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        kind = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if kind == "replace":
            parent[path[-1]] = draw(st.sampled_from(REPLACEMENTS))
        elif kind == "delete" or isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent.insert(path[-1], copy.deepcopy(parent[path[-1]]))
    return draw(st.sampled_from(sorted(REPORTS))), name, raw


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(mutated_scenarios())
def test_mutated_scenario_keeps_exit_code_contract(case):
    """One or two mutations of a shipped scenario, run through one of the
    seven commands: it exits 0-3 without an uncaught exception or a numpy
    warning (the suite raises every warning), and exits 1 only when its
    report holds a failed check."""
    command, _, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(raw))
        out = Path(tmp) / "out"
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = run_cli(command, str(scenario), out)
        assert code in (0, 1, 2, 3)
        report = REPORTS[command]
        if report is None:
            assert code != 1
        elif code in (0, 1):
            checks = json.loads((out / report).read_text())["checks"]
            assert any(c["passed"] is False for c in checks) == (code == 1)


def test_permute_check(tmp_path, capsys):
    path = str(SCENARIOS / "permute_pair.json")
    out = tmp_path / "out"
    assert run_cli("permute-check", path, out) == 0
    report = json.loads((out / "permute_report.json").read_text())
    assert report["passed"] is True
    frame_check = [c for c in report["checks"] if c["name"] == "permutability_frame"][0]
    assert frame_check["residual"] < 1e-9
    text = capsys.readouterr().out
    assert "permutability" in text


def test_permute_check_runs_on_the_scenario_grid(tmp_path):
    """A polynomial seed on [-0.3, 0.3] with a grid inside that domain:
    the check runs on the scenario's own 9 x 9 grid, the one its report
    records, not on a default grid that leaves the domain."""
    raw = json.loads((SCENARIOS / "permute_pair.json").read_text())
    raw["seed"] = poly_seed([1.0, 0.3, -0.2], (-0.3, 0.3))
    raw["seed"]["profiles"][1]["domain"] = [-0.3, 0.3]
    raw["grid"] = [[-0.3, 0.3, 9], [-0.3, 0.3, 9]]
    out = tmp_path / "out"
    assert run_cli("permute-check", write_scenario(tmp_path, raw), out) == 0
    report = json.loads((out / "permute_report.json").read_text())
    assert report["grid_points"] == [9, 9]
    assert report["checks"][0]["details"]["grid_points"] == 81


def test_report_with_a_non_finite_residual_is_strict_json(tmp_path, monkeypatch):
    """A check whose residual is NaN or infinite: report.json writes it as
    the string "nan" or "inf", parses under a parser that refuses NaN and
    Infinity, and the run still fails."""
    def non_finite(metric, tol):
        report = VerificationReport()
        report.add("darboux_egoroff", float("nan"), tol)
        report.add("darboux_egoroff_pair", float("inf"), tol)
        return report
    monkeypatch.setattr(cli, "check_darboux_egoroff", non_finite)
    out = tmp_path / "out"
    assert run_cli("run", str(SCENARIOS / "one_soliton.json"), out) == 1

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    assert report["passed"] is False
    residuals = {c["name"]: c["residual"] for c in report["checks"]}
    assert residuals["darboux_egoroff"] == "nan"
    assert residuals["darboux_egoroff_pair"] == "inf"


def test_seed_and_dress_commands(tmp_path, capsys):
    path = str(SCENARIOS / "one_soliton.json")
    out = tmp_path / "out"
    assert run_cli("seed", path, out) == 0
    assert (out / "seed_metric.csv").exists()
    assert run_cli("dress", path, out) == 0
    lines = (out / "metric.csv").read_text().strip().split("\n")
    assert len(lines) - 1 == 17 * 17
    header = lines[0].split(",")
    assert "phi_closed" not in header
    # the phi columns hold the closed form; the staircase integral agrees
    sc = load_scenario(path)
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    phi = table[:, header.index("Rephi")] + 1j * table[:, header.index("Imphi")]
    staircase = potential_on_grid(apply_chain(sc), sc.grid).reshape(-1)
    assert max_abs(staircase - phi) < DEFAULT_TOLERANCES["potential"]


def test_shipped_scenarios_verify(tmp_path):
    for name in ("flat_torus.json", "one_soliton.json", "spherical_soliton.json",
                 "breather_chain.json"):
        out = tmp_path / ("out_" + name)
        assert run_cli("verify", str(SCENARIOS / name), out) == 0, name


def test_breather_two_pole_factor_runs_sigma_checks(tmp_path):
    out = tmp_path / "out"
    assert run_cli("verify", str(SCENARIOS / "breather_chain.json"), out) == 0
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    # only the potential check skips: a translation has no closed-form potential
    assert [name for name in checks if name.endswith("_skipped")] == ["potential_skipped"]
    assert checks["potential_skipped"]["details"]["reason"] == (
        "chain[2]: no closed-form potential update for the translation factor")
    for name, tol in (("reality_sigma", "reality"), ("metric_real", "metric_real"),
                      ("limit_net_imag", "lambda_zero")):
        assert checks[name]["passed"] is True
        assert checks[name]["tolerance"] == DEFAULT_TOLERANCES[tol]


@pytest.mark.parametrize("lambdas, skipped", [
    ([[0.0, 0.0]], ["sphere_skipped"]),
    ([[0.3, 0.4]], ["lagrangian_skipped", "sphere_skipped"]),
    ([], ["lagrangian_skipped", "sphere_skipped"]),
], ids=["zero", "complex", "none"])
def test_check_with_no_lambda_to_run_at_says_so(lambdas, skipped, tmp_path):
    """spherical_soliton runs the Lagrangian and sphere checks.  With no
    real lambda (no real nonzero one for the sphere) each writes an
    informational skip entry whose reason names its rule, instead of no
    entry at all, and verify still exits 0."""
    raw = json.loads((SCENARIOS / "spherical_soliton.json").read_text())
    raw["lambdas"] = lambdas
    out = tmp_path / "out"
    assert run_cli("verify", write_scenario(tmp_path, raw), out) == 0
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert [name for name in checks if name.endswith("_skipped")] == skipped
    for name in skipped:
        assert checks[name]["tolerance"] is None and checks[name]["passed"] is None
        assert "(rule: the " + name.split("_")[0] in checks[name]["details"]["reason"].lower()
    if "lagrangian_skipped" not in skipped:
        assert checks["lam=0/lagrangian_symplectic"]["passed"] is True


def test_metric_csv_layout(tmp_path):
    frame = dress_real(ExtendedFrame(VacuumSeed.constant([1.0, 0.7, 1.3])), 0.6,
                       project_onto_span(np.ones(3) / np.sqrt(3.0)))
    grid = Grid.from_specs([(-0.3, 0.3, 3)] * 3)
    metric = metric_from_frame(frame, grid)
    assert export_metric_csv(metric, tmp_path / "metric.csv") == 27
    lines = (tmp_path / "metric.csv").read_text().splitlines()
    assert len(lines) == 28
    assert lines[0].split(",") == [
        "u1", "u2", "u3", "Reh1", "Imh1", "Reh2", "Imh2", "Reh3", "Imh3",
        "Rephi", "Imphi",
        "Rebeta12", "Imbeta12", "Rebeta13", "Imbeta13", "Rebeta21", "Imbeta21",
        "Rebeta23", "Imbeta23", "Rebeta31", "Imbeta31", "Rebeta32", "Imbeta32"]
    # grid points run row-major; 17 significant digits round-trip exactly
    idx = (2, 0, 1)
    row = [float(x) for x in lines[1 + 2 * 9 + 0 * 3 + 1].split(",")]
    h, phi, beta = metric.h[idx], metric.phi[idx], metric.beta[idx]
    expected = list(grid.points()[idx])
    for j in range(3):
        expected += [h[j].real, h[j].imag]
    expected += [phi.real, phi.imag]
    for i in range(3):
        for j in range(3):
            if i != j:
                expected += [beta[i, j].real, beta[i, j].imag]
    assert row == expected
    # phi is the closed form here; a chain without one has the same layout
    assert metric.phi_is_closed and row[9:11] == [frame.phi(grid.points()[idx]), 0.0]
    staircase = metric_from_frame(dress_translation(frame, 1.3, [0.1, 0.2, 0.3]), grid)
    assert not staircase.phi_is_closed
    assert export_metric_csv(staircase, tmp_path / "staircase.csv") == 27
    assert (tmp_path / "staircase.csv").read_text().splitlines()[0] == lines[0]


@pytest.mark.parametrize("name", ["breather_chain", "permute_pair"])
def test_lambda_on_chain_pole_is_a_lambda(tmp_path, name):
    """Every chain pole and its conjugate added to lambdas: run and sweep
    exit as on the unchanged scenario (run writes the same report, as its
    checks read only the real lambdas), and each sweep row at a pole is
    within 1e-7 of the row at the pole + 1e-9."""
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    poles = [p for _, factor in load_scenario(str(SCENARIOS / f"{name}.json")).chain
             for q in factor.poles() for p in (q, q.conjugate())]
    codes, sweeps = {}, {}
    for label, extra in (("unchanged", []), ("poles", poles),
                         ("shifted", [p + 1e-9 for p in poles])):
        path = write_scenario(tmp_path, dict(raw, lambdas=raw["lambdas"] + [
            [p.real, p.imag] for p in extra]), f"{label}.json")
        out = tmp_path / label
        codes[label] = [run_cli(command, path, out / command) for command in ("run", "sweep")]
        sweeps[label] = np.loadtxt(out / "sweep" / "sweep.csv", delimiter=",", skiprows=1)
    assert codes["poles"] == codes["shifted"] == codes["unchanged"]
    assert ((tmp_path / "poles" / "run" / "report.json").read_bytes()
            == (tmp_path / "unchanged" / "run" / "report.json").read_bytes())
    at_pole, shifted = sweeps["poles"], sweeps["shifted"]
    rows = len(sweeps["unchanged"])
    points = rows // len(raw["lambdas"])
    assert len(at_pole) == len(shifted) == rows + points * len(poles)
    assert np.array_equal(at_pole[:rows], sweeps["unchanged"])
    assert max_abs(at_pole[:, 2:] - shifted[:, 2:]) <= 1e-7


def test_run_verification_under_errstate_fails_overflowing_checks():
    """A library caller of run_verification takes the CLI's overflow rule by
    wrapping the call in np.errstate(over="ignore", invalid="ignore"): on
    one_soliton.json with radii [1e154, 1.0] the overflowing checks read NaN
    and fail, with no numpy warning, which pytest would turn into an
    error."""
    raw = json.loads((SCENARIOS / "one_soliton.json").read_text())
    raw["seed"] = {"type": "constant", "radii": [1e154, 1.0]}
    scenario = validate_scenario(raw)
    with np.errstate(over="ignore", invalid="ignore"):
        frame = apply_chain(scenario)
        report = cli.run_verification(scenario, frame, metric_from_frame(frame, scenario.grid))
    assert not report.passed
    assert {c.name for c in report.checks if np.isnan(c.residual)} == {
        "lam=1/lagrangian_symplectic", "lam=1/lagrangian_metric",
        "lam=0/lagrangian_symplectic", "lam=0/lagrangian_metric", "potential_agreement"}
    assert all(c.passed is False for c in report.checks if np.isnan(c.residual))


def test_pole_collision_rejected():
    raw = base_scenario(chain=[
        {"type": "real_one_pole", "alpha": 0.6, "span": [[[1.0, 0.0]], [[1.0, 0.0]]]},
        {"type": "translation", "alpha": 0.6, "b": [0.1, 0.0]},
    ])
    with pytest.raises(ValidationError, match="collide"):
        validate_scenario(raw)


def test_rank_deficient_span_rejected():
    raw = base_scenario(chain=[{
        "type": "real_one_pole", "alpha": 0.6,
        "span": [[[1.0, 0.0], [2.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]],
    }])
    with pytest.raises(ValidationError, match="projection well-formed"):
        validate_scenario(raw)


def test_zero_span_exits_3_without_nan(tmp_path, capsys):
    """A zero span is refused as a dependent one, with a finite ratio and no
    RuntimeWarning (the suite turns warnings into errors)."""
    path = write_scenario(tmp_path, base_scenario(chain=[
        dict(REAL_ONE_POLE, span=[[[0.0, 0.0]], [[0.0, 0.0]]])]))
    assert run_cli("run", path, tmp_path / "out") == 3
    out, err = capsys.readouterr()
    assert "spanning columns are dependent" in err
    assert "nan" not in (out + err).lower()


LIBRARY_CALLS = {
    "real_one_pole": lambda frame, f: dress_real(frame, f.alpha, f.projection),
    "spherical": lambda frame, f: dress_spherical(frame, f.alpha, f.projection),
    "one_pole": lambda frame, f: dress_extended(frame, f.alpha1, f.projection),
    "two_pole": lambda frame, f: dress_two_pole(frame, f.z, f.projection),
    "translation": lambda frame, f: dress_translation(frame, f.alpha, f.b),
}


def test_apply_chain_matches_library(torus_frame):
    """apply_chain dresses by the validated factors; the frames equal, bit
    for bit, the ones the per-kind library entry points build."""
    sc = load_scenario(str(SCENARIOS / "one_soliton.json"))
    frame = apply_chain(sc)
    u = np.array([0.3, -0.2])
    assert frame.h(u).shape == (2,)
    assert len(frame.history) == 1
    for name in SHIPPED:
        sc = load_scenario(str(SCENARIOS / f"{name}.json"))
        frame, library = apply_chain(sc), ExtendedFrame(sc.seed)
        for kind, factor in sc.chain:
            library = LIBRARY_CALLS[kind](library, factor)
        assert len(frame.history) == len(library.history) == len(sc.chain)
        pts = sc.grid.points()
        for lam in (0.9, 0.3 - 0.4j):
            for a, b in zip(frame.evaluate(pts, lam), library.evaluate(pts, lam)):
                assert np.array_equal(a, b)
        assert np.array_equal(frame.h(pts), library.h(pts))


def test_sampled_seed_dipping_spline_exits_3(tmp_path, capsys):
    """Positive samples whose cubic spline dips below 0 (to about -0.16
    between the knots) are refused, not clamped."""
    path = write_scenario(tmp_path, base_scenario(seed=sampled_seed([1.0, 0.02, 1.0, 0.02, 1.0])))
    assert run_cli("verify", path, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "validation error" in err and "seed.profiles[0]" in err
    assert "h_j > 0 on the profile domain" in err


def test_import_leaves_scipy_unloaded():
    """The package and its CLI import only numpy: scipy is loaded when a
    sampled profile or the oracle's interpolators are built."""
    code = ("import sys; import dressing_forge, dressing_forge.cli; "
            "sys.exit('scipy' in sys.modules)")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def test_polynomial_seed_with_narrow_dip_exits_3(tmp_path, capsys):
    """1e4 (t - 1/256)^2 - 1e-3 is positive on any 257-point sampling of
    [-1, 1] but -1e-3 at its critical point: refused."""
    coeffs = [1e4 / 256 ** 2 - 1e-3, -2e4 / 256, 1e4]
    path = write_scenario(tmp_path, base_scenario(seed=poly_seed(coeffs)))
    assert run_cli("run", path, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "seed.profiles[0]" in err and "h_j > 0 on the profile domain" in err


TWO_POLE = {"type": "two_pole", "z": [0.4, 0.8], "span": [[[1.0, 0.0]], [[0.5, -0.25]]]}


def test_two_pole_chain_runs_potential_agreement(tmp_path):
    """A real one-pole plus two-pole chain has a closed-form potential: the
    check compares it with the staircase integral at the default tolerance.
    The grid's O(h^2) finite-difference checks get breather_chain's bounds."""
    raw = base_scenario(grid=[[-0.4, 0.4, 17], [-0.4, 0.4, 17]],
                        chain=[REAL_ONE_POLE, TWO_POLE],
                        checks={"tolerances": {"darboux_egoroff": 0.1,
                                               "position_equation": 0.1}})
    out = tmp_path / "out"
    assert run_cli("run", write_scenario(tmp_path, raw), out) == 0
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    agreement = checks["potential_agreement"]
    assert agreement["passed"] is True
    assert agreement["tolerance"] == DEFAULT_TOLERANCES["potential"]
    assert not any(name.endswith("_skipped") for name in checks)


def test_potential_skip_names_the_record(tmp_path):
    """The skip reason names the first record without a closed update."""
    raw = base_scenario(chain=[REAL_ONE_POLE, TWO_POLE, {
        "type": "one_pole", "z": [0.3, 0.7], "span": [[[1.0, 0.0]], [[0.5, -0.25]]]}])
    out = tmp_path / "out"
    assert run_cli("verify", write_scenario(tmp_path, raw), out) in (0, 1)
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert checks["potential_skipped"]["details"]["reason"] == (
        "chain[2]: sigma-incompatible pole, the eta^* pi_tilde eta update needs "
        "the sigma-real product")


def test_pde_frame_check_asks_beta_once_for_both_paths(monkeypatch):
    """The PDE check integrates its forward and reversed staircases in one
    call: on one_soliton their 120 steps fit one group, so one beta call
    carries every stage point."""
    scenario = load_scenario(SCENARIOS / "one_soliton.json")
    frame = apply_chain(scenario)
    sizes, beta = [], ExtendedFrame.beta

    def counting_beta(self, u):
        sizes.append(len(u))
        return beta(self, u)

    monkeypatch.setattr(ExtendedFrame, "beta", counting_beta)
    report = cli._pde_frame_check(frame, scenario.grid, scenario.lambdas, 1e-6, 1e-6)
    assert sizes == [4 * (2 * 30 + 1)]
    assert report.passed, str(report)


def _potential_per_axis(frame, grid):
    """The staircase potential with each sweep axis's lines, knots with 0
    and midpoints, evaluated as their own point set."""
    n = grid.n
    phi = np.zeros(grid.shape, dtype=complex)
    for axis in range(n):
        aug = np.union1d(grid.axes[axis], [0.0])
        ts = np.concatenate([aug, 0.5 * (aug[:-1] + aug[1:])])
        mesh = np.meshgrid(*grid.axes[:axis], ts, indexing="ij")
        U = np.zeros(mesh[-1].shape + (n,))
        for a, coord in enumerate(mesh[:-1]):
            U[..., a] = coord
        U[..., axis] = mesh[-1]
        f = frame.h(U)[..., axis] ** 2
        fa, fm = f[..., :aug.size], f[..., aug.size:]
        seg = (np.diff(aug) / 6.0) * (fa[..., :-1] + 4.0 * fm + fa[..., 1:])
        cum = np.concatenate([np.zeros(seg.shape[:-1] + (1,), dtype=complex),
                              np.cumsum(seg, axis=-1)], axis=-1)
        cum -= cum[..., int(np.searchsorted(aug, 0.0))][..., None]
        part = cum[..., np.searchsorted(aug, grid.axes[axis])]
        phi = phi + part.reshape(part.shape + (1,) * (n - axis - 1))
    return phi


@pytest.mark.parametrize("points", [17, 16], ids=["zero-a-knot", "zero-off-grid"])
def test_potential_on_grid_adds_one_sweep_after_the_metric(monkeypatch, points):
    """After metric_from_frame, potential_on_grid on one_soliton asks the
    frame about one new point set: its last axis's knot lattice is the grid
    the metric sampled when 0 is a knot, and joins the other points when it
    is not.  The values are those of evaluating each axis's lines on their
    own, bit for bit."""
    raw = json.loads((SCENARIOS / "one_soliton.json").read_text())
    raw["grid"] = [[-0.5, 0.5, points]] * 2
    scenario = validate_scenario(raw)
    frame = apply_chain(scenario)
    metric_from_frame(frame, scenario.grid)
    count, sweep = [], ExtendedFrame._sweep

    def counting_sweep(self, U):
        count.append(len(U))
        return sweep(self, U)

    monkeypatch.setattr(ExtendedFrame, "_sweep", counting_sweep)
    phi = potential_on_grid(frame, scenario.grid)
    assert len(count) == 1
    monkeypatch.setattr(ExtendedFrame, "_sweep", sweep)
    assert np.array_equal(phi, _potential_per_axis(frame, scenario.grid))


def test_csv_writer_matches_savetxt_bytes(tmp_path):
    """One format operation writes the bytes np.savetxt writes at %.17g,
    signed zero, subnormals, the largest doubles, 2**53 + 1 and non-finite
    values included."""
    special = [-0.0, 5e-324, 1e308, 2.0 ** 53 + 1, np.nan, np.inf, -np.inf, -1 / 3]
    table = np.vstack([special, np.random.default_rng(3).normal(size=(5, len(special)))
                       * 10.0 ** np.arange(-200, 200, 50)])
    header = [f"c{j}" for j in range(len(special))]
    assert cli._write_csv(tmp_path / "a.csv", header, table) == len(table)
    np.savetxt(tmp_path / "b.csv", table, fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_obj_writer_matches_per_row_lines(tmp_path):
    """The OBJ writer's one format operation gives the per-row f-string
    lines: each vertex at 17 significant digits, two faces per cell."""
    shape = (4, 3)
    vertices = np.random.default_rng(4).normal(size=(12, 3)) * 1e5
    vertices[0] = [-0.0, 5e-324, np.nan]
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in vertices]
    m = shape[1]
    for ia in range(shape[0] - 1):
        for ib in range(m - 1):
            v00 = ia * m + ib + 1
            lines += [f"f {v00} {v00 + m} {v00 + m + 1}", f"f {v00} {v00 + m + 1} {v00 + 1}"]
    assert cli.write_obj(tmp_path / "a.obj", vertices, shape) == 12
    assert (tmp_path / "a.obj").read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("overrides, rule", [
    ({"grid": [[-0.5, 0.5, 100_000], [-0.5, 0.5, 100_000]]},
     "rule: at most 100000 grid points in all"),
    ({"reality_samples": 10 ** 30},
     "rule: reality_samples is a positive integer of at most 100000"),
    ({"lambdas": [[1.0 + k / 2000, 0.0] for k in range(2000)]},
     "rule: at most 500000 (lambda, grid point) pairs"),
], ids=["grid-1e10-points", "samples-1e30", "lambdas-578000-pairs"])
def test_scenario_over_a_work_cap_exits_3(tmp_path, capsys, monkeypatch, overrides, rule):
    """A grid of more than MAX_GRID_POINTS points in all, more than
    MAX_REALITY_SAMPLES reality samples, or more than MAX_LAMBDA_POINTS
    (lambda, grid point) pairs is refused by validation before the grid is
    built (the first and the last) or anything is evaluated."""
    def refuse(specs):
        raise AssertionError("grid built for a scenario over a cap")

    raw = json.loads((SCENARIOS / "one_soliton.json").read_text())
    raw.update(overrides)
    if "reality_samples" not in overrides:
        monkeypatch.setattr(Grid, "from_specs", refuse)
    out = tmp_path / "out"
    assert run_cli("run", write_scenario(tmp_path, raw), out) == 3
    err = capsys.readouterr().err
    assert "validation error" in err and rule in err
    assert not out.exists()


def test_scenario_at_the_work_caps_validates():
    """The caps are inclusive: MAX_GRID_POINTS points, MAX_LAMBDA_POINTS
    (lambda, grid point) pairs and MAX_REALITY_SAMPLES samples pass
    validation."""
    raw = json.loads((SCENARIOS / "one_soliton.json").read_text())
    raw["grid"] = [[-0.5, 0.5, cli.MAX_GRID_POINTS // 100], [-0.5, 0.5, 100]]
    raw["lambdas"] = [[1.0 + k / 10, 0.0] for k in range(cli.MAX_LAMBDA_POINTS // cli.MAX_GRID_POINTS)]
    raw["reality_samples"] = cli.MAX_REALITY_SAMPLES
    scenario = validate_scenario(raw)
    assert np.prod(scenario.grid.shape) == cli.MAX_GRID_POINTS
    assert len(scenario.lambdas) * cli.MAX_GRID_POINTS == cli.MAX_LAMBDA_POINTS
    assert scenario.reality_samples == cli.MAX_REALITY_SAMPLES


@pytest.mark.parametrize("alpha", [2000.0, 1e160, 1e200])
def test_pole_with_an_overflowing_seed_block_exits_3(tmp_path, capsys, monkeypatch, alpha):
    """A real one-pole alpha whose seed block e^{i lambda u} at +-i alpha
    overflows on one_soliton's grid exits 3 at validation, under warnings
    as errors, naming its rule; no frame is dressed."""
    def refuse(scenario):
        raise AssertionError("chain applied for a scenario with an overflowing pole")

    monkeypatch.setattr(cli, "apply_chain", refuse)
    raw = json.loads((SCENARIOS / "one_soliton.json").read_text())
    raw["chain"][0]["alpha"] = alpha
    path = write_scenario(tmp_path, raw)
    for command in ("verify", "sweep"):
        assert run_cli(command, path, tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert err.startswith("validation error: chain[0]: the seed block at the pole ")
        assert "(rule: the seed block is finite at every factor pole and its conjugate on the grid)" in err


def test_pole_with_a_finite_seed_block_validates():
    """alpha = 800 keeps e^{800 u} finite on [-0.5, 0.5]: validation
    passes it, and the solve refuses its condition later."""
    raw = json.loads((SCENARIOS / "one_soliton.json").read_text())
    raw["chain"][0]["alpha"] = 800.0
    validate_scenario(raw)


def _polynomial_seed(degree):
    """one_soliton's seed made polynomial: 1, 0.3/k and 0.7, 0.2/k up to
    ``degree`` on [-1, 1]."""
    return {"type": "polynomial", "profiles": [
        {"coeffs": [1.0] + [0.3 / k for k in range(1, degree + 1)], "domain": [-1.0, 1.0]},
        {"coeffs": [0.7] + [0.2 / k for k in range(1, degree + 1)], "domain": [-1.0, 1.0]}]}


def test_polynomial_seed_at_the_degree_cap_passes_the_frame_checks(tmp_path):
    """one_soliton's chain on a polynomial seed of degree
    MAX_POLYNOMIAL_DEGREE: the closed-form frame agrees with the RK4
    integration to the RK4 error, as on a cubic seed."""
    raw = json.loads((SCENARIOS / "one_soliton.json").read_text())
    raw["seed"] = _polynomial_seed(frames.MAX_POLYNOMIAL_DEGREE)
    out = tmp_path / "out"
    with redirect_stdout(io.StringIO()):
        assert run_cli("run", write_scenario(tmp_path, raw), out) == 0
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert checks["pde_frame"]["residual"] < 1e-9
    assert checks["path_independence"]["residual"] < 1e-11


def test_polynomial_seed_over_the_degree_cap_exits_3(tmp_path, capsys):
    raw = json.loads((SCENARIOS / "one_soliton.json").read_text())
    raw["seed"] = _polynomial_seed(frames.MAX_POLYNOMIAL_DEGREE + 1)
    # a zero leading coefficient does not count towards the degree
    raw["seed"]["profiles"][1]["coeffs"] = [0.7, 0.1] + [0.0] * 20
    assert run_cli("verify", write_scenario(tmp_path, raw), tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: seed.profiles[0]: polynomial profile of degree "
                          f"{frames.MAX_POLYNOMIAL_DEGREE + 1} (rule: degree at most "
                          f"{frames.MAX_POLYNOMIAL_DEGREE},")
