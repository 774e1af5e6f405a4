import copy
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

from dressing_forge import (ExtendedFrame, Grid, VacuumSeed, cli,
                            dress_extended, dress_real, dress_spherical,
                            dress_translation, dress_two_pole, max_abs,
                            metric_from_frame, potential_on_grid,
                            project_onto_span)
from dressing_forge.cli import (DEFAULT_TOLERANCES, REALITY_SAMPLE_SEED,
                                ValidationError, _reality_check, apply_chain,
                                export_metric_csv, load_scenario, main,
                                validate_scenario)

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
    of one call do not carry over to the next."""
    parser = cli.build_parser()
    a = parser.parse_args(["verify", "--scenario", "a.json", "--step", "0.5", "--out", "o"])
    b = parser.parse_args(["export", "--scenario", "b.json"])
    assert cli.build_parser() is parser
    assert (a.command, a.step, a.out) == ("verify", 0.5, "o")
    assert (b.command, b.scenario, b.step, b.tol_scale, b.out) == ("export", "b.json", None, 1.0, "out")


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
    ({"export": {"format": "csv", "fixed": [1]}}, "fixed maps axis indices < n"),
    ({"export": {"format": "csv", "fixed": {"a": 1}}}, "fixed maps axis indices < n"),
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
], ids=["samples-text", "samples-negative", "tolerances-list", "tolerance-negative",
        "grid-points-text", "grid-two-points", "lambdas-number", "lambda-nan",
        "lambda-bool", "fixed-list", "fixed-text-key", "alpha-nan", "coeff-nan",
        "coeff-inf", "second-coeff-nan", "coeff-bool", "sampled-value-bool",
        "domain-bool", "schema-version-bool", "export-path-list", "export-path-subdir",
        "export-path-empty"])
def test_malformed_scenario_exits_3_naming_rule(tmp_path, capsys, overrides, rule):
    path = write_scenario(tmp_path, base_scenario(**overrides))
    assert run_cli("run", path, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "validation error" in err and rule in err


@pytest.mark.parametrize("toggle, value", [("realty", False), ("permutability", True)],
                         ids=["misspelled", "sub-tolerance"])
def test_unknown_check_toggle_exits_3_naming_it(tmp_path, capsys, toggle, value):
    """A check toggle that names no check, a misspelling or a sub-tolerance
    of another check, is refused by name instead of being ignored."""
    path = write_scenario(tmp_path, base_scenario(checks={toggle: value}))
    assert run_cli("run", path, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert f"checks.{toggle}: unknown check toggle" in err


REAL_ONE_POLE = {"type": "real_one_pole", "alpha": 0.6, "span": [[[1.0, 0.0]], [[1.0, 0.0]]]}


@pytest.mark.parametrize("overrides", [
    {"grid": [[-0.5, 1e300, 7], [-0.5, 0.5, 7]], "chain": [REAL_ONE_POLE]},
    {"chain": [dict(REAL_ONE_POLE, alpha=1e300)]},
], ids=["grid-bound", "alpha"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_finite_numbers_that_overflow_exit_3(tmp_path, capsys, overrides):
    """Numbers that pass validation but overflow the frame evaluation end
    in the error exit, not in a traceback."""
    path = write_scenario(tmp_path, base_scenario(**overrides))
    assert run_cli("verify", path, tmp_path / "out") == 3
    assert "matrix entries must be finite" in capsys.readouterr().err


def test_spherical_violation_refused_names_condition(tmp_path, capsys):
    raw = base_scenario(chain=[{
        "type": "spherical", "alpha": 0.8,
        "span": [[[1.0, 0.0]], [[0.0, 0.0]]],  # image not orthogonal to h(0)
    }])
    path = write_scenario(tmp_path, raw)
    assert run_cli("verify", path, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "orthogonal to h(0)" in err


def test_check_failure_exit_code(tmp_path, capsys):
    raw = base_scenario(checks={"tolerances": {"reality": 1e-30}})
    path = write_scenario(tmp_path, raw)
    assert run_cli("verify", path, tmp_path / "out") == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False


def test_tol_scale_rescues_tight_tolerance(tmp_path):
    raw = base_scenario(checks={"tolerances": {"reality": 1e-16}})
    path = write_scenario(tmp_path, raw)
    assert run_cli("verify", path, tmp_path / "out") == 1
    assert run_cli("verify", path, tmp_path / "out2", "--tol-scale", "1e8") == 0


@pytest.mark.parametrize("flag, value", [
    ("--step", "0"), ("--step", "nan"), ("--step", "-0.01"), ("--step", "inf"),
    ("--step", "abc"), ("--tol-scale", "-1"), ("--tol-scale", "0"),
    ("--tol-scale", "nan"), ("--tol-scale", "inf"),
])
def test_nonpositive_or_nonfinite_flag_exits_2(tmp_path, capsys, flag, value):
    path = write_scenario(tmp_path, base_scenario())
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", path, tmp_path / "out", f"{flag}={value}")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
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


def test_step_too_small_for_rk4_exits_3(tmp_path, capsys):
    path = write_scenario(tmp_path, base_scenario())
    assert run_cli("verify", path, tmp_path / "out", "--step=5e-324") == 3
    err = capsys.readouterr().err
    assert "RK4 step 5e-324" in err and "Traceback" not in err


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
        export={"format": "obj", "lambda": [1.0, 0.0], "path": "surf.obj",
                "slice_axes": [0, 1], "obj_components": [0, 1]},
    )
    path = write_scenario(tmp_path, raw)
    out = tmp_path / "out"
    assert run_cli("export", path, out) == 0
    lines = (out / "surf.obj").read_text().strip().split("\n")
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 5 * 6
    assert len(faces) == 2 * 4 * 5


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
    """The lambda = 0 line reads the X the export computed: one evaluation
    per lambda value."""
    lams = []
    evaluate = ExtendedFrame.evaluate

    def spy(self, u, lam, depth=None):
        lams.append(lam)
        return evaluate(self, u, lam, depth)

    monkeypatch.setattr(ExtendedFrame, "evaluate", spy)
    assert run_cli("sweep", str(SCENARIOS / "flat_torus.json"), tmp_path / "out") == 0
    assert lams == [1.0, 0.5, 0.1, 0.0]
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
        monkeypatch.setattr(cli, "REALITY_CHUNK", chunk)
    scenario = load_scenario(str(SCENARIOS / f"{name}.json"))
    frame = apply_chain(scenario)
    samples, tau, sigma = _reality_by_sample(frame, scenario)
    calls = []
    evaluate = ExtendedFrame.evaluate

    def spy(self, u, lam, depth=None):
        if depth is None:
            calls.append((np.array(u), np.array(lam)))
        return evaluate(self, u, lam, depth)

    monkeypatch.setattr(ExtendedFrame, "evaluate", spy)
    report = _reality_check(frame, scenario, 1e-10)
    sigma_ok = all(rec.is_sigma_compatible for rec in frame.history)
    expected = []
    for start in range(0, len(samples), cli.REALITY_CHUNK):
        part = samples[start:start + cli.REALITY_CHUNK]
        U = np.array([u for u, _ in part])
        lams = np.array([lam for _, lam in part])
        expected += [(U, lams), (U, lams.conj())] + ([(U, -lams)] if sigma_ok else [])
    assert len(calls) == len(expected)
    for (u_call, lam_call), (u_expected, lam_expected) in zip(calls, expected):
        assert np.array_equal(u_call, u_expected) and np.array_equal(lam_call, lam_expected)
    assert abs(report["reality_tau"].residual - tau) <= 1e-15
    if sigma_ok:
        assert abs(report["reality_sigma"].residual - sigma) <= 1e-15
    else:
        assert "reality_sigma_skipped" in [c.name for c in report.checks]


def _leaves(node, path=()):
    """Paths to every scalar leaf of a JSON tree."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))}
LEAVES = [(name, path) for name, raw in SHIPPED.items() for path in _leaves(raw)]
REPLACEMENTS = ["text", True, False, float("nan"), float("inf"), [1.0], None, -1, -2.5]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(LEAVES), st.sampled_from(REPLACEMENTS))
def test_mutated_scenario_keeps_exit_code_contract(leaf, value):
    """One leaf of a shipped scenario replaced by a wrong-typed, non-finite
    or negative value: ``verify`` exits 0-3 without an uncaught exception,
    and exits 1 only when report.json holds a failed check."""
    name, path = leaf
    raw = copy.deepcopy(SHIPPED[name])
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(raw))
        out = Path(tmp) / "out"
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = run_cli("verify", str(scenario), out)
        assert code in (0, 1, 2, 3)
        if code in (0, 1):
            checks = json.loads((out / "report.json").read_text())["checks"]
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


# the radius overflows on purpose, so numpy's overflow warnings are expected
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_report_with_a_non_finite_residual_is_strict_json(tmp_path):
    """A seed radius of 1e300 makes some residuals NaN: report.json writes
    them as the string "nan", parses under a parser that refuses NaN and
    Infinity, and still fails the run."""
    raw = json.loads((SCENARIOS / "one_soliton.json").read_text())
    raw["seed"]["radii"] = [1e300, 1.0]
    out = tmp_path / "out"
    assert run_cli("run", write_scenario(tmp_path, raw), out) == 1

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    assert report["passed"] is False
    residuals = {c["name"]: c["residual"] for c in report["checks"]}
    assert residuals["lam=1/lagrangian_metric"] == "nan"
    assert residuals["potential_agreement"] == "nan"


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
    assert checks["darboux_egoroff_pair"]["details"]["symmetric_product"] is True


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


def test_lambda_on_pole_rejected(tmp_path):
    raw = base_scenario(
        lambdas=[[0.0, 0.6]],
        chain=[{"type": "real_one_pole", "alpha": 0.6,
                "span": [[[1.0, 0.0]], [[1.0, 0.0]]]}],
    )
    with pytest.raises(ValidationError, match="avoid"):
        validate_scenario(raw)


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
