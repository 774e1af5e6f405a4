import json
from pathlib import Path

import numpy as np
import pytest

from dressing_forge.cli import (ValidationError, apply_chain, load_scenario,
                                main, validate_scenario)

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
], ids=["samples-text", "samples-negative", "tolerances-list", "tolerance-negative",
        "grid-points-text", "grid-two-points"])
def test_malformed_scenario_exits_3_naming_rule(tmp_path, capsys, overrides, rule):
    path = write_scenario(tmp_path, base_scenario(**overrides))
    assert run_cli("run", path, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "validation error" in err and rule in err


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


def test_seed_and_dress_commands(tmp_path, capsys):
    path = str(SCENARIOS / "one_soliton.json")
    out = tmp_path / "out"
    assert run_cli("seed", path, out) == 0
    assert (out / "seed_metric.csv").exists()
    assert run_cli("dress", path, out) == 0
    lines = (out / "metric.csv").read_text().strip().split("\n")
    assert len(lines) - 1 == 17 * 17
    assert "phi_closed" in lines[0]


def test_shipped_scenarios_verify(tmp_path):
    for name in ("flat_torus.json", "one_soliton.json", "spherical_soliton.json",
                 "breather_chain.json"):
        out = tmp_path / ("out_" + name)
        assert run_cli("verify", str(SCENARIOS / name), out) == 0, name


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


def test_apply_chain_matches_library(torus_frame):
    sc = load_scenario(str(SCENARIOS / "one_soliton.json"))
    frame = apply_chain(sc)
    u = np.array([0.3, -0.2])
    assert frame.h(u).shape == (2,)
    assert len(frame.history) == 1
