import json
import subprocess
import sys

import pytest

from beamlab.cli import main
from beamlab.scenario import preset, scenario_to_json


def write_scenario(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(scenario_to_json(preset(name)))
    return path


def test_presets_command(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["exp1", "exp2_1", "exp2_2", "exp3", "exp4", "exp5_1", "exp5_2"]


def test_run_preset_writes_files(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--preset", "exp1", "--out", str(out_dir)]) == 0
    assert (out_dir / "frames.csv").exists()
    assert (out_dir / "provenance.json").exists()
    printed = capsys.readouterr().out
    assert "frames.csv" in printed


def test_run_scenario_file(tmp_path):
    path = write_scenario(tmp_path, "exp2_1")
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 0
    lines = (out_dir / "frames.csv").read_text().splitlines()
    assert len(lines) == 302


def test_run_stride_override(tmp_path):
    path = write_scenario(tmp_path, "exp2_1")
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir), "--stride", "10"]) == 0
    lines = (out_dir / "frames.csv").read_text().splitlines()
    assert len(lines) == 32  # header + 301 samples every 10th


def test_run_stride_override_in_provenance(tmp_path):
    out_dir = tmp_path / "out"
    assert main(["run", "--preset", "exp2_1", "--out", str(out_dir), "--stride", "10"]) == 0
    block = json.loads((out_dir / "provenance.json").read_text())
    assert "output.stride" not in block["defaults_applied"]
    assert block["stride"] == 10


def test_too_few_grid_nodes_exit_2(tmp_path, capsys):
    data = json.loads(scenario_to_json(preset("exp1")))
    data["grid"] = {"nodes": 3}
    path = tmp_path / "small.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "grid.nodes" in capsys.readouterr().err


def test_run_needs_exactly_one_source(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    assert main(["run", "--out", out_dir]) == 2
    path = write_scenario(tmp_path, "exp1")
    assert main(["run", str(path), "--preset", "exp1", "--out", out_dir]) == 2
    err = capsys.readouterr().err
    assert "exactly one" in err


def test_unknown_preset_exit_2(tmp_path, capsys):
    assert main(["run", "--preset", "exp99", "--out", str(tmp_path)]) == 2
    assert "exp99" in capsys.readouterr().err


def test_missing_file_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_invalid_scenario_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    text = scenario_to_json(preset("exp2_1")).replace('"dt": 0.05', '"dt": -0.05')
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err


def test_partial_time_step_exit_2(tmp_path, capsys):
    path = tmp_path / "partial.json"
    text = scenario_to_json(preset("exp2_1")).replace('"end": 15.0', '"end": 15.02')
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "whole number" in capsys.readouterr().err


def test_solver_error_exit_3(tmp_path, capsys):
    text = scenario_to_json(preset("exp1")).replace('"right": "pinned"', '"right": "free"')
    path = tmp_path / "under.json"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "rigid" in capsys.readouterr().err


def test_modal_command_output(capsys):
    assert main(["modal", "--preset", "exp1", "--modes", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mode_index,beta,omega_rad_s,f_hz"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[3]) > 0.0


def test_modal_from_file_uses_bearings(tmp_path, capsys):
    path = write_scenario(tmp_path, "exp1")
    assert main(["modal", str(path), "--modes", "1"]) == 0
    soft_f1 = float(capsys.readouterr().out.splitlines()[1].split(",")[3])
    assert soft_f1 < 1.0  # soft bearings: near-rigid bounce mode


def test_static_command(tmp_path):
    path = write_scenario(tmp_path, "exp3")
    out_dir = tmp_path / "out"
    assert main(["static", str(path), "--out", str(out_dir)]) == 0
    assert (out_dir / "frames.csv").exists()


def test_static_command_rejects_other_solver(tmp_path, capsys):
    path = write_scenario(tmp_path, "exp2_1")
    assert main(["static", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "solver 'quasi_static'" in capsys.readouterr().err


def test_sweep_command_rejects_other_solver(tmp_path, capsys):
    path = write_scenario(tmp_path, "exp1")
    assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "solver 'static'" in capsys.readouterr().err


def test_sweep_command_runs_small_case(tmp_path):
    import json

    data = json.loads(scenario_to_json(preset("exp5_1")))
    # frequencies well below resonance so a short settle window suffices
    data["grid"] = {"nodes": 21}
    data["sweep"] = {
        "f_min": 2.0,
        "f_max": 3.0,
        "f_count": 2,
        "settle_periods": 4,
        "measure_periods": 3,
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(data))
    out_dir = tmp_path / "out"
    assert main(["sweep", str(path), "--out", str(out_dir)]) == 0
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == "f_hz,amplitude_m"
    assert len(lines) == 3


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["run"])  # --out is required
    assert excinfo.value.code == 2


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "beamlab.cli", "presets"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "exp1" in proc.stdout.splitlines()
