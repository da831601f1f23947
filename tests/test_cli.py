import json
import os
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


@pytest.mark.parametrize("name", ["exp1", "exp3", "exp4", "exp5_1"])
def test_stride_on_runs_without_time_series_exit_2(tmp_path, capsys, name):
    # static, nonlinear and sweep runs record no time series to stride
    out_dir = tmp_path / "out"
    assert main(["run", "--preset", name, "--out", str(out_dir), "--stride", "10"]) == 2
    solver = preset(name).solver
    assert f"stride 10 given, but solver '{solver}' records no time series" in (
        capsys.readouterr().err
    )
    assert not out_dir.exists()


def test_system_run_with_grid_exit_2(tmp_path, capsys):
    data = json.loads(scenario_to_json(preset("exp5_2")))
    data["grid"] = {"nodes": 201}
    path = tmp_path / "gridded.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "'grid' given, but solver 'dynamic' never reads it" in capsys.readouterr().err


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
    assert capsys.readouterr().err == (
        "error: scenario 'exp2_1' has solver 'quasi_static'; this command runs "
        "solver 'static'\n"
    )
    assert not (tmp_path / "out").exists()


def test_sweep_command_rejects_other_solver(tmp_path, capsys):
    path = write_scenario(tmp_path, "exp1")
    assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: scenario 'exp1' has solver 'static'; this command runs solver 'sweep'\n"
    )
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("solver", ["modal", "sweep"])
def test_probes_on_frameless_runs_exit_2(tmp_path, capsys, solver):
    data = json.loads(scenario_to_json(preset("exp5_1")))
    data["solver"] = solver
    if solver == "modal":
        for block in ("loads", "grid", "integrator", "sweep"):
            del data[block]  # a modal run reads none of them
    data["probes"] = [5.0]
    path = tmp_path / "probed.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "'probes'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_block_the_solver_never_reads_exit_2(tmp_path, capsys):
    data = json.loads(scenario_to_json(preset("exp1")))
    data["time"] = {"end": 1.0, "dt": 0.01}
    path = tmp_path / "timed_static.json"
    path.write_text(json.dumps(data))
    assert main(["static", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "'time' given, but solver 'static' never reads it" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_constructor_error_names_its_block_exit_2(tmp_path, capsys):
    data = json.loads(scenario_to_json(preset("exp1")))
    data["beam"]["length"] = -1.0
    path = tmp_path / "negative_length.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "'beam': length must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_moving_load_before_time_zero(tmp_path):
    # the load sits at x0 + speed*t: short of the span while t < 0, and on
    # the pinned node 0 at t = 0, so no free node is pushed until t > 0
    data = {
        "schema": "beamlab/1",
        "name": "early_start",
        "solver": "dynamic",
        "beam": {
            "length": 10.0,
            "width": 0.2,
            "height": 0.4,
            "elastic_modulus": 25e9,
            "density": 2500.0,
        },
        "bc": {"left": "pinned", "right": "pinned"},
        "loads": [{"type": "moving_point", "p": 20000.0, "speed": 25.0, "x0": 0.0}],
        "grid": {"nodes": 21},
        "time": {"start": -0.02, "end": 0.04, "dt": 0.001},
        "integrator": {"rayleigh": {"zeta1": 0.02}},
    }
    path = tmp_path / "early.json"
    path.write_text(json.dumps(data))
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 0
    rows = [
        [float(cell) for cell in line.split(",")]
        for line in (out_dir / "frames.csv").read_text().splitlines()[1:]
    ]
    assert len(rows) == 61
    before = [row[1:] for row in rows if row[0] <= 0.0]
    after = [row[1:] for row in rows if row[0] > 0.0]
    assert len(before) == 21
    assert all(value == 0.0 for row in before for value in row)
    assert any(value != 0.0 for value in after[0])


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


# SHA-256 of every file `beamlab run --preset NAME` writes and of the stdout
# of three `beamlab modal` runs, recorded before the step loop, the root scan
# and the CSV writer were rewritten for speed.  They pin the outputs bit for
# bit, so they hold for one build: numpy 2.4.6 and scipy 1.17.1 with OpenBLAS
# on x86-64, one BLAS thread (the static solves of exp1 and exp3 change in the
# last bits with the thread count).  A different BLAS or CPU may change them
# legitimately; a code change that moves them changes results.  The exp5_1
# provenance was re-recorded when its preset dropped `probes`, which a sweep
# does not take: `defaults_applied` now records `"probes": []`.  The three
# modal runs and the exp5_1 provenance (its `first_mode_hz_analytic`) were
# re-recorded when root refinement moved from bisection to Brent's method:
# the roots moved by at most 4e-11 relative, within the 1e-10/L tolerance.
# The exp5_2 frames were re-recorded when mass-spring runs moved from the
# coupled LU step loop to the per-axis modal recurrence: 8792 of 10001 x cells
# moved, by at most 1.7e-15 of the peak; the y column stayed exactly 0.0.
# They were re-recorded again when the recurrence came to step about
# sqrt(steps) blocks of the time axis at once: 9803 of 10001 x cells moved,
# by at most 7.9e-15 of the peak; the y column stayed exactly 0.0.
# Every provenance was re-recorded when `defaults_applied` came to list only
# the fields of the blocks the run reads: exp1, exp3, exp4 and exp5_1 record
# none, exp2_1 and exp2_2 only `output.stride`, and exp5_2 no `grid.nodes` or
# `probes`; every other provenance entry is unchanged.
RECORDED_DIGESTS = {
    "exp1/frames.csv": "007ed26609e31edd02cb93d335bc28dbcc6c417b4639de4d4859c9bf0650cc22",
    "exp1/probes.csv": "8b233cf526504a8ec945eba3cbd8e0960521ec6b7584fc3672299694d2bfef1a",
    "exp1/provenance.json": "2a39fe57e13add82215f8af07afb0c0e86af03ee548a810209906cb7d71ab73c",
    "exp2_1/frames.csv": "957c56a3bba75e4a0ea6d668bdc5bdd75083ff93e0efec4e642af5e35ce52745",
    "exp2_1/probes.csv": "f0fbddf933c55957ab015d5aa35704f0d0f5a3bdcca77313acb07ecfea22bf5c",
    "exp2_1/provenance.json": "8111ada48142710537d3783967b46d2a50bb9c7545cff995b6bdf1f06b3d0c44",
    "exp2_2/frames.csv": "e77ab3c9ec10878ca5522be5ed956fbb7b2b1c3b8edefcc2d50c359a4750844b",
    "exp2_2/probes.csv": "b9ccd1ab82765d43f6bef4d7c62ea407934eb4f827d2035ffd46e18b324d2fbc",
    "exp2_2/provenance.json": "e264fc32481b2ff9dcb31ec5113357d9433a958bcece018303789c6ac4e036dd",
    "exp3/frames.csv": "4bf61a5148303d2a32792f3844a874bbf30681384be3231969d43b304816625d",
    "exp3/probes.csv": "6056f232e39c83560876759558a56b7a80cf4c3cdf6af55f996ffbe4e53edcaa",
    "exp3/provenance.json": "19f02abab38b2858ee49e2e05bf33bc6b1779b5f8156beb97f55c29bb421d3a9",
    "exp4/frames.csv": "2c445a3b9f4baf3ae25618d6d8a0a0c14001d39a96c2829ac7a576d870e1d565",
    "exp4/loadcurve.csv": "6900a59f4100daa16440bb2f992063052e646fe6119af144adb8e8714fc95422",
    "exp4/probes.csv": "284494e6bd0358f56b5610098410923dea77498b79dc32b23c9d5f136f095661",
    "exp4/provenance.json": "465aa1075b72991606aedcdbaf23b0a30079b2c8c5a3a7d4aa3d9c72e37736c0",
    "exp5_1/provenance.json": "bddd80f2efd520e0513aec1098d8dc604fe05c7e808cbab04161ce025becbf34",
    "exp5_1/sweep.csv": "da540a09a39b4987b91f3987f04d08d67e927602983608dad0162002612259a7",
    "exp5_2/frames.csv": "3c79d91b2c26d306c49327382efa353b1e21e62e5c4b69915e26c67c4d009f9c",
    "exp5_2/probes.csv": "c89980a9f932f22e14a31a7b5bd5b19d88e5ffab6614a14c0a502368235e70fd",
    "exp5_2/provenance.json": "b37ba33e77c86f57b0a7c1297c6a6c16bcd15f4da3fa9b294e82564654d8c42d",
    "modal exp3 3": "383392de8eb32b8093784bbdf700e5ce3e865e2a2e62e85ca72d8a00215bd2f2",
    "modal exp2_1 50": "fff95e2d7b47d3028836db77547350619f0cd3873f101c48b851ded0d0c6ee18",
    "modal exp1 5": "51c5fda666cbd79e1759cc24e33c11bc657553d7091a4cdd004b7fb6899c643c",
}

DIGEST_SCRIPT = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from beamlab.cli import main
from beamlab.scenario import PRESET_NAMES
out, digests = Path(sys.argv[1]), {}
for name in PRESET_NAMES:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--preset", name, "--out", str(out / name)]) == 0
    for path in sorted((out / name).iterdir()):
        digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
for name, modes in (("exp3", 3), ("exp2_1", 50), ("exp1", 5)):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["modal", "--preset", name, "--modes", str(modes)]) == 0
    digests[f"modal {name} {modes}"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
print(json.dumps(digests))
"""


def run_digests(script, *args, threads=1):
    """Run `script` in a subprocess with `threads` BLAS threads; its JSON stdout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_preset_outputs_match_recorded_digests(tmp_path):
    assert run_digests(DIGEST_SCRIPT, tmp_path) == RECORDED_DIGESTS


#: Outputs of dense static solves, whose last bits change with the BLAS
#: thread count.  No other output may depend on it.
THREAD_DEPENDENT = ("exp1/frames.csv", "exp1/probes.csv", "exp3/frames.csv", "exp3/probes.csv")


def test_outputs_without_dense_solves_match_at_two_threads(tmp_path):
    digests = run_digests(DIGEST_SCRIPT, tmp_path, threads=2)
    for key in THREAD_DEPENDENT:
        del digests[key]
    assert digests == {k: v for k, v in RECORDED_DIGESTS.items() if k not in THREAD_DEPENDENT}


# No preset runs a beam `dynamic` scenario, so this one pins that path: a
# damped pinned beam under a uniform, a harmonic and a moving load, with a
# stride and two probes.  Digests recorded as RECORDED_DIGESTS above, before
# the frames and probes writers were merged into one.
BEAM_DYNAMIC = {
    "schema": "beamlab/1",
    "name": "beam_dynamic",
    "solver": "dynamic",
    "beam": {
        "length": 10.0,
        "width": 0.2,
        "height": 0.4,
        "elastic_modulus": 25e9,
        "density": 2500.0,
    },
    "bc": {"left": "pinned", "right": "pinned"},
    "loads": [
        {"type": "udl", "q": 2000.0},
        {"type": "harmonic_point", "p0": 5000.0, "f_hz": 4.0, "position": 4.0},
        {"type": "moving_point", "p": 20000.0, "speed": 25.0, "x0": 0.5},
    ],
    "grid": {"nodes": 41},
    "time": {"start": 0.0, "end": 0.2, "dt": 0.0005},
    "integrator": {"rayleigh": {"zeta1": 0.02}},
    "probes": [2.5, 6.0],
    "output": {"stride": 4},
}

BEAM_DYNAMIC_DIGESTS = {
    "frames.csv": "aa15fce124476960d970b4476669cab46e64d8f7082ac8bc17559e1a98e6c5cd",
    "probes.csv": "97a76fdd6fc9a4ad90460c33cc126de9e230b5ef0aa380d99e0648c617f0423b",
    "provenance.json": "375b9c0874528744dc56056061cf107cf7522582753d4f21167ac9aa4b914cbe",
}

BEAM_DYNAMIC_SCRIPT = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from beamlab.cli import main
work = Path(sys.argv[1])
(work / "scenario.json").write_text(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run", str(work / "scenario.json"), "--out", str(work / "out")]) == 0
print(json.dumps({
    path.name: hashlib.sha256(path.read_bytes()).hexdigest()
    for path in sorted((work / "out").iterdir())
}))
"""


def test_beam_dynamic_outputs_match_recorded_digests(tmp_path):
    digests = run_digests(BEAM_DYNAMIC_SCRIPT, tmp_path, json.dumps(BEAM_DYNAMIC))
    assert digests == BEAM_DYNAMIC_DIGESTS
