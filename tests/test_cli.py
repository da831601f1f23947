import ast
import copy
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from beamlab import dynamics, modal, scenario
from beamlab.cli import main
from beamlab.model import SolverError, SpatialGrid, ValidationError
from beamlab.scenario import MAX_MODES, preset, scenario_to_dict, scenario_to_json
from beamlab.statics import beam_factor, trapezoid_weights


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


def test_stride_below_one_exit_2(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--preset", "exp2_1", "--out", str(out_dir), "--stride", "0"]) == 2
    assert capsys.readouterr().err == "error: output.stride must be >= 1, got 0\n"
    assert not out_dir.exists()


def test_modal_of_a_beamless_scenario_exit_2(capsys):
    assert main(["modal", "--preset", "exp5_2", "--modes", "3"]) == 2
    assert capsys.readouterr() == ("", "error: modal analysis requires a beam block\n")


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


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff" + scenario_to_json(preset("exp1")).encode(), "scenario is not UTF-8"),
        (b"[" * 200_000, "scenario nests its JSON arrays or objects too deeply"),
    ],
    ids=["not_utf8", "nested_too_deep"],
)
def test_unreadable_scenario_bytes_exit_2(tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    proc = subprocess.run(
        [sys.executable, "-m", "beamlab.cli", "run", str(path), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith(f"error: {message}")


def test_partial_time_step_exit_2(tmp_path, capsys):
    path = tmp_path / "partial.json"
    text = scenario_to_json(preset("exp2_1")).replace('"end": 15.0', '"end": 15.02')
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "whole number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["exp1", "beam_dynamic", "exp5_1"], ids=["static", "dynamic", "sweep"]
)
def test_rigid_body_ends_exit_2_at_parse(tmp_path, capsys, entered, name):
    # every beam run that needs both rigid-body modes held refuses at parse,
    # naming bc, with the one text of BoundarySpec.rigid_body_warning
    base = BEAM_DYNAMIC if name == "beam_dynamic" else scenario_to_dict(preset(name))
    path = tmp_path / "under.json"
    path.write_text(json.dumps({**base, "bc": {"left": "pinned", "right": "free"}}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not entered
    refusal = "end conditions pinned-free leave rigid-body modes free"
    assert capsys.readouterr().err == f"error: 'bc': {refusal}\n"


def test_output_path_an_existing_file_exit_1(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", "--preset", "exp1", "--out", str(taken)]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 17] File exists")


def test_mode_count_above_the_ceiling_exit_2(monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("the root scan ran")

    monkeypatch.setattr(modal, "find_beta_roots", unreachable)
    assert main(["modal", "--preset", "exp3", "--modes", str(MAX_MODES + 1)]) == 2
    assert capsys.readouterr().err == (
        f"error: mode count must be in [1, {MAX_MODES}], got {MAX_MODES + 1}\n"
    )


def test_sweep_at_extreme_lengths_exits_cleanly(tmp_path, monkeypatch, capsys):
    # exp5_1, its load at midspan, at beam.length 1e-110..1e110: where the
    # sweep's eigenvalues leave the floats, parse refuses the length
    entered = []
    stepper = dynamics._modal_chunks

    def counted(*args):
        entered.append(args)
        return stepper(*args)

    monkeypatch.setattr(dynamics, "_modal_chunks", counted)
    data = json.loads(scenario_to_json(preset("exp5_1")))
    passed = []
    for k in range(-110, 111, 5):
        data["beam"]["length"] = 10.0**k
        data["loads"][0]["position"] = 10.0**k / 2
        path = tmp_path / f"length{k}.json"
        path.write_text(json.dumps(data))
        entered.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", str(path), "--out", str(tmp_path / f"out{k}")])
        err = capsys.readouterr().err
        assert code in (0, 2, 3) and not caught and len(err.splitlines()) <= 1, (k, err)
        if k <= -75 or k >= 85:
            assert code == 2 and err.startswith("error: 'beam.length': "), (k, err)
        if code == 2:
            assert not entered, k
        if code == 0:
            passed.append(k)
    assert passed == list(range(-70, 1, 5))


@pytest.mark.parametrize(
    "name, first",
    # the first exponent each runs at: the bound's margin over the closed
    # forms (3 to 76.8) costs exp1 two decades and the others one
    [("exp1", -297), ("exp2_1", -298), ("exp2_2", -298), ("exp3", -298), ("exp4", -296)],
)
def test_tiny_elastic_modulus_exits_cleanly(tmp_path, monkeypatch, capsys, name, first):
    # static, quasi-static and nonlinear runs at beam.elastic_modulus
    # 1e-320..1e-290: where their static deflection could overflow, parse
    # refuses the modulus, where the solver once overflowed with warnings
    entered = []
    for kind, (*row, runner) in scenario._KINDS.items():
        monkeypatch.setitem(
            scenario._KINDS, kind, (*row, lambda s, runner=runner: entered.append(s) or runner(s))
        )
    data = json.loads(scenario_to_json(preset(name)))
    passed = []
    for k in range(-320, -289):
        data["beam"]["elastic_modulus"] = float(f"1e{k}")
        path = tmp_path / "modulus.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / f"out{-k}"
        entered.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", str(path), "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert not caught, (k, [str(w.message) for w in caught])
        if code == 0:
            assert err == ""
            for csv in out_dir.glob("*.csv"):
                text = csv.read_text()
                assert "nan" not in text and "inf" not in text, (k, csv)
            passed.append(k)
            continue
        assert code == 2 and not entered and not out_dir.exists(), (k, err)
        (line,) = err.splitlines()
        assert "elastic_modulus" in line, (k, line)
        if k >= -318:  # below, derive_section refuses the wave coefficient
            assert line.startswith("error: 'beam.elastic_modulus' 1e"), (k, line)
    assert passed == list(range(first, -289))


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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("width", 5e-324, "'beam': the section area of width 5e-324, height 0.4"),
        (
            "density",
            5e-324,
            "'beam': the mass per length of density 5e-324, width 0.2, height 0.4",
        ),
        ("height", 1e300, "'beam': the second moment of area of width 0.2, height 1e+300"),
        ("length", 1e300, "'beam.length': 1/spacing^2 of length 1e+300 over 201 nodes"),
    ],
    ids=["subnormal_width", "subnormal_density", "huge_height", "huge_length"],
)
def test_section_out_of_range_exit_2(tmp_path, key, value, message):
    # an overflow or underflow in a derived quantity names its fields at
    # parse, where it once crashed the solver with a traceback
    data = json.loads(scenario_to_json(preset("exp1")))
    data["beam"][key] = value
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-m", "beamlab.cli", "run", str(path), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line == f"error: {message} is not a finite nonzero number"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ends", ["pinned pinned", "clamped free"])
@pytest.mark.parametrize("length", [1e-300, 1e-150, 1e-120, 1e120, 1e150, 1e300])
def test_modal_extreme_length_exits_cleanly(tmp_path, ends, length):
    # the root scan's beta^3 once left the float range at such lengths: the
    # SVD of a NaN matrix crashed with a traceback and exit 1, or overflow
    # warnings were printed on the way to exit 0
    left, right = ends.split()
    data = {
        "schema": "beamlab/1",
        "name": "extreme",
        "solver": "modal",
        "beam": scenario_to_dict(preset("exp1"))["beam"] | {"length": length},
        "bc": {"left": left, "right": right},
    }
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-m", "beamlab.cli", "run", str(path), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    if proc.returncode == 0:
        assert proc.stderr == ""
        return
    assert proc.returncode in (2, 3)
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and f"beam.length {length!r}" in line


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
# They were re-recorded again when the recurrence came to step the time axis
# in blocks, then sqrt(steps) of them: 9803 of 10001 x cells moved,
# by at most 7.9e-15 of the peak; the y column stayed exactly 0.0.
# Every provenance was re-recorded when `defaults_applied` came to list only
# the fields of the blocks the run reads: exp1, exp3, exp4 and exp5_1 record
# none, exp2_1 and exp2_2 only `output.stride`, and exp5_2 no `grid.nodes` or
# `probes`; every other provenance entry is unchanged.  exp5_1/sweep.csv and
# exp5_2/frames.csv were re-recorded when the modal recurrence came to step
# one block of phase-shifted rows: the amplitudes moved by at most 1.31e-13
# relative and the frames by at most 9.5e-16 of their peak.  exp5_1/sweep.csv
# was re-recorded when sweeps came to take their modes from the SVD of the
# stiffness factor rather than a dense eigh of (K, M): the amplitudes moved by
# at most 7.1e-11 relative, and they no longer change with the thread count.
# exp5_1/sweep.csv was re-recorded when mirror-symmetric sweeps came to skip
# the modes antisymmetric about midspan: 10 of 30 amplitudes moved, by at most
# 3.8e-16 relative.  exp5_1/sweep.csv and exp5_2/frames.csv were re-recorded
# when the recurrence's block length came to balance the cost of a step
# against a block's stitch, about sqrt(2*steps) blocks rather than
# sqrt(steps): 29 of 30 amplitudes moved, by at most 1.3e-14 relative, and
# 9491 of 10001 x cells, by at most 2.1e-15 of the peak; the y column stayed
# exactly 0.0.  The three modal runs were re-recorded when root refinement
# moved from Brent's method to stacked rounds of secant, side and midpoint
# determinants: the largest relative moves of beta, and of omega and f_hz,
# are 1.9e-11 and 3.9e-11 for `modal exp1 5` (spring ends), 4.8e-13 and
# 9.6e-13 for `modal exp3 3` and 1.3e-12 and 2.6e-12 for `modal exp2_1 50`,
# whose pinned-pinned roots now lie within 2.6e-16 of n*pi/L (1.3e-12
# before).  The exp5_1 provenance, whose `first_mode_hz_analytic` is a
# pinned-pinned root, did not move.
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
    "exp5_1/sweep.csv": "8db61061fa6aabe4e2f7aab2acf651728483b0cae905ff1e2ca8750ad3ede0e1",
    "exp5_2/frames.csv": "318a2f3da3c633888d9329f3f50c12541a20024ffafa98742100018a395e4ad3",
    "exp5_2/probes.csv": "c89980a9f932f22e14a31a7b5bd5b19d88e5ffab6614a14c0a502368235e70fd",
    "exp5_2/provenance.json": "b37ba33e77c86f57b0a7c1297c6a6c16bcd15f4da3fa9b294e82564654d8c42d",
    "modal exp3 3": "07bbcf519dedaeedf2d9071063385313746b6699d3a6494134b0d30f7893d338",
    "modal exp2_1 50": "4a6551be459dfe21dcf4419be366fc327a7dfeb3e0026a48860db619eb95856a",
    "modal exp1 5": "597588cb30d050b287e5def80e66c57170f6bcf6eba646db9bf38b052168c1e3",
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


@pytest.fixture
def entered(monkeypatch):
    """The scenarios that reached a runner, each runner wrapped to record it."""
    calls = []
    for kind, (*row, runner) in scenario._KINDS.items():
        monkeypatch.setitem(
            scenario._KINDS, kind, (*row, lambda s, runner=runner: calls.append(s) or runner(s))
        )
    return calls


def unclean_ends(data, entered) -> list[str]:
    """What went wrong when `data` was parsed, run and, with a beam, solved
    for its modes: a ValidationError once a runner had started or from the
    modal solve, and every warning.  A refusal at parse and a SolverError
    are clean ends."""
    entered.clear()
    failures = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            s = scenario.scenario_from_dict(data)
        except ValidationError:
            s = None
        if s is not None:
            try:
                scenario.run_scenario(s)
            except ValidationError as exc:
                if entered:
                    failures.append(f"refused after its runner started: {exc}")
            except SolverError:
                pass
        if s is not None and s.beam is not None:
            # the modal solve reads modal_only.bearing_k, which no run does
            try:
                scenario.modal_results(s)
            except ValidationError as exc:
                failures.append(f"modal solve refused: {exc}")
            except SolverError:
                pass
    return failures + [f"{w.category.__name__}: {w.message}" for w in caught]


# Each numeric leaf of each preset and of BEAM_DYNAMIC is set, one at a
# time, to each of these: floats at and near both ends of the range, a
# negative one, and an integer that no float holds.
EXTREMES = (5e-324, 1e-300, 1e-150, 1e-30, 1e30, 1e150, 1e300, -1e300, 2**53 + 1)


def numeric_paths(tree, path=()):
    """The key path of each number in a decoded JSON tree, depth first."""
    if isinstance(tree, (dict, list)):
        for key, value in tree.items() if isinstance(tree, dict) else enumerate(tree):
            yield from numeric_paths(value, (*path, key))
    elif isinstance(tree, (int, float)):
        yield path


#: Spring ends, which no preset has, for the runs that take any ends: a
#: static run, a sweep and a beam dynamic run, each also fuzzed on these.
SPRING_ENDS = {
    "springs": {"left": "spring", "right": "spring", "k": 1e6},
    "spring_pinned": {"left": "spring", "right": "pinned", "k": 1e6},
    "clamped_spring": {"left": "clamped", "right": "spring", "k": 1e6},
}


@pytest.mark.parametrize(
    "name",
    [
        *scenario.PRESET_NAMES,
        "beam_dynamic",
        *(f"{run}-{ends}" for run in ("exp1", "exp5_1", "beam_dynamic") for ends in SPRING_ENDS),
    ],
)
def test_extreme_values_refused_at_parse_or_run_cleanly(entered, name):
    # an input the solvers cannot honour is refused at parse, naming a field,
    # before any runner starts; every other run returns or raises a
    # SolverError, and none overflows on the way
    run, _, ends = name.partition("-")
    base = BEAM_DYNAMIC if run == "beam_dynamic" else scenario_to_dict(preset(run))
    if ends:
        base = {**base, "bc": SPRING_ENDS[ends]}
    failures = []
    for path in numeric_paths(base):
        for value in EXTREMES:
            data = copy.deepcopy(base)
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            case = f"{'.'.join(map(str, path))}={value!r}"
            failures += [f"{case}: {failure}" for failure in unclean_ends(data, entered)]
    assert not failures, "\n".join(failures)


#: Shifts of a run's whole time window, in s.
TIME_SHIFTS = (1e6, 1e12, 1e15, 2.0**53)


@pytest.mark.parametrize("name", ["exp2_1", "exp2_2", "exp5_2", "beam_dynamic"])
def test_shifted_time_window_refused_at_parse_or_run_cleanly(entered, name):
    # each extreme time.start above leaves end <= start and is refused at
    # parse; here start and end move together, so the runs step far from t = 0
    base = BEAM_DYNAMIC if name == "beam_dynamic" else scenario_to_dict(preset(name))
    sin_cos, reached = dynamics._sin_cos, dict.fromkeys(TIME_SHIFTS, 0.0)

    def recorded(phase):  # the most quarter turns in a phase, per shift
        turns = float(np.max(np.abs(phase))) / (math.pi / 2)
        reached[shift] = max(reached[shift], turns)
        return sin_cos(phase)

    failures = []
    with mock.patch.object(dynamics, "_sin_cos", recorded):
        for shift in TIME_SHIFTS:
            data = copy.deepcopy(base)
            data["time"]["start"] += shift
            data["time"]["end"] += shift
            failures += [f"shift {shift!r}: {fault}" for fault in unclean_ends(data, entered)]
    assert not failures, "\n".join(failures)
    if name == "exp5_2":  # from 1e12 s on, its block phases take the direct call
        assert reached[1e6] < dynamics._EXACT_TURNS <= min(reached[1e12], reached[1e15])


@pytest.mark.parametrize(
    "bc",
    [
        {"left": "pinned", "right": "pinned"},
        {"left": "clamped", "right": "free"},
        {"left": "clamped", "right": "clamped"},
        {"left": "spring", "right": "spring", "k": 1.0},
        {"left": "spring", "right": "pinned", "k": 1.0},
        {"left": "clamped", "right": "spring", "k": 1e-300},
    ],
    ids=["pinned", "cantilever", "clamped", "springs", "spring_pinned", "clamped_spring"],
)
@pytest.mark.parametrize("name", ["beam_dynamic", "exp5_1"])
def test_rayleigh_damping_bound_holds_at_any_ends(entered, name, bc):
    # zeta1 from 1e296 to 1e301 in quarter decades, where b*K overflows:
    # the parse bound takes omega1 no higher than a cantilever's, or than the
    # beam's on its springs, so each is refused at parse or runs cleanly
    base = BEAM_DYNAMIC if name == "beam_dynamic" else scenario_to_dict(preset(name))
    data = {**copy.deepcopy(base), "bc": bc}
    failures = []
    for quarter in range(4 * 296, 4 * 301 + 1):
        data["integrator"]["rayleigh"]["zeta1"] = zeta1 = 10.0 ** (quarter / 4)
        if quarter == 4 * 296:  # far enough from overflow to run
            scenario.scenario_from_dict(data)
        failures += [f"zeta1 {zeta1!r}: {failure}" for failure in unclean_ends(data, entered)]
    assert not failures, "\n".join(failures)


#: Spring ends of one stiffness bc.k, set by each test.
SPRINGS = {"left": "spring", "right": "spring", "k": 1.0}


def test_every_field_a_bound_names_exists(monkeypatch):
    # a refused bound names the fields its value is built from, leaving out
    # any name the run does not serialize: so each name must be a leaf of
    # some run, or a renamed field would silently drop out of the message
    named, labels = set(), set()
    finite = scenario.Scenario._finite

    def spy(s, label, quantity, names, *values):
        labels.add(label)
        named.update(names.split())
        return finite(s, label, quantity, names, *values)

    monkeypatch.setattr(scenario.Scenario, "_finite", spy)
    runs = [scenario_to_dict(preset(name)) for name in scenario.PRESET_NAMES] + [BEAM_DYNAMIC]
    # the kinds whose ends are not fixed, on spring ends
    runs += [
        {**data, "bc": {**SPRINGS, "k": 1e6}}
        for data in runs
        if data["solver"] in ("static", "dynamic", "sweep") and "bc" in data
    ]
    leaves = set()
    for data in runs:
        leaves.update(scenario._leaves(scenario_to_dict(scenario.scenario_from_dict(data))))
    bounds = {"beam", "integrator.rayleigh.zeta1", "system.mass", "sweep.f_min", "material.E"}
    assert labels == bounds
    assert "bc.k" in named and not named - leaves, sorted(named - leaves)


#: The first decade of bc.k that a damped beam dynamic run on the reference
#: beam admits on springs that bear its first mode: k*dx^3/(EI*(n-1)) reaches
#: MIN_SPRING_RATIO (1e-11) at 0.68 N/m at 41 nodes, 427 N/m at 201 and
#: 1.1e5 N/m at 801.  A sweep takes them all.
SOFT_DECADE = {41: 0, 201: 3, 801: 6}


@pytest.mark.parametrize(
    "name, nodes, first",
    # the first decade of bc.k at which k*dx^3/EI on the reference beam
    # passes MAX_SPRING_RATIO (1e3): 1.7e12 N/m at 41 nodes, 2.1e14 N/m at
    # 201 and 1.4e16 N/m at 801
    [
        ("exp5_1", 41, 13),
        ("exp5_1", 201, 15),
        ("beam_dynamic", 41, 13),
        ("beam_dynamic", 201, 15),
        ("beam_dynamic", 801, 17),
    ],
)
def test_stiff_spring_ends_refused_at_parse(entered, name, nodes, first):
    # a sweep or a damped beam dynamic run fits its first mode, which springs
    # far stiffer than EI/dx^3 leave to rounding: each decade of bc.k from the
    # first admitted one to below the bound parses, and each from it on is
    # refused naming bc.k
    base = BEAM_DYNAMIC if name == "beam_dynamic" else scenario_to_dict(preset(name))
    data = {**copy.deepcopy(base), "bc": dict(SPRINGS), "grid": {"nodes": nodes}}
    start = SOFT_DECADE[nodes] if name == "beam_dynamic" else 0
    for exponent in [*range(start, 41), 100, 300, 308]:
        data["bc"]["k"] = float(f"1e{exponent}")
        if exponent < first:
            scenario.scenario_from_dict(data)
            continue
        with pytest.raises(ValidationError, match=r"^'bc\.k' [^:]+: k\*dx\^3/EI at grid\.nodes "):
            scenario.scenario_from_dict(data)
    if nodes == 41:  # either side of the bound, and far past it, ends cleanly
        for exponent in (first - 1, first, 18, 28, 38, 300):
            data["bc"]["k"] = float(f"1e{exponent}")
            assert not unclean_ends(data, entered), exponent


@pytest.mark.parametrize("nodes", [41, 201, 801])
@pytest.mark.parametrize("right", ["spring", "pinned"])
def test_soft_spring_ends_refused_at_parse(entered, nodes, right):
    # a damped beam dynamic run fits its first mode by a dense eigh, which
    # resolves it only to about eps times the largest eigenvalue: so springs
    # that bear that mode, far softer than EI/dx^3 over n - 1, leave it to
    # rounding.  Each decade of bc.k below the first admitted one is refused
    # naming bc.k, and that one parses with omega1 within the 1.7e-4 of the
    # factor SVD's that the stiff bound accepts
    bc = {**SPRINGS, "right": right}
    data = {**copy.deepcopy(BEAM_DYNAMIC), "bc": bc, "grid": {"nodes": nodes}}
    first = SOFT_DECADE[nodes]
    bound = r"^'bc\.k' [^:]+: k\*dx\^3/\(EI\*\(n-1\)\) at grid\.nodes "
    for exponent in [-308, -300, -100, *range(-40, first)]:
        bc["k"] = float(f"1e{exponent}")
        with pytest.raises(ValidationError, match=bound):
            scenario.scenario_from_dict(data)
    bc["k"] = 10.0**first
    s = scenario.scenario_from_dict(data)
    dense = dynamics.eigenfrequencies(dynamics.discretize_beam(s.beam, s.bc, nodes), 1)[0]
    grid = SpatialGrid.for_beam(s.beam, nodes)
    factor, free = beam_factor(s.beam, s.bc, grid)
    factor /= np.sqrt(s.beam.section.mass_per_length * trapezoid_weights(grid)[free])
    svd = np.linalg.svd(factor, compute_uv=False)[-1]
    assert abs(dense - svd) < 1.7e-4 * svd, (dense, svd)
    if nodes == 41:  # either side of the bound ends cleanly
        for exponent in (first - 1, first):
            bc["k"] = float(f"1e{exponent}")
            assert not unclean_ends(data, entered), exponent
    # the softest springs parse with no damping to fit, or beside a clamped end
    bc["k"] = 5e-324
    undamped = copy.deepcopy(data)
    undamped["integrator"]["rayleigh"]["zeta1"] = 0.0
    scenario.scenario_from_dict(undamped)
    scenario.scenario_from_dict({**data, "bc": {**bc, "left": "clamped", "right": "spring"}})


@pytest.mark.parametrize("name", ["exp1", "undamped"])
def test_spring_ends_of_any_stiffness_run_without_a_fit(name):
    # a static run and an undamped beam dynamic run fit no mode: they take
    # every bc.k, and tend to the pinned answer as it stiffens
    base = copy.deepcopy(BEAM_DYNAMIC if name == "undamped" else scenario_to_dict(preset(name)))
    if name == "undamped":
        base["integrator"]["rayleigh"]["zeta1"] = 0.0

    def answer(data):
        result = scenario.run_scenario(scenario.scenario_from_dict(data))
        profile = result.static_profile
        return result.time_series.frames if profile is None else profile.deflection

    pinned = answer(base)
    for exponent in (12, 13, 20, 28, 38, 100, 300, 308):
        data = {**copy.deepcopy(base), "bc": {**SPRINGS, "k": float(f"1e{exponent}")}}
        error = np.abs(answer(data) - pinned).max() / np.abs(pinned).max()
        assert error < (1e-5 if exponent < 20 else 1e-8), (exponent, error)


# Which commands load scipy.  Each check runs in a fresh interpreter: this
# process has scipy loaded by the tests that import it.
SCIPY_MODULES_SCRIPT = """
import contextlib, io, json, sys
import beamlab
loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
after_import = loaded()
from beamlab.cli import main
for command in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(command.replace("OUT", sys.argv[1]).split()) == 0, command
print(json.dumps({"import": after_import, "commands": loaded()}))
"""

#: Every preset, exp5_1 as the `sweep FILE` command, and two modal runs: none
#: calls scipy.
SCIPY_FREE_COMMANDS = [
    f"run --preset {name} --out OUT/{name}"
    for name in ("exp1", "exp2_1", "exp2_2", "exp3", "exp4", "exp5_2")
] + [
    "sweep OUT/exp5_1.json --out OUT/exp5_1",
    "modal --preset exp3 --modes 3",
    "modal --preset exp2_1 --modes 50",
]


def test_import_loads_no_scipy(tmp_path):
    assert run_digests(SCIPY_MODULES_SCRIPT, tmp_path) == {"import": [], "commands": []}


def test_commands_without_linalg_load_no_scipy(tmp_path):
    write_scenario(tmp_path, "exp5_1")
    loaded = run_digests(SCIPY_MODULES_SCRIPT, tmp_path, *SCIPY_FREE_COMMANDS)
    assert loaded == {"import": [], "commands": []}


def test_beam_dynamic_loads_scipy_linalg_only(tmp_path):
    # its Newmark LU factor and, being damped, its first eigenvalue
    (tmp_path / "beam_dynamic.json").write_text(json.dumps(BEAM_DYNAMIC))
    command = "run OUT/beam_dynamic.json --out OUT/beam_dynamic"
    loaded = run_digests(SCIPY_MODULES_SCRIPT, tmp_path, command)
    assert loaded["import"] == []
    assert "scipy.linalg" in loaded["commands"]
    assert not [m for m in loaded["commands"] if m.startswith(BANNED_SCIPY)]


#: Submodules that cost far more to import than any command spends in them:
#: scipy.signal alone takes about 1.2 s cold.
BANNED_SCIPY = ("scipy.optimize", "scipy.signal")


def scipy_import_faults(source: str, filename: str) -> list[str]:
    """Module-level scipy imports, and imports of BANNED_SCIPY at any level."""
    tree = ast.parse(source, filename)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    in_function = {
        id(node)
        for scope in ast.walk(tree)
        if isinstance(scope, functions)
        for node in ast.walk(scope)
    }
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            if name.partition(".")[0] != "scipy":
                continue
            where = f"{filename}:{node.lineno}"
            if id(node) not in in_function:
                faults.append(f"{where} imports {name} at module level")
            if any(name == banned or name.startswith(banned + ".") for banned in BANNED_SCIPY):
                faults.append(f"{where} imports {name}")
    return faults


def test_scipy_imports_lint_flags_each_fault():
    source = (
        "import scipy.linalg\n"
        "def f():\n"
        "    import scipy.linalg\n"
        "    from scipy import signal\n"
        "class C:\n"
        "    from scipy.optimize import brentq\n"
    )
    assert sorted(scipy_import_faults(source, "m.py")) == [
        "m.py:1 imports scipy.linalg at module level",
        "m.py:4 imports scipy.signal",
        "m.py:6 imports scipy.optimize.brentq",
        "m.py:6 imports scipy.optimize.brentq at module level",
    ]


def test_package_imports_scipy_only_inside_functions():
    package = Path(__file__).resolve().parent.parent / "src" / "beamlab"
    sources = sorted(package.glob("*.py"))
    assert sources
    faults = [
        fault
        for path in sources
        for fault in scipy_import_faults(path.read_text(), path.name)
    ]
    assert faults == []
