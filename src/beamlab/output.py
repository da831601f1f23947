"""CSV and provenance emission for scenario results.

Numbers are written with repr(), the shortest decimal form that round-trips
to the same float, so re-reading a file reproduces the run bit for bit.
Files carry no timestamps and provenance keys are sorted: two runs of the
same scenario produce byte-identical output.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .model import StaticProfile, TimeSeriesResult
from .scenario import ResultSet, Scenario


def _line(values) -> str:
    """One CSV line from Python floats and ints.

    No cell needs quoting: labels are generated, and a float's repr holds no
    comma, quote or line break.
    """
    return ",".join(map(repr, values))


def _write_csv(path: Path, header, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for line in lines:
            fh.write(line + "\n")


def _series_files(out: Path, result: TimeSeriesResult) -> list[Path]:
    columns = list(result.meta.get("columns", []))
    if len(columns) != result.frames.shape[1]:
        columns = [f"c{i}" for i in range(result.frames.shape[1])]
    frames_path = out / "frames.csv"
    # one row at a time: converting whole arrays to lists costs memory
    _write_csv(
        frames_path,
        ["t", *columns],
        (
            _line([float(t), *row.tolist()])
            for t, row in zip(result.times, result.frames)
        ),
    )
    probes_path = out / "probes.csv"
    probe_items = list(result.probes.items())
    probes = np.column_stack([result.times, *(series for _, series in probe_items)])
    _write_csv(
        probes_path,
        ["t", *(columns[idx] for idx, _ in probe_items)],
        (_line(row.tolist()) for row in probes),
    )
    return [frames_path, probes_path]


def _profile_files(out: Path, profile: StaticProfile, scenario: Scenario) -> list[Path]:
    # a static solve is a single frame at t = 0
    columns = [f"x={float(pos)!r}" for pos in profile.grid.positions]
    frames_path = out / "frames.csv"
    _write_csv(
        frames_path,
        ["t", *columns],
        [_line([0.0, *profile.deflection.tolist()])],
    )
    probes_path = out / "probes.csv"
    indices = [profile.grid.nearest_node(pos) for pos in scenario.probes]
    _write_csv(
        probes_path,
        ["t", *(columns[idx] for idx in indices)],
        [_line([0.0, *(float(profile.deflection[idx]) for idx in indices)])],
    )
    return [frames_path, probes_path]


def write_result(rs: ResultSet, out_dir) -> list[Path]:
    """Write every file the result set calls for; returns the paths written.

    frames.csv/probes.csv for profiles and histories, modes.csv for modal
    runs, sweep.csv for frequency sweeps, loadcurve.csv for load sweeps, and
    provenance.json always.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if rs.time_series is not None:
        written += _series_files(out, rs.time_series)
    elif rs.static_profile is not None:
        written += _profile_files(out, rs.static_profile, rs.scenario)

    if rs.modes:
        path = out / "modes.csv"
        _write_csv(
            path,
            ["mode_index", "beta", "omega_rad_s", "f_hz"],
            (
                _line([i, float(m.beta), float(m.omega_rad_s), float(m.f_hz)])
                for i, m in enumerate(rs.modes, start=1)
            ),
        )
        written.append(path)

    if rs.sweep_points:
        path = out / "sweep.csv"
        _write_csv(
            path,
            ["f_hz", "amplitude_m"],
            (_line([float(pt.f_hz), float(pt.amplitude_m)]) for pt in rs.sweep_points),
        )
        written.append(path)

    if rs.load_curve:
        path = out / "loadcurve.csv"
        _write_csv(
            path,
            ["p_n", "w_lin_m", "w_nl_m"],
            (
                _line([float(pt.p), float(pt.w_lin), float(pt.w_nl)])
                for pt in rs.load_curve
            ),
        )
        written.append(path)

    prov_path = out / "provenance.json"
    with open(prov_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(rs.provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(prov_path)
    return written
