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

from .scenario import ResultSet, probe_nodes


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


def write_modes(fh, modes) -> None:
    """The modes table: a header, then index, beta, omega and frequency per mode."""
    fh.write("mode_index,beta,omega_rad_s,f_hz\n")
    for i, m in enumerate(modes, start=1):
        fh.write(_line([i, float(m.beta), float(m.omega_rad_s), float(m.f_hz)]) + "\n")


def _frame_files(out: Path, times, frames, columns, nodes) -> list[Path]:
    """frames.csv with every column, probes.csv with the columns at `nodes`.

    probes.csv has one column per entry of `nodes`, in order, repeats kept.
    """
    frames_path = out / "frames.csv"
    # one row at a time: converting whole arrays to lists costs memory
    _write_csv(
        frames_path,
        ["t", *columns],
        (_line([t, *row.tolist()]) for t, row in zip(times.tolist(), frames)),
    )
    probes_path = out / "probes.csv"
    _write_csv(
        probes_path,
        ["t", *(columns[idx] for idx in nodes)],
        (_line([t, *row.tolist()]) for t, row in zip(times.tolist(), frames[:, nodes])),
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

    nodes = probe_nodes(rs.scenario)
    if rs.time_series is not None:
        ts = rs.time_series
        written += _frame_files(out, ts.times, ts.frames, ts.columns, nodes)
    elif rs.static_profile is not None:
        # a static solve is a single frame at t = 0
        profile = rs.static_profile
        written += _frame_files(
            out, np.zeros(1), profile.deflection[None, :], profile.grid.labels, nodes
        )

    if rs.modes:
        path = out / "modes.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_modes(fh, rs.modes)
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
