"""CSV and provenance emission for scenario results.

Numbers are written with repr(), the shortest decimal form that round-trips
to the same float, so re-reading a file reproduces the run bit for bit.
Files carry no timestamps and provenance keys are sorted: two runs of the
same scenario produce byte-identical output.

`probe_nodes` is the one rule from probe positions to histories: column j of
probes.csv is the frame column `probe_nodes(s)[j]`, repeats kept, which a
time-history run also holds as `rs.time_series.probes[probe_nodes(s)[j]]`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .model import TimeSeriesResult
from .scenario import ResultSet, probe_nodes


def _write_csv(fh, header, rows) -> None:
    """A header line, then one line per row of Python floats and ints.

    No cell needs quoting: labels are generated, and a float's repr holds no
    comma, quote or line break.
    """
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(map(repr, row)) + "\n")


def write_modes(fh, modes) -> None:
    """The modes table: a header, then index, beta, omega and frequency per mode."""
    _write_csv(
        fh,
        ["mode_index", "beta", "omega_rad_s", "f_hz"],
        (
            [i, float(m.beta), float(m.omega_rad_s), float(m.f_hz)]
            for i, m in enumerate(modes, start=1)
        ),
    )


def write_result(rs: ResultSet, out_dir) -> list[Path]:
    """Write every file the result set calls for; returns the paths written.

    frames.csv/probes.csv for profiles and histories, modes.csv for modal
    runs, sweep.csv for frequency sweeps, loadcurve.csv for load sweeps, and
    provenance.json always.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def create(name: str):
        written.append(out / name)
        return open(written[-1], "w", encoding="utf-8", newline="")

    series = rs.time_series
    if series is None and rs.static_profile is not None:
        # a static solve is a single frame at t = 0
        profile = rs.static_profile
        series = TimeSeriesResult(np.zeros(1), profile.deflection[None, :], profile.grid.labels)
    if series is not None:
        times, columns = series.times.tolist(), series.columns
        # one row at a time: converting whole arrays to lists costs memory
        with create("frames.csv") as fh:
            rows = ([t, *row.tolist()] for t, row in zip(times, series.frames))
            _write_csv(fh, ["t", *columns], rows)
        nodes = probe_nodes(rs.scenario)
        with create("probes.csv") as fh:
            # the probed columns are copied only once frames.csv is written
            rows = ([t, *row.tolist()] for t, row in zip(times, series.frames[:, nodes]))
            _write_csv(fh, ["t", *(columns[i] for i in nodes)], rows)

    if rs.modes:
        with create("modes.csv") as fh:
            write_modes(fh, rs.modes)

    if rs.sweep_points:
        with create("sweep.csv") as fh:
            rows = ([float(pt.f_hz), float(pt.amplitude_m)] for pt in rs.sweep_points)
            _write_csv(fh, ["f_hz", "amplitude_m"], rows)

    if rs.load_curve:
        with create("loadcurve.csv") as fh:
            rows = ([float(pt.p), float(pt.w_lin), float(pt.w_nl)] for pt in rs.load_curve)
            _write_csv(fh, ["p_n", "w_lin_m", "w_nl_m"], rows)

    with create("provenance.json") as fh:
        json.dump(rs.provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return written
