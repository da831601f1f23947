"""CSV and provenance emission for scenario results.

Numbers are written with repr(), the shortest decimal form that round-trips
to the same float, so re-reading a file reproduces the run bit for bit.
Rows are formatted a block at a time: one join over a flat list of about
`BLOCK_CELLS` cells, whole rows, so the per-row cost stays in C and the
writer holds one block at a time.  Files carry no timestamps and provenance
keys are sorted: two runs of the same scenario produce byte-identical output.

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


#: Cells of whole rows that `_write_csv` formats in one join.
BLOCK_CELLS = 4096


def _write_csv(fh, header, blocks) -> None:
    """A header line, then the rows of each block: a flat list of Python
    floats and ints, whole rows of one cell per header label.

    No cell needs quoting: labels are generated, and a float's repr holds no
    comma, quote or line break.
    """
    width = len(header)
    fh.write(",".join(header) + "\n")
    for cells in blocks:
        if len(cells) % width:
            raise ValueError(f"a block of {len(cells)} cells is not whole rows of {width}")
        if cells:
            # zip takes `width` cells at a time from the one repr iterator
            fh.write("\n".join(map(",".join, zip(*[map(repr, cells)] * width))) + "\n")


def _history_blocks(times, frames, nodes=None):
    """Blocks of `t, *frame` rows, about `BLOCK_CELLS` cells each, of the
    frame columns `nodes` (every column when None), taken a block at a time."""
    width = 1 + (frames.shape[1] if nodes is None else len(nodes))
    rows = max(1, BLOCK_CELLS // width)
    for start in range(0, len(times), rows):
        block = frames[start : start + rows]
        if nodes is not None:
            block = block[:, nodes]
        yield np.column_stack((times[start : start + rows], block)).ravel().tolist()


def write_modes(fh, modes) -> None:
    """The modes table: a header, then index, beta, omega and frequency per mode."""
    cells = []
    for i, m in enumerate(modes, start=1):
        cells += [i, float(m.beta), float(m.omega_rad_s), float(m.f_hz)]
    _write_csv(fh, ["mode_index", "beta", "omega_rad_s", "f_hz"], [cells])


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
        columns, nodes = series.columns, probe_nodes(rs.scenario)
        with create("frames.csv") as fh:
            _write_csv(fh, ["t", *columns], _history_blocks(series.times, series.frames))
        with create("probes.csv") as fh:
            header = ["t", *(columns[i] for i in nodes)]
            _write_csv(fh, header, _history_blocks(series.times, series.frames, nodes))

    if rs.modes:
        with create("modes.csv") as fh:
            write_modes(fh, rs.modes)

    if rs.sweep_points:
        with create("sweep.csv") as fh:
            cells = [float(v) for pt in rs.sweep_points for v in (pt.f_hz, pt.amplitude_m)]
            _write_csv(fh, ["f_hz", "amplitude_m"], [cells])

    if rs.load_curve:
        with create("loadcurve.csv") as fh:
            cells = [float(v) for pt in rs.load_curve for v in (pt.p, pt.w_lin, pt.w_nl)]
            _write_csv(fh, ["p_n", "w_lin_m", "w_nl_m"], [cells])

    with create("provenance.json") as fh:
        json.dump(rs.provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return written
