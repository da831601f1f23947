"""Output checks that do not come from the code under test.

Each check reads what one CLI operation produced (its output directory, or its
stdout for `modal`) and compares it with a closed form, an analytic root or a
steady-state amplitude computed here from the scenario file alone.  For seed 0
the outputs are also compared with stored reference values, at a relative
tolerance that admits last-bit changes from reordered arithmetic.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

from workloads import first_mode_hz

#: Relative tolerance for the stored seed-0 reference values.
REFERENCE_RTOL = 1e-8
#: Files an operation may write, besides provenance.json.
CSV_FILES = ("frames.csv", "probes.csv", "modes.csv", "sweep.csv", "loadcurve.csv")


class OracleMiss(Exception):
    """An output disagrees with its oracle; the message says where."""


def read_table(text: str) -> tuple[list[str], list[list[float]]]:
    """Header and float rows of a CSV text; raises OracleMiss if malformed."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise OracleMiss("empty CSV")
    header, body = rows[0], rows[1:]
    try:
        values = [[float(cell) for cell in row] for row in body]
    except ValueError as exc:
        raise OracleMiss(f"non-numeric CSV cell: {exc}") from None
    if any(len(row) != len(header) for row in values):
        raise OracleMiss("CSV row length differs from its header")
    if not all(math.isfinite(v) for row in values for v in row):
        raise OracleMiss("non-finite CSV value")
    return header, values


def load_outputs(op, work: Path, stdout: str) -> dict:
    """Parsed tables of one operation, keyed by file name ('stdout' for modal)."""
    if op.command == "modal":
        return {"stdout": read_table(stdout)}
    out = op.out_dir(work)
    tables = {}
    for name in CSV_FILES:
        path = out / name
        if path.exists():
            tables[name] = read_table(path.read_text(encoding="utf-8"))
    try:
        json.loads((out / "provenance.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise OracleMiss(f"provenance.json unreadable: {exc}") from None
    return tables


def _close(got: float, want: float, rtol: float, what: str, scale: float | None = None):
    scale = abs(want) if scale is None else scale
    if not abs(got - want) <= rtol * scale:
        raise OracleMiss(f"{what}: got {got!r}, expected {want!r} (rtol {rtol})")


def _column(table, name: str) -> list[float]:
    header, rows = table
    if name not in header:
        raise OracleMiss(f"missing column {name!r}")
    j = header.index(name)
    return [row[j] for row in rows]


def _need(tables: dict, name: str):
    if name not in tables:
        raise OracleMiss(f"{name} not written")
    return tables[name]


def _positions(header: list[str]) -> list[float]:
    return [float(col[2:]) for col in header[1:]]


# ---- closed forms (Euler-Bernoulli, uniform section) ----------------------


def _section(beam: dict) -> tuple[float, float]:
    """(EI, rho*A) of the solid rectangular section."""
    width, height = beam["width"], beam["height"]
    return beam["elastic_modulus"] * width * height**3 / 12.0, beam["density"] * width * height


def ss_udl(x: float, q: float, length: float, ei: float) -> float:
    return q * x * (length**3 - 2.0 * length * x**2 + x**3) / (24.0 * ei)


def ss_point(x: float, p: float, a: float, length: float, ei: float) -> float:
    b = length - a
    if x <= a:
        return p * b * x * (length**2 - b**2 - x**2) / (6.0 * length * ei)
    return p * a * (length - x) * (2.0 * length * x - a**2 - x**2) / (6.0 * length * ei)


def cantilever_point(x: float, p: float, a: float, ei: float) -> float:
    if x <= a:
        return p * x**2 * (3.0 * a - x) / (6.0 * ei)
    return p * a**2 * (3.0 * x - a) / (6.0 * ei)


def clamped_free_roots(count: int) -> list[float]:
    """beta*L roots of cos(x) cosh(x) + 1 = 0, by bisection of cos + sech."""

    def g(x):
        return math.cos(x) + 1.0 / math.cosh(x)

    roots = []
    for n in range(1, count + 1):
        lo = (2 * n - 1) * math.pi / 2.0 - 0.6
        hi = lo + 1.2
        g_lo = g(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (g(mid) > 0.0) == (g_lo > 0.0):
                lo, g_lo = mid, g(mid)
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


# ---- per-operation oracles ------------------------------------------------


def _static_profile(tables, w_of_x, rtol: float, what: str):
    """Every node of a static frame against a closed form.

    Tolerances sit about ten times above the finite-difference error seen
    over seeds 0-11 (2e-5 for exp1, 4e-5 for exp3, 3e-6 at 801 nodes).
    """
    header, rows = _need(tables, "frames.csv")
    if len(rows) != 1:
        raise OracleMiss(f"{what}: static frames.csv has {len(rows)} rows")
    want = [w_of_x(x) for x in _positions(header)]
    scale = max(abs(w) for w in want)
    for x, got, w in zip(_positions(header), rows[0][1:], want):
        _close(got, w, rtol, f"{what} deflection at x={x}", scale)


def _check_exp1(s, tables):
    ei, _ = _section(s["beam"])
    q, length = s["loads"][0]["q"], s["beam"]["length"]
    _static_profile(tables, lambda x: ss_udl(x, q, length, ei), 2e-4, "exp1")


def _check_exp3(s, tables):
    ei, _ = _section(s["beam"])
    load = s["loads"][0]
    _static_profile(
        tables,
        lambda x: cantilever_point(x, load["p"], load["position"], ei),
        4e-4,
        "exp3",
    )


def _check_beam_static(s, tables):
    ei, _ = _section(s["beam"])
    length = s["beam"]["length"]
    udl, point = s["loads"]

    def w(x):
        return ss_udl(x, udl["q"], length, ei) + ss_point(
            x, point["p"], point["position"], length, ei
        )

    _static_profile(tables, w, 3e-5, "beam_large static")


def _probe_history(tables, w_of_t, what: str):
    probes = _need(tables, "probes.csv")
    x = _positions(probes[0])[0]
    times = _column(probes, "t")
    got = _column(probes, probes[0][1])
    want = [w_of_t(t, x) for t in times]
    scale = max(abs(w) for w in want)
    for t, g, w in zip(times, got, want):
        _close(g, w, 1e-9, f"{what} probe at t={t}", scale)


def _check_exp2_1(s, tables):
    ei, _ = _section(s["beam"])
    length = s["beam"]["length"]
    load = s["loads"][0]

    def w(t, x):
        a = load["x0"] + load["speed"] * t
        return ss_point(x, load["p"], a, length, ei) if 0.0 <= a <= length else 0.0

    _probe_history(tables, w, "exp2_1")


def _check_exp2_2(s, tables):
    ei, _ = _section(s["beam"])
    length = s["beam"]["length"]
    load = s["loads"][0]

    def w(t, x):
        scale = load["p0"] * math.sin(2.0 * math.pi * load["f_hz"] * t)
        return scale * ss_point(x, 1.0, load["position"], length, ei)

    _probe_history(tables, w, "exp2_2")


def _check_exp4(s, tables):
    ei, _ = _section(s["beam"])
    position = s["loads"][0]["position"]
    length = s["beam"]["length"]
    sweep = s["load_sweep"]
    curve = _need(tables, "loadcurve.csv")
    p_values = _column(curve, "p_n")
    if len(p_values) != sweep["count"]:
        raise OracleMiss(f"exp4: {len(p_values)} load points, expected {sweep['count']}")
    step = (sweep["p_max"] - sweep["p_min"]) / (sweep["count"] - 1)
    for i, (p, w_lin, w_nl) in enumerate(curve[1]):
        _close(p, sweep["p_min"] + i * step, 1e-12, "exp4 load value", sweep["p_max"])
        _close(w_lin, cantilever_point(length, p, position, ei), 1e-9, f"exp4 w_lin at p={p}")
        if w_nl < w_lin:
            raise OracleMiss(f"exp4: nonlinear tip {w_nl!r} stiffer than linear {w_lin!r}")


def _check_exp5_2(s, tables):
    system = s["system"]
    m, c, k = system["mass"], system["damping"], system["stiffness"]
    force = system["force"]
    omega = 2.0 * math.pi * force["f_hz"]
    steady = force["amplitude"] / math.hypot(k - m * omega**2, c * omega)
    frames = _need(tables, "frames.csv")
    times = _column(frames, "t")
    x = _column(frames, "x")
    if any(v != 0.0 for v in _column(frames, "y")):
        raise OracleMiss("exp5_2: undriven y axis moved")
    # by the last 2 s the transient is below 1% of its start
    tail = [abs(v) for t, v in zip(times, x) if t >= times[-1] - 2.0]
    _close(max(tail), steady, 0.02, "exp5_2 steady amplitude")


def _check_modes(s, tables, betas_l: list[float], what: str):
    header, rows = _need(tables, "stdout")
    if header != ["mode_index", "beta", "omega_rad_s", "f_hz"]:
        raise OracleMiss(f"{what}: unexpected header {header}")
    if len(rows) != len(betas_l):
        raise OracleMiss(f"{what}: {len(rows)} modes, expected {len(betas_l)}")
    ei, rho_a = _section(s["beam"])
    length = s["beam"]["length"]
    wave = math.sqrt(ei / rho_a)
    for (index, beta, omega, f_hz), want in zip(rows, betas_l):
        _close(beta * length, want, 1e-8, f"{what} beta*L of mode {int(index)}")
        _close(f_hz, (want / length) ** 2 * wave / (2.0 * math.pi), 1e-7, f"{what} f_hz")
        _close(omega, 2.0 * math.pi * f_hz, 1e-12, f"{what} omega")


def _check_modal3(s, tables):
    _check_modes(s, tables, clamped_free_roots(3), "modal3")


def _check_modal50(s, tables):
    _check_modes(s, tables, [n * math.pi for n in range(1, 51)], "modal50")


def _check_sweep(s, tables):
    sw = s["sweep"]
    table = _need(tables, "sweep.csv")
    freqs = _column(table, "f_hz")
    amps = _column(table, "amplitude_m")
    if len(freqs) != sw["f_count"]:
        raise OracleMiss(f"sweep: {len(freqs)} points, expected {sw['f_count']}")
    step = (sw["f_max"] - sw["f_min"]) / (sw["f_count"] - 1)
    for i, f in enumerate(freqs):
        _close(f, sw["f_min"] + i * step, 1e-12, "sweep grid frequency", sw["f_max"])
    if min(amps) <= 0.0:
        raise OracleMiss("sweep: non-positive amplitude")
    f1 = first_mode_hz(s["beam"])
    nearest = min(freqs, key=lambda f: abs(f - f1))
    peak = freqs[amps.index(max(amps))]
    if peak != nearest:
        raise OracleMiss(f"sweep peaks at {peak} Hz, analytic fundamental {f1} Hz "
                         f"is nearest {nearest} Hz")


def _check_beam_dynamic(s, tables):
    header, rows = _need(tables, "frames.csv")
    nodes = s["grid"]["nodes"]
    time = s["time"]
    stride = s["output"]["stride"]
    steps = round((time["end"] - time["start"]) / time["dt"])
    if len(header) != nodes + 1 or len(rows) != steps // stride + 1:
        raise OracleMiss(f"beam_large dynamic frames are {len(rows)}x{len(header)}")
    for i, row in enumerate(rows):
        _close(row[0], time["start"] + i * stride * time["dt"], 1e-12, "frame time", 1.0)
        if row[1] != 0.0 or row[-1] != 0.0:
            raise OracleMiss(f"pinned end moved at t={row[0]}")
    if any(v != 0.0 for v in rows[0][1:]):
        raise OracleMiss("beam does not start from rest")
    probes = _need(tables, "probes.csv")
    column = probes[0][1]
    got = _column(probes, column)
    if got != [row[header.index(column)] for row in rows]:
        raise OracleMiss("probe history differs from its frames column")
    # Mode truncation, the finite-difference grid and Newmark's period error
    # put the two about 0.015% of the peak apart; the check allows 0.2%.
    want = _beam_modal().midspan_history(s, [row[0] for row in rows], float(column[2:]))
    scale = max(abs(w) for w in want)
    worst = max(abs(g - w) for g, w in zip(got, want))
    if worst > 0.002 * scale:
        raise OracleMiss(
            f"beam_large dynamic probe differs from the modal solution by "
            f"{worst / scale:.3%} of its peak"
        )


def _beam_modal():
    # Imported on first use: it loads numpy and scipy, which the set-up
    # probe must only pay for inside `import beamlab`.
    import beam_modal

    return beam_modal


_CHECKS = {
    "exp1": _check_exp1,
    "exp2_1": _check_exp2_1,
    "exp2_2": _check_exp2_2,
    "exp3": _check_exp3,
    "exp4": _check_exp4,
    "exp5_2": _check_exp5_2,
    "modal3": _check_modal3,
    "modal50": _check_modal50,
    "exp5_1": _check_sweep,
    "dynamic": _check_beam_dynamic,
    "static": _check_beam_static,
}


def check_oracle(op, tables: dict) -> None:
    """Raise OracleMiss unless the operation's outputs match its oracle."""
    _CHECKS[op.name](op.scenario, tables)


# ---- stored seed-0 reference ----------------------------------------------


def summarize_tables(tables: dict) -> dict:
    """Compact fingerprint per table: header hash, row count and four sums.

    The row- and column-weighted sums catch values that moved between cells.
    """
    out = {}
    for name, (header, rows) in sorted(tables.items()):
        cells = [(i, j, v) for i, row in enumerate(rows, 1) for j, v in enumerate(row, 1)]
        out[name] = {
            "header_sha256": hashlib.sha256(",".join(header).encode("utf-8")).hexdigest(),
            "rows": len(rows),
            "sum": math.fsum(v for _, _, v in cells),
            "abs_sum": math.fsum(abs(v) for _, _, v in cells),
            "row_weighted": math.fsum(i * v for i, _, v in cells),
            "col_weighted": math.fsum(j * v for _, j, v in cells),
        }
    return out


def check_reference(op, tables: dict, reference: dict) -> None:
    """Compare with the stored fingerprint of the same seed-0 operation."""
    want = reference[op.name]
    got = summarize_tables(tables)
    if sorted(got) != sorted(want):
        raise OracleMiss(f"{op.name}: files {sorted(got)}, reference has {sorted(want)}")
    for name, ref in want.items():
        mine = got[name]
        what = f"{op.name}/{name}"
        if mine["header_sha256"] != ref["header_sha256"] or mine["rows"] != ref["rows"]:
            raise OracleMiss(f"{what}: header or row count differs from reference")
        scale = ref["abs_sum"]
        columns = len(tables[name][0])
        _close(mine["abs_sum"], scale, REFERENCE_RTOL, f"{what} abs-sum")
        _close(mine["sum"], ref["sum"], REFERENCE_RTOL, f"{what} sum", scale)
        _close(mine["row_weighted"], ref["row_weighted"], REFERENCE_RTOL,
               f"{what} row-weighted sum", scale * ref["rows"])
        _close(mine["col_weighted"], ref["col_weighted"], REFERENCE_RTOL,
               f"{what} column-weighted sum", scale * columns)
