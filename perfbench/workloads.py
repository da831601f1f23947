"""Seeded scenario inputs for the benchmark workloads.

Every workload is a list of CLI operations, each one `beamlab` invocation on
a scenario file.  Seed 0 reproduces the built-in presets exactly.  Other seeds
move load magnitudes, positions, speeds and the sweep band, but never the
work size: node counts, step counts, strides and `f_count` stay fixed, so
timings from different seeds measure the same amount of work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

#: Why each workload exists; one line each, also copied into BENCHMARK.json.
WORKLOADS = {
    "sweep": "exp5_1 sweep, 30 frequencies x 4000 Newmark steps on 39 DOF: "
    "the hot spot, nearly all dynamics, negligible output",
    "beam_large": "801-node pinned beam: 2000-step damped dynamic run plus a "
    "static solve, so dense O(n^3) assembly and O(n^2) steps dominate",
    "presets": "six small presets as files plus modal at 3 and 50 modes: "
    "output writing, parsing, root scans and small-n stepping",
}

BEAM_LARGE_NODES = 801


@dataclass(frozen=True)
class Op:
    """One CLI invocation: `command` on `<name>.json`, plus extra arguments.

    Commands that write files get `--out out/<name>`; `modal` prints CSV on
    stdout instead.
    """

    name: str
    command: str
    scenario: dict
    extra: tuple = ()

    def argv(self, work: Path) -> list[str]:
        argv = [self.command, str(work / f"{self.name}.json"), *self.extra]
        if self.command != "modal":
            argv += ["--out", str(self.out_dir(work))]
        return argv

    def out_dir(self, work: Path) -> Path:
        return work / "out" / self.name


class _Jitter:
    """Scales values by a seeded factor; seed 0 leaves every value alone."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.identity = seed == 0

    def __call__(self, value: float, spread: float = 0.2) -> float:
        if self.identity:
            return value
        return value * self.rng.uniform(1.0 - spread, 1.0 + spread)


def _preset(beamlab, name: str) -> dict:
    return beamlab.scenario_to_dict(beamlab.preset(name))


def first_mode_hz(beam: dict) -> float:
    """Analytic fundamental of a pinned-pinned beam: (pi/L)^2 sqrt(EI/rhoA)/2pi."""
    inertia = beam["width"] * beam["height"] ** 3 / 12.0
    area = beam["width"] * beam["height"]
    wave = math.sqrt(beam["elastic_modulus"] * inertia / (beam["density"] * area))
    return (math.pi / beam["length"]) ** 2 * wave / (2.0 * math.pi)


def _sweep_ops(beamlab, jit: _Jitter) -> list[Op]:
    s = _preset(beamlab, "exp5_1")
    load = s["loads"][0]
    load["p0"] = jit(load["p0"])
    load["position"] = jit(load["position"], 0.1)
    if not jit.identity:
        # Move the band but keep one grid frequency within a fifth of the
        # spacing of the analytic fundamental, so the peak oracle is sharp.
        sw = s["sweep"]
        spacing = jit((sw["f_max"] - sw["f_min"]) / (sw["f_count"] - 1), 0.1)
        anchor = first_mode_hz(s["beam"]) + spacing * jit.rng.uniform(-0.2, 0.2)
        below = math.floor((anchor - 0.3) / spacing)
        sw["f_min"] = anchor - below * spacing
        sw["f_max"] = sw["f_min"] + (sw["f_count"] - 1) * spacing
    return [Op("exp5_1", "sweep", s)]


def _beam_large_ops(beamlab, jit: _Jitter) -> list[Op]:
    beam = _preset(beamlab, "exp1")["beam"]
    length = beam["length"]
    dynamic = {
        "schema": "beamlab/1",
        "name": "beam_large_dynamic",
        "solver": "dynamic",
        "beam": beam,
        "bc": {"left": "pinned", "right": "pinned"},
        "loads": [
            {
                "type": "harmonic_point",
                "p0": jit(5000.0),
                "f_hz": jit(4.0),
                "position": jit(0.4 * length, 0.1),
            },
            {
                "type": "moving_point",
                "p": jit(20000.0),
                "speed": jit(15.0),
                "x0": jit(0.5, 0.5),
            },
        ],
        "grid": {"nodes": BEAM_LARGE_NODES},
        "time": {"start": 0.0, "end": 1.0, "dt": 5.0e-4},
        "integrator": {"gamma": 0.5, "beta": 0.25, "rayleigh": {"zeta1": 0.02}},
        "probes": [0.5 * length],
        "output": {"stride": 20},
    }
    static = {
        "schema": "beamlab/1",
        "name": "beam_large_static",
        "solver": "static",
        "beam": beam,
        "bc": {"left": "pinned", "right": "pinned"},
        "loads": [
            {"type": "udl", "q": jit(5000.0)},
            {"type": "point", "p": jit(10000.0), "position": jit(0.3 * length, 0.2)},
        ],
        "grid": {"nodes": BEAM_LARGE_NODES},
        "probes": [0.5 * length],
    }
    return [Op("dynamic", "run", dynamic), Op("static", "static", static)]


def _presets_ops(beamlab, jit: _Jitter) -> list[Op]:
    exp1 = _preset(beamlab, "exp1")
    exp1["loads"][0]["q"] = jit(exp1["loads"][0]["q"])

    exp2_1 = _preset(beamlab, "exp2_1")
    moving = exp2_1["loads"][0]
    moving["p"] = jit(moving["p"])
    moving["speed"] = jit(moving["speed"])
    if not jit.identity:
        moving["x0"] = jit(1.0, 0.5)  # the preset's 0.0 does not scale

    exp2_2 = _preset(beamlab, "exp2_2")
    harmonic = exp2_2["loads"][0]
    harmonic["p0"] = jit(harmonic["p0"])
    harmonic["f_hz"] = jit(harmonic["f_hz"])
    harmonic["position"] = jit(harmonic["position"], 0.2)

    exp3 = _preset(beamlab, "exp3")
    point = exp3["loads"][0]
    point["p"] = jit(point["p"])
    point["position"] = jit(point["position"], 0.2)

    exp4 = _preset(beamlab, "exp4")
    point = exp4["loads"][0]
    point["p"] = jit(point["p"])
    point["position"] = jit(point["position"], 0.2)
    sweep = exp4["load_sweep"]
    sweep["p_min"] = jit(sweep["p_min"])
    sweep["p_max"] = jit(sweep["p_max"])

    exp5_2 = _preset(beamlab, "exp5_2")
    force = exp5_2["system"]["force"]
    force["amplitude"] = jit(force["amplitude"])
    force["f_hz"] = jit(force["f_hz"], 0.1)

    return [
        Op("exp1", "run", exp1),
        Op("exp2_1", "run", exp2_1),
        Op("exp2_2", "run", exp2_2),
        Op("exp3", "run", exp3),
        Op("exp4", "run", exp4),
        Op("exp5_2", "run", exp5_2),
        # Both beams have analytic roots.  The 50-mode run uses the pinned
        # beam: for clamped, free and spring ends the determinant loses all
        # precision above beta*L ~ 36 (mode 12 of a cantilever), and the
        # seed's roots there are off by up to 75%.
        Op("modal3", "modal", exp3, ("--modes", "3")),
        Op("modal50", "modal", exp2_1, ("--modes", "50")),
    ]


_OPS_BY_WORKLOAD = {
    "sweep": _sweep_ops,
    "beam_large": _beam_large_ops,
    "presets": _presets_ops,
}


def build_ops(beamlab, workload: str, seed: int) -> list[Op]:
    """The workload's operations for `seed`; same seed, same inputs."""
    return _OPS_BY_WORKLOAD[workload](beamlab, _Jitter(workload, seed))


def write_inputs(ops: list[Op], work: Path) -> None:
    """Write each operation's scenario file into `work`."""
    work.mkdir(parents=True, exist_ok=True)
    for op in ops:
        (work / f"{op.name}.json").write_text(
            json.dumps(op.scenario, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
