"""Scenario files: schema, parsing, presets and execution dispatch.

A scenario is a JSON object (schema tag "beamlab/1") that pins every input a
run needs: geometry, end conditions, loads, grids, integrator settings and
solver choice.  Parsing is strict: unknown keys and the blocks a run never
reads (see _KINDS) are rejected with their dotted path, and every default the
parser fills in is recorded so it can be reported in the output provenance
block.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from functools import reduce
from types import SimpleNamespace
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import __version__
from .dynamics import (
    MIN_BEAM_NODES,
    SWEEP_STEPS_PER_PERIOD,
    IntegratorConfig,
    beam_time_response,
    frequency_sweep,
    modal_harmonic_response,
)
from .material import (
    RambergOsgood,
    linear_vs_nonlinear_curve,
    nonlinear_cantilever_deflection,
)
from .modal import ModeSolution, solve_modes
from .model import (
    _END_KINDS,
    MIN_GRID_NODES,
    STATIC_LOADS,
    BeamSpec,
    BoundarySpec,
    EndCondition,
    HarmonicPointLoad,
    MovingPointLoad,
    PointLoad,
    SolverError,
    SpatialGrid,
    StaticProfile,
    TimeGrid,
    TimeSeriesResult,
    UdlLoad,
    ValidationError,
    check_load_positions,
)
from .statics import quasi_static_moving, quasi_static_sinusoidal, static_fd_solve

SCHEMA_VERSION = "beamlab/1"
SOLVERS = ("static", "quasi_static", "modal", "dynamic", "sweep", "nonlinear")
_DEFAULT_GRID_NODES = 201
#: Largest array a run may hold, in bytes: the dense beam operator, the
#: recorded frames, a sweep's midspan history, or one double per time sample
#: and dof of a dynamic run, which also bounds its step count.  A scenario
#: estimated above it fails at parse instead of running for days or out of
#: memory mid-solve.
MAX_ARRAY_BYTES = 2**30
_MIB = 2**20
#: The top-level blocks each kind of run reads besides name, solver and notes:
#: (the blocks it cannot run without, the blocks it may be given).  Any other
#: block is refused.  A dynamic run with a system block is its own kind,
#: "system".  Every beam kind reads modal_only: `beamlab modal` reads any
#: scenario with a beam.
_KINDS = {
    "static": ("beam bc loads", "grid modal_only probes"),
    "quasi_static": ("beam bc loads time", "grid modal_only probes output"),
    "modal": ("beam", "bc modal_only"),
    "system": ("system time", "integrator output"),
    "dynamic": ("beam bc loads time", "grid integrator modal_only probes output"),
    "sweep": ("beam bc loads sweep", "grid integrator modal_only"),
    "nonlinear": ("beam bc loads material", "grid load_sweep modal_only probes"),
}
_READS = {
    kind: {"name", "solver", "notes", *needs.split(), *more.split()}
    for kind, (needs, more) in _KINDS.items()
}
#: The ends the quasi-static closed form and the nonlinear cantilever hold for.
_FIXED_ENDS = {
    "quasi_static": (BoundarySpec.pinned_pinned(), "bc {left: pinned, right: pinned}"),
    "nonlinear": (BoundarySpec.clamped_free(), "bc {left: clamped, right: free} (cantilever)"),
}
#: The provenance entry of each attribute, on the runs that read all its
#: blocks: rayleigh damping applies to beam runs only.
_RECORDED = {"grid_nodes": {"grid"}, "zeta1": {"beam", "integrator"}, "stride": {"output"}}


def _kind(solver: str, given) -> str:
    """The row of _KINDS a run of `solver` with the blocks `given` falls
    under.  Refuses the first given block, in schema order, it never reads."""
    if solver not in SOLVERS:
        raise ValidationError(
            f"solver must be one of {', '.join(SOLVERS)}; got '{solver}'"
        )
    kind = "system" if solver == "dynamic" and "system" in given else solver
    for entry in _SCENARIO.fields:
        if entry.key in given and entry.key not in _READS[kind]:
            raise ValidationError(
                f"'{entry.key}' given, but solver '{solver}' never reads it; remove it"
            )
    return kind


@dataclass(frozen=True)
class SweepSpec:
    """Forcing-frequency grid plus settle/measure windows (in periods)."""

    f_min: float
    f_max: float
    f_count: int
    settle_periods: int = 30
    measure_periods: int = 10

    def __post_init__(self):
        if not (0.0 < self.f_min <= self.f_max):
            raise ValidationError(
                f"sweep needs 0 < f_min <= f_max, got [{self.f_min}, {self.f_max}]"
            )
        if self.f_count < 1 or (self.f_count == 1 and self.f_min != self.f_max):
            raise ValidationError("sweep f_count must cover [f_min, f_max]")
        if self.settle_periods < 1 or self.measure_periods < 1:
            raise ValidationError("sweep periods must be >= 1")

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.f_min, self.f_max, self.f_count)


@dataclass(frozen=True)
class LoadSweepSpec:
    """Ascending point-load magnitudes for linear-vs-nonlinear curves."""

    p_min: float
    p_max: float
    count: int

    def __post_init__(self):
        if self.p_min <= 0.0 or self.p_max < self.p_min:
            raise ValidationError(
                f"load sweep needs 0 < p_min <= p_max, got [{self.p_min}, {self.p_max}]"
            )
        if self.count < 1 or (self.count == 1 and self.p_min != self.p_max):
            raise ValidationError("load sweep count must cover [p_min, p_max]")

    def values(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.count)


@dataclass(frozen=True)
class HarmonicDrive:
    amplitude: float
    f_hz: float
    axis: str = "x"

    def __post_init__(self):
        if self.f_hz <= 0.0:
            raise ValidationError(f"drive frequency must be positive, got {self.f_hz}")
        if self.axis not in ("x", "y"):
            raise ValidationError(f"drive axis must be 'x' or 'y', got '{self.axis}'")


@dataclass(frozen=True)
class SystemSpec:
    """Mass-spring system carrier: one DOF, or two identical uncoupled axes."""

    mass: float
    damping: float
    stiffness: float
    dofs: int
    force: HarmonicDrive

    def __post_init__(self):
        if self.mass <= 0.0 or self.stiffness <= 0.0:
            raise ValidationError("system mass and stiffness must be positive")
        if self.damping < 0.0:
            raise ValidationError(f"system damping must be nonnegative, got {self.damping}")
        if self.dofs not in (1, 2):
            raise ValidationError(f"system dofs must be 1 or 2, got {self.dofs}")
        if self.dofs == 1 and self.force.axis != "x":
            raise ValidationError("a one-DOF system only accepts force axis 'x'")


@dataclass(frozen=True)
class Scenario:
    """Fully validated run description.

    `defaults_applied` records every value the parser had to fill in (dotted
    key path to value); it is excluded from equality so a round-tripped
    scenario compares equal to its source.
    """

    name: str
    solver: str
    beam: BeamSpec | None = None
    bc: BoundarySpec | None = None
    loads: tuple = ()
    grid_nodes: int = _DEFAULT_GRID_NODES
    tgrid: TimeGrid | None = None
    integrator: IntegratorConfig = IntegratorConfig()
    zeta1: float = 0.0
    material: RambergOsgood | None = None
    sweep: SweepSpec | None = None
    load_sweep: LoadSweepSpec | None = None
    system: SystemSpec | None = None
    modal_bearing_k: float | None = None
    probes: tuple = ()
    stride: int = 1
    notes: tuple = ()
    defaults_applied: Mapping[str, object] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "loads", tuple(self.loads))
        object.__setattr__(self, "probes", tuple(float(p) for p in self.probes))
        object.__setattr__(self, "notes", tuple(self.notes))
        object.__setattr__(self, "defaults_applied", dict(self.defaults_applied))
        if not self.name:
            raise ValidationError("scenario name must be non-empty")
        if self.stride < 1:
            raise ValidationError(f"output.stride must be >= 1, got {self.stride}")
        if self.zeta1 < 0.0:
            raise ValidationError(
                f"integrator.rayleigh.zeta1 must be nonnegative, got {self.zeta1}"
            )
        if self.modal_bearing_k is not None and self.modal_bearing_k <= 0.0:
            raise ValidationError("modal_only.bearing_k must be positive")
        if self.beam is not None:
            check_load_positions(self.loads, self.beam.length)
            for pos in self.probes:
                if not 0.0 <= pos <= self.beam.length:
                    raise ValidationError(
                        f"probe position {pos} outside [0, {self.beam.length}]"
                    )
        self._check_solver()

    @property
    def kind(self) -> str:
        """Its row of _KINDS: the solver, or "system" for a system run."""
        return _kind(self.solver, () if self.system is None else ("system",))

    def _check_solver(self):
        """Check the blocks its kind reads and needs, its ends, its grid, then
        its loads; each array it holds must fit in MAX_ARRAY_BYTES."""

        def need(condition: bool, what: str):
            if not condition:
                raise ValidationError(f"solver '{self.solver}' requires {what}")

        def limit(nbytes: int, what: str, remedy: str) -> None:
            if nbytes > MAX_ARRAY_BYTES:
                raise ValidationError(
                    f"{what} would take about {(nbytes + _MIB // 2) // _MIB} MiB, above the "
                    f"{MAX_ARRAY_BYTES / _MIB:.0f} MiB limit; {remedy}"
                )

        def time_samples(columns: int) -> None:
            # every step is computed whatever the stride; this also bounds
            # the frames, which hold at most one row per time sample
            samples = self.tgrid.step_count + 1
            limit(
                8 * samples * columns,
                f"time.dt {self.tgrid.dt}: {samples} time samples of {columns} dofs",
                "raise time.dt or shorten the time span",
            )

        # a block is given when it serializes unlike a blank one
        dumped = _SCENARIO.dump(self).items()
        given = {key for key, value in dumped if value != _BLANK.get(key)}
        kind = _kind(self.solver, given)
        if kind in _FIXED_ENDS:
            need(self.bc == _FIXED_ENDS[kind][0], _FIXED_ENDS[kind][1])
        for block in _KINDS[kind][0].split():
            what = "at least one load" if block == "loads" else f"a {block} block"
            if kind == "dynamic" and block == "beam":
                what += " or a system block"  # a dynamic run without one is a beam run
            need(block in given, what)
        n = self.grid_nodes
        least = MIN_BEAM_NODES if kind in ("dynamic", "sweep") else MIN_GRID_NODES
        if n < least:
            raise ValidationError(
                f"grid.nodes must be >= {least} for solver '{self.solver}', got {n}"
            )
        # the n x n float64 arrays of the dense beam operator a run holds at once:
        # its tracemalloc peak at 101-1201 nodes (static 3.0, dynamic 5.0-5.9,
        # sweep 7.0) rounded up with one to spare; the other kinds hold none
        copies = {"static": 4, "dynamic": 7, "sweep": 8}.get(kind, 0)
        limit(
            8 * copies * n * n, f"grid.nodes {n}: the dense beam operator", "lower grid.nodes"
        )
        if kind == "static":
            if any(not isinstance(load, STATIC_LOADS) for load in self.loads):
                raise ValidationError(
                    "solver 'static' accepts only udl and point loads"
                )
        elif kind == "quasi_static":
            need(
                len(self.loads) == 1
                and isinstance(self.loads[0], (MovingPointLoad, HarmonicPointLoad)),
                "exactly one moving_point or harmonic_point load",
            )
            records = self.tgrid.step_count // self.stride + 1
            limit(
                8 * records * n,
                f"output.stride {self.stride}: {records} recorded frames of {n} columns",
                "raise output.stride or lower grid.nodes",
            )
        elif kind == "modal":
            need(given & {"bc", "modal_only"}, "a bc block or modal_only.bearing_k")
        elif kind == "system":
            if self.zeta1 != 0.0:
                raise ValidationError(
                    "rayleigh damping applies to beam runs; "
                    "set system.damping instead"
                )
            time_samples(self.system.dofs)
        elif kind == "dynamic":
            time_samples(n)
        elif kind == "sweep":
            need(
                len(self.loads) == 1 and isinstance(self.loads[0], HarmonicPointLoad),
                "exactly one harmonic_point load",
            )
            sweep = self.sweep
            periods = sweep.settle_periods + sweep.measure_periods
            samples = periods * SWEEP_STEPS_PER_PERIOD + 1
            limit(
                8 * samples * sweep.f_count,
                f"sweep.f_count {sweep.f_count}: midspan histories of {samples} steps",
                "lower sweep.f_count or the settle and measure periods",
            )
        else:  # nonlinear
            need(
                len(self.loads) == 1 and isinstance(self.loads[0], PointLoad),
                "exactly one point load",
            )
            p, position = self.loads[0].p, self.loads[0].position
            need(p >= 0.0, f"loads[0].p >= 0, got {p}")
            need(position > 0.0, f"loads[0].position > 0, got {position}")
            # 10 n-length float64 arrays held at once (9.1 measured with
            # tracemalloc at a million nodes)
            limit(
                8 * 10 * n,
                f"grid.nodes {n}: the nonlinear cantilever's nodal arrays",
                "lower grid.nodes",
            )


_MISSING = object()


class _Fields:
    """One JSON object being consumed; leftover keys are an error."""

    def __init__(self, data, path: str):
        label = path or "scenario"
        if not isinstance(data, dict):
            raise ValidationError(f"{label} must be a JSON object")
        self._data = dict(data)
        self._path = path

    def label(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    def require(self, key: str, keep: bool = False):
        """A required key's value; `keep` leaves it for the block that takes it."""
        if key not in self._data:
            raise ValidationError(f"missing required field '{self.label(key)}'")
        return self._data[key] if keep else self._data.pop(key)

    def optional(self, key: str):
        return self._data.pop(key, _MISSING)

    def finish(self):
        if self._data:
            extras = ", ".join(sorted(self.label(k) for k in self._data))
            raise ValidationError(f"unknown field(s): {extras}")


class _F(NamedTuple):
    """One schema entry: JSON key, kind, default and constructor attribute.

    `default` is _MISSING (the key is required), None (an absent key passes
    and records nothing) or the JSON value to parse in the key's place, which
    is then recorded in defaults_applied.  `attr` defaults to `key`; a dotted
    attr reaches into a nested object when serializing.
    """

    key: str
    kind: object
    default: object = _MISSING
    attr: str | None = None


@dataclass(frozen=True)
class _Scalar:
    types: tuple
    noun: str
    convert: Callable

    def parse(self, raw, label: str, defaults: dict):
        if not isinstance(raw, bool) and isinstance(raw, self.types):
            with contextlib.suppress(OverflowError):
                return self.convert(raw)
        raise ValidationError(f"'{label}' must be {self.noun}")

    def dump(self, value):
        return value


_NUMBER = _Scalar((int, float), "a finite number", float)
_INTEGER = _Scalar((int,), "an integer", int)
_STRING = _Scalar((str,), "a string", str)


@dataclass(frozen=True)
class _List:
    item: object
    noun: str = ""

    def parse(self, raw, label: str, defaults: dict) -> tuple:
        if not isinstance(raw, list):
            raise ValidationError(f"'{label}' must be a list{self.noun}")
        return tuple(
            self.item.parse(v, f"{label}[{i}]", defaults) for i, v in enumerate(raw)
        )

    def dump(self, values) -> list:
        return [self.item.dump(v) for v in values]


def _build(make: Callable, label: str, *args, **kwargs):
    """make(*args, **kwargs), naming the block in any ValidationError."""
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        raise type(exc)(f"'{label}': {exc}") from None


def _record(defaults: dict, label: str, value) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _record(defaults, f"{label}.{key}", item)
    else:
        defaults[label] = copy.copy(value)


class _Block:
    """A JSON object given by its field table.

    `make` builds the value from the parsed fields; without one the fields
    are attributes of the enclosing object (the block only groups keys).
    """

    def __init__(self, make: Callable | None, *fields: _F):
        self.make = make
        self.fields = fields

    def take(self, f: _Fields, defaults: dict) -> dict:
        kwargs: dict = {}
        for entry in self.fields:
            label = f.label(entry.key)
            raw = f.optional(entry.key)
            if raw is _MISSING:
                if entry.default is _MISSING:
                    raise ValidationError(f"missing required field '{label}'")
                if entry.default is None:
                    continue
                raw = entry.default
                _record(defaults, label, raw)
            value = entry.kind.parse(raw, label, defaults)
            if _inline(entry):
                kwargs.update(value)
            else:
                kwargs[entry.attr or entry.key] = value
        f.finish()
        return kwargs

    def parse(self, raw, label: str, defaults: dict):
        kwargs = self.take(_Fields(raw, label), defaults)
        return kwargs if self.make is None else _build(self.make, label, **kwargs)

    def dump(self, obj) -> dict:
        out: dict = {}
        for entry in self.fields:
            if _inline(entry):
                value = entry.kind.dump(obj)
            else:
                value = reduce(getattr, (entry.attr or entry.key).split("."), obj)
                if value is None:
                    continue
                value = entry.kind.dump(value)
            if entry.default is None and value in ({}, []):
                continue
            out[entry.key] = value
        return out


def _inline(entry: _F) -> bool:
    return isinstance(entry.kind, _Block) and entry.kind.make is None


@dataclass(frozen=True)
class _Tagged:
    """A JSON object whose 'type' key picks the field table of the rest."""

    blocks: Mapping[str, _Block]

    def parse(self, raw, label: str, defaults: dict):
        f = _Fields(raw, label)
        tag = _STRING.parse(f.require("type"), f"{label}.type", defaults)
        if tag not in self.blocks:
            raise ValidationError(
                f"'{label}.type' must be one of {', '.join(self.blocks)}; got '{tag}'"
            )
        block = self.blocks[tag]
        return _build(block.make, label, **block.take(f, defaults))

    def dump(self, value) -> dict:
        for tag, block in self.blocks.items():
            if type(value) is block.make:
                return {"type": tag, **block.dump(value)}
        raise ValidationError(f"cannot serialize load of type {type(value).__name__}")


class _Boundary:
    """The bc block: two end kinds, and `k` exactly when an end is a spring."""

    _ENDS = _Block(
        None, _F("left", _STRING), _F("right", _STRING), _F("k", _NUMBER, None)
    )

    def parse(self, raw, label: str, defaults: dict) -> BoundarySpec:
        ends = self._ENDS.parse(raw, label, defaults)
        kinds = (ends["left"], ends["right"])
        for side, kind in zip(("bc.left", "bc.right"), kinds):
            if kind not in _END_KINDS:
                raise ValidationError(
                    f"'{side}' must be one of {', '.join(_END_KINDS)}; got '{kind}'"
                )
        k = ends.get("k")
        if "spring" in kinds and k is None:
            raise ValidationError("'bc.k' is required when an end is 'spring'")
        if "spring" not in kinds and k is not None:
            raise ValidationError("'bc.k' given but neither end is 'spring'")
        return BoundarySpec(
            *(
                _build(EndCondition, label, kind, k if kind == "spring" else None)
                for kind in kinds
            )
        )

    def dump(self, bc: BoundarySpec) -> dict:
        block: dict = {"left": bc.left.kind, "right": bc.right.kind}
        for end in (bc.left, bc.right):
            if end.kind == "spring":
                block["k"] = end.stiffness
        return block


_LOADS = _Tagged(
    {
        "udl": _Block(UdlLoad, _F("q", _NUMBER)),
        "point": _Block(PointLoad, _F("p", _NUMBER), _F("position", _NUMBER)),
        "moving_point": _Block(
            MovingPointLoad,
            _F("p", _NUMBER),
            _F("speed", _NUMBER),
            _F("x0", _NUMBER, 0.0),
        ),
        "harmonic_point": _Block(
            HarmonicPointLoad,
            _F("p0", _NUMBER),
            _F("f_hz", _NUMBER),
            _F("position", _NUMBER),
        ),
    }
)

#: Every top-level key after "schema", in file order.  Integrator gamma and
#: beta arrive under dotted names and are joined into an IntegratorConfig.
_SCENARIO = _Block(
    None,
    _F("name", _STRING),
    _F("solver", _STRING),
    _F(
        "beam",
        _Block(
            BeamSpec,
            _F("length", _NUMBER),
            _F("width", _NUMBER),
            _F("height", _NUMBER),
            _F("elastic_modulus", _NUMBER),
            _F("density", _NUMBER),
        ),
        None,
    ),
    _F("bc", _Boundary(), None),
    _F("loads", _List(_LOADS), None),
    _F(
        "grid",
        _Block(None, _F("nodes", _INTEGER, attr="grid_nodes")),
        {"nodes": _DEFAULT_GRID_NODES},
    ),
    _F(
        "time",
        _Block(
            TimeGrid, _F("start", _NUMBER, 0.0), _F("end", _NUMBER), _F("dt", _NUMBER)
        ),
        None,
        "tgrid",
    ),
    _F(
        "integrator",
        _Block(
            None,
            _F("gamma", _NUMBER, 0.5, "integrator.gamma"),
            _F("beta", _NUMBER, 0.25, "integrator.beta_nm"),
            _F("rayleigh", _Block(None, _F("zeta1", _NUMBER)), {"zeta1": 0.0}),
        ),
        {},
    ),
    _F(
        "material",
        _Block(
            RambergOsgood,
            _F("E", _NUMBER, attr="elastic_modulus"),
            _F("alpha", _NUMBER),
            _F("n", _NUMBER),
        ),
        None,
    ),
    _F(
        "sweep",
        _Block(
            SweepSpec,
            _F("f_min", _NUMBER),
            _F("f_max", _NUMBER),
            _F("f_count", _INTEGER),
            _F("settle_periods", _INTEGER, 30),
            _F("measure_periods", _INTEGER, 10),
        ),
        None,
    ),
    _F(
        "load_sweep",
        _Block(
            LoadSweepSpec,
            _F("p_min", _NUMBER),
            _F("p_max", _NUMBER),
            _F("count", _INTEGER),
        ),
        None,
    ),
    _F(
        "system",
        _Block(
            SystemSpec,
            _F("mass", _NUMBER),
            _F("damping", _NUMBER),
            _F("stiffness", _NUMBER),
            _F("dofs", _INTEGER),
            _F(
                "force",
                _Block(
                    HarmonicDrive,
                    _F("amplitude", _NUMBER),
                    _F("f_hz", _NUMBER),
                    _F("axis", _STRING, "x"),
                ),
            ),
        ),
        None,
    ),
    _F(
        "modal_only",
        _Block(None, _F("bearing_k", _NUMBER, attr="modal_bearing_k")),
        None,
    ),
    _F("probes", _List(_NUMBER, " of positions in meters"), []),
    _F("output", _Block(None, _F("stride", _INTEGER, 1)), {}),
    _F("notes", _List(_STRING, " of strings"), None),
)
#: The field table of each kind of run: the _SCENARIO entries it reads.
_SCHEMAS = {
    kind: _Block(None, *(e for e in _SCENARIO.fields if e.key in reads))
    for kind, reads in _READS.items()
}

#: The serialized blocks of a Scenario left at every default.
_BLANK = _SCENARIO.dump(SimpleNamespace(**{f.name: f.default for f in fields(Scenario)}))


def _check_finite(data, label: str = "") -> None:
    """Reject the first NaN or infinity in a decoded JSON tree, naming its path."""
    if isinstance(data, float) and not math.isfinite(data):
        raise ValidationError(f"'{label}' must be a finite number, got {data}")
    if isinstance(data, dict):
        for key, value in data.items():
            _check_finite(value, f"{label}.{key}" if label else key)
    elif isinstance(data, list):
        for i, value in enumerate(data):
            _check_finite(value, f"{label}[{i}]")


def scenario_from_dict(data, *, stride: int | None = None) -> Scenario:
    """Validate a decoded JSON object into a Scenario (strict keys).

    Only the blocks the run's kind reads (see _KINDS) are parsed; any other
    is refused.  `stride`, when given, replaces `output.stride` before
    validation, so the size limits see the stride the run will use; a run
    that records no time series refuses it.
    """
    defaults: dict[str, object] = {}
    f = _Fields(data, "")
    schema = _STRING.parse(f.require("schema"), "schema", defaults)
    if schema != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema '{schema}' (this build reads '{SCHEMA_VERSION}')"
        )
    solver = _STRING.parse(f.require("solver", keep=True), "solver", defaults)
    kind = _kind(solver, data)
    kwargs = _SCHEMAS[kind].take(f, defaults)
    _check_finite(data)  # after the block constructors' own range checks
    if "integrator.gamma" in kwargs:
        gamma, beta_nm = kwargs.pop("integrator.gamma"), kwargs.pop("integrator.beta_nm")
        kwargs["integrator"] = _build(IntegratorConfig, "integrator", gamma, beta_nm)
    if stride is not None:
        if "output" not in _READS[kind]:
            raise ValidationError(
                f"stride {stride} given, but solver '{solver}' records no time series"
            )
        kwargs["stride"] = stride
        defaults.pop("output.stride", None)
    return Scenario(defaults_applied=defaults, **kwargs)


def _unique_keys(pairs: list) -> dict:
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = ", ".join(sorted({key for key in keys if keys.count(key) > 1}))
        raise ValidationError(f"scenario repeats key(s) in one JSON object: {repeated}")
    return data


def parse_scenario(text, *, stride: int | None = None) -> Scenario:
    """Parse scenario JSON given as bytes or str; `stride` as in scenario_from_dict."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"scenario is not valid JSON: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}"
        ) from None
    return scenario_from_dict(data, stride=stride)


def scenario_to_dict(s: Scenario) -> dict:
    """Inverse of scenario_from_dict: the blocks its kind reads, no default left out."""
    return {"schema": SCHEMA_VERSION, **_SCHEMAS[s.kind].dump(s)}


def scenario_to_json(s: Scenario) -> str:
    return json.dumps(scenario_to_dict(s), indent=2) + "\n"


_REFERENCE_BEAM = {
    "length": 10.0,
    "width": 0.2,
    "height": 0.4,
    "elastic_modulus": 25.0e9,
    "density": 2500.0,
}

_BRIDGE_MASS = 1000.0
_BRIDGE_NATURAL_HZ = 2.0
_BRIDGE_ZETA = 0.05
_BRIDGE_STIFFNESS = _BRIDGE_MASS * (2.0 * np.pi * _BRIDGE_NATURAL_HZ) ** 2
_BRIDGE_DAMPING = 2.0 * _BRIDGE_ZETA * float(np.sqrt(_BRIDGE_STIFFNESS * _BRIDGE_MASS))

#: Built-in scenarios by name; each is a scenario file less its schema and name.
_PRESETS = {
    "exp1": {
        "solver": "static",
        "beam": _REFERENCE_BEAM,
        "bc": {"left": "pinned", "right": "pinned"},
        "loads": [{"type": "udl", "q": 5000.0}],
        "grid": {"nodes": 201},
        "modal_only": {"bearing_k": 1000.0},
        "probes": [5.0],
        "notes": [
            "Bearing stiffness 1000 N/m feeds the modal analysis only; "
            "the static solve keeps ideal pin supports.",
        ],
    },
    "exp2_1": {
        "solver": "quasi_static",
        "beam": _REFERENCE_BEAM,
        "bc": {"left": "pinned", "right": "pinned"},
        "loads": [{"type": "moving_point", "p": 10000.0, "speed": 1.0, "x0": 0.0}],
        "grid": {"nodes": 201},
        "time": {"start": 0.0, "end": 15.0, "dt": 0.05},
        "probes": [5.0],
        "notes": [
            "Each frame is the static influence solution at the load's "
            "instantaneous position; inertia is deliberately excluded.",
            "Section and material values reuse the shared reference beam.",
        ],
    },
    "exp2_2": {
        "solver": "quasi_static",
        "beam": _REFERENCE_BEAM,
        "bc": {"left": "pinned", "right": "pinned"},
        "loads": [
            {"type": "harmonic_point", "p0": 10000.0, "f_hz": 1.0, "position": 5.0}
        ],
        "grid": {"nodes": 201},
        "time": {"start": 0.0, "end": 10.0, "dt": 0.01},
        "probes": [5.0],
        "notes": [
            "Frames follow the static influence shape scaled by the "
            "instantaneous load, so the history is exactly periodic at "
            "the forcing frequency.",
            "Section and material values reuse the shared reference beam.",
        ],
    },
    "exp3": {
        "solver": "static",
        "beam": _REFERENCE_BEAM,
        "bc": {"left": "clamped", "right": "free"},
        "loads": [{"type": "point", "p": 10000.0, "position": 5.0}],
        "grid": {"nodes": 201},
        "probes": [5.0, 10.0],
        "notes": [
            "Section and material values reuse the shared reference beam; "
            "this case pins only span, load magnitude and load position.",
        ],
    },
    "exp4": {
        "solver": "nonlinear",
        "beam": _REFERENCE_BEAM,
        "bc": {"left": "clamped", "right": "free"},
        "loads": [{"type": "point", "p": 10000.0, "position": 5.0}],
        "material": {"E": 25.0e9, "alpha": 5.0e6, "n": 3.0},
        "load_sweep": {"p_min": 1.0e4, "p_max": 1.0e6, "count": 25},
        "grid": {"nodes": 201},
        "probes": [10.0],
        "notes": [
            "Hardening coefficients alpha=5e6 and n=3 are assumed "
            "defaults chosen so the nonlinear branch becomes visible "
            "over the 1e4..1e6 N load sweep.",
            "The deflection comparison softens the effective modulus "
            "with stress so the nonlinear curve sits above the linear "
            "one; see README for the construction.",
        ],
    },
    "exp5_1": {
        "solver": "sweep",
        "beam": _REFERENCE_BEAM,
        "bc": {"left": "pinned", "right": "pinned"},
        "loads": [
            {"type": "harmonic_point", "p0": 1000.0, "f_hz": 5.5, "position": 5.0}
        ],
        "grid": {"nodes": 41},
        "integrator": {"gamma": 0.5, "beta": 0.25, "rayleigh": {"zeta1": 0.02}},
        "sweep": {
            "f_min": 0.5,
            "f_max": 15.0,
            "f_count": 30,
            "settle_periods": 30,
            "measure_periods": 10,
        },
        "notes": [
            "Peak response frequencies of 1.02 Hz, 2.04 Hz and 4.09 Hz "
            "have been quoted for this setup elsewhere; they are "
            "inconsistent with the closed-form fundamental frequency of "
            "about 5.74 Hz for this beam, so the sweep is expected to "
            "peak at the grid frequency nearest the analytic value.",
            "The f_hz on the load entry is nominal; the sweep grid "
            "governs the forcing frequency.",
            "First-mode damping ratio 0.02 is an assumed default; no "
            "damping value is pinned for this case.",
        ],
    },
    "exp5_2": {
        "solver": "dynamic",
        "system": {
            "mass": _BRIDGE_MASS,
            "damping": _BRIDGE_DAMPING,
            "stiffness": _BRIDGE_STIFFNESS,
            "dofs": 2,
            "force": {"amplitude": 1000.0, "f_hz": 1.8, "axis": "x"},
        },
        "time": {"start": 0.0, "end": 10.0, "dt": 0.001},
        "notes": [
            "All numeric values (mass 1000 kg, 2 Hz natural frequency, "
            "5% damping, 1000 N drive at 1.8 Hz) are assumed defaults "
            "for a two-axis mass-spring comparison model.",
            "Set system.dofs to 1 for the single-mass variant of the "
            "same comparison.",
        ],
    },
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, *, stride: int | None = None) -> Scenario:
    """Built-in scenario by name; see PRESET_NAMES for the valid set.

    `stride` as in scenario_from_dict.
    """
    if name not in _PRESETS:
        raise ValidationError(
            f"unknown preset '{name}'; valid names: {', '.join(PRESET_NAMES)}"
        )
    data = {"schema": SCHEMA_VERSION, "name": name, **_PRESETS[name]}
    return scenario_from_dict(data, stride=stride)


@dataclass(frozen=True)
class ResultSet:
    """Outputs of one scenario run plus its provenance block."""

    scenario: Scenario
    provenance: Mapping[str, object]
    static_profile: StaticProfile | None = None
    time_series: TimeSeriesResult | None = None
    modes: tuple = ()
    sweep_points: tuple = ()
    load_curve: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "provenance", dict(self.provenance))
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "sweep_points", tuple(self.sweep_points))
        object.__setattr__(self, "load_curve", tuple(self.load_curve))
        for pt in self.sweep_points:
            if not (np.isfinite(pt.f_hz) and np.isfinite(pt.amplitude_m)):
                raise ValidationError("sweep results contain non-finite values")
        for pt in self.load_curve:
            if not np.isfinite([pt.p, pt.w_lin, pt.w_nl]).all():
                raise ValidationError("load curve contains non-finite values")


def probe_nodes(s: Scenario) -> list[int]:
    """Grid node of each entry of `s.probes`, in order, repeats kept."""
    if not s.probes:
        return []
    grid = SpatialGrid.for_beam(s.beam, s.grid_nodes)
    return [grid.nearest_node(pos) for pos in s.probes]


def _attach_probes(s: Scenario, result: TimeSeriesResult) -> TimeSeriesResult:
    if not s.probes:
        return result
    mapping = {idx: result.frames[:, idx] for idx in probe_nodes(s)}
    return replace(result, probes=mapping)


def _run_static(s: Scenario) -> tuple[dict, dict]:
    profile = static_fd_solve(s.beam, s.bc, list(s.loads), s.grid_nodes)
    return {"static_profile": profile}, {}


def _run_quasi_static(s: Scenario) -> tuple[dict, dict]:
    load = s.loads[0]
    if isinstance(load, MovingPointLoad):
        result = quasi_static_moving(
            s.beam, load.p, load.speed, load.x0, s.tgrid, s.grid_nodes, s.stride
        )
    else:
        result = quasi_static_sinusoidal(
            s.beam, load.p0, load.f_hz, load.position, s.tgrid, s.grid_nodes, s.stride
        )
    result = _attach_probes(s, result)
    return {"time_series": result}, {}


def modal_bc(s: Scenario) -> BoundarySpec:
    """End conditions the modal solver should use.

    A modal_only bearing stiffness replaces both ends with elastic supports;
    otherwise the scenario's own bc applies.
    """
    if s.modal_bearing_k is not None:
        end = EndCondition.spring(s.modal_bearing_k)
        return BoundarySpec(end, end)
    return s.bc


def modal_results(s: Scenario, mode_count: int = 3) -> list[ModeSolution]:
    """Natural modes for any scenario that carries a beam."""
    if s.beam is None:
        raise ValidationError("modal analysis requires a beam block")
    if mode_count < 1:
        raise ValidationError(f"mode count must be >= 1, got {mode_count}")
    return solve_modes(s.beam, modal_bc(s), mode_count)


def _run_modal(s: Scenario) -> tuple[dict, dict]:
    modes = modal_results(s)
    extras: dict = {"mode_count": len(modes)}
    if s.modal_bearing_k is not None:
        extras["bearing_k_applied"] = s.modal_bearing_k
    return {"modes": modes}, extras


def _run_system(s: Scenario) -> tuple[dict, dict]:
    # diagonal M, C and K: every axis is already a unit-mass mode
    spec, tgrid = s.system, s.tgrid
    gain = np.zeros(spec.dofs)  # a one-DOF system is driven along x
    gain[("x", "y").index(spec.force.axis)] = spec.force.amplitude / spec.mass
    history = modal_harmonic_response(
        spec.stiffness / spec.mass,
        spec.damping / spec.mass,
        gain,
        [2.0 * np.pi * spec.force.f_hz],
        [tgrid.dt],
        tgrid.step_count,
        np.eye(spec.dofs),
        s.integrator,
        start=tgrid.start,
        stride=s.stride,
    )
    columns = ("u",) if spec.dofs == 1 else ("x", "y")
    result = TimeSeriesResult(tgrid.sample_times(s.stride), history[:, 0], columns)
    extras = {"system_dofs": spec.dofs, "drive_axis": spec.force.axis}
    return {"time_series": result}, extras


def _run_dynamic(s: Scenario) -> tuple[dict, dict]:
    result = beam_time_response(
        s.beam,
        s.bc,
        s.grid_nodes,
        list(s.loads),
        s.tgrid,
        s.integrator,
        zeta1=s.zeta1,
        stride=s.stride,
    )
    result = _attach_probes(s, result)
    return {"time_series": result}, {}


def _run_sweep(s: Scenario) -> tuple[dict, dict]:
    load = s.loads[0]
    points = frequency_sweep(
        s.beam,
        s.bc,
        s.grid_nodes,
        load.p0,
        load.position,
        s.sweep.frequencies(),
        s.integrator,
        settle_periods=s.sweep.settle_periods,
        measure_periods=s.sweep.measure_periods,
        zeta1=s.zeta1,
    )
    first_mode_hz = solve_modes(s.beam, s.bc, 1)[0].f_hz
    extras = {"first_mode_hz_analytic": first_mode_hz, "nominal_load_f_hz": load.f_hz}
    return {"sweep_points": points}, extras


def _run_nonlinear(s: Scenario) -> tuple[dict, dict]:
    load = s.loads[0]
    p_values = (
        s.load_sweep.values() if s.load_sweep is not None else np.array([load.p])
    )
    curve = linear_vs_nonlinear_curve(
        p_values, load.position, s.beam, s.material, n_nodes=s.grid_nodes
    )
    profile = nonlinear_cantilever_deflection(
        load.p, load.position, s.beam, s.material, n_nodes=s.grid_nodes
    )
    extras = {"material": asdict(s.material)}
    return {"static_profile": profile, "load_curve": curve}, extras


#: The runner of each kind of run (see _KINDS).
_RUNNERS = {
    "static": _run_static,
    "quasi_static": _run_quasi_static,
    "modal": _run_modal,
    "system": _run_system,
    "dynamic": _run_dynamic,
    "sweep": _run_sweep,
    "nonlinear": _run_nonlinear,
}


def run_scenario(s: Scenario, *, sweep_workers: int = 1) -> ResultSet:
    """Run a validated scenario's solver and gather its outputs and provenance.

    Deterministic: no clocks, no randomness.  `sweep_workers` is accepted for
    compatibility and has no effect: a sweep runs all its frequencies as one
    batched recurrence in the calling thread.  Solver failures are re-raised
    with the scenario name prefixed, preserving the original error type.
    """
    if sweep_workers < 1:
        raise ValidationError(f"sweep_workers must be >= 1, got {sweep_workers}")
    try:
        outputs, extras = _RUNNERS[s.kind](s)
    except SolverError as exc:
        raise type(exc)(f"scenario '{s.name}': {exc}") from exc
    reads = _READS[s.kind]
    provenance = {
        "tool": "beamlab",
        "version": __version__,
        "scenario": s.name,
        "solver": s.solver,
        "defaults_applied": dict(s.defaults_applied),
        "notes": list(s.notes),
        **{attr: getattr(s, attr) for attr, blocks in _RECORDED.items() if reads >= blocks},
        **extras,
    }
    return ResultSet(scenario=s, provenance=provenance, **outputs)
