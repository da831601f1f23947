"""Scenario files: schema, parsing, presets and execution dispatch.

A scenario is a JSON object (schema tag "beamlab/1") that pins every input a
run needs: geometry, end conditions, loads, grids, integrator settings and
solver choice.  Parsing is strict: unknown keys and the blocks a run never
reads (see _KINDS) are rejected with their dotted path.  Each block that
builds one value takes its keys, their kinds and which are optional from
that value's dataclass fields (see _typed), so renaming a field renames its
key.  An optional field left out takes the default its type declares; the
schema table holds none of its own.  Each field of the blocks a run reads
that the file left out is reported, with the value the run used, in the
output provenance block.  Each kind of run has a check beside its runner:
after its row's rules for ends, blocks and load, the check refuses at parse
the sizes, work and float range its runner could not take.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import reduce
from types import SimpleNamespace
from typing import Callable, Mapping, NamedTuple, get_type_hints

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
from .modal import ModeSolution, find_beta_roots, natural_frequencies, solve_modes
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
#: Largest array a run may hold, in bytes: the dense beam operator, the
#: recorded frames, a sweep's rows or points, or one double per time sample
#: and dof of a dynamic run, which also bounds its step count.  A scenario
#: estimated above it fails at parse instead of running out of memory
#: mid-solve.
MAX_ARRAY_BYTES = 2**30
#: Most mode-steps a sweep may take: every free mode, stepped at every
#: frequency over every step.  At the 0.5-1.3 ns per mode-step measured on
#: sweeps of 41 to 801 nodes (2 vCPUs, one BLAS thread) that is about 8 to
#: 22 minutes; a sweep estimated above it fails at parse instead of running
#: for hours or days.
MAX_MODE_STEPS = 10**12
#: Most modes `modal_results` solves.  `beamlab modal` took 0.14-0.27 ms per
#: mode at 500 to 5000 modes (exp3 and exp2_1, 2 vCPUs, one BLAS thread), and
#: 2.2 s (exp3, exp2_1) to 4.0 s (exp1's spring ends) at this ceiling.  Its
#: roots reach beta*L of about 31 400, where floats still resolve the
#: 1e-10/L root tolerance (past about 35 800 roots they do not).
MAX_MODES = 10_000
#: Largest k*dx^3/EI of a spring end on a run that fits its first mode: a
#: sweep, or a beam `dynamic` run with Rayleigh damping.  Stiffer springs
#: dwarf the beam's entries of K and leave the first mode to rounding: on the
#: reference beam at 801 nodes (one BLAS thread) a dynamic run's dense eigh
#: put omega1 1.7e-4 off the factor SVD's at this ratio, 2.7e-3 at 1e4 and 0
#: at 1e8.  It admits bc.k up to 1.7e12 N/m at 41 nodes and 1.4e16 N/m at 801.
MAX_SPRING_RATIO = 1e3
#: Smallest k*dx^3/(EI*(n-1)) of a spring end that bears the first mode (no
#: end clamped) on a beam `dynamic` run with Rayleigh damping.  The dense eigh
#: resolves omega1^2, about 2k/(rho*A*L) on soft springs, to about eps times
#: the largest eigenvalue 16*EI/(rho*A*dx^4): about 8*eps over this ratio.  On
#: the reference beam at 41, 201 and 801 nodes (one BLAS thread) omega1 was
#: within 7e-5 of the factor SVD's at this bound, 9e-5 to 6e-4 off a decade
#: below, and 10% to 100% off at 1e-15.
MIN_SPRING_RATIO = 1e-11
_MIB = 2**20
#: The fields of a beam's EI and its grid spacing.
_BEAM_FIELDS = "beam.elastic_modulus beam.width beam.height beam.length grid.nodes"


def _kind(solver: str, given) -> str:
    """The row of _KINDS a run of `solver` with the blocks `given` falls
    under.  Refuses the first given block, in schema order, it never reads."""
    if solver not in SOLVERS:
        raise ValidationError(f"solver must be one of {', '.join(SOLVERS)}; got '{solver}'")
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
        # np.linspace ascends strictly once its step tops 2 ulps of p_max;
        # asking 4 covers that step's own rounding, and comparing the span
        # in ulps with the int count never overflows
        span = (self.p_max - self.p_min) / (4 * math.ulp(self.p_max))
        if self.count > 1 and span <= self.count - 1:
            raise ValidationError(
                f"load sweep values must be strictly ascending: {self.count} points over "
                f"[{self.p_min}, {self.p_max}] are not 4 ulps of p_max apart"
            )

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

    `defaults_applied` maps the dotted path of each leaf of the serialized
    run that its file left out to the value the run used; it is excluded from
    equality so a round-tripped scenario compares equal to its source.
    """

    name: str
    solver: str
    beam: BeamSpec | None = None
    bc: BoundarySpec | None = None
    loads: tuple = ()
    grid_nodes: int = 201
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
        bc = self.bc
        if bc is not None and bc.left.kind == bc.right.kind == "spring" and bc.left != bc.right:
            # a file holds one bc.k, so a round trip would change one end
            raise ValidationError(
                f"bc.k is one stiffness for both spring ends, got {bc.left.stiffness} "
                f"and {bc.right.stiffness}"
            )
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
        """Check its ends, blocks and load by its row of _KINDS, then run the row's check."""
        # a block is given when it serializes unlike a blank one
        given = {key for key, value in _SCENARIO.dump(self).items() if value != _BLANK.get(key)}
        needs, _, ends, load_tags, check, _ = _KINDS[_kind(self.solver, given)]
        if ends:  # none of them a spring, so each end is its kind
            left, right, *name = ends.split(maxsplit=2)
            kinds = None if self.bc is None else (self.bc.left.kind, self.bc.right.kind)
            what = " ".join([f"bc {{left: {left}, right: {right}}}", *name])
            self._need(kinds == (left, right), what)
        for block in needs.split():
            what = "at least one load" if block == "loads" else f"a {block} block"
            self._need(not given.isdisjoint(block.split("|")), what.replace("|", " block or a "))
        # every kind that needs ends needs them to hold both rigid-body modes
        if "bc" in needs.split() and (warning := self.bc.rigid_body_warning):
            raise ValidationError(f"'bc': {warning}")
        if load_tags:  # a needed block, so loads[0] is there
            tags = load_tags.split()
            one = isinstance(self.loads[0], tuple(_LOADS.blocks[tag].make for tag in tags))
            self._need(len(self.loads) == 1 and one, f"exactly one {' or '.join(tags)} load")
        check(self)

    @property
    def _spring(self) -> float:
        """A spring end's stiffness, one bc.k for both, or 0."""
        return (self.bc.left.stiffness or self.bc.right.stiffness or 0.0) if self.bc else 0.0

    def _need(self, condition: bool, what: str) -> None:
        if not condition:
            raise ValidationError(f"solver '{self.solver}' requires {what}")

    @staticmethod
    def _limit(nbytes: int, what: str, remedy: str) -> None:
        if nbytes > MAX_ARRAY_BYTES:
            raise ValidationError(
                f"{what} would take about {(nbytes + _MIB // 2) // _MIB} MiB, above the "
                f"{MAX_ARRAY_BYTES / _MIB:.0f} MiB limit; {remedy}"
            )

    def _time_samples(self, columns: int) -> None:
        # every step is computed whatever the stride; this also bounds the
        # frames, which hold at most one row per time sample
        samples = self.tgrid.step_count + 1
        self._limit(
            8 * samples * columns,
            f"time.dt {self.tgrid.dt}: {samples} time samples of {columns} dofs",
            "raise time.dt or shorten the time span",
        )

    def _nodes(self, least: int, copies: int = 0) -> None:
        n = self.grid_nodes
        if n < least:
            raise ValidationError(
                f"grid.nodes must be >= {least} for solver '{self.solver}', got {n}"
            )
        # the n x n float64 arrays of the dense beam operator a run holds at
        # once, rounded up with one to spare: its tracemalloc peak at 101-1201
        # nodes (static 3.0, dynamic 5.0-5.9, sweep 3.0), plus, for a sweep, 6.0
        # that numpy's SVD mallocs where tracemalloc cannot see them: dgesdd's
        # copies of B, U and V^T, and its workspace, 3.0 by LAPACK's workspace
        # query (9.3 in all by the growth of ru_maxrss at 801-1601 nodes).  The
        # other kinds hold none
        self._limit(
            8 * copies * n * n, f"grid.nodes {n}: the dense beam operator", "lower grid.nodes"
        )

    def _finite(self, label: str, quantity: str, names: str, *values: float) -> None:
        # the error names the fields, as the file gives them, that the values
        # are built from
        if not all(map(math.isfinite, values)):
            leaves = _leaves(_SCENARIO.dump(self))
            named = ", ".join(f"{key} {leaves[key]!r}" for key in names.split() if key in leaves)
            raise ValidationError(f"'{label}': {quantity} of {named} is not a finite number")

    def _spacing(self) -> float:  # once the sizes are bounded
        return _build(SpatialGrid.for_beam, "beam.length", self.beam, self.grid_nodes).spacing

    def _deflection(self) -> float:
        # every frame is a static deflection, below (|q|*L + sum |P|)*L^3/EI:
        # the closed forms scale that bound by 5/384, 1/48 or 1/3
        length, rigidity = self.beam.length, self.beam.section.flexural_rigidity
        force = sum(
            abs(load.q) * length if isinstance(load, UdlLoad)
            else abs(load.p0 if isinstance(load, HarmonicPointLoad) else load.p)
            for load in self.loads
        )
        if self.load_sweep is not None:
            force = max(force, self.load_sweep.p_max)
        if not math.isfinite(force / rigidity * (length * length * length)):
            raise ValidationError(
                f"'beam.elastic_modulus' {self.beam.elastic_modulus!r}: at EI {rigidity!r} "
                f"N*m^2, the static deflection bound (|q|*L + sum |P|)*L^3/EI of "
                f"{force!r} N over beam.length {length!r} m is not a finite number"
            )
        return force

    def _eigenvalues(self, dx: float, whose: str) -> list[float]:
        # they run from about pi^4*EI/(rho*A*L^4) to 16*EI/(rho*A*dx^4); the
        # grid keeps dx^2 and so L^2 nonzero, and products, unlike powers,
        # overflow to inf without raising
        wave, length = self.beam.section.wave_coefficient, self.beam.length
        roots = {
            "smallest": math.pi**2 * wave / (length * length),
            "largest": 4.0 * wave / (dx * dx),
        }
        for what, root in roots.items():
            if not 0.0 < root * root < math.inf:
                raise ValidationError(
                    f"'beam.length': the {whose} {what} eigenvalue at length {length!r} "
                    f"over {self.grid_nodes} nodes is not a finite nonzero number"
                )
        return [root * root for root in roots.values()]

    def _stiffness(self, dx: float) -> float:
        # K's largest entry, in its assembly's order: the curvature stencils'
        # product, 6/dx^3 inside and 7/dx^3 beside a clamped end, then EI, then
        # a spring end's k
        entry = self.beam.section.flexural_rigidity * (7.0 / dx / dx / dx) + self._spring
        quantity = "the largest stiffness entry 7*EI/dx^3 + spring k"
        self._finite("beam", quantity, f"{_BEAM_FIELDS} bc.k", entry)
        return entry

    @property
    def _on_springs(self) -> bool:
        """Whether its springs bear the first mode: a spring end, none clamped."""
        return bool(self._spring) and "clamped" not in (self.bc.left.kind, self.bc.right.kind)

    def _spring_ratio(self, dx: float, least: float = 0.0) -> None:
        # a first mode fitted from K is lost to rounding under springs far
        # stiffer than EI/dx^3, or, by the dense eigh, far softer when they
        # bear that mode: `least` bounds the latter, over n - 1
        ratio = self._spring * dx * dx * dx / self.beam.section.flexural_rigidity
        if ratio > MAX_SPRING_RATIO:
            raise ValidationError(
                f"'bc.k' {self._spring!r}: k*dx^3/EI at grid.nodes {self.grid_nodes} is "
                f"{ratio:.3g}, above {MAX_SPRING_RATIO:.0f}, where the first mode is lost "
                "to rounding; lower bc.k or use pinned ends"
            )
        soft = ratio / (self.grid_nodes - 1)
        if self._on_springs and soft < least:
            raise ValidationError(
                f"'bc.k' {self._spring!r}: k*dx^3/(EI*(n-1)) at grid.nodes {self.grid_nodes} "
                f"is {soft:.3g}, below {least:.0e}, where the damping fit loses the first "
                "mode, which the springs bear, to rounding; raise bc.k, lower grid.nodes, "
                "clamp an end or set integrator.rayleigh.zeta1 to 0"
            )

    def _damping(self, smallest: float, entry: float) -> float:
        # Rayleigh damping b*K, b = 2*zeta1/omega1.  omega1 is at least
        # (1.8/pi)^2 of the root of the smallest eigenvalue: a cantilever's is
        # (1.875/pi)^2 of it, and 7 nodes undershoot that by 2%.  With no end
        # clamped, a beam may also move rigidly on springs k, and then
        # 1/omega1^2 <= 1/omega_beam^2 + rho*A*L/(2*k) (Dunkerley)
        period = (math.pi / 1.8) ** 2 / math.sqrt(smallest)
        if self._on_springs:
            rigid = math.sqrt(0.5 * self.beam.section.mass_per_length * self.beam.length)
            period = math.hypot(period, rigid / math.sqrt(self._spring))
        coeff = 2.0 * self.zeta1 * period
        self._finite(
            "integrator.rayleigh.zeta1",
            "the largest damping entry 2*zeta1/omega1 times the largest stiffness entry",
            f"integrator.rayleigh.zeta1 beam.density {_BEAM_FIELDS} bc.k",
            coeff * entry,
        )
        return coeff


_MISSING = object()
_DEFAULT = object()


class _F(NamedTuple):
    """One schema entry: JSON key, kind, default and constructor attribute.

    The blocks that build one value take their entries from its type's
    fields (see _typed); only the top-level layout is written out here.
    `default` is _MISSING (the key is required), None (an absent key is left
    out, and an empty value is not serialized) or _DEFAULT (an absent key is
    left out of the constructor call, so the type's own default applies, and
    the value is always serialized).  No entry holds a default of its own.
    `attr` defaults to `key`; a dotted attr reaches into a nested object when
    serializing.
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

    def parse(self, raw, label: str):
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

    def parse(self, raw, label: str) -> tuple:
        if not isinstance(raw, list):
            raise ValidationError(f"'{label}' must be a list{self.noun}")
        return tuple(self.item.parse(v, f"{label}[{i}]") for i, v in enumerate(raw))

    def dump(self, values) -> list:
        return [self.item.dump(v) for v in values]


def _build(make: Callable, label: str, /, *args, **kwargs):
    """make(*args, **kwargs), naming the block in any ValidationError.  Its
    own parameters are positional, so a field may be named make or label."""
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        raise type(exc)(f"'{label}': {exc}") from None


def _dotted(label: str, key) -> str:
    return f"{label}.{key}" if label else key


class _Block:
    """A JSON object given by its field table.

    `make` builds the value from the parsed fields; without one the fields
    are attributes of the enclosing object (the block only groups keys).
    """

    def __init__(self, make: Callable | None, *fields: _F):
        self.make = make
        self.fields = fields

    def take(self, raw, label: str, read=()) -> dict:
        """The constructor arguments of the JSON object `raw`.  Keys outside the
        table are refused, but for those in `read`, which the caller reads."""
        if not isinstance(raw, dict):
            noun = f"'{label}'" if label else "scenario"
            raise ValidationError(f"{noun} must be a JSON object")
        kwargs: dict = {}
        for entry in self.fields:
            key_label = _dotted(label, entry.key)
            if entry.key not in raw:
                if entry.default is _MISSING:
                    raise ValidationError(f"missing required field '{key_label}'")
                continue
            value = entry.kind.parse(raw[entry.key], key_label)
            if _inline(entry):
                kwargs.update(value)
            else:
                kwargs[entry.attr or entry.key] = value
        extras = raw.keys() - {entry.key for entry in self.fields} - set(read)
        if extras:
            labels = ", ".join(sorted(_dotted(label, key) for key in extras))
            raise ValidationError(f"unknown field(s): {labels}")
        return kwargs

    def parse(self, raw, label: str):
        kwargs = self.take(raw, label)
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


def _typed(make: Callable, **renamed: str) -> _Block:
    """The block of the dataclass `make`: one entry per field, in field order.

    A float, int or str field reads a number, an integer or a string, and a
    dataclass field a nested block of its own.  A field with a default may be
    left out (_DEFAULT); any other is required.  Each key is its field's
    name, but where `renamed` maps a key to the field it sets.
    """
    hints = get_type_hints(make)
    scalars = {float: _NUMBER, int: _INTEGER, str: _STRING}
    keys = {attr: key for key, attr in renamed.items()}
    entries = []
    for f in fields(make):
        hint = hints[f.name]
        optional = f.default is not MISSING or f.default_factory is not MISSING
        kind = _typed(hint) if is_dataclass(hint) else scalars[hint]
        key = keys.get(f.name, f.name)
        attr = None if key == f.name else f.name
        entries.append(_F(key, kind, _DEFAULT if optional else _MISSING, attr))
    return _Block(make, *entries)


def _read(raw, label: str, key: str) -> str:
    """The required string `key` of the JSON object `raw`, read ahead of the
    block that takes the rest of `raw`."""
    return _Block(None, _F(key, _STRING)).take(raw, label, read=raw)[key]


@dataclass(frozen=True)
class _Tagged:
    """A JSON object whose 'type' key picks the field table of the rest."""

    blocks: Mapping[str, _Block]

    def parse(self, raw, label: str):
        tag = _read(raw, label, "type")
        if tag not in self.blocks:
            raise ValidationError(
                f"'{label}.type' must be one of {', '.join(self.blocks)}; got '{tag}'"
            )
        block = self.blocks[tag]
        return _build(block.make, label, **block.take(raw, label, read=("type",)))

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

    def parse(self, raw, label: str) -> BoundarySpec:
        ends = self._ENDS.parse(raw, label)
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
        "udl": _typed(UdlLoad),
        "point": _typed(PointLoad),
        "moving_point": _typed(MovingPointLoad),
        "harmonic_point": _typed(HarmonicPointLoad),
    }
)


def _time_grid(end: float, dt: float, start: float = 0.0) -> TimeGrid:
    """The time block's TimeGrid: a run starts at 0 unless the file says."""
    return TimeGrid(start, end, dt)


#: Every top-level key after "schema", in file order.  Integrator gamma and
#: beta arrive under dotted names and are joined into an IntegratorConfig.
_SCENARIO = _Block(
    None,
    _F("name", _STRING),
    _F("solver", _STRING),
    _F("beam", _typed(BeamSpec), None),
    _F("bc", _Boundary(), None),
    _F("loads", _List(_LOADS), None),
    _F("grid", _Block(None, _F("nodes", _INTEGER, attr="grid_nodes")), _DEFAULT),
    _F(
        "time",
        _Block(_time_grid, _F("start", _NUMBER, _DEFAULT), _F("end", _NUMBER), _F("dt", _NUMBER)),
        None,
        "tgrid",
    ),
    _F(
        "integrator",
        _Block(
            None,
            _F("gamma", _NUMBER, _DEFAULT, "integrator.gamma"),
            _F("beta", _NUMBER, _DEFAULT, "integrator.beta_nm"),
            _F("rayleigh", _Block(None, _F("zeta1", _NUMBER)), _DEFAULT),
        ),
        _DEFAULT,
    ),
    _F("material", _typed(RambergOsgood, E="elastic_modulus"), None),
    _F("sweep", _typed(SweepSpec), None),
    _F("load_sweep", _typed(LoadSweepSpec), None),
    _F("system", _typed(SystemSpec), None),
    _F(
        "modal_only",
        _Block(None, _F("bearing_k", _NUMBER, attr="modal_bearing_k")),
        None,
    ),
    _F("probes", _List(_NUMBER, " of positions in meters"), _DEFAULT),
    _F("output", _Block(None, _F("stride", _INTEGER, _DEFAULT)), _DEFAULT),
    _F("notes", _List(_STRING, " of strings"), None),
)

#: The serialized blocks of a Scenario left at every default.
_BLANK = _SCENARIO.dump(SimpleNamespace(**{f.name: f.default for f in fields(Scenario)}))


def _dump(s, kind: str) -> dict:
    """The blocks of `s` that its kind of run reads, serialized."""
    return _Block(None, *(e for e in _SCENARIO.fields if e.key in _READS[kind])).dump(s)


def _leaves(tree, label: str = "", out: dict | None = None) -> dict:
    """Dotted path to value of each scalar, empty object and empty list of a
    decoded JSON tree, depth first.  Refuses the first NaN or infinity,
    naming its path."""
    out = {} if out is None else out
    if isinstance(tree, dict) and tree:
        for key, value in tree.items():
            _leaves(value, _dotted(label, key), out)
    elif isinstance(tree, list) and tree:
        for i, value in enumerate(tree):
            _leaves(value, f"{label}[{i}]", out)
    elif isinstance(tree, float) and not math.isfinite(tree):
        raise ValidationError(f"'{label}' must be a finite number, got {tree}")
    else:
        out[label] = tree
    return out


def scenario_from_dict(data, *, stride: int | None = None) -> Scenario:
    """Validate a decoded JSON object into a Scenario (strict keys).

    Only the blocks the run's kind reads (see _KINDS) are parsed; any other
    is refused.  An absent optional field takes its type's default, and
    `defaults_applied` lists each such field of the serialized run.  `stride`,
    when given, replaces `output.stride` before validation, so the size
    limits see the stride the run will use; a run that records no time
    series refuses it.
    """
    schema = _read(data, "", "schema")
    if schema != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema '{schema}' (this build reads '{SCHEMA_VERSION}')"
        )
    solver = _read(data, "", "solver")
    kind = _kind(solver, data)
    kwargs = _SCENARIO.take(data, "", read=("schema",))
    # refuses NaN and infinity after the block constructors' own range checks
    given = _leaves(data)
    # the table's dotted attrs are the integrator's
    joined = {key.split(".")[1]: kwargs.pop(key) for key in [*kwargs] if "." in key}
    kwargs["integrator"] = _build(IntegratorConfig, "integrator", **joined)
    if stride is not None:
        if "output" not in _READS[kind]:
            raise ValidationError(
                f"stride {stride} given, but solver '{solver}' records no time series"
            )
        kwargs["stride"] = stride
        given["output.stride"] = stride
    parsed = SimpleNamespace(**{f.name: f.default for f in fields(Scenario)} | kwargs)
    leaves = _leaves(_dump(parsed, kind))
    defaults = {path: value for path, value in leaves.items() if path not in given}
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
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"scenario is not UTF-8: {exc.reason} at byte {exc.start}"
            ) from None
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"scenario is not valid JSON: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}"
        ) from None
    except RecursionError:
        raise ValidationError("scenario nests its JSON arrays or objects too deeply") from None
    return scenario_from_dict(data, stride=stride)


def scenario_to_dict(s: Scenario) -> dict:
    """Inverse of scenario_from_dict: the blocks its kind reads, no default left out."""
    return {"schema": SCHEMA_VERSION, **_dump(s, s.kind)}


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


def _check_static(s: Scenario) -> None:
    s._nodes(MIN_GRID_NODES, 4)
    if any(not isinstance(load, STATIC_LOADS) for load in s.loads):
        raise ValidationError("solver 'static' accepts only udl and point loads")
    dx = s._spacing()
    s._deflection()
    s._stiffness(dx)


def _run_static(s: Scenario) -> tuple[dict, dict]:
    profile = static_fd_solve(s.beam, s.bc, list(s.loads), s.grid_nodes)
    return {"static_profile": profile}, {}


def _check_quasi_static(s: Scenario) -> None:
    s._nodes(MIN_GRID_NODES)
    records, n = s.tgrid.step_count // s.stride + 1, s.grid_nodes
    what = f"output.stride {s.stride}: {records} recorded frames of {n} columns"
    s._limit(8 * records * n, what, "raise output.stride or lower grid.nodes")
    s._spacing()
    s._deflection()


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
    if not 1 <= mode_count <= MAX_MODES:
        raise ValidationError(f"mode count must be in [1, {MAX_MODES}], got {mode_count}")
    return solve_modes(s.beam, modal_bc(s), mode_count)


def _check_modal(s: Scenario) -> None:
    ends = s.bc is not None or s.modal_bearing_k is not None
    s._need(ends, "a bc block or modal_only.bearing_k")


def _run_modal(s: Scenario) -> tuple[dict, dict]:
    modes = modal_results(s)
    extras: dict = {"mode_count": len(modes)}
    if s.modal_bearing_k is not None:
        extras["bearing_k_applied"] = s.modal_bearing_k
    return {"modes": modes}, extras


def _check_system(s: Scenario) -> None:
    if s.zeta1 != 0.0:
        raise ValidationError("rayleigh damping applies to beam runs; set system.damping instead")
    s._time_samples(s.system.dofs)
    # the modal recurrence steps unit-mass modes, one per axis
    spec, dt = s.system, s.tgrid.dt
    lam = spec.stiffness / spec.mass
    s._finite(
        "system.mass",
        "one of k/m, c/m, amplitude/m and beta*dt^2*k/m",
        "system.mass system.stiffness system.damping system.force.amplitude time.dt "
        "integrator.beta",
        lam,
        spec.damping / spec.mass,
        spec.force.amplitude / spec.mass,
        s.integrator.beta_nm * dt * dt * lam,
    )


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


def _check_dynamic(s: Scenario) -> None:
    s._nodes(MIN_BEAM_NODES, 7)
    s._time_samples(s.grid_nodes)
    dx = s._spacing()
    entry = s._stiffness(dx)
    if s.zeta1 > 0.0:  # the Rayleigh fit takes the first mode, by a dense eigh
        s._spring_ratio(dx, MIN_SPRING_RATIO)
        smallest, _ = s._eigenvalues(dx, "dynamic run's")
        s._damping(smallest, entry)


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
    return {"time_series": result}, {}


def _check_sweep(s: Scenario) -> None:
    s._nodes(MIN_BEAM_NODES, 10)
    sweep = s.sweep
    # 128 bytes per frequency point: its frequency, its window peaks and its
    # result point, 76-77 measured with tracemalloc as the slope between 200
    # and 3000 points, rounded up
    what = f"sweep.f_count {sweep.f_count}: the sweep's points"
    s._limit(128 * sweep.f_count, what, "lower sweep.f_count")
    # every free mode at every frequency over every step; a mirror-symmetric
    # sweep steps only the modes symmetric about midspan, but this counts them
    # all.  Within it, one frequency's recurrence rows, which grow with
    # sqrt(steps) and the modes, stay below MAX_ARRAY_BYTES at every grid the
    # operator limit admits
    steps = (sweep.settle_periods + sweep.measure_periods) * SWEEP_STEPS_PER_PERIOD
    modes = s.grid_nodes - sum(end.holds_deflection for end in (s.bc.left, s.bc.right))
    work = modes * sweep.f_count * steps
    if work > MAX_MODE_STEPS:
        raise ValidationError(
            f"sweep.settle_periods {sweep.settle_periods} + sweep.measure_periods "
            f"{sweep.measure_periods} at sweep.f_count {sweep.f_count}: {steps} "
            f"steps of {modes} modes at each frequency would take {work:.2e} "
            f"mode-steps, above the {MAX_MODE_STEPS:.0e} limit; lower the settle "
            "and measure periods, sweep.f_count or grid.nodes"
        )
    dx = s._spacing()
    s._spring_ratio(dx)
    smallest, largest = s._eigenvalues(dx, "sweep's")
    coeff = s._damping(smallest, largest)
    # every step is 1/(SWEEP_STEPS_PER_PERIOD*f) long, the longest at f_min
    dt = 1.0 / SWEEP_STEPS_PER_PERIOD / sweep.f_min
    s._finite(
        "sweep.f_min",
        f"the step dt = 1/({SWEEP_STEPS_PER_PERIOD}*f_min) or the Newmark terms "
        "beta*dt^2*lambda_max and gamma*dt*b*lambda_max",
        f"sweep.f_min integrator.beta integrator.gamma beam.density {_BEAM_FIELDS}",
        dt,
        s.integrator.beta_nm * dt * dt * largest,
        s.integrator.gamma * dt * coeff * largest,
    )


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
    first_mode_hz = natural_frequencies(find_beta_roots(s.beam, s.bc, 1), s.beam)[0].f_hz
    extras = {"first_mode_hz_analytic": first_mode_hz, "nominal_load_f_hz": load.f_hz}
    return {"sweep_points": points}, extras


def _check_nonlinear(s: Scenario) -> None:
    s._nodes(MIN_GRID_NODES)
    p, position = s.loads[0].p, s.loads[0].position
    s._need(p >= 0.0, f"loads[0].p >= 0, got {p}")
    s._need(position > 0.0, f"loads[0].position > 0, got {position}")
    # 10 n-length float64 arrays held at once (9.1 measured with tracemalloc
    # at a million nodes)
    what = f"grid.nodes {s.grid_nodes}: the nonlinear cantilever's nodal arrays"
    s._limit(8 * 10 * s.grid_nodes, what, "lower grid.nodes")
    if s.load_sweep is not None:
        # 256 bytes per point of the load curve: its load, its point and
        # their list slots, 193-204 measured with tracemalloc as the slope
        # between 200 and 8000 points, rounded up
        count = s.load_sweep.count
        what = f"load_sweep.count {count}: the load curve's points"
        s._limit(256 * count, what, "lower load_sweep.count")
    s._spacing()
    force = s._deflection()
    # the profile divides by material.E, not by the beam's modulus, and
    # softens it by 1 + alpha*(sigma/E)^(n-1) at the extreme-fibre stress
    # sigma, largest at the root: P*a*(h/2)/I
    law, inertia, length = s.material, s.beam.section.second_moment, s.beam.length
    ratio = force * position * (0.5 * s.beam.height) / inertia / law.elastic_modulus
    softening = math.inf
    with contextlib.suppress(OverflowError):
        softening = 1.0 + law.alpha * ratio ** (law.n - 1.0)
    # 0 * inf is NaN: a zero load is refused where E*I underflows
    flexibility = 1.0 / law.elastic_modulus / inertia
    s._finite(
        "material.E",
        "the nonlinear deflection bound P*L^3/(E*I)*(1 + alpha*(P*a*h/(2*E*I))^(n-1))",
        "material.E material.alpha material.n loads[0].p load_sweep.p_max "
        "loads[0].position beam.width beam.height beam.length",
        force * flexibility * (length * length * length) * softening,
    )


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


#: What each kind of run accepts: the top-level blocks it cannot run without,
#: those it may be given besides name, solver and notes (any other block is
#: refused), the ends it is fixed to, left, right and their name, the _LOADS
#: tags of the one load it takes, the check Scenario._check_solver calls once
#: those hold, and the runner run_scenario calls.  A needed "a|b" is met by
#: either block, but the kind reads only a: a dynamic run with a system block
#: is its own kind, "system".  Every beam kind reads modal_only: `beamlab
#: modal` reads any scenario with a beam.
_KINDS = {
    "static": ("beam bc loads", "grid modal_only probes", "", "", _check_static, _run_static),
    "quasi_static": ("beam bc loads time", "grid modal_only probes output", "pinned pinned",
                     "moving_point harmonic_point", _check_quasi_static, _run_quasi_static),
    "modal": ("beam", "bc modal_only", "", "", _check_modal, _run_modal),
    "system": ("system time", "integrator output", "", "", _check_system, _run_system),
    "dynamic": ("beam|system bc loads time", "grid integrator modal_only probes output", "", "",
                _check_dynamic, _run_dynamic),
    "sweep": ("beam bc loads sweep", "grid integrator modal_only", "", "harmonic_point",
              _check_sweep, _run_sweep),
    "nonlinear": ("beam bc loads material", "grid load_sweep modal_only probes",
                  "clamped free (cantilever)", "point", _check_nonlinear, _run_nonlinear),
}
SOLVERS = tuple(kind for kind in _KINDS if kind != "system")
_READS = {
    kind: {"name", "solver", "notes", *more.split(), *(b.partition("|")[0] for b in needs.split())}
    for kind, (needs, more, *_) in _KINDS.items()
}
#: The provenance entry of each attribute, on the runs that read all its
#: blocks: rayleigh damping applies to beam runs only.
_RECORDED = {"grid_nodes": {"grid"}, "zeta1": {"beam", "integrator"}, "stride": {"output"}}


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
        outputs, extras = _KINDS[s.kind][-1](s)
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
