"""Core value types shared by every solver.

A uniform Euler-Bernoulli beam is described by :class:`BeamSpec` (geometry and
material), :class:`BoundarySpec` (one :class:`EndCondition` per end) and a list
of load cases.  Solvers sample space on a :class:`SpatialGrid` and time on a
:class:`TimeGrid`, and report results as :class:`StaticProfile` or
:class:`TimeSeriesResult`.

Sign convention, fixed library-wide: positive deflection points in the load
direction (downward), so static deflection under a downward load is positive.
All quantities are SI.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np


class BeamlabError(Exception):
    """Base class for all library errors."""


class ValidationError(BeamlabError, ValueError):
    """Invalid input: bad field value, malformed scenario, domain violation."""


class SolverError(BeamlabError, RuntimeError):
    """A solver could not produce a result for structurally valid input."""


class RankDeficiencyError(SolverError):
    """The assembled system has unconstrained rigid-body modes."""


class NonConvergenceError(SolverError):
    """An iteration or sweep failed to reach a steady answer."""


class InsufficientRootsError(SolverError):
    """The characteristic-root scan found fewer roots than requested."""


class DegenerateModeError(SolverError):
    """Mode-shape extraction hit a non-isolated singular value."""


def _positive(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be positive and finite, got {value}")
    return value


def _nonnegative(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValidationError(f"{name} must be nonnegative and finite, got {value}")
    return value


def _finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value


def _finite_nonzero(compute: Callable[[], float], what: str) -> float:
    """compute(), refused unless a finite nonzero number: an overflow or an
    underflow to zero raises a ValidationError that names `what`."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value) or value == 0.0:
        raise ValidationError(f"{what} is not a finite nonzero number")
    return value


@dataclass(frozen=True)
class SectionProperties:
    """Quantities derived from a rectangular cross-section."""

    area: float                # m^2
    second_moment: float       # m^4
    flexural_rigidity: float   # N*m^2
    mass_per_length: float     # kg/m
    wave_coefficient: float    # m^2/s, sqrt(flexural_rigidity / mass_per_length)


@dataclass(frozen=True)
class BeamSpec:
    """Uniform beam of rectangular cross-section.

    length, width, height in meters, elastic_modulus in Pa, density in kg/m^3.
    All fields must be strictly positive, and the section quantities derived
    from them finite and nonzero.
    """

    length: float
    width: float
    height: float
    elastic_modulus: float
    density: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _positive(getattr(self, f.name), f.name))
        self.section  # derived once here, which refuses an out-of-range section

    @functools.cached_property
    def section(self) -> SectionProperties:
        return derive_section(self)


def derive_section(beam: BeamSpec) -> SectionProperties:
    """Closed-form section quantities for a rectangular beam.

    area = width*height, second_moment = width*height^3/12, and the wave
    coefficient sqrt(EI / rho*A) that sets the free-vibration frequency scale.
    Pure function: identical inputs give bit-identical outputs.  A quantity
    that overflows or underflows to zero is refused, naming the fields it is
    built from.
    """

    def checked(compute, quantity: str, names: str) -> float:
        given = ", ".join(f"{name} {getattr(beam, name)!r}" for name in names.split())
        return _finite_nonzero(compute, f"the {quantity} of {given}")

    area = checked(lambda: beam.width * beam.height, "section area", "width height")
    second_moment = checked(
        lambda: beam.width * beam.height**3 / 12.0, "second moment of area", "width height"
    )
    flexural_rigidity = checked(
        lambda: beam.elastic_modulus * second_moment,
        "flexural rigidity",
        "elastic_modulus width height",
    )
    mass_per_length = checked(
        lambda: beam.density * area, "mass per length", "density width height"
    )
    wave_coefficient = checked(
        lambda: math.sqrt(flexural_rigidity / mass_per_length),
        "wave coefficient",
        "elastic_modulus density width height",
    )
    return SectionProperties(
        area=area,
        second_moment=second_moment,
        flexural_rigidity=flexural_rigidity,
        mass_per_length=mass_per_length,
        wave_coefficient=wave_coefficient,
    )


_END_KINDS = ("pinned", "clamped", "free", "spring")


@dataclass(frozen=True)
class EndCondition:
    """Support at one beam end: pinned, clamped, free, or a vertical spring."""

    kind: str
    stiffness: float | None = None  # N/m, springs only

    def __post_init__(self):
        if self.kind not in _END_KINDS:
            raise ValidationError(
                f"end condition kind must be one of {_END_KINDS}, got {self.kind!r}"
            )
        if self.kind == "spring":
            if self.stiffness is None:
                raise ValidationError("spring end condition requires a stiffness")
            object.__setattr__(
                self, "stiffness", _positive(self.stiffness, "spring stiffness")
            )
        elif self.stiffness is not None:
            raise ValidationError(f"{self.kind} end condition takes no stiffness")

    @classmethod
    def pinned(cls) -> "EndCondition":
        return cls("pinned")

    @classmethod
    def clamped(cls) -> "EndCondition":
        return cls("clamped")

    @classmethod
    def free(cls) -> "EndCondition":
        return cls("free")

    @classmethod
    def spring(cls, stiffness: float) -> "EndCondition":
        return cls("spring", stiffness)

    @property
    def holds_deflection(self) -> bool:
        """True if the end enforces zero deflection (a Dirichlet node)."""
        return self.kind in ("pinned", "clamped")

    @property
    def constraint_count(self) -> int:
        # Constraints against the rigid modes {1, x}: deflection and, for a
        # clamped end, slope.  Springs restrain deflection elastically.
        if self.kind == "clamped":
            return 2
        if self.kind == "free":
            return 0
        return 1


@dataclass(frozen=True)
class BoundarySpec:
    """End-condition pair (left at x=0, right at x=L)."""

    left: EndCondition
    right: EndCondition

    @classmethod
    def pinned_pinned(cls) -> "BoundarySpec":
        return cls(EndCondition.pinned(), EndCondition.pinned())

    @classmethod
    def clamped_free(cls) -> "BoundarySpec":
        return cls(EndCondition.clamped(), EndCondition.free())

    @property
    def constraint_count(self) -> int:
        return self.left.constraint_count + self.right.constraint_count

    @property
    def rigid_body_warning(self) -> str | None:
        """Why the ends leave a rigid-body mode free, or None if they hold
        both: the one text with which every beam solver refuses them."""
        if self.constraint_count < 2:
            return f"end conditions {self.left.kind}-{self.right.kind} leave rigid-body modes free"
        return None


@dataclass(frozen=True)
class UdlLoad:
    """Uniformly distributed load of intensity q (N/m, downward positive)."""

    q: float

    def __post_init__(self):
        object.__setattr__(self, "q", _finite(self.q, "udl q"))


@dataclass(frozen=True)
class PointLoad:
    """Fixed point load p (N) at `position` (m from the left end)."""

    p: float
    position: float

    def __post_init__(self):
        object.__setattr__(self, "p", _finite(self.p, "point load p"))
        object.__setattr__(
            self, "position", _nonnegative(self.position, "point load position")
        )


@dataclass(frozen=True)
class MovingPointLoad:
    """Point load p (N) entering at x0 and travelling at `speed` (m/s)."""

    p: float
    speed: float
    x0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", _finite(self.p, "moving load p"))
        object.__setattr__(self, "speed", _nonnegative(self.speed, "moving load speed"))
        object.__setattr__(self, "x0", _nonnegative(self.x0, "moving load x0"))


@dataclass(frozen=True)
class HarmonicPointLoad:
    """Point load p0*sin(2*pi*f_hz*t) (N) applied at a fixed position."""

    p0: float
    f_hz: float
    position: float

    def __post_init__(self):
        object.__setattr__(self, "p0", _finite(self.p0, "harmonic load p0"))
        object.__setattr__(self, "f_hz", _positive(self.f_hz, "harmonic load f_hz"))
        object.__setattr__(
            self, "position", _nonnegative(self.position, "harmonic load position")
        )


#: Load types whose force does not change with time.
STATIC_LOADS = (UdlLoad, PointLoad)


def check_load_positions(loads, length: float) -> None:
    """Raise ValidationError for any load placed beyond `length`.

    The error names the field by its scenario path, `loads[i].position` or
    `loads[i].x0`; the load types themselves reject negative positions.
    """
    for i, load in enumerate(loads):
        for name in ("position", "x0"):
            value = getattr(load, name, None)
            if value is not None and value > length:
                raise ValidationError(
                    f"loads[{i}].{name} {value} is outside the span [0, {length}]"
                )


#: Fewest nodes a spatial grid accepts.
MIN_GRID_NODES = 5


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid of `node_count` nodes spanning [0, length]."""

    length: float
    node_count: int

    def __post_init__(self):
        object.__setattr__(self, "length", _positive(self.length, "grid length"))
        if int(self.node_count) != self.node_count or self.node_count < MIN_GRID_NODES:
            raise ValidationError(
                f"grid node_count must be an integer >= {MIN_GRID_NODES}, "
                f"got {self.node_count}"
            )
        object.__setattr__(self, "node_count", int(self.node_count))
        # every curvature stencil is scaled by it
        _finite_nonzero(
            lambda: 1.0 / self.spacing**2,
            f"1/spacing^2 of length {self.length!r} over {self.node_count} nodes",
        )

    @classmethod
    def for_beam(cls, beam: BeamSpec, node_count: int) -> "SpatialGrid":
        return cls(beam.length, node_count)

    @property
    def spacing(self) -> float:
        return self.length / (self.node_count - 1)

    @property
    def positions(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.node_count)

    @property
    def labels(self) -> tuple[str, ...]:
        """Column label of each node in output files: `x=` and the position's repr."""
        return tuple(f"x={pos!r}" for pos in self.positions.tolist())

    def nearest_node(self, position: float) -> int:
        """Index of the grid node closest to `position` (m)."""
        position = _finite(position, "probe position")
        if position < 0.0 or position > self.length:
            raise ValidationError(
                f"position {position} outside beam span [0, {self.length}]"
            )
        return int(np.argmin(np.abs(self.positions - position)))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time axis from `start` to `end` with step `dt` (seconds).

    The span must hold a whole number of steps (to a relative 1e-9), so the
    last sample lands on `end`.
    """

    start: float
    end: float
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "start", _finite(self.start, "time start"))
        object.__setattr__(self, "end", _finite(self.end, "time end"))
        object.__setattr__(self, "dt", _positive(self.dt, "time dt"))
        if self.end <= self.start:
            raise ValidationError(
                f"time end must exceed start, got [{self.start}, {self.end}]"
            )
        steps = (self.end - self.start) / self.dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
            raise ValidationError(
                f"time span [{self.start}, {self.end}] is not a whole number of "
                f"steps dt={self.dt} ({steps:.6g} steps)"
            )

    @property
    def step_count(self) -> int:
        return round((self.end - self.start) / self.dt)

    @property
    def times(self) -> np.ndarray:
        return self.sample_times(1)

    def sample_times(self, stride: int) -> np.ndarray:
        """Every `stride`-th entry of `times`, computed without the others."""
        if stride < 1:
            raise ValidationError(f"stride must be >= 1, got {stride}")
        return self.start + self.dt * np.arange(0, self.step_count + 1, stride)


def _readonly(values) -> np.ndarray:
    """`values` as a read-only float64 array; a float64 array is kept as
    given, not copied."""
    array = np.asarray(values, dtype=float)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class StaticProfile:
    """Deflection (or mode shape) sampled on a spatial grid."""

    grid: SpatialGrid
    deflection: np.ndarray  # m, one entry per node

    def __post_init__(self):
        arr = _readonly(self.deflection)
        if arr.shape != (self.grid.node_count,):
            raise ValidationError(
                f"deflection has shape {arr.shape}, expected ({self.grid.node_count},)"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("deflection contains non-finite values")
        object.__setattr__(self, "deflection", arr)

    def at(self, position: float) -> float:
        return float(self.deflection[self.grid.nearest_node(position)])


@dataclass(frozen=True)
class TimeSeriesResult:
    """Sampled response history.

    `frames` holds one row per recorded time and one column per node (beam
    runs) or per degree of freedom (mass-spring runs); `columns` labels the
    frame columns, one string each.
    """

    times: np.ndarray
    frames: np.ndarray
    columns: tuple[str, ...]

    def __post_init__(self):
        times = _readonly(self.times)
        frames = _readonly(self.frames)
        if frames.ndim != 2 or frames.shape[0] != times.size:
            raise ValidationError(
                f"frames shape {frames.shape} does not match {times.size} sample times"
            )
        if not np.all(np.isfinite(frames)) or not np.all(np.isfinite(times)):
            raise ValidationError("time series contains non-finite values")
        columns = tuple(self.columns)
        if len(columns) != frames.shape[1] or not all(isinstance(c, str) for c in columns):
            raise ValidationError(
                f"columns must be {frames.shape[1]} strings, one per frame column, "
                f"got {len(columns)} labels"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "columns", columns)

    @property
    def probes(self) -> np.ndarray:
        """Each frame column's history, by column index (a beam run's by
        node): a read-only view of `frames`, not a copy."""
        return self.frames.T
