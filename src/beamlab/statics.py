"""Static beam solutions.

Closed forms for the textbook simply-supported and cantilever cases, a
finite-difference solver for arbitrary end conditions, and quasi-static
time histories where each frame is the static answer for the load's current
position or magnitude.  `nodal_force` turns any load case into nodal forces
for the finite-difference and time-stepping solvers.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    STATIC_LOADS,
    BeamSpec,
    BoundarySpec,
    HarmonicPointLoad,
    MovingPointLoad,
    PointLoad,
    RankDeficiencyError,
    SpatialGrid,
    StaticProfile,
    TimeGrid,
    TimeSeriesResult,
    UdlLoad,
    ValidationError,
)


def _check_span(x, length: float, name: str = "x"):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > length):
        raise ValidationError(f"{name} outside beam span [0, {length}]")
    return x


def ss_udl_deflection(x, q: float, beam: BeamSpec):
    """Simply supported beam under a uniform load q (N/m).

    w(x) = q*x*(L^3 - 2*L*x^2 + x^3) / (24*EI); midspan value 5qL^4/(384EI).
    Accepts scalar or array x in [0, L].
    """
    xs = _check_span(x, beam.length)
    ei = beam.section.flexural_rigidity
    length = beam.length
    w = q * xs * (length**3 - 2.0 * length * xs**2 + xs**3) / (24.0 * ei)
    return w if isinstance(x, np.ndarray) else float(w)


def ss_point_deflection(x, p: float, a: float, beam: BeamSpec):
    """Simply supported beam, point load p (N) at x=a: influence function.

    Piecewise cubic, continuous slope at the load point, and symmetric in the
    sense w(x; a) = w(a; x).
    """
    xs = _check_span(x, beam.length)
    a = float(_check_span(a, beam.length, "load position a"))
    ei = beam.section.flexural_rigidity
    length = beam.length
    b = length - a
    left = p * b * xs * (length**2 - b**2 - xs**2) / (6.0 * length * ei)
    right = p * a * (length - xs) * (2.0 * length * xs - a**2 - xs**2) / (6.0 * length * ei)
    w = np.where(xs <= a, left, right)
    return w if isinstance(x, np.ndarray) else float(w)


def cantilever_point_deflection(x, p: float, a: float, beam: BeamSpec):
    """Cantilever clamped at x=0, free at x=L, point load p at x=a.

    w(x) = p*x^2*(3a - x)/(6EI) up to the load, then continues with straight
    slope: w(x) = p*a^2*(3x - a)/(6EI).
    """
    xs = _check_span(x, beam.length)
    a = float(_check_span(a, beam.length, "load position a"))
    if a == 0.0:
        raise ValidationError("cantilever load position a must be positive")
    ei = beam.section.flexural_rigidity
    loaded = p * xs**2 * (3.0 * a - xs) / (6.0 * ei)
    beyond = p * a**2 * (3.0 * xs - a) / (6.0 * ei)
    w = np.where(xs <= a, loaded, beyond)
    return w if isinstance(x, np.ndarray) else float(w)


def trapezoid_weights(grid: SpatialGrid) -> np.ndarray:
    """Nodal tributary lengths: dx at interior nodes, dx/2 at the two ends."""
    weights = np.full(grid.node_count, grid.spacing)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return weights


def beam_stiffness_matrix(beam: BeamSpec, bc: BoundarySpec, grid: SpatialGrid):
    """Assemble the bending stiffness matrix on the full grid.

    Row-weighted fourth-difference operator in the symmetric form
    K = EI * C^T diag(w) C (+ spring stiffness on end diagonals), where C holds
    the nodal curvature stencils and w the trapezoid weights.  Moment-free ends
    (pinned/free/spring) carry a zero curvature row; a clamped end uses the
    ghost-node reflection of the zero-slope condition.  Each row equals the
    classic ghost-node fourth-difference row scaled by its tributary length, so
    a unit entry of the returned force vector is one newton.

    Returns (K, free) where `free` masks the non-Dirichlet nodes.
    """
    n = grid.node_count
    dx = grid.spacing
    ei = beam.section.flexural_rigidity

    curv = np.zeros((n, n))
    inv_dx2 = 1.0 / dx**2
    for i in range(1, n - 1):
        curv[i, i - 1] = inv_dx2
        curv[i, i] = -2.0 * inv_dx2
        curv[i, i + 1] = inv_dx2
    if bc.left.kind == "clamped":
        # zero slope: ghost w[-1] = w[1], so w''(0) ~ 2(w1 - w0)/dx^2
        curv[0, 0] = -2.0 * inv_dx2
        curv[0, 1] = 2.0 * inv_dx2
    if bc.right.kind == "clamped":
        curv[n - 1, n - 1] = -2.0 * inv_dx2
        curv[n - 1, n - 2] = 2.0 * inv_dx2

    weights = trapezoid_weights(grid)
    stiffness = ei * (curv.T * weights) @ curv
    if bc.left.kind == "spring":
        stiffness[0, 0] += bc.left.stiffness
    if bc.right.kind == "spring":
        stiffness[-1, -1] += bc.right.stiffness

    free = np.ones(n, dtype=bool)
    free[0] = not bc.left.holds_deflection
    free[-1] = not bc.right.holds_deflection
    return stiffness, free


def _split_point(p: float, position: float, grid: SpatialGrid) -> np.ndarray:
    """Point load p (N) split linearly between the two bracketing nodes."""
    if not 0.0 <= position <= grid.length:
        raise ValidationError(
            f"point load position {position} outside beam span [0, {grid.length}]"
        )
    force = np.zeros(grid.node_count)
    dx = grid.spacing
    idx = min(int(position / dx), grid.node_count - 2)
    frac = position / dx - idx
    force[idx] = p * (1.0 - frac)
    force[idx + 1] = p * frac
    return force


def nodal_force(load, grid: SpatialGrid, t: float = 0.0) -> np.ndarray:
    """Full-grid nodal force vector (N) of one load case at time `t` (s).

    This is the one place a load becomes nodal forces.  A udl gives q times
    each node's tributary length.  A point force is split linearly between
    the two nodes that bracket it, so the vector sums to its magnitude: p for
    a point load, p0*sin(2*pi*f_hz*t) for a harmonic one, and p for a moving
    load while x0 + speed*t lies on [0, L].  Before a moving load reaches the
    span and after it leaves, its force is zero.
    """
    if isinstance(load, UdlLoad):
        return load.q * trapezoid_weights(grid)
    if isinstance(load, PointLoad):
        return _split_point(load.p, load.position, grid)
    if isinstance(load, HarmonicPointLoad):
        force = _split_point(load.p0, load.position, grid)
        force *= math.sin(2.0 * math.pi * load.f_hz * t)
        return force
    if isinstance(load, MovingPointLoad):
        position = load.x0 + load.speed * t
        if 0.0 <= position <= grid.length:
            return _split_point(load.p, position, grid)
        return np.zeros(grid.node_count)
    raise ValidationError(f"unknown load case {load!r}")


def static_fd_solve(
    beam: BeamSpec, bc: BoundarySpec, loads, n_nodes: int
) -> StaticProfile:
    """Finite-difference static solve K w = F with the given end conditions.

    Dirichlet nodes (pinned/clamped ends) are eliminated and restored as exact
    zeros.  Configurations that leave a rigid-body mode unconstrained (fewer
    than two end constraints, e.g. free-free or pinned-free) are rejected.
    """
    grid = SpatialGrid.for_beam(beam, n_nodes)
    if bc.constraint_count < 2:
        raise RankDeficiencyError(
            f"end conditions {bc.left.kind}-{bc.right.kind} leave rigid-body "
            "modes unconstrained"
        )
    force = np.zeros(grid.node_count)
    for load in loads:
        if not isinstance(load, STATIC_LOADS):
            raise ValidationError(
                f"time-dependent load {type(load).__name__} not allowed in a static solve"
            )
        force += nodal_force(load, grid)
    stiffness, free = beam_stiffness_matrix(beam, bc, grid)
    reduced = stiffness[np.ix_(free, free)]
    try:
        solution = np.linalg.solve(reduced, force[free])
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(f"static system is singular: {exc}") from exc
    deflection = np.zeros(grid.node_count)
    deflection[free] = solution
    return StaticProfile(grid, deflection)


def quasi_static_moving(
    beam: BeamSpec,
    p: float,
    speed: float,
    x0: float,
    tgrid: TimeGrid,
    n_nodes: int,
    stride: int = 1,
) -> TimeSeriesResult:
    """Moving-load history where every frame is the static influence solution
    at the load's current position x0 + speed*t.

    After the load leaves the span the frame is exactly zero: the model has no
    memory, by construction.  Only every `stride`-th time is computed.
    """
    if speed < 0.0:
        raise ValidationError(f"moving load speed must be nonnegative, got {speed}")
    _check_span(x0, beam.length, "moving load x0")
    grid = SpatialGrid.for_beam(beam, n_nodes)
    xs = grid.positions
    times = tgrid.sample_times(stride)
    frames = np.zeros((times.size, grid.node_count))
    for j, t in enumerate(times):
        position = x0 + speed * t
        if 0.0 <= position <= beam.length:
            frames[j] = ss_point_deflection(xs, p, position, beam)
    return TimeSeriesResult(times, frames, grid.labels)


def quasi_static_sinusoidal(
    beam: BeamSpec,
    p0: float,
    f_hz: float,
    position: float,
    tgrid: TimeGrid,
    n_nodes: int,
    stride: int = 1,
) -> TimeSeriesResult:
    """Harmonic-load history built from the static influence function.

    frame(t) = static solution for a point load p0*sin(2*pi*f*t) at `position`;
    the envelope is constant because the model carries no damping or inertia.
    Only every `stride`-th time is computed.
    """
    if f_hz <= 0.0:
        raise ValidationError(f"forcing frequency must be positive, got {f_hz}")
    _check_span(position, beam.length, "harmonic load position")
    grid = SpatialGrid.for_beam(beam, n_nodes)
    xs = grid.positions
    times = tgrid.sample_times(stride)
    shape = ss_point_deflection(xs, 1.0, position, beam)
    scale = p0 * np.sin(2.0 * np.pi * f_hz * times)
    frames = scale[:, None] * shape[None, :]
    return TimeSeriesResult(times, frames, grid.labels)
