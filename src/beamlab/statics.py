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


def _ends(bc: BoundarySpec):
    """(end, its node, that node's neighbour) for the left and right ends."""
    return ((bc.left, 0, 1), (bc.right, -1, -2))


def _curvature_stencils(bc: BoundarySpec, grid: SpatialGrid):
    """Nodal curvature stencils C over the free nodes, and the free-node mask.

    Row i of C gives w''(x_i) from the free deflections.  Moment-free ends
    (pinned/free/spring) carry a zero row; a clamped end uses the ghost-node
    reflection of the zero-slope condition.
    """
    n = grid.node_count
    curv = np.zeros((n, n))
    inv_dx2 = 1.0 / grid.spacing**2
    for i in range(1, n - 1):
        curv[i, i - 1 : i + 2] = (inv_dx2, -2.0 * inv_dx2, inv_dx2)
    free = np.ones(n, dtype=bool)
    for end, node, inner in _ends(bc):
        free[node] = not end.holds_deflection
        if end.kind == "clamped":
            # zero slope: ghost w[-1] = w[1], so w''(0) ~ 2(w1 - w0)/dx^2
            curv[node, [node, inner]] = (-2.0 * inv_dx2, 2.0 * inv_dx2)
    return curv[:, free], free  # a Dirichlet node's zero deflection adds nothing


def beam_stiffness_matrix(beam: BeamSpec, bc: BoundarySpec, grid: SpatialGrid):
    """Assemble the bending stiffness matrix over the free nodes.

    Row-weighted fourth-difference operator in the symmetric form
    K = EI * C^T diag(w) C (+ spring stiffness on end diagonals), where C holds
    the nodal curvature stencils of `_curvature_stencils` and w the trapezoid
    weights.  Each row equals the classic ghost-node fourth-difference row
    scaled by its tributary length, so a unit entry of the returned force
    vector is one newton.

    Returns (K, free) where `free` masks the non-Dirichlet nodes; K covers
    the free nodes only, in grid order.
    """
    curv, free = _curvature_stencils(bc, grid)
    weights = trapezoid_weights(grid)
    stiffness = beam.section.flexural_rigidity * (curv.T * weights) @ curv
    for end, node, _ in _ends(bc):
        if end.kind == "spring":  # a free node, so first or last in K too
            stiffness[node, node] += end.stiffness
    return stiffness, free


def beam_factor(beam: BeamSpec, bc: BoundarySpec, grid: SpatialGrid):
    """The factor B of the stiffness matrix: B^T B = K over the free nodes.

    Row i is sqrt(EI * w_i) * C_i, with C the curvature stencils that
    `beam_stiffness_matrix` assembles and w the trapezoid weights; the zero
    rows of moment-free ends are dropped, and each spring end adds a row
    holding sqrt(k) at its node.  B's condition number is the square root
    of K's, so eigenvalues taken as B's squared singular values keep digits
    that an eigensolve of K loses.  B has at least as many rows as columns
    whenever the ends constrain both rigid-body modes.

    Returns (B, free) with `free` as `beam_stiffness_matrix` gives it.
    """
    curv, free = _curvature_stencils(bc, grid)
    kept = np.any(curv, axis=1)
    scale = np.sqrt(beam.section.flexural_rigidity * trapezoid_weights(grid)[kept])
    springs = [(node, end.stiffness) for end, node, _ in _ends(bc) if end.kind == "spring"]
    factor = np.zeros((scale.size + len(springs), curv.shape[1]))
    np.multiply(scale[:, None], curv[kept], out=factor[: scale.size])
    # a spring's node is free, so first or last among B's columns too
    for row, (node, stiffness) in enumerate(springs, scale.size):
        factor[row, node] = math.sqrt(stiffness)
    return factor, free


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
    zeros.  Ends that leave a rigid-body mode free (e.g. free-free or
    pinned-free) are refused with `BoundarySpec.rigid_body_warning`.
    """
    grid = SpatialGrid.for_beam(beam, n_nodes)
    if warning := bc.rigid_body_warning:
        raise RankDeficiencyError(warning)
    force = np.zeros(grid.node_count)
    for load in loads:
        if not isinstance(load, STATIC_LOADS):
            raise ValidationError(
                f"time-dependent load {type(load).__name__} not allowed in a static solve"
            )
        force += nodal_force(load, grid)
    stiffness, free = beam_stiffness_matrix(beam, bc, grid)
    try:
        solution = np.linalg.solve(stiffness, force[free])
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
    times = tgrid.sample_times(stride)
    positions = x0 + speed * times
    frames = np.zeros((times.size, grid.node_count))
    # the frames with the load on the span, a block of rows at a time so the
    # broadcast's temporaries stay near 8k entries (64 KiB) each
    on = np.flatnonzero((positions >= 0.0) & (positions <= beam.length))
    rows = max(1, 2**13 // grid.node_count)
    for start in range(0, on.size, rows):
        block = on[start : start + rows]
        frames[block] = _ss_point_rows(grid.positions, p, positions[block], beam)
    return TimeSeriesResult(times, frames, grid.labels)


def _ss_point_rows(xs: np.ndarray, p: float, a: np.ndarray, beam: BeamSpec) -> np.ndarray:
    """Row i is `ss_point_deflection(xs, p, a[i], beam)`, bit for bit: one
    broadcast of its formulas, operation for operation.  The squares of a
    and b are Python float powers, as there: numpy's square can round
    differently from the C library's pow."""
    ei = beam.section.flexural_rigidity
    length = beam.length
    b = length - a
    a2, b2 = (np.array([v**2 for v in values.tolist()]) for values in (a, b))
    left = (p * b)[:, None] * xs * ((length**2 - b2)[:, None] - xs**2) / (6.0 * length * ei)
    right = (
        (p * a)[:, None] * (length - xs) * (2.0 * length * xs - a2[:, None] - xs**2)
        / (6.0 * length * ei)
    )
    return np.where(xs <= a[:, None], left, right)


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
