"""Direct time integration and discrete dynamic models.

The implicit update solves, each step,

    (M + gamma*dt*C + beta*dt^2*K) a+ = F+ - C*(v + (1-gamma)*dt*a)
                                          - K*(u + dt*v + (1/2-beta)*dt^2*a)

then u+ = u* + beta*dt^2*a+ and v+ = v* + gamma*dt*a+, where u*, v* are the
predictor terms above.  With gamma=1/2, beta=1/4 (average acceleration) the
scheme is unconditionally stable for linear systems and adds no algorithmic
damping.  The effective matrix is factorized once per run.

Beams are reduced to mass-spring chains by lumping rho*A over nodal tributary
lengths and reusing the static bending stiffness; damping, when requested, is
Rayleigh stiffness-proportional fitted to a first-mode damping ratio.

Classically damped systems under a harmonic load take a shortcut: when the
mass-normalized eigenvectors Phi of (K, M) diagonalize M, C and K together,
the linear Newmark update commutes with u = Phi q, so one scalar recurrence
per mode gives the coupled update's displacements up to rounding.  Resonance
sweeps (stiffness-proportional damping over a lumped mass) and mass-spring
runs (diagonal M, C and K) share that recurrence, `modal_harmonic_response`;
beam time responses keep the direct factorized path.  When the channels
(frequencies x modes) are few, the recurrence steps about sqrt(steps) blocks
of the time axis at once and stitches them together by linearity, so it
pays numpy's per-call cost about 2*sqrt(steps) times rather than once per
step; with many channels it is the plain step loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import compress

import numpy as np
import scipy.linalg

from .model import (
    STATIC_LOADS,
    BeamSpec,
    BoundarySpec,
    NonConvergenceError,
    PointLoad,
    RankDeficiencyError,
    SolverError,
    SpatialGrid,
    TimeGrid,
    TimeSeriesResult,
    ValidationError,
    check_load_positions,
)
from .statics import beam_stiffness_matrix, nodal_force, trapezoid_weights


def stiffness_damping_coeff(zeta1: float, omega1: float) -> float:
    """Coefficient b of Rayleigh damping C = b*K with damping ratio zeta1 at omega1.

    zeta(omega) = b * omega / 2 grows with frequency, so higher modes are
    damped harder: convenient for steady-state sweeps.
    """
    if zeta1 < 0.0:
        raise ValidationError(f"zeta1 must be nonnegative, got {zeta1}")
    if omega1 <= 0.0:
        raise ValidationError(f"omega1 must be positive, got {omega1}")
    return 2.0 * zeta1 / omega1


@dataclass(frozen=True)
class IntegratorConfig:
    """Newmark parameters; the step comes from the TimeGrid."""

    gamma: float = 0.5
    beta_nm: float = 0.25

    def __post_init__(self):
        if self.gamma < 0.5:
            raise ValidationError(f"gamma must be >= 1/2, got {self.gamma}")
        if self.beta_nm < 0.5 * self.gamma:
            raise ValidationError(
                f"beta_nm must be >= gamma/2 for unconditional stability, got {self.beta_nm}"
            )


def _symmetric(name: str, matrix: np.ndarray) -> None:
    """Require finite entries and allclose(matrix, matrix.T) to 1e-10 of the
    largest |entry|."""
    peak = max(matrix.max(), -matrix.min())  # NaN or inf if any entry is
    if not math.isfinite(peak):
        raise ValidationError(f"{name} matrix is not finite")
    atol = 1e-10 * (peak or 1.0)
    rows = max(1, 2**16 // matrix.shape[0])  # keeps temporaries to ~64k entries
    for start in range(0, matrix.shape[0], rows):
        block = slice(start, start + rows)
        if not np.allclose(matrix[block], matrix[:, block].T, rtol=0, atol=atol):
            raise ValidationError(f"{name} matrix must be symmetric")


def _positive_definite(matrix: np.ndarray) -> bool:
    """Cholesky test of a symmetric matrix.  A diagonal one, found by
    counting non-zeros without an n x n temporary, needs only a positive
    diagonal."""
    diagonal = np.diagonal(matrix)
    if np.count_nonzero(matrix) == np.count_nonzero(diagonal):
        return bool(np.all(diagonal > 0.0))
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class MdofSystem:
    """Mass, damping and stiffness matrices plus labeling metadata.

    For beam systems the matrices cover the free (non-Dirichlet) nodes only;
    `grid` and `free_mask` let results be scattered back onto the full grid.
    A float64 matrix is kept as given, not copied, and made read-only.
    """

    mass: np.ndarray
    damping: np.ndarray
    stiffness: np.ndarray
    labels: tuple[str, ...]
    grid: SpatialGrid | None = None
    free_mask: np.ndarray | None = None
    rank_warning: str | None = None

    def __post_init__(self):
        n = np.shape(self.mass)[0]
        for name in ("mass", "damping", "stiffness"):
            matrix = np.asarray(getattr(self, name), dtype=float)
            if matrix.shape != (n, n):
                raise ValidationError(f"{name} matrix must be {n}x{n}, got {matrix.shape}")
            _symmetric(name, matrix)
            object.__setattr__(self, name, matrix)
        if not _positive_definite(self.mass):
            raise ValidationError("mass matrix must be positive definite")
        if len(self.labels) != n:
            raise ValidationError(f"expected {n} dof labels, got {len(self.labels)}")
        for matrix in (self.mass, self.damping, self.stiffness):
            matrix.setflags(write=False)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def size(self) -> int:
        return self.mass.shape[0]

    @property
    def is_damped(self) -> bool:
        return bool(np.any(self.damping))


def _check_vector(name: str, values, n: int) -> np.ndarray:
    vector = np.asarray(values, dtype=float)
    if vector.shape != (n,):
        raise ValidationError(f"{name} has shape {vector.shape}, expected ({n},)")
    if not np.all(np.isfinite(vector)):
        raise ValidationError(f"{name} is not finite")
    return vector


def integrate(
    system: MdofSystem,
    force_schedule,
    u0,
    v0,
    tgrid: TimeGrid,
    cfg: IntegratorConfig = IntegratorConfig(),
    stride: int = 1,
) -> TimeSeriesResult:
    """March the system over `tgrid`, recording every `stride`-th sample.

    `force_schedule` maps time to the force vector.  The effective matrix is
    factorized once.  Systems flagged rank-deficient are rejected unless they
    carry damping.
    """
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    if system.rank_warning and not system.is_damped:
        raise RankDeficiencyError(
            f"cannot integrate undamped rank-deficient system: {system.rank_warning}"
        )
    n = system.size
    dt = tgrid.dt
    gamma, beta = cfg.gamma, cfg.beta_nm
    mass, damping, stiffness = system.mass, system.damping, system.stiffness
    damped = system.is_damped

    u, v = _check_vector("u0", u0, n), _check_vector("v0", v0, n)
    force0 = _check_vector(f"force at t={tgrid.start}", force_schedule(tgrid.start), n)
    # consistent start: M a0 = F(t0) - C v0 - K u0
    a = np.linalg.solve(mass, force0 - damping @ v - stiffness @ u)

    effective = mass + gamma * dt * damping + beta * dt**2 * stiffness
    try:
        lu, piv = scipy.linalg.lu_factor(effective)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SolverError(f"effective matrix factorization failed: {exc}") from exc
    # the LAPACK routine lu_solve wraps, called without its per-call checks
    (getrs,) = scipy.linalg.get_lapack_funcs(("getrs",), (lu,))

    steps = tgrid.step_count
    record_count = steps // stride + 1
    frames = np.empty((record_count, n))
    frames[0] = u
    recorded = 1

    c_upred = (0.5 - beta) * dt**2
    c_vpred = (1.0 - gamma) * dt
    c_u = beta * dt**2
    c_v = gamma * dt
    for i in range(1, steps + 1):
        t = tgrid.start + i * dt
        force = _check_vector(f"force at t={t}", force_schedule(t), n)
        u_pred = u + dt * v + c_upred * a
        v_pred = v + c_vpred * a
        rhs = force - stiffness @ u_pred
        if damped:
            rhs -= damping @ v_pred
        a, info = getrs(lu, piv, rhs, overwrite_b=True)
        if info != 0:
            raise SolverError(f"effective matrix solve failed at t={t}: getrs info {info}")
        u = u_pred + c_u * a
        v = v_pred + c_v * a
        if i % stride == 0:
            frames[recorded] = u
            recorded += 1

    return TimeSeriesResult(tgrid.sample_times(stride), frames[:recorded], system.labels)


def sdof_system(m: float, c: float, k: float) -> MdofSystem:
    """Single mass-spring-damper: M=[m], C=[c], K=[k]."""
    if m <= 0.0:
        raise ValidationError(f"mass must be positive, got {m}")
    if c < 0.0 or k < 0.0:
        raise ValidationError("damping and stiffness must be nonnegative")
    return MdofSystem(
        mass=np.array([[m]]),
        damping=np.array([[c]]),
        stiffness=np.array([[k]]),
        labels=("u",),
    )


#: Fewest grid nodes a discretized beam accepts.
MIN_BEAM_NODES = 7


def discretize_beam(beam: BeamSpec, bc: BoundarySpec, n_nodes: int) -> MdofSystem:
    """Undamped lumped-mass finite-difference beam model over the free nodes.

    Mass lumps rho*A over nodal tributary lengths (half cells at the ends);
    stiffness is the static bending operator.
    Under-constrained support sets are allowed (for eigen comparisons) but
    tagged with a rank warning that `integrate` honors.
    """
    if n_nodes < MIN_BEAM_NODES:
        raise ValidationError(f"n_nodes must be >= {MIN_BEAM_NODES}, got {n_nodes}")
    grid = SpatialGrid.for_beam(beam, n_nodes)
    stiffness, free = beam_stiffness_matrix(beam, bc, grid)
    mass = np.diag(beam.section.mass_per_length * trapezoid_weights(grid)[free])
    warning = None
    if bc.constraint_count < 2:
        warning = (
            f"end conditions {bc.left.kind}-{bc.right.kind} leave rigid-body modes free"
        )
    return MdofSystem(
        mass=mass,
        damping=np.zeros_like(mass),
        stiffness=stiffness,
        labels=tuple(compress(grid.labels, free)),
        grid=grid,
        free_mask=free,
        rank_warning=warning,
    )


def eigenfrequencies(system: MdofSystem, count: int) -> np.ndarray:
    """Lowest `count` undamped circular frequencies of (K, M), ascending."""
    if count < 1 or count > system.size:
        raise ValidationError(f"count must be in [1, {system.size}], got {count}")
    values = scipy.linalg.eigh(
        system.stiffness, system.mass, eigvals_only=True, subset_by_index=[0, count - 1]
    )
    return np.sqrt(np.clip(values, 0.0, None))


def beam_time_response(
    beam: BeamSpec,
    bc: BoundarySpec,
    n_nodes: int,
    loads,
    tgrid: TimeGrid,
    cfg: IntegratorConfig = IntegratorConfig(),
    zeta1: float = 0.0,
    stride: int = 1,
) -> TimeSeriesResult:
    """Integrate a discretized beam from rest and report full-grid frames.

    zeta1 > 0 adds stiffness-proportional Rayleigh damping fitted to the
    discrete first mode.  Udl and point loads are turned into nodal forces
    once; harmonic and moving loads are added at every step.
    """
    check_load_positions(loads, beam.length)
    system = discretize_beam(beam, bc, n_nodes)
    if zeta1 > 0.0:
        omega1 = float(eigenfrequencies(system, 1)[0])
        coeff = stiffness_damping_coeff(zeta1, omega1)
        system = replace(system, damping=coeff * system.stiffness)
    grid, free = system.grid, system.free_mask
    fixed = np.zeros(grid.node_count)
    varying = []
    for load in loads:
        if isinstance(load, STATIC_LOADS):
            fixed += nodal_force(load, grid)
        else:
            varying.append(load)
    fixed = fixed[free]

    def schedule(t: float) -> np.ndarray:
        force = fixed.copy()
        for load in varying:
            force += nodal_force(load, grid, t)[free]
        return force

    zeros = np.zeros(system.size)
    dof_result = integrate(system, schedule, zeros, zeros, tgrid, cfg, stride=stride)

    frames = np.zeros((dof_result.times.size, grid.node_count))
    frames[:, free] = dof_result.frames
    return TimeSeriesResult(dof_result.times, frames, grid.labels)


#: `modal_harmonic_response` steps blocks only while isqrt(steps) times its
#: frequency-mode channels stays under this many entries, which keeps each
#: block-row array near 32 KiB.  On a 2-vCPU x86-64 host the blocks took
#: 0.1-0.4 of the plain loop's time under it and stopped paying at about 800
#: channels, from 600 to 40 000 steps.
BLOCK_BUDGET = 4096


def _blocking(steps: int, channels: int, stride: int) -> tuple[int, int]:
    """Block count and block length, a whole number of strides, that cut
    the time axis of `modal_harmonic_response`; one block spans every step."""
    blocks = math.isqrt(steps)
    if blocks < 2 or blocks * channels >= BLOCK_BUDGET:
        return 1, steps
    size = -(-steps // blocks)
    size = -(-size // stride) * stride
    blocks = -(-steps // size)
    return (blocks, size) if blocks > 1 else (1, steps)


def modal_harmonic_response(
    lam,
    damping,
    gain: np.ndarray,
    omega,
    dt,
    steps: int,
    readout: np.ndarray,
    cfg: IntegratorConfig = IntegratorConfig(),
    start: float = 0.0,
    stride: int = 1,
) -> np.ndarray:
    """Newmark histories of unit-mass modes driven at a batch of frequencies.

    Mode i obeys q'' + damping_i*q' + lam_i*q = gain_i*sin(omega*t) from rest
    at `start` (lam and damping broadcast against the modes of `gain`); every
    forcing frequency has its own dt and runs `steps` steps.
    Returns q @ readout at every `stride`-th step from step 0, with shape
    (steps // stride + 1, frequencies) + readout.shape[1:].

    The time axis is cut into about sqrt(steps) blocks, each a whole number
    of strides long, stacked as extra rows of the (frequency x mode) arrays
    and stepped together: block 0 from the true start, the others from
    rest.  Three undriven rows start from unit q, v and a, so they give
    every channel's homogeneous response under the same arithmetic.  The
    update is linear, so a block's true state is its own plus those
    responses weighted by its true start state; a loop over the blocks adds
    them to the recorded samples and carries each block's end state to the
    next.  Blocks are used only while isqrt(steps) * channels stays under
    BLOCK_BUDGET; otherwise one block runs the plain step loop.
    """
    # the step coefficients are spelled out to full (frequency x mode) rows,
    # as same-shape products beat broadcasts here
    step = np.asarray(dt, dtype=float)[:, None]
    omega = np.asarray(omega, dtype=float)[:, None]
    dt = step * np.ones(np.shape(gain)[-1])
    gamma, beta = cfg.gamma, cfg.beta_nm
    effective = 1.0 + gamma * dt * damping + beta * dt**2 * lam
    force_gain = gain / effective
    damping_gain = damping / effective
    stiffness_gain = lam / effective
    c_upred = (0.5 - beta) * dt**2
    c_vpred = (1.0 - gamma) * dt
    c_u = beta * dt**2
    c_v = gamma * dt
    start_a = gain * np.sin(omega * start)  # at rest, the load alone accelerates

    freqs, modes = dt.shape
    blocks, size = _blocking(steps, dt.size, stride)
    units = 3 if blocks > 1 else 0
    # rows: one (frequency x mode) copy per block, then the unit q, v, a rows
    dt, c_upred, c_vpred, c_u, c_v, damping_gain, stiffness_gain, omega, step = (
        np.tile(x, (blocks + units, 1))
        for x in (dt, c_upred, c_vpred, c_u, c_v, damping_gain, stiffness_gain, omega, step)
    )
    force_gain = np.concatenate(
        (np.tile(force_gain, (blocks, 1)), np.zeros((units * freqs, modes)))
    )
    # the global step before each row's first; a python 0 for one block
    offset = np.repeat(np.arange(blocks + units) * size, freqs)[:, None] if units else 0
    q, v, a = np.zeros((3, *dt.shape))
    a[:freqs] = start_a
    for state, row in zip((q, v, a), range(blocks, blocks + units)):
        state[row * freqs : (row + 1) * freqs] = 1.0  # unit q, v or a

    per_block = size // stride
    driven = slice(0, blocks * freqs)
    history = np.zeros((blocks * per_block + 1, freqs, *np.shape(readout)[1:]))
    by_block = history[1:].reshape(blocks, per_block, *history.shape[1:])
    sample_shape = (blocks, *history.shape[1:])
    unit_q = np.empty((per_block, units, freqs, modes))
    for j in range(1, size + 1):
        # in place, with the rounding of u_pred = q + dt*v + c_upred*a,
        # v_pred = v + c_vpred*a, a = force - damping_gain*v_pred
        # - stiffness_gain*u_pred, q = u_pred + c_u*a and v = v_pred + c_v*a
        u_pred = dt * v
        u_pred += q
        u_pred += c_upred * a
        v_pred = c_vpred * a
        v_pred += v
        a = force_gain * np.sin(omega * (start + (offset + j) * step))
        a -= damping_gain * v_pred
        a -= stiffness_gain * u_pred
        q = c_u * a
        q += u_pred
        v = c_v * a
        v += v_pred
        if j % stride == 0:
            by_block[:, j // stride - 1] = (q[driven] @ readout).reshape(sample_shape)
            if units:
                unit_q[j // stride - 1] = q[driven.stop :].reshape(unit_q.shape[1:])

    # block k starts from block k-1's true end state: add the unit responses
    # weighted by it, then carry its end state on
    ends = np.stack((q, v, a))
    block_ends = ends[:, driven].reshape(3, blocks, freqs, modes)
    unit_ends = ends[:, driven.stop :].reshape(3, units, freqs, modes)
    carried = block_ends[:, 0]
    for k in range(1, blocks):
        by_block[k] += (unit_q * carried).sum(axis=1) @ readout
        carried = block_ends[:, k] + (unit_ends * carried).sum(axis=1)
    return history[: steps // stride + 1]


@dataclass(frozen=True)
class SweepPoint:
    f_hz: float
    amplitude_m: float


#: Growth beyond this ratio between the measure and settle windows means no
#: steady state was reached.
GROWTH_LIMIT = 1.2
#: Integration points per forcing period in a sweep.
SWEEP_STEPS_PER_PERIOD = 100


def frequency_sweep(
    beam: BeamSpec,
    bc: BoundarySpec,
    n_nodes: int,
    p0: float,
    xload: float,
    freqs,
    cfg: IntegratorConfig = IntegratorConfig(),
    settle_periods: int = 30,
    measure_periods: int = 10,
    zeta1: float = 0.02,
) -> list[SweepPoint]:
    """Steady-state midspan amplitude of a harmonic point load, per frequency.

    Each frequency integrates settle+measure periods at SWEEP_STEPS_PER_PERIOD
    steps per forcing period; the reported amplitude is the max absolute
    midspan displacement over the measure window, which starts at step
    settle_periods*SWEEP_STEPS_PER_PERIOD.  If that window still grows past
    the settle window the run has no steady state and a NonConvergenceError
    names the first such frequency in input order.

    The beam is discretized and eigensolved once.  Rayleigh damping is
    stiffness-proportional, so each mode i obeys the scalar equation
    q'' + b*lam_i*q' + lam_i*q = Gamma_i*sin(2*pi*f*t), with Gamma = Phi^T p,
    and `modal_harmonic_response` advances all frequencies at once, reading
    out only the midspan displacement Phi[mid] @ q.
    """
    freqs = [float(f) for f in freqs]
    if any(f <= 0.0 for f in freqs):
        raise ValidationError("sweep frequencies must be positive")
    if settle_periods < 1 or measure_periods < 1:
        raise ValidationError("settle_periods and measure_periods must be >= 1")
    grid = SpatialGrid.for_beam(beam, n_nodes)
    mid_node = grid.nearest_node(beam.length / 2.0)
    if not freqs:
        return []
    load = nodal_force(PointLoad(p0, xload), grid)
    system = discretize_beam(beam, bc, n_nodes)
    lam, phi = scipy.linalg.eigh(system.stiffness, system.mass)
    if zeta1 > 0.0:
        omega1 = math.sqrt(max(float(lam[0]), 0.0))
        stiffness_coeff = stiffness_damping_coeff(zeta1, omega1)
    elif system.rank_warning:
        raise RankDeficiencyError(
            f"cannot integrate undamped rank-deficient system: {system.rank_warning}"
        )
    else:
        stiffness_coeff = 0.0
    # midspan is interior, so free: its phi row counts the free nodes before it
    midspan_row = phi[np.count_nonzero(system.free_mask[:mid_node])]

    hz = np.array(freqs)
    settle_steps = settle_periods * SWEEP_STEPS_PER_PERIOD
    midspan = modal_harmonic_response(
        lam,
        stiffness_coeff * lam,
        phi.T @ load[system.free_mask],
        2.0 * math.pi * hz,
        1.0 / (SWEEP_STEPS_PER_PERIOD * hz),
        settle_steps + measure_periods * SWEEP_STEPS_PER_PERIOD,
        midspan_row,
        cfg,
    )
    settle_peaks = np.abs(midspan[:settle_steps]).max(axis=0).tolist()
    amplitudes = np.abs(midspan[settle_steps:]).max(axis=0).tolist()
    for f_hz, amplitude, settle_peak in zip(freqs, amplitudes, settle_peaks):
        if settle_peak > 0.0 and amplitude > GROWTH_LIMIT * settle_peak:
            raise NonConvergenceError(
                f"no steady state at f_hz={f_hz}: amplitude grew from "
                f"{settle_peak:.3e} to {amplitude:.3e}"
            )
    return [SweepPoint(f_hz=f, amplitude_m=a) for f, a in zip(freqs, amplitudes)]
