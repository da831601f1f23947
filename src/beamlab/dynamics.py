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
beam time responses keep the direct factorized path.
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
    scale = np.max(np.abs(matrix)) or 1.0
    if not np.allclose(matrix, matrix.T, rtol=0, atol=1e-10 * scale):
        raise ValidationError(f"{name} matrix must be symmetric")


@dataclass(frozen=True)
class MdofSystem:
    """Mass, damping and stiffness matrices plus labeling metadata.

    For beam systems the matrices cover the free (non-Dirichlet) nodes only;
    `grid` and `free_mask` let results be scattered back onto the full grid.
    """

    mass: np.ndarray
    damping: np.ndarray
    stiffness: np.ndarray
    labels: tuple[str, ...]
    grid: SpatialGrid | None = None
    free_mask: np.ndarray | None = None
    rank_warning: str | None = None

    def __post_init__(self):
        mass = np.array(self.mass, dtype=float)
        damping = np.array(self.damping, dtype=float)
        stiffness = np.array(self.stiffness, dtype=float)
        n = mass.shape[0]
        for name, matrix in (("mass", mass), ("damping", damping), ("stiffness", stiffness)):
            if matrix.shape != (n, n):
                raise ValidationError(f"{name} matrix must be {n}x{n}, got {matrix.shape}")
            _symmetric(name, matrix)
        try:
            np.linalg.cholesky(mass)
        except np.linalg.LinAlgError as exc:
            raise ValidationError("mass matrix must be positive definite") from exc
        if len(self.labels) != n:
            raise ValidationError(f"expected {n} dof labels, got {len(self.labels)}")
        for matrix in (mass, damping, stiffness):
            matrix.setflags(write=False)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "damping", damping)
        object.__setattr__(self, "stiffness", stiffness)
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
    stiffness_full, free = beam_stiffness_matrix(beam, bc, grid)
    masses_full = beam.section.mass_per_length * trapezoid_weights(grid)
    stiffness = stiffness_full[np.ix_(free, free)]
    mass = np.diag(masses_full[free])
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
        system = replace(system, damping=coeff * np.asarray(system.stiffness))
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

    q = np.zeros(dt.shape)
    v = np.zeros_like(q)
    a = gain * np.sin(omega * start)  # at rest, the load alone accelerates
    history = np.zeros((steps // stride + 1, *(q @ readout).shape))
    for i in range(1, steps + 1):
        u_pred = q + dt * v + c_upred * a
        v_pred = v + c_vpred * a
        force = force_gain * np.sin(omega * (start + i * step))
        a = force - damping_gain * v_pred - stiffness_gain * u_pred
        q = u_pred + c_u * a
        v = v_pred + c_v * a
        if i % stride == 0:
            history[i // stride] = q @ readout
    return history


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
    shapes = np.zeros((grid.node_count, lam.size))  # constrained rows stay 0
    shapes[system.free_mask] = phi

    hz = np.array(freqs)
    settle_steps = settle_periods * SWEEP_STEPS_PER_PERIOD
    midspan = modal_harmonic_response(
        lam,
        stiffness_coeff * lam,
        phi.T @ load[system.free_mask],
        2.0 * math.pi * hz,
        1.0 / (SWEEP_STEPS_PER_PERIOD * hz),
        settle_steps + measure_periods * SWEEP_STEPS_PER_PERIOD,
        shapes[mid_node],
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
