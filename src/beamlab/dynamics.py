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
Rayleigh stiffness-proportional fitted to a first-mode damping ratio, so beam
runs refuse the ends that `BoundarySpec.rigid_body_warning` flags.

Classically damped systems under a harmonic load take a shortcut: when the
mass-normalized eigenvectors Phi of (K, M) diagonalize M, C and K together,
the linear Newmark update commutes with u = Phi q, so one scalar recurrence
per mode gives the coupled update's displacements up to rounding.  Resonance
sweeps (stiffness-proportional damping over a lumped mass) and mass-spring
runs (diagonal M, C and K) share that recurrence, `modal_harmonic_response`;
beam time responses keep the direct factorized path.  Every run of the
recurrence, at any length and stride, steps one block of about
sqrt(steps/2) steps, on rows driven by cos and sin of the phase within a
block and rows started from unit q, v and a; every block's drive is the same
sinusoid shifted in phase, so linearity stitches all of them from those
rows, and numpy's per-call cost is paid in sqrt(steps/2) steps and
sqrt(2*steps) block stitches rather than once per step: a step costs about
two stitches, and that split balances them.  The rows of a group of
frequencies stay within a fixed byte budget, and the samples come out a
chunk of blocks at a time: `system` runs copy them into their history, while
sweeps fold them into two peaks per frequency.

Only `integrate` and `eigenfrequencies` call scipy, and each imports
`scipy.linalg` itself, so mass-spring runs and sweeps never load scipy.
Only `integrate` starts a thread: on a damped system of at least
`OVERLAP_MIN_DOF` dofs, when the process may run on two or more CPUs, a
one-thread `concurrent.futures.ThreadPoolExecutor` computes each step's
damping product while the calling thread computes the force and the
stiffness product, and it is shut down before `integrate` returns or
raises.  Each product is the same numpy call on the same arrays either way,
so the output bytes do not depend on the CPU count.  A sweep takes its
modes from numpy's SVD of the stiffness factor B, whose squared singular
values are the eigenvalues of (K, M) without the squared condition number
of K.  A sweep reads only midspan, so when its ends are equal and its node
count odd, which mirrors the free nodes about the midspan node, it steps
only the modes symmetric about midspan: every antisymmetric one is zero
there.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass
from itertools import compress

import numpy as np

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
from .statics import beam_factor, beam_stiffness_matrix, nodal_force, trapezoid_weights


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
    largest |entry|.  A block of rows equal to its transpose's, as in the
    exactly symmetric beam operators, skips the tolerance test."""
    peak = max(matrix.max(), -matrix.min())  # NaN or inf if any entry is
    if not math.isfinite(peak):
        raise ValidationError(f"{name} matrix is not finite")
    atol = 1e-10 * (peak or 1.0)
    rows = max(1, 2**16 // matrix.shape[0])  # keeps temporaries to ~64k entries
    for start in range(0, matrix.shape[0], rows):
        block = slice(start, start + rows)
        upper, lower = matrix[block], matrix[:, block].T
        if not (
            np.array_equal(upper, lower) or np.allclose(upper, lower, rtol=0, atol=atol)
        ):
            raise ValidationError(f"{name} matrix must be symmetric")


def _checked_matrix(name: str, values, n: int) -> np.ndarray:
    """`values` as an n x n finite symmetric float64 matrix; a float64 array
    is kept as given, not copied."""
    matrix = np.asarray(values, dtype=float)
    if matrix.shape != (n, n):
        raise ValidationError(f"{name} matrix must be {n}x{n}, got {matrix.shape}")
    _symmetric(name, matrix)
    return matrix


def _diagonal(matrix: np.ndarray) -> np.ndarray | None:
    """The diagonal of a matrix with no other non-zero entry, else None;
    found by counting non-zeros, without an n x n temporary."""
    diagonal = np.diagonal(matrix)
    return diagonal if np.count_nonzero(matrix) == np.count_nonzero(diagonal) else None


def _positive_definite(matrix: np.ndarray) -> bool:
    """Cholesky test of a symmetric matrix.  A diagonal one needs only a
    positive diagonal."""
    diagonal = _diagonal(matrix)
    if diagonal is not None:
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
    Only the mass must be positive definite; a singular stiffness, as on ends
    that leave rigid-body modes free, is a valid system.  A float64 matrix is
    kept as given, not copied, and made read-only.
    """

    mass: np.ndarray
    damping: np.ndarray
    stiffness: np.ndarray
    labels: tuple[str, ...]
    grid: SpatialGrid | None = None
    free_mask: np.ndarray | None = None

    def __post_init__(self):
        n = np.shape(self.mass)[0]
        for name in ("mass", "damping", "stiffness"):
            object.__setattr__(self, name, _checked_matrix(name, getattr(self, name), n))
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

    def with_damping(self, damping) -> "MdofSystem":
        """This system with `damping` as its damping matrix.  Only the new
        matrix is checked (mass and stiffness passed when this one was
        built) and made read-only."""
        matrix = _checked_matrix("damping", damping, self.size)
        matrix.setflags(write=False)
        system = copy.copy(self)
        object.__setattr__(system, "damping", matrix)
        return system


def _check_vector(name: str, values, n: int) -> np.ndarray:
    vector = np.asarray(values, dtype=float)
    if vector.shape != (n,):
        raise ValidationError(f"{name} has shape {vector.shape}, expected ({n},)")
    if not np.all(np.isfinite(vector)):
        raise ValidationError(f"{name} is not finite")
    return vector


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mass_solve(mass: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """M^-1 rhs.  A diagonal M divides: the bits of np.linalg.solve, whose LU
    of a diagonal matrix is that diagonal, without its O(n^3) factorization."""
    diagonal = _diagonal(mass)
    return rhs / diagonal if diagonal is not None else np.linalg.solve(mass, rhs)


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

    `force_schedule` maps time to the force vector; it is called from the
    calling thread only.  The effective matrix is factorized once; with C
    and K positive semidefinite it is positive definite whenever M is, so a
    system with rigid-body modes steps too.  A damped system of at least
    `OVERLAP_MIN_DOF` dofs, in a process that may run on two or more CPUs,
    has each step's C @ v_pred computed by a one-thread ThreadPoolExecutor
    beside K @ u_pred, with the same bytes; an error in that product is
    raised here, and the executor is shut down before this returns or
    raises.
    """
    import scipy.linalg

    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    n = system.size
    dt = tgrid.dt
    gamma, beta = cfg.gamma, cfg.beta_nm
    mass, damping, stiffness = system.mass, system.damping, system.stiffness
    damped = system.is_damped

    u, v = _check_vector("u0", u0, n), _check_vector("v0", v0, n)
    force0 = _check_vector(f"force at t={tgrid.start}", force_schedule(tgrid.start), n)
    # consistent start: M a0 = F(t0) - C v0 - K u0
    a = _mass_solve(mass, force0 - damping @ v - stiffness @ u)

    # effective = (M + gamma*dt*C) + beta*dt^2*K, built in one Fortran-order
    # array that getrf factors in place; the sums are the same as in C
    # order, so are the factors
    effective = np.multiply(damping, gamma * dt, order="F")
    effective += mass
    effective += beta * dt**2 * stiffness
    try:
        lu, piv = scipy.linalg.lu_factor(effective, overwrite_a=True)
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
    worker = None
    if damped and n >= OVERLAP_MIN_DOF and _usable_cpus() > 1:
        from concurrent.futures import ThreadPoolExecutor  # loaded on this path only

        worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="beamlab-product")
    try:
        for i in range(1, steps + 1):
            t = tgrid.start + i * dt
            u_pred = u + dt * v + c_upred * a
            v_pred = v + c_vpred * a
            if worker:
                product = worker.submit(np.matmul, damping, v_pred)
            force = _check_vector(f"force at t={t}", force_schedule(t), n)
            rhs = force - stiffness @ u_pred
            if worker:
                rhs -= product.result()
            elif damped:
                rhs -= damping @ v_pred
            a, info = getrs(lu, piv, rhs, overwrite_b=True)
            if info != 0:
                raise SolverError(f"effective matrix solve failed at t={t}: getrs info {info}")
            u = u_pred + c_u * a
            v = v_pred + c_v * a
            if i % stride == 0:
                frames[recorded] = u
                recorded += 1
    finally:
        if worker:
            worker.shutdown()

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


def _check_beam_nodes(n_nodes: int) -> None:
    if n_nodes < MIN_BEAM_NODES:
        raise ValidationError(f"n_nodes must be >= {MIN_BEAM_NODES}, got {n_nodes}")


def _lumped_mass(beam: BeamSpec, grid: SpatialGrid, free: np.ndarray) -> np.ndarray:
    """rho*A over each free node's tributary length: the lumped mass diagonal."""
    return beam.section.mass_per_length * trapezoid_weights(grid)[free]


def discretize_beam(beam: BeamSpec, bc: BoundarySpec, n_nodes: int) -> MdofSystem:
    """Undamped lumped-mass finite-difference beam model over the free nodes.

    Mass lumps rho*A over nodal tributary lengths (half cells at the ends);
    stiffness is the static bending operator, singular on ends that leave
    rigid-body modes free.  `integrate` steps such a system; `static_fd_solve`,
    `beam_time_response` and `frequency_sweep` refuse those ends themselves.
    """
    _check_beam_nodes(n_nodes)
    grid = SpatialGrid.for_beam(beam, n_nodes)
    stiffness, free = beam_stiffness_matrix(beam, bc, grid)
    mass = np.diag(_lumped_mass(beam, grid, free))
    return MdofSystem(
        mass=mass,
        damping=np.zeros(mass.shape),  # np.zeros, so pages only ever read stay unmapped
        stiffness=stiffness,
        labels=tuple(compress(grid.labels, free)),
        grid=grid,
        free_mask=free,
    )


def eigenfrequencies(system: MdofSystem, count: int) -> np.ndarray:
    """Lowest `count` undamped circular frequencies of (K, M), ascending."""
    import scipy.linalg

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
    discrete first mode.  Ends that leave a rigid-body mode free are refused
    by `BoundarySpec.rigid_body_warning` whatever zeta1, before any operator
    is built: that damping would leave the mode undamped.  Udl and point
    loads are turned into nodal forces once; harmonic and moving loads are
    added at every step.
    """
    check_load_positions(loads, beam.length)
    _check_beam_nodes(n_nodes)
    if warning := bc.rigid_body_warning:
        raise RankDeficiencyError(f"cannot integrate rank-deficient system: {warning}")
    system = discretize_beam(beam, bc, n_nodes)
    if zeta1 > 0.0:
        omega1 = float(eigenfrequencies(system, 1)[0])
        coeff = stiffness_damping_coeff(zeta1, omega1)
        system = system.with_damping(coeff * system.stiffness)
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


#: Fewest dofs at which `integrate` hands a damped step's damping product to
#: a worker thread, when the process may run on two or more CPUs.  Median
#: step of a damped pinned beam in `integrate` without and with the worker
#: (2 vCPUs, 2 MB L2 per core, one BLAS thread), in us: 199 dofs
#: 102/157, 399 236/276, 499 374/400, 549 424/357, 599 572/456, 799 821/664.
OVERLAP_MIN_DOF = 520
#: Bytes `modal_harmonic_response` may hold at once beyond the samples its
#: caller keeps.  It steps the forcing frequencies in groups whose rows and
#: one chunk of samples fit this, one frequency at the least.
RECURRENCE_BYTES = 1536 * 1024
#: Steps whose drive values `modal_harmonic_response` tabulates at once.
DRIVE_TICKS = 256
#: Blocks whose samples `modal_harmonic_response` weights in one matmul.
STITCH_BLOCKS = 16

#: pi * 2**256: its first 65 hex digits, which begin Blowfish's P-array.
_PI_BITS = 0x3_243F6A88_85A308D3_13198A2E_03707344_A4093822_299F31D0_082EFA98_EC4E6C89
#: Significant bits of a long double: 64 in x87's 80-bit format.
_LONG_BITS = np.finfo(np.longdouble).nmant + 1


def _half_pi_parts(width: int) -> tuple[np.longdouble, ...]:
    """pi/2 as P1 + P2 + P3 + P4: P1, P2 and P3 cut to `width` significant
    bits each, and P4 the rest rounded to a float64."""
    parts, rest = [], _PI_BITS
    for _ in range(3):
        drop = rest.bit_length() - width
        head = rest >> drop
        parts.append(np.ldexp(np.longdouble(head), drop - 257))
        rest -= head << drop
    return (*parts, np.longdouble(rest / 2**257))


#: pi/2 in the parts `_sin_cos` reduces by.  On x87 they are 0x1.921fb544p+0,
#: 0x1.0b4611a6p-34, 0x1.3198a2ep-69 and 0x1.b839a252049c1p-104.
_HALF_PI = _half_pi_parts(_LONG_BITS // 2)
#: Quarter turns q below which q times each of P1, P2 and P3 is exact, with
#: a bit to spare: 2**31 on x87.
_EXACT_TURNS = 2.0 ** (_LONG_BITS - _LONG_BITS // 2 - 1)
#: Signs of sin(r + q*pi/2) and cos(r + q*pi/2) by q mod 4, once an odd q
#: has swapped sin(r) and cos(r).
_SIN_SIGNS, _COS_SIGNS = np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, -1.0, 1.0])
#: Bytes `_sin_cos` holds per phase beyond its argument, its results among
#: them: at most the quarter turns as int64 and three long-double arrays.
_SIN_COS_BYTES = 8 + 3 * 16


def _sin_cos(phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float64 sin and cos of a long-double phase array, each rounded from a
    long-double value.

    The C library's long-double sine and cosine took 133 ns a value at
    exp5_1's block phases and 22 ns at |x| <= pi/4 (glibc, x86-64 Xeon), so
    each phase is first reduced by q = rint(phase / (pi/2)) quarter turns to
    r = phase - q*P1 - q*P2 - q*P3 - q*P4, after Cody & Waite (*Software
    Manual for the Elementary Functions*, 1980).  pi/2 is split so that
    q*P1, q*P2 and q*P3 are exact and each subtraction cancels without
    rounding, so r keeps the long-double accuracy of the phase.  Four parts
    rather than three: near 2**31 quarter turns a long double can lie within
    2**-40 of a multiple of pi/2, and three parts, the last to double
    precision, miss q*pi/2 by up to 2**-92, which cost up to 657 ulps on
    100 000 such multiples.  A phase of `_EXACT_TURNS` quarter turns or more
    (2**31 on x87), or one not finite, is not reduced: it takes the direct
    call.
    """
    # q needs no long double: any integer near phase / (pi/2) keeps |r| near
    # pi/4.  A phase past the float range is inf here, so not reduced
    with np.errstate(over="ignore"):
        turns = phase.astype(float)
    turns *= 2 / math.pi
    np.rint(turns, out=turns)
    turns[~(np.abs(turns) < _EXACT_TURNS)] = 0.0
    turns = turns.astype(np.int64)  # q = +0 at a phase of -0.0, so r = -0.0
    quarters = turns.astype(np.longdouble)
    product = quarters * _HALF_PI[0]
    reduced = phase - product
    for part in _HALF_PI[1:]:
        reduced -= np.multiply(quarters, part, out=product)
    del quarters, product
    sines, cosines = np.empty(phase.shape), np.empty(phase.shape)
    np.sin(reduced, out=sines)
    np.cos(reduced, out=cosines)
    del reduced
    odd = (turns & 1).astype(bool)
    turns &= 3
    sin_q, cos_q = np.where(odd, cosines, sines), np.where(odd, sines, cosines)
    sin_q *= _SIN_SIGNS[turns]
    cos_q *= _COS_SIGNS[turns]
    return sin_q, cos_q


def _blocking(steps: int, stride: int) -> tuple[int, int]:
    """Block count and block length, a whole number of strides, that cut
    the steps of `modal_harmonic_response` up to its last recorded sample
    into at most sqrt(2*steps) blocks: none when it records only its start.

    The recurrence costs numpy calls: about size*step + blocks*stitch, with
    size*blocks = steps, which is least at blocks = sqrt(steps*step/stitch).
    On exp5_1's 30 frequencies and 20 modes, a step of `_step_block` took
    47-55 us and a block's stitch in `_modal_chunks` 27-29 us (2 vCPUs, one
    BLAS thread), so step/stitch is about 2.  The shorter block also shrinks
    the rows of a frequency, so exp5_1's 30 fit one group of RECURRENCE_BYTES.
    """
    last = steps - steps % stride
    # blocks = sqrt(last * step / stitch), with step / stitch = 2
    size = -(-last // max(1, math.isqrt(2 * last)))
    size = -(-size // stride) * stride
    return -(-last // max(1, size)), size


def _frequency_bytes(modes: int, outputs: int, blocks: int, size: int, stride: int) -> int:
    """Upper bound on the bytes one frequency takes in `_step_block` and
    `_modal_chunks`."""
    columns, ticks = 2 + 3 * modes, min(size, DRIVE_TICKS)
    # coefficient, state, temporary and end-state rows, then per tick of the
    # drive table its five rows, the tick index, the long-double angle and
    # what `_sin_cos` holds
    stepping = 8 * (18 * 5 * modes + ticks * 8) + ticks * _SIN_COS_BYTES
    # end states and the carry's temporaries and a chunk's weights, then the
    # phases: a long-double row, float64 sin and cos rows with a zero row 0,
    # and what `_sin_cos` holds (made before the weights, counted beside them)
    stitching = 8 * (21 * modes + min(blocks, STITCH_BLOCKS) * columns)
    stitching += 16 * blocks + 16 * (blocks + 1) + blocks * _SIN_COS_BYTES
    basis = size // stride * outputs * columns
    # a chunk's samples, in a buffer that every group reuses
    samples = min(blocks, STITCH_BLOCKS) * (size // stride) * outputs
    return 8 * (basis + samples) + max(stepping, stitching)


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
    at `start` (lam and damping broadcast against the per-mode `gain`); every
    forcing frequency has its own dt and runs `steps` steps.
    Returns q @ readout at every `stride`-th step from step 0, with shape
    (steps // stride + 1, frequencies) + readout.shape[1:].

    The steps up to the last recorded sample are cut by `_blocking` into
    about sqrt(2*steps) blocks of `size` steps, each a whole number of
    strides, and only one block is stepped.  Block k's drive is
    sin(phi_k + theta_j) = sin(phi_k)*cos(theta_j) + cos(phi_k)*sin(theta_j),
    with phi_k = omega*(start + k*size*dt) and theta_j = omega*j*dt, so five
    rows per (frequency x mode) channel cover every block: a cos(theta) and a
    sin(theta) row from rest, and three undriven rows from unit q, v and a.
    The update is linear, so block k is sin(phi_k) times the cos row plus
    cos(phi_k) times the sin row plus the unit rows weighted by its start
    state.  A loop over the blocks carries those start states from the rows'
    end states, and batched matmuls, STITCH_BLOCKS blocks at a time, weight
    the rows' recorded samples into every block's.  The phases are taken in
    long double, as the rounding of phi_k is shared by every step of block
    k, and so are their sines and cosines.  As the C library's long-double
    sine costs about six times more past pi/4, `_sin_cos` first takes whole
    quarter turns q off each phase, with pi/2 split in four so that q times
    each of the first three parts is exact and the remainder keeps the
    phase's long-double accuracy.  Frequencies are stepped in groups whose
    rows and one chunk of samples fit RECURRENCE_BYTES; `_modal_chunks`
    yields the chunks, and this copies them into the history.  A run whose
    stride exceeds its steps steps nothing: one row, at rest.
    """
    history = np.zeros((np.size(omega), steps // stride + 1, *np.shape(readout)[1:]))
    chunks = _modal_chunks(lam, damping, gain, omega, dt, steps, readout, cfg, start, stride)
    for rows, first, samples in chunks:
        kept = samples[:, : history.shape[1] - first]  # the last block may run past
        history[rows, first : first + kept.shape[1]] = kept
    return np.moveaxis(history, 0, 1)


def _modal_chunks(lam, damping, gain, omega, dt, steps, readout, cfg, start, stride):
    """The samples of `modal_harmonic_response` after sample 0, chunk by chunk.

    Takes that function's arguments and yields (frequency rows, first
    sample, samples) per STITCH_BLOCKS blocks of each frequency group, the
    samples shaped (frequency, sample) + readout.shape[1:].  They are a view
    into a buffer the next chunk overwrites, and the last chunk may run past
    sample steps // stride, the last one recorded.
    """
    omega = np.asarray(omega, dtype=float)[:, None]
    step = np.asarray(dt, dtype=float)[:, None]
    blocks, size = _blocking(steps, stride)
    if not blocks:  # the run records only its start
        return
    samples_per_block = size // stride
    modes, outputs = np.shape(gain)[-1], math.prod(np.shape(readout)[1:])
    group = max(1, RECURRENCE_BYTES // _frequency_bytes(modes, outputs, blocks, size, stride))
    # every chunk's samples: the caller may hold the last while the next group steps
    chunk_shape = (min(group, omega.size), min(blocks, STITCH_BLOCKS))
    out = np.empty((*chunk_shape, samples_per_block * outputs))
    for first_row in range(0, omega.size, group):
        rows = slice(first_row, first_row + group)
        freqs = omega[rows].size
        ends, basis = _step_block(
            lam, damping, gain, omega[rows], step[rows], readout, cfg, size, stride
        )
        # row k + 1: sin(phi_k) and cos(phi_k); row 0, before block 0, is zero
        phases = np.zeros((freqs, blocks + 1, 2))
        phases[:, 1:, 0], phases[:, 1:, 1] = _sin_cos(
            omega[rows].astype(np.longdouble)
            * (start + np.arange(blocks) * size * step[rows].astype(np.longdouble))
        )
        # block k's weights: its phase row, then its start q, v and a
        weights = np.empty((freqs, out.shape[1], basis.shape[1]))
        unit_ends = ends[:, 2:].reshape(freqs, 3, 3, -1)
        basis = basis.reshape(freqs, basis.shape[1], -1)
        for first in range(0, blocks, STITCH_BLOCKS):
            count = min(STITCH_BLOCKS, blocks - first)
            chunk = weights[:, :count]
            chunk[:, :, :2] = phases[:, first + 1 : first + count + 1]
            # block k starts where block k - 1 ends: the cos and sin rows' ends
            # weighted by block k - 1's phase, then the unit rows' ends weighted
            # by block k - 1's start
            np.matmul(phases[:, first : first + count], ends[:, :2], out=chunk[:, :, 2:])
            starts = chunk[:, :, 2:].reshape(freqs, count, 3, -1)
            for i in range(count):
                if first + i == 0:  # at rest, the load alone accelerates
                    starts[:, 0, 2] = gain * chunk[:, :1, 0]
                else:  # from the start of block k - 1, in this chunk or the last
                    before = starts[:, i - 1] if i else previous
                    starts[:, i] += np.einsum("fusm,fum->fsm", unit_ends, before)
                    del before
            previous = starts[:, -1].copy()
            samples = out[:freqs, :count]
            np.matmul(chunk, basis, out=samples)
            yield rows, 1 + first * samples_per_block, samples.reshape(
                freqs, count * samples_per_block, *np.shape(readout)[1:]
            )
        # freed before the next group's are made
        del ends, unit_ends, basis, phases, weights, chunk, starts


def _step_block(lam, damping, gain, omega, step, readout, cfg, size, stride):
    """Step the five rows that `modal_harmonic_response` describes through
    one block for the (frequency, 1) columns `omega` and `step`.

    Returns the rows' end states, shaped (frequency, row, q|v|a x mode), and
    the basis: per frequency, the cos and sin rows' samples read out, then
    the unit rows' q times the readout, shaped (frequency, column, sample,
    output).
    """
    freqs, modes = omega.size, np.shape(gain)[-1]
    dt = step * np.ones(modes)
    gamma, beta = cfg.gamma, cfg.beta_nm
    effective = 1.0 + gamma * dt * damping + beta * dt**2 * lam
    # the step coefficients are spelled out to full (frequency, row, mode)
    # arrays, as same-shape products beat broadcasts here
    dt, c_upred, c_vpred, c_u, c_v, damping_gain, stiffness_gain, force_gain = (
        np.repeat(x[:, None], 5, axis=1)
        for x in (
            dt,
            (0.5 - beta) * dt**2,
            (1.0 - gamma) * dt,
            beta * dt**2,
            gamma * dt,
            damping / effective,
            lam / effective,
            gain / effective,
        )
    )
    q, v, a = np.zeros((3, freqs, 5, modes))
    q[:, 2] = v[:, 3] = a[:, 4] = 1.0
    outputs = np.reshape(readout, (modes, -1))
    unit_outputs = np.tile(outputs, (3, 1))
    basis = np.empty((freqs, 2 + 3 * modes, size // stride, outputs.shape[1]))
    # the drive, DRIVE_TICKS steps at a time: cos and sin of omega*j*dt, taken
    # from the long-double angle less its quarter turns by `_sin_cos`, then zeros
    drive = np.zeros((min(size, DRIVE_TICKS), freqs, 5, 1))
    for j in range(1, size + 1):
        if (j - 1) % DRIVE_TICKS == 0:
            ticks = np.arange(j, j + len(drive))[:, None, None]
            theta = omega.astype(np.longdouble) * (ticks * step.astype(np.longdouble))
            drive[:, :, 1], drive[:, :, 0] = _sin_cos(theta)
        # in place, with the rounding of u_pred = q + dt*v + c_upred*a,
        # v_pred = v + c_vpred*a, a = force - damping_gain*v_pred
        # - stiffness_gain*u_pred, q = u_pred + c_u*a and v = v_pred + c_v*a
        u_pred = dt * v
        u_pred += q
        u_pred += c_upred * a
        v_pred = c_vpred * a
        v_pred += v
        a = force_gain * drive[(j - 1) % DRIVE_TICKS]
        a -= damping_gain * v_pred
        a -= stiffness_gain * u_pred
        q = c_u * a
        q += u_pred
        v = c_v * a
        v += v_pred
        if j % stride == 0:
            sample = j // stride - 1
            basis[:, :2, sample] = q[:, :2] @ outputs
            np.multiply(q[:, 2:].reshape(freqs, -1, 1), unit_outputs, out=basis[:, 2:, sample])
    return np.stack((q, v, a), axis=2).reshape(freqs, 5, -1), basis


def _window_peaks(chunks, freqs: int, edges) -> list[list[float]]:
    """max |x| per frequency over each window of samples edges[w] up to
    edges[w + 1], edges ascending, folded over the `_modal_chunks` chunks of
    a run with one output per frequency; a chunk that straddles an edge is
    split there.  The fold needs no |x| temporary, and max is exact, so each
    peak is the whole window's.
    """
    windows = list(zip(edges[:-1], edges[1:]))
    peaks = np.full((len(windows), freqs), -np.inf)
    if edges[0] == 0:  # sample 0, at rest, is not yielded
        peaks[0] = 0.0
    for rows, first, samples in chunks:
        for peak, (low, high) in zip(peaks, windows):
            window = samples[:, max(low - first, 0) : max(high - first, 0)]
            if window.size:
                chunk_peak = np.maximum(window.max(axis=1), -window.min(axis=1))
                peak[rows] = np.maximum(peak[rows], chunk_peak)
    return peaks.tolist()


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

    The modes come once from the SVD of B*M^(-1/2), with B the factor of K
    from `beam_factor` and M the lumped mass, on one path for every pair of
    ends.  Rayleigh damping is stiffness-proportional, so each mode i obeys
    q'' + b*lam_i*q' + lam_i*q = Gamma_i*sin(2*pi*f*t), with Gamma = Phi^T p,
    and the recurrence of `modal_harmonic_response` advances all frequencies
    at once, reading out only the midspan displacement Phi[mid] @ q.  With
    equal ends and an odd node count the sweep is mirror-symmetric about
    the midspan node, and a mode whose dot product with its mirror image is
    negative is antisymmetric, zero at midspan in exact arithmetic: the
    recurrence steps only the others, b still fitted to the lowest mode.  No
    midspan history is held: `_window_peaks` folds each chunk of samples
    into the two windows' peaks as the recurrence yields it.
    """
    freqs = [float(f) for f in freqs]
    if any(f <= 0.0 for f in freqs):
        raise ValidationError("sweep frequencies must be positive")
    if settle_periods < 1 or measure_periods < 1:
        raise ValidationError("settle_periods and measure_periods must be >= 1")
    grid = SpatialGrid.for_beam(beam, n_nodes)
    mid_node = grid.nearest_node(beam.length / 2.0)
    load = nodal_force(PointLoad(p0, xload), grid)
    _check_beam_nodes(n_nodes)
    if warning := bc.rigid_body_warning:  # see beam_time_response
        raise RankDeficiencyError(f"cannot integrate rank-deficient system: {warning}")
    if not freqs:
        return []
    # B^T B = K, so with B scaled to B M^(-1/2) in place, its squared singular
    # values are the eigenvalues of (K, M) and its right singular vectors
    # times M^(-1/2) the mass-normalized modes; svd gives them descending
    factor, free = beam_factor(beam, bc, grid)
    root_mass = np.sqrt(_lumped_mass(beam, grid, free))
    factor /= root_mass
    sigma, modes = np.linalg.svd(factor, full_matrices=False)[1:]
    del factor
    lam = sigma[::-1] ** 2
    modes = modes[::-1]  # row i: mode i over the free nodes
    modes /= root_mass
    stiffness_coeff = stiffness_damping_coeff(zeta1, math.sqrt(lam[0]))
    # midspan is interior, so free: its column counts the free nodes before it
    midspan_row = modes[:, np.count_nonzero(free[:mid_node])].copy()
    gain = modes @ load[free]
    if bc.left == bc.right and n_nodes % 2:
        # mirror-symmetric: drop the antisymmetric modes, zero at midspan
        kept = np.einsum("ij,ij->i", modes, modes[:, ::-1]) >= 0.0
        lam, gain, midspan_row = lam[kept], gain[kept], midspan_row[kept]
    del modes  # no dense matrix stays beside the recurrence's rows

    hz = np.array(freqs)
    settle_steps = settle_periods * SWEEP_STEPS_PER_PERIOD
    steps = settle_steps + measure_periods * SWEEP_STEPS_PER_PERIOD
    omega, step = 2.0 * math.pi * hz, 1.0 / (SWEEP_STEPS_PER_PERIOD * hz)
    chunks = _modal_chunks(
        lam, stiffness_coeff * lam, gain, omega, step, steps, midspan_row, cfg, 0.0, 1
    )
    settle_peaks, amplitudes = _window_peaks(chunks, hz.size, (0, settle_steps, steps + 1))
    for f_hz, amplitude, settle_peak in zip(freqs, amplitudes, settle_peaks):
        if settle_peak > 0.0 and amplitude > GROWTH_LIMIT * settle_peak:
            raise NonConvergenceError(
                f"no steady state at f_hz={f_hz}: amplitude grew from "
                f"{settle_peak:.3e} to {amplitude:.3e}"
            )
    return [SweepPoint(f_hz=f, amplitude_m=a) for f, a in zip(freqs, amplitudes)]
