"""The pinned-pinned finite-difference beam against its exact discrete solution.

With both ends pinned, the free-node stiffness is exactly K = EI*dx*D2^2, with
D2 = tridiag(1, -2, 1)/dx^2, and the lumped mass is M = rhoA*dx*I.  D2 is
diagonalized by the DST-I sine vectors, so the discrete eigenvalues of
(K, M) have the closed form (EI/rhoA)*(4/dx^2*sin^2(k*pi/2N))^2 with N the
number of intervals, and K w = f is two tridiagonal solves.  The same sine
vectors decouple a Newmark run into one scalar recurrence per mode.  Those
solves and recurrences run in extended precision, so the oracle is the
discrete system's own answer, not the continuum's: the tests below measure
how far the shipped solvers round away from it.  Each tolerance sits just above the error measured at one and
at two BLAS threads on x86-64 with OpenBLAS; a more accurate solver only
tightens them.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from beamlab import BoundarySpec, HarmonicPointLoad, PointLoad, SpatialGrid, TimeGrid, UdlLoad
from beamlab.dynamics import (
    SWEEP_STEPS_PER_PERIOD,
    IntegratorConfig,
    beam_time_response,
    discretize_beam,
    eigenfrequencies,
    frequency_sweep,
    stiffness_damping_coeff,
)
from beamlab.scenario import preset, run_scenario
from beamlab.statics import beam_factor, beam_stiffness_matrix, nodal_force, static_fd_solve

PINNED = BoundarySpec.pinned_pinned()
UDL = UdlLoad(5000.0)


def second_difference(n_free: int, dx: float) -> np.ndarray:
    """D2 = tridiag(1, -2, 1)/dx^2 over the free nodes."""
    inv_dx2 = 1.0 / dx**2
    return (
        np.diag(np.full(n_free, -2.0 * inv_dx2))
        + np.diag(np.full(n_free - 1, inv_dx2), 1)
        + np.diag(np.full(n_free - 1, inv_dx2), -1)
    )


def exact_stiffness(beam, grid) -> np.ndarray:
    """K = EI*dx*D2^2 over the free nodes, formed as the assembly forms it."""
    d2 = second_difference(grid.node_count - 2, grid.spacing)
    return beam.section.flexural_rigidity * (d2.T * grid.spacing) @ d2


def exact_eigenvalues(beam, grid) -> np.ndarray:
    """Ascending eigenvalues (omega^2) of (K, M): the DST-I closed form."""
    intervals = grid.node_count - 1
    k = np.arange(1, intervals, dtype=np.longdouble)
    pi = np.longdouble(np.pi)
    d2 = 4.0 / np.longdouble(grid.spacing) ** 2 * np.sin(k * pi / (2 * intervals)) ** 2
    sec = beam.section
    return np.longdouble(sec.flexural_rigidity) / np.longdouble(sec.mass_per_length) * d2**2


def solve_second_difference(rhs: np.ndarray, dx) -> np.ndarray:
    """Solve D2 y = rhs (zero end values) by the Thomas algorithm.

    The pivots of tridiag(1, -2, 1) are -(i+2)/(i+1) for row i, so the
    elimination needs only integer ratios: it runs in the arithmetic of
    `rhs` and `dx`, long double or exact fractions.
    """
    n = len(rhs)
    y = rhs * (dx * dx)
    for i in range(1, n):
        y[i] = y[i] + y[i - 1] * i / (i + 1)
    y[-1] = -y[-1] * n / (n + 1)
    for i in range(n - 2, -1, -1):
        y[i] = -(y[i] - y[i + 1]) * (i + 1) / (i + 2)
    return y


def exact_static_deflection(beam, grid, force_free: np.ndarray) -> np.ndarray:
    """w over the free nodes from K w = f: two Thomas solves in long double."""
    dx = np.longdouble(grid.spacing)
    ei = np.longdouble(beam.section.flexural_rigidity)
    rhs = force_free.astype(np.longdouble) / (ei * dx)
    return solve_second_difference(solve_second_difference(rhs, dx), dx)


def exact_modes(beam, grid) -> np.ndarray:
    """Mass-normalized DST-I vectors over the free nodes, one column per mode."""
    intervals = grid.node_count - 1
    i = np.arange(1, intervals, dtype=np.longdouble)
    mass = np.longdouble(beam.section.mass_per_length * grid.spacing)
    sines = np.sin(np.outer(i, i) * np.longdouble(np.pi) / intervals)
    return sines * np.sqrt(2 / (intervals * mass))


def exact_newmark(lam, damping, modal_force, dt, steps, readout, stride=1):
    """q @ readout at every `stride`-th step of unit-mass Newmark modes.

    Each mode runs its own scalar average-acceleration recurrence from rest,
    in long double; `modal_force(i)` gives the modal loads at step i, and
    lam, damping and dt broadcast against them.
    """
    gamma, beta = np.longdouble(0.5), np.longdouble(0.25)
    dt = np.asarray(dt, dtype=np.longdouble)
    effective = 1 + gamma * dt * damping + beta * dt**2 * lam
    a = modal_force(0)
    q = np.zeros_like(a)
    v = np.zeros_like(a)
    history = [q @ readout]
    for i in range(1, steps + 1):
        u_pred = q + dt * v + (0.5 - beta) * dt**2 * a
        v_pred = v + (1 - gamma) * dt * a
        a = (modal_force(i) - damping * v_pred - lam * u_pred) / effective
        q = u_pred + beta * dt**2 * a
        v = v_pred + gamma * dt * a
        if i % stride == 0:
            history.append(q @ readout)
    return np.array(history)


def relative_error(actual, exact) -> float:
    exact = np.asarray(exact, dtype=np.longdouble)
    return float(np.max(np.abs(actual - exact)) / np.max(np.abs(exact)))


@pytest.mark.parametrize("nodes", [41, 201, 801])
def test_stiffness_is_exactly_ei_dx_d2_squared(ref_beam, nodes):
    grid = SpatialGrid.for_beam(ref_beam, nodes)
    stiffness, free = beam_stiffness_matrix(ref_beam, PINNED, grid)
    assert free.sum() == nodes - 2
    assert np.array_equal(stiffness, exact_stiffness(ref_beam, grid))


def test_mass_is_rho_a_dx(ref_beam):
    system = discretize_beam(ref_beam, PINNED, 41)
    dx = system.grid.spacing
    assert np.array_equal(
        system.mass, ref_beam.section.mass_per_length * dx * np.eye(system.size)
    )


def test_static_oracle_matches_rational_arithmetic(ref_beam):
    # the same recurrence in exact fractions satisfies EI*dx*D2^2 w = f with
    # no residual; the long-double oracle must sit within rounding of it
    grid = SpatialGrid.for_beam(ref_beam, 41)
    force = nodal_force(UDL, grid)[1:-1]
    dx = Fraction(grid.spacing)
    ei = Fraction(ref_beam.section.flexural_rigidity)
    rhs = np.array([Fraction(f) for f in force], dtype=object) / (ei * dx)
    w = solve_second_difference(solve_second_difference(rhs, dx), dx)

    def d2(y):
        padded = np.concatenate(([Fraction(0)], y, [Fraction(0)]))
        return (padded[:-2] - 2 * padded[1:-1] + padded[2:]) / (dx * dx)

    assert all(ei * dx * d2(d2(w)) == force)
    exact = np.array([float(v) for v in w])
    oracle = exact_static_deflection(ref_beam, grid, force)
    assert relative_error(oracle.astype(float), exact) < 1e-15


def test_eigen_oracle_residual(ref_beam):
    grid = SpatialGrid.for_beam(ref_beam, 41)
    stiffness = exact_stiffness(ref_beam, grid).astype(np.longdouble)
    mass = np.longdouble(ref_beam.section.mass_per_length * grid.spacing)
    k = np.arange(1, 40, dtype=np.longdouble)
    modes = np.sin(np.outer(k, k) * np.longdouble(np.pi) / 40)  # DST-I vectors
    residual = stiffness @ modes - mass * modes * exact_eigenvalues(ref_beam, grid)
    assert float(np.max(np.abs(residual)) / np.max(np.abs(stiffness @ modes))) < 1e-14


# Relative error tolerances per node count: the static solve, every
# eigenvalue of a dense eigh(K, M), and omega_1^2 from `eigenfrequencies`.
# Measured at one / two BLAS threads:
#   41 nodes:  1.2e-12 / 1.2e-12, 2.0e-12 / 2.0e-12, 2.9e-11 / 2.9e-11
#   201 nodes: 5.4e-9 / 5.2e-9,   2.6e-8 / 2.6e-8,   1.8e-10 / 1.8e-10
#   801 nodes: 1.2e-6 / 1.3e-6,   9.0e-8 / 1.9e-7,   2.3e-6 / 2.3e-6
TOLERANCES = {
    41: (1.3e-12, 2.1e-12, 3.0e-11),
    201: (5.5e-9, 2.7e-8, 1.9e-10),
    801: (1.4e-6, 2.0e-7, 2.4e-6),
}


@pytest.mark.parametrize("nodes", sorted(TOLERANCES))
def test_static_solve_against_exact(ref_beam, nodes):
    grid = SpatialGrid.for_beam(ref_beam, nodes)
    exact = exact_static_deflection(ref_beam, grid, nodal_force(UDL, grid)[1:-1])
    deflection = static_fd_solve(ref_beam, PINNED, [UDL], nodes).deflection
    assert deflection[0] == deflection[-1] == 0.0
    assert relative_error(deflection[1:-1], exact) < TOLERANCES[nodes][0]


@pytest.mark.parametrize("nodes", sorted(TOLERANCES))
def test_eigh_against_exact(ref_beam, nodes):
    system = discretize_beam(ref_beam, PINNED, nodes)
    exact = exact_eigenvalues(ref_beam, system.grid)
    values = scipy.linalg.eigh(system.stiffness, system.mass, eigvals_only=True)
    assert float(np.max(np.abs(values - exact) / exact)) < TOLERANCES[nodes][1]


def sweep_eigenvalues(beam, grid) -> np.ndarray:
    """Ascending eigenvalues of (K, M) as `frequency_sweep` takes them: the
    squared singular values of B*M^(-1/2), B from `beam_factor`."""
    factor, _ = beam_factor(beam, PINNED, grid)
    mass = beam.section.mass_per_length * grid.spacing  # at every free node
    return np.linalg.svd(factor / math.sqrt(mass), full_matrices=False)[1][::-1] ** 2


# Relative error tolerances of `sweep_eigenvalues` per node count.  Measured at
# one / two BLAS threads: 41 nodes 2.34e-14 / 2.34e-14, 201 nodes 3.15e-13 /
# 3.15e-13, 801 nodes 1.01e-11 / 3.02e-12; a dense eigh of (K, M) gives 2.0e-12,
# 2.6e-8 and 1.9e-7 (TOLERANCES above).
FACTOR_TOLERANCES = {41: 2.4e-14, 201: 3.2e-13, 801: 1.1e-11}


@pytest.mark.parametrize("nodes", sorted(FACTOR_TOLERANCES))
def test_factor_singular_values_against_exact(ref_beam, nodes):
    grid = SpatialGrid.for_beam(ref_beam, nodes)
    values = sweep_eigenvalues(ref_beam, grid)
    exact = exact_eigenvalues(ref_beam, grid)
    assert float(np.max(np.abs(values - exact) / exact)) < FACTOR_TOLERANCES[nodes]


@pytest.mark.parametrize("nodes", sorted(TOLERANCES))
def test_fundamental_against_exact(ref_beam, nodes):
    system = discretize_beam(ref_beam, PINNED, nodes)
    exact = exact_eigenvalues(ref_beam, system.grid)[0]
    omega1 = eigenfrequencies(system, 1)[0]
    assert abs(omega1**2 - exact) / exact < TOLERANCES[nodes][2]


# Newmark histories, undamped and damped, against the exact modal recurrence:
# a udl and a harmonic point load on the pinned beam, 200 steps.
HARMONIC = HarmonicPointLoad(2e4, 5.0, 3.0)
HISTORY = TimeGrid(0.0, 0.2, 1e-3)
HISTORY_STRIDE = 10
# Relative error tolerances per node count: undamped and damped
# `beam_time_response` frames (coupled LU steps), and `frequency_sweep`
# amplitudes (modal recurrence over the modes of the SVD of the stiffness
# factor that are symmetric about midspan).  Measured at one / two BLAS threads:
#   41 nodes:  2.72e-12 / 2.72e-12, 1.60e-12 / 1.60e-12, 1.44e-13 / 1.44e-13
#   201 nodes: 8.71e-9 / 8.64e-9,   8.60e-9 / 8.49e-9,   1.11e-12 / 1.11e-12
#   801 nodes: 2.25e-6 / 2.29e-6,   1.99e-6 / 2.01e-6,   6.79e-11 / 2.16e-11
NEWMARK_TOLERANCES = {
    41: (2.8e-12, 1.7e-12, 1.5e-13),
    201: (8.8e-9, 8.7e-9, 1.2e-12),
    801: (2.3e-6, 2.1e-6, 6.9e-11),
}
#: exp5_2's 10 000 steps: 6.29e-15 of the peak at one and two threads, in 141
#: blocks of 71 steps (5.68e-15 in 100 blocks of 100, 5.49e-15 when every block
#: was stepped as rows of its own).
MASS_SPRING_TOLERANCE = 6.7e-15


def modal_loads(grid, modes, load) -> np.ndarray:
    """Phi^T f of one load at t = 0, in long double."""
    return modes.T @ nodal_force(load, grid)[1:-1].astype(np.longdouble)


@pytest.mark.parametrize("zeta1", [0.0, 0.02], ids=["undamped", "damped"])
@pytest.mark.parametrize("nodes", sorted(TOLERANCES))
def test_beam_time_response_against_exact(ref_beam, nodes, zeta1):
    result = beam_time_response(
        ref_beam, PINNED, nodes, [UDL, HARMONIC], HISTORY, zeta1=zeta1, stride=HISTORY_STRIDE
    )
    grid = SpatialGrid.for_beam(ref_beam, nodes)
    coeff = 0.0
    if zeta1 > 0.0:  # the code's own b, fitted to its own omega_1
        omega1 = eigenfrequencies(discretize_beam(ref_beam, PINNED, nodes), 1)[0]
        coeff = stiffness_damping_coeff(zeta1, omega1)
    lam = exact_eigenvalues(ref_beam, grid)
    modes = exact_modes(ref_beam, grid)
    udl = modal_loads(grid, modes, UDL)
    point = modal_loads(grid, modes, PointLoad(HARMONIC.p0, HARMONIC.position))
    omega = 2 * np.longdouble(np.pi) * HARMONIC.f_hz
    dt = np.longdouble(HISTORY.dt)
    exact = exact_newmark(
        lam, coeff * lam, lambda i: udl + np.sin(omega * i * dt) * point, dt,
        HISTORY.step_count, modes.T, HISTORY_STRIDE,
    )
    tolerance = NEWMARK_TOLERANCES[nodes][0 if zeta1 == 0.0 else 1]
    assert relative_error(result.frames[:, 1:-1], exact) < tolerance


@pytest.mark.parametrize("nodes", sorted(TOLERANCES))
def test_frequency_sweep_against_exact(ref_beam, nodes):
    freqs, settle, measure, zeta1 = [2.0, 4.5, 7.0], 4, 2, 0.05
    points = frequency_sweep(
        ref_beam, PINNED, nodes, 1e3, 3.0, freqs,
        settle_periods=settle, measure_periods=measure, zeta1=zeta1,
    )
    grid = SpatialGrid.for_beam(ref_beam, nodes)
    lam0 = sweep_eigenvalues(ref_beam, grid)[0]
    coeff = stiffness_damping_coeff(zeta1, math.sqrt(lam0))  # the sweep's own b
    lam = exact_eigenvalues(ref_beam, grid)
    modes = exact_modes(ref_beam, grid)
    gain = modal_loads(grid, modes, PointLoad(1e3, 3.0))
    hz = np.array(freqs)[:, None]
    omega = 2 * np.longdouble(np.pi) * hz
    dt = (1.0 / (SWEEP_STEPS_PER_PERIOD * hz)).astype(np.longdouble)  # the sweep's steps
    midspan = exact_newmark(
        lam, coeff * lam, lambda i: gain * np.sin(omega * i * dt), dt,
        (settle + measure) * SWEEP_STEPS_PER_PERIOD, modes[grid.nearest_node(5.0) - 1],
    )
    exact = np.abs(midspan[settle * SWEEP_STEPS_PER_PERIOD :]).max(axis=0)
    got = np.array([p.amplitude_m for p in points])
    assert float(np.max(np.abs(got - exact) / exact)) < NEWMARK_TOLERANCES[nodes][2]


def test_mass_spring_run_against_exact():
    s = preset("exp5_2")
    spec = s.system
    ld = np.longdouble
    omega, dt = 2 * ld(np.pi) * spec.force.f_hz, ld(s.tgrid.dt)
    gain = np.array([spec.force.amplitude, 0.0], dtype=ld) / ld(spec.mass)
    exact = exact_newmark(
        ld(spec.stiffness) / ld(spec.mass), ld(spec.damping) / ld(spec.mass),
        lambda i: gain * np.sin(omega * i * dt), dt, s.tgrid.step_count, np.eye(2, dtype=ld),
    )
    frames = run_scenario(s).time_series.frames
    assert relative_error(frames[:, 0], exact[:, 0]) < MASS_SPRING_TOLERANCE
