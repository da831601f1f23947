"""The pinned-pinned finite-difference beam against its exact discrete solution.

With both ends pinned, the free-node stiffness is exactly K = EI*dx*D2^2, with
D2 = tridiag(1, -2, 1)/dx^2, and the lumped mass is M = rhoA*dx*I.  D2 is
diagonalized by the DST-I sine vectors, so the discrete eigenvalues of
(K, M) have the closed form (EI/rhoA)*(4/dx^2*sin^2(k*pi/2N))^2 with N the
number of intervals, and K w = f is two tridiagonal solves.  Those solves run
in extended precision, so the oracle is the discrete system's own answer, not
the continuum's: the tests below measure how far the shipped solvers round
away from it.  Each tolerance sits just above the error measured at one and
at two BLAS threads on x86-64 with OpenBLAS; a more accurate solver only
tightens them.
"""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from beamlab import BoundarySpec, SpatialGrid, UdlLoad
from beamlab.dynamics import discretize_beam, eigenfrequencies
from beamlab.statics import beam_stiffness_matrix, nodal_force, static_fd_solve

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


def relative_error(actual, exact) -> float:
    exact = np.asarray(exact, dtype=np.longdouble)
    return float(np.max(np.abs(actual - exact)) / np.max(np.abs(exact)))


@pytest.mark.parametrize("nodes", [41, 201, 801])
def test_stiffness_is_exactly_ei_dx_d2_squared(ref_beam, nodes):
    grid = SpatialGrid.for_beam(ref_beam, nodes)
    stiffness, free = beam_stiffness_matrix(ref_beam, PINNED, grid)
    assert np.array_equal(stiffness[np.ix_(free, free)], exact_stiffness(ref_beam, grid))


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


@pytest.mark.parametrize("nodes", sorted(TOLERANCES))
def test_fundamental_against_exact(ref_beam, nodes):
    system = discretize_beam(ref_beam, PINNED, nodes)
    exact = exact_eigenvalues(ref_beam, system.grid)[0]
    omega1 = eigenfrequencies(system, 1)[0]
    assert abs(omega1**2 - exact) / exact < TOLERANCES[nodes][2]
