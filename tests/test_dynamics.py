import inspect
import math
import os
import threading
import warnings
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beamlab import (
    BoundarySpec,
    EndCondition,
    HarmonicPointLoad,
    MovingPointLoad,
    NonConvergenceError,
    PointLoad,
    RankDeficiencyError,
    SolverError,
    SpatialGrid,
    TimeGrid,
    UdlLoad,
    ValidationError,
)
from beamlab import dynamics
from beamlab.dynamics import (
    GROWTH_LIMIT,
    MIN_BEAM_NODES,
    RECURRENCE_BYTES,
    SWEEP_STEPS_PER_PERIOD,
    IntegratorConfig,
    MdofSystem,
    beam_time_response,
    discretize_beam,
    eigenfrequencies,
    frequency_sweep,
    integrate,
    modal_harmonic_response,
    sdof_system,
    stiffness_damping_coeff,
)
from beamlab.dynamics import (
    _blocking,
    _frequency_bytes,
    _modal_chunks,
    _sin_cos,
    _window_peaks,
)
from beamlab.modal import find_beta_roots, natural_frequencies
from beamlab.scenario import preset, run_scenario, scenario_from_dict
from beamlab.statics import beam_factor, nodal_force, ss_point_deflection, trapezoid_weights

PINNED = BoundarySpec.pinned_pinned()
OMEGA_UNIT = 2.0 * math.pi  # rad/s for the unit-period oscillator

# unit-period oscillator: m=1, k=(2*pi)^2, natural period exactly 1 s
UNIT_OSC = dict(m=1.0, c=0.0, k=OMEGA_UNIT**2)


def constant_force(vector):
    vec = np.asarray(vector, dtype=float)
    return lambda t: vec.copy()


def system_energy(system: MdofSystem, u: np.ndarray, v: np.ndarray) -> float:
    """Total mechanical energy, kinetic plus elastic."""
    return 0.5 * float(v @ system.mass @ v + u @ system.stiffness @ u)


class OracleState(NamedTuple):
    """Displacement, velocity, acceleration and the time they belong to."""

    displacement: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    time: float


def oracle_start(system: MdofSystem, u0, v0, force0, t0: float = 0.0) -> OracleState:
    """Consistent starting state: solves M a0 = F(t0) - C v0 - K u0."""
    u0, v0 = np.asarray(u0, dtype=float), np.asarray(v0, dtype=float)
    a0 = np.linalg.solve(system.mass, force0 - system.damping @ v0 - system.stiffness @ u0)
    return OracleState(u0, v0, a0, t0)


def newmark_step(
    system: MdofSystem,
    state: OracleState,
    force_next: np.ndarray,
    dt: float,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> OracleState:
    """Reference oracle: one implicit Newmark step of size dt.

    Written for clarity, not speed: it refactorizes the effective matrix on
    every call.
    """
    force_next = np.asarray(force_next, dtype=float)
    if not np.all(np.isfinite(force_next)):
        raise ValidationError(f"force at t={state.time + dt} is not finite")
    effective = (
        system.mass + cfg.gamma * dt * system.damping + cfg.beta_nm * dt**2 * system.stiffness
    )
    u_pred = state.displacement + dt * state.velocity + (0.5 - cfg.beta_nm) * dt**2 * state.acceleration
    v_pred = state.velocity + (1.0 - cfg.gamma) * dt * state.acceleration
    rhs = force_next - system.damping @ v_pred - system.stiffness @ u_pred
    a_next = scipy.linalg.lu_solve(scipy.linalg.lu_factor(effective), rhs)
    u_next = u_pred + cfg.beta_nm * dt**2 * a_next
    v_next = v_pred + cfg.gamma * dt * a_next
    return OracleState(u_next, v_next, a_next, state.time + dt)


def reference_sweep(
    beam, bc, n_nodes, p0, xload, freqs, *, settle_periods, measure_periods, zeta1
):
    """Midspan amplitudes from one coupled beam_time_response per frequency."""
    mid_node = SpatialGrid.for_beam(beam, n_nodes).nearest_node(beam.length / 2.0)
    amplitudes = []
    for f_hz in freqs:
        dt = 1.0 / (SWEEP_STEPS_PER_PERIOD * f_hz)
        tgrid = TimeGrid(0.0, (settle_periods + measure_periods) / f_hz, dt)
        result = beam_time_response(
            beam, bc, n_nodes, [HarmonicPointLoad(p0, f_hz, xload)], tgrid, zeta1=zeta1
        )
        measure = result.times >= settle_periods / f_hz
        amplitudes.append(np.abs(result.frames[measure, mid_node]).max())
    return np.array(amplitudes)


class TestSystemBuilders:
    def test_sdof_shapes(self):
        system = sdof_system(2.0, 0.1, 8.0)
        assert system.size == 1
        assert system.labels == ("u",)
        assert eigenfrequencies(system, 1)[0] == pytest.approx(2.0, rel=1e-12)

    def test_sdof_damping_ratio(self):
        system = sdof_system(1.0, 0.2, OMEGA_UNIT**2)
        zeta = system.damping[0, 0] / (2.0 * math.sqrt(system.mass[0, 0] * system.stiffness[0, 0]))
        assert zeta == pytest.approx(0.0159, abs=2e-4)

    def test_sdof_rejects_bad_mass(self):
        with pytest.raises(ValidationError, match="mass"):
            sdof_system(0.0, 0.0, 1.0)

    @pytest.mark.parametrize("c, k", [(-0.1, 1.0), (0.1, -1.0)], ids=["damping", "stiffness"])
    def test_sdof_rejects_negative_damping_or_stiffness(self, c, k):
        message = "^damping and stiffness must be nonnegative$"
        with pytest.raises(ValidationError, match=message):
            sdof_system(1.0, c, k)

    @pytest.mark.parametrize(
        "damping, labels, message",
        [
            (np.zeros((2, 3)), ("a", "b"), r"^damping matrix must be 2x2, got \(2, 3\)$"),
            (np.zeros((2, 2)), ("a",), "^expected 2 dof labels, got 1$"),
        ],
        ids=["shape", "labels"],
    )
    def test_mdof_checks_shapes_and_labels(self, damping, labels, message):
        with pytest.raises(ValidationError, match=message):
            MdofSystem(np.eye(2), damping, np.eye(2), labels)

    @pytest.mark.parametrize("count", [0, 2])
    def test_eigenfrequencies_count_in_range(self, count):
        with pytest.raises(ValidationError, match=rf"^count must be in \[1, 1\], got {count}$"):
            eigenfrequencies(sdof_system(1.0, 0.0, 1.0), count)

    def test_mdof_requires_symmetry(self):
        with pytest.raises(ValidationError, match="stiffness"):
            MdofSystem(
                mass=np.eye(2),
                damping=np.zeros((2, 2)),
                stiffness=np.array([[1.0, 0.5], [0.0, 1.0]]),
                labels=("a", "b"),
            )

    def test_mdof_requires_positive_definite_mass(self):
        with pytest.raises(ValidationError, match="positive definite"):
            MdofSystem(
                mass=np.diag([1.0, 0.0]),
                damping=np.zeros((2, 2)),
                stiffness=np.eye(2),
                labels=("a", "b"),
            )

    @pytest.mark.parametrize(
        "mass, definite",
        [
            (np.diag([2.0, 0.5, 1e-300]), True),
            (np.diag([2.0, -0.5, 1.0]), False),
            ([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]], True),
            ([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]], False),
            ([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]], False),
        ],
        ids=["diagonal", "negative_diagonal", "full", "indefinite", "singular"],
    )
    def test_mdof_mass_positive_definite_diagonal_or_full(self, mass, definite):
        # a diagonal mass is checked by its entries, a full one by Cholesky
        def build():
            return MdofSystem(mass, np.zeros((3, 3)), np.eye(3), labels=("a", "b", "c"))

        if definite:
            build()
        else:
            with pytest.raises(ValidationError, match="^mass matrix must be positive definite$"):
                build()

    def test_mdof_keeps_float_matrices_and_makes_them_read_only(self):
        mass, damping, stiffness = np.eye(3), np.zeros((3, 3)), 2.0 * np.eye(3)
        system = MdofSystem(mass, damping, stiffness, labels=("a", "b", "c"))
        assert system.mass is mass
        assert system.damping is damping
        assert system.stiffness is stiffness
        assert not any(m.flags.writeable for m in (mass, damping, stiffness))
        converted = MdofSystem([[2]], [[0]], [[3]], labels=("u",))
        assert converted.mass.dtype == np.float64
        assert not converted.mass.flags.writeable

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [7, 300, 1201])
    def test_mdof_symmetry_rule_holds_in_every_row_block(self, n):
        # asymmetry up to 1e-10 of the largest |entry| passes, wherever it
        # sits; 300 and 1201 dofs span several of the check's row blocks
        base = np.random.default_rng(n).standard_normal((n, n))
        stiffness = base + base.T
        atol = 1e-10 * np.abs(stiffness).max()
        labels = tuple(map(str, range(n)))
        for i, j in ((0, n - 1), (n - 1, n - 2), (n // 2, n - 2)):
            for offset in (0.5 * atol, 2.0 * atol, np.nan, np.inf):
                perturbed = stiffness.copy()
                perturbed[i, j] += offset
                args = (np.eye(n), np.zeros((n, n)), perturbed, labels)
                if offset < atol:
                    MdofSystem(*args)
                    continue
                message = "must be symmetric" if np.isfinite(offset) else "is not finite"
                with pytest.raises(ValidationError, match=f"stiffness matrix {message}"):
                    MdofSystem(*args)

    def test_with_damping_checks_only_the_new_matrix(self, ref_beam):
        system = discretize_beam(ref_beam, PINNED, 41)
        damping = 1e-3 * system.stiffness
        with mock.patch.object(dynamics, "_symmetric", wraps=dynamics._symmetric) as checked:
            damped = system.with_damping(damping)
        assert [c.args[0] for c in checked.call_args_list] == ["damping"]
        assert damped.damping is damping and not damping.flags.writeable
        assert damped.mass is system.mass and damped.stiffness is system.stiffness
        assert (damped.labels, damped.grid, damped.free_mask) == (
            system.labels,
            system.grid,
            system.free_mask,
        )
        assert not system.is_damped and damped.is_damped

    @pytest.mark.parametrize(
        "damping, message",
        [
            (np.zeros((2, 3)), r"^damping matrix must be 2x2, got \(2, 3\)$"),
            ([[1.0, 0.5], [0.0, 1.0]], "^damping matrix must be symmetric$"),
            ([[1.0, math.nan], [math.nan, 1.0]], "^damping matrix is not finite$"),
        ],
        ids=["shape", "asymmetric", "nan"],
    )
    def test_with_damping_refuses_what_the_constructor_refuses(self, damping, message):
        system = MdofSystem(np.eye(2), np.zeros((2, 2)), np.eye(2), ("a", "b"))
        for build in (
            lambda: system.with_damping(damping),
            lambda: MdofSystem(np.eye(2), damping, np.eye(2), ("a", "b")),
        ):
            with pytest.raises(ValidationError, match=message):
                build()


class TestNewmarkStep:
    def test_zero_everything_stays_zero(self):
        system = sdof_system(**UNIT_OSC)
        state = OracleState(np.zeros(1), np.zeros(1), np.zeros(1), 0.0)
        for _ in range(10):
            state = newmark_step(system, state, np.zeros(1), 0.01)
        assert state.displacement[0] == 0.0
        assert state.time == pytest.approx(0.1)

    def test_nonfinite_force_rejected(self):
        system = sdof_system(**UNIT_OSC)
        state = OracleState(np.zeros(1), np.zeros(1), np.zeros(1), 0.0)
        with pytest.raises(ValidationError, match="t="):
            newmark_step(system, state, np.array([np.nan]), 0.01)

    def test_integrate_matches_step_oracle(self, ref_beam):
        system = discretize_beam(ref_beam, PINNED, 21)
        system = replace(system, damping=1e-3 * system.stiffness)
        shape = np.linspace(0.0, 1e3, system.size)
        schedule = lambda t: (1.0 + math.sin(20.0 * t)) * shape
        x = np.linspace(0.0, math.pi, system.size)
        zeros = np.zeros(system.size)
        starts = [
            (0.0, zeros, zeros),
            (0.05, 1e-4 * np.sin(x), -2e-3 * np.sin(2.0 * x)),
        ]
        for start, u0, v0 in starts:
            tgrid = TimeGrid(start, start + 0.2, 1e-3)
            result = integrate(system, schedule, u0, v0, tgrid)
            state = oracle_start(system, u0, v0, schedule(start), start)
            residual = (
                system.mass @ state.acceleration
                + system.damping @ state.velocity
                + system.stiffness @ state.displacement
                - schedule(start)
            )
            assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(schedule(start)))
            frames = [state.displacement]
            for t in tgrid.times[1:]:
                state = newmark_step(system, state, schedule(t), tgrid.dt)
                frames.append(state.displacement)
            scale = np.max(np.abs(frames))
            np.testing.assert_allclose(result.frames, frames, rtol=0, atol=1e-10 * scale)

    def test_gamma_beta_validation(self):
        with pytest.raises(ValidationError, match="gamma"):
            IntegratorConfig(gamma=0.4)
        with pytest.raises(ValidationError, match="beta_nm"):
            IntegratorConfig(gamma=0.5, beta_nm=0.2)


class TestIntegrate:
    def test_free_vibration_period(self):
        # u(t) = cos(2*pi*t); after one period the error stays tiny
        system = sdof_system(**UNIT_OSC)
        tgrid = TimeGrid(0.0, 1.0, 1e-3)
        result = integrate(system, constant_force([0.0]), [1.0], [0.0], tgrid)
        assert abs(result.frames[-1, 0] - 1.0) < 1e-3
        expected = np.cos(OMEGA_UNIT * result.times)
        assert np.max(np.abs(result.frames[:, 0] - expected)) < 1e-3

    def test_energy_conservation_100_periods(self):
        system = sdof_system(**UNIT_OSC)
        tgrid = TimeGrid(0.0, 100.0, 1e-3)
        result = integrate(system, constant_force([0.0]), [1.0], [0.0], tgrid, stride=100)
        # displacement amplitude bounds elastic energy at the turning points
        energy0 = 0.5 * system.stiffness[0, 0] * 1.0**2
        peaks = np.abs(result.frames[:, 0]).max()
        assert abs(0.5 * system.stiffness[0, 0] * peaks**2 - energy0) / energy0 < 1e-3

    def test_stride_below_one_refused(self):
        system = sdof_system(**UNIT_OSC)
        tgrid = TimeGrid(0.0, 1.0, 0.1)
        with pytest.raises(ValidationError, match=r"^stride must be >= 1, got 0$"):
            integrate(system, constant_force([0.0]), [0.0], [0.0], tgrid, stride=0)

    def test_constant_force_static_limit(self):
        system = sdof_system(1.0, 1.0, OMEGA_UNIT**2)
        tgrid = TimeGrid(0.0, 20.0, 1e-3)
        result = integrate(system, constant_force([10.0]), [0.0], [0.0], tgrid)
        static = 10.0 / system.stiffness[0, 0]
        assert result.frames[-1, 0] == pytest.approx(static, rel=1e-2)

    def test_solve_failure_names_the_time(self, monkeypatch):
        # getrs reports a bad argument (info < 0) on every solve
        def broken_getrs(lu, piv, b, overwrite_b=False):
            return b, -3

        monkeypatch.setattr(
            scipy.linalg, "get_lapack_funcs", lambda names, arrays: (broken_getrs,)
        )
        system = sdof_system(1.0, 1.0, OMEGA_UNIT**2)
        tgrid = TimeGrid(0.0, 1.0, 0.25)
        with pytest.raises(SolverError, match=r"failed at t=0\.25: getrs info -3"):
            integrate(system, constant_force([1.0]), [0.0], [0.0], tgrid)

    def test_overflowing_effective_matrix_refused(self):
        # M + dt^2/4*K overflows to inf, which lu_factor refuses
        system = sdof_system(1.0, 0.0, 1e300)
        tgrid = TimeGrid(0.0, 1e10, 1e10)
        message = "^effective matrix factorization failed: array must not contain infs"
        with np.errstate(over="ignore"), pytest.raises(SolverError, match=message):
            integrate(system, constant_force([0.0]), [0.0], [0.0], tgrid)

    def test_damped_resonance_amplitude(self):
        m, c, k = 1.0, 0.2, OMEGA_UNIT**2
        system = sdof_system(m, c, k)
        schedule = lambda t: np.array([math.sin(OMEGA_UNIT * t)])
        tgrid = TimeGrid(0.0, 100.0, 1e-3)
        result = integrate(system, schedule, [0.0], [0.0], tgrid)
        tail = result.frames[result.times > 90.0, 0]
        expected = 1.0 / (c * OMEGA_UNIT)
        assert np.max(np.abs(tail)) == pytest.approx(expected, rel=1e-2)

    def test_two_dof_blocks_decouple(self):
        sdof = sdof_system(1.0, 0.3, 25.0)
        eye = np.eye(2)
        bridge = MdofSystem(eye, 0.3 * eye, 25.0 * eye, ("x", "y"))
        tgrid = TimeGrid(0.0, 5.0, 1e-3)
        force_x = lambda t: np.array([math.sin(3.0 * t), 0.0])
        force_1 = lambda t: np.array([math.sin(3.0 * t)])
        res2 = integrate(bridge, force_x, [0.0, 0.0], [0.0, 0.0], tgrid)
        res1 = integrate(sdof, force_1, [0.0], [0.0], tgrid)
        np.testing.assert_allclose(res2.frames[:, 0], res1.frames[:, 0], rtol=0, atol=1e-14)
        np.testing.assert_array_equal(res2.frames[:, 1], 0.0)

    def test_linearity(self):
        system = sdof_system(1.0, 0.1, 30.0)
        tgrid = TimeGrid(0.0, 2.0, 1e-3)
        base = lambda t: np.array([math.sin(5.0 * t)])
        scaled = lambda t: np.array([7.0 * math.sin(5.0 * t)])
        res_base = integrate(system, base, [0.0], [0.0], tgrid)
        res_scaled = integrate(system, scaled, [0.0], [0.0], tgrid)
        scale = np.max(np.abs(res_scaled.frames))
        np.testing.assert_allclose(
            res_scaled.frames, 7.0 * res_base.frames, rtol=0, atol=1e-10 * scale
        )

    def test_stability_for_large_steps(self):
        # average acceleration: doubling dt must never blow up, only lose phase
        system = sdof_system(**UNIT_OSC)
        for dt in (0.05, 0.1, 0.2, 0.4):
            tgrid = TimeGrid(0.0, 50.0, dt)
            result = integrate(system, constant_force([0.0]), [1.0], [0.0], tgrid)
            assert np.max(np.abs(result.frames)) <= 1.0 + 1e-9, f"dt={dt}"

    def test_stride_recording(self):
        system = sdof_system(**UNIT_OSC)
        tgrid = TimeGrid(0.0, 1.0, 1e-2)
        full = integrate(system, constant_force([0.0]), [1.0], [0.0], tgrid)
        strided = integrate(system, constant_force([0.0]), [1.0], [0.0], tgrid, stride=10)
        assert strided.times.size == 11
        np.testing.assert_allclose(strided.frames, full.frames[::10], rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "u0, v0, message",
        [
            ([0.0, 0.0], [0.0], r"u0 has shape \(2,\), expected \(1,\)"),
            ([0.0], [], r"v0 has shape \(0,\), expected \(1,\)"),
            ([[0.0]], [0.0], r"u0 has shape \(1, 1\)"),
            ([math.nan], [0.0], "u0 is not finite"),
            ([0.0], [math.inf], "v0 is not finite"),
        ],
        ids=["long_u0", "short_v0", "matrix_u0", "nan_u0", "inf_v0"],
    )
    def test_start_vectors_checked(self, u0, v0, message):
        system = sdof_system(**UNIT_OSC)
        tgrid = TimeGrid(0.0, 1.0, 0.25)
        with pytest.raises(ValidationError, match=message):
            integrate(system, constant_force([0.0]), u0, v0, tgrid)

    def test_energy_helper(self):
        system = sdof_system(2.0, 0.0, 8.0)
        energy = system_energy(system, np.array([1.0]), np.array([2.0]))
        assert energy == pytest.approx(0.5 * 2.0 * 4.0 + 0.5 * 8.0 * 1.0)

    @pytest.mark.parametrize("nodes", [7, 41, 201, 801])
    def test_start_acceleration_of_a_beam_mass_is_linalg_solve(self, ref_beam, nodes):
        # a lumped (diagonal) mass divides, with the bits of np.linalg.solve
        mass = discretize_beam(ref_beam, PINNED, nodes).mass
        rng = np.random.default_rng(nodes)
        for scale in (1e-12, 1.0, 1e9):
            rhs = scale * rng.standard_normal(mass.shape[0])
            expected = np.linalg.solve(mass, rhs)
            assert dynamics._mass_solve(mass, rhs).tobytes() == expected.tobytes()
        full = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert dynamics._mass_solve(full, np.array([3.0, 0.0])).tobytes() == (
            np.linalg.solve(full, np.array([3.0, 0.0])).tobytes()
        )

    def test_integrate_starts_from_linalg_solve(self, ref_beam, monkeypatch):
        system = discretize_beam(ref_beam, PINNED, 41)
        system = system.with_damping(1e-3 * system.stiffness)
        x = np.linspace(0.0, math.pi, system.size)
        shape = np.linspace(0.0, 1e3, system.size)
        args = (lambda t: (1.0 + math.sin(20.0 * t)) * shape, 1e-4 * np.sin(x), np.cos(x))
        tgrid = TimeGrid(0.0, 0.02, 1e-3)
        frames = integrate(system, *args, tgrid).frames
        monkeypatch.setattr(dynamics, "_mass_solve", np.linalg.solve)
        assert integrate(system, *args, tgrid).frames.tobytes() == frames.tobytes()


def use_cpus(monkeypatch, count: int, min_dof: int) -> None:
    """Let `integrate` see `count` usable CPUs and hand damping products to
    its worker from `min_dof` dofs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(dynamics, "OVERLAP_MIN_DOF", min_dof)


def damped_beam_frames(monkeypatch, ref_beam, cpus: int, min_dof: int):
    """Frames of a damped 201-node beam under a harmonic and a moving load,
    stride 4, and the thread count at each nodal force its schedule built."""
    use_cpus(monkeypatch, cpus, min_dof)
    seen = []

    def counted(*args):
        seen.append(threading.active_count())
        return nodal_force(*args)

    monkeypatch.setattr(dynamics, "nodal_force", counted)
    loads = [HarmonicPointLoad(5000.0, 4.0, 4.0), MovingPointLoad(20000.0, 25.0, 0.5)]
    tgrid = TimeGrid(0.0, 0.05, 5e-4)
    result = beam_time_response(ref_beam, PINNED, 201, loads, tgrid, zeta1=0.02, stride=4)
    return result.frames, seen


class TestDampingWorker:
    """`integrate` computes C @ v_pred on a worker thread on large damped
    systems when two CPUs are usable: the same bytes, and no thread left."""

    def test_worker_gives_the_same_bytes_and_stops(self, monkeypatch, ref_beam):
        baseline = threading.active_count()
        overlapped, seen = damped_beam_frames(monkeypatch, ref_beam, 2, 0)
        assert threading.active_count() == baseline
        assert max(seen) == baseline + 1  # the worker ran during the steps
        sequential, seen = damped_beam_frames(monkeypatch, ref_beam, 2, 10**9)
        assert set(seen) == {baseline}
        np.testing.assert_array_equal(overlapped, sequential)

    def test_one_cpu_runs_no_worker(self, monkeypatch, ref_beam):
        baseline = threading.active_count()
        one_cpu, seen = damped_beam_frames(monkeypatch, ref_beam, 1, 0)
        assert set(seen) == {baseline}
        overlapped, _ = damped_beam_frames(monkeypatch, ref_beam, 2, 0)
        np.testing.assert_array_equal(one_cpu, overlapped)

    @pytest.mark.parametrize("failure", ["force", "getrs"])
    def test_refusal_mid_run_stops_the_worker(self, monkeypatch, ref_beam, failure):
        use_cpus(monkeypatch, 2, 0)
        system = discretize_beam(ref_beam, PINNED, 41)
        system = replace(system, damping=1e-3 * system.stiffness)
        shape = np.linspace(0.0, 1e3, system.size)
        if failure == "force":
            # finite up to t = 0.005, then NaN
            schedule = lambda t: shape * (math.nan if t > 0.0055 else math.sin(20.0 * t))
            error, message = ValidationError, r"^force at t=0\.006 is not finite$"
        else:
            schedule = lambda t: shape * math.sin(20.0 * t)
            error, message = SolverError, r"failed at t=0\.001: getrs info -3$"
            broken_getrs = lambda lu, piv, b, overwrite_b=False: (b, -3)
            monkeypatch.setattr(
                scipy.linalg, "get_lapack_funcs", lambda names, arrays: (broken_getrs,)
            )
        baseline = threading.active_count()
        zeros = np.zeros(system.size)
        with pytest.raises(error, match=message):
            integrate(system, schedule, zeros, zeros, TimeGrid(0.0, 0.01, 1e-3))
        assert threading.active_count() == baseline

    def test_product_error_is_raised_in_the_caller(self, monkeypatch, ref_beam):
        use_cpus(monkeypatch, 2, 0)
        system = discretize_beam(ref_beam, PINNED, 41)
        system = replace(system, damping=1e-3 * system.stiffness)
        shape = np.linspace(0.0, 1e3, system.size)
        matmul, error, threads = np.matmul, FloatingPointError("product failed"), []

        def failing_on_the_third(*args):
            # the calling thread's `@` does not look up np.matmul
            threads.append(threading.current_thread().name)
            if len(threads) == 3:
                raise error
            return matmul(*args)

        monkeypatch.setattr(np, "matmul", failing_on_the_third)
        baseline = threading.active_count()
        schedule, zeros = lambda t: shape * math.sin(20.0 * t), np.zeros(system.size)
        with pytest.raises(FloatingPointError) as raised:
            integrate(system, schedule, zeros, zeros, TimeGrid(0.0, 0.01, 1e-3))
        assert raised.value is error
        assert threads == ["beamlab-product_0"] * 3
        assert threading.active_count() == baseline


#: Newmark steps each energy example runs.
ENERGY_STEPS = 200
AMPLITUDE = st.floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None, database=None)
@given(
    dofs=st.sampled_from([1, 2]),
    masses=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
    springs=st.tuples(st.floats(0.1, 1e3), st.floats(0.1, 1e3)),
    u0=st.tuples(AMPLITUDE, AMPLITUDE),
    v0=st.tuples(AMPLITUDE, AMPLITUDE),
    dt=st.floats(1e-3, 0.1),
)
def test_property_undamped_average_acceleration_conserves_energy(
    dofs, masses, springs, u0, v0, dt
):
    # a spring chain from a wall: k0 to the first mass, k1 between the two
    k0, k1 = springs
    stiffness = np.array([[k0]]) if dofs == 1 else np.array([[k0 + k1, -k1], [-k1, k1]])
    system = MdofSystem(
        mass=np.diag(masses[:dofs]),
        damping=np.zeros((dofs, dofs)),
        stiffness=stiffness,
        labels=("x", "y")[:dofs],
    )
    u0, v = np.array(u0[:dofs]), np.array(v0[:dofs])
    energy0 = system_energy(system, u0, v)
    if energy0 < 1e-6:
        return  # too little motion for a relative bound
    tgrid = TimeGrid(0.0, ENERGY_STEPS * dt, dt)
    frames = integrate(system, constant_force(np.zeros(dofs)), u0, v, tgrid).frames
    for u, u_next in zip(frames[:-1], frames[1:]):
        # average acceleration is the trapezoid rule on u' = v
        v = 2.0 * (u_next - u) / dt - v
        energy = system_energy(system, u_next, v)
        assert abs(energy - energy0) <= 1e-9 * energy0


def energy_balance_excess(system: MdofSystem, frames, forces, v0, dt) -> np.ndarray:
    """Per step, |residual| of the average-acceleration energy balance over
    its rounding bound: at most 1 wherever the run is Newmark's gamma = 1/2,
    beta = 1/4 update.

    The balance, exact in exact arithmetic for any M, C, K and load, is
    1/2 v1'Mv1 + 1/2 u1'Ku1 - 1/2 v0'Mv0 - 1/2 u0'Ku0
        = 1/2 du'(F0 + F1) - dt/4 (v0 + v1)'C(v0 + v1),
    with each velocity taken from the stride-1 frames by v1 = 2 du/dt - v0.
    The bound is eps times the condition number of the effective matrix
    M + dt/2 C + dt^2/4 K times the sum of the terms' magnitudes, each term
    x'Ax widened to |x|'|A|(|x| + 2 s) by the rounding scale s of x: s of u1
    is |u0| + |u1| + dt |v0| + dt^2 (|a0| + |a1|), the pieces of its update,
    and s of v1 adds 2/dt times that and |v1| to s of v0, since every
    velocity carries the rounding of every displacement before it.
    """
    mass, damping, stiffness = system.mass, system.damping, system.stiffness
    cond = np.linalg.cond(mass + 0.5 * dt * damping + 0.25 * dt**2 * stiffness)

    def widened(x, matrix, scale):
        return np.abs(x) @ np.abs(matrix) @ (np.abs(x) + 2.0 * scale)

    def acceleration(u, v, force):
        return np.linalg.solve(mass, force - damping @ v - stiffness @ u)

    u, v, force = frames[0], np.asarray(v0, dtype=float), forces[0]
    a, u_scale, v_scale = acceleration(u, v, force), np.abs(u), np.zeros_like(u)
    excess = []
    for u1, force1 in zip(frames[1:], forces[1:]):
        du = u1 - u
        v1 = 2.0 * du / dt - v
        a1 = acceleration(u1, v1, force1)
        u1_scale = np.abs(u1) + np.abs(u) + dt * np.abs(v) + dt**2 * (np.abs(a) + np.abs(a1))
        v1_scale = v_scale + 2.0 * u1_scale / dt + np.abs(v1)
        both = v + v1
        residual = (
            0.5 * (v1 @ mass @ v1 + u1 @ stiffness @ u1 - v @ mass @ v - u @ stiffness @ u)
            - 0.5 * du @ (force + force1)
            + 0.25 * dt * both @ damping @ both
        )
        terms = (
            widened(v1, mass, v1_scale)
            + widened(u1, stiffness, u1_scale)
            + widened(v, mass, v_scale)
            + widened(u, stiffness, u_scale)
            + (np.abs(du) + u_scale + u1_scale) @ np.abs(force + force1)
            + 0.25 * dt * widened(both, damping, v_scale + v1_scale)
        )
        excess.append(abs(residual) / (np.finfo(float).eps * cond * terms))
        u, v, force, a, u_scale, v_scale = u1, v1, force1, a1, u1_scale, v1_scale
    return np.array(excess)


def random_spd(rng, n: int, scale: float) -> np.ndarray:
    """A random symmetric positive definite n x n matrix of about `scale`."""
    factor = rng.normal(size=(n, n))
    return scale * (factor @ factor.T + 0.1 * np.eye(n))


@settings(max_examples=100, deadline=None, database=None)
@given(
    dofs=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 40),
    log_dt=st.floats(-4.0, 1.0),
    damped=st.booleans(),
    rigid=st.booleans(),
)
def test_property_integrate_keeps_the_energy_balance(dofs, seed, steps, log_dt, damped, rigid):
    rng = np.random.default_rng(seed)
    mass = random_spd(rng, dofs, 1.0)
    damping = random_spd(rng, dofs, rng.uniform(0.0, 1.0) if damped else 0.0)
    scale = 10.0 ** rng.uniform(-1.0, 3.0)
    if rigid:  # K = F F' of rank 0 to dofs - 1 leaves rigid-body modes free
        factor = rng.normal(size=(dofs, rng.integers(dofs)))
        stiffness = scale * (factor @ factor.T)
    else:
        stiffness = random_spd(rng, dofs, scale)
    system = MdofSystem(mass, damping, stiffness, tuple(f"d{i}" for i in range(dofs)))
    steady, swing = rng.normal(size=(2, dofs))
    drive = rng.uniform(0.5, 20.0)

    def schedule(t):
        return steady + swing * math.sin(drive * t)

    u0, v0 = rng.normal(size=(2, dofs))
    dt = 10.0**log_dt
    result = integrate(system, schedule, u0, v0, TimeGrid(0.0, steps * dt, dt))
    forces = np.array([schedule(t) for t in result.times])
    assert np.all(energy_balance_excess(system, result.frames, forces, v0, dt) <= 1.0)


@settings(max_examples=60, deadline=None, database=None)
@given(
    modes=st.integers(1, 6),
    freqs=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 300),
    start=st.floats(-5.0, 5.0),
)
def test_property_modal_response_keeps_the_energy_balance(modes, freqs, seed, steps, start):
    # each unit-mass mode, read out by the identity, is its own Newmark run,
    # so every stitched block must keep the balance too
    rng = np.random.default_rng(seed)
    lam = 10.0 ** rng.uniform(-1.0, 4.0, modes)
    damping = rng.uniform(0.0, 0.5, modes) * np.sqrt(lam)
    gain = rng.normal(size=modes)
    omega = rng.uniform(0.5, 60.0, freqs)
    dt = 10.0 ** rng.uniform(-4.0, -0.5, freqs)
    history = modal_harmonic_response(
        lam, damping, gain, omega, dt, steps, np.eye(modes), start=start
    )
    system = MdofSystem(np.eye(modes), np.diag(damping), np.diag(lam), ("q",) * modes)
    for column, (w, step) in enumerate(zip(omega, dt)):
        # the drive's phase in long double, as the recurrence takes it
        times = start + np.arange(steps + 1) * np.longdouble(step)
        forces = (np.sin(np.longdouble(w) * times)[:, None] * gain).astype(float)
        frames = history[:, column]
        excess = energy_balance_excess(system, frames, forces, np.zeros(modes), step)
        assert np.all(excess <= 1.0), (column, excess.max())


def system_run_and_coupled_oracle(dofs, damping, axis, time, gamma, beta, stride):
    """A `system` scenario run, and `integrate` on the same diagonal system."""
    m, k, amplitude, f_hz = 2.0, 50.0, 3.0, 1.3
    s = scenario_from_dict(
        {
            "schema": "beamlab/1",
            "name": "mass_spring",
            "solver": "dynamic",
            "system": {
                "mass": m,
                "damping": damping,
                "stiffness": k,
                "dofs": dofs,
                "force": {"amplitude": amplitude, "f_hz": f_hz, "axis": axis},
            },
            "time": time,
            "integrator": {"gamma": gamma, "beta": beta},
            "output": {"stride": stride},
        }
    )
    eye = np.eye(dofs)
    system = MdofSystem(m * eye, damping * eye, k * eye, ("x", "y")[:dofs])
    drive = amplitude * eye[("x", "y").index(axis)]
    omega = 2.0 * math.pi * f_hz
    zeros = np.zeros(dofs)
    coupled = integrate(
        system, lambda t: drive * np.sin(omega * t), zeros, zeros, s.tgrid,
        s.integrator, stride=stride,
    )
    return run_scenario(s).time_series, coupled


class TestModalHarmonicResponse:
    @pytest.mark.parametrize(
        "dofs, damping, axis, time, gamma, beta, stride",
        [
            (1, 0.0, "x", {"end": 5.0, "dt": 1e-3}, 0.5, 0.25, 1),
            (1, 0.4, "x", {"start": 0.35, "end": 3.35, "dt": 2e-3}, 0.5, 0.25, 3),
            (2, 0.4, "y", {"end": 4.0, "dt": 1e-3}, 0.6, 0.3025, 7),
            (2, 0.0, "x", {"start": -0.5, "end": 2.5, "dt": 5e-3}, 0.55, 0.3, 1),
        ],
        ids=["undamped", "late_start_stride", "two_dof_gamma_beta_stride", "early_start"],
    )
    def test_system_runs_match_integrate(self, dofs, damping, axis, time, gamma, beta, stride):
        modal, coupled = system_run_and_coupled_oracle(
            dofs, damping, axis, time, gamma, beta, stride
        )
        assert modal.columns == (("u",) if dofs == 1 else ("x", "y"))
        np.testing.assert_array_equal(modal.times, coupled.times)
        peak = np.max(np.abs(coupled.frames))
        np.testing.assert_allclose(modal.frames, coupled.frames, rtol=0, atol=1e-12 * peak)

    def test_batch_columns_match_single_frequency_runs(self):
        lam, damping, gain = np.array([4.0, 90.0]), np.array([0.1, 0.9]), np.array([1.0, 0.5])
        omega, dt = [3.0, 11.0], [2e-3, 5e-4]
        readout = np.array([1.0, -2.0])
        batch = modal_harmonic_response(lam, damping, gain, omega, dt, 500, readout)
        assert batch.shape == (501, 2)
        for column, (w, step) in enumerate(zip(omega, dt)):
            single = modal_harmonic_response(lam, damping, gain, [w], [step], 500, readout)
            peak = np.max(np.abs(single))
            np.testing.assert_allclose(batch[:, column], single[:, 0], rtol=0, atol=1e-14 * peak)


def per_step_modal_history(
    lam,
    damping,
    gain,
    omega,
    dt,
    steps,
    readout,
    cfg,
    start,
    stride,
    dtype=float,
    magnitude=False,
):
    """The plain per-step recurrence behind `modal_harmonic_response`, in
    `dtype`: in long double it is the exact reference for every run.  With
    `magnitude`, each sample is |q| @ |readout|, the scale of its rounding."""
    lam, damping, gain, readout = (
        np.asarray(x, dtype=dtype) for x in (lam, damping, gain, readout)
    )
    step = np.asarray(dt, dtype=dtype)[:, None]
    omega = np.asarray(omega, dtype=dtype)[:, None]
    dt = step * np.ones(np.shape(gain)[-1], dtype=dtype)
    gamma, beta = dtype(cfg.gamma), dtype(cfg.beta_nm)
    effective = 1.0 + gamma * dt * damping + beta * dt**2 * lam
    force_gain = gain / effective
    damping_gain = damping / effective
    stiffness_gain = lam / effective
    c_upred = (0.5 - beta) * dt**2
    c_vpred = (1.0 - gamma) * dt
    c_u = beta * dt**2
    c_v = gamma * dt

    q = np.zeros(dt.shape, dtype=dtype)
    v = np.zeros_like(q)
    a = gain * np.sin(omega * start)
    history = np.zeros((steps // stride + 1, *(q @ readout).shape), dtype=dtype)
    for i in range(1, steps + 1):
        u_pred = q + dt * v + c_upred * a
        v_pred = v + c_vpred * a
        force = force_gain * np.sin(omega * (start + i * step))
        a = force - damping_gain * v_pred - stiffness_gain * u_pred
        q = u_pred + c_u * a
        v = v_pred + c_v * a
        if i % stride == 0:
            history[i // stride] = np.abs(q) @ np.abs(readout) if magnitude else q @ readout
    return history


def fewest_modes_over_budget(freqs, steps, stride, outputs):
    """Fewest modes at which `freqs` frequencies no longer fit one group of
    RECURRENCE_BYTES (for one frequency: the floor takes over)."""
    blocks, size = _blocking(steps, stride)

    def over(modes):
        return freqs * _frequency_bytes(modes, outputs, blocks, size, stride) > RECURRENCE_BYTES

    low, high = 1, 2
    while not over(high):
        low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (low, middle) if over(middle) else (middle, high)
    return high


@st.composite
def modal_runs(draw):
    """Inputs of `modal_harmonic_response`; a wide run has about as many modes
    as fit its frequencies in one group, so it lands on either side of the
    frequency-group budget."""
    steps = draw(
        st.one_of(
            st.sampled_from([2, 3, 5, 7, 11, 97, 101, 211, 257]),  # primes
            st.sampled_from([1, 4, 9, 16, 25, 100, 144, 256]),  # squares
            st.integers(1, 300),
        )
    )
    freqs = draw(st.integers(1, 3))
    stride = draw(st.integers(1, 7))
    outputs = draw(st.integers(1, 3)) if draw(st.booleans()) else None
    if draw(st.booleans()):
        modes = fewest_modes_over_budget(freqs, steps, stride, outputs or 1)
        modes += draw(st.integers(-1, 0))
    else:
        modes = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = rng.uniform(0.5, 2e3, modes)
    gamma = draw(st.floats(0.5, 0.7))
    cfg = IntegratorConfig(gamma, draw(st.floats(gamma / 2, 0.4)))
    return dict(
        lam=lam,
        damping=rng.uniform(0.0, 0.2, modes) * np.sqrt(lam),
        gain=rng.normal(size=modes),
        omega=rng.uniform(0.5, 60.0, freqs),
        dt=rng.uniform(1e-4, 2e-2, freqs),
        steps=steps,
        readout=rng.normal(size=modes if outputs is None else (modes, outputs)),
        cfg=cfg,
        start=draw(st.sampled_from([0.0, 0.35, -1.25])),
        stride=stride,
    )


@settings(max_examples=80, deadline=None, database=None)
@given(run=modal_runs())
def test_property_modal_response_matches_per_step_loop(run):
    got = modal_harmonic_response(**run)
    # against the exact recurrence, at 2e-14 of the peak of sum |q_i*readout_i|
    # over every step: the float64 loop itself, rounding its sine argument
    # once per step, strays up to 8.1e-14 of that peak
    exact = per_step_modal_history(**run, dtype=np.longdouble)
    scale = per_step_modal_history(**{**run, "stride": 1}, dtype=np.longdouble, magnitude=True)
    assert got.shape == exact.shape
    atol = 2e-14 * float(np.max(scale))
    np.testing.assert_allclose(got, exact.astype(float), rtol=0, atol=atol)


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data(), steps=st.integers(1, 10**6))
def test_property_blocking_covers_the_recorded_steps(data, steps):
    stride = data.draw(st.integers(1, steps + 5))
    blocks, size = _blocking(steps, stride)
    assert size % stride == 0
    # the blocks reach the last recorded step, and none lies wholly past it
    last = steps // stride * stride
    assert blocks * size >= last > (blocks - 1) * size or blocks == last == 0
    # the least whole number of strides that cuts them into sqrt(2*last) blocks
    target = max(1, math.isqrt(2 * last))
    assert blocks <= target
    assert size - stride < -(-last // target) <= size


def test_stride_past_the_run_steps_nothing():
    lam, damping, gain = np.array([4.0, 90.0]), np.array([0.1, 0.9]), np.array([1.0, 0.5])
    assert _blocking(3, 10**9)[0] == 0
    got = modal_harmonic_response(lam, damping, gain, [3.0], [2e-3], 3, gain, stride=10**9)
    np.testing.assert_array_equal(got, np.zeros((1, 1)))


def direct_sin_cos(phase):
    """The long-double calls that `_sin_cos` stands in for, rounded to float64."""
    return np.sin(phase).astype(float), np.cos(phase).astype(float)


@pytest.mark.parametrize("name", ["exp5_1", "exp5_2"])
def test_sin_cos_of_a_presets_tables_is_the_direct_call(name):
    # the drive and block-phase tables the run builds, bit for bit
    tables = []

    def recorded(phase):
        tables.append(phase.copy())
        return _sin_cos(phase)

    with mock.patch.object(dynamics, "_sin_cos", recorded):
        run_scenario(preset(name))
    assert len(tables) >= 2
    for phase in tables:
        for got, want in zip(_sin_cos(phase), direct_sin_cos(phase)):
            assert np.array_equal(got, want)


def test_half_pi_parts_give_exact_products_below_the_exact_turns():
    parts = dynamics._HALF_PI
    assert dynamics._PI_BITS / 2**256 == math.pi
    # the first three of the long double's half width, so each product
    # with a quarter-turn count below _EXACT_TURNS is exact
    turns = int(dynamics._EXACT_TURNS) - 1
    for part in parts[:3]:
        numerator, denominator = part.as_integer_ratio()
        assert (numerator // (numerator & -numerator)).bit_length() <= dynamics._LONG_BITS // 2
        exact = Fraction(turns * numerator, denominator)
        assert Fraction(*(np.longdouble(turns) * part).as_integer_ratio()) == exact
    # together pi/2 to within the last part's rounding
    total = sum(Fraction(*part.as_integer_ratio()) for part in parts)
    gap = abs(total - Fraction(dynamics._PI_BITS, 2**257))
    assert gap <= Fraction(float(parts[3])) * 2**-53
    if dynamics._LONG_BITS == 64:  # x87: Cody and Waite's 32-bit parts
        assert dynamics._EXACT_TURNS == 2**31
        assert [float(part).hex() for part in parts] == [
            "0x1.921fb54400000p+0",
            "0x1.0b4611a600000p-34",
            "0x1.3198a2e000000p-69",
            "0x1.b839a252049c1p-104",
        ]


#: pi/2 to long double, for phases at and near its multiples.
HALF_PI_LONG = np.longdouble("1.57079632679489661923132169163975144")


@st.composite
def long_phases(draw):
    """Long-double phases in about [-2**33, 2**33]: float64s with bits past
    their last, or 256 running multiples of pi/2, each moved a few ulps."""
    if draw(st.booleans()):
        wholes = st.lists(st.floats(-(2.0**33), 2.0**33), min_size=1, max_size=6)
        whole = np.array(draw(wholes), dtype=np.longdouble)
        return whole + draw(st.integers(-(2**11), 2**11)) * np.spacing(abs(whole))
    limit = int(2**33 / (math.pi / 2))
    high = limit // 4  # about 2**30 quarter turns: q times pi/2's missing bits is large
    first = draw(st.one_of(st.integers(-limit, limit), st.integers(high, high + 2**20)))
    multiples = np.arange(first, first + 256).astype(np.longdouble) * HALF_PI_LONG
    return multiples + draw(st.integers(-3, 3)) * np.spacing(abs(multiples))


@settings(max_examples=300, deadline=None, database=None)
@given(phase=long_phases())
def test_property_sin_cos_within_one_ulp_of_the_direct_call(phase):
    # near a multiple of pi/2 below 2**31 quarter turns a phase may be 2**-40
    # or less from it, where pi/2 to 117 bits instead of 149 misplaces r by
    # many ulps
    for got, want in zip(_sin_cos(phase), direct_sin_cos(phase)):
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want))), (phase, got, want)


@settings(max_examples=100, deadline=None, database=None)
@given(
    magnitudes=st.lists(
        st.floats((dynamics._EXACT_TURNS + 1) * (math.pi / 2), 1e300), min_size=1, max_size=6
    ),
    negative=st.booleans(),
)
def test_property_sin_cos_past_the_exact_turns_is_the_direct_call(magnitudes, negative):
    # the first count of quarter turns that a long double does not reduce
    # exactly, then phases past it, up to 1e300
    first = np.longdouble(dynamics._EXACT_TURNS) * HALF_PI_LONG
    phase = np.array([first, *magnitudes], dtype=np.longdouble) * (-1 if negative else 1)
    for got, want in zip(_sin_cos(phase), direct_sin_cos(phase)):
        assert np.array_equal(got, want)


def test_sin_cos_keeps_negative_zero_and_never_warns_on_a_finite_phase():
    sines, cosines = _sin_cos(np.array([-0.0, 0.0], dtype=np.longdouble))
    assert sines.tolist() == [0.0, 0.0] and np.signbit(sines).tolist() == [True, False]
    assert cosines.tolist() == [1.0, 1.0]
    # up to 1e300, and past the float range, where the quarter turns overflow
    finite = [5e-324, 1e-300, 1e30, 2.0**33, 1e300, np.finfo(np.longdouble).max]
    phase = np.array(finite + [-x for x in finite], dtype=np.longdouble)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = _sin_cos(phase)
    for got, want in zip(results, direct_sin_cos(phase)):
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


@st.composite
def grouped_modal_runs(draw):
    """A `modal_runs()` run at 2 to 6 frequencies and up to 2500 steps, and
    a group size below the frequency count: the run steps its frequencies in
    several groups, each over several chunks, once RECURRENCE_BYTES is
    `group_budget`.  Its strides and lengths fall off the block boundaries."""
    run = draw(modal_runs())
    freqs = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    run.update(
        omega=rng.uniform(0.5, 60.0, freqs),
        dt=rng.uniform(1e-4, 2e-2, freqs),
        steps=draw(st.integers(1, 2500)),
    )
    return run, draw(st.integers(1, freqs - 1))


def group_budget(run, group: int) -> int:
    """The RECURRENCE_BYTES at which `run` steps `group` frequencies at once."""
    blocks, size = _blocking(run["steps"], run["stride"])
    modes, outputs = np.shape(run["gain"])[-1], math.prod(np.shape(run["readout"])[1:])
    return group * _frequency_bytes(modes, outputs, blocks, size, run["stride"])


@settings(max_examples=80, deadline=None, database=None)
@given(grouped=grouped_modal_runs())
def test_property_chunks_rebuild_the_history(grouped):
    run, group = grouped
    with mock.patch.object(dynamics, "RECURRENCE_BYTES", group_budget(run, group)):
        history = np.moveaxis(modal_harmonic_response(**run), 0, 1)
        chunks = [(rows, first, samples.copy()) for rows, first, samples in _modal_chunks(**run)]
    # each group's chunks follow on from sample 0 and reach the last record
    parts = {}
    for rows, first, samples in chunks:
        assert rows.start % group == 0 and rows.stop == rows.start + group
        part = parts.setdefault(rows.start, [np.zeros_like(samples[:, :1])])
        assert first == sum(p.shape[1] for p in part)
        part.append(samples)
    freqs, recorded = history.shape[:2]
    assert list(parts) == (list(range(0, freqs, group)) if recorded > 1 else [])
    if parts:
        rebuilt = np.concatenate([np.concatenate(part, axis=1) for part in parts.values()])
        assert rebuilt.shape[1] >= recorded
        assert np.array_equal(rebuilt[:, :recorded], history)
    # grouping is exact per frequency: one frequency at a time gives the same bits
    with mock.patch.object(dynamics, "RECURRENCE_BYTES", group_budget(run, 1)):
        alone = modal_harmonic_response(**run)
    assert np.array_equal(np.moveaxis(alone, 0, 1), history)


@settings(max_examples=80, deadline=None, database=None)
@given(grouped=grouped_modal_runs(), data=st.data())
def test_property_window_peaks_are_the_whole_windows(grouped, data):
    run, group = grouped
    run["readout"] = np.reshape(run["readout"], (len(run["readout"]), -1))[:, 0]
    recorded = run["steps"] // run["stride"] + 1
    cuts = st.lists(st.integers(0, recorded), min_size=2, max_size=5, unique=True)
    edges = sorted(data.draw(cuts))
    with mock.patch.object(dynamics, "RECURRENCE_BYTES", group_budget(run, group)):
        history = modal_harmonic_response(**run)
        peaks = _window_peaks(_modal_chunks(**run), len(run["omega"]), edges)
    windows = (history[low:high] for low, high in zip(edges[:-1], edges[1:]))
    whole = [np.maximum(window.max(axis=0), -window.min(axis=0)) for window in windows]
    assert np.array_equal(peaks, whole)


@settings(
    max_examples=30,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # ref_beam is frozen
)
@given(
    nodes=st.integers(9, 25),
    ends=st.sampled_from(["pinned", "clamped_free"]),
    hz=st.lists(st.floats(0.5, 30.0), min_size=2, max_size=6),
    settle_periods=st.integers(1, 8),
    measure_periods=st.integers(1, 4),
    data=st.data(),
)
def test_property_sweep_amplitudes_are_the_whole_window_peaks(
    ref_beam, nodes, ends, hz, settle_periods, measure_periods, data
):
    group = data.draw(st.integers(1, len(hz) - 1))
    # the recurrence's inputs as the sweep gives them, to rerun as a history
    runs = []

    def recorded_chunks(*args):
        runs.append(dict(zip(inspect.signature(modal_harmonic_response).parameters, args)))
        with mock.patch.object(dynamics, "RECURRENCE_BYTES", group_budget(runs[0], group)):
            yield from _modal_chunks(*args)

    bc = PINNED if ends == "pinned" else BoundarySpec.clamped_free()
    kwargs = dict(settle_periods=settle_periods, measure_periods=measure_periods, zeta1=0.05)
    with mock.patch.object(dynamics, "_modal_chunks", recorded_chunks):
        try:
            points = frequency_sweep(ref_beam, bc, nodes, 1e3, 3.0, hz, **kwargs)
        except NonConvergenceError as exc:
            points = exc
    history = modal_harmonic_response(**runs[0])
    settle = settle_periods * SWEEP_STEPS_PER_PERIOD
    settle_peaks, amplitudes = (
        np.maximum(window.max(axis=0), -window.min(axis=0))
        for window in (history[:settle], history[settle:])
    )
    grown = (settle_peaks > 0.0) & (amplitudes > GROWTH_LIMIT * settle_peaks)
    if grown.any():
        assert isinstance(points, NonConvergenceError)
        assert f"f_hz={hz[np.argmax(grown)]}:" in str(points)
    else:
        assert np.array_equal([p.amplitude_m for p in points], amplitudes)


def every_mode_peaks(beam, bc, nodes, p0, xload, hz, settle_periods, measure_periods, zeta1):
    """Settle and measure window peaks of the sweep's recurrence over every
    mode of the SVD of B*M^(-1/2), none left out."""
    grid = SpatialGrid.for_beam(beam, nodes)
    factor, free = beam_factor(beam, bc, grid)
    root_mass = np.sqrt(beam.section.mass_per_length * trapezoid_weights(grid)[free])
    sigma, modes = np.linalg.svd(factor / root_mass, full_matrices=False)[1:]
    lam, modes = sigma[::-1] ** 2, modes[::-1] / root_mass
    coeff = stiffness_damping_coeff(zeta1, math.sqrt(lam[0]))
    midspan = modes[:, np.count_nonzero(free[: grid.nearest_node(beam.length / 2.0)])]
    gain = modes @ nodal_force(PointLoad(p0, xload), grid)[free]
    hz = np.array(hz)
    settle = settle_periods * SWEEP_STEPS_PER_PERIOD
    steps = settle + measure_periods * SWEEP_STEPS_PER_PERIOD
    omega, dt = 2.0 * math.pi * hz, 1.0 / (SWEEP_STEPS_PER_PERIOD * hz)
    chunks = _modal_chunks(
        lam, coeff * lam, gain, omega, dt, steps, midspan, IntegratorConfig(), 0.0, 1
    )
    return _window_peaks(chunks, hz.size, (0, settle, steps + 1))


@settings(
    max_examples=40,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # ref_beam is frozen
)
@given(
    ends=st.sampled_from(["pinned-pinned", "clamped-clamped", "spring-spring"]),
    spring=st.sampled_from([1e3, 1e6, 1e9]),
    nodes=st.integers(5, 50).map(lambda k: 2 * k + 1),
    xload=st.floats(0.5, 9.5),
    hz=st.lists(st.floats(0.5, 30.0), min_size=1, max_size=3),
)
def test_property_symmetric_modes_give_every_mode_amplitudes(
    ref_beam, ends, spring, nodes, xload, hz
):
    bc = ends_spec(ends, spring)
    kwargs = dict(settle_periods=8, measure_periods=2, zeta1=0.05)
    settle_peaks, want = every_mode_peaks(ref_beam, bc, nodes, 1e3, xload, hz, **kwargs)
    grown = [0.0 < s and a > GROWTH_LIMIT * s for s, a in zip(settle_peaks, want)]
    if any(grown):  # soft springs leave a slow transient: the same refusal
        with pytest.raises(NonConvergenceError, match=f"f_hz={hz[grown.index(True)]}:"):
            frequency_sweep(ref_beam, bc, nodes, 1e3, xload, hz, **kwargs)
    else:
        points = frequency_sweep(ref_beam, bc, nodes, 1e3, xload, hz, **kwargs)
        np.testing.assert_allclose([p.amplitude_m for p in points], want, rtol=1e-13, atol=0)


class TestDiscretizeBeam:
    def test_total_lumped_mass(self, ref_beam):
        bc = BoundarySpec(EndCondition.free(), EndCondition.free())
        system = discretize_beam(ref_beam, bc, 81)
        total = float(np.trace(system.mass))
        assert total == pytest.approx(
            ref_beam.section.mass_per_length * ref_beam.length, rel=1e-12
        )

    def test_interior_row_sums_vanish(self, ref_beam):
        bc = BoundarySpec(EndCondition.free(), EndCondition.free())
        system = discretize_beam(ref_beam, bc, 41)
        sums = np.asarray(system.stiffness).sum(axis=1)
        scale = np.abs(system.stiffness).max()
        np.testing.assert_allclose(sums, 0.0, atol=1e-12 * scale)

    def test_free_free_beam_translates_rigidly_under_uniform_load(self, ref_beam):
        # K is singular on free ends, yet M + dt^2/4 K is positive definite:
        # a uniform load q, lumped as q*w_i onto masses rho*A*w_i, gives every
        # node the acceleration q/(rho*A), and average acceleration steps a
        # constant acceleration exactly, to u = q*t^2/(2*rho*A)
        bc = BoundarySpec(EndCondition.free(), EndCondition.free())
        system = discretize_beam(ref_beam, bc, 41)
        q = 2000.0
        force = q * trapezoid_weights(system.grid)
        zeros = np.zeros(system.size)
        tgrid = TimeGrid(0.0, 1.0, 0.001)
        result = integrate(system, constant_force(force), zeros, zeros, tgrid)
        assert result.frames.shape == (1001, 41)
        want = q * result.times**2 / (2.0 * ref_beam.section.mass_per_length)
        np.testing.assert_allclose(
            result.frames, np.broadcast_to(want[:, None], result.frames.shape), rtol=1e-9
        )

    def test_eigenfrequencies_match_characteristic_roots(self, ref_beam):
        system = discretize_beam(ref_beam, PINNED, 201)
        betas = find_beta_roots(ref_beam, PINNED, 3)
        exact = [f.omega_rad_s for f in natural_frequencies(betas, ref_beam)]
        approx = eigenfrequencies(system, 3)
        for i, (got, want) in enumerate(zip(approx, exact), start=1):
            assert abs(got - want) / want < 5e-3, f"mode {i}: {got} vs {want}"

    def test_eigen_convergence_second_order(self, ref_beam):
        betas = find_beta_roots(ref_beam, PINNED, 1)
        omega_exact = natural_frequencies(betas, ref_beam)[0].omega_rad_s
        errors, spacings = [], []
        for n in (51, 101, 201, 401):
            system = discretize_beam(ref_beam, PINNED, n)
            omega = eigenfrequencies(system, 1)[0]
            errors.append(abs(omega - omega_exact) / omega_exact)
            spacings.append(ref_beam.length / (n - 1))
        slope = np.polyfit(np.log(spacings), np.log(errors), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1), f"order {slope}, errors {errors}"

    def test_minimum_node_count(self, ref_beam):
        with pytest.raises(ValidationError, match="n_nodes"):
            discretize_beam(ref_beam, PINNED, 5)

    def test_undamped_with_grid_labels(self, ref_beam):
        system = discretize_beam(ref_beam, BoundarySpec.clamped_free(), 21)
        assert not system.is_damped
        assert system.labels == SpatialGrid.for_beam(ref_beam, 21).labels[1:]

    def test_rayleigh_fit_hits_target(self):
        coeff = stiffness_damping_coeff(0.02, 40.0)
        # modal damping ratio at omega1: coeff * omega1 / 2
        assert coeff * 40.0 / 2.0 == pytest.approx(0.02, rel=1e-12)

    def test_rayleigh_fit_rejects_bad_inputs(self):
        assert stiffness_damping_coeff(0.0, 40.0) == 0.0
        with pytest.raises(ValidationError, match="zeta1 must be nonnegative"):
            stiffness_damping_coeff(-0.01, 40.0)
        with pytest.raises(ValidationError, match="omega1 must be positive"):
            stiffness_damping_coeff(0.02, 0.0)


class TestMovingLoadForce:
    LOAD = MovingPointLoad(1e4, 1.0, 0.0)

    def test_entry_node_gets_full_load(self, ref_beam):
        grid = SpatialGrid.for_beam(ref_beam, 41)
        force = nodal_force(self.LOAD, grid, 0.0)
        assert force[0] == 1e4
        assert np.count_nonzero(force) == 1

    def test_mid_cell_even_split(self, ref_beam):
        grid = SpatialGrid.for_beam(ref_beam, 41)  # spacing 0.25
        force = nodal_force(self.LOAD, grid, 0.125)
        nonzero = force[force != 0.0]
        np.testing.assert_allclose(nonzero, [5e3, 5e3], rtol=1e-12)

    def test_total_force_preserved(self, ref_beam):
        grid = SpatialGrid.for_beam(ref_beam, 41)
        rng = np.random.default_rng(7)
        for t in rng.uniform(0.0, 10.0, size=1000):
            force = nodal_force(self.LOAD, grid, float(t))
            assert force.sum() == pytest.approx(1e4, rel=1e-12)

    def test_zero_after_exit(self, ref_beam):
        grid = SpatialGrid.for_beam(ref_beam, 41)
        np.testing.assert_array_equal(nodal_force(self.LOAD, grid, 10.5), 0.0)

    def test_zero_before_entry(self, ref_beam):
        # negative times put the load short of x = 0, not on the span
        grid = SpatialGrid.for_beam(ref_beam, 41)
        np.testing.assert_array_equal(nodal_force(self.LOAD, grid, -0.5), 0.0)
        late = MovingPointLoad(1e4, 1.0, 2.0)
        assert nodal_force(late, grid, -0.5).sum() == pytest.approx(1e4, rel=1e-12)


#: Ends that leave a rigid-body mode, with and without damping: the first
#: discrete frequency of pinned-free ends is round-off (1.3e-5 rad/s at 21
#: nodes, 1.4e-3 at 101), so no damping can be fitted to it.
RIGID_BODY_ENDS = pytest.mark.parametrize(
    "ends, nodes, zeta1",
    [
        pytest.param(ends, nodes, zeta1, id=f"{ends}-{nodes}-zeta{zeta1}")
        for ends in ("free-free", "pinned-free")
        for nodes in (21, 101)
        for zeta1 in (0.0, 0.02)
    ],
)


def refuses_rigid_body_ends(monkeypatch, ends):
    """Fail any eigensolve and any building of an operator, and expect the
    refusal that names `ends`."""

    def unreachable(*args, **kwargs):
        raise AssertionError("eigensolve or operator before the rigid-body refusal")

    monkeypatch.setattr(scipy.linalg, "eigh", unreachable)
    for name in ("discretize_beam", "beam_stiffness_matrix", "beam_factor"):
        monkeypatch.setattr(dynamics, name, unreachable)
    return pytest.raises(
        RankDeficiencyError,
        match=f"^cannot integrate rank-deficient system: end conditions {ends} "
        "leave rigid-body modes free$",
    )


def ends_spec(ends: str, spring: float = 1e6) -> BoundarySpec:
    """The ends named "left-right"; a spring end holds `spring` N/m."""
    left, right = (
        EndCondition.spring(spring) if kind == "spring" else getattr(EndCondition, kind)()
        for kind in ends.split("-")
    )
    return BoundarySpec(left, right)


class TestBeamTimeResponse:
    @RIGID_BODY_ENDS
    def test_rigid_body_ends_rejected(self, ref_beam, monkeypatch, ends, nodes, zeta1):
        tgrid = TimeGrid(0.0, 0.01, 1e-3)
        with refuses_rigid_body_ends(monkeypatch, ends):
            beam_time_response(
                ref_beam, ends_spec(ends), nodes, [PointLoad(1e3, 5.0)], tgrid, zeta1=zeta1
            )

    def test_constant_point_load_settles_to_static(self, ref_beam):
        # damped beam under a suddenly applied midspan load relaxes to the
        # static influence solution
        tgrid = TimeGrid(0.0, 3.0, 1e-3)
        result = beam_time_response(
            ref_beam, PINNED, 41, [PointLoad(1e4, 5.0)], tgrid, zeta1=0.2
        )
        static = ss_point_deflection(5.0, 1e4, 5.0, ref_beam)
        assert result.frames[-1, 20] == pytest.approx(static, rel=5e-3)

    def test_constrained_nodes_stay_zero(self, ref_beam):
        tgrid = TimeGrid(0.0, 0.5, 1e-3)
        result = beam_time_response(
            ref_beam, PINNED, 21, [UdlLoad(5e3)], tgrid, zeta1=0.05
        )
        np.testing.assert_array_equal(result.frames[:, 0], 0.0)
        np.testing.assert_array_equal(result.frames[:, -1], 0.0)

    def test_moving_load_slow_limit_matches_quasi_static(self, ref_beam):
        # crossing at v = 0.2 m/s (50 s) with damping: dynamic peak close to
        # the static influence peak
        tgrid = TimeGrid(0.0, 30.0, 5e-3)
        result = beam_time_response(
            ref_beam,
            PINNED,
            41,
            [MovingPointLoad(1e4, 0.2, 0.0)],
            tgrid,
            zeta1=0.05,
        )
        peak = np.max(np.abs(result.frames[:, 20]))
        static_peak = ss_point_deflection(5.0, 1e4, 5.0, ref_beam)
        assert peak == pytest.approx(static_peak, rel=2e-2)


class TestFrequencySweep:
    def test_peak_near_fundamental(self, ref_beam):
        betas = find_beta_roots(ref_beam, PINNED, 1)
        f1 = natural_frequencies(betas, ref_beam)[0].f_hz
        freqs = [4.5, 5.0, 5.5, 6.0, 6.5]
        points = frequency_sweep(
            ref_beam, PINNED, 41, 1e3, 5.0, freqs,
            settle_periods=25, measure_periods=5, zeta1=0.02,
        )
        assert [p.f_hz for p in points] == freqs
        best = max(points, key=lambda p: p.amplitude_m)
        nearest = min(freqs, key=lambda f: abs(f - f1))
        assert best.f_hz == nearest

    def test_quasi_static_low_frequency_limit(self, ref_beam):
        betas = find_beta_roots(ref_beam, PINNED, 1)
        f1 = natural_frequencies(betas, ref_beam)[0].f_hz
        static = ss_point_deflection(5.0, 1e3, 5.0, ref_beam)
        points = frequency_sweep(
            ref_beam, PINNED, 41, 1e3, 5.0, [0.2 * f1],
            settle_periods=10, measure_periods=5, zeta1=0.02,
        )
        assert points[0].amplitude_m == pytest.approx(static, rel=0.1)

    def test_resonant_amplification(self, ref_beam):
        betas = find_beta_roots(ref_beam, PINNED, 1)
        f1 = natural_frequencies(betas, ref_beam)[0].f_hz
        points = frequency_sweep(
            ref_beam, PINNED, 41, 1e3, 5.0, [0.2 * f1, f1],
            settle_periods=30, measure_periods=10, zeta1=0.02,
        )
        assert points[1].amplitude_m / points[0].amplitude_m > 5.0

    def test_undamped_resonance_flagged(self, ref_beam):
        betas = find_beta_roots(ref_beam, PINNED, 1)
        f1 = natural_frequencies(betas, ref_beam)[0].f_hz
        with pytest.raises(NonConvergenceError, match="f_hz"):
            frequency_sweep(
                ref_beam, PINNED, 41, 1e3, 5.0, [f1],
                settle_periods=30, measure_periods=10, zeta1=0.0,
            )

    @pytest.mark.parametrize(
        "bc, freqs",
        [
            (PINNED, [2.0, 4.5, 7.0]),
            (BoundarySpec.clamped_free(), [0.5, 1.8, 3.0]),
        ],
        ids=["pinned", "clamped_free"],
    )
    def test_modal_batch_matches_coupled_runs(self, ref_beam, bc, freqs):
        kwargs = dict(settle_periods=4, measure_periods=2, zeta1=0.05)
        want = reference_sweep(ref_beam, bc, 21, 1e3, 3.0, freqs, **kwargs)
        points = frequency_sweep(ref_beam, bc, 21, 1e3, 3.0, freqs, **kwargs)
        assert [p.f_hz for p in points] == freqs
        got = np.array([p.amplitude_m for p in points])
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0)

    @pytest.mark.parametrize(
        "ends, nodes, stepped, modes",
        [
            ("pinned-pinned", 41, 20, 39),
            ("clamped-clamped", 41, 20, 39),
            ("spring-spring", 41, 21, 41),
            ("pinned-clamped", 41, 39, 39),
            ("spring-clamped", 41, 40, 40),
            ("pinned-pinned", 40, 38, 38),
            ("clamped-clamped", 40, 38, 38),
            ("spring-spring", 40, 40, 40),
        ],
    )
    def test_mirror_symmetric_sweeps_step_only_the_symmetric_modes(
        self, ref_beam, monkeypatch, ends, nodes, stepped, modes
    ):
        # equal ends and an odd node count put midspan on the mirror line,
        # where every antisymmetric mode is zero; other sweeps step every mode
        bc = ends_spec(ends)
        free = beam_factor(ref_beam, bc, SpatialGrid.for_beam(ref_beam, nodes))[1]
        assert np.count_nonzero(free) == modes
        sizes = []

        def recorded_chunks(lam, *args):
            sizes.append(lam.size)
            return _modal_chunks(lam, *args)

        monkeypatch.setattr(dynamics, "_modal_chunks", recorded_chunks)
        for xload in (3.0, 5.0):  # the cut does not look at the load
            frequency_sweep(
                ref_beam, bc, nodes, 1e3, xload, [0.5, 1.0],
                settle_periods=4, measure_periods=2, zeta1=0.05,
            )
        assert sizes == [stepped, stepped]

    def test_exp5_1_steps_its_frequencies_in_one_group(self, monkeypatch):
        # blocks of 45 steps leave each frequency's rows small enough that
        # all 30 fit one group of RECURRENCE_BYTES: one _step_block call
        calls = []

        def counted_step_block(lam, damping, gain, omega, *args):
            calls.append(omega.size)
            return step_block(lam, damping, gain, omega, *args)

        step_block = dynamics._step_block
        monkeypatch.setattr(dynamics, "_step_block", counted_step_block)
        run_scenario(preset("exp5_1"))
        assert calls == [30]

    def test_measure_window_starts_at_the_settle_step(self, ref_beam):
        # exp5_1's beam and load just below the third mode: the decaying
        # transient peaks at the measure window's first sample, step 3000,
        # whose time rounds to just below 30 periods
        f_hz = 45.40112091589573
        settle = 30 * SWEEP_STEPS_PER_PERIOD
        tgrid = TimeGrid(0.0, 40 / f_hz, 1.0 / (SWEEP_STEPS_PER_PERIOD * f_hz))
        assert tgrid.times[settle] < 30 / f_hz
        load = HarmonicPointLoad(1e3, f_hz, 5.0)
        coupled = beam_time_response(ref_beam, PINNED, 41, [load], tgrid, zeta1=0.02)
        midspan = np.abs(coupled.frames[settle:, 20])
        assert np.argmax(midspan) == 0
        (point,) = frequency_sweep(ref_beam, PINNED, 41, 1e3, 5.0, [f_hz])
        assert point.amplitude_m == pytest.approx(midspan.max(), rel=1e-8)

    def test_nonconvergence_names_first_failing_frequency(self, ref_beam):
        system = discretize_beam(ref_beam, PINNED, 21)
        f1, _, f3 = eigenfrequencies(system, 3) / (2.0 * math.pi)
        freqs = [0.3 * f1, float(f3), float(f1)]  # both resonances grow undamped
        with pytest.raises(NonConvergenceError, match=f"f_hz={freqs[1]}:"):
            frequency_sweep(
                ref_beam, PINNED, 21, 1e3, 5.0, freqs,
                settle_periods=30, measure_periods=10, zeta1=0.0,
            )
        with pytest.raises(NonConvergenceError, match=f"f_hz={freqs[2]}:"):
            frequency_sweep(
                ref_beam, PINNED, 21, 1e3, 5.0, freqs[::2],
                settle_periods=30, measure_periods=10, zeta1=0.0,
            )

    @RIGID_BODY_ENDS
    def test_rigid_body_ends_rejected(self, ref_beam, monkeypatch, ends, nodes, zeta1):
        with refuses_rigid_body_ends(monkeypatch, ends):
            frequency_sweep(
                ref_beam, ends_spec(ends), nodes, 1e3, 5.0, [2.0],
                settle_periods=4, measure_periods=2, zeta1=zeta1,
            )

    def test_rejects_bad_frequencies(self, ref_beam):
        with pytest.raises(ValidationError):
            frequency_sweep(ref_beam, PINNED, 21, 1e3, 5.0, [0.0])

    @pytest.mark.parametrize("settle, measure", [(0, 10), (30, 0)], ids=["settle", "measure"])
    def test_rejects_periods_below_one(self, ref_beam, settle, measure):
        with pytest.raises(
            ValidationError, match=r"^settle_periods and measure_periods must be >= 1$"
        ):
            frequency_sweep(
                ref_beam, PINNED, 21, 1e3, 5.0, [2.0],
                settle_periods=settle, measure_periods=measure,
            )

    @pytest.mark.parametrize("freqs", [[], [2.0]], ids=["none", "one"])
    def test_inputs_checked_before_an_empty_sweep(self, ref_beam, freqs):
        free_free = ends_spec("free-free")
        with pytest.raises(RankDeficiencyError, match="free-free leave rigid-body"):
            frequency_sweep(ref_beam, free_free, 41, 1e3, 5.0, freqs)
        with pytest.raises(ValidationError, match=f"n_nodes must be >= {MIN_BEAM_NODES}"):
            frequency_sweep(ref_beam, PINNED, 5, 1e3, 5.0, freqs)

    def test_empty_sweep_returns_no_points(self, ref_beam):
        assert frequency_sweep(ref_beam, PINNED, 41, 1e3, 5.0, []) == []
