import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
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
from beamlab.dynamics import (
    BLOCK_BUDGET,
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
from beamlab.modal import find_beta_roots, natural_frequencies
from beamlab.scenario import run_scenario, scenario_from_dict
from beamlab.statics import nodal_force, ss_point_deflection

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


def per_step_modal_history(lam, damping, gain, omega, dt, steps, readout, cfg, start, stride):
    """The plain per-step recurrence behind `modal_harmonic_response`, which
    must match it bit for bit whenever it runs one block."""
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
    a = gain * np.sin(omega * start)
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


@st.composite
def modal_runs(draw):
    """Inputs of `modal_harmonic_response`; a wide run has about enough
    channels to fill BLOCK_BUDGET, so it lands on either side of the rule."""
    steps = draw(
        st.one_of(
            st.sampled_from([2, 3, 5, 7, 11, 97, 101, 211, 257]),  # primes
            st.sampled_from([1, 4, 9, 16, 25, 100, 144, 256]),  # squares
            st.integers(1, 300),
        )
    )
    freqs = draw(st.integers(1, 3))
    if draw(st.booleans()):
        modes = -(-BLOCK_BUDGET // (freqs * math.isqrt(steps))) + draw(st.integers(-1, 0))
    else:
        modes = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = rng.uniform(0.5, 2e3, modes)
    gamma = draw(st.floats(0.5, 0.7))
    cfg = IntegratorConfig(gamma, draw(st.floats(gamma / 2, 0.4)))
    readout = rng.normal(size=(modes, draw(st.integers(1, 3))) if draw(st.booleans()) else modes)
    return dict(
        lam=lam,
        damping=rng.uniform(0.0, 0.2, modes) * np.sqrt(lam),
        gain=rng.normal(size=modes),
        omega=rng.uniform(0.5, 60.0, freqs),
        dt=rng.uniform(1e-4, 2e-2, freqs),
        steps=steps,
        readout=readout,
        cfg=cfg,
        start=draw(st.sampled_from([0.0, 0.35, -1.25])),
        stride=draw(st.integers(1, 7)),
    )


@settings(max_examples=80, deadline=None, database=None)
@given(run=modal_runs())
def test_property_modal_response_matches_per_step_loop(run):
    expected = per_step_modal_history(**run)
    got = modal_harmonic_response(**run)
    assert got.shape == expected.shape
    channels = run["lam"].size * run["omega"].size
    rows = math.isqrt(run["steps"])
    if rows < 2 or rows * channels >= BLOCK_BUDGET:  # one block: the same arithmetic
        np.testing.assert_array_equal(got, expected)
    else:
        peak = np.max(np.abs(expected))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * peak)


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

    def test_rank_warning_and_integrate_rejection(self, ref_beam):
        bc = BoundarySpec(EndCondition.free(), EndCondition.free())
        system = discretize_beam(ref_beam, bc, 21)
        assert system.rank_warning is not None
        tgrid = TimeGrid(0.0, 0.1, 0.01)
        zeros = np.zeros(system.size)
        with pytest.raises(RankDeficiencyError):
            integrate(system, lambda t: zeros, zeros, zeros, tgrid)

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


class TestBeamTimeResponse:
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

    def test_undamped_free_free_rejected(self, ref_beam):
        free_free = BoundarySpec(EndCondition.free(), EndCondition.free())
        with pytest.raises(RankDeficiencyError, match="rigid-body"):
            frequency_sweep(
                ref_beam, free_free, 21, 1e3, 5.0, [2.0],
                settle_periods=4, measure_periods=2, zeta1=0.0,
            )

    def test_rejects_bad_frequencies(self, ref_beam):
        with pytest.raises(ValidationError):
            frequency_sweep(ref_beam, PINNED, 21, 1e3, 5.0, [0.0])
