import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from beamlab import (
    BeamSpec,
    BoundarySpec,
    EndCondition,
    HarmonicPointLoad,
    MovingPointLoad,
    PointLoad,
    RankDeficiencyError,
    SpatialGrid,
    TimeGrid,
    UdlLoad,
    ValidationError,
)
from beamlab.dynamics import MIN_BEAM_NODES
from beamlab.statics import (
    beam_factor,
    beam_stiffness_matrix,
    cantilever_point_deflection,
    nodal_force,
    quasi_static_moving,
    quasi_static_sinusoidal,
    ss_point_deflection,
    ss_udl_deflection,
    static_fd_solve,
    trapezoid_weights,
)

Q_REF = 5000.0     # N/m
P_REF = 10000.0    # N
MIDSPAN_UDL = 2.44140625e-2    # 5qL^4/(384EI) for the reference beam
MIDSPAN_POINT = 7.8125e-3      # PL^3/(48EI)
TIP_HALFSPAN = 3.90625e-2      # P*a^2*(3L-a)/(6EI), a = L/2
TIP_FULL = 0.125               # PL^3/(3EI)


class TestClosedForms:
    def test_udl_midspan(self, ref_beam):
        assert ss_udl_deflection(5.0, Q_REF, ref_beam) == pytest.approx(
            MIDSPAN_UDL, rel=1e-12
        )

    def test_udl_vanishes_at_supports(self, ref_beam):
        assert ss_udl_deflection(0.0, Q_REF, ref_beam) == 0.0
        assert ss_udl_deflection(10.0, Q_REF, ref_beam) == pytest.approx(0.0, abs=1e-18)

    def test_udl_symmetry(self, ref_beam):
        xs = np.linspace(0.0, 10.0, 41)
        w = ss_udl_deflection(xs, Q_REF, ref_beam)
        np.testing.assert_allclose(w, w[::-1], rtol=1e-12)

    def test_point_midspan(self, ref_beam):
        assert ss_point_deflection(5.0, P_REF, 5.0, ref_beam) == pytest.approx(
            MIDSPAN_POINT, rel=1e-12
        )

    def test_point_load_over_support(self, ref_beam):
        xs = np.linspace(0.0, 10.0, 21)
        np.testing.assert_allclose(ss_point_deflection(xs, P_REF, 0.0, ref_beam), 0.0)

    def test_point_reciprocity(self, ref_beam):
        rng = np.random.default_rng(20260825)
        for _ in range(200):
            x, a = rng.uniform(0.0, 10.0, size=2)
            assert ss_point_deflection(x, P_REF, a, ref_beam) == pytest.approx(
                ss_point_deflection(a, P_REF, x, ref_beam), rel=1e-10, abs=1e-18
            )

    def test_point_slope_continuity(self, ref_beam):
        # central difference straddling the load point stays consistent
        a = 3.7
        h = 1e-6
        left = ss_point_deflection(a - h, P_REF, a, ref_beam)
        mid = ss_point_deflection(a, P_REF, a, ref_beam)
        right = ss_point_deflection(a + h, P_REF, a, ref_beam)
        assert (right - mid) / h == pytest.approx((mid - left) / h, rel=1e-4)

    def test_cantilever_clamped_end(self, ref_beam):
        assert cantilever_point_deflection(0.0, P_REF, 5.0, ref_beam) == 0.0
        h = 1e-7
        slope0 = cantilever_point_deflection(h, P_REF, 5.0, ref_beam) / h
        assert abs(slope0) < 1e-6

    def test_cantilever_tip_values(self, ref_beam):
        assert cantilever_point_deflection(10.0, P_REF, 5.0, ref_beam) == pytest.approx(
            TIP_HALFSPAN, rel=1e-12
        )
        assert cantilever_point_deflection(10.0, P_REF, 10.0, ref_beam) == pytest.approx(
            TIP_FULL, rel=1e-12
        )

    def test_domain_errors(self, ref_beam):
        with pytest.raises(ValidationError):
            ss_udl_deflection(-0.1, Q_REF, ref_beam)
        with pytest.raises(ValidationError):
            ss_point_deflection(3.0, P_REF, 10.5, ref_beam)
        with pytest.raises(ValidationError):
            cantilever_point_deflection(10.2, P_REF, 5.0, ref_beam)
        with pytest.raises(ValidationError, match="^cantilever load position a must be positive$"):
            cantilever_point_deflection(5.0, P_REF, 0.0, ref_beam)


class TestNodalForce:
    """Every load kind's nodal forces sum to its resultant."""

    GRID = SpatialGrid(10.0, 41)

    def resultant(self, load, t=0.0):
        force = nodal_force(load, self.GRID, t)
        assert force.shape == (41,)
        return force.sum()

    def test_udl_totals_q_times_length(self):
        assert self.resultant(UdlLoad(Q_REF)) == pytest.approx(Q_REF * 10.0, rel=1e-12)

    def test_point_totals_p(self):
        assert self.resultant(PointLoad(P_REF, 3.3)) == pytest.approx(P_REF, rel=1e-12)

    def test_harmonic_totals_p0_sin_omega_t(self):
        load = HarmonicPointLoad(P_REF, 2.0, 7.1)
        for t in (0.0, 0.03, 0.1, 0.4):
            expected = P_REF * math.sin(2.0 * math.pi * 2.0 * t)
            assert self.resultant(load, t) == pytest.approx(expected, rel=1e-12, abs=1e-9)

    def test_moving_totals_p_on_span_and_zero_off_it(self):
        load = MovingPointLoad(P_REF, 2.0, 1.0)
        for t in (0.0, 1.3, 4.5):  # x = 1.0, 3.6, 10.0
            assert self.resultant(load, t) == pytest.approx(P_REF, rel=1e-12)
        for t in (-0.6, 4.6, 50.0):  # x = -0.2, 10.2, 101.0
            assert self.resultant(load, t) == 0.0

    def test_position_beyond_span_rejected(self):
        with pytest.raises(ValidationError, match="position"):
            nodal_force(PointLoad(P_REF, 12.0), self.GRID)

    def test_unknown_load_rejected(self):
        with pytest.raises(ValidationError, match="unknown load"):
            nodal_force(object(), self.GRID)


END_KINDS = {
    "pinned": EndCondition.pinned(),
    "clamped": EndCondition.clamped(),
    "free": EndCondition.free(),
    "spring": EndCondition.spring(1e6),
}


def full_grid_stiffness(beam, bc, grid) -> np.ndarray:
    """EI*(C^T*w)@C over every node, C the full-grid curvature stencils."""
    n, inv_dx2 = grid.node_count, 1.0 / grid.spacing**2
    curv = np.zeros((n, n))
    for i in range(1, n - 1):
        curv[i, i - 1 : i + 2] = (inv_dx2, -2.0 * inv_dx2, inv_dx2)
    for end, node, inner in ((bc.left, 0, 1), (bc.right, n - 1, n - 2)):
        if end.kind == "clamped":  # ghost-node reflection of zero slope
            curv[node, node], curv[node, inner] = -2.0 * inv_dx2, 2.0 * inv_dx2
    weights = trapezoid_weights(grid)
    stiffness = beam.section.flexural_rigidity * (curv.T * weights) @ curv
    for end, node in ((bc.left, 0), (bc.right, n - 1)):
        if end.kind == "spring":
            stiffness[node, node] += end.stiffness
    return stiffness


@pytest.mark.parametrize("nodes", [41, 201])
@pytest.mark.parametrize("right", END_KINDS)
@pytest.mark.parametrize("left", END_KINDS)
def test_free_node_operator_is_the_sliced_full_grid_product(ref_beam, left, right, nodes):
    bc = BoundarySpec(END_KINDS[left], END_KINDS[right])
    grid = SpatialGrid.for_beam(ref_beam, nodes)
    stiffness, free = beam_stiffness_matrix(ref_beam, bc, grid)
    held = ("pinned", "clamped")
    assert free.tolist() == [left not in held] + [True] * (nodes - 2) + [right not in held]
    full = full_grid_stiffness(ref_beam, bc, grid)
    assert np.array_equal(stiffness, full[np.ix_(free, free)])


class TestStiffnessMatrix:
    def test_symmetry(self, ref_beam):
        for bc in (
            BoundarySpec.pinned_pinned(),
            BoundarySpec.clamped_free(),
            BoundarySpec(EndCondition.spring(1e6), EndCondition.spring(1e6)),
            BoundarySpec(EndCondition.clamped(), EndCondition.spring(1e3)),
        ):
            grid = SpatialGrid.for_beam(ref_beam, 31)
            stiffness, _ = beam_stiffness_matrix(ref_beam, bc, grid)
            np.testing.assert_allclose(stiffness, stiffness.T, rtol=0, atol=1e-3)

    def test_free_operator_annihilates_rigid_modes(self, ref_beam):
        bc = BoundarySpec(EndCondition.free(), EndCondition.free())
        grid = SpatialGrid.for_beam(ref_beam, 31)
        stiffness, free = beam_stiffness_matrix(ref_beam, bc, grid)
        assert free.all()
        scale = np.abs(stiffness).max()
        np.testing.assert_allclose(stiffness @ np.ones(31), 0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(stiffness @ grid.positions, 0.0, atol=1e-11 * scale)

    def test_positive_semidefinite(self, ref_beam):
        grid = SpatialGrid.for_beam(ref_beam, 41)
        for bc in (
            BoundarySpec.pinned_pinned(),
            BoundarySpec(EndCondition.free(), EndCondition.free()),
            BoundarySpec(EndCondition.spring(1e3), EndCondition.spring(1e9)),
        ):
            stiffness, _ = beam_stiffness_matrix(ref_beam, bc, grid)
            eigenvalues = np.linalg.eigvalsh(stiffness)
            assert eigenvalues[0] > -1e-9 * eigenvalues[-1]


class TestFdSolve:
    def test_udl_matches_closed_form(self, ref_beam):
        profile = static_fd_solve(ref_beam, BoundarySpec.pinned_pinned(), [UdlLoad(Q_REF)], 201)
        exact = ss_udl_deflection(profile.grid.positions, Q_REF, ref_beam)
        err = np.max(np.abs(profile.deflection - exact)) / np.max(np.abs(exact))
        assert err < 1e-3, f"relative error {err:.2e}"

    def test_point_matches_closed_form(self, ref_beam):
        profile = static_fd_solve(
            ref_beam, BoundarySpec.pinned_pinned(), [PointLoad(P_REF, 5.0)], 201
        )
        exact = ss_point_deflection(profile.grid.positions, P_REF, 5.0, ref_beam)
        err = np.max(np.abs(profile.deflection - exact)) / np.max(np.abs(exact))
        assert err < 1e-3, f"relative error {err:.2e}"

    def test_cantilever_matches_closed_form(self, ref_beam):
        profile = static_fd_solve(
            ref_beam, BoundarySpec.clamped_free(), [PointLoad(P_REF, 5.0)], 201
        )
        exact = cantilever_point_deflection(profile.grid.positions, P_REF, 5.0, ref_beam)
        err = np.max(np.abs(profile.deflection - exact)) / np.max(np.abs(exact))
        assert err < 1e-3, f"relative error {err:.2e}"

    @pytest.mark.parametrize(
        "bc_name,loads",
        [("pp_udl", [UdlLoad(Q_REF)]), ("cf_point", [PointLoad(P_REF, 5.0)])],
    )
    def test_convergence_monotone(self, ref_beam, bc_name, loads):
        if bc_name == "pp_udl":
            bc = BoundarySpec.pinned_pinned()
            reference = lambda xs: ss_udl_deflection(xs, Q_REF, ref_beam)
        else:
            bc = BoundarySpec.clamped_free()
            reference = lambda xs: cantilever_point_deflection(xs, P_REF, 5.0, ref_beam)
        errors = []
        for n in (51, 101, 201, 401):
            profile = static_fd_solve(ref_beam, bc, loads, n)
            exact = reference(profile.grid.positions)
            errors.append(np.max(np.abs(profile.deflection - exact)) / np.max(np.abs(exact)))
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:])), f"errors {errors}"

    def test_linearity_and_superposition(self, ref_beam):
        bc = BoundarySpec.pinned_pinned()
        w1 = static_fd_solve(ref_beam, bc, [UdlLoad(Q_REF)], 101).deflection
        w2 = static_fd_solve(ref_beam, bc, [PointLoad(P_REF, 3.3)], 101).deflection
        w_both = static_fd_solve(
            ref_beam, bc, [UdlLoad(Q_REF), PointLoad(P_REF, 3.3)], 101
        ).deflection
        scale = np.max(np.abs(w_both))
        np.testing.assert_allclose(w_both, w1 + w2, rtol=0, atol=1e-12 * scale)
        w_scaled = static_fd_solve(ref_beam, bc, [UdlLoad(3.0 * Q_REF)], 101).deflection
        np.testing.assert_allclose(w_scaled, 3.0 * w1, rtol=0, atol=1e-12 * scale)

    def test_pinned_nodes_exactly_zero(self, ref_beam):
        profile = static_fd_solve(ref_beam, BoundarySpec.pinned_pinned(), [UdlLoad(Q_REF)], 101)
        assert profile.deflection[0] == 0.0
        assert profile.deflection[-1] == 0.0

    def test_clamped_slope_second_order(self, ref_beam):
        slopes = []
        for n in (101, 201):
            profile = static_fd_solve(
                ref_beam, BoundarySpec.clamped_free(), [PointLoad(P_REF, 10.0)], n
            )
            dx = profile.grid.spacing
            w = profile.deflection
            # second-order one-sided slope estimate at the clamp
            slopes.append(abs(-3.0 * w[0] + 4.0 * w[1] - w[2]) / (2.0 * dx))
        # halving dx should shrink the residual end slope by about 4
        assert slopes[1] < slopes[0] / 3.0, f"slopes {slopes}"

    def test_tip_spring_stiffness_oracle(self, ref_beam):
        # clamped-spring cantilever loaded at the tip: exact tip deflection is
        # P / (3EI/L^3 + k), recovering PL^3/(3EI) as k -> 0
        ei = ref_beam.section.flexural_rigidity
        length = ref_beam.length
        for k in (1e2, 1e4, 1e6):
            bc = BoundarySpec(EndCondition.clamped(), EndCondition.spring(k))
            profile = static_fd_solve(ref_beam, bc, [PointLoad(P_REF, length)], 201)
            expected = P_REF / (3.0 * ei / length**3 + k)
            assert profile.deflection[-1] == pytest.approx(expected, rel=2e-3), f"k={k}"

    def test_stiff_springs_approach_pinned(self, ref_beam):
        bc = BoundarySpec(EndCondition.spring(1e15), EndCondition.spring(1e15))
        w_spring = static_fd_solve(ref_beam, bc, [UdlLoad(Q_REF)], 101).deflection
        w_pinned = static_fd_solve(
            ref_beam, BoundarySpec.pinned_pinned(), [UdlLoad(Q_REF)], 101
        ).deflection
        assert np.max(np.abs(w_spring - w_pinned)) < 1e-6 * np.max(np.abs(w_pinned))

    def test_zero_load(self, ref_beam):
        profile = static_fd_solve(ref_beam, BoundarySpec.pinned_pinned(), [], 51)
        np.testing.assert_array_equal(profile.deflection, 0.0)

    @pytest.mark.parametrize(
        "left,right",
        [("free", "free"), ("pinned", "free"), ("free", "spring")],
    )
    def test_underconstrained_rejected(self, ref_beam, left, right):
        ends = {
            "free": EndCondition.free(),
            "pinned": EndCondition.pinned(),
            "spring": EndCondition.spring(1e3),
        }
        bc = BoundarySpec(ends[left], ends[right])
        message = f"^end conditions {left}-{right} leave rigid-body modes free$"
        with pytest.raises(RankDeficiencyError, match=message):
            static_fd_solve(ref_beam, bc, [UdlLoad(Q_REF)], 51)

    def test_stiffness_underflowing_to_zero_refused(self):
        # EI/dx^3, about 1e-33/8e294, underflows: K is exactly zero
        beam = BeamSpec(
            length=1e100, width=0.2, height=0.4, elastic_modulus=1e-30, density=2500.0
        )
        with pytest.raises(RankDeficiencyError, match="^static system is singular: "):
            static_fd_solve(beam, BoundarySpec.pinned_pinned(), [UdlLoad(Q_REF)], 51)

    def test_time_dependent_load_rejected(self, ref_beam):
        with pytest.raises(ValidationError, match="time-dependent"):
            static_fd_solve(
                ref_beam,
                BoundarySpec.pinned_pinned(),
                [MovingPointLoad(P_REF, 1.0)],
                51,
            )
        with pytest.raises(ValidationError, match="time-dependent"):
            static_fd_solve(
                ref_beam,
                BoundarySpec.pinned_pinned(),
                [HarmonicPointLoad(P_REF, 1.0, 5.0)],
                51,
            )



# Properties of the finite-difference solve on small grids, over every support
# pair that static_fd_solve accepts.  The beam is the shared reference beam;
# it is built here because Hypothesis reruns a test body per example.
FD_BEAM = BeamSpec(10.0, 0.2, 0.4, 25e9, 2500.0)
FD_SUPPORTS = st.sampled_from(
    [
        BoundarySpec.pinned_pinned(),
        BoundarySpec.clamped_free(),
        BoundarySpec(EndCondition.clamped(), EndCondition.clamped()),
        BoundarySpec(EndCondition.pinned(), EndCondition.clamped()),
        BoundarySpec(EndCondition.spring(1e6), EndCondition.spring(2e7)),
    ]
)
FD_NODES = st.integers(min_value=5, max_value=41)
# zero or 1 N to 100 kN either way; subnormal loads give subnormal deflections,
# where rounding is no longer relative
FD_LOADS = st.just(0.0) | st.floats(1.0, 1e5) | st.floats(-1e5, -1.0)


@given(
    bc=FD_SUPPORTS,
    n=FD_NODES,
    q=FD_LOADS,
    p=FD_LOADS,
    frac=st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None, database=None)
def test_fd_solve_superposition(bc, n, q, p, frac):
    udl, point = UdlLoad(q), PointLoad(p, frac * FD_BEAM.length)
    both = static_fd_solve(FD_BEAM, bc, [udl, point], n).deflection
    w_udl = static_fd_solve(FD_BEAM, bc, [udl], n).deflection
    w_point = static_fd_solve(FD_BEAM, bc, [point], n).deflection
    scale = np.abs(w_udl).max() + np.abs(w_point).max()
    np.testing.assert_allclose(both, w_udl + w_point, rtol=0, atol=1e-9 * scale)


@given(bc=FD_SUPPORTS, n=FD_NODES, data=st.data())
@settings(max_examples=40, deadline=None, database=None)
def test_fd_influence_maxwell_reciprocity(bc, n, data):
    # w at x_i from a unit load at x_j equals w at x_j from a unit load at x_i
    i, j = (data.draw(st.integers(0, n - 1)) for _ in range(2))
    x = SpatialGrid.for_beam(FD_BEAM, n).positions
    from_j = static_fd_solve(FD_BEAM, bc, [PointLoad(1.0, x[j])], n).deflection
    from_i = static_fd_solve(FD_BEAM, bc, [PointLoad(1.0, x[i])], n).deflection
    scale = max(np.abs(from_j).max(), np.abs(from_i).max())
    assert abs(from_j[i] - from_i[j]) <= 1e-9 * scale


# Every end kind, a spring at 1 N/m to 10 GN/m: from far below the beam's
# bending stiffness at its end node to far above it.
FACTOR_ENDS = st.sampled_from(
    [EndCondition.pinned(), EndCondition.clamped(), EndCondition.free()]
) | st.floats(1.0, 1e10).map(EndCondition.spring)


@given(left=FACTOR_ENDS, right=FACTOR_ENDS, n=st.integers(MIN_BEAM_NODES, 201))
@settings(max_examples=60, deadline=None, database=None)
def test_property_factor_squares_to_stiffness(left, right, n):
    bc = BoundarySpec(left, right)
    grid = SpatialGrid.for_beam(FD_BEAM, n)
    factor, free = beam_factor(FD_BEAM, bc, grid)
    stiffness, stiffness_free = beam_stiffness_matrix(FD_BEAM, bc, grid)
    assert np.array_equal(free, stiffness_free)
    assert np.all(np.any(factor, axis=1))  # the zero rows are dropped
    scale = np.abs(stiffness).max()
    np.testing.assert_allclose(factor.T @ factor, stiffness, rtol=0, atol=1e-13 * scale)
    if bc.constraint_count >= 2:  # no rigid-body mode, so no zero singular value
        assert factor.shape[0] >= factor.shape[1]

class TestQuasiStaticMoving:
    def test_peak_at_center_crossing(self, ref_beam):
        tgrid = TimeGrid(0.0, 15.0, 0.05)
        result = quasi_static_moving(ref_beam, P_REF, 1.0, 0.0, tgrid, 201)
        mid = result.frames[:, 100]
        peak_idx = int(np.argmax(mid))
        assert result.times[peak_idx] == pytest.approx(5.0, abs=1e-9)
        assert mid[peak_idx] == pytest.approx(MIDSPAN_POINT, abs=1e-9)

    def test_zero_before_entry_and_after_exit(self, ref_beam):
        tgrid = TimeGrid(0.0, 15.0, 0.05)
        result = quasi_static_moving(ref_beam, P_REF, 1.0, 0.0, tgrid, 201)
        np.testing.assert_array_equal(result.frames[0], 0.0)
        after_exit = result.frames[result.times > 10.0]
        assert after_exit.size > 0
        np.testing.assert_array_equal(after_exit, 0.0)

    def test_negative_speed_rejected(self, ref_beam):
        with pytest.raises(ValidationError, match="speed"):
            quasi_static_moving(ref_beam, P_REF, -1.0, 0.0, TimeGrid(0.0, 1.0, 0.1), 51)


def per_frame_moving(beam, p, speed, x0, tgrid, n_nodes, stride=1):
    """Reference: one `ss_point_deflection` per frame with the load on the span."""
    xs = SpatialGrid.for_beam(beam, n_nodes).positions
    times = tgrid.sample_times(stride)
    frames = np.zeros((times.size, n_nodes))
    for j, t in enumerate(times):
        position = x0 + speed * t
        if 0.0 <= position <= beam.length:
            frames[j] = ss_point_deflection(xs, p, position, beam)
    return frames


# binary fractions with few bits: x0 + speed*t is exact, so it lands on L =
# 10 m wherever (L - x0)/speed is a whole number of time steps, and on 0 when
# x0 is 0
dyadic_moving = st.tuples(
    st.integers(0, 80).map(lambda i: i / 8),
    st.integers(0, 96).map(lambda j: j / 16),
    st.sampled_from([0.0625, 0.125, 0.25]),
)
float_moving = st.tuples(
    st.floats(0.0, 10.0),
    st.floats(0.0, 50.0),
    st.sampled_from([0.01, 0.05, 0.1]),
)


@given(
    st.one_of(dyadic_moving, float_moving),
    st.sampled_from([7, 51, 201, 401]),
    st.sampled_from([-2.5e4, 1e4]),
    st.integers(1, 3),
)
@example((0.0, 1.0, 0.125), 201, 1e4, 1)  # on 0 at t = 0 and on L at t = 10
@example((10.0, 0.0, 0.0625), 401, -2.5e4, 1)  # parked on L, rows in ten blocks
@example((2.5, 0.75, 0.0625), 401, 1e4, 2)  # on L at t = 10, every second sample
@example((3.91871399864724, 0.0, 0.1), 51, 1e4, 1)  # a**2 over 51 nodes moves with np.square
@settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # ref_beam is frozen
)
def test_property_moving_frames_are_per_frame_influence_lines(ref_beam, load, nodes, p, stride):
    # bit for bit, -0.0 included, and exactly zero off the span
    x0, speed, dt = load
    tgrid = TimeGrid(0.0, 12.0, dt)
    result = quasi_static_moving(ref_beam, p, speed, x0, tgrid, nodes, stride)
    expected = per_frame_moving(ref_beam, p, speed, x0, tgrid, nodes, stride)
    assert result.frames.tobytes() == expected.tobytes()
    positions = x0 + speed * result.times
    assert not np.any(result.frames[positions > ref_beam.length])


class TestQuasiStaticSinusoidal:
    def test_quarter_period_peak(self, ref_beam):
        tgrid = TimeGrid(0.0, 10.0, 0.01)
        result = quasi_static_sinusoidal(ref_beam, P_REF, 1.0, 5.0, tgrid, 201)
        idx = int(np.argmin(np.abs(result.times - 0.25)))
        assert result.frames[idx, 100] == pytest.approx(MIDSPAN_POINT, rel=1e-9)

    def test_starts_at_zero(self, ref_beam):
        result = quasi_static_sinusoidal(
            ref_beam, P_REF, 1.0, 5.0, TimeGrid(0.0, 2.0, 0.01), 51
        )
        np.testing.assert_array_equal(result.frames[0], 0.0)

    def test_periodicity(self, ref_beam):
        result = quasi_static_sinusoidal(
            ref_beam, P_REF, 1.0, 5.0, TimeGrid(0.0, 3.0, 0.01), 51
        )
        n_period = 100  # samples per 1 Hz period at dt = 0.01
        np.testing.assert_allclose(
            result.frames[n_period:],
            result.frames[:-n_period],
            rtol=1e-9,
            atol=1e-15,
        )

    def test_bad_frequency_rejected(self, ref_beam):
        with pytest.raises(ValidationError, match="frequency"):
            quasi_static_sinusoidal(ref_beam, P_REF, 0.0, 5.0, TimeGrid(0.0, 1.0, 0.1), 51)


@pytest.mark.parametrize("stride", [2, 3, 7])
@pytest.mark.parametrize(
    "history, args",
    [(quasi_static_moving, (P_REF, 1.0, 0.0)), (quasi_static_sinusoidal, (P_REF, 1.0, 5.0))],
    ids=["moving", "sinusoidal"],
)
def test_stride_computes_the_same_samples(ref_beam, history, args, stride):
    tgrid = TimeGrid(0.0, 12.0, 0.01)
    full = history(ref_beam, *args, tgrid, 51)
    strided = history(ref_beam, *args, tgrid, 51, stride)
    np.testing.assert_array_equal(strided.times, full.times[::stride])
    np.testing.assert_array_equal(strided.frames, full.frames[::stride])
