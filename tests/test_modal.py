import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from beamlab import (
    BeamSpec,
    BoundarySpec,
    EndCondition,
    SolverError,
    SpatialGrid,
    ValidationError,
)
from beamlab import modal
from beamlab.model import DegenerateModeError, InsufficientRootsError, StaticProfile
from beamlab.modal import (
    BETA_MIN_SCALE,
    ROOT_TOL_SCALE,
    ModeSolution,
    characteristic_det,
    characteristic_matrix,
    find_beta_roots,
    natural_frequencies,
    shape_basis,
    solve_modes,
    spring_borne_roots,
)
from beamlab.scenario import MAX_MODES, modal_bc, preset

PINNED = BoundarySpec.pinned_pinned()
CLAMPED_FREE = BoundarySpec.clamped_free()
FREE_FREE = BoundarySpec(EndCondition.free(), EndCondition.free())


def clamped_free_reference_roots():
    # independent oracle: cos(z)*cosh(z) = -1
    fn = lambda z: math.cos(z) * math.cosh(z) + 1.0
    return [brentq(fn, 1.5, 2.5, xtol=1e-13), brentq(fn, 4.0, 5.5, xtol=1e-13)]


def free_free_reference_roots():
    # independent oracle: cos(z)*cosh(z) = +1 (first two nonzero roots)
    fn = lambda z: math.cos(z) * math.cosh(z) - 1.0
    return [brentq(fn, 4.0, 5.5, xtol=1e-13), brentq(fn, 7.0, 8.5, xtol=1e-13)]


def fine_scan_roots(beam, bc, n_roots, step=5e-4):
    """Oracle independent of the root scan and its refinement: the first
    `n_roots` sign changes of the characteristic determinant over beta*L
    from 0.01, below the scan's start, in steps of `step` (a hundredth of
    the scan's), each refined by brentq."""
    roots, first = [], 0
    while len(roots) < n_roots:
        betas = (0.01 + step * np.arange(first, first + 4097)) / beam.length
        dets = np.linalg.det(modal._characteristic_matrices(betas, beam, bc))
        for i in np.flatnonzero(np.signbit(dets[:-1]) != np.signbit(dets[1:])):
            roots.append(brentq(characteristic_det, betas[i], betas[i + 1], args=(beam, bc)))
        first += 4096
    return roots[:n_roots]


def scalar_find_beta_roots(beam, bc, n_roots):
    """Reference oracle: the one-determinant-at-a-time scan.

    `find_beta_roots` evaluates its scan in stacked chunks and refines its
    brackets in batches; this loop takes the same points in the same order,
    one `characteristic_det` call each, and refines each bracket alone as it
    is found, so both must return the same roots bit for bit.
    """
    length = beam.length
    scan_step = modal.SCAN_STEP_SCALE / length
    beta_max = (4.0 * math.pi * n_roots + 10.0) / length

    roots = []
    beta_prev = BETA_MIN_SCALE / length
    det_prev = characteristic_det(beta_prev, beam, bc)
    while beta_prev < beta_max and len(roots) < n_roots:
        beta_next = beta_prev + scan_step
        det_next = characteristic_det(beta_next, beam, bc)
        if det_next == 0.0 or det_prev * det_next < 0.0:
            bracket = (beta_prev, beta_next, det_prev, det_next)
            (root,) = modal._refine([bracket], ROOT_TOL_SCALE / length, beam, bc)
            if not roots or root - roots[-1] > 0.5 * scan_step:
                roots.append(root)
        beta_prev, det_prev = beta_next, det_next

    if len(roots) < n_roots:
        raise InsufficientRootsError(
            f"found {len(roots)} of {n_roots} characteristic roots with "
            f"beta*L <= {beta_max * length:.2f}"
        )
    return np.array(roots)


class TestCharacteristicDet:
    def test_pinned_pinned_root_at_pi(self, ref_beam):
        length = ref_beam.length
        assert abs(characteristic_det(math.pi / length, ref_beam, PINNED)) < 1e-9

    def test_pinned_pinned_nonroot(self, ref_beam):
        length = ref_beam.length
        assert abs(characteristic_det(0.5 * math.pi / length, ref_beam, PINNED)) > 1e-3

    def test_sign_change_across_first_root(self, ref_beam):
        length = ref_beam.length
        lo = characteristic_det(3.0 / length, ref_beam, PINNED)
        hi = characteristic_det(3.3 / length, ref_beam, PINNED)
        assert lo * hi < 0.0

    def test_matrix_shape_and_beta_validation(self, ref_beam):
        matrix = characteristic_matrix(0.3, ref_beam, CLAMPED_FREE)
        assert matrix.shape == (4, 4)
        with pytest.raises(ValidationError, match="beta"):
            characteristic_matrix(0.0, ref_beam, PINNED)


class TestFindBetaRoots:
    def test_pinned_pinned_analytic_roots(self, ref_beam):
        length = ref_beam.length
        betas = find_beta_roots(ref_beam, PINNED, 3)
        for n, beta in enumerate(betas, start=1):
            assert abs(beta * length - n * math.pi) < 1e-8, f"mode {n}: {beta * length}"

    def test_clamped_free_roots(self, ref_beam):
        length = ref_beam.length
        betas = find_beta_roots(ref_beam, CLAMPED_FREE, 2)
        for beta, ref in zip(betas, clamped_free_reference_roots()):
            assert beta * length == pytest.approx(ref, abs=1e-8)

    def test_clamped_free_roots_to_mode_50(self, ref_beam):
        # sinh(bL) and cosh(bL) are equal in floating point above bL ~ 36, so
        # this range needs a basis that stays bounded on the span
        fn = lambda z: math.cos(z) * math.cosh(z) + 1.0
        brackets = [(1.5, 2.5)]
        brackets += [(k * math.pi - 2.0, k * math.pi - 1.0) for k in range(2, 51)]
        reference = [brentq(fn, lo, hi, xtol=1e-13) for lo, hi in brackets]
        roots = find_beta_roots(ref_beam, CLAMPED_FREE, 50) * ref_beam.length
        np.testing.assert_allclose(roots, reference, rtol=0.0, atol=1e-8)

    def test_free_free_roots(self, ref_beam):
        length = ref_beam.length
        betas = find_beta_roots(ref_beam, FREE_FREE, 2)
        for beta, ref in zip(betas, free_free_reference_roots()):
            assert beta * length == pytest.approx(ref, abs=1e-8)

    def test_roots_strictly_increasing(self, ref_beam):
        betas = find_beta_roots(ref_beam, CLAMPED_FREE, 4)
        assert np.all(np.diff(betas) > 0)

    def test_stiff_spring_approaches_pinned(self, ref_beam):
        bc = BoundarySpec(EndCondition.spring(1e12), EndCondition.spring(1e12))
        beta1 = find_beta_roots(ref_beam, bc, 1)[0]
        target = math.pi / ref_beam.length
        assert abs(beta1 - target) / target < 1e-4

    def test_first_root_monotone_in_spring_stiffness(self, ref_beam):
        # from 10 N/m: at 1 N/m the first mode lies below the scan's start
        roots = []
        for k in (1e1, 1e3, 1e6, 1e9, 1e12):
            bc = BoundarySpec(EndCondition.spring(k), EndCondition.spring(k))
            roots.append(find_beta_roots(ref_beam, bc, 1)[0])
        assert all(r2 > r1 for r1, r2 in zip(roots, roots[1:])), f"roots {roots}"

    @pytest.mark.parametrize("chunk", [1, 7, modal.SCAN_CHUNK])
    @pytest.mark.parametrize(
        "case, n_roots",
        [("pinned", 50), ("clamped_free", 50), ("exp1_springs", 5), ("free_free", 10)],
    )
    def test_chunked_scan_matches_scalar_scan(self, ref_beam, monkeypatch, chunk, case, n_roots):
        if case == "exp1_springs":
            s = preset("exp1")
            beam, bc = s.beam, modal_bc(s)
            assert bc.left.kind == bc.right.kind == "spring"
        else:
            beam = ref_beam
            bc = {"pinned": PINNED, "clamped_free": CLAMPED_FREE, "free_free": FREE_FREE}[case]
        monkeypatch.setattr(modal, "SCAN_CHUNK", chunk)
        chunked = find_beta_roots(beam, bc, n_roots)
        assert np.array_equal(chunked, scalar_find_beta_roots(beam, bc, n_roots))

    def test_window_runs_out_inside_a_chunk(self, ref_beam, monkeypatch):
        # a scan step just over 2*pi/L samples sin(beta*L) at a slowly
        # drifting phase: a few sign changes, far fewer than the roots asked for
        length = ref_beam.length
        monkeypatch.setattr(modal, "SCAN_STEP_SCALE", 2.0 * math.pi + 0.1)
        step = modal.SCAN_STEP_SCALE / length
        n_roots = 100
        beta_max = (4.0 * math.pi * n_roots + 10.0) / length
        beta, points = BETA_MIN_SCALE / length, 0
        while beta < beta_max:
            beta, points = beta + step, points + 1
        assert points > modal.SCAN_CHUNK and points % modal.SCAN_CHUNK != 0
        with pytest.raises(InsufficientRootsError) as scalar:
            scalar_find_beta_roots(ref_beam, PINNED, n_roots)
        with pytest.raises(InsufficientRootsError) as chunked:
            find_beta_roots(ref_beam, PINNED, n_roots)
        assert str(chunked.value) == str(scalar.value)
        assert "found 6 of 100 characteristic roots" in str(chunked.value)

    def test_bad_arguments(self, ref_beam):
        with pytest.raises(ValidationError):
            find_beta_roots(ref_beam, PINNED, 0)

    @pytest.mark.parametrize(
        "other, k, refused",
        [
            # the bounce mode at beta*L 0.0931 lies below the scan's start
            ("spring", 1.0, True),
            # bounce and rocking at 0.1107 and 0.1456 share the scan's first step
            ("spring", 2.0, True),
            ("spring", 1e-4, True),
            ("pinned", 1e-4, True),
            ("free", 1e-4, True),
            # bounce and rocking at 0.1514 and 0.1992 share the scan step from 0.15
            ("spring", 7.0, True),
            # the scan brackets bounce and rocking in scan steps of their own
            ("spring", 3.0, False),
            ("spring", 5.0, False),
            ("spring", 8.0, False),
            # a spring-borne mode at 0.1003, just above the scan's start
            ("pinned", 0.9, False),
            *((other, k, False) for other in ("spring", "pinned", "free") for k in (10.0, 100.0)),
        ],
    )
    def test_spring_borne_modes_below_the_scan_refused(self, ref_beam, other, k, refused):
        # a rigid bar on the springs: (beta*L)^4 = c*k*L^3/EI, c = 2 on two
        # springs, 3 beside a pinned end and 4 beside a free end
        right = EndCondition.spring(k) if other == "spring" else EndCondition(other)
        bc = BoundarySpec(EndCondition.spring(k), right)
        c = {"spring": 2.0, "pinned": 3.0, "free": 4.0}[other]
        estimate = (c * k * ref_beam.length**3 / ref_beam.section.flexural_rigidity) ** 0.25
        assert spring_borne_roots(ref_beam, bc)[0] == pytest.approx(estimate, rel=1e-12)
        if refused:
            message = (
                rf"^spring-{other} ends with spring k = {k!r} N/m: a rigid bar on them has "
                rf"modes at beta\*L {estimate:.4g}"
            )
            with pytest.raises(InsufficientRootsError, match=message):
                find_beta_roots(ref_beam, bc, 3)
        else:
            roots = find_beta_roots(ref_beam, bc, 3)
            first = roots[0] * ref_beam.length
            assert first == pytest.approx(estimate, rel=1e-4)
            assert first < estimate
            # no mode skipped, below the scan's start or within one of its steps
            reference = fine_scan_roots(ref_beam, bc, 3)
            np.testing.assert_allclose(roots, reference, rtol=0.0, atol=1e-10)

    def test_no_spring_borne_roots_beside_a_clamped_end(self, ref_beam):
        for bc in (
            BoundarySpec(EndCondition.clamped(), EndCondition.spring(1e-4)),
            PINNED,
            FREE_FREE,
        ):
            assert spring_borne_roots(ref_beam, bc) == []


def roots_unless_refused(beam, bc, n_roots):
    """find_beta_roots, or None where it refuses spring-borne modes that its
    scan cannot resolve, which only soft springs carry."""
    try:
        return find_beta_roots(beam, bc, n_roots)
    except InsufficientRootsError as exc:
        assert "a rigid bar on them has modes at" in str(exc)
        assert spring_borne_roots(beam, bc)[0] < 0.2
        return None


SPRING_SUPPORTS = {
    "spring-spring": lambda k1, k2: (EndCondition.spring(k1), EndCondition.spring(k2)),
    "pinned-spring": lambda k1, k2: (EndCondition.pinned(), EndCondition.spring(k2)),
    "clamped-spring": lambda k1, k2: (EndCondition.clamped(), EndCondition.spring(k2)),
}
LOG_STIFFNESS = st.floats(min_value=-2.0, max_value=12.0)


@settings(max_examples=60, deadline=None)
@given(
    supports=st.sampled_from(sorted(SPRING_SUPPORTS)),
    log_k1=LOG_STIFFNESS,
    log_k2=LOG_STIFFNESS,
    n_roots=st.integers(min_value=1, max_value=8),
)
def test_property_spring_supported_roots(supports, log_k1, log_k2, n_roots):
    # spring stiffness log-uniform over 1e-2..1e12 N/m, from nearly free to
    # nearly rigid ends
    beam = BeamSpec(length=10.0, width=0.2, height=0.4, elastic_modulus=25e9, density=2500.0)
    bc = BoundarySpec(*SPRING_SUPPORTS[supports](10.0**log_k1, 10.0**log_k2))
    roots = roots_unless_refused(beam, bc, n_roots)
    if roots is None:
        return
    assert len(roots) == n_roots
    # no spring-borne mode skipped: a rigid bar's lowest one, where its
    # estimate holds, is the first root
    bar = spring_borne_roots(beam, bc)
    if bar and bar[0] < 0.5:
        assert roots[0] * beam.length == pytest.approx(bar[0], rel=1e-3)
    # strictly increasing, and never closer than half a scan step
    assert np.all(np.diff(roots) > 0.5 * modal.SCAN_STEP_SCALE / beam.length)
    modes = solve_modes(beam, bc, n_roots)
    assert [mode.beta for mode in modes] == roots.tolist()
    for mode in modes:
        matrix = characteristic_matrix(mode.beta, beam, bc)
        scaled = matrix / np.max(np.abs(matrix), axis=1, keepdims=True)
        assert np.linalg.norm(mode.coefficients) == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(scaled @ np.array(mode.coefficients))) < 1e-6


def changes_sign(fa, fb):
    return fa != 0.0 and fb != 0.0 and (fa < 0.0) != (fb < 0.0)


END_KINDS = ("pinned", "clamped", "free", "spring")
BRACKET_BEAM = BeamSpec(length=10.0, width=0.2, height=0.4, elastic_modulus=25e9, density=2500.0)
BRACKET_TOL = ROOT_TOL_SCALE / BRACKET_BEAM.length
#: random ends, springs from nearly free to nearly rigid
ENDS = {
    "left": st.sampled_from(END_KINDS),
    "right": st.sampled_from(END_KINDS),
    "log_k1": LOG_STIFFNESS,
    "log_k2": LOG_STIFFNESS,
}
#: brackets of beta*L over 0.1..64, tight or spanning a root spacing
SPANS = st.tuples(
    st.floats(min_value=0.1, max_value=60.0), st.floats(min_value=0.01, max_value=4.0)
)


def end_condition(kind, log_k):
    return EndCondition.spring(10.0**log_k) if kind == "spring" else EndCondition(kind)


def ends(left, right, log_k1, log_k2):
    return BoundarySpec(end_condition(left, log_k1), end_condition(right, log_k2))


def bracket(bc, span):
    """(beta_lo, beta_hi, det_lo, det_hi) over the beta*L span (lo, lo + width)."""
    lo, width = span
    a, b = lo / BRACKET_BEAM.length, (lo + width) / BRACKET_BEAM.length
    return a, b, characteristic_det(a, BRACKET_BEAM, bc), characteristic_det(b, BRACKET_BEAM, bc)


def one_sign_change(bc, a, b):
    """Whether the determinant changes sign once over 64 equal steps of [a, b]."""
    dets = np.linalg.det(modal._characteristic_matrices(np.linspace(a, b, 65), BRACKET_BEAM, bc))
    return int(np.count_nonzero(np.signbit(dets[1:]) != np.signbit(dets[:-1]))) == 1


@settings(max_examples=300, deadline=None)
@given(span=SPANS, **ENDS)
def test_property_refined_root_within_tol_of_brentq(left, right, log_k1, log_k2, span):
    bc = ends(left, right, log_k1, log_k2)
    a, b, fa, fb = bracket(bc, span)
    assume(changes_sign(fa, fb) and one_sign_change(bc, a, b))
    (root,) = modal._refine([(a, b, fa, fb)], BRACKET_TOL, BRACKET_BEAM, bc)
    expected = brentq(characteristic_det, a, b, args=(BRACKET_BEAM, bc), xtol=1e-14)
    assert abs(root - expected) <= BRACKET_TOL


@settings(max_examples=100, deadline=None)
@given(span=SPANS, **ENDS)
def test_property_refinement_rounds_bounded_by_halving(left, right, log_k1, log_k2, span):
    # the midpoint of each round at least halves the bracket
    bc = ends(left, right, log_k1, log_k2)
    a, b, fa, fb = bracket(bc, span)
    assume(changes_sign(fa, fb))
    stacked = mock.patch.object(
        modal, "_characteristic_matrices", wraps=modal._characteristic_matrices
    )
    with stacked as calls:
        modal._refine([(a, b, fa, fb)], BRACKET_TOL, BRACKET_BEAM, bc)
    assert calls.call_count <= math.ceil(math.log2((b - a) / BRACKET_TOL)) + 1


@settings(max_examples=60, deadline=None)
@given(spans=st.lists(SPANS, min_size=2, max_size=6), **ENDS)
def test_property_brackets_refined_together_as_alone(left, right, log_k1, log_k2, spans):
    bc = ends(left, right, log_k1, log_k2)
    brackets = [b for b in (bracket(bc, span) for span in spans) if changes_sign(b[2], b[3])]
    assume(len(brackets) >= 2)
    alone = [modal._refine([b], BRACKET_TOL, BRACKET_BEAM, bc)[0] for b in brackets]
    assert modal._refine(brackets, BRACKET_TOL, BRACKET_BEAM, bc) == alone


def test_pinned_roots_at_the_mode_ceiling(ref_beam):
    # the last of them at beta*L near 31 400, where the 1e-10/L tolerance is
    # about 3e-15 relative
    n = np.arange(1, MAX_MODES + 1)
    exact = n * math.pi / ref_beam.length
    roots = find_beta_roots(ref_beam, PINNED, MAX_MODES)
    np.testing.assert_allclose(roots, exact, rtol=1e-14, atol=0.0)


def test_narrow_bracket_is_left_untouched():
    # its secant point, or the zero at its end, comes back without a determinant
    a, b = 0.3, 0.3 + BRACKET_TOL / 2
    narrow = [(a, b, -1.0, 3.0), (a, b, 2.0, 0.0)]
    with mock.patch.object(modal, "_characteristic_matrices") as calls:
        roots = modal._refine(narrow, BRACKET_TOL, BRACKET_BEAM, PINNED)
        # nothing lies between the ends, whatever the tolerance
        roots += modal._refine([(a, math.nextafter(a, 1.0), -1.0, 3.0)], 0.0, BRACKET_BEAM, PINNED)
    calls.assert_not_called()
    assert roots == [a + (b - a) / 4, b, a + (math.nextafter(a, 1.0) - a) / 4]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=8), more=st.integers(min_value=1, max_value=8), **ENDS)
def test_property_roots_are_a_prefix_of_more_roots(left, right, log_k1, log_k2, n, more):
    # a bracket's root does not depend on the batch it is refined in
    bc = ends(left, right, log_k1, log_k2)
    fewer = roots_unless_refused(BRACKET_BEAM, bc, n)
    if fewer is None:  # the refusal does not depend on the count
        assert roots_unless_refused(BRACKET_BEAM, bc, n + more) is None
    else:
        assert np.array_equal(find_beta_roots(BRACKET_BEAM, bc, n + more)[:n], fewer)


@pytest.mark.parametrize("bc", [PINNED, CLAMPED_FREE, FREE_FREE], ids=["pp", "cf", "ff"])
def test_roots_refused_where_beta_cubed_leaves_the_floats(bc):
    # the scan's (0.1/L)^3 must be a normal float and ((4*pi*3 + 10)/L)^3
    # finite: at 1e-101 and 1e101 m the roots scale with 1/L, warning-free
    reference = find_beta_roots(BeamSpec(10.0, 0.2, 0.4, 25e9, 2500.0), bc, 3) * 10.0
    for length in (1e-101, 1e101):
        beam = BeamSpec(length, 0.2, 0.4, 25e9, 2500.0)
        np.testing.assert_allclose(find_beta_roots(beam, bc, 3) * length, reference, rtol=1e-13)
    for length in (1e-102, 1e102):
        beam = BeamSpec(length, 0.2, 0.4, 25e9, 2500.0)
        with pytest.raises(SolverError, match=rf"^beam\.length {re.escape(repr(length))}: "):
            find_beta_roots(beam, bc, 3)


class TestNaturalFrequencies:
    def test_reference_fundamental(self, ref_beam):
        beta1 = math.pi / ref_beam.length
        freq = natural_frequencies([beta1], ref_beam)[0]
        assert freq.f_hz == pytest.approx(5.7361, abs=0.01)
        assert freq.omega_rad_s == pytest.approx(2.0 * math.pi * freq.f_hz, rel=1e-14)

    def test_quadratic_scaling(self, ref_beam):
        f1, f2 = natural_frequencies([0.3, 0.6], ref_beam)
        assert f2.omega_rad_s == pytest.approx(4.0 * f1.omega_rad_s, rel=1e-12)

    def test_pinned_mode_ratios(self, ref_beam):
        betas = find_beta_roots(ref_beam, PINNED, 3)
        freqs = natural_frequencies(betas, ref_beam)
        assert freqs[1].f_hz / freqs[0].f_hz == pytest.approx(4.0, rel=1e-6)
        assert freqs[2].f_hz / freqs[0].f_hz == pytest.approx(9.0, rel=1e-6)

    def test_descending_betas_rejected(self, ref_beam):
        with pytest.raises(ValidationError, match="ascending"):
            natural_frequencies([0.6, 0.3], ref_beam)


def mode_shape(beta: float, beam: BeamSpec, bc: BoundarySpec, grid: SpatialGrid) -> StaticProfile:
    """Mode shape at a verified root, sampled on `grid`.

    Coefficients come from the null vector of the characteristic matrix
    (smallest singular value); the shape is scaled so its largest-magnitude
    sample equals +1.
    """
    coeffs = modal._null_coefficients(beta, beam, bc)
    shape = shape_basis(beta, grid.positions, beam.length)[:, 0, :] @ coeffs
    peak = np.argmax(np.abs(shape))
    if shape[peak] == 0.0:
        raise DegenerateModeError(f"null mode shape at beta={beta}")
    return StaticProfile(grid, shape / shape[peak])


class TestModeShape:
    def test_pinned_fundamental_is_sine(self, ref_beam):
        grid = SpatialGrid.for_beam(ref_beam, 201)
        beta1 = find_beta_roots(ref_beam, PINNED, 1)[0]
        shape = mode_shape(beta1, ref_beam, PINNED, grid).deflection
        expected = np.sin(math.pi * grid.positions / ref_beam.length)
        np.testing.assert_allclose(shape, expected, atol=1e-6)

    def test_pinned_end_value(self, ref_beam):
        grid = SpatialGrid.for_beam(ref_beam, 101)
        beta2 = find_beta_roots(ref_beam, PINNED, 2)[1]
        shape = mode_shape(beta2, ref_beam, PINNED, grid).deflection
        assert abs(shape[0]) < 1e-9
        assert abs(shape[-1]) < 1e-9

    def test_second_mode_sign_changes(self, ref_beam):
        grid = SpatialGrid.for_beam(ref_beam, 201)
        beta2 = find_beta_roots(ref_beam, PINNED, 2)[1]
        shape = mode_shape(beta2, ref_beam, PINNED, grid).deflection
        interior = shape[1:-1]
        sign_changes = int(np.sum(np.abs(np.diff(np.sign(interior))) > 1))
        assert sign_changes == 1

    def test_normalization_peak_is_one(self, ref_beam):
        grid = SpatialGrid.for_beam(ref_beam, 201)
        beta = find_beta_roots(ref_beam, CLAMPED_FREE, 1)[0]
        shape = mode_shape(beta, ref_beam, CLAMPED_FREE, grid).deflection
        assert np.max(np.abs(shape)) == pytest.approx(1.0, rel=1e-14)
        assert shape[np.argmax(np.abs(shape))] == pytest.approx(1.0, rel=1e-14)

    def test_boundary_residual_small(self, ref_beam):
        beta = find_beta_roots(ref_beam, CLAMPED_FREE, 1)[0]
        matrix = characteristic_matrix(beta, ref_beam, CLAMPED_FREE)
        norms = np.max(np.abs(matrix), axis=1)
        grid = SpatialGrid.for_beam(ref_beam, 11)
        shape = mode_shape(beta, ref_beam, CLAMPED_FREE, grid)
        # recover the coefficients by fitting the sampled shape back
        xs = grid.positions
        basis = np.column_stack(
            [
                np.sin(beta * xs),
                np.cos(beta * xs),
                np.exp(-beta * xs),
                np.exp(beta * (xs - ref_beam.length)),
            ]
        )
        coeffs, *_ = np.linalg.lstsq(basis, shape.deflection, rcond=None)
        residual = np.max(np.abs((matrix / norms[:, None]) @ coeffs))
        assert residual < 1e-6

    def test_nonroot_rejected(self, ref_beam):
        grid = SpatialGrid.for_beam(ref_beam, 51)
        with pytest.raises(ValidationError, match="root"):
            mode_shape(0.21, ref_beam, PINNED, grid)

    def test_double_root_refused(self, ref_beam):
        # free-free ends near beta = 0: the shift and the tilt both solve it,
        # so two singular values vanish; root scans start above this
        grid = SpatialGrid.for_beam(ref_beam, 51)
        message = "^degenerate root at beta=1e-08: two singular values vanish together$"
        with pytest.raises(DegenerateModeError, match=message):
            mode_shape(1e-8, ref_beam, FREE_FREE, grid)

    def test_field_equation_consistency(self, ref_beam):
        # omega^2 * rhoA * phi should match EI * phi'''' in the interior
        grid = SpatialGrid.for_beam(ref_beam, 401)
        sec = ref_beam.section
        betas = find_beta_roots(ref_beam, PINNED, 2)
        for beta, freq in zip(betas, natural_frequencies(betas, ref_beam)):
            shape = mode_shape(beta, ref_beam, PINNED, grid).deflection
            dx = grid.spacing
            fourth = (
                shape[:-4] - 4.0 * shape[1:-3] + 6.0 * shape[2:-2] - 4.0 * shape[3:-1] + shape[4:]
            ) / dx**4
            lhs = freq.omega_rad_s**2 * sec.mass_per_length * shape[2:-2]
            rhs = sec.flexural_rigidity * fourth
            scale = np.max(np.abs(lhs))
            assert np.max(np.abs(lhs - rhs)) / scale < 1e-3


class TestSolveModes:
    def test_returns_consistent_records(self, ref_beam):
        modes = solve_modes(ref_beam, PINNED, 2)
        assert len(modes) == 2
        for mode in modes:
            assert isinstance(mode, ModeSolution)
            assert mode.omega_rad_s == pytest.approx(
                mode.beta**2 * ref_beam.section.wave_coefficient, rel=1e-12
            )
            assert len(mode.coefficients) == 4

    @pytest.mark.parametrize("bc", [CLAMPED_FREE, FREE_FREE], ids=["clamped_free", "free_free"])
    def test_coefficient_sign_survives_last_bit_changes(self, ref_beam, bc):
        # two coefficients of these modes are near-equal and opposite, so
        # the SVD's arbitrary sign used to flip when beta moved by 1e-11
        for mode in solve_modes(ref_beam, bc, 50):
            for scale in (1.0 - 1e-11, 1.0 + 1e-12, 1.0 + 1e-11):
                moved = modal._null_coefficients(mode.beta * scale, ref_beam, bc)
                np.testing.assert_allclose(moved, mode.coefficients, rtol=0, atol=1e-6)


def per_root_coefficients(beta, beam, bc):
    """Reference: one SVD of `characteristic_matrix` per root, signed so that
    the first coefficient of at least half the largest magnitude is positive."""
    _, _, vh = np.linalg.svd(characteristic_matrix(beta, beam, bc))
    null = vh[-1]
    magnitude = np.abs(null)
    return null if null[np.argmax(magnitude >= 0.5 * magnitude.max())] > 0 else -null


@settings(max_examples=40, deadline=None)
@given(n_modes=st.integers(min_value=1, max_value=60), **ENDS)
def test_property_stacked_shapes_match_per_root_svd(left, right, log_k1, log_k2, n_modes):
    bc = ends(left, right, log_k1, log_k2)
    assume(roots_unless_refused(BRACKET_BEAM, bc, 1) is not None)
    for mode in solve_modes(BRACKET_BEAM, bc, n_modes):
        expected = per_root_coefficients(mode.beta, BRACKET_BEAM, bc)
        # bit for bit, the sign of a zero included
        assert np.array(mode.coefficients).tobytes() == expected.tobytes(), mode.beta


@pytest.mark.parametrize(
    "bc", [PINNED, CLAMPED_FREE, modal_bc(preset("exp1"))], ids=["pp", "cf", "springs"]
)
def test_one_stacked_svd_and_no_scalar_determinant(ref_beam, monkeypatch, bc):
    svd = np.linalg.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    with mock.patch.object(modal, "characteristic_det", wraps=characteristic_det) as det:
        find_beta_roots(ref_beam, bc, 5)
        solve_modes(ref_beam, bc, 50)
    det.assert_not_called()
    assert shapes == [(50, 4, 4)]


def test_first_nonroot_of_an_array_is_named(ref_beam):
    roots = find_beta_roots(ref_beam, PINNED, 3)
    stacked = modal._null_coefficients(roots[:, None], ref_beam, PINNED)
    assert stacked.shape == (3, 1, 4)
    assert np.array_equal(stacked[:, 0], modal._null_coefficients(roots, ref_beam, PINNED))
    # the first of the two non-roots in order is named
    _, singular, _ = np.linalg.svd(characteristic_matrix(0.5, ref_beam, PINNED))
    message = (
        "beta=0.5 is not a characteristic root "
        f"(smallest singular value ratio {singular[-1] / singular[0]:.2e})"
    )
    betas = [roots[0], 0.5, roots[1], 0.21, roots[2]]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        modal._null_coefficients(betas, ref_beam, PINNED)
