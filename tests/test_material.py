import numpy as np
import pytest

from beamlab.material import (
    LoadCurvePoint,
    RambergOsgood,
    compliance_strain,
    linear_vs_nonlinear_curve,
    nonlinear_cantilever_deflection,
    secant_modulus,
    strain_from_stress,
    stress,
    tangent_modulus,
)
from beamlab.model import ValidationError
from beamlab.statics import cantilever_point_deflection


@pytest.fixture
def mat():
    return RambergOsgood(elastic_modulus=25e9, alpha=5e6, n=3.0)


def test_stress_at_zero_strain(mat):
    assert stress(mat, 0.0) == 0.0


def test_stress_reference_value(mat):
    # E*eps + alpha*E*eps^n at eps = 1e-3: 2.5e7 + 5e6*25e9*1e-9 = 1.5e8
    assert stress(mat, 1e-3) == pytest.approx(1.5e8, rel=1e-12)


def test_stress_linear_limit():
    lin = RambergOsgood(elastic_modulus=25e9, alpha=0.0, n=2.0)
    eps = np.linspace(-2e-3, 2e-3, 11)
    assert np.allclose(stress(lin, eps), 25e9 * eps, rtol=0.0, atol=0.0)


def test_stress_odd_symmetry(mat):
    eps = np.linspace(1e-6, 5e-3, 50)
    np.testing.assert_allclose(stress(mat, -eps), -stress(mat, eps), rtol=1e-15)


def test_stress_strictly_increasing(mat):
    eps = np.linspace(-5e-3, 5e-3, 201)
    assert np.all(np.diff(stress(mat, eps)) > 0.0)


def test_tangent_matches_central_difference(mat):
    h = 1e-9
    for eps in (1e-4, 1e-3, 3e-3):
        fd = (stress(mat, eps + h) - stress(mat, eps - h)) / (2.0 * h)
        assert tangent_modulus(mat, eps) == pytest.approx(fd, rel=1e-6)


def test_tangent_never_below_elastic(mat):
    eps = np.linspace(-4e-3, 4e-3, 101)
    assert np.all(tangent_modulus(mat, eps) >= mat.elastic_modulus)


def test_strain_stress_round_trip(mat):
    for sigma in (1e5, 1e7, 1.5e8, -2e8):
        eps = strain_from_stress(mat, sigma)
        assert stress(mat, eps) == pytest.approx(sigma, rel=1e-10)


def test_strain_from_zero_stress(mat):
    assert strain_from_stress(mat, 0.0) == 0.0


def test_compliance_strain_exceeds_linear(mat):
    sigma = np.linspace(1e6, 2e8, 25)
    assert np.all(compliance_strain(mat, sigma) > sigma / mat.elastic_modulus)


def test_secant_modulus_at_zero_is_elastic(mat):
    assert secant_modulus(mat, 0.0) == mat.elastic_modulus


def test_secant_modulus_decreases_with_stress(mat):
    sigma = np.linspace(0.0, 3e8, 40)
    secants = secant_modulus(mat, sigma)
    assert np.all(np.diff(secants) < 0.0)
    assert np.all(secants <= mat.elastic_modulus)


@pytest.mark.parametrize(
    "field,value",
    [("elastic_modulus", 0.0), ("elastic_modulus", -1.0), ("alpha", -0.1), ("n", 1.0), ("n", 0.5)],
)
def test_material_validation(field, value):
    kwargs = {"elastic_modulus": 25e9, "alpha": 5e6, "n": 3.0}
    kwargs[field] = value
    with pytest.raises(ValidationError):
        RambergOsgood(**kwargs)


def test_linear_limit_matches_closed_form(ref_beam):
    lin = RambergOsgood(elastic_modulus=ref_beam.elastic_modulus, alpha=0.0, n=2.0)
    a = 5.0  # on a grid node for n_nodes = 201
    profile = nonlinear_cantilever_deflection(1e3, a, ref_beam, lin, n_nodes=201)
    expected = cantilever_point_deflection(profile.grid.positions, 1e3, a, ref_beam)
    scale = float(np.max(np.abs(expected)))
    np.testing.assert_allclose(profile.deflection, expected, rtol=0.0, atol=1e-10 * scale)


def test_small_load_stays_near_linear(ref_beam, mat):
    profile = nonlinear_cantilever_deflection(10.0, ref_beam.length, ref_beam, mat)
    w_lin = cantilever_point_deflection(
        ref_beam.length, 10.0, ref_beam.length, ref_beam
    )
    assert profile.deflection[-1] == pytest.approx(w_lin, rel=1e-3)


def test_nonlinear_tip_exceeds_linear(ref_beam, mat):
    p = 5e5
    profile = nonlinear_cantilever_deflection(p, ref_beam.length, ref_beam, mat)
    w_lin = cantilever_point_deflection(ref_beam.length, p, ref_beam.length, ref_beam)
    assert profile.deflection[-1] > w_lin


def test_deflection_monotone_along_span(ref_beam, mat):
    profile = nonlinear_cantilever_deflection(2e5, ref_beam.length, ref_beam, mat)
    assert profile.deflection[0] == 0.0
    assert np.all(np.diff(profile.deflection) >= 0.0)


def test_load_curve_gap_grows(ref_beam, mat):
    p_values = np.logspace(3, 6, 7)
    points = linear_vs_nonlinear_curve(p_values, ref_beam.length, ref_beam, mat)
    assert len(points) == 7
    gaps = [pt.w_nl - pt.w_lin for pt in points]
    assert all(g >= 0.0 for g in gaps)
    assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_load_curve_requires_ascending_loads(ref_beam, mat):
    with pytest.raises(ValidationError):
        linear_vs_nonlinear_curve([1e3, 1e3], ref_beam.length, ref_beam, mat)


def test_converges_within_default_budget(ref_beam, mat):
    profile = nonlinear_cantilever_deflection(5e5, ref_beam.length, ref_beam, mat)
    assert np.isfinite(profile.deflection).all()


def test_load_position_validation(ref_beam, mat):
    with pytest.raises(ValidationError):
        nonlinear_cantilever_deflection(1e3, 0.0, ref_beam, mat)
    with pytest.raises(ValidationError):
        nonlinear_cantilever_deflection(1e3, ref_beam.length + 1.0, ref_beam, mat)
    with pytest.raises(ValidationError):
        nonlinear_cantilever_deflection(-1.0, 5.0, ref_beam, mat)


def test_load_curve_point_fields(ref_beam, mat):
    (pt,) = linear_vs_nonlinear_curve([1e4], ref_beam.length, ref_beam, mat)
    assert isinstance(pt, LoadCurvePoint)
    assert pt.p == 1e4
    assert pt.w_nl >= pt.w_lin > 0.0
