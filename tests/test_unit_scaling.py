"""Exact covariance under power-of-two changes of units.

Scaling length by 2^a, mass by 2^m and time by 2^t multiplies every input
and output by a power of two, so in the normal floats each rounding scales
with it: a run of the scaled scenario must give the scaled outputs bit for
bit.  The mass exponent stays even, as a lumped mass's square root of an odd
power of two is inexact.  Any unit slip or constant that is not
dimensionally consistent breaks the identity.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from test_cli import BEAM_DYNAMIC

from beamlab.scenario import (
    PRESET_NAMES,
    modal_results,
    preset,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

LENGTH, MASS, TIME = (1, 0, 0), (0, 1, 0), (0, 0, 1)
NONE, FREQUENCY, FORCE = (0, 0, 0), (0, 0, -1), (1, 1, -2)
STIFFNESS = (0, 1, -2)  # N/m, as of a spring or a udl
MODULUS = (-1, 1, -2)

#: (length, mass, time) exponents of each numeric input leaf, by its dotted
#: path without list indices.
DIMENSIONS = {
    "beam.length": LENGTH,
    "beam.width": LENGTH,
    "beam.height": LENGTH,
    "beam.elastic_modulus": MODULUS,
    "beam.density": (-3, 1, 0),
    "bc.k": STIFFNESS,
    "loads.q": STIFFNESS,
    "loads.p": FORCE,
    "loads.p0": FORCE,
    "loads.position": LENGTH,
    "loads.x0": LENGTH,
    "loads.speed": (1, 0, -1),
    "loads.f_hz": FREQUENCY,
    "grid.nodes": NONE,
    "time.start": TIME,
    "time.end": TIME,
    "time.dt": TIME,
    "integrator.gamma": NONE,
    "integrator.beta": NONE,
    "integrator.rayleigh.zeta1": NONE,
    "material.E": MODULUS,
    "material.alpha": NONE,
    "material.n": NONE,
    "load_sweep.p_min": FORCE,
    "load_sweep.p_max": FORCE,
    "load_sweep.count": NONE,
    "sweep.f_min": FREQUENCY,
    "sweep.f_max": FREQUENCY,
    "sweep.f_count": NONE,
    "sweep.settle_periods": NONE,
    "sweep.measure_periods": NONE,
    "system.mass": MASS,
    "system.damping": (0, 1, -1),
    "system.stiffness": STIFFNESS,
    "system.dofs": NONE,
    "system.force.amplitude": FORCE,
    "system.force.f_hz": FREQUENCY,
    "modal_only.bearing_k": STIFFNESS,
    "probes": LENGTH,
    "output.stride": NONE,
}

SCENARIOS = {
    **{name: scenario_to_dict(preset(name)) for name in PRESET_NAMES},
    "beam_dynamic": BEAM_DYNAMIC,
}
MODES = 5


def power(dimension, scale) -> int:
    return sum(d * s for d, s in zip(dimension, scale))


def scaled_inputs(tree, scale, path=""):
    """The scenario tree with each number times 2 to the power of its
    dimension; a number with no entry in DIMENSIONS is refused."""
    if isinstance(tree, dict):
        return {
            key: scaled_inputs(value, scale, f"{path}.{key}" if path else key)
            for key, value in tree.items()
        }
    if isinstance(tree, list):
        return [scaled_inputs(value, scale, path) for value in tree]
    if isinstance(tree, (int, float)) and not isinstance(tree, bool):
        exponent = power(DIMENSIONS[path], scale)
        return math.ldexp(tree, exponent) if exponent else tree
    return tree


def outputs(data) -> dict:
    """Each output array of the scenario `data` or its modes, by name, with
    the (length, mass, time) dimension of its entries."""
    s = scenario_from_dict(data)
    results = run_scenario(s)
    out = {}
    if results.time_series is not None:
        out["times"] = TIME, results.time_series.times
        out["frames"] = LENGTH, results.time_series.frames
    if results.static_profile is not None:
        out["deflection"] = LENGTH, results.static_profile.deflection
    if results.sweep_points:
        out["sweep f_hz"] = FREQUENCY, [point.f_hz for point in results.sweep_points]
        out["sweep amplitude"] = LENGTH, [point.amplitude_m for point in results.sweep_points]
    if results.load_curve:
        out["load p"] = FORCE, [point.p for point in results.load_curve]
        out["w_lin"] = LENGTH, [point.w_lin for point in results.load_curve]
        out["w_nl"] = LENGTH, [point.w_nl for point in results.load_curve]
    if s.beam is not None:
        modes = modal_results(s, MODES)
        out["beta"] = (-1, 0, 0), [mode.beta for mode in modes]
        out["omega"] = FREQUENCY, [mode.omega_rad_s for mode in modes]
        out["mode f_hz"] = FREQUENCY, [mode.f_hz for mode in modes]
    return {name: (dimension, np.asarray(values)) for name, (dimension, values) in out.items()}


@lru_cache(maxsize=None)
def unscaled_outputs(name: str) -> dict:
    return outputs(SCENARIOS[name])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@settings(max_examples=3, deadline=None, database=None)
@given(
    a=st.integers(-8, 8),
    m=st.integers(-8, 8).map(lambda half: 2 * half),
    t=st.integers(-8, 8),
)
@example(a=-7, m=12, t=3)
def test_property_power_of_two_units_scale_every_output_exactly(name, a, m, t):
    expected = unscaled_outputs(name)
    got = outputs(scaled_inputs(SCENARIOS[name], (a, m, t)))
    assert got.keys() == expected.keys()
    for key, (dimension, values) in expected.items():
        scaled = np.ldexp(values, power(dimension, (a, m, t)))
        assert got[key][1].tobytes() == scaled.tobytes(), f"{key} at (a, m, t) = {(a, m, t)}"
