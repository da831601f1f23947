import pytest
from hypothesis import settings

from beamlab import BeamSpec

# The properties draw fresh random seeds with no example database, so print
# the @reproduce_failure blob that replays a failing example.
settings.register_profile("beamlab", print_blob=True)
settings.load_profile("beamlab")

# Shared reference beam: 10 m span, 0.2 x 0.4 m rectangle, 25 GPa, 2500 kg/m^3.
# Section closed forms: I = 0.2*0.4^3/12, EI = E*I, rho*A = 200 kg/m.


@pytest.fixture
def ref_beam() -> BeamSpec:
    return BeamSpec(
        length=10.0,
        width=0.2,
        height=0.4,
        elastic_modulus=25e9,
        density=2500.0,
    )
