"""beamlab: Euler-Bernoulli beam statics, modal analysis and time integration."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .model import (
    BeamlabError,
    BeamSpec,
    BoundarySpec,
    DegenerateModeError,
    EndCondition,
    HarmonicPointLoad,
    InsufficientRootsError,
    MovingPointLoad,
    NonConvergenceError,
    PointLoad,
    RankDeficiencyError,
    SectionProperties,
    SolverError,
    SpatialGrid,
    StaticProfile,
    TimeGrid,
    TimeSeriesResult,
    UdlLoad,
    ValidationError,
    derive_section,
)
from .output import write_result
from .scenario import (
    PRESET_NAMES,
    ResultSet,
    Scenario,
    parse_scenario,
    preset,
    run_scenario,
    scenario_to_dict,
    scenario_to_json,
)

#: Every public name imported above; the submodules are not exported.
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
