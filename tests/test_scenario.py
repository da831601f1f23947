import inspect
import json
import math
import re
import tracemalloc
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import beamlab.scenario
from beamlab.dynamics import (
    MIN_BEAM_NODES,
    RECURRENCE_BYTES,
    SweepPoint,
    _blocking,
    _frequency_bytes,
)
from beamlab.material import LoadCurvePoint
from beamlab.model import (
    MIN_GRID_NODES,
    BoundarySpec,
    EndCondition,
    HarmonicPointLoad,
    MovingPointLoad,
    NonConvergenceError,
    UdlLoad,
    ValidationError,
)
from beamlab.scenario import (
    MAX_ARRAY_BYTES,
    MAX_MODE_STEPS,
    PRESET_NAMES,
    LoadSweepSpec,
    ResultSet,
    Scenario,
    SweepSpec,
    parse_scenario,
    preset,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    scenario_to_json,
    modal_results,
)
from beamlab.statics import cantilever_point_deflection, ss_udl_deflection


def minimal_static_dict():
    return {
        "schema": "beamlab/1",
        "name": "case",
        "solver": "static",
        "beam": {
            "length": 10.0,
            "width": 0.2,
            "height": 0.4,
            "elastic_modulus": 25.0e9,
            "density": 2500.0,
        },
        "bc": {"left": "pinned", "right": "pinned"},
        "loads": [{"type": "udl", "q": 5000.0}],
    }


# ---------------------------------------------------------------- parsing


def test_preset_names():
    assert PRESET_NAMES == (
        "exp1",
        "exp2_1",
        "exp2_2",
        "exp3",
        "exp4",
        "exp5_1",
        "exp5_2",
    )


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_round_trips(name):
    s = preset(name)
    assert parse_scenario(scenario_to_json(s)) == s


def test_unknown_preset_lists_names():
    with pytest.raises(ValidationError, match="exp5_2"):
        preset("exp9")


def test_unknown_top_level_key():
    data = minimal_static_dict()
    data["surprise"] = 1
    with pytest.raises(ValidationError, match="surprise"):
        scenario_from_dict(data)


def test_unknown_nested_key_reports_path():
    data = minimal_static_dict()
    data["beam"]["twist"] = 0.1
    with pytest.raises(ValidationError, match=r"beam\.twist"):
        scenario_from_dict(data)


def test_missing_beam_length_reports_path():
    data = minimal_static_dict()
    del data["beam"]["length"]
    with pytest.raises(ValidationError, match=r"beam\.length"):
        scenario_from_dict(data)


def test_negative_dt_rejected():
    data = minimal_static_dict()
    data["solver"] = "quasi_static"
    data["loads"] = [{"type": "moving_point", "p": 1e4, "speed": 1.0}]
    data["time"] = {"start": 0.0, "end": 15.0, "dt": -0.05}
    with pytest.raises(ValidationError):
        scenario_from_dict(data)


def test_wrong_schema_tag():
    data = minimal_static_dict()
    data["schema"] = "beamlab/2"
    with pytest.raises(ValidationError, match="beamlab/1"):
        scenario_from_dict(data)


def test_unknown_solver_lists_choices():
    data = minimal_static_dict()
    data["solver"] = "magic"
    with pytest.raises(ValidationError, match="quasi_static"):
        scenario_from_dict(data)


def test_malformed_json_reports_position():
    with pytest.raises(ValidationError, match="line 1"):
        parse_scenario(b"{not json")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_non_finite_numbers_rejected_at_parse(name):
    # json reads NaN, Infinity, -Infinity and overflowed literals as floats
    data = scenario_to_dict(preset(name))
    numbers = [
        keys
        for keys, value in nodes(data)
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    ]
    assert numbers
    for keys in numbers:
        for literal in ("NaN", "Infinity", "-Infinity", "1e400", "-1e400"):
            mutated = json.loads(json.dumps(data))
            lookup(mutated, keys[:-1])[keys[-1]] = "@@"
            text = json.dumps(mutated).replace('"@@"', literal)
            with pytest.raises(ValidationError) as info:
                parse_scenario(text)
            message = str(info.value)
            # named by its dotted path, or by its block's own range check
            assert f"'{dotted(keys)}'" in message or message.startswith(
                f"'{dotted(keys[:-1])}': "
            ), (keys, literal, message)


def test_integers_beyond_float_range_rejected_at_parse():
    data = minimal_static_dict()
    data["beam"]["length"] = 10**400
    with pytest.raises(ValidationError, match=r"^'beam\.length' must be a finite number$"):
        scenario_from_dict(data)
    data = minimal_static_dict()
    data["grid"] = {"nodes": 10**400}
    with pytest.raises(ValidationError, match=r"^grid\.nodes 10+: .* MiB limit"):
        scenario_from_dict(data)


def test_load_of_a_foreign_type_refused():
    @dataclass(frozen=True)
    class ForeignLoad:
        q: float = 1.0

    with pytest.raises(ValidationError, match="^cannot serialize load of type ForeignLoad$"):
        replace(preset("exp1"), loads=(ForeignLoad(),))


@pytest.mark.parametrize(
    "outputs, message",
    [
        ({"sweep_points": [SweepPoint(1.0, math.nan)]}, "sweep results contain"),
        ({"load_curve": [LoadCurvePoint(1.0, 0.0, math.inf)]}, "load curve contains"),
    ],
    ids=["sweep", "load_curve"],
)
def test_result_set_refuses_non_finite_points(outputs, message):
    with pytest.raises(ValidationError, match=f"^{message} non-finite values$"):
        ResultSet(preset("exp1"), {}, **outputs)


def test_repeated_keys_rejected_at_parse():
    text = json.dumps(minimal_static_dict())
    assert parse_scenario(text).loads == (UdlLoad(q=5000.0),)
    repeated_q = text.replace('"q": 5000.0', '"q": 5000.0, "q": -1.0')
    with pytest.raises(ValidationError, match=r"repeats key\(s\) in one JSON object: q$"):
        parse_scenario(repeated_q)
    two_grids = '{"grid": {"nodes": 51}, "grid": {"nodes": 61}, ' + text[1:]
    with pytest.raises(ValidationError, match=r": grid$"):
        parse_scenario(two_grids)


def test_spring_bc_requires_k():
    data = minimal_static_dict()
    data["bc"] = {"left": "spring", "right": "pinned"}
    with pytest.raises(ValidationError, match=r"bc\.k"):
        scenario_from_dict(data)


def test_k_without_spring_rejected():
    data = minimal_static_dict()
    data["bc"] = {"left": "pinned", "right": "pinned", "k": 5.0}
    with pytest.raises(ValidationError, match=r"bc\.k"):
        scenario_from_dict(data)


def test_unknown_load_type_reports_path():
    data = minimal_static_dict()
    data["loads"] = [{"type": "thermal"}]
    with pytest.raises(ValidationError, match=r"loads\[0\]\.type"):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "base, keys, value, message",
    [
        ("exp5_2", ("system",), None, "'system' must be a JSON object"),
        ("exp1", ("beam",), 3, "'beam' must be a JSON object"),
        ("exp5_2", ("system", "force"), [], "'system.force' must be a JSON object"),
        ("exp1", ("loads", 0), 3, "'loads[0]' must be a JSON object"),
    ],
    ids=["system_null", "beam_number", "nested_block", "load_entry"],
)
def test_block_that_is_not_an_object_names_its_quoted_path(base, keys, value, message):
    data = scenario_to_dict(preset(base))
    lookup(data, keys[:-1])[keys[-1]] = value
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(data)


def test_scenario_that_is_not_an_object_rejected():
    with pytest.raises(ValidationError, match=r"^scenario must be a JSON object$"):
        scenario_from_dict([minimal_static_dict()])


def test_boolean_is_not_a_number():
    data = minimal_static_dict()
    data["beam"]["length"] = True
    with pytest.raises(ValidationError, match=r"beam\.length"):
        scenario_from_dict(data)


def test_grid_nodes_must_be_integer():
    data = minimal_static_dict()
    data["grid"] = {"nodes": 201.0}
    with pytest.raises(ValidationError, match=r"grid\.nodes"):
        scenario_from_dict(data)


def test_defaults_recorded():
    # only the blocks the run reads: a static run reads no integrator or output
    s = scenario_from_dict(minimal_static_dict())
    assert s.defaults_applied == {"grid.nodes": 201, "probes": []}
    s = scenario_from_dict(dynamic_beam_dict())
    assert s.defaults_applied == {
        "grid.nodes": 201,
        "time.start": 0.0,
        "integrator.gamma": 0.5,
        "integrator.beta": 0.25,
        "integrator.rayleigh.zeta1": 0.0,
        "probes": [],
        "output.stride": 1,
    }


def test_moving_load_x0_default_recorded():
    data = minimal_static_dict()
    data["solver"] = "quasi_static"
    data["loads"] = [{"type": "moving_point", "p": 1e4, "speed": 1.0}]
    data["time"] = {"end": 15.0, "dt": 0.05}
    s = scenario_from_dict(data)
    assert isinstance(s.loads[0], MovingPointLoad)
    assert s.loads[0].x0 == 0.0
    assert s.defaults_applied["loads[0].x0"] == 0.0
    assert s.defaults_applied["time.start"] == 0.0


def test_defaults_do_not_break_equality():
    explicit = minimal_static_dict()
    explicit["grid"] = {"nodes": 201}
    explicit["probes"] = []
    a = scenario_from_dict(minimal_static_dict())
    b = scenario_from_dict(explicit)
    assert a == b
    assert a.defaults_applied != b.defaults_applied


@pytest.mark.parametrize(
    "block, value, path",
    [("grid", {}, "grid.nodes"), ("integrator", {"rayleigh": {}}, "integrator.rayleigh.zeta1")],
    ids=["grid", "rayleigh"],
)
def test_given_block_needs_its_required_keys(block, value, path):
    # the block itself may be left out, but a block given needs its own keys
    data = dynamic_beam_dict()
    scenario_from_dict(data)
    data[block] = value
    with pytest.raises(ValidationError, match=f"^missing required field '{re.escape(path)}'$"):
        scenario_from_dict(data)


def table_entries(block, make=Scenario):
    """(constructor, entry) for each entry of a field table and of the tables
    nested in it; an inline block's fields go to the enclosing constructor."""
    make = block.make or make
    for entry in block.fields:
        yield make, entry
        if isinstance(entry.kind, beamlab.scenario._Block):
            yield from table_entries(entry.kind, make)


def entry_attrs(entry):
    """The constructor attributes an entry sets: an inline block sets its fields'."""
    if not beamlab.scenario._inline(entry):
        yield entry.attr or entry.key
        return
    for field in entry.kind.fields:
        yield from entry_attrs(field)


def test_schema_table_defaults_come_from_the_types():
    # a default written in the table would be a second copy of the type's
    sc = beamlab.scenario
    for block in (sc._SCENARIO, *sc._LOADS.blocks.values()):
        for make, entry in table_entries(block):
            assert any(entry.default is marker for marker in (sc._MISSING, None, sc._DEFAULT)), entry
            if entry.default is not sc._DEFAULT:
                continue
            for attr in entry_attrs(entry):
                head, *rest = attr.split(".")
                default = inspect.signature(make).parameters[head].default
                assert default is not inspect.Parameter.empty, (make, attr)
                reduce(getattr, rest, default)  # a dotted attr reaches into it


@dataclass(frozen=True)
class _Inner:
    label: str
    weight: float = 1.5


@dataclass(frozen=True)
class _Outer:
    span: float
    count: int
    inner: _Inner
    tag: str = "a"


def test_typed_block_takes_its_entries_from_the_fields():
    sc = beamlab.scenario
    block = sc._typed(_Outer, N="count")
    assert block.make is _Outer
    span, count, inner, tag = block.fields
    assert span == ("span", sc._NUMBER, sc._MISSING, None)
    assert count == ("N", sc._INTEGER, sc._MISSING, "count")
    assert (inner.key, inner.default, inner.attr) == ("inner", sc._MISSING, None)
    assert tag == ("tag", sc._STRING, sc._DEFAULT, None)
    assert inner.kind.make is _Inner
    assert inner.kind.fields == (
        ("label", sc._STRING, sc._MISSING, None),
        ("weight", sc._NUMBER, sc._DEFAULT, None),
    )
    value = block.parse({"span": 2, "N": 3, "inner": {"label": "x"}}, "outer")
    assert value == _Outer(2.0, 3, _Inner("x"))
    dumped = block.dump(value)
    assert dumped == {"span": 2.0, "N": 3, "inner": {"label": "x", "weight": 1.5}, "tag": "a"}
    assert block.parse(dumped, "outer") == value
    with pytest.raises(ValidationError, match=r"^'outer\.N' must be an integer$"):
        block.parse({**dumped, "N": 3.5}, "outer")
    with pytest.raises(ValidationError, match=r"^unknown field\(s\): outer\.count$"):
        block.parse({**dumped, "count": 3}, "outer")
    with pytest.raises(ValidationError, match=r"^missing required field 'outer\.inner\.label'$"):
        block.parse({**dumped, "inner": {}}, "outer")


def test_probe_outside_span_rejected():
    data = minimal_static_dict()
    data["probes"] = [11.0]
    with pytest.raises(ValidationError, match="probe"):
        scenario_from_dict(data)


@pytest.mark.parametrize("solver", ["modal", "sweep"])
def test_probes_rejected_where_no_frames_are_written(solver):
    data = scenario_to_dict(preset("exp5_1"))
    data["solver"] = solver
    if solver != "sweep":
        for block in ("loads", "grid", "integrator", "sweep"):
            del data[block]  # a modal run reads none of them
    for probes in ([5.0], []):  # an empty list is a block given all the same
        data["probes"] = probes
        message = f"'probes' given, but solver '{solver}' never reads it; remove it"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            scenario_from_dict(data)
    del data["probes"]
    assert scenario_from_dict(data).probes == ()


#: The top-level blocks each kind of run reads besides name, solver and
#: notes; a dynamic run with a system block is the kind "system".  A copy of
#: the table in beamlab.scenario, kept here so a change to it shows.
READS = {
    "static": {"beam", "bc", "loads", "grid", "modal_only", "probes"},
    "quasi_static": {"beam", "bc", "loads", "grid", "time", "modal_only", "probes", "output"},
    "modal": {"beam", "bc", "modal_only"},
    "system": {"system", "time", "integrator", "output"},
    "dynamic": {
        "beam", "bc", "loads", "grid", "time", "integrator", "modal_only", "probes", "output"
    },
    "sweep": {"beam", "bc", "loads", "grid", "integrator", "sweep", "modal_only"},
    "nonlinear": {"beam", "bc", "loads", "grid", "material", "load_sweep", "modal_only", "probes"},
}

#: A valid value of every top-level block but name, solver and notes.
BLOCK_VALUES = {
    "beam": scenario_to_dict(preset("exp1"))["beam"],
    "bc": {"left": "pinned", "right": "pinned"},
    "loads": [{"type": "udl", "q": 5000.0}],
    "grid": {"nodes": 41},
    "time": {"end": 1.0, "dt": 0.01},
    "integrator": {"gamma": 0.5, "beta": 0.25, "rayleigh": {"zeta1": 0.02}},
    "material": {"E": 25.0e9, "alpha": 5.0e6, "n": 3.0},
    "sweep": {"f_min": 1.0, "f_max": 2.0, "f_count": 2},
    "load_sweep": {"p_min": 1.0e4, "p_max": 1.0e5, "count": 2},
    "system": scenario_to_dict(preset("exp5_2"))["system"],
    "modal_only": {"bearing_k": 1000.0},
    "probes": [5.0],
    "output": {"stride": 1},
}


def kind_of(data) -> str:
    return "system" if "system" in data else data["solver"]


# The first six cases name the blocks they add; the rest cover every other
# pair of preset and block, both those the run reads and those it refuses.
_NAMED_BLOCK_CASES = [
    ("exp1", "time", {"end": 1.0, "dt": 0.01}),
    ("exp4", "time", {"end": 1.0, "dt": 0.01}),
    ("exp3", "material", {"E": 25.0e9, "alpha": 5.0e6, "n": 3.0}),
    ("exp5_2", "sweep", {"f_min": 1.0, "f_max": 2.0, "f_count": 2}),
    ("exp2_1", "load_sweep", {"p_min": 1.0e4, "p_max": 1.0e5, "count": 2}),
    ("exp5_1", "system", scenario_to_dict(preset("exp5_2"))["system"]),
]
_OTHER_BLOCK_CASES = [
    (name, block, BLOCK_VALUES[block])
    for name in PRESET_NAMES
    for block in BLOCK_VALUES
    if (name, block) not in {case[:2] for case in _NAMED_BLOCK_CASES}
]


@pytest.mark.parametrize(
    "name, block, value",
    _NAMED_BLOCK_CASES + _OTHER_BLOCK_CASES,
    ids=["time-static", "time-nonlinear", "material", "sweep", "load_sweep", "system"]
    + [f"{name}-{block}" for name, block, _ in _OTHER_BLOCK_CASES],
)
def test_blocks_the_solver_never_reads_rejected(name, block, value):
    data = scenario_to_dict(preset(name))
    if block in READS[kind_of(data)]:
        # a block the run reads parses and comes back as it was given; the
        # preset's own value where it has one, as the other values may not fit
        data[block] = data.get(block, value)
        s = scenario_from_dict(data)
        assert scenario_to_dict(s)[block] == data[block]
        assert parse_scenario(scenario_to_json(s)) == s
        return
    data[block] = value
    message = f"'{block}' given, but solver '{data['solver']}' never reads it; remove it"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(data)
    del data[block]
    assert scenario_from_dict(data) == preset(name)


@pytest.mark.parametrize(
    "load, path",
    [
        ({"type": "point", "p": 1e4, "position": 12.0}, "loads[1].position"),
        ({"type": "harmonic_point", "p0": 1e3, "f_hz": 2.0, "position": 12.0},
         "loads[1].position"),
        ({"type": "moving_point", "p": 1e4, "speed": 1.0, "x0": 12.0}, "loads[1].x0"),
    ],
    ids=["point", "harmonic_point", "moving_point"],
)
def test_load_beyond_span_names_its_path(load, path):
    data = dynamic_beam_dict()  # a 10 m beam
    data["loads"].append(load)
    with pytest.raises(ValidationError, match=re.escape(f"{path} 12.0 is outside")):
        scenario_from_dict(data)


def test_to_dict_omits_absent_blocks():
    out = scenario_to_dict(preset("exp1"))
    assert "time" not in out and "material" not in out and "system" not in out
    assert out["modal_only"] == {"bearing_k": 1000.0}
    assert json.loads(json.dumps(out)) == out


# ------------------------------------------------- solver-specific validation


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.pop("loads"), "at least one load"),
        (lambda d: d.pop("bc"), "bc"),
        (lambda d: d.pop("beam"), "beam"),
        (
            lambda d: d.update(
                loads=[{"type": "moving_point", "p": 1.0, "speed": 1.0}]
            ),
            "udl and point",
        ),
    ],
)
def test_static_requirements(mutate, message):
    data = minimal_static_dict()
    mutate(data)
    with pytest.raises(ValidationError, match=message):
        scenario_from_dict(data)


def test_quasi_static_needs_single_transient_load():
    data = minimal_static_dict()
    data["solver"] = "quasi_static"
    data["time"] = {"end": 15.0, "dt": 0.05}
    with pytest.raises(ValidationError, match="moving_point or harmonic_point"):
        scenario_from_dict(data)


def test_quasi_static_needs_pinned_ends():
    data = minimal_static_dict()
    data["solver"] = "quasi_static"
    data["bc"] = {"left": "clamped", "right": "free"}
    data["loads"] = [{"type": "moving_point", "p": 1e4, "speed": 1.0}]
    data["time"] = {"end": 15.0, "dt": 0.05}
    with pytest.raises(ValidationError, match="pinned"):
        scenario_from_dict(data)


def test_sweep_needs_sweep_block():
    data = minimal_static_dict()
    data["solver"] = "sweep"
    data["loads"] = [
        {"type": "harmonic_point", "p0": 1e3, "f_hz": 5.0, "position": 5.0}
    ]
    with pytest.raises(ValidationError, match="sweep block"):
        scenario_from_dict(data)


def test_nonlinear_needs_material_and_cantilever():
    data = minimal_static_dict()
    data["solver"] = "nonlinear"
    data["bc"] = {"left": "clamped", "right": "free"}
    data["loads"] = [{"type": "point", "p": 1e4, "position": 5.0}]
    with pytest.raises(ValidationError, match="material"):
        scenario_from_dict(data)
    data["material"] = {"E": 25.0e9, "alpha": 5.0e6, "n": 3.0}
    data["bc"] = {"left": "pinned", "right": "pinned"}
    with pytest.raises(ValidationError, match="clamped"):
        scenario_from_dict(data)


def test_dynamic_system_excludes_beam_inputs():
    data = {
        "schema": "beamlab/1",
        "name": "sys",
        "solver": "dynamic",
        "system": {
            "mass": 1.0,
            "damping": 0.1,
            "stiffness": 10.0,
            "dofs": 1,
            "force": {"amplitude": 1.0, "f_hz": 0.5},
        },
        "time": {"end": 1.0, "dt": 0.01},
    }
    s = scenario_from_dict(data)
    assert s.system.force.axis == "x"
    assert s.defaults_applied["system.force.axis"] == "x"

    beam_inputs = {key: minimal_static_dict()[key] for key in ("beam", "bc", "loads")}
    for key, value in {**beam_inputs, "probes": [0.0], "grid": {}}.items():
        message = f"'{key}' given, but solver 'dynamic' never reads it; remove it"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            scenario_from_dict({**data, key: value})

    bad = dict(data)
    bad["integrator"] = {"rayleigh": {"zeta1": 0.05}}
    with pytest.raises(ValidationError, match="system.damping"):
        scenario_from_dict(bad)


def test_dynamic_requires_time_block():
    data = minimal_static_dict()
    data["solver"] = "dynamic"
    with pytest.raises(ValidationError, match="time"):
        scenario_from_dict(data)


def test_sweep_spec_validation():
    with pytest.raises(ValidationError):
        SweepSpec(f_min=0.0, f_max=1.0, f_count=3)
    with pytest.raises(ValidationError):
        SweepSpec(f_min=2.0, f_max=1.0, f_count=3)
    with pytest.raises(ValidationError):
        SweepSpec(f_min=1.0, f_max=2.0, f_count=1)
    spec = SweepSpec(f_min=1.0, f_max=2.0, f_count=3)
    np.testing.assert_allclose(spec.frequencies(), [1.0, 1.5, 2.0])


# ------------------------------------------------------------------- running


def test_exp1_static_midspan(ref_beam):
    rs = run_scenario(preset("exp1"))
    expected = ss_udl_deflection(5.0, 5000.0, ref_beam)
    assert rs.static_profile.at(5.0) == pytest.approx(expected, rel=1e-3)
    assert rs.provenance["scenario"] == "exp1"
    assert rs.provenance["defaults_applied"] == {}


def test_exp3_tip_matches_cantilever(ref_beam):
    rs = run_scenario(preset("exp3"))
    expected = cantilever_point_deflection(10.0, 10000.0, 5.0, ref_beam)
    tip = float(rs.static_profile.deflection[-1])
    assert tip == pytest.approx(expected, rel=1e-3)
    assert tip == float(np.max(np.abs(rs.static_profile.deflection)))


def test_exp2_1_peak_at_midspan_crossing():
    rs = run_scenario(preset("exp2_1"))
    series = rs.time_series.probes[100]
    times = rs.time_series.times
    peak_idx = int(np.argmax(np.abs(series)))
    assert times[peak_idx] == pytest.approx(5.0, abs=1e-12)
    assert abs(series[peak_idx] - 7.8125e-3) < 1e-9


def test_exp2_2_probe_is_periodic():
    rs = run_scenario(preset("exp2_2"))
    series = rs.time_series.probes[100]
    shift = 100  # one forcing period at dt = 0.01
    scale = float(np.max(np.abs(series)))
    np.testing.assert_allclose(
        series[shift:], series[:-shift], rtol=0.0, atol=1e-9 * scale
    )


def test_modal_solver_run(ref_beam):
    data = minimal_static_dict()
    data["solver"] = "modal"
    del data["loads"]
    rs = run_scenario(scenario_from_dict(data))
    freqs = [m.f_hz for m in rs.modes]
    assert len(freqs) == 3
    assert freqs[0] == pytest.approx(5.7358, abs=1e-3)
    assert rs.provenance["mode_count"] == 3


def test_exp1_modal_bearing_override():
    s = preset("exp1")
    soft = modal_results(s, 3)
    rigid = Scenario(
        name="pinned",
        solver="modal",
        beam=s.beam,
        bc=BoundarySpec.pinned_pinned(),
    )
    pinned = modal_results(rigid, 1)
    # soft bearings add near-rigid bounce/pitch modes far below the pinned
    # fundamental
    assert soft[0].f_hz < pinned[0].f_hz
    assert [m.f_hz for m in soft] == sorted(m.f_hz for m in soft)


def spring_modal(k_left, k_right):
    ends = BoundarySpec(EndCondition.spring(k_left), EndCondition.spring(k_right))
    return Scenario(name="exp3", solver="modal", beam=preset("exp3").beam, bc=ends)


def test_spring_ends_of_unequal_stiffness_refused():
    # a file holds one bc.k, so these ends would come back both 2000 N/m
    with pytest.raises(ValidationError, match=r"^bc\.k .* 1000\.0 and 2000\.0$"):
        spring_modal(1e3, 2e3)


def test_spring_ends_of_equal_stiffness_round_trip():
    s = spring_modal(1e3, 1e3)
    assert parse_scenario(scenario_to_json(s)) == s


def test_exp5_2_drives_x_only():
    rs = run_scenario(preset("exp5_2"))
    frames = rs.time_series.frames
    assert rs.time_series.columns == ("x", "y")
    assert np.max(np.abs(frames[:, 0])) > 0.0
    np.testing.assert_allclose(frames[:, 1], 0.0, atol=0.0)


def test_dynamic_beam_route_runs(ref_beam):
    data = minimal_static_dict()
    data["solver"] = "dynamic"
    data["loads"] = [
        {"type": "harmonic_point", "p0": 1e3, "f_hz": 2.0, "position": 5.0}
    ]
    data["grid"] = {"nodes": 21}
    data["time"] = {"end": 2.0, "dt": 0.005}
    data["integrator"] = {"rayleigh": {"zeta1": 0.05}}
    rs = run_scenario(scenario_from_dict(data))
    frames = rs.time_series.frames
    assert frames.shape == (401, 21)
    np.testing.assert_allclose(frames[:, 0], 0.0, atol=0.0)
    np.testing.assert_allclose(frames[:, -1], 0.0, atol=0.0)
    assert np.max(np.abs(frames)) > 0.0


def test_stride_subsamples_quasi_static():
    from dataclasses import replace

    base = preset("exp2_1")
    full = run_scenario(base)
    strided = run_scenario(replace(base, stride=5))
    np.testing.assert_array_equal(
        strided.time_series.frames, full.time_series.frames[::5]
    )
    np.testing.assert_array_equal(
        strided.time_series.times, full.time_series.times[::5]
    )


def test_solver_error_carries_scenario_name():
    data = minimal_static_dict()
    data["name"] = "shaky"
    data["solver"] = "sweep"
    data["grid"] = {"nodes": 21}
    data["loads"] = [
        {"type": "harmonic_point", "p0": 1e3, "f_hz": 5.0, "position": 5.0}
    ]
    data["sweep"] = {
        "f_min": 5.7358,
        "f_max": 5.7358,
        "f_count": 1,
        "settle_periods": 6,
        "measure_periods": 6,
    }
    # no damping at resonance: amplitude keeps growing
    with pytest.raises(NonConvergenceError, match="shaky"):
        run_scenario(scenario_from_dict(data))


def test_underconstrained_static_refused_at_parse():
    data = minimal_static_dict()
    data["bc"] = {"left": "pinned", "right": "free"}
    refusal = "'bc': end conditions pinned-free leave rigid-body modes free"
    with pytest.raises(ValidationError, match=f"^{refusal}$"):
        scenario_from_dict(data)
    # a modal run takes those ends: its root scan finds the elastic modes
    data["solver"] = "modal"
    del data["loads"]
    assert len(run_scenario(scenario_from_dict(data)).modes) == 3


def test_sweep_worker_counts_agree():
    data = minimal_static_dict()
    data["solver"] = "sweep"
    data["grid"] = {"nodes": 21}
    data["integrator"] = {"rayleigh": {"zeta1": 0.05}}
    data["loads"] = [
        {"type": "harmonic_point", "p0": 1e3, "f_hz": 2.0, "position": 5.0}
    ]
    data["sweep"] = {
        "f_min": 2.0,
        "f_max": 4.0,
        "f_count": 3,
        "settle_periods": 4,
        "measure_periods": 3,
    }
    s = scenario_from_dict(data)
    serial = run_scenario(s, sweep_workers=1)
    pooled = run_scenario(s, sweep_workers=3)
    assert serial.sweep_points == pooled.sweep_points


def test_sweep_workers_must_be_positive():
    with pytest.raises(ValidationError, match="sweep_workers"):
        run_scenario(preset("exp1"), sweep_workers=0)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_too_few_grid_nodes_rejected_at_parse(name):
    data = scenario_to_dict(preset(name))
    # a system run reads no grid, so refuses any
    message = r"grid\.nodes must be >= " if "grid" in data else r"^'grid' given"
    data["grid"] = {"nodes": MIN_GRID_NODES - 1}
    with pytest.raises(ValidationError, match=message):
        scenario_from_dict(data)


def dynamic_beam_dict():
    data = minimal_static_dict()
    data["solver"] = "dynamic"
    data["time"] = {"end": 1.0, "dt": 0.01}
    return data


@pytest.mark.parametrize(
    "make", [lambda: scenario_to_dict(preset("exp5_1")), dynamic_beam_dict],
    ids=["sweep", "dynamic_beam"],
)
def test_discretized_runs_need_more_grid_nodes(make):
    data = make()
    data["grid"] = {"nodes": MIN_BEAM_NODES - 1}
    with pytest.raises(ValidationError, match=rf"grid\.nodes must be >= {MIN_BEAM_NODES}"):
        scenario_from_dict(data)
    data["grid"] = {"nodes": MIN_BEAM_NODES}
    assert scenario_from_dict(data).grid_nodes == MIN_BEAM_NODES


def test_system_runs_refuse_any_grid():
    data = scenario_to_dict(preset("exp5_2"))
    message = "'grid' given, but solver 'dynamic' never reads it; remove it"
    for nodes in (3, MIN_GRID_NODES, 50, 201):
        data["grid"] = {"nodes": nodes}
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            scenario_from_dict(data)
    # built in Python, a grid off the default is refused the same way
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        replace(preset("exp5_2"), grid_nodes=50)


def parse_dict(data):
    return parse_scenario(json.dumps(data))


def small_sweep_dict():
    data = scenario_to_dict(preset("exp5_1"))
    data["sweep"].update(f_min=5.0, f_max=5.0, f_count=1)
    return data


def short_dynamic_beam_dict():
    data = dynamic_beam_dict()
    data["time"] = {"end": 0.05, "dt": 0.01}
    return data


_DROP = object()


def edited(base, **edits):
    """Scenario dict `base`, or preset `base` as a dict, each edit setting a
    top-level key or, given _DROP, removing it."""
    data = scenario_to_dict(preset(base)) if isinstance(base, str) else base
    for key, value in edits.items():
        if value is _DROP:
            data.pop(key, None)
        else:
            data[key] = value
    return data


_BEAM = scenario_to_dict(preset("exp1"))["beam"]
_PINNED = {"left": "pinned", "right": "pinned"}
_CANTILEVER = {"left": "clamped", "right": "free"}
_UDL = {"type": "udl", "q": 5000.0}
_POINT = {"type": "point", "p": 1.0e4, "position": 5.0}
_MOVING = {"type": "moving_point", "p": 1.0e4, "speed": 1.0, "x0": 0.0}
_SHORT = {"end": 0.05, "dt": 0.01}
_SYSTEM = scenario_to_dict(preset("exp5_2"))["system"]


def modal_dict(**edits):
    """exp1 as a modal run: it reads beam, bc and modal_only only."""
    drop = {"loads": _DROP, "grid": _DROP, "probes": _DROP}
    return edited("exp1", **{"solver": "modal", **drop, **edits})


# One case per solver rule: the scenario that breaks it and the whole message.
@pytest.mark.parametrize(
    "data, message",
    [
        pytest.param(
            edited("exp1", beam=_DROP),
            "solver 'static' requires a beam block",
            id="data0-solver 'static' requires a beam block",
        ),
        pytest.param(
            edited("exp1", bc=_DROP),
            "solver 'static' requires a bc block",
            id="data1-solver 'static' requires a bc block",
        ),
        pytest.param(
            edited("exp1", loads=_DROP),
            "solver 'static' requires at least one load",
            id="data2-solver 'static' requires at least one load",
        ),
        pytest.param(
            edited("exp1", loads=[_MOVING]),
            "solver 'static' accepts only udl and point loads",
            id="data3-solver 'static' accepts only udl and point loads",
        ),
        pytest.param(
            edited("exp1", grid={"nodes": 6000}),
            "grid.nodes 6000: the dense beam operator would take about 1099 MiB, "
            "above the 1024 MiB limit; lower grid.nodes",
            id=(
                "data4-grid.nodes 6000: the dense beam operator would take about 1099 MiB, above "
                "the 1024 MiB limit; lower grid.nodes"
            ),
        ),
        pytest.param(
            edited("exp2_1", beam=_DROP),
            "solver 'quasi_static' requires a beam block",
            id="data5-solver 'quasi_static' requires a beam block",
        ),
        pytest.param(
            edited("exp2_1", time=_DROP),
            "solver 'quasi_static' requires a time block",
            id="data6-solver 'quasi_static' requires a time block",
        ),
        pytest.param(
            edited("exp2_1", loads=[_MOVING, _MOVING]),
            "solver 'quasi_static' requires exactly one moving_point or "
            "harmonic_point load",
            id=(
                "data7-solver 'quasi_static' requires exactly one moving_point or harmonic_point "
                "load"
            ),
        ),
        pytest.param(
            edited("exp2_1", loads=[_UDL]),
            "solver 'quasi_static' requires exactly one moving_point or "
            "harmonic_point load",
            id=(
                "data8-solver 'quasi_static' requires exactly one moving_point or harmonic_point "
                "load"
            ),
        ),
        pytest.param(
            edited("exp2_1", bc=_DROP),
            "solver 'quasi_static' requires bc {left: pinned, right: pinned}",
            id="data9-solver 'quasi_static' requires bc {left: pinned, right: pinned}",
        ),
        pytest.param(
            edited("exp2_1", bc=_CANTILEVER),
            "solver 'quasi_static' requires bc {left: pinned, right: pinned}",
            id="data10-solver 'quasi_static' requires bc {left: pinned, right: pinned}",
        ),
        pytest.param(
            edited("exp2_1", time={"start": 0.0, "end": 10.0, "dt": 1e-5}),
            "output.stride 1: 1000001 recorded frames of 201 columns would take "
            "about 1534 MiB, above the 1024 MiB limit; "
            "raise output.stride or lower grid.nodes",
            id=(
                "data11-output.stride 1: 1000001 recorded frames of 201 columns would take about "
                "1534 MiB, above the 1024 MiB limit; raise output.stride or lower grid.nodes"
            ),
        ),
        pytest.param(
            modal_dict(beam=_DROP),
            "solver 'modal' requires a beam block",
            id="data12-solver 'modal' requires a beam block",
        ),
        pytest.param(
            modal_dict(bc=_DROP, modal_only=_DROP),
            "solver 'modal' requires a bc block or modal_only.bearing_k",
            id="data13-solver 'modal' requires a bc block or modal_only.bearing_k",
        ),
        pytest.param(
            modal_dict(probes=[5.0]),
            "'probes' given, but solver 'modal' never reads it; remove it",
            id="data14-'probes' given, but solver 'modal' never reads it; remove it",
        ),
        # the first block in schema order the run never reads is named
        pytest.param(
            modal_dict(probes=[5.0], time=_SHORT),
            "'time' given, but solver 'modal' never reads it; remove it",
            id="data15-'time' given, but solver 'modal' never reads it; remove it",
        ),
        pytest.param(
            edited("exp5_2", time=_DROP),
            "solver 'dynamic' requires a time block",
            id="data16-solver 'dynamic' requires a time block",
        ),
        pytest.param(
            edited("exp5_2", beam=_BEAM),
            "'beam' given, but solver 'dynamic' never reads it; remove it",
            id="data17-'beam' given, but solver 'dynamic' never reads it; remove it",
        ),
        pytest.param(
            edited("exp5_2", loads=[_UDL]),
            "'loads' given, but solver 'dynamic' never reads it; remove it",
            id="data18-'loads' given, but solver 'dynamic' never reads it; remove it",
        ),
        pytest.param(
            edited("exp5_2", probes=[0.0]),
            "'probes' given, but solver 'dynamic' never reads it; remove it",
            id="data19-'probes' given, but solver 'dynamic' never reads it; remove it",
        ),
        pytest.param(
            edited("exp5_2", integrator={"rayleigh": {"zeta1": 0.05}}),
            "rayleigh damping applies to beam runs; set system.damping instead",
            id="data20-rayleigh damping applies to beam runs; set system.damping instead",
        ),
        pytest.param(
            edited("exp5_2", time={"start": 0.0, "end": 10.0, "dt": 1e-7}),
            "time.dt 1e-07: 100000001 time samples of 2 dofs would take about "
            "1526 MiB, above the 1024 MiB limit; "
            "raise time.dt or shorten the time span",
            id=(
                "data21-time.dt 1e-07: 100000001 time samples of 2 dofs would take about 1526 "
                "MiB, above the 1024 MiB limit; raise time.dt or shorten the time span"
            ),
        ),
        pytest.param(
            edited(dynamic_beam_dict(), time=_DROP),
            "solver 'dynamic' requires a time block",
            id="data22-solver 'dynamic' requires a time block",
        ),
        pytest.param(
            edited(dynamic_beam_dict(), beam=_DROP),
            "solver 'dynamic' requires a beam block or a system block",
            id="data23-solver 'dynamic' requires a beam block or a system block",
        ),
        pytest.param(
            edited(dynamic_beam_dict(), bc=_DROP),
            "solver 'dynamic' requires a bc block",
            id="data24-solver 'dynamic' requires a bc block",
        ),
        pytest.param(
            edited(dynamic_beam_dict(), loads=_DROP),
            "solver 'dynamic' requires at least one load",
            id="data25-solver 'dynamic' requires at least one load",
        ),
        pytest.param(
            edited(dynamic_beam_dict(), grid={"nodes": 6}),
            "grid.nodes must be >= 7 for solver 'dynamic', got 6",
            id="data26-grid.nodes must be >= 7 for solver 'dynamic', got 6",
        ),
        pytest.param(
            edited(dynamic_beam_dict(), grid={"nodes": 6000}),
            "grid.nodes 6000: the dense beam operator would take about 1923 MiB, "
            "above the 1024 MiB limit; lower grid.nodes",
            id=(
                "data27-grid.nodes 6000: the dense beam operator would take about 1923 MiB, "
                "above the 1024 MiB limit; lower grid.nodes"
            ),
        ),
        pytest.param(
            edited(dynamic_beam_dict(), time={"start": 0.0, "end": 10.0, "dt": 1e-5}),
            "time.dt 1e-05: 1000001 time samples of 201 dofs would take about "
            "1534 MiB, above the 1024 MiB limit; "
            "raise time.dt or shorten the time span",
            id=(
                "data28-time.dt 1e-05: 1000001 time samples of 201 dofs would take about 1534 "
                "MiB, above the 1024 MiB limit; raise time.dt or shorten the time span"
            ),
        ),
        pytest.param(
            edited("exp5_1", beam=_DROP),
            "solver 'sweep' requires a beam block",
            id="data29-solver 'sweep' requires a beam block",
        ),
        pytest.param(
            edited("exp5_1", bc=_DROP),
            "solver 'sweep' requires a bc block",
            id="data30-solver 'sweep' requires a bc block",
        ),
        pytest.param(
            edited("exp5_1", sweep=_DROP),
            "solver 'sweep' requires a sweep block",
            id="data31-solver 'sweep' requires a sweep block",
        ),
        pytest.param(
            edited("exp5_1", loads=[_POINT]),
            "solver 'sweep' requires exactly one harmonic_point load",
            id="data32-solver 'sweep' requires exactly one harmonic_point load",
        ),
        pytest.param(
            edited("exp5_1", probes=[5.0]),
            "'probes' given, but solver 'sweep' never reads it; remove it",
            id="data33-'probes' given, but solver 'sweep' never reads it; remove it",
        ),
        pytest.param(
            edited("exp5_1", grid={"nodes": 6}),
            "grid.nodes must be >= 7 for solver 'sweep', got 6",
            id="data34-grid.nodes must be >= 7 for solver 'sweep', got 6",
        ),
        pytest.param(
            edited("exp5_1", grid={"nodes": 6000}),
            "grid.nodes 6000: the dense beam operator would take about 2747 MiB, "
            "above the 1024 MiB limit; lower grid.nodes",
            id=(
                "data35-grid.nodes 6000: the dense beam operator would take about 2747 MiB, "
                "above the 1024 MiB limit; lower grid.nodes"
            ),
        ),
        pytest.param(
            edited(
                "exp5_1",
                sweep={"f_min": 1.0, "f_max": 2.0, "f_count": 10_000_000},
            ),
            "sweep.f_count 10000000: the sweep's points would take about 1221 MiB, "
            "above the 1024 MiB limit; lower sweep.f_count",
            id=(
                "data36-sweep.f_count 10000000: the sweep's points would take about 1221 MiB, "
                "above the 1024 MiB limit; lower sweep.f_count"
            ),
        ),
        pytest.param(
            edited("exp4", beam=_DROP),
            "solver 'nonlinear' requires a beam block",
            id="data37-solver 'nonlinear' requires a beam block",
        ),
        pytest.param(
            edited("exp4", material=_DROP),
            "solver 'nonlinear' requires a material block",
            id="data38-solver 'nonlinear' requires a material block",
        ),
        pytest.param(
            edited("exp4", loads=[_POINT, _POINT]),
            "solver 'nonlinear' requires exactly one point load",
            id="data39-solver 'nonlinear' requires exactly one point load",
        ),
        pytest.param(
            edited("exp4", bc=_PINNED),
            "solver 'nonlinear' requires bc {left: clamped, right: free} (cantilever)",
            id="data40-solver 'nonlinear' requires bc {left: clamped, right: free} (cantilever)",
        ),
        pytest.param(
            edited("exp4", grid={"nodes": 2_000_000_000}),
            "grid.nodes 2000000000: the nonlinear cantilever's nodal arrays would "
            "take about 152588 MiB, above the 1024 MiB limit; lower grid.nodes",
            id=(
                "data41-grid.nodes 2000000000: the nonlinear cantilever's nodal arrays would "
                "take about 152588 MiB, above the 1024 MiB limit; lower grid.nodes"
            ),
        ),
        pytest.param(
            edited("exp4", loads=[{**_POINT, "p": -1.0}]),
            "solver 'nonlinear' requires loads[0].p >= 0, got -1.0",
            id="data42-solver 'nonlinear' requires loads[0].p >= 0, got -1.0",
        ),
        pytest.param(
            edited("exp4", loads=[{**_POINT, "position": 0.0}]),
            "solver 'nonlinear' requires loads[0].position > 0, got 0.0",
            id="data43-solver 'nonlinear' requires loads[0].position > 0, got 0.0",
        ),
        pytest.param(
            edited("exp4", load_sweep={"p_min": 1.0e4, "p_max": 1.0e4, "count": 3}),
            "'load_sweep': load sweep values must be strictly ascending: 3 points over "
            "[10000.0, 10000.0] are not 4 ulps of p_max apart",
            id="data44-load_sweep values not strictly ascending",
        ),
        pytest.param(
            edited("exp4", load_sweep={"p_min": 1.0e4, "p_max": 1.0e6, "count": 10**12}),
            "load_sweep.count 1000000000000: the load curve's points would take about "
            "244140625 MiB, above the 1024 MiB limit; lower load_sweep.count",
            id="data45-load_sweep.count above the array limit",
        ),
        pytest.param(
            edited("exp1", bc={"left": "hinged", "right": "pinned"}),
            "'bc.left' must be one of pinned, clamped, free, spring; got 'hinged'",
            id="data46-unknown end kind",
        ),
        pytest.param(
            edited("exp2_1", output={"stride": 0}),
            "output.stride must be >= 1, got 0",
            id="data47-output.stride must be >= 1, got 0",
        ),
        pytest.param(
            edited("exp1", name=""),
            "scenario name must be non-empty",
            id="data48-scenario name must be non-empty",
        ),
        pytest.param(
            edited(
                "exp5_2",
                system={**_SYSTEM, "dofs": 1, "force": {**_SYSTEM["force"], "axis": "y"}},
            ),
            "'system': a one-DOF system only accepts force axis 'x'",
            id="data49-one-DOF system driven along y",
        ),
        pytest.param(
            edited("exp1", probes=5.0),
            "'probes' must be a list of positions in meters",
            id="data50-probes given as a number",
        ),
        pytest.param(
            # at zeta1 1e136 this sweep once overflowed with RuntimeWarnings
            edited(
                "exp5_1",
                bc={"left": "spring", "right": "spring", "k": 1e28},
                integrator={"rayleigh": {"zeta1": 1e136}},
            ),
            "'bc.k' 1e+28: k*dx^3/EI at grid.nodes 41 is 5.86e+18, above 1000, where the "
            "first mode is lost to rounding; lower bc.k or use pinned ends",
            id="data51-spring end far stiffer than the beam",
        ),
    ],
)
def test_solver_rule_messages(data, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(data)


# (scenario, n x n doubles its dense path holds at once): 4 n^2 doubles fill
# 1 GiB at 5792 nodes, 7 n^2 doubles at 4378 and 10 n^2 doubles at 3663
DENSE_PATHS = pytest.mark.parametrize(
    "make, copies",
    [(minimal_static_dict, 4), (dynamic_beam_dict, 7), (small_sweep_dict, 10)],
    ids=["static", "dynamic_beam", "sweep"],
)


@DENSE_PATHS
def test_dense_operator_size_bounded_at_parse(make, copies):
    limit = math.isqrt(MAX_ARRAY_BYTES // (8 * copies))
    data = make()
    for nodes in (limit + 1, 6000):
        data["grid"] = {"nodes": nodes}
        with pytest.raises(
            ValidationError, match=rf"^grid\.nodes {nodes}: .* MiB limit; lower grid\.nodes$"
        ):
            parse_dict(data)
    data["grid"] = {"nodes": limit - 3}
    assert parse_dict(data).grid_nodes == limit - 3


def assumed_copies(data) -> float:
    """n x n doubles the parse-time limit assumes, read from its message."""
    nodes = 6000
    with pytest.raises(ValidationError) as info:
        parse_dict({**data, "grid": {"nodes": nodes}})
    mib = int(re.search(r"about (\d+) MiB", str(info.value)).group(1))
    return (mib + 0.5) * 2**20 / (8 * nodes**2)


@pytest.mark.parametrize(
    "make",
    [minimal_static_dict, short_dynamic_beam_dict, small_sweep_dict],
    ids=["static", "dynamic_beam", "sweep"],
)
def test_dense_operator_peak_within_parse_bound(make):
    # the traced peak of a whole run at 101 nodes, where the operator copies
    # dominate, must stay under what the parse-time limit assumes; an
    # untraced run first loads the modules the solver imports lazily, so
    # the peak does not depend on which tests ran before
    nodes = 101
    data = make()
    data["grid"] = {"nodes": nodes}
    s = scenario_from_dict(data)
    run_scenario(s)
    tracemalloc.start()
    try:
        run_scenario(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * nodes**2) <= assumed_copies(data)


#: Traced peak of exp5_2 at 100 000 steps over the bytes of its recorded
#: frames, per stride, as measured for the per-step recurrence whose results
#: copied their arrays: 2.05 and 2.43 with blocks and uncopied arrays.
SYSTEM_RUN_PEAK_RATIOS = {1: 3.13, 10: 3.14}


@pytest.mark.parametrize("stride", sorted(SYSTEM_RUN_PEAK_RATIOS))
def test_system_run_peak_bounded_by_recorded_samples(stride):
    # the recurrence writes only the strided samples, so a longer stride
    # must shrink the peak with the frames
    data = scenario_to_dict(preset("exp5_2"))
    data["time"] = {"start": 0.0, "end": 100.0, "dt": 1e-3}
    data["output"] = {"stride": stride}
    s = scenario_from_dict(data)
    samples = s.tgrid.step_count // stride + 1
    assert s.tgrid.step_count == 100_000
    tracemalloc.start()
    try:
        frames = run_scenario(s).time_series.frames
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frames.shape == (samples, s.system.dofs)
    assert peak / (8 * samples * s.system.dofs) <= SYSTEM_RUN_PEAK_RATIOS[stride]


#: Traced peak of `run_scenario` on exp5_1 while `frequency_sweep` took |x|
#: of whole windows and its recurrence held every frequency's rows at once.
SWEEP_PEAK_BEFORE = 1.66 * 2**20


def traced_peak(s: Scenario) -> int:
    tracemalloc.start()
    try:
        run_scenario(s)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_system_run_peak_bounded_at_a_stride_of_its_step_count():
    # one block spans every step, so its drive must be tabulated in chunks
    # of a fixed step count: a table over the whole block takes 1.6 MB here
    data = scenario_to_dict(preset("exp5_2"))
    data["time"] = {"start": 0.0, "end": 20.0, "dt": 1e-3}
    data["output"] = {"stride": 20_000}
    s = scenario_from_dict(data)
    assert s.tgrid.step_count == 20_000
    assert traced_peak(s) < 2**18


#: Bytes a sweep may hold per frequency beside its recurrence: the inputs,
#: the two window peaks and the result's points (about 80 measured).
SWEEP_BYTES_PER_FREQUENCY = 256


def test_sweep_peak_within_history_and_recurrence_budget():
    assert traced_peak(preset("exp5_1")) <= SWEEP_PEAK_BEFORE
    # many frequencies, or many steps: the recurrence steps the frequencies in
    # groups within its budget, and the sweep folds their samples into window
    # peaks, so no midspan history (9.8 and 7.7 MiB here) is held
    for field, value in (("f_count", 300), ("settle_periods", 300)):
        data = scenario_to_dict(preset("exp5_1"))
        data["sweep"][field] = value
        s = scenario_from_dict(data)
        allowance = SWEEP_BYTES_PER_FREQUENCY * s.sweep.f_count
        assert traced_peak(s) <= RECURRENCE_BYTES + allowance, field


@pytest.mark.parametrize(
    "make, time, stride",
    [(lambda: scenario_to_dict(preset("exp2_1")), {"end": 10.0, "dt": 1e-5}, 2)],
    ids=["quasi_static"],
)
def test_frames_size_bounded_at_parse(make, time, stride):
    data = make()
    data["time"] = time
    data["output"] = {"stride": 1}
    with pytest.raises(ValidationError) as excinfo:
        parse_dict(data)
    message = str(excinfo.value)
    assert message.startswith("output.stride 1: ")
    assert message.endswith("MiB limit; raise output.stride or lower grid.nodes")
    # an override (beamlab run --stride) is applied before the check
    overridden = parse_scenario(json.dumps(data), stride=stride)
    assert overridden.stride == stride
    assert "output.stride" not in overridden.defaults_applied
    data["output"] = {"stride": stride}
    assert parse_dict(data).stride == stride


@pytest.mark.parametrize(
    "make, time",
    [
        # 1e6 steps x 201 nodes and 1e8 steps x 2 dofs: about 1.5 GiB each
        (dynamic_beam_dict, {"end": 10.0, "dt": 1e-5}),
        (lambda: scenario_to_dict(preset("exp5_2")), {"end": 10.0, "dt": 1e-7}),
        # 1e12 steps, of which a huge stride would record only two
        (lambda: scenario_to_dict(preset("exp5_2")), {"end": 1e9, "dt": 1e-3}),
    ],
    ids=["dynamic_beam", "system", "system_1e12_steps"],
)
def test_dynamic_steps_bounded_at_parse(make, time):
    # every step is computed whatever the stride, so no stride lifts the bound
    data = make()
    data["time"] = time
    for stride in (1, 100, 10**12):
        data["output"] = {"stride": stride}
        with pytest.raises(ValidationError) as excinfo:
            parse_dict(data)
        message = str(excinfo.value)
        assert message.startswith(f"time.dt {time['dt']}: ")
        assert message.endswith("MiB limit; raise time.dt or shorten the time span")
    data["time"] = {"end": 10.0, "dt": 1e-3}
    assert parse_dict(data).tgrid.step_count == 10_000


def test_sweep_points_bounded_at_parse():
    # 128 bytes per frequency point: 8.4 million points fill 1 GiB; parsed
    # only, never run.  No midspan history counts: the sweep holds none.  One
    # settle and one measure period keep the points' 6.5e10 mode-steps within
    # MAX_MODE_STEPS
    limit = MAX_ARRAY_BYTES // 128
    data = scenario_to_dict(preset("exp5_1"))
    data["sweep"].update(settle_periods=1, measure_periods=1)
    data["sweep"]["f_count"] = limit + 1
    with pytest.raises(
        ValidationError,
        match=rf"^sweep\.f_count {limit + 1}: .* MiB limit; lower sweep\.f_count$",
    ):
        parse_dict(data)
    data["sweep"]["f_count"] = limit
    assert parse_dict(data).sweep.f_count == limit


def test_sweep_points_peak_within_parse_bound():
    # the traced peak grows by no more per frequency than the 128 bytes the
    # parse-time limit assumes, once the recurrence's groups are full
    data = scenario_to_dict(preset("exp5_1"))
    peaks = []
    for count in (100, 600):
        data["sweep"]["f_count"] = count
        peaks.append(traced_peak(scenario_from_dict(data)))
    assert (peaks[1] - peaks[0]) / 500 <= 128


def test_sweep_recurrence_bounded_at_parse():
    # every free mode at every frequency over every step: exp5_1's 39 modes
    # and 30 frequencies take 117000 mode-steps per period, so 1e12 allow
    # 8547008 periods in all; parsed only, never run
    assert 117000 * 8547009 > MAX_MODE_STEPS >= 117000 * 8547008
    data = scenario_to_dict(preset("exp5_1"))
    for settle in (10**10, 8546999):
        data["sweep"]["settle_periods"] = settle
        with pytest.raises(
            ValidationError,
            match=rf"^sweep\.settle_periods {settle} \+ sweep\.measure_periods 10 at "
            rf"sweep\.f_count 30: {(settle + 10) * 100} steps of 39 modes at each "
            r"frequency would take \S+ mode-steps, above the 1e\+12 limit; lower the "
            r"settle and measure periods, sweep\.f_count or grid\.nodes$",
        ):
            parse_dict(data)
    data["sweep"]["settle_periods"] = 8546998
    assert parse_dict(data).sweep.settle_periods == 8546998
    # one frequency's rows would take about 1.07 GiB at 3001 nodes and 5e8
    # steps; the work limit refuses them first
    data["grid"] = {"nodes": 3001}
    data["sweep"]["settle_periods"] = 5 * 10**6
    with pytest.raises(
        ValidationError,
        match=r"^sweep\.settle_periods 5000000 \+ sweep\.measure_periods 10 at "
        r"sweep\.f_count 30: 500001000 steps of 2999 modes at each frequency would "
        r"take 4\.50e\+13 mode-steps, above the 1e\+12 limit; lower the settle and "
        r"measure periods, sweep\.f_count or grid\.nodes$",
    ):
        parse_dict(data)


def test_sweep_work_limit_bounds_one_frequencys_rows():
    # the recurrence steps one frequency at the least, whatever its byte
    # budget, and its rows grow with sqrt(steps) and the modes.  At one
    # frequency and both ends held, MAX_MODE_STEPS admits the most steps;
    # counting all n nodes as modes, the rows stay 3% below MAX_ARRAY_BYTES
    # at every grid a sweep admits (1/1.0398 at 3663 nodes), so no byte
    # limit of their own is needed
    largest = math.isqrt(MAX_ARRAY_BYTES // 80)  # the operator's 10 n x n arrays
    data = scenario_to_dict(preset("exp5_1"))
    data["sweep"].update(f_max=0.5, f_count=1, settle_periods=1, measure_periods=1)
    data["grid"] = {"nodes": largest}
    assert parse_dict(data).grid_nodes == largest
    data["grid"] = {"nodes": largest + 1}
    with pytest.raises(ValidationError, match="the dense beam operator"):
        parse_dict(data)
    for n in range(MIN_BEAM_NODES, largest + 1):
        blocks, size = _blocking(MAX_MODE_STEPS // (n - 2), 1)
        assert 1.03 * _frequency_bytes(n, 1, blocks, size, 1) <= MAX_ARRAY_BYTES, n


def test_nonlinear_arrays_bounded_at_parse():
    # about 10 arrays of n doubles: 13.4 million nodes fill 1 GiB; parsed only,
    # never run
    limit = MAX_ARRAY_BYTES // (8 * 10)
    data = scenario_to_dict(preset("exp4"))
    for nodes in (limit + 1, 2_000_000_000):
        data["grid"] = {"nodes": nodes}
        with pytest.raises(
            ValidationError, match=rf"^grid\.nodes {nodes}: .* MiB limit; lower grid\.nodes$"
        ):
            parse_dict(data)
    data["grid"] = {"nodes": limit}
    assert parse_dict(data).grid_nodes == limit


def test_load_curve_bounded_at_parse():
    # 256 bytes per point: 4.2 million points fill 1 GiB; parsed only, never run
    limit = MAX_ARRAY_BYTES // 256
    data = scenario_to_dict(preset("exp4"))
    assert parse_dict(data).load_sweep.count == 25
    data["load_sweep"]["count"] = limit + 1
    with pytest.raises(
        ValidationError,
        match=rf"^load_sweep\.count {limit + 1}: .* MiB limit; lower load_sweep\.count$",
    ):
        parse_dict(data)
    data["load_sweep"]["count"] = limit
    assert parse_dict(data).load_sweep.count == limit


def test_load_curve_peak_within_parse_bound():
    # the traced peak grows by no more per point than the 256 bytes the
    # parse-time limit assumes
    data = scenario_to_dict(preset("exp4"))
    data["grid"] = {"nodes": 21}
    peaks = []
    for count in (200, 1200):
        data["load_sweep"]["count"] = count
        peaks.append(traced_peak(scenario_from_dict(data)))
    assert (peaks[1] - peaks[0]) / 1000 <= 256


@settings(max_examples=300, deadline=None, database=None)
@given(
    p_min=st.floats(1e-3, 1e9),
    ulps=st.one_of(st.integers(0, 400), st.integers(0, 2**40)),
    count=st.integers(1, 80),
)
def test_property_accepted_load_sweep_ascends(p_min, ulps, count):
    # spans of a few ulps per point straddle the refusal; whatever passes
    # must never trip the run's own ascending check
    p_max = p_min + ulps * math.ulp(p_min)
    try:
        spec = LoadSweepSpec(p_min, p_max, count)
    except ValidationError:
        return
    values = spec.values()
    assert values.size == count
    assert np.all(values[1:] > values[:-1])


# One out-of-range field per case: the constructor's message, led by the
# label of the block that holds the field.
@pytest.mark.parametrize(
    "name, keys, value, label",
    [
        ("exp1", ("beam", "length"), -1.0, "'beam': length must be positive"),
        ("exp1", ("beam", "width"), 0.0, "'beam': width"),
        ("exp1", ("beam", "height"), -0.4, "'beam': height"),
        ("exp1", ("beam", "elastic_modulus"), 0.0, "'beam': elastic_modulus"),
        ("exp1", ("beam", "density"), -1.0, "'beam': density"),
        ("exp1", ("loads", 0, "q"), float("inf"), "'loads[0]': udl q must be finite"),
        ("exp3", ("loads", 0, "p"), float("nan"), "'loads[0]': point load p"),
        ("exp2_1", ("loads", 0, "p"), float("inf"), "'loads[0]': moving load p"),
        ("exp2_2", ("loads", 0, "f_hz"), 0.0, "'loads[0]': harmonic load f_hz"),
        ("exp2_2", ("time", "dt"), -0.01, "'time': time dt"),
        ("exp2_2", ("time", "end"), -1.0, "'time': time end"),
        ("exp5_1", ("integrator", "gamma"), 0.4, "'integrator': gamma"),
        ("exp5_1", ("integrator", "beta"), -0.1, "'integrator': beta_nm"),
        (
            "exp5_1",
            ("integrator", "rayleigh", "zeta1"),
            -0.1,
            "integrator.rayleigh.zeta1 must be nonnegative",
        ),
        ("exp4", ("material", "E"), -1.0, "'material': elastic_modulus"),
        ("exp4", ("material", "alpha"), -1.0, "'material': alpha"),
        ("exp4", ("material", "n"), 0.5, "'material': n must exceed 1"),
        ("exp5_1", ("sweep", "f_min"), 0.0, "'sweep': sweep needs 0 < f_min"),
        ("exp5_1", ("sweep", "settle_periods"), 0, "'sweep': sweep periods"),
        ("exp4", ("load_sweep", "p_min"), -1.0, "'load_sweep': load sweep needs"),
        ("exp5_2", ("system", "mass"), 0.0, "'system': system mass"),
        ("exp5_2", ("system", "damping"), -1.0, "'system': system damping"),
        ("exp5_2", ("system", "dofs"), 3, "'system': system dofs"),
        ("exp5_2", ("system", "force", "f_hz"), 0.0, "'system.force': drive frequency"),
        ("exp5_2", ("system", "force", "axis"), "z", "'system.force': drive axis"),
        ("exp1", ("modal_only", "bearing_k"), -1.0, "modal_only.bearing_k must be"),
        (
            "exp1",
            ("bc",),
            {"left": "spring", "right": "pinned", "k": -1.0},
            "'bc': spring stiffness must be positive",
        ),
    ],
)
def test_constructor_errors_name_their_block(name, keys, value, label):
    data = scenario_to_dict(preset(name))
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(data)
    assert str(excinfo.value).startswith(label)


# Each solver function a run calls through beamlab.scenario, with a scenario
# that calls it.  Wrappers set on that module must be seen at call time, as
# the benchmark's spans patch the same names.
@pytest.mark.parametrize(
    "name, data",
    [
        ("static_fd_solve", edited("exp1")),
        ("quasi_static_moving", edited("exp2_1", time=_SHORT)),
        ("quasi_static_sinusoidal", edited("exp2_2", time=_SHORT)),
        ("beam_time_response", short_dynamic_beam_dict()),
        ("frequency_sweep", small_sweep_dict()),
        ("solve_modes", modal_dict()),
        ("find_beta_roots", small_sweep_dict()),
        ("linear_vs_nonlinear_curve", edited("exp4")),
        ("nonlinear_cantilever_deflection", edited("exp4")),
        ("modal_harmonic_response", edited("exp5_2", time=_SHORT)),
    ],
)
def test_runs_call_solvers_through_module_globals(monkeypatch, name, data):
    original = getattr(beamlab.scenario, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(beamlab.scenario, name, wrapper)
    run_scenario(scenario_from_dict(data))
    assert calls


def test_run_scenario_rejects_unvalidated_loads(ref_beam):
    with pytest.raises(ValidationError):
        Scenario(
            name="bad",
            solver="static",
            beam=ref_beam,
            bc=BoundarySpec.pinned_pinned(),
            loads=(UdlLoad(q=1.0), HarmonicPointLoad(1.0, 1.0, 5.0)),
        )


# ------------------------------------------------------ schema properties

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, database=None)

POSITIVE = st.floats(min_value=1e-3, max_value=1e6)
NONNEGATIVE = st.floats(min_value=0.0, max_value=1e6)
FINITE = st.floats(min_value=-1e6, max_value=1e6)

#: Leaves that stay valid for any value of their strategy, in every preset.
#: Rayleigh damping is free only on beam runs, and probes on the runs that
#: read them.  A point load stays nonnegative, as a nonlinear run needs.
FREE_LEAVES = {
    ("name",): st.text(min_size=1, max_size=12),
    ("beam", "width"): POSITIVE,
    ("beam", "height"): POSITIVE,
    ("beam", "elastic_modulus"): POSITIVE,
    ("beam", "density"): POSITIVE,
    ("loads", 0, "q"): FINITE,
    ("loads", 0, "p"): NONNEGATIVE,
    ("loads", 0, "p0"): FINITE,
    ("loads", 0, "speed"): NONNEGATIVE,
    ("loads", 0, "f_hz"): POSITIVE,
    ("grid", "nodes"): st.integers(min_value=MIN_BEAM_NODES, max_value=500),
    ("material", "alpha"): NONNEGATIVE,
    ("sweep", "settle_periods"): st.integers(min_value=1, max_value=60),
    ("sweep", "measure_periods"): st.integers(min_value=1, max_value=60),
    ("system", "mass"): POSITIVE,
    ("system", "damping"): NONNEGATIVE,
    ("system", "stiffness"): POSITIVE,
    ("system", "force", "amplitude"): FINITE,
    ("system", "force", "f_hz"): POSITIVE,
    ("modal_only", "bearing_k"): POSITIVE,
    ("output", "stride"): st.integers(min_value=1, max_value=20),
    ("notes",): st.lists(st.text(max_size=20), max_size=3),
}

#: Optional keys, and the defaults their omission records (see README).
OPTIONAL = {
    ("loads", 0, "x0"): {("loads", 0, "x0"): 0.0},
    ("grid",): {("grid", "nodes"): 201},
    ("time", "start"): {("time", "start"): 0.0},
    ("integrator",): {
        ("integrator", "gamma"): 0.5,
        ("integrator", "beta"): 0.25,
        ("integrator", "rayleigh", "zeta1"): 0.0,
    },
    ("integrator", "gamma"): {("integrator", "gamma"): 0.5},
    ("integrator", "beta"): {("integrator", "beta"): 0.25},
    ("integrator", "rayleigh"): {("integrator", "rayleigh", "zeta1"): 0.0},
    ("sweep", "settle_periods"): {("sweep", "settle_periods"): 30},
    ("sweep", "measure_periods"): {("sweep", "measure_periods"): 10},
    ("system", "force", "axis"): {("system", "force", "axis"): "x"},
    ("modal_only",): {},
    ("probes",): {("probes",): []},
    ("output",): {("output", "stride"): 1},
    ("output", "stride"): {("output", "stride"): 1},
    ("notes",): {},
}


def dotted(keys) -> str:
    out = ""
    for key in keys:
        out += f"[{key}]" if isinstance(key, int) else f".{key}" if out else key
    return out


def lookup(data, keys):
    for key in keys:
        data = data[key]
    return data


def has(data, keys) -> bool:
    try:
        lookup(data, keys)
    except (KeyError, IndexError):
        return False
    return True


def nodes(data, keys=()):
    """Every (keys, value) pair in a decoded JSON tree, root first."""
    yield keys, data
    if isinstance(data, dict):
        children = data.items()
    elif isinstance(data, list):
        children = enumerate(data)
    else:
        children = ()
    for key, value in children:
        yield from nodes(value, keys + (key,))


@st.composite
def mutated_presets(draw):
    """A valid scenario dict from a preset, plus the defaults it should record.

    Free leaves get random values and optional keys are dropped at random.
    """
    data = scenario_to_dict(preset(draw(st.sampled_from(PRESET_NAMES))))
    for keys, values in FREE_LEAVES.items():
        if has(data, keys) and draw(st.booleans()):
            lookup(data, keys[:-1])[keys[-1]] = draw(values)
    if "beam" in data and "integrator" in data:
        data["integrator"]["rayleigh"]["zeta1"] = draw(st.floats(0.0, 1.0))
    if "probes" in data:
        span = st.floats(min_value=0.0, max_value=data["beam"]["length"])
        data["probes"] = draw(st.lists(span, max_size=3))
    omitted = [keys for keys in OPTIONAL if has(data, keys) and draw(st.booleans())]
    expected = {}
    for keys in sorted(omitted, key=len, reverse=True):
        del lookup(data, keys[:-1])[keys[-1]]
        expected.update(OPTIONAL[keys])
    return data, expected


@PROPERTY_SETTINGS
@given(mutated_presets())
def test_property_round_trip(case):
    data, _ = case
    s = scenario_from_dict(data)
    again = parse_scenario(scenario_to_json(s))
    assert again == s
    assert scenario_to_dict(again) == scenario_to_dict(s)


@PROPERTY_SETTINGS
@given(mutated_presets())
def test_property_omitted_fields_record_defaults(case):
    data, expected = case
    s = scenario_from_dict(data)
    assert s.defaults_applied == {dotted(k): v for k, v in expected.items()}
    resolved = scenario_to_dict(s)
    for keys, value in expected.items():
        assert lookup(resolved, keys) == value


@PROPERTY_SETTINGS
@given(mutated_presets(), st.data())
def test_property_unknown_key_names_its_path(case, draw):
    data, _ = case
    blocks = [keys for keys, node in nodes(data) if isinstance(node, dict)]
    keys = draw.draw(st.sampled_from(blocks))
    name = "unknown_" + draw.draw(st.text("abc123", max_size=4))
    lookup(data, keys)[name] = 1.0
    message = f"unknown field(s): {dotted(keys + (name,))}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        scenario_from_dict(data)


@PROPERTY_SETTINGS
@given(mutated_presets())
def test_property_only_blocks_the_run_reads_are_recorded_and_written(case):
    data, _ = case
    s = scenario_from_dict(data)
    reads = READS[kind_of(data)] | {"name", "solver", "notes"}
    assert {re.split(r"[.\[]", key)[0] for key in s.defaults_applied} <= reads
    assert set(scenario_to_dict(s)) - {"schema"} <= reads


WRONG_TYPE = {
    float: st.one_of(st.text(max_size=3), st.booleans(), st.none(), st.just([])),
    int: st.one_of(st.floats(allow_nan=False), st.text(max_size=3), st.booleans()),
    str: st.one_of(st.integers(), st.floats(allow_nan=False), st.none(), st.just({})),
    list: st.one_of(st.just({}), st.integers(), st.text(max_size=3), st.none()),
    dict: st.one_of(st.just([]), st.integers(), st.text(max_size=3), st.none()),
}


@PROPERTY_SETTINGS
@given(mutated_presets(), st.data())
def test_property_wrong_type_names_its_path(case, draw):
    data, _ = case
    leaves = [keys for keys, _ in nodes(data) if keys]
    keys = draw.draw(st.sampled_from(leaves))
    lookup(data, keys[:-1])[keys[-1]] = draw.draw(WRONG_TYPE[type(lookup(data, keys))])
    with pytest.raises(ValidationError) as info:
        scenario_from_dict(data)
    assert dotted(keys) in str(info.value)
