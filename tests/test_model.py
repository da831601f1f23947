import math

import numpy as np
import pytest

from beamlab import (
    BeamSpec,
    EndCondition,
    HarmonicPointLoad,
    MovingPointLoad,
    PointLoad,
    SpatialGrid,
    StaticProfile,
    TimeGrid,
    TimeSeriesResult,
    UdlLoad,
    ValidationError,
    derive_section,
)
from beamlab import model


class TestDeriveSection:
    def test_reference_beam_values(self, ref_beam):
        sec = derive_section(ref_beam)
        assert sec.second_moment == pytest.approx(0.2 * 0.4**3 / 12.0, rel=1e-12)
        assert sec.second_moment == pytest.approx(1.066667e-3, rel=1e-6)
        assert sec.area == pytest.approx(0.08, rel=1e-12)
        assert sec.mass_per_length == pytest.approx(200.0, rel=1e-12)
        assert sec.flexural_rigidity == pytest.approx(2.6667e7, rel=1e-4)
        assert sec.wave_coefficient == pytest.approx(365.148, rel=1e-5)

    def test_unit_second_moment(self):
        # width 1, height 12^(1/3) makes b*h^3/12 collapse to 1.
        beam = BeamSpec(1.0, 1.0, 12.0 ** (1.0 / 3.0), 1.0, 1.0)
        assert derive_section(beam).second_moment == pytest.approx(1.0, rel=1e-12)

    def test_doubling_modulus_scales_rigidity_only(self, ref_beam):
        sec = derive_section(ref_beam)
        stiff = BeamSpec(
            ref_beam.length,
            ref_beam.width,
            ref_beam.height,
            2.0 * ref_beam.elastic_modulus,
            ref_beam.density,
        )
        sec2 = derive_section(stiff)
        assert sec2.flexural_rigidity == pytest.approx(2.0 * sec.flexural_rigidity, rel=1e-15)
        assert sec2.wave_coefficient == pytest.approx(math.sqrt(2.0) * sec.wave_coefficient, rel=1e-14)
        assert sec2.second_moment == sec.second_moment
        assert sec2.area == sec.area
        assert sec2.mass_per_length == sec.mass_per_length

    def test_pure_function(self, ref_beam):
        assert derive_section(ref_beam) == derive_section(ref_beam)

    @pytest.mark.parametrize(
        "field", ["length", "width", "height", "elastic_modulus", "density"]
    )
    def test_nonpositive_field_rejected(self, field):
        kwargs = dict(length=10.0, width=0.2, height=0.4, elastic_modulus=25e9, density=2500.0)
        kwargs[field] = 0.0
        with pytest.raises(ValidationError, match=field):
            BeamSpec(**kwargs)

    def test_section_property_matches_function(self, ref_beam):
        assert ref_beam.section == derive_section(ref_beam)

    def test_section_derived_once_at_construction(self, monkeypatch):
        beam, twin = (BeamSpec(10.0, 0.2, 0.4, 25e9, 2500.0) for _ in range(2))

        def unreachable(beam):
            raise AssertionError("the section was derived again")

        monkeypatch.setattr(model, "derive_section", unreachable)
        assert beam.section is beam.section
        assert beam == twin and hash(beam) == hash(twin)


class TestEndCondition:
    def test_spring_requires_stiffness(self):
        with pytest.raises(ValidationError, match="stiffness"):
            EndCondition("spring")

    def test_spring_stiffness_positive(self):
        with pytest.raises(ValidationError):
            EndCondition.spring(-5.0)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            EndCondition("hinged")

    def test_pinned_takes_no_stiffness(self):
        with pytest.raises(ValidationError):
            EndCondition("pinned", stiffness=1e3)

    def test_constraint_counts(self):
        assert EndCondition.clamped().constraint_count == 2
        assert EndCondition.pinned().constraint_count == 1
        assert EndCondition.spring(1e3).constraint_count == 1
        assert EndCondition.free().constraint_count == 0


class TestLoads:
    def test_point_load_negative_position(self):
        with pytest.raises(ValidationError, match="position"):
            PointLoad(1e4, -0.5)

    def test_harmonic_needs_positive_frequency(self):
        with pytest.raises(ValidationError, match="f_hz"):
            HarmonicPointLoad(1e3, 0.0, 5.0)

    def test_moving_load_negative_speed(self):
        with pytest.raises(ValidationError, match="speed"):
            MovingPointLoad(1e4, -1.0)

    def test_udl_must_be_finite(self):
        with pytest.raises(ValidationError):
            UdlLoad(float("nan"))


class TestGrids:
    def test_spatial_grid_endpoints(self, ref_beam):
        grid = SpatialGrid.for_beam(ref_beam, 201)
        xs = grid.positions
        assert xs[0] == 0.0
        assert xs[-1] == ref_beam.length
        np.testing.assert_allclose(np.diff(xs), grid.spacing, rtol=1e-12)

    def test_midspan_node_exact(self, ref_beam):
        grid = SpatialGrid.for_beam(ref_beam, 201)
        idx = grid.nearest_node(5.0)
        assert idx == 100
        assert grid.positions[idx] == 5.0

    @pytest.mark.parametrize("position", [-0.5, 10.5])
    def test_nearest_node_refuses_positions_off_the_span(self, position):
        with pytest.raises(
            ValidationError, match=rf"^position {position} outside beam span \[0, 10\.0\]$"
        ):
            SpatialGrid(10.0, 5).nearest_node(position)

    def test_labels_round_trip_positions(self, ref_beam):
        assert SpatialGrid(10.0, 5).labels == ("x=0.0", "x=2.5", "x=5.0", "x=7.5", "x=10.0")
        grid = SpatialGrid.for_beam(ref_beam, 201)
        parsed = [float(label.removeprefix("x=")) for label in grid.labels]
        np.testing.assert_array_equal(parsed, grid.positions)

    def test_too_few_nodes(self):
        with pytest.raises(ValidationError, match="node_count"):
            SpatialGrid(10.0, 4)

    def test_time_grid_step_count(self):
        tg = TimeGrid(0.0, 15.0, 0.05)
        assert tg.step_count == 300
        assert tg.times.size == 301
        assert tg.times[0] == 0.0
        assert tg.times[-1] == pytest.approx(15.0, abs=1e-12)

    def test_time_grid_sample_times(self):
        tg = TimeGrid(0.0, 15.0, 0.05)
        np.testing.assert_array_equal(tg.sample_times(7), tg.times[::7])
        with pytest.raises(ValidationError, match="stride"):
            tg.sample_times(0)

    def test_time_grid_rejects_reversed_range(self):
        with pytest.raises(ValidationError, match="end"):
            TimeGrid(1.0, 1.0, 0.1)

    def test_time_grid_rejects_bad_dt(self):
        with pytest.raises(ValidationError, match="dt"):
            TimeGrid(0.0, 1.0, -0.1)

    @pytest.mark.parametrize("end,dt", [(1.0, 0.4), (0.01, 1.0)])
    def test_time_grid_rejects_partial_step(self, end, dt):
        # both used to run silently: to t=0.8, and past the end to t=1.0
        with pytest.raises(ValidationError, match="whole number"):
            TimeGrid(0.0, end, dt)

    def test_time_grid_tolerates_rounding_in_span(self):
        assert 0.3 / 0.1 != 3.0
        assert TimeGrid(0.0, 0.3, 0.1).step_count == 3


class TestResults:
    def test_static_profile_shape_checked(self, ref_beam):
        grid = SpatialGrid.for_beam(ref_beam, 11)
        with pytest.raises(ValidationError, match="shape"):
            StaticProfile(grid, np.zeros(7))

    def test_static_profile_finite_checked(self, ref_beam):
        grid = SpatialGrid.for_beam(ref_beam, 11)
        bad = np.zeros(11)
        bad[3] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            StaticProfile(grid, bad)

    def test_static_profile_immutable(self, ref_beam):
        grid = SpatialGrid.for_beam(ref_beam, 11)
        prof = StaticProfile(grid, np.zeros(11))
        with pytest.raises(ValueError):
            prof.deflection[0] = 1.0

    def test_results_keep_float_arrays_and_convert_others(self, ref_beam):
        # a float64 array is kept as given and made read-only, not copied
        grid = SpatialGrid.for_beam(ref_beam, 11)
        deflection = np.zeros(11)
        times, frames = np.arange(3.0), np.ones((3, 2))
        profile = StaticProfile(grid, deflection)
        series = TimeSeriesResult(times, frames, ("x", "y"))
        assert profile.deflection is deflection
        assert series.times is times and series.frames is frames
        # each probe history is a view of its frame column
        assert series.probes[0].base is frames
        for array in (deflection, times, frames, series.probes[0]):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2.0
        # other dtypes and lists are converted to new float64 arrays
        counts = np.arange(3)
        series = TimeSeriesResult(counts, [[1, 2]] * 3, ("x", "y"))
        assert series.times.dtype == series.frames.dtype == series.probes[1].dtype == float
        assert series.times is not counts and counts.flags.writeable
        assert not series.frames.flags.writeable and not series.probes[1].flags.writeable
        profile = StaticProfile(grid, list(range(11)))
        assert profile.deflection.dtype == float and not profile.deflection.flags.writeable

    def test_time_series_row_count_invariant(self):
        with pytest.raises(ValidationError, match="frames"):
            TimeSeriesResult(np.arange(5.0), np.zeros((4, 3)), ("a", "b", "c"))

    @pytest.mark.parametrize("field", ["times", "frames"])
    def test_time_series_refuses_non_finite_values(self, field):
        arrays = {"times": np.arange(3.0), "frames": np.ones((3, 2))}
        arrays[field][-1] = math.nan
        with pytest.raises(ValidationError, match="^time series contains non-finite values$"):
            TimeSeriesResult(arrays["times"], arrays["frames"], ("x", "y"))

    def test_time_series_probe_length_checked(self):
        # one history per frame column, each one entry per sample time
        res = TimeSeriesResult(np.arange(5.0), np.arange(15.0).reshape(5, 3), ("a", "b", "c"))
        assert len(res.probes) == 3
        for idx, history in enumerate(res.probes):
            assert history.shape == (5,)
            np.testing.assert_array_equal(history, res.frames[:, idx])
        with pytest.raises(AttributeError):
            res.probes = {}

    def test_time_series_accepts_consistent_data(self):
        res = TimeSeriesResult(np.arange(3.0), np.ones((3, 2)), ["x", "y"])
        assert res.frames.shape == (3, 2)
        assert res.columns == ("x", "y")

    @pytest.mark.parametrize("columns", [(), ("x",), ("x", "y", "z"), ("x", 2)])
    def test_time_series_columns_checked(self, columns):
        with pytest.raises(ValidationError, match="columns must be 2 strings"):
            TimeSeriesResult(np.arange(3.0), np.ones((3, 2)), columns)
