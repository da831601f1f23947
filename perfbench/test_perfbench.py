"""Tests of the benchmark itself: checking, seeding and span accounting.

    python3 -m pytest perfbench
"""

import json
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import run  # first: it pins OpenBLAS to one thread before numpy loads
import hostspeed
import oracles
import spans
import workloads


@pytest.fixture(scope="module")
def beamlab():
    assert run.add_source_path()
    return run.import_beamlab()


def _ops(beamlab, workload, seed, names=None):
    ops = workloads.build_ops(beamlab, workload, seed)
    return [op for op in ops if names is None or op.name in names]


def _checked_first_pass(beamlab, work, names=("exp1", "modal3")):
    ops = _ops(beamlab, "presets", 0, names)
    workloads.write_inputs(ops, work)
    checker = run.Checker(work)
    checker.add_pass(run.run_pass(beamlab, ops, work)[1])
    return ops, checker


def test_clean_passes_have_no_failures(beamlab, tmp_path):
    ops, checker = _checked_first_pass(beamlab, tmp_path)
    checker.add_pass(run.run_pass(beamlab, ops, tmp_path)[1])
    reference = json.loads((Path(run.__file__).parent / "reference.json").read_text())
    checker.finish(reference["presets"])
    assert (checker.attempted, checker.failed) == (4, 0)


def test_changed_byte_fails_the_pass(beamlab, tmp_path):
    ops, checker = _checked_first_pass(beamlab, tmp_path)
    _, outcomes = run.run_pass(beamlab, ops, tmp_path)
    frames = ops[0].out_dir(tmp_path) / "frames.csv"
    data = bytearray(frames.read_bytes())
    data[-3] ^= 1  # one digit of the last value, still a valid number
    frames.write_bytes(bytes(data))
    outcomes = [
        run.Outcome(o.op, o.error, o.stdout, *run.fingerprint(o.op, tmp_path, o.stdout))
        for o in outcomes
    ]
    checker.add_pass(outcomes)
    checker.finish(None)
    assert (checker.attempted, checker.failed) == (4, 1)
    assert "differ from the first pass" in checker.failures[0]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text.replace("\n", "\nnot,a,number\n", 1),
        lambda text: text.rsplit(",", 1)[0] + "\n",
        # a well-formed value near midspan moved by about half a percent
        lambda text: text.replace(",0.024", ",0.02425", 1),
    ],
)
def test_corrupted_csv_fails_the_oracle(beamlab, tmp_path, corrupt):
    ops, checker = _checked_first_pass(beamlab, tmp_path)
    frames = tmp_path / "first" / "out" / "exp1" / "frames.csv"
    text = frames.read_text()
    assert corrupt(text) != text
    frames.write_text(corrupt(text))
    checker.finish(None)
    assert checker.failed == 1 and checker.failed / checker.attempted == 0.5


def _traced(beamlab, workload, seed, work):
    ops = _ops(beamlab, workload, seed)
    workloads.write_inputs(ops, work)
    watch, outcomes, tracer, absent = run.traced_pass(beamlab, ops, work)
    assert absent == [] and all(o.error is None for o in outcomes)
    summary = spans.summarize(tracer.spans)
    return ops, watch.wall_s, summary, run.layer_metrics(summary, tracer.counts, outcomes)


@pytest.mark.parametrize("workload", ["presets", "beam_large"])
def test_seeds_change_inputs_not_work_size(beamlab, tmp_path, workload):
    ops1, _, _, layers1 = _traced(beamlab, workload, 1, tmp_path / "a")
    ops2, _, _, layers2 = _traced(beamlab, workload, 2, tmp_path / "b")
    assert [op.scenario for op in ops1] != [op.scenario for op in ops2]
    for name in ("dynamics.steps", "output.cells", "dynamics.integrate_calls"):
        assert layers1[name] == layers2[name] > 0


def test_sweep_seeds_keep_step_counts(beamlab):
    seed0 = _ops(beamlab, "sweep", 0)[0].scenario
    for seed in range(1, 20):
        s = _ops(beamlab, "sweep", seed)[0].scenario
        assert s["sweep"] != seed0["sweep"]
        assert s["grid"] == seed0["grid"]
        for key in ("f_count", "settle_periods", "measure_periods"):
            assert s["sweep"][key] == seed0["sweep"][key]
        assert s["sweep"]["f_min"] > 0.0


def test_self_times_sum_within_wall(beamlab, tmp_path):
    _, wall, summary, layers = _traced(beamlab, "presets", 1, tmp_path)
    self_total = sum(entry["self_s"] for entry in summary.values())
    assert 0.0 < self_total <= wall
    assert all(entry["self_s"] >= 0.0 for entry in summary.values())
    assert summary["cli.main"]["calls"] == 8
    assert layers["dynamics.steps"] == 10000


def test_summarize_subtracts_direct_children():
    records = [
        (2, 1, 1, "child", 1.0, 3.0),
        (3, 2, 1, "grandchild", 1.5, 2.0),
        (1, 0, 1, "root", 0.0, 10.0),
    ]
    summary = spans.summarize(records)
    assert summary["root"]["self_s"] == 8.0
    assert summary["child"]["self_s"] == 1.5
    assert summary["grandchild"] == {"calls": 1, "total_s": 0.5, "self_s": 0.5}


def test_missing_boundary_is_reported_absent(beamlab, monkeypatch):
    monkeypatch.setattr(
        spans, "BOUNDARIES", spans.BOUNDARIES + (("dynamics", "no_such_name", "x"),
                                                 ("no_such_module", "f", "y"))
    )
    original = beamlab.cli.run_scenario
    with spans.installed(spans.Tracer()) as absent:
        assert beamlab.cli.run_scenario is not original
    assert absent == ["dynamics.no_such_name", "no_such_module.f"]
    assert beamlab.cli.run_scenario is original


def test_refuses_to_run_without_sources(tmp_path):
    here = Path(__file__).parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "presets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_stopwatch_scales_wall_time_by_host_speed():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Stopwatch() as watch:
        deadline = perf_counter() + 0.35
        while perf_counter() < deadline:
            pass
    # one sample before, at least two from the timer, one after
    assert len(watch.samples) >= 4
    inside = sum(watch.samples[1:-1])
    assert watch.speed == hostspeed.NOMINAL_KERNEL_S / statistics.median(watch.samples)
    assert watch.scaled_s == pytest.approx((watch.wall_s - inside) * watch.speed)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_stopwatch_without_sampling_keeps_wall_time():
    with hostspeed.Stopwatch(sample=False) as watch:
        pass
    assert watch.samples == [] and watch.speed is None
    assert watch.scaled_s == watch.wall_s > 0.0


def test_clamped_free_roots_match_tabulated_values():
    roots = oracles.clamped_free_roots(3)
    for got, want in zip(roots, (1.875104069, 4.694091133, 7.854757438)):
        assert abs(got - want) < 1e-8
