"""beamlab benchmark: scenario files in, CSV files out, through the CLI.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; beamlab is imported from its `src/`.
Each pass invokes `beamlab.cli.main` in this process once per scenario file of
the workload, single-threaded: sweep_workers keeps its default of 1 and
OpenBLAS runs one thread.  Passes repeat until `--seconds` is spent (at least
three).  Times are scaled to a nominal host speed by `hostspeed.Stopwatch`;
the report line gives the raw wall times too.  Every pass is checked:
an operation fails on a non-zero exit, an exception, output bytes that differ
from the first pass, or a miss against the oracles in `oracles.py`.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1`, untraced and traced passes alternate and it carries the per-layer
metrics from `spans.py`.  The lines before it report the machine, quartiles,
sample counts and any failure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# One BLAS thread: on a 2-vCPU host a second one made beam_large twice as
# noisy and no faster.  Set before oracles imports numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name == "output.bytes":
        return "B"
    if name == "error_rate":
        return "ratio"
    return "count"


def add_source_path() -> bool:
    """Put the checkout's src/ first on sys.path; False if it holds no beamlab."""
    if not (SRC / "beamlab" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def import_beamlab():
    import beamlab
    import beamlab.cli

    if Path(beamlab.__file__).resolve().parent != SRC / "beamlab":
        raise ImportError(f"beamlab imported from {beamlab.__file__}, not {SRC}")
    return beamlab


# ---- one pass ----------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """What one operation of one pass produced."""

    op: workloads.Op
    error: str | None
    stdout: str
    digest: str
    bytes: int
    cells: int


def invoke(beamlab, op, work: Path) -> tuple[str | None, str]:
    """Run one CLI operation; returns (error or None, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = beamlab.cli.main(op.argv(work))
    except SystemExit as exc:
        return f"exited with {exc.code}: {err.getvalue().strip()}", out.getvalue()
    except Exception as exc:  # an operation that raises counts as failed
        return f"raised {exc!r}", out.getvalue()
    if code != 0:
        return f"exit code {code}: {err.getvalue().strip()}", out.getvalue()
    return None, out.getvalue()


def fingerprint(op, work: Path, stdout: str) -> tuple[str, int, int]:
    """(sha256 of every output byte, bytes written to disk, CSV fields written)."""
    digest = hashlib.sha256(stdout.encode("utf-8"))
    nbytes = cells = 0
    out = op.out_dir(work)
    paths = sorted(out.iterdir()) if out.is_dir() else []
    for path in paths:
        data = path.read_bytes()
        digest.update(path.name.encode("utf-8") + b"\0" + data + b"\0")
        nbytes += len(data)
        if path.suffix == ".csv":
            cells += data.count(b",") + data.count(b"\n")
    return digest.hexdigest(), nbytes, cells


def run_pass(beamlab, ops, work: Path, scale: bool = False):
    """Time one pass over every operation; fingerprint outputs afterwards.

    Returns the pass's `hostspeed.Stopwatch` and the outcomes.  With `scale`
    the stopwatch samples the host's speed, so `scaled_s` is set.
    """
    shutil.rmtree(work / "out", ignore_errors=True)
    gc.collect()  # start every pass with the same collector state
    results = []
    with hostspeed.Stopwatch(sample=scale) as watch:
        for op in ops:
            results.append((op, *invoke(beamlab, op, work)))
    outcomes = [Outcome(op, error, stdout, *fingerprint(op, work, stdout))
                for op, error, stdout in results]
    return watch, outcomes


# ---- checking ----------------------------------------------------------------


class Checker:
    """Counts attempted and failed operations across passes.

    The first pass's outputs are kept under `first/` and checked against the
    oracles (and, for seed 0, the stored reference) once all passes are done,
    so parsing them does not raise the measured peak memory.  Later passes
    must reproduce the first pass byte for byte.
    """

    def __init__(self, work: Path):
        self.work = work
        self.passes = 0
        self.first: dict[str, Outcome] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self._clean_passes: dict[str, int] = {}

    def add_pass(self, outcomes: list[Outcome]) -> None:
        keep = self.passes == 0
        self.passes += 1
        for o in outcomes:
            self.attempted += 1
            name = o.op.name
            if o.error is not None:
                self.failures.append(f"{name}: {o.error}")
            elif keep:
                self.first[name] = o
                self._clean_passes[name] = 1
            elif name not in self.first or o.digest != self.first[name].digest:
                self.failures.append(f"{name}: output bytes differ from the first pass")
            else:
                self._clean_passes[name] += 1
        if keep and (self.work / "out").exists():
            (self.work / "first").mkdir()
            shutil.move(str(self.work / "out"), str(self.work / "first" / "out"))

    def finish(self, reference: dict | None) -> None:
        """Check the first pass's outputs; a miss fails every pass that matched it."""
        for name, o in self.first.items():
            try:
                tables = oracles.load_outputs(o.op, self.work / "first", o.stdout)
                oracles.check_oracle(o.op, tables)
                if reference is not None:
                    oracles.check_reference(o.op, tables, reference)
            except oracles.OracleMiss as exc:
                self.failures += [f"{name}: {exc}"] * self._clean_passes[name]

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---- set-up --------------------------------------------------------------------


def setup_probe(workload: str, seed: int, work: Path) -> hostspeed.Stopwatch:
    """Time importing beamlab and writing the workload's scenario files.

    Runs in a fresh interpreter (see `measure_setup`), so the import is cold
    in the same way a user's first command is.
    """
    with hostspeed.Stopwatch() as watch:
        beamlab = import_beamlab()
        workloads.write_inputs(workloads.build_ops(beamlab, workload, seed), work)
    return watch


def measure_setup(workload: str, seed: int, work: Path) -> list[tuple[float, float]]:
    """(wall, scaled) set-up seconds from SETUP_SAMPLES child interpreters,
    one after another."""
    samples = []
    for i in range(SETUP_SAMPLES):
        probe_dir = work / f"setup{i}"
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-probe", str(probe_dir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        shutil.rmtree(probe_dir, ignore_errors=True)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        wall, scaled = done.stdout.split()[-2:]
        samples.append((float(wall), float(scaled)))
    return samples


# ---- machine and library block -------------------------------------------------


def _openblas_threads(module) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy or scipy, if found."""
    import ctypes

    libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_block() -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "numpy_openblas_threads": _openblas_threads(numpy),
        "scipy_openblas_threads": _openblas_threads(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


# ---- metrics -----------------------------------------------------------------


def layer_metrics(summary: dict, counts, outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer values of one traced pass."""

    def stat(name, key):
        return summary.get(name, {}).get(key, 0.0)

    def total(name):
        return stat(name, "total_s")

    def calls(name):
        return stat(name, "calls")

    steps = counts["dynamics.steps"]
    write_s = total("output.write")
    written = sum(o.bytes for o in outcomes)
    return {
        "dynamics.integrate_s": total("dynamics.integrate"),
        "dynamics.integrate_calls": calls("dynamics.integrate"),
        "dynamics.steps": steps,
        "dynamics.step_us": 1e6 * total("dynamics.integrate") / steps if steps else 0.0,
        "dynamics.force_s": total(spans.FORCE_SPAN),
        "dynamics.force_calls": calls(spans.FORCE_SPAN),
        "dynamics.discretize_s": total("dynamics.discretize"),
        "dynamics.discretize_calls": calls("dynamics.discretize"),
        "dynamics.eig_s": total("dynamics.eig"),
        "dynamics.eig_calls": calls("dynamics.eig"),
        "dynamics.sweep_s": total("dynamics.sweep"),
        "dynamics.sweep_points": counts["dynamics.sweep_points"],
        "statics.assemble_s": total("statics.assemble"),
        "statics.assemble_calls": calls("statics.assemble"),
        "statics.solve_s": stat("statics.solve", "self_s"),
        "statics.quasi_static_s": total("statics.quasi_static"),
        "output.write_s": write_s,
        "output.bytes": written,
        "output.cells": sum(o.cells for o in outcomes),
        "output.mb_per_s": written / write_s / 1e6 if write_s else 0.0,
        "scenario.parse_s": total("scenario.parse"),
        "scenario.parse_calls": calls("scenario.parse"),
        "scenario.run_self_s": stat("scenario.run", "self_s"),
        "cli.self_s": stat("cli.main", "self_s"),
        "modal.roots_s": total("modal.roots"),
        "modal.det_evals": calls("modal.det"),
        "modal.solve_modes_s": total("modal.solve_modes"),
        "material.curve_s": total("material.curve"),
        "material.cantilever_calls": calls("material.cantilever"),
    }


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"p25": q[0], "median": statistics.median(values), "p75": q[2], "n": len(values)}


def traced_pass(beamlab, ops, work: Path):
    tracer = spans.Tracer()
    with spans.installed(tracer) as absent:
        watch, outcomes = run_pass(beamlab, ops, work)
    return watch, outcomes, tracer, absent


def measure(beamlab, ops, work: Path, seconds: float, trace: bool, checker: Checker):
    """Run passes until `seconds` are spent; alternate traced passes if `trace`.

    Untraced passes are scaled to the nominal host speed unless `trace`: the
    speed samples would land inside the spans, and the tracing overhead
    compares raw traced and untraced walls.
    """
    watches, traced_walls, traces, absent = [], [], [], []
    start = perf_counter()
    while True:
        if trace and len(watches) > len(traced_walls):
            watch, outcomes, tracer, absent = traced_pass(beamlab, ops, work)
            traced_walls.append(watch.wall_s)
            summary = spans.summarize(tracer.spans)
            traces.append((layer_metrics(summary, tracer.counts, outcomes), summary))
        else:
            watch, outcomes = run_pass(beamlab, ops, work, scale=not trace)
            watches.append(watch)
        checker.add_pass(outcomes)
        done = len(watches) + len(traced_walls)
        typical = statistics.median([w.wall_s for w in watches] + traced_walls)
        if done >= MIN_PASSES and perf_counter() - start + typical > seconds:
            return watches, traced_walls, traces, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not add_source_path():
        print(f"error: no beamlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        watch = setup_probe(args.workload, args.seed, Path(args.setup_probe))
        print(watch.wall_s, watch.scaled_s)
        return 0

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _benchmark(args, work: Path) -> int:
    setup = measure_setup(args.workload, args.seed, work)
    beamlab = import_beamlab()
    ops = workloads.build_ops(beamlab, args.workload, args.seed)
    workloads.write_inputs(ops, work)

    checker = Checker(work)
    watches, traced_walls, traces, absent = measure(
        beamlab, ops, work, args.seconds, bool(args.trace), checker
    )
    walls = [w.wall_s for w in watches]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = None
    if args.seed == 0:
        reference = json.loads((Path(__file__).parent / "reference.json").read_text())
        reference = reference[args.workload]
    checker.finish(reference)

    report = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload],
        "seed": args.seed,
        "operations": [op.name for op in ops],
        "machine": machine_block(),
        "raw_wall_s": quartiles(walls),
        "raw_setup_s": quartiles([wall for wall, _ in setup]),
        "setup_s": quartiles([scaled for _, scaled in setup]),
        "failures": checker.failures[:20],
    }
    if args.trace:
        values = {name: statistics.median(layers[name] for layers, _ in traces)
                  for name in traces[0][0]}
        traced = statistics.median(traced_walls)
        values["error_rate"] = checker.failed / checker.attempted
        values["trace.wall_s"] = traced
        values["trace.overhead_s"] = traced - statistics.median(walls)
        values["trace.absent"] = len(absent)
        report["traced_wall_s"] = quartiles(traced_walls)
        report["absent_boundaries"] = absent
        report["last_traced_pass_spans"] = traces[-1][1]
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        report["wall_s"] = quartiles([w.scaled_s for w in watches])
        report["host_speed"] = quartiles([w.speed for w in watches])
        values = {
            "wall_s": report["wall_s"]["median"],
            "setup_s": report["setup_s"]["median"],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
