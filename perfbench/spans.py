"""Per-layer spans recorded from outside beamlab.

The traced run replaces public functions of beamlab's modules with timing
wrappers, patched in the module namespace where each caller looks the name up
(`beamlab.cli.run_scenario`, `beamlab.dynamics.beam_stiffness_matrix`, ...),
and puts the originals back afterwards.  A span records its name, its parent
span, the operation (root span) it belongs to, and its start and end; self
time is a span's duration minus its direct children's.  A boundary whose name
no longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

#: (module, attribute, span name).  A function is wrapped once per namespace
#: it is called through; `model` holds only data types and has no boundary.
BOUNDARIES = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_scenario", "scenario.parse"),
    ("cli", "run_scenario", "scenario.run"),
    ("cli", "modal_results", "scenario.modal_results"),
    ("cli", "write_result", "output.write"),
    ("scenario", "static_fd_solve", "statics.solve"),
    ("scenario", "quasi_static_moving", "statics.quasi_static"),
    ("scenario", "quasi_static_sinusoidal", "statics.quasi_static"),
    ("scenario", "frequency_sweep", "dynamics.sweep"),
    ("scenario", "beam_time_response", "dynamics.response"),
    ("scenario", "integrate", "dynamics.integrate"),
    ("scenario", "solve_modes", "modal.solve_modes"),
    ("scenario", "linear_vs_nonlinear_curve", "material.curve"),
    ("scenario", "nonlinear_cantilever_deflection", "material.cantilever"),
    ("statics", "beam_stiffness_matrix", "statics.assemble"),
    ("dynamics", "beam_stiffness_matrix", "statics.assemble"),
    ("dynamics", "discretize_beam", "dynamics.discretize"),
    ("dynamics", "eigenfrequencies", "dynamics.eig"),
    ("dynamics", "beam_time_response", "dynamics.response"),
    ("dynamics", "integrate", "dynamics.integrate"),
    ("dynamics", "build_force_schedule", "dynamics.force_schedule"),
    ("modal", "find_beta_roots", "modal.roots"),
    ("modal", "characteristic_det", "modal.det"),
    ("material", "nonlinear_cantilever_deflection", "material.cantilever"),
)

FORCE_SPAN = "dynamics.force"


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack = [(0, 0)]  # (span id, root span id); 0 is "no span"
        self._last_id = 0

    def span(self, name: str, fn, on_result=None):
        """`fn` wrapped in a span named `name`; `on_result(result)` may count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, root = self._stack[-1]
            self._last_id += 1
            sid = self._last_id
            root = root or sid
            self._stack.append((sid, root))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, root, name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        traced.traced_by = self
        return traced


def _traced_integrate(tracer: Tracer, name: str, original):
    """integrate: count time steps, and trace a force schedule passed in raw."""
    signature = inspect.signature(original)
    inner = tracer.span(name, original)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        schedule = bound.arguments.get("force_schedule")
        if callable(schedule) and getattr(schedule, "traced_by", None) is not tracer:
            bound.arguments["force_schedule"] = tracer.span(FORCE_SPAN, schedule)
        tgrid = bound.arguments.get("tgrid")
        tracer.counts["dynamics.steps"] += getattr(tgrid, "step_count", 0)
        return inner(*bound.args, **bound.kwargs)

    return traced


def _traced_schedule_factory(tracer: Tracer, name: str, original):
    """build_force_schedule: trace the closure it returns."""
    inner = tracer.span(name, original)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        return tracer.span(FORCE_SPAN, inner(*args, **kwargs))

    return traced


def _traced_sweep(tracer: Tracer, name: str, original):
    def count(points):
        tracer.counts["dynamics.sweep_points"] += len(points)

    return tracer.span(name, original, count)


_SPECIAL = {
    "integrate": _traced_integrate,
    "frequency_sweep": _traced_sweep,
    "build_force_schedule": _traced_schedule_factory,
}


@contextmanager
def installed(tracer: Tracer):
    """Patch every boundary for the duration of the block.

    Yields the list of boundaries ("module.attr") that no longer exist.
    """
    patched = []
    absent = []
    try:
        for module_name, attr, name in BOUNDARIES:
            try:
                module = importlib.import_module(f"beamlab.{module_name}")
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                absent.append(f"{module_name}.{attr}")
                continue
            make = _SPECIAL.get(attr)
            wrapped = make(tracer, name, original) if make else tracer.span(name, original)
            setattr(module, attr, wrapped)
            patched.append((module, attr, original))
        yield absent
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and self seconds."""
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for sid, _, _, name, start, end in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[sid]
    return dict(out)
