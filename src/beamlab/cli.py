"""Command-line front end: one scenario in, one results directory out.

Exit codes: 0 success, 2 validation/usage error, 3 solver error (a run that
was set up correctly but could not produce a result), 1 output I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .model import SolverError, ValidationError
from .output import write_modes, write_result
from .scenario import (
    PRESET_NAMES,
    Scenario,
    modal_results,
    parse_scenario,
    preset,
    run_scenario,
)


def _scenario_from_args(path, preset_name, stride=None) -> Scenario:
    if (path is None) == (preset_name is None):
        raise ValidationError(
            "provide exactly one of a scenario file or --preset NAME"
        )
    if preset_name is not None:
        return preset(preset_name, stride=stride)
    try:
        text = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file: {exc}") from None
    return parse_scenario(text, stride=stride)


def _execute(s: Scenario, out_dir) -> int:
    rs = run_scenario(s)
    for written in write_result(rs, out_dir):
        print(written)
    return 0


def _cmd_run(args) -> int:
    s = _scenario_from_args(args.scenario, args.preset, args.stride)
    return _execute(s, args.out)


def _cmd_modal(args) -> int:
    s = _scenario_from_args(args.scenario, args.preset)
    write_modes(sys.stdout, modal_results(s, args.modes))
    return 0


def _cmd_solver_file(args) -> int:
    s = _scenario_from_args(args.scenario, None)
    if s.solver != args.solver:
        raise ValidationError(
            f"scenario '{s.name}' has solver '{s.solver}'; this command "
            f"runs solver '{args.solver}'"
        )
    return _execute(s, args.out)


def _cmd_presets(args) -> int:
    for name in PRESET_NAMES:
        print(name)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamlab",
        description="Beam statics, modal analysis, time integration and "
        "resonance sweeps driven by JSON scenario files.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and write CSV output")
    run_p.add_argument("scenario", nargs="?", help="path to a scenario JSON file")
    run_p.add_argument("--preset", metavar="NAME", help="built-in scenario name")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument(
        "--stride", type=int, default=None, help="record every Nth time sample"
    )
    run_p.set_defaults(func=_cmd_run)

    modal_p = sub.add_parser("modal", help="print natural modes as CSV on stdout")
    modal_p.add_argument("scenario", nargs="?", help="path to a scenario JSON file")
    modal_p.add_argument("--preset", metavar="NAME", help="built-in scenario name")
    modal_p.add_argument("--modes", type=int, default=3, help="number of modes")
    modal_p.set_defaults(func=_cmd_modal)

    for solver, noun in (("sweep", "a frequency-sweep"), ("static", "a static")):
        file_p = sub.add_parser(solver, help=f"run {noun} scenario file")
        file_p.add_argument("scenario", help="path to a scenario JSON file")
        file_p.add_argument("--out", required=True, help="output directory")
        file_p.set_defaults(func=_cmd_solver_file, solver=solver)

    presets_p = sub.add_parser("presets", help="list built-in scenario names")
    presets_p.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
