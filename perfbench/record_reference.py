"""Record the seed-0 reference fingerprints that run.py checks against.

    python3 perfbench/record_reference.py

Runs one pass of every workload at seed 0, requires every operation to meet
its oracle, and rewrites perfbench/reference.json.  Re-record only when a
change is meant to alter outputs, and state the change where it is reviewed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run  # first: it pins OpenBLAS to one thread before numpy loads
import oracles
import workloads


def main() -> int:
    if not run.add_source_path():
        print(f"error: no beamlab sources under {run.SRC}", file=sys.stderr)
        return 2
    beamlab = run.import_beamlab()
    reference = {}
    for workload in workloads.WORKLOADS:
        work = run.ROOT / ".perfbench_work" / f"record-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        ops = workloads.build_ops(beamlab, workload, 0)
        workloads.write_inputs(ops, work)
        _, outcomes = run.run_pass(beamlab, ops, work)
        reference[workload] = {}
        for o in outcomes:
            if o.error is not None:
                raise SystemExit(f"{workload}/{o.op.name}: {o.error}")
            tables = oracles.load_outputs(o.op, work, o.stdout)
            oracles.check_oracle(o.op, tables)
            reference[workload][o.op.name] = oracles.summarize_tables(tables)
        shutil.rmtree(work)
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
