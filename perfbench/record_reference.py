"""Record the reference outcomes every benchmark run is checked against.

Usage, from the repository root::

    python3 perfbench/record_reference.py

Runs one traced campaign of ``wrapped_serial`` and of
``unwrapped_serial`` (seed 0) and writes ``reference/<workload>.json``:
per-scenario signatures and coverage dicts keyed by scenario label, and
the simulated statistics of the run.  Re-record only when a change is
meant to alter results; a speed-up must leave the files as they are.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import spans


def record(workload: str, reference_dir, work_dir, *, smoke: bool = False) -> dict:
    """Run ``workload`` traced and write its reference; return it."""
    work = work_dir / f"record-{workload}"
    try:
        result = run.run_child(
            workload, 0, "traced", work, smoke=smoke,
            deadline=time.monotonic() + run.TIME_LIMIT_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    errors = {label: o["error"] for label, o in result["outcomes"].items() if o["error"]}
    if errors:
        raise run.HarnessError(f"{workload}: scenarios failed: {errors}")
    reference = {
        "workload": workload,
        "simulated": {key: result["trace"][key] for key in spans.SIMULATED},
        "scenarios": {
            label: {"signatures": o["signatures"], "coverages": o["coverages"]}
            for label, o in sorted(result["outcomes"].items())
        },
    }
    reference_dir.mkdir(parents=True, exist_ok=True)
    (reference_dir / f"{workload}.json").write_text(json.dumps(reference, indent=1) + "\n")
    return reference


def main() -> int:
    for workload in ("wrapped_serial", "unwrapped_serial"):
        reference = record(workload, run.HERE / "reference", run.ROOT / ".perfbench_run")
        print(f"{workload}: {len(reference['scenarios'])} scenarios, {reference['simulated']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
