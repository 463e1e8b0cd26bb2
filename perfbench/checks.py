"""Output checks: reference outcomes, the paper's shape, the fingerprint.

A reference (``reference/<workload>.json``, written by
``record_reference.py``) holds every scenario's per-core signatures and
coverage dicts, keyed by scenario label, plus the simulated statistics
of the traced run that recorded it.  Every campaign a run makes is
checked against it scenario by scenario.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from hashlib import blake2b
from pathlib import Path

from spans import SIMULATED, WORK_COUNTS


def load_reference(reference_dir: Path, name: str) -> dict:
    return json.loads((Path(reference_dir) / f"{name}.json").read_text())


def outcome_digest(outcomes: dict) -> str:
    """Order-independent digest of a campaign's outcomes."""
    canonical = json.dumps(
        {
            label: [o["signatures"], o["coverages"], o["error"]]
            for label, o in outcomes.items()
        },
        sort_keys=True,
    )
    return blake2b(canonical.encode(), digest_size=8).hexdigest()


def scenario_failures(outcomes: dict, reference: dict, labels) -> list[str]:
    """One entry per attempted scenario that errored, went missing
    (quarantined) or differs from the reference."""
    expected = reference["scenarios"]
    failures = []
    for label in labels:
        got = outcomes.get(label)
        want = expected.get(label)
        if got is None:
            failures.append(f"{label}: no outcome")
        elif got["error"] is not None:
            failures.append(f"{label}: {got['error']}")
        elif want is None:
            failures.append(f"{label}: not in the reference")
        elif (got["signatures"], got["coverages"]) != (
            want["signatures"], want["coverages"]
        ):
            failures.append(f"{label}: differs from the reference")
    return failures


def shape_problems(routine: str, outcomes: dict) -> list[str]:
    """The paper's result shape (Table II).

    The cache-wrapped routine gives one coverage per (core, module) and
    one signature per core across all scenarios; the unwrapped routine's
    forwarding coverage fluctuates on at least one core.
    """
    coverages = defaultdict(set)
    signatures = defaultdict(set)
    for outcome in outcomes.values():
        if outcome["error"] is not None:
            continue
        for core, signature in outcome["signatures"].items():
            signatures[core].add(signature)
        for entry in outcome["coverages"]:
            coverages[entry["core_id"], entry["module"]].add(entry["detected_faults"])
    if routine == "wrapped":
        return [
            f"core {core} {module}: coverage spread across scenarios {sorted(seen)}"
            for (core, module), seen in sorted(coverages.items())
            if len(seen) > 1
        ] + [
            f"core {core}: {len(seen)} distinct signatures across scenarios"
            for core, seen in sorted(signatures.items())
            if len(seen) > 1
        ]
    if not any(
        len(seen) > 1 for (_, module), seen in coverages.items() if module == "FWD"
    ):
        return ["unwrapped routine: no FWD coverage spread on any core"]
    return []


def fingerprint_problems(trace: dict, reference: dict, record: Path) -> list[str]:
    """Check the traced run's simulated statistics and work counts.

    Simulated statistics must equal the reference's: they describe the
    simulated SoC, which no host speed-up may change.  Work counts must
    repeat exactly across runs and seeds of one program version: the
    first traced run in a checkout writes them to ``record`` and every
    later traced run must match it.
    """
    problems = [
        f"{key} = {trace[key]}, reference has {reference['simulated'][key]}"
        for key in SIMULATED
        if trace[key] != reference["simulated"][key]
    ]
    counts = {key: trace[key] for key in WORK_COUNTS}
    if record.exists():
        recorded = json.loads(record.read_text())
        problems += [
            f"{key} = {counts[key]}, an earlier run in this checkout had {recorded[key]}"
            for key in WORK_COUNTS
            if counts[key] != recorded[key]
        ]
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_name(f"{record.name}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps(counts, indent=1))
        os.replace(tmp, record)
    return problems
