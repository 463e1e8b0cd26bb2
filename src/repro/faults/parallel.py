"""Deterministic scenario sharding for checkpointed campaigns.

:func:`repro.faults.campaign.run_checkpointed_campaign` runs one
scenario at a time, and each scenario is graded on its own (Section
IV-C: "each of these logic simulations was then fault simulated"), so
the scenario is the unit of parallel work.  This module holds
everything about splitting that work that must not depend on how it is
executed:

* **Deterministic sharding.**  Scenarios are assigned to shards by a
  *stable* hash of their label (:func:`stable_shard_index`, CRC-32 —
  never Python's salted ``hash``).  The shard layout depends only on
  the scenario set and the shard count, never on the worker count,
  host, or process — so any pool geometry reproduces the same plan.
* **The shard work unit.**  :func:`_campaign_shard_worker` runs one
  scenario shard; it is a picklable process-pool entry point that runs
  equally well in-process.

The campaign layout is pinned by a manifest and every scenario shard
owns one :class:`~repro.faults.campaign.CampaignCheckpoint`, so a killed
campaign resumes by re-scheduling only incomplete shards — with any
worker count, not just the one it started with.  The one scheduler that
executes shards (in-process or over a process pool, fail-fast or
supervised) and the public entry point built on it live in
:mod:`repro.faults.orchestrator`.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CheckpointError, FaultModelError
from repro.faults.campaign import (
    CHECKPOINT_VERSION,
    CampaignCheckpoint,
    ScenarioOutcome,
    content_digest,
    load_campaign_json,
    merge_outcome_maps,
    run_checkpointed_campaign,
    write_json_atomic,
)

__all__ = [
    "CampaignShardPlan",
    "ShardTiming",
    "plan_campaign_shards",
    "resolve_workers",
    "stable_shard_index",
]

MANIFEST_NAME = "manifest.json"


def resolve_workers(requested: int | None) -> int:
    """Clamp a worker count to the host's CPUs (None = all of them).

    A process pool wider than ``os.cpu_count()`` cannot run faster —
    the extra processes only time-slice the same cores and add fork,
    pickle and scheduler overhead, which is how a 2-worker run on a
    single-CPU container ends up *slower* than serial.  The CLI and the
    benchmarks resolve their worker counts through this helper so
    oversubscription never happens by default; callers that really want
    it can still pass an explicit ``workers`` to the engine functions,
    which do not clamp.
    """
    cpus = max(1, os.cpu_count() or 1)
    if requested is None:
        return cpus
    if requested < 1:
        raise FaultModelError(f"workers must be >= 1, got {requested}")
    return min(requested, cpus)


# ----------------------------------------------------------------------
# Deterministic scenario shards.
# ----------------------------------------------------------------------

def stable_shard_index(identity: str, num_shards: int) -> int:
    """Shard assignment by CRC-32 of the identity string.

    Deliberately *not* Python's ``hash``: that one is salted per
    process (PYTHONHASHSEED), which would scatter scenarios differently
    in every worker and make serial-vs-parallel equivalence meaningless.
    """
    if num_shards < 1:
        raise FaultModelError(f"num_shards must be >= 1, got {num_shards}")
    return zlib.crc32(identity.encode("utf-8")) % num_shards


@dataclass(frozen=True)
class ShardTiming:
    """Wall-clock and volume of one completed shard."""

    index: int
    items: int
    seconds: float

    @property
    def throughput(self) -> float:
        """Work items per second (0.0 for an instantaneous shard)."""
        if self.seconds <= 0.0:
            return 0.0
        return self.items / self.seconds


# ----------------------------------------------------------------------
# Checkpointed coverage-campaign shards.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignShardPlan:
    """The pinned shard layout of one parallel campaign."""

    num_shards: int
    modules: tuple[str, ...]
    #: shard index -> scenario labels, in campaign order.
    labels: tuple[tuple[str, ...], ...]

    def checkpoint_name(self, index: int) -> str:
        return f"shard_{index:03d}.json"

    def to_dict(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "modules": list(self.modules),
            "num_shards": self.num_shards,
            "labels": [list(shard) for shard in self.labels],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignShardPlan":
        return cls(
            num_shards=data["num_shards"],
            modules=tuple(data["modules"]),
            labels=tuple(tuple(shard) for shard in data["labels"]),
        )


def plan_campaign_shards(
    scenarios, modules: tuple[str, ...], num_shards: int
) -> CampaignShardPlan:
    """Assign scenarios to shards by stable hash of their labels."""
    if num_shards < 1:
        raise CheckpointError(f"num_shards must be >= 1, got {num_shards}")
    labels: list[list[str]] = [[] for _ in range(num_shards)]
    for scenario in scenarios:
        labels[stable_shard_index(scenario.label, num_shards)].append(
            scenario.label
        )
    return CampaignShardPlan(
        num_shards=num_shards,
        modules=tuple(modules),
        labels=tuple(tuple(shard) for shard in labels),
    )


def _campaign_shard_worker(spec: dict):
    """Process-pool entry point: run one scenario shard to completion.

    Rebuilds the program builders from the picklable provider, then
    delegates to the serial supervised campaign with the shard's own
    checkpoint file — the same code path, the same checkpoint format,
    just a smaller scenario list.
    """
    start = time.perf_counter()
    chaos = spec["chaos"]
    attempt = spec["attempt"]
    in_process = spec["in_process"]
    on_scenario = None
    if chaos is not None:
        chaos.fire(spec["index"], attempt, in_process=in_process)
        on_scenario = chaos.progress_hook(
            spec["index"], attempt, in_process=in_process
        )
    builders = spec["provider"]()
    outcomes = run_checkpointed_campaign(
        builders,
        spec["scenarios"],
        spec["models"],
        spec["checkpoint_path"],
        modules=spec["modules"],
        max_cycles=spec["max_cycles"],
        retries=spec["retries"],
        audit=spec["audit"],
        on_scenario=on_scenario,
        engine=spec["engine"],
    )
    return (
        spec["index"],
        {label: outcome.to_dict() for label, outcome in outcomes.items()},
        time.perf_counter() - start,
    )


def _load_manifest(
    path: Path, modules: tuple[str, ...]
) -> CampaignShardPlan | None:
    """Load + verify the shard-layout manifest (None: plan afresh).

    A corrupt manifest moves to its ``.corrupt`` sidecar and the
    campaign re-plans; because :func:`plan_campaign_shards` is a pure
    function of (scenarios, num_shards), a re-planned layout with the
    same shard count re-adopts every existing shard checkpoint.
    """
    data = load_campaign_json(path, "campaign manifest", modules)
    return CampaignShardPlan.from_dict(data) if data is not None else None


def _save_manifest(path: Path, plan: CampaignShardPlan) -> None:
    data = plan.to_dict()
    data["digest"] = content_digest(data)
    write_json_atomic(path, data)


def _prepare_campaign(
    scenarios,
    modules: tuple[str, ...],
    checkpoint_dir: str | Path,
    workers: int,
    num_shards: int | None,
):
    """Validate, pin/load the manifest, and scan shard checkpoints.

    Every campaign, whatever its worker count or retry policy, resumes
    from exactly this scan of the on-disk state.  Returns ``(directory,
    plan, labels, shard_scenarios, completed, scheduled)`` where
    ``completed`` maps already-finished shard indices to their outcome
    maps and ``scheduled`` lists the shard indices still owing work.
    """
    scenarios = tuple(scenarios)
    labels = [scenario.label for scenario in scenarios]
    if len(set(labels)) != len(labels):
        raise CheckpointError("duplicate scenario labels in campaign")
    if workers < 1:
        raise CheckpointError(f"workers must be >= 1, got {workers}")
    directory = Path(checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / MANIFEST_NAME
    plan = _load_manifest(manifest_path, tuple(modules))
    if plan is None:
        plan = plan_campaign_shards(
            scenarios, modules,
            num_shards or max(1, min(len(scenarios), 4 * workers)),
        )
        _save_manifest(manifest_path, plan)
    else:
        if num_shards is not None and num_shards != plan.num_shards:
            raise CheckpointError(
                f"campaign at {directory} is sharded {plan.num_shards} ways; "
                f"cannot resume with num_shards={num_shards}"
            )
        manifest_labels = sorted(
            label for shard in plan.labels for label in shard
        )
        if manifest_labels != sorted(labels):
            raise CheckpointError(
                f"campaign at {directory} covers a different scenario set; "
                "refusing to resume"
            )
    by_label = {scenario.label: scenario for scenario in scenarios}
    shard_scenarios = [
        tuple(by_label[label] for label in shard_labels)
        for shard_labels in plan.labels
    ]

    # Resume: a shard is complete when its checkpoint holds every label.
    completed: dict[int, dict[str, ScenarioOutcome]] = {}
    scheduled: list[int] = []
    for index, shard_labels in enumerate(plan.labels):
        path = directory / plan.checkpoint_name(index)
        existing = (
            CampaignCheckpoint(path, tuple(modules)).outcomes
            if path.exists()
            else {}
        )
        if shard_labels and all(label in existing for label in shard_labels):
            completed[index] = {
                label: existing[label] for label in shard_labels
            }
        elif shard_labels:
            scheduled.append(index)
        else:
            completed[index] = {}
    return directory, plan, labels, shard_scenarios, completed, scheduled


def _merge_campaign_outcomes(
    labels, completed, *, missing_ok=()
) -> dict[str, ScenarioOutcome]:
    """Merge per-shard outcome maps into caller scenario order.

    ``missing_ok`` names labels allowed to be absent (the quarantined
    shards of a partial supervised campaign); any other gap is a bug
    and raises.
    """
    merged = merge_outcome_maps(completed.values())
    allowed = set(missing_ok)
    missing = [
        label for label in labels
        if label not in merged and label not in allowed
    ]
    if missing:
        raise CheckpointError(
            f"campaign finished with unaccounted scenarios {missing[:5]}"
        )
    return {label: merged[label] for label in labels if label in merged}
