"""Deterministic sharding primitives for fault simulation and campaigns.

The serial graders in :mod:`repro.faults.ppsfp` /
:mod:`repro.faults.transition` simulate one fault at a time against a
fixed pattern set, and :func:`repro.faults.campaign.run_checkpointed_campaign`
runs one scenario at a time — both embarrassingly parallel, and both on
the critical path of every Table II/III reproduction.  This module holds
everything about splitting that work that must not depend on how it is
executed:

* **Deterministic sharding.**  Faults are assigned to shards by a
  *stable* hash of their identity (:func:`stable_shard_index`, CRC-32 of
  ``str(fault)`` — never Python's salted ``hash``), scenarios by the
  same hash of their label.  The shard layout depends only on the work
  items and the shard count, never on the worker count, host, or
  process — so any pool geometry reproduces the same partition.
* **Explicit per-shard seeds.**  :func:`shard_seed` derives a stable
  64-bit seed per (base seed, shard index) for any stochastic component
  a shard may host (randomised property tests, sampled campaigns); the
  built-in fault models are deterministic and ignore it.
* **Order-independent merging.**  Shard results are combined with an
  associativity-checked reducer (:func:`reduce_results`): detection of
  each fault is independent under single-fault assumption, so per-shard
  ``detected``/``total`` counts add exactly, and the reducer verifies
  that a left fold and a balanced tree fold agree before trusting the
  sum.
* **Shard work units.**  :func:`_simulate_shard` grades one fault shard
  and :func:`_campaign_shard_worker` runs one scenario shard; both are
  picklable process-pool entry points that run equally well in-process.

The campaign layout is pinned by a manifest and every scenario shard
owns one :class:`~repro.faults.campaign.CampaignCheckpoint`, so a killed
campaign resumes by re-scheduling only incomplete shards — with any
worker count, not just the one it started with.  The one scheduler that
executes shards (in-process or over a process pool, fail-fast or
supervised) and the public entry points built on it live in
:mod:`repro.faults.orchestrator`.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path

from repro.errors import CheckpointError, FaultModelError
from repro.faults.campaign import (
    CHECKPOINT_VERSION,
    CampaignCheckpoint,
    ScenarioOutcome,
    content_digest,
    merge_outcome_maps,
    quarantine_corrupt_file,
    run_checkpointed_campaign,
    verify_payload,
)
from repro.faults.netlist import Netlist
from repro.faults.ppsfp import DropSet, FaultSimResult, PatternSet, fault_simulate
from repro.faults.transition import transition_fault_simulate

__all__ = [
    "CampaignShardPlan",
    "ParallelCampaignResult",
    "ShardTiming",
    "check_partition",
    "plan_campaign_shards",
    "reduce_results",
    "resolve_workers",
    "shard_faults",
    "shard_seed",
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
# Deterministic sharding primitives.
# ----------------------------------------------------------------------

def fault_identity(item) -> str:
    """Stable identity string of a fault-list item.

    Accepts both plain faults and the weighted ``(fault, class_size)``
    pairs of :func:`repro.faults.stuckat.collapse_with_weights`; the
    weight is not part of the identity (it rides along with its
    representative).
    """
    fault = item[0] if isinstance(item, tuple) else item
    return str(fault)


def stable_shard_index(identity: str, num_shards: int) -> int:
    """Shard assignment by CRC-32 of the identity string.

    Deliberately *not* Python's ``hash``: that one is salted per
    process (PYTHONHASHSEED), which would scatter faults differently in
    every worker and make serial-vs-parallel equivalence meaningless.
    """
    if num_shards < 1:
        raise FaultModelError(f"num_shards must be >= 1, got {num_shards}")
    return zlib.crc32(identity.encode("utf-8")) % num_shards


def shard_seed(base_seed: int, shard_index: int) -> int:
    """Explicit per-shard RNG seed (stable 64-bit blake2b derivation)."""
    digest = blake2b(
        f"{base_seed}:{shard_index}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def shard_faults(faults: list, num_shards: int) -> list[list]:
    """Partition a fault list into ``num_shards`` deterministic shards.

    Every fault lands in exactly one shard (stable hash of its
    identity) and keeps its original relative order inside the shard.
    Shards may be empty — a 3-fault list sharded 16 ways is legal and
    merges to the same totals.
    """
    shards: list[list] = [[] for _ in range(num_shards)]
    for item in faults:
        shards[stable_shard_index(fault_identity(item), num_shards)].append(item)
    return shards


def check_partition(faults: list, shards: list[list]) -> None:
    """Verify a shard set is a true partition of the fault list.

    Completeness (every fault present) and disjointness (no fault in
    two shards) are checked as identity multisets; a violation raises
    :class:`~repro.errors.FaultModelError` rather than silently
    over- or under-counting coverage.
    """
    want: dict[str, int] = {}
    for item in faults:
        key = fault_identity(item)
        want[key] = want.get(key, 0) + 1
    got: dict[str, int] = {}
    for shard in shards:
        for item in shard:
            key = fault_identity(item)
            got[key] = got.get(key, 0) + 1
    if want != got:
        missing = {k for k in want if want[k] > got.get(k, 0)}
        extra = {k for k in got if got[k] > want.get(k, 0)}
        raise FaultModelError(
            f"shard set is not a partition: missing={sorted(missing)[:5]} "
            f"duplicated_or_foreign={sorted(extra)[:5]}"
        )


# ----------------------------------------------------------------------
# Order-independent, associativity-checked result reduction.
# ----------------------------------------------------------------------

def reduce_results(results: list[FaultSimResult]) -> FaultSimResult:
    """Merge per-shard results into one, checking associativity.

    The merge itself is integer addition over ``total``/``detected``
    (commutative and associative by construction); the check folds the
    list both left-to-right and as a balanced tree and insists the two
    agree, so a future non-associative "merge" cannot slip in silently.
    """
    if not results:
        raise FaultModelError("reduce_results of an empty shard list")
    left = results[0]
    for result in results[1:]:
        left = left.merge(result)
    tree = _tree_reduce(results)
    if (left.total_faults, left.detected_faults) != (
        tree.total_faults,
        tree.detected_faults,
    ):
        raise FaultModelError(
            f"merge is not associative: fold={left} tree={tree}"
        )
    return left


def _tree_reduce(results: list[FaultSimResult]) -> FaultSimResult:
    level = list(results)
    while len(level) > 1:
        nxt = [
            level[i].merge(level[i + 1])
            for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


# ----------------------------------------------------------------------
# Fault-simulation shards (stuck-at / PPSFP and transition models).
# ----------------------------------------------------------------------

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


def _simulate_shard(
    kind: str,
    netlist: Netlist,
    patterns: PatternSet,
    shard: list,
    engine: str,
    dropped_ids: list[str] | None,
    chaos,
    shard_index: int,
    attempt: int,
    in_process: bool,
):
    """Process-pool entry point: grade one fault shard serially.

    ``dropped_ids`` carries the caller's :class:`DropSet` content into
    the worker; the returned third element lists the shard's *new*
    detections (sorted) so the parent can merge them back.  Because
    faults are sharded by the same ``stable_id`` the drop set is keyed
    on, a fault's drop state never crosses shards — any geometry drops
    exactly like the serial path.

    ``chaos``/``shard_index``/``attempt`` come from the shard driver in
    :mod:`repro.faults.orchestrator`: the
    :class:`~repro.faults.chaos.ChaosPolicy` fires a deterministic
    injected failure at shard entry when its directive matches this
    (shard, attempt) pair, and ``in_process`` downgrades process-level
    misbehaviour when the scheduler runs the shard in the calling process.
    """
    if chaos is not None:
        chaos.fire(shard_index, attempt, in_process=in_process)
    start = time.perf_counter()
    dropped = DropSet(dropped_ids) if dropped_ids is not None else None
    if kind == "stuckat":
        result = fault_simulate(
            netlist, patterns, shard, engine=engine, dropped=dropped
        )
    elif kind == "transition":
        result = transition_fault_simulate(
            netlist, patterns, shard, engine=engine, dropped=dropped
        )
    else:  # pragma: no cover - guarded by the public wrappers
        raise FaultModelError(f"unknown fault model kind {kind!r}")
    new_ids = (
        sorted(dropped.detected.difference(dropped_ids))
        if dropped is not None
        else []
    )
    return result.to_dict(), time.perf_counter() - start, new_ids


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


@dataclass
class ParallelCampaignResult:
    """Merged outcomes plus the run's shard-level accounting."""

    outcomes: dict[str, ScenarioOutcome]
    shard_timings: list[ShardTiming] = field(default_factory=list)
    num_shards: int = 1
    workers: int = 1
    #: Shard indices actually executed this run (resume skips the rest).
    scheduled: tuple[int, ...] = ()

    def coverage_dicts(self) -> dict[str, list[dict]]:
        """Scenario label -> coverage dict list (comparison helper)."""
        return {
            label: outcome.coverages
            for label, outcome in sorted(self.outcomes.items())
        }


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


def _load_manifest(path: Path) -> CampaignShardPlan | None:
    """Load + verify the shard-layout manifest.

    Corruption (unreadable bytes, bad JSON, digest mismatch) quarantines
    the file to a ``.corrupt`` sidecar with a warning and returns None —
    the campaign re-plans, and because :func:`plan_campaign_shards` is a
    pure function of (scenarios, num_shards) a re-planned layout with
    the same shard count re-adopts every existing shard checkpoint.
    Version mismatches still raise: that is an incompatibility, not rot.
    """
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    # ValueError covers JSONDecodeError and the UnicodeDecodeError that
    # non-UTF-8 garbage raises before the parser even runs.
    except (OSError, ValueError) as exc:
        quarantine_corrupt_file(path, f"unreadable: {exc}")
        return None
    reason = verify_payload(path, data)
    if reason is not None:
        quarantine_corrupt_file(path, reason)
        return None
    if data.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"campaign manifest {path} has version {data.get('version')!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    return CampaignShardPlan.from_dict(data)


def _save_manifest(path: Path, plan: CampaignShardPlan) -> None:
    data = plan.to_dict()
    data["digest"] = content_digest(data)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(data, indent=2) + "\n")
    os.replace(tmp, path)


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
    plan = _load_manifest(manifest_path)
    if plan is None:
        plan = plan_campaign_shards(
            scenarios, modules,
            num_shards or max(1, min(len(scenarios), 4 * workers)),
        )
        _save_manifest(manifest_path, plan)
    else:
        if plan.modules != tuple(modules):
            raise CheckpointError(
                f"campaign at {directory} grades modules {list(plan.modules)}, "
                f"this run grades {list(modules)}; refusing to mix them"
            )
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
