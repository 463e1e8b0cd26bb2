"""Outside-in layer spans for a traced campaign run.

The program has no host-time spans of its own yet, so the benchmark
records them from outside: :func:`install` replaces each layer's public
entry point, as the campaign looks it up, with a wrapper that times the
call and counts the work it did.  Layers are named after the modules
that own them:

=============  ====================================================
``stl``        the program-builder callables passed to ``run_scenario``
``soc``        ``repro.core.determinism.run_scenario`` (builds excluded)
``observability``  the three pattern-set builders the campaign calls
``ppsfp``      ``fault_simulate`` as the campaign calls it
``compiled``   ``compiled_for`` as ``fault_simulate`` calls it
``campaign``   ``CampaignCheckpoint.save`` (JSON write + fsync)
=============  ====================================================

Every ``run_checkpointed_campaign`` call is a *shard* span; its self
time (shard time no layer claimed) is ``other_s``.  A layer's self time
is its span duration minus the part covered by its child spans, so self
times never double-count nested work.

Parallel campaigns fork their workers, which inherit the wrappers.  A
worker resets its totals when a shard starts and spills them to a JSON
file in ``spill_dir`` when the shard ends; :meth:`Tracer.report` sums the
parent's totals with every spill.  Times from workers are therefore
lane-seconds (summed across workers), and the accounting identity is::

    sum(layer self times) + other_s + parallel.idle_s == lanes * campaign_s

with ``lanes`` the worker count (1 for a serial campaign).
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from hashlib import blake2b
from pathlib import Path

#: Layers with spans, in pipeline order, and their self-time metrics.
LAYER_TIME = {
    "stl": "stl.build_s",
    "soc": "soc.simulate_s",
    "observability": "observability.patterns_s",
    "compiled": "compiled.compile_s",
    "ppsfp": "ppsfp.grade_s",
    "campaign": "campaign.checkpoint_s",
}

#: Simulated statistics: properties of the simulated SoC that no host
#: speed-up may change.
SIMULATED = ("soc.sim_cycles", "soc.if_stalls", "soc.mem_stalls", "soc.hazard_stalls")

#: Work counts that must repeat exactly from run to run and seed to seed
#: of one program version.
WORK_COUNTS = (
    "observability.patterns",
    "ppsfp.items",
    "ppsfp.distinct_items",
    "ppsfp.detected",
)


class TraceError(RuntimeError):
    """A wrapped entry point is missing or the span accounting broke."""


class Tracer:
    """Per-process span totals and work counters."""

    def __init__(self, spill_dir: Path):
        self.owner_pid = os.getpid()
        self.spill_dir = Path(spill_dir)
        # Compiled artifacts seen by this process: a worker reuses them
        # across shards, so this set survives the per-shard reset.
        self.compiled: dict[int, object] = {}
        self._fault_digests: dict[int, tuple[object, bytes]] = {}
        self.reset()

    def reset(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.digests: set[str] = set()
        self.shard_seconds: list[float] = []
        self._children: list[float] = []

    def timed(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a ``layer`` span; return (result, seconds)."""
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self.self_s[layer] += duration - self._children.pop()
            if self._children:
                self._children[-1] += duration
        return result, duration

    def call(self, layer: str, fn, *args, **kwargs):
        return self.timed(layer, fn, *args, **kwargs)[0]

    def spill(self) -> None:
        """Write this worker's shard totals for the parent to collect."""
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spill-{os.getpid()}-{time.monotonic_ns()}.json"
        tmp = path.with_suffix(".tmp")
        state = {
            "self_s": self.self_s,
            "counts": self.counts,
            "digests": sorted(self.digests),
            "shard_seconds": self.shard_seconds,
        }
        tmp.write_text(json.dumps(state))
        os.replace(tmp, path)

    def item_digest(self, netlist, patterns, faults) -> str:
        """Content digest of one (netlist, pattern set, fault list) item."""
        entry = self._fault_digests.get(id(faults))
        if entry is None or entry[0] is not faults:
            fault_ids = ",".join(
                f"{item[0].stable_id}*{item[1]}" if isinstance(item, tuple)
                else item.stable_id
                for item in faults
            )
            entry = (faults, blake2b(fault_ids.encode(), digest_size=16).digest())
            self._fault_digests[id(faults)] = entry
        hasher = blake2b(digest_size=16)
        hasher.update(f"{netlist.name}/{len(netlist.gates)}/{netlist.num_nets}".encode())
        hasher.update(entry[1])
        hasher.update(str(patterns.num_patterns).encode())
        for table in (patterns.inputs, patterns.output_observability):
            for net, value in sorted(table.items()):
                hasher.update(f";{net}:{value:x}".encode())
            hasher.update(b"|")
        return hasher.hexdigest()

    def report(self, campaign_s: float, lanes: int, shard_timings) -> dict:
        """Per-layer metrics of one traced campaign.

        ``shard_timings`` are the parallel entry point's ``ShardTiming``
        records; ``None`` for a serial campaign, whose one in-process
        shard is the ``run_checkpointed_campaign`` span.
        """
        self_s = defaultdict(float, self.self_s)
        counts = Counter(self.counts)
        digests = set(self.digests)
        shard_seconds = list(self.shard_seconds)
        for path in sorted(self.spill_dir.glob("spill-*.json")):
            state = json.loads(path.read_text())
            for layer, seconds in state["self_s"].items():
                self_s[layer] += seconds
            counts.update(state["counts"])
            digests.update(state["digests"])
            shard_seconds.extend(state["shard_seconds"])
        if shard_timings is not None:
            if len(shard_seconds) != len(shard_timings):
                raise TraceError(
                    f"{len(shard_timings)} shards ran but {len(shard_seconds)} "
                    "reported spans; workers must inherit the wrappers (fork)"
                )
            shard_seconds = [timing.seconds for timing in shard_timings]
        if not shard_seconds:
            raise TraceError("no run_checkpointed_campaign span was recorded")

        metrics: dict[str, float] = {
            name: self_s[layer] for layer, name in LAYER_TIME.items()
        }
        busy = sum(shard_seconds)
        idle = lanes * campaign_s - busy
        other = busy - sum(self_s[layer] for layer in LAYER_TIME)
        if other < 0 or idle < 0 or any(v < 0 for v in metrics.values()):
            raise TraceError(
                f"span accounting is inconsistent: other_s={other:.6f}, "
                f"idle_s={idle:.6f}, self times {metrics}"
            )
        sim_cycles = counts["soc.sim_cycles"]
        items = counts["ppsfp.items"]
        metrics.update(
            {
                "stl.builds": counts["stl.builds"],
                "soc.sim_cycles": sim_cycles,
                "soc.sim_cycles_per_s": _rate(sim_cycles, self_s["soc"]),
                "soc.if_stalls": counts["soc.if_stalls"],
                "soc.mem_stalls": counts["soc.mem_stalls"],
                "soc.hazard_stalls": counts["soc.hazard_stalls"],
                "observability.calls": counts["observability.calls"],
                "observability.patterns": counts["observability.patterns"],
                "compiled.netlists": counts["compiled.netlists"],
                "ppsfp.items": items,
                "ppsfp.distinct_items": len(digests),
                "ppsfp.distinct_ratio": len(digests) / items if items else 0.0,
                "ppsfp.gate_fault_evals": counts["ppsfp.gate_fault_evals"],
                "ppsfp.evals_per_s": _rate(
                    counts["ppsfp.gate_fault_evals"], self_s["ppsfp"]
                ),
                "ppsfp.detected": counts["ppsfp.detected"],
                "campaign.checkpoint_writes": counts["campaign.checkpoint_writes"],
                "campaign.checkpoint_bytes": counts["campaign.checkpoint_bytes"],
                "parallel.shards": len(shard_seconds),
                "parallel.shard_busy_s": busy,
                "parallel.shard_max_s": max(shard_seconds),
                "parallel.shard_imbalance": (
                    max(shard_seconds) * len(shard_seconds) / busy
                ),
                "parallel.idle_s": idle,
                "other_s": other,
            }
        )
        return metrics


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every layer's entry point; return the originals for :func:`uninstall`.

    A name that no longer exists is a :class:`TraceError`: the trace
    would silently report zero for a layer that still runs.  Zero calls
    to a name that exists is a valid count (a memo that never misses).
    """
    import repro.core.determinism as determinism
    import repro.faults.campaign as campaign
    import repro.faults.parallel as parallel
    import repro.faults.ppsfp as ppsfp

    def wrap_builder(builder):
        def build(base_address):
            tracer.counts["stl.builds"] += 1
            return tracer.call("stl", builder, base_address)

        return build

    def run_scenario(original):
        def traced(builders, scenario, *args, **kwargs):
            builders = {core: wrap_builder(b) for core, b in builders.items()}
            result = tracer.call("soc", original, builders, scenario, *args, **kwargs)
            counts = tracer.counts
            counts["soc.sim_cycles"] += result.total_cycles
            for core in result.per_core.values():
                counts["soc.if_stalls"] += core.if_stalls
                counts["soc.mem_stalls"] += core.mem_stalls
                counts["soc.hazard_stalls"] += core.hazard_stalls
            return result

        return traced

    def pattern_builder(original):
        def traced(*args, **kwargs):
            result = tracer.call("observability", original, *args, **kwargs)
            sets = result.values() if isinstance(result, dict) else (result,)
            tracer.counts["observability.calls"] += 1
            tracer.counts["observability.patterns"] += sum(
                patterns.num_patterns for patterns in sets
            )
            return result

        return traced

    def fault_simulate(original):
        def traced(netlist, patterns, faults, *args, **kwargs):
            result = tracer.call(
                "ppsfp", original, netlist, patterns, faults, *args, **kwargs
            )
            counts = tracer.counts
            counts["ppsfp.items"] += 1
            counts["ppsfp.gate_fault_evals"] += len(netlist.gates) * len(faults)
            counts["ppsfp.detected"] += result.detected_faults
            tracer.digests.add(tracer.item_digest(netlist, patterns, faults))
            return result

        return traced

    def compiled_for(original):
        def traced(netlist):
            artifact = tracer.call("compiled", original, netlist)
            if id(artifact) not in tracer.compiled:
                tracer.compiled[id(artifact)] = artifact
                tracer.counts["compiled.netlists"] += 1
            return artifact

        return traced

    def checkpoint_save(original):
        def traced(checkpoint):
            tracer.call("campaign", original, checkpoint)
            tracer.counts["campaign.checkpoint_writes"] += 1
            tracer.counts["campaign.checkpoint_bytes"] += checkpoint.path.stat().st_size

        return traced

    def shard(original):
        def traced(*args, **kwargs):
            in_worker = os.getpid() != tracer.owner_pid
            if in_worker:
                tracer.reset()
            result, seconds = tracer.timed("other", original, *args, **kwargs)
            tracer.shard_seconds.append(seconds)
            if in_worker:
                tracer.spill()
            return result

        return traced

    targets = [
        (determinism, "run_scenario", run_scenario),
        (campaign, "forwarding_pattern_sets", pattern_builder),
        (campaign, "hdcu_pattern_sets", pattern_builder),
        (campaign, "icu_pattern_set", pattern_builder),
        (campaign, "fault_simulate", fault_simulate),
        (ppsfp, "compiled_for", compiled_for),
        (campaign.CampaignCheckpoint, "save", checkpoint_save),
        (campaign, "run_checkpointed_campaign", shard),
        (parallel, "run_checkpointed_campaign", shard),
    ]
    originals = []
    for owner, name, _ in targets:
        if not callable(getattr(owner, name, None)):
            raise TraceError(
                f"{getattr(owner, '__name__', owner)}.{name} no longer exists; "
                "the trace cannot attribute that layer"
            )
        originals.append((owner, name, getattr(owner, name)))
    for (owner, name, make), (_, _, original) in zip(targets, originals):
        setattr(owner, name, make(original))
    return originals


def uninstall(originals) -> None:
    """Restore the entry points :func:`install` replaced."""
    for owner, name, original in reversed(originals):
        setattr(owner, name, original)
