"""Supervision overhead of the campaign orchestrator.

Runs the same small campaign three ways through the one shard driver —
under the default fail-fast policy (no retries), supervised with a
retry budget and no chaos, and supervised with a transient failure on
one shard — and records wall-clock plus the supervised/fail-fast ratio
in ``BENCH_orchestrator.json``.  The *hard* assertions are the
orchestrator's contract: bit-identical outcomes across all three runs
and a clean quarantine roster.  The overhead ratio itself is recorded,
not asserted: on a single-CPU container the dominant cost is the
campaign, and supervision should be noise — the JSON is how a
regression (e.g. the poll loop busy-waiting) becomes visible.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import time

from repro.core.determinism import default_scenarios
from repro.faults import (
    ChaosPolicy,
    RetryPolicy,
    ShardChaos,
    run_parallel_checkpointed_campaign,
)
from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS, small_provider
from repro.utils.tables import format_table

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_orchestrator.json"
)
WORKERS = 2
NUM_SHARDS = 4


def outcome_dicts(outcomes):
    return {label: outcome.to_dict() for label, outcome in outcomes.items()}


def _timed_run(**kwargs):
    scenarios = default_scenarios()
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        result = run_parallel_checkpointed_campaign(
            small_provider(),
            scenarios,
            DEFAULT_CAMPAIGN_MODELS,
            tmp,
            modules=("FWD",),
            workers=WORKERS,
            num_shards=NUM_SHARDS,
            **kwargs,
        )
        seconds = time.perf_counter() - start
    return result, seconds


def test_orchestrator_overhead(emit):
    policy = RetryPolicy(max_retries=2, backoff_base=0.01, seed=1)
    chaos = ChaosPolicy({0: ShardChaos(kind="transient", failures=1)})

    fail_fast, fail_fast_s = _timed_run()
    supervised, supervised_s = _timed_run(policy=policy)
    chaotic, chaotic_s = _timed_run(policy=policy, chaos=chaos)

    baseline = outcome_dicts(fail_fast.outcomes)
    assert outcome_dicts(supervised.outcomes) == baseline
    assert outcome_dicts(chaotic.outcomes) == baseline
    assert supervised.quarantined_shards == ()
    assert chaotic.quarantined_shards == ()
    assert any(a.status != "ok" for a in chaotic.report.attempts)

    rows = [
        ("fail-fast", fail_fast_s, len(fail_fast.report.attempts)),
        ("supervised", supervised_s, len(supervised.report.attempts)),
        ("supervised+chaos", chaotic_s, len(chaotic.report.attempts)),
    ]
    payload = {
        "benchmark": "orchestrator_overhead",
        "cpu_count": os.cpu_count() or 1,
        "workers": WORKERS,
        "num_shards": NUM_SHARDS,
        "runs": [
            {
                "mode": mode,
                "seconds": round(seconds, 3),
                "shard_attempts": attempts,
            }
            for mode, seconds, attempts in rows
        ],
        "supervision_overhead_ratio": round(supervised_s / fail_fast_s, 3),
        "chaos_recovery_ratio": round(chaotic_s / fail_fast_s, 3),
        "equivalent": True,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    emit(
        format_table(
            ("mode", "seconds", "vs fail-fast", "attempts"),
            [
                (
                    mode,
                    f"{seconds:.2f}",
                    f"{seconds / fail_fast_s:.2f}x",
                    str(attempts),
                )
                for mode, seconds, attempts in rows
            ],
            title=(
                f"Orchestrator overhead: {NUM_SHARDS} shards, "
                f"{WORKERS} workers on {os.cpu_count()} CPU(s) "
                f"-> {RESULT_PATH.name}"
            ),
        )
    )
