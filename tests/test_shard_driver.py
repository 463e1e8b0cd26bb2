"""The one shard driver's execution contracts.

The parallel campaign runs its scenario shards through one scheduler.
With no policy it is fail-fast: the first failing shard's own exception
ends the run.  With one worker and no retry budget it never forks.  A
clean pooled run joins its workers instead of terminating them, and
every campaign leaves an ``orchestration_report.json`` behind, failed
ones included.
"""

import json
import os
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import pytest

from repro.faults import (
    ChaosPolicy,
    ShardChaos,
    run_checkpointed_campaign,
    run_parallel_checkpointed_campaign,
)
from repro.faults import orchestrator
from repro.faults.orchestrator import ORCHESTRATION_REPORT_NAME, OrchestrationReport
from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS, small_provider
from tests.test_parallel_checkpoint import SCENARIOS, crashy_builders


def outcome_dicts(outcomes):
    return {label: outcome.to_dict() for label, outcome in outcomes.items()}


def run_small(directory, **kwargs):
    kwargs.setdefault("provider", small_provider())
    return run_parallel_checkpointed_campaign(
        kwargs.pop("provider"), SCENARIOS, DEFAULT_CAMPAIGN_MODELS, directory,
        modules=("FWD",), **kwargs,
    )


def saved_report(directory) -> OrchestrationReport:
    path = directory / ORCHESTRATION_REPORT_NAME
    return OrchestrationReport.from_dict(json.loads(path.read_text()))


@pytest.fixture(scope="module")
def serial_outcomes(tmp_path_factory):
    path = tmp_path_factory.mktemp("serial") / "campaign.json"
    return outcome_dicts(
        run_checkpointed_campaign(
            small_provider()(), SCENARIOS, DEFAULT_CAMPAIGN_MODELS, path,
            modules=("FWD",),
        )
    )


# ----------------------------------------------------------------------
# One report for every campaign, the fail-fast failures included.
# ----------------------------------------------------------------------


def test_fail_fast_builder_error_reraises_and_writes_report(tmp_path):
    directory = tmp_path / "campaign"
    provider = partial(crashy_builders, str(tmp_path / "sentinel"), 1)
    with pytest.raises(RuntimeError, match="simulated worker kill"):
        run_small(directory, provider=provider, workers=2, num_shards=1)
    report = saved_report(directory)
    assert [(a.shard, a.status) for a in report.attempts] == [(0, "error")]
    assert "simulated worker kill" in report.attempts[0].error
    assert report.policy["max_retries"] == 0


def test_on_shard_raise_still_writes_report(tmp_path):
    class Stop(Exception):
        pass

    def stop(index, outcomes):
        raise Stop(index)

    directory = tmp_path / "campaign"
    with pytest.raises(Stop):
        run_small(directory, workers=1, num_shards=3, on_shard=stop)
    report = saved_report(directory)
    # The shard itself succeeded; the caller's hook ended the run.
    assert [(a.shard, a.status) for a in report.attempts] == [(0, "ok")]


def test_fail_fast_dead_worker_raises_broken_pool(tmp_path):
    directory = tmp_path / "campaign"
    with pytest.raises(BrokenProcessPool):
        run_small(
            directory, workers=2, num_shards=2,
            chaos=ChaosPolicy({1: ShardChaos(kind="kill", failures=None)}),
        )
    report = saved_report(directory)
    assert report.pool_rebuilds == 0 and report.quarantined == []
    assert "pool-broken" in {a.status for a in report.attempts}


# ----------------------------------------------------------------------
# Pool lifecycle: serial geometry never forks; a clean run joins.
# ----------------------------------------------------------------------


def test_serial_geometry_pays_no_fork(tmp_path, monkeypatch, serial_outcomes):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-worker fail-fast run built a pool")

    monkeypatch.setattr(orchestrator, "ProcessPoolExecutor", no_pool)
    result = run_small(tmp_path / "campaign", workers=1, num_shards=3)
    assert outcome_dicts(result.outcomes) == serial_outcomes
    assert all(a.in_process for a in result.report.attempts)
    # degraded_serial means "the pool gave up"; no pool was ever asked.
    assert not result.report.degraded_serial
    assert result.report.pool_rebuilds == 0


class RecordingContext:
    """A multiprocessing context that remembers every process it made."""

    def __init__(self, context):
        self._context = context
        self.processes = []

    def Process(self, *args, **kwargs):  # noqa: N802 - context API name
        process = self._context.Process(*args, **kwargs)
        self.processes.append(process)
        return process

    def __getattr__(self, name):
        return getattr(self._context, name)


def test_clean_pooled_run_joins_its_workers(
    tmp_path, monkeypatch, serial_outcomes
):
    context = RecordingContext(orchestrator._pool_context())
    monkeypatch.setattr(orchestrator, "_pool_context", lambda: context)
    result = run_small(tmp_path / "campaign", workers=2, num_shards=3)
    assert outcome_dicts(result.outcomes) == serial_outcomes
    assert context.processes
    for process in context.processes:
        # Already reaped by the pool's own join: no zombie is left for
        # a later waitpid to collect...
        with pytest.raises(ChildProcessError):
            os.waitpid(process.pid, os.WNOHANG)
        # ... and the worker exited on its own, not by terminate().
        assert process.exitcode == 0
