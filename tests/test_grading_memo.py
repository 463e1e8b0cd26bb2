"""The campaign's grading memo: exact, and local to one campaign call.

:func:`run_checkpointed_campaign` fault-simulates each distinct grading
item — (module, core model, port, engine, pattern-set content) — once
per call and reuses the detected-fault count for every repeat.  The
cache-based wrapper makes most items repeat across scenarios, so the
memo must be invisible in the results: outcomes equal grading every
core's log directly, without a memo, for both engines, serial and
sharded runs, and a chaos run under supervision.  The memo must also
never outlive its call: a process-wide memo would let an interpreted
campaign reuse compiled results and silently void the engine oracle.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.faults.campaign as campaign
from repro.core.determinism import Scenario, run_scenario
from repro.faults import RetryPolicy, ShardChaos, run_parallel_checkpointed_campaign
from repro.faults.chaos import ChaosPolicy
from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS, small_provider
from repro.soc import CodeAlignment, CodePosition
from repro.stl import RoutineContext
from repro.stl.routines import make_forwarding_routine

SCENARIOS = (
    Scenario((0, 1), CodePosition.LOW, CodeAlignment.QWORD),
    Scenario((0, 1, 2), CodePosition.MID, CodeAlignment.WORD),
    Scenario((0, 1, 2), CodePosition.HIGH, CodeAlignment.DWORD),
)
MODULES = ("FWD", "HDCU", "ICU", "FWD-TDF")


def unwrapped_builders():
    """The smoke-sized routine without the cache wrapper: its in-window
    activation varies with bus contention, so items differ by scenario."""
    return {
        core: make_forwarding_routine(
            model, with_pcs=False, patterns_per_path=1, load_use_blocks=1
        ).builder_for(RoutineContext.for_core(core, model))
        for core, model in DEFAULT_CAMPAIGN_MODELS.items()
    }


BUILDERS = {"wrapped": lambda: small_provider()(), "unwrapped": unwrapped_builders}


def direct_outcomes(routine: str, engine: str) -> dict[str, dict]:
    """Each scenario's signatures and coverages, graded without a memo."""
    builders = BUILDERS[routine]()
    outcomes = {}
    for scenario in SCENARIOS:
        result = run_scenario(builders, scenario)
        outcomes[scenario.label] = {
            "signatures": {
                str(core): result.per_core[core].signature
                for core in scenario.active_cores
            },
            "coverages": [
                {
                    "core_id": core,
                    **campaign.COVERAGE_GRADERS[module](
                        result.per_core[core].log,
                        DEFAULT_CAMPAIGN_MODELS[core],
                        engine=engine,
                    ).to_dict(),
                }
                for module in MODULES
                for core in scenario.active_cores
            ],
        }
    return outcomes


def graded(outcomes) -> dict[str, dict]:
    return {
        label: {"signatures": o.signatures, "coverages": o.coverages}
        for label, o in outcomes.items()
    }


@pytest.fixture(scope="module")
def reference():
    cache: dict[tuple[str, str], dict] = {}

    def get(engine: str, routine: str = "wrapped") -> dict:
        if (routine, engine) not in cache:
            cache[routine, engine] = direct_outcomes(routine, engine)
        return cache[routine, engine]

    return get


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("engine", ("compiled", "interpreted"))
def test_memoised_campaign_equals_direct_grading(reference, tmp_path, engine, workers):
    result = run_parallel_checkpointed_campaign(
        small_provider(), SCENARIOS, DEFAULT_CAMPAIGN_MODELS, tmp_path,
        modules=MODULES, workers=workers, num_shards=2, engine=engine,
    )
    assert not any(o.failed for o in result.outcomes.values())
    assert graded(result.outcomes) == reference(engine)


def test_memoised_campaign_under_chaos_equals_direct_grading(reference, tmp_path):
    result = run_parallel_checkpointed_campaign(
        small_provider(), SCENARIOS, DEFAULT_CAMPAIGN_MODELS, tmp_path,
        modules=MODULES, workers=2, num_shards=2,
        policy=RetryPolicy(max_retries=2, backoff_base=0.01, seed=11),
        chaos=ChaosPolicy({0: ShardChaos(kind="kill", failures=1, after_items=1)}),
    )
    # The kill lands after one checkpointed scenario: the shard resumes
    # in a fresh worker with a fresh memo and grades only the rest.
    assert result.complete and result.report.pool_rebuilds >= 1
    assert graded(result.outcomes) == reference("compiled")


# ----------------------------------------------------------------------
# Call counting: once per distinct item, and only within one call.
# ----------------------------------------------------------------------


@pytest.fixture
def calls(monkeypatch):
    """Record (engine, netlist, pattern digest) of every fault_simulate call
    the campaign module makes."""
    log: list[tuple[str, str, bytes]] = []
    original = campaign.fault_simulate

    def counting(netlist, patterns, faults, *, engine="compiled", **kwargs):
        log.append((engine, netlist.name, campaign.pattern_digest(patterns)))
        return original(netlist, patterns, faults, engine=engine, **kwargs)

    monkeypatch.setattr(campaign, "fault_simulate", counting)
    return log


def run_serial(tmp_path, name: str, engine: str = "compiled"):
    return campaign.run_checkpointed_campaign(
        small_provider()(), SCENARIOS, DEFAULT_CAMPAIGN_MODELS,
        tmp_path / f"{name}.json", modules=("FWD", "HDCU", "ICU"), engine=engine,
    )


def test_memo_tells_differing_items_apart(reference, tmp_path, calls):
    outcomes = campaign.run_checkpointed_campaign(
        unwrapped_builders(), SCENARIOS, DEFAULT_CAMPAIGN_MODELS,
        tmp_path / "unwrapped.json", modules=MODULES,
    )
    assert graded(outcomes) == reference("compiled", "unwrapped")
    # Some netlist really was graded on more than one distinct pattern set.
    netlists = Counter(name for _, name, _ in calls)
    assert max(netlists.values()) > 1


def test_repeated_items_are_graded_once_per_campaign(tmp_path, calls):
    run_serial(tmp_path, "memo")
    memoised = list(calls)
    calls.clear()
    builders = small_provider()()
    for scenario in SCENARIOS:
        result = run_scenario(builders, scenario)
        for grader in ("FWD", "HDCU", "ICU"):
            for core in scenario.active_cores:
                campaign.COVERAGE_GRADERS[grader](
                    result.per_core[core].log, DEFAULT_CAMPAIGN_MODELS[core]
                )
    direct = list(calls)
    assert set(Counter(memoised).values()) == {1}
    assert set(memoised) == set(direct)
    # The wrapped routine repeats its in-window activation in every scenario.
    assert len(memoised) < len(direct)


def test_memo_does_not_outlive_its_campaign(tmp_path, calls):
    run_serial(tmp_path, "compiled")
    compiled = list(calls)
    calls.clear()
    run_serial(tmp_path, "interpreted", engine="interpreted")
    interpreted = list(calls)
    calls.clear()
    run_serial(tmp_path, "again")
    assert compiled and {engine for engine, *_ in compiled} == {"compiled"}
    assert [item for _, *item in interpreted] == [item for _, *item in compiled]
    assert {engine for engine, *_ in interpreted} == {"interpreted"}
    assert calls == compiled
