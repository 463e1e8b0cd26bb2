"""Differential serial-vs-sharded campaign equivalence.

The parallel campaign's contract is that no (workers, num_shards)
geometry changes a single reported number.  These tests pin that
contract for both fault models a campaign grades — weighted stuck-at
(FWD, HDCU, ICU) and transition-delay (FWD-TDF) — across shard counts
{1, 2, 7, 16}, odd shard shapes (empty shards) and real process pools,
including the per-core signatures each scenario records.
"""

import pytest

from repro.core.determinism import Scenario
from repro.faults import (
    get_modules,
    plan_campaign_shards,
    run_checkpointed_campaign,
    run_parallel_checkpointed_campaign,
)
from repro.faults import parallel
from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS, small_provider
from repro.soc import CodeAlignment, CodePosition

SHARD_COUNTS = (1, 2, 7, 16)

SCENARIOS = (
    Scenario((0, 1), CodePosition.LOW, CodeAlignment.QWORD),
    Scenario((0, 1), CodePosition.MID, CodeAlignment.WORD),
    Scenario((0, 1, 2), CodePosition.HIGH, CodeAlignment.DWORD),
)

STUCKAT = ("FWD", "HDCU", "ICU")
TRANSITION = ("FWD-TDF",)


def outcome_dicts(outcomes):
    return {label: outcome.to_dict() for label, outcome in outcomes.items()}


def serial(tmp_path_factory, modules):
    path = tmp_path_factory.mktemp("serial") / "campaign.json"
    return outcome_dicts(
        run_checkpointed_campaign(
            small_provider()(), SCENARIOS, DEFAULT_CAMPAIGN_MODELS, path,
            modules=modules,
        )
    )


def sharded(directory, modules, workers, num_shards):
    return outcome_dicts(
        run_parallel_checkpointed_campaign(
            small_provider(), SCENARIOS, DEFAULT_CAMPAIGN_MODELS, directory,
            modules=modules, workers=workers, num_shards=num_shards,
        ).outcomes
    )


@pytest.fixture(scope="module")
def serial_stuckat(tmp_path_factory):
    return serial(tmp_path_factory, STUCKAT)


@pytest.fixture(scope="module")
def serial_forwarding(serial_campaign):
    return outcome_dicts(serial_campaign)


@pytest.fixture(scope="module")
def serial_transition(tmp_path_factory):
    return serial(tmp_path_factory, TRANSITION)


# ----------------------------------------------------------------------
# Fault-model equivalence across shard counts (in-process shards).
# ----------------------------------------------------------------------


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_stuckat_equivalence_across_shard_counts(
    serial_stuckat, tmp_path, num_shards
):
    assert sharded(tmp_path, STUCKAT, 1, num_shards) == serial_stuckat


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_weighted_ppsfp_equivalence_across_shard_counts(
    serial_forwarding, tmp_path, num_shards
):
    outcomes = sharded(tmp_path, ("FWD",), 1, num_shards)
    assert outcomes == serial_forwarding
    # Collapsed classes are graded once but weighted: the totals still
    # count the uncollapsed population, two stem faults per net.
    for outcome in outcomes.values():
        for coverage in outcome["coverages"]:
            modules = get_modules(DEFAULT_CAMPAIGN_MODELS[coverage["core_id"]])
            assert coverage["total_faults"] == sum(
                2 * netlist.num_nets for netlist in modules.forwarding.values()
            )


def test_default_fault_lists_match_serial_defaults(serial_forwarding, tmp_path):
    """Omitting ``modules`` must grade the same default fault list
    serially and sharded (the forwarding logic)."""
    result = run_parallel_checkpointed_campaign(
        small_provider(), SCENARIOS, DEFAULT_CAMPAIGN_MODELS, tmp_path,
        workers=1, num_shards=7,
    )
    assert outcome_dicts(result.outcomes) == serial_forwarding


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_transition_equivalence_across_shard_counts(
    serial_transition, tmp_path, num_shards
):
    assert sharded(tmp_path, TRANSITION, 1, num_shards) == serial_transition


# ----------------------------------------------------------------------
# Real process pools.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers,num_shards", [(2, 2), (2, 7), (4, 16)])
def test_stuckat_equivalence_with_process_pool(
    serial_stuckat, tmp_path, workers, num_shards
):
    assert sharded(tmp_path, STUCKAT, workers, num_shards) == serial_stuckat


def test_transition_equivalence_with_process_pool(serial_transition, tmp_path):
    assert sharded(tmp_path, TRANSITION, 2, 7) == serial_transition


# ----------------------------------------------------------------------
# Odd shard shapes.
# ----------------------------------------------------------------------


def test_empty_shards_are_harmless(serial_stuckat, tmp_path):
    """More shards than scenarios leaves some shards empty; they must
    contribute nothing to the merge."""
    plan = plan_campaign_shards(SCENARIOS, STUCKAT, 16)
    assert any(not shard for shard in plan.labels)  # genuinely empty
    assert sharded(tmp_path, STUCKAT, 2, 16) == serial_stuckat


def test_workers_one_is_exact_serial_path(serial_stuckat, tmp_path, monkeypatch):
    """One worker and one shard is the serial campaign itself: one
    in-process call over every scenario, in campaign order."""
    calls = []
    serial_campaign = parallel.run_checkpointed_campaign

    def spy(builders, scenarios, *args, **kwargs):
        calls.append(tuple(scenarios))
        return serial_campaign(builders, scenarios, *args, **kwargs)

    monkeypatch.setattr(parallel, "run_checkpointed_campaign", spy)
    assert sharded(tmp_path, STUCKAT, 1, 1) == serial_stuckat
    assert calls == [SCENARIOS]


# ----------------------------------------------------------------------
# Campaign-level equivalence: coverage dicts AND signatures.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def serial_campaign(tmp_path_factory):
    path = tmp_path_factory.mktemp("serial") / "campaign.json"
    return run_checkpointed_campaign(
        small_provider()(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        path,
        modules=("FWD",),
    )


@pytest.mark.parametrize("workers,num_shards", [(1, None), (2, 3), (2, 7)])
def test_campaign_equivalence(
    serial_campaign, tmp_path, workers, num_shards
):
    result = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        tmp_path / "parallel",
        modules=("FWD",),
        workers=workers,
        num_shards=num_shards,
    )
    assert outcome_dicts(result.outcomes) == outcome_dicts(serial_campaign)
    # Signatures are part of the contract: identical per core, per
    # scenario, whatever the pool geometry.
    for label, outcome in result.outcomes.items():
        assert outcome.signatures == serial_campaign[label].signatures
        assert outcome.signatures  # actually recorded, not vacuous


def test_campaign_preserves_scenario_order(serial_campaign, tmp_path):
    result = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        tmp_path / "ordered",
        modules=("FWD",),
        workers=2,
        num_shards=2,
    )
    assert list(result.outcomes) == [s.label for s in SCENARIOS]
    assert list(result.outcomes) == list(serial_campaign)


def test_campaign_multi_module_equivalence(tmp_path):
    """Grading several fault lists at once stays equivalent too."""
    modules = ("FWD", "ICU")
    serial = run_checkpointed_campaign(
        small_provider()(),
        SCENARIOS[:2],
        DEFAULT_CAMPAIGN_MODELS,
        tmp_path / "serial.json",
        modules=modules,
    )
    parallel = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS[:2],
        DEFAULT_CAMPAIGN_MODELS,
        tmp_path / "parallel",
        modules=modules,
        workers=2,
        num_shards=2,
    )
    assert outcome_dicts(parallel.outcomes) == outcome_dicts(serial)
