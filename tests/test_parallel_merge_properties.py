"""Property-based tests of the campaign's shard planner and merge reducer.

The scenario is the one unit of parallel work, so the planner must
produce a true partition of the campaign (every label in exactly one
shard, campaign order kept inside each shard, the same plan every
time), and the outcome-map reducer must behave like a disjoint union:
permutation-invariant, associative under any grouping, with the empty
map as identity, refusing a label seen in two shards.  Uses
``hypothesis`` when installed; otherwise the same properties run over
seeded randomized cases, so the suite is meaningful without the
optional dependency.
"""

import random

import pytest

from repro.core.determinism import Scenario
from repro.errors import CheckpointError, FaultModelError
from repro.faults import (
    ScenarioOutcome,
    merge_outcome_maps,
    plan_campaign_shards,
    stable_shard_index,
)
from repro.faults.parallel import _merge_campaign_outcomes
from repro.soc import CodeAlignment, CodePosition

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

SEEDS = tuple(range(8))
MODULES = ("FWD",)

#: Every distinct scenario shape: active-core sets x placements.
SCENARIO_SPACE = tuple(
    Scenario(cores, position, alignment)
    for cores in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))
    for position in CodePosition
    for alignment in CodeAlignment
)


def make_scenarios(rng: random.Random, count: int) -> list[Scenario]:
    """Distinct scenarios in a random campaign order."""
    return rng.sample(SCENARIO_SPACE, min(count, len(SCENARIO_SPACE)))


def make_maps(rng: random.Random, count: int) -> list[dict]:
    """Disjoint per-shard outcome maps over distinct labels."""
    labels = [f"s{index}" for index in range(rng.randint(0, 40))]
    maps: list[dict] = [{} for _ in range(count)]
    for label in labels:
        maps[rng.randrange(count)][label] = ScenarioOutcome(
            label=label, attempts=rng.randint(1, 3)
        )
    return maps


def assert_partition(scenarios, plan) -> None:
    """Every label in exactly one shard, campaign order kept per shard."""
    labels = [scenario.label for scenario in scenarios]
    flattened = [label for shard in plan.labels for label in shard]
    assert sorted(flattened) == sorted(labels)
    assert len(flattened) == len(set(flattened))
    position = {label: index for index, label in enumerate(labels)}
    for index, shard in enumerate(plan.labels):
        assert [position[label] for label in shard] == sorted(
            position[label] for label in shard
        )
        for label in shard:
            assert stable_shard_index(label, plan.num_shards) == index


# ----------------------------------------------------------------------
# Reducer properties (seeded randomized — always run).
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_reduce_is_permutation_invariant(seed):
    rng = random.Random(seed)
    maps = make_maps(rng, rng.randint(1, 12))
    reference = merge_outcome_maps(list(maps))
    for _ in range(5):
        shuffled = list(maps)
        rng.shuffle(shuffled)
        assert merge_outcome_maps(shuffled) == reference


@pytest.mark.parametrize("seed", SEEDS)
def test_remerge_idempotence(seed):
    """Merging a single map is the identity, and folding in empty
    shards (the merge identity) changes nothing."""
    rng = random.Random(seed)
    (outcomes,) = make_maps(rng, 1)
    assert merge_outcome_maps([outcomes]) == outcomes
    padded = merge_outcome_maps([{}, outcomes, {}, {}])
    assert padded == outcomes
    # Re-merging an already-merged map is stable.
    assert merge_outcome_maps([padded]) == padded


@pytest.mark.parametrize("seed", SEEDS)
def test_reduce_matches_arbitrary_groupings(seed):
    """Associativity: pre-merging any contiguous grouping first gives
    the same answer as the flat merge."""
    rng = random.Random(seed)
    maps = make_maps(rng, rng.randint(2, 10))
    flat = merge_outcome_maps(list(maps))
    cut = rng.randint(1, len(maps) - 1)
    grouped = merge_outcome_maps(
        [merge_outcome_maps(maps[:cut]), merge_outcome_maps(maps[cut:])]
    )
    assert grouped == flat


def test_reduce_rejects_incompatible_shards():
    a = {"s1": ScenarioOutcome(label="s1")}
    with pytest.raises(CheckpointError, match="multiple shards"):
        merge_outcome_maps([a, {"s1": ScenarioOutcome(label="s1")}])
    with pytest.raises(CheckpointError, match="multiple shards"):
        merge_outcome_maps([a, {}, a])


# ----------------------------------------------------------------------
# Planner properties: a deterministic partition of the campaign.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_shards_partition_the_scenarios(seed):
    rng = random.Random(seed)
    scenarios = make_scenarios(rng, rng.randint(0, 60))
    num_shards = rng.choice((1, 2, 7, 16))
    plan = plan_campaign_shards(scenarios, MODULES, num_shards)
    assert plan.num_shards == len(plan.labels) == num_shards
    assert plan.modules == MODULES
    assert_partition(scenarios, plan)


@pytest.mark.parametrize("seed", SEEDS)
def test_shard_assignment_is_deterministic(seed):
    rng = random.Random(seed)
    scenarios = make_scenarios(rng, 40)
    first = plan_campaign_shards(scenarios, MODULES, 7)
    assert plan_campaign_shards(list(scenarios), MODULES, 7) == first
    # The pinned manifest form round-trips to the same plan.
    assert type(first).from_dict(first.to_dict()) == first


def test_campaign_merge_catches_loss_and_duplication():
    """Merging shard results checks the partition: a planned scenario
    no shard returned, or one returned by two shards, raises instead of
    shrinking or double-counting the campaign."""
    scenarios = SCENARIO_SPACE[:6]
    labels = [scenario.label for scenario in scenarios]
    plan = plan_campaign_shards(scenarios, MODULES, 3)
    completed = {
        index: {label: ScenarioOutcome(label=label) for label in shard}
        for index, shard in enumerate(plan.labels)
    }
    assert list(_merge_campaign_outcomes(labels, completed)) == labels
    donor = next(index for index, shard in enumerate(plan.labels) if shard)
    lost = dict(completed)
    lost[donor] = dict(list(completed[donor].items())[1:])
    with pytest.raises(CheckpointError, match="unaccounted"):
        _merge_campaign_outcomes(labels, lost)
    # ... unless the missing label is an enumerated quarantine loss.
    missing = plan.labels[donor][0]
    assert missing not in _merge_campaign_outcomes(
        labels, lost, missing_ok=(missing,)
    )
    duplicated = dict(completed)
    duplicated[len(plan.labels)] = dict(completed[donor])
    with pytest.raises(CheckpointError, match="multiple shards"):
        _merge_campaign_outcomes(labels, duplicated)


def test_stable_shard_index_is_pinned():
    """The hash is CRC-32 of the identity — pinned so a silent change
    of hashing scheme (e.g. to salted ``hash()``) fails loudly."""
    import zlib

    for identity in ("net0/SA0", "net31/SA1", "net7/STR"):
        for shards in (1, 2, 7, 16):
            assert stable_shard_index(identity, shards) == (
                zlib.crc32(identity.encode()) % shards
            )
    with pytest.raises(FaultModelError):
        stable_shard_index("net0/SA0", 0)


# ----------------------------------------------------------------------
# The same properties under hypothesis, when available.
# ----------------------------------------------------------------------

if HAVE_HYPOTHESIS:

    #: owners[i] is the shard that holds label ``s{i}``: disjoint maps.
    outcome_maps_strategy = st.lists(st.integers(0, 11), max_size=60).map(
        lambda owners: [
            {
                f"s{i}": ScenarioOutcome(label=f"s{i}")
                for i, owner in enumerate(owners)
                if owner == shard
            }
            for shard in range(12)
        ]
    )

    @settings(max_examples=50, deadline=None)
    @given(maps=outcome_maps_strategy, seed=st.integers(0, 2**32 - 1))
    def test_hypothesis_permutation_invariance(maps, seed):
        reference = merge_outcome_maps(list(maps))
        shuffled = list(maps)
        random.Random(seed).shuffle(shuffled)
        assert merge_outcome_maps(shuffled) == reference

    @settings(max_examples=50, deadline=None)
    @given(
        scenarios=st.lists(
            st.sampled_from(SCENARIO_SPACE), unique=True, max_size=80
        ),
        num_shards=st.integers(1, 32),
    )
    def test_hypothesis_partition_completeness(scenarios, num_shards):
        plan = plan_campaign_shards(scenarios, MODULES, num_shards)
        assert_partition(scenarios, plan)
        assert plan_campaign_shards(scenarios, MODULES, num_shards) == plan
