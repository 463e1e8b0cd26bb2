"""Differential compiled-vs-interpreted equivalence for every fault model.

The compiled kernel (:mod:`repro.faults.compiled`) is a pure
performance substitution: levelized arrays, cached cones, preallocated
buffers — but not one reported number may move.  These tests pin that
contract against the interpreted reference path for the three fault
models (uncollapsed stuck-at, weighted PPSFP, transition-delay), on
both real module netlists and seeded random ones, and through a
killed-and-resumed checkpointed campaign that switches engines
mid-flight.
"""

import pickle
import random

import pytest

from repro.core.determinism import Scenario, run_scenario
from repro.cpu.core import CORE_MODEL_A
from repro.errors import FaultModelError
from repro.faults import (
    compiled_for,
    fault_simulate,
    get_modules,
    run_checkpointed_campaign,
    run_parallel_checkpointed_campaign,
)
from repro.faults.gates import UNARY, GateKind
from repro.faults.netlist import Netlist
from repro.faults.observability import forwarding_pattern_sets
from repro.faults.ppsfp import PatternSet
from repro.faults.stuckat import collapse_with_weights, enumerate_faults
from repro.faults.transition import (
    enumerate_transition_faults,
    transition_fault_simulate,
)
from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS, small_provider
from repro.soc import CodeAlignment, CodePosition

SEEDS = tuple(range(6))

SCENARIOS = (
    Scenario((0, 1), CodePosition.LOW, CodeAlignment.QWORD),
    Scenario((0, 1), CodePosition.MID, CodeAlignment.WORD),
)


@pytest.fixture(scope="module")
def fwd_port():
    """One forwarding port's netlist + merged and ordered pattern sets
    from a real (small) two-core run."""
    builders = small_provider()()
    result = run_scenario(builders, SCENARIOS[0])
    modules = get_modules(CORE_MODEL_A)
    log = result.per_core[0].log
    merged = forwarding_pattern_sets(log, modules)
    ordered = forwarding_pattern_sets(log, modules, ordered=True)
    port = sorted(merged)[0]
    return modules.forwarding[port], merged[port], ordered[port]


def as_tuple(result):
    return (
        result.module,
        result.total_faults,
        result.detected_faults,
        result.num_patterns,
    )


def random_netlist(seed: int, num_inputs: int = 8, num_gates: int = 60) -> Netlist:
    """A seeded random feed-forward netlist with every gate kind."""
    rng = random.Random(seed)
    netlist = Netlist(f"rand{seed}")
    netlist.add_input_bus("in", num_inputs)
    nets = list(netlist.input_nets)
    kinds = list(GateKind)
    for _ in range(num_gates):
        kind = rng.choice(kinds)
        if kind in UNARY:
            out = netlist.add_gate(kind, rng.choice(nets))
        else:
            out = netlist.add_gate(kind, rng.choice(nets), rng.choice(nets))
        nets.append(out)
    internal = nets[num_inputs:]
    netlist.mark_output_bus("out", rng.sample(internal, k=min(6, len(internal))))
    return netlist


def random_patterns(
    netlist: Netlist, seed: int, num_patterns: int = 37, internal_obs: bool = False
) -> PatternSet:
    """Seeded stimulus + observability.  ``internal_obs`` additionally
    observes nets that feed no output, which defeats the compiled
    engine's truncated-cone fast path and forces the full-cone walk."""
    rng = random.Random(seed + 9000)
    inputs = {net: rng.getrandbits(num_patterns) for net in netlist.input_nets}
    observability = {
        net: rng.getrandbits(num_patterns) for net in netlist.output_nets
    }
    if internal_obs:
        gate_outs = [g.out for g in netlist.gates if g.out not in observability]
        for net in rng.sample(gate_outs, k=min(4, len(gate_outs))):
            observability[net] = rng.getrandbits(num_patterns)
    return PatternSet(num_patterns, inputs, observability)


# ----------------------------------------------------------------------
# Good simulation: the compiled per-kind batched sweep is bit-identical.
# ----------------------------------------------------------------------


def test_good_simulation_matches_on_real_module(fwd_port):
    netlist, patterns, _ = fwd_port
    compiled = compiled_for(netlist)
    assert compiled.evaluate(patterns.inputs, patterns.mask) == netlist.evaluate(
        patterns.inputs, patterns.mask
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_good_simulation_matches_on_random_netlists(seed):
    netlist = random_netlist(seed)
    patterns = random_patterns(netlist, seed)
    compiled = compiled_for(netlist)
    assert compiled.evaluate(patterns.inputs, patterns.mask) == netlist.evaluate(
        patterns.inputs, patterns.mask
    )


# ----------------------------------------------------------------------
# Three fault models on a real module netlist.
# ----------------------------------------------------------------------


def test_stuckat_engines_agree_on_real_module(fwd_port):
    netlist, patterns, _ = fwd_port
    faults = enumerate_faults(netlist)
    compiled = fault_simulate(netlist, patterns, faults, engine="compiled")
    interpreted = fault_simulate(netlist, patterns, faults, engine="interpreted")
    assert as_tuple(compiled) == as_tuple(interpreted)


def test_weighted_ppsfp_engines_agree_on_real_module(fwd_port):
    netlist, patterns, _ = fwd_port
    weighted = collapse_with_weights(netlist)
    compiled = fault_simulate(netlist, patterns, weighted, engine="compiled")
    interpreted = fault_simulate(netlist, patterns, weighted, engine="interpreted")
    assert as_tuple(compiled) == as_tuple(interpreted)
    assert compiled.total_faults == 2 * netlist.num_nets


def test_transition_engines_agree_on_real_module(fwd_port):
    netlist, _, ordered = fwd_port
    faults = enumerate_transition_faults(netlist)
    compiled = transition_fault_simulate(netlist, ordered, faults, engine="compiled")
    interpreted = transition_fault_simulate(
        netlist, ordered, faults, engine="interpreted"
    )
    assert as_tuple(compiled) == as_tuple(interpreted)


def test_unknown_engine_rejected(fwd_port):
    netlist, patterns, _ = fwd_port
    with pytest.raises(FaultModelError, match="unknown engine"):
        fault_simulate(netlist, patterns, engine="jit")


# ----------------------------------------------------------------------
# Seeded random netlists, truncated and full-cone observability.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("internal_obs", (False, True))
def test_random_netlists_stuckat_equivalence(seed, internal_obs):
    netlist = random_netlist(seed)
    patterns = random_patterns(netlist, seed, internal_obs=internal_obs)
    compiled = compiled_for(netlist)
    # internal_obs observes nets outside the output cone, which must
    # disable truncation (the fast path would miss those detections).
    assert compiled.can_truncate(patterns.output_observability) == (not internal_obs)
    faults = enumerate_faults(netlist)
    assert as_tuple(
        fault_simulate(netlist, patterns, faults, engine="compiled")
    ) == as_tuple(fault_simulate(netlist, patterns, faults, engine="interpreted"))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_netlists_transition_equivalence(seed):
    netlist = random_netlist(seed)
    patterns = random_patterns(netlist, seed)
    faults = enumerate_transition_faults(netlist)
    assert as_tuple(
        transition_fault_simulate(netlist, patterns, faults, engine="compiled")
    ) == as_tuple(
        transition_fault_simulate(netlist, patterns, faults, engine="interpreted")
    )


# ----------------------------------------------------------------------
# Campaign layer: engine choice never moves coverage or signatures,
# and a killed campaign may resume under the other engine.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def interpreted_campaign(tmp_path_factory):
    path = tmp_path_factory.mktemp("interpreted") / "campaign.json"
    return run_checkpointed_campaign(
        small_provider()(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        path,
        modules=("FWD",),
        engine="interpreted",
    )


def outcome_dicts(outcomes):
    return {label: outcome.to_dict() for label, outcome in outcomes.items()}


def test_campaign_engines_agree(interpreted_campaign, tmp_path):
    result = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        tmp_path / "compiled",
        modules=("FWD",),
        workers=1,
        engine="compiled",
    )
    assert outcome_dicts(result.outcomes) == outcome_dicts(interpreted_campaign)
    for label, outcome in result.outcomes.items():
        assert outcome.signatures == interpreted_campaign[label].signatures
        assert outcome.signatures  # actually recorded, not vacuous


def test_campaign_resume_switches_engines(interpreted_campaign, tmp_path):
    """Kill a compiled campaign after its first shard, resume it
    interpreted: bit-identical engines make the switch legal, and the
    merged outcomes must equal the serial interpreted reference."""

    class Killed(RuntimeError):
        pass

    def kill_after_first_shard(index, outcomes):
        raise Killed(f"killed after shard {index}")

    directory = tmp_path / "switch"
    with pytest.raises(Killed):
        run_parallel_checkpointed_campaign(
            small_provider(),
            SCENARIOS,
            DEFAULT_CAMPAIGN_MODELS,
            directory,
            modules=("FWD",),
            workers=1,
            num_shards=2,
            engine="compiled",
            on_shard=kill_after_first_shard,
        )
    resumed = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        directory,
        modules=("FWD",),
        workers=1,
        engine="interpreted",
    )
    # The resume ran strictly fewer shards than the plan holds.
    assert len(resumed.scheduled) < resumed.num_shards
    assert outcome_dicts(resumed.outcomes) == outcome_dicts(interpreted_campaign)


# ----------------------------------------------------------------------
# Compile-artifact lifecycle: freeze, cache, and lean pickles.
# ----------------------------------------------------------------------


def test_compiling_freezes_the_netlist():
    netlist = random_netlist(99)
    compiled_for(netlist)
    assert netlist.frozen
    with pytest.raises(FaultModelError, match="frozen"):
        netlist.add_gate(GateKind.NOT, 0)
    with pytest.raises(FaultModelError, match="frozen"):
        netlist.new_net()
    with pytest.raises(FaultModelError, match="frozen"):
        netlist.mark_output_bus("late", [0])


def test_compiled_artifact_is_cached_per_netlist():
    netlist = random_netlist(100)
    assert compiled_for(netlist) is compiled_for(netlist)


def test_pickled_netlists_drop_the_compiled_artifact():
    netlist = random_netlist(101)
    patterns = random_patterns(netlist, 101)
    reference = fault_simulate(netlist, patterns)  # compiles + caches
    clone = pickle.loads(pickle.dumps(netlist))
    assert not hasattr(clone, "_compiled_artifact")
    assert clone.frozen  # freeze state survives the round-trip
    assert as_tuple(fault_simulate(clone, patterns)) == as_tuple(reference)
