"""Column-packed pattern-set builders against a per-bit reference.

:mod:`repro.faults.observability` packs each deduplicated activation
row into one stimulus word and transposes the words into per-net
pattern columns.  The reference below is the straightforward builder it
replaced: every record expands into a tuple of single bits and a dict of
per-output observability flags, identical tuples merge, and the columns
are assembled one bit at a time.  Both must give equal
``(num_patterns, inputs, output_observability)`` on every port — on
real logs of the wrapped and unwrapped routines of all three core
models, in ``ordered`` mode, and on generated records whose values
overflow their fields.
"""

from __future__ import annotations


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.determinism import default_scenarios, run_scenario
from repro.cpu.recording import (
    ActivationLog,
    ForwardingRecord,
    FwdSource,
    HdcuRecord,
    IcuRecord,
)
from repro.faults.generators import ICU_FIELD_BITS, NUM_SOURCES, PORTS, get_modules
from repro.faults.observability import (
    forwarding_pattern_sets,
    hdcu_pattern_sets,
    icu_pattern_set,
)
from repro.faults.ppsfp import PatternSet
from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS, standard_provider
from repro.isa.instructions import NUM_EVENTS
from repro.stl import RoutineContext
from repro.stl.routines import make_forwarding_routine

# ----------------------------------------------------------------------
# Reference builders: one tuple of bits per record.
# ----------------------------------------------------------------------


class _Accumulator:
    """Merges identical (stimulus, per-output-observability) patterns;
    ``ordered=True`` keeps every pattern in temporal order instead."""

    def __init__(self, ordered: bool = False):
        self.ordered = ordered
        self._patterns: dict[tuple, int] = {}
        self._sequence: list[tuple] = []
        self._obs: list[dict] = []

    def add(self, stimulus: tuple, obs: dict[int, bool]) -> None:
        if self.ordered:
            self._sequence.append(stimulus)
            self._obs.append(dict(obs))
            return
        index = self._patterns.get(stimulus)
        if index is None:
            index = len(self._obs)
            self._patterns[stimulus] = index
            self._obs.append(dict(obs))
        else:
            merged = self._obs[index]
            for net, flag in obs.items():
                merged[net] = merged.get(net, False) or flag

    def _stimuli(self):
        if self.ordered:
            return enumerate(self._sequence)
        return ((index, stimulus) for stimulus, index in self._patterns.items())

    def build(self, input_nets: list[int]) -> PatternSet:
        patterns = PatternSet(num_patterns=len(self._obs))
        inputs = {net: 0 for net in input_nets}
        for index, stimulus in self._stimuli():
            for net, value in zip(input_nets, stimulus):
                if value:
                    inputs[net] |= 1 << index
        patterns.inputs = inputs
        obs_packed: dict[int, int] = {}
        for index, obs in enumerate(self._obs):
            for net, flag in obs.items():
                if flag:
                    obs_packed[net] = obs_packed.get(net, 0) | (1 << index)
        patterns.output_observability = obs_packed
        return patterns

    @property
    def empty(self) -> bool:
        return not self._obs


def _bits(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> i) & 1 for i in range(width))


def _forwarding_stimulus(record: ForwardingRecord, width: int) -> tuple:
    sel = tuple(1 if i == int(record.select) else 0 for i in range(NUM_SOURCES))
    data: list[int] = []
    for i in range(NUM_SOURCES):
        data.extend(_bits(record.candidates[i], width))
    return sel + tuple(data)


def reference_forwarding(log, modules, ordered=False):
    width = 64 if modules.model.is64 else 32
    accumulators = {port: _Accumulator(ordered) for port in PORTS}
    for record in log.forwarding:
        if not record.observable:
            continue
        port = (record.slot, record.operand)
        acc = accumulators.get(port)
        if acc is None:
            continue
        out = modules.forwarding[port].outputs["out"]
        high_ok = record.width == 64 and record.observable_high
        obs = {out[j]: True for j in range(width) if j < 32 or high_ok}
        acc.add(_forwarding_stimulus(record, width), obs)
    return {
        port: acc.build(modules.forwarding[port].input_nets)
        for port, acc in accumulators.items()
        if not acc.empty
    }


def _hdcu_observability(record: HdcuRecord, netlist) -> dict[int, bool]:
    sel_nets = netlist.outputs["sel"]
    stall_net = netlist.outputs["stall"][0]
    obs: dict[int, bool] = {}
    if not record.stall:
        for i in range(NUM_SOURCES):
            if (record.flip_visible_mask >> i) & 1:
                obs[sel_nets[i]] = True
        if record.flip_visible_mask:
            obs[sel_nets[int(record.select)]] = True
    obs[stall_net] = record.stall_observable
    return obs


def reference_hdcu(log, modules):
    accumulators = {port: _Accumulator() for port in PORTS}
    for record in log.hdcu:
        if not record.observable:
            continue
        port = (record.slot, record.operand)
        acc = accumulators.get(port)
        if acc is None:
            continue
        stimulus = (
            _bits(record.consumer_reg, 5)
            + _bits(record.producer_regs[0], 5)
            + _bits(record.producer_regs[1], 5)
            + _bits(record.producer_regs[2], 5)
            + _bits(record.producer_regs[3], 5)
            + _bits(record.producer_valid, 4)
            + _bits(record.producer_load_mask, 4)
        )
        acc.add(stimulus, _hdcu_observability(record, modules.hdcu[port]))
    return {
        port: acc.build(modules.hdcu[port].input_nets)
        for port, acc in accumulators.items()
        if not acc.empty
    }


def reference_icu(log, modules):
    acc = _Accumulator()
    for record in log.icu:
        if not record.observable:
            continue
        events = [e for e in range(NUM_EVENTS) if (record.event_vector >> e) & 1]
        for index, event in enumerate(events):
            stimulus = (
                tuple(1 if e == event else 0 for e in range(NUM_EVENTS))
                + _bits(record.imprecision, ICU_FIELD_BITS)
                + _bits(record.count_before + index, ICU_FIELD_BITS)
            )
            obs = {
                net: True
                for bus in ("status", "imp_out", "count_out")
                for net in modules.icu.outputs[bus]
            }
            acc.add(stimulus, obs)
    return acc.build(modules.icu.input_nets)


# ----------------------------------------------------------------------
# Comparison helpers.
# ----------------------------------------------------------------------


def as_tuple(patterns: PatternSet):
    return (
        patterns.num_patterns,
        patterns.inputs,
        patterns.output_observability,
    )


def assert_port_sets_equal(packed, reference):
    assert sorted(packed) == sorted(reference)
    for port in reference:
        assert as_tuple(packed[port]) == as_tuple(reference[port]), port


def assert_builders_match(log, modules):
    assert_port_sets_equal(
        forwarding_pattern_sets(log, modules), reference_forwarding(log, modules)
    )
    assert_port_sets_equal(
        forwarding_pattern_sets(log, modules, ordered=True),
        reference_forwarding(log, modules, ordered=True),
    )
    assert_port_sets_equal(hdcu_pattern_sets(log, modules), reference_hdcu(log, modules))
    assert as_tuple(icu_pattern_set(log, modules)) == as_tuple(
        reference_icu(log, modules)
    )


# ----------------------------------------------------------------------
# Real activation logs.
# ----------------------------------------------------------------------

#: Three-core scenarios, so every core model contributes a log.
SCENARIOS = [s for s in default_scenarios() if len(s.active_cores) == 3][::4]


def unwrapped_builders():
    return {
        core_id: make_forwarding_routine(model, with_pcs=False).builder_for(
            RoutineContext.for_core(core_id, model)
        )
        for core_id, model in DEFAULT_CAMPAIGN_MODELS.items()
    }


@pytest.fixture(scope="module", params=["wrapped", "unwrapped"])
def core_logs(request):
    builders = standard_provider()() if request.param == "wrapped" else unwrapped_builders()
    logs = []
    for scenario in SCENARIOS:
        result = run_scenario(builders, scenario)
        for core_id in scenario.active_cores:
            logs.append((DEFAULT_CAMPAIGN_MODELS[core_id], result.per_core[core_id].log))
    return logs


def test_real_logs_cover_every_model_and_the_high_word(core_logs):
    assert {model.name for model, _ in core_logs} == {"A", "B", "C"}
    high = [
        r
        for model, log in core_logs
        if model.is64
        for r in log.forwarding
        if r.observable and r.width == 64 and r.observable_high
    ]
    assert high, "core C's 64-bit observable_high path is not exercised"


def test_packed_builders_match_reference_on_real_logs(core_logs):
    for model, log in core_logs:
        assert_builders_match(log, get_modules(model))


def test_empty_log_builds_no_port_sets():
    for model in DEFAULT_CAMPAIGN_MODELS.values():
        modules = get_modules(model)
        log = ActivationLog()
        assert forwarding_pattern_sets(log, modules) == {}
        assert forwarding_pattern_sets(log, modules, ordered=True) == {}
        assert hdcu_pattern_sets(log, modules) == {}
        assert icu_pattern_set(log, modules).num_patterns == 0
        assert_builders_match(log, modules)


def test_non_observable_logs_match_reference(core_logs):
    model, log = core_logs[-1]
    hidden = ActivationLog(
        forwarding=[_hide(r) for r in log.forwarding],
        hdcu=[_hide(r) for r in log.hdcu],
        icu=[_hide(r) for r in log.icu],
    )
    modules = get_modules(model)
    assert forwarding_pattern_sets(hidden, modules) == {}
    assert hdcu_pattern_sets(hidden, modules) == {}
    assert icu_pattern_set(hidden, modules).num_patterns == 0
    assert_builders_match(hidden, modules)


def _hide(record):
    return record._replace(observable=False)


# ----------------------------------------------------------------------
# Generated records: values wider than their fields, repeats, odd ports.
# ----------------------------------------------------------------------

#: Small values make repeats (and so merging) likely; wide ones overflow.
values = st.one_of(st.integers(0, 3), st.integers(-(2**70), 2**70))
ports = st.tuples(st.integers(0, 2), st.integers(0, 1))

forwarding_records = st.builds(
    lambda port, **kw: ForwardingRecord(slot=port[0], operand=port[1], **kw),
    port=ports,
    select=st.sampled_from(list(FwdSource)),
    candidates=st.tuples(values, values, values, values, values),
    valid_mask=st.integers(0, 31),
    width=st.sampled_from([32, 64]),
    observable=st.booleans(),
    observable_high=st.booleans(),
)

registers = st.one_of(st.integers(0, 3), st.integers(0, 200))
hdcu_records = st.builds(
    lambda port, **kw: HdcuRecord(slot=port[0], operand=port[1], **kw),
    port=ports,
    consumer_reg=registers,
    producer_regs=st.tuples(registers, registers, registers, registers),
    producer_valid=st.integers(0, 63),
    select=st.sampled_from(list(FwdSource)),
    stall=st.booleans(),
    flip_visible_mask=st.integers(0, 127),
    observable=st.booleans(),
    stall_observable=st.booleans(),
    producer_load_mask=st.integers(0, 63),
)

icu_records = st.builds(
    IcuRecord,
    event_vector=st.integers(0, 255),
    merged=st.booleans(),
    imprecision=st.integers(0, 40),
    status_bits=st.integers(0, 63),
    observable=st.booleans(),
    count_before=st.one_of(st.integers(0, 3), st.integers(0, 40)),
)


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(list(DEFAULT_CAMPAIGN_MODELS.values())),
    forwarding=st.lists(forwarding_records, max_size=25),
    hdcu=st.lists(hdcu_records, max_size=25),
    icu=st.lists(icu_records, max_size=12),
)
def test_packed_builders_match_reference_on_generated_records(
    model, forwarding, hdcu, icu
):
    log = ActivationLog(forwarding=forwarding, hdcu=hdcu, icu=icu)
    assert_builders_match(log, get_modules(model))
