"""Build fault-simulation pattern sets from pipeline activation logs.

This is the bridge between the logic simulation (the cycle-level
pipeline run) and the gate-level fault simulation: every recorded module
activation becomes one stimulus pattern, and its observability mask says
on which output bits a fault effect would actually reach the 32-bit
test signature.  Patterns outside the test window (the cache-based
strategy's loading loop) carry no observability and are skipped
entirely — the loading loop can excite faults but never detect them,
exactly as the methodology prescribes.

Identical patterns are merged (their observability masks OR together),
which keeps the packed bigints short without changing coverage.  Each
builder reduces a record to a small key, deduplicates the keys in
first-occurrence order, packs every distinct row into one stimulus word
(bit ``j`` drives ``input_nets[j]``) and transposes the words into the
per-net pattern columns a :class:`PatternSet` stores — no per-bit
tuples, and the transpose runs in C.
"""

from __future__ import annotations

from repro.cpu.recording import ActivationLog
from repro.faults.generators import ICU_FIELD_BITS, NUM_SOURCES, PORTS, CoreModules
from repro.faults.ppsfp import PatternSet
from repro.isa.instructions import NUM_EVENTS


def _columns(words: list[int], width: int) -> list[int]:
    """Transpose ``width``-bit words into per-bit pattern columns.

    Bit ``p`` of ``result[j]`` is bit ``j`` of ``words[p]``.
    """
    if not words:
        return [0] * width
    rows = [format(word, f"0{width}b") for word in reversed(words)]
    return [int("".join(column), 2) for column in zip(*rows)][::-1]


def _pattern_set(rows, width: int, input_nets: list[int], groups) -> PatternSet:
    """Pack ``(stimulus word, observability mask)`` rows, in pattern order.

    Pattern ``p`` applies bit ``j`` of its word to ``input_nets[j]``
    (inputs past ``width`` stay 0) and is observable on every net of
    ``groups[g]`` when bit ``g`` of its mask is set.
    """
    inputs = dict.fromkeys(input_nets, 0)
    inputs.update(zip(input_nets, _columns([word for word, _ in rows], width)))
    observability: dict[int, int] = {}
    masks = _columns([mask for _, mask in rows], len(groups))
    for nets, patterns in zip(groups, masks):
        if patterns:
            for net in nets:
                observability[net] = observability.get(net, 0) | patterns
    return PatternSet(len(rows), inputs, observability)


# ----------------------------------------------------------------------
# Forwarding logic.
# ----------------------------------------------------------------------

def forwarding_pattern_sets(
    log: ActivationLog, modules: CoreModules, ordered: bool = False
) -> dict[tuple[int, int], PatternSet]:
    """One pattern set per consumer port from the forwarding records.

    A pattern is the one-hot select followed by the five candidates,
    each truncated to the datapath width.  The low output word is always
    observable; core C's high word only on patterns whose 64-bit result
    can reach the signature.  ``ordered=True`` keeps one pattern per
    record in temporal order, without deduplication (needed for
    transition-delay grading)."""
    width = 64 if modules.model.is64 else 32
    mask = (1 << width) - 1
    rows: dict[tuple[int, int], dict | list] = {
        port: [] if ordered else {} for port in PORTS
    }
    for record in log.forwarding:
        if not record.observable:
            continue
        port_rows = rows.get((record.slot, record.operand))
        if port_rows is None:
            continue
        key = (int(record.select), *[value & mask for value in record.candidates])
        obs = 3 if record.width == 64 and record.observable_high else 1
        if ordered:
            port_rows.append((key, obs))
        else:
            port_rows[key] = port_rows.get(key, 0) | obs
    result = {}
    for port, port_rows in rows.items():
        if not port_rows:
            continue
        netlist = modules.forwarding[port]
        out = netlist.outputs["out"]
        packed = []
        for (select, *candidates), obs in (
            port_rows if ordered else port_rows.items()
        ):
            word = 1 << select
            for i, value in enumerate(candidates):
                word |= value << (NUM_SOURCES + i * width)
            packed.append((word, obs))
        result[port] = _pattern_set(
            packed,
            NUM_SOURCES * (1 + width),
            netlist.input_nets,
            (out[:32], out[32:width]),
        )
    return result


# ----------------------------------------------------------------------
# HDCU.
# ----------------------------------------------------------------------

def hdcu_pattern_sets(
    log: ActivationLog, modules: CoreModules
) -> dict[tuple[int, int], PatternSet]:
    """One pattern set per consumer port from the HDCU records.

    A pattern is the 33-bit comparator word: consumer and four producer
    register indices (5 bits each), producer valid bits and unready-load
    flags (4 bits each)."""
    rows: dict[tuple[int, int], dict] = {port: {} for port in PORTS}
    for record in log.hdcu:
        if not record.observable:
            continue
        port_rows = rows.get((record.slot, record.operand))
        if port_rows is None:
            continue
        p0, p1, p2, p3 = record.producer_regs
        word = (
            record.consumer_reg & 31
            | (p0 & 31) << 5
            | (p1 & 31) << 10
            | (p2 & 31) << 15
            | (p3 & 31) << 20
            | (record.producer_valid & 15) << 25
            | (record.producer_load_mask & 15) << 29
        )
        obs = 0
        flips = record.flip_visible_mask
        if not record.stall and flips:
            # A wrong select is visible through the datapath only when
            # the alternative source carried different data here.
            obs = flips & ((1 << NUM_SOURCES) - 1) | 1 << record.select
        # A wrong stall decision is visible only when the performance
        # counters contribute to the signature (the full algorithm of [19]).
        if record.stall_observable:
            obs |= 1 << NUM_SOURCES
        port_rows[word] = port_rows.get(word, 0) | obs
    result = {}
    for port, port_rows in rows.items():
        if not port_rows:
            continue
        netlist = modules.hdcu[port]
        groups = [[net] for net in netlist.outputs["sel"]]
        groups.append(netlist.outputs["stall"][:1])
        result[port] = _pattern_set(
            list(port_rows.items()), 33, netlist.input_nets, groups
        )
    return result


# ----------------------------------------------------------------------
# ICU.
# ----------------------------------------------------------------------

def icu_pattern_set(log: ActivationLog, modules: CoreModules) -> PatternSet:
    """Patterns from the ICU recognitions (merged ones split per event,
    mirroring the sequential recognition of each pending source).

    A pattern is the one-hot event, the imprecision field and the
    recognition count; every status, imprecision and counter output is
    observable on every pattern."""
    field = (1 << ICU_FIELD_BITS) - 1
    count_shift = NUM_EVENTS + ICU_FIELD_BITS
    rows: dict[int, int] = {}
    for record in log.icu:
        if not record.observable:
            continue
        imprecision = (record.imprecision & field) << NUM_EVENTS
        count = record.count_before
        for event in range(NUM_EVENTS):
            if record.event_vector >> event & 1:
                rows[1 << event | imprecision | (count & field) << count_shift] = 1
                count += 1
    outputs = [
        net
        for bus in ("status", "imp_out", "count_out")
        for net in modules.icu.outputs[bus]
    ]
    return _pattern_set(
        list(rows.items()), count_shift + ICU_FIELD_BITS, modules.icu.input_nets,
        [outputs],
    )
