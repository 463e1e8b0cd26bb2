"""The forwarding network: operand resolution and activation recording.

This module mirrors the *Forwarding Logic* of the paper's case-study
processor: "the multiplexers that directly feed and collect the results
produced by the different execution units" (Section IV-A).  Each EX
operand port of each issue slot is a 5:1 mux choosing between the
register file and four in-flight producers:

======  ==============================================================
source  meaning (distance in issue packets)
======  ==============================================================
RF      register file (producer retired, i.e. >= 3 packets away)
EX0/1   EX/MEM latch of pipe 0 / pipe 1 (producer 1 packet away)
MEM0/1  MEM/WB latch of pipe 0 / pipe 1 (producer 2 packets away)
======  ==============================================================

When bus contention delays a fetch, a consumer that would have issued
one packet after its producer instead issues three or more packets
later: the mux selects RF, the EX->EX path is *not excited*, and any
stuck-at fault on that path goes undetected — Fig. 1b of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from repro.cpu.recording import FwdSource
from repro.cpu.state import RegFile
from repro.cpu.uop import Uop

#: ``FwdSource`` members indexed by their integer select code.
FWD_SOURCES = tuple(FwdSource)


@dataclass
class Resolution:
    """Result of resolving one architectural register at issue time."""

    value: int
    select: FwdSource
    ready: bool
    #: Value on each mux input (RF, EX0, EX1, MEM0, MEM1); 0 when absent.
    candidates: tuple[int, int, int, int, int]
    #: Bit i set when source i had a matching, ready producer.
    valid_mask: int


class ProducerView(NamedTuple):
    """The four producer lanes (EX0, EX1, MEM0, MEM1) as issue sees them.

    Lane i (bit i, ``FwdSource`` i + 1) is one slot of one latch; the
    latches only change at stage boundaries, so one view serves every
    operand resolved and every HDCU decision recorded in a cycle.
    """

    #: ``(source, uop)`` for every in-flight writer, youngest lane first.
    producers: tuple[tuple[int, Uop], ...]
    #: First destination register per lane (0 when the lane writes none).
    regs: tuple[int, int, int, int]
    #: Bit i set when lane i holds a register writer.
    valid: int
    #: Bit i set when lane i holds a load whose data has not returned.
    loads: int


EMPTY_VIEW = ProducerView((), (0, 0, 0, 0), 0, 0)
_source = itemgetter(0)


def producer_view(
    ex_source_latch: list[Uop], mem_source_latch: list[Uop]
) -> ProducerView:
    """Scan both latches once and return their :class:`ProducerView`.

    ``ex_source_latch`` holds the packet issued one cycle before the
    consumer (its result sits on the EX/MEM boundary: the EX->EX paths);
    ``mem_source_latch`` the packet issued two cycles before (MEM/WB
    boundary: the MEM->EX paths).
    """
    if not ex_source_latch and not mem_source_latch:
        return EMPTY_VIEW
    producers = []
    regs = [0, 0, 0, 0]
    valid = loads = 0
    for first_lane, latch in ((0, ex_source_latch), (2, mem_source_latch)):
        for uop in latch:
            lane = first_lane + uop.slot
            bit = 1 << lane
            if uop.dests:
                producers.append((lane + 1, uop))
                if not valid & bit:
                    valid |= bit
                    regs[lane] = uop.dests[0]
            if uop.is_load and not uop.result_ready:
                loads |= bit
    if len(producers) > 1:
        producers.sort(key=_source)
    return ProducerView(tuple(producers), tuple(regs), valid, loads)


def resolve(
    reg: int, producers: tuple[tuple[int, Uop], ...], rf_value: int
) -> tuple[int, tuple[int, int, int, int, int], int, bool]:
    """Resolve one architectural register through the forwarding muxes.

    Returns ``(select, candidates, valid_mask, ready)``; the operand
    value is ``candidates[select]``.  A producer three or more packets
    ahead has already written the register file when issue runs, so the
    plain RF read (``rf_value``) covers it — no forwarding path is
    excited, which is the paper's Fig. 1b broken-forwarding case.
    Priority is youngest-first.  ``ready`` is False when the youngest
    matching producer is a load whose data has not returned yet: the
    issue logic must stall (the HDCU's "forwarding not possible" case).
    """
    candidates = None
    select = 0
    valid = 1  # RF is always a valid source.
    seen = 0
    for source, uop in producers:
        if reg not in uop.dests:
            continue
        bit = 1 << source
        if seen & bit:
            continue  # Each mux input carries one producer per lane.
        seen |= bit
        if not uop.result_ready:
            if not select:
                return source, (rf_value, 0, 0, 0, 0), valid, False
            continue
        if candidates is None:
            candidates = [rf_value, 0, 0, 0, 0]
        candidates[source] = uop.dest_value(reg)
        valid |= bit
        if not select:
            select = source
    if candidates is None:
        return 0, (rf_value, 0, 0, 0, 0), 1, True
    if reg == 0:
        select = 0
    return select, tuple(candidates), valid, True


def resolve_register(
    reg: int,
    ex_source_latch: list[Uop],
    mem_source_latch: list[Uop],
    regfile: RegFile,
) -> Resolution:
    """:func:`resolve` over two latches, as a :class:`Resolution`."""
    view = producer_view(ex_source_latch, mem_source_latch)
    select, candidates, valid, ready = resolve(
        reg, view.producers, regfile.read(reg)
    )
    value = candidates[select] if ready else 0
    return Resolution(value, FWD_SOURCES[select], ready, candidates, valid)
