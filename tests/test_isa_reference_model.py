"""The pipeline's architectural state equals the ISA reference model's.

Programs are short and dense in the hazards the forwarding network and
the HDCU exist for: read-after-write chains inside and across issue
packets, load-use pairs, stores feeding loads, 64-bit register pairs
overlapping 32-bit registers (core C) and short forward branches.  They
follow a random assembly generator (drawn ops over a small register
pool) plus one directed suite of load-use and dual-issue blocks.

Each run compares, per active core:

* the final register file, retired-instruction count and scratch
  memory (read through the D-cache where a line is resident), and
* the register file at every ``TESTWIN`` open and close against the
  reference model's register file after the same number of retired
  instructions — the synchronisation-point comparison.

Runs cover cores A/B/C, caches on and off, every code placement and
bus contention from the other cores.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import AsmBuilder, Program
from repro.isa.instructions import (
    CACHECFG_DCACHE_EN,
    CACHECFG_ICACHE_EN,
    CACHECFG_WRITE_ALLOCATE,
    Csr,
    Instruction,
    Mnemonic,
)
from repro.soc import Soc
from repro.soc.loader import CodeAlignment, CodePosition, placement_address
from repro.stl.conventions import scratch_base
from tests.isa_reference import BRANCH_OPS, IMM_OPS, R3_OPS, WIDE_OPS, ReferenceMachine

#: Registers the generated ops read and write (a small pool keeps
#: read-after-write hazards dense); r0 is also read.
DATA_REGS = (1, 2, 3, 4, 5, 6)
SRC_REGS = (0,) + DATA_REGS
#: 64-bit register pairs (r2:r3, r4:r5) overlap the 32-bit pool.
PAIRS = (2, 4)
#: Scratch base pointer and the CSR-write temporary; never op targets.
BASE_REG, CTRL_REG = 8, 9
SCRATCH_WORDS = 8
MAX_SOC_CYCLES = 50_000

word_offsets = st.integers(0, SCRATCH_WORDS - 1).map(lambda i: 4 * i)
byte_offsets = st.integers(0, 4 * SCRATCH_WORDS - 1)
dests = st.sampled_from(DATA_REGS)
sources = st.sampled_from(SRC_REGS)

OP_STRATEGIES = {
    "r3": st.tuples(st.just("r3"), st.sampled_from(sorted(R3_OPS, key=str)),
                    dests, sources, sources),
    "imm": st.tuples(st.just("imm"), st.sampled_from(sorted(IMM_OPS, key=str)),
                     dests, sources, st.integers(-(1 << 14), (1 << 14) - 1)),
    "lui": st.tuples(st.just("lui"), dests, st.integers(0, (1 << 20) - 1)),
    "lw": st.tuples(st.just("load"), st.just(Mnemonic.LW), dests, word_offsets),
    "lbu": st.tuples(st.just("load"), st.just(Mnemonic.LBU), dests, byte_offsets),
    "sw": st.tuples(st.just("store"), st.just(Mnemonic.SW), sources, word_offsets),
    "sb": st.tuples(st.just("store"), st.just(Mnemonic.SB), sources, byte_offsets),
    "branch": st.tuples(st.just("branch"), st.sampled_from(sorted(BRANCH_OPS, key=str)),
                        sources, sources, st.integers(1, 3)),
    "wide": st.tuples(st.just("wide"), st.sampled_from(sorted(WIDE_OPS, key=str)),
                      st.sampled_from(PAIRS), st.sampled_from(PAIRS),
                      st.sampled_from(PAIRS)),
}
#: Op mix: loads and ALU ops dominate so load-use and RAW pairs are common.
NARROW_KINDS = ("r3", "r3", "r3", "imm", "lui", "lw", "lw", "lbu", "sw", "sb", "branch")
WIDE_KINDS = NARROW_KINDS + ("wide", "wide", "wide")


def op_lists(wide: bool):
    kinds = WIDE_KINDS if wide else NARROW_KINDS
    op = st.sampled_from(kinds).flatmap(OP_STRATEGIES.__getitem__)
    return st.lists(op, min_size=1, max_size=10)


def core_programs(wide: bool):
    """(initial registers, initial scratch words, three op segments)."""
    return st.tuples(
        st.lists(st.integers(0, (1 << 32) - 1), min_size=6, max_size=6),
        st.lists(st.integers(0, (1 << 32) - 1),
                 min_size=SCRATCH_WORDS, max_size=SCRATCH_WORDS),
        st.tuples(op_lists(wide), op_lists(wide), op_lists(wide)),
    )


def emit_segment(asm: AsmBuilder, ops: list[tuple], prefix: str) -> None:
    """Emit ops; a branch skips forward at most to the segment's end."""
    targets = {
        min(index + 1 + op[4], len(ops))
        for index, op in enumerate(ops)
        if op[0] == "branch"
    }
    for index, op in enumerate(ops):
        if index in targets:
            asm.label(f"{prefix}_{index}")
        kind = op[0]
        if kind == "r3" or kind == "wide":
            asm.emit(Instruction(op[1], rd=op[2], rs1=op[3], rs2=op[4]))
        elif kind == "imm":
            asm.emit(Instruction(op[1], rd=op[2], rs1=op[3], imm=op[4]))
        elif kind == "lui":
            asm.lui(op[1], op[2])
        elif kind == "load":
            asm.emit(Instruction(op[1], rd=op[2], rs1=BASE_REG, imm=op[3]))
        elif kind == "store":
            asm.emit(Instruction(op[1], rs1=BASE_REG, rs2=op[2], imm=op[3]))
        else:
            target = min(index + 1 + op[4], len(ops))
            branch = getattr(asm, op[1].value)  # beq, bne, ...
            branch(op[2], op[3], f"{prefix}_{target}")
    if len(ops) in targets:
        asm.label(f"{prefix}_{len(ops)}")


def build_program(core: int, base: int, cache_flags: int | None, spec) -> Program:
    """Cache set-up, register and memory initialisation, then the three
    segments with TESTWIN opened before the second and closed after it."""
    init_regs, init_words, segments = spec
    asm = AsmBuilder(base, f"hazards{core}")
    if cache_flags is not None:
        asm.li(CTRL_REG, cache_flags)
        asm.csrw(Csr.CACHECFG, CTRL_REG)
    scratch = scratch_base(core)
    asm.li(BASE_REG, scratch)
    for reg, value in zip(DATA_REGS, init_regs):
        asm.li(reg, value)
    for index, ops in enumerate(segments):
        if index:
            asm.li(CTRL_REG, index % 2)
            asm.csrw(Csr.TESTWIN, CTRL_REG)
        emit_segment(asm, ops, f"seg{index}")
    asm.halt()
    for index, word in enumerate(init_words):
        asm.data_word(scratch + 4 * index, word)
    return asm.build()


def architectural_word(soc: Soc, core_id: int, address: int) -> int:
    """Memory as the core sees it: a resident D-cache line wins."""
    dcache = soc.cores[core_id].dcache
    if dcache.probe(address):
        return dcache.read(address)
    return soc.memmap.route(address).read_word(address)


def run_and_compare(programs: dict, delays: dict[int, int]) -> None:
    """Run every program on its core, concurrently, and check each core
    against its own reference model."""
    soc = Soc()
    for program in programs.values():
        soc.load(program)
    syncs: dict[int, list] = {core_id: [] for core_id in programs}
    seen = {core_id: 0 for core_id in programs}
    pending = dict(delays)
    while pending or any(core.active for core in soc.cores):
        for core_id in [c for c, delay in pending.items() if delay <= soc.cycle]:
            soc.start_core(core_id, programs[core_id].base_address)
            del pending[core_id]
        soc.step()
        assert soc.cycle < MAX_SOC_CYCLES, "pipeline did not halt"
        for core_id in programs:
            core = soc.cores[core_id]
            if core.testwin != seen[core_id]:
                seen[core_id] = core.testwin
                syncs[core_id].append(
                    (core.instret, core.testwin, core.regfile.snapshot())
                )
    for core_id, program in programs.items():
        model = ReferenceMachine(program.image(), program.base_address)
        model.run()
        core = soc.cores[core_id]
        where = f"core {core_id}"
        assert core.regfile.snapshot() == tuple(model.regs), where
        assert core.instret == model.retired, where
        scratch = scratch_base(core_id)
        for offset in range(0, 4 * SCRATCH_WORDS, 4):
            assert architectural_word(soc, core_id, scratch + offset) == (
                model.load_word(scratch + offset)
            ), f"{where} scratch+{offset}"
        assert [s[1] for s in syncs[core_id]] == [s[1] for s in model.sync_points]
        for (retired, _, regs), (model_retired, _) in zip(
            syncs[core_id], model.sync_points
        ):
            # At most two dual-issue packets are still in flight.
            assert 0 <= model_retired - retired <= 4, where
            assert regs == model.history[retired], f"{where} at {retired}"


CACHE_FLAGS = st.sampled_from(
    (
        None,
        CACHECFG_ICACHE_EN | CACHECFG_DCACHE_EN | CACHECFG_WRITE_ALLOCATE,
        CACHECFG_ICACHE_EN | CACHECFG_DCACHE_EN,
    )
)


@st.composite
def scenarios(draw):
    """Programs for one core, or for all three under bus contention."""
    primary = draw(st.sampled_from((0, 1, 2)))
    active = (0, 1, 2) if draw(st.booleans()) else (primary,)
    position = draw(st.sampled_from(list(CodePosition)))
    alignment = draw(st.sampled_from(list(CodeAlignment)))
    cache_flags = draw(CACHE_FLAGS)
    programs, delays = {}, {}
    for core in active:
        spec = draw(core_programs(wide=core == 2))
        base = placement_address(position, alignment, core)
        programs[core] = build_program(core, base, cache_flags, spec)
        delays[core] = draw(st.integers(0, 8))
    return programs, delays


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_generated_programs_match_reference_model(case):
    programs, delays = case
    run_and_compare(programs, delays)


def _directed(wide: bool) -> tuple:
    """Directed blocks: load-use in both slots, store-to-load, RAW
    chains across packets, multiplier in slot 0, branch over a producer."""
    m = Mnemonic
    first = [
        ("load", m.LW, 1, 0), ("r3", m.ADD, 2, 1, 1),
        ("load", m.LBU, 3, 5), ("store", m.SW, 3, 8),
        ("imm", m.ADDI, 4, 2, 7), ("r3", m.XOR, 5, 4, 2),
        ("r3", m.SUB, 6, 5, 4),
    ]
    second = [
        ("store", m.SB, 6, 9), ("load", m.LW, 1, 8), ("r3", m.OR, 2, 1, 6),
        ("branch", m.BNE, 1, 0, 1), ("imm", m.ADDI, 1, 0, 99),
        ("r3", m.SLTU, 3, 1, 2), ("r3", m.MUL, 4, 3, 5),
        ("r3", m.MULH, 5, 4, 4), ("r3", m.DIVT, 6, 5, 3),
    ]
    third = [
        ("load", m.LW, 2, 4), ("load", m.LW, 3, 8), ("r3", m.SATADD, 4, 2, 3),
        ("store", m.SW, 4, 12), ("r3", m.SLL, 5, 4, 3), ("lui", 6, 0xABCDE),
    ]
    if wide:
        second += [("wide", m.ADD64, 2, 4, 2), ("r3", m.ADD, 1, 3, 2)]
        third += [("wide", m.XOR64, 4, 2, 4), ("store", m.SW, 5, 16)]
    registers = [0x1234_5678, 0xFFFF_FFFF, 0x8000_0000, 7, 0x0F0F_0F0F, 3]
    words = [0xDEAD_BEEF, 0x0000_0080, 0x7FFF_FFFF, 5, 0, 0, 0, 0]
    return registers, words, (first, second, third)


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("alignment", list(CodeAlignment), ids=lambda a: a.name)
@pytest.mark.parametrize("position", list(CodePosition), ids=lambda p: p.name)
def test_directed_suite_every_placement(position, alignment, cached):
    cache_flags = (
        CACHECFG_ICACHE_EN | CACHECFG_DCACHE_EN | CACHECFG_WRITE_ALLOCATE
        if cached
        else None
    )
    programs = {
        core: build_program(
            core,
            placement_address(position, alignment, core),
            cache_flags,
            _directed(wide=core == 2),
        )
        for core in (0, 1, 2)
    }
    run_and_compare(programs, {0: 0, 1: 3, 2: 5})
