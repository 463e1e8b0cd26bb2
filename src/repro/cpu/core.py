"""Dual-issue in-order pipelined processor core.

The pipeline is modelled with three inter-stage latches:

* ``exmem_latch`` — the packet issued one cycle ago (its ALU results sit
  on the EX/MEM boundary and feed the EX->EX forwarding paths; loads and
  stores perform their memory access from here);
* ``memwb_latch`` — the packet issued two cycles ago (MEM->EX paths);
* ``retire_latch`` — the packet writing the register file this cycle.

Issue happens after retirement within a cycle, so a consumer three or
more packets behind its producer reads the architectural register file —
no forwarding path is excited, which is the observable difference the
paper's Fig. 1 illustrates between a stall-free and a stalled stream.

ALU results are computed eagerly at issue (functionally identical to
forwarding), loads get their value when the memory system answers, and
every operand resolution is recorded in the :class:`ActivationLog` for
offline gate-level fault simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.alu import branch_taken, execute_alu, execute_alu64, execute_imm
from repro.cpu.fetch import (
    FMT_BRANCH,
    FMT_CSRR,
    FMT_CSRW,
    FMT_I,
    FMT_JR,
    FMT_JUMP,
    FMT_LOAD,
    FMT_LUI,
    FMT_R3,
    FMT_STORE,
    Decoded,
    FetchUnit,
)
from repro.cpu.forwarding import (
    EMPTY_VIEW,
    FWD_SOURCES,
    Resolution,
    producer_view,
    resolve,
)
from repro.cpu.hazard import can_dual_issue, unresolved_producer
from repro.cpu.icu import Icu, IcuConfig
from repro.cpu.memunit import MemoryUnit
from repro.cpu.recording import (
    ActivationLog,
    ForwardingRecord,
    FwdSource,
    HdcuRecord,
    IcuRecord,
)
from repro.cpu.state import RegFile
from repro.cpu.uop import Uop
from repro.errors import SimulationError
from repro.isa.instructions import (
    CACHECFG_DCACHE_EN,
    CACHECFG_ICACHE_EN,
    CACHECFG_WRITE_ALLOCATE,
    Csr,
    Mnemonic,
)
from repro.mem.bus import SystemBus
from repro.mem.cache import Cache, CacheConfig
from repro.mem.memmap import MemoryMap, dtcm_base, itcm_base
from repro.mem.tcm import Tcm
from repro.telemetry.events import NULL_SINK, EventKind
from repro.utils.bitops import MASK32


@dataclass(frozen=True)
class CoreModel:
    """Static description of one processor model in the SoC.

    Cores A and B are the same 32-bit design put through different
    physical-design flows (hence different netlist seeds and fault
    lists); core C implements the 64-bit extended instruction set and a
    one-hot ICU status mapping (Section IV-A/IV-D).
    """

    name: str
    is64: bool = False
    icu_shared_status_bits: bool = True
    netlist_seed: int = 1
    frequency_hz: int = 180_000_000


CORE_MODEL_A = CoreModel(name="A", netlist_seed=0xA11CE)
CORE_MODEL_B = CoreModel(name="B", netlist_seed=0xB0B17)
CORE_MODEL_C = CoreModel(
    name="C", is64=True, icu_shared_status_bits=False, netlist_seed=0xC0DE5
)

#: Default cache geometry of the case-study SoC (Section IV-A).
ICACHE_CONFIG = CacheConfig(name="icache", size_bytes=8 << 10)
DCACHE_CONFIG = CacheConfig(name="dcache", size_bytes=4 << 10)


class Core:
    """One processor core wired to the shared bus."""

    def __init__(
        self,
        core_id: int,
        model: CoreModel,
        bus: SystemBus,
        memmap: MemoryMap,
        icache_config: CacheConfig = ICACHE_CONFIG,
        dcache_config: CacheConfig = DCACHE_CONFIG,
        tcm_size: int = 16 << 10,
    ):
        self.core_id = core_id
        self.model = model
        self.bus = bus
        self.memmap = memmap
        self.icache = Cache(icache_config)
        self.dcache = Cache(dcache_config)
        self.itcm = Tcm(f"itcm{core_id}", itcm_base(core_id), tcm_size)
        self.dtcm = Tcm(f"dtcm{core_id}", dtcm_base(core_id), tcm_size)
        self.fetch = FetchUnit(core_id, bus, memmap, self.icache, self.itcm)
        self.memunit = MemoryUnit(
            core_id, bus, memmap, self.dcache, self.itcm, self.dtcm
        )
        self.regfile = RegFile()
        self.icu = Icu(IcuConfig(shared_status_bits=model.icu_shared_status_bits))
        self.log = ActivationLog()
        self.recording = True
        self.keep_trace = False
        self.trace: list[Uop] = []
        self.stall_observable = False
        self.testwin = 0
        #: Armed behavioural fault (see repro.cpu.injection), or None.
        self.injected_fault = None
        # Pipeline latches.
        self.exmem_latch: list[Uop] = []
        self.memwb_latch: list[Uop] = []
        self.retire_latch: list[Uop] = []
        #: Producer lanes of the current issue cycle (see _try_issue).
        self._view = EMPTY_VIEW
        # Counters (the performance counters of the case-study cores).
        self.cycles = 0
        self.instret = 0
        self.ifstall = 0
        self.memstall = 0
        self.hazstall = 0
        self._seq = 0
        self.halted = False
        self.started = False
        #: Telemetry sink (no-op unless a TelemetrySession is attached).
        self.telemetry = NULL_SINK

    # ------------------------------------------------------------------
    # Control.
    # ------------------------------------------------------------------

    def reset(self, pc: int) -> None:
        """Point the core at ``pc`` and mark it runnable."""
        self.fetch.reset(pc)
        self.halted = False
        self.started = True
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(
                EventKind.CORE_START,
                core=self.core_id,
                pc=pc,
                testwin=self.testwin,
            )

    def hard_reset(self, pc: int) -> None:
        """Forcibly restart at ``pc``, abandoning all in-flight work.

        Used by the test supervisor to re-enter a routine after a
        watchdog trip: pipeline latches are flushed and the memory unit
        cancels its access, but caches, TCMs and counters keep their
        state — re-convergence is the wrapper's job (it invalidates and
        re-warms the caches itself).
        """
        self.exmem_latch = []
        self.memwb_latch = []
        self.retire_latch = []
        self.memunit.cancel()
        self._set_testwin(0)
        self.reset(pc)

    @property
    def done(self) -> bool:
        """True once HALT has issued and the pipeline has drained."""
        return (
            self.halted
            and not self.exmem_latch
            and not self.memwb_latch
            and not self.retire_latch
            and not self.memunit.busy
        )

    @property
    def active(self) -> bool:
        """True while the core has work to do."""
        return self.started and not self.done

    # ------------------------------------------------------------------
    # Per-cycle operation (called once per SoC clock, after the bus).
    # ------------------------------------------------------------------

    def step(self, cycle: int) -> None:
        fetch = self.fetch
        wait = fetch.wait
        if wait is not None:
            # A drained core whose only possible change is its oldest
            # fetch completing: the full step would be an IF stall.
            if not wait.done and not self.icu.pending:
                self.cycles += 1
                self.ifstall += 1
                return
            fetch.wait = None
        if not self.started or (self.halted and self.done):
            return
        self.cycles += 1
        if self.retire_latch or self.icu.pending:
            self._retire(cycle)
        if self.memwb_latch:
            self._advance_mem(cycle)
        if self.exmem_latch and not self.memwb_latch:
            self._advance_ex(cycle)
        if not self.exmem_latch and not self.halted:
            if fetch.queue:
                self._try_issue(cycle)
            else:
                # The front end starved the issue stage: an IF stall.
                self.ifstall += 1
        fetch.step(cycle, self.halted)
        if not (
            fetch.queue
            or self.retire_latch
            or self.memwb_latch
            or self.exmem_latch
            or self.halted
            or self.memunit.busy
            or self.icu.pending
        ):
            fetch.wait = fetch.stalled_on()

    def _retire(self, cycle: int) -> None:
        retired = len(self.retire_latch)
        # Recognition runs before this cycle's events are delivered, so
        # an event starts counting younger retirements from the next
        # cycle (its own packet-mates are not "beyond" it).
        count_before = self.icu.recognised_count
        recognition = self.icu.step(cycle, retired)
        if recognition is not None and self.recording:
            vector = 0
            for event in recognition.events:
                vector |= 1 << int(event)
            self.log.icu.append(
                IcuRecord(
                    event_vector=vector,
                    merged=recognition.merged,
                    imprecision=recognition.imprecision,
                    status_bits=recognition.status_bits,
                    observable=bool(self.testwin & 1),
                    count_before=count_before,
                )
            )
        if not retired:
            return
        for uop in self.retire_latch:
            for reg in uop.dests:
                self.regfile.write(reg, uop.dest_value(reg))
            if uop.trap_event is not None:
                self.icu.raise_event(uop.trap_event, cycle)
        self.instret += retired
        self.retire_latch = []

    def _advance_mem(self, cycle: int) -> None:
        if self.memunit.poll(cycle):
            self.retire_latch = self.memwb_latch
            self.memwb_latch = []
            for uop in self.retire_latch:
                uop.wb_cycle = cycle
        else:
            self.memstall += 1

    def _advance_ex(self, cycle: int) -> None:
        self.memwb_latch = self.exmem_latch
        self.exmem_latch = []
        for uop in self.memwb_latch:
            uop.mem_cycle = cycle
            if uop.is_load or uop.is_store:
                self.memunit.begin(uop, cycle)

    # ------------------------------------------------------------------
    # Issue.
    # ------------------------------------------------------------------

    def _try_issue(self, cycle: int) -> None:
        queue = self.fetch.queue
        pc0, d0 = queue[0]
        memwb = self.memwb_latch
        view = self._view = producer_view(memwb, self.retire_latch)
        # Only an unready load in memwb_latch (lanes EX0/EX1) can block
        # an operand; retired-latch producers always have their data.
        blocking = view.loads & 3
        if blocking and unresolved_producer(d0.srcs, memwb):
            # Load-use (producer load in the EX/MEM latch) with the
            # access itself on its fast path: a true HDCU stall.  A load
            # still waiting on the bus shows up as MEM stall cycles via
            # _advance_mem, so avoid double counting.
            if not self.memunit.waiting_on_bus:
                self.hazstall += 1
                if self.recording:
                    self._record_hdcu_stall(d0.srcs)
            return
        if d0.mnemonic is Mnemonic.SYNC and not self._sync_ready():
            self.hazstall += 1
            return
        queue.pop(0)
        self.exmem_latch.append(self._issue_one(d0, pc0, 0, cycle))
        if not queue:
            return
        pc1, d1 = queue[0]
        pairs = d0.pairs
        pair = pairs.get(d1)
        if pair is None:
            pair = pairs[d1] = can_dual_issue(d0.instr, d1.instr)
        if pair and not (blocking and unresolved_producer(d1.srcs, memwb)):
            queue.pop(0)
            self.exmem_latch.append(self._issue_one(d1, pc1, 1, cycle))

    def _sync_ready(self) -> bool:
        return (
            not self.memwb_latch
            and not self.retire_latch
            and not self.memunit.busy
        )

    def _issue_one(self, d: Decoded, pc: int, slot: int, cycle: int) -> Uop:
        """Execute the decoded instruction ``d`` eagerly; return its uop."""
        if d.is64 and not self.model.is64:
            raise SimulationError(
                f"core {self.model.name} cannot execute {d.mnemonic.value} "
                "(64-bit extension is core C only)"
            )
        self._seq += 1
        uop = Uop(self._seq, pc, d.instr, slot, d.dests, issue_cycle=cycle)
        if self.keep_trace:
            self.trace.append(uop)
        fmt = d.fmt
        if fmt == FMT_R3:
            if d.is64:
                v1 = self._resolve_wide(d.rs1, uop, slot, 0)
                v2 = self._resolve_wide(d.rs2, uop, slot, 1)
                uop.result = execute_alu64(d.mnemonic, v1, v2)
                uop.is64 = True
            else:
                v1 = self._resolve(d.rs1, uop, slot, 0)
                v2 = self._resolve(d.rs2, uop, slot, 1)
                uop.result, uop.trap_event = execute_alu(d.mnemonic, v1, v2)
        elif fmt == FMT_I:
            v1 = self._resolve(d.rs1, uop, slot, 0)
            uop.result = execute_imm(d.mnemonic, v1, d.imm)
        elif fmt == FMT_LUI:
            uop.result = (d.imm << 12) & MASK32
        elif fmt == FMT_LOAD:
            base = self._resolve(d.rs1, uop, slot, 0)
            uop.is_load = True
            uop.result_ready = False
            uop.mem_address = (base + d.imm) & MASK32
            uop.mem_width = 4 if d.mnemonic is Mnemonic.LW else 1
        elif fmt == FMT_STORE:
            base = self._resolve(d.rs1, uop, slot, 0)
            data = self._resolve(d.rs2, uop, slot, 1)
            uop.is_store = True
            uop.mem_address = (base + d.imm) & MASK32
            uop.mem_width = 4 if d.mnemonic is Mnemonic.SW else 1
            uop.store_value = data if uop.mem_width == 4 else data & 0xFF
        elif fmt == FMT_BRANCH:
            v1 = self._resolve(d.rs1, uop, slot, 0)
            v2 = self._resolve(d.rs2, uop, slot, 1)
            if branch_taken(d.mnemonic, v1, v2):
                self.fetch.redirect((pc + 4 * d.imm) & MASK32)
        elif fmt == FMT_JUMP:
            if d.mnemonic is Mnemonic.JAL:
                uop.result = (pc + 4) & MASK32
            self.fetch.redirect(4 * d.imm)
        elif fmt == FMT_JR:
            target = self._resolve(d.rs1, uop, slot, 0)
            self.fetch.redirect(target & ~3)
        elif fmt == FMT_CSRR:
            uop.result = self._csr_read(d.csr)
        elif fmt == FMT_CSRW:
            v1 = self._resolve(d.rs1, uop, slot, 0)
            self._csr_write(d.csr, v1)
        elif d.mnemonic is Mnemonic.HALT:
            self.halted = True
            telemetry = self.telemetry
            if telemetry.enabled:
                telemetry.emit(EventKind.CORE_HALT, core=self.core_id, pc=pc)
        elif d.mnemonic is Mnemonic.ICINV:
            self.icache.invalidate_all()
        elif d.mnemonic is Mnemonic.DCINV:
            self.dcache.invalidate_all()
        # NOP and SYNC have no effect at this point.
        return uop

    # ------------------------------------------------------------------
    # Operand resolution + recording.
    # ------------------------------------------------------------------

    def _resolve(self, reg: int, uop: Uop, slot: int, operand: int) -> int:
        select, candidates, valid, ready = resolve(
            reg, self._view.producers, self.regfile.read(reg)
        )
        if not ready:  # pragma: no cover - guarded by unresolved_producer
            raise SimulationError(f"issued {uop.instr} with unresolved r{reg}")
        uop.fwd_selects.append(FWD_SOURCES[select])
        if self.recording:
            self._record(reg, select, candidates, valid, slot, operand, 32)
        fault = self.injected_fault
        if fault is None:
            return candidates[select]
        # Only the value delivered to execution changes; the activation
        # record keeps the fault-free view (fault grading always runs
        # against the fault-free logic simulation, as in the paper's flow).
        res = Resolution(
            candidates[select], FWD_SOURCES[select], True, candidates, valid
        )
        if hasattr(fault, "apply_resolution"):
            return fault.apply_resolution(slot, operand, res)
        return fault.apply(slot, operand, res.select, res.value)

    def _resolve_wide(self, reg: int, uop: Uop, slot: int, operand: int) -> int:
        producers = self._view.producers
        read = self.regfile.read
        select, low, valid, low_ready = resolve(reg, producers, read(reg))
        high_select, high, _, high_ready = resolve(
            reg + 1, producers, read(reg + 1)
        )
        if not (low_ready and high_ready):  # pragma: no cover
            raise SimulationError(f"issued {uop.instr} with unresolved pair r{reg}")
        uop.fwd_selects.append(FWD_SOURCES[select])
        candidates = tuple(lo | (hi << 32) for lo, hi in zip(low, high))
        if self.recording:
            self._record(reg, select, candidates, valid, slot, operand, 64)
        return low[select] | (high[high_select] << 32)

    def _record(
        self,
        reg: int,
        select: int,
        candidates: tuple[int, int, int, int, int],
        valid: int,
        slot: int,
        operand: int,
        width: int,
    ) -> None:
        testwin = self.testwin
        observable = bool(testwin & 1)
        source = FWD_SOURCES[select]
        self.log.forwarding.append(
            ForwardingRecord(
                slot, operand, source, candidates, valid, width, observable,
                bool(testwin & 2),
            )
        )
        # Which other mux inputs carry a different value (a select-line
        # fault on them would be visible through the datapath).
        chosen = candidates[select]
        rf, ex0, ex1, mem0, mem1 = candidates
        flip_mask = (
            (rf != chosen)
            | (ex0 != chosen) << 1
            | (ex1 != chosen) << 2
            | (mem0 != chosen) << 3
            | (mem1 != chosen) << 4
        )
        view = self._view
        self.log.hdcu.append(
            HdcuRecord(
                reg, view.regs, view.valid, source, False, flip_mask,
                observable, self.stall_observable and observable, slot,
                operand, view.loads,
            )
        )

    def _record_hdcu_stall(self, sources: tuple[int, ...]) -> None:
        # Record the register that is actually blocked (the one produced
        # by the unready load), so the netlist's comparators match.
        blocked = 0
        for reg in sources:
            for latch in (self.memwb_latch, self.retire_latch):
                for uop in latch:
                    if not uop.result_ready and reg in uop.dests:
                        blocked = reg
        observable = bool(self.testwin & 1)
        view = self._view
        self.log.hdcu.append(
            HdcuRecord(
                blocked, view.regs, view.valid, FwdSource.RF, True, 0,
                observable, self.stall_observable and observable,
                producer_load_mask=view.loads,
            )
        )

    # ------------------------------------------------------------------
    # CSRs.
    # ------------------------------------------------------------------

    def _csr_read(self, csr: int) -> int:
        csr = Csr(csr)
        if csr is Csr.CYCLES:
            return self.cycles & MASK32
        if csr is Csr.INSTRET:
            return self.instret & MASK32
        if csr is Csr.IFSTALL:
            return self.ifstall & MASK32
        if csr is Csr.MEMSTALL:
            return self.memstall & MASK32
        if csr is Csr.HAZSTALL:
            return self.hazstall & MASK32
        if csr is Csr.COREID:
            return self.core_id
        if csr is Csr.ICU_STATUS:
            return self.icu.read_status()
        if csr is Csr.ICU_IMPREC:
            return self.icu.read_imprecision()
        if csr is Csr.ICU_PEND:
            return self.icu.pending_vector
        if csr is Csr.ICU_COUNT:
            return self.icu.read_count()
        if csr is Csr.CACHECFG:
            value = 0
            if self.fetch.icache_enabled:
                value |= CACHECFG_ICACHE_EN
            if self.memunit.dcache_enabled:
                value |= CACHECFG_DCACHE_EN
            if self.dcache.write_allocate:
                value |= CACHECFG_WRITE_ALLOCATE
            return value
        if csr is Csr.TESTWIN:
            return self.testwin
        return 0

    def _csr_write(self, csr: int, value: int) -> None:
        csr = Csr(csr)
        if csr is Csr.CACHECFG:
            self.fetch.icache_enabled = bool(value & CACHECFG_ICACHE_EN)
            self.memunit.dcache_enabled = bool(value & CACHECFG_DCACHE_EN)
            self.dcache.write_allocate = bool(value & CACHECFG_WRITE_ALLOCATE)
        elif csr is Csr.ICU_ACK:
            self.icu.acknowledge()
        elif csr is Csr.TESTWIN:
            self._set_testwin(value & 3)
        # Other CSRs are read-only; writes are ignored like real status
        # registers.

    def _set_testwin(self, value: int) -> None:
        prev = self.testwin
        self.testwin = value
        if value != prev:
            telemetry = self.telemetry
            if telemetry.enabled:
                telemetry.emit(
                    EventKind.CORE_TESTWIN,
                    core=self.core_id,
                    value=value,
                    prev=prev,
                )
