"""Instruction fetch unit.

Fetches aligned fetch groups into a small queue.  Three paths exist,
selected per address:

* **I-TCM** — private single-cycle scratchpad, two words per cycle;
* **I-cache** (when enabled) — two words per cycle on a hit, a full
  line fill over the system bus on a miss;
* **uncached** — 16-byte aligned burst transactions on the system bus,
  with up to two bursts in flight (the flash controller streams ahead
  of execution, like a real prefetcher).

The uncached path is where the paper's Section II uncertainty lives:
with an idle bus the streamed bursts keep the issue queue fed and most
issue packets stay back-to-back, but every cycle another core holds the
bus delays the next burst and opens a fetch gap — splitting packets and
silently changing which forwarding paths get excited.  A redirect to an
unaligned target fetches a partial group first, so the code-alignment
scenarios of Table II genuinely change the fetch phase.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from repro.errors import BusError, MemoryError_
from repro.isa.encoding import decode
from repro.isa.instructions import Format, Instruction
from repro.mem.bus import SystemBus, Transaction, TxnKind
from repro.mem.cache import Cache
from repro.mem.memmap import MemoryMap, is_cacheable
from repro.mem.tcm import Tcm
from repro.telemetry.events import NULL_SINK, EventKind


#: Integer format codes of :class:`Decoded` (``Format`` member order).
(
    FMT_R3,
    FMT_I,
    FMT_LUI,
    FMT_LOAD,
    FMT_STORE,
    FMT_BRANCH,
    FMT_JUMP,
    FMT_JR,
    FMT_CSRR,
    FMT_CSRW,
    FMT_SYS,
) = range(len(Format))
_FORMAT_CODE = {fmt: code for code, fmt in enumerate(Format)}


class Decoded:
    """A fetched word decoded once, flattened for the issue stage.

    Entries are memoised per word, so issue and hazard checks read plain
    fields instead of recomputing ``Instruction.spec``, ``source_regs()``
    and ``dest_regs()`` every cycle.  ``pairs`` memoises the dual-issue
    verdict against each entry that followed this one in a packet; the
    verdict depends on the two instructions alone, so every core and SoC
    may share it.
    """

    __slots__ = (
        "instr", "mnemonic", "fmt", "is64", "rs1", "rs2", "imm", "csr",
        "srcs", "dests", "pairs",
    )

    def __init__(self, instr: Instruction):
        spec = instr.spec
        self.instr = instr
        self.mnemonic = instr.mnemonic
        self.fmt = _FORMAT_CODE[spec.format]
        self.is64 = spec.is_64bit
        self.rs1 = instr.rs1
        self.rs2 = instr.rs2
        self.imm = instr.imm
        self.csr = instr.csr
        self.srcs = instr.source_regs()
        self.dests = instr.dest_regs()
        self.pairs: dict[Decoded, bool] = {}


@lru_cache(maxsize=65536)
def _decode_word(word: int) -> Decoded:
    return Decoded(decode(word))


class FetchUnit:
    """Per-core instruction fetch front end feeding the issue queue."""

    QUEUE_CAPACITY = 8
    #: Uncached fetch granule: one 16-byte (two-packet) burst.
    UNCACHED_GROUP_BYTES = 16
    #: Outstanding uncached bursts (the prefetch stream depth).
    UNCACHED_PIPELINE = 2
    #: Bounded re-submissions of a fetch that got a bus error response.
    BUS_RETRY_LIMIT = 3

    def __init__(
        self,
        core_id: int,
        bus: SystemBus,
        memmap: MemoryMap,
        icache: Cache,
        itcm: Tcm,
    ):
        self.core_id = core_id
        self.bus = bus
        self.memmap = memmap
        self.icache = icache
        self.itcm = itcm
        self.icache_enabled = False
        self.fetch_pc = 0
        self.queue: list[tuple[int, Decoded]] = []
        #: In-flight fetch transactions, oldest first.  Entries are
        #: (txn, pc, is_fill, discard).
        self._inflight: deque[list] = deque()
        #: The in-flight fetch the core waits on instead of stepping (see
        #: :meth:`stalled_on`), or None.
        self.wait: Transaction | None = None
        #: Telemetry sink (no-op unless a TelemetrySession is attached).
        self.telemetry = NULL_SINK

    # ------------------------------------------------------------------
    # Control.
    # ------------------------------------------------------------------

    def reset(self, pc: int) -> None:
        """Point the fetch unit at ``pc`` and clear all buffered state."""
        self.redirect(pc)

    def redirect(self, pc: int) -> None:
        """Branch redirect: flush the queue, drop any in-flight fetches."""
        if pc % 4:
            raise MemoryError_(
                f"core {self.core_id}: fetch target {pc:#010x} is not "
                "word-aligned"
            )
        self.fetch_pc = pc
        self.queue.clear()
        self.wait = None
        for entry in self._inflight:
            entry[3] = True  # discard on completion

    @property
    def busy(self) -> bool:
        """True while any fetch transaction is outstanding."""
        return any(not entry[0].done for entry in self._inflight)

    # ------------------------------------------------------------------
    # Per-cycle operation.
    # ------------------------------------------------------------------

    def step(self, cycle: int, halted: bool) -> None:
        """Collect completed fetches (in order) and launch new ones."""
        inflight = self._inflight
        if inflight and inflight[0][0].done:
            self._collect(cycle)
        # A queue with fewer than two free entries takes no fetch on any
        # path (the uncached path needs four).
        if halted or len(self.queue) > self.QUEUE_CAPACITY - 2:
            return
        pc = self.fetch_pc
        if self.itcm.contains(pc):
            if not inflight:
                self._fetch_from_tcm(pc)
        elif self.icache_enabled and is_cacheable(pc):
            if not inflight:
                self._fetch_from_cache(pc, cycle)
        elif len(inflight) < self.UNCACHED_PIPELINE:
            self._fetch_uncached(cycle)

    def stalled_on(self) -> Transaction | None:
        """The oldest in-flight fetch if no new fetch can start before it
        completes (I-TCM and I-cache paths: anything in flight; uncached
        path: a full stream or no queue room), else None."""
        inflight = self._inflight
        if not inflight:
            return None
        pc = self.fetch_pc
        if not (
            self.itcm.contains(pc) or (self.icache_enabled and is_cacheable(pc))
        ) and (
            len(inflight) < self.UNCACHED_PIPELINE
            and len(self.queue) + self._pending_words() <= self.QUEUE_CAPACITY - 4
        ):
            return None
        return inflight[0][0]

    def _collect(self, cycle: int) -> None:
        while self._inflight and self._inflight[0][0].done:
            txn, pc, is_fill, discard = self._inflight.popleft()
            if discard:
                continue
            if txn.error:
                # Retriable bus error response: re-submit the same fetch
                # at the head of the stream so program order holds, up
                # to the bounded retry budget.
                if txn.retries >= self.BUS_RETRY_LIMIT:
                    raise BusError(
                        "instruction fetch failed",
                        core_id=self.core_id,
                        address=txn.address,
                        kind="ifetch",
                        retries=txn.retries,
                    )
                retry = self.bus.submit(txn.retry_clone(), cycle)
                telemetry = self.telemetry
                if telemetry.enabled:
                    telemetry.emit(
                        EventKind.BUS_RETRY,
                        core=self.core_id,
                        kind=txn.kind.value,
                        address=txn.address,
                        attempt=retry.retries,
                    )
                self._inflight.appendleft([retry, pc, is_fill, False])
                return
            if is_fill:
                self.icache.install(txn.address, txn.data)
                # The requested words are read out of the cache on the
                # next step (fill-to-fetch turnaround).
                continue
            for i, word in enumerate(txn.data):
                self.queue.append((pc + 4 * i, _decode_word(word)))

    def _group_words(self, pc: int) -> int:
        """Words left in the 8-byte aligned fetch group containing ``pc``."""
        return 1 if (pc >> 2) & 1 else 2

    def _fetch_from_tcm(self, pc: int) -> None:
        for _ in range(self._group_words(pc)):
            word = self.itcm.read_word(pc)
            self.queue.append((pc, _decode_word(word)))
            pc += 4
        self.fetch_pc = pc

    def _fetch_from_cache(self, pc: int, cycle: int) -> None:
        # An 8-byte fetch group never crosses a cache line, so once the
        # first word hits the whole group is resident.
        words = self.icache.lookup_words(pc, self._group_words(pc))
        if words is None:
            plan = self.icache.prepare_fill(pc)
            # Instruction lines are never dirty; only the fill is needed.
            txn = self.bus.submit(
                Transaction(
                    core_id=self.core_id,
                    kind=TxnKind.IFETCH,
                    address=plan.line_address,
                    burst_words=self.icache.config.words_per_line,
                ),
                cycle,
            )
            self._inflight.append([txn, pc, True, False])
            return
        for word in words:
            self.queue.append((pc, _decode_word(word)))
            pc += 4
        self.fetch_pc = pc

    def _pending_words(self) -> int:
        """Words the in-flight (not discarded) fetches will deliver."""
        return sum(entry[0].burst_words for entry in self._inflight if not entry[3])

    def _fetch_uncached(self, cycle: int) -> None:
        pending_words = self._pending_words()
        while (
            len(self._inflight) < self.UNCACHED_PIPELINE
            and len(self.queue) + pending_words <= self.QUEUE_CAPACITY - 4
        ):
            pc = self.fetch_pc
            group = self.UNCACHED_GROUP_BYTES
            words = (group - (pc % group)) // 4
            txn = self.bus.submit(
                Transaction(
                    core_id=self.core_id,
                    kind=TxnKind.IFETCH,
                    address=pc,
                    burst_words=words,
                ),
                cycle,
            )
            self._inflight.append([txn, pc, False, False])
            self.fetch_pc = pc + 4 * words
            pending_words += words
