"""The fetch wait is invisible: cycle-by-cycle equal to the full step.

A core whose queue and pipeline are empty and whose fetch unit can
start nothing new skips the full pipeline step until its oldest fetch
completes (``FetchUnit.stalled_on`` arms the wait).  Each case runs
twice on fresh SoCs: once as shipped, once with ``stalled_on``
monkeypatched to never arm, so every cycle takes the full step.  As in
the sync-point comparison of arXiv 1909.02791, the two runs are compared
at every sync point -- here every SoC clock, after all cores stepped --
on each core's architectural counters, fetch PC, queue depth and ICU
state, and on the final bus statistics.
"""

from __future__ import annotations

import pytest

from repro.core.determinism import default_scenarios, placement_address
from repro.cpu.core import CORE_MODEL_B
from repro.faults import BusGlitcher, ExecutionEntryCorruption, SoftErrorInjector
from repro.isa import AsmBuilder
from repro.soc import Soc
from repro.soc import TestSupervisor as Supervisor
from repro.soc.supervisor import PASS, SIGNATURE_MISMATCH
from repro.stl import RoutineContext
from tests.golden_digests import routine_builders
from tests.test_supervisor import CTX0, build_checked, spec_for

SCENARIOS = {scenario.label: scenario for scenario in default_scenarios()}


def _core_state(core) -> tuple:
    icu = core.icu
    return (
        core.fetch.fetch_pc,
        core.cycles,
        core.ifstall,
        core.memstall,
        core.hazstall,
        core.instret,
        len(core.fetch.queue),
        icu.status,
        icu.imprecision,
        icu.recognised_count,
    )


def _drained_with_icu_event(core) -> bool:
    """An ICU event is pending while the core sits in an IF stall."""
    return bool(
        core.icu.pending
        and not core.fetch.queue
        and not (core.exmem_latch or core.memwb_latch or core.retire_latch)
        and core.fetch.busy
    )


def run_recorded(drive, monkeypatch, reference: list | None = None) -> dict:
    """Run ``drive(soc)`` on a fresh SoC, recording every cycle.

    Without a ``reference`` the wait is disabled and the run records the
    full-step trace.  With one, the wait is live and every cycle is
    checked against the reference as it happens, so a divergence fails
    at its first cycle instead of after a possibly endless run.
    """
    soc = Soc()
    if reference is None:
        for core in soc.cores:
            monkeypatch.setattr(core.fetch, "stalled_on", lambda: None)
    trace: list[tuple] = []
    counts = {"waiting": 0, "icu_pending_stall": 0}

    def record(soc) -> bool:
        cores = soc.cores
        state = (soc.cycle, tuple(_core_state(core) for core in cores))
        if reference is not None:
            index = len(trace)
            expected = reference[index] if index < len(reference) else None
            assert state == expected, f"diverged at cycle {soc.cycle}"
        trace.append(state)
        counts["waiting"] += sum(core.fetch.wait is not None for core in cores)
        counts["icu_pending_stall"] += sum(map(_drained_with_icu_event, cores))
        return False

    soc.fault_hooks.append(record)
    outcome = drive(soc)
    return {
        "trace": trace,
        "bus": dict(soc.bus.stats),
        "outcome": outcome,
        "counts": counts,
    }


def assert_wait_is_invisible(drive, monkeypatch) -> dict:
    """Run ``drive`` with and without the wait; return the waiting run."""
    full = run_recorded(drive, monkeypatch)
    waiting = run_recorded(drive, monkeypatch, reference=full["trace"])
    assert full["counts"]["waiting"] == 0
    assert waiting["counts"]["waiting"] > 0, "the case never armed the wait"
    assert len(waiting["trace"]) == len(full["trace"])
    assert waiting["bus"] == full["bus"]
    assert waiting["outcome"] == full["outcome"]
    return waiting


def scenario_drive(
    routine: str, label: str, glitcher_seed: int | None = None, **sizes
):
    """Drive one campaign scenario the way ``run_scenario`` does."""
    scenario = SCENARIOS[label]
    builders = routine_builders(routine, **sizes)
    programs = {
        core_id: builders[core_id](
            placement_address(scenario.position, scenario.alignment, core_id)
        )
        for core_id in scenario.active_cores
    }

    def drive(soc):
        if glitcher_seed is not None:
            soc.bus.glitcher = BusGlitcher(
                seed=glitcher_seed, delay_rate=0.2, error_rate=0.05
            )
        for program in programs.values():
            soc.load(program)
        for core_id in sorted(programs, key=scenario.start_delay):
            soc.run_cycles(max(0, scenario.start_delay(core_id) - soc.cycle))
            soc.start_core(core_id, programs[core_id].base_address)
        soc.run()
        return [core.regfile.read(1) for core in soc.cores]

    return drive


#: Smoke-sized routine bodies: the TCM deployment's copy-in alone takes
#: ~80 k cycles at full size.
SMOKE = {"patterns_per_path": 1, "load_use_blocks": 1}


@pytest.mark.parametrize(
    "routine, label, sizes",
    [
        ("wrapped", "cores012_mid_word", {}),
        ("unwrapped", "cores012_high_qword", {}),
        ("tcm", "cores012_low_dword", SMOKE),
    ],
)
def test_campaign_routines_under_three_core_contention(
    routine, label, sizes, monkeypatch
):
    assert_wait_is_invisible(scenario_drive(routine, label, **sizes), monkeypatch)


def test_bus_glitches_and_fetch_retries(monkeypatch):
    waiting = assert_wait_is_invisible(
        scenario_drive("unwrapped", "cores01_mid_word", glitcher_seed=5),
        monkeypatch,
    )
    assert sum(stats.error_responses for stats in waiting["bus"].values()) > 0
    assert sum(stats.glitch_delay_cycles for stats in waiting["bus"].values()) > 0


def _supervised(specs, load, flip_seed=None):
    def drive(soc):
        for program in load:
            soc.load(program)
        injector = None
        if flip_seed is not None:
            injector = SoftErrorInjector(seed=flip_seed)
            soc.fault_hooks.insert(0, ExecutionEntryCorruption(0, injector))
        supervisor = Supervisor(soc, max_retries=2, injector=injector)
        report = supervisor.run_session(specs)
        return report.to_dict()

    return drive


def test_soft_error_hook_and_supervised_retry(monkeypatch):
    """A D-cache flip between the wrapper's loops fails the first
    attempt; the supervisor's ``hard_reset`` retry passes."""
    program, expected = build_checked()
    drive = _supervised(
        [spec_for("ld_chain", CTX0, 0x1000, expected)], [program], flip_seed=2024
    )
    waiting = assert_wait_is_invisible(drive, monkeypatch)
    attempts = waiting["outcome"]["routines"][0]["attempts"]
    assert [a["outcome"] for a in attempts] == [SIGNATURE_MISMATCH, PASS]
    assert len(waiting["outcome"]["injections"]) == 1


def long_spin_program(base: int = 0x5000):
    """A hung routine that streams 164 bytes of uncached flash per pass,
    so its core spends most cycles waiting on a fetch."""
    asm = AsmBuilder(base)
    asm.label("spin")
    asm.nop(40)
    asm.j("spin")
    return asm.build()


#: Watchdog deadline (cycles) of the hung routine; chosen so the third
#: trip lands while its core waits on a fetch.
DEADLINE = 400


def test_hard_reset_after_watchdog_trip(monkeypatch):
    """A hung routine trips the watchdog three times (each retry is a
    ``hard_reset``) and is parked mid-wait; the next routine runs on
    another core while the parked core must stay frozen."""
    ctx1 = RoutineContext.for_core(1, CORE_MODEL_B)
    wrapped, expected = build_checked(base=0x1000, ctx=ctx1)
    session = _supervised(
        [
            spec_for("hang", CTX0, 0x5000, deadline=DEADLINE),
            spec_for("ld_chain", ctx1, 0x1000, expected),
        ],
        [wrapped, long_spin_program()],
    )
    redirected_waiting = []

    def drive(soc):
        fetch = soc.cores[0].fetch
        redirect = fetch.redirect

        def spy(pc):
            redirected_waiting.append(fetch.wait is not None)
            redirect(pc)

        monkeypatch.setattr(fetch, "redirect", spy)
        return session(soc)

    waiting = assert_wait_is_invisible(drive, monkeypatch)
    assert [r["quarantined"] for r in waiting["outcome"]["routines"]] == [True, False]
    # The parking redirect (the waiting run's last) found a wait armed.
    assert redirected_waiting[-1], "pick a deadline that parks the core mid-wait"


def icu_trap_program():
    """Overflow traps in the last word of each 16-byte uncached burst:
    the pipeline drains behind a trap while the next burst is still on
    the bus, so its ICU event is pending across an IF stall."""
    asm = AsmBuilder(0x100)
    asm.li(1, 0x7FFF_FFFF)
    asm.nop(2)
    for _ in range(8):
        asm.nop(3)
        asm.addo(2, 1, 1)
    asm.halt()
    return asm.build()


def test_icu_event_pending_across_an_if_stall(monkeypatch):
    program = icu_trap_program()

    def drive(soc):
        soc.load(program)
        soc.start_core(0, program.base_address)
        soc.run()
        return soc.cores[0].icu.recognised_count

    waiting = assert_wait_is_invisible(drive, monkeypatch)
    assert waiting["outcome"] == 8
    assert waiting["counts"]["icu_pending_stall"] > 0
