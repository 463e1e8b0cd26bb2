"""Deterministic cost of the cycle simulator: bytecodes run inside ``Soc.run``.

Wall-clock on a small shared host cannot resolve a simulator change of
a few tens of percent; the number of Python bytecodes the interpreter
executes for a fixed scenario repeats exactly, so it serves as
supporting evidence next to ``perfbench``'s timed ``soc.simulate_s``.

For the cache-wrapped and the unwrapped (Table II no-cache) forwarding
routine, each of two scenarios is first run untraced, so that the
decode and dual-issue memos are warm, then run again on a fresh SoC
with opcode tracing switched on for the ``Soc.run`` call only.  Loading
and the start-delay cycles before the last core starts are not counted.

Usage, from the repository root::

    PYTHONPATH=src python benchmarks/sim_opcodes.py

The counts depend on the Python version (3.11 here); compare a parent
and a change under the same interpreter.  Not a ``bench_*`` file, so
pytest never collects it.
"""

from __future__ import annotations

import sys

SCENARIOS = ("cores01_mid_word", "cores012_high_qword")


def routine_builders() -> dict[str, dict]:
    """Routine name -> core id -> ``build(base_address)``."""
    from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS, forwarding_builders
    from repro.stl import RoutineContext
    from repro.stl.routines import make_forwarding_routine

    unwrapped = {
        core_id: make_forwarding_routine(model, with_pcs=False).builder_for(
            RoutineContext.for_core(core_id, model)
        )
        for core_id, model in DEFAULT_CAMPAIGN_MODELS.items()
    }
    return {"wrapped": forwarding_builders(), "unwrapped": unwrapped}


def started_soc(programs: dict, scenario):
    """A fresh SoC with every program loaded and every core started."""
    from repro.soc import Soc

    soc = Soc()
    for program in programs.values():
        soc.load(program)
    for core_id in sorted(programs, key=scenario.start_delay):
        soc.run_cycles(max(0, scenario.start_delay(core_id) - soc.cycle))
        soc.start_core(core_id, programs[core_id].base_address)
    return soc


def count_run_opcodes(soc) -> tuple[int, int]:
    """Run ``soc`` to completion; return (bytecodes executed, cycles)."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(call)
    try:
        cycles = soc.run()
    finally:
        sys.settrace(None)
    return count, cycles


def main() -> int:
    from repro.core.determinism import default_scenarios, placement_address

    scenarios = {s.label: s for s in default_scenarios()}
    print(f"Python {sys.version.split()[0]}; bytecodes executed inside Soc.run")
    print(f"{'routine':<10} {'scenario':<22} {'cycles':>8} {'bytecodes':>12}")
    for routine, builders in routine_builders().items():
        total = 0
        for label in SCENARIOS:
            scenario = scenarios[label]
            programs = {
                core_id: builders[core_id](
                    placement_address(scenario.position, scenario.alignment, core_id)
                )
                for core_id in scenario.active_cores
            }
            started_soc(programs, scenario).run()  # warm the memos
            count, cycles = count_run_opcodes(started_soc(programs, scenario))
            total += count
            print(f"{routine:<10} {label:<22} {cycles:>8,} {count:>12,}")
        print(f"{routine:<10} {'total':<22} {'':>8} {total:>12,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
