"""The benchmark's workloads: the Section IV-C campaign, three ways.

Every workload grades FWD/HDCU/ICU stuck-at faults over the 18-scenario
matrix of ``default_scenarios()`` ({2,3 cores} x 3 positions x 3
alignments; 45 core runs, 360 grading items), each scenario on a fresh
SoC with cold caches.  The seed permutes the scenario order and nothing
else; the program receives only the permuted scenario list.

``smoke`` selects the self-test size: one-pattern routine bodies and
two scenarios (one 2-core, one 3-core).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

MODULES = ("FWD", "HDCU", "ICU")

#: Workload name -> (routine, workers, reference it is checked against).
WORKLOADS = {
    "wrapped_serial": ("wrapped", 1, "wrapped_serial"),
    "unwrapped_serial": ("unwrapped", 1, "unwrapped_serial"),
    "wrapped_2workers": ("wrapped", 2, "wrapped_serial"),
}


def unwrapped_builders(**sizes):
    """The Table II no-cache baseline: the bare forwarding routine per core."""
    from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS
    from repro.stl import RoutineContext
    from repro.stl.routines import make_forwarding_routine

    return {
        core_id: make_forwarding_routine(model, with_pcs=False, **sizes).builder_for(
            RoutineContext.for_core(core_id, model)
        )
        for core_id, model in DEFAULT_CAMPAIGN_MODELS.items()
    }


@dataclass
class Prepared:
    """A workload ready to run: everything set-up time pays for."""

    workers: int
    models: dict
    scenarios: tuple
    #: Builder dict (serial) or picklable zero-arg provider (parallel).
    program: object

    def permuted(self, seed: int) -> list:
        scenarios = list(self.scenarios)
        random.Random(seed).shuffle(scenarios)
        return scenarios

    def run(self, scenarios, checkpoint_dir: Path):
        """Run the campaign; return (outcome dicts by label, shard timings).

        Entry points are looked up on their modules at call time so a
        traced run sees the wrapped versions.
        """
        import repro.faults as faults
        import repro.faults.campaign as campaign

        if self.workers == 1:
            checkpoint_dir.mkdir(parents=True)
            outcomes = campaign.run_checkpointed_campaign(
                self.program, scenarios, self.models,
                checkpoint_dir / "campaign.json", modules=MODULES,
            )
            timings = None
        else:
            result = faults.run_parallel_checkpointed_campaign(
                self.program, scenarios, self.models, checkpoint_dir,
                modules=MODULES, workers=self.workers,
            )
            outcomes, timings = result.outcomes, result.shard_timings
        return {label: o.to_dict() for label, o in outcomes.items()}, timings


def prepare(name: str, smoke: bool = False) -> Prepared:
    """Imports, routine and builder construction, netlist generation."""
    # The campaign entry points are imported here so set-up pays for them.
    import repro.faults  # noqa: F401
    import repro.faults.campaign  # noqa: F401
    from repro.core.determinism import default_scenarios
    from repro.faults.generators import get_modules
    from repro.faults.workload import (
        DEFAULT_CAMPAIGN_MODELS,
        small_provider,
        standard_provider,
    )

    routine, workers, _ = WORKLOADS[name]
    scenarios = default_scenarios()
    if smoke:
        scenarios = (scenarios[0], scenarios[-1])
    provider = small_provider() if smoke else standard_provider()
    if workers > 1:
        program = provider
    elif routine == "wrapped":
        program = provider()
    else:
        # The same smoke sizes as small_provider() gives the wrapped routine.
        sizes = {"patterns_per_path": 1, "load_use_blocks": 1} if smoke else {}
        program = unwrapped_builders(**sizes)
    for model in DEFAULT_CAMPAIGN_MODELS.values():
        get_modules(model)
    return Prepared(workers, DEFAULT_CAMPAIGN_MODELS, scenarios, program)
