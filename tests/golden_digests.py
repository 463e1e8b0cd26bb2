"""Golden per-core digests of the cycle simulator.

Each case runs one scenario on a fresh SoC and reduces every active
core to one blake2b digest over its signature, mailbox, cycle count,
IF/MEM/hazard stall counters and its full forwarding, HDCU and ICU
activation logs.  Any change to what the pipeline executes, when it
stalls, or what it records moves the digest.

The matrix is the forwarding routine deployed three ways (cache-wrapped,
unwrapped and TCM-based) over the 18 ``default_scenarios()`` and the
single-core placements of every core, plus one ``run_scenario(audit=True)``
run whose audit verdict is digested too.  The committed
``golden_digests.json`` is the simulator's fixture: a rewrite of the
hot path must reproduce it bit for bit.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden_digests.py check    # full matrix
    PYTHONPATH=src python tests/golden_digests.py record   # rewrite fixture

``check`` exits non-zero and names every case whose digests differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

FIXTURE = Path(__file__).with_name("golden_digests.json")

ROUTINES = ("wrapped", "unwrapped", "tcm")

#: Cases tier-1 checks on every run: one 3-core, one 2-core and one
#: single-core scenario, spread over the three deployments.
TIER1_CASES = (
    "wrapped/cores012_mid_word",
    "unwrapped/cores01_high_dword",
    "tcm/cores2_low_qword",
)


def routine_builders(routine: str, **sizes) -> dict:
    """Core id -> ``build(base_address)`` for one deployment of the
    forwarding routine (no performance counters); full-size unless
    ``sizes`` passes ``patterns_per_path``/``load_use_blocks``."""
    from repro.core.tcm_wrapper import build_tcm_wrapped
    from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS, forwarding_builders
    from repro.stl import RoutineContext
    from repro.stl.routines import make_forwarding_routine

    if routine == "wrapped":
        return forwarding_builders(**sizes)
    builders = {}
    for core_id, model in DEFAULT_CAMPAIGN_MODELS.items():
        ctx = RoutineContext.for_core(core_id, model)
        body = make_forwarding_routine(model, with_pcs=False, **sizes)
        if routine == "unwrapped":
            builders[core_id] = body.builder_for(ctx)
        else:
            builders[core_id] = (
                lambda base, body=body, ctx=ctx: build_tcm_wrapped(
                    body, base, ctx
                ).driver
            )
    return builders


def _scenarios() -> dict:
    from repro.core.determinism import default_scenarios, single_core_scenarios

    scenarios = list(default_scenarios())
    for core in (0, 1, 2):
        scenarios.extend(single_core_scenarios(core))
    return {scenario.label: scenario for scenario in scenarios}


def case_keys() -> list[str]:
    """Every case of the full matrix, in a stable order."""
    labels = list(_scenarios())
    keys = [f"{routine}/{label}" for routine in ROUTINES for label in labels]
    keys.append("wrapped/cores012_low_qword/audit")
    return keys


def _canonical(value):
    if isinstance(value, tuple):
        return [int(v) for v in value]
    return int(value)


def _records(records: list) -> list:
    return [[_canonical(value) for value in record] for record in records]


def _digest(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def core_digest(result) -> str:
    """Digest of one :class:`CoreRunResult`."""
    log = result.log
    return _digest(
        [
            result.signature,
            result.mailbox,
            result.cycles,
            result.if_stalls,
            result.mem_stalls,
            result.hazard_stalls,
            _records(log.forwarding),
            _records(log.hdcu),
            _records(log.icu),
        ]
    )


def run_case(key: str, builders: dict | None = None) -> dict[str, str]:
    """Run one case and return its digests, keyed by core id."""
    from repro.core.determinism import run_scenario

    routine, label, *flags = key.split("/")
    audit = flags == ["audit"]
    if builders is None:
        builders = routine_builders(routine)
    result = run_scenario(builders, _scenarios()[label], audit=audit)
    digests = {
        str(core_id): core_digest(core)
        for core_id, core in sorted(result.per_core.items())
    }
    if audit:
        digests["audit"] = _digest(result.audit)
    return digests


def compute(keys: list[str]) -> dict[str, dict[str, str]]:
    """Digests of ``keys``, building each deployment's builders once."""
    cache: dict[str, dict] = {}
    out = {}
    for key in keys:
        routine = key.split("/")[0]
        if routine not in cache:
            cache[routine] = routine_builders(routine)
        out[key] = run_case(key, cache[routine])
    return out


def load_fixture() -> dict[str, dict[str, str]]:
    return json.loads(FIXTURE.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("check", "record"))
    args = parser.parse_args(argv)
    keys = case_keys()
    actual = compute(keys)
    if args.mode == "record":
        FIXTURE.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(actual)} cases to {FIXTURE.name}")
        return 0
    expected = load_fixture()
    bad = [key for key in keys if expected.get(key) != actual[key]]
    missing = sorted(set(expected) - set(actual))
    for key in bad:
        print(f"MISMATCH {key}: expected {expected.get(key)}, got {actual[key]}")
    for key in missing:
        print(f"MISSING {key}: in the fixture but not in the matrix")
    print(f"{len(keys) - len(bad)}/{len(keys)} cases match")
    return 1 if bad or missing else 0


if __name__ == "__main__":
    sys.exit(main())
