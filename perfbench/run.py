"""Campaign benchmark: the Section IV-C fault-coverage campaign, end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload wrapped_serial --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``wrapped_serial`` (the paper's
cache-wrapped routine, serial), ``unwrapped_serial`` (the Table II
no-cache baseline, serial) and ``wrapped_2workers`` (the wrapped routine
through the parallel entry point with two workers).  Load is one closed
loop: one campaign at a time, each in a fresh process.

``--trace 0`` measures with no wrappers installed.  It first takes
``SETUP_SAMPLES`` set-up-only samples, then runs campaigns back to back
for ``--seconds`` (at least one; another only while the longest so far
would still end within ``--seconds``) and reports medians:

* ``campaign_s``: wall clock of the campaign entry-point call;
* ``setup_s``: set-up time, median over every process started;
* ``peak_rss_mb``: peak RSS of the campaign process plus its largest worker;
* ``matched_share``: scenarios that ran and matched the reference,
  over those attempted (``failed_share`` is its complement).

``--trace 1`` runs one untraced campaign (the base) and one traced
campaign with the same seed, and reports the per-layer metrics of
``spans.py`` plus the tracing overhead.

Every campaign is checked against the recorded reference outcomes and
the paper's shape; a traced campaign's fingerprint is checked too.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 2
#: Scratch checkpoints and the fingerprint record, inside the checkout.
WORK_DIR = ROOT / ".perfbench_run"
REFERENCE_DIR = HERE / "reference"
#: Wall-clock budget of one benchmark run, all processes included.
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "campaign_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "matched_share": "share",
}

PER_LAYER_UNITS = {
    "stl.build_s": "s",
    "stl.builds": "count",
    "soc.simulate_s": "s",
    "soc.sim_cycles": "cycles",
    "soc.sim_cycles_per_s": "cycles/s",
    "soc.if_stalls": "cycles",
    "soc.mem_stalls": "cycles",
    "soc.hazard_stalls": "cycles",
    "observability.patterns_s": "s",
    "observability.calls": "count",
    "observability.patterns": "count",
    "compiled.compile_s": "s",
    "compiled.netlists": "count",
    "ppsfp.grade_s": "s",
    "ppsfp.items": "count",
    "ppsfp.distinct_items": "count",
    "ppsfp.distinct_ratio": "share",
    "ppsfp.gate_fault_evals": "count",
    "ppsfp.evals_per_s": "1/s",
    "ppsfp.detected": "count",
    "campaign.checkpoint_s": "s",
    "campaign.checkpoint_writes": "count",
    "campaign.checkpoint_bytes": "B",
    "parallel.shards": "count",
    "parallel.shard_busy_s": "s",
    "parallel.shard_max_s": "s",
    "parallel.shard_imbalance": "ratio",
    "parallel.idle_s": "s",
    "other_s": "s",
    "trace.campaign_s": "s",
    "trace.base_campaign_s": "s",
    "trace.overhead_ratio": "ratio",
}


class HarnessError(RuntimeError):
    """A measured process failed; the run has no result."""


def run_child(workload, seed, mode, work_dir, *, smoke=False, deadline) -> dict:
    """Run ``child.py`` once in its own process group; return its result."""
    work_dir.mkdir(parents=True)
    out = work_dir / "result.json"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--out", str(out), "--work-dir", str(work_dir),
    ] + (["--smoke"] if smoke else [])
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.Popen(
        command, env=env, stdout=subprocess.DEVNULL, start_new_session=True
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} process ran past the time limit") from None
    finally:
        if proc.poll() is None:
            # Kill the whole group: a parallel campaign's workers too.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise HarnessError(f"{mode} process exited with code {code}")
    return json.loads(out.read_text())


def measure(args, work: Path, deadline: float) -> tuple[list, list]:
    """Take the set-up samples and campaigns; return (setups, campaigns)."""
    counter = itertools.count()

    def child(mode):
        return run_child(
            args.workload, args.seed, mode, work / f"{mode}-{next(counter)}",
            smoke=args.smoke, deadline=deadline,
        )

    setups = [child("setup") for _ in range(SETUP_SAMPLES)]
    if args.trace:
        return setups, [child("campaign"), child("traced")]
    campaigns = []
    longest = 0.0
    start = time.monotonic()
    # Start another campaign only while it is expected to end in time.
    while not campaigns or time.monotonic() - start + longest <= args.seconds:
        began = time.monotonic()
        campaigns.append(child("campaign"))
        longest = max(longest, time.monotonic() - began)
    return setups, campaigns


def evaluate(args, setups, campaigns) -> dict:
    """Check every campaign and compute the printed metrics."""
    routine, _, reference_name = workloads.WORKLOADS[args.workload]
    reference = checks.load_reference(REFERENCE_DIR, reference_name)
    attempted = 0
    failures: list[str] = []
    problems: list[str] = []
    for run in campaigns:
        attempted += len(run["order"])
        failures += checks.scenario_failures(run["outcomes"], reference, run["order"])
        problems += checks.shape_problems(routine, run["outcomes"])
    if args.trace:
        base, traced = campaigns
        record = WORK_DIR / (
            f"fingerprint-{args.workload}{'-smoke' if args.smoke else ''}.json"
        )
        problems += checks.fingerprint_problems(traced["trace"], reference, record)
        metrics = dict(traced["trace"])
        metrics.update(
            {
                "trace.campaign_s": traced["campaign_s"],
                "trace.base_campaign_s": base["campaign_s"],
                "trace.overhead_ratio": traced["campaign_s"] / base["campaign_s"],
            }
        )
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "campaign_s": statistics.median(r["campaign_s"] for r in campaigns),
            "setup_s": statistics.median(r["setup_s"] for r in setups + campaigns),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in campaigns),
            "matched_share": (attempted - len(failures)) / attempted,
        }
        units = END_TO_END_UNITS
    return {
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
        "digests": sorted({checks.outcome_digest(r["outcomes"]) for r in campaigns}),
        "metrics": {name: (metrics[name], unit) for name, unit in units.items()},
    }


def report(args, setups, campaigns, result) -> None:
    """Human-readable summary, then the one-line JSON result."""
    failed = len(result["failures"])
    correct = not result["failures"] and not result["problems"]
    print(
        f"perfbench {args.workload}: seed={args.seed} trace={args.trace} "
        f"cpu_count={os.cpu_count()} campaigns={len(campaigns)} "
        f"setup_samples={len(setups) + len(campaigns)}"
    )
    print(f"  scenario order (seed {args.seed}): {', '.join(campaigns[0]['order'])}")
    print(f"  outcome digest: {', '.join(result['digests'])}")
    print(
        "  samples: campaign_s "
        + " ".join(f"{r['campaign_s']:.3f}" for r in campaigns)
        + "; setup_s "
        + " ".join(f"{r['setup_s']:.3f}" for r in setups + campaigns)
    )
    for line in result["failures"] + result["problems"]:
        print(f"  FAIL {line}")
    print(f"  failed_share = {failed}/{result['attempted']} = {failed / result['attempted']:.4f}")
    if args.trace:
        m = {name: value for name, (value, _) in result["metrics"].items()}
        layers = sum(m[name] for name in spans.LAYER_TIME.values())
        lanes = workloads.WORKLOADS[args.workload][1]
        print(
            f"  accounting: layers {layers:.3f} s + other_s {m['other_s']:.3f} s + "
            f"idle_s {m['parallel.idle_s']:.3f} s = {lanes} x traced campaign_s "
            f"{m['trace.campaign_s']:.3f} s; tracing overhead "
            f"{m['trace.overhead_ratio']:.4f}x of untraced {m['trace.base_campaign_s']:.3f} s"
        )
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:28s} {value:>18.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--smoke", action="store_true",
        help="self-test size: one-pattern bodies, two scenarios",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        setups, campaigns = measure(args, work, deadline)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, setups, campaigns, evaluate(args, setups, campaigns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
