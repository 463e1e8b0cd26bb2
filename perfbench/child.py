"""One measured repetition, in a process of its own.

``run.py`` starts this script once per set-up sample and once per
campaign, so every repetition pays real imports and every peak-RSS
figure belongs to a process that ran only that workload.  The result
is written as JSON to ``--out``:

* ``setup_s``: process start (before ``import repro``) until the first
  scenario could start: imports, routine and builder construction and
  netlist generation.  ``--mode setup`` stops here.
* ``campaign_s``: wall clock of the campaign entry-point call.
* ``peak_rss_mb``: peak RSS of this process plus its largest worker.
* ``outcomes``/``order``: per-scenario outcomes and the run order.
* ``trace``: per-layer metrics (``--mode traced`` only).
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "campaign", "traced"))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    prepared = workloads.prepare(args.workload, smoke=args.smoke)
    result: dict = {"setup_s": time.perf_counter() - STARTED}
    if args.mode != "setup":
        scenarios = prepared.permuted(args.seed)
        tracer = None
        if args.mode == "traced":
            tracer = spans.Tracer(args.work_dir / "spill")
            spans.install(tracer)
        start = time.perf_counter()
        outcomes, timings = prepared.run(scenarios, args.work_dir / "checkpoints")
        campaign_s = time.perf_counter() - start
        result.update(
            campaign_s=campaign_s,
            peak_rss_mb=peak_rss_mb(),
            order=[scenario.label for scenario in scenarios],
            outcomes=outcomes,
        )
        if tracer is not None:
            result["trace"] = tracer.report(campaign_s, prepared.workers, timings)
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
