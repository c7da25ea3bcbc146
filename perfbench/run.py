"""bicheb benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload decide_yes --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every measurement happens in fresh
interpreters started by this script, one after another, never two at
once.  With --trace 0: one interpreter sets up, runs the timed loop and
checks the outputs, and SETUP_RUNS - 1 more only set up, half of them
before and half after it.  With --trace 1: one interpreter runs the loop
with layer tracing.  The last stdout line is {"correct", "attempted",
"failed", "metrics"}.  Exit code 1, and no result, when any interpreter
fails.

Workloads, metrics and the per-layer predictions: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_RUNS = 3  # fresh interpreters whose set-up time is measured, per run
SETUP_TIMEOUT_S = 20
DEADLINE_S = 170  # the whole run, set-ups included


def run_worker(args, extra: list[str], deadline: float, cap: float = DEADLINE_S) -> dict:
    """Run worker.py to completion, killing it at min(cap, the deadline)."""
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(t0), *extra,
    ]
    # run() kills the worker on timeout and waits for it to end
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, timeout=max(1.0, min(cap, deadline - t0))
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must be in (0, 60]")

    deadline = time.monotonic() + DEADLINE_S
    # set-up-only interpreters half before and half after the measuring
    # one, so a slow stretch of the machine does not cover all of them
    around = 0 if args.trace else SETUP_RUNS - 1
    try:
        setups = [
            run_worker(args, ["--setup-only"], deadline, SETUP_TIMEOUT_S)["setup"]
            for _ in range(around // 2)
        ]
        main_run = run_worker(args, [], deadline)
        setups += [
            run_worker(args, ["--setup-only"], deadline, SETUP_TIMEOUT_S)["setup"]
            for _ in range(around - around // 2)
        ]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    values = main_run["metrics"]
    if not args.trace:
        setups.append(main_run["setup"])
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    units = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    result = {
        "correct": main_run["correct"],
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
