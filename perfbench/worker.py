"""One workload process: set up, then a closed loop of timed operations.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --mode setup|run|trace --spawned-at NS

``--spawned-at`` is the CLOCK_MONOTONIC time, in nanoseconds, at which the
parent started this process; set-up time runs from there to the moment the
first operation could start, so it covers interpreter start-up, importing
lqt, building the examples and generating the seeded inputs.  In ``setup``
mode the process stops there.  Otherwise one caller issues the workload's
rounds back to back until the operations have taken ``--seconds`` in total
and at least MIN_OPS have run, then checks what is left to check.  The last
line of standard output is a JSON summary.

Every time in the summary is scaled to the reference host speed
(reference.py): between operations, outside the timed region, the process
times a fixed piece of work that does not touch lqt, and each operation's
latency is scaled by the speed measured around it.  The set-up time is
scaled by one reference time taken right after set-up.  The raw figures go
into the summary's ``raw`` entry.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

# At least ten operations must lie above the 90th percentile.
MIN_OPS = 100
MAX_PROBLEMS = 10


def percentile(sorted_ns: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_ns[max(0, math.ceil(q * len(sorted_ns)) - 1)]


def latency_figures(times_ns: list[float], failures: list[bool]) -> dict:
    """ops_per_s, op_p50_ms and op_p90_ms of one run's operation times.  A
    failed operation counts in the time but misses every latency limit."""
    latencies = sorted(math.inf if bad else t
                       for t, bad in zip(times_ns, failures))
    return {
        "ops_per_s": (len(times_ns) - sum(failures)) / (sum(times_ns) / 1e9),
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_p90_ms": percentile(latencies, 0.9) / 1e6,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--spawned-at", type=int, required=True)
    args = parser.parse_args()

    import reference
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    setup_s = (ready - args.spawned_at) / 1e9
    speed = reference.HostSpeed()
    setup_scale = reference.REFERENCE_NS / speed.refs[0]
    result: dict = {"setup_s": setup_s * setup_scale,
                    "raw": {"setup_s": setup_s}}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    clock = time.perf_counter_ns
    budget_ns = int(args.seconds * 1e9)
    # per operation: raw time, window of host speed, whether it failed
    raw_ns: list[int] = []
    windows: list[int] = []
    failures: list[bool] = []
    measured_ns = rounds = 0
    problems: list[str] = []
    while measured_ns < budget_ns or len(raw_ns) < MIN_OPS:
        for op in workload.next_round():
            if speed.due():
                speed.sample()
            t0 = clock()
            if tracer:
                tracer.begin_op(t0)
            try:
                answer = op.run()
                error = None
            except Exception as exc:  # counted as a failed operation
                answer, error = None, exc
            t1 = clock()
            if tracer:
                tracer.end_op(t1)
            measured_ns += t1 - t0
            raw_ns.append(t1 - t0)
            windows.append(speed.window)
            failures.append(error is not None or op.failed(answer))
            if not failures[-1] and len(problems) < MAX_PROBLEMS:
                problems += op.check(answer)
        rounds += 1
    speed.sample()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scales = speed.scales()
    op_scales = [scales[w] for w in windows]

    if tracer:
        summary = tracer.summarize(op_scales)
        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}.spans")
        result["layers"] = tracing.layer_metrics(summary)
        result["spans"] = summary["spans"]
        problems += summary["problems"]

    problems += workload.final_checks()
    scaled_ns = [t * scale for t, scale in zip(raw_ns, op_scales)]
    attempted, failed = len(raw_ns), sum(failures)
    result.update(latency_figures(scaled_ns, failures))
    result["raw"].update(latency_figures(raw_ns, failures))
    result.update({
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "measured_s": measured_ns / 1e9,
        "host_speed": statistics.median(scales),
        "peak_rss_mib": peak_rss_kib / 1024,
        "problems": problems[:MAX_PROBLEMS],
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
