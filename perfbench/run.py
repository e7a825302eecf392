"""Benchmark of lqt: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own
single-threaded process (perfbench/worker.py) as a closed loop.

With ``--trace 0`` the result holds the end-to-end metrics: ops_per_s,
op_p50_ms, op_p90_ms, peak_rss_mib from one measured process, and setup_s as
the median over that process and SETUP_SAMPLES - 1 processes that only set
up, half of them started before it and half after.  With ``--trace 1`` an
untraced and a traced process run one after the other; the result holds
the per-layer metrics of the traced one and the tracing overhead, the
difference of the two processes' ops_per_s.

Every time is scaled to the reference host speed (see reference.py); the
unscaled figures of each measured process are printed on a comment line
before the result.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A process that fails or overruns makes this
script exit with status 1 and print no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("field-roundtrip", "walk-queries", "cli-walk")
SETUP_SAMPLES = 5
# A measured process takes a little more wall time than --seconds (checks,
# set-up, the trace summary); the run gives up after SLACK_S plus OVERRUN
# times --seconds for each measured process.
SLACK_S = 40
OVERRUN = 3


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str,
          deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
            "--spawned-at", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("no time left for another process")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} process of {workload} overran") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} process of {workload} exited with "
                          f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float,
               deadline: float) -> tuple[list[dict], dict]:
    # half the set-up samples before the measured process and half after,
    # so that their median spans the whole run
    def setups(count: int) -> list[float]:
        return [spawn(workload, seed, seconds, "setup", deadline)["setup_s"]
                for _ in range(count)]

    before = setups(SETUP_SAMPLES // 2)
    run = spawn(workload, seed, seconds, "run", deadline)
    after = setups(SETUP_SAMPLES // 2)
    setup_s = statistics.median(before + [run["setup_s"]] + after)
    return [run], {
        "ops_per_s": metric(run["ops_per_s"], "1/s"),
        "op_p50_ms": metric(run["op_p50_ms"], "ms"),
        "op_p90_ms": metric(run["op_p90_ms"], "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mib": metric(run["peak_rss_mib"], "MiB"),
    }


def per_layer(workload: str, seed: int, seconds: float,
              deadline: float) -> tuple[list[dict], dict]:
    plain = spawn(workload, seed, seconds, "run", deadline)
    traced = spawn(workload, seed, seconds, "trace", deadline)
    metrics = {name: metric(value, unit)
               for name, (value, unit) in traced["layers"].items()}
    metrics["trace.ops_per_s"] = metric(traced["ops_per_s"], "1/s")
    metrics["trace.untraced_ops_per_s"] = metric(plain["ops_per_s"], "1/s")
    metrics["trace.overhead_pct"] = metric(
        100 * (plain["ops_per_s"] - traced["ops_per_s"]) / plain["ops_per_s"],
        "%")
    metrics["trace.spans_per_op"] = metric(
        traced["spans"] / traced["attempted"], "1/op")
    return [plain, traced], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/lqt/__init__.py", "tests/golden_cases.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run "
              f"from a checkout of the lqt repository", file=sys.stderr)
        return 2
    measured_processes = 2 if args.trace else 1
    deadline = (time.monotonic() + SLACK_S
                + OVERRUN * args.seconds * measured_processes)
    measure = per_layer if args.trace else end_to_end
    try:
        runs, metrics = measure(args.workload, args.seed, args.seconds,
                                deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = [p for run in runs for p in run["problems"]]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for run in runs:
        raw = run["raw"]
        print(f"# {args.workload} seed {args.seed}: {run['attempted']} ops "
              f"in {run['rounds']} rounds, {run['measured_s']:.2f} s "
              f"measured, {run['failed']} failed; host speed "
              f"{run['host_speed']:.3f} of the reference; unscaled "
              f"ops_per_s {raw['ops_per_s']:.4g}, op_p50_ms "
              f"{raw['op_p50_ms']:.4g}, op_p90_ms {raw['op_p90_ms']:.4g}, "
              f"setup_s {raw['setup_s']:.4g}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
