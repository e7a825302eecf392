"""Steadiness of the benchmark: repeated runs of the same code, compared.

    python3 perfbench/steadiness.py

Runs the command in BENCHMARK.json RUNS times per workload in each of two
sets, each run with its own seed (set k uses seeds 1000k+1 .. 1000k+RUNS),
one after another.  For every workload and end-to-end metric it prints each
set's median and quartiles, the spread (interquartile range over median)
and how far the second median moved from the first, signed so that a
positive move is a change for the worse.  A metric passes when the spread
of each set and the size of the move both stay within its bound in
BENCHMARK.json.  The share of failed operations must be identical in every
run.  Exit status 0 when everything passes, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def run_once(command: list[str], workload: str, seed: int,
             seconds: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for k in range(SETS):
            results = []
            for i in range(RUNS):
                result = run_once(bench["command"], workload,
                                  1000 * k + i + 1, bench["run_seconds"])
                results.append(result)
                print(f"# {workload} set {k + 1} run {i + 1}: "
                      + " ".join(f"{name}={m['value']:.6g}"
                                 for name, m in result["metrics"].items()),
                      file=sys.stderr)
            sets.append(results)
        shares = {Fraction(r["failed"], r["attempted"])
                  for results in sets for r in results}
        correct = all(r["correct"] for results in sets for r in results)
        print(f"{workload}: failed share {sorted(map(str, shares))}, "
              f"all correct {correct}")
        ok &= len(shares) == 1 and correct
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            line = [f"  {name:<13} bound {bound:<5}"]
            medians = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                q1, median, q3, rel = spread(values)
                medians.append(median)
                within = rel <= bound
                ok &= within
                line.append(f"median {median:.6g} [{q1:.6g}, {q3:.6g}] "
                            f"spread {rel:.3f}{'' if within else ' (!)'}")
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (medians[1] - medians[0]) / medians[0]
            ok &= abs(drift) <= bound
            line.append(f"worse by {drift:+.3f}"
                        f"{'' if abs(drift) <= bound else ' (!)'}")
            print(" | ".join(line))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
