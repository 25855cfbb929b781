"""Run each workload in two separate sets and check every metric's bound.

Usage (from the repository root)::

    python3 perfbench/steadiness.py                       # 2 x 10 seeds, all workloads
    python3 perfbench/steadiness.py --workloads dictation --seeds 5
    python3 perfbench/steadiness.py --seeds 3 --trace-overhead

Runs are sequential (one at a time, so they do not disturb each other).
Set 1 runs every workload with seeds 1..n, then set 2 runs them again
with seeds n+1..2n, so the two sets are minutes apart, as two
measurements of one commit would be.  For every end-to-end metric and
set it prints the median over the runs and the quartile spread
``(Q3 - Q1) / median`` (quartiles from ``statistics.quantiles(values,
n=4)``), then how much worse set 2's median is than set 1's, against
the metric's bound from ``BENCHMARK.json``.  It fails when a spread or
a change exceeds its bound, or when runs of a workload failed different
shares of their operations; a spread above a third of its bound is
flagged.  ``--trace-overhead`` adds a traced run per seed of set 1 and
reports how much the wrappers raise ``latency_p50_ms``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent
_P50 = re.compile(r"^latency_p50_ms=([0-9.]+)", re.MULTILINE)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, str]:
    command = [
        sys.executable, *spec["command"][1:],
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} failed "
            f"(exit {done.returncode}):\n{done.stdout}\n{done.stderr}"
        )
    return json.loads(lines[-1]), done.stdout


def worsening(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace-overhead", action="store_true")
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    # values[workload][set][metric] -> one value per run
    values = {w: [{name: [] for name in metrics} for _ in range(2)]
              for w in workloads}
    shares = {w: set() for w in workloads}
    overheads = {w: [] for w in workloads}
    for number in range(2):
        first_seed = 1 + number * args.seeds
        for workload in workloads:
            for seed in range(first_seed, first_seed + args.seeds):
                result, stdout = run_once(spec, workload, seed, 0)
                shares[workload].add(result["failed"] / result["attempted"])
                for name in metrics:
                    values[workload][number][name].append(
                        result["metrics"][name]["value"])
                line = f"set {number + 1} {workload} seed {seed}: " + " ".join(
                    f"{name}={result['metrics'][name]['value']:.4g}"
                    for name in metrics
                )
                if args.trace_overhead and number == 0:
                    _, traced = run_once(spec, workload, seed, 1)
                    plain = float(_P50.search(stdout).group(1))
                    overhead = float(_P50.search(traced).group(1)) / plain - 1.0
                    overheads[workload].append(overhead)
                    line += f" tracing_overhead={overhead:+.1%}"
                print(line, flush=True)

    steady = True
    for workload in workloads:
        same_share = len(shares[workload]) == 1
        steady = steady and same_share
        print(f"\n{workload}: failed share per run {sorted(shares[workload])}"
              + ("" if same_share else "  <-- differs between runs"))
        print(f"{'metric':<18}{'median 1':>12}{'spread 1':>10}{'median 2':>12}"
              f"{'spread 2':>10}{'worse':>9}{'bound':>8}")
        for name, metric in metrics.items():
            bound = metric["bound"]
            sets = values[workload]
            medians = [statistics.median(s[name]) for s in sets]
            spreads = [quartile_spread(s[name]) for s in sets]
            worse = worsening(metric, *medians)
            flags = []
            if max(spreads) > bound:
                flags.append("spread above bound")
            elif max(spreads) > bound / 3:
                flags.append("spread above a third of the bound")
            if worse > bound:
                flags.append("set 2 worse than set 1 by more than the bound")
            steady = steady and max(spreads) <= bound and worse <= bound
            print(f"{name:<18}{medians[0]:>12.4f}{spreads[0]:>10.4f}"
                  f"{medians[1]:>12.4f}{spreads[1]:>10.4f}{worse:>+9.1%}"
                  f"{bound:>8.2f}" + "".join(f"  <-- {f}" for f in flags))
        if overheads[workload]:
            median = statistics.median(overheads[workload])
            print(f"tracing overhead on latency_p50_ms: median {median:+.1%}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
