"""The SpeakQL benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dictation --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run with the layer wrappers of ``tracing.py`` installed and
reports the per-layer metrics instead.  End-to-end durations are in
reference seconds: host seconds times the run's host-speed factor
(``hostspeed.py``).  Diagnostics go to the lines before the last; the last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every correctness check passed.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
#: Where traced runs write their spans (inside the checkout, git-ignored).
SPANS_DIR = ROOT / ".perfbench"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Metric names and units come from the benchmark's definition.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import checks
    import tracing
    from hostspeed import SETUP_PROBE_CALLS, HostSpeed
    from inputs import LATENCY_LIMIT_MS, make_inputs
    from stats import percentile, samples_beyond
    from system import SETUP_PHASES, build_system
    from workloads import OPEN_LOOP, rounds_for, run_round

    workload = args.workload
    recorder = tracing.Recorder()
    if args.trace:
        tracing.install(recorder)
    started = time.perf_counter()
    inputs = make_inputs(workload, args.seed)
    inputs_s = time.perf_counter() - started

    # Set-ups come first and last a few seconds, so they get a factor of
    # their own, from the probes around them (see hostspeed.py).
    setup_speed = HostSpeed()
    setup_totals = []
    setup_phases = {name: [] for name in SETUP_PHASES}
    setup_speed.probe(SETUP_PROBE_CALLS)
    for _ in range(SETUPS):
        system = None  # the previous set-up is freed before the next one
        gc.collect()
        system, phases, total = build_system(
            inputs, clause_indexes=workload == "correction_session"
        )
        setup_speed.probe(SETUP_PROBE_CALLS)
        setup_totals.append(total)
        for name, seconds in phases.items():
            setup_phases[name].append(seconds)
    gc.collect()

    speed = HostSpeed()
    rounds_total = rounds_for(workload, args.seconds)
    recorder.enabled = bool(args.trace)
    rounds = []
    for number in range(rounds_total):
        recorder.round = number
        rounds.append(run_round(workload, system, inputs, speed))
    recorder.enabled = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    limit_s = LATENCY_LIMIT_MS[workload] / 1000.0
    latencies = [lat for r in rounds for lat in r.latencies]
    responses = [resp for r in rounds for resp in r.responses]
    attempted = len(responses)
    failed = sum(
        1 for resp in responses if resp is None or resp.outcome != "served"
    )
    # Durations are reported in reference seconds (see hostspeed.py).  An
    # open-loop round lasts as long as its schedule, so its wall time is
    # not scaled; every other duration is the program's work.
    factor = speed.factor()
    host_wall = sum(r.wall for r in rounds)
    wall = host_wall if workload in OPEN_LOOP else host_wall * factor
    host_latencies = [
        lat for lat, resp in zip(latencies, responses)
        if resp is not None and resp.outcome == "served"
    ]
    served_latencies = [lat * factor for lat in host_latencies]

    started = time.perf_counter()
    problems = []
    beyond = samples_beyond(served_latencies, 95)
    if beyond < 10:
        problems.append(
            f"only {beyond} samples beyond p95; a run needs at least ten"
        )
    problems += checks.stable_across_rounds(rounds)
    first = rounds[0].responses
    if workload != "correction_session":
        problems += checks.structure_oracle(inputs, first)
    problems += checks.literal_membership(inputs, first)
    if workload == "correction_session":
        problems += checks.fresh_session_decodes(system, inputs, first)
    correct_queries, judged, unrunnable, gold_problems = checks.gold_answers(
        inputs, first
    )
    problems += gold_problems
    checks_s = time.perf_counter() - started

    p50_ms = percentile(served_latencies, 50) * 1000.0
    print(f"workload={workload} seed={args.seed} trace={args.trace} "
          f"rounds={rounds_total} requests_per_round={len(first)} "
          f"attempted={attempted} failed={failed} host_wall_s={host_wall:.3f}")
    print(f"inputs_s={inputs_s:.3f} setups_s={sum(setup_totals):.3f} "
          f"checks_s={checks_s:.3f} (host seconds)")
    print(f"host speed factor={factor:.4f} from {len(speed.probes)} probes "
          f"(host s per kernel call: min {min(speed.probes):.4f}, "
          f"max {max(speed.probes):.4f}); set-up factor "
          f"{setup_speed.factor():.4f}")
    print(f"latency_p50_ms={p50_ms:.3f} (traced={args.trace}; host ms "
          f"{percentile(host_latencies, 50) * 1000.0:.3f})")
    if rounds[0].lags:
        lags = [lag * 1000.0 for r in rounds for lag in r.lags]
        print(f"arrival generator lag ms: p50={percentile(lags, 50):.3f} "
              f"p95={percentile(lags, 95):.3f} max={max(lags):.3f}")
    print(f"correct_queries={correct_queries} of {judged} requests; "
          f"{len(unrunnable)} gold queries sqlite cannot run")
    for sql in unrunnable:
        print(f"  unrunnable gold: {sql}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    if args.trace:
        walls, by_key = {}, {}
        for number, round_ in enumerate(rounds):
            for request, latency, response in zip(
                inputs.requests, round_.latencies, round_.responses
            ):
                key = (number, request.trace_id)
                walls[key] = latency
                by_key[key] = response
        values = tracing.layer_metrics(recorder, walls, by_key)
        for name in SETUP_PHASES:
            values[name] = statistics.median(setup_phases[name])
        recorder.uninstall()
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{workload}-seed{args.seed}.jsonl"
        written = tracing.write_spans(recorder, spans_path)
        print(f"wrote {written} spans to {spans_path.relative_to(ROOT)}")
        reported = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_totals) * setup_speed.factor(),
            "latency_p50_ms": p50_ms,
            "latency_p95_ms": percentile(served_latencies, 95) * 1000.0,
            "throughput_qps": len(served_latencies) / wall,
            "goodput_qps": sum(1 for lat in served_latencies if lat <= limit_s)
            / wall,
            "correct_queries": correct_queries,
            "peak_rss_mb": peak_rss_mb,
        }
        reported = spec["end_to_end"]
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in reported
    }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
