"""End-to-end TDB benchmark: one workload, one seed, one JSON result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bigmap --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the stack up several times (reporting the median set-up
time), measures for ``--seconds`` untraced and prints the end-to-end
metrics.  ``--trace 1`` sets up once, measures untraced and then traced
for ``--seconds`` each, and prints the per-layer metrics.  Both end with
the crash/recovery/durability check.  The last stdout line is the
result; a ``properties`` line before it records what the run exercised.
The exit code is non-zero when any operation failed or the workload no
longer measures what it claims to.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Any, Dict, List

from stack import WORK, ProgramMissing, import_program, quiesce

#: sizes per workload; ``tiny`` is for the smoke test
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "bindrelease": dict(device_mib=8, recovery_writes=1024),
        "bigmap": dict(device_mib=64, objects=100_000, payload_bytes=200,
                       warmup_ops=300, recovery_writes=256),
        "serve": dict(device_mib=32, objects=3000, payload_bytes=200,
                      warmup_ops=400, recovery_writes=1024),
    },
    "tiny": {
        "bindrelease": dict(device_mib=4, recovery_writes=8, reopens=1,
                            reopen_seconds=0),
        "bigmap": dict(device_mib=8, objects=4200, payload_bytes=64,
                       warmup_ops=20, recovery_writes=8, reopens=1,
                       reopen_seconds=0),
        "serve": dict(device_mib=4, objects=300, payload_bytes=64,
                      warmup_ops=20, recovery_writes=8, reopens=1,
                      reopen_seconds=0),
    },
}
#: set-ups per untraced run (``setup_s`` is their median)
SETUPS = {"full": 3, "tiny": 1}

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "read_p50_us": "us",
    "read_p95_us": "us",
    "write_p50_us": "us",
    "write_p90_us": "us",
    "recovery_s": "s",
    "space_amp": "ratio",
}


def percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile (0 when there are no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), int(-(-p * len(ordered) // 100))))
    return ordered[rank - 1]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Scale

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    scale = Scale(**SCALES[args.scale][args.workload])
    workload = WORKLOADS[args.workload](args.seed, scale)
    try:
        result, properties = measure(workload, args)
    finally:
        workload.close()
    print("properties " + json.dumps(properties, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(workload, args):
    import layers

    setup_s = []
    for _ in range(1 if args.trace else SETUPS[args.scale]):
        workload.close()
        quiesce()
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)
    phases = [run_phase(workload, args.seconds)]
    first = phases[0][0]
    if args.trace:
        from spans import Tracer

        # a fresh store and the same seeded requests: the traced phase
        # repeats the untraced one, so their ratio is the tracing cost
        workload.setup()
        tracer = Tracer()
        phases.append(run_phase(workload, args.seconds, tracer))
        traced, before, after = phases[-1]
        traced_metrics = layers.per_layer(
            tracer, before, after, traced,
            untraced_ops_per_s=ops_per_s(first),
            traced_ops_per_s=ops_per_s(traced),
        )
        tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.csv.gz")
        del tracer  # free the spans before the durability check
    last = phases[-1][0]
    ending = workload.finish(last)

    def total(counter: str):
        return sum(after[counter] - before[counter] for _, before, after in phases)

    moved = {key: total(key) for key in phases[0][1]}
    problems = workload.caption_problems(ending["map_height"], moved)
    attempted = sum(p.attempted for p, _, _ in phases)
    failed = sum(p.failed for p, _, _ in phases)
    correct = failed == 0 and not problems

    if args.trace:
        metrics = {
            name: {"value": value, "unit": layers.PER_LAYER[name]}
            for name, value in traced_metrics.items()
        }
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": ops_per_s(first),
            "read_p50_us": percentile(first.read_us, 50),
            "read_p95_us": percentile(first.read_us, 95),
            "write_p50_us": percentile(first.write_us, 50),
            "write_p90_us": percentile(first.write_us, 90),
            "recovery_s": statistics.median(ending["recovery_s"] or [0.0]),
            "space_amp": ending["space_amp"],
        }
        metrics = {
            name: {"value": value, "unit": E2E_UNITS[name]}
            for name, value in values.items()
        }
    properties = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "map_height": ending["map_height"],
        "checkpoints": moved["checkpoints"],
        "cleaner_passes": moved["cleaner_passes"],
        "segments_cleaned": moved["segments_cleaned"],
        "group_commit_batches": moved["batches"],
        "snapshots_created": moved["snapshots_created"],
        "lock_waits": moved["lock_waits"],
        "setup_s": setup_s,
        "recovery_cpu_s": ending["recovery_s"],
        "recovery_wall_s": ending["recovery_wall_s"],
        "residual_checkpoints": ending["residual_checkpoints"],
        "space": {key: ending[key] for key in
                  ("space_amp", "stored_bytes", "live_bytes", "user_bytes")},
        "samples": {"read": len(last.read_us), "write": len(last.write_us)},
        "latency_us": {
            kind: {f"p{p}": percentile(samples, p) for p in (50, 90, 95, 99)}
            for kind, samples in (("read", last.read_us), ("write", last.write_us))
        },
        "ops": [p.ops for p, _, _ in phases],
        "error_rate": failed / attempted if attempted else 0.0,
        "errors": [e for p, _, _ in phases for e in p.errors] + problems,
        **workload.sizes(),
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, properties


def run_phase(workload, seconds: float, tracer=None):
    """One timed phase; returns it with the program's counters read
    before and after."""
    import layers
    from spans import install

    quiesce()
    before = layers.counters(workload)
    if tracer is not None:
        install(tracer, workload.stack.chunks)
    try:
        measurement = workload.run(seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    return measurement, before, layers.counters(workload)


def ops_per_s(measurement) -> float:
    return measurement.ops / measurement.busy_s if measurement.busy_s else 0.0


if __name__ == "__main__":
    sys.exit(main())
