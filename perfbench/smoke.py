"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Runs every workload at the tiny scale, untraced and traced, the way
   ``BENCHMARK.json``'s command does, and checks that each run is correct
   and emits exactly the metrics ``BENCHMARK.json`` names, with their
   units.
2. Flips one byte of a live object's chunk through the attacker API
   (``tamper_write``) between the crash and the reopen, and checks that
   the oracle reports it: the check that makes a run incorrect is live.

Exits non-zero on the first check that fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY_SECONDS = 2


def expected_metrics(spec: dict, trace: int) -> dict:
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def check_emits_every_metric(spec: dict) -> None:
    for workload in spec["workloads"]:
        for trace in (0, 1):
            name = workload["name"]
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", "7", "--seconds", str(TINY_SECONDS),
                "--trace", str(trace), "--scale", "tiny",
            ]
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=600
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                raise SystemExit(
                    f"{name} trace={trace}: exit {done.returncode}\n"
                    f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
                )
            result = json.loads(lines[-1])
            got = {key: row["unit"] for key, row in result["metrics"].items()}
            want = expected_metrics(spec, trace)
            if got != want:
                raise SystemExit(
                    f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}, units "
                    f"{ {k: (got[k], want[k]) for k in got if k in want and got[k] != want[k]} }"
                )
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                raise SystemExit(f"{name} trace={trace}: incorrect run {result}")
            print(f"ok  {name:12s} trace={trace}  {len(got)} metrics")


def check_tamper_is_reported() -> None:
    sys.path.insert(0, str(HERE))
    from stack import import_program

    import_program()
    from repro.chunkstore.ids import data_id
    from run import SCALES
    from workloads import WORKLOADS, Scale

    workload = WORKLOADS["bigmap"](7, Scale(**SCALES["tiny"]["bigmap"]))
    try:
        workload.setup()
        clean = workload.run(0.5)
        if clean.failed:
            raise SystemExit(f"untampered run failed: {clean.errors}")
        victim = workload.refs[0]
        descriptor = workload.stack.chunks._get_descriptor(
            data_id(victim.partition, victim.rank)
        )

        def flip_one_byte(stack) -> None:
            offset = descriptor.location + descriptor.length - 1
            byte = stack.platform.untrusted.tamper_read(offset, 1)
            stack.platform.untrusted.tamper_write(offset, bytes([byte[0] ^ 0x01]))

        workload.finish(clean, after_crash=flip_one_byte)
    finally:
        workload.close()
    if not clean.failed or not any("Tamper" in error for error in clean.errors):
        raise SystemExit(f"a flipped device byte went unreported: {clean.errors}")
    print(f"ok  tamper       reported: {clean.errors[0]}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_emits_every_metric(spec)
    check_tamper_is_reported()
    return 0


if __name__ == "__main__":
    sys.exit(main())
