#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sim-fallback --seeds 1-10

For each end-to-end metric it prints the median over the seeds and the
inter-quartile distance as a share of the median, next to the metric's
bound in ``BENCHMARK.json`` (a steady benchmark keeps every spread, but
``setup_s``'s, under its bound).  The raw results go to
``.perfbench/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import arith  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [
                *spec["command"],
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append({"seed": seed, **result})
        print(f"seed {seed}: " + " ".join(
            f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()
        ), flush=True)
    (ROOT / ".perfbench" / f"spread-{args.workload}.json").write_text(
        json.dumps(results, indent=1) + "\n"
    )
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'metric':<40} {'median':>12} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        spread = arith.iqr_spread(values) if len(values) > 1 else 0.0
        bound = bounds.get(name)
        print(f"{name:<40} {statistics.median(values):>12.6g} {spread:>8.4f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
