#!/usr/bin/env python3
"""The repository's benchmark: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload sim-steady --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each repetition runs in a fresh interpreter
(``rep.py``), one at a time, until ``--seconds`` have passed (at least
:data:`MIN_REPS` of them).  ``--trace 0`` reports the end-to-end metrics
with tracing off; ``--trace 1`` alternates untraced repetitions (the
baseline) with traced ones, and reports the per-layer metrics.

Correctness gate: every simulator repetition must pass
``analysis.safety.check_cluster_safety`` and give the same commit-trace
fingerprint and simulated-time populations as the first; the live cluster
must keep its committed ledgers prefix-consistent.  A failure prints the
result with ``"correct": false`` and exits 1.  Without the program's
sources next to ``perfbench/`` the script exits 2 and prints no result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it print every metric with its unit and sample count, the provenance
(source digest, commit, machine) and each repetition's stop reason.  The
full record, and the spans of the last traced repetition, are written
under ``.perfbench/``.

Seed 7919 is held out: later claims are re-checked on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import arith  # noqa: E402
from rep import WORKLOADS  # noqa: E402

HELD_OUT_SEED = 7919
MIN_REPS = 3
#: No new repetition starts after this many seconds of one run.
HARD_LIMIT_S = 120.0
REP_TIMEOUT_S = 150.0
#: Traced CPU time less the tracer's calibrated cost, over the untraced CPU
#: time of the same work (medians per decision), outside this range is
#: flagged: the tracer-cost correction is then off, and so are the CPU
#: shares of span-heavy layers.
CORRECTION_RANGE = (0.8, 1.25)

REQUIRED = (ROOT / "src" / "repro" / "__init__.py", ROOT / "benchmarks" / "bench_simcore.py")


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
def run_rep(workload: str, seed: int, traced: bool, spans_out: Optional[Path]) -> dict:
    command = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        "1" if traced else "0",
    ]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"repetition failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def pooled(reps: list[dict], key: str) -> list[float]:
    return [value for rep in reps for value in rep["populations"].get(key, ())]


def enough_samples(spec: dict, trace: int, reps: list[dict]) -> bool:
    """A workload that does not repeat exactly pools its samples over
    repetitions, and its tails need ten samples beyond them (a
    deterministic workload's are fixed by its size)."""
    if spec["deterministic"]:
        return True
    key, p = ("lag_ms", 99.0) if trace else (spec["latency"], spec["tail"])
    counted = [rep for rep in reps if rep["traced"] == bool(trace)]
    return arith.supported(len(pooled(counted, key)), p)


def run_reps(args: argparse.Namespace, out_dir: Path) -> list[dict]:
    """Repetitions one at a time until the time is up and samples suffice."""
    reps: list[dict] = []
    start = time.perf_counter()
    spans_out = out_dir / f"spans-{args.workload}-seed{args.seed}.bin"
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_rep(args.workload, args.seed, traced, spans_out if traced else None))
        elapsed = time.perf_counter() - start
        if elapsed > HARD_LIMIT_S:
            break
        counted = sum(rep["traced"] == bool(args.trace) for rep in reps)
        if (
            counted >= (1 if args.trace else MIN_REPS)
            and enough_samples(WORKLOADS[args.workload], args.trace, reps)
            and elapsed + elapsed / len(reps) > args.seconds
        ):
            break
    return reps


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def check_gate(spec: dict, reps: list[dict]) -> list[str]:
    problems = []
    first = reps[0]
    for index, rep in enumerate(reps):
        for violation in rep["safety_violations"]:
            problems.append(f"rep {index}: safety violation: {violation}")
        if spec["deterministic"]:
            if rep["fingerprint"] != first["fingerprint"]:
                problems.append(
                    f"rep {index}: fingerprint {rep['fingerprint']} != {first['fingerprint']}"
                )
            if rep["populations"] != first["populations"]:
                problems.append(f"rep {index}: simulated-time figures differ from rep 0")
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(
    spec: dict, reps: list[dict], units: dict[str, str]
) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, sample note)."""
    name, scale, tail = spec["latency"], spec["latency_to_s"], spec["tail"]
    if spec["deterministic"]:
        population = reps[0]["populations"][name]
        note = f"{len(population)} samples (every rep identical)"
    else:
        population = pooled(reps, name)
        note = f"{len(population)} samples pooled over {len(reps)} reps"
    due = sum(rep["due"] for rep in reps)
    done = sum(rep["done"] for rep in reps)
    count = f"median of {len(reps)} reps"
    return {
        "setup_s": (statistics.median([r["setup_s"] for r in reps]), units["setup_s"], count),
        "decisions_per_cpu_s": (
            statistics.median([r["decisions"] / r["cpu_s"] for r in reps]),
            units["decisions_per_cpu_s"],
            f"{count}, each its timed phase's decisions over its CPU time",
        ),
        "decisions_per_s": (
            statistics.median([r["decisions"] / r["wall_s"] for r in reps]),
            units["decisions_per_s"],
            f"{count}, each its timed phase's decisions over its wall time",
        ),
        "latency_p50": (
            arith.checked_percentile(population, 50.0, name) * scale,
            units["latency_p50"],
            note,
        ),
        "latency_tail": (
            arith.checked_percentile(population, tail, name) * scale,
            units["latency_tail"],
            f"p{tail:g}, {note}",
        ),
        "completed_ratio": (done / due, units["completed_ratio"], f"{done} of {due} operations due"),
        "peak_rss_mb": (
            statistics.median([r["peak_rss_mb"] for r in reps]),
            units["peak_rss_mb"],
            count,
        ),
    }


def per_layer(
    reps: list[dict], units: dict[str, str]
) -> tuple[dict[str, tuple[float, str, str]], float]:
    """Per-layer figures from the traced repetitions (medians), and the
    traced CPU time less the tracer's calibrated cost over the untraced CPU
    time, both per decision and the median over their repetitions."""
    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    note = f"median of {len(traced)} traced reps"
    rows: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        rows.setdefault(name, []).append(value)

    for rep in traced:
        trace, counts, decisions = rep["trace"], rep["counts"], rep["decisions"]
        costs = arith.span_costs(trace["calls"], trace["child_spans"], tuple(trace["span_cost_s"]))
        add("corrected_cpu_per_decision", (rep["cpu_s"] - sum(costs.values())) / decisions)
        shares = arith.layer_shares(arith.corrected_self_times(trace["self_s"], costs))
        for layer in ("sim", "net", "crypto", "core.replica", "core.fallback", "ledger",
                      "mempool", "traffic", "storage"):
            add(f"{layer}.cpu_share", shares.get(layer, 0.0))
        add("wire.encode_cpu_share", shares.get("wire.encode", 0.0))
        add("wire.decode_cpu_share", shares.get("wire.decode", 0.0))
        add("runtime.metrics_cpu_share", shares.get("runtime.metrics", 0.0))
        add("runtime.other_cpu_share", shares.get("runtime.other", 0.0))
        add("runtime.loop_busy_ratio", rep["cpu_s"] / rep["wall_s"])
        add("sim.events_per_decision", rep["events"] / decisions)
        add("net.messages_per_decision", counts["honest_messages"] / decisions)
        add("net.bytes_per_decision", counts["honest_bytes"] / decisions)
        add("net.tcp.frames_per_decision", counts["tcp_frames"] / decisions)
        add("net.tcp.errors", counts["tcp_errors"])
        add("crypto.hash_calls_per_decision", trace["hash_calls"] / decisions)
        add("crypto.hash_memo_hit_ratio", _ratio(trace["hash_calls"] - trace["hash_misses"], trace["hash_calls"]))
        add("crypto.hash_cache_entries", counts["hash_cache_entries"])
        for cache, prefix in (("cert_cache", "crypto.cert_cache"), ("share_pool", "crypto.share_pool")):
            hits, misses = counts[cache]["hits"], counts[cache]["misses"]
            add(f"{prefix}_hit_ratio", _ratio(hits, hits + misses))
            add(f"{prefix}_hits_per_decision", hits / decisions)
            add(f"{prefix}_misses_per_decision", misses / decisions)
        add("crypto.share_verifies_per_decision", trace["share_verifies"] / decisions)
        add("core.rounds_per_decision", counts["round_entries_per_replica"] / decisions)
        add("core.timeouts_per_decision", counts["timeouts_per_replica"] / decisions)
        add("core.fallbacks_per_decision", counts["fallbacks"] / decisions)
        add(
            "core.fallback_commit_ratio",
            _ratio(counts["fallback_views_committing"], counts["fallback_views_exited"]),
        )
        add("mempool.tx_per_block", _ratio(counts["committed_tx"], counts["blocks"]))
        add("mempool.nonempty_block_ratio", _ratio(counts["nonempty_blocks"], counts["blocks"]))
        add("storage.writes_per_decision", counts["journal_writes"] / decisions)
        add("storage.record_bytes_final", counts["record_bytes_final"])
        add(
            "storage.unchanged_write_ratio",
            _ratio(trace.get("unchanged_writes", 0), trace.get("journal_writes_seen", 0)),
        )
        add("wire.bytes_per_decision", counts["encoded_bytes"] / decisions)
        add("traffic.admission_reject_ratio", _ratio(counts["rejected"], counts["offered"]))

    correction = statistics.median(rows.pop("corrected_cpu_per_decision")) / statistics.median(
        [r["cpu_s"] / r["decisions"] for r in untraced]
    )
    figures = {name: (statistics.median(values), units[name], note) for name, values in rows.items()}
    figures["trace.overhead_ratio"] = (
        statistics.median([r["decisions"] / r["cpu_s"] for r in untraced])
        / statistics.median([r["decisions"] / r["cpu_s"] for r in traced]),
        units["trace.overhead_ratio"],
        f"untraced over traced decisions_per_cpu_s, {len(untraced)} and {len(traced)} reps; "
        f"traced CPU less tracer cost over untraced: {correction:.3f}",
    )
    # Waits and lags pool the traced repetitions; seconds are simulated
    # on the simulator and wall-clock on the live cluster.
    for name, key, p in (
        ("traffic.queue_wait_p50", "queue_wait", 50.0),
        ("traffic.consensus_p50", "consensus", 50.0),
        ("traffic.loadgen_lag_p99_ms", "lag_ms", 99.0),
    ):
        values = pooled(traced, key)
        if values:
            figures[name] = (
                arith.checked_percentile(values, p, name),
                units[name],
                f"{len(values)} samples",
            )
        else:
            figures[name] = (0.0, units[name], "no traffic on this workload")
    return figures, correction


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def provenance() -> dict[str, Any]:
    digest = hashlib.blake2b(digest_size=12)
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "source_digest": digest.hexdigest(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "held_out_seed": HELD_OUT_SEED,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(path.relative_to(ROOT)) for path in REQUIRED if not path.exists()]
    if missing or not (ROOT / "BENCHMARK.json").exists():
        sys.stderr.write(
            "perfbench: run from a checkout of the repository; missing "
            + ", ".join(missing or ["BENCHMARK.json"])
            + "\n"
        )
        return 2
    units = load_units()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    spec = WORKLOADS[args.workload]
    reps = run_reps(args, out_dir)
    problems = check_gate(spec, reps)
    correction = None
    if args.trace:
        figures, correction = per_layer(reps, units)
    else:
        figures = end_to_end(spec, reps, units)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    prov = provenance()

    print(
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"reps={len(reps)} ({sum(r['traced'] for r in reps)} traced)"
    )
    print("workload: " + json.dumps(spec))
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print("stop reasons: " + ", ".join(rep["stop_reason"] for rep in reps))
    print(f"{'metric':<40} {'value':>14} {'unit':<16} samples")
    for name, (value, unit, note) in figures.items():
        print(f"{name:<40} {value:>14.6g} {unit:<16} {note}")
    low, high = CORRECTION_RANGE
    if correction is not None and not low <= correction <= high:
        print(
            f"TRACE WARNING: traced CPU time less the tracer's cost is {correction:.3f} "
            "of the untraced CPU time: the tracer-cost correction is off, or the "
            "machine's speed changed between repetitions; the CPU shares of "
            "span-heavy layers are less certain"
        )
    for problem in problems:
        print(f"GATE FAILURE: {problem}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _n) in figures.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "spec": spec,
        "provenance": prov,
        "gate_failures": problems,
        "trace_correction": correction,
        "samples": {name: note for name, (_v, _u, note) in figures.items()},
        "reps": [
            {k: v for k, v in rep.items() if k not in ("populations", "spec")}
            for rep in reps
        ],
        **result,
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
