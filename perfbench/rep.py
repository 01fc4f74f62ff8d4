"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so the process-wide
``hash_fields`` memo and every other module-level cache start cold, as
they do for a user's run.  It prints one JSON object on its last line.

    python3 perfbench/rep.py --workload sim-steady --seed 1 --trace 0
"""

from __future__ import annotations

import time

# Set-up time counts from here: package import plus cluster assembly.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (HERE, ROOT / "src", ROOT / "benchmarks"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import arith  # noqa: E402
import tracing  # noqa: E402

#: Each workload's sizes, and how run.py reads its results: the latency
#: population (scaled to seconds), its tail percentile, and whether every
#: repetition of a seed must repeat exactly (the simulator's do).  The
#: entry is recorded with every result.
WORKLOADS: dict[str, dict[str, Any]] = {
    "sim-steady": {
        "n": 16,
        "network": "synchronous",
        "rate_tx_per_sim_s": 20.0,
        "window_sim_s": 300.0,
        "drain_sim_s": 60.0,
        "latency": "sim_commit_latency",
        "latency_to_s": 1.0,
        "tail": 99.0,
        "deterministic": True,
    },
    "sim-fallback": {
        "n": 16,
        "network": "leader-targeting adversary",
        "target_fallback_views": 120,
        "until_sim_s": 400_000.0,
        "preload_tx": 10_000,
        "latency": "sim_view_change",
        "latency_to_s": 1.0,
        "tail": 90.0,
        "deterministic": True,
    },
    "live-durable": {
        "n": 4,
        "network": "localhost TCP, one asyncio loop",
        "rate_tx_per_s": 200.0,
        "window_s": 5.0,
        "drain_s": 5.0,
        "round_timeout_s": 1.0,
        "latency": "commit_latency_ms",
        "latency_to_s": 0.001,
        "tail": 99.0,
        "deterministic": False,
    },
}


def _stop_reason(cluster: Any, reached: bool, until: float, stopped_at: float) -> str:
    if reached:
        return "target"
    if cluster.scheduler.pending_events == 0:
        return "quiescent"
    if stopped_at >= until:
        return "time_bound"
    return "max_events"


def _view_changes(metrics: Any) -> list[float]:
    """Per fallback view: first honest ``entered`` to first honest ``exited``."""
    entered: dict[int, float] = {}
    exited: dict[int, float] = {}
    for event in metrics.fallback_events:
        if event.replica in metrics.honest_ids:
            book = entered if event.kind == "entered" else exited
            book.setdefault(event.view, event.time)
    return [exited[view] - entered[view] for view in entered if view in exited]


def _honest_commits(metrics: Any) -> list[Any]:
    first = min(metrics.honest_ids)
    return [event for event in metrics.commits if event.replica == first]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def sim_steady(seed: int, tracer: Optional[tracing.Tracer]) -> dict[str, Any]:
    """n=16, synchronous network, open-loop Poisson load through admission."""
    from repro.runtime.cluster import ClusterBuilder
    from repro.traffic.admission import AdmissionController
    from repro.traffic.envelope import TrafficEnvelope
    from repro.traffic.loadgen import OpenLoopGenerator, PoissonArrivals
    from repro.traffic.saturation import SaturationScenario
    from repro.traffic.slo import RequestTracker

    size = WORKLOADS["sim-steady"]
    if tracer is not None:
        tracing.install(tracer)
    scenario = SaturationScenario(name="sim-steady", n=size["n"])
    config = replace(scenario.config(), fallback_adoption=False)
    cluster = ClusterBuilder(config=config, seed=seed).with_preload(0).build()
    for mempool in cluster.mempools:
        mempool.capacity = scenario.mempool_capacity
    tracker = RequestTracker()
    admission = AdmissionController(
        cluster.mempools, envelope=TrafficEnvelope(), tracker=tracker
    )
    cluster.metrics.attach_request_tracker(tracker)
    cluster.metrics.attach_admission(admission)
    total = int(size["rate_tx_per_sim_s"] * size["window_sim_s"])
    generator = OpenLoopGenerator(
        PoissonArrivals(size["rate_tx_per_sim_s"], seed=seed),
        admission.offer,
        max_count=total,
    )
    until = size["window_sim_s"] + size["drain_sim_s"]

    def drained() -> bool:
        return admission.offered >= total and tracker.committed_count() >= admission.admitted

    setup_s = time.perf_counter() - T0
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if tracer is not None:
        tracer.reset()
    cluster.start()
    generator.start(cluster.scheduler)
    result = cluster.run(until=until, stop_when=drained)
    if tracer is not None:
        tracer.finish()
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0

    committed = tracker.committed_count()
    due = arith.due_times(
        islice(PoissonArrivals(size["rate_tx_per_sim_s"], seed=seed).gaps(), total),
        tracker.submitted["tx-0-0"],
        float("inf"),
    )
    lag_ms = [
        (tracker.submitted[f"tx-0-{index}"] - due_at) * 1000.0
        for index, due_at in enumerate(due)
        if f"tx-0-{index}" in tracker.submitted
    ]
    out = _sim_common(cluster, seed, setup_s, cpu, wall, tracer)
    out.update(
        stop_reason=_stop_reason(cluster, drained(), until, result.stopped_at),
        attempted=total,
        failed=total - committed,
        due=total,
        done=committed,
        populations={
            "sim_commit_latency": tracker.commit_latencies(),
            **_traffic_populations(tracker, lag_ms),
        },
    )

    return out


def sim_fallback(seed: int, tracer: Optional[tracing.Tracer]) -> dict[str, Any]:
    """n=16 under the leader-targeting adversary: every view falls back."""
    from repro.experiments.scenarios import build_cluster, leader_attack_factory
    from repro.protocols.presets import preset

    size = WORKLOADS["sim-fallback"]
    if tracer is not None:
        tracing.install(tracer)
    config = preset("fallback-3chain").config(size["n"], fallback_adoption=False)
    cluster = build_cluster(
        "fallback-3chain",
        size["n"],
        seed=seed,
        delay_factory=leader_attack_factory(),
        config=config,
        preload=size["preload_tx"],
    )
    target, until = size["target_fallback_views"], size["until_sim_s"]
    metrics = cluster.metrics
    exited: set[int] = set()
    seen = [0]

    def enough_views() -> bool:
        events = metrics.fallback_events
        for event in events[seen[0]:]:
            if event.kind == "exited" and event.replica in metrics.honest_ids:
                exited.add(event.view)
        seen[0] = len(events)
        return len(exited) >= target

    setup_s = time.perf_counter() - T0
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if tracer is not None:
        tracer.reset()
    result = cluster.run(until=until, stop_when=enough_views)
    if tracer is not None:
        tracer.finish()
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0

    reached = enough_views()
    out = _sim_common(cluster, seed, setup_s, cpu, wall, tracer)
    out.update(
        stop_reason=_stop_reason(cluster, reached, until, result.stopped_at),
        attempted=target,
        failed=max(0, target - len(exited)),
        due=target,
        done=min(target, len(exited)),
        populations={"sim_view_change": _view_changes(metrics)},
    )
    return out


def _sim_common(
    cluster: Any,
    seed: int,
    setup_s: float,
    cpu: float,
    wall: float,
    tracer: Optional[tracing.Tracer],
) -> dict[str, Any]:
    from bench_simcore import fingerprint
    from repro.analysis.safety import check_cluster_safety

    violations = check_cluster_safety(cluster.honest_replicas())
    return {
        "setup_s": setup_s,
        "cpu_s": cpu,
        "wall_s": wall,
        "decisions": cluster.metrics.decisions(),
        "events": cluster.scheduler.events_processed,
        "fingerprint": fingerprint(cluster),
        "safety_violations": [str(v) for v in violations[:5]],
        "counts": _protocol_counts(cluster.metrics, len(cluster.honest_ids)),
        "trace": None if tracer is None else _trace_figures(tracer),
    }


def live_durable(seed: int, tracer: Optional[tracing.Tracer]) -> dict[str, Any]:
    """n=4 durable replicas over localhost TCP, wall-clock Poisson load."""
    import asyncio

    from repro.analysis.safety import check_cluster_safety
    from repro.core.config import ProtocolConfig, ProtocolVariant
    from repro.runtime.live import LiveCluster
    from repro.runtime.metrics import MetricsCollector
    from repro.storage.journal import snapshot_to_dict
    from repro.traffic.loadgen import PoissonArrivals

    size = WORKLOADS["live-durable"]
    if tracer is not None:
        tracing.install(tracer)
        unchanged = tracing.unchanged_write_counter(tracer)
    config = ProtocolConfig(
        n=size["n"],
        variant=ProtocolVariant.FALLBACK_3CHAIN,
        round_timeout=size["round_timeout_s"],
        fallback_adoption=False,
    )
    cluster = LiveCluster(n=size["n"], seed=seed, durable=True, preload=0, config=config)

    # Set-up hooks only (one call each per run): catch the tracker the open
    # loop creates, and mark the end of assembly, TCP mesh included.
    captured: dict[str, Any] = {}
    attach = MetricsCollector.attach_request_tracker

    def capture_tracker(metrics: Any, tracker: Any) -> None:
        captured["tracker"] = tracker
        attach(metrics, tracker)

    MetricsCollector.attach_request_tracker = capture_tracker  # type: ignore[method-assign]
    build = cluster._build

    async def timed_build() -> None:
        await build()
        captured["setup_end"] = time.perf_counter()
        captured["cpu0"] = time.process_time()
        if tracer is not None:
            tracing.trace_idle(tracer, asyncio.get_running_loop())
            tracer.reset()

    cluster._build = timed_build  # type: ignore[method-assign]
    report = cluster.run_open_loop(
        rate=size["rate_tx_per_s"],
        duration=size["window_s"],
        drain=size["drain_s"],
        loadgen_seed=seed,
    )
    if tracer is not None:
        tracer.finish()
    end = time.perf_counter()
    cpu = time.process_time() - captured["cpu0"]
    wall = end - captured["setup_end"]

    metrics = cluster.metrics
    tracker = captured["tracker"]
    admission = metrics.admission_counters()
    first = tracker.submitted.get("tx-0-0")
    due = (
        arith.due_times(
            PoissonArrivals(size["rate_tx_per_s"], seed=seed).gaps(),
            first,
            size["window_s"],
        )
        if first is not None
        else []
    )
    latency_ms, lag_ms = [], []
    for index, due_at in enumerate(due):
        tx_id = f"tx-0-{index}"
        if tx_id in tracker.submitted:
            lag_ms.append((tracker.submitted[tx_id] - due_at) * 1000.0)
        if tx_id in tracker.committed:
            latency_ms.append((tracker.committed[tx_id] - due_at) * 1000.0)
    transport = metrics.transport_counters()["totals"]
    record_bytes = max(
        len(
            json.dumps(
                snapshot_to_dict(replica.journal.read()),
                separators=(",", ":"),
                sort_keys=True,
            )
        )
        for replica in cluster.replicas
    )
    violations = check_cluster_safety(cluster.replicas)
    counts = _protocol_counts(metrics, size["n"])
    counts.update(
        journal_writes=sum(replica.journal.writes for replica in cluster.replicas),
        record_bytes_final=record_bytes,
        tcp_frames=transport["frames_sent"],
        tcp_errors=sum(
            transport[key]
            for key in (
                "decode_errors",
                "frame_errors",
                "auth_failures",
                "dropped_backpressure",
                "no_route",
            )
        ),
        encoded_bytes=metrics.encoded_bytes,
    )
    figures = None
    if tracer is not None:
        figures = _trace_figures(tracer)
        figures["unchanged_writes"], figures["journal_writes_seen"] = unchanged()
    return {
        "setup_s": captured["setup_end"] - T0,
        "cpu_s": cpu,
        "wall_s": wall,
        "decisions": metrics.decisions(),
        "events": 0,
        "fingerprint": None,
        "stop_reason": "drained" if report["committed"] >= report["admitted"] else "time_bound",
        # The cluster's own failures: offered requests it refused or never
        # committed.  Requests due but never offered (the generator fell
        # behind) count only against ``done``.
        "attempted": len(tracker.submitted) + admission["rejected"],
        "failed": len(tracker.submitted)
        + admission["rejected"]
        - len(tracker.submitted.keys() & tracker.committed.keys()),
        "due": len(due),
        "done": len(latency_ms),
        "safety_violations": [str(v) for v in violations[:5]]
        + ([] if cluster.ledger_prefixes_consistent() else ["ledger prefixes diverge"]),
        "populations": {
            "commit_latency_ms": latency_ms,
            **_traffic_populations(tracker, lag_ms),
        },
        "counts": counts,
        "trace": figures,
    }


# ----------------------------------------------------------------------
# Figures read from the program's own counters after the run
# ----------------------------------------------------------------------
def _protocol_counts(metrics: Any, honest: int) -> dict[str, Any]:
    from repro.crypto.hashing import hash_cache_size

    commits = _honest_commits(metrics)
    admission = metrics.admission_counters()
    fallback_views = {e.view for e in metrics.fallback_events if e.kind == "exited"}
    committing_views = {e.view for e in commits if e.fallback_block}
    return {
        "honest_messages": metrics.honest_messages,
        "honest_bytes": metrics.honest_bytes,
        "round_entries_per_replica": len(metrics.round_entries) / honest,
        "timeouts_per_replica": len(metrics.timeouts) / honest,
        "fallbacks": metrics.fallback_count(),
        "fallback_views_exited": len(fallback_views),
        "fallback_views_committing": len(committing_views & fallback_views),
        "blocks": len(commits),
        "nonempty_blocks": sum(1 for e in commits if e.batch_size > 0),
        "committed_tx": sum(e.batch_size for e in commits),
        "cert_cache": metrics.cert_cache_counters(),
        "share_pool": metrics.share_pool_counters(),
        "hash_cache_entries": hash_cache_size(),
        "offered": admission["offered"],
        "rejected": admission["rejected"],
        "journal_writes": 0,
        "record_bytes_final": 0,
        "tcp_frames": 0,
        "tcp_errors": 0,
        "encoded_bytes": 0,
    }


def _traffic_populations(tracker: Any, lag_ms: list[float]) -> dict[str, list[float]]:
    return {
        "queue_wait": tracker.queue_latencies(),
        "consensus": tracker.consensus_latencies(),
        "lag_ms": lag_ms,
    }


def _trace_figures(tracer: tracing.Tracer) -> dict[str, Any]:
    cost = tracing.SpanCost.calibrate()
    return {
        "self_s": dict(zip(tracer.layers, tracer.self_time)),
        "calls": tracer.layer_calls(),
        "child_spans": dict(zip(tracer.layers, tracer.child_spans)),
        "span_cost_s": list(cost),
        "root_s": tracer.root_duration,
        "hash_calls": tracer.calls("repro.crypto.hashing.hash_fields"),
        "hash_misses": tracer.calls("repro.crypto.hashing.hash_fields_uncached"),
        "share_verifies": tracer.calls("ThresholdScheme.verify_share")
        + tracer.calls("CommonCoin.verify_share"),
        "spans": tracer.spans_total,
    }


RUNNERS = {"sim-steady": sim_steady, "sim-fallback": sim_fallback, "live-durable": live_durable}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark repetition")
    parser.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)
    tracer = tracing.Tracer() if args.trace else None
    result = RUNNERS[args.workload](args.seed, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["spec"] = WORKLOADS[args.workload]
    result["traced"] = bool(args.trace)
    if tracer is not None and args.spans_out is not None:
        tracer.write_spans(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
