"""Self-tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_arith.py -q
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import arith  # noqa: E402
import tracing  # noqa: E402


# ----------------------------------------------------------------------
# Percentiles with at least ten samples beyond them
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, p, ok",
    [
        (1000, 99.0, True),
        (999, 99.0, False),
        (100, 90.0, True),
        (99, 90.0, False),
        (20, 50.0, True),
        (19, 50.0, False),
        (10_000, 99.9, True),
    ],
)
def test_support_needs_ten_samples_beyond(count, p, ok):
    assert arith.supported(count, p) is ok


def test_checked_percentile_refuses_thin_tails():
    values = [float(i) for i in range(99)]
    with pytest.raises(ValueError, match="p90"):
        arith.checked_percentile(values, 90.0, "view change")
    assert arith.checked_percentile(values + [99.0], 90.0, "view change") == pytest.approx(89.1)


def test_percentile_matches_statistics_inclusive():
    values = [float((i * 37) % 101) for i in range(250)]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for p in range(1, 100):
        assert arith.percentile(values, p) == pytest.approx(cuts[p - 1])


# ----------------------------------------------------------------------
# Self time = span minus the child spans it encloses
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
        ("a", 6.0, 7.0, 3),
    ]
    times = arith.self_times(spans)
    assert times == pytest.approx({"root": 3.0, "a": 3.0, "b": 1.0, "c": 3.0})
    assert sum(times.values()) == pytest.approx(10.0)


def test_tracer_self_times_match_written_spans(tmp_path):
    ticks = iter(float(t) for t in range(1000))
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def leaf():
        return None

    traced_leaf = tracer.wrap(leaf, "crypto", "leaf")

    def middle():
        traced_leaf()
        traced_leaf()

    traced_middle = tracer.wrap(middle, "core.replica", "middle")
    tracer.reset()
    traced_middle()
    traced_leaf()
    tracer.finish()
    path = tmp_path / "spans.bin"
    tracer.write_spans(path)
    offline = arith.self_times(tracing.read_spans(path))
    online = dict(zip(tracer.layers, tracer.self_time))
    assert offline == pytest.approx(online)
    assert sum(online.values()) == pytest.approx(tracer.root_duration)
    assert tracer.calls("leaf") == 3


def test_layer_shares_sum_to_one_and_drop_excluded_layers():
    self_s = {"runtime.other": 1.0, "crypto": 3.0, "storage": 6.0, "idle": 5.0, "tracer": 2.0}
    corrected = arith.corrected_self_times(self_s, {"idle": 1.0})
    assert corrected == {"runtime.other": 1.0, "crypto": 3.0, "storage": 6.0}
    shares = arith.layer_shares(corrected)
    assert shares == pytest.approx({"runtime.other": 0.1, "crypto": 0.3, "storage": 0.6})


def test_corrected_self_times_remove_tracer_cost_per_span():
    self_s = {"runtime.other": 2.0, "crypto": 4.0, "storage": 6.0}
    costs = arith.span_costs({"crypto": 100, "storage": 100}, {"runtime.other": 200}, (0.01, 0.005))
    # 100 spans x 0.01 inside each; 200 child spans x 0.005 outside them.
    assert costs == pytest.approx({"runtime.other": 1.0, "crypto": 1.0, "storage": 1.0})
    corrected = arith.corrected_self_times(self_s, costs)
    assert corrected == pytest.approx({"runtime.other": 1.0, "crypto": 3.0, "storage": 5.0})


def test_layer_shares_never_go_negative():
    costs = arith.span_costs({}, {"runtime.other": 10}, (0.0, 0.01))
    corrected = arith.corrected_self_times(
        {"runtime.other": 0.001, "crypto": 5.0, "storage": 5.0}, costs
    )
    assert corrected["runtime.other"] < 0
    shares = arith.layer_shares(corrected)
    assert shares == pytest.approx({"runtime.other": 0.0, "crypto": 0.5, "storage": 0.5})


def test_unchanged_write_counter_charges_its_comparison_to_the_tracer(monkeypatch):
    """The counter runs inside the storage span; its own work must land in
    the excluded tracer layer, and only the journal write in storage."""
    sys.path.insert(0, str(HERE.parent / "src"))
    pytest.importorskip("repro")
    from repro.storage.journal import SafetyJournal, SafetySnapshot

    monkeypatch.setattr(SafetyJournal, "write", SafetyJournal.write)
    clock = [0.0]
    tracer = tracing.Tracer(clock=lambda: clock[0])
    tracer.patch(SafetyJournal, "write", "storage")
    unchanged = tracing.unchanged_write_counter(tracer)
    snapshot_eq = SafetySnapshot.__eq__

    def slow_eq(self, other):
        clock[0] += 1.0  # the comparison: one second of work
        return snapshot_eq(self, other)

    monkeypatch.setattr(SafetySnapshot, "__eq__", slow_eq)
    journal = SafetyJournal()
    tracer.reset()
    for r_vote in (1, 1, 2):
        journal.write(SafetySnapshot(r_vote=r_vote))
    tracer.finish()
    assert unchanged() == (1, 3)
    times = dict(zip(tracer.layers, tracer.self_time))
    assert times[arith.TRACER] == pytest.approx(2.0)
    assert times["storage"] == pytest.approx(0.0)


# ----------------------------------------------------------------------
# Due times from a seeded Poisson schedule
# ----------------------------------------------------------------------
def test_due_times_are_cumulative_gaps_inside_the_window():
    assert arith.due_times(iter([1.0, 2.0, 3.0, 4.0]), 10.0, 6.5) == [10.0, 11.0, 13.0, 16.0]
    assert arith.due_times(iter([1.0, 2.0]), 0.0, float("inf")) == [0.0, 1.0]


def test_due_times_reproduce_an_on_time_generator():
    """On the simulated clock the generator is never late, so the stamps it
    puts on requests are exactly the reconstructed due times."""
    sys.path.insert(0, str(HERE.parent / "src"))
    pytest.importorskip("repro")
    from repro.sim.scheduler import Scheduler
    from repro.traffic.loadgen import OpenLoopGenerator, PoissonArrivals

    scheduler = Scheduler(seed=3)
    stamps = []
    generator = OpenLoopGenerator(
        PoissonArrivals(25.0, seed=3),
        lambda tx: stamps.append(tx.submitted_at) or True,
    )
    generator.start(scheduler)
    scheduler.run(until=40.0)
    due = arith.due_times(PoissonArrivals(25.0, seed=3).gaps(), stamps[0], 40.0)
    assert len(due) == len(stamps) > 900
    assert due == stamps


def test_iqr_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert arith.iqr_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def _rep(fingerprint, violations=(), latencies=(1.0, 2.0)):
    return {
        "fingerprint": fingerprint,
        "safety_violations": list(violations),
        "populations": {"sim_commit_latency": list(latencies)},
    }


def test_gate_requires_identical_simulator_repetitions():
    import run

    steady, fallback = run.WORKLOADS["sim-steady"], run.WORKLOADS["sim-fallback"]
    assert run.check_gate(steady, [_rep("a"), _rep("a")]) == []
    assert "fingerprint" in run.check_gate(steady, [_rep("a"), _rep("b")])[0]
    assert "differ" in run.check_gate(fallback, [_rep("a"), _rep("a", latencies=(1.0,))])[0]
    assert "safety" in run.check_gate(steady, [_rep("a", ["prefix"])])[0]


def test_gate_on_live_checks_safety_only():
    import run

    live_spec = run.WORKLOADS["live-durable"]
    live = [_rep(None, latencies=(1.0,)), _rep(None, latencies=(2.0,))]
    assert run.check_gate(live_spec, live) == []
    assert run.check_gate(live_spec, [_rep(None, ["ledger prefixes diverge"])])
