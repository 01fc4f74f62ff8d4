"""Exactly-once transaction execution.

A transaction legitimately appears in several blocks (it sits in every
replica's mempool until its first commit is observed, and consecutive
leaders batch it independently); the ledger must apply it exactly once.
"""

from repro.ledger.blockstore import BlockStore
from repro.ledger.ledger import Ledger, NullStateMachine
from repro.runtime.cluster import ClusterBuilder
from repro.types.blocks import Block
from repro.types.certificates import genesis_qc
from repro.types.transactions import Batch, make_transaction

from tests.core.conftest import make_real_qc


class CountingStateMachine(NullStateMachine):
    def __init__(self):
        self.applications = {}

    def apply(self, transaction):
        self.applications[transaction.tx_id] = (
            self.applications.get(transaction.tx_id, 0) + 1
        )


def test_duplicate_across_blocks_applies_once(setup):
    store = BlockStore()
    machine = CountingStateMachine()
    ledger = Ledger(store, machine)
    tx = make_transaction(0)
    parent_qc = genesis_qc(store.genesis.id)
    blocks = []
    for round_number in (1, 2, 3):
        block = Block(
            qc=parent_qc, round=round_number, view=0,
            batch=Batch.of([tx]), author=0,
        )
        store.add(block)
        parent_qc = make_real_qc(setup, block)
        blocks.append(block)
    ledger.commit_through(blocks[2], now=1.0)
    assert ledger.height == 3  # three blocks committed...
    assert machine.applications == {tx.tx_id: 1}  # ...one application
    assert [t.tx_id for t in ledger.committed_transactions()] == [tx.tx_id]
    # The location points at the first containing block.
    position, block_id = ledger.commit_location(tx.tx_id)
    assert position == 0
    assert block_id == blocks[0].id


def test_commit_location_in_a_later_block(setup):
    store = BlockStore()
    ledger = Ledger(store)
    first, later = make_transaction(0), make_transaction(1)
    parent_qc = genesis_qc(store.genesis.id)
    blocks = []
    for round_number, batch in ((1, [first]), (2, []), (3, [first, later])):
        block = Block(
            qc=parent_qc, round=round_number, view=0,
            batch=Batch.of(batch), author=0,
        )
        store.add(block)
        parent_qc = make_real_qc(setup, block)
        blocks.append(block)
    ledger.commit_through(blocks[1], now=1.0)
    ledger.commit_through(blocks[2], now=2.0)
    position, block_id = ledger.commit_location(later.tx_id)
    assert position == 2
    assert block_id == blocks[2].id == ledger.records[position].block.id
    assert ledger.commit_location(first.tx_id) == (0, blocks[0].id)


def test_cluster_wide_exactly_once():
    cluster = (
        ClusterBuilder(n=4, seed=131)
        .with_state_machine(CountingStateMachine)
        .build()
    )
    cluster.run_until_commits(30, until=10_000)
    for replica in cluster.honest_replicas():
        counts = replica.ledger.state_machine.applications
        duplicates = {tx: n for tx, n in counts.items() if n != 1}
        assert not duplicates, f"multiply-applied transactions: {duplicates}"


def test_committed_transactions_do_not_exceed_submitted():
    cluster = ClusterBuilder(n=4, seed=133).with_preload(100).build()
    cluster.run(until=300.0)
    for replica in cluster.honest_replicas():
        committed = replica.ledger.committed_transactions()
        assert len(committed) <= 100
        ids = [tx.tx_id for tx in committed]
        assert len(ids) == len(set(ids))
