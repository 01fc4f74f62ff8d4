"""Unit tests for the share verdict memo kept on each share object."""

import dataclasses
import gc
import sys

from repro.core.config import ProtocolConfig
from repro.core.context import SharedSetup

_CONFIG = ProtocolConfig(n=4)


def _setup():
    setup = SharedSetup.deal(_CONFIG, coin_seed=3)
    return setup, setup.context_for(0), setup.share_pool


def test_recheck_is_a_hit():
    setup, context, pool = _setup()
    payload = ("timeout", 5)
    share = setup.context_for(1).share(payload)
    assert context.verify_share(share, payload)
    assert setup.context_for(2).verify_share(share, payload)
    assert (pool.hits, pool.misses) == (1, 1)


def test_epoch_rotation_forces_a_fresh_rejecting_check():
    setup, context, pool = _setup()
    payload = ("vote", "b1", 1, 0)
    share = setup.context_for(1).share(payload)
    coin_share = setup.context_for(1).coin_share(3)
    assert context.verify_share(share, payload)
    assert context.verify_coin_share(coin_share)
    setup.registry.advance_epoch()
    assert not context.verify_share(share, payload)
    assert not context.verify_coin_share(coin_share)
    assert (pool.hits, pool.misses) == (0, 4)


def test_other_payload_is_checked_again_and_rejected():
    setup, context, pool = _setup()
    share = setup.context_for(1).share(("timeout", 5))
    assert context.verify_share(share, ("timeout", 5))
    assert not context.verify_share(share, ("timeout", 6))
    assert (pool.hits, pool.misses) == (0, 2)
    # The stamp now holds the rejecting payload; an equal payload hits it.
    assert not context.verify_share(share, ("timeout", 6))
    assert pool.hits == 1


def test_forged_copy_is_rejected_and_its_rejection_kept():
    setup, context, pool = _setup()
    payload = ("timeout", 5)
    share = setup.context_for(1).share(payload)
    assert context.verify_share(share, payload)
    forged = dataclasses.replace(share, tag=setup.context_for(2).share(payload).tag)
    assert (forged.signer, forged.epoch) == (share.signer, share.epoch)
    assert not context.verify_share(forged, payload)
    assert (pool.hits, pool.misses) == (0, 2)
    assert not context.verify_share(forged, payload)
    assert (pool.hits, pool.misses) == (1, 2)


def test_forged_coin_share_is_rejected_and_its_rejection_kept():
    setup, context, pool = _setup()
    share = setup.context_for(1).coin_share(3)
    assert context.verify_coin_share(share)
    forged = dataclasses.replace(share, tag=setup.context_for(1).coin_share(4).tag)
    assert not context.verify_coin_share(forged)
    assert not context.verify_coin_share(forged)
    assert (pool.hits, pool.misses) == (1, 2)


def test_verdict_does_not_outlive_its_share():
    setup, context, _ = _setup()
    payload = ("vote", "b-refcount", 7, 0)
    before = sys.getrefcount(payload)
    share = setup.context_for(1).share(payload)
    assert context.verify_share(share, payload)
    assert sys.getrefcount(payload) > before
    del share
    gc.collect()
    assert sys.getrefcount(payload) == before


def test_verdict_leaves_share_equality_and_hash_alone():
    setup, context, _ = _setup()
    payload = ("timeout", 9)
    share = setup.context_for(1).share(payload)
    twin = setup.context_for(1).share(payload)
    assert context.verify_share(share, payload)
    assert share == twin
    assert hash(share) == hash(twin)
    assert repr(share) == repr(twin)
