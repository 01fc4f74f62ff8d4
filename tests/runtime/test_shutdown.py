"""Live-cluster teardown: no leaked tasks, cancellation never swallowed.

These are the regression tests for the concurrency-rule fixes in the
transport teardown paths: ``close()`` must join every task it spawned
(sender loops, reply readers, inbound handlers), and a ``close()`` that
is itself cancelled must propagate that cancellation to its caller
instead of converting it into silent success.

pytest-asyncio is not available in this environment, so each test drives
its own event loop via ``asyncio.run``.
"""

import asyncio

import pytest

from repro.crypto.hashing import hash_fields
from repro.net.tcp import TcpTransport
from repro.types.messages import BlockRequest
from repro.wire.codec import encode_message

N = 4


async def _wait_for(predicate, timeout=5.0, interval=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            pytest.fail("condition not reached before timeout")
        await asyncio.sleep(interval)


def _sample_message(n=0):
    return BlockRequest(block_id=hash_fields("shutdown-test", n))


async def _start_mesh(n=N):
    """``n`` transports in a full mesh; returns (transports, inboxes)."""
    inboxes = {i: [] for i in range(n)}
    transports = [
        TcpTransport(i, (lambda i: lambda p, m: inboxes[i].append((p, m)))(i))
        for i in range(n)
    ]
    addresses = [await t.start() for t in transports]
    for i, transport in enumerate(transports):
        for j, (host, port) in enumerate(addresses):
            if i != j:
                transport.add_peer(j, host, port)
    return transports, inboxes


def test_mesh_teardown_leaks_no_tasks():
    async def go():
        baseline = asyncio.all_tasks()
        transports, inboxes = await _start_mesh()
        # All-to-all traffic so every sender loop, reply reader, and
        # inbound handler is live before teardown begins.
        for i, transport in enumerate(transports):
            for j in range(N):
                if i != j:
                    assert transport.send(j, encode_message(i, _sample_message(i)))
        await _wait_for(
            lambda: all(len(inbox) == N - 1 for inbox in inboxes.values())
        )
        assert len(asyncio.all_tasks()) > len(baseline)
        for transport in transports:
            await transport.close()
        # One scheduling beat for done-callbacks to run, then: nothing
        # but this coroutine's own task may remain.
        await asyncio.sleep(0.05)
        leaked = asyncio.all_tasks() - baseline
        assert leaked == set(), sorted(t.get_name() for t in leaked)
        for transport in transports:
            assert not transport._inbound_tasks
            for channel in transport._channels.values():
                assert channel.task is not None and channel.task.done()

    asyncio.run(go())


def test_repeated_close_is_idempotent():
    async def go():
        transports, _ = await _start_mesh(2)
        for transport in transports:
            await transport.close()
            await transport.close()
        await asyncio.sleep(0.05)
        assert len(asyncio.all_tasks()) == 1

    asyncio.run(go())


def test_cancelling_close_propagates():
    # Regression: a channel stuck dialing a dead port sits in its
    # connect/backoff loop and never consumes the close sentinel, so
    # close() rides out the grace period.  Cancelling the closer must
    # surface CancelledError to the canceller — the old teardown
    # swallowed it, leaving the caller's `await close_task` looking
    # finished while the sender was still being reaped.
    async def go():
        # A port with no listener: bind, learn the number, close.
        probe = await asyncio.start_server(lambda r, w: None, host="127.0.0.1")
        dead_port = probe.sockets[0].getsockname()[1]
        probe.close()
        await probe.wait_closed()

        # A backoff far longer than the test keeps the sender asleep between
        # dials: with the default 25-50 ms first backoff it could wake, see
        # the channel closed and exit before the cancel below, and close()
        # would return normally.
        transport = TcpTransport(
            0, lambda p, m: None, backoff_initial=30.0, backoff_max=30.0
        )
        transport.add_peer(1, "127.0.0.1", dead_port)
        channel = transport._channels[1]
        await asyncio.sleep(0.05)  # let the dial loop start failing

        closer = asyncio.get_running_loop().create_task(channel.close())
        await asyncio.sleep(0.05)  # closer is now inside the grace wait
        closer.cancel()
        with pytest.raises(asyncio.CancelledError):
            await closer
        assert closer.cancelled()
        # The sender task itself was still torn down, not orphaned.
        await _wait_for(lambda: channel.task.done())
        await asyncio.sleep(0.05)
        assert len(asyncio.all_tasks()) == 1

    asyncio.run(go())


def test_close_returns_normally_when_not_cancelled():
    # The complement of the regression above: an uncancelled close() on a
    # dead-port channel completes on its own after the grace period.
    async def go():
        probe = await asyncio.start_server(lambda r, w: None, host="127.0.0.1")
        dead_port = probe.sockets[0].getsockname()[1]
        probe.close()
        await probe.wait_closed()

        transport = TcpTransport(0, lambda p, m: None)
        transport.add_peer(1, "127.0.0.1", dead_port)
        await transport.close()
        channel = transport._channels[1]
        assert channel.task is not None and channel.task.done()
        await asyncio.sleep(0.05)
        assert len(asyncio.all_tasks()) == 1

    asyncio.run(go())


def test_close_during_inbound_teardown_reports_nothing():
    # Regression: close() cancelling an inbound handler while its finally
    # awaited the shielded connection teardown let CancelledError escape
    # to asyncio.streams' done-callback, which logged "Exception in
    # callback ... CancelledError" through the loop's exception handler.
    async def go():
        loop = asyncio.get_running_loop()
        reported = []
        loop.set_exception_handler(lambda _loop, context: reported.append(context))
        transport = TcpTransport(0, lambda p, m: None)
        host, port = await transport.start()

        # Hold the handler inside its shielded teardown until released.
        in_teardown = asyncio.Event()
        release = asyncio.Event()
        finish_inbound = transport._finish_inbound

        async def slow_finish(*args):
            in_teardown.set()
            await release.wait()
            await finish_inbound(*args)

        transport._finish_inbound = slow_finish
        _, writer = await asyncio.open_connection(host, port)
        writer.close()  # no HELLO: the handler goes straight to teardown
        await writer.wait_closed()
        await asyncio.wait_for(in_teardown.wait(), timeout=5.0)

        loop.call_later(0.2, release.set)
        await transport.close()
        await asyncio.sleep(0.05)
        assert reported == []
        assert not transport._inbound_tasks
        assert len(asyncio.all_tasks()) == 1

    asyncio.run(go())
