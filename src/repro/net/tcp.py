"""Asyncio TCP transport: one listener per replica, reconnecting peers.

This is the live counterpart of the simulated :class:`~repro.net.network.
Network` wire: a :class:`TcpTransport` owns one node's listening socket and
one outbound channel per peer.  Outbound channels dial lazily, reconnect
with *jittered* exponential backoff (decorrelating the reconnect storm when
a killed replica comes back), and buffer sends in a bounded per-peer queue
— when the queue is full the *newest* message is dropped and counted
(protocol correctness never depends on delivery: timeouts and the
certificate-driven catch-up path recover, exactly as they do under the
simulator's loss models).

Channels are full-duplex: an outbound connection also *reads* frames, so a
request/reply exchange (a client's ``ClientRequest`` answered with a
``ClientReply``) rides one connection.  On the accepting side, a handshaked
connection from a peer with no static channel — a client, whose address the
replica cannot know in advance — is registered as a *reply channel*:
``send()`` to that peer id queues frames back over the accepted connection
(bounded, drop-newest) until the peer disconnects.  Sends to a peer with
neither a static channel nor a live reply channel are counted (``no_route``)
and refused instead of raising, so a replica answering a long-gone client
never poisons its own handler.

Authentication mirrors the simulated network's "the receiver learns the
true sender" guarantee: every outbound connection opens with a HELLO frame
(magic, wire version, dialer id), and each subsequent payload's envelope
sender must match the handshake identity or the message is discarded.
Localhost TCP stands in for the authenticated channels the paper assumes;
a real deployment would put TLS or a MAC in the envelope's auth slot.

Error containment follows the framing contract: a payload that fails
:func:`~repro.wire.codec.decode_message` poisons only that one message
(counted, connection kept); a framing violation loses stream sync, so the
connection is dropped and the dialer's reconnect loop rebuilds it.

Every counter is kept per peer as well as in transport-wide totals;
:meth:`TcpTransport.per_peer_counters` feeds the
:meth:`~repro.runtime.metrics.MetricsCollector.transport_counters`
summaries.
"""

from __future__ import annotations

import asyncio
import random
import struct
from typing import Callable, Optional, cast

from repro.wire.codec import DecodeError, WIRE_VERSION, decode_message
from repro.wire.framing import FrameError, encode_frame, read_frame

#: HELLO payload: magic, wire version, dialer node id.
_HELLO = struct.Struct(">4sBq")
_MAGIC = b"RPRO"

#: Reconnect backoff bounds (seconds).  The delay for attempt ``k`` is
#: ``min(initial * 2**k, max) * uniform(0.5, 1.0)`` — exponential with a
#: cap, jittered so peers dialing one restarted listener spread out.
_BACKOFF_INITIAL = 0.05
_BACKOFF_MAX = 2.0

#: Delivery callback: (peer_id, message).
MessageHandler = Callable[[int, object], None]

#: Grace period (seconds) for a channel's sender task to drain its queue
#: after the close sentinel before it is cancelled outright.
_CLOSE_GRACE = 0.5


async def _finish_sender(
    task: "asyncio.Task[None]", queue: "asyncio.Queue[Optional[bytes]]"
) -> None:
    """Stop a channel's sender task without swallowing cancellation.

    Posts the ``None`` sentinel (best effort), gives the sender a grace
    period to drain, then cancels it.  Cancellation aimed at the *caller*
    always propagates: a ``close()`` must never convert its own
    cancellation into silent success, or the canceller's ``await task``
    hangs believing teardown is still running.
    """
    try:
        queue.put_nowait(None)
    except asyncio.QueueFull:
        pass
    try:
        await asyncio.wait_for(asyncio.shield(task), timeout=_CLOSE_GRACE)
        return
    except asyncio.TimeoutError:
        pass
    except asyncio.CancelledError:
        task.cancel()
        raise
    task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        current = asyncio.current_task()
        if current is not None and current.cancelling():
            raise  # the cancellation was aimed at us, not just the sender
    except (ConnectionError, OSError):
        pass


async def _reap_connection(
    reply_reader: "Optional[asyncio.Task[None]]", writer: asyncio.StreamWriter
) -> None:
    """Join the reply reader and wait out the closing socket.

    Runs under ``asyncio.shield`` from ``finally`` blocks: cancelling the
    owner must not abandon a half-closed socket mid-teardown, and the
    owner's cancellation still propagates once the reap is done.
    """
    if reply_reader is not None:
        await asyncio.gather(reply_reader, return_exceptions=True)
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


class _PeerChannel:
    """Reconnecting full-duplex outbound channel to one statically known peer."""

    def __init__(
        self, transport: "TcpTransport", peer_id: int, host: str, port: int
    ) -> None:
        self.transport = transport
        self.peer_id = peer_id
        self.host = host
        self.port = port
        self.queue: asyncio.Queue[Optional[bytes]] = asyncio.Queue(
            maxsize=transport.queue_limit
        )
        self.task: Optional["asyncio.Task[None]"] = None
        self._closed = False
        # Per-peer counters (aggregated by TcpTransport.per_peer_counters).
        self.frames_sent = 0
        self.bytes_sent = 0
        self.reconnects = 0
        self.dropped_backpressure = 0
        self.connect_attempts = 0

    def start(self) -> None:
        self.task = asyncio.get_running_loop().create_task(
            self._run(), name=f"tcp-send:{self.transport.node_id}->{self.peer_id}"
        )

    def send(self, payload: bytes) -> bool:
        """Enqueue one payload; drop-newest on backpressure."""
        if self._closed:
            return False
        try:
            self.queue.put_nowait(payload)
            return True
        except asyncio.QueueFull:
            self.dropped_backpressure += 1
            self.transport.dropped_backpressure += 1
            return False

    def _backoff_delay(self, attempt: int) -> float:
        base = min(
            self.transport.backoff_initial * (2.0**attempt),
            self.transport.backoff_max,
        )
        return base * (0.5 + 0.5 * self.transport.rng.random())

    async def _run(self) -> None:
        attempt = 0
        loop = asyncio.get_running_loop()
        while not self._closed:
            try:
                self.connect_attempts += 1
                reader, writer = await asyncio.open_connection(self.host, self.port)
            except OSError:
                await asyncio.sleep(self._backoff_delay(attempt))
                attempt += 1
                continue
            attempt = 0
            reply_reader: Optional["asyncio.Task[None]"] = None
            try:
                writer.write(
                    encode_frame(
                        _HELLO.pack(_MAGIC, WIRE_VERSION, self.transport.node_id)
                    )
                )
                await writer.drain()
                # Full-duplex: the peer may answer on this same connection
                # (the reply path clients depend on).  The reader aborts the
                # connection on EOF/violation, which surfaces here as a
                # write failure on the next send -> reconnect.
                reply_reader = loop.create_task(
                    self.transport._read_stream(reader, writer, self.peer_id),
                    name=f"tcp-reply:{self.transport.node_id}<-{self.peer_id}",
                )
                while True:
                    payload = await self.queue.get()
                    if payload is None:
                        return
                    writer.write(encode_frame(payload))
                    await writer.drain()
                    self.frames_sent += 1
                    self.bytes_sent += len(payload)
                    self.transport.frames_sent += 1
                    self.transport.bytes_sent += len(payload)
            except (ConnectionError, OSError):
                self.reconnects += 1
                self.transport.reconnects += 1
            finally:
                if reply_reader is not None:
                    reply_reader.cancel()
                writer.close()
                # Shielded so cancelling the sender mid-teardown cannot
                # abandon the reader task or the half-closed socket.
                await asyncio.shield(_reap_connection(reply_reader, writer))

    async def close(self) -> None:
        self._closed = True
        if self.task is None:
            return
        # Sentinel first, grace period, then cancel; caller cancellation
        # always propagates (see _finish_sender).
        await _finish_sender(self.task, self.queue)


class _ReplyChannel:
    """Bounded sender over an *accepted* connection (dynamic peers).

    Created when a handshaked inbound connection arrives from a peer the
    transport has no static channel to — a client.  No reconnect loop: if
    the connection dies the channel is discarded and the peer re-dials.
    """

    def __init__(
        self, transport: "TcpTransport", peer_id: int, writer: asyncio.StreamWriter
    ) -> None:
        self.transport = transport
        self.peer_id = peer_id
        self.writer = writer
        self.queue: asyncio.Queue[Optional[bytes]] = asyncio.Queue(
            maxsize=transport.queue_limit
        )
        self.frames_sent = 0
        self.bytes_sent = 0
        self.dropped_backpressure = 0
        self._closed = False
        self.task = asyncio.get_running_loop().create_task(
            self._run(), name=f"tcp-reply-send:{transport.node_id}->{peer_id}"
        )

    def send(self, payload: bytes) -> bool:
        if self._closed:
            return False
        try:
            self.queue.put_nowait(payload)
            return True
        except asyncio.QueueFull:
            self.dropped_backpressure += 1
            self.transport.dropped_backpressure += 1
            return False

    async def _run(self) -> None:
        try:
            while True:
                payload = await self.queue.get()
                if payload is None:
                    return
                self.writer.write(encode_frame(payload))
                await self.writer.drain()
                self.frames_sent += 1
                self.bytes_sent += len(payload)
                self.transport.frames_sent += 1
                self.transport.bytes_sent += len(payload)
        except (ConnectionError, OSError):
            pass

    async def close(self) -> None:
        self._closed = True
        await _finish_sender(self.task, self.queue)


class TcpTransport:
    """One node's TCP endpoint: a listener plus per-peer outbound channels.

    Usage::

        transport = TcpTransport(node_id=0, on_message=handler)
        host, port = await transport.start()      # bind (port 0 = ephemeral)
        transport.add_peer(1, "127.0.0.1", 9001)  # dials lazily
        transport.send(1, payload_bytes)          # queued, framed, shipped
        await transport.close()

    Clients skip :meth:`start` (no listener) and only :meth:`add_peer`;
    replies arrive over the outbound connections (full-duplex channels).
    """

    def __init__(
        self,
        node_id: int,
        on_message: MessageHandler,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 1024,
        backoff_initial: float = _BACKOFF_INITIAL,
        backoff_max: float = _BACKOFF_MAX,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.node_id = node_id
        self.on_message = on_message
        self.host = host
        self.port = port
        self.queue_limit = queue_limit
        if backoff_initial <= 0 or backoff_max < backoff_initial:
            raise ValueError("need 0 < backoff_initial <= backoff_max")
        self.backoff_initial = backoff_initial
        self.backoff_max = backoff_max
        #: Jitter source (live-side module: wall-clock nondeterminism is the
        #: point; inject a seeded Random for reproducible backoff in tests).
        self.rng = rng if rng is not None else random.Random()
        self._server: Optional[asyncio.AbstractServer] = None
        self._channels: dict[int, _PeerChannel] = {}
        self._accepted: dict[int, _ReplyChannel] = {}
        self._inbound_tasks: set["asyncio.Task[None]"] = set()
        self._closed = False
        # Counters (read by LiveNetwork reports and the transport tests).
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_received = 0
        self.bytes_received = 0
        self.decode_errors = 0
        self.frame_errors = 0
        self.auth_failures = 0
        self.dropped_backpressure = 0
        self.reconnects = 0
        self.no_route = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind the listener; returns the bound (host, port)."""
        server = await asyncio.start_server(
            self._handle_inbound, host=self.host, port=self.port
        )
        self._server = server
        # One-shot bind: recording the kernel-assigned ephemeral port is a
        # benign read-then-write (nothing else runs until start() returns).
        self.port = int(server.sockets[0].getsockname()[1])  # repro-lint: ignore[await-atomicity]
        return self.host, self.port

    def add_peer(self, peer_id: int, host: str, port: int) -> None:
        if peer_id in self._channels:
            raise ValueError(f"peer {peer_id} already added")
        channel = _PeerChannel(self, peer_id, host, port)
        self._channels[peer_id] = channel
        channel.start()

    async def close(self) -> None:
        """Stop the listener, drain channels, cancel inbound readers."""
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for channel in self._channels.values():
            await channel.close()
        for reply in list(self._accepted.values()):
            await reply.close()
        self._accepted.clear()
        for task in list(self._inbound_tasks):
            task.cancel()
        if self._inbound_tasks:
            await asyncio.gather(*self._inbound_tasks, return_exceptions=True)
        self._inbound_tasks.clear()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, peer_id: int, payload: bytes) -> bool:
        """Queue ``payload`` (already codec-encoded) for ``peer_id``.

        Routes over the static channel when one exists, else over a live
        accepted connection from that peer (the client reply path).  With
        neither, the send is counted (``no_route``) and refused.
        """
        channel = self._channels.get(peer_id)
        if channel is not None:
            return channel.send(payload)
        reply = self._accepted.get(peer_id)
        if reply is not None:
            return reply.send(payload)
        self.no_route += 1
        return False

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    async def _read_stream(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer_id: int,
    ) -> None:
        """Shared frame pump: decode, authenticate, deliver.

        Runs until EOF or a framing violation; both abort the underlying
        transport so the owning side (dialer write loop or inbound handler)
        notices promptly.
        """
        try:
            while True:
                payload = await read_frame(reader)
                self.frames_received += 1
                self.bytes_received += len(payload)
                try:
                    sender, message = decode_message(payload)
                except DecodeError:
                    # One poisoned message; the stream is still in sync.
                    self.decode_errors += 1
                    continue
                if sender != peer_id:
                    self.auth_failures += 1
                    continue
                self.on_message(peer_id, message)
        except FrameError:
            self.frame_errors += 1
            cast(asyncio.WriteTransport, writer.transport).abort()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            cast(asyncio.WriteTransport, writer.transport).abort()

    async def _handle_inbound(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._inbound_tasks.add(task)
            task.add_done_callback(self._inbound_tasks.discard)
        reply: Optional[_ReplyChannel] = None
        peer_id: Optional[int] = None
        try:
            peer_id = await self._handshake(reader)
            if peer_id is None:
                return
            if peer_id not in self._channels and not self._closed:
                # Dynamic peer (client): replies flow back over this
                # connection.  A fresh connection from the same id replaces
                # the stale channel (the client reconnected).
                # Register the replacement *before* the suspension in
                # stale.close(): a send() racing the handoff must see the
                # fresh channel, never a gap (and never the closed one).
                stale = self._accepted.pop(peer_id, None)
                reply = _ReplyChannel(self, peer_id, writer)
                self._accepted[peer_id] = reply
                if stale is not None:
                    await stale.close()
            while not self._closed:
                payload = await read_frame(reader)
                self.frames_received += 1
                self.bytes_received += len(payload)
                try:
                    sender, message = decode_message(payload)
                except DecodeError:
                    # One poisoned message; the stream is still in sync.
                    self.decode_errors += 1
                    continue
                if sender != peer_id:
                    self.auth_failures += 1
                    continue
                self.on_message(peer_id, message)
        except FrameError:
            self.frame_errors += 1
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # peer went away (or is reconnecting); server keeps running
        except asyncio.CancelledError:
            # Our own shutdown cancels readers; completing normally here
            # keeps asyncio.streams' done-callback from re-raising.  A
            # cancellation from anywhere else must still propagate.
            if not self._closed:
                raise
            if task is not None:
                task.uncancel()
        finally:
            # Shielded so a cancellation landing mid-finally cannot skip
            # the channel deregistration or leave the socket half-closed.
            finish = asyncio.ensure_future(
                self._finish_inbound(reply, peer_id, writer)
            )
            try:
                await asyncio.shield(finish)
            except asyncio.CancelledError:
                # Our own shutdown can also land here: as above, wait out
                # the teardown and complete normally.
                if not self._closed:
                    raise
                if task is not None:
                    task.uncancel()
                await asyncio.shield(finish)

    async def _finish_inbound(
        self,
        reply: Optional[_ReplyChannel],
        peer_id: Optional[int],
        writer: asyncio.StreamWriter,
    ) -> None:
        """Teardown for one accepted connection (runs under shield)."""
        if reply is not None and peer_id is not None:
            if self._accepted.get(peer_id) is reply:
                del self._accepted[peer_id]
            await reply.close()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _handshake(self, reader: asyncio.StreamReader) -> Optional[int]:
        """Read and validate the HELLO frame; returns the peer id or None."""
        try:
            payload = await read_frame(reader)
            magic, version, peer_id = _HELLO.unpack(payload)
        except (FrameError, asyncio.IncompleteReadError, struct.error):
            self.auth_failures += 1
            return None
        if magic != _MAGIC or version != WIRE_VERSION:
            self.auth_failures += 1
            return None
        return int(peer_id)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def per_peer_counters(self) -> dict[int, dict[str, int]]:
        """Per-peer reconnect/backpressure/volume counters.

        Static channels and live accepted (reply) channels both appear;
        a peer reachable both ways has its counters merged.
        """
        out: dict[int, dict[str, int]] = {}
        for peer_id, channel in self._channels.items():
            entry = out.setdefault(peer_id, _zero_peer_counters())
            entry["frames_sent"] += channel.frames_sent
            entry["bytes_sent"] += channel.bytes_sent
            entry["reconnects"] += channel.reconnects
            entry["dropped_backpressure"] += channel.dropped_backpressure
            entry["connect_attempts"] += channel.connect_attempts
        for peer_id, reply in self._accepted.items():
            entry = out.setdefault(peer_id, _zero_peer_counters())
            entry["frames_sent"] += reply.frames_sent
            entry["bytes_sent"] += reply.bytes_sent
            entry["dropped_backpressure"] += reply.dropped_backpressure
        return out

    def counters(self) -> dict[str, int]:
        """Transport-wide totals (the error-containment story in numbers)."""
        return {
            "frames_sent": self.frames_sent,
            "bytes_sent": self.bytes_sent,
            "frames_received": self.frames_received,
            "decode_errors": self.decode_errors,
            "frame_errors": self.frame_errors,
            "auth_failures": self.auth_failures,
            "dropped_backpressure": self.dropped_backpressure,
            "reconnects": self.reconnects,
            "no_route": self.no_route,
        }


def _zero_peer_counters() -> dict[str, int]:
    return {
        "frames_sent": 0,
        "bytes_sent": 0,
        "reconnects": 0,
        "dropped_backpressure": 0,
        "connect_attempts": 0,
    }
