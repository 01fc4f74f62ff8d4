"""Span tracing from outside the program: wrappers at each layer boundary.

The benchmark never edits the program.  For a traced repetition it
replaces the entry points of each ``repro`` package with wrappers that
open a span (layer, start, end, parent) around the original call.  Spans
nest on one stack (every wrapped function is synchronous and the program
is single-threaded), so each span's *self time* — its duration minus the
time its child spans cover — is added up per layer as the span closes.
The most recent :data:`SPAN_RING` spans are also kept in memory and
written out at the end (:meth:`Tracer.write_spans`).  Each figure is
corrected for the tracer's own cost per span, measured by
:meth:`SpanCost.calibrate`.

Wrappers must be installed before the cluster is built: ``Replica`` and
``FallbackEngine`` bind handler methods into dispatch dicts in
``__init__``, and ``hash_fields`` is imported by name into several
modules, so it is replaced in every module that looked it up.
"""

from __future__ import annotations

import array
import functools
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

from arith import IDLE, TRACER

#: Layer that owns the root span: time no named layer accounts for.
OTHER = "runtime.other"
#: Spans kept for the written trace: a ring of the most recent ones (a
#: power of two).  Every span counts toward self times either way, and
#: every span costs the same to record, which the calibration relies on.
SPAN_RING = 1 << 18
#: :meth:`SpanCost.calibrate` takes the median of this many rounds of this
#: many traced calls.
CALIBRATION_CALLS = 50_000
CALIBRATION_ROUNDS = 5


class Tracer:
    """One stack of open spans plus per-layer self time and per-site calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: list[str] = []
        self.sites: list[str] = []
        self.self_time = array.array("d")
        self.site_calls = array.array("q")
        self.child_spans = array.array("q")
        self._layer_ids: dict[str, int] = {}
        self._site_layers: list[str] = []
        self._root_layer = self.layer_id(OTHER)
        # A frame is [start, time covered by children, span index, layer id].
        self._stack: list[list[Any]] = []
        self._counter = itertools.count()
        self._span_layer = array.array("q", bytes(8 * SPAN_RING))
        self._span_parent = array.array("q", bytes(8 * SPAN_RING))
        self._span_start = array.array("d", bytes(8 * SPAN_RING))
        self._span_end = array.array("d", bytes(8 * SPAN_RING))
        self._root_span = (0.0, 0.0)
        self.root_duration = 0.0
        self.spans_total = 0
        self.reset()

    def layer_id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.self_time.append(0.0)
            self.child_spans.append(0)
        return lid

    def _site_id(self, site: str, layer: str) -> int:
        self.sites.append(site)
        self.site_calls.append(0)
        self._site_layers.append(layer)
        return len(self.sites) - 1

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Start the timed phase: zero every figure and open the root span."""
        if len(self._stack) > 1:
            raise RuntimeError("cannot reset the tracer inside an open span")
        for i in range(len(self.self_time)):
            self.self_time[i] = 0.0
            self.child_spans[i] = 0
        for i in range(len(self.site_calls)):
            self.site_calls[i] = 0
        self._counter = itertools.count()
        self._stack[:] = [[self.clock(), 0.0, next(self._counter), self._root_layer]]

    def finish(self) -> None:
        """Close the root span; its self time goes to :data:`OTHER`."""
        if len(self._stack) != 1:
            raise RuntimeError(f"{len(self._stack) - 1} spans still open at finish")
        root = self._stack[0]
        end = self.clock()
        self.root_duration = end - root[0]
        self.self_time[self._root_layer] += self.root_duration - root[1]
        self._root_span = (root[0], end)
        self.spans_total = next(self._counter)

    # ------------------------------------------------------------------
    def wrap(self, fn: Callable[..., Any], layer: str, site: str) -> Callable[..., Any]:
        """``fn`` inside a span of ``layer``; calls are counted per ``site``."""
        lid = self.layer_id(layer)
        sid = self._site_id(site, layer)
        stack = self._stack
        self_time = self.self_time
        site_calls = self.site_calls
        child_spans = self.child_spans
        clock = self.clock
        span_layer, span_parent = self._span_layer, self._span_parent
        span_start, span_end = self._span_start, self._span_end
        mask = SPAN_RING - 1
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [clock(), 0.0, next(tracer._counter), lid]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1]
                duration = end - frame[0]
                self_time[lid] += duration - frame[1]
                site_calls[sid] += 1
                parent[1] += duration
                child_spans[parent[3]] += 1
                slot = frame[2] & mask
                span_layer[slot] = lid
                span_parent[slot] = parent[2]
                span_start[slot] = frame[0]
                span_end[slot] = end

        return traced

    def patch(self, owner: Any, name: str, layer: str) -> None:
        """Replace ``owner.name`` (a class method or module function)."""
        wrapped = self.wrap(vars(owner)[name], layer, f"{owner.__name__}.{name}")
        setattr(owner, name, wrapped)

    def patch_everywhere(self, module: Any, name: str, layer: str) -> None:
        """Replace a module function in every ``repro`` module that holds it."""
        original = getattr(module, name)
        wrapped = self.wrap(original, layer, f"{module.__name__}.{name}")
        for loaded in list(sys.modules.values()):
            if (
                loaded is not None
                and getattr(loaded, "__name__", "").startswith("repro")
                and getattr(loaded, name, None) is original
            ):
                setattr(loaded, name, wrapped)

    # ------------------------------------------------------------------
    def calls(self, site: str) -> int:
        return sum(
            count for label, count in zip(self.sites, self.site_calls) if label == site
        )

    def layer_calls(self) -> dict[str, int]:
        calls = dict.fromkeys(self.layers, 0)
        for layer, count in zip(self._site_layers, self.site_calls):
            calls[layer] += count
        return calls

    def write_spans(self, path: Path) -> None:
        """Write the most recent spans: a JSON header line, then four arrays.

        Span 0 is the root (the timed phase); a span whose parent fell out
        of the ring is written with parent 0.
        """
        first = max(1, self.spans_total - SPAN_RING)
        order = [index & (SPAN_RING - 1) for index in range(first, self.spans_total)]
        layers = array.array("q", [self._root_layer])
        parents = array.array("q", [-1])
        starts = array.array("d", [self._root_span[0]])
        ends = array.array("d", [self._root_span[1]])
        for slot in order:
            parent = self._span_parent[slot]
            layers.append(self._span_layer[slot])
            parents.append(parent - first + 1 if parent >= first else 0)
            starts.append(self._span_start[slot])
            ends.append(self._span_end[slot])
        header = {
            "layers": self.layers,
            "count": len(layers),
            "dropped": first - 1,
            "arrays": ["layer:i64", "parent:i64", "start:f64", "end:f64"],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as out:
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (layers, parents, starts, ends):
                column.tofile(out)


def read_spans(path: Path) -> list[tuple[str, float, float, int]]:
    """Spans written by :meth:`Tracer.write_spans`, as ``(layer, start,
    end, parent)`` tuples (the input :func:`arith.self_times` takes)."""
    with path.open("rb") as source:
        header = json.loads(source.readline())
        count = header["count"]
        columns = []
        for code in ("q", "q", "d", "d"):
            column = array.array(code)
            column.fromfile(source, count)
            columns.append(column)
    layer, parent, start, end = columns
    names = header["layers"]
    return [
        (names[layer[i]], start[i], end[i], parent[i]) for i in range(count)
    ]


class SpanCost(NamedTuple):
    """The tracer's own cost per span, measured on this machine."""

    #: Wrapper work inside a span's measured interval.
    inside: float
    #: Wrapper work the parent span sees beyond that interval.
    outside: float

    @classmethod
    def calibrate(cls) -> "SpanCost":
        """Median over rounds of a traced two-argument method called from a
        traced loop, against the same loop untraced."""
        calls, rounds = CALIBRATION_CALLS, CALIBRATION_ROUNDS
        inside, outside = [], []
        for _ in range(rounds):

            class Probe:
                def method(self, first: int, second: int) -> None:
                    return None

            tracer = Tracer()
            probe = Probe()
            clock = tracer.clock
            start = clock()
            for _ in range(calls):
                pass
            per_iteration = (clock() - start) / calls
            start = clock()
            for _ in range(calls):
                probe.method(1, 2)
            per_call = (clock() - start) / calls - per_iteration
            Probe.method = tracer.wrap(Probe.__dict__["method"], "inside", "probe")

            def loop() -> None:
                for _ in range(calls):
                    probe.method(1, 2)

            tracer.wrap(loop, "outside", "loop")()
            tracer.finish()
            times = dict(zip(tracer.layers, tracer.self_time))
            inside.append(times["inside"] / calls - per_call)
            outside.append(times["outside"] / calls - per_iteration)
        inside.sort()
        outside.sort()
        return cls(max(0.0, inside[rounds // 2]), max(0.0, outside[rounds // 2]))


# ----------------------------------------------------------------------
# Layer boundaries of the repro packages
# ----------------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the three workloads run.

    Imports every module first, so ``hash_fields`` is replaced wherever a
    module bound it by name.
    """
    import asyncio.selector_events

    import repro.crypto.hashing as hashing
    import repro.net.tcp as tcp
    import repro.runtime.live as live
    from repro.core.context import CryptoContext
    from repro.core.fallback import FallbackEngine
    from repro.core.replica import Replica
    from repro.crypto.certcache import VerifiedCertCache
    from repro.crypto.coin import CommonCoin
    from repro.crypto.sharepool import VerifiedSharePool
    from repro.crypto.threshold import ThresholdScheme
    from repro.experiments import scenarios  # noqa: F401  (binds hash users)
    from repro.ledger.blockstore import BlockStore
    from repro.ledger.ledger import Ledger
    from repro.mempool.mempool import Mempool
    from repro.net.network import Network
    from repro.runtime.metrics import MetricsCollector
    from repro.sim.scheduler import Scheduler
    from repro.storage.durable import DurableReplica, SendOutbox
    from repro.storage.journal import SafetyJournal
    from repro.traffic.admission import AdmissionController
    from repro.traffic.batching import AdaptiveBatchController
    from repro.traffic.envelope import TrafficEnvelope
    from repro.traffic.loadgen import _GeneratorBase

    methods: list[tuple[type, tuple[str, ...], str]] = [
        (Scheduler, ("run", "call_at", "call_after", "set_timer"), "sim"),
        (Network, ("send", "multicast", "_deliver"), "net"),
        (live.LiveNetwork, ("send", "multicast"), "net"),
        (tcp.TcpTransport, ("send",), "net"),
        (
            asyncio.selector_events._SelectorSocketTransport,
            ("_read_ready", "write", "_write_ready"),
            "net",
        ),
        (
            CryptoContext,
            (
                "share",
                "verify_share",
                "combine",
                "verify_combined",
                "coin_share",
                "verify_coin_share",
                "reveal_coin",
                "verify_coin_qc",
            ),
            "crypto",
        ),
        (ThresholdScheme, ("verify_share",), "crypto"),
        (CommonCoin, ("verify_share",), "crypto"),
        (VerifiedCertCache, ("check",), "crypto"),
        (VerifiedSharePool, ("check",), "crypto"),
        (Replica, ("on_message", "on_timer", "on_start"), "core.replica"),
        (FallbackEngine, ("handle", "on_local_timeout", "force_timeout"), "core.fallback"),
        (Ledger, ("commit_through",), "ledger"),
        (BlockStore, ("add", "extends", "chain_to"), "ledger"),
        (Mempool, ("submit", "next_batch", "mark_committed"), "mempool"),
        (AdmissionController, ("offer",), "traffic"),
        (_GeneratorBase, ("emit",), "traffic"),
        (AdaptiveBatchController, ("tune",), "traffic"),
        (TrafficEnvelope, ("observe",), "traffic"),
        (DurableReplica, ("_persist",), "storage"),
        (SafetyJournal, ("write",), "storage"),
        (SendOutbox, ("send", "multicast", "flush"), "storage"),
        (
            MetricsCollector,
            (
                "on_send",
                "on_wire_send",
                "on_commit",
                "on_round_entered",
                "on_timeout",
                "on_fallback_entered",
                "on_fallback_exited",
                "on_proposal",
            ),
            "runtime.metrics",
        ),
    ]
    for owner, names, layer in methods:
        for name in names:
            tracer.patch(owner, name, layer)
    # Memo misses: hash_fields calls hash_fields_uncached by module lookup.
    tracer.patch(hashing, "hash_fields_uncached", "crypto")
    tracer.patch_everywhere(hashing, "hash_fields", "crypto")
    tracer.patch(live, "encode_message", "wire.encode")
    tracer.patch(tcp, "decode_message", "wire.decode")


def trace_idle(tracer: Tracer, loop: Any) -> None:
    """Count the live loop's selector waits as :data:`IDLE`, not as work."""
    selector = loop._selector
    selector.select = tracer.wrap(selector.select, IDLE, "selector.select")


def unchanged_write_counter(tracer: Tracer) -> Callable[[], tuple[int, int]]:
    """Count journal writes whose snapshot equals the journal's previous one.

    Wraps the (already traced) ``SafetyJournal.write`` in a :data:`TRACER`
    span, so the comparison is charged to the tracer, not to ``storage``.
    Returns a function giving ``(unchanged, total)``.
    """
    from repro.storage.journal import SafetyJournal

    traced_write = SafetyJournal.write
    counts = [0, 0]

    def write(journal: Any, snapshot: Any) -> None:
        previous = journal._latest
        counts[1] += 1
        if previous is not None and previous == snapshot:
            counts[0] += 1
        traced_write(journal, snapshot)

    SafetyJournal.write = tracer.wrap(write, TRACER, "unchanged-write-counter")  # type: ignore[method-assign]
    return lambda: (counts[0], counts[1])
