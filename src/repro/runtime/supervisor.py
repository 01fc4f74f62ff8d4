"""Multi-process cluster supervisor: spawn, monitor, kill -9, restart.

The :class:`Supervisor` turns a :class:`~repro.runtime.spec.ClusterSpec`
into a running cluster of OS processes (one
:mod:`~repro.runtime.replica_process` per replica), then plays chaos
against it:

- it drives a **wall-clock interpretation** of the existing
  :class:`~repro.faults.schedule.FaultSchedule` DSL — ``crash(i)`` becomes
  a real ``SIGKILL`` of replica *i*'s process, ``recover(i)`` respawns it
  against its surviving on-disk journal, ``inject(fn)`` calls ``fn`` with
  the supervisor.  Transport-shaping actions (loss, partitions, delay
  models) belong to the simulator and are rejected up front: over real
  sockets the network misbehaves on its own terms.
- it **restarts** replicas that die unexpectedly, with jittered
  exponential backoff and a per-replica restart budget: a crash-looping
  replica degrades to state ``"down"`` instead of thrashing the host —
  the BFT protocol tolerates it as one of the *f* faults.
- it **times recovery**: each kill records when the process died, when it
  was respawned, and when its published height caught back up to what the
  rest of the cluster had committed at respawn time.

Replica health is read from the status files each process publishes
atomically; the supervisor never speaks the protocol itself.
"""

from __future__ import annotations

import asyncio
import os
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.faults.schedule import Crash, FaultSchedule, Inject, Recover
from repro.runtime.replica_process import prefixes_consistent, read_status
from repro.runtime.spec import ClusterSpec

#: Supervisor poll interval for statuses / completion (seconds).
POLL_INTERVAL = 0.1

#: Wall-clock grace for SIGTERM before escalating to SIGKILL at shutdown.
TERM_GRACE = 2.0


@dataclass
class KillRecord:
    """One SIGKILL and the recovery that followed it."""

    replica: int
    killed_at: float
    restarted_at: Optional[float] = None
    caught_up_at: Optional[float] = None
    #: Cluster max height when the replica was respawned — catching up
    #: means re-reaching this height (a fixed, reachable target even while
    #: the cluster keeps committing past it).
    target_height: Optional[int] = None
    #: ``started_at`` of the dead incarnation's last status file; only a
    #: status newer than this counts as catch-up evidence (internal).
    stale_started_at: float = 0.0

    @property
    def restart_seconds(self) -> Optional[float]:
        if self.restarted_at is None:
            return None
        return self.restarted_at - self.killed_at

    @property
    def recovery_seconds(self) -> Optional[float]:
        """Respawn -> caught-up-to-kill-time-height (None until it happens)."""
        if self.restarted_at is None or self.caught_up_at is None:
            return None
        return self.caught_up_at - self.restarted_at

    def to_json(self) -> dict:
        return {
            "replica": self.replica,
            "killed_at": self.killed_at,
            "restarted_at": self.restarted_at,
            "caught_up_at": self.caught_up_at,
            "target_height": self.target_height,
            "restart_seconds": self.restart_seconds,
            "recovery_seconds": self.recovery_seconds,
        }


@dataclass
class ReplicaHandle:
    """Supervisor-side state for one replica slot."""

    replica_id: int
    #: "running" | "held" (scheduled kill, awaiting recover) | "down"
    #: (restart budget exhausted) | "stopped" (clean shutdown)
    state: str = "stopped"
    process: Optional[asyncio.subprocess.Process] = None
    monitor: Optional[asyncio.Task] = None
    restarts: int = 0
    spawns: int = 0
    log_handle: Optional[object] = None


@dataclass
class SupervisorReport:
    """Outcome of one supervised run."""

    n: int
    commits: int
    max_height: int
    prefixes_consistent: bool
    timed_out: bool
    wall_seconds: float
    kills: list[KillRecord] = field(default_factory=list)
    restarts: int = 0
    down: list[int] = field(default_factory=list)
    fault_log: list[tuple[float, str]] = field(default_factory=list)
    transport_totals: dict = field(default_factory=dict)
    statuses: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.prefixes_consistent and not self.timed_out

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "commits": self.commits,
            "max_height": self.max_height,
            "prefixes_consistent": self.prefixes_consistent,
            "timed_out": self.timed_out,
            "wall_seconds": self.wall_seconds,
            "kills": [record.to_json() for record in self.kills],
            "restarts": self.restarts,
            "down": self.down,
            "fault_log": [[t, desc] for t, desc in self.fault_log],
            "transport_totals": self.transport_totals,
        }


class Supervisor:
    """Spawns and babysits one OS process per replica (see module doc)."""

    def __init__(
        self,
        spec: ClusterSpec,
        schedule: Optional[FaultSchedule] = None,
        restart_budget: int = 5,
        restart_backoff_initial: float = 0.2,
        restart_backoff_max: float = 3.0,
        auto_restart: bool = True,
        seed: int = 0,
    ) -> None:
        self.spec = spec
        self.schedule = schedule
        if schedule is not None:
            _validate_wall_clock_schedule(schedule)
        self.restart_budget = restart_budget
        self.restart_backoff_initial = restart_backoff_initial
        self.restart_backoff_max = restart_backoff_max
        self.auto_restart = auto_restart
        #: Jitter source for restart backoff (seeded: reproducible-ish runs).
        self.rng = random.Random(seed)
        self.handles = [ReplicaHandle(replica_id=i) for i in range(spec.n)]
        self.kills: list[KillRecord] = []
        self.fault_log: list[tuple[float, str]] = []
        self.spec_path = Path(spec.data_dir) / "cluster-spec.json"
        self._epoch: Optional[float] = None
        self._stopping = False
        self._schedule_task: Optional[asyncio.Task] = None
        self._restart_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Seconds since :meth:`start`; fault-schedule times count instead
        from the moment every replica has published a first status."""
        if self._epoch is None:
            return 0.0
        return time.monotonic() - self._epoch

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Write the spec, spawn every replica, arm the fault schedule."""
        self.spec.save(self.spec_path)
        self._epoch = time.monotonic()
        for handle in self.handles:
            await self._spawn(handle)
        if self.schedule is not None:
            self._schedule_task = asyncio.get_running_loop().create_task(
                self._drive_schedule(), name="supervisor-schedule"
            )

    async def wait(
        self, target_commits: int = 20, duration: float = 120.0
    ) -> SupervisorReport:
        """Poll until every replica's height reaches the target (or timeout).

        Completion additionally requires the fault schedule to have fully
        played out and every replica to be back in ``running`` state (a
        held-for-recovery or down replica cannot publish fresh heights).
        """
        wall_start = time.monotonic()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + duration
        timed_out = False
        while True:
            statuses = self.statuses()
            self._update_catch_up(statuses)
            if self._reached(statuses, target_commits):
                break
            if loop.time() >= deadline:
                timed_out = True
                break
            await asyncio.sleep(POLL_INTERVAL)
        return self._report(timed_out, time.monotonic() - wall_start)

    async def stop(self) -> None:
        """SIGTERM everyone, escalate to SIGKILL after a grace period."""
        self._stopping = True
        if self._schedule_task is not None:
            self._schedule_task.cancel()
            await asyncio.gather(self._schedule_task, return_exceptions=True)
        for task in list(self._restart_tasks):
            task.cancel()
        if self._restart_tasks:
            await asyncio.gather(*self._restart_tasks, return_exceptions=True)
        self._restart_tasks.clear()
        for handle in self.handles:
            process = handle.process
            if process is None or process.returncode is not None:
                continue
            try:
                process.terminate()
            except ProcessLookupError:
                continue
        for handle in self.handles:
            process = handle.process
            if process is None:
                continue
            try:
                await asyncio.wait_for(process.wait(), timeout=TERM_GRACE)
            except asyncio.TimeoutError:
                try:
                    process.kill()
                except ProcessLookupError:
                    pass
                await process.wait()
            if handle.state != "down":  # "down" is diagnostic; keep it
                handle.state = "stopped"
        for handle in self.handles:
            if handle.monitor is not None:
                await asyncio.gather(handle.monitor, return_exceptions=True)
                handle.monitor = None
            self._close_log(handle)

    # ------------------------------------------------------------------
    # Chaos verbs (the wall-clock FaultSchedule backend)
    # ------------------------------------------------------------------
    def kill(self, replica_id: int) -> KillRecord:
        """SIGKILL the replica's process and hold it down until recover()."""
        handle = self.handles[replica_id]
        record = KillRecord(replica=replica_id, killed_at=self.now)
        self.kills.append(record)
        self.fault_log.append((self.now, f"kill -9 replica {replica_id}"))
        handle.state = "held"
        process = handle.process
        if process is not None and process.returncode is None:
            try:
                process.kill()
            except ProcessLookupError:
                pass
        return record

    async def restart(self, replica_id: int) -> None:
        """Respawn a held/dead replica against its surviving journal."""
        handle = self.handles[replica_id]
        process = handle.process
        if process is not None and process.returncode is None:
            try:
                process.kill()
            except ProcessLookupError:
                pass
            await process.wait()
        # Snapshot *before* the respawn: the catch-up target, and the dead
        # incarnation's status timestamp (its stale file must not count as
        # recovery evidence).
        stale = read_status(self.spec.status_path(replica_id))
        stale_started = 0.0 if stale is None else stale.get("started_at", 0.0)
        heights = [
            status.get("height", 0)
            for status in self.statuses().values()
            if status is not None
        ]
        target = max(heights, default=0)
        await self._spawn(handle)
        self.fault_log.append((self.now, f"restart replica {replica_id}"))
        restarted_at = self.now
        for record in self.kills:
            if record.replica == replica_id and record.restarted_at is None:
                record.restarted_at = restarted_at
                record.target_height = target
                record.stale_started_at = stale_started

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def statuses(self) -> dict[int, Optional[dict]]:
        return {
            replica_id: read_status(self.spec.status_path(replica_id))
            for replica_id in range(self.spec.n)
        }

    def ledger_prefixes_consistent(self) -> bool:
        return prefixes_consistent(list(self.statuses().values()))

    def min_height(self) -> int:
        statuses = self.statuses().values()
        heights = [
            0 if status is None else status.get("height", 0) for status in statuses
        ]
        return min(heights, default=0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _command(self, replica_id: int) -> list[str]:
        return [
            sys.executable,
            "-m",
            "repro",
            "live",
            "--cluster-spec",
            str(self.spec_path),
            "--replica",
            str(replica_id),
        ]

    def _environment(self) -> dict[str, str]:
        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH", "")
        if src not in existing.split(os.pathsep):
            env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        return env

    async def _spawn(self, handle: ReplicaHandle) -> None:
        self._close_log(handle)
        # Sanctioned: opening the per-replica log in append mode is one
        # local syscall on the spawn (not the message) path.
        log = open(self.spec.log_path(handle.replica_id), "ab")  # repro-lint: ignore[blocking-in-async]
        handle.log_handle = log
        handle.process = await asyncio.create_subprocess_exec(
            *self._command(handle.replica_id),
            stdout=log,
            stderr=asyncio.subprocess.STDOUT,
            env=self._environment(),
        )
        handle.spawns += 1
        handle.state = "running"
        handle.monitor = asyncio.get_running_loop().create_task(
            self._monitor(handle), name=f"supervisor-monitor-{handle.replica_id}"
        )

    def _close_log(self, handle: ReplicaHandle) -> None:
        log = handle.log_handle
        if log is not None:
            try:
                log.close()
            except OSError:
                pass
            handle.log_handle = None

    async def _monitor(self, handle: ReplicaHandle) -> None:
        process = handle.process
        assert process is not None
        returncode = await process.wait()
        if self._stopping or handle.state in ("held", "stopped"):
            return  # expected: scheduled kill or shutdown
        # Unexpected death: crash-loop containment via budgeted restarts.
        self.fault_log.append(
            (self.now, f"replica {handle.replica_id} exited rc={returncode}")
        )
        if not self.auto_restart:
            handle.state = "down"
            return
        if handle.restarts >= self.restart_budget:
            handle.state = "down"
            self.fault_log.append(
                (
                    self.now,
                    f"replica {handle.replica_id} down: restart budget "
                    f"({self.restart_budget}) exhausted",
                )
            )
            return
        handle.restarts += 1
        delay = self._restart_delay(handle.restarts)
        task = asyncio.get_running_loop().create_task(
            self._delayed_restart(handle, delay),
            name=f"supervisor-restart-{handle.replica_id}",
        )
        self._restart_tasks.add(task)
        task.add_done_callback(self._restart_tasks.discard)

    def _restart_delay(self, attempt: int) -> float:
        base = min(
            self.restart_backoff_initial * (2.0 ** (attempt - 1)),
            self.restart_backoff_max,
        )
        return base * (0.5 + 0.5 * self.rng.random())

    async def _delayed_restart(self, handle: ReplicaHandle, delay: float) -> None:
        await asyncio.sleep(delay)
        if self._stopping or handle.state in ("held", "stopped", "down"):
            return
        await self._spawn(handle)
        self.fault_log.append(
            (self.now, f"auto-restarted replica {handle.replica_id} (#{handle.restarts})")
        )

    def _published(self, handle: ReplicaHandle) -> bool:
        """Whether the handle's current process has published a status."""
        status = read_status(self.spec.status_path(handle.replica_id))
        process = handle.process
        return (
            status is not None
            and process is not None
            and status.get("pid") == process.pid
        )

    async def _drive_schedule(self) -> None:
        assert self.schedule is not None
        # The schedule's clock starts once every replica has published a
        # status, i.e. has opened and written its journal: interpreter start
        # alone takes about half a second per process, so a clock started at
        # spawn could kill a replica that has nothing on disk to restore.
        while not all(self._published(handle) for handle in self.handles):
            await asyncio.sleep(POLL_INTERVAL)
        origin = self.now
        self.fault_log.append((origin, "every replica published a status"))
        for event in sorted(self.schedule.events, key=lambda e: e.time):
            delay = origin + event.time - self.now
            if delay > 0:
                await asyncio.sleep(delay)
            if self._stopping:
                return
            action = event.action
            if isinstance(action, Crash):
                self.kill(action.replica_id)
            elif isinstance(action, Recover):
                await self.restart(action.replica_id)
            elif isinstance(action, Inject):
                action.fn(self)
                self.fault_log.append((self.now, action.describe()))

    def _update_catch_up(self, statuses: dict[int, Optional[dict]]) -> None:
        for record in self.kills:
            if record.restarted_at is None or record.caught_up_at is not None:
                continue
            status = statuses.get(record.replica)
            if status is None:
                continue
            # Only the post-restart incarnation counts (stale files carry
            # the dead process's old started_at).
            if status.get("started_at", 0.0) <= record.stale_started_at:
                continue
            if status.get("height", 0) >= (record.target_height or 0):
                record.caught_up_at = self.now

    def _reached(
        self, statuses: dict[int, Optional[dict]], target_commits: int
    ) -> bool:
        if any(handle.state != "running" for handle in self.handles):
            return False
        if self._schedule_task is not None and not self._schedule_task.done():
            return False
        # Every executed kill must have its recovery timed, so the report
        # always carries a per-kill recovery figure.
        if any(record.caught_up_at is None for record in self.kills):
            return False
        heights = [
            0 if status is None else status.get("height", 0)
            for status in statuses.values()
        ]
        return bool(heights) and min(heights) >= target_commits

    def _report(self, timed_out: bool, wall_seconds: float) -> SupervisorReport:
        statuses = self.statuses()
        heights = [
            0 if status is None else status.get("height", 0)
            for status in statuses.values()
        ]
        transport_totals: dict[str, int] = {}
        for status in statuses.values():
            if status is None:
                continue
            totals = status.get("transport", {}).get("totals", {})
            for key, value in totals.items():
                transport_totals[key] = transport_totals.get(key, 0) + value
        return SupervisorReport(
            n=self.spec.n,
            commits=min(heights, default=0),
            max_height=max(heights, default=0),
            prefixes_consistent=prefixes_consistent(list(statuses.values())),
            timed_out=timed_out,
            wall_seconds=wall_seconds,
            kills=list(self.kills),
            restarts=sum(handle.restarts for handle in self.handles),
            down=[h.replica_id for h in self.handles if h.state == "down"],
            fault_log=list(self.fault_log),
            transport_totals=transport_totals,
            statuses=statuses,
        )


def _validate_wall_clock_schedule(schedule: FaultSchedule) -> None:
    """Wall-clock mode supports crash/recover/inject only."""
    for event in schedule.events:
        if not isinstance(event.action, (Crash, Recover, Inject)):
            raise ValueError(
                f"{event.action.describe()} has no wall-clock interpretation: "
                "the multi-process runtime only supports crash (SIGKILL), "
                "recover (respawn), and inject; shape the network with the "
                "simulator's loss/delay models instead"
            )


def kill_schedule(
    kills: int,
    n: int,
    first_at: float = 3.0,
    interval: float = 4.0,
    recover_after: float = 1.5,
) -> FaultSchedule:
    """A canonical chaos schedule: ``kills`` SIGKILL/restart pairs.

    Victims rotate round-robin over non-zero replicas (replica 0 is spared
    only so a single-kill smoke keeps its initial leader; with enough kills
    it rotates in too — the protocol does not care).
    """
    from repro.faults.schedule import crash, recover

    schedule = FaultSchedule()
    for index in range(kills):
        victim = (index % max(n - 1, 1)) + 1 if n > 1 else 0
        at = first_at + index * interval
        schedule.at(at, crash(victim))
        schedule.at(at + recover_after, recover(victim))
    return schedule
