"""Fleet front end: global admission queue, routing, replicated failover.

The balancer stands in front of every shard's replicas and owns the
fleet's traffic-facing invariants:

- a **bounded global queue** absorbs flash crowds before any replica
  queue sees them; arrivals past the bound are shed (counted, never
  silently dropped);
- each admitted query is **routed** by the consistent-hash ring to its
  owning shard and offered to a preferred replica (deterministic:
  ``user % replicas``), so repeat queries hit the same result cache;
- **failover is snapshot-version-aware**: a query only falls over to a
  replica that is alive *and* serving the shard's freshest live version,
  so a stale replica (one whose enclave refused a publish via
  :class:`~repro.tee.errors.SnapshotReplayError` and so serves a version
  other than the shard's) never answers with the wrong model;
- a **crashed replica loses no admitted work**: its queued requests are
  evicted back into the global queue (counted as failovers) and re-route
  at the same tick.

Per-replica admission, batching and cost accounting are exactly the
single-endpoint :class:`~repro.serve.server.RecServer` -- the fleet adds
routing around it, not a second pricing path (the costing parity test
pins this).

Every count lives in the metrics registry.  Each enclave incarnation's
server counts under its own ``incarnation`` label, so a crash loses no
count and :meth:`ShardReplica.total` sums them back up.

Shared module: the balancer sees only opaque enclave handles, global
user ids and sanitized counters -- never model state or raw ratings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.plan import CrashEvent
from repro.obs import MetricsRegistry
from repro.serve.costing import ServeCostModel
from repro.serve.fleet.router import HashRing
from repro.serve.server import (
    REJECT_NEWEST,
    Completion,
    RecServer,
    ServePolicy,
)
from repro.sim.kernel import EventKernel
from repro.tee.cost_model import SGX1_COST_MODEL, SgxCostModel
from repro.tee.enclave import Enclave
from repro.tee.epc import EpcModel
from repro.tee.errors import SnapshotReplayError

__all__ = ["FleetPolicy", "ShardReplica", "FleetBalancer"]

#: Drain safety valve: ticks past the trace horizon before giving up.
_MAX_DRAIN_TICKS = 100_000


def _default_shard_policy() -> ServePolicy:
    # Replicas reject at their own bound instead of shedding admitted
    # work: the global queue is the fleet's only place where requests
    # wait un-admitted, which keeps loss accounting single-sourced.
    return ServePolicy(shed=REJECT_NEWEST)


@dataclass(frozen=True)
class FleetPolicy:
    """Fleet-level knobs: the global queue plus the per-replica policy."""

    #: Bound of the global front-door queue (flash-crowd absorber).
    queue_depth: int = 1024
    shard: ServePolicy = field(default_factory=_default_shard_policy)

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("global queue depth must be positive")

    def to_dict(self) -> dict:
        return {"queue_depth": self.queue_depth, "shard": self.shard.to_dict()}


class ShardReplica:
    """One replica of one shard: enclave incarnations + its RecServer.

    The ``enclave_factory`` callable (provided by the runner, which owns
    the platform and the shard's load payload) boots a fresh enclave
    incarnation, loads it and returns ``(enclave, meta)`` with the
    ``ecall_load`` reply; the replica itself only tracks liveness and
    the version that reply says the incarnation serves.
    """

    def __init__(
        self,
        shard_id: int,
        replica_id: int,
        enclave_factory: Callable[[int], Tuple[Enclave, dict]],
        *,
        policy: Optional[ServePolicy] = None,
        costs: Optional[ServeCostModel] = None,
        sgx: SgxCostModel = SGX1_COST_MODEL,
        epc: Optional[EpcModel] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.shard_id = int(shard_id)
        self.replica_id = int(replica_id)
        self._factory = enclave_factory
        self._epc = epc
        self.metrics = MetricsRegistry.ensure(metrics)
        self._new_server = partial(
            RecServer,
            policy=policy if policy is not None else _default_shard_policy(),
            costs=costs,
            sgx=sgx,
            epc=epc,
            metrics=self.metrics,
        )
        self.labels = {"shard": self.shard_id, "replica": self.replica_id}
        self._crashes = self.metrics.counter("serve.fleet.crashes", **self.labels)
        self._restarts = self.metrics.counter("serve.fleet.restarts", **self.labels)
        self.server: Optional[RecServer] = None
        self.alive = False
        self.stale = False
        self.version = 0
        #: Incarnations booted so far; the next one gets this index.
        self.incarnation = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def boot(self, tick: int) -> None:
        """Stand up a fresh enclave incarnation at the version it loaded."""
        enclave, meta = self._factory(self.incarnation)
        self.server = self._new_server(
            enclave,
            labels={**self.labels, "incarnation": self.incarnation},
        )
        self.incarnation += 1
        self.server.tick = int(tick)
        self.alive = True
        self.stale = False
        self.version = int(meta["version"])

    def kill(self) -> List[int]:
        """Crash the replica; returns the queued users needing failover."""
        self._crashes.inc()
        self.alive = False
        queued: List[int] = []
        if self.server is not None:
            queued = [r.user for r in self.server.evict_queue()]
            self.server = None
        return queued

    def restart(self, tick: int) -> None:
        """Re-join the fleet with a fresh incarnation."""
        self._restarts.inc()
        self.boot(tick)

    def load(self, load_args: dict, version: int) -> dict:
        """Publish a new snapshot into the live incarnation.

        Loads always demand monotonic versions; a rollback raises
        :class:`~repro.tee.errors.SnapshotReplayError` (handled by the
        balancer, which marks the replica stale).
        """
        assert self.server is not None
        args = dict(load_args)
        args["require_newer"] = True
        reply = self.server.enclave.ecall("ecall_load", args)
        self.version = int(version)
        self.stale = False
        return reply

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def total(self, name: str, **labels: object) -> float:
        """Counter ``name`` summed over this replica's incarnations.

        The sum runs oldest incarnation first: one fixed addition order, so
        float totals (``busy_s``, page faults) are bit-reproducible.
        """
        return sum(
            (
                self.metrics.value(name, **self.labels, incarnation=i, **labels)
                for i in range(self.incarnation)
            ),
            0.0,
        )

    @property
    def resident_bytes(self) -> int:
        if self.server is None:
            return 0
        return int(self.server.enclave.memory.resident_bytes)

    @property
    def epc_share_bytes(self) -> float:
        """This replica's EPC cap (its platform's per-enclave share)."""
        return float(self._epc.share_bytes) if self._epc is not None else 0.0


class FleetBalancer:
    """Routes a bounded global queue onto shard replicas with failover."""

    def __init__(
        self,
        ring: HashRing,
        replicas: Dict[int, Sequence[ShardReplica]],
        *,
        policy: Optional[FleetPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if set(ring.shard_ids) != set(replicas):
            raise ValueError("replica map must cover exactly the ring's shards")
        self.ring = ring
        self.replicas: Dict[int, List[ShardReplica]] = {
            shard: list(replicas[shard]) for shard in ring.shard_ids
        }
        self.policy = policy if policy is not None else FleetPolicy()
        self.metrics = MetricsRegistry.ensure(metrics)
        self.shard_version: Dict[int, int] = {s: 0 for s in ring.shard_ids}
        self._pending: Deque[int] = deque()
        self.completions: List[Completion] = []
        counter = self.metrics.counter
        self._offered = counter("serve.fleet.offered")
        self._routed = counter("serve.fleet.routed")
        self._failover = counter("serve.fleet.failover")
        self._shed = counter("serve.fleet.shed")
        self._deferred = counter("serve.fleet.deferred")
        self._stale_rejected = counter("serve.fleet.stale_rejected")

    # ------------------------------------------------------------------ #
    # Front door
    # ------------------------------------------------------------------ #
    def offer(self, user: int) -> bool:
        """Offer one query to the global queue; sheds past the bound."""
        self._offered.inc()
        if len(self._pending) >= self.policy.queue_depth:
            self._shed.inc()
            return False
        self._pending.append(int(user))
        return True

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _candidates(self, shard: int) -> List[ShardReplica]:
        """Live replicas of ``shard`` serving its freshest live version."""
        live = [r for r in self.replicas[shard] if r.alive and not r.stale]
        if not live:
            return []
        freshest = max(r.version for r in live)
        return [r for r in live if r.version == freshest]

    def route_pending(self) -> None:
        """Route every queued query to a replica (or defer/shed it).

        A query whose shard has no live fresh replica stays queued for
        the next tick (deferred, not lost).  Failover is counted when
        the preferred replica cannot take the query and a sibling does.
        """
        remaining: Deque[int] = deque()
        while self._pending:
            user = self._pending.popleft()
            shard = self.ring.route(user)
            candidates = self._candidates(shard)
            if not candidates:
                self._deferred.inc()
                remaining.append(user)
                continue
            siblings = self.replicas[shard]
            preferred = siblings[user % len(siblings)]
            if preferred in candidates:
                target = preferred
            else:
                target = candidates[0]  # deterministic: replica-id order
                self._failover.inc()
            assert target.server is not None
            if target.server.offer(user) < 0:
                self._shed.inc()
            else:
                self._routed.inc()
        self._pending = remaining

    # ------------------------------------------------------------------ #
    # Per-shard ticking (one kernel event per shard per tick)
    # ------------------------------------------------------------------ #
    def step_shard(self, shard: int) -> List[Completion]:
        """Advance every live replica of ``shard`` one tick."""
        out: List[Completion] = []
        for replica in self.replicas[shard]:
            if not replica.alive:
                continue
            assert replica.server is not None
            out.extend(replica.server.step())
            # Shed-oldest victims (non-default shard policy) were
            # admitted work: count them as fleet losses too.
            victims = replica.server.take_shed()
            if victims:
                self._shed.inc(len(victims))
        self.completions.extend(out)
        return out

    # ------------------------------------------------------------------ #
    # Faults and publishes
    # ------------------------------------------------------------------ #
    def kill_replica(self, shard: int, replica_id: int) -> int:
        """Crash one replica; re-queue its admitted work for failover."""
        replica = self.replicas[shard][replica_id]
        if not replica.alive:
            return 0
        queued = replica.kill()
        # Evicted requests re-enter at the *front* of the global queue
        # (they were admitted first) and re-route this tick; each is a
        # failover by definition.
        self._pending.extendleft(reversed(queued))
        self._failover.inc(len(queued))
        return len(queued)

    def restart_replica(self, shard: int, replica_id: int, tick: int) -> None:
        """Restart a crashed replica; stale unless it loaded the shard's version."""
        replica = self.replicas[shard][replica_id]
        if replica.alive:
            return
        replica.restart(tick)
        replica.stale = replica.version != self.shard_version[shard]

    def publish(self, shard: int, load_args: dict, version: int) -> None:
        """Push a new snapshot to every live replica of ``shard``.

        A replica may refuse the load (replay defense tripped: the
        version is at or below one its enclave already served).  After
        the publish a live replica is stale -- out of the candidate set
        until a good publish lands -- exactly when it serves a version
        other than the shard's, so refusing a repeat or a rollback of the
        shard's current version leaves it routable.
        """
        version = int(version)
        self.shard_version[shard] = max(self.shard_version[shard], version)
        for replica in self.replicas[shard]:
            if not replica.alive:
                continue
            try:
                replica.load(load_args, version)
            except SnapshotReplayError:
                self._stale_rejected.inc()
            replica.stale = replica.version != self.shard_version[shard]

    # ------------------------------------------------------------------ #
    @property
    def pending_len(self) -> int:
        return len(self._pending)

    @property
    def queued_len(self) -> int:
        """Requests sitting in replica admission queues right now."""
        return sum(
            r.server.queue_len
            for reps in self.replicas.values()
            for r in reps
            if r.alive and r.server is not None
        )

    def idle(self) -> bool:
        """True when no request is waiting anywhere in the fleet."""
        return not self._pending and self.queued_len == 0

    def shed_pending(self) -> int:
        """Shed everything still in the global queue (undrainable fleet)."""
        count = len(self._pending)
        self._shed.inc(count)
        self._pending.clear()
        return count

    # ------------------------------------------------------------------ #
    # The serving driver
    # ------------------------------------------------------------------ #
    def run_trace(
        self,
        trace: np.ndarray,
        *,
        ticks: int,
        crashes: Sequence[CrashEvent] = (),
        kernel: Optional[EventKernel] = None,
    ) -> List[Completion]:
        """Serve an open-loop ``(tick, user)`` trace, then drain the fleet.

        Every per-tick action is an event on ``kernel`` (a fresh
        :class:`~repro.sim.kernel.EventKernel` unless one is passed):
        ``faults.crash`` / ``faults.restart`` (key rank 0), one
        ``serve.fleet.route`` (rank 1) and one ``serve.tick`` per shard
        (rank 2), so a replica killed at tick ``t`` hands its queue back
        before that tick's arrivals route.  ``CrashEvent.node`` is the
        global replica index (replicas numbered shard by shard) and
        ``at_epoch`` the serve tick of the kill.

        After ``ticks`` ticks the fleet keeps ticking until no request
        waits anywhere; work that no live replica can ever take is shed
        after a grace window.  Returns every completion, in order.
        """
        kernel = kernel if kernel is not None else EventKernel()
        shard_ids = self.ring.shard_ids
        slots: List[Tuple[int, int]] = [
            (shard, r) for shard in shard_ids for r in range(len(self.replicas[shard]))
        ]
        arrivals = np.asarray(trace, dtype=np.int64)
        cursor = {"pos": 0}

        def _route_tick(tick: int) -> None:
            pos = cursor["pos"]
            while pos < len(arrivals) and int(arrivals[pos, 0]) == tick:
                self.offer(int(arrivals[pos, 1]))
                pos += 1
            cursor["pos"] = pos
            self.route_pending()

        def _kill(event: CrashEvent) -> None:
            self.kill_replica(*slots[event.node])

        def _restart(event: CrashEvent, tick: int) -> None:
            self.restart_replica(*slots[event.node], tick)

        for tick in range(ticks):
            # Key ranks order one tick's events: faults(0) < route(1) < serve(2).
            kernel.at(
                float(tick), partial(_route_tick, tick), kind="serve.fleet.route",
                key=(tick, 1),
            )
            for shard in shard_ids:
                kernel.at(
                    float(tick), partial(self.step_shard, shard),
                    kind="serve.tick", key=(tick, 2, shard),
                )
        for event in crashes:
            if event.node >= len(slots):
                raise ValueError("crash plan names a replica outside the fleet")
            kernel.at(
                float(event.at_epoch), partial(_kill, event),
                kind="faults.crash", key=(event.at_epoch, 0, event.node),
            )
            if event.restart_after_ticks is not None:
                back = event.at_epoch + event.restart_after_ticks
                kernel.at(
                    float(back), partial(_restart, event, back),
                    kind="faults.restart", key=(back, 0, event.node),
                )
        kernel.run()

        # Drain: keep ticking past the horizon until nothing waits anywhere.
        tick = ticks
        stalled = 0
        while not self.idle():
            before = len(self.completions)
            self.route_pending()
            for shard in shard_ids:
                self.step_shard(shard)
            stalled = stalled + 1 if len(self.completions) == before else 0
            # A shard with every replica permanently dead can never drain its
            # deferred queue; after a grace window its stragglers are shed.
            # Work already in a live replica's queue always dispatches, so
            # the valve only opens once those queues are empty.
            if stalled > 64 and self.queued_len == 0:
                self.shed_pending()
                break
            tick += 1
            if tick > ticks + _MAX_DRAIN_TICKS:
                raise RuntimeError("fleet failed to drain")
        return self.completions
