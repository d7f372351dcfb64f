"""Event-driven simulated-clock kernel shared by every simulation path.

Every execution path schedules its work here rather than in an ad-hoc
loop: fleet-simulator epochs (``fleet.epoch``), distributed-cluster pump
cycles and transport/chaos ticks (``cluster.pump``, ``net.tick``,
``faults.tick``, ...), and serving ticks (``serve.tick``,
``serve.fleet.route``).  This is the structure every large
discrete-event simulator uses (the cycle-batched dissemination loop of
gossip/blockchain simulators): **one priority queue of timestamped
events** that all of them register against, which is what lets fleets
scale to thousands of nodes and lets the sources compose in one run.

Determinism is the contract here, pinned two ways:

- **Ordering.**  Events fire in ``(time, key, seq)`` order.  ``key`` is
  an intrinsic, caller-supplied tuple (epoch number, node id, stage
  rank); two events at the same timestamp with different keys fire in
  key order *regardless of insertion order*, so a seeded experiment's
  event trace never depends on dict/set iteration or scheduling-code
  refactors.  ``seq`` (insertion order) only breaks exact ``(time,
  key)`` ties, keeping repeated registrations stable.
- **The trace digest.**  Every dispatched event folds ``(time, kind,
  key)`` into a running SHA-256; :meth:`EventKernel.trace_digest` is the
  one-line fingerprint regression tests and reports pin (same seed ->
  identical digest).

The kernel never reads a wall clock: :attr:`EventKernel.now` is purely
simulated time, advanced only by dispatching events.  Shared module (it
plays every role in one process, like the fleet simulators); see the
trust classification in :mod:`repro.lint.classify`.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

__all__ = ["Event", "EventKernel"]

KeyElement = Union[int, float, str]

#: Canonical prefix of the trace-digest transcript (versioned so a
#: semantic change to the encoding cannot silently match old digests).
_DIGEST_DOMAIN = b"repro.sim.kernel/v1"


def _order_key(key: Tuple[KeyElement, ...]) -> Tuple[Tuple[int, object], ...]:
    """Normalize a user key so mixed int/str keys stay comparable.

    Numbers order before strings; within a type, natural order.  This is
    what makes ``(time, key)`` a total order for any key the callers use.
    """
    normalized: List[Tuple[int, object]] = []
    for element in key:
        if isinstance(element, bool):  # bool is an int subclass; pin rank
            normalized.append((0, int(element)))
        elif isinstance(element, (int, float)):
            normalized.append((0, element))
        else:
            normalized.append((1, str(element)))
    return tuple(normalized)


@dataclass(eq=False)
class Event:
    """One scheduled callback.

    ``fn`` takes no arguments -- context rides in the closure.  ``kind``
    names the event taxonomy entry (``fleet.epoch``, ``net.tick``,
    ``faults.tick``, ``serve.tick``, ...); ``key`` is
    the intrinsic same-timestamp ordering key.
    """

    time: float
    kind: str
    key: Tuple[KeyElement, ...]
    fn: Callable[[], None]
    seq: int = -1
    cancelled: bool = field(default=False, compare=False)


class EventKernel:
    """A deterministic simulated-clock priority-queue event loop."""

    def __init__(self, *, start: float = 0.0) -> None:
        #: Current simulated time (the timestamp of the last dispatch).
        self.now = float(start)
        #: Events dispatched so far (cancelled events never count).
        self.processed = 0
        self._heap: List[Tuple[float, Tuple, int, Event]] = []
        self._seq = 0
        self._sha = hashlib.sha256(_DIGEST_DOMAIN)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def at(
        self,
        time: float,
        fn: Callable[[], None],
        *,
        kind: str = "event",
        key: Tuple[KeyElement, ...] = (),
    ) -> Event:
        """Schedule ``fn`` at absolute simulated time ``time``."""
        time = float(time)
        if time < self.now:
            raise ValueError(
                f"cannot schedule {kind!r} at t={time} in the past (now={self.now})"
            )
        event = Event(time=time, kind=str(kind), key=tuple(key), fn=fn, seq=self._seq)
        self._seq += 1
        heapq.heappush(self._heap, (event.time, _order_key(event.key), event.seq, event))
        return event

    def after(
        self,
        delay: float,
        fn: Callable[[], None],
        *,
        kind: str = "event",
        key: Tuple[KeyElement, ...] = (),
    ) -> Event:
        """Schedule ``fn`` ``delay`` simulated seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.at(self.now + float(delay), fn, kind=kind, key=key)

    def every(
        self,
        interval: float,
        fn: Callable[[], object],
        *,
        kind: str = "event",
        key: Tuple[KeyElement, ...] = (),
        start: Optional[float] = None,
    ) -> Event:
        """Recurring event: re-armed after each firing until ``fn``
        returns ``False`` (any other return value, including ``None``,
        continues the series)."""
        if interval <= 0:
            raise ValueError("interval must be positive")

        def fire() -> None:
            if fn() is not False:
                self.after(interval, fire, kind=kind, key=key)

        first = self.now if start is None else float(start)
        return self.at(first, fire, kind=kind, key=key)

    @staticmethod
    def cancel(event: Event) -> None:
        """Mark ``event`` dead; it stays heap-resident but never fires."""
        event.cancelled = True

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return sum(1 for *_rest, event in self._heap if not event.cancelled)

    @property
    def empty(self) -> bool:
        return len(self) == 0

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` when drained."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def step(self) -> Optional[Event]:
        """Dispatch the single next live event; ``None`` when drained."""
        while self._heap:
            _time, _key, _seq, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = event.time
            self._sha.update(
                f"{event.time!r}|{event.kind}|{event.key!r}\n".encode()
            )
            self.processed += 1
            event.fn()
            return event
        return None

    def run(
        self,
        *,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Dispatch events until the queue drains (or a bound trips).

        ``until`` stops before dispatching any event scheduled strictly
        after that time; ``max_events`` bounds this call's dispatches.
        Returns the number of events dispatched by this call.
        """
        dispatched = 0
        while self._heap:
            if max_events is not None and dispatched >= max_events:
                break
            if until is not None:
                upcoming = self.peek_time()
                if upcoming is None or upcoming > until:
                    break
            if self.step() is None:
                break
            dispatched += 1
        return dispatched

    # ------------------------------------------------------------------ #
    # Determinism fingerprint
    # ------------------------------------------------------------------ #
    def trace_digest(self) -> str:
        """SHA-256 over every dispatched ``(time, kind, key)`` so far."""
        return self._sha.copy().hexdigest()
