"""Outside-in tracer: wraps public calls into the program's layers.

The benchmark never edits the program.  To attribute wall time to a
layer it replaces, for the duration of one traced run, the attribute a
caller resolves at call time -- a module global such as
``repro.core.app.seal_all`` or a class attribute such as
``repro.tee.enclave.Enclave.ecall`` -- with a wrapper, and puts the
original object back afterwards.

Two kinds of wrapper exist:

- a *span* wrapper records ``(id, parent id, name, start, end, self
  seconds, size, value, ok, tag)`` per call.  Spans nest through an
  explicit stack, so a span's self time is its duration minus the
  durations of the spans it directly encloses.  Spans stay in memory
  and are written out once, at the end;
- a *count* wrapper, for sub-microsecond hot calls, increments a call
  counter (and optionally a hit counter) and reads no clock.  Its
  seconds are estimated afterwards by replaying the last call it saw
  (see :meth:`Tracer.replay_costs`).
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Hook", "Tracer", "resolve"]

#: Span record fields, in tuple order.
SPAN_FIELDS = ("id", "parent", "name", "t0", "t1", "self_s", "size", "value", "ok", "tag")


@dataclass(frozen=True)
class Hook:
    """One wrapped call site.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.  The
    optional callables see the call: ``pre(args)`` runs before it,
    ``size(args, kwargs, pre)`` and ``value(result, args, pre)`` after a
    successful return, ``tag(result)`` labels the span (e.g. an event
    kind).  For count hooks only ``hit(result)`` is used.
    """

    target: str
    name: str
    size: Optional[Callable] = None
    value: Optional[Callable] = None
    pre: Optional[Callable] = None
    tag: Optional[Callable] = None
    hit: Optional[Callable] = None


def resolve(target: str) -> Tuple[object, str]:
    """Return ``(owner, attribute)`` for a ``module:attr`` target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{target}: {attr!r} is not defined on {owner!r}")
    return owner, attr


class Tracer:
    """Install span/count wrappers, collect, and restore."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[tuple] = []
        self.counts: Dict[str, List] = {}
        self._patches: List[Tuple[object, str, object]] = []
        # Stack frames are [span id, seconds covered by direct children].
        self._stack: List[List] = [[0, 0.0]]
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    def install(self, span_hooks=(), count_hooks=()) -> "Tracer":
        try:
            for hook in span_hooks:
                self._patch(hook, self._span_wrapper)
            for hook in count_hooks:
                self._patch(hook, self._count_wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        """Put every original attribute back, in reverse patch order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, hook: Hook, make: Callable) -> None:
        owner, attr = resolve(hook.target)
        original = vars(owner)[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{hook.target}: static/class methods are not wrapped")
        wrapper = make(hook, original)
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__qualname__ = getattr(original, "__qualname__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _span_wrapper(self, hook: Hook, func: Callable) -> Callable:
        stack, spans, clock, ids = self._stack, self.spans, self.clock, self._ids
        name, pre, size, value, tag = hook.name, hook.pre, hook.size, hook.value, hook.tag

        def wrapper(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1]
            stack.append(frame)
            before = pre(args) if pre is not None else None
            ok = False
            result = None
            t0 = clock()
            try:
                result = func(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                parent[1] += duration
                spans.append((
                    frame[0],
                    parent[0],
                    name,
                    t0,
                    t1,
                    duration - frame[1],
                    size(args, kwargs, before) if ok and size is not None else 0,
                    value(result, args, before) if ok and value is not None else 0,
                    ok,
                    tag(result) if ok and tag is not None else None,
                ))

        return wrapper

    def _count_wrapper(self, hook: Hook, func: Callable) -> Callable:
        # [calls, hits, last (args, kwargs), original]
        slot = self.counts.setdefault(hook.name, [0, 0, None, func])
        hit = hook.hit

        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            slot[0] += 1
            slot[2] = (args, kwargs)
            if hit is not None and hit(result):
                slot[1] += 1
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    def replay_costs(self, calls: int = 2000, repeats: int = 5) -> Dict[str, float]:
        """Per-call seconds of each count hook, by replaying its last call.

        Runs after the traced run has finished and been checked, so any
        side effect of the replay (an LRU reorder, a hit counter) cannot
        reach the run's outputs.  The median over ``repeats`` batches of
        ``calls`` calls is returned.
        """
        costs = {}
        for name, (_, _, last, func) in self.counts.items():
            if last is None:
                costs[name] = 0.0
                continue
            args, kwargs = last
            batches = []
            for _ in range(repeats):
                t0 = self.clock()
                for _ in range(calls):
                    func(*args, **kwargs)
                batches.append((self.clock() - t0) / calls)
            costs[name] = statistics.median(batches)
        return costs

    def wrapper_costs(self, calls: int = 20000) -> Tuple[float, float]:
        """Seconds one span wrapper and one count wrapper add per call.

        Times a wrapped no-op against the bare no-op on a scratch tracer,
        so the estimate never touches this tracer's records.
        """
        def noop():
            return None

        scratch = Tracer(self.clock)
        span = scratch._span_wrapper(Hook("-:-", "span"), noop)
        count = scratch._count_wrapper(Hook("-:-", "count"), noop)
        costs = []
        for func in (noop, span, count):
            t0 = self.clock()
            for _ in range(calls):
                func()
            costs.append((self.clock() - t0) / calls)
        bare = costs[0]
        return max(0.0, costs[1] - bare), max(0.0, costs[2] - bare)

    def summary(self, split_at: Optional[float] = None) -> Dict[str, dict]:
        """Aggregate spans per name.

        ``split_at`` (a clock reading) assigns each span's self time to
        the ``setup`` phase when it started before that instant and to
        ``run`` otherwise.  Per-tag call counts and self seconds are kept
        under ``tags``.
        """
        out: Dict[str, dict] = {}
        for _, _, name, t0, t1, self_s, size, value, ok, tag in self.spans:
            row = out.get(name)
            if row is None:
                row = out[name] = {
                    "calls": 0, "total_s": 0.0, "self_s": 0.0, "setup_self_s": 0.0,
                    "run_self_s": 0.0, "size": 0, "value": 0, "failed": 0, "tags": {},
                }
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += self_s
            phase = "setup_self_s" if split_at is not None and t0 < split_at else "run_self_s"
            row[phase] += self_s
            row["size"] += size
            row["value"] += value
            row["failed"] += not ok
            if tag is not None:
                calls, secs = row["tags"].get(tag, (0, 0.0))
                row["tags"][tag] = (calls + 1, secs + self_s)
        return out

    def write(self, path: str) -> None:
        """Write every span (with parent ids) and the counts as JSON."""
        doc = {
            "fields": SPAN_FIELDS,
            "spans": self.spans,
            "counts": {name: slot[:2] for name, slot in self.counts.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
