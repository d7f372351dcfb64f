"""Thousand-node fleet scaling harness (behind ``repro fleet-bench``).

The paper's evaluation stops at a few hundred simulated nodes; the
production north star needs evidence that the event kernel sustains
1k-10k node fleets.  This module provides that evidence: a vectorized,
cycle-batched gossip dissemination experiment (the standard
epidemic-simulator shape: every cycle, each informed node pushes its
rumor to ``fanout`` random neighbors; messages sent in cycle *t* are
delivered in cycle *t+1*) executed entirely as
:class:`~repro.sim.kernel.EventKernel` events, plus a
:class:`FleetScaleRunner` that sweeps fleet sizes and emits the
``BENCH_fleet.json`` scaling curve (nodes vs sim-steps/s and peak
resident bytes) that the ``fleet-bench`` CI job gates on.

Everything is seeded: the topology, the per-cycle peer choices and hence
the whole dissemination history (pinned by the kernel trace digest and
the coverage curve) are a pure function of ``(seed, n_nodes, degree,
fanout, cycles)``.
"""

from __future__ import annotations

import json
import statistics
import tracemalloc
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro._rng import child_rng
from repro.core.messages import HEADER_BYTES
from repro.net.serialization import measure_triplets
from repro.net.topology import Topology
from repro.sim.kernel import EventKernel

__all__ = ["GossipFleetSim", "FleetBenchPoint", "FleetScaleRunner", "write_fleet_bench"]

#: Artifact schema tag (bump on breaking change).
SCHEMA = "repro.fleet_bench/v1"


def _ring_lattice(n_nodes: int, degree: int) -> Topology:
    """k-regular ring lattice -- O(n*k) construction, connected by
    design, so 4k-node topologies build in milliseconds (Watts-Strogatz
    rewiring is a per-edge Python loop; at fleet scale the unrewired
    lattice keeps setup out of the measurement)."""
    if degree % 2 != 0:
        raise ValueError("degree must be even (degree/2 neighbors per side)")
    if degree >= n_nodes:
        raise ValueError("degree must be smaller than the node count")
    spans = np.arange(1, degree // 2 + 1)
    nodes = np.arange(n_nodes)
    a = np.repeat(nodes, len(spans))
    b = (a + np.tile(spans, n_nodes)) % n_nodes
    edges = list(zip(a.tolist(), b.tolist()))
    return Topology(n_nodes, edges, name=f"ring-lattice({n_nodes},k={degree})")


class GossipFleetSim:
    """Cycle-batched push-gossip rumor dissemination on the event kernel.

    State is fully vectorized (one bool/int array across all nodes); the
    kernel carries one ``gossip.deliver`` + one ``gossip.cycle`` event
    per cycle, exactly the batched per-cycle message delivery of the
    related decentralized-learning simulators.  One *sim step* is one
    node executing one protocol cycle, so ``sim_steps = n_nodes *
    cycles`` and steps/s measures whole-fleet scheduling throughput.
    """

    def __init__(
        self,
        n_nodes: int,
        *,
        seed: int = 0,
        degree: int = 6,
        fanout: int = 1,
        share_points: int = 100,
        topology: Optional[Topology] = None,
    ):
        if fanout < 1:
            raise ValueError("fanout must be at least one peer per cycle")
        self.n_nodes = int(n_nodes)
        self.seed = int(seed)
        self.fanout = int(fanout)
        self.share_points = int(share_points)
        self.topology = topology if topology is not None else _ring_lattice(n_nodes, degree)
        if self.topology.n_nodes != self.n_nodes:
            raise ValueError("topology size does not match the fleet size")
        # CSR neighbor layout for one vectorized random-peer draw per cycle.
        degrees = self.topology.degrees
        self._offsets = np.concatenate([[0], np.cumsum(degrees)])
        self._flat_neighbors = np.concatenate(
            [self.topology.neighbors(i) for i in range(self.n_nodes)]
        )
        self._degrees = degrees
        self._rng = child_rng(self.seed, "fleet-scale", self.n_nodes)

        #: Nodes that have heard the rumor (node 0 is patient zero).
        self.informed = np.zeros(self.n_nodes, dtype=bool)
        self.informed[0] = True
        self._pending: Optional[np.ndarray] = None  # receiver ids due next cycle
        self.cycles_run = 0
        self.sim_steps = 0
        self.messages = 0
        self.payload_bytes = 0
        self.coverage_curve: List[float] = []

    # ------------------------------------------------------------------ #
    def _deliver(self) -> None:
        """Apply last cycle's batched sends (cycle-batched dissemination)."""
        if self._pending is not None and len(self._pending):
            self.informed[self._pending] = True
        self._pending = None

    def _cycle(self) -> None:
        """Every informed node pushes to ``fanout`` random neighbors."""
        senders = np.flatnonzero(self.informed)
        if len(senders):
            picks = self._rng.integers(
                0, self._degrees[senders], size=(self.fanout, len(senders))
            )
            receivers = self._flat_neighbors[self._offsets[senders] + picks].ravel()
            self._pending = receivers
            self.messages += receivers.size
            self.payload_bytes += receivers.size * (
                measure_triplets(self.share_points) + HEADER_BYTES
            )
        self.sim_steps += self.n_nodes
        self.cycles_run += 1
        self.coverage_curve.append(float(self.informed.mean()))

    def schedule(self, kernel: EventKernel, cycles: int) -> None:
        """Register ``cycles`` rounds of deliver-then-gossip events."""
        for cycle in range(int(cycles)):
            at = float(cycle)
            # Keys carry the fleet size so the kernel trace digest
            # fingerprints *this* experiment, not just a cycle count.
            kernel.at(
                at, self._deliver, kind="gossip.deliver", key=(self.n_nodes, cycle, 0)
            )
            kernel.at(
                at, self._cycle, kind="gossip.cycle", key=(self.n_nodes, cycle, 1)
            )

    def run(self, cycles: int, *, kernel: Optional[EventKernel] = None) -> EventKernel:
        """Run ``cycles`` gossip cycles; returns the (possibly shared)
        kernel so callers can read ``processed`` and the trace digest."""
        if kernel is None:
            kernel = EventKernel()
        self.schedule(kernel, cycles)
        kernel.run()
        self._deliver()  # the final cycle's sends land after the horizon
        return kernel

    @property
    def coverage(self) -> float:
        """Fraction of the fleet the rumor has reached."""
        return float(self.informed.mean())


@dataclass(frozen=True)
class FleetBenchPoint:
    """One fleet size's measured scaling point."""

    nodes: int
    topology: str
    cycles: int
    events: int
    sim_steps: int
    messages: int
    payload_bytes: int
    coverage: float
    wall_s: float
    steps_per_s: float
    events_per_s: float
    peak_traced_bytes: int
    trace_digest: str

    def to_dict(self) -> Dict:
        return asdict(self)


#: Timed passes per fleet size; the report carries their median.
TIMED_PASSES = 7


class FleetScaleRunner:
    """Sweep fleet sizes through the kernel-driven gossip experiment.

    Per size: :data:`TIMED_PASSES` clean timed passes, each on a fresh
    seeded sim, whose median wall time gives ``steps_per_s`` (one pass
    lasts a few milliseconds, so a single timing is mostly scheduler
    noise); then an identical pass under :mod:`tracemalloc` for the peak
    resident bytes of the simulation state (the allocation tracer slows
    execution, so it must never contaminate the throughput number).
    Every timed pass must dispatch the same kernel trace.

    ``clock`` is the injected wall-clock (callers pass
    ``time.perf_counter``), the same idiom as
    :func:`repro.tee.crypto.tuning.measure_crossover`: simulation code
    never reads the wall clock itself, so every simulated result stays
    bit-reproducible and only the throughput *measurement* is
    machine-dependent.
    """

    def __init__(
        self,
        sizes: Sequence[int] = (256, 1024, 4096),
        *,
        clock: Callable[[], float],
        cycles: int = 40,
        seed: int = 0,
        degree: int = 6,
        fanout: int = 1,
    ):
        if not sizes:
            raise ValueError("need at least one fleet size")
        self.sizes = tuple(int(s) for s in sizes)
        self.clock = clock
        self.cycles = int(cycles)
        self.seed = int(seed)
        self.degree = int(degree)
        self.fanout = int(fanout)

    def _build(self, n_nodes: int) -> GossipFleetSim:
        return GossipFleetSim(
            n_nodes,
            seed=self.seed,
            degree=self.degree,
            fanout=self.fanout,
        )

    def _timed_pass(self, n_nodes: int):
        # Build outside the clock, run inside it.
        sim = self._build(n_nodes)
        kernel = EventKernel()
        sim.schedule(kernel, self.cycles)
        t0 = self.clock()
        kernel.run()
        wall = self.clock() - t0
        sim._deliver()
        return sim, kernel, wall

    def _measure(self, n_nodes: int) -> FleetBenchPoint:
        passes = [self._timed_pass(n_nodes) for _ in range(TIMED_PASSES)]
        if len({kernel.trace_digest() for _, kernel, _ in passes}) != 1:
            raise RuntimeError(f"{n_nodes}-node timed passes dispatched different traces")
        sim, kernel, _ = passes[0]
        wall = statistics.median(wall for _, _, wall in passes)

        # Memory pass: same seeded experiment under the allocation tracer.
        tracing_already = tracemalloc.is_tracing()
        if not tracing_already:
            tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mem_sim = self._build(n_nodes)
        mem_sim.run(self.cycles)
        peak = tracemalloc.get_traced_memory()[1] - base
        if not tracing_already:
            tracemalloc.stop()

        return FleetBenchPoint(
            nodes=n_nodes,
            topology=sim.topology.name,
            cycles=sim.cycles_run,
            events=kernel.processed,
            sim_steps=sim.sim_steps,
            messages=sim.messages,
            payload_bytes=sim.payload_bytes,
            coverage=sim.coverage,
            wall_s=round(wall, 6),
            steps_per_s=round(sim.sim_steps / wall, 1) if wall > 0 else float("inf"),
            events_per_s=round(kernel.processed / wall, 1) if wall > 0 else float("inf"),
            peak_traced_bytes=max(0, int(peak)),
            trace_digest=kernel.trace_digest(),
        )

    def run(self) -> List[FleetBenchPoint]:
        return [self._measure(n) for n in self.sizes]


def write_fleet_bench(
    points: Sequence[FleetBenchPoint],
    path: str,
    *,
    seed: int,
    cycles: int,
    floor_steps_per_s: Optional[float] = None,
) -> Dict:
    """Serialize the scaling curve as the ``BENCH_fleet.json`` artifact."""
    doc = {
        "schema": SCHEMA,
        "seed": int(seed),
        "cycles": int(cycles),
        "unit": "sim node-steps per wall-clock second",
        "floor_steps_per_s": floor_steps_per_s,
        "points": [p.to_dict() for p in points],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc
