"""The thousand-node gossip scaling harness."""

import json

import pytest

from repro.sim.fleet_scale import (
    TIMED_PASSES,
    FleetScaleRunner,
    GossipFleetSim,
    write_fleet_bench,
)
from repro.sim.kernel import EventKernel


class TestGossipFleetSim:
    def test_rumor_spreads(self):
        sim = GossipFleetSim(128, seed=0)
        sim.run(30)
        assert sim.coverage > 0.25
        assert sim.cycles_run == 30
        assert sim.sim_steps == 128 * 30
        # Coverage only grows (an informed node never forgets).
        curve = sim.coverage_curve
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_deterministic_at_fixed_seed(self):
        a, b = GossipFleetSim(64, seed=9), GossipFleetSim(64, seed=9)
        ka, kb = a.run(20), b.run(20)
        assert ka.trace_digest() == kb.trace_digest()
        assert a.coverage_curve == b.coverage_curve
        assert a.messages == b.messages and a.payload_bytes == b.payload_bytes

    def test_seed_changes_dissemination(self):
        a, b = GossipFleetSim(64, seed=1), GossipFleetSim(64, seed=2)
        a.run(20), b.run(20)
        assert a.coverage_curve != b.coverage_curve

    def test_trace_digest_distinguishes_fleet_sizes(self):
        a, b = GossipFleetSim(64, seed=0), GossipFleetSim(128, seed=0)
        assert a.run(10).trace_digest() != b.run(10).trace_digest()

    def test_cycle_batched_delivery_lags_one_cycle(self):
        # After a single cycle nothing has been *delivered* inside the
        # horizon yet: sends from cycle t land at cycle t+1.
        sim = GossipFleetSim(32, seed=0)
        kernel = EventKernel()
        sim.schedule(kernel, 1)
        kernel.run()
        assert sim.coverage == 1 / 32  # still just patient zero
        sim._deliver()
        assert sim.coverage > 1 / 32

    def test_wire_accounting_is_positive_and_consistent(self):
        sim = GossipFleetSim(64, seed=0)
        sim.run(10)
        assert sim.messages > 0
        assert sim.payload_bytes % sim.messages == 0  # fixed per-message size

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="fanout"):
            GossipFleetSim(16, fanout=0)
        with pytest.raises(ValueError, match="even"):
            GossipFleetSim(16, degree=3)
        with pytest.raises(ValueError, match="smaller"):
            GossipFleetSim(4, degree=4)


class TestFleetScaleRunner:
    def _ticker(self):
        state = {"t": 0.0}

        def clock():
            state["t"] += 0.25
            return state["t"]

        return clock

    def test_sweep_produces_one_point_per_size(self, tmp_path):
        runner = FleetScaleRunner((32, 64), clock=self._ticker(), cycles=5)
        points = runner.run()
        assert [p.nodes for p in points] == [32, 64]
        for point in points:
            assert point.sim_steps == point.nodes * 5
            assert point.events == 2 * 5  # deliver + cycle per round
            assert point.steps_per_s > 0 and point.peak_traced_bytes > 0

        path = tmp_path / "BENCH_fleet.json"
        doc = write_fleet_bench(points, str(path), seed=0, cycles=5, floor_steps_per_s=1.0)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(doc))
        assert loaded["schema"] == "repro.fleet_bench/v1"
        assert len(loaded["points"]) == 2

    def test_reports_median_of_timed_passes(self):
        # One wall per timed pass; the memory pass never reads the clock.
        walls = iter([5.0, 1.0, 3.0, 2.0, 4.0, 7.0, 6.0])
        state = {"t": 0.0, "start": True}

        def clock():
            if not state["start"]:
                state["t"] += next(walls)
            state["start"] = not state["start"]
            return state["t"]

        (point,) = FleetScaleRunner((32,), clock=clock, cycles=5).run()
        assert TIMED_PASSES == 7
        assert point.wall_s == 4.0
        assert point.steps_per_s == round(point.sim_steps / 4.0, 1)

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError):
            FleetScaleRunner((), clock=self._ticker())
