"""Fleet-scaling benchmark -- writes ``BENCH_fleet.json``.

Not a paper figure: the paper's evaluation stops near 100 nodes, and the
ROADMAP's north star needs evidence that the event kernel sustains
1k-10k node fleets.  This file sweeps the kernel-driven gossip
experiment across fleet sizes (256/1k/4k by default) and records nodes
vs sim-steps/s and peak resident bytes.

The JSON artifact is uploaded by the ``fleet-bench`` CI job, which fails
if whole-fleet scheduling throughput drops below a pinned floor.  Knobs
for slower hardware / different lanes:

- ``REPRO_BENCH_FLEET_SIZES``  comma-separated fleet sizes (CI runs the
  256-node point; the full 256/1k/4k curve is the local default)
- ``REPRO_BENCH_FLEET_FLOOR_SPS``  sim-steps/s floor (default 1.5M; a
  2-core x86 host measures a 6-10M median at 256 nodes)
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.sim.fleet_scale import FleetScaleRunner, write_fleet_bench

OUTPUT = "BENCH_fleet.json"

SIZES = [
    int(s)
    for s in os.environ.get("REPRO_BENCH_FLEET_SIZES", "256,1024,4096").split(",")
    if s.strip()
]
CYCLES = int(os.environ.get("REPRO_BENCH_FLEET_CYCLES", "40"))

#: Whole-fleet scheduling throughput floor (sim node-steps per second),
#: checked against each size's median of seven timed passes.  A 2-core
#: x86 host measures 6-10M steps/s at 256 nodes and more at larger sizes;
#: the floor sits 4-7x under that, close enough to fail on a real
#: regression and far enough for a noisy shared CI runner.
FLOOR_SPS = float(os.environ.get("REPRO_BENCH_FLEET_FLOOR_SPS", "1500000"))


def test_fleet_scaling_curve():
    runner = FleetScaleRunner(SIZES, clock=time.perf_counter, cycles=CYCLES, seed=0)
    points = runner.run()
    doc = write_fleet_bench(
        points, OUTPUT, seed=0, cycles=CYCLES, floor_steps_per_s=FLOOR_SPS
    )
    assert json.loads(json.dumps(doc))["schema"] == "repro.fleet_bench/v1"

    rows = [
        [
            str(p.nodes),
            f"{p.steps_per_s:,.0f}",
            f"{p.peak_traced_bytes / 1e6:.2f}",
            f"{p.coverage:.3f}",
            p.trace_digest[:12],
        ]
        for p in points
    ]
    emit(
        format_table(
            ["nodes", "sim-steps/s", "peak MB", "coverage", "trace"],
            rows,
            title=f"Fleet scaling, {CYCLES} cycles/size (artifact: {OUTPUT})",
        )
    )

    # Every point is a real, seeded experiment that actually disseminated.
    for point in points:
        assert point.sim_steps == point.nodes * CYCLES
        assert point.messages > 0 and point.coverage > 1.0 / point.nodes

    slowest = min(points, key=lambda p: p.steps_per_s)
    assert slowest.steps_per_s >= FLOOR_SPS, (
        f"fleet scheduling regressed: {slowest.nodes}-node fleet ran "
        f"{slowest.steps_per_s:,.0f} sim-steps/s, below the {FLOOR_SPS:,.0f} floor"
    )
