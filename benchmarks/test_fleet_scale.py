"""Fleet-scale benchmark -- writes ``BENCH_fleet.json``.

The paper's scale result is its 610-node MF fleet (Fig. 1): one user per
node, D-PSGD on a small world, every node merging only with its graph
neighbours.  This lane runs exactly that fleet on
:class:`~repro.sim.fleet.MfFleetSim` under both sharing schemes and
gates the wall-clock speed of the simulator on it:

- synthetic MovieLens-Latest, split 0.7, seed 0;
- :func:`~repro.data.partition.partition_one_user_per_node`, 610 nodes;
- ``Topology.small_world(610, k=4, seed=0)``;
- D-PSGD, ``share_points=300``, 5 epochs, DATA and MODEL.

The MODEL run is the configuration of perfbench's ``sim-model-610``
workload, so its RMSE pin is that workload's seed-0 pin.

Per scheme, :data:`TIMED_PASSES` passes each build a fresh sim outside
the clock and run it inside; the report carries the median
node-epochs/s.  Every pass must dispatch the same kernel trace
(``kernel.trace_digest()``) and end on the pinned final test RMSE
(``float.hex``).  One extra untimed pass runs under :mod:`tracemalloc`
for the peak traced bytes of building and running the sim (the tracer
slows execution, so it never touches the throughput number).

**One BLAS thread.**  The dense MODEL merge sums in an order that
follows BLAS threading, so the MODEL pin holds only with
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS``
set to 1 (the DATA bits do not depend on it).  The ``fleet-sim-bench``
CI job sets all three.

Sizes, epochs, floors and pins are constants of this file; the JSON
artifact is uploaded by the ``fleet-sim-bench`` CI job.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import tracemalloc

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.core.config import Dissemination, RexConfig, SharingScheme
from repro.data.movielens import MOVIELENS_LATEST, generate_movielens
from repro.data.partition import partition_one_user_per_node
from repro.net.topology import Topology
from repro.sim.fleet import MfFleetSim

OUTPUT = "BENCH_fleet.json"
SCHEMA = "repro.fleet_sim_bench/v1"

SEED = 0
NODES = 610
EPOCHS = 5
SHARE_POINTS = 300
TIMED_PASSES = 7
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Final test RMSE of every pass, exact.
RMSE_PINS = {
    SharingScheme.DATA: "0x1.16b02a582ca25p+0",
    SharingScheme.MODEL: "0x1.16ad697ebd72cp+0",
}
#: Median node-epochs/s floors.  A 2-core x86 host with one BLAS thread
#: measures ~2,150-2,300 (DATA) and ~360-390 (MODEL); the floors sit
#: 2.4-2.6x under that.
FLOOR_NODE_EPOCHS_PER_S = {SharingScheme.DATA: 900.0, SharingScheme.MODEL: 150.0}
#: Ceilings on the peak traced MiB of one build + run: 1.24x the
#: measured 311 MiB (DATA) and 994 MiB (MODEL).  Traced bytes count the
#: NumPy and Python heap only, not the interpreter or BLAS buffers.
PEAK_CEILING_MIB = {SharingScheme.DATA: 385.0, SharingScheme.MODEL: 1230.0}


def _build(scheme: SharingScheme, split) -> MfFleetSim:
    config = RexConfig(
        scheme=scheme,
        dissemination=Dissemination.DPSGD,
        epochs=EPOCHS,
        share_points=SHARE_POINTS,
        seed=SEED,
    )
    return MfFleetSim(
        partition_one_user_per_node(split.train),
        partition_one_user_per_node(split.test),
        Topology.small_world(NODES, k=4, seed=SEED),
        config,
        global_mean=split.train.global_mean(),
    )


def _timed_pass(scheme: SharingScheme, split):
    """(wall s, node-epochs, trace digest, final RMSE bits) of one fresh sim."""
    sim = _build(scheme, split)
    t0 = time.perf_counter()
    result = sim.run()
    wall = time.perf_counter() - t0
    return (
        wall,
        NODES * len(result.records),
        sim.kernel.trace_digest(),
        float(result.records[-1].test_rmse).hex(),
    )


def _peak_mib(scheme: SharingScheme, split) -> float:
    """Peak traced MiB of building and running one sim."""
    tracemalloc.start()
    try:
        _build(scheme, split).run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _measure(scheme: SharingScheme, split) -> dict:
    passes = [_timed_pass(scheme, split) for _ in range(TIMED_PASSES)]
    digests = {digest for _, _, digest, _ in passes}
    if len(digests) != 1:
        raise RuntimeError(f"{scheme.name} timed passes dispatched different traces: {digests}")
    rmse_bits = {bits for _, _, _, bits in passes}
    if len(rmse_bits) != 1:
        raise RuntimeError(f"{scheme.name} timed passes ended on different RMSEs: {rmse_bits}")
    walls = [wall for wall, _, _, _ in passes]
    node_epochs = passes[0][1]
    return {
        "scheme": scheme.name,
        "node_epochs": node_epochs,
        "wall_s": [round(w, 4) for w in walls],
        "median_wall_s": round(statistics.median(walls), 4),
        "node_epochs_per_s": round(node_epochs / statistics.median(walls), 1),
        "rmse_bits": passes[0][3],
        "trace_digest": passes[0][2],
        "peak_traced_mib": round(_peak_mib(scheme, split), 1),
    }


def test_fleet_sim_610():
    split = generate_movielens(MOVIELENS_LATEST, seed=SEED).split(0.7, seed=SEED)
    lanes = {scheme: _measure(scheme, split) for scheme in RMSE_PINS}

    doc = {
        "schema": SCHEMA,
        "seed": SEED,
        "nodes": NODES,
        "epochs": EPOCHS,
        "share_points": SHARE_POINTS,
        "timed_passes": TIMED_PASSES,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "unit": "node-epochs per wall-clock second (median of timed passes)",
        "floors": {s.name: FLOOR_NODE_EPOCHS_PER_S[s] for s in lanes},
        "peak_ceiling_mib": {s.name: PEAK_CEILING_MIB[s] for s in lanes},
        "lanes": [lanes[s] for s in lanes],
    }
    with open(OUTPUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    emit(
        format_table(
            ["scheme", "median s", "node-epochs/s", "floor", "peak MiB", "rmse", "trace"],
            [
                [
                    lane["scheme"],
                    f"{lane['median_wall_s']:.2f}",
                    f"{lane['node_epochs_per_s']:,.0f}",
                    f"{FLOOR_NODE_EPOCHS_PER_S[s]:,.0f}",
                    f"{lane['peak_traced_mib']:.0f}",
                    lane["rmse_bits"],
                    lane["trace_digest"][:12],
                ]
                for s, lane in lanes.items()
            ],
            title=f"MfFleetSim, {NODES} nodes x {EPOCHS} epochs (artifact: {OUTPUT})",
        )
    )

    threads = ", ".join(f"{var}={os.environ.get(var)}" for var in BLAS_THREAD_VARS)
    for scheme, lane in lanes.items():
        assert lane["node_epochs"] == NODES * EPOCHS
        assert lane["rmse_bits"] == RMSE_PINS[scheme], (
            f"{scheme.name} final RMSE moved: {lane['rmse_bits']} != {RMSE_PINS[scheme]} "
            f"(the pins hold with one BLAS thread; here {threads})"
        )
        assert lane["node_epochs_per_s"] >= FLOOR_NODE_EPOCHS_PER_S[scheme], (
            f"{scheme.name} fleet sim regressed: {lane['node_epochs_per_s']:,.0f} "
            f"node-epochs/s, below the {FLOOR_NODE_EPOCHS_PER_S[scheme]:,.0f} floor"
        )
        assert lane["peak_traced_mib"] <= PEAK_CEILING_MIB[scheme], (
            f"{scheme.name} fleet sim memory grew: {lane['peak_traced_mib']:.1f} MiB "
            f"peak, above the {PEAK_CEILING_MIB[scheme]:.1f} MiB ceiling"
        )
