"""The four benchmark workloads, each one seeded run of the program.

A workload function takes the seed and a ``mark(name)`` callback.  It
builds every input from the seed, calls ``mark("setup_end")`` right
before its measured phase starts and ``mark("run_end")`` right after
it ends, and returns ``(work, fingerprint)``: the units of work the
measured phase completed and a function that extracts the outputs the
benchmark checks (called after tracing has been removed, because it
may enter enclaves).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.core.cluster import RexCluster
from repro.core.config import CryptoMode, Dissemination, RexConfig, SharingScheme
from repro.data.movielens import MOVIELENS_LATEST, generate_movielens
from repro.data.partition import partition_one_user_per_node, partition_users_across_nodes
from repro.net.topology import Topology
from repro.sim.fleet import MfFleetSim
from repro.sim.kernel import EventKernel

Mark = Callable[[str], None]
Result = Tuple[int, Callable[[], Dict[str, object]]]

#: Secure-cluster workloads: (scheme, nodes, epochs).
CLUSTERS = {
    "train-data-128": (SharingScheme.DATA, 128, 5),
    "train-model-32": (SharingScheme.MODEL, 32, 10),
}
SIM_NODES, SIM_EPOCHS = 610, 5
#: Sharded serving: shards x replicas, catalog, and the traffic trace.
SERVE = dict(shards=8, replicas=2, nodes=4, epochs=3, users=2000, items=400, ratings=60_000)
TRAFFIC = dict(ticks=1920, peak_rate=40.0, diurnal_period=960, day_night_ratio=4.0,
               flash_crowds=2)


def _split(seed: int):
    return generate_movielens(MOVIELENS_LATEST, seed=seed).split(0.7, seed=seed)


def secure_cluster(name: str, seed: int, mark: Mark) -> Result:
    """Secure ``RexCluster`` training with real AEAD and attestation."""
    scheme, nodes, epochs = CLUSTERS[name]
    split = _split(seed)
    train = partition_users_across_nodes(split.train, nodes, seed=seed)
    test = partition_users_across_nodes(split.test, nodes, seed=seed)
    config = RexConfig(
        scheme=scheme,
        dissemination=Dissemination.DPSGD,
        epochs=epochs,
        share_points=300,
        seed=seed,
        crypto_mode=CryptoMode.REAL,
    )
    cluster = RexCluster(Topology.small_world(nodes, k=4, seed=seed), config, secure=True)
    mark("setup_end")
    run = cluster.run(train, test, global_mean=split.train.global_mean())
    mark("run_end")
    work = sum(len(host.epoch_stats) for host in cluster.hosts)

    def fingerprint():
        rmse = float(np.mean([host.status()["test_rmse"] for host in cluster.hosts]))
        return {
            "wire_bytes": run.total_network_bytes,
            "messages": run.total_network_messages,
            "rmse_bits": rmse.hex(),
            "node_epochs": work,
        }

    return work, fingerprint


def fleet_sim(seed: int, mark: Mark) -> Result:
    """Analytic ``MfFleetSim``: MODEL sharing, one user per node."""
    split = _split(seed)
    topology = Topology.small_world(SIM_NODES, k=4, seed=seed)
    config = RexConfig(
        scheme=SharingScheme.MODEL,
        dissemination=Dissemination.DPSGD,
        epochs=SIM_EPOCHS,
        share_points=300,
        seed=seed,
    )
    sim = MfFleetSim(
        partition_one_user_per_node(split.train),
        partition_one_user_per_node(split.test),
        topology,
        config,
        global_mean=split.train.global_mean(),
    )
    mark("setup_end")
    result = sim.run()
    mark("run_end")
    work = SIM_NODES * len(result.records)

    def fingerprint():
        return {
            "wire_bytes": result.records[-1].cum_bytes,
            # D-PSGD sends one message per neighbor per node per epoch.
            "messages": int(topology.degrees.sum()) * len(result.records),
            "rmse_bits": float(result.records[-1].test_rmse).hex(),
            "node_epochs": work,
        }

    return work, fingerprint


def serve_fleet(seed: int, mark: Mark) -> Result:
    """Sharded serving with one replica per shard killed at peak.

    ``run_fleet_experiment`` trains, boots replicas and then serves from
    one call.  The serving phase starts when its serving kernel starts
    running, so the module's ``EventKernel`` name is pointed at a
    subclass that marks that instant; the training inside uses the
    fleet simulator's own kernel and is unaffected.
    """
    import repro.serve.fleet.runner as runner
    from repro.serve.workload import TrafficSpec

    class PhaseKernel(EventKernel):
        def run(self, **kwargs):
            mark("setup_end")
            return super().run(**kwargs)

    traffic = TrafficSpec(seed=seed, n_users=SERVE["users"], **TRAFFIC)
    original = vars(runner)["EventKernel"]
    runner.EventKernel = PhaseKernel
    try:
        report = runner.run_fleet_experiment(
            seed=seed, traffic=traffic, kill_one_replica_per_shard=True, **SERVE
        )
    finally:
        runner.EventKernel = original
    mark("run_end")

    def fingerprint():
        return {
            "trace_digest": report.trace_digest,
            "ring_digest": report.ring_digest,
            "offered": report.offered,
            "completed": report.completed,
            "shed": report.shed,
            "failover": report.failover,
            "routing_errors": report.routing_errors,
            "p99_ms_bits": (report.latency_s["p99"] * 1e3).hex(),
        }

    return report.completed, fingerprint


WORKLOADS: Dict[str, Callable[[int, Mark], Result]] = {
    "train-data-128": lambda seed, mark: secure_cluster("train-data-128", seed, mark),
    "train-model-32": lambda seed, mark: secure_cluster("train-model-32", seed, mark),
    "sim-model-610": fleet_sim,
    "serve-fleet-8x2": serve_fleet,
}
