"""Golden contract: the kernel-driven loops reproduce recorded runs exactly.

Every cluster, fleet and serving run is scheduled by the event kernel.
These tests pin its output at fixed seeds to values recorded before the
seed's hand-rolled loops were retired (the loops were pinned identical
to the kernel path until then), so any scheduling change that moves a
byte or a float bit fails here:

- cluster at 8 and 32 nodes: epochs completed, per-epoch per-node
  ``shared_payload_bytes`` and ``test_rmse`` bit patterns (``float.hex``),
  per-epoch per-node enclave crossings (``ecalls``, ``ocalls``,
  ``transition_bytes``) and ``total_network_bytes``;
- fleet simulator: every :class:`~repro.sim.recorder.EpochRecord` field,
  floats as ``float.hex``, plus the kernel trace digest;
- serving: the completion schedule of the one serving driver
  (:meth:`~repro.serve.fleet.balancer.FleetBalancer.run_trace`) on a
  one-endpoint fleet, and the fleet runner's serving kernel (event
  count and trace digest) plus its ``repro.serve-fleet/v1`` report.

Long per-node lists are pinned through a SHA-256 over their rows; the
totals next to each digest are pinned as literals so a failure shows
which quantity moved.
"""

import dataclasses
import hashlib

import pytest

from repro.core import CryptoMode, Dissemination, RexCluster, RexConfig, SharingScheme
from repro.data.partition import partition_users_across_nodes
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology
from repro.sim.fleet import MfFleetSim


def _rows_digest(rows):
    """SHA-256 over ``repr`` of each row, one row per line."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _config(n_nodes, epochs=3):
    # 32 enclaves x real AEAD is needless cipher work for a scheduling
    # golden test; ACCOUNTED mode is byte-identical on the wire.
    return RexConfig(
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        epochs=epochs,
        share_points=20,
        mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2),
        crypto_mode=CryptoMode.REAL if n_nodes <= 8 else CryptoMode.ACCOUNTED,
        seed=11,
    )


def _cluster_run(tiny_split, n_nodes):
    train = partition_users_across_nodes(tiny_split.train, n_nodes, seed=2)
    test = partition_users_across_nodes(tiny_split.test, n_nodes, seed=2)
    topology = (
        Topology.fully_connected(n_nodes)
        if n_nodes <= 8
        else Topology.small_world(n_nodes, k=6, seed=3)
    )
    cluster = RexCluster(topology, _config(n_nodes))
    return cluster.run(train, test, global_mean=tiny_split.train.global_mean())


#: n_nodes -> (epochs, per-epoch payload bytes summed over nodes,
#: total_network_bytes, digest of (epoch, node, payload bytes, rmse.hex()),
#: digest of (epoch, node, ecalls, ocalls, transition_bytes)).
CLUSTER_GOLDEN = {
    8: (
        3,
        [16576, 16576, 16576],
        64904,
        "24fdcd0588731ea4672fae6dda43469e285e1d235ec3ce73ac1a3dea1a6ac352",
        "08c399e5a22700a8e4782c2fb9f40159f27a2928ec76fba5a9b83b264536c85e",
    ),
    32: (
        3,
        [56832, 56832, 56832],
        206614,
        "fb1838a460833e681c0b6b1fb6d1ebdaac0126498d4854b2528a46ede1dc6086",
        "832435b0546b31535d7d070e18c9b15c812f07ffb3b8c7c4ea03373a4d18e93a",
    ),
}


@pytest.mark.parametrize("n_nodes", [8, 32])
def test_cluster_kernel_golden(tiny_split, n_nodes):
    epochs, payload_per_epoch, total_bytes, rows_digest, transitions_digest = (
        CLUSTER_GOLDEN[n_nodes]
    )
    run = _cluster_run(tiny_split, n_nodes)

    assert run.epochs_completed == epochs
    assert [
        sum(s.shared_payload_bytes for s in run.stats_for_epoch(epoch))
        for epoch in range(epochs)
    ] == payload_per_epoch
    assert run.total_network_bytes == total_bytes
    # Byte-identical per-node wire traffic and bit-equal RMSE, node by node.
    rows = [
        (epoch, s.node_id, s.shared_payload_bytes, s.test_rmse.hex())
        for epoch in range(epochs)
        for s in run.stats_for_epoch(epoch)
    ]
    assert len(rows) == epochs * n_nodes
    assert _rows_digest(rows) == rows_digest
    # The per-epoch enclave crossings the host hands to the SGX cost model.
    transitions = [
        (epoch, s.node_id, s.ecalls, s.ocalls, s.transition_bytes)
        for epoch in range(epochs)
        for s in run.stats_for_epoch(epoch)
    ]
    assert _rows_digest(transitions) == transitions_digest


# --------------------------------------------------------------------- #
# Fleet simulator: the kernel epoch chain.
# --------------------------------------------------------------------- #
FLEET_RECORDS_DIGEST = "62020b9244e361579fe2090fff59dbc73b23115f3de74bb3eb9990188fbf8265"
FLEET_CUM_BYTES = [11872, 23744, 35616, 47488, 59360]
FLEET_FINAL_RMSE_HEX = "0x1.2a5aad884d562p+0"
FLEET_TRACE_DIGEST = "e3b95e79d63990ec669f3c62782cae80ba4d40d5c59fff17c800bde5b1fbf5ea"


def _fleet_sim(tiny_split, n_nodes=8):
    train = partition_users_across_nodes(tiny_split.train, n_nodes, seed=2)
    test = partition_users_across_nodes(tiny_split.test, n_nodes, seed=2)
    config = RexConfig(
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        epochs=5,
        share_points=15,
        mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2),
    )
    return MfFleetSim(
        list(train),
        list(test),
        Topology.fully_connected(n_nodes),
        config,
        global_mean=tiny_split.train.global_mean(),
    )


def test_fleet_kernel_golden(tiny_split):
    result = _fleet_sim(tiny_split).run()
    assert [r.epoch for r in result.records] == [0, 1, 2, 3, 4]
    assert result.cum_bytes() == FLEET_CUM_BYTES
    assert result.records[-1].test_rmse.hex() == FLEET_FINAL_RMSE_HEX
    # Every EpochRecord field, floats by bit pattern.
    rows = [
        tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(r))
        for r in result.records
    ]
    assert _rows_digest(rows) == FLEET_RECORDS_DIGEST


def test_fleet_kernel_populates_event_trace(tiny_split):
    sim = _fleet_sim(tiny_split)
    sim.run()
    assert sim.kernel is not None
    assert sim.kernel.processed == 5  # one fleet.epoch event per epoch
    assert sim.kernel.trace_digest() == FLEET_TRACE_DIGEST
    # Same seed, same schedule -> same fingerprint.
    again = _fleet_sim(tiny_split)
    again.run()
    assert again.kernel.trace_digest() == sim.kernel.trace_digest()


# --------------------------------------------------------------------- #
# Serving: kernel-scheduled serve.fleet.route and serve.tick events.
# --------------------------------------------------------------------- #
SERVE_COMPLETIONS = 55
SERVE_TICKS = 30
SERVE_COMPLETIONS_DIGEST = (
    "7563039b7dd557cdd14bc63a38630151a2d6a77f8ea823caa1ead83c5fe69ae8"
)


def test_serve_trace_golden():
    from repro.serve.server import SHED_OLDEST, ServePolicy
    from repro.serve.workload import WorkloadGenerator, WorkloadSpec
    from repro.sim.kernel import EventKernel
    from tests.serve.test_server import _stub_endpoint

    trace = WorkloadGenerator(WorkloadSpec(seed=4, n_users=20, ticks=30, rate=2.0)).trace()
    # The driver on its own kernel, then on a caller-supplied one.
    for kernel in (None, EventKernel()):
        balancer, replica = _stub_endpoint(ServePolicy(queue_depth=8), len(trace))
        completions = balancer.run_trace(trace, ticks=SERVE_TICKS, kernel=kernel)

        assert len(completions) == SERVE_COMPLETIONS
        assert replica.server.tick == SERVE_TICKS
        assert replica.total("serve.shed", policy=SHED_OLDEST) == 0
        assert (
            _rows_digest((c.request_id, c.user, c.finish_s.hex()) for c in completions)
            == SERVE_COMPLETIONS_DIGEST
        )
    # One route event and one serve.tick (one shard) per tick.
    assert kernel.processed == 2 * SERVE_TICKS


#: The fleet runner's serving kernel and report for the ``test_fleet``
#: configuration: (kill plan?, events, kernel trace digest, report digest).
FLEET_SERVE_GOLDEN = [
    (
        False,
        600,
        "f203786f1035f3611c5c639e19a438049036801029bead4e6bcffd9da87b9dad",
        "887d0ba4180e504122bc2ef31bab0d71a2dfadbe644fa3828e3dd60135160159",
    ),
    (
        True,
        608,
        "15449c6c4ebc9b49224db6fbdf3ee4494d89aa50b2c369cfb7c100244ad70c01",
        "41b004b4bfa10d61557f27987256074a8083affbc95af21e8c7d10617928083c",
    ),
]


@pytest.mark.parametrize("kill,events,trace_digest,report_digest", FLEET_SERVE_GOLDEN)
def test_fleet_serve_kernel_golden(monkeypatch, kill, events, trace_digest, report_digest):
    import json

    import repro.serve.fleet.runner as runner
    from repro.sim.kernel import EventKernel
    from tests.serve.test_fleet import FLEET_KW, TRAFFIC

    kernels = []

    class CapturingKernel(EventKernel):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            kernels.append(self)

    monkeypatch.setattr(runner, "EventKernel", CapturingKernel)
    report = runner.run_fleet_experiment(
        **FLEET_KW, traffic=TRAFFIC, kill_one_replica_per_shard=kill
    )
    # 120 ticks x (one route + one serve.tick per shard), plus one crash
    # and one restart per shard under the kill plan.
    assert len(kernels) == 1
    assert kernels[0].processed == events
    assert kernels[0].trace_digest() == trace_digest
    doc = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == report_digest
