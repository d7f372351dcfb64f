"""One-call train -> publish -> serve pipeline (behind ``repro serve``).

Like :mod:`repro.sim`, this module deliberately plays every role in one
process -- it trains a fleet, publishes a node's snapshot, stands up a
serving enclave on a fresh platform, serves a seeded workload through
it as the one replica of a one-shard fleet (the same
:meth:`~repro.serve.fleet.balancer.FleetBalancer.run_trace` driver
``repro serve --fleet`` uses), probes ranking quality against the
held-out split, and condenses everything into a
:class:`~repro.serve.report.ServeReport`.

Every step is seeded: the synthetic dataset, the fleet training run, the
workload trace and all simulated timing derive from the one ``seed``
argument, so two identical invocations produce byte-identical reports
(the determinism acceptance test pins this).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.metrics import ndcg_at_k, precision_at_k, recall_at_k
from repro.net.serialization import encode_triplets
from repro.obs import Observability
from repro.serve.endpoint import ServeEnclaveApp
from repro.serve.fleet.balancer import FleetBalancer, FleetPolicy, ShardReplica
from repro.serve.fleet.router import HashRing
from repro.serve.fleet.runner import node_params, train_fleet_model
from repro.serve.report import ServeReport
from repro.serve.server import ServeCostModel, ServePolicy
from repro.serve.snapshot import encode_snapshot, snapshot_from_arrays
from repro.serve.workload import WorkloadGenerator, WorkloadSpec, trace_digest
from repro.tee.attestation import AttestationService
from repro.tee.cost_model import SGX1_COST_MODEL, SgxCostModel
from repro.tee.enclave import Enclave, Platform
from repro.tee.epc import EpcModel

__all__ = ["run_serving_experiment", "train_and_load"]

#: Held-out ratings at or above this are "relevant" for ranking quality.
RELEVANCE_THRESHOLD = 4.0

#: How many users the post-load quality probe scores.
QUALITY_PROBE_USERS = 50


def train_and_load(
    *,
    seed: int = 0,
    nodes: int = 8,
    epochs: int = 4,
    users: int = 60,
    items: int = 180,
    ratings: int = 3_000,
    mf_k: int = 16,
    share_points: int = 100,
    node_id: int = 0,
    epc: Optional[EpcModel] = None,
    topn_capacity: Optional[int] = None,
    hot_capacity: Optional[int] = None,
    obs: Optional[Observability] = None,
):
    """Train a fleet, publish one node's snapshot into a serving enclave.

    Returns ``(enclave, meta, split, platform)``: the loaded serving
    enclave, the sanitized snapshot metadata dict it reported back, the
    train/test split (for exclusions already shipped and for quality
    probes), and the platform whose EPC model governs paging.
    """
    if obs is None:
        obs = Observability.create()
    sim, split = train_fleet_model(
        seed=seed,
        nodes=nodes,
        epochs=epochs,
        users=users,
        items=items,
        ratings=ratings,
        mf_k=mf_k,
        share_points=share_points,
    )

    snapshot = snapshot_from_arrays(
        *node_params(sim, node_id),
        version=1,
        node_id=node_id,
        epoch=epochs,
    )
    platform = Platform(
        "serve-platform",
        AttestationService(),
        epc=epc,
        metrics=obs.metrics,
    )
    enclave = platform.create_enclave(ServeEnclaveApp, f"serve-{node_id}")
    load_args = {
        "snapshot": encode_snapshot(snapshot),
        # The user's *global* training history drives exclusion: an item
        # rated anywhere must never be recommended back.
        "ratings": encode_triplets(split.train),
    }
    if topn_capacity is not None:
        load_args["topn_capacity"] = topn_capacity
    if hot_capacity is not None:
        load_args["hot_capacity"] = hot_capacity
    meta = enclave.ecall("ecall_load", load_args)
    return enclave, meta, split, platform


def _probe_quality(enclave: Enclave, split, top_k: int) -> dict:
    """Score served top-K lists against the held-out split."""
    test = split.test
    relevant: dict = {}
    for user, item, rating in zip(test.users, test.items, test.ratings):
        if rating >= RELEVANCE_THRESHOLD:
            relevant.setdefault(int(user), set()).add(int(item))
    probe_users = sorted(relevant)[:QUALITY_PROBE_USERS]
    if not probe_users:
        return {}
    reply = enclave.ecall("ecall_serve", probe_users, top_k)
    precisions, recalls, ndcgs = [], [], []
    for row, user in enumerate(probe_users):
        recommended = reply["items"][row]
        precisions.append(precision_at_k(recommended, relevant[user], top_k))
        recalls.append(recall_at_k(recommended, relevant[user], top_k))
        ndcgs.append(ndcg_at_k(recommended, relevant[user], top_k))
    return {
        f"precision_at_{top_k}": float(np.nanmean(precisions)),
        f"recall_at_{top_k}": float(np.nanmean(recalls)),
        f"ndcg_at_{top_k}": float(np.nanmean(ndcgs)),
        "probed_users": float(len(probe_users)),
    }


def run_serving_experiment(
    *,
    seed: int = 0,
    nodes: int = 8,
    epochs: int = 4,
    users: int = 60,
    items: int = 180,
    ratings: int = 3_000,
    mf_k: int = 16,
    node_id: int = 0,
    workload: Optional[WorkloadSpec] = None,
    policy: Optional[ServePolicy] = None,
    costs: Optional[ServeCostModel] = None,
    sgx: SgxCostModel = SGX1_COST_MODEL,
    epc: Optional[EpcModel] = None,
    topn_capacity: Optional[int] = None,
    hot_capacity: Optional[int] = None,
    quality_probe: bool = True,
    obs: Optional[Observability] = None,
) -> ServeReport:
    """Run one seeded end-to-end serving experiment; returns the report."""
    if obs is None:
        obs = Observability.create()
    if policy is None:
        policy = ServePolicy()
    if workload is None:
        workload = WorkloadSpec(seed=seed, n_users=users)
    if workload.n_users > users:
        raise ValueError("workload cannot query more users than the dataset has")
    enclave, meta, split, platform = train_and_load(
        seed=seed,
        nodes=nodes,
        epochs=epochs,
        users=users,
        items=items,
        ratings=ratings,
        mf_k=mf_k,
        node_id=node_id,
        epc=epc,
        topn_capacity=topn_capacity,
        hot_capacity=hot_capacity,
        obs=obs,
    )
    trace = WorkloadGenerator(workload).trace()

    # Serve as the one replica of a one-shard fleet.  The front door is
    # sized to the whole trace, so only the endpoint's own policy sheds.
    replica = ShardReplica(
        0,
        0,
        lambda _incarnation: (enclave, meta),
        policy=policy,
        costs=costs,
        sgx=sgx,
        epc=platform.epc,
        metrics=obs.metrics,
    )
    balancer = FleetBalancer(
        HashRing([0]),
        {0: [replica]},
        policy=FleetPolicy(queue_depth=max(1, len(trace)), shard=policy),
        metrics=obs.metrics,
    )
    replica.boot(0)
    completions = balancer.run_trace(trace, ticks=workload.ticks)

    # Cache effectiveness of the *load phase* only: the quality probe
    # below would otherwise pollute the counters it is reported next to.
    metrics = obs.metrics
    cache = {
        "hits": metrics.value("serve.cache.hits", cache="topn"),
        "misses": metrics.value("serve.cache.misses", cache="topn"),
        "evictions": metrics.value("serve.cache.evictions", cache="topn"),
        "embedding_hits": metrics.value("serve.cache.hits", cache="embedding"),
        "embedding_misses": metrics.value("serve.cache.misses", cache="embedding"),
    }
    resident = float(enclave.memory.resident_bytes)
    epc_stats = {
        "page_faults": replica.total("serve.epc.page_faults"),
        "resident_bytes": resident,
        "overcommit_ratio": platform.epc.overcommit_ratio(resident),
        "share_bytes": platform.epc.share_bytes,
    }

    quality = _probe_quality(enclave, split, policy.top_k) if quality_probe else {}

    latencies = [c.latency_s for c in completions]
    duration = max((c.finish_s for c in completions), default=0.0)
    return ServeReport(
        seed=seed,
        nodes=nodes,
        node_id=node_id,
        snapshot_digest=meta["digest"],
        snapshot_version=meta["version"],
        workload=workload.to_dict(),
        trace_digest=trace_digest(trace),
        policy=policy.to_dict(),
        k=policy.top_k,
        offered=int(replica.total("serve.offered")),
        admitted=int(replica.total("serve.admitted")),
        shed=int(replica.total("serve.shed", policy=policy.shed)),
        completed=int(replica.total("serve.completed")),
        duration_s=duration,
        throughput_rps=len(completions) / duration if duration > 0 else 0.0,
        busy_s=replica.total("serve.busy_s"),
        latency_s=ServeReport.latency_summary(latencies),
        cache=cache,
        epc=epc_stats,
        quality=quality,
    )
