"""One-call train -> shard -> serve fleet pipeline (``repro serve --fleet``).

This module deliberately plays every role in one process: it trains the
fleet (:func:`train_fleet_model`, the *same* model the single-endpoint
pipeline in :mod:`repro.serve.runner` serves for a given seed),
partitions users across shards with the consistent-hash ring, publishes
each shard's sliced snapshot into ``replicas`` serving enclaves on
per-shard EPC platforms, drives a production traffic trace through
:meth:`~repro.serve.fleet.balancer.FleetBalancer.run_trace`, optionally
kills and restarts replicas mid-run (reusing
:class:`~repro.faults.plan.CrashEvent`, with ``at_epoch`` meaning the
*serve tick* of the kill), and condenses everything into a
:class:`~repro.serve.fleet.report.FleetServeReport`.

Every per-tick action runs as an event on the shared
:class:`~repro.sim.kernel.EventKernel`; within a tick, event keys order
faults (rank 0) before routing (rank 1) before shard serving (rank 2),
so a replica killed at tick ``t`` hands its queue back *before* that
tick's arrivals route -- which is what makes "zero admitted requests
lost to a crash" hold deterministically.

Shared module: it orchestrates trusted shard enclaves and untrusted
routing in one process, exactly like :mod:`repro.sim`.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.config import Dissemination, RexConfig, SharingScheme
from repro.data.movielens import MovieLensSpec, generate_movielens
from repro.data.partition import partition_users_across_nodes
from repro.faults.plan import CrashEvent
from repro.ml.mf import MfHyperParams
from repro.net.serialization import encode_triplets
from repro.net.topology import Topology
from repro.obs import Observability
from repro.serve.costing import ServeCostModel
from repro.serve.fleet.balancer import FleetBalancer, FleetPolicy, ShardReplica
from repro.serve.fleet.report import FleetServeReport
from repro.serve.fleet.router import DEFAULT_VNODES, HashRing
from repro.serve.fleet.shard import (
    ShardEnclaveApp,
    build_shard_payload,
    encode_shard_users,
)
from repro.serve.report import ServeReport
from repro.serve.workload import TrafficModel, TrafficSpec, trace_digest
from repro.sim.fleet import MfFleetSim
from repro.sim.kernel import EventKernel
from repro.tee.attestation import AttestationService
from repro.tee.cost_model import SGX1_COST_MODEL, SgxCostModel
from repro.tee.enclave import Platform
from repro.tee.epc import EpcModel

__all__ = [
    "run_fleet_experiment",
    "kill_one_per_shard_plan",
    "node_params",
    "train_fleet_model",
]

_MIB = float(1024 * 1024)

#: Default head-room factor when deriving the per-shard EPC cap from the
#: largest shard's snapshot footprint (leaves room for the exclusion
#: index and the pinned hot cache on top of the snapshot itself).
_EPC_CAP_FACTOR = 2.0


def _build_data(users: int, items: int, ratings: int, nodes: int, data_seed: int):
    spec = MovieLensSpec(
        name=f"serve-{users}u",
        n_ratings=ratings,
        n_items=items,
        n_users=users,
        last_updated=2020,
    )
    split = generate_movielens(spec, seed=data_seed).split(0.7, seed=1)
    train = partition_users_across_nodes(split.train, nodes, seed=2)
    test = partition_users_across_nodes(split.test, nodes, seed=2)
    return split, list(train), list(test)


def train_fleet_model(
    *,
    seed: int,
    nodes: int,
    epochs: int,
    users: int,
    items: int,
    ratings: int,
    mf_k: int,
    share_points: int = 100,
    data_seed: int = 42,
):
    """Train the fleet sim every serving path publishes snapshots from.

    Returns ``(sim, split)``: the finished fleet simulation (its per-node
    parameter arrays are what gets published) and the train/test split
    (exclusion ratings and quality probes).  Shared by the
    single-endpoint pipeline and the sharded fleet runner, so both serve
    the *same* model for a given seed.
    """
    split, train, test = _build_data(users, items, ratings, nodes, data_seed=data_seed)
    topology = Topology.fully_connected(nodes)
    config = RexConfig(
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        epochs=epochs,
        share_points=share_points,
        seed=seed,
        mf=MfHyperParams(k=mf_k),
    )
    sim = MfFleetSim(
        train, test, topology, config, global_mean=split.train.global_mean()
    )
    sim.run()
    return sim, split


def node_params(sim: MfFleetSim, node_id: int) -> tuple:
    """The arrays node ``node_id`` publishes, in snapshot-builder order.

    Returns ``(user_factors, item_factors, user_bias, item_bias,
    user_seen, item_seen, global_mean)``.  Raises :class:`ValueError`
    unless ``0 <= node_id < nodes`` (a negative id would otherwise
    silently index another node's model).
    """
    if not 0 <= node_id < sim.n_nodes:
        raise ValueError(f"node id {node_id} outside the fleet's {sim.n_nodes} nodes")
    return (
        sim.XU[node_id],
        sim.YI[node_id],
        sim.BU[node_id],
        sim.BI[node_id],
        sim.SU[node_id],
        sim.SI[node_id],
        sim.global_mean,
    )


def kill_one_per_shard_plan(
    shards: int,
    replicas: int,
    *,
    at_tick: int,
    restart_after_ticks: Optional[int] = 8,
) -> Tuple[CrashEvent, ...]:
    """One mid-run crash per shard (the fleet acceptance scenario).

    ``CrashEvent.node`` is reused as the *global replica index*
    ``shard * replicas + replica`` and ``at_epoch`` as the serve tick of
    the kill.  The victim replica rotates (``shard % replicas``) so the
    plan exercises more than replica 0.
    """
    return tuple(
        CrashEvent(
            node=shard * replicas + (shard % replicas),
            at_epoch=max(1, int(at_tick)),
            restart_after_ticks=restart_after_ticks,
        )
        for shard in range(int(shards))
    )


def run_fleet_experiment(
    *,
    seed: int = 0,
    shards: int = 4,
    replicas: int = 2,
    nodes: int = 4,
    epochs: int = 3,
    users: int = 240,
    items: int = 160,
    ratings: int = 6_000,
    mf_k: int = 16,
    node_id: int = 0,
    traffic: Optional[TrafficSpec] = None,
    policy: Optional[FleetPolicy] = None,
    costs: Optional[ServeCostModel] = None,
    sgx: SgxCostModel = SGX1_COST_MODEL,
    vnodes: int = DEFAULT_VNODES,
    epc_cap_mib: Optional[float] = None,
    crashes: Tuple[CrashEvent, ...] = (),
    kill_one_replica_per_shard: bool = False,
    restart_after_ticks: Optional[int] = 8,
    obs: Optional[Observability] = None,
) -> FleetServeReport:
    """Run one seeded sharded-serving experiment; returns the report.

    Everything derives from ``seed`` (training, partitioning, traffic,
    timing), so two identical invocations produce byte-identical
    reports.  ``kill_one_replica_per_shard`` injects the acceptance
    fault plan: one replica per shard dies at the traffic peak and
    re-joins ``restart_after_ticks`` later.
    """
    if shards < 1 or replicas < 1:
        raise ValueError("need at least one shard and one replica")
    if obs is None:
        obs = Observability.create()
    if policy is None:
        policy = FleetPolicy()
    if traffic is None:
        traffic = TrafficSpec(seed=seed, n_users=users)
    if traffic.n_users > users:
        raise ValueError("traffic cannot query more users than the dataset has")

    model = TrafficModel(traffic)
    peak = model.peak_tick()
    trace = model.trace()
    if kill_one_replica_per_shard:
        crashes = crashes + kill_one_per_shard_plan(
            shards, replicas, at_tick=peak, restart_after_ticks=restart_after_ticks
        )

    # ------------------------------------------------------------------ #
    # Train once, slice per shard.
    # ------------------------------------------------------------------ #
    sim, split = train_fleet_model(
        seed=seed,
        nodes=nodes,
        epochs=epochs,
        users=users,
        items=items,
        ratings=ratings,
        mf_k=mf_k,
    )
    params = node_params(sim, node_id)
    ring = HashRing(range(shards), vnodes=vnodes)
    partition = ring.partition(users)

    version = 1
    load_args: Dict[int, dict] = {}
    shard_meta: Dict[int, dict] = {}
    for shard, owned in partition.items():
        wire, meta = build_shard_payload(
            *params,
            owned,
            version=version,
            shard_id=shard,
            epoch=epochs,
        )
        load_args[shard] = {
            "snapshot": wire,
            # Only the shard's own users' global histories: exclusion is
            # per-user, and this shard serves exactly these users.
            "ratings": encode_triplets(split.train.restrict_users(owned)),
            "shard_users": encode_shard_users(owned),
            "require_newer": True,
        }
        shard_meta[shard] = meta

    # Per-shard EPC cap: every shard must fit, none gets the aggregate.
    if epc_cap_mib is None:
        largest = max(m["resident_bytes"] for m in shard_meta.values())
        epc_cap_mib = max(1.0 / 64.0, _EPC_CAP_FACTOR * largest / _MIB)
    epc_cap_mib = float(epc_cap_mib)

    # ------------------------------------------------------------------ #
    # Stand up the fleet.
    # ------------------------------------------------------------------ #
    def _boot(platform: Platform, shard: int, replica: int, incarnation: int):
        enclave = platform.create_enclave(
            ShardEnclaveApp, f"shard{shard}-r{replica}-i{incarnation}"
        )
        return enclave, enclave.ecall("ecall_load", load_args[shard])

    replica_map: Dict[int, List[ShardReplica]] = {}
    for shard in ring.shard_ids:
        reps: List[ShardReplica] = []
        for r in range(replicas):
            platform = Platform(
                f"fleet-s{shard}-r{r}",
                AttestationService(),
                epc=EpcModel(total_mib=epc_cap_mib, usable_mib=epc_cap_mib),
                metrics=obs.metrics,
            )
            reps.append(
                ShardReplica(
                    shard,
                    r,
                    partial(_boot, platform, shard, r),
                    policy=policy.shard,
                    costs=costs,
                    sgx=sgx,
                    epc=platform.epc,
                    metrics=obs.metrics,
                )
            )
        replica_map[shard] = reps

    balancer = FleetBalancer(ring, replica_map, policy=policy, metrics=obs.metrics)
    for shard in ring.shard_ids:
        balancer.shard_version[shard] = version
        for replica in replica_map[shard]:
            replica.boot(0)

    # The serving kernel is built here, through this module's name, so
    # callers can swap in an instrumented subclass.
    balancer.run_trace(
        trace, ticks=traffic.ticks, crashes=crashes, kernel=EventKernel()
    )

    # ------------------------------------------------------------------ #
    # Report.
    # ------------------------------------------------------------------ #
    # Every admission, time and fault count is read back from the registry;
    # replica totals sum incarnations, fleet totals sum replicas shard by shard.
    metrics = obs.metrics
    completions = balancer.completions
    latencies = [c.latency_s for c in completions]
    duration = max((c.finish_s for c in completions), default=0.0)
    all_replicas = [r for reps in replica_map.values() for r in reps]

    def count(name: str, **labels: object) -> int:
        return int(metrics.value(f"serve.fleet.{name}", **labels))

    per_shard = []
    for shard in ring.shard_ids:
        reps = replica_map[shard]
        resident = max(r.resident_bytes for r in reps)
        cap = reps[0].epc_share_bytes
        per_shard.append(
            {
                "shard": shard,
                "users": int(len(partition[shard])),
                "snapshot_digest": shard_meta[shard]["digest"],
                "epc": {
                    "resident_bytes": int(resident),
                    "cap_bytes": cap,
                    "overcommit": resident / cap if cap else 0.0,
                    "page_faults": sum(r.total("serve.epc.page_faults") for r in reps),
                },
                "replicas": [
                    {
                        "replica": r.replica_id,
                        "alive": r.alive,
                        "version": r.version,
                        "incarnations": r.incarnation,
                        "crashes": count("crashes", **r.labels),
                        "restarts": count("restarts", **r.labels),
                        "completed": int(r.total("serve.completed")),
                    }
                    for r in reps
                ],
            }
        )
    return FleetServeReport(
        seed=seed,
        shards=shards,
        replicas_per_shard=replicas,
        traffic=traffic.to_dict(),
        trace_digest=trace_digest(trace),
        ring_digest=ring.digest(),
        policy=policy.to_dict(),
        offered=count("offered"),
        routed=count("routed"),
        failover=count("failover"),
        shed=count("shed"),
        deferred=count("deferred"),
        stale_rejected=count("stale_rejected"),
        routing_errors=count("routing_errors"),
        completed=sum(int(r.total("serve.completed")) for r in all_replicas),
        duration_s=duration,
        throughput_rps=len(completions) / duration if duration > 0 else 0.0,
        busy_s=sum(r.total("serve.busy_s") for r in all_replicas),
        latency_s=ServeReport.latency_summary(latencies),
        crashes=int(metrics.total("serve.fleet.crashes")),
        restarts=int(metrics.total("serve.fleet.restarts")),
        per_shard=per_shard,
    )
