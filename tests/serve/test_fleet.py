"""Sharded serving fleet: shards, failover, stale replicas, reports."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import CrashEvent
from repro.obs import Observability
from repro.serve.fleet import run_fleet_experiment
from repro.serve.fleet.balancer import FleetBalancer, FleetPolicy, ShardReplica
from repro.serve.fleet.router import HashRing
from repro.serve.fleet.shard import (
    ShardEnclaveApp,
    build_shard_payload,
    encode_shard_users,
)
from repro.serve.server import REJECT_NEWEST, SHED_OLDEST, ServePolicy
from repro.serve.snapshot import snapshot_from_arrays, encode_snapshot
from repro.sim.kernel import EventKernel
from repro.tee.attestation import AttestationService
from repro.tee.enclave import Platform
from repro.tee.errors import SnapshotReplayError

#: Small-but-real fleet configuration every test here shares.
FLEET_KW = dict(
    seed=3,
    shards=4,
    replicas=2,
    nodes=4,
    epochs=2,
    users=120,
    items=80,
    ratings=2_500,
)

from repro.serve.workload import TrafficSpec

TRAFFIC = TrafficSpec(
    seed=3, n_users=120, ticks=120, peak_rate=6.0, diurnal_period=120, flash_crowds=1
)


# --------------------------------------------------------------------- #
# Shard building blocks
# --------------------------------------------------------------------- #
def _toy_arrays(n_users=12, n_items=6, k=3):
    rng = np.random.default_rng(0)
    return dict(
        user_factors=rng.normal(size=(n_users, k)),
        item_factors=rng.normal(size=(n_items, k)),
        user_bias=rng.normal(size=n_users),
        item_bias=rng.normal(size=n_items),
        user_seen=np.ones(n_users, dtype=bool),
        item_seen=np.ones(n_items, dtype=bool),
        global_mean=3.0,
    )


def _load_shard(owned, version=1, n_users=12):
    arrays = _toy_arrays(n_users=n_users)
    wire, meta = build_shard_payload(
        arrays["user_factors"],
        arrays["item_factors"],
        arrays["user_bias"],
        arrays["item_bias"],
        arrays["user_seen"],
        arrays["item_seen"],
        arrays["global_mean"],
        np.asarray(owned, dtype=np.int64),
        version=version,
        shard_id=0,
    )
    platform = Platform("shard-test", AttestationService())
    enclave = platform.create_enclave(ShardEnclaveApp, "shard0")
    enclave.ecall(
        "ecall_load",
        {
            "snapshot": wire,
            "shard_users": encode_shard_users(np.asarray(owned, dtype=np.int64)),
            "require_newer": True,
        },
    )
    return enclave, meta


class TestShardEndpoint:
    def test_payload_slices_user_side_only(self):
        arrays = _toy_arrays(n_users=12, n_items=6)
        _, meta = build_shard_payload(
            arrays["user_factors"],
            arrays["item_factors"],
            arrays["user_bias"],
            arrays["item_bias"],
            arrays["user_seen"],
            arrays["item_seen"],
            arrays["global_mean"],
            np.array([2, 5, 7]),
            version=1,
            shard_id=0,
        )
        assert meta["n_users"] == 3  # sliced
        assert meta["n_items"] == 6  # replicated

    def test_serves_owned_global_ids_and_flags_unowned(self):
        owned = [2, 5, 7]
        enclave, _ = _load_shard(owned)
        reply = enclave.ecall("ecall_serve", [5, 9, 2], 3)
        # Owned users get real recommendations in request order.
        assert all(i >= 0 for i in reply["items"][0])
        assert all(i >= 0 for i in reply["items"][2])
        # The unowned user gets the empty sentinel, and is counted.
        assert reply["items"][1] == [-1, -1, -1]
        assert reply["stats"]["unowned"] == 1
        assert reply["stats"]["requests"] == 3
        status = enclave.ecall("ecall_shard_status")
        assert status["owned_users"] == 3
        assert status["unowned_queries"] == 1

    def test_translation_matches_unsharded_scoring(self):
        arrays = _toy_arrays(n_users=12, n_items=6)
        full = snapshot_from_arrays(
            arrays["user_factors"],
            arrays["item_factors"],
            arrays["user_bias"],
            arrays["item_bias"],
            arrays["user_seen"],
            arrays["item_seen"],
            arrays["global_mean"],
            version=1,
        )
        from repro.serve.endpoint import ServeEnclaveApp

        platform = Platform("full-test", AttestationService())
        reference = platform.create_enclave(ServeEnclaveApp, "full")
        reference.ecall("ecall_load", {"snapshot": encode_snapshot(full)})
        sharded, _ = _load_shard([2, 5, 7])
        want = reference.ecall("ecall_serve", [5, 7], 4)
        got = sharded.ecall("ecall_serve", [5, 7], 4)
        assert got["items"] == want["items"]
        np.testing.assert_allclose(got["scores"], want["scores"])

    def test_load_requires_owned_table(self):
        arrays = _toy_arrays()
        wire, _ = build_shard_payload(
            arrays["user_factors"],
            arrays["item_factors"],
            arrays["user_bias"],
            arrays["item_bias"],
            arrays["user_seen"],
            arrays["item_seen"],
            arrays["global_mean"],
            np.array([0, 1]),
            version=1,
            shard_id=0,
        )
        platform = Platform("shard-test2", AttestationService())
        enclave = platform.create_enclave(ShardEnclaveApp, "shard0")
        with pytest.raises(ValueError):
            enclave.ecall("ecall_load", {"snapshot": wire})


# --------------------------------------------------------------------- #
# End-to-end fleet runs
# --------------------------------------------------------------------- #
class TestFleetRuns:
    def test_reports_byte_identical_for_fixed_seed(self):
        a = run_fleet_experiment(**FLEET_KW, traffic=TRAFFIC)
        b = run_fleet_experiment(**FLEET_KW, traffic=TRAFFIC)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_clean_run_has_no_failover_and_loses_nothing(self):
        report = run_fleet_experiment(**FLEET_KW, traffic=TRAFFIC)
        assert report.crashes == 0 and report.failover == 0
        assert report.routing_errors == 0
        assert report.offered == report.completed + report.shed

    def test_crash_mid_peak_loses_zero_to_routing(self):
        """The acceptance scenario: one replica per shard dies at peak."""
        report = run_fleet_experiment(
            **FLEET_KW, traffic=TRAFFIC, kill_one_replica_per_shard=True
        )
        assert report.crashes == FLEET_KW["shards"]
        assert report.restarts == FLEET_KW["shards"]
        assert report.failover > 0  # peak traffic hit the dead replicas
        assert report.routing_errors == 0  # nothing misdelivered
        # Conservation: every offered request completed or was shed at
        # an admission bound -- none vanished with the crashed enclaves.
        assert report.offered == report.completed + report.shed

    def test_crashed_incarnation_keeps_its_counts(self):
        """A killed enclave's counts stay in the registry under its
        incarnation label, and the report sums them back up."""
        obs = Observability.create()
        crash = CrashEvent(node=0, at_epoch=60, restart_after_ticks=5)
        report = run_fleet_experiment(
            **FLEET_KW, traffic=TRAFFIC, crashes=(crash,), epc_cap_mib=0.01, obs=obs
        )
        m = obs.metrics

        def per_incarnation(name, shard, replica, incarnations):
            return [
                m.value(name, shard=shard, replica=replica, incarnation=i)
                for i in range(incarnations)
            ]

        first = dict(shard=0, replica=0, incarnation=0)
        assert m.value("serve.completed", **first) > 0
        assert m.value("serve.busy_s", **first) > 0
        assert m.value("serve.epc.page_faults", **first) > 0

        victim = report.per_shard[0]["replicas"][0]
        assert victim["incarnations"] == 2 and victim["crashes"] == 1
        assert victim["completed"] == sum(
            per_incarnation("serve.completed", 0, 0, 2)
        )
        replica_busy = []
        for shard in report.per_shard:
            for rep in shard["replicas"]:
                key = (shard["shard"], rep["replica"], rep["incarnations"])
                assert rep["completed"] == sum(per_incarnation("serve.completed", *key))
                replica_busy.append(sum(per_incarnation("serve.busy_s", *key), 0.0))
        assert report.completed == sum(
            rep["completed"] for shard in report.per_shard for rep in shard["replicas"]
        )
        # Incarnations first, then replicas shard by shard: the same bits.
        assert report.busy_s == sum(replica_busy)

    def test_per_shard_epc_caps_hold_while_aggregate_exceeds_them(self):
        report = run_fleet_experiment(**FLEET_KW, traffic=TRAFFIC)
        caps = [s["epc"]["cap_bytes"] for s in report.per_shard]
        for shard in report.per_shard:
            assert shard["epc"]["resident_bytes"] <= shard["epc"]["cap_bytes"]
        assert report.aggregate_resident_bytes > max(caps)

    def test_schema_and_identity_fields(self):
        report = run_fleet_experiment(**FLEET_KW, traffic=TRAFFIC)
        doc = report.to_dict()
        assert doc["schema"] == "repro.serve-fleet/v1"
        assert doc["ring_digest"] == HashRing(range(FLEET_KW["shards"])).digest()
        assert len(doc["per_shard"]) == FLEET_KW["shards"]
        assert all(len(s["replicas"]) == 2 for s in doc["per_shard"])
        assert report.format_lines()  # renders without raising

    def test_crash_without_restart_sheds_bounded(self):
        # Kill BOTH replicas of shard 0 permanently: its users' queries
        # defer, then shed at the drain grace window -- counted, bounded,
        # and the rest of the fleet keeps serving.
        crashes = (
            CrashEvent(node=0, at_epoch=10, restart_after_ticks=None),
            CrashEvent(node=1, at_epoch=10, restart_after_ticks=None),
        )
        report = run_fleet_experiment(**FLEET_KW, traffic=TRAFFIC, crashes=crashes)
        assert report.crashes == 2 and report.restarts == 0
        assert report.shed > 0
        assert report.offered == report.completed + report.shed


# --------------------------------------------------------------------- #
# Balancer-level failover mechanics (stub-free, real enclaves)
# --------------------------------------------------------------------- #
def _count(balancer, name):
    """One of the balancer's ``serve.fleet.*`` counters."""
    return balancer.metrics.value(f"serve.fleet.{name}")


def _mini_fleet(metrics=None, boot_version=None):
    """One shard, two replicas over toy arrays; returns the balancer.

    Incarnations boot on the shard's current snapshot, or always on
    ``boot_version`` when given (a host restarting from an old payload).
    """
    owned = np.arange(12, dtype=np.int64)
    arrays = _toy_arrays(n_users=12)

    def payload(version):
        wire, _ = build_shard_payload(
            arrays["user_factors"],
            arrays["item_factors"],
            arrays["user_bias"],
            arrays["item_bias"],
            arrays["user_seen"],
            arrays["item_seen"],
            arrays["global_mean"],
            owned,
            version=version,
            shard_id=0,
        )
        return {
            "snapshot": wire,
            "shard_users": encode_shard_users(owned),
            "require_newer": True,
        }

    ring = HashRing([0])
    policy = FleetPolicy(shard=ServePolicy(batch_window_ticks=1))
    replicas = []
    fleet = {}
    for r in range(2):
        platform = Platform(f"mini-r{r}", AttestationService())

        def factory(incarnation, _platform=platform, _r=r):
            # A fresh incarnation boots on the shard's current snapshot.
            enclave = _platform.create_enclave(
                ShardEnclaveApp, f"mini-shard0-r{_r}-i{incarnation}"
            )
            version = boot_version or fleet["balancer"].shard_version[0]
            return enclave, enclave.ecall("ecall_load", payload(version))

        replicas.append(
            ShardReplica(0, r, factory, policy=policy.shard, metrics=metrics)
        )
    balancer = fleet["balancer"] = FleetBalancer(
        ring, {0: replicas}, policy=policy, metrics=metrics
    )
    balancer.shard_version[0] = 1
    for replica in replicas:
        replica.boot(0)
    return balancer, replicas, payload


class TestFailoverMechanics:
    def test_kill_requeues_admitted_work(self):
        balancer, replicas, _ = _mini_fleet()
        for user in range(6):
            balancer.offer(user)
        balancer.route_pending()
        queued_before = balancer.queued_len
        assert queued_before == 6
        dead = replicas[0]
        moved = balancer.kill_replica(0, 0)
        assert moved == sum(1 for u in range(6) if u % 2 == 0)
        assert not dead.alive
        balancer.route_pending()
        balancer.step_shard(0)
        # Drain: everything completes on the survivor; nothing lost.
        while not balancer.idle():
            balancer.route_pending()
            balancer.step_shard(0)
        assert len(balancer.completions) == 6
        assert _count(balancer, "shed") == 0
        assert _count(balancer, "failover") >= moved

    def test_all_dead_defers_then_restart_recovers(self):
        balancer, replicas, _ = _mini_fleet()
        balancer.kill_replica(0, 0)
        balancer.kill_replica(0, 1)
        balancer.offer(4)
        balancer.route_pending()
        assert _count(balancer, "deferred") == 1 and balancer.pending_len == 1
        balancer.restart_replica(0, 1, tick=5)
        assert replicas[1].alive and replicas[1].version == 1
        assert replicas[1].incarnation == 2  # fresh enclave incarnation
        balancer.route_pending()
        while not balancer.idle():
            balancer.step_shard(0)
        assert len(balancer.completions) == 1

    def test_restart_on_old_payload_is_stale(self):
        """After a publish, a replica restarted on the v1 payload serves
        v1: it must be stale and out of routing, not routed as current."""
        balancer, replicas, payload = _mini_fleet(boot_version=1)
        balancer.publish(0, payload(3), 3)
        balancer.kill_replica(0, 1)
        balancer.restart_replica(0, 1, tick=5)
        reborn = replicas[1]
        served = reborn.server.enclave.ecall("ecall_shard_status")["version"]
        assert served == reborn.version == 1
        assert reborn.stale and not replicas[0].stale
        for user in range(6):
            balancer.offer(user)
        balancer.route_pending()
        assert reborn.server.queue_len == 0
        assert replicas[0].server.queue_len == 6

    def test_stale_replica_rejected_and_skipped(self):
        balancer, replicas, payload = _mini_fleet()
        # Both replicas took v1 at boot.  Replica 0's enclave has also
        # seen v3 (a direct host publish); the fleet-wide publish of v2
        # is a rollback *for it* -- the replay defense fires and the
        # balancer marks it stale.
        replicas[0].load(payload(3), 3)
        with pytest.raises(SnapshotReplayError):
            replicas[0].server.enclave.ecall("ecall_load", payload(2))
        balancer.publish(0, payload(2), 2)
        assert _count(balancer, "stale_rejected") == 1
        assert replicas[0].stale and not replicas[1].stale
        assert balancer.shard_version[0] == 2
        # Routing now avoids the stale replica entirely.
        for user in range(6):
            balancer.offer(user)
        balancer.route_pending()
        assert replicas[0].server.queue_len == 0
        assert replicas[1].server.queue_len == 6
        # Failover was counted for users whose preferred replica was 0.
        assert _count(balancer, "failover") == sum(1 for u in range(6) if u % 2 == 0)

    def test_fleet_counters_land_in_obs(self):
        obs = Observability.create()
        balancer, replicas, _ = _mini_fleet(metrics=obs.metrics)
        for user in range(4):
            balancer.offer(user)
        balancer.route_pending()
        balancer.kill_replica(0, 0)
        balancer.route_pending()
        while not balancer.idle():
            balancer.step_shard(0)
        assert obs.metrics.value("serve.fleet.routed") >= 4
        assert obs.metrics.value("serve.fleet.failover") >= 1

    def test_global_queue_bound_sheds(self):
        balancer, _, _ = _mini_fleet()
        small = FleetPolicy(queue_depth=2)
        balancer.policy = small
        assert balancer.offer(0) and balancer.offer(1)
        assert not balancer.offer(2)
        assert _count(balancer, "shed") == 1


_FLEET_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("publish"), st.integers(1, 6)),
        st.tuples(st.just("kill"), st.integers(0, 1)),
        st.tuples(st.just("restart"), st.integers(0, 1)),
    ),
    max_size=10,
)


class TestSnapshotVersions:
    @settings(max_examples=50, deadline=None)
    @given(_FLEET_OPS)
    def test_versions_only_move_forward(self, ops):
        """Publishes (forward, repeated or rolled back), crashes and
        restarts never move the shard's version back, every live replica
        is stale exactly when it serves another version, and routing
        never hands a stale replica a request."""
        balancer, replicas, payload = _mini_fleet()
        for tick, (op, arg) in enumerate(ops, start=1):
            before = balancer.shard_version[0]
            if op == "publish":
                balancer.publish(0, payload(arg), arg)
            elif op == "kill":
                balancer.kill_replica(0, arg)
            else:
                balancer.restart_replica(0, arg, tick=tick)
            current = balancer.shard_version[0]
            assert current >= before

            for replica in replicas:
                if not replica.alive:
                    continue
                served = replica.server.enclave.ecall("ecall_shard_status")["version"]
                assert served == replica.version
                assert replica.stale == (replica.version != current)

            queued = [r.server.queue_len if r.alive else 0 for r in replicas]
            for user in range(6):
                balancer.offer(user)
            balancer.route_pending()
            for replica, was in zip(replicas, queued):
                if replica.alive and replica.stale:
                    assert replica.server.queue_len == was
            balancer.shed_pending()  # no live fresh replica: drop, do not carry
            for _ in range(8):
                balancer.step_shard(0)


# --------------------------------------------------------------------- #
# The one serving driver: FleetBalancer.run_trace
# --------------------------------------------------------------------- #
_PROP_USERS = 24
_PROP_TICKS = 30


def _toy_fleet(shards, replicas, policy, metrics):
    """``shards`` x ``replicas`` toy-array shard enclaves; booted at v1."""
    arrays = _toy_arrays(n_users=_PROP_USERS)
    ring = HashRing(range(shards))
    replica_map = {}
    for shard, owned in ring.partition(_PROP_USERS).items():
        wire, _ = build_shard_payload(
            arrays["user_factors"],
            arrays["item_factors"],
            arrays["user_bias"],
            arrays["item_bias"],
            arrays["user_seen"],
            arrays["item_seen"],
            arrays["global_mean"],
            owned,
            version=1,
            shard_id=shard,
        )
        load = {"snapshot": wire, "shard_users": encode_shard_users(owned)}
        platform = Platform(f"prop-s{shard}", AttestationService(), metrics=metrics)

        def factory(incarnation, _platform=platform, _load=load, _s=shard):
            enclave = _platform.create_enclave(
                ShardEnclaveApp, f"prop-s{_s}-{len(_platform.enclaves)}"
            )
            return enclave, enclave.ecall("ecall_load", _load)

        replica_map[shard] = [
            ShardReplica(shard, r, factory, policy=policy.shard, metrics=metrics)
            for r in range(replicas)
        ]
    balancer = FleetBalancer(ring, replica_map, policy=policy, metrics=metrics)
    for shard, reps in replica_map.items():
        balancer.shard_version[shard] = 1
        for replica in reps:
            replica.boot(0)
    return balancer


@st.composite
def _fleet_runs(draw):
    shards = draw(st.integers(1, 5))
    replicas = draw(st.integers(1, 3))
    policy = FleetPolicy(
        queue_depth=draw(st.integers(1, 48)),
        shard=ServePolicy(
            queue_depth=draw(st.integers(1, 12)),
            max_batch=draw(st.integers(1, 6)),
            batch_window_ticks=draw(st.sampled_from([1, 2, 3, 80])),
            shed=draw(st.sampled_from([SHED_OLDEST, REJECT_NEWEST])),
        ),
    )
    arrivals = draw(
        st.lists(
            st.tuples(
                st.integers(0, _PROP_TICKS - 1), st.integers(0, _PROP_USERS - 1)
            ),
            max_size=80,
        )
    )
    trace = np.array(sorted(arrivals, key=lambda row: row[0]), dtype=np.int64)
    crashes = draw(
        st.lists(
            st.builds(
                CrashEvent,
                node=st.integers(0, shards * replicas - 1),
                at_epoch=st.integers(1, _PROP_TICKS + 5),
                restart_after_ticks=st.none() | st.integers(1, 12),
            ),
            max_size=4,
        )
    )
    return shards, replicas, policy, trace.reshape(-1, 2), tuple(crashes)


class TestRunTrace:
    @settings(max_examples=60, deadline=None)
    @given(_fleet_runs())
    def test_conserves_requests_and_never_misroutes(self, run):
        shards, replicas, policy, trace, crashes = run
        obs = Observability.create()
        balancer = _toy_fleet(shards, replicas, policy, obs.metrics)
        completions = balancer.run_trace(trace, ticks=_PROP_TICKS, crashes=crashes)
        assert _count(balancer, "offered") == len(trace)
        assert len(trace) == len(completions) + _count(balancer, "shed")
        assert balancer.idle()
        assert obs.metrics.value("serve.fleet.routing_errors") == 0

    def test_schedules_route_then_one_tick_per_shard(self):
        balancer = _toy_fleet(3, 1, FleetPolicy(), None)
        kernel = EventKernel()
        balancer.run_trace(np.array([[0, 1], [2, 5]]), ticks=4, kernel=kernel)
        assert kernel.processed == 4 * (1 + 3)
        assert len(balancer.completions) == 2

    def test_rejects_crash_outside_the_fleet(self):
        balancer = _toy_fleet(2, 2, FleetPolicy(), None)
        with pytest.raises(ValueError, match="outside the fleet"):
            balancer.run_trace(
                np.empty((0, 2), dtype=np.int64), ticks=1,
                crashes=(CrashEvent(node=4, at_epoch=1),),
            )

    def test_long_batch_window_drains_instead_of_shedding(self):
        # A window longer than the drain's stall grace must not strand
        # queued work: the valve sheds only what no live replica holds.
        policy = FleetPolicy(shard=ServePolicy(batch_window_ticks=100))
        balancer = _toy_fleet(1, 1, policy, None)
        balancer.run_trace(np.array([[0, 3], [1, 4]]), ticks=2)
        assert len(balancer.completions) == 2
        assert _count(balancer, "shed") == 0 and balancer.idle()
