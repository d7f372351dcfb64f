"""Which program calls the traced run wraps, and the per-layer metrics.

Each hook names the attribute the *caller* resolves: a module global in
the calling module (``repro.core.app.seal_all``, not
``repro.core.channel.seal_all``) or a method on the class the caller's
instance belongs to.  ``PER_LAYER`` is the fixed metric list a traced
run reports on every workload; a layer that does not run on a workload
reports 0, which is the "no change expected" prediction made visible.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from spans import Hook

#: Event kinds the workloads dispatch through ``EventKernel.step``.
KERNEL_KINDS = (
    "cluster.pump",
    "fleet.epoch",
    "serve.fleet.route",
    "serve.tick",
    "faults.crash",
    "faults.restart",
)


def _len_arg(index: int):
    return lambda args, kwargs, pre: len(args[index])


def _ecall_bytes_before(args):
    return args[0].counters.ecall_bytes


def _ecall_bytes(args, kwargs, before):
    return args[0].counters.ecall_bytes - before


def _sealed_bytes(args, kwargs, pre):
    return sum(len(plaintext) for _, plaintext, _ in args[0])


def _event_kind(event):
    return None if event is None else event.kind


SPAN_HOOKS: Tuple[Hook, ...] = (
    Hook("repro.tee.enclave:measure_class", "tee.measure"),
    Hook("repro.tee.crypto.x25519:x25519", "tee.x25519"),
    Hook("repro.tee.attestation:MutualAttestation.process_peer_quote", "tee.attest"),
    Hook("repro.tee.enclave:Enclave.ecall", "tee.ecall",
         pre=_ecall_bytes_before, size=_ecall_bytes),
    Hook("repro.core.app:seal_all", "channel.seal", size=_sealed_bytes,
         value=lambda result, args, pre: len(result)),
    Hook("repro.core.channel:SecureChannel.open", "channel.open", size=_len_arg(1)),
    Hook("repro.core.app:encode_triplets_into", "codec.encode"),
    Hook("repro.core.app:encode_mf_state_into", "codec.encode"),
    Hook("repro.core.app:encode_dnn_state_into", "codec.encode"),
    Hook("repro.core.app:decode_triplets", "codec.decode", size=_len_arg(0)),
    Hook("repro.core.app:decode_mf_state", "codec.decode", size=_len_arg(0)),
    Hook("repro.core.app:decode_dnn_state", "codec.decode", size=_len_arg(0)),
    Hook("repro.net.transport:Endpoint.send", "net.send", size=_len_arg(2)),
    Hook("repro.net.transport:Endpoint.poll", "net.poll",
         value=lambda result, args, pre: len(result)),
    Hook("repro.core.store:DataStore.append_unique", "store.dedup", size=_len_arg(1),
         value=lambda result, args, pre: result),
    Hook("repro.core.store:DataStore.sample", "store.sample"),
    Hook("repro.ml.mf:MatrixFactorization.__init__", "mf.init"),
    Hook("repro.ml.mf:MatrixFactorization.train_epoch", "mf.train",
         value=lambda result, args, pre: result),
    Hook("repro.ml.mf:MatrixFactorization.evaluate_rmse", "mf.eval"),
    Hook("repro.ml.mf:MatrixFactorization.merge_weighted", "mf.merge"),
    Hook("repro.ml.mf:MatrixFactorization.merge_average", "mf.merge"),
    Hook("repro.sim.kernel:EventKernel.step", "kernel.step", tag=_event_kind),
    Hook("repro.sim.fleet:sgd_step", "fleet.sgd"),
    Hook("repro.sim.fleet:FleetStores.append_unique", "fleet.stores"),
    Hook("repro.sim.fleet:FleetStores.append_all", "fleet.stores"),
    Hook("repro.sim.fleet:FleetStores.sample_ids", "fleet.stores"),
    Hook("repro.sim.fleet:FleetStores.gather", "fleet.stores"),
    Hook("repro.serve.fleet.balancer:FleetBalancer.offer", "balancer.offer"),
    Hook("repro.serve.fleet.balancer:FleetBalancer.route_pending", "balancer.route"),
    Hook("repro.serve.fleet.balancer:FleetBalancer.step_shard", "balancer.step"),
    Hook("repro.serve.endpoint:batched_top_k", "scoring.top_k", size=_len_arg(5)),
)

#: Sub-microsecond hot calls: counted, never timed in the run.
COUNT_HOOKS: Tuple[Hook, ...] = (
    Hook("repro.obs.registry:MetricsRegistry.counter", "obs.counter"),
    Hook("repro.serve.fleet.router:HashRing.route", "router.route"),
    Hook("repro.serve.cache:TopNCache.lookup", "cache.topn",
         hit=lambda result: result is not None),
)

#: (metric, unit) for every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("tee.measure.calls", "count"),
    ("tee.measure.s", "s"),
    ("tee.x25519.calls", "count"),
    ("tee.x25519.s", "s"),
    ("tee.attest.quotes", "count"),
    ("tee.attest.self_s", "s"),
    ("tee.ecall.calls", "count"),
    ("tee.ecall.self_s", "s"),
    ("tee.ecall.bytes", "bytes"),
    ("channel.seal.calls", "count"),
    ("channel.seal.bytes", "bytes"),
    ("channel.seal.s", "s"),
    ("channel.open.calls", "count"),
    ("channel.open.bytes", "bytes"),
    ("channel.open.s", "s"),
    ("channel.open.failed", "count"),
    ("codec.encode.s", "s"),
    ("codec.decode.s", "s"),
    ("codec.decode.bytes", "bytes"),
    ("net.messages", "count"),
    ("net.bytes", "bytes"),
    ("net.send.self_s", "s"),
    ("store.dedup.checked", "count"),
    ("store.dedup.appended", "count"),
    ("store.dedup.useful_ratio", "ratio"),
    ("store.dedup.s", "s"),
    ("store.sample.s", "s"),
    ("mf.train.s", "s"),
    ("mf.train.samples", "count"),
    ("mf.merge.calls", "count"),
    ("mf.merge.s", "s"),
    ("mf.eval.s", "s"),
    ("mf.init.s", "s"),
    ("obs.counter.calls", "count"),
    ("obs.counter.s", "s"),
    *((f"kernel.events.{kind}", "count") for kind in KERNEL_KINDS),
    ("kernel.step.self_s", "s"),
    ("fleet.sgd.s", "s"),
    ("fleet.stores.s", "s"),
    ("fleet.epoch.self_s", "s"),
    ("router.route.calls", "count"),
    ("router.route.s", "s"),
    ("balancer.offered", "count"),
    ("balancer.failover", "count"),
    ("balancer.shed", "count"),
    ("balancer.route.self_s", "s"),
    ("balancer.step.self_s", "s"),
    ("scoring.top_k.calls", "count"),
    ("scoring.users", "count"),
    ("scoring.top_k.s", "s"),
    ("cache.topn.hits", "count"),
    ("cache.topn.misses", "count"),
    ("cache.topn.hit_ratio", "ratio"),
    ("cache.lookup.s", "s"),
    ("trace.spans", "count"),
    ("trace.setup.wall_s", "s"),
    ("trace.setup.unattributed_s", "s"),
    ("trace.run.wall_s", "s"),
    ("trace.run.unattributed_s", "s"),
    ("trace.wrapper_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    summary: Dict[str, dict],
    counts: Dict[str, List],
    costs: Dict[str, float],
    balancer: Dict[str, int],
) -> Dict[str, float]:
    """Per-layer metric values of one traced iteration.

    ``summary`` is :meth:`Tracer.summary`, ``counts`` the tracer's count
    slots, ``costs`` its replayed per-call seconds, ``balancer`` the
    serving report's offered/failover/shed totals (empty off serving).
    The ``trace.*`` phase metrics are filled in by the worker.
    """
    def row(name: str) -> dict:
        return summary.get(name, {
            "calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0, "value": 0,
            "failed": 0, "tags": {},
        })

    def calls(name: str) -> int:
        return counts[name][0] if name in counts else 0

    def hits(name: str) -> int:
        return counts[name][1] if name in counts else 0

    encode, decode = row("codec.encode"), row("codec.decode")
    dedup, kernel = row("store.dedup"), row("kernel.step")
    topn_calls, topn_hits = calls("cache.topn"), hits("cache.topn")
    tags = kernel["tags"]
    out = {
        "tee.measure.calls": row("tee.measure")["calls"],
        "tee.measure.s": row("tee.measure")["total_s"],
        "tee.x25519.calls": row("tee.x25519")["calls"],
        "tee.x25519.s": row("tee.x25519")["total_s"],
        "tee.attest.quotes": row("tee.attest")["calls"],
        "tee.attest.self_s": row("tee.attest")["self_s"],
        "tee.ecall.calls": row("tee.ecall")["calls"],
        "tee.ecall.self_s": row("tee.ecall")["self_s"],
        "tee.ecall.bytes": row("tee.ecall")["size"],
        "channel.seal.calls": row("channel.seal")["value"],
        "channel.seal.bytes": row("channel.seal")["size"],
        "channel.seal.s": row("channel.seal")["total_s"],
        "channel.open.calls": row("channel.open")["calls"],
        "channel.open.bytes": row("channel.open")["size"],
        "channel.open.s": row("channel.open")["total_s"],
        "channel.open.failed": row("channel.open")["failed"],
        "codec.encode.s": encode["total_s"],
        "codec.decode.s": decode["total_s"],
        "codec.decode.bytes": decode["size"],
        "net.messages": row("net.send")["calls"],
        "net.bytes": row("net.send")["size"],
        "net.send.self_s": row("net.send")["self_s"],
        "store.dedup.checked": dedup["size"],
        "store.dedup.appended": dedup["value"],
        "store.dedup.useful_ratio": _ratio(dedup["value"], dedup["size"]),
        "store.dedup.s": dedup["total_s"],
        "store.sample.s": row("store.sample")["total_s"],
        "mf.train.s": row("mf.train")["total_s"],
        "mf.train.samples": row("mf.train")["value"],
        "mf.merge.calls": row("mf.merge")["calls"],
        "mf.merge.s": row("mf.merge")["total_s"],
        "mf.eval.s": row("mf.eval")["total_s"],
        "mf.init.s": row("mf.init")["total_s"],
        "obs.counter.calls": calls("obs.counter"),
        "obs.counter.s": calls("obs.counter") * costs.get("obs.counter", 0.0),
        "kernel.step.self_s": kernel["self_s"],
        "fleet.sgd.s": row("fleet.sgd")["total_s"],
        "fleet.stores.s": row("fleet.stores")["total_s"],
        "fleet.epoch.self_s": tags.get("fleet.epoch", (0, 0.0))[1],
        "router.route.calls": calls("router.route"),
        "router.route.s": calls("router.route") * costs.get("router.route", 0.0),
        "balancer.offered": balancer.get("offered", 0),
        "balancer.failover": balancer.get("failover", 0),
        "balancer.shed": balancer.get("shed", 0),
        "balancer.route.self_s": row("balancer.route")["self_s"],
        "balancer.step.self_s": row("balancer.step")["self_s"],
        "scoring.top_k.calls": row("scoring.top_k")["calls"],
        "scoring.users": row("scoring.top_k")["size"],
        "scoring.top_k.s": row("scoring.top_k")["total_s"],
        "cache.topn.hits": topn_hits,
        "cache.topn.misses": topn_calls - topn_hits,
        "cache.topn.hit_ratio": _ratio(topn_hits, topn_calls),
        "cache.lookup.s": topn_calls * costs.get("cache.topn", 0.0),
    }
    for kind in KERNEL_KINDS:
        out[f"kernel.events.{kind}"] = tags.get(kind, (0, 0.0))[0]
    return out
