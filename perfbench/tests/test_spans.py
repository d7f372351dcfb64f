"""Self-tests of the benchmark's outside-in tracer.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import sys
import time
import types

import numpy as np
import pytest

import layers
from spans import SPAN_FIELDS, Hook, Tracer, resolve

from repro.core.cluster import RexCluster
from repro.core.config import CryptoMode, Dissemination, RexConfig, SharingScheme
from repro.data.movielens import MovieLensSpec, generate_movielens
from repro.data.partition import partition_users_across_nodes
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology

BENCHMARK_JSON = os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json")
ALL_HOOKS = layers.SPAN_HOOKS + layers.COUNT_HOOKS


def test_wrap_and_restore_leaves_every_attribute_identical():
    before = {hook.target: vars(resolve(hook.target)[0])[resolve(hook.target)[1]]
              for hook in ALL_HOOKS}
    tracer = Tracer().install(layers.SPAN_HOOKS, layers.COUNT_HOOKS)
    try:
        for hook in ALL_HOOKS:
            owner, attr = resolve(hook.target)
            assert vars(owner)[attr] is not before[hook.target], hook.target
            assert vars(owner)[attr].__wrapped__ is before[hook.target]
    finally:
        tracer.restore()
    for hook in ALL_HOOKS:
        owner, attr = resolve(hook.target)
        assert vars(owner)[attr] is before[hook.target], hook.target


def test_failed_install_restores_what_it_patched():
    original = vars(resolve(layers.SPAN_HOOKS[0].target)[0])[
        resolve(layers.SPAN_HOOKS[0].target)[1]]
    with pytest.raises(AttributeError):
        Tracer().install((layers.SPAN_HOOKS[0], Hook("repro.ml.mf:no_such_name", "x")))
    owner, attr = resolve(layers.SPAN_HOOKS[0].target)
    assert vars(owner)[attr] is original


@pytest.fixture
def synthetic_module():
    """A module whose ``outer`` calls ``inner`` twice through globals."""
    mod = types.ModuleType("perfbench_synthetic")
    exec(
        "import time\n"
        "def inner(n):\n"
        "    time.sleep(0.002)\n"
        "    return n\n"
        "def outer():\n"
        "    time.sleep(0.003)\n"
        "    return inner(1) + inner(2)\n"
        "def boom():\n"
        "    raise ValueError('x')\n",
        mod.__dict__,
    )
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_nested_spans_self_time_and_containment(synthetic_module):
    hooks = (
        Hook("perfbench_synthetic:outer", "outer"),
        Hook("perfbench_synthetic:inner", "inner", value=lambda result, args, pre: result),
    )
    with Tracer().install(hooks) as tracer:
        assert synthetic_module.outer() == 3
    spans = {s[0]: dict(zip(SPAN_FIELDS, s)) for s in tracer.spans}
    (outer,) = [s for s in spans.values() if s["name"] == "outer"]
    inners = [s for s in spans.values() if s["name"] == "inner"]
    assert len(inners) == 2 and outer["parent"] == 0
    for span in spans.values():
        assert 0.0 <= span["self_s"] <= span["t1"] - span["t0"]
    for child in inners:
        assert child["parent"] == outer["id"]
        assert outer["t0"] <= child["t0"] <= child["t1"] <= outer["t1"]
    children = sum(c["t1"] - c["t0"] for c in inners)
    assert outer["self_s"] == pytest.approx(outer["t1"] - outer["t0"] - children)
    assert outer["self_s"] >= 0.003 * 0.9
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2 and summary["inner"]["value"] == 3
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self == pytest.approx(outer["t1"] - outer["t0"])


def test_failed_call_is_recorded_and_stack_unwinds(synthetic_module):
    hooks = (Hook("perfbench_synthetic:boom", "boom"),
             Hook("perfbench_synthetic:inner", "inner"))
    with Tracer().install(hooks) as tracer:
        with pytest.raises(ValueError):
            synthetic_module.boom()
        synthetic_module.inner(1)
    boom, inner = tracer.spans
    assert boom[8] is False and inner[8] is True
    assert inner[1] == 0  # the failed span left the stack


def test_count_hooks_read_no_clock(synthetic_module):
    reads = []

    def clock():
        reads.append(1)
        return time.perf_counter()

    hooks = (Hook("perfbench_synthetic:inner", "inner", hit=lambda result: result > 1),)
    tracer = Tracer(clock=clock).install(count_hooks=hooks)
    try:
        for n in range(5):
            synthetic_module.inner(n)
    finally:
        tracer.restore()
    assert reads == []
    assert tracer.counts["inner"][:2] == [5, 3]
    assert tracer.replay_costs(calls=3, repeats=1)["inner"] > 0


def _tiny_cluster(traced: bool, scheme: SharingScheme):
    spec = MovieLensSpec(name="tiny", n_ratings=1_200, n_items=60, n_users=24,
                         last_updated=2020)
    split = generate_movielens(spec, seed=5).split(0.7, seed=5)
    train = partition_users_across_nodes(split.train, 4, seed=5)
    test = partition_users_across_nodes(split.test, 4, seed=5)
    config = RexConfig(scheme=scheme, dissemination=Dissemination.DPSGD, epochs=2,
                       share_points=20, seed=5, crypto_mode=CryptoMode.REAL,
                       mf=MfHyperParams(k=4, batch_size=16, batches_per_epoch=2))
    cluster = RexCluster(Topology.fully_connected(4), config, secure=True)
    tracer = Tracer().install(layers.SPAN_HOOKS, layers.COUNT_HOOKS) if traced else None
    try:
        run = cluster.run(train, test, global_mean=split.train.global_mean())
    finally:
        if tracer is not None:
            tracer.restore()
    rmse = float(np.mean([host.status()["test_rmse"] for host in cluster.hosts]))
    return (run.total_network_bytes, run.total_network_messages, rmse.hex()), tracer


@pytest.mark.parametrize("scheme", [SharingScheme.DATA, SharingScheme.MODEL])
def test_tracing_never_changes_program_output(scheme):
    plain, _ = _tiny_cluster(False, scheme)
    traced, tracer = _tiny_cluster(True, scheme)
    assert traced == plain
    metrics = layers.layer_metrics(tracer.summary(), tracer.counts, {}, {})
    assert metrics["net.bytes"] == plain[0]
    assert metrics["net.messages"] == plain[1]
    assert metrics["tee.x25519.calls"] > 0 and metrics["channel.open.calls"] > 0


def test_benchmark_json_lists_every_per_layer_metric():
    with open(BENCHMARK_JSON) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(layers.PER_LAYER)
    names = set(layers.layer_metrics({}, {}, {}, {})) | {
        name for name, _ in layers.PER_LAYER if name.startswith("trace.")}
    assert names == {name for name, _ in layers.PER_LAYER}
