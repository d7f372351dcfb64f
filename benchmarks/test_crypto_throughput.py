"""Crypto throughput microbenchmark -- writes ``BENCH_crypto.json``.

Not a paper figure: this file tracks the performance trajectory of the
RFC 8439 stack that every ``CryptoMode.REAL`` experiment pays for.  It
measures MB/s per primitive across one shared message-size grid (every
primitive covers every declared size -- a regression test asserts the
artifact can never silently diverge again), locates the numpy kernel's
scalar/vector dispatch crossover (see :mod:`repro.tee.crypto.tuning`),
and times a secure vs accounted :class:`~repro.core.cluster.RexCluster`
run on identical wire traffic.

The JSON artifact is uploaded by the ``crypto-bench`` CI job, which
fails if AEAD seal or open throughput at the largest size drops below a
pinned floor (``REPRO_BENCH_SEAL_FLOOR_MBPS``) on the resolved backend.
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.core import CryptoMode, Dissemination, RexCluster, RexConfig, SharingScheme
from repro.data.movielens import MovieLensSpec, generate_movielens
from repro.data.partition import partition_users_across_nodes
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology
from repro.tee.crypto.aead import ChaCha20Poly1305
from repro.tee.crypto.backend import aead_backend, native_available
from repro.tee.crypto.chacha20 import chacha20_encrypt
from repro.tee.crypto.fastchacha import chacha20_xor
from repro.tee.crypto.poly1305 import poly1305_mac
from repro.tee.crypto.tuning import measure_crossover

OUTPUT = "BENCH_crypto.json"

#: One sweep grid for every primitive.  ``sizes_bytes`` in the artifact
#: and the per-primitive sample keys are asserted to match exactly.
SIZES = [1024, 16384, 262144, 1048576]


def _default_seal_floor() -> float:
    """Backend-aware floor on seal and open at the largest size: OpenSSL-
    backed hosts must clear a much higher bar than the portable NumPy
    kernel (reference container: ~2.8 GB/s native, ~150 MB/s numpy at
    1 MiB)."""
    return 1000.0 if native_available() else 40.0


SEAL_FLOOR_MBPS = float(
    os.environ.get("REPRO_BENCH_SEAL_FLOOR_MBPS", "") or _default_seal_floor()
)

KEY = bytes(range(32))
NONCE = bytes(12)


def _throughput(fn, payload: bytes, *, reps: int = 0) -> float:
    """Best-of-N MB/s for ``fn(payload)`` (N adapted to payload size)."""
    reps = reps or max(3, (1 << 21) // max(1, len(payload)))
    best = None
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(payload)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return len(payload) / best / 1e6


def _sweep(fn, *, reps_cap: int = 0) -> dict:
    out = {}
    for size in SIZES:
        payload = bytes(i % 256 for i in range(size))
        reps = min(reps_cap, max(3, (1 << 21) // size)) if reps_cap else 0
        out[str(size)] = round(_throughput(fn, payload, reps=reps), 2)
    return out


def _cluster_smoke() -> dict:
    """Secure vs accounted wall-clock on an 8-node model-sharing run."""
    spec = MovieLensSpec(name="tiny", n_ratings=1600, n_items=120, n_users=40, last_updated=2020)
    split = generate_movielens(spec, seed=11).split(0.7, seed=3)
    train = partition_users_across_nodes(split.train, 8, seed=2)
    test = partition_users_across_nodes(split.test, 8, seed=2)
    topo = Topology.fully_connected(8)
    results = {}
    for label, mode in (("secure", CryptoMode.REAL), ("accounted", CryptoMode.ACCOUNTED)):
        config = RexConfig(
            scheme=SharingScheme.MODEL,
            dissemination=Dissemination.DPSGD,
            epochs=3,
            crypto_mode=mode,
            mf=MfHyperParams(k=8, batch_size=16, batches_per_epoch=2),
        )
        t0 = time.perf_counter()
        run = RexCluster(topo, config, secure=True).run(
            train, test, global_mean=split.train.global_mean()
        )
        results[label] = {
            "wall_s": round(time.perf_counter() - t0, 3),
            "network_bytes": run.total_network_bytes,
            "network_messages": run.total_network_messages,
        }
    # The ACCOUNTED channel is size-faithful: the cipher must not change
    # a single wire byte count, only the wall-clock.
    assert results["secure"]["network_bytes"] == results["accounted"]["network_bytes"]
    assert results["secure"]["network_messages"] == results["accounted"]["network_messages"]
    return results


def test_crypto_throughput():
    cipher = ChaCha20Poly1305(KEY)
    # The scalar reference runs ~0.5 MB/s by design; cap its reps so the
    # MB-scale points don't dominate the whole benchmark's wall-clock.
    sweeps = {
        "chacha20_scalar": _sweep(
            lambda p: chacha20_encrypt(KEY, 1, NONCE, p), reps_cap=3
        ),
        "chacha20_vector": _sweep(lambda p: chacha20_xor(KEY, 1, NONCE, p)),
        "poly1305": _sweep(lambda p: poly1305_mac(KEY, p)),
        "aead_seal": _sweep(lambda p: cipher.encrypt(NONCE, p)),
        "aead_open": {},
    }
    for size in SIZES:
        wire = cipher.encrypt(NONCE, bytes(i % 256 for i in range(size)))
        sweeps["aead_open"][str(size)] = round(
            _throughput(lambda _p, _w=wire: cipher.decrypt(NONCE, _w), b"\x00" * size), 2
        )

    # Grid consistency: every primitive covers exactly the declared grid.
    for name, sweep in sweeps.items():
        assert sorted(sweep) == sorted(str(s) for s in SIZES), (
            f"{name} was not measured on the declared sizes_bytes grid: "
            f"{sorted(sweep)} != {sorted(str(s) for s in SIZES)}"
        )

    crossover = measure_crossover(time.perf_counter)
    cluster = _cluster_smoke()

    doc = {
        "unit": "MB/s",
        "sizes_bytes": SIZES,
        "backend": aead_backend(),
        "native_available": native_available(),
        "primitives": sweeps,
        "dispatch_crossover_bytes": crossover["threshold"],
        "cluster_smoke": cluster,
        "seal_floor_mbps": SEAL_FLOOR_MBPS,
    }
    with open(OUTPUT, "w") as fh:
        json.dump(doc, fh, indent=2)

    rows = []
    for name, sweep in sweeps.items():
        for size, mbps in sweep.items():
            rows.append([name, size, f"{mbps:.1f}"])
    rows.append(["dispatch crossover", str(crossover["threshold"]), "bytes"])
    rows.append(["cluster secure", "-", f"{cluster['secure']['wall_s']:.3f} s"])
    rows.append(["cluster accounted", "-", f"{cluster['accounted']['wall_s']:.3f} s"])
    emit(
        format_table(
            ["primitive", "message bytes", "MB/s"],
            rows,
            title=f"Crypto throughput (backend: {doc['backend']}, artifact: {OUTPUT})",
        )
    )

    for name in ("aead_seal", "aead_open"):
        at_max = sweeps[name][str(max(SIZES))]
        assert at_max >= SEAL_FLOOR_MBPS, (
            f"{name} throughput regressed: {at_max:.1f} MB/s at "
            f"{max(SIZES)} bytes is below the {SEAL_FLOOR_MBPS} MB/s floor"
        )
