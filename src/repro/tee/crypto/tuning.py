"""Measured scalar/vector dispatch threshold for the numpy AEAD path.

The numpy AEAD backend picks between the scalar ChaCha20 path (cheap per
call, slow per byte) and the vectorized NumPy path (fixed dispatch
overhead, fast per byte) by payload size:

- :data:`DEFAULT_FAST_PATH_THRESHOLD` is the crossover measured on the
  reference container and recorded in ``BENCH_crypto.json``; the AEAD
  reads it directly.
- :func:`measure_crossover` times both paths across a size sweep and
  returns the smallest size where the vectorized path wins.  The clock is
  **injected by the caller** (the crypto throughput benchmark passes
  ``time.perf_counter``) so this module performs no wall-clock reads of
  its own -- simulated-time determinism (lint rule REX-D001) is preserved
  and the measurement stays testable with a fake clock.

The threshold only steers dispatch: both paths are bit-identical by
construction and by test, so a mistuned threshold can cost speed, never
correctness.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.tee.crypto.chacha20 import chacha20_encrypt
from repro.tee.crypto.fastchacha import chacha20_xor

__all__ = ["DEFAULT_FAST_PATH_THRESHOLD", "measure_crossover"]

#: Measured on the reference container (see EXPERIMENTS.md, "Crypto
#: throughput"): the unrolled scalar loop beats NumPy dispatch overhead
#: up to roughly five keystream blocks (~270 us of fixed vector setup vs
#: ~0.7 us/byte scalar cost; the sweep crosses at 384 bytes).
DEFAULT_FAST_PATH_THRESHOLD = 384


_SWEEP_SIZES = (32, 64, 128, 192, 256, 384, 512, 768, 1024)


def measure_crossover(
    clock: Callable[[], float],
    *,
    sizes: Sequence[int] = _SWEEP_SIZES,
    repeats: int = 50,
) -> dict:
    """Time scalar vs vectorized keystream-XOR and locate the crossover.

    ``clock`` is a monotonic-seconds callable supplied by the caller (the
    benchmark injects ``time.perf_counter``); this module never reads the
    wall clock itself.  Returns ``{"threshold": int, "samples": {size:
    {"scalar_s": float, "vector_s": float}}}`` where ``threshold`` is the
    smallest swept size from which the vectorized path stays ahead (the
    largest swept size + 1 if it never wins).
    """
    key = bytes(range(32))
    nonce = bytes(12)
    samples = {}
    for size in sorted(sizes):
        payload = bytes(size)
        scalar_best = vector_best = None
        for _ in range(max(1, repeats)):
            t0 = clock()
            chacha20_encrypt(key, 1, nonce, payload)
            t1 = clock()
            chacha20_xor(key, 1, nonce, payload)
            t2 = clock()
            scalar_s, vector_s = t1 - t0, t2 - t1
            scalar_best = scalar_s if scalar_best is None else min(scalar_best, scalar_s)
            vector_best = vector_s if vector_best is None else min(vector_best, vector_s)
        samples[size] = {"scalar_s": scalar_best, "vector_s": vector_best}
    threshold = max(samples) + 1
    # Smallest size from which the vector path never falls behind again.
    for size in sorted(samples, reverse=True):
        if samples[size]["vector_s"] <= samples[size]["scalar_s"]:
            threshold = size
        else:
            break
    return {"threshold": threshold, "samples": samples}

