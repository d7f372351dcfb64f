"""Per-message AEAD across backends, the epoch seal helper, and the wire.

Every message is sealed by :meth:`~repro.tee.crypto.aead.
ChaCha20Poly1305.encrypt` on the resolved backend: OpenSSL when the
``cryptography`` package is importable, the portable numpy kernel
otherwise.  RFC 8439 fixes every wire byte, so both backends -- and both
sides of the numpy kernel's scalar/vector size dispatch -- must agree bit
for bit.  These tests pin that contract from single messages, through
:func:`~repro.core.channel.seal_all` batches (one epoch's fan-out), up to
a full 8-node secure cluster run whose entire payload wire traffic is
hashed against a frozen digest.
"""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CryptoMode, Dissemination, RexCluster, RexConfig, SharingScheme
from repro.core.channel import (
    AccountedChannel,
    PlaintextChannel,
    ReplayError,
    SecureChannel,
    seal_all,
)
from repro.core.messages import KIND_PAYLOAD
from repro.data.movielens import MovieLensSpec, generate_movielens
from repro.data.partition import partition_users_across_nodes
from repro.ml.mf import MfHyperParams
from repro.net.topology import Topology
from repro.tee.crypto import backend as backend_mod
from repro.tee.crypto.aead import AeadError, ChaCha20Poly1305, TAG_LENGTH
from repro.tee.crypto.backend import aead_backend, native_available, set_aead_backend
from repro.tee.crypto.chacha20 import chacha20_blocks, chacha20_encrypt
from repro.tee.crypto.fastchacha import chacha20_xor
from repro.tee.crypto.tuning import DEFAULT_FAST_PATH_THRESHOLD

#: Every dispatch-sensitive message length: empty, single byte, one
#: keystream block +/- 1, two blocks +/- 1, both sides of the numpy
#: scalar/vector crossover (384 B), and multi-block tails.
BOUNDARY_LENGTHS = [0, 1, 63, 64, 65, 127, 128, 129, 255, 383, 384, 385, 1000, 4096]

assert min(BOUNDARY_LENGTHS) < DEFAULT_FAST_PATH_THRESHOLD < max(BOUNDARY_LENGTHS)


def _key(i: int) -> bytes:
    return bytes((k * 7 + i) % 256 for k in range(32))


def _nonce(i: int) -> bytes:
    return bytes((n * 13 + i) % 256 for n in range(12))


def _payload(i: int, size: int) -> bytes:
    return bytes((j * 31 + i) % 256 for j in range(size))


def _requests(lengths):
    return [
        (ChaCha20Poly1305(_key(i)), _nonce(i), _payload(i, n), b"aad-%d" % i)
        for i, n in enumerate(lengths)
    ]


def _seal_each(requests, backend=None):
    """One ``encrypt`` per message, optionally under a forced backend."""
    set_aead_backend(backend)
    try:
        return [cipher.encrypt(nonce, pt, aad) for cipher, nonce, pt, aad in requests]
    finally:
        set_aead_backend(None)


@pytest.fixture()
def numpy_backend():
    """Force the portable kernel, restore after."""
    set_aead_backend("numpy")
    yield
    set_aead_backend(None)


def _channel_pairs(n):
    """``n`` (sender, receiver) SecureChannel pairs, distinct keys."""
    return [
        (
            SecureChannel(_key(i), local_id=1, peer_id=2 + i),
            SecureChannel(_key(i), local_id=2 + i, peer_id=1),
        )
        for i in range(n)
    ]


def _numpy_frames(lengths):
    """The frames a numpy-backend per-channel seal produces for
    ``_channel_pairs(len(lengths))`` and ``_payload(i, n)``."""
    set_aead_backend("numpy")
    try:
        return [
            tx.seal(_payload(i, n), b"h%d" % i)
            for i, ((tx, _), n) in enumerate(zip(_channel_pairs(len(lengths)), lengths))
        ]
    finally:
        set_aead_backend(None)


class TestBatchByteIdentity:
    """A batch is one epoch's fan-out: either the messages of one sealing
    loop or the entries of one :func:`seal_all` call.  Under the default
    backend it must reproduce the numpy kernel's per-message frames."""

    def _seal_all_frames(self, lengths):
        pairs = _channel_pairs(len(lengths))
        wires = seal_all(
            [(tx, _payload(i, n), b"h%d" % i) for i, ((tx, _), n) in enumerate(zip(pairs, lengths))]
        )
        for i, ((_, rx), n, wire) in enumerate(zip(pairs, lengths, wires)):
            assert rx.open(wire, aad=b"h%d" % i) == _payload(i, n)
        return [bytes(w) for w in wires]

    def test_boundary_mix_matches_sequential(self):
        assert self._seal_all_frames(BOUNDARY_LENGTHS) == _numpy_frames(BOUNDARY_LENGTHS)

    def test_default_backend_matches_numpy_reference(self):
        requests = _requests(BOUNDARY_LENGTHS)
        assert _seal_each(requests) == _seal_each(requests, "numpy")

    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(
            st.sampled_from(BOUNDARY_LENGTHS + [2, 32, 130, 512]),
            min_size=1,
            max_size=12,
        )
    )
    def test_fuzzed_batches_match_sequential(self, lengths):
        assert self._seal_all_frames(lengths) == _numpy_frames(lengths)

    def test_multi_mib_batch_matches_sequential(self):
        lengths = [(1 << 20) + 3, (1 << 19) - 1, 1 << 20]
        assert self._seal_all_frames(lengths) == _numpy_frames(lengths)

    def test_empty_batch(self):
        assert seal_all([]) == []

    def test_each_backend_opens_the_other(self):
        requests = _requests(BOUNDARY_LENGTHS)
        for sealer, opener in (("numpy", None), (None, "numpy")):
            wires = _seal_each(requests, sealer)
            set_aead_backend(opener)
            try:
                for (cipher, nonce, pt, aad), wire in zip(requests, wires):
                    assert cipher.decrypt(nonce, wire, aad) == pt
                    tampered = bytearray(wire)
                    tampered[len(pt) // 2] ^= 0x40
                    with pytest.raises(AeadError):
                        cipher.decrypt(nonce, bytes(tampered), aad)
            finally:
                set_aead_backend(None)


class TestAgainstOpenSslOracle:
    def test_numpy_path_matches_oracle(self):
        aead = pytest.importorskip("cryptography.hazmat.primitives.ciphers.aead")
        requests = _requests(BOUNDARY_LENGTHS)
        wires = _seal_each(requests, "numpy")
        for (cipher, nonce, pt, aad), wire in zip(requests, wires):
            oracle = aead.ChaCha20Poly1305(cipher._key).encrypt(nonce, pt, aad or None)
            assert wire == oracle


class TestBackends:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            set_aead_backend("vulkan")

    def test_override_resolution(self):
        set_aead_backend("numpy")
        try:
            assert aead_backend() == "numpy"
        finally:
            set_aead_backend(None)
        assert aead_backend() in ("numpy", "native")

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_AEAD_BACKEND", "numpy")
        assert aead_backend() == "numpy"

    def test_forcing_missing_native_raises(self, monkeypatch):
        # False = "probed, unavailable" in the backend's lazy cache.
        monkeypatch.setattr(backend_mod, "_native_cls", False)
        with pytest.raises(RuntimeError, match="native"):
            set_aead_backend("native")
            try:
                aead_backend()
            finally:
                set_aead_backend(None)

    @pytest.mark.skipif(not native_available(), reason="cryptography not installed")
    def test_native_and_numpy_wires_identical(self):
        requests = _requests(BOUNDARY_LENGTHS)
        assert _seal_each(requests, "native") == _seal_each(requests, "numpy")

    @pytest.mark.skipif(not native_available(), reason="cryptography not installed")
    def test_native_open_rejects_tamper(self):
        cipher = ChaCha20Poly1305(_key(1))
        set_aead_backend("native")
        try:
            wire = bytearray(cipher.encrypt(_nonce(1), _payload(1, 64), b"hdr"))
            wire[10] ^= 0x80
            with pytest.raises(AeadError):
                cipher.decrypt(_nonce(1), bytes(wire), b"hdr")
        finally:
            set_aead_backend(None)


#: Frames a receiver accepts before the tampered one: its replay
#: high-water mark sits at ``_WARM_FRAMES - 1``, so a flipped low
#: sequence bit can land at, below or above it.
_WARM_FRAMES = 3


def _tampered_open(backend, length, index, bit):
    """Seal one frame under ``backend``, open a bit-flipped copy, then the
    genuine frame.  Returns ``(genuine wire, rejection type)``."""
    set_aead_backend(backend)
    try:
        tx = SecureChannel(_key(5), local_id=1, peer_id=2)
        rx = SecureChannel(_key(5), local_id=2, peer_id=1)
        for i in range(_WARM_FRAMES):
            rx.open(tx.seal(b"warm-%d" % i, b"h"), b"h")
        payload = _payload(5, length)
        genuine = tx.seal(payload, b"h")
        tampered = bytearray(genuine)
        tampered[index] ^= 1 << bit
        with pytest.raises((AeadError, ReplayError)) as rejected:
            rx.open(bytes(tampered), b"h")
        # A refused frame must not move the replay high-water mark ...
        assert rx._highest_received == _WARM_FRAMES - 1
        # ... so the genuine frame still opens afterwards.
        assert rx.open(genuine, b"h") == payload
        return genuine, rejected.type
    finally:
        set_aead_backend(None)


@st.composite
def _tamper_positions(draw):
    length = draw(st.sampled_from([0, 383, 384, 385]) | st.integers(0, 1024))
    # Anywhere in ``seq | ciphertext | tag``.
    index = draw(st.integers(0, 8 + length + TAG_LENGTH - 1))
    return length, index, draw(st.integers(0, 7))


class TestTamperAcrossBackends:
    """A flipped bit anywhere in a :class:`SecureChannel` frame is refused
    with the same exception type by the numpy and native backends; the
    native half is skipped without ``cryptography``."""

    @settings(max_examples=80, deadline=None)
    @given(_tamper_positions())
    def test_numpy_rejects_without_advancing_replay_mark(self, position):
        _tampered_open("numpy", *position)

    @pytest.mark.skipif(not native_available(), reason="cryptography not installed")
    @settings(max_examples=80, deadline=None)
    @given(_tamper_positions())
    def test_native_rejects_like_numpy(self, position):
        numpy_wire, numpy_rejected = _tampered_open("numpy", *position)
        native_wire, native_rejected = _tampered_open("native", *position)
        assert native_wire == numpy_wire
        assert native_rejected is numpy_rejected


class TestCounterOverflow:
    KEY = bytes(range(32))
    NONCE = bytes(12)

    def test_scalar_blocks_reject_wrap(self):
        with pytest.raises(ValueError, match="counter overflow"):
            chacha20_blocks(self.KEY, (1 << 32) - 1, self.NONCE, 2)

    def test_scalar_blocks_allow_last_block(self):
        assert len(chacha20_blocks(self.KEY, (1 << 32) - 1, self.NONCE, 1)) == 64

    def test_scalar_encrypt_rejects_wrap(self):
        with pytest.raises(ValueError, match="counter overflow"):
            chacha20_encrypt(self.KEY, (1 << 32) - 1, self.NONCE, bytes(65))

    def test_vector_xor_rejects_wrap(self):
        with pytest.raises(ValueError, match="counter overflow"):
            chacha20_xor(self.KEY, (1 << 32) - 1, self.NONCE, bytes(65))

    def test_guard_fires_before_allocation(self):
        # A wrapping span must be rejected up front -- a 2**31-block
        # request would otherwise try to materialize a 128 GiB keystream.
        with pytest.raises(ValueError, match="counter overflow"):
            chacha20_blocks(self.KEY, 1 << 31, self.NONCE, (1 << 31) + 1)


class TestSealAll:
    def _channels(self, n):
        key = bytes(range(32))
        return [
            (SecureChannel(key, local_id=1, peer_id=2 + i), SecureChannel(key, local_id=2 + i, peer_id=1))
            for i in range(n)
        ]

    def test_seal_all_matches_per_channel_seal(self, numpy_backend):
        # Two identically-keyed fleets: batch-sealing one must produce
        # exactly the frames the per-message path produces on the other.
        batch = self._channels(4)
        reference = self._channels(4)
        payloads = [_payload(i, n) for i, n in enumerate([0, 65, 1024, 300])]
        wires = seal_all(
            [(tx, p, b"h%d" % i) for i, ((tx, _), p) in enumerate(zip(batch, payloads))]
        )
        for i, ((_, rx), (ref_tx, _), payload) in enumerate(
            zip(batch, reference, payloads)
        ):
            assert bytes(wires[i]) == ref_tx.seal(payload, aad=b"h%d" % i)
            assert rx.open(wires[i], aad=b"h%d" % i) == payload

    def test_seal_all_counts_sealed_bytes(self, numpy_backend):
        (tx, _), = self._channels(1)
        before = tx.sealed_bytes
        wires = seal_all([(tx, b"x" * 100, b"")])
        assert tx.sealed_bytes - before == len(wires[0]) == 8 + 100 + TAG_LENGTH

    def test_mixed_channels_keep_order_sequence_and_accounting(self):
        key = bytes(range(32))
        secure_a = SecureChannel(key, local_id=1, peer_id=2)
        secure_b = SecureChannel(key, local_id=1, peer_id=3)
        accounted = AccountedChannel(key, local_id=1, peer_id=4)
        plain = PlaintextChannel(local_id=1, peer_id=5)
        receivers = {
            id(secure_a): SecureChannel(key, local_id=2, peer_id=1),
            id(secure_b): SecureChannel(key, local_id=3, peer_id=1),
        }
        order = [secure_a, accounted, secure_a, plain, secure_b, accounted, plain]
        payloads = [_payload(i, 40 + 97 * i) for i in range(len(order))]
        wires = seal_all([(ch, p, b"h%d" % i) for i, (ch, p) in enumerate(zip(order, payloads))])

        assert len(wires) == len(order)
        expected_seq = {id(secure_a): [0, 1], id(secure_b): [0], id(accounted): [0, 1]}
        for i, (channel, payload, wire) in enumerate(zip(order, payloads, wires)):
            wire = bytes(wire)
            if channel is plain:
                assert wire == payload
                continue
            (seq,) = struct.unpack_from("<Q", wire, 0)
            assert seq == expected_seq[id(channel)].pop(0)
            assert len(wire) == 8 + len(payload) + TAG_LENGTH
            if channel is accounted:
                assert wire == struct.pack("<Q", seq) + payload + bytes(TAG_LENGTH)
            else:
                assert receivers[id(channel)].open(wire, aad=b"h%d" % i) == payload
        assert all(not left for left in expected_seq.values())

        for channel in (secure_a, secure_b, accounted, plain):
            mine = [len(w) for ch, w in zip(order, wires) if ch is channel]
            assert channel.sealed_messages == len(mine)
            assert channel.sealed_bytes == sum(mine)


class TestPinnedClusterWire:
    """End-to-end wire-byte regression: every sealed payload frame of a
    deterministic 8-node secure run, hashed in delivery order.

    The digest was captured from the sequential per-message seal path
    before cross-message batching landed; the batched epoch seal (and any
    backend) must reproduce it bit for bit.  Channel keys are HKDF-bound
    to the enclave *code measurement* (any edit to the trusted class
    rotates every key, as an SGX rebuild would), so the run pins the
    measurement to a fixed digest -- this test regresses the wire
    protocol (serialization, framing, key schedule, cipher), not the app
    source text.  With that fixed, every byte derives from
    ``RexConfig.seed``; drift here means the wire format changed.
    """

    PINNED_DIGEST = "71ff629acc4a61817e04dc5f280c2fc5db8d1dc62bf2abe1c86b6529357863a6"
    MEASUREMENT = hashlib.sha256(b"pinned-wire-regression/v1").digest()

    @classmethod
    def _wire_digest(cls) -> str:
        spec = MovieLensSpec(
            name="tiny", n_ratings=1600, n_items=120, n_users=40, last_updated=2020
        )
        split = generate_movielens(spec, seed=11).split(0.7, seed=3)
        train = partition_users_across_nodes(split.train, 8, seed=2)
        test = partition_users_across_nodes(split.test, 8, seed=2)
        config = RexConfig(
            scheme=SharingScheme.MODEL,
            dissemination=Dissemination.DPSGD,
            epochs=2,
            crypto_mode=CryptoMode.REAL,
            mf=MfHyperParams(k=8, batch_size=16, batches_per_epoch=2),
        )
        from repro.tee import enclave as enclave_mod
        from repro.tee.measurement import Measurement

        original_measure = enclave_mod.measure_class
        enclave_mod.measure_class = lambda cls_, attributes=b"": Measurement(
            TestPinnedClusterWire.MEASUREMENT
        )
        try:
            cluster = RexCluster(Topology.fully_connected(8), config, secure=True)
            digest = hashlib.sha256()
            original_deliver = cluster.network._deliver

            def spy(message):
                if message.kind == KIND_PAYLOAD:
                    digest.update(bytes(message.payload))
                original_deliver(message)

            cluster.network._deliver = spy
            cluster.run(train, test, global_mean=split.train.global_mean())
        finally:
            enclave_mod.measure_class = original_measure
        return digest.hexdigest()

    def test_wire_digest_pinned(self):
        assert self._wire_digest() == self.PINNED_DIGEST

    def test_wire_digest_backend_independent(self):
        set_aead_backend("numpy")
        try:
            assert self._wire_digest() == self.PINNED_DIGEST
        finally:
            set_aead_backend(None)
