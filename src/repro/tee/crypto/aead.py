"""ChaCha20-Poly1305 AEAD construction (RFC 8439 section 2.8).

This is the secure-channel cipher for REX: once two enclaves have mutually
attested and derived a pairwise key (X25519 + HKDF), every subsequent
message -- raw rating triplets or serialized models -- crosses the
untrusted host and network only as AEAD ciphertext.  The associated data
binds each message to its (sender, receiver, sequence) header so the
untrusted relay cannot splice messages between channels undetected.

Fast-path structure (the seal/open pipeline is fused end to end):

- **One keystream generation per seal/open.**  The Poly1305 one-time key
  is keystream block 0 and the payload keystream starts at block 1, so
  both are requested as a single batch (:func:`~repro.tee.crypto.
  fastchacha.chacha20_seal_xor`) instead of one call for the key block
  and another for the payload.
- **Zero-copy MAC transcript.**  The Poly1305 input ``aad || pad || ct ||
  pad || lengths`` is never materialized: :func:`~repro.tee.crypto.
  poly1305.poly1305_aead_tag` walks the segments (memoryviews of the wire
  buffer) directly, eliminating the pad/join copies per message.
- **Size dispatch.**  On the numpy backend, payloads below
  :data:`~repro.tee.crypto.tuning.DEFAULT_FAST_PATH_THRESHOLD` (measured
  on the reference container) take the unrolled scalar path; larger ones
  take the vectorized kernel.

All wire bytes are bit-identical to the unfused construction; tests pin
both the RFC vectors and scalar/vector/fused equivalence.
"""

from __future__ import annotations

import hmac

from repro.tee.crypto import backend as _backend
from repro.tee.crypto.chacha20 import chacha20_blocks
from repro.tee.crypto.fastchacha import chacha20_seal_xor
from repro.tee.crypto.poly1305 import poly1305_aead_tag
from repro.tee.crypto.tuning import DEFAULT_FAST_PATH_THRESHOLD

__all__ = [
    "AeadError",
    "ChaCha20Poly1305",
    "TAG_LENGTH",
    "NONCE_LENGTH",
    "KEY_LENGTH",
]

TAG_LENGTH = 16
NONCE_LENGTH = 12
KEY_LENGTH = 32


class AeadError(Exception):
    """Raised when AEAD decryption fails authentication.

    In the REX protocol this maps to "drop the message and distrust the
    channel": a failed tag means the ciphertext was forged, truncated, or
    replayed under the wrong nonce.
    """


def _xor_bytes(data, keystream: bytes) -> bytes:
    n = len(data)
    x = int.from_bytes(data, "little") ^ int.from_bytes(keystream[:n], "little")
    return x.to_bytes(n, "little")


class ChaCha20Poly1305:
    """RFC 8439 AEAD cipher bound to a single 32-byte key.

    Examples
    --------
    >>> cipher = ChaCha20Poly1305(b"k" * 32)
    >>> ct = cipher.encrypt(b"\\x00" * 12, b"hello", b"header")
    >>> cipher.decrypt(b"\\x00" * 12, ct, b"header")
    b'hello'
    """

    def __init__(self, key: bytes):
        if len(key) != KEY_LENGTH:
            raise ValueError(f"key must be {KEY_LENGTH} bytes, got {len(key)}")
        self._key = key

    def _seal_pipeline(self, nonce: bytes, data) -> tuple:
        """One fused keystream batch: returns ``(poly_key, data XOR ks)``.

        Block 0 keys Poly1305, blocks 1.. carry the payload (RFC 8439
        sections 2.6/2.8) -- generated together on either path.
        """
        if len(data) >= DEFAULT_FAST_PATH_THRESHOLD:
            return chacha20_seal_xor(self._key, nonce, data)
        stream = chacha20_blocks(self._key, 0, nonce, 1 + (len(data) + 63) // 64)
        return stream[:32], _xor_bytes(data, stream[64:])

    def encrypt(self, nonce: bytes, plaintext, aad=b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || 16-byte tag."""
        if len(nonce) != NONCE_LENGTH:
            raise ValueError(f"nonce must be {NONCE_LENGTH} bytes")
        if _backend.aead_backend() == "native":
            return _backend.native_seal(self._key, nonce, plaintext, aad)
        poly_key, ciphertext = self._seal_pipeline(nonce, plaintext)
        return ciphertext + poly1305_aead_tag(poly_key, aad, ciphertext)

    def decrypt(self, nonce: bytes, data, aad=b"") -> bytes:
        """Verify the tag and decrypt; raises :class:`AeadError` on failure.

        ``data`` may be any bytes-like object (e.g. a memoryview of the
        framed wire buffer); the ciphertext and tag are consumed as
        zero-copy views.
        """
        if len(nonce) != NONCE_LENGTH:
            raise ValueError(f"nonce must be {NONCE_LENGTH} bytes")
        if len(data) < TAG_LENGTH:
            raise AeadError("ciphertext shorter than the authentication tag")
        if _backend.aead_backend() == "native":
            ok, plaintext = _backend.native_open(self._key, nonce, data, aad)
            if not ok:
                raise AeadError("authentication tag mismatch")
            return plaintext
        view = memoryview(data)
        ciphertext, tag = view[:-TAG_LENGTH], view[-TAG_LENGTH:]
        # The open pipeline mirrors seal: the same single keystream batch
        # yields the Poly1305 key (block 0) and the payload keystream
        # (blocks 1..).  The candidate plaintext never leaves this frame
        # unless the tag verifies.
        poly_key, plaintext = self._seal_pipeline(nonce, ciphertext)
        expected = poly1305_aead_tag(poly_key, aad, ciphertext)
        if not hmac.compare_digest(expected, tag):
            raise AeadError("authentication tag mismatch")
        return plaintext

