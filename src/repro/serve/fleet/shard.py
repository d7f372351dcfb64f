"""User-partitioned snapshot shards: one enclave per partition.

A shard's serving enclave holds only *its* partition's user-embedding
rows (plus the item side, which every shard needs to score against and
therefore replicates).  That is what makes per-shard EPC accounting
honest: the aggregate catalog can exceed any single enclave's EPC share
while each shard's resident set stays under its own cap.

The host fabric speaks **global** user ids throughout -- routing,
queueing and reports never learn about the shard-local row layout.  The
global -> local translation happens *inside* the enclave, against the
owned-user table shipped alongside the shard snapshot at load time:

- :func:`build_shard_payload` slices the fleet's parameter arrays down
  to one partition and returns the encoded ``RXS1`` wire bytes (plus
  sanitized metadata), so shared callers handle only encoded payloads,
  never plaintext snapshots;
- :class:`ShardEnclaveApp` extends
  :class:`~repro.serve.endpoint.ServeEnclaveApp` with the owned-user
  table: loads remap exclusion ratings to local rows, and ``ecall_serve``
  translates each query's global id.  A query for a user the shard does
  not own is answered with the empty sentinel (-1 ids) and counted as a
  routing error (``serve.fleet.routing_errors``) -- a correct router
  never produces one, and the fleet acceptance test pins that at zero.

Trusted module: partitioning slices plaintext model parameters, and the
shard endpoint owns a plaintext snapshot and raw-rating exclusion index.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.net.serialization import decode_triplets
from repro.serve.endpoint import BatchStats, ServeEnclaveApp
from repro.serve.snapshot import ModelSnapshot, encode_snapshot, snapshot_from_arrays
from repro.tee.enclave import ecall

__all__ = ["ShardEnclaveApp", "build_shard_payload", "encode_shard_users"]


def encode_shard_users(shard_users: np.ndarray) -> bytes:
    """Canonical wire form of a shard's owned-user table (little-endian).

    The table is routing metadata (public by construction -- the host
    fabric computed it from the ring), shipped into the enclave so the
    global -> local translation lives behind the boundary.
    """
    return np.ascontiguousarray(shard_users, dtype="<i8").tobytes()


def build_shard_payload(
    user_factors: np.ndarray,
    item_factors: np.ndarray,
    user_bias: np.ndarray,
    item_bias: np.ndarray,
    user_seen: np.ndarray,
    item_seen: np.ndarray,
    global_mean: float,
    shard_users: np.ndarray,
    *,
    version: int,
    shard_id: int,
    epoch: int = 0,
) -> Tuple[bytes, dict]:
    """Slice one partition out of fleet arrays; return (wire, meta dict).

    User-side arrays are sliced to ``shard_users`` rows (local row ``r``
    is global user ``shard_users[r]``); the item side is replicated in
    full.  Only encoded bytes and sanitized metadata leave, so shared
    fleet plumbing can call this without ever holding a snapshot object.
    """
    rows = np.asarray(shard_users, dtype=np.int64)
    snapshot = snapshot_from_arrays(
        np.asarray(user_factors)[rows],
        np.asarray(item_factors),
        np.asarray(user_bias)[rows],
        np.asarray(item_bias),
        np.asarray(user_seen)[rows],
        np.asarray(item_seen),
        global_mean,
        version=version,
        node_id=shard_id,
        epoch=epoch,
    )
    return encode_snapshot(snapshot), snapshot.meta().to_dict()


class ShardEnclaveApp(ServeEnclaveApp):
    """A shard's serving enclave: global ids at the boundary, local rows inside."""

    #: Global user id -> local snapshot row (built at load).
    _owned: Dict[int, int]

    # ------------------------------------------------------------------ #
    # Load-time remapping
    # ------------------------------------------------------------------ #
    def _install_snapshot(self, snapshot: ModelSnapshot, args: dict) -> None:
        raw = args.get("shard_users")
        if raw is None:
            raise ValueError("shard load requires the owned-user table")
        owned = np.frombuffer(bytes(raw), dtype="<i8").astype(np.int64)
        if len(owned) != snapshot.n_users:
            raise ValueError("owned-user table does not match the shard snapshot")
        self._owned = {int(user): row for row, user in enumerate(owned)}
        if len(self._owned) != len(owned):
            raise ValueError("owned-user table contains duplicates")
        self.unowned_queries = getattr(self, "unowned_queries", 0)
        self._routing_errors = self.serving.metrics.counter("serve.fleet.routing_errors")
        ratings = args.get("ratings")
        if ratings is not None:
            # Exclusion ratings arrive with global user ids; keep only
            # owned users' rows and remap them to local snapshot rows.
            data = decode_triplets(bytes(ratings))
            local = np.fromiter(
                (self._owned.get(int(u), -1) for u in data.users),
                dtype=np.int64,
                count=len(data.users),
            )
            mask = local >= 0
            self.serving.install(
                snapshot, local[mask], np.asarray(data.items)[mask]
            )
        else:
            self.serving.install(snapshot)

    # ------------------------------------------------------------------ #
    # Serving with translation
    # ------------------------------------------------------------------ #
    @ecall
    def ecall_serve(self, users: list, k: int) -> dict:
        """Serve one batch of *global* user ids; unowned ids get -1 lists."""
        k = int(k)
        local: list = []
        rows: list = []
        unowned = 0
        for row, user in enumerate(users):
            idx = self._owned.get(int(user))
            if idx is None:
                unowned += 1
            else:
                rows.append(row)
                local.append(idx)
        if unowned:
            self.unowned_queries += unowned
            self._routing_errors.inc(unowned)
        if local:
            items, scores, stats = self.serving.query_batch(local, k)
        else:
            items = np.empty((0, k), dtype=np.int64)
            scores = np.empty((0, k), dtype=np.float64)
            stats = BatchStats(requests=0)
        out_items = np.full((len(users), k), -1, dtype=np.int64)
        out_scores = np.full((len(users), k), np.nan, dtype=np.float64)
        for out_row, row in enumerate(rows):
            out_items[row] = items[out_row]
            out_scores[row] = scores[out_row]
        stats_dict = stats.to_dict()
        # The empty sentinel rows are still answered requests: account
        # them so batch pricing charges per-request overhead uniformly.
        stats_dict["requests"] = len(users)
        stats_dict["unowned"] = unowned
        self._account()
        return {
            "items": out_items.tolist(),
            "scores": out_scores.tolist(),
            "stats": stats_dict,
        }

    @ecall
    def ecall_shard_status(self) -> dict:
        """Serve status plus shard-ownership counters (sanitized scalars)."""
        status = self.ecall_serve_status()
        status["owned_users"] = len(self._owned)
        status["unowned_queries"] = int(self.unowned_queries)
        return status

    def _account(self) -> None:
        super()._account()
        # The owned-user table lives in-enclave too: ~two 8-byte words
        # per entry (key + row) in the translation dict.
        self.ctx.memory.set("serve.shard_index", 16 * len(getattr(self, "_owned", ())))
