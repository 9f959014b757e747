"""Shard naming and seeds: pure functions of the shard id.

The caller places each shard's tenants and fault schedule itself (see
:meth:`~repro.serving.shard.coordinator.FleetCoordinator.run`); what
the shard layer derives from a shard id alone lives here.  Hashing
goes through SHA-1, never ``hash()``, so the parent process and every
spawn worker agree on every seed.

Shard-qualified platform names use the ``s<k>/<platform>`` convention:
the coordinator qualifies merged report rows that way.
"""

from __future__ import annotations

import hashlib

__all__ = ["shard_label", "shard_platform", "shard_seed"]


def shard_label(shard_id: int) -> str:
    """The canonical display name of one shard (``s0``, ``s1``, ...)."""
    if shard_id < 0:
        raise ValueError("shard_id must be >= 0, got %r" % (shard_id,))
    return "s%d" % shard_id


def shard_platform(shard_id: int, platform: str) -> str:
    """Qualify a platform name with its shard: ``s<k>/<platform>``."""
    return shard_label(shard_id) + "/" + platform


def shard_seed(seed: int, shard_id: int) -> int:
    """The per-shard RNG seed derived from the run's global seed.

    SHA-1 over ``"<seed>:<shard_id>"``, folded to a non-negative
    63-bit integer -- stable across processes and platforms, and
    decorrelated between shards (adjacent seeds/ids share no stream
    structure the way ``seed + shard_id`` would).
    """
    if shard_id < 0:
        raise ValueError("shard_id must be >= 0, got %r" % (shard_id,))
    digest = hashlib.sha1(
        ("%d:%d" % (seed, shard_id)).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1
