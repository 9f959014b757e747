"""Checkpoint/resume: completed shard results persisted to a run dir.

A supervised fleet run can die halfway -- the host reboots, the
supervisor exhausts one shard's retries with no healthy escalation
target.  :class:`CheckpointStore` makes the *completed* work durable:
every accepted shard result is pickled into the run directory keyed
by a digest of its spec, and a re-run with the same inputs loads
those results back instead of re-executing -- only the shards that
actually failed run again.

A spec holds only its shard's inputs: which attempt finally succeeded
and what process chaos the supervisor scheduled never enter it
(attempt-invariance is exactly the supervisor's contract), so a
resume under a different fault plan still reuses clean results.

Corrupt or stale checkpoint files are treated as misses, never
errors: the worst a bad checkpoint can do is cost one re-execution.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from typing import Mapping, Optional

__all__ = ["CheckpointStore"]


def _values(obj) -> str:
    """``obj`` as text built from its values alone: a dataclass by its
    fields, any other object by its attributes, a mapping by its sorted
    items, a list or tuple item by item, an array by its dtype, shape
    and bytes, and a scalar by its ``repr``.  Unlike a pickle's bytes,
    the text does not depend on which equal objects are shared."""
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes)):
        return repr(obj)
    if hasattr(obj, "tobytes") and hasattr(obj, "dtype"):  # an array
        return "array(%s,%r,%r)" % (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        items = list(map(_values, obj))
    elif isinstance(obj, Mapping):
        items = sorted(
            "%s:%s" % (_values(key), _values(value))
            for key, value in obj.items()
        )
    else:
        attrs = (
            [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
            if dataclasses.is_dataclass(obj)
            else sorted(vars(obj).items())
        )
        items = ["%s=%s" % (name, _values(value)) for name, value in attrs]
    return "%s(%s)" % (type(obj).__qualname__, ",".join(items))


class CheckpointStore:
    """Durable per-shard results under one run directory."""

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    # -- keys ------------------------------------------------------------
    @staticmethod
    def spec_digest(spec) -> str:
        """A stable content hash of one spec's inputs: loads, faults,
        seed, config -- every value feeds the text that is hashed, so
        a changed workload never resurrects a stale result, and equal
        specs digest equal whichever objects they share."""
        return hashlib.sha1(_values(spec).encode("utf-8")).hexdigest()

    def path_for(self, spec) -> str:
        """Where one spec's result lives (digest-keyed, so the same
        shard id can hold both its original and an escalation spec)."""
        return os.path.join(
            self.root,
            "shard-%02d-%s.pkl"
            % (spec.shard_id, self.spec_digest(spec)[:12]),
        )

    # -- round trip ------------------------------------------------------
    def load(self, spec) -> Optional[object]:
        """The previously-saved result for ``spec``, or ``None``.

        Misses on absent, unreadable, or digest-mismatched files --
        a resume never fails because of a bad checkpoint, it just
        re-executes.
        """
        path = self.path_for(spec)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except Exception:
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("digest") != self.spec_digest(spec):
            return None
        return payload.get("result")

    def save(self, spec, result) -> str:
        """Persist one accepted result (atomic write-then-rename)."""
        path = self.path_for(spec)
        payload = {
            "digest": self.spec_digest(spec),
            "shard_id": spec.shard_id,
            "result": result,
        }
        staging = path + ".tmp"
        with open(staging, "wb") as handle:
            pickle.dump(payload, handle, protocol=4)
        os.replace(staging, path)
        return path

    def write_manifest(self, payload: dict) -> str:
        """A human-readable summary of the supervised run (JSON)."""
        path = os.path.join(self.root, "manifest.json")
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path
