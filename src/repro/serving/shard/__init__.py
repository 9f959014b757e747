"""Sharded fleet-of-fleets serving.

Scale one router into N: the caller places each shard's tenant loads
and fault schedule; each :class:`ShardSpec` runs one
:class:`~repro.serving.router.RequestRouter` over its own fleet in a
``multiprocessing`` spawn worker; the :class:`FleetCoordinator`
launches the shards, re-homes requests off chaos-dead shards onto the
least-loaded healthy one, and folds the per-shard reports into one
fingerprinted global :class:`~repro.serving.report.RouterReport` with
the span trees stitched under a single global ``run`` span.

The contract is the same as everywhere else in the repo: same seed,
same bits.  Merging is order-independent, the
1-shard case degenerates exactly to the unsharded router, and spawn
scheduling can change wall-clock but never a fingerprint.
"""

from repro.serving.shard.coordinator import FleetCoordinator, FleetRunOutcome
from repro.serving.shard.merge import (
    qualify_report,
    stitch_spans,
    strip_requests,
)
from repro.serving.shard.planner import (
    shard_label,
    shard_platform,
    shard_seed,
)
from repro.serving.shard.worker import (
    FleetSpec,
    ShardResult,
    ShardSpec,
    run_shard,
)

__all__ = [
    "FleetCoordinator",
    "FleetRunOutcome",
    "FleetSpec",
    "ShardResult",
    "ShardSpec",
    "qualify_report",
    "run_shard",
    "shard_label",
    "shard_platform",
    "shard_seed",
    "stitch_spans",
    "strip_requests",
]
