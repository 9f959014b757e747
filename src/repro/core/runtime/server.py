"""Streaming inference server: drives a deployment with request traces.

The paper's evaluation scores one steady-state configuration per
scheduler; a deployed system additionally has to *assemble* batches
from an arriving request stream.  :class:`InferenceServer` closes that
loop: requests arrive per a :class:`~repro.workloads.RequestTrace`,
the server accumulates them until the compiled batch is full or the
time budget forces a flush, executes the batch through the
deployment's execution engine (steady state is a report-cache hit),
scores each request's SoC with its true end-to-end latency
(queueing + assembly + compute), and feeds observed entropies to the
calibrator.

This is the substrate behind the serving-oriented tests and the
calibration example; it is intentionally discrete-event and
deterministic (no wall clock).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.core.satisfaction import SoCBreakdown, soc
from repro.obs.metrics import linear_percentile, ordered_sum
from repro.validation import require_finite

if TYPE_CHECKING:  # avoid a circular import; Deployment is duck-typed
    from repro.core.framework import Deployment
from repro.workloads.generators import RequestTrace

__all__ = [
    "default_flush_timeout",
    "FlushPolicy",
    "ServedRequest",
    "ServerReport",
    "InferenceServer",
]


def default_flush_timeout(deployment: "Deployment") -> float:
    """The batching flush timeout a deployment implies.

    Half the imperceptible budget keeps assembly from eating the whole
    latency allowance; background tasks (infinite budget) fall back to
    50 ms.  Shared by :class:`InferenceServer` and the fleet router in
    :mod:`repro.serving`.
    """
    budget = deployment.requirement.time.budget_s
    return budget / 2 if math.isfinite(budget) else 0.05


@dataclass(frozen=True)
class FlushPolicy:
    """The full-batch-or-timeout batch-assembly rule.

    A batch launches when either ``capacity`` requests are queued or
    the *oldest* queued request has waited ``timeout_s``.  Both the
    trace-driven :class:`InferenceServer` and the event-driven router
    in :mod:`repro.serving` apply this same policy, so their batching
    semantics cannot drift apart.
    """

    capacity: int
    timeout_s: float

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        require_finite(timeout_s=self.timeout_s)
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")

    def flush_at(self, head_arrival_s: float) -> float:
        """Latest launch time once ``head_arrival_s`` starts a batch."""
        return head_arrival_s + self.timeout_s

    def admits(self, queue_len: int, arrival_s: float, head_arrival_s: float) -> bool:
        """Whether one more request may still join the forming batch."""
        return queue_len < self.capacity and arrival_s <= self.flush_at(
            head_arrival_s
        )

    def should_flush(self, queue_len: int, now_s: float, head_arrival_s: float) -> bool:
        """Whether the forming batch must launch now."""
        return queue_len >= self.capacity or now_s >= self.flush_at(
            head_arrival_s
        )


@dataclass(frozen=True)
class ServedRequest:
    """One request's end-to-end accounting."""

    index: int
    arrival_s: float
    start_s: float
    finish_s: float
    batch: int
    entropy: float
    soc: SoCBreakdown

    @property
    def latency_s(self) -> float:
        """End-to-end: arrival to batch completion."""
        return self.finish_s - self.arrival_s

    @property
    def queueing_s(self) -> float:
        """Time spent waiting for the batch to form/start."""
        return self.start_s - self.arrival_s

    def to_dict(self) -> dict:
        """Plain-data view (JSON-serializable)."""
        return {
            "index": self.index,
            "arrival_s": self.arrival_s,
            "start_s": self.start_s,
            "finish_s": self.finish_s,
            "latency_s": self.latency_s,
            "queueing_s": self.queueing_s,
            "batch": self.batch,
            "entropy": self.entropy,
            "soc": self.soc.value,
            "soc_time": self.soc.soc_time,
            "soc_accuracy": self.soc.soc_accuracy,
        }


@dataclass
class ServerReport:
    """Aggregate outcome of serving a trace."""

    requests: List[ServedRequest] = field(default_factory=list)
    total_energy_j: float = 0.0
    batches: int = 0

    @property
    def n_requests(self) -> int:
        """Requests served."""
        return len(self.requests)

    @property
    def mean_latency_s(self) -> float:
        """Mean end-to-end latency."""
        if not self.requests:
            return 0.0
        return ordered_sum(r.latency_s for r in self.requests) / len(self.requests)

    def percentile(self, q: float) -> float:
        """``q``-th percentile (0..100) of end-to-end latency.

        Linear interpolation between order statistics (numpy's default
        "linear" method), so small request counts yield a graded value
        instead of collapsing every high percentile to the max -- the
        old nearest-rank index ``ceil(0.99 n) - 1`` returned the
        maximum for any n < 100.  Delegated to
        :func:`repro.obs.metrics.linear_percentile`, the single
        percentile implementation the router report shares.
        """
        return linear_percentile([r.latency_s for r in self.requests], q)

    @property
    def p50_latency_s(self) -> float:
        """Median end-to-end latency."""
        return self.percentile(50.0)

    @property
    def p95_latency_s(self) -> float:
        """95th-percentile end-to-end latency."""
        return self.percentile(95.0)

    @property
    def p99_latency_s(self) -> float:
        """99th-percentile end-to-end latency."""
        return self.percentile(99.0)

    @property
    def mean_soc(self) -> float:
        """Mean per-request SoC."""
        if not self.requests:
            return 0.0
        return ordered_sum(r.soc.value for r in self.requests) / len(self.requests)

    @property
    def energy_per_request_j(self) -> float:
        """Energy per served request."""
        if not self.requests:
            return 0.0
        return self.total_energy_j / len(self.requests)

    @property
    def deadline_misses(self) -> int:
        """Requests whose SoC_time collapsed to zero."""
        return sum(1 for r in self.requests if r.soc.soc_time <= 0.0)

    def to_dict(self, include_requests: bool = False) -> dict:
        """Plain-data summary (JSON-serializable).

        Benchmarks and external tooling should consume this instead of
        reaching into the report's fields; ``include_requests`` adds the
        full per-request accounting.
        """
        summary = {
            "n_requests": self.n_requests,
            "batches": self.batches,
            "total_energy_j": self.total_energy_j,
            "energy_per_request_j": self.energy_per_request_j,
            "mean_latency_s": self.mean_latency_s,
            "p50_latency_s": self.p50_latency_s,
            "p95_latency_s": self.p95_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "mean_soc": self.mean_soc,
            "deadline_misses": self.deadline_misses,
        }
        if include_requests:
            summary["requests"] = [r.to_dict() for r in self.requests]
        return summary


class InferenceServer:
    """Batch-assembling, calibration-aware serving loop."""

    def __init__(
        self,
        deployment: "Deployment",
        flush_timeout_s: Optional[float] = None,
    ) -> None:
        """``flush_timeout_s`` bounds how long the first queued request
        may wait for the batch to fill; defaults to the deployment's
        imperceptible budget (or 50 ms for background tasks)."""
        self.deployment = deployment
        if flush_timeout_s is None:
            flush_timeout_s = default_flush_timeout(deployment)
        require_finite(flush_timeout_s=flush_timeout_s)
        if flush_timeout_s <= 0:
            raise ValueError("flush_timeout_s must be positive")
        self.flush_timeout_s = flush_timeout_s

    def serve(self, trace: RequestTrace) -> ServerReport:
        """Serve a whole trace; returns the per-request accounting."""
        deployment = self.deployment
        report = ServerReport()
        queue: List[int] = []  # indices into the trace
        gpu_free_at = 0.0
        i = 0
        n = trace.n_requests
        while i < n or queue:
            entry = deployment.current_entry
            # Capacity tracks the *current* entry: calibration may have
            # swapped the deployed plan between batches.
            policy = FlushPolicy(
                capacity=entry.compiled.batch, timeout_s=self.flush_timeout_s
            )
            if not queue:
                queue.append(i)
                i += 1
            # Admit every request that arrives before the flush point.
            head_arrival = float(trace.arrivals_s[queue[0]])
            while i < n and policy.admits(
                len(queue), float(trace.arrivals_s[i]), head_arrival
            ):
                queue.append(i)
                i += 1
            batch_indices = queue[: policy.capacity]
            queue = queue[policy.capacity :]
            last_arrival = float(trace.arrivals_s[batch_indices[-1]])
            if len(batch_indices) == policy.capacity or i >= n:
                ready = last_arrival  # batch full, or stream drained
            else:
                ready = policy.flush_at(head_arrival)  # timeout flush
            start = max(ready, gpu_free_at)

            execution = deployment.execute_current()
            finish = start + execution.total_time_s
            gpu_free_at = finish
            report.batches += 1
            report.total_energy_j += execution.total_energy_joules

            # Energy convention: a timeout-flushed partial batch still
            # executes the full compiled-batch plan, so per-request
            # energy is amortized over the plan's batch *capacity*
            # (matching Deployment.process_request), not over the
            # occupied slots -- dividing by len(batch_indices) would
            # charge each request for the idle slots' work and inflate
            # per-request energy relative to the per-item accounting.
            # The report's total_energy_j keeps the true total, so the
            # idle-slot energy remains visible at the aggregate level.
            energy_per_item = execution.total_energy_joules / entry.compiled.batch

            batch_entropy = 0.0
            for index in batch_indices:
                entropy = entry.entropy * float(trace.difficulty[index])
                batch_entropy = max(batch_entropy, entropy)
                breakdown = soc(
                    runtime_s=finish - trace.arrivals_s[index],
                    requirement=deployment.requirement.time,
                    entropy=entropy,
                    entropy_threshold=deployment.entropy_threshold,
                    energy_joules=energy_per_item,
                )
                report.requests.append(
                    ServedRequest(
                        index=index,
                        arrival_s=float(trace.arrivals_s[index]),
                        start_s=start,
                        finish_s=finish,
                        batch=len(batch_indices),
                        entropy=entropy,
                        soc=breakdown,
                    )
                )
            # One calibration observation per batch (its worst output).
            deployment.observe_entropy(batch_entropy)
        report.requests.sort(key=lambda r: r.index)
        return report
