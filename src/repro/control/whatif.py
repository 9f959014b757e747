"""Replay what-if harness: the same trace, reactive vs predictive.

The control plane's value claim -- pre-warming and proactive
degradation flatten the tail under bursty overload -- is only testable
as a controlled experiment: serve *the same* arrival trace (and fault
schedule) twice through otherwise-identical routers, once purely
reactive and once with a :class:`~repro.control.plane.ControlPlane`
attached, and compare the reports.  :func:`run_whatif` is that
experiment, and :class:`WhatIfOutcome` its plain-data result: per-mode
summaries, predictive-minus-reactive deltas, and the cache-neutral
fingerprints of both runs (so the experiment itself can be asserted
bit-reproducible).

Both runs build fresh per-run router state from the same deployments,
so nothing leaks between them except engine plan caches -- which are
deliberately fingerprint-neutral (compile happens off the sim clock;
see :data:`repro.obs.span.CACHE_SENSITIVE_SPANS`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.control.plane import ControllerConfig
from repro.obs.instrument import Instrumentation
from repro.serving.report import RouterReport, cache_neutral_control_section
from repro.serving.router import RequestRouter, RouterConfig

__all__ = ["WhatIfOutcome", "run_whatif"]

#: Per-mode summary statistics, in report order.
_SUMMARY_KEYS = (
    "deadline_hit_rate",
    "p99_latency_s",
    "n_completed",
    "n_rejected",
    "energy_j",
    "mean_soc",
)


def _summarize(report: RouterReport) -> dict:
    """The comparison-relevant scalars of one report."""
    return {
        "deadline_hit_rate": report.deadline_hit_rate,
        "p99_latency_s": report.percentile_latency_s(99.0),
        "n_completed": report.n_completed,
        "n_rejected": report.n_rejected,
        "energy_j": report.total_energy_j,
        "mean_soc": report.mean_soc,
    }


@dataclass(frozen=True)
class WhatIfOutcome:
    """Both runs of one what-if experiment, plus the comparison.

    Both reports are fingerprinted once, when the outcome is built;
    :meth:`to_dict` and :meth:`fingerprint` read the recorded digests.
    """

    reactive: RouterReport
    predictive: RouterReport
    controller: ControllerConfig
    reactive_fingerprint: str = field(init=False)
    predictive_fingerprint: str = field(init=False)

    def __post_init__(self) -> None:
        for mode in ("reactive", "predictive"):
            report = getattr(self, mode)
            object.__setattr__(
                self, mode + "_fingerprint", report.fingerprint()
            )

    @property
    def reactive_summary(self) -> dict:
        """Comparison scalars of the reactive run."""
        return _summarize(self.reactive)

    @property
    def predictive_summary(self) -> dict:
        """Comparison scalars of the predictive run."""
        return _summarize(self.predictive)

    @property
    def deltas(self) -> dict:
        """Predictive minus reactive, per summary statistic."""
        reactive = self.reactive_summary
        predictive = self.predictive_summary
        return {key: predictive[key] - reactive[key] for key in _SUMMARY_KEYS}

    def to_dict(self) -> dict:
        """Plain-data comparison report (summaries, deltas, the
        controller recipe, and both run fingerprints)."""
        config = self.controller
        return {
            "controller": {
                "kind": config.kind,
                "tick_s": config.tick_s,
                "horizon_ticks": config.horizon_ticks,
                "lookahead_levels": config.lookahead_levels,
                "headroom": config.headroom,
                "dvfs_headroom": config.dvfs_headroom,
                "prewarm": config.prewarm,
                "dvfs": config.dvfs,
            },
            "reactive": self.reactive_summary,
            "predictive": self.predictive_summary,
            "deltas": self.deltas,
            "control": self.predictive.control,
            "fingerprints": {
                "reactive": self.reactive_fingerprint,
                "predictive": self.predictive_fingerprint,
            },
        }

    def fingerprint(self) -> str:
        """SHA-1 over the cache-neutral canonical comparison.

        Stable across same-seed re-runs for the same reason the
        underlying report fingerprints are: everything
        cache-temperature-sensitive is already stripped by
        :meth:`RouterReport.fingerprint`, and the control section of
        :meth:`to_dict` is replaced by its own neutral form.  Renders
        no report: the report fingerprints are the recorded ones.
        """
        data = self.to_dict()
        if data["control"] is not None:
            data["control"] = cache_neutral_control_section(data["control"])
        payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def run_whatif(
    deployments,
    loads: Sequence,
    config: Optional[RouterConfig] = None,
    controller: Optional[ControllerConfig] = None,
    faults=None,
    instrument: bool = False,
) -> WhatIfOutcome:
    """Serve ``loads`` reactively and predictively; compare.

    ``deployments`` is anything :class:`RequestRouter` accepts (a
    :class:`~repro.core.fleet.FleetManager` or a deployment mapping);
    ``config`` the shared router tunables; ``controller`` the control
    plane recipe (defaults to :class:`ControllerConfig`'s defaults).
    With ``instrument=True`` both runs carry full
    :class:`~repro.obs.Instrumentation` (their obs sections land in
    the reports as usual).
    """
    if controller is None:
        controller = ControllerConfig()

    def run(plane) -> RouterReport:
        router = RequestRouter(deployments, config)
        obs = Instrumentation() if instrument else None
        return router.run(loads, faults=faults, obs=obs, controller=plane)

    reactive = run(None)
    predictive = run(controller.build())
    return WhatIfOutcome(
        reactive=reactive, predictive=predictive, controller=controller
    )
