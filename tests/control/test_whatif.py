"""What-if harness tests: comparison report shape and determinism."""

import json

import pytest

import repro.serving.report as report_module
from repro.control import ControllerConfig, WhatIfOutcome, run_whatif
from repro.serving import RouterConfig, TenantLoad
from repro.workloads import bursty_trace

STORM_RATE_HZ = 700.0


def _storm(snappy_tenant, n_requests=600):
    return [TenantLoad(snappy_tenant, bursty_trace(
        n_requests=n_requests, rate_hz=STORM_RATE_HZ,
        burst_factor=6.0, burst_fraction=0.3, seed=42,
    ))]


@pytest.fixture(scope="module")
def outcome(fleet, snappy_tenant_module):
    return run_whatif(
        fleet,
        _storm(snappy_tenant_module),
        controller=ControllerConfig(tick_s=0.05, headroom=1.5),
    )


@pytest.fixture(scope="module")
def snappy_tenant_module():
    from repro.core.satisfaction import TimeRequirement
    from repro.serving import Tenant

    return Tenant(
        "snappy", TimeRequirement(imperceptible_s=0.1, unusable_s=0.5),
        priority=1,
    )


class TestOutcomeShape:
    def test_modes_and_controller(self, outcome):
        assert isinstance(outcome, WhatIfOutcome)
        assert outcome.reactive.control is None
        assert outcome.predictive.control is not None
        assert outcome.controller.kind == "ewma"

    def test_summaries_and_deltas_align(self, outcome):
        reactive = outcome.reactive_summary
        predictive = outcome.predictive_summary
        deltas = outcome.deltas
        assert set(reactive) == set(predictive) == set(deltas)
        for key, value in deltas.items():
            assert value == predictive[key] - reactive[key]

    def test_both_modes_conserve_requests(self, outcome, snappy_tenant_module):
        """Every generated request is terminal exactly once per mode:
        as many terminal records as requests, and no rid twice."""
        generated = sum(
            load.trace.n_requests for load in _storm(snappy_tenant_module)
        )
        for report in (outcome.reactive, outcome.predictive):
            rids = [record.request.rid for record in report.completed]
            rids += [record.request.rid for record in report.rejected]
            assert len(rids) == generated
            assert len(set(rids)) == len(rids)

    def test_to_dict_is_json_plain(self, outcome):
        data = outcome.to_dict()
        assert set(data) == {
            "controller", "reactive", "predictive", "deltas",
            "control", "fingerprints",
        }
        # Round-trips through JSON without custom encoders.
        assert json.loads(json.dumps(data, sort_keys=True)) is not None
        assert data["fingerprints"]["reactive"] == outcome.reactive.fingerprint()

    def test_reading_an_outcome_renders_no_report(self, outcome, monkeypatch):
        """Both report fingerprints are taken when the outcome is
        built: ``to_dict()`` and ``fingerprint()`` render nothing."""
        renders = []
        write = report_module.write_report

        def counting(*args):
            renders.append(args)
            return write(*args)

        monkeypatch.setattr(report_module, "write_report", counting)
        outcome.to_dict()
        outcome.fingerprint()
        assert renders == []
        outcome.predictive.fingerprint()
        assert len(renders) == 1


class TestDeterminism:
    def test_same_seed_whatif_bit_identical(self, fleet, snappy_tenant_module):
        config = ControllerConfig(tick_s=0.05, headroom=1.5)
        first = run_whatif(
            fleet, _storm(snappy_tenant_module), controller=config
        )
        second = run_whatif(
            fleet, _storm(snappy_tenant_module), controller=config
        )
        assert first.fingerprint() == second.fingerprint()
        assert (
            first.predictive.fingerprint() == second.predictive.fingerprint()
        )
        assert first.reactive.fingerprint() == second.reactive.fingerprint()

    def test_fingerprint_neutral_to_prewarm_temperature(self, outcome):
        # The serialized comparison keeps the hit/miss split for
        # humans, but a run against a warmer cache -- same routing,
        # different hit/miss split -- must fingerprint identically.
        from dataclasses import replace

        data = outcome.to_dict()
        assert "hits" in data["control"]["prewarm"]
        warmer_control = dict(outcome.predictive.control)
        warmer_control["prewarm"] = {
            "requested": warmer_control["prewarm"]["requested"],
            "hits": warmer_control["prewarm"]["requested"],
            "misses": 0,
        }
        warmer = WhatIfOutcome(
            reactive=outcome.reactive,
            predictive=replace(
                outcome.predictive, control=warmer_control
            ),
            controller=outcome.controller,
        )
        assert warmer.fingerprint() == outcome.fingerprint()


class TestOptions:
    def test_default_controller_and_instrumented_runs(
        self, fleet, snappy_tenant_module
    ):
        outcome = run_whatif(
            fleet,
            _storm(snappy_tenant_module, n_requests=200),
            config=RouterConfig(),
            instrument=True,
        )
        assert outcome.controller == ControllerConfig()
        assert outcome.reactive.obs is not None
        assert outcome.predictive.obs is not None
