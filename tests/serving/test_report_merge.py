"""Tests for RouterReport.merge: order independence,
ResilienceStats recombination, percentile recomputation over merged
records, and the ledger transforms (merge, qualify, strip) against
their record-object oracle."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.satisfaction import SoCBreakdown, TimeRequirement
from repro.faults import FaultEvent, FaultTrace
from repro.obs import linear_percentile
from repro.serving import (
    CompletedRequest,
    PlatformStats,
    RejectedRequest,
    Request,
    RequestRouter,
    ResilienceStats,
    RouterConfig,
    RouterReport,
    Tenant,
    TenantLoad,
)
from repro.serving.shard.merge import qualify_report, strip_requests
from repro.workloads import bursty_trace
from tests.serving.event_log import EventLog, ledger_of
from tests.serving.oracle import (
    checked_fingerprint,
    oracle_merge,
    oracle_qualify,
    oracle_strip,
)

#: Fixed platform -> GPU mapping so any two leaves mentioning the
#: same platform agree on its hardware (merge rejects mismatches).
_GPUS = {"P0": "gpu-a", "P1": "gpu-b"}

_REQUIREMENT = TimeRequirement(imperceptible_s=0.1, unusable_s=0.5)


def _request(rid, tenant_name, arrival_s):
    return Request(
        rid=rid,
        tenant=Tenant(tenant_name, _REQUIREMENT, priority=1),
        arrival_s=arrival_s,
    )


@st.composite
def leaf_reports(draw):
    """One synthetic single-router report: dense local rids, one
    terminal record per request, events referencing those rids.

    Arrivals often tie across leaves (``-0.0`` against ``0.0`` too),
    a leaf may hold rejections only, completions share one multi-rid
    ``dispatch``, and failovers and outage rejects name an ``origin``
    platform."""
    n_completed = draw(st.integers(min_value=0, max_value=4))
    n_rejected = draw(st.integers(min_value=0, max_value=3))
    horizon_s = draw(
        st.floats(min_value=5.0, max_value=20.0, allow_nan=False)
    )
    tenants = st.sampled_from(("alpha", "beta", "gamma"))
    arrivals = st.sampled_from((-0.0, 0.0, 1.5)) | st.floats(
        min_value=0.0, max_value=4.0, allow_nan=False
    )
    origins = st.sampled_from(tuple(_GPUS))
    completed = []
    rejected = []
    events = EventLog()
    rid = 0
    for _ in range(n_completed):
        request = _request(rid, draw(tenants), draw(arrivals))
        latency = draw(
            st.floats(min_value=0.01, max_value=0.6, allow_nan=False)
        )
        platform = draw(st.sampled_from(tuple(_GPUS)))
        record = CompletedRequest(
            request=request,
            platform=platform,
            level=draw(st.integers(min_value=0, max_value=2)),
            batch=draw(st.integers(min_value=1, max_value=4)),
            start_s=request.arrival_s,
            finish_s=request.arrival_s + latency,
            entropy=draw(
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
            ),
            soc=SoCBreakdown(
                soc_time=1.0, soc_accuracy=1.0,
                energy_joules=0.1, value=1.0,
            ),
        )
        completed.append(record)
        events.record(
            "enqueue", request.arrival_s,
            tenant=request.tenant.name, request_ids=(rid,),
        )
        if draw(st.booleans()):
            events.record(
                "failover", request.arrival_s, tenant=request.tenant.name,
                platform=platform, request_ids=(rid,),
                origin=draw(origins), level=0,
            )
        events.record(
            "complete", record.finish_s,
            tenant=request.tenant.name, platform=platform,
            request_ids=(rid,),
        )
        rid += 1
    if completed:
        events.record(
            "dispatch", max(r.start_s for r in completed), platform="P0",
            request_ids=tuple(r.request.rid for r in completed),
            batch=len(completed), level=0,
        )
    for _ in range(n_rejected):
        request = _request(rid, draw(tenants), draw(arrivals))
        reason = draw(st.sampled_from(("saturated", "outage")))
        detail = {"origin": draw(origins)} if reason == "outage" else {}
        rejected.append(RejectedRequest(request=request, reason=reason))
        events.record(
            "reject", request.arrival_s,
            tenant=request.tenant.name, request_ids=(rid,),
            reason=reason, **detail,
        )
        rid += 1
    events.record("fault", horizon_s, platform="P1", fault_kind="outage")
    platforms = [
        PlatformStats(
            platform=name,
            gpu=_GPUS[name],
            batches=draw(st.integers(min_value=0, max_value=5)),
            requests=draw(st.integers(min_value=0, max_value=8)),
            busy_s=draw(
                st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
            ),
            utilization=0.1,
            energy_j=draw(
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
            ),
            mean_level=draw(
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
            ),
            peak_level=draw(st.integers(min_value=0, max_value=3)),
            final_level=0,
            failed_batches=draw(st.integers(min_value=0, max_value=2)),
        )
        for name in sorted(draw(st.sets(st.sampled_from(tuple(_GPUS)),
                                        min_size=1, max_size=2)))
    ]
    resilience = None
    if draw(st.booleans()):
        episodes = draw(st.integers(min_value=0, max_value=3))
        resilience = ResilienceStats(
            faults_injected=draw(st.integers(min_value=0, max_value=5)),
            outages=draw(st.integers(min_value=0, max_value=2)),
            mttr_s=draw(
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
            ) if episodes else 0.0,
            mttr_episodes=episodes,
            retries=draw(st.integers(min_value=0, max_value=4)),
        )
    return RouterReport(
        platforms=platforms,
        horizon_s=horizon_s,
        resilience=resilience,
        ledger=ledger_of(completed, rejected, events),
    )


class TestMergeProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        leaves=st.lists(leaf_reports(), min_size=2, max_size=4),
        seed=st.randoms(use_true_random=False),
    )
    def test_order_independent(self, leaves, seed):
        """Any permutation of the leaves merges bit-identically."""
        shuffled = list(leaves)
        seed.shuffle(shuffled)
        assert (
            RouterReport.merge(shuffled).fingerprint()
            == RouterReport.merge(leaves).fingerprint()
        )

    @settings(max_examples=25, deadline=None)
    @given(leaves=st.lists(leaf_reports(), min_size=2, max_size=3))
    def test_merge_preserves_totals(self, leaves):
        merged = RouterReport.merge(leaves)
        assert merged.n_offered == sum(r.n_offered for r in leaves)
        assert merged.n_completed == sum(r.n_completed for r in leaves)
        rids = sorted(
            [r.request.rid for r in merged.completed]
            + [r.request.rid for r in merged.rejected]
        )
        assert rids == list(range(merged.n_offered))

    @settings(max_examples=25, deadline=None)
    @given(leaves=st.lists(leaf_reports(), min_size=2, max_size=3))
    def test_percentile_recomputed_over_union(self, leaves):
        """Merged percentiles come from the union of leaf latencies."""
        merged = RouterReport.merge(leaves)
        union = [
            record.latency_s for leaf in leaves for record in leaf.completed
        ]
        for q in (50.0, 95.0, 99.0):
            assert merged.percentile_latency_s(q) == linear_percentile(
                union, q
            )


class TestResilienceMerge:
    def test_counters_sum(self):
        a = ResilienceStats(faults_injected=2, outages=1, retries=3,
                            mttr_s=1.0, mttr_episodes=1)
        b = ResilienceStats(faults_injected=1, outages=0, retries=2,
                            mttr_s=0.0, mttr_episodes=0)
        merged = ResilienceStats.merge([a, b])
        assert merged.faults_injected == 3
        assert merged.outages == 1
        assert merged.retries == 5

    def test_mttr_episode_weighted(self):
        a = ResilienceStats(mttr_s=1.0, mttr_episodes=1)
        b = ResilienceStats(mttr_s=3.0, mttr_episodes=3)
        merged = ResilienceStats.merge([a, b])
        assert merged.mttr_episodes == 4
        assert merged.mttr_s == pytest.approx((1.0 + 9.0) / 4)

    def test_zero_episodes(self):
        merged = ResilienceStats.merge(
            [ResilienceStats(), ResilienceStats()]
        )
        assert merged.mttr_s == 0.0
        assert merged.mttr_episodes == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ResilienceStats.merge([])


class TestMergeValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RouterReport.merge([])

    def test_single_leaf_unchanged(self):
        report = RouterReport(horizon_s=3.0)
        assert RouterReport.merge([report]) is report

    def test_gpu_mismatch_rejected(self):
        def leaf(gpu):
            return RouterReport(
                platforms=[PlatformStats(
                    platform="P0", gpu=gpu, batches=0, requests=0,
                    busy_s=0.0, utilization=0.0, energy_j=0.0,
                    mean_level=0.0, peak_level=0, final_level=0,
                )],
                horizon_s=1.0,
            )
        with pytest.raises(ValueError):
            RouterReport.merge([leaf("gpu-a"), leaf("gpu-b")])

    def test_duplicate_rid_within_leaf_rejected(self):
        request = _request(0, "alpha", 0.0)
        leaf = RouterReport(
            horizon_s=1.0,
            ledger=ledger_of(rejected=[
                RejectedRequest(request=request, reason="saturated"),
                RejectedRequest(request=request, reason="saturated"),
            ]),
        )
        with pytest.raises(ValueError):
            RouterReport.merge([leaf, RouterReport(horizon_s=1.0)])


class TestMergeEndToEnd:
    @pytest.fixture(scope="class")
    def leaf_runs(self, fleet):
        """Three real single-router runs over distinct tenants."""
        reports = []
        for index in range(3):
            loads = [TenantLoad(
                Tenant("tenant-%d" % index, _REQUIREMENT, priority=1),
                bursty_trace(30, 30.0, seed=100 + index),
            )]
            reports.append(
                RequestRouter(fleet, RouterConfig()).run(loads)
            )
        return reports

    def test_real_reports_merge_in_any_order(self, leaf_runs):
        a, b, c = leaf_runs
        assert (
            RouterReport.merge([c, b, a]).fingerprint()
            == RouterReport.merge([a, b, c]).fingerprint()
        )

    def test_real_reports_merge_totals(self, leaf_runs):
        merged = RouterReport.merge(leaf_runs)
        assert merged.n_offered == sum(r.n_offered for r in leaf_runs)
        assert merged.horizon_s == max(r.horizon_s for r in leaf_runs)
        union = [
            record.latency_s
            for leaf in leaf_runs
            for record in leaf.completed
        ]
        assert merged.percentile_latency_s(95.0) == linear_percentile(
            union, 95.0
        )


def _assert_agree(actual, expected):
    """The ledger transform's report matches the oracle's byte for
    byte."""
    assert actual.fingerprint() == checked_fingerprint(expected)
    assert actual.to_dict(
        include_events=True, include_requests=True
    ) == expected.to_dict(include_events=True, include_requests=True)


def _check_transforms(leaves, data):
    """What the coordinator does -- strip drawn rids (none, some or all
    of a dispatch's), qualify, merge -- through the ledger and through
    the oracle; every step agrees."""
    actual, expected = [], []
    for shard_id, leaf in enumerate(leaves):
        rids = sorted(
            leaf.ledger.columns("completed")["rid"]
            + leaf.ledger.columns("rejected")["rid"]
        )
        gone = data.draw(st.sets(st.sampled_from(rids))) if rids else ()
        stripped = strip_requests(leaf, gone)
        oracle = oracle_strip(leaf, gone)
        _assert_agree(stripped, oracle)
        actual.append(qualify_report(stripped, shard_id))
        expected.append(oracle_qualify(oracle, shard_id))
        _assert_agree(actual[-1], expected[-1])
    _assert_agree(RouterReport.merge(actual), oracle_merge(expected))


class TestLedgerTransformsMatchOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        leaves=st.lists(leaf_reports(), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_synthetic_leaves(self, leaves, data):
        _check_transforms(leaves, data)

    @pytest.fixture(scope="class")
    def runs(self, fleet, deployments):
        """Three real columnar runs: overload rejects and admission
        degrades, a chaos run (failovers and outage rejects carry an
        ``origin``), and a run sharing the first one's arrivals."""
        reports = []
        config = RouterConfig(queue_limit=4)
        for index, (tenant, faulted) in enumerate(
            (("t-a", False), ("t-b", True), ("t-c", False))
        ):
            loads = [TenantLoad(
                Tenant(tenant, _REQUIREMENT, priority=1),
                bursty_trace(60, 400.0, seed=100 + index % 2),
            )]
            faults = None
            if faulted:
                faults = FaultTrace([
                    FaultEvent(0.03, "outage", "TX1", episode=0),
                    FaultEvent(0.05, "outage", "K20c", episode=1),
                    FaultEvent(0.1, "restore", "K20c", episode=1),
                ])
            reports.append(
                RequestRouter(fleet, config).run(loads, faults=faults)
            )
        reasons = set(reports[1].ledger.columns("rejected")["reason"])
        assert "outage" in reasons and reports[1].resilience.failovers
        return reports

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_real_runs(self, runs, data):
        order = data.draw(st.permutations(range(len(runs))))
        count = data.draw(st.integers(min_value=1, max_value=len(runs)))
        _check_transforms([runs[index] for index in order[:count]], data)

    def test_rename_called_once_per_name(self, runs):
        """``Ledger.renamed`` maps each distinct platform name once,
        however many records and events carry it."""
        calls = Counter()

        def rename(name):
            calls[name] += 1
            return "s0/" + name

        ledger = runs[1].ledger
        names = set(ledger.columns("completed")["platform"])
        for _, keys, values, _, _, platform, _ in ledger.event_rows():
            if platform is not None:
                names.add(platform)
            if "origin" in keys:
                names.add(values[keys.index("origin")])
        renamed = ledger.renamed(rename)
        assert calls == Counter(dict.fromkeys(names, 1))
        assert names == {"K20c", "TX1"}
        assert renamed.columns("completed")["platform"] == tuple(
            "s0/" + name for name in ledger.columns("completed")["platform"]
        )

    def test_orphan_rid_rejected(self):
        events = EventLog()
        events.record("enqueue", 0.0, tenant="alpha", request_ids=(7,))
        orphan = RouterReport(horizon_s=1.0, ledger=ledger_of(events=events))
        with pytest.raises(ValueError, match="no terminal record"):
            RouterReport.merge([orphan, RouterReport(horizon_s=1.0)])
