"""A merge renders each leaf once and its report carries what it
assembled.

``RouterReport.merge`` renders every leaf once with its rows cut at
their request-id slots (``repro.serving.canonical.cut_report``): the
render's digest is the leaf's sort key, and its cut rows assemble the
merged ledger's ``completed``, ``rejected`` and ``events`` sections,
which the merged report's ``fingerprint()`` writes as carried.  These
tests hold the carried bytes to the tests' oracle and to a whole-row
render of the same columns over merges of every kind of leaf, and
check that the sections never outlive the merged ledger: a pickle,
``renamed`` and ``without`` give a ledger that renders its own bytes.
"""

import hashlib
import pickle
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.report as report_module
from repro.control import ControllerConfig
from repro.core.satisfaction import TimeRequirement
from repro.faults import FaultEvent, FaultTrace
from repro.obs import Instrumentation
from repro.serving import (
    RequestRouter,
    RouterConfig,
    RouterReport,
    Tenant,
    TenantLoad,
)
from repro.serving.ledger import Ledger
from repro.serving.shard.merge import qualify_report, strip_requests
from repro.workloads import bursty_trace
from tests.serving.oracle import oracle_fingerprint

_REQUIREMENT = TimeRequirement(imperceptible_s=0.1, unusable_s=0.5)


def _whole(report):
    """``report`` on a copy of its ledger that carries nothing, so its
    fingerprint renders whole rows from the same columns."""
    ledger = report.ledger
    return replace(
        report, ledger=Ledger(ledger.completed, ledger.rejected, ledger.rows)
    )


@pytest.fixture(scope="module")
def leaves(fleet):
    """One leaf of every kind a merge meets, by name: plain, chaos (its
    failovers and outage rejects name an ``origin``), EWMA-controlled,
    instrumented, a stripped one and an already-merged one."""
    config = RouterConfig(queue_limit=4)

    def run(tenant, seed, **kwargs):
        loads = [TenantLoad(
            Tenant(tenant, _REQUIREMENT, priority=1),
            bursty_trace(60, 400.0, seed=seed),
        )]
        return RequestRouter(fleet, config).run(loads, **kwargs)

    chaos = run("t-chaos", 101, faults=FaultTrace([
        FaultEvent(0.03, "outage", "TX1", episode=0),
        FaultEvent(0.05, "outage", "K20c", episode=1),
        FaultEvent(0.1, "restore", "K20c", episode=1),
    ]))
    assert chaos.resilience.failovers and chaos.n_rejected
    reports = {
        "plain": run("t-plain", 100),
        "chaos": chaos,
        "ewma": run(
            "t-ewma", 102,
            controller=ControllerConfig(kind="ewma", tick_s=0.05).build(),
        ),
        "instrumented": run("t-obs", 100, obs=Instrumentation()),
        "stripped": strip_requests(
            chaos, chaos.ledger.columns("rejected")["rid"][::2]
        ),
    }
    reports["merged"] = RouterReport.merge([
        qualify_report(reports["plain"], 0), qualify_report(chaos, 1),
    ])
    assert reports["merged"].ledger.sections is not None
    return reports


@pytest.fixture(scope="module")
def merged(leaves):
    return RouterReport.merge([
        qualify_report(leaves["ewma"], 0),
        qualify_report(leaves["instrumented"], 1),
    ])


class TestMergedBytes:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_carried_bytes_are_the_columns_bytes(self, leaves, data):
        """Over merges of 2-4 leaves, qualified or not: the merged
        fingerprint is the oracle's and a whole-row render's of the
        same columns, and every sort key is its leaf's fingerprint."""
        names = data.draw(
            st.lists(st.sampled_from(sorted(leaves)), min_size=2, max_size=4)
        )
        reports = [leaves[name] for name in names]
        if data.draw(st.booleans()):
            reports = [
                qualify_report(report, shard)
                for shard, report in enumerate(reports)
            ]
        keys = []
        cut_report = report_module.cut_report

        def keyed(*args):
            pieces, cuts = cut_report(*args)
            payload = "".join(pieces).encode("ascii")
            keys.append(hashlib.sha1(payload).hexdigest())
            return pieces, cuts

        with mock.patch.object(report_module, "cut_report", keyed):
            merged = RouterReport.merge(reports)
        assert keys == [report.fingerprint() for report in reports]
        assert merged.ledger.sections is not None
        fingerprint = merged.fingerprint()
        assert fingerprint == oracle_fingerprint(merged)
        assert fingerprint == _whole(merged).fingerprint()


class TestCarriedSections:
    """The sections live only as long as the merged ledger."""

    def test_a_pickle_leaves_them_out(self, merged):
        restored = pickle.loads(pickle.dumps(merged))
        assert restored.ledger.sections is None
        assert pickle.loads(pickle.dumps(merged.ledger)).sections is None
        assert restored.fingerprint() == merged.fingerprint()
        assert restored.fingerprint() == oracle_fingerprint(restored)

    def test_renamed_renders_its_own(self, merged):
        renamed = qualify_report(merged, 2)
        assert renamed.ledger.sections is None
        assert renamed.fingerprint() == oracle_fingerprint(renamed)
        assert renamed.fingerprint() != merged.fingerprint()

    def test_without_renders_its_own(self, merged):
        rid = merged.ledger.columns("completed")["rid"][0]
        stripped = strip_requests(merged, [rid])
        assert stripped.ledger.sections is None
        assert stripped.n_completed == merged.n_completed - 1
        assert stripped.fingerprint() == oracle_fingerprint(stripped)
        assert stripped.fingerprint() != merged.fingerprint()
        kept = replace(merged, ledger=merged.ledger.without([]))
        assert kept.ledger.sections is None
        assert kept.fingerprint() == merged.fingerprint()

    def test_a_replace_copy_shares_them_with_its_ledger(self, merged):
        """A copy with new obs keeps the ledger, and with it the carried
        sections, which describe nothing but the ledger."""
        copy = replace(merged, obs={"spans": 1})
        assert copy.ledger is merged.ledger
        assert copy.fingerprint() == oracle_fingerprint(copy)
        assert copy.fingerprint() == _whole(copy).fingerprint()
