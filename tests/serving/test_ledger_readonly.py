"""A returned report's ledger and platform rows cannot change in place.

A merged ledger carries its rendered sections, which is sound only if
nothing under them can change: the ledger's columns and rows are
tuples, its column mappings read-only, no attribute of it can be set,
and a report's ``platforms`` is a tuple.  Every in-place change is
tried on a plain router run, a sharded coordinator run (its merged
report and a qualified shard report) and a ``RouterReport.merge``.
"""

import pytest

from repro.core import ApplicationSpec, TaskClass
from repro.core.satisfaction import TimeRequirement
from repro.serving import (
    FleetCoordinator,
    FleetSpec,
    RequestRouter,
    RouterConfig,
    RouterReport,
    Tenant,
    TenantLoad,
)
from repro.serving.ledger import Ledger
from repro.workloads import bursty_trace

_REQUIREMENT = TimeRequirement(imperceptible_s=0.1, unusable_s=0.5)

#: The in-place methods of a list and of a dict.
_LIST_METHODS = (
    "append", "clear", "extend", "insert", "pop", "remove", "reverse", "sort",
)
_DICT_METHODS = ("clear", "pop", "popitem", "setdefault", "update")


def _load(name, seed, n=60):
    return TenantLoad(
        Tenant(name, _REQUIREMENT, priority=1),
        bursty_trace(n, 2000.0, seed=seed),
    )


@pytest.fixture(scope="module")
def reports(fleet):
    config = RouterConfig(queue_limit=4)
    plain = RequestRouter(fleet, config).run([_load("alpha", 1)])
    outcome = FleetCoordinator(
        FleetSpec(
            network="alexnet",
            spec=ApplicationSpec(
                "age-detection", TaskClass.INTERACTIVE, entropy_slack=0.30
            ),
            gpus=("k20c", "tx1"),
            max_tuning_iterations=2,
        ),
        config, n_shards=2, seed=5, inline=True,
    ).run(shard_loads=[[_load("beta", 2)], [_load("gamma", 3)]])
    merged = RouterReport.merge(
        [plain, RequestRouter(fleet, config).run([_load("delta", 4)])]
    )
    found = {
        "plain": plain,
        "sharded": outcome.report,
        "shard": outcome.shard_reports[1],
        "merged": merged,
    }
    for report in found.values():
        assert report.n_completed and report.n_rejected and report.events
    return found


def _refused(change):
    with pytest.raises((AttributeError, TypeError)):
        change()


def _lacks(container, methods):
    assert [name for name in methods if hasattr(container, name)] == []


@pytest.mark.parametrize("name", ["plain", "sharded", "shard", "merged"])
class TestInPlaceChangesRaise:
    def test_columns_and_their_mappings(self, reports, name):
        report = reports[name]
        before = report.fingerprint()
        for section in ("completed", "rejected"):
            columns = report.ledger.columns(section)
            assert columns is getattr(report.ledger, section)
            _refused(lambda: columns.__setitem__("rid", ()))
            _refused(lambda: columns.__delitem__("rid"))
            _lacks(columns, _DICT_METHODS)
            for column in columns.values():
                assert type(column) is tuple
                _refused(lambda: column.__setitem__(0, None))
                _refused(lambda: column.__delitem__(0))
                _lacks(column, _LIST_METHODS)
        assert report.fingerprint() == before

    def test_rows(self, reports, name):
        report = reports[name]
        before = report.fingerprint()
        rows = report.ledger.event_rows()
        assert type(rows) is tuple
        _refused(lambda: rows.__setitem__(0, rows[0]))
        _lacks(rows, _LIST_METHODS)
        for row in rows:
            assert type(row) is tuple
            for part in (row, row[1], row[2], row[6]):
                assert type(part) is tuple
        _refused(lambda: rows[0].__setitem__(0, "enqueue"))
        assert report.fingerprint() == before

    def test_ledger_attributes(self, reports, name):
        ledger = reports[name].ledger
        for attribute in ("completed", "rejected", "rows", "sections", "new"):
            _refused(lambda: setattr(ledger, attribute, None))
        for attribute in ("completed", "rejected", "rows", "sections"):
            _refused(lambda: delattr(ledger, attribute))
        if ledger.sections is not None:
            _refused(lambda: ledger.sections.__setitem__("events", "[]"))

    def test_platforms(self, reports, name):
        platforms = reports[name].platforms
        assert type(platforms) is tuple and platforms
        _lacks(platforms, _LIST_METHODS)


def test_only_merges_carry_sections(reports):
    assert reports["plain"].ledger.sections is None
    assert reports["shard"].ledger.sections is None
    assert set(reports["sharded"].ledger.sections) == {
        "completed", "rejected", "events",
    }
    assert set(reports["merged"].ledger.sections) == {
        "completed", "rejected", "events",
    }


def test_built_from_lists_the_ledger_holds_tuples():
    row = ("fault", (), (), 0.0, None, "P", ())
    ledger = Ledger({"rid": [1, 2]}, rows=[row])
    assert ledger.columns("completed") == {"rid": (1, 2)}
    assert ledger.columns("rejected")["rid"] == ()
    assert ledger.event_rows() == (row,)
