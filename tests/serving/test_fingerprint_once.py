"""A sharded run renders each record once; a shard result declares a
fingerprint only where it can change hands.

Three contracts keep ``storm_sharded``-style runs at one render of
each record (the two qualified leaves, cut, as merge keys; the merged
report's fingerprint then renders only its head):

* **a plain render** -- ``RouterReport.fingerprint`` keeps nothing on
  the report, so every call renders the report as it is: a report's
  fields cannot be assigned, a list read off it is a copy, and a
  ``dataclasses.replace`` copy or an unpickled report renders its own
  bytes;
* **a merge carries what it assembled** -- ``RouterReport.merge``
  renders each leaf once with its rows cut at their request-id slots,
  and the merged ledger carries the sections assembled from those
  rows (``Ledger.sections``), which every fingerprint of the merged
  report writes as they are;
* **declaration at the boundary** -- ``run_shard`` declares nothing;
  a ``ShardResult`` declares its report's fingerprint when pickled
  (the spawn pipe, a checkpoint file) and a fault plan's ``tamper``
  declares before it mutates, and ``validate_result`` recomputes only
  to compare against a declaration.

Renders are counted with shims on ``repro.serving.report.write_report``
and ``cut_report``, the names ``fingerprint()`` and ``merge`` look up,
and rows with one on the canonical row renderer.
"""

import dataclasses
import glob
import os
import pickle

import pytest

import repro.serving.canonical as canonical_module
import repro.serving.report as report_module
import repro.serving.shard.coordinator as coordinator_module
from repro.core import ApplicationSpec, TaskClass
from repro.core.satisfaction import TimeRequirement
from repro.obs import Instrumentation
from repro.resilience import (
    ProcFaultPlan,
    SupervisionReport,
    SupervisorConfig,
    validate_result,
    witness_disagreement,
)
from repro.serving import (
    FleetCoordinator,
    FleetSpec,
    RequestRouter,
    RouterConfig,
    Tenant,
    TenantLoad,
)
from repro.serving.ledger import Ledger
from repro.serving.shard import ShardResult, run_shard, shard_label, shard_seed
from repro.workloads import bursty_trace
from tests.serving.oracle import oracle_fingerprint
from tests.serving.test_obs_ledger import GOLDENS, SHARDED_SCENARIOS

_REQUIREMENT = TimeRequirement(imperceptible_s=0.1, unusable_s=0.5)


@pytest.fixture
def renders(monkeypatch):
    """Every canonical render made while the test runs, as the name of
    the writer called: ``write_report`` or ``cut_report``."""
    calls = []

    def counting(name):
        write = getattr(report_module, name)

        def counted(*args):
            calls.append(name)
            return write(*args)

        monkeypatch.setattr(report_module, name, counted)

    counting("write_report")
    counting("cut_report")
    return calls


@pytest.fixture
def rows(monkeypatch):
    """Every shape of rows the canonical writer renders while the test
    runs, as its ``cut`` flag."""
    calls = []
    render = canonical_module._ReportTexts.rows

    def counted(texts, *args):
        calls.append(args[-1])
        return render(texts, *args)

    monkeypatch.setattr(canonical_module._ReportTexts, "rows", counted)
    return calls


@pytest.fixture
def report(fleet, snappy_tenant):
    """An overloaded run: completions, rejections and events."""
    report = RequestRouter(fleet, RouterConfig(queue_limit=4)).run(
        [TenantLoad(snappy_tenant, bursty_trace(60, 2000.0, seed=3))]
    )
    assert report.n_completed and report.n_rejected
    return report


def _fleet_spec():
    return FleetSpec(
        network="alexnet",
        spec=ApplicationSpec(
            "age-detection", TaskClass.INTERACTIVE, entropy_slack=0.30
        ),
        gpus=("k20c",),
        max_tuning_iterations=2,
    )


def _shard_loads(n_shards, n_requests=20, seed=5):
    return [
        [
            TenantLoad(
                Tenant(
                    "tenant-%s" % shard_label(shard), _REQUIREMENT,
                    priority=1,
                ),
                bursty_trace(n_requests, 25.0, seed=shard_seed(seed, shard)),
            )
        ]
        for shard in range(n_shards)
    ]


def _coordinate(n_shards=2, inline=True, **kwargs):
    return FleetCoordinator(
        _fleet_spec(), RouterConfig(), n_shards=n_shards, seed=5,
        inline=inline, **kwargs,
    ).run(shard_loads=_shard_loads(n_shards))


@pytest.fixture(scope="module")
def clean_three():
    return _coordinate(n_shards=3).report.fingerprint()


class TestRenderCounts:
    @pytest.mark.parametrize("name", ["two_shards", "two_shards_ewma"])
    def test_inline_two_shard_run_renders_three_times(
        self, renders, rows, name
    ):
        """Three renders, one of each record: the two qualified leaves,
        cut, as merge keys, then the merged report's head, whose rows
        its ledger carries from the leaves' cut rows."""
        outcome = SHARDED_SCENARIOS[name]()
        assert renders == ["cut_report", "cut_report"]
        assert rows and all(rows)
        del rows[:]
        assert outcome.report.ledger.sections is not None
        assert outcome.report.fingerprint() == GOLDENS[name]["fingerprint"]
        assert renders == ["cut_report", "cut_report", "write_report"]
        assert rows == []


#: One change per report attribute, as ``dataclasses.replace``
#: keywords: a new value, or for ``completed``/``rejected``/``events`` a
#: ledger without that section.
_CHANGES = {
    "horizon_s": lambda r: {"horizon_s": r.horizon_s + 1.0},
    "obs": lambda r: {"obs": {"spans": 1}},
    "control": lambda r: {"control": {"ticks": 1}},
    "platforms": lambda r: {"platforms": r.platforms[:1]},
    "ledger": lambda r: {"ledger": Ledger()},
    "completed": lambda r: {
        "ledger": Ledger(rejected=r.ledger.rejected, rows=r.ledger.rows)
    },
    "rejected": lambda r: {
        "ledger": Ledger(r.ledger.completed, rows=r.ledger.rows)
    },
    "events": lambda r: {
        "ledger": Ledger(r.ledger.completed, r.ledger.rejected)
    },
}


class TestMemo:
    """Every call renders the report as it is now."""

    @pytest.mark.parametrize("name", list(_CHANGES))
    def test_any_assignment_drops_the_memo(self, renders, report, name):
        """An assignment is refused and the report renders as it was;
        the same change made on a ``replace`` copy renders anew."""
        before = report.fingerprint()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(report, name, None)
        assert report.fingerprint() == before
        copy = dataclasses.replace(report, **_CHANGES[name](report))
        after = copy.fingerprint()
        assert after != before
        assert after == oracle_fingerprint(copy)
        assert len(renders) == 3

    def test_run_sets_obs_after_the_loop(self, fleet, snappy_tenant):
        """An instrumented run's report carries its obs section in
        the digest: ``run`` returns a copy that holds it."""
        load = TenantLoad(snappy_tenant, bursty_trace(30, 40.0, seed=3))
        plain = RequestRouter(fleet, RouterConfig()).run([load])
        instrumented = RequestRouter(fleet, RouterConfig()).run(
            [load], obs=Instrumentation()
        )
        assert instrumented.fingerprint() != plain.fingerprint()
        assert instrumented.fingerprint() == oracle_fingerprint(instrumented)

    def test_supervision_obs_drops_the_memo(self, report):
        report = dataclasses.replace(report, obs={"metrics": {}})
        before = report.fingerprint()
        supervised = FleetCoordinator._attach_supervision_obs(
            report, SupervisionReport(), []
        )
        assert report.obs == {"metrics": {}} != supervised.obs
        # ``supervisor_*`` series are fingerprint-neutral.
        assert supervised.fingerprint() == before

    def test_replace_copy_starts_without_it(self, renders, report):
        before = report.fingerprint()
        copy = dataclasses.replace(report)
        assert copy.fingerprint() == before == oracle_fingerprint(copy)
        assert len(renders) == 2

    def test_pickle_leaves_it_out(self, renders, report):
        before = report.fingerprint()
        restored = pickle.loads(pickle.dumps(report))
        assert restored.fingerprint() == before
        assert before == oracle_fingerprint(restored)
        assert len(renders) == 2

    def test_a_changed_read_list_changes_no_render(self, renders, report):
        """A list read off a report is a copy: editing it leaves the
        next render as it was, and each call still renders."""
        before = report.fingerprint()
        report.rejected.pop()
        assert report.fingerprint() == before
        assert len(renders) == 2

    def test_a_copy_shares_its_ledger_read_only(self, report):
        """A ``replace`` copy shares the ledger; a list read and edited
        through the copy reaches neither digest."""
        before = report.fingerprint()
        copy = dataclasses.replace(report)
        copy.completed.pop()
        assert copy.ledger is report.ledger
        assert report.fingerprint() == before == copy.fingerprint()


class TestDeclaration:
    def test_inline_results_are_undeclared(self, monkeypatch):
        seen = []

        def recording(spec):
            result = run_shard(spec)
            seen.append(result)
            return result

        monkeypatch.setattr(coordinator_module, "run_shard", recording)
        _coordinate()
        assert len(seen) == 2
        assert all(result.declared_fingerprint is None for result in seen)

    def test_pickling_declares(self, report):
        result = ShardResult(shard_id=0, seed=1, report=report)
        restored = pickle.loads(pickle.dumps(result))
        assert result.declared_fingerprint is None
        assert restored.declared_fingerprint == report.fingerprint()
        assert restored.report.fingerprint() == report.fingerprint()
        assert validate_result(
            dataclasses.make_dataclass("Spec", ["shard_id", "seed"])(0, 1),
            restored,
        ) is None

    def test_pickling_keeps_an_existing_declaration(self, report):
        result = ShardResult(
            shard_id=0, seed=1, report=report, declared_fingerprint="stale"
        )
        assert pickle.loads(pickle.dumps(result)).declared_fingerprint == (
            "stale"
        )

    @pytest.mark.parametrize("kind", ["corrupt", "forge"])
    def test_tamper_declares_before_it_mutates(self, report, kind):
        result = ShardResult(shard_id=0, seed=1, report=report)
        mangled = ProcFaultPlan().tamper(kind, result)
        declared = mangled.declared_fingerprint
        if kind == "corrupt":
            assert declared == report.fingerprint()
            assert mangled.report.fingerprint() != declared
        else:
            assert declared == mangled.report.fingerprint()
            assert declared != report.fingerprint()

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "spawn"])
    def test_tampered_results_are_rejected(self, inline, clean_three):
        """Corrupt and truncate fail integrity; forge passes it and
        fails the witness quorum.  Inline and spawn agree."""
        outcome = _coordinate(
            n_shards=3,
            inline=inline,
            proc_faults=ProcFaultPlan(
                forced=((0, "corrupt"), (1, "truncate"), (2, "forge"))
            ),
            supervision=SupervisorConfig(witness=True, timeout_s=120.0),
        )
        assert [
            (failure.shard_id, failure.kind)
            for failure in outcome.supervision.failures
        ] == [(0, "integrity"), (1, "integrity"), (2, "witness")]
        assert outcome.statuses == ("retried", "retried", "retried")
        assert outcome.report.fingerprint() == clean_three

    def test_witness_compares_declarations_without_rendering(
        self, renders, report
    ):
        fingerprint = report.fingerprint()
        primary, witness = (
            ShardResult(
                shard_id=0, seed=1, report=dataclasses.replace(report),
                declared_fingerprint=fingerprint,
            )
            for _copy in range(2)
        )
        del renders[:]
        assert witness_disagreement(primary, witness) is None
        assert renders == []

    def test_witness_renders_an_undeclared_result_to_reject_a_forgery(
        self, renders, report
    ):
        """A forged inline primary declares its own mutated report; the
        inline witness declares nothing, so it alone is rendered."""
        forged = ProcFaultPlan().tamper(
            "forge", ShardResult(shard_id=0, seed=1, report=report)
        )
        witness = ShardResult(shard_id=0, seed=1, report=report)
        del renders[:]
        reason = witness_disagreement(forged, witness)
        assert reason is not None and reason.startswith("witness:")
        assert len(renders) == 1

    def test_checkpoints_carry_a_declaration(self, tmp_path):
        resume_dir = str(tmp_path)
        clean = _coordinate(resume_dir=resume_dir)
        paths = sorted(glob.glob(os.path.join(resume_dir, "shard-*.pkl")))
        assert len(paths) == 2
        payloads = []
        for path in paths:
            with open(path, "rb") as handle:
                payloads.append(pickle.load(handle))
        for payload in payloads:
            result = payload["result"]
            assert result.declared_fingerprint is not None
            assert result.declared_fingerprint == result.report.fingerprint()

        # Tamper with shard 0's checkpoint under its stale declaration.
        payload = payloads[0]
        result = payload["result"]
        payload["result"] = dataclasses.replace(
            result,
            report=dataclasses.replace(
                result.report, horizon_s=result.report.horizon_s + 1.0
            ),
        )
        with open(paths[0], "wb") as handle:
            pickle.dump(payload, handle, protocol=4)

        resumed = _coordinate(resume_dir=resume_dir)
        assert resumed.statuses == ("ok", "resumed")
        assert resumed.report.fingerprint() == clean.report.fingerprint()
