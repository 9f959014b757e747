"""ProcFaultPlan: deterministic decisions, forced pins, tampering."""

import dataclasses

import pytest

from repro.resilience import FAULT_KINDS, ProcFaultPlan
from repro.resilience.procfaults import TAMPER_KINDS, _unit
from repro.serving.report import RouterReport
from repro.serving.shard import ShardResult


class TestDecide:
    def test_pure_in_seed_shard_attempt(self):
        plan = ProcFaultPlan(seed=5, crash_rate=0.4, corrupt_rate=0.3)
        decisions = [
            plan.decide(shard, attempt)
            for shard in range(8)
            for attempt in (1,)
        ]
        again = ProcFaultPlan(seed=5, crash_rate=0.4, corrupt_rate=0.3)
        assert decisions == [
            again.decide(shard, 1) for shard in range(8)
        ]

    def test_seed_changes_decisions(self):
        a = ProcFaultPlan(seed=1, crash_rate=0.5)
        b = ProcFaultPlan(seed=2, crash_rate=0.5)
        assert any(
            a.decide(shard, 1) != b.decide(shard, 1)
            for shard in range(32)
        )

    def test_forced_pins_override_rates(self):
        plan = ProcFaultPlan(seed=0, forced=((3, "hang"),))
        assert plan.decide(3, 1) == "hang"
        assert plan.decide(0, 1) is None

    def test_attempts_beyond_budget_run_clean(self):
        plan = ProcFaultPlan(
            seed=0, forced=((0, "crash"),), max_faulty_attempts=2
        )
        assert plan.decide(0, 1) == "crash"
        assert plan.decide(0, 2) == "crash"
        assert plan.decide(0, 3) is None

    def test_zero_faulty_attempts_is_inert(self):
        plan = ProcFaultPlan(
            seed=0, crash_rate=1.0, max_faulty_attempts=0
        )
        assert plan.decide(0, 1) is None

    def test_rate_one_always_fires(self):
        plan = ProcFaultPlan(seed=9, crash_rate=1.0)
        assert all(plan.decide(shard, 1) == "crash" for shard in range(16))

    def test_rates_partition_the_draw(self):
        plan = ProcFaultPlan(
            seed=4, crash_rate=0.2, hang_rate=0.2, corrupt_rate=0.2,
            truncate_rate=0.2, forge_rate=0.2,
        )
        kinds = {plan.decide(shard, 1) for shard in range(200)}
        assert kinds <= set(FAULT_KINDS)
        assert len(kinds) >= 3  # 200 draws cover most of the palette

    def test_unit_draw_is_in_range(self):
        draws = [_unit(3, shard, 1) for shard in range(100)]
        assert all(0.0 <= draw < 1.0 for draw in draws)


class TestValidation:
    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError):
            ProcFaultPlan(crash_rate=0.7, hang_rate=0.6)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ProcFaultPlan(crash_rate=-0.1)
        # A NaN rate passes both bounds and silently never fires.
        for name in (
            "crash_rate", "hang_rate", "corrupt_rate", "truncate_rate",
            "forge_rate",
        ):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match=name):
                    ProcFaultPlan(**{name: value})

    def test_unknown_forced_kind_rejected(self):
        with pytest.raises(ValueError):
            ProcFaultPlan(forced=((0, "meltdown"),))

    def test_nonpositive_hang_rejected(self):
        with pytest.raises(ValueError):
            ProcFaultPlan(hang_s=0.0)
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="hang_s"):
                ProcFaultPlan(hang_s=value)

    def test_may_hang_property(self):
        assert not ProcFaultPlan(crash_rate=0.5).may_hang
        assert ProcFaultPlan(hang_rate=0.1).may_hang
        assert ProcFaultPlan(forced=((2, "hang"),)).may_hang


def _result():
    report = RouterReport(horizon_s=4.0)
    return ShardResult(
        shard_id=0,
        seed=7,
        report=report,
        declared_fingerprint=report.fingerprint(),
    )


class TestTamper:
    def test_truncate_discards_the_result(self):
        plan = ProcFaultPlan()
        mangled = plan.tamper("truncate", _result())
        assert not dataclasses.is_dataclass(mangled)
        assert mangled["truncated"] is True

    def test_corrupt_leaves_a_stale_declared_fingerprint(self):
        plan = ProcFaultPlan()
        result = _result()
        mangled = plan.tamper("corrupt", result)
        assert mangled.declared_fingerprint == result.declared_fingerprint
        assert mangled.report.fingerprint() != mangled.declared_fingerprint

    def test_forge_redeclares_consistently(self):
        plan = ProcFaultPlan()
        result = _result()
        mangled = plan.tamper("forge", result)
        assert mangled.report.fingerprint() == mangled.declared_fingerprint
        assert mangled.declared_fingerprint != result.declared_fingerprint

    def test_tamper_rejects_non_tamper_kinds(self):
        plan = ProcFaultPlan()
        with pytest.raises(ValueError):
            plan.tamper("crash", _result())

    def test_tamper_kinds_are_the_post_completion_subset(self):
        assert set(TAMPER_KINDS) < set(FAULT_KINDS)
