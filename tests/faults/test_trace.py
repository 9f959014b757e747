"""Fault events, traces, and seeded trace generation."""

import pytest

from repro.faults import (
    EPISODE_KINDS,
    FAULT_KINDS,
    FaultEvent,
    FaultTrace,
    FaultTraceConfig,
    generate_fault_trace,
)

PLATFORMS = ["K20c", "GTX970m", "TX1"]

FULL_CONFIG = FaultTraceConfig(
    outages=2,
    sm_failures=2,
    throttles=2,
    bandwidth_degradations=1,
    transients=3,
)


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(time_s=0.0, kind="meteor", platform="K20c")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time_s"):
            FaultEvent(time_s=-1.0, kind="outage", platform="K20c")

    def test_empty_platform_rejected(self):
        with pytest.raises(ValueError, match="platform"):
            FaultEvent(time_s=0.0, kind="outage", platform="")

    def test_severity_bounds(self):
        with pytest.raises(ValueError, match="sm_fail_fraction"):
            FaultEvent(
                time_s=0.0, kind="sm_fail", platform="K20c",
                sm_fail_fraction=1.0,
            )
        with pytest.raises(ValueError, match="relative_frequency"):
            FaultEvent(
                time_s=0.0, kind="throttle", platform="K20c",
                relative_frequency=0.0,
            )
        with pytest.raises(ValueError, match="bandwidth_scale"):
            FaultEvent(
                time_s=0.0, kind="bw_degrade", platform="K20c",
                bandwidth_scale=1.5,
            )

    def test_every_episode_kind_has_distinct_closer(self):
        closers = set(EPISODE_KINDS.values())
        assert len(closers) == len(EPISODE_KINDS)
        assert not closers & set(EPISODE_KINDS)
        assert "transient" in FAULT_KINDS


class TestFaultTrace:
    def test_events_sorted_regardless_of_construction_order(self):
        late = FaultEvent(time_s=2.0, kind="restore", platform="K20c")
        early = FaultEvent(time_s=1.0, kind="outage", platform="K20c")
        trace = FaultTrace([late, early])
        assert [e.time_s for e in trace] == [1.0, 2.0]

    def test_platforms_and_horizon(self):
        trace = FaultTrace([
            FaultEvent(time_s=3.0, kind="transient", platform="TX1"),
            FaultEvent(time_s=1.0, kind="outage", platform="K20c"),
        ])
        assert trace.platforms == ["K20c", "TX1"]
        assert trace.horizon_s == 3.0
        assert FaultTrace().horizon_s == 0.0

    def test_of_kind_filters_and_validates(self):
        trace = FaultTrace([
            FaultEvent(time_s=1.0, kind="outage", platform="K20c"),
            FaultEvent(time_s=2.0, kind="transient", platform="K20c"),
        ])
        assert [e.kind for e in trace.of_kind("transient")] == ["transient"]
        with pytest.raises(ValueError, match="unknown fault kind"):
            trace.of_kind("meteor")

    def test_merged_with_resorts(self):
        a = FaultTrace([FaultEvent(time_s=2.0, kind="transient", platform="a")])
        b = FaultTrace([FaultEvent(time_s=1.0, kind="transient", platform="b")])
        merged = a.merged_with(b)
        assert [e.platform for e in merged] == ["b", "a"]
        assert len(a) == 1  # immutability: originals untouched

    def test_fingerprint_distinguishes_traces(self):
        a = FaultTrace([FaultEvent(time_s=1.0, kind="outage", platform="a")])
        b = FaultTrace([FaultEvent(time_s=1.0, kind="outage", platform="b")])
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == FaultTrace(list(a)).fingerprint()


class TestFaultTraceConfig:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="outages"):
            FaultTraceConfig(outages=-1)

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError, match="outage_duration_s"):
            FaultTraceConfig(outage_duration_s=0.0)
        # NaN slips past ``<= 0`` (and would schedule a restore at
        # NaN): every duration must be finite, named in the error.
        for name in (
            "outage_duration_s",
            "sm_failure_duration_s",
            "throttle_duration_s",
            "bandwidth_duration_s",
        ):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match=name):
                    FaultTraceConfig(**{name: value})

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError, match="sm_fail_fraction"):
            FaultTraceConfig(sm_fail_fraction=0.0)
        with pytest.raises(ValueError, match="throttle_frequency"):
            FaultTraceConfig(throttle_frequency=1.0)
        with pytest.raises(ValueError, match="start_window"):
            FaultTraceConfig(start_window=0.0)
        for name in (
            "sm_fail_fraction",
            "throttle_frequency",
            "bandwidth_scale",
            "start_window",
        ):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match=name):
                    FaultTraceConfig(**{name: value})

    def test_n_events_counts_episodes_twice(self):
        assert FULL_CONFIG.n_events == 2 * 7 + 3


class TestGenerateFaultTrace:
    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="platform"):
            generate_fault_trace([], 10.0, FULL_CONFIG)
        with pytest.raises(ValueError, match="horizon_s"):
            generate_fault_trace(PLATFORMS, 0.0, FULL_CONFIG)

    def test_emits_configured_event_count(self):
        trace = generate_fault_trace(PLATFORMS, 10.0, FULL_CONFIG, seed=3)
        assert len(trace) == FULL_CONFIG.n_events

    def test_episodes_pair_up(self):
        trace = generate_fault_trace(PLATFORMS, 10.0, FULL_CONFIG, seed=3)
        for opener, closer in EPISODE_KINDS.items():
            opens = trace.of_kind(opener)
            closes = {e.episode: e for e in trace.of_kind(closer)}
            for event in opens:
                partner = closes[event.episode]
                assert partner.platform == event.platform
                assert partner.time_s > event.time_s

    def test_starts_respect_window(self):
        config = FaultTraceConfig(outages=4, transients=4, start_window=0.25)
        trace = generate_fault_trace(PLATFORMS, 100.0, config, seed=1)
        for event in trace:
            if event.kind in ("outage", "transient"):
                assert 0.0 <= event.time_s <= 25.0

    def test_platforms_drawn_from_given_set(self):
        trace = generate_fault_trace(PLATFORMS, 10.0, FULL_CONFIG, seed=5)
        assert set(trace.platforms) <= set(PLATFORMS)

    def test_same_seed_bit_identical(self):
        a = generate_fault_trace(PLATFORMS, 10.0, FULL_CONFIG, seed=11)
        b = generate_fault_trace(PLATFORMS, 10.0, FULL_CONFIG, seed=11)
        assert a.to_dicts() == b.to_dicts()
        assert a.fingerprint() == b.fingerprint()

    def test_platform_iteration_order_is_irrelevant(self):
        a = generate_fault_trace(PLATFORMS, 10.0, FULL_CONFIG, seed=11)
        b = generate_fault_trace(
            list(reversed(PLATFORMS)), 10.0, FULL_CONFIG, seed=11
        )
        assert a.fingerprint() == b.fingerprint()

    def test_different_seeds_distinct(self):
        a = generate_fault_trace(PLATFORMS, 10.0, FULL_CONFIG, seed=11)
        b = generate_fault_trace(PLATFORMS, 10.0, FULL_CONFIG, seed=12)
        assert a.fingerprint() != b.fingerprint()
