"""Tests for repro.workloads: scenarios and request generators."""

import numpy as np
import pytest

from repro.core.satisfaction import TaskClass
from repro.workloads import (
    RequestTrace,
    age_detection,
    background_trace,
    bursty_trace,
    difficulty_shift,
    diurnal_trace,
    empty_trace,
    image_tagging,
    interactive_trace,
    merge_traces,
    paper_scenarios,
    pareto_trace,
    realtime_trace,
    scale_rate,
    video_surveillance,
)


class TestScenarios:
    def test_three_paper_scenarios(self):
        scenarios = paper_scenarios()
        assert [s.spec.task_class for s in scenarios] == [
            TaskClass.INTERACTIVE,
            TaskClass.REAL_TIME,
            TaskClass.BACKGROUND,
        ]

    def test_age_detection_interactive(self):
        scen = age_detection()
        assert scen.name == "age-detection"
        assert not scen.spec.accuracy_sensitive
        assert scen.network.name == "AlexNet"

    def test_surveillance_hard_deadline(self):
        scen = video_surveillance(fps=30)
        assert scen.spec.frame_rate_hz == 30
        assert scen.spec.accuracy_sensitive
        assert scen.network.name == "VGGNet"

    def test_tagging_background(self):
        scen = image_tagging()
        assert scen.spec.task_class == TaskClass.BACKGROUND

    def test_custom_network(self):
        from repro.nn.models import googlenet

        scen = video_surveillance(network=googlenet())
        assert scen.network.name == "GoogLeNet"


class TestTraces:
    def test_interactive_trace_monotone(self):
        trace = interactive_trace(n_requests=10, seed=0)
        assert trace.n_requests == 10
        assert np.all(np.diff(trace.arrivals_s) >= 0)

    def test_interactive_trace_deterministic(self):
        a = interactive_trace(seed=4)
        b = interactive_trace(seed=4)
        np.testing.assert_array_equal(a.arrivals_s, b.arrivals_s)

    def test_realtime_metronome(self):
        trace = realtime_trace(duration_s=1.0, fps=10)
        assert trace.n_requests == 10
        np.testing.assert_allclose(np.diff(trace.arrivals_s), 0.1)

    def test_background_dump(self):
        trace = background_trace(n_photos=16, dump_gap_s=0.01)
        assert trace.n_requests == 16
        assert trace.arrivals_s[-1] == pytest.approx(0.15)

    def test_difficulty_shift(self):
        trace = difficulty_shift(
            realtime_trace(duration_s=1.0, fps=10),
            onset_fraction=0.5,
            severity=1.5,
        )
        assert np.all(trace.difficulty[:5] == 1.0)
        assert np.all(trace.difficulty[5:] == 1.5)

    def test_shift_validation(self):
        with pytest.raises(ValueError):
            difficulty_shift(realtime_trace(), severity=0.5)
        with pytest.raises(ValueError):
            difficulty_shift(realtime_trace(), onset_fraction=2.0)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            RequestTrace(
                arrivals_s=np.array([1.0, 0.5]),
                difficulty=np.array([1.0, 1.0]),
            )
        with pytest.raises(ValueError):
            RequestTrace(
                arrivals_s=np.array([0.0, 1.0]),
                difficulty=np.array([1.0]),
            )
        # NaN compares false against everything, so it slips past the
        # ordering check; the field is named instead.
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="arrivals_s"):
                RequestTrace(
                    arrivals_s=np.array([0.0, value]),
                    difficulty=np.ones(2),
                )
            with pytest.raises(ValueError, match="difficulty"):
                RequestTrace(
                    arrivals_s=np.array([0.0, 1.0]),
                    difficulty=np.array([1.0, value]),
                )
        with pytest.raises(ValueError, match="difficulty"):
            RequestTrace(
                arrivals_s=np.array([0.0, 1.0]),
                difficulty=np.array([1.0, -0.5]),
            )


class TestBurstyTraces:
    """Property tests for the heavy-tail / bursty arrival processes."""

    @pytest.mark.parametrize("seed", range(5))
    def test_mmpp_mean_rate_matches_request(self, seed):
        rate = 100.0
        trace = bursty_trace(n_requests=3000, rate_hz=rate, seed=seed)
        observed = trace.n_requests / trace.arrivals_s[-1]
        assert observed == pytest.approx(rate, rel=0.15)

    @pytest.mark.parametrize("seed", range(5))
    def test_pareto_mean_rate_matches_request(self, seed):
        rate = 100.0
        trace = pareto_trace(n_requests=3000, rate_hz=rate, seed=seed)
        observed = trace.n_requests / trace.arrivals_s[-1]
        assert observed == pytest.approx(rate, rel=0.15)

    def test_mmpp_is_actually_bursty(self):
        # Burstiness shows as gap dispersion well beyond Poisson's
        # (coefficient of variation 1 for exponential gaps).
        trace = bursty_trace(n_requests=4000, rate_hz=100.0, seed=0)
        gaps = np.diff(np.concatenate([[0.0], trace.arrivals_s]))
        cv = gaps.std() / gaps.mean()
        assert cv > 1.2

    def test_pareto_tail_heavier_than_exponential(self):
        trace = pareto_trace(n_requests=4000, rate_hz=100.0, alpha=1.5, seed=0)
        gaps = np.diff(np.concatenate([[0.0], trace.arrivals_s]))
        # A heavy tail drags the max far beyond the mean.
        assert gaps.max() > 20 * gaps.mean()

    def test_deterministic_per_seed(self):
        a = bursty_trace(n_requests=100, seed=7)
        b = bursty_trace(n_requests=100, seed=7)
        np.testing.assert_array_equal(a.arrivals_s, b.arrivals_s)
        c = pareto_trace(n_requests=100, seed=7)
        d = pareto_trace(n_requests=100, seed=7)
        np.testing.assert_array_equal(c.arrivals_s, d.arrivals_s)

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            bursty_trace(rate_hz=0.0)
        with pytest.raises(ValueError):
            bursty_trace(burst_factor=1.0)
        with pytest.raises(ValueError):
            bursty_trace(burst_fraction=1.0)
        with pytest.raises(ValueError):
            pareto_trace(alpha=1.0)
        with pytest.raises(ValueError):
            pareto_trace(rate_hz=-1.0)
        # A NaN rate passes ``<= 0`` and an infinite one piles every
        # arrival onto t=0: both are rejected, naming the argument.
        for value in (float("nan"), float("inf"), float("-inf")):
            for generator, name in (
                (bursty_trace, "rate_hz"),
                (bursty_trace, "switch_rate_hz"),
                (bursty_trace, "burst_factor"),
                (pareto_trace, "rate_hz"),
                (pareto_trace, "alpha"),
                (diurnal_trace, "base_rate_hz"),
                (diurnal_trace, "period_s"),
                (interactive_trace, "think_time_s"),
                (realtime_trace, "fps"),
                (background_trace, "dump_gap_s"),
            ):
                with pytest.raises(ValueError, match=name):
                    generator(**{name: value})
            with pytest.raises(ValueError, match="factor"):
                scale_rate(realtime_trace(), value)


class TestTraceCombinators:
    def test_merge_interleaves_in_time_order(self):
        merged = merge_traces(
            bursty_trace(n_requests=40, seed=1),
            pareto_trace(n_requests=40, seed=2),
        )
        assert merged.n_requests == 80
        assert np.all(np.diff(merged.arrivals_s) >= 0)

    def test_merge_keeps_difficulty_paired(self):
        hard = difficulty_shift(
            realtime_trace(duration_s=1.0, fps=10), onset_fraction=0.0,
            severity=2.0,
        )
        easy = realtime_trace(duration_s=1.0, fps=10)
        merged = merge_traces(hard, easy)
        assert sorted(merged.difficulty) == [1.0] * 10 + [2.0] * 10

    def test_merge_of_nothing_is_the_empty_trace(self):
        merged = merge_traces()
        assert merged.n_requests == 0
        assert merged.arrivals_s.shape == (0,)

    def test_merge_drops_empty_members(self):
        base = realtime_trace(duration_s=1.0, fps=10)
        merged = merge_traces(empty_trace(), base, empty_trace())
        np.testing.assert_allclose(merged.arrivals_s, base.arrivals_s)
        assert merge_traces(empty_trace(), empty_trace()).n_requests == 0

    def test_scale_rate_compresses_time(self):
        base = pareto_trace(n_requests=200, rate_hz=50.0, seed=3)
        doubled = scale_rate(base, 2.0)
        np.testing.assert_allclose(
            doubled.arrivals_s, base.arrivals_s / 2.0
        )
        with pytest.raises(ValueError, match="positive rate multiplier"):
            scale_rate(base, 0.0)
        with pytest.raises(ValueError, match="positive rate multiplier"):
            scale_rate(base, -1.0)

    def test_scale_rate_of_empty_trace(self):
        scaled = scale_rate(empty_trace(), 2.0)
        assert scaled.n_requests == 0
