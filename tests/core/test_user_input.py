"""Tests for repro.core.user_input: requirement inference."""

import math

import pytest

from repro.core.satisfaction import TaskClass
from repro.core.user_input import ApplicationSpec, infer_requirement


class TestApplicationSpec:
    def test_valid_interactive(self):
        spec = ApplicationSpec("app", TaskClass.INTERACTIVE)
        assert spec.data_rate_hz == 1.0

    def test_real_time_needs_frame_rate(self):
        with pytest.raises(ValueError, match="frame_rate"):
            ApplicationSpec("cam", TaskClass.REAL_TIME)

    def test_rejects_unknown_class(self):
        with pytest.raises(ValueError):
            ApplicationSpec("x", "batchy")

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ApplicationSpec("x", TaskClass.INTERACTIVE, data_rate_hz=0)

    def test_rejects_negative_slack(self):
        with pytest.raises(ValueError):
            ApplicationSpec("x", TaskClass.INTERACTIVE, entropy_slack=-0.1)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"data_rate_hz": math.nan}, "data_rate_hz must be finite"),
            ({"data_rate_hz": math.inf}, "data_rate_hz must be finite"),
            ({"entropy_slack": math.nan}, "entropy_slack must be non-negative"),
            ({"frame_rate_hz": math.nan}, "frame_rate_hz must be finite"),
            ({"frame_rate_hz": -30.0}, "frame_rate_hz must be positive"),
        ],
    )
    def test_rejects_bad_field_naming_it(self, fields, message):
        """NaN and infinities slip past one-sided range checks; each
        must stop at the spec, naming the field."""
        for task in (TaskClass.INTERACTIVE, TaskClass.REAL_TIME):
            kwargs = {"frame_rate_hz": 30.0, **fields}
            with pytest.raises(ValueError, match=message):
                ApplicationSpec("x", task, **kwargs)


class TestInference:
    def test_interactive_lookup(self):
        req = infer_requirement(ApplicationSpec("a", TaskClass.INTERACTIVE))
        assert req.time.imperceptible_s == pytest.approx(0.1)
        assert req.time.unusable_s == pytest.approx(3.0)

    def test_real_time_deadline_from_frame_rate(self):
        spec = ApplicationSpec(
            "cam", TaskClass.REAL_TIME, data_rate_hz=30, frame_rate_hz=30
        )
        req = infer_requirement(spec)
        assert req.time.imperceptible_s == pytest.approx(1 / 30)
        assert req.time.unusable_s == pytest.approx(1 / 30)

    def test_background_unbounded(self):
        req = infer_requirement(ApplicationSpec("tag", TaskClass.BACKGROUND))
        assert math.isinf(req.time.imperceptible_s)

    def test_accuracy_sensitive_zero_slack(self):
        spec = ApplicationSpec(
            "cam",
            TaskClass.REAL_TIME,
            data_rate_hz=30,
            frame_rate_hz=30,
            accuracy_sensitive=True,
        )
        req = infer_requirement(spec)
        assert req.entropy_slack == 0.0

    def test_entropy_threshold_scales_baseline(self):
        spec = ApplicationSpec("a", TaskClass.INTERACTIVE, entropy_slack=0.3)
        req = infer_requirement(spec)
        assert req.entropy_threshold(1.0) == pytest.approx(1.3)
        assert req.entropy_threshold(0.5) == pytest.approx(0.65)

    def test_threshold_rejects_bad_baseline(self):
        req = infer_requirement(ApplicationSpec("a", TaskClass.INTERACTIVE))
        with pytest.raises(ValueError):
            req.entropy_threshold(0.0)
