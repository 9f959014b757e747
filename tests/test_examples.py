"""Smoke tests: the fast example scripts run end-to-end.

The examples double as integration surfaces; the fast ones run inside
the suite (the training-heavy ones are exercised manually / by the
benchmark session instead).
"""

import importlib.util
import os

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

FAST_EXAMPLES = [
    "multi_tenant",
    "cross_platform_deploy",
    "learned_requirements",
    "streaming_server",
]


def _run_example(name, capsys):
    path = os.path.join(EXAMPLES_DIR, "%s.py" % name)
    spec = importlib.util.spec_from_file_location("example_%s" % name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name, capsys):
    out = _run_example(name, capsys)
    assert len(out) > 200  # produced a real report


def test_multi_tenant_shows_partition_advantage(capsys):
    out = _run_example("multi_tenant", capsys)
    assert "MPS" in out
    assert "partitioned" in out


def test_learned_requirements_relaxes_budget(capsys):
    out = _run_example("learned_requirements", capsys)
    assert "learned" in out.lower()
