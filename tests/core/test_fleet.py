"""Tests for repro.core.fleet: the pervasive deployment manager."""

import copy
import importlib
import sys
from pathlib import Path

import pytest

from repro.core import ApplicationSpec, TaskClass
from repro.core.fleet import FleetManager
from repro.gpu import JETSON_TX1, K20C
from repro.nn import alexnet


#: The end-to-end benchmark's directory (its modules import each other
#: by bare name, so they load with it on ``sys.path``).
E2EBENCH = Path(__file__).resolve().parents[2] / "e2ebench"


@pytest.fixture
def storms(monkeypatch):
    """``e2ebench/storms.py``, importable for one test only."""
    monkeypatch.syspath_prepend(str(E2EBENCH))
    names = ("storms", "spans")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("storms")
    for name in names:
        sys.modules.pop(name, None)


@pytest.fixture(scope="module")
def fleet():
    spec = ApplicationSpec(
        "age-detection", TaskClass.INTERACTIVE, data_rate_hz=50.0
    )
    manager = FleetManager(
        alexnet(),
        spec,
        architectures=[K20C, JETSON_TX1],
        max_tuning_iterations=8,
    )
    manager.deploy_all()
    return manager


class TestFleetDeployment:
    def test_one_deployment_per_platform(self, fleet):
        deployments = fleet.deploy_all()
        assert set(deployments) == {"K20c", "TX1"}

    def test_deploy_all_is_idempotent(self, fleet):
        first = fleet.deploy_all()
        second = fleet.deploy_all()
        assert first["K20c"] is second["K20c"]

    def test_deployment_lookup(self, fleet):
        assert fleet.deployment("TX1").arch.name == "TX1"
        with pytest.raises(KeyError, match="fleet"):
            fleet.deployment("GTX1080")

    def test_platform_specific_configurations(self, fleet):
        k20 = fleet.deployment("K20c").current_entry.compiled
        tx1 = fleet.deployment("TX1").current_entry.compiled
        # Same network, different tuned configurations.
        pairs = [
            (a.tuned.tile, a.opt_sm) != (b.tuned.tile, b.opt_sm)
            for a, b in zip(k20.schedules, tx1.schedules)
        ]
        assert any(pairs)


class TestFleetReport:
    def test_report_covers_fleet(self, fleet):
        report = fleet.report()
        assert {p.gpu for p in report.platforms} == {"K20c", "TX1"}
        for platform in report.platforms:
            assert platform.latency_s > 0
            assert platform.energy_per_item_j > 0
            assert platform.tuning_speedup >= 1.0

    def test_interactive_met_everywhere(self, fleet):
        report = fleet.report()
        assert report.all_meet_requirement

    def test_best_platform_has_max_soc(self, fleet):
        report = fleet.report()
        best = report.best_platform
        assert best.soc == max(p.soc for p in report.platforms)

    def test_by_gpu_lookup(self, fleet):
        report = fleet.report()
        assert report.by_gpu("K20c").platform == "server"
        with pytest.raises(KeyError):
            report.by_gpu("TPUv1")

    def test_by_gpu_error_names_known_platforms(self, fleet):
        report = fleet.report()
        with pytest.raises(KeyError, match="K20c, TX1"):
            report.by_gpu("TPUv1")

    def test_deployment_error_names_known_platforms(self, fleet):
        with pytest.raises(KeyError, match="K20c, TX1"):
            fleet.deployment("GTX1080")


class TestCopy:
    def test_copy_rebinds_deployments_to_an_engine_copy(self, fleet):
        fleet.report()  # move the originals off their fresh state
        twin = fleet.copy()
        assert twin.engine is not fleet.engine
        assert twin.engine.stats == fleet.engine.stats
        assert twin.architectures == fleet.architectures
        for name, deployment in fleet.deploy_all().items():
            copied = twin.deployment(name)
            assert copied is not deployment
            assert copied.engine is twin.engine
            assert copied.tuning_table is deployment.tuning_table
            # Like a fresh deploy: no outcomes, a fresh calibrator at
            # the fastest tuned entry, no memoized ladders.
            assert deployment.outcomes and copied.outcomes == []
            assert copied.calibrator is not deployment.calibrator
            assert copied.calibrator.history == []
            assert copied.current_entry is copied.tuning_table.fastest
            assert "_ladder_memo" not in vars(copied)

    def test_running_a_copy_leaves_the_fleet_as_it_was(self, fleet):
        stats = copy.deepcopy(fleet.engine.stats)
        plans = fleet.engine.cached_plans
        outcomes = {
            name: list(deployment.outcomes)
            for name, deployment in fleet.deploy_all().items()
        }
        twin = fleet.copy()
        twin.report()
        twin.engine.compile_with_batch(alexnet(), 3, arch=K20C)
        assert fleet.engine.stats == stats
        assert fleet.engine.cached_plans == plans
        assert {
            name: deployment.outcomes
            for name, deployment in fleet.deploy_all().items()
        } == outcomes


class TestCapacity:
    def test_capacity_matches_the_probe_loop_bit_for_bit(self):
        """The rung-0 probe sizes every storm's rate, so it must add
        exactly as the loops it replaced did: from 0.0, in platform
        order.  Checked on serve-fleet's default fleet."""
        spec = ApplicationSpec(
            "interactive", TaskClass.INTERACTIVE, data_rate_hz=50.0,
            entropy_slack=0.30,
        )
        fleet = FleetManager(
            alexnet(), spec, architectures=[K20C, JETSON_TX1]
        )
        expected = 0.0
        for deployment in fleet.deploy_all().values():
            entry = deployment.current_entry
            execution = deployment.engine.execute(
                entry.compiled,
                power_gating=deployment.power_gating,
                use_priority_sm=deployment.use_priority_sm,
            )
            expected += entry.compiled.batch / execution.total_time_s
        assert fleet.capacity_rps().hex() == expected.hex()

    def test_benchmark_probe_matches_capacity_bit_for_bit(self, storms):
        """e2ebench sizes every storm with its own copy of the probe
        loop, ``storms.offered_rate_hz``; a change to ``capacity_rps``
        that would move every benchmark pin fails here first."""
        fleet = storms.fleet_spec().build()
        offered = storms.offered_rate_hz(fleet)
        assert offered.hex() == (storms.LOAD * fleet.capacity_rps()).hex()


class TestValidation:
    def test_rejects_empty_fleet(self):
        spec = ApplicationSpec(
            "age", TaskClass.INTERACTIVE, data_rate_hz=50.0
        )
        with pytest.raises(ValueError):
            FleetManager(alexnet(), spec, architectures=[])

    def test_rejects_a_repeated_gpu(self):
        """One platform per GPU: a repeat would deploy once yet report
        twice."""
        spec = ApplicationSpec(
            "age", TaskClass.INTERACTIVE, data_rate_hz=50.0
        )
        with pytest.raises(ValueError, match="GPU K20c more than once"):
            FleetManager(
                alexnet(), spec, architectures=[K20C, JETSON_TX1, K20C]
            )


class TestFleetDeployError:
    def _manager(self):
        spec = ApplicationSpec(
            "age", TaskClass.INTERACTIVE, data_rate_hz=50.0
        )
        return FleetManager(
            alexnet(),
            spec,
            architectures=[K20C, JETSON_TX1],
            max_tuning_iterations=8,
        )

    def test_failures_collected_not_first_aborted(self, monkeypatch):
        """One broken platform must not hide the rest of the fleet:
        every platform is attempted, failures are gathered into one
        error naming each broken GPU and why, and the survivors stay
        deployed."""
        import repro.core.fleet as fleet_mod

        real_deploy = fleet_mod.PervasiveCNN.deploy

        def flaky_deploy(self, network, spec, **kwargs):
            if self.arch.name == K20C.name:
                raise RuntimeError("tuning diverged")
            return real_deploy(self, network, spec, **kwargs)

        monkeypatch.setattr(fleet_mod.PervasiveCNN, "deploy", flaky_deploy)
        manager = self._manager()
        with pytest.raises(fleet_mod.FleetDeployError) as excinfo:
            manager.deploy_all()
        error = excinfo.value
        assert set(error.failures) == {K20C.name}
        assert "K20c" in str(error)
        assert "tuning diverged" in str(error)
        assert "1 platform(s)" in str(error)
        # The healthy platform deployed despite the failure, and once
        # the broken one is fixed only the missing platform is
        # (re)deployed -- the survivor was cached all along.
        assert JETSON_TX1.name in manager._deployments
        monkeypatch.undo()
        deployments = manager.deploy_all()
        assert set(deployments) == {K20C.name, JETSON_TX1.name}
        assert manager.deployment(JETSON_TX1.name).arch is JETSON_TX1

    def test_all_platforms_reported(self, monkeypatch):
        import repro.core.fleet as fleet_mod

        def doomed_deploy(self, network, spec, **kwargs):
            raise ValueError("%s is on fire" % self.arch.name)

        monkeypatch.setattr(fleet_mod.PervasiveCNN, "deploy", doomed_deploy)
        manager = self._manager()
        with pytest.raises(fleet_mod.FleetDeployError) as excinfo:
            manager.deploy_all()
        failures = excinfo.value.failures
        assert set(failures) == {K20C.name, JETSON_TX1.name}
        assert "2 platform(s)" in str(excinfo.value)
