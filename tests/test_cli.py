"""Tests for the ``python -m repro`` command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.core.framework import PervasiveCNN


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("platforms", "networks"):
            args = parser.parse_args([command])
            assert args.command == command


class TestInformational:
    def test_platforms_lists_table_ii(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        for name in ("K20c", "TitanX", "GTX970m", "TX1"):
            assert name in out

    def test_networks_lists_all(self, capsys):
        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        for name in ("alexnet", "googlenet", "vggnet", "resnet18", "pcnn-small"):
            assert name in out

    def test_describe(self, capsys):
        assert main(["describe", "--network", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "conv5" in out and "fc8" in out


class TestCompile:
    def test_compile_prints_schedule(self, capsys):
        code = main(
            ["compile", "--network", "alexnet", "--gpu", "tx1", "--batch", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optSM" in out and "conv1" in out

    def test_compile_with_requirement(self, capsys):
        code = main(
            ["compile", "--network", "alexnet", "--gpu", "k20c",
             "--task", "interactive", "--rate", "50"]
        )
        assert code == 0
        assert "batch" in capsys.readouterr().out

    def test_compile_saves_artifact(self, tmp_path, capsys):
        path = str(tmp_path / "artifact.json")
        code = main(
            ["compile", "--network", "alexnet", "--gpu", "tx1",
             "--batch", "1", "--save", path]
        )
        assert code == 0
        with open(path) as handle:
            data = json.load(handle)
        assert data["network"] == "AlexNet"

    def test_unknown_gpu_is_a_clean_error(self, capsys):
        code = main(["compile", "--network", "alexnet", "--gpu", "voodoo"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_network_is_a_clean_error(self, capsys):
        code = main(["compile", "--network", "lenet", "--gpu", "tx1"])
        assert code == 2

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_rate_names_the_field(self, rate, capsys):
        """The error names the field, not a conversion deep in the
        compiler."""
        code = main(
            ["compile", "--network", "alexnet", "--gpu", "tx1", "--rate", rate]
        )
        assert code == 2
        assert "data_rate_hz must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["serve-fleet", "--gpus", "k20c,k20c", "--requests", "40",
         "--json"],
        ["trace", "age-detection", "--gpus", "tx1,TX1", "--requests", "40"],
    ])
    def test_repeated_gpu_is_a_clean_error(self, capsys, argv):
        assert main(argv) == 2
        assert re.search(
            r"fleet lists GPU \w+ more than once", capsys.readouterr().err
        )


class TestTune:
    def test_tune_prints_path(self, capsys):
        code = main(
            ["tune", "--network", "alexnet", "--gpu", "tx1",
             "--slack", "0.3", "--iterations", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "dense" in out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--slack", "nan"], "entropy_threshold must be positive"),
            (["--iterations", "-1"], "max_iterations must be non-negative"),
        ],
    )
    def test_bad_tuning_input_is_a_clean_error(self, flags, message, capsys):
        """A NaN threshold or a negative iteration count exits 2,
        naming the field, instead of tuning nothing."""
        code = main(["tune", "--network", "alexnet", "--gpu", "tx1"] + flags)
        assert code == 2
        assert message in capsys.readouterr().err


class TestRoofline:
    def test_roofline_classifies_layers(self, capsys):
        code = main(
            ["roofline", "--network", "alexnet", "--gpu", "tx1",
             "--batch", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ridge" in out
        # batch-1 classifiers stream weights: memory-bound
        assert "memory" in out


class TestEvaluate:
    def test_single_gpu_matrix(self, capsys):
        code = main(["evaluate", "--gpus", "k20c"])
        assert code == 0
        out = capsys.readouterr().out
        for task in ("age-detection", "video-surveillance", "image-tagging"):
            assert task in out
        assert "p-cnn" in out and "ideal" in out


class TestCompare:
    def test_compare_runs_all_schedulers(self, capsys):
        code = main(
            ["compare", "--network", "alexnet", "--gpu", "tx1",
             "--task", "background", "--rate", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("performance-preferred", "qpe+", "p-cnn", "ideal"):
            assert name in out


class TestObservabilityExports:
    def _serve(self, tmp_path, extra):
        trace_path = tmp_path / "trace.json"
        chrome_path = tmp_path / "trace.chrome.json"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            ["serve-fleet", "--gpus", "tx1", "--requests", "60",
             "--trace", str(trace_path),
             "--chrome-trace", str(chrome_path),
             "--metrics-out", str(metrics_path)] + extra
        )
        assert code == 0
        return trace_path, chrome_path, metrics_path

    def test_serve_fleet_writes_all_exports(self, tmp_path, capsys):
        trace_path, chrome_path, metrics_path = self._serve(tmp_path, [])
        spans = json.loads(trace_path.read_text())
        assert spans and any(s["name"] == "run" for s in spans)
        chrome = json.loads(chrome_path.read_text())
        assert chrome["traceEvents"]
        metrics = json.loads(metrics_path.read_text())
        assert any(k.startswith("requests_") for k in metrics)

    def test_serve_fleet_json_stdout_stays_parseable(self, tmp_path, capsys):
        self._serve(tmp_path, ["--json"])
        payload = json.loads(capsys.readouterr().out)
        assert "obs" in payload
        assert payload["obs"]["n_spans"] > 0

    def test_serve_fleet_exports_are_deterministic(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = self._serve(tmp_path / "a", [])
        second = self._serve(tmp_path / "b", [])
        for a, b in zip(first, second):
            assert a.read_text() == b.read_text()

    def test_trace_subcommand(self, tmp_path, capsys):
        prom_path = tmp_path / "metrics.prom"
        code = main(
            ["trace", "age-detection", "--gpus", "tx1", "--requests", "60",
             "--prometheus-out", str(prom_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "execute_batch" in out
        assert "trace fingerprint" in out
        text = prom_path.read_text()
        assert "# TYPE" in text and text.endswith("\n")

    def test_trace_with_chaos(self, capsys):
        code = main(
            ["trace", "video-surveillance", "--gpus", "tx1",
             "--requests", "60", "--chaos"]
        )
        assert code == 0
        assert "fault_episode" in capsys.readouterr().out

class TestServeFleetSharded:
    def test_sharded_json_payload(self, capsys):
        code = main(
            ["serve-fleet", "--gpus", "tx1", "--requests", "30",
             "--shards", "2", "--shard-inline", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        sharding = payload["sharding"]
        assert sharding["n_shards"] == 2
        assert len(sharding["seeds"]) == 2
        assert sharding["rehomed"] == 0
        assert sharding["dead_shards"] == []
        # Each shard gets its own interactive tenant at the full
        # request count (plus a background tenant's traffic).
        assert payload["summary"]["offered"] >= 2 * 30
        summary = payload["summary"]
        assert summary["completed"] + summary["rejected"] == summary["offered"]

    def test_inline_shards_deploy_each_gpu_once(self, monkeypatch, capsys):
        """The storm is sized on the same build the inline shards route
        on, so the command tunes each platform once."""
        deployed = []
        deploy = PervasiveCNN.deploy

        def counting(self, *args, **kwargs):
            deployed.append(self.arch.name)
            return deploy(self, *args, **kwargs)

        monkeypatch.setattr(PervasiveCNN, "deploy", counting)
        code = main(
            ["serve-fleet", "--shards", "2", "--shard-inline",
             "--requests", "100", "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["sharding"]
        assert deployed == ["K20c", "TX1"]

    def test_sharded_human_output_lists_shards(self, capsys):
        code = main(
            ["serve-fleet", "--gpus", "tx1", "--requests", "30",
             "--shards", "2", "--shard-inline"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "s0" in out and "s1" in out


class TestServeFleetSupervised:
    _BASE = ["serve-fleet", "--gpus", "tx1", "--requests", "30",
             "--shard-inline", "--seed", "9"]

    def test_proc_chaos_json_reports_failures_and_statuses(self, capsys):
        code = main(
            self._BASE + ["--shards", "2", "--proc-chaos", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        sharding = payload["sharding"]
        assert sharding["statuses"] == ["retried", "retried"]
        assert sharding["escalated"] == []
        kinds = {failure["kind"] for failure in sharding["failures"]}
        assert kinds <= {"crashed", "timeout", "error", "integrity",
                         "witness"}
        assert kinds, "proc chaos at seed 11 must inject something"
        counters = sharding["supervision"]["counters"]
        assert counters["retries"] == len(sharding["failures"])
        assert counters["failed"] == 0
        summary = payload["summary"]
        assert summary["completed"] + summary["rejected"] == summary["offered"]

    def test_proc_chaos_fingerprint_matches_clean_run(self, capsys):
        assert main(self._BASE + ["--shards", "2", "--json"]) == 0
        clean = json.loads(capsys.readouterr().out)
        assert main(
            self._BASE + ["--shards", "2", "--proc-chaos", "--json"]
        ) == 0
        chaos = json.loads(capsys.readouterr().out)
        assert chaos["fingerprint"] == clean["fingerprint"]

    def test_status_column_in_table(self, capsys):
        code = main(self._BASE + ["--shards", "2", "--proc-chaos"])
        assert code == 0
        out = capsys.readouterr().out
        assert "status" in out
        assert "retried" in out

    def test_supervision_flags_route_single_shard_through_coordinator(
        self, capsys
    ):
        code = main(self._BASE + ["--shard-timeout-s", "120", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sharding"]["n_shards"] == 1
        assert payload["sharding"]["statuses"] == ["ok"]

    @pytest.mark.parametrize(
        "flags, supervision",
        [([], ["--shard-witness"]), (["--chaos"], ["--shard-timeout-s", "120"])],
        ids=["witness", "chaos-timeout"],
    )
    def test_one_supervised_shard_serves_the_unsharded_storm(
        self, flags, supervision, capsys
    ):
        """A supervision flag routes one shard through the coordinator
        but must not change the tenants, seeds or chaos it serves."""
        argv = self._BASE + flags + ["--json"]
        assert main(argv) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(argv + supervision) == 0
        supervised = json.loads(capsys.readouterr().out)
        assert "sharding" not in plain
        assert supervised["sharding"]["n_shards"] == 1
        assert supervised["fingerprint"] == plain["fingerprint"]

    def test_sharded_chaos_fingerprint_is_pinned(self, capsys):
        """Two inline shards, each on its own chaos schedule: pins the
        per-shard fault traces the storm draws and the coordinator
        hands to each shard."""
        code = main(
            ["serve-fleet", "--shards", "2", "--shard-inline", "--chaos",
             "--requests", "200", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fingerprint"] == (
            "2f46fcb6ac2ee47a439d77753964a4c57adfc20a"
        )

    def test_resume_dir_round_trip(self, tmp_path, capsys):
        resume = str(tmp_path / "ckpt")
        args = self._BASE + ["--shards", "2", "--resume-dir", resume,
                             "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["sharding"]["statuses"] == ["ok", "ok"]
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["sharding"]["statuses"] == ["resumed", "resumed"]
        assert second["fingerprint"] == first["fingerprint"]


class TestServeFleetLedger:
    def test_chaos_retry_at_batch_finish_is_not_lost(self, capsys):
        """Seed 103 lands a retry on the same float instant as its
        batch's finish; every offered request must still be terminal
        (40 interactive + 10 background)."""
        code = main(
            ["serve-fleet", "--requests", "40", "--chaos", "--seed",
             "103", "--json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["completed"] + summary["rejected"] == 50
        assert summary["offered"] == 50

    @pytest.mark.parametrize("load", ["nan", "inf"])
    def test_non_finite_load_is_a_clean_error(self, load, capsys):
        """A NaN load used to reach the router as NaN arrivals and die
        with a traceback; an infinite one piled every request onto
        t=0.  Both must stop at the trace boundary with exit code 2."""
        code = main(["serve-fleet", "--requests", "40", "--load", load])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "rate_hz" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["serve-fleet", "--shards", "0"], "--shards"),
            (["serve-fleet", "--shards", "-1"], "--shards"),
            (["serve-fleet", "--requests", "0"], "--requests"),
            (["serve-fleet", "--requests", "-5"], "--requests"),
            (["trace", "age-detection", "--requests", "0", "--chaos"],
             "--requests"),
            (["trace", "age-detection", "--requests", "-5"], "--requests"),
        ],
    )
    def test_counts_below_one_name_the_flag(self, argv, flag, capsys):
        """Zero or negative shard and request counts used to run
        unsharded, die with an IndexError, or fail inside numpy; they
        stop at the parser now, exit 2, and name the flag."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument %s" % flag in err
        assert "must be >= 1" in err

    @pytest.mark.parametrize(
        "argv, flag, bound",
        [
            (["serve-fleet", "--requests", "40", "--shard-retries", "-1"],
             "--shard-retries", 1),
            (["serve-fleet", "--requests", "40", "--processes", "0"],
             "--processes", 1),
            (["compile", "--network", "alexnet", "--gpu", "k20c",
              "--batch", "-3"], "--batch", 0),
        ],
    )
    def test_unused_out_of_range_flags_name_the_flag(
        self, argv, flag, bound, capsys
    ):
        """An unsharded run ignores the shard flags and a negative
        compile batch used to select one silently, so these exited 0;
        they stop at the parser now."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument %s" % flag in err
        assert "must be >= %d" % bound in err

    def test_non_finite_shard_timeout_is_a_clean_error(self, capsys):
        code = main(
            ["serve-fleet", "--requests", "40", "--shard-timeout-s", "nan"]
        )
        assert code == 2
        assert "timeout_s" in capsys.readouterr().err
