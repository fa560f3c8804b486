"""The python -m repro command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure9" in out
        assert "gpKVS" in out
        assert "cxl_projection" in out

    def test_run_single_artefact(self, capsys, tmp_path):
        assert main(["run", "figure12_patterns", "--reports", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "12.5" in out
        assert (tmp_path / "out_figure12_patterns.txt").exists()

    def test_run_unknown_artefact(self):
        with pytest.raises(SystemExit):
            main(["run", "figure99"])

    def test_workload(self, capsys):
        assert main(["workload", "PS", "--mode", "gpm"]) == 0
        out = capsys.readouterr().out
        assert "PS under gpm" in out
        assert "simulated time" in out

    def test_workload_unknown(self):
        with pytest.raises(SystemExit):
            main(["workload", "nope"])

    def test_workload_bad_mode(self):
        # Unknown modes exit through the registry with the known names.
        with pytest.raises(SystemExit) as err:
            main(["workload", "PS", "--mode", "warp-drive"])
        msg = str(err.value)
        assert "warp-drive" in msg and "gpm-epoch" in msg and "cap-mm" in msg

    def test_workload_persistency_model_modes(self, capsys):
        assert main(["workload", "PS", "--mode", "gpm-epoch"]) == 0
        assert "PS under gpm-epoch" in capsys.readouterr().out
        assert main(["workload", "PS", "--mode", "gpm-adaptive"]) == 0
        assert "PS under gpm-adaptive" in capsys.readouterr().out

    def test_check_epoch_mode(self, capsys):
        assert main(["check", "prefix_sum", "--mode", "gpm-epoch",
                     "--max-frontiers", "4"]) == 0
        assert "prefix_sum" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,message", [
        (["check", "ring", "--frontier", "garbage"], "bad frontier spec"),
        (["check", "ring", "--frontier", "event:-1"], "ordinal must be >= 0"),
        (["check", "ring", "--frontier", "threads:-5"], "ordinal must be >= 0"),
        (["check", "--litmus", "-2"], "--litmus must be >= 0"),
        (["check", "kvs", "--max-frontiers", "-1"],
         "--max-frontiers must be >= 0"),
        (["check", "ring", "--litmus-frontiers", "-1"],
         "--litmus-frontiers must be >= 0"),
        (["check", "ring", "--jobs", "0"], "check: --jobs must be >= 1"),
        (["run", "figure12_patterns", "--no-cache", "--jobs", "0"],
         "run: --jobs must be >= 1"),
        (["run", "figure12_patterns", "--no-cache", "--jobs", "-3"],
         "run: --jobs must be >= 1"),
        (["check", "kvs", "--window-samples", "0"],
         "check: --window-samples must be >= 1"),
        (["check", "kvs", "--window-samples", "-2"],
         "check: --window-samples must be >= 1"),
        (["check", "kvs", "--mutant", "fence-order"],
         "check: --mutant applies only with --litmus-replay"),
        (["check", "kvs", "--litmus-config", "strict:window:adr"],
         "check: --litmus-config applies only with --litmus-replay"),
        (["check", "--litmus", "1", "--mutant", "epoch-boundary"],
         "check: --mutant applies only with --litmus-replay"),
        (["check", "--litmus", "1", "--litmus-config", "strict:window:adr"],
         "check: --litmus-config applies only with --litmus-replay"),
        (["check", "--litmus", "1", "--frontier", "event:3"],
         "check: --frontier applies to a target or to --litmus-replay"),
        (["check", "--litmus-replay", "42:0", "--litmus-config", "bogus"],
         "<model> one of: adaptive, eadr, epoch, relaxed, strict"),
        (["check", "--litmus-replay", "42:0", "--litmus-config",
          "nope:window:adr"],
         "unknown model 'nope' (one of: adaptive, eadr, epoch, relaxed"),
        (["check", "--litmus-replay", "42:0", "--mutant", "nope"],
         "check: unknown --mutant 'nope' (one of: fence-order, "
         "epoch-boundary)"),
        (["check", "ring", "--images", "--frontier", "event:3"],
         "check: --images counts a whole exploration; drop --frontier"),
        (["check", "--litmus", "1", "--images"],
         "check: --images applies to a target, not to --litmus"),
    ])
    def test_rejects_bad_flags(self, argv, message, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # a wrongly accepted run writes here
        with pytest.raises(SystemExit) as err:
            main(argv)
        text = str(err.value.code)
        assert message in text and "\n" not in text


class TestEngineCli:
    def test_run_with_jobs_and_cache_dir(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(["run", "figure12_patterns", "--reports",
                     str(tmp_path / "r1"), "--jobs", "2",
                     "--cache-dir", str(cache)]) == 0
        first = capsys.readouterr().out
        assert cache.exists()  # the table landed in the persistent cache
        assert main(["run", "figure12_patterns", "--reports",
                     str(tmp_path / "r2"), "--cache-dir", str(cache)]) == 0
        second = capsys.readouterr().out
        assert first.replace("r1", "") == second.replace("r2", "")

    def test_run_no_cache_writes_nothing(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["run", "figure12_patterns", "--reports",
                     str(tmp_path / "r"), "--no-cache",
                     "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert not cache.exists()


class TestServeCli:
    ARGS = ["serve", "--tenants", "2", "--shards", "2", "--rate", "300000",
            "--duration", "0.0003", "--seed", "11"]

    def test_serve_prints_summary(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "served 2 tenants" in out
        assert "2 log shards, seed 11" in out
        assert "throughput" in out and "p99" in out

    def test_serve_json_is_byte_identical_per_seed(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--json"]) == 0
        assert capsys.readouterr().out == first
        assert main(["serve"] + self.ARGS[1:-1] + ["12", "--json"]) == 0
        assert capsys.readouterr().out != first

    @pytest.mark.parametrize("flag,value,message", [
        ("--shards", "0", "shards must be >= 1"),
        ("--rate", "0", "rate must be > 0"),
        ("--tenants", "0", "tenants must be >= 1"),
        ("--read-fraction", "1.5", "read fraction must be in [0, 1]"),
        ("--delete-fraction", "0.6", "delete fraction must be >= 0"),
        ("--linger", "-1", "linger must be >= 0"),
        ("--duration", "-1", "duration must be >= 0"),
        ("--theta", "1", "theta must be in [0, 1)"),
        ("--target-batch", "0", "target batch must be >= 1"),
        ("--mode", "warp-drive", "unknown persistence mode"),
    ])
    def test_serve_rejects_bad_config(self, flag, value, message):
        with pytest.raises(SystemExit) as err:
            main(self.ARGS + [flag, value])
        text = str(err.value.code)
        assert message in text and "\n" not in text


class TestCheckCli:
    def test_list_includes_check_targets(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "check targets" in out
        assert "broken-demo" in out

    def test_check_clean_target_exits_zero(self, capsys):
        assert main(["check", "ring", "--max-frontiers", "8"]) == 0
        out = capsys.readouterr().out
        assert "PASS: zero invariant violations" in out
        assert "frontiers explored" in out

    def test_check_broken_target_exits_nonzero_with_reproducer(self, capsys):
        assert main(["check", "broken-demo"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATIONS" in out
        assert "reproduce: PYTHONPATH=src python -m repro check broken-demo" in out

    def test_check_single_frontier_replay(self, capsys):
        assert main(["check", "broken-demo", "--frontier", "event:4"]) == 1
        out = capsys.readouterr().out
        assert "FAIL (violation)" in out
        assert main(["check", "ring", "--frontier", "event:0"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_images_counts_distinct_durable_images(self, capsys):
        assert main(["check", "ring", "--max-frontiers", "0", "--images"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "durable images: ring under gpm",
            "  crash states        18 (12 event, 6 threads)",
            "  distinct images     5",
            "  threads-only images 0",
        ]

    def test_check_unknown_target(self):
        with pytest.raises(SystemExit):
            main(["check", "nope"])


class TestLitmusCli:
    def test_litmus_campaign_passes_and_catches_sentinels(self, capsys):
        # Bounded version of the CI job: every clean config point must
        # pass AND both planted sentinel bugs must be caught.
        assert main(["check", "--litmus", "2", "--seed", "7",
                     "--no-corpus", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "fence-order" in out and "caught" in out
        assert "epoch-boundary" in out
        assert "UNDETECTED" not in out

    def test_litmus_campaign_uses_disk_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ["check", "--litmus", "1", "--seed", "3", "--no-corpus",
                "--cache-dir", str(cache)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert list(cache.glob("litmus-*.json"))
        assert main(args) == 0
        assert capsys.readouterr().out == cold

    def test_litmus_replay_clean_point(self, capsys):
        assert main(["check", "--litmus-replay", "7:0",
                     "--litmus-config", "strict:window:adr"]) == 0
        out = capsys.readouterr().out
        assert "litmus 7:0" in out
        assert "ok" in out

    def test_litmus_replay_mutant_fails_with_reproducer(self, capsys):
        assert main(["check", "--litmus-replay", "7:0",
                     "--litmus-config", "epoch:window:adr",
                     "--mutant", "epoch-boundary"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert ("reproduce: PYTHONPATH=src python -m repro check "
                "--litmus-replay 7:0") in out
        assert "--mutant epoch-boundary" in out

    def test_litmus_replay_bad_spec(self):
        with pytest.raises(SystemExit):
            main(["check", "--litmus-replay", "seven"])

    def test_check_without_target_or_litmus_errors(self):
        with pytest.raises(SystemExit):
            main(["check"])
