"""CrashExplorer end to end: clean targets pass, planted bugs are caught."""

import pytest

from repro.check import CrashExplorer, explore, make_oracle, parse_frontier
from repro.check.explorer import explore_frontier
from repro.check.report import reproducer_command
from repro.workloads import Mode


class TestOracles:
    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="prefix_sum"):
            make_oracle("nope")

    def test_known_targets_build(self):
        oracle = make_oracle("ring")
        system = oracle.build_system(Mode.GPM)
        assert system.machine is not None


class TestCleanTarget:
    def test_ring_survives_every_frontier(self):
        report = explore("ring", Mode.GPM, max_frontiers=0)
        assert report.ok
        assert report.frontiers_explored == report.frontiers_recorded
        assert report.violations == [] and report.errors == []
        assert "PASS" in report.describe()

    def test_parallel_results_match_sequential(self):
        parallel = explore("ring", Mode.GPM, max_frontiers=0, jobs=2)
        assert parallel.results == explore("ring", Mode.GPM,
                                           max_frontiers=0, jobs=1).results

    def test_jobs_clamped_to_available_cpus(self, monkeypatch):
        import multiprocessing

        from repro.experiments import runner

        def no_fork(*_args, **_kwargs):
            raise AssertionError("forked more workers than CPUs")

        monkeypatch.setattr(runner, "available_cpus", lambda: 1)
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        assert explore("ring", Mode.GPM, max_frontiers=0, jobs=4).ok

    def test_pruning_respects_budget(self):
        report = explore("ring", Mode.GPM, max_frontiers=6)
        assert report.frontiers_explored <= 6
        assert report.frontiers_pruned == (report.frontiers_recorded
                                           - report.frontiers_explored)
        assert report.ok

    def test_recorder_separates_mechanisms(self):
        frontiers = CrashExplorer("ring", Mode.GPM).record()
        mechanisms = {f.mechanism for f in frontiers}
        assert "event" in mechanisms
        assert "threads" in mechanisms  # unfenced windows between drains


class TestBrokenDemo:
    """The deliberately mis-fenced target: sentinel persisted before payload."""

    def test_violation_caught_with_reproducer(self):
        report = explore("broken-demo", Mode.GPM, max_frontiers=0)
        assert not report.ok
        assert report.violations
        text = report.describe()
        assert "VIOLATIONS" in text
        assert "reproduce:" in text
        spec = report.violations[0].frontier.spec()
        assert reproducer_command("broken-demo", "gpm", spec) in text

    def test_reproducer_replays_deterministically(self):
        report = explore("broken-demo", Mode.GPM, max_frontiers=0)
        frontier = report.violations[0].frontier
        first = explore_frontier("broken-demo", "gpm", frontier)
        second = explore_frontier("broken-demo", "gpm", frontier)
        assert first.status == "violation" == second.status
        assert ([v.name for v in first.failed_verdicts]
                == [v.name for v in second.failed_verdicts])

    def test_thread_frontiers_alone_miss_the_bug(self):
        # the pitch for event frontiers: random/thread-count injection can
        # never land between a warp's drain rounds, where this bug lives
        report = explore("broken-demo", Mode.GPM, max_frontiers=0)
        assert all(r.frontier.mechanism == "event" for r in report.violations)


class TestReplay:
    def test_parse_and_replay_single_frontier(self):
        report = explore("ring", Mode.GPM, max_frontiers=0)
        spec = report.results[0].frontier.spec()
        result = explore_frontier("ring", "gpm", parse_frontier(spec))
        assert result.status == "ok"
        assert result.verdicts

    def test_unknown_mechanism_is_error(self):
        from repro.check import Frontier

        result = explore_frontier("ring", "gpm", Frontier("warp", 0, "x"))
        assert result.status == "error"
        assert "mechanism" in result.error
