"""Tests for per-prefix 6Gen orchestration and budget policies."""

from repro.analysis.grouping import seed_proportional_budget, static_budget
from repro.campaign.generate import generate_per_prefix
from repro.ipv6.prefix import Prefix

from conftest import addr


def _groups():
    return {
        Prefix.parse("2001:db8::/32"): [addr(f"2001:db8::{i:x}") for i in range(1, 7)],
        Prefix.parse("2600::/32"): [addr("2600::1"), addr("2600::2")],
    }


class TestBudgetPolicies:
    def test_static(self):
        assert static_budget(Prefix.parse("::/0"), [1, 2, 3], 100) == 100

    def test_seed_proportional(self):
        assert seed_proportional_budget(Prefix.parse("::/0"), [1, 2, 3], 100) == 300


class TestRunPerPrefix:
    def test_runs_each_prefix(self):
        run = generate_per_prefix(_groups(), budget=20)
        assert len(run.runs) == 2
        for prefix, prefix_run in run.runs.items():
            assert prefix_run.budget == 20
            assert prefix_run.result.seed_count == len(prefix_run.seeds)

    def test_all_targets_union(self):
        run = generate_per_prefix(_groups(), budget=20)
        targets = run.all_targets()
        for prefix_run in run.runs.values():
            assert prefix_run.result.target_set() <= targets

    def test_new_targets_excludes_seeds(self):
        run = generate_per_prefix(_groups(), budget=20)
        all_seeds = {s for seeds in _groups().values() for s in seeds}
        assert not (run.new_targets() & all_seeds)

    def test_min_seeds_filter(self):
        run = generate_per_prefix(_groups(), budget=20, min_seeds=3)
        assert len(run.runs) == 1

    def test_budget_policy_applied(self):
        run = generate_per_prefix(
            _groups(), budget=5, budget_policy=seed_proportional_budget
        )
        budgets = {p: r.budget for p, r in run.runs.items()}
        assert budgets[Prefix.parse("2001:db8::/32")] == 30
        assert budgets[Prefix.parse("2600::/32")] == 10

    def test_totals(self):
        run = generate_per_prefix(_groups(), budget=20)
        assert run.total_seed_count() == 8
        assert run.total_budget_used() <= 40

    def test_results_view(self):
        run = generate_per_prefix(_groups(), budget=20)
        results = run.results()
        assert set(results) == set(_groups())

    def test_process_pool_matches_serial(self):
        serial = generate_per_prefix(_groups(), budget=20)
        parallel = generate_per_prefix(_groups(), budget=20, processes=2)
        assert set(serial.runs) == set(parallel.runs)
        for prefix in serial.runs:
            assert (
                serial.runs[prefix].result.target_set()
                == parallel.runs[prefix].result.target_set()
            )


def _poison_policy(bad_prefix):
    """Budget policy that hands one prefix a budget run_6gen rejects."""

    def policy(prefix, seeds, base):
        return -5 if prefix == bad_prefix else base

    return policy


class TestFailureIsolation:
    def test_failing_prefix_skipped_with_warning(self):
        import pytest

        bad = Prefix.parse("2600::/32")
        with pytest.warns(RuntimeWarning, match="failed twice"):
            run = generate_per_prefix(
                _groups(), budget=20, budget_policy=_poison_policy(bad)
            )
        assert bad in run.failures
        assert "ValueError" in run.failures[bad]
        assert bad not in run.runs
        # the healthy prefix still produced targets
        good = Prefix.parse("2001:db8::/32")
        assert good in run.runs
        assert run.runs[good].result.target_set()

    def test_isolate_failures_false_reraises(self):
        import pytest

        bad = Prefix.parse("2600::/32")
        with pytest.raises(ValueError):
            generate_per_prefix(
                _groups(), budget=20, budget_policy=_poison_policy(bad),
                isolate_failures=False,
            )

    def test_pool_path_isolates_failures(self):
        import pytest

        bad = Prefix.parse("2600::/32")
        with pytest.warns(RuntimeWarning, match="failed twice"):
            run = generate_per_prefix(
                _groups(), budget=20, budget_policy=_poison_policy(bad),
                processes=2,
            )
        assert bad in run.failures
        good = Prefix.parse("2001:db8::/32")
        assert run.runs[good].result.target_set()

    def test_progress_sink_events(self):
        import pytest

        from repro.telemetry.sinks import MemorySink

        bad = Prefix.parse("2600::/32")
        sink = MemorySink()
        with pytest.warns(RuntimeWarning):
            generate_per_prefix(
                _groups(), budget=20, budget_policy=_poison_policy(bad),
                progress_sink=sink,
            )
        kinds = [e["event"] for e in sink.events]
        assert kinds.count("prefix_generated") == 1
        assert kinds.count("prefix_failed") == 1
        failed = next(e for e in sink.events if e["event"] == "prefix_failed")
        assert failed["prefix"] == str(bad)

    def test_no_failures_leaves_failures_empty(self):
        run = generate_per_prefix(_groups(), budget=20)
        assert run.failures == {}
