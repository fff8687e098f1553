"""Ablations of 6Gen's design choices (DESIGN.md §5).

Each ablation measures one of the paper's §5.5 optimizations or §5.2–§5.4
design decisions by disabling/States swapping it and comparing runtime
and/or outcome on the same seed sets.
"""

from repro.analysis import experiments as ex
from repro.core.candidates import SeedMatrix, find_candidates_python
from repro.core.sixgen import run_6gen
from repro.telemetry.timer import time_call

from conftest import BENCH_SCALE


def _seed_pool(count):
    context = ex.standard_context(BENCH_SCALE)
    return sorted(context.seed_addresses)[:count]


class TestGrowthCachingAblation:
    """§5.5: caching best growths between iterations (the O(N) saving)."""

    def test_cached_runtime(self, benchmark):
        seeds = _seed_pool(250)
        benchmark(lambda: run_6gen(seeds, 3_000, use_growth_cache=True))

    def test_naive_runtime(self, benchmark):
        seeds = _seed_pool(250)
        benchmark.pedantic(
            lambda: run_6gen(seeds, 3_000, use_growth_cache=False),
            rounds=1,
            iterations=1,
        )

    def test_caching_preserves_results(self, save_result):
        seeds = _seed_pool(250)
        cached, t_cached = time_call(
            lambda: run_6gen(seeds, 3_000, use_growth_cache=True)
        )
        naive, t_naive = time_call(
            lambda: run_6gen(seeds, 3_000, use_growth_cache=False)
        )
        assert {c.range for c in cached.clusters} == {c.range for c in naive.clusters}
        save_result(
            "ablation_caching",
            "§5.5 growth-cache ablation (identical output)\n"
            f"cached: {t_cached:.3f}s   naive: {t_naive:.3f}s   "
            f"speedup: {t_naive / max(t_cached, 1e-9):.1f}x",
        )
        assert t_naive >= t_cached * 0.8  # caching never meaningfully slower


def _candidate_ranges(count):
    """A seed pool and every cluster range a 6Gen run over it produces."""
    seeds = _seed_pool(count)
    result = run_6gen(seeds, 2_000)
    return sorted(set(seeds)), [c.range for c in result.clusters]


class TestSeedMatrixAblation:
    """§5.5 analogue: vectorised candidate search vs pure Python."""

    def test_numpy_runtime(self, benchmark):
        seeds, ranges = _candidate_ranges(200)
        matrix = SeedMatrix(seeds)
        benchmark(
            lambda: [matrix.min_positive_candidates(r) for r in ranges]
        )

    def test_python_runtime(self, benchmark):
        seeds, ranges = _candidate_ranges(200)
        benchmark.pedantic(
            lambda: [find_candidates_python(r, seeds) for r in ranges],
            rounds=1,
            iterations=1,
        )

    def test_identical_output(self):
        seeds, ranges = _candidate_ranges(120)
        matrix = SeedMatrix(seeds)
        for range_ in ranges:
            assert matrix.min_positive_candidates(range_) == (
                find_candidates_python(range_, seeds)
            )


class TestBudgetLedgerAblation:
    """§5.4: exact unique-address accounting vs raw range-size sums."""

    def test_exact_ledger_runtime(self, benchmark):
        seeds = _seed_pool(250)
        benchmark(lambda: run_6gen(seeds, 3_000, ledger="exact"))

    def test_range_sum_ledger_runtime(self, benchmark):
        seeds = _seed_pool(250)
        benchmark(lambda: run_6gen(seeds, 3_000, ledger="range-sum"))

    def test_exact_never_generates_more_than_budget(self, save_result):
        seeds = _seed_pool(250)
        exact = run_6gen(seeds, 3_000, ledger="exact")
        rangesum = run_6gen(seeds, 3_000, ledger="range-sum")
        exact_new = len(exact.new_targets(seeds))
        rangesum_new = len(rangesum.new_targets(seeds))
        assert exact_new <= 3_000
        save_result(
            "ablation_ledger",
            "§5.4 budget-ledger ablation\n"
            f"exact ledger: {exact_new} new targets (budget 3000)\n"
            f"range-sum ledger: {rangesum_new} new targets (budget 3000)",
        )


class TestTiebreakAblation:
    """§5.4: density → smaller-range → random tiebreaking determinism."""

    def test_rng_seed_varies_only_true_ties(self, save_result):
        seeds = _seed_pool(150)
        runs = [run_6gen(seeds, 2_000, rng_seed=s) for s in range(3)]
        target_counts = [r.target_count() for r in runs]
        # Different tiebreak draws may pick different equal-density
        # growths, but the amount of budget spent must be identical.
        assert len({r.budget_used for r in runs}) == 1
        save_result(
            "ablation_tiebreak",
            "§5.4 tiebreak ablation: target counts across rng seeds "
            f"{target_counts} (budget_used identical: {runs[0].budget_used})",
        )
