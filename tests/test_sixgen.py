"""Behavioural tests for the 6Gen algorithm (paper §5)."""

import itertools

import pytest

from repro.core.candidates import SeedMatrix, find_candidates_python
from repro.core.sixgen import SixGen, SixGenConfig, run_6gen
from repro.ipv6.range_ import NybbleRange

from conftest import addr


class TestEdgeCases:
    def test_no_seeds(self):
        result = run_6gen([], budget=100)
        assert result.clusters == []
        assert result.target_count() == 0
        assert result.budget_used == 0

    def test_single_seed(self):
        result = run_6gen([addr("2001:db8::1")], budget=100)
        assert len(result.clusters) == 1
        assert result.clusters[0].is_singleton()
        assert result.budget_used == 0
        assert result.target_set() == {addr("2001:db8::1")}

    def test_duplicate_seeds_deduplicated(self):
        result = run_6gen([addr("::1")] * 5, budget=100)
        assert result.seed_count == 1

    def test_zero_budget_yields_singletons(self):
        seeds = [addr("2001:db8::1"), addr("2001:db8::2")]
        result = run_6gen(seeds, budget=0)
        assert all(c.is_singleton() for c in result.clusters)
        assert result.target_set() == set(seeds)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            run_6gen([addr("::1")], budget=-1)


class TestClustering:
    def test_dense_block_forms_one_cluster(self, dense_block_seeds):
        result = run_6gen(dense_block_seeds, budget=100)
        grown = result.grown_clusters()
        assert len(grown) >= 1
        best = max(grown, key=lambda c: c.seed_count)
        assert best.range == NybbleRange.parse("2001:db8::?")
        assert best.seed_count == 8

    def test_outlier_stays_separate_when_budget_small(self, dense_block_seeds):
        result = run_6gen(dense_block_seeds, budget=20)
        # the distant outlier cannot be affordably unified
        singleton_ranges = {c.range for c in result.singleton_clusters()}
        assert NybbleRange.from_address(addr("2001:db8:ffff::1")) in singleton_ranges

    def test_two_seed_network_grows(self):
        # The §5.4 note: the unifying growth is applied, not discarded —
        # otherwise 2-seed prefixes would never grow (contradicting Fig. 5b).
        seeds = [addr("2001:db8::1"), addr("2001:db8::2")]
        result = run_6gen(seeds, budget=100)
        assert len(result.grown_clusters()) == 1
        assert result.grown_clusters()[0].seed_count == 2

    def test_encapsulated_clusters_deleted(self):
        seeds = [addr(f"2001:db8::{i:x}") for i in range(1, 9)]
        result = run_6gen(seeds, budget=100)
        # all 8 seeds unify into one cluster; no singleton survives inside it
        assert len(result.clusters) == 1
        assert result.clusters[0].seed_count == 8

    def test_two_distant_dense_blocks(self):
        block_a = [addr(f"2001:db8::{i:x}") for i in range(1, 7)]
        block_b = [addr(f"2001:db8:ffff::{i:x}") for i in range(1, 7)]
        result = run_6gen(block_a + block_b, budget=32)
        grown_ranges = {c.range for c in result.grown_clusters()}
        assert NybbleRange.parse("2001:db8::?") in grown_ranges
        assert NybbleRange.parse("2001:db8:ffff::?") in grown_ranges

    def test_density_priority(self):
        # A dense block and a sparse pair: the dense block must grow first.
        dense = [addr(f"2001:db8::{i:x}") for i in range(1, 9)]
        sparse = [addr("2001:db8:1::1"), addr("2001:db8:1::9")]
        result = run_6gen(dense + sparse, budget=16)
        best = max(result.grown_clusters(), key=lambda c: c.seed_count)
        assert best.range == NybbleRange.parse("2001:db8::?")


class TestBudget:
    def test_budget_never_exceeded(self, dense_block_seeds):
        for budget in (1, 5, 16, 100, 1000):
            result = run_6gen(dense_block_seeds, budget=budget)
            assert result.budget_used <= budget
            new = result.new_targets(dense_block_seeds)
            assert len(new) <= budget

    def test_budget_consumed_exactly_when_exceeding(self):
        # Growth into a huge range triggers exact consumption by sampling.
        seeds = [addr("2001:db8::1"), addr("2001:db8:1234:5678::1")]
        result = run_6gen(seeds, budget=50)
        assert result.budget_used == 50
        assert len(result.sampled) == 50

    def test_targets_include_seeds(self, dense_block_seeds):
        result = run_6gen(dense_block_seeds, budget=100)
        assert set(dense_block_seeds) <= result.target_set()

    def test_target_count_consistency(self, dense_block_seeds):
        result = run_6gen(dense_block_seeds, budget=100)
        assert result.target_count() == len(result.target_set())
        assert result.target_count() == result.budget_used + result.seed_count


class TestModes:
    def test_tight_ranges_smaller(self, dense_block_seeds):
        loose = run_6gen(dense_block_seeds, budget=30, loose=True)
        tight = run_6gen(dense_block_seeds, budget=30, loose=False)
        loose_best = max(loose.clusters, key=lambda c: c.seed_count)
        tight_best = max(tight.clusters, key=lambda c: c.seed_count)
        assert tight_best.range.size() <= loose_best.range.size()

    def test_tight_mode_value_sets(self):
        seeds = [addr("2001:db8::1"), addr("2001:db8::3")]
        result = run_6gen(seeds, budget=100, loose=False)
        grown = result.grown_clusters()[0]
        assert grown.range.values_at(31) == (1, 3)

    def test_ledger_modes_same_clusters_on_disjoint_input(self):
        # With non-overlapping clusters both ledgers pick the same growths;
        # their costs differ exactly by the seeds inside the grown range
        # (the exact ledger never charges already-known addresses).
        seeds = [addr(f"2001:db8::{i:x}") for i in range(1, 7)]
        exact = run_6gen(seeds, budget=16, ledger="exact")
        rangesum = run_6gen(seeds, budget=16, ledger="range-sum")
        assert {c.range for c in exact.clusters} == {c.range for c in rangesum.clusters}
        grown = exact.grown_clusters()[0]
        # range-sum charged size-1 (from the founding singleton); exact
        # charged size minus every seed that fell inside.
        assert rangesum.budget_used - exact.budget_used == grown.seed_count - 1

    def test_python_fallback_matches_numpy(self, dense_block_seeds):
        # The pure-Python candidate search is SeedMatrix's oracle: both
        # agree on every cluster range a production run produces, across
        # the loose/tight x exact/range-sum x cache on/off matrix.
        seeds = sorted(set(dense_block_seeds))
        matrix = SeedMatrix(seeds)
        for loose, ledger, cache in itertools.product(
            (True, False), ("exact", "range-sum"), (True, False)
        ):
            result = run_6gen(
                seeds, budget=40, loose=loose, ledger=ledger,
                use_growth_cache=cache,
            )
            assert result.grown_clusters()
            for cluster in result.clusters:
                assert matrix.min_positive_candidates(cluster.range) == (
                    find_candidates_python(cluster.range, seeds)
                )

    def test_no_cache_matches_cached(self, dense_block_seeds):
        cached = run_6gen(dense_block_seeds, budget=40, use_growth_cache=True)
        naive = run_6gen(dense_block_seeds, budget=40, use_growth_cache=False)
        assert {c.range for c in cached.clusters} == {c.range for c in naive.clusters}
        assert cached.budget_used == naive.budget_used


class TestDeterminism:
    def test_same_rng_seed_same_result(self, dense_block_seeds):
        a = run_6gen(dense_block_seeds, budget=60, rng_seed=7)
        b = run_6gen(dense_block_seeds, budget=60, rng_seed=7)
        assert {c.range for c in a.clusters} == {c.range for c in b.clusters}
        assert a.target_set() == b.target_set()

    def test_seed_order_irrelevant(self, dense_block_seeds):
        a = run_6gen(dense_block_seeds, budget=60, rng_seed=7)
        b = run_6gen(list(reversed(dense_block_seeds)), budget=60, rng_seed=7)
        assert {c.range for c in a.clusters} == {c.range for c in b.clusters}


class TestResultIntrospection:
    def test_dynamic_nybble_indices(self, dense_block_seeds):
        result = run_6gen(dense_block_seeds, budget=16)
        assert 31 in result.dynamic_nybble_indices()

    def test_iterations_counted(self, dense_block_seeds):
        result = run_6gen(dense_block_seeds, budget=16)
        assert result.iterations >= 1

    def test_elapsed_recorded(self, dense_block_seeds):
        result = run_6gen(dense_block_seeds, budget=16)
        assert result.elapsed_seconds > 0

    def test_config_object_api(self, dense_block_seeds):
        config = SixGenConfig(budget=16, loose=False, rng_seed=3)
        result = SixGen(dense_block_seeds, config).run()
        assert result.budget_limit == 16


class TestDensityOrderedStream:
    def test_sampled_addresses_last(self):
        # force a final-growth sampling, then check stream ordering
        seeds = [addr("2001:db8::1"), addr("2001:db8:1234:5678::1")]
        result = run_6gen(seeds, budget=20)
        assert result.sampled
        stream = list(result.iter_targets_by_density())
        tail = stream[-len(result.sampled):]
        assert set(tail) <= set(result.sampled) | set(seeds)

    def test_stream_has_no_duplicates(self, dense_block_seeds):
        result = run_6gen(dense_block_seeds, budget=60)
        stream = list(result.iter_targets_by_density())
        assert len(stream) == len(set(stream))


class TestWholeSpaceSeeds:
    def test_extreme_span_handled(self):
        # seeds at opposite corners of the space: the unifying growth is
        # the whole 2**128 space; sampling must still work
        seeds = [0, (1 << 128) - 1, 1 << 64]
        result = run_6gen(seeds, budget=25)
        assert result.budget_used <= 25
        assert len(result.target_set()) <= 25 + 3

    def test_budget_of_one(self, dense_block_seeds):
        result = run_6gen(dense_block_seeds, budget=1)
        assert result.budget_used <= 1
        assert len(result.new_targets(dense_block_seeds)) <= 1
