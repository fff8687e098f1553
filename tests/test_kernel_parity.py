"""Parity of the vectorised 6Gen kernel against the reference oracle.

The vector kernel (``run_6gen``) must be bit-for-bit identical to the
Algorithm 1 transcription (``_run_6gen_reference``) for a fixed
``rng_seed``: same clusters, same targets, same sampled addresses, same
budget use, same iteration count.  These tests sweep randomized seed
pools across the full configuration matrix (loose/tight ranges,
exact/range-sum ledgers, growth cache on/off) and also check the
kernel's building blocks against their scalar references.

Resumption has its own oracle: a run extended over a sequence of
growing budgets must equal a fresh run at the final budget.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import SeedMatrix, find_candidates_python
from repro.core.sixgen import (
    SixGen,
    SixGenConfig,
    _run_6gen_reference,
    run_6gen,
)
from repro.ipv6.nybble_tree import NybbleTree
from repro.ipv6.range_ import NybbleRange


def make_pool(rng: random.Random, n: int, networks: int = 3) -> list[int]:
    """A clustered seed pool: a few networks with structured low bits."""
    bases = [rng.getrandbits(128) & ~((1 << 40) - 1) for _ in range(networks)]
    seeds: set[int] = set()
    while len(seeds) < n:
        base = rng.choice(bases)
        low = rng.getrandbits(12) | (rng.getrandbits(4) << (4 * rng.randrange(0, 10)))
        seeds.add(base | low)
    return sorted(seeds)


def run_signature(result):
    """Everything that must match between the two paths."""
    return (
        sorted((c.range.masks, c.seed_count) for c in result.clusters),
        frozenset(result.target_set()),
        tuple(result.sampled),
        result.budget_used,
        result.iterations,
    )


def resume_signature(result):
    """``run_signature`` plus the densest-first target columns."""
    hi, lo = result.target_columns_by_density()
    return run_signature(result) + (hi.tolist(), lo.tolist())


def assert_candidates_agree(seeds, result):
    """``find_candidates_python`` equals ``SeedMatrix`` on every cluster
    range of ``result``, grown or singleton."""
    matrix = SeedMatrix(seeds)
    assert result.clusters
    for cluster in result.clusters:
        assert matrix.min_positive_candidates(cluster.range) == (
            find_candidates_python(cluster.range, matrix.seeds)
        )


CONFIG_MATRIX = list(
    itertools.product(
        (True, False),  # loose
        ("exact", "range-sum"),  # ledger
        (True, False),  # use_growth_cache
    )
)


class TestEndToEndParity:
    @pytest.mark.parametrize("loose,ledger,cache", CONFIG_MATRIX)
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
    def test_vector_matches_reference(self, n, loose, ledger, cache):
        pool = make_pool(random.Random(n * 1009 + 17), n) if n else []
        for budget in (0, 25, 4000):
            ref = _run_6gen_reference(
                pool,
                budget,
                loose=loose,
                ledger=ledger,
                use_growth_cache=cache,
            )
            vec = run_6gen(
                pool,
                budget,
                loose=loose,
                ledger=ledger,
                use_growth_cache=cache,
            )
            assert run_signature(ref) == run_signature(vec)

    @pytest.mark.parametrize("loose,ledger,cache", CONFIG_MATRIX)
    def test_python_candidate_path_matches(self, loose, ledger, cache):
        """The pure-Python candidate search agrees with ``SeedMatrix``
        on every cluster range a production run produces."""
        pool = make_pool(random.Random(99), 12)
        assert_candidates_agree(
            pool,
            run_6gen(
                pool,
                300,
                loose=loose,
                ledger=ledger,
                use_growth_cache=cache,
            ),
        )

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=3, max_value=25),
        st.integers(min_value=0, max_value=1500),
    )
    def test_randomized_pools(self, pool_seed, n, budget):
        pool = make_pool(random.Random(pool_seed), n)
        ref = _run_6gen_reference(pool, budget)
        vec = run_6gen(pool, budget)
        assert run_signature(ref) == run_signature(vec)

    def test_density_stream_matches_target_set(self):
        """iter_targets_by_density covers exactly the target set, both paths."""
        pool = make_pool(random.Random(5), 20)
        for run in (_run_6gen_reference, run_6gen):
            result = run(pool, 500)
            streamed = list(result.iter_targets_by_density())
            assert len(streamed) == len(set(streamed))
            assert set(streamed) == result.target_set()


class TestResumeParity:
    """``SixGen.extend`` against a fresh ``run_6gen`` at the same budget."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=2, max_value=40),
        st.lists(st.integers(min_value=0, max_value=800), min_size=1, max_size=4),
        st.booleans(),
        st.sampled_from(["exact", "range-sum"]),
        st.booleans(),
    )
    def test_extend_matches_fresh_run(
        self, pool_seed, n, steps, loose, ledger, cache
    ):
        """Random quota sequences, zero steps included: every result of
        the extended run equals a fresh run at its cumulative budget."""
        pool = make_pool(random.Random(pool_seed), n)
        budgets = list(itertools.accumulate(steps))
        config = SixGenConfig(
            budget=budgets[0], loose=loose, ledger=ledger,
            use_growth_cache=cache,
        )
        gen = SixGen(pool, config)
        results = [gen.run()] + [gen.extend(b) for b in budgets[1:]]
        for budget, result in zip(budgets, results):
            fresh = run_6gen(
                pool, budget, loose=loose, ledger=ledger, use_growth_cache=cache
            )
            assert resume_signature(result) == resume_signature(fresh)
            assert result.budget_limit == budget

    @pytest.mark.parametrize("loose,ledger", [(True, "exact"), (False, "range-sum")])
    def test_equal_steps(self, loose, ledger):
        pool = make_pool(random.Random(11), 40)
        gen = SixGen(pool, SixGenConfig(budget=150, loose=loose, ledger=ledger))
        gen.run()
        for budget in (300, 450, 600):
            assert resume_signature(gen.extend(budget)) == resume_signature(
                run_6gen(pool, budget, loose=loose, ledger=ledger)
            )

    def test_lower_budget_rejected(self):
        gen = SixGen(make_pool(random.Random(3), 12), SixGenConfig(budget=200))
        gen.run()
        with pytest.raises(ValueError, match="cannot extend"):
            gen.extend(199)

    def test_extend_after_unification_is_a_no_op(self):
        pool = make_pool(random.Random(4), 6, networks=1)
        gen = SixGen(pool, SixGenConfig(budget=10**9))
        first = gen.run()
        assert len(first.clusters) == 1  # every seed in one cluster
        again = gen.extend(2 * 10**9)
        assert gen.iterations == first.iterations
        assert resume_signature(again) == resume_signature(first)
        assert again.budget_limit == 2 * 10**9

    def test_earlier_result_unchanged_by_extend(self):
        """An earlier result keeps its own state; its lazily built
        columns still describe the smaller budget."""
        pool = make_pool(random.Random(8), 30)
        gen = SixGen(pool, SixGenConfig(budget=100))
        early = gen.run()
        gen.extend(2_000)
        assert resume_signature(early) == resume_signature(run_6gen(pool, 100))
        assert early.budget_limit == 100


class TestKernelBuildingBlocks:
    def test_all_pairs_matches_per_singleton_search(self):
        pool = make_pool(random.Random(7), 60)
        matrix = SeedMatrix(pool)
        batched = matrix.all_pairs_min_candidates()
        assert len(batched) == len(pool)
        for i, (dist, indices) in enumerate(batched):
            expected = matrix.min_positive_candidates(
                NybbleRange.from_address(pool[i])
            )
            assert (dist, indices) == expected
            assert (dist, indices) == find_candidates_python(
                NybbleRange.from_address(pool[i]), pool
            )

    def test_all_pairs_blocked_equals_unblocked(self):
        pool = make_pool(random.Random(11), 30)
        matrix = SeedMatrix(pool)
        assert matrix.all_pairs_min_candidates(block_rows=4) == (
            matrix.all_pairs_min_candidates(block_rows=len(pool))
        )

    def test_all_pairs_duplicate_free_pool_of_one(self):
        matrix = SeedMatrix([42])
        assert matrix.all_pairs_min_candidates() == [(0, [])]

    def test_mismatch_bits_positions(self):
        rng = random.Random(13)
        pool = make_pool(rng, 10)
        matrix = SeedMatrix(pool)
        range_ = NybbleRange.from_address(pool[0])
        packed = matrix.mismatch_bits(range_, list(range(len(pool))))
        for idx, bits in enumerate(packed):
            x = pool[0] ^ pool[idx]
            expected = 0
            for pos in range(32):
                if (x >> (4 * (31 - pos))) & 0xF:
                    expected |= 1 << pos
            assert bits == expected

    def test_widen_distances_incremental(self):
        rng = random.Random(21)
        pool = make_pool(rng, 25)
        matrix = SeedMatrix(pool)
        old = NybbleRange.from_address(pool[0])
        new = old.span(pool[1], loose=False).span(pool[2], loose=True)
        vec = matrix.distances_to_range(old)
        matrix.widen_distances_inplace(vec, old, new)
        assert vec.tolist() == matrix.distances_to_range(new).tolist()

    def test_count_in_ranges_matches_scalar(self):
        rng = random.Random(31)
        pool = make_pool(rng, 40)
        tree = NybbleTree(pool)
        ranges = [
            NybbleRange.from_address(pool[0]).span(pool[i], loose=(i % 2 == 0))
            for i in range(1, 12)
        ]
        assert tree.count_in_ranges(ranges) == [
            tree.count_in_range(r) for r in ranges
        ]
        assert tree.count_in_ranges([]) == []
