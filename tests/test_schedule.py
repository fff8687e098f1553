"""Tests for scan scheduling: density-ordered targets, the cyclic scan
order, and the probe-rate policy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


class TestDensityOrderedTargets:
    def test_stream_matches_target_set(self, dense_block_seeds):
        from repro.core.sixgen import run_6gen

        result = run_6gen(dense_block_seeds, budget=30)
        streamed = list(result.iter_targets_by_density())
        assert len(streamed) == len(set(streamed))
        # Range-sum ledger targets equal the streamed set; for the
        # exact ledger the stream may exclude pre-covered duplicates.
        assert set(streamed) <= result.target_set() | set(dense_block_seeds)

    def test_densest_first(self, dense_block_seeds):
        from repro.core.sixgen import run_6gen

        result = run_6gen(dense_block_seeds, budget=16)
        stream = list(result.iter_targets_by_density())
        dense_range = max(
            result.clusters, key=lambda c: c.density()
        ).range
        head = stream[: dense_range.size()]
        assert all(dense_range.contains(a) for a in head)


class TestCyclicPermutation:
    def test_bijection(self):
        from repro.scanner.schedule import CyclicPermutation

        for n in (1, 2, 5, 17, 100, 4097):
            perm = CyclicPermutation(n, key=7)
            images = [perm(i) for i in range(n)]
            assert sorted(images) == list(range(n))

    def test_deterministic_per_key(self):
        from repro.scanner.schedule import CyclicPermutation

        a = [CyclicPermutation(100, key=1)(i) for i in range(100)]
        b = [CyclicPermutation(100, key=1)(i) for i in range(100)]
        c = [CyclicPermutation(100, key=2)(i) for i in range(100)]
        assert a == b
        assert a != c

    def test_vectorised_matches_scalar(self):
        from repro.scanner.schedule import CyclicPermutation

        for n in (1, 2, 3, 65, 1000):
            perm = CyclicPermutation(n, key=99)
            assert perm.permute_range_arr(0, n).tolist() == [
                perm(i) for i in range(n)
            ]
            mid = n // 2
            assert perm.permute_range_arr(mid, n).tolist() == [
                perm(i) for i in range(mid, n)
            ]

    def test_out_of_range_rejected(self):
        from repro.scanner.schedule import CyclicPermutation

        perm = CyclicPermutation(10, key=0)
        with pytest.raises(IndexError):
            perm(10)

    def test_empty_domain(self):
        from repro.scanner.schedule import CyclicPermutation

        perm = CyclicPermutation(0, key=0)
        assert perm.permute_range_arr(0, 0).tolist() == []


class TestCyclicPermutationProperties:
    """Hypothesis property tests: bijection + scalar/vector agreement."""

    @given(
        n=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 5000)),
        key=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bijection_on_domain(self, n, key):
        from repro.scanner.schedule import CyclicPermutation

        perm = CyclicPermutation(n, key=key)
        image = [perm(i) for i in range(n)]
        assert sorted(image) == list(range(n))

    @given(
        n=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 2000)),
        key=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_permute_range_matches_scalar(self, n, key):
        from repro.scanner.schedule import CyclicPermutation

        perm = CyclicPermutation(n, key=key)
        assert perm.permute_range_arr(0, n).tolist() == [
            perm(i) for i in range(n)
        ]


class TestRatePolicy:
    def test_validation(self):
        from repro.scanner.schedule import RatePolicy

        with pytest.raises(ValueError):
            RatePolicy(budget=0)
        with pytest.raises(ValueError):
            RatePolicy(budget=10, window=5)

    def test_admitted_fraction(self):
        from repro.scanner.schedule import RatePolicy

        assert RatePolicy(budget=64, window=256).admitted_fraction == 0.25
        assert RatePolicy(budget=8, window=8).admitted_fraction == 1.0

    def test_admits_scalar_and_array_agree(self):
        import numpy as np

        from repro.scanner.schedule import RatePolicy

        policy = RatePolicy(budget=3, window=10)
        slots = np.arange(100, dtype=np.uint64)
        vector = policy.admits_arr(slots)
        for slot in range(100):
            assert vector[slot] == policy.admits(slot)

    def test_admits_exact_window_fraction(self):
        from repro.scanner.schedule import RatePolicy

        policy = RatePolicy(budget=16, window=64)
        admitted = sum(policy.admits(s) for s in range(64 * 10))
        assert admitted == 16 * 10
