"""Property-based tests for nybble ranges (hypothesis).

These check the algebraic invariants 6Gen relies on: growth monotonicity,
size/enumeration consistency, subset transitivity, and the difference
decomposition used for budget accounting.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ipv6.addrplane import unpack
from repro.ipv6.nybble import FULL_MASK, NYBBLE_COUNT
from repro.ipv6.range_ import NybbleRange, expand_new_arr

addresses = st.integers(min_value=0, max_value=(1 << 128) - 1)


@st.composite
def small_ranges(draw, max_dynamic=4):
    """Ranges with at most a few dynamic positions (enumerable)."""
    base = draw(addresses)
    r = NybbleRange.from_address(base)
    masks = list(r.masks)
    dynamic_count = draw(st.integers(min_value=0, max_value=max_dynamic))
    positions = draw(
        st.lists(
            st.integers(min_value=0, max_value=NYBBLE_COUNT - 1),
            min_size=dynamic_count,
            max_size=dynamic_count,
            unique=True,
        )
    )
    for pos in positions:
        extra = draw(st.integers(min_value=1, max_value=FULL_MASK))
        masks[pos] |= extra
    return NybbleRange(masks)


class TestGrowthProperties:
    @given(small_ranges(), addresses)
    def test_span_loose_contains_both(self, r, a):
        grown = r.span_loose(a)
        assert grown.contains(a)
        assert r.is_subset(grown)

    @given(small_ranges(), addresses)
    def test_span_tight_contains_both(self, r, a):
        grown = r.span_tight(a)
        assert grown.contains(a)
        assert r.is_subset(grown)

    @given(small_ranges(), addresses)
    def test_tight_subset_of_loose(self, r, a):
        assert r.span_tight(a).is_subset(r.span_loose(a))

    @given(small_ranges(), addresses)
    def test_span_idempotent(self, r, a):
        grown = r.span_tight(a)
        assert grown.span_tight(a) == grown
        loose = r.span_loose(a)
        assert loose.span_loose(a) == loose

    @given(small_ranges(), addresses)
    def test_span_size_monotone(self, r, a):
        assert r.span_tight(a).size() >= r.size()
        assert r.span_loose(a).size() >= r.size()


class TestEnumerationProperties:
    @settings(max_examples=40)
    @given(small_ranges(max_dynamic=3))
    def test_iter_matches_size(self, r):
        assume(r.size() <= 4096)
        values = list(r.iter_ints())
        assert len(values) == r.size()
        assert len(set(values)) == r.size()
        assert all(r.contains(v) for v in values)

    @settings(max_examples=40)
    @given(small_ranges(max_dynamic=2), addresses)
    def test_difference_partition(self, old, a):
        new = old.span_tight(a)
        assume(new.size() <= 4096)
        new_values = set(new.iter_ints())
        old_values = set(old.iter_ints())
        diff = list(new.iter_new_ints(old))
        assert set(diff) == new_values - old_values
        assert len(diff) == len(set(diff))
        assert len(diff) == new.difference_size(old)

    @settings(max_examples=60)
    @given(
        small_ranges(max_dynamic=3),
        st.lists(
            st.tuples(st.integers(0, NYBBLE_COUNT - 1), st.integers(0, FULL_MASK)),
            max_size=3,
        ),
    )
    def test_expand_new_arr_matches_iter_new_ints(self, old, widenings):
        # Widen some positions of ``old`` (possibly none, giving
        # new == old and an empty difference).
        masks = list(old.masks)
        for pos, extra in widenings:
            masks[pos] |= extra
        new = NybbleRange(masks)
        assume(new.size() <= 8192)
        hi, lo = expand_new_arr(new, old)
        assert unpack(hi, lo) == list(new.iter_new_ints(old))

    def test_expand_new_arr_empty_when_equal(self):
        r = NybbleRange.parse("2001:db8::[1-3]?")
        hi, lo = expand_new_arr(r, r)
        assert len(hi) == len(lo) == 0

    @settings(max_examples=30)
    @given(small_ranges(max_dynamic=3))
    def test_wildcard_text_roundtrip(self, r):
        assert NybbleRange.parse(r.wildcard_text()) == r


class TestSetProperties:
    @given(small_ranges(), small_ranges())
    def test_subset_implies_smaller(self, a, b):
        if a.is_subset(b):
            assert a.size() <= b.size()

    @given(small_ranges(), small_ranges())
    def test_overlap_symmetry(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(small_ranges(), small_ranges())
    def test_intersection_is_subset_of_both(self, a, b):
        inter = a.intersection(b)
        if inter is None:
            assert not a.overlaps(b)
        else:
            assert inter.is_subset(a) and inter.is_subset(b)

    @given(small_ranges())
    def test_self_subset_not_strict(self, r):
        assert r.is_subset(r)
        assert not r.is_strict_subset(r)


class TestSamplingProperties:
    @settings(max_examples=30)
    @given(small_ranges(max_dynamic=3), st.integers(min_value=1, max_value=20))
    def test_samples_lie_inside(self, r, count):
        assume(r.size() >= count)
        rng = random.Random(0)
        sample = r.sample_ints(count, rng)
        assert len(sample) == count
        assert len(set(sample)) == count
        assert all(r.contains(v) for v in sample)
