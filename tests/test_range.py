"""Unit tests for nybble-wildcard ranges (the paper's §5.3 cluster ranges)."""

import random

import pytest

from repro.ipv6.nybble import FULL_MASK
from repro.ipv6.prefix import Prefix
from repro.ipv6.range_ import NybbleRange, RangeError, expand_new_arr, spanning_range

from conftest import addr


class TestConstruction:
    def test_from_address_singleton(self):
        r = NybbleRange.from_address(addr("2001:db8::1"))
        assert r.size() == 1
        assert r.is_singleton()
        assert r.contains(addr("2001:db8::1"))
        assert not r.contains(addr("2001:db8::2"))

    def test_full_range(self):
        r = NybbleRange.full()
        assert r.size() == 1 << 128
        assert r.contains(0)
        assert r.contains((1 << 128) - 1)

    def test_from_prefix(self):
        r = NybbleRange.from_prefix(Prefix.parse("2001:db8::/32"))
        assert r.size() == 1 << 96
        assert r.contains(addr("2001:db8::1"))
        assert not r.contains(addr("2001:db9::1"))

    def test_from_prefix_rejects_unaligned(self):
        with pytest.raises(RangeError):
            NybbleRange.from_prefix(Prefix.parse("2001:db8::/33"))

    def test_rejects_wrong_mask_count(self):
        with pytest.raises(RangeError):
            NybbleRange([FULL_MASK] * 31)

    def test_rejects_empty_mask(self):
        with pytest.raises(RangeError):
            NybbleRange([0] + [1] * 31)

    def test_immutable(self):
        r = NybbleRange.full()
        with pytest.raises(AttributeError):
            r._size = 5


class TestParsing:
    def test_paper_example(self):
        # §2: 2001:db8::?:100? represents 256 addresses
        r = NybbleRange.parse("2001:db8::?:100?")
        assert r.size() == 256
        assert r.contains(addr("2001:db8::5:1000"))
        assert r.contains(addr("2001:db8::8:100a"))
        assert r.contains(addr("2001:db8::0:1003"))

    def test_plain_address(self):
        r = NybbleRange.parse("2001:db8::1")
        assert r.is_singleton()

    def test_bracket_values(self):
        r = NybbleRange.parse("2001:db8::[1-2,8-a]")
        assert r.values_at(31) == (1, 2, 8, 9, 10)
        assert r.size() == 5

    def test_bracket_single_values(self):
        r = NybbleRange.parse("::[0,f]")
        assert r.values_at(31) == (0, 15)

    def test_implied_leading_zeros(self):
        # "?" group means 000?
        r = NybbleRange.parse("2001:db8::?")
        assert r.size() == 16
        assert r.contains(addr("2001:db8::f"))
        assert not r.contains(addr("2001:db8::10"))

    def test_full_form_groups(self):
        r = NybbleRange.parse("2001:db8:0:0:0:0:0:?00?")
        assert r.size() == 256

    def test_rejects_double_compression(self):
        with pytest.raises(RangeError):
            NybbleRange.parse("1::2::3")

    def test_rejects_bad_bracket(self):
        with pytest.raises(RangeError):
            NybbleRange.parse("::[2-1]")
        with pytest.raises(RangeError):
            NybbleRange.parse("::[")

    def test_rejects_wrong_group_count(self):
        with pytest.raises(RangeError):
            NybbleRange.parse("1:2:3")

    def test_rejects_oversize_group(self):
        with pytest.raises(RangeError):
            NybbleRange.parse("2001:db8::12345")


class TestFormatting:
    def test_wildcard_roundtrip(self):
        for text in ("2001:db8::?:100?", "2::?", "::", "2001:db8::[1-2,8-a]"):
            r = NybbleRange.parse(text)
            assert NybbleRange.parse(r.wildcard_text()) == r

    def test_paper_figure1_range(self):
        # Figure 1's cluster range 2::?:?0?
        r = NybbleRange.parse("2::?:?0?")
        assert r.size() == 16**3
        assert "2::?:?0?" == r.wildcard_text()

    def test_full_wildcard_text(self):
        assert NybbleRange.full().wildcard_text() == "????:????:????:????:????:????:????:????"


class TestMembershipAndSetOps:
    def test_subset_of_full(self):
        r = NybbleRange.parse("2001:db8::?")
        assert r.is_subset(NybbleRange.full())
        assert not NybbleRange.full().is_subset(r)

    def test_strict_subset(self):
        small = NybbleRange.parse("2001:db8::1")
        big = NybbleRange.parse("2001:db8::?")
        assert small.is_strict_subset(big)
        assert not big.is_strict_subset(big)
        assert big.is_subset(big)

    def test_overlaps(self):
        a = NybbleRange.parse("2001:db8::[1-5]")
        b = NybbleRange.parse("2001:db8::[5-9]")
        c = NybbleRange.parse("2001:db8::[a-f]")
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_intersection(self):
        a = NybbleRange.parse("2001:db8::[1-5]")
        b = NybbleRange.parse("2001:db8::[4-9]")
        inter = a.intersection(b)
        assert inter is not None
        assert inter.values_at(31) == (4, 5)
        assert a.intersection(NybbleRange.parse("2001:db9::1")) is None

    def test_contains_dunder(self):
        r = NybbleRange.parse("2001:db8::?")
        assert addr("2001:db8::5") in r
        assert "garbage" not in r


class TestGrowth:
    def test_span_tight_adds_single_value(self):
        r = NybbleRange.from_address(addr("2001:db8::58"))
        grown = r.span_tight(addr("2001:db8::51"))
        assert grown.size() == 2
        assert grown.values_at(31) == (1, 8)

    def test_span_loose_wildcards_position(self):
        r = NybbleRange.from_address(addr("2001:db8::58"))
        grown = r.span_loose(addr("2001:db8::51"))
        assert grown.size() == 16
        assert grown.mask(31) == FULL_MASK

    def test_span_noop_when_contained(self):
        r = NybbleRange.parse("2001:db8::?")
        assert r.span_loose(addr("2001:db8::5")) == r
        assert r.span_tight(addr("2001:db8::5")) == r

    def test_span_dispatch(self):
        r = NybbleRange.from_address(addr("2001:db8::58"))
        assert r.span(addr("2001:db8::51"), loose=True) == r.span_loose(
            addr("2001:db8::51")
        )
        assert r.span(addr("2001:db8::51"), loose=False) == r.span_tight(
            addr("2001:db8::51")
        )

    def test_spanning_range_helper(self):
        addrs = [addr("2001:db8::1"), addr("2001:db8::2"), addr("2001:db8::3")]
        loose = spanning_range(addrs, loose=True)
        tight = spanning_range(addrs, loose=False)
        assert loose.size() == 16
        assert tight.size() == 3
        assert tight.is_subset(loose)

    def test_spanning_range_empty(self):
        with pytest.raises(RangeError):
            spanning_range([])


class TestEnumeration:
    def test_iter_ints_sorted_and_complete(self):
        r = NybbleRange.parse("2001:db8::[1-3]?")
        values = list(r.iter_ints())
        assert len(values) == r.size() == 48
        assert values == sorted(values)
        assert all(r.contains(v) for v in values)

    def test_iter_new_ints_is_difference(self):
        old = NybbleRange.parse("2001:db8::[1-3]")
        new = NybbleRange.parse("2001:db8::[0-6]?")
        diff = set(new.iter_new_ints(old))
        expected = set(new.iter_ints()) - set(old.iter_ints())
        assert diff == expected
        assert len(diff) == new.size() - old.size()

    def test_iter_new_ints_multi_position(self):
        old = NybbleRange.parse("2001:db8::11")
        new = NybbleRange.parse("2001:db8::??")
        diff = list(new.iter_new_ints(old))
        assert len(diff) == 255
        assert len(set(diff)) == 255

    def test_iter_new_ints_requires_subset(self):
        a = NybbleRange.parse("2001:db8::1")
        b = NybbleRange.parse("2001:db9::?")
        with pytest.raises(RangeError):
            list(b.iter_new_ints(a))

    def test_expand_new_arr_requires_subset(self):
        a = NybbleRange.parse("2001:db8::1")
        b = NybbleRange.parse("2001:db9::?")
        with pytest.raises(RangeError):
            expand_new_arr(b, a)

    def test_difference_size(self):
        old = NybbleRange.parse("2001:db8::[1-3]")
        new = NybbleRange.parse("2001:db8::?")
        assert new.difference_size(old) == 13


class TestSampling:
    def test_random_int_inside(self):
        r = NybbleRange.parse("2001:db8::???")
        rng = random.Random(0)
        for _ in range(100):
            assert r.contains(r.random_int(rng))

    def test_sample_ints_distinct(self):
        r = NybbleRange.parse("2001:db8::??")
        rng = random.Random(0)
        sample = r.sample_ints(100, rng)
        assert len(sample) == len(set(sample)) == 100
        assert all(r.contains(v) for v in sample)

    def test_sample_exhaustive(self):
        r = NybbleRange.parse("2001:db8::?")
        rng = random.Random(0)
        sample = r.sample_ints(16, rng)
        assert sorted(sample) == list(r.iter_ints())

    def test_sample_too_many(self):
        r = NybbleRange.parse("2001:db8::?")
        with pytest.raises(RangeError):
            r.sample_ints(17, random.Random(0))

    def test_sample_new_ints(self):
        old = NybbleRange.parse("2001:db8::1?")
        new = NybbleRange.parse("2001:db8::??")
        rng = random.Random(0)
        sample = new.sample_new_ints(old, 50, rng)
        assert len(sample) == len(set(sample)) == 50
        assert all(new.contains(v) and not old.contains(v) for v in sample)

    def test_sample_new_ints_large_range_rejection_path(self):
        old = NybbleRange.parse("2001:db8::1")
        new = NybbleRange.parse("2001:db8::?:????")  # 16**5 addresses
        rng = random.Random(0)
        sample = new.sample_new_ints(old, 10, rng)
        assert len(sample) == 10
        assert all(new.contains(v) and not old.contains(v) for v in sample)


class TestIntrospection:
    def test_dynamic_positions(self):
        r = NybbleRange.parse("2001:db8::?:100?")
        dynamic = r.dynamic_positions()
        assert 31 in dynamic  # trailing wildcard
        assert len(dynamic) == 2

    def test_fixed_positions_complement(self):
        r = NybbleRange.parse("2001:db8::?:100?")
        assert set(r.fixed_positions()) | set(r.dynamic_positions()) == set(range(32))

    def test_values_at(self):
        r = NybbleRange.parse("::[1-3]")
        assert r.values_at(31) == (1, 2, 3)
        assert r.values_at(0) == (0,)


class TestPickling:
    def test_round_trip(self):
        import pickle

        r = NybbleRange.parse("2001:db8::?:100?")
        assert pickle.loads(pickle.dumps(r)) == r
