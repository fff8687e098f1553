"""Tests for budget ledgers (§5.4 accounting)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import (
    BudgetExceeded,
    ExactLedger,
    RangeSumLedger,
    make_ledger,
)
from repro.ipv6.range_ import NybbleRange

from conftest import addr


def _ranges():
    old = NybbleRange.from_address(addr("2001:db8::1"))
    new = NybbleRange.parse("2001:db8::?")
    return old, new


class TestExactLedger:
    def test_seeds_do_not_consume_budget(self):
        ledger = ExactLedger(10, [addr("2001:db8::1"), addr("2001:db8::2")])
        assert ledger.used == 0
        assert ledger.remaining == 10

    def test_charge_counts_only_new(self):
        ledger = ExactLedger(100, [addr("2001:db8::1"), addr("2001:db8::5")])
        old, new = _ranges()
        # 16-range contains both seeds; only 14 addresses are new.
        cost = ledger.try_charge(new, old)
        assert cost == 14
        assert ledger.used == 14

    def test_overlap_not_double_counted(self):
        ledger = ExactLedger(100, [addr("2001:db8::1")])
        old, new = _ranges()
        ledger.try_charge(new, old)
        # A second, overlapping growth over the same region costs zero.
        again = ledger.try_charge(new, NybbleRange.from_address(addr("2001:db8::2")))
        assert again == 0
        assert ledger.used == 15

    def test_budget_exceeded_rolls_back(self):
        ledger = ExactLedger(5, [addr("2001:db8::1")])
        old, new = _ranges()
        with pytest.raises(BudgetExceeded):
            ledger.try_charge(new, old)
        assert ledger.used == 0
        # the failed attempt must not have covered anything
        assert not ledger.is_covered(addr("2001:db8::2"))

    def test_charge_partial_exact_consumption(self):
        ledger = ExactLedger(5, [addr("2001:db8::1")])
        old, new = _ranges()
        picked = ledger.charge_partial(new, old, random.Random(0))
        assert len(picked) == 5
        assert ledger.remaining == 0
        for p in picked:
            assert new.contains(p) and not old.contains(p)
            assert ledger.is_covered(p)

    def test_charge_partial_zero_remaining(self):
        ledger = ExactLedger(0, [])
        old, new = _ranges()
        assert ledger.charge_partial(new, old, random.Random(0)) == []

    def test_charge_partial_large_range_rejection(self):
        ledger = ExactLedger(20, [addr("2001:db8::1")])
        old = NybbleRange.from_address(addr("2001:db8::1"))
        new = NybbleRange.parse("2001:db8::?:????:????")  # astronomically large
        picked = ledger.charge_partial(new, old, random.Random(0))
        assert len(picked) == 20
        assert len(set(picked)) == 20

    def test_covered_is_targets(self):
        seeds = [addr("2001:db8::1")]
        ledger = ExactLedger(100, seeds)
        old, new = _ranges()
        ledger.try_charge(new, old)
        covered = set(ledger.covered())
        assert covered == set(new.iter_ints())
        assert ledger.covered_count() == 16

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            ExactLedger(-1, [])


class SetLedger:
    """The exact ledger as a plain set of ints: the oracle for ExactLedger."""

    def __init__(self, limit, seeds):
        self.limit = limit
        self.used = 0
        self.covered = set(seeds)

    def try_charge(self, new, old):
        fresh = []
        for a in new.iter_new_ints(old):
            if a not in self.covered:
                fresh.append(a)
                if len(fresh) > self.limit - self.used:
                    raise BudgetExceeded
        self.covered.update(fresh)
        self.used += len(fresh)
        return len(fresh)

    def charge_partial(self, new, old, rng):
        """The enumeration-branch draw: ``rng.sample`` over the boxed pool."""
        want = self.limit - self.used
        if want == 0:
            return []
        pool = [a for a in new.iter_new_ints(old) if a not in self.covered]
        picked = rng.sample(pool, min(want, len(pool)))
        self.covered.update(picked)
        self.used += len(picked)
        return picked


_BASE = addr("2001:db8::")
# Addresses differing from the base in the low three nybbles keep
# growths enumerable; the far ones (nybbles 20-31) make growths of up to
# 16**12 addresses that only the early-abort bound can reject cheaply.
near_addresses = st.integers(0, 0xFFF).map(lambda low: _BASE | low)
far_addresses = st.integers(0, (1 << 48) - 1).map(lambda low: _BASE | low)
growth_steps = st.lists(
    st.tuples(
        st.integers(0, 7),  # which cluster grows
        st.one_of(near_addresses, near_addresses, far_addresses),
        st.booleans(),  # loose or tight span
    ),
    max_size=12,
)


class TestExactLedgerOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(near_addresses, min_size=1, max_size=8, unique=True),
        growth_steps,
        st.integers(0, 600),
    )
    def test_matches_set_oracle(self, seeds, steps, limit):
        ledger = ExactLedger(limit, seeds)
        oracle = SetLedger(limit, seeds)
        ranges = [NybbleRange.from_address(s) for s in seeds]
        for which, target, loose in steps:
            old = ranges[which % len(ranges)]
            new = old.span(target, loose=loose)
            before = set(ledger.covered())
            try:
                expected = oracle.try_charge(new, old)
            except BudgetExceeded:
                with pytest.raises(BudgetExceeded):
                    ledger.try_charge(new, old)
                # Nothing committed on failure.
                assert set(ledger.covered()) == before
            else:
                assert ledger.try_charge(new, old) == expected
                ranges[which % len(ranges)] = new
            assert ledger.used == oracle.used
            assert set(ledger.covered()) == oracle.covered
            assert ledger.covered_count() == len(oracle.covered)

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_enumeration_branch_pins_rng_sample(self, seed):
        seeds = [addr("2001:db8::1"), addr("2001:db8::1f"), addr("2001:db8::a3")]
        ledger = ExactLedger(40, seeds)
        oracle = SetLedger(40, seeds)
        grown = NybbleRange.parse("2001:db8::?")
        start = NybbleRange.from_address(seeds[0])
        assert ledger.try_charge(grown, start) == oracle.try_charge(grown, start)
        # The next growth overlaps covered addresses (the seeds and the
        # first growth), so the fresh pool is a filtered difference.
        new = NybbleRange.parse("2001:db8::??")
        old = NybbleRange.parse("2001:db8::1?")
        picked = ledger.charge_partial(new, old, random.Random(seed))
        assert picked == oracle.charge_partial(new, old, random.Random(seed))
        assert ledger.remaining == 0
        assert set(ledger.covered()) == oracle.covered

    def _column_draw(self, seed, new, old, limit=300):
        seeds = [addr("2001:db8::1"), addr("2001:db8::2"), addr("2001:db8::1:5")]
        ledger = ExactLedger(limit, seeds)
        # Cover a block inside the difference so the draw must avoid it.
        ledger.try_charge(
            NybbleRange.parse("2001:db8::1:?"),
            NybbleRange.from_address(seeds[2]),
        )
        covered = set(ledger.covered())
        picked = ledger.charge_partial(new, old, random.Random(seed))
        return ledger, covered, picked

    @pytest.mark.parametrize(
        "new_text, old_text",
        [
            # loose: every dynamic position takes 16 values
            ("2001:db8::?:????", "2001:db8::1"),
            # tight: value counts 3, 5, 7, 16, 16 and 9
            ("2001:db8::[0-2][1-5]:[0-6]??[3-b]", "2001:db8::1:3"),
        ],
    )
    def test_column_draw_contract(self, new_text, old_text):
        new = NybbleRange.parse(new_text)
        old = NybbleRange.parse(old_text)
        assert new.difference_size(old) > 65536  # the column-draw branch
        ledger, covered, picked = self._column_draw(3, new, old)
        assert len(picked) == len(set(picked)) == 300 - 15
        assert ledger.remaining == 0
        for a in picked:
            assert new.contains(a) and not old.contains(a)
            assert a not in covered
            assert ledger.is_covered(a)
        assert picked == sorted(picked)
        again = self._column_draw(3, new, old)[2]
        assert again == picked
        assert self._column_draw(4, new, old)[2] != picked

    def test_early_abort_bound_is_exact(self):
        # The pre-growth address is not covered here, so all of the
        # covered set lies in the difference and the bound
        # difference - covered_count == remaining is tight: the growth
        # costs exactly the remaining budget and must be accepted.
        ledger = ExactLedger(14, [addr("2001:db8::2")])
        old = NybbleRange.from_address(addr("2001:db8::1"))
        new = NybbleRange.parse("2001:db8::?")
        assert new.difference_size(old) - ledger.covered_count() == 14
        assert ledger.try_charge(new, old) == 14
        assert ledger.remaining == 0

    def test_column_draw_avoids_heavily_covered_space(self):
        # Half of the difference is covered, so a draw that ignored the
        # covered set would return about half covered addresses.
        seed = addr("2001:db8::1:0")
        ledger = ExactLedger(65535 + 200, [seed])
        ledger.try_charge(
            NybbleRange.parse("2001:db8::1:????"), NybbleRange.from_address(seed)
        )
        covered = set(ledger.covered())
        new = NybbleRange.parse("2001:db8::[0-1]:????")
        old = NybbleRange.from_address(addr("2001:db8::5"))
        assert new.difference_size(old) > 65536  # the column-draw branch
        picked = ledger.charge_partial(new, old, random.Random(5))
        assert len(set(picked)) == 200
        assert not covered & set(picked)
        assert all(new.contains(a) and not old.contains(a) for a in picked)

    def test_column_draw_is_uniform_over_values(self):
        # One position with three values (a non-power-of-two count):
        # each value should take about a third of the picks.
        new = NybbleRange.parse("2001:db8::[4-6]:????:????")
        old = NybbleRange.from_address(addr("2001:db8::4:0:1"))
        ledger = ExactLedger(3000, [addr("2001:db8::4:0:1")])
        picked = ledger.charge_partial(new, old, random.Random(11))
        assert len(set(picked)) == 3000
        counts = [0, 0, 0]
        for a in picked:
            counts[((a >> 32) & 0xF) - 4] += 1
        assert all(850 < c < 1150 for c in counts), counts


class TestRangeSumLedger:
    def test_charges_size_delta(self):
        ledger = RangeSumLedger(100, [addr("2001:db8::1")])
        old, new = _ranges()
        assert ledger.try_charge(new, old) == 15
        assert ledger.used == 15

    def test_double_counts_overlap(self):
        # The documented difference from the exact ledger.
        ledger = RangeSumLedger(100, [addr("2001:db8::1")])
        old, new = _ranges()
        ledger.try_charge(new, old)
        ledger.try_charge(new, NybbleRange.from_address(addr("2001:db8::2")))
        assert ledger.used == 30

    def test_budget_exceeded(self):
        ledger = RangeSumLedger(5, [])
        old, new = _ranges()
        with pytest.raises(BudgetExceeded):
            ledger.try_charge(new, old)
        assert ledger.used == 0

    def test_charge_partial_records_sampled(self):
        ledger = RangeSumLedger(5, [])
        old, new = _ranges()
        picked = ledger.charge_partial(new, old, random.Random(0))
        assert len(picked) == 5
        assert ledger.sampled == picked


class TestFactory:
    def test_make_exact(self):
        assert isinstance(make_ledger("exact", 10, []), ExactLedger)

    def test_make_range_sum(self):
        assert isinstance(make_ledger("range-sum", 10, []), RangeSumLedger)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_ledger("bogus", 10, [])
