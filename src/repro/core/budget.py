"""Probe-budget accounting for 6Gen (§5.4–§5.5).

The paper charges each cluster growth against a user-provided probe
budget and "uniquely track[s] all addresses that would be generated by
the clusters" so overlapping clusters do not double-count.  Two ledgers
implement the two reasonable readings of that sentence:

* :class:`ExactLedger` (default) — keeps the set of every address
  covered by any cluster; a growth's cost is the number of addresses it
  *newly* covers.  Exact, and the covered count is the generated
  target count.
* :class:`RangeSumLedger` — charges ``new_range_size - old_range_size``
  per growth without global dedup (the cost model of the simplified
  pseudocode, Algorithm 1).  Faster and memory-light; targets are
  deduplicated only when emitted.

Both expose the same interface (:meth:`try_charge` /
:meth:`charge_partial`, plus :meth:`snapshot` / :meth:`restore` so a
resumable 6Gen run can roll its final-growth sample back out) and
:class:`~repro.core.sixgen.SixGen` can switch between them; the
``bench_ablation_budget`` benchmark measures the tradeoff.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Protocol

import numpy as np

from ..ipv6.addrplane import ColumnDeduper, pack, unpack
from ..ipv6.range_ import NybbleRange, expand_new_arr, sample_new_arr


class BudgetExceeded(Exception):
    """Signal that a growth cannot fit in the remaining budget."""


class BudgetLedger(Protocol):
    """Interface shared by the budget ledgers."""

    limit: int
    used: int

    @property
    def remaining(self) -> int: ...

    def try_charge(self, new_range: NybbleRange, old_range: NybbleRange) -> int: ...

    def charge_partial(
        self, new_range: NybbleRange, old_range: NybbleRange, rng: random.Random
    ) -> list[int]: ...

    def snapshot(self) -> tuple: ...

    def restore(self, snapshot: tuple) -> None: ...


class ExactLedger:
    """Budget ledger with exact unique-address tracking.

    Seeds are pre-covered: they are emitted as targets but do not
    consume probe budget (Algorithm 1 starts ``budgetUsed = 0`` with one
    singleton range per seed already in place).  The covered set lives
    on the packed address plane as a
    :class:`~repro.ipv6.addrplane.ColumnDeduper`, so every charge is a
    handful of vectorised passes over ``(hi, lo)`` columns.
    """

    def __init__(self, limit: int, seeds: Iterable[int]):
        if limit < 0:
            raise ValueError(f"budget must be non-negative: {limit}")
        self.limit = limit
        self.used = 0
        self._covered = ColumnDeduper()
        self._covered.add(*pack([int(s) for s in seeds]))

    @property
    def remaining(self) -> int:
        return self.limit - self.used

    def try_charge(self, new_range: NybbleRange, old_range: NybbleRange) -> int:
        """Commit a growth if affordable; raise :class:`BudgetExceeded` if not.

        The cost is the number of addresses in ``new_range \\ old_range``
        not already covered by any cluster.  At most ``covered_count()``
        of the difference can be covered, so a difference that exceeds
        the remaining budget by more than that raises before anything
        is expanded — enormous ranges are never materialised.  Otherwise
        the difference is expanded as columns and tested against the
        covered set in one pass; nothing is committed on failure.
        """
        remaining = self.remaining
        covered = self._covered
        if new_range.difference_size(old_range) - len(covered) > remaining:
            raise BudgetExceeded
        hi, lo = expand_new_arr(new_range, old_range)
        fresh = ~covered.member(hi, lo)
        cost = int(np.count_nonzero(fresh))
        if cost > remaining:
            raise BudgetExceeded
        covered.add(hi[fresh], lo[fresh])
        self.used += cost
        return cost

    def charge_partial(
        self, new_range: NybbleRange, old_range: NybbleRange, rng: random.Random
    ) -> list[int]:
        """Consume the remaining budget exactly from an oversized growth.

        Randomly selects up to ``remaining`` uncovered addresses from
        ``new_range \\ old_range`` (the paper's final-growth sampling,
        :func:`~repro.ipv6.range_.sample_new_arr`) and returns them.
        """
        want = self.remaining
        if want == 0:
            return []
        count = min(want, new_range.difference_size(old_range))
        hi, lo = sample_new_arr(
            new_range, old_range, count, rng, exclude=self._covered
        )
        self._covered.add(hi, lo)
        self.used += len(hi)
        return unpack(hi, lo)

    def snapshot(self) -> tuple:
        """The charged state (``used`` and the covered set), for :meth:`restore`."""
        return self.used, self._covered.snapshot()

    def restore(self, snapshot: tuple) -> None:
        """Undo every charge made since ``snapshot``; the limit is kept."""
        self.used, runs = snapshot
        self._covered.restore(runs)

    def covered(self) -> Iterator[int]:
        """All covered addresses (seeds plus generated targets), ascending."""
        return iter(unpack(*self._covered.columns()))

    def covered_count(self) -> int:
        return len(self._covered)

    def is_covered(self, addr: int) -> bool:
        return bool(self._covered.member(*pack([int(addr)]))[0])


class RangeSumLedger:
    """Budget ledger charging raw range-size deltas (Algorithm 1 cost model).

    Overlap between clusters is *not* deducted, so the same address may
    be charged twice; target emission still deduplicates.
    """

    def __init__(self, limit: int, seeds: Iterable[int]):
        if limit < 0:
            raise ValueError(f"budget must be non-negative: {limit}")
        self.limit = limit
        self.used = 0
        self._sampled: list[int] = []

    @property
    def remaining(self) -> int:
        return self.limit - self.used

    def try_charge(self, new_range: NybbleRange, old_range: NybbleRange) -> int:
        cost = new_range.difference_size(old_range)
        if cost > self.remaining:
            raise BudgetExceeded
        self.used += cost
        return cost

    def charge_partial(
        self, new_range: NybbleRange, old_range: NybbleRange, rng: random.Random
    ) -> list[int]:
        want = self.remaining
        if want == 0:
            return []
        picked = new_range.sample_new_ints(old_range, want, rng)
        self._sampled.extend(picked)
        self.used += len(picked)
        return picked

    def snapshot(self) -> tuple:
        """The charged state (``used`` and the sample length), for :meth:`restore`."""
        return self.used, len(self._sampled)

    def restore(self, snapshot: tuple) -> None:
        """Undo every charge made since ``snapshot``; the limit is kept."""
        self.used, sampled = snapshot
        del self._sampled[sampled:]

    @property
    def sampled(self) -> list[int]:
        """Addresses picked by final-growth sampling (must be emitted)."""
        return self._sampled


def make_ledger(kind: str, limit: int, seeds: Iterable[int]) -> ExactLedger | RangeSumLedger:
    """Ledger factory: ``"exact"`` or ``"range-sum"``."""
    if kind == "exact":
        return ExactLedger(limit, seeds)
    if kind == "range-sum":
        return RangeSumLedger(limit, seeds)
    raise ValueError(f"unknown ledger kind: {kind!r}")
