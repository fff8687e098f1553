"""Per-prefix 6Gen orchestration (the paper's §6 run layout).

The paper groups seeds by BGP routed prefix and runs 6Gen on each
prefix independently with a static per-prefix probe budget ("we do not
address how to best allocate probe budget across networks").  This
module provides that orchestration plus budget-allocation policies for
the §8 future-work exploration (seed-proportional and size-aware
allocation).

The data types (budget policies, :class:`PrefixRun`,
:class:`MultiPrefixRun`) live here; the execution engine is
:func:`repro.campaign.generate.generate_per_prefix`, the campaign
pipeline's generation stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from ..core.sixgen import SixGenResult
from ..ipv6.prefix import Prefix

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: A budget allocation policy: maps (prefix, seeds, base_budget) -> budget.
BudgetPolicy = Callable[[Prefix, Sequence[int], int], int]


def static_budget(prefix: Prefix, seeds: Sequence[int], base: int) -> int:
    """The paper's default: the same budget for every routed prefix."""
    return base


def seed_proportional_budget(
    prefix: Prefix, seeds: Sequence[int], base: int
) -> int:
    """§8 alternative: budget proportional to the prefix's seed count.

    ``base`` is interpreted as budget *per seed*; callers should divide
    their total budget by the total seed count.
    """
    return base * len(seeds)


@dataclass
class PrefixRun:
    """6Gen output for one routed prefix."""

    prefix: Prefix
    seeds: list[int]
    budget: int
    result: SixGenResult

    def iter_targets(self) -> Iterator[int]:
        """Stream this prefix's generated targets (distinct, unordered)."""
        return self.result.iter_targets()

    def target_columns(self) -> "tuple[np.ndarray, np.ndarray]":
        """This prefix's targets as packed ``(hi, lo)`` uint64 columns.

        Densest-cluster-first order (the paper's probing priority);
        cached on the result, so repeated calls are free.
        """
        return self.result.target_columns_by_density()


@dataclass
class MultiPrefixRun:
    """6Gen outputs across all routed prefixes of one experiment.

    ``failures`` maps prefixes whose 6Gen run raised (twice — every
    failure is retried once) to a short error description; their
    targets are simply absent from the campaign.
    """

    runs: dict[Prefix, PrefixRun] = field(default_factory=dict)
    failures: dict[Prefix, str] = field(default_factory=dict)

    def results(self) -> dict[Prefix, SixGenResult]:
        return {prefix: run.result for prefix, run in self.runs.items()}

    def all_targets(self) -> set[int]:
        """Union of generated targets across prefixes."""
        targets: set[int] = set()
        for run in self.runs.values():
            targets |= run.result.target_set()
        return targets

    def iter_targets(self) -> Iterator[int]:
        """Stream targets prefix by prefix (sorted) without materialising
        the union.

        Distinct routed prefixes can overlap (more- and less-specific
        routes), so an address may appear more than once; consumers
        that need uniqueness dedupe downstream — :meth:`Scanner.scan`
        already does.
        """
        for prefix in sorted(self.runs):
            yield from self.runs[prefix].iter_targets()

    def iter_target_columns(
        self,
    ) -> "Iterator[tuple[np.ndarray, np.ndarray]]":
        """Stream packed ``(hi, lo)`` column chunks prefix by prefix.

        The column analogue of :meth:`iter_targets`: one chunk per
        prefix, in sorted prefix order, each in densest-cluster-first
        order, never materialising the campaign union.  Overlapping
        routed prefixes can repeat an address across chunks;
        :meth:`Scanner.scan` dedupes streamed column chunks with its
        fused-key pass, so feeding this straight in is correct.
        """
        for prefix in sorted(self.runs):
            yield self.runs[prefix].target_columns()

    def new_targets(self) -> set[int]:
        """Generated targets excluding every prefix's own seeds."""
        targets = self.all_targets()
        for run in self.runs.values():
            targets -= set(run.seeds)
        return targets

    def total_budget_used(self) -> int:
        return sum(run.result.budget_used for run in self.runs.values())

    def total_seed_count(self) -> int:
        return sum(len(run.seeds) for run in self.runs.values())
