"""Delta campaigns: re-probe what decayed, explore with what's left.

A full campaign regenerates and re-probes its entire target list every
epoch; against a slowly churning world most of those probes confirm
what the last scan already established.  :class:`DeltaCampaign` plans
an epoch's probes from a :class:`~repro.hitlist.store.LivingHitlist`
instead:

* **re-probe** — known responders whose decayed score fell below the
  re-probe threshold (recently confirmed addresses are skipped; that
  is the probe saving), and
* **explore** — fresh 6Gen generation seeded by the *currently
  believed-live* addresses, grouped by routed prefix, with a budgeted
  fraction of the campaign budget, minus anything probed within the
  last ``miss_revisit_age`` epochs.

Seeding exploration from the accumulated hitlist (rather than the
static DNS snapshot) is what lets a delta campaign track drift: every
epoch's discoveries widen the next epoch's seed pool, so generation
follows the population as DHCP pools shift and prefixes are
reallocated.

The plan composes with the existing pipeline unchanged: its target
columns feed ``Campaign(targets=...)``, and the scan result feeds back
via :meth:`DeltaCampaign.ingest`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..campaign.pipeline import Campaign, CampaignSpec
from ..ipv6.addrplane import concat_columns, dedupe_columns, fuse, unpack
from .store import (
    DEFAULT_LIVE_THRESHOLD,
    DEFAULT_MISS_FORGET_AGE,
    DEFAULT_REPROBE_THRESHOLD,
    LivingHitlist,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..campaign.pipeline import CampaignResult
    from ..telemetry.spans import Telemetry


@dataclass(frozen=True)
class DeltaSpec:
    """Knobs of the delta planner (separate from the campaign knobs).

    ``explore_fraction`` scales the *per-prefix* exploration budget
    relative to ``CampaignSpec.budget``; the re-probe set is whatever
    the decay schedule says is due, so total probe cost adapts to how
    much belief actually decayed.
    """

    explore_fraction: float = 0.5
    live_threshold: float = DEFAULT_LIVE_THRESHOLD
    reprobe_threshold: float = DEFAULT_REPROBE_THRESHOLD
    miss_forget_age: int = DEFAULT_MISS_FORGET_AGE
    #: Exploration targets probed within this many epochs are skipped.
    miss_revisit_age: int = 2


@dataclass
class DeltaPlan:
    """One epoch's planned probes: packed columns plus accounting."""

    epoch: int
    hi: np.ndarray
    lo: np.ndarray
    reprobe_count: int
    explore_count: int
    #: Exploration targets dropped because they were probed recently.
    filtered_recent: int
    seed_count: int

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        return self.hi, self.lo

    @property
    def total(self) -> int:
        return len(self.hi)

    @property
    def is_empty(self) -> bool:
        return len(self.hi) == 0


class DeltaCampaign:
    """Plans decay-weighted re-probe + budgeted exploration campaigns.

    Bind it to a store, a BGP table, and the campaign spec once; then
    each epoch: :meth:`plan` → scan the plan's columns (via
    :meth:`campaign`, :meth:`run`, or :meth:`submit`) → :meth:`ingest`
    the result.  Planning is deterministic: the same store state and
    epoch always yield identical target columns.
    """

    def __init__(
        self,
        store: LivingHitlist,
        bgp,
        spec: CampaignSpec,
        *,
        delta: DeltaSpec | None = None,
        telemetry: "Telemetry | None" = None,
    ):
        self.store = store
        self.bgp = bgp
        self.spec = spec
        self.delta = delta if delta is not None else DeltaSpec()
        self.telemetry = telemetry
        from ..telemetry.spans import ensure

        self._tele = ensure(telemetry)

    # -- planning ------------------------------------------------------

    def plan(self, epoch: int, *, extra_seeds=None) -> DeltaPlan:
        """Compute this epoch's target columns from the store's belief.

        ``extra_seeds`` (optional ints) joins the believed-live pool as
        exploration seeds — the hook for an external intake feed (fresh
        DNS snapshots, third-party hitlists).  Seed intake costs no
        probes, but rotated or re-leased addresses are unguessable from
        stale belief alone, so a live feed is what lets exploration
        track identifier churn the way a from-scratch rescan would.
        """
        from ..campaign.generate import generate_per_prefix
        from ..simnet.bgp import group_by_routed_prefix

        delta = self.delta
        with self._tele.span("delta_plan", epoch=int(epoch)):
            rhi, rlo = self.store.due_for_reprobe(
                epoch,
                threshold=delta.reprobe_threshold,
                miss_forget_age=delta.miss_forget_age,
            )
            seeds = unpack(
                *self.store.believed_live(
                    epoch, threshold=delta.live_threshold
                )
            )
            if extra_seeds is not None:
                seeds = sorted(
                    set(seeds).union(int(a) for a in extra_seeds)
                )
            explore_budget = int(self.spec.budget * delta.explore_fraction)
            ehi = elo = None
            filtered = 0
            if seeds and explore_budget > 0:
                groups = group_by_routed_prefix(seeds, self.bgp)
                if groups:
                    run = generate_per_prefix(
                        groups,
                        explore_budget,
                        loose=self.spec.loose,
                        telemetry=self.telemetry,
                        processes=self.spec.gen_workers,
                    )
                    chunks = list(run.iter_target_columns())
                    if chunks:
                        ehi, elo = dedupe_columns(*concat_columns(chunks))
                        # Skip anything checked recently — those probes
                        # would only re-confirm fresh belief.
                        recent = np.sort(
                            self.store.probed_within(
                                epoch, delta.miss_revisit_age
                            )
                        )
                        if len(recent):
                            keep = ~np.isin(fuse(ehi, elo), recent)
                            filtered = int(len(ehi) - keep.sum())
                            ehi, elo = ehi[keep], elo[keep]
            if ehi is None:
                ehi = np.empty(0, dtype=np.uint64)
                elo = np.empty(0, dtype=np.uint64)
            hi, lo = dedupe_columns(
                *concat_columns([(rhi, rlo), (ehi, elo)])
            )
            plan = DeltaPlan(
                epoch=int(epoch),
                hi=hi,
                lo=lo,
                reprobe_count=len(rhi),
                explore_count=len(ehi),
                filtered_recent=filtered,
                seed_count=len(seeds),
            )
        if self._tele.enabled:
            self._tele.gauge("delta.targets", plan.total)
            self._tele.gauge("delta.reprobe", plan.reprobe_count)
            self._tele.gauge("delta.explore", plan.explore_count)
        return plan

    # -- execution -----------------------------------------------------

    def campaign(
        self,
        truth,
        plan: DeltaPlan,
        *,
        checkpoint_path: str | None = None,
        name: str | None = None,
    ) -> Campaign:
        """Wrap a plan in a :class:`Campaign` over explicit targets."""
        return Campaign(
            truth,
            self.bgp,
            {},
            self.spec,
            telemetry=self.telemetry,
            checkpoint_path=checkpoint_path,
            name=name or f"delta-epoch-{plan.epoch}",
            targets=plan.columns,
        )

    def run(
        self, truth, epoch: int, *, extra_seeds=None
    ) -> "tuple[DeltaPlan, CampaignResult | None]":
        """Plan, scan, and ingest one epoch against ``truth``.

        Returns ``(plan, result)``; ``result`` is ``None`` when the
        plan was empty (nothing due, nothing to explore).
        """
        plan = self.plan(epoch, extra_seeds=extra_seeds)
        if plan.is_empty:
            return plan, None
        result = self.campaign(truth, plan).run()
        self.ingest(plan, result)
        return plan, result

    def ingest(self, plan: DeltaPlan, result: "CampaignResult") -> dict:
        """Feed a scan's outcome back into the store at the plan's epoch.

        Dealiased (*clean*) hits are recorded as responders; aliased
        hits count as misses, so aliased regions decay out of the
        belief set instead of accumulating as phantom hosts (§6.2's
        rationale, applied longitudinally).  With ``spec.dealias``
        off, clean hits are simply the raw hits.
        """
        return self.store.observe(plan.epoch, plan.columns, result.clean_hits)
