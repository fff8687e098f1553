"""Entropy/IP model fitting and budgeted target generation (stage 5).

Ties the pipeline together: entropy analysis → segmentation → value
mining → Bayesian network → address generation.  Matches the usage in
both papers' evaluations: fit on a seed sample, then generate a target
list of a given size.

Entropy/IP, unlike 6Gen, uses the budget only to decide *how many*
targets to emit — it does not let the budget steer which regions are
modelled (the 6Gen paper highlights exactly this difference in §7.1).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..telemetry.spans import Telemetry, ensure
from .bayes import BayesNetwork
from .entropy import nybble_entropies
from .mining import SegmentModel, mine_segment_values
from .segments import Segment, segment_positions


@dataclass
class EntropyIPConfig:
    """Tuning knobs for the Entropy/IP pipeline."""

    segment_threshold: float = 0.1
    segment_max_width: int = 4
    heavy_hitter_fraction: float = 0.05
    max_exact_values: int = 16
    gap_factor: float = 8.0
    laplace_alpha: float = 0.5
    #: Bayesian-network structure: "chain" (fixed left-to-right) or
    #: "tree" (Chow-Liu structure learning, like the original tool).
    bayes_structure: str = "chain"
    #: Value-mining granularity: "gap" (density splits only) or
    #: "nybble" (additionally split at top-nybble boundaries).
    mining_split_mode: str = "gap"
    rng_seed: int | None = 0
    #: Give up generating once this many consecutive samples are duplicates;
    #: the model's support may be smaller than the requested budget.
    max_stale_draws: int = 200_000


@dataclass
class EntropyIPModel:
    """A fitted Entropy/IP model for one seed set."""

    entropies: list[float]
    segments: list[Segment]
    segment_models: list[SegmentModel]
    chain: BayesNetwork
    config: EntropyIPConfig
    seed_count: int
    _rng: random.Random = field(repr=False, default_factory=random.Random)

    # -- generation ---------------------------------------------------------
    def generate(self, budget: int, *, exclude: Iterable[int] = ()) -> set[int]:
        """Generate up to ``budget`` distinct target addresses by sampling.

        ``exclude`` addresses (typically the training seeds) are never
        emitted but also never charged against the budget.  Generation
        stops early if the model keeps producing duplicates — its
        support may simply be smaller than the budget.
        """
        if budget < 0:
            raise ValueError(f"budget must be non-negative: {budget}")
        excluded = set(int(a) for a in exclude)
        # When the model's entire support fits in the budget, exhaustive
        # enumeration is both exact and far cheaper than sampling into
        # ever-increasing duplicate rates.
        support = self.support_size()
        if support <= budget:
            return set(self.generate_ordered(budget, exclude=exclude))
        targets: set[int] = set()
        stale = 0
        while len(targets) < budget and stale < self.config.max_stale_draws:
            addr = self.chain.sample_address(self._rng)
            if addr in targets or addr in excluded:
                stale += 1
                continue
            stale = 0
            targets.add(addr)
        return targets

    def support_size(self) -> int:
        """Upper bound on distinct addresses the model can generate.

        The product over segments of the summed atom spans; an upper
        bound because chain transitions may zero out combinations.
        """
        support = 1
        for model in self.segment_models:
            support *= sum(atom.span for atom in model.atoms)
            if support > 1 << 80:  # avoid pointless huge arithmetic
                return support
        return support

    def generate_ordered(self, budget: int, *, exclude: Iterable[int] = ()) -> list[int]:
        """Generate up to ``budget`` targets in descending model probability.

        Enumerates atom vectors best-first; within each vector, exact
        atoms contribute their value and range atoms are expanded in
        ascending value order (their interior is modelled uniform, so
        any order is probability-consistent).
        """
        if budget < 0:
            raise ValueError(f"budget must be non-negative: {budget}")
        excluded = set(int(a) for a in exclude)
        targets: list[int] = []
        emitted: set[int] = set()
        for _, vec in self.chain.iter_vectors_by_probability():
            bounds = self.chain.atoms_to_ranges(vec)
            for addr in self._expand(bounds, budget - len(targets), emitted, excluded):
                targets.append(addr)
                emitted.add(addr)
            if len(targets) >= budget:
                break
        return targets

    def _expand(
        self,
        bounds: list[tuple[int, int]],
        limit: int,
        emitted: set[int],
        excluded: set[int],
    ) -> list[int]:
        """Concrete addresses for one atom vector, capped at ``limit``."""
        if limit <= 0:
            return []
        out: list[int] = []
        out_set: set[int] = set()

        def rec(index: int, addr: int) -> None:
            if len(out) >= limit:
                return
            if index == len(self.segment_models):
                if addr not in emitted and addr not in excluded and addr not in out_set:
                    out.append(addr)
                    out_set.add(addr)
                return
            model = self.segment_models[index]
            low, high = bounds[index]
            for value in range(low, high + 1):
                if len(out) >= limit:
                    return
                rec(index + 1, model.segment.insert(addr, value))

        rec(0, 0)
        return out

    def score(self, addr: int) -> float:
        """Joint model probability of an address's atom vector."""
        vec = tuple(
            m.atom_index(m.segment.extract(addr)) for m in self.segment_models
        )
        return self.chain.vector_probability(vec)

    def describe(self) -> str:
        """Human-readable structure report (the original tool's output).

        Entropy/IP is "foremost an analysis tool for identifying
        patterns in IPv6 addresses" (paper §7); this renders the fitted
        model the way the original's reports do: the entropy profile,
        each segment with its mined atoms and probabilities, and the
        learned inter-segment dependencies.
        """
        lines = [f"Entropy/IP model ({self.seed_count} seeds)"]
        lines.append("")
        lines.append("per-nybble entropy (digits 0-9 ~ 0.0-1.0):")
        lines.append(
            "  " + "".join(str(min(9, int(e * 10))) for e in self.entropies)
        )
        lines.append("")
        lines.append("segments and mined values:")
        for i, model in enumerate(self.segment_models):
            seg = model.segment
            parent = self.chain.parents[i]
            dep = f" <- segment {parent + 1}" if parent is not None else " (root)"
            lines.append(
                f"  segment {i + 1}: nybbles {seg.start + 1}-{seg.end} "
                f"(H={seg.mean_entropy:.2f}){dep}"
            )
            shown = sorted(
                zip(model.atoms, model.probabilities),
                key=lambda ap: -ap[1],
            )[:6]
            for atom, probability in shown:
                lines.append(f"      {str(atom):<16} p={probability:.3f}")
            if len(model.atoms) > 6:
                lines.append(f"      ... {len(model.atoms) - 6} more atoms")
        return "\n".join(lines)


def fit_entropy_ip(
    seeds: Sequence[int], config: EntropyIPConfig | None = None
) -> EntropyIPModel:
    """Fit the full Entropy/IP pipeline on a seed set."""
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("Entropy/IP requires at least one seed")
    config = config or EntropyIPConfig()
    entropies = nybble_entropies(seeds)
    segments = segment_positions(
        entropies,
        threshold=config.segment_threshold,
        max_width=config.segment_max_width,
    )
    segment_models = [
        mine_segment_values(
            seg,
            seeds,
            heavy_hitter_fraction=config.heavy_hitter_fraction,
            max_exact_values=config.max_exact_values,
            gap_factor=config.gap_factor,
            split_mode=config.mining_split_mode,
        )
        for seg in segments
    ]
    chain = BayesNetwork(
        segment_models,
        seeds,
        alpha=config.laplace_alpha,
        structure=config.bayes_structure,
    )
    return EntropyIPModel(
        entropies=entropies,
        segments=segments,
        segment_models=segment_models,
        chain=chain,
        config=config,
        seed_count=len(seeds),
        _rng=random.Random(config.rng_seed),
    )


def run_entropy_ip(
    seeds: Sequence[int] | Iterable[int],
    budget: int,
    *,
    config: EntropyIPConfig | None = None,
    exclude_seeds: bool = False,
    telemetry: Telemetry | None = None,
) -> set[int]:
    """Fit Entropy/IP on ``seeds`` and generate ``budget`` targets.

    The counterpart of :func:`repro.core.run_6gen` for head-to-head
    comparisons (paper §7).  ``telemetry`` (optional) records the
    ``generate.targets_total`` counter and ``generate.targets_per_sec``
    gauge, mirroring the 6Gen run metrics.
    """
    seeds = [int(s) for s in seeds]
    model = fit_entropy_ip(seeds, config)
    exclude = seeds if exclude_seeds else ()
    tele = ensure(telemetry)
    start = time.perf_counter()
    with tele.span("generate.entropy_ip", budget=budget, seeds=len(seeds)):
        targets = model.generate(budget, exclude=exclude)
    if tele.enabled:
        tele.count("generate.targets_total", len(targets))
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            tele.gauge("generate.targets_per_sec", len(targets) / elapsed)
    return targets

