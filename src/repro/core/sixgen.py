"""The 6Gen target generation algorithm (paper §5).

6Gen clusters similar seeds into dense address-space regions and emits
the addresses within those regions as scan targets, constrained by a
probe budget.  The implementation follows Algorithm 1 plus the two §5.5
optimizations:

* per-cluster growth caching — clusters grow independently, so a
  cluster's best growth only needs recomputing after that cluster
  itself grows;
* a 16-ary nybble tree for reconstructing/counting a grown cluster's
  seed set, instead of scanning the full seed list.

Selection rule per iteration (§5.4): among all (cluster, candidate
seed) growth options, take the one with the highest post-growth seed
density; ties prefer the smaller grown range (budget conservation);
remaining ties break at random.

Termination: the budget is consumed exactly (an unaffordable best
growth is satisfied partially by random sampling from its new region),
or all seeds end up in a single cluster.  Note a deliberate deviation
from the *simplified* pseudocode: Algorithm 1 as printed discards the
growth that would unify all seeds, which would prevent any 2-seed
network from ever growing a cluster — contradicting both the prose
("iterates until … all seeds belong to a single cluster") and Figure 5b
(most 2–10-seed prefixes have grown clusters).  We apply the unifying
growth (budget permitting) and then stop.

Resumption: the selection rule never reads the budget.  Only the growth
that overflows it and the final random sample depend on the budget, so
the growth sequence at a small budget is a prefix of the sequence at a
larger one.  :meth:`SixGen.extend` uses this to continue a finished run
at a larger budget instead of clustering from scratch; its result is
bit-identical to a fresh run at the larger budget.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..ipv6.addrplane import ColumnDeduper, concat_columns, pack, unpack
from ..ipv6.nybble import FULL_MASK, NYBBLE_COUNT, popcount16
from ..ipv6.nybble_tree import NybbleTree
from ..ipv6.range_ import NybbleRange, expand_range_arr
from ..telemetry.spans import Telemetry, ensure
from .budget import BudgetExceeded, ExactLedger, make_ledger
from .candidates import SeedMatrix
from .cluster import Cluster, Growth, growth_beats


@dataclass
class SixGenConfig:
    """Tuning knobs for a 6Gen run.

    budget
        Probe budget: the maximum number of *new* (non-seed) addresses
        the clusters may cover.
    loose
        Range granularity (§5.3): ``True`` for full-wildcard nybbles
        (the paper's default after §6.3), ``False`` for tight
        value-set nybbles.
    ledger
        ``"exact"`` for unique-address budget accounting (§5.4),
        ``"range-sum"`` for the simplified Algorithm 1 cost model.
    use_growth_cache
        Cache each cluster's best growth between iterations (§5.5).
        Disabling recomputes every cluster every iteration (the naive
        algorithm) — used by the caching ablation benchmark.
    rng_seed
        Seed for the tie-breaking / sampling RNG, for reproducible runs.
    """

    budget: int
    loose: bool = True
    ledger: str = "exact"
    use_growth_cache: bool = True
    rng_seed: int | None = 0


@dataclass
class SixGenResult:
    """Outcome of a 6Gen run."""

    clusters: list[Cluster]
    seed_count: int
    budget_limit: int
    budget_used: int
    iterations: int
    sampled: list[int] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    _targets: set[int] | None = None
    # The exact ledger's covered count (seeds plus charged addresses),
    # which bounds target_columns_by_density(); None for range-sum runs.
    _covered_count: int | None = field(default=None, compare=False, repr=False)
    # Cached densest-first (hi, lo) columns, populated by
    # target_columns_by_density(); target_set() is built from them.
    _columns: "tuple[np.ndarray, np.ndarray] | None" = field(
        default=None, compare=False, repr=False
    )

    def singleton_clusters(self) -> list[Cluster]:
        """Clusters that never grew past their founding seed (Fig. 5a)."""
        return [c for c in self.clusters if c.is_singleton()]

    def grown_clusters(self) -> list[Cluster]:
        """Clusters that grew to cover a region (Fig. 5b)."""
        return [c for c in self.clusters if not c.is_singleton()]

    def target_count(self) -> int:
        """Number of distinct generated targets (seeds included)."""
        return len(self.target_columns_by_density()[0])

    def target_set(self) -> set[int]:
        """All distinct generated target addresses, seeds included.

        Boxed lazily from :meth:`target_columns_by_density` on first
        use; the column pipeline never asks for it.
        """
        if self._targets is None:
            self._targets = set(unpack(*self.target_columns_by_density()))
        return self._targets

    def iter_targets(self) -> Iterator[int]:
        """Iterate distinct generated targets (order unspecified)."""
        return iter(self.target_set())

    def new_targets(self, seeds: Iterable[int]) -> set[int]:
        """Generated targets excluding the given (seed) addresses."""
        return self.target_set() - set(int(s) for s in seeds)

    def iter_targets_by_density(self) -> Iterator[int]:
        """Stream targets densest-cluster-first (for partial scans).

        Clusters are emitted in descending seed density (ties: smaller
        range first), deduplicating overlap; the final-growth sampled
        addresses come last.  Cutting this stream at any point yields
        the best available target list of that size under 6Gen's own
        density assumption.
        """
        ordered = sorted(
            self.clusters, key=lambda c: (-c.density(), c.range.size())
        )
        emitted: set[int] = set()
        for cluster in ordered:
            for addr in cluster.range.iter_ints():
                if addr not in emitted:
                    emitted.add(addr)
                    yield addr
        for addr in self.sampled:
            if addr not in emitted:
                emitted.add(addr)
                yield addr

    def target_columns_by_density(self) -> "tuple[np.ndarray, np.ndarray]":
        """Packed-column form of :meth:`iter_targets_by_density`.

        Emits the exact scalar sequence — densest cluster first, ties
        broken by smaller range, sampled addresses last, first-seen
        dedupe throughout — as ``(hi, lo)`` columns built by vectorised
        range expansion.  When the run used the exact budget ledger,
        its covered count bounds the walk: expansion stops at the first
        cluster boundary where every target has been emitted.

        The result is cached (the per-prefix generation stage computes
        it once per prefix); callers that mutate the arrays must copy
        first.
        """
        if self._columns is not None:
            return self._columns
        ordered = sorted(
            self.clusters, key=lambda c: (-c.density(), c.range.size())
        )
        total = self._covered_count
        dedupe = ColumnDeduper()
        chunks = []
        # Clusters expand into small per-cluster arrays; feeding each
        # one to the deduper separately would drown in per-call
        # overhead, so they accumulate into batches first.  Batch
        # boundaries are invisible in the output (first-seen order is
        # chunking-independent); they only coarsen the early stop,
        # which skips work but never changes the emitted sequence —
        # clusters past the point where every target has been seen
        # contribute nothing but duplicates.
        pending: list = []
        pending_size = 0
        for cluster in ordered:
            if (
                total is not None
                and not pending
                and len(dedupe) >= total
            ):
                break
            cols = expand_range_arr(cluster.range)
            pending.append(cols)
            pending_size += len(cols[0])
            if pending_size >= 65536:
                chunks.append(dedupe.add(*concat_columns(pending)))
                pending, pending_size = [], 0
        if pending:
            chunks.append(dedupe.add(*concat_columns(pending)))
        if self.sampled and (total is None or len(dedupe) < total):
            chunks.append(dedupe.add(*pack(self.sampled)))
        columns = concat_columns(chunks)
        self._columns = columns
        return columns

    def dynamic_nybble_indices(self) -> set[int]:
        """Union of dynamic nybble positions across cluster ranges (Fig. 6)."""
        indices: set[int] = set()
        for cluster in self.clusters:
            indices.update(cluster.range.dynamic_positions())
        return indices


def _nybble_value_mask(mbits: int) -> int:
    """Expand a 32-bit position mask to 0xF at each set position's nybble."""
    vmask = 0
    while mbits:
        low = mbits & -mbits
        vmask |= 0xF << (4 * (low.bit_length() - 1))
        mbits ^= low
    return vmask


class _HeapEntry:
    """Max-heap wrapper for (growth, cluster) pairs with lazy invalidation.

    ``heapq`` builds min-heaps, so "less than" here means "strictly
    better growth"; entries are invalidated implicitly when the owning
    cluster's cached best growth is replaced or the cluster is deleted.
    """

    __slots__ = ("growth", "cid")

    def __init__(self, growth: Growth, cid: int):
        self.growth = growth
        self.cid = cid

    def __lt__(self, other: "_HeapEntry") -> bool:
        return growth_beats(self.growth, other.growth)


class SixGen:
    """A resumable 6Gen run over one seed set (typically one routed prefix).

    The hot path is the vector kernel: one blocked all-pairs numpy pass
    for singleton initialisation, per-cluster distance vectors updated
    only at mask positions that widened, candidate-minimality counting
    of spans, and heap-based growth selection.  Its output is
    bit-for-bit that of the Algorithm 1 transcription kept as the
    test-only oracle :func:`_run_6gen_reference`.

    :meth:`run` keeps the clusters, heap, distance vectors and ledger,
    and :meth:`extend` continues from them at a larger budget.
    """

    #: Recorded as ``kernel`` in the ``sixgen_summary`` telemetry event.
    kernel = "vector"

    def __init__(
        self,
        seeds: Sequence[int],
        config: SixGenConfig,
        telemetry: Telemetry | None = None,
    ):
        self.config = config
        # Passive observation only: the telemetry object never touches
        # ``self.rng`` or reorders candidate evaluation, so results are
        # bit-identical with telemetry on or off.
        self.telemetry = ensure(telemetry)
        #: Candidate evaluations performed (plain int on the hot path;
        #: flushed to telemetry counters once per run).
        self.candidate_scans = 0
        self.seeds = sorted(set(int(s) for s in seeds))
        self.rng = random.Random(config.rng_seed)
        self._tree: NybbleTree | None = None
        self.matrix = SeedMatrix(self.seeds)
        self.ledger = make_ledger(config.ledger, config.budget, self.seeds)
        self._clusters: dict[int, Cluster] = {}
        self._best: dict[int, Growth | None] = {}
        self._singleton_by_seed: dict[int, int] = {}
        self._next_id = 0
        self.iterations = 0
        #: Cached distance-to-every-seed vectors, keyed by cluster id.
        #: Populated lazily (clusters that never grow never need one) and
        #: updated incrementally on growth: masks only widen, so only the
        #: changed positions can lower a seed's distance.
        self._dist: dict[int, np.ndarray] = {}
        #: Packed 512-bit mask signatures of grown clusters, for O(1)
        #: encapsulation checks.
        self._grown_sigs: dict[int, int] = {}
        # Heap selection needs stable cached growths between iterations;
        # the no-cache ablation redraws every growth each iteration, so
        # it keeps the linear scan.
        self._use_heap = config.use_growth_cache
        self._heap: list[_HeapEntry] = []

    @property
    def tree(self) -> NybbleTree:
        """The seed nybble tree, built on first use.

        Only large candidate sets (and the reference oracle) count
        seeds on it, so most runs never build one.
        """
        if self._tree is None:
            self._tree = NybbleTree(self.seeds)
        return self._tree

    # -- internals ---------------------------------------------------------
    def _set_best(self, cid: int, growth: Growth | None) -> None:
        """Record a cluster's cached best growth (and index it for the heap)."""
        self._best[cid] = growth
        if self._use_heap and growth is not None:
            heapq.heappush(self._heap, _HeapEntry(growth, cid))

    # -- growth evaluation -------------------------------------------------
    def _best_growth_for(
        self,
        range_: NybbleRange,
        seed_count: int,
        indices: Sequence[int],
        mbits_list: list[int] | None = None,
        vvals: list[int] | None = None,
    ) -> Growth | None:
        """Best growth of a range by the given candidate seed indices.

        Span masks are built directly from the matrix's nybble rows with
        the range size tracked incrementally (skipping range
        re-validation), and comparisons use exact integer
        cross-multiplication.  Candidate order, span dedup, and the RNG
        salt sequence are identical to the reference oracle's
        :meth:`_ReferenceSixGen._evaluate`.

        ``indices`` must be *all* seeds at the minimum positive distance
        ``d`` from the range (``seed_count`` is the range's current seed
        count).  That minimality gives an exact counting shortcut: a
        seed inside a candidate's span has distance ≤ d from the range,
        hence distance 0 (already counted) or exactly d (a candidate).
        So each span's post-growth count is ``seed_count`` plus the
        candidates lying inside it — an O(C²) bit-mask check instead of
        per-span nybble-tree walks.  Mismatch positions are packed into
        one int (and mismatch values into another for tight mode), so
        "candidate k inside candidate c's span" is one subset test.
        Large candidate sets fall back to the shared-traversal
        :meth:`~repro.ipv6.nybble_tree.NybbleTree.count_in_ranges`.

        ``mbits_list`` / ``vvals`` may carry precomputed mismatch bits
        and (tight mode) packed mismatch nybble values for each
        candidate — the init path derives them from seed XORs without
        any numpy round-trip.
        """
        self.candidate_scans += len(indices)
        if not indices:
            return None
        loose = self.config.loose
        base_masks = range_.masks
        base_size = range_.size()
        if mbits_list is None:
            mbits_list = self.matrix.mismatch_bits(range_, indices)
        spans: list[NybbleRange] = []
        span_bits: list[tuple[int, int]] = []
        seen: set = set()
        if loose:
            # A loose span is fully determined by the set of widened
            # positions, so the packed mismatch bits are the dedup key
            # and duplicate candidates never build a mask list at all.
            for c in range(len(indices)):
                mbits = mbits_list[c]
                if mbits in seen:
                    continue
                seen.add(mbits)
                masks = list(base_masks)
                size = base_size
                m = mbits
                while m:
                    low = m & -m
                    m ^= low
                    pos = low.bit_length() - 1
                    size = size // popcount16(masks[pos]) * 16
                    masks[pos] = FULL_MASK
                spans.append(NybbleRange._make(tuple(masks), size))
                span_bits.append((mbits, 0))
        else:
            # Tight spans also depend on the candidate's nybble values
            # at the widened positions; pack those alongside (nybble of
            # position p lives at bits 4p..4p+3).
            if vvals is None:
                vvals = []
                for c, idx in enumerate(indices):
                    seed = self.seeds[idx]
                    m = mbits_list[c]
                    vval = 0
                    while m:
                        low = m & -m
                        m ^= low
                        pos = low.bit_length() - 1
                        nybble = (seed >> (4 * (NYBBLE_COUNT - 1 - pos))) & 0xF
                        vval |= nybble << (4 * pos)
                    vvals.append(vval)
            for c in range(len(indices)):
                mbits = mbits_list[c]
                vval = vvals[c]
                key = (mbits, vval)
                if key in seen:
                    continue
                seen.add(key)
                masks = list(base_masks)
                size = base_size
                m = mbits
                while m:
                    low = m & -m
                    m ^= low
                    pos = low.bit_length() - 1
                    count = popcount16(masks[pos])
                    masks[pos] |= 1 << ((vval >> (4 * pos)) & 0xF)
                    size = size // count * (count + 1)
                spans.append(NybbleRange._make(tuple(masks), size))
                span_bits.append(key)
        if len(indices) > 64:
            counts = self.tree.count_in_ranges(spans)
        elif loose:
            counts = [
                seed_count + sum(1 for m in mbits_list if not m & ~c_mbits)
                for c_mbits, _ in span_bits
            ]
        else:
            counts = []
            for c_mbits, c_vval in span_bits:
                inside = 0
                for k, k_mbits in enumerate(mbits_list):
                    if not k_mbits & ~c_mbits:
                        k_vval = vvals[k]
                        vmask = _nybble_value_mask(k_mbits)
                        if c_vval & vmask == k_vval:
                            inside += 1
                counts.append(seed_count + inside)
        best: Growth | None = None
        for span, span_count in zip(spans, counts):
            growth = Growth(span, span_count, self.rng.random())
            if best is None or growth_beats(growth, best):
                best = growth
        return best

    def _evaluate(self, cid: int) -> Growth | None:
        """Best growth for one cluster, or ``None`` if it holds all seeds.

        Candidates come from the cluster's cached distance vector.
        """
        cluster = self._clusters[cid]
        vec = self._dist.get(cid)
        if vec is None:
            vec = self.matrix.distances_to_range(cluster.range).astype(np.int16)
            self._dist[cid] = vec
        _, indices = SeedMatrix.min_positive_from(vec)
        return self._best_growth_for(cluster.range, cluster.seed_count, indices)

    def _widen_distance_cache(
        self, cid: int, old_range: NybbleRange, new_range: NybbleRange
    ) -> None:
        """Bring a cluster's distance vector forward across one growth."""
        vec = self._dist.get(cid)
        if vec is None:
            vec = self.matrix.distances_to_range(old_range).astype(np.int16)
        self.matrix.widen_distances_inplace(vec, old_range, new_range)
        self._dist[cid] = vec

    # -- algorithm steps ---------------------------------------------------
    def _init_clusters(self) -> None:
        """One singleton cluster per seed (Function InitClusters)."""
        for seed in self.seeds:
            cid = self._next_id
            self._next_id += 1
            self._clusters[cid] = Cluster(NybbleRange.from_address(seed), 1)
            self._singleton_by_seed[seed] = cid
        self._evaluate_singletons()

    def _evaluate_singletons(self) -> None:
        """Cache every singleton's best growth from one all-pairs pass."""
        # Cluster ids were assigned in seed (= matrix row) order, so
        # row i's nearest-neighbour candidates belong to cluster i.
        # A singleton's mask holds exactly its own nybbles, so each
        # candidate's mismatch positions (and values, for tight mode)
        # fall straight out of the integer XOR of the two seeds — no
        # per-singleton numpy calls at all.
        all_candidates = self.matrix.all_pairs_min_candidates()
        seeds = self.seeds
        tight = not self.config.loose
        for cid, (_, indices) in enumerate(all_candidates):
            seed_i = seeds[cid]
            mbits_list: list[int] = []
            vvals: list[int] | None = [] if tight else None
            for j in indices:
                x = seed_i ^ seeds[j]
                mbits = 0
                vval = 0
                while x:
                    b = x & -x
                    nyb_from_lsb = (b.bit_length() - 1) >> 2
                    x &= ~(0xF << (4 * nyb_from_lsb))
                    pos = NYBBLE_COUNT - 1 - nyb_from_lsb
                    mbits |= 1 << pos
                    if tight:
                        nybble = (seeds[j] >> (4 * nyb_from_lsb)) & 0xF
                        vval |= nybble << (4 * pos)
                mbits_list.append(mbits)
                if tight:
                    vvals.append(vval)
            self._set_best(
                cid,
                self._best_growth_for(
                    self._clusters[cid].range,
                    1,
                    indices,
                    mbits_list=mbits_list,
                    vvals=vvals,
                ),
            )

    def _select_growth(self) -> tuple[int, Growth] | None:
        """The best (cluster, growth) pair this iteration, if any.

        With growth caching every cached growth sits in a lazily
        invalidated max-heap: stale entries (cluster deleted, or its
        best growth since replaced) are popped on sight, so selection is
        O(log n) amortised instead of a full scan with exact-fraction
        comparisons.  Full sort keys are unique in practice (the random
        salt breaks ties), so both structures select the same growth.
        """
        if self._use_heap:
            heap = self._heap
            while heap:
                entry = heap[0]
                if self._best.get(entry.cid) is entry.growth:
                    return entry.cid, entry.growth
                heapq.heappop(heap)
            return None
        best_cid: int | None = None
        best_growth: Growth | None = None
        for cid, growth in self._best.items():
            if growth is None:
                continue
            if best_growth is None or growth.sort_key() > best_growth.sort_key():
                best_cid, best_growth = cid, growth
        if best_cid is None or best_growth is None:
            return None
        return best_cid, best_growth

    def _apply_growth(self, cid: int, growth: Growth) -> None:
        """Replace the cluster, drop encapsulated clusters, refresh caches."""
        old_range = self._clusters[cid].range
        self._clusters[cid] = Cluster(growth.new_range, growth.new_seed_count)
        for oid in self._absorbed(cid, old_range, growth.new_range):
            del self._clusters[oid]
            del self._best[oid]
            self._dist.pop(oid, None)
            self._grown_sigs.pop(oid, None)
        if self.config.use_growth_cache:
            self._set_best(cid, self._evaluate(cid))
        else:
            for oid in self._clusters:
                self._set_best(oid, self._evaluate(oid))

    def _absorbed(
        self, cid: int, old_range: NybbleRange, new_range: NybbleRange
    ) -> list[int]:
        """Ids of the clusters the grown cluster ``cid`` now encapsulates.

        Encapsulated singletons are exactly those whose founding seed
        lies in the grown range; the freshly widened distance vector
        knows them (distance zero) — no trie walk needed.  (The grown
        cluster itself also leaves the singleton map here.)
        """
        self._widen_distance_cache(cid, old_range, new_range)
        doomed: list[int] = []
        seeds = self.matrix.seeds
        for row in np.nonzero(self._dist[cid] == 0)[0].tolist():
            oid = self._singleton_by_seed.pop(seeds[row], None)
            if oid is not None and oid != cid:
                doomed.append(oid)
        # Each grown cluster's masks are packed into one 512-bit
        # signature (32 disjoint 16-bit fields), so the per-position
        # subset test collapses to a single ``sig & ~new_sig == 0``.
        new_sig = 0
        for mask in new_range.masks:
            new_sig = (new_sig << 16) | mask
        for oid, sig in self._grown_sigs.items():
            if oid != cid and not sig & ~new_sig:
                doomed.append(oid)
        self._grown_sigs[cid] = new_sig
        return doomed

    # -- driver --------------------------------------------------------------
    def _grow(self) -> list[int]:
        """Algorithm 1's loop from the current state; returns the final sample."""
        while True:
            selected = self._select_growth()
            if selected is None:
                break  # every remaining cluster already holds all seeds
            cid, growth = selected
            old_range = self._clusters[cid].range
            try:
                self.ledger.try_charge(growth.new_range, old_range)
            except BudgetExceeded:
                return self._sample_final_growth(growth.new_range, old_range)
            self.iterations += 1
            self._apply_growth(cid, growth)
            if growth.new_seed_count == len(self.seeds):
                # All seeds unified: the unified range holds every other
                # cluster's range, so those were absorbed and a later
                # call finds no growth left.
                break
        return []

    def _sample_final_growth(
        self, new_range: NybbleRange, old_range: NybbleRange
    ) -> list[int]:
        """Draw the overflowing growth's sample without committing it.

        The sample is the only budget-dependent part of a run, so the
        RNG and the ledger go back to where they stood before it was
        drawn.  The generator thus rests at the overflowing growth (its
        heap entry is never popped), which is where :meth:`extend`
        re-enters the loop.
        """
        rng_state = self.rng.getstate()
        ledger_state = self.ledger.snapshot()
        sampled = self.ledger.charge_partial(new_range, old_range, self.rng)
        self.rng.setstate(rng_state)
        self.ledger.restore(ledger_state)
        return sampled

    def run(self) -> SixGenResult:
        """Run 6Gen up to the current budget and return the clusters and targets.

        The first call clusters from scratch; a later call (through
        :meth:`extend`) resumes from the kept state.  Each result is its
        own snapshot, which later calls never change.  Telemetry
        records the work of this call only, so counters summed over a
        run and its extensions equal those of one fresh run.
        """
        tele = self.telemetry
        start = time.perf_counter()
        start_iterations, start_scans = self.iterations, self.candidate_scans
        sampled: list[int] = []
        with tele.span(
            "sixgen", seeds=len(self.seeds), budget=self.config.budget
        ):
            if self.seeds:
                if not self._clusters:
                    self._init_clusters()
                sampled = self._grow()
        iterations = self.iterations - start_iterations
        scans = self.candidate_scans - start_scans

        result = SixGenResult(
            clusters=list(self._clusters.values()),
            seed_count=len(self.seeds),
            budget_limit=self.config.budget,
            budget_used=self.ledger.used + len(sampled),
            iterations=self.iterations,
            sampled=sampled,
            elapsed_seconds=time.perf_counter() - start,
        )
        if isinstance(self.ledger, ExactLedger):
            result._covered_count = self.ledger.covered_count() + len(sampled)
        if tele.enabled:
            grown = sum(1 for c in result.clusters if not c.is_singleton())
            tele.count("sixgen.runs")
            tele.count(f"sixgen.{self.kernel}_runs")
            tele.count("sixgen.seeds", result.seed_count)
            tele.count("sixgen.iterations", iterations)
            tele.count("sixgen.clusters_grown", grown)
            tele.count("sixgen.clusters_final", len(result.clusters))
            tele.count("sixgen.candidate_scans", scans)
            tele.count("sixgen.budget_used", result.budget_used)
            tele.count("sixgen.sampled_targets", len(result.sampled))
            tele.observe("sixgen.run_seconds", result.elapsed_seconds)
            tele.event(
                "sixgen_summary",
                {
                    "seeds": result.seed_count,
                    "iterations": iterations,
                    "clusters": len(result.clusters),
                    "clusters_grown": grown,
                    "budget_used": result.budget_used,
                    "budget_limit": result.budget_limit,
                    "candidate_scans": scans,
                    "kernel": self.kernel,
                    "seconds": round(result.elapsed_seconds, 6),
                },
            )
        return result

    def extend(self, budget: int) -> SixGenResult:
        """Continue at a larger ``budget``, as if the run had started with it.

        Raises the limit and re-enters the loop at the growth that
        overflowed the old one; the old final-growth sample was never
        committed, so it is simply drawn afresh.  The result is
        bit-identical to a fresh run at ``budget`` with the same
        configuration.  After every seed has joined one cluster only
        the reported limit changes.  A budget below the current one
        raises :class:`ValueError`.
        """
        if budget < self.config.budget:
            raise ValueError(
                f"cannot extend a 6Gen run from budget {self.config.budget} "
                f"down to {budget}"
            )
        self.config = replace(self.config, budget=budget)
        self.ledger.limit = budget
        return self.run()


def run_6gen(
    seeds: Sequence[int] | Iterable[int],
    budget: int,
    *,
    loose: bool = True,
    ledger: str = "exact",
    use_growth_cache: bool = True,
    rng_seed: int | None = 0,
    telemetry: Telemetry | None = None,
) -> SixGenResult:
    """Convenience wrapper: run 6Gen on a seed set with a probe budget.

    ``seeds`` may be address integers or :class:`~repro.ipv6.IPv6Addr`
    instances.  Returns a :class:`SixGenResult`; call
    :meth:`~SixGenResult.target_set` for the generated scan targets.
    ``telemetry`` (optional) records counters, the run span, and a
    summary event without perturbing the run in any way.
    """
    config = SixGenConfig(
        budget=budget,
        loose=loose,
        ledger=ledger,
        use_growth_cache=use_growth_cache,
        rng_seed=rng_seed,
    )
    return SixGen([int(s) for s in seeds], config, telemetry=telemetry).run()


class _ReferenceSixGen(SixGen):
    """Algorithm 1 transcribed directly: the vector kernel's oracle.

    Every cluster is evaluated from scratch: candidates by
    :meth:`SeedMatrix.min_positive_candidates`, each distinct span
    counted on the nybble tree, the best growth picked by a linear
    scan, and absorbed clusters found by a trie walk plus range subset
    tests.  Only tests and ``benchmarks/bench_kernel.py`` run it.
    """

    kernel = "reference"

    def __init__(self, seeds, config, telemetry=None):
        super().__init__(seeds, config, telemetry)
        self._use_heap = False

    def _evaluate(self, cid: int) -> Growth | None:
        """Best growth for one cluster, or ``None`` if it holds all seeds.

        For each candidate seed the grown range may encapsulate further
        seeds; the post-growth seed-set size is counted with the nybble
        tree, so absorbed seeds (candidate or not) are included.
        """
        range_ = self._clusters[cid].range
        _, indices = self.matrix.min_positive_candidates(range_)
        self.candidate_scans += len(indices)
        best: Growth | None = None
        seen_ranges: set[tuple[int, ...]] = set()
        for idx in indices:
            new_range = range_.span(self.seeds[idx], loose=self.config.loose)
            if new_range.masks in seen_ranges:
                continue
            seen_ranges.add(new_range.masks)
            count = self.tree.count_in_range(new_range)
            growth = Growth(new_range, count, self.rng.random())
            if best is None or growth.sort_key() > best.sort_key():
                best = growth
        return best

    def _evaluate_singletons(self) -> None:
        for cid in self._clusters:
            self._set_best(cid, self._evaluate(cid))

    def _absorbed(
        self, cid: int, old_range: NybbleRange, new_range: NybbleRange
    ) -> list[int]:
        doomed: list[int] = []
        for seed in self.tree.iter_in_range(new_range):
            oid = self._singleton_by_seed.pop(seed, None)
            if oid is not None and oid != cid:
                doomed.append(oid)
        # Grown clusters are few; check them directly.
        for oid, other in self._clusters.items():
            if oid != cid and not other.range.is_singleton():
                if other.range.is_subset(new_range):
                    doomed.append(oid)
        return doomed


def _run_6gen_reference(
    seeds: Sequence[int] | Iterable[int],
    budget: int,
    *,
    loose: bool = True,
    ledger: str = "exact",
    use_growth_cache: bool = True,
    rng_seed: int | None = 0,
    telemetry: Telemetry | None = None,
) -> SixGenResult:
    """:func:`run_6gen` on the reference oracle (tests and benchmarks only)."""
    config = SixGenConfig(
        budget=budget,
        loose=loose,
        ledger=ledger,
        use_growth_cache=use_growth_cache,
        rng_seed=rng_seed,
    )
    return _ReferenceSixGen([int(s) for s in seeds], config, telemetry).run()
