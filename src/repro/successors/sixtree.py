"""A 6Tree-style dynamic TGA (the follow-on work 6Gen inspired).

6Tree (Liu et al., Computer Networks 2019) is the best-known successor
to 6Gen/Entropy/IP and a concrete realisation of this paper's §8
"scanner integration" direction.  Its two ideas, reimplemented here:

1. **Space tree** — divisive hierarchical clustering of the seeds: a
   region splits its seeds by the value of their leftmost differing
   nybble, recursively, yielding a tree whose leaves are dense
   nybble-prefix regions.
2. **Dynamic scanning** — leaves are scanned densest-first; a region
   that keeps producing hits is *expanded* to its parent region (one
   more wildcard nybble) and scanning continues there, while barren
   regions are abandoned.  The probe budget therefore flows toward the
   parts of the space that respond — feedback the static 6Gen pipeline
   cannot express.

The implementation shares this repo's primitives (nybble ranges, the
scanner) so it can be benchmarked head-to-head against 6Gen and the
§8 phased feedback campaign on identical worlds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..ipv6.nybble import NYBBLE_COUNT
from ..ipv6.range_ import NybbleRange
from ..scanner.engine import Scanner


@dataclass
class SpaceTreeNode:
    """One region of the space tree: a common nybble prefix of seeds."""

    depth: int  # number of fixed leading nybbles
    prefix_nybbles: tuple[int, ...]  # the fixed leading nybble values
    seeds: list[int]
    children: dict[int, "SpaceTreeNode"] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def region(self) -> NybbleRange:
        """The node's address region: fixed prefix, wildcard suffix."""
        masks = [1 << v for v in self.prefix_nybbles]
        masks += [0xFFFF] * (NYBBLE_COUNT - len(masks))
        return NybbleRange(masks)

    def density(self) -> float:
        """Seed density of the region (seeds per address, log-safe)."""
        return len(self.seeds) / self.region().size()


def _common_depth(seeds: Sequence[int], start: int) -> int:
    """First nybble index >= start at which the seeds differ (or 32)."""
    for i in range(start, NYBBLE_COUNT):
        shift = 4 * (NYBBLE_COUNT - 1 - i)
        first = (seeds[0] >> shift) & 0xF
        if any(((s >> shift) & 0xF) != first for s in seeds[1:]):
            return i
    return NYBBLE_COUNT


def build_space_tree(
    seeds: Iterable[int], max_leaf_seeds: int = 8
) -> SpaceTreeNode:
    """Divisive hierarchical clustering of the seeds into a space tree.

    Every node's region is the seeds' common nybble prefix; a node with
    more than ``max_leaf_seeds`` seeds splits them by the value of the
    leftmost differing nybble.
    """
    seed_list = sorted(set(int(s) for s in seeds))
    if not seed_list:
        raise ValueError("space tree requires at least one seed")

    def make_node(members: list[int], depth: int, prefix: tuple[int, ...]) -> SpaceTreeNode:
        split = _common_depth(members, depth)
        shift_range = range(depth, split)
        # Extend the fixed prefix through the shared nybbles.
        extended = list(prefix)
        for i in shift_range:
            extended.append((members[0] >> (4 * (NYBBLE_COUNT - 1 - i))) & 0xF)
        node = SpaceTreeNode(
            depth=split, prefix_nybbles=tuple(extended), seeds=members
        )
        if split == NYBBLE_COUNT or len(members) <= max_leaf_seeds:
            return node
        groups: dict[int, list[int]] = {}
        shift = 4 * (NYBBLE_COUNT - 1 - split)
        for member in members:
            groups.setdefault((member >> shift) & 0xF, []).append(member)
        if len(groups) == 1:  # cannot happen after _common_depth, but guard
            return node
        for value, group in sorted(groups.items()):
            node.children[value] = make_node(
                group, split + 1, tuple(extended) + (value,)
            )
        return node

    return make_node(seed_list, 0, ())


def leaves(node: SpaceTreeNode) -> list[SpaceTreeNode]:
    """All leaf regions of a space tree."""
    if node.is_leaf:
        return [node]
    out: list[SpaceTreeNode] = []
    for child in node.children.values():
        out.extend(leaves(child))
    return out


@dataclass
class SixTreeConfig:
    """Tuning knobs for the dynamic scan."""

    total_budget: int
    #: Probes per region between hit-rate evaluations.
    batch_size: int = 64
    #: Minimum hit rate for a region to earn expansion to its parent.
    expand_threshold: float = 0.05
    #: Hit rate above which a region is alias-tested before expansion
    #: (6Tree's follow-up added exactly this aliased-address detection).
    alias_rate_ceiling: float = 0.95
    #: Never expand a region beyond this many wildcard nybbles (a /64's
    #: worth of wildcards would soak any budget).
    max_wildcards: int = 6
    rng_seed: int | None = 0
    port: int = 80


@dataclass
class SixTreeResult:
    """Outcome of a dynamic 6Tree scan."""

    hits: set[int] = field(default_factory=set)
    probes_used: int = 0
    regions_scanned: int = 0
    expansions: int = 0
    aliased_regions: list[NybbleRange] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        return len(self.hits) / self.probes_used if self.probes_used else 0.0

    def clean_hits(self) -> set[int]:
        """Hits outside the regions the scan itself flagged as aliased."""
        return {
            h
            for h in self.hits
            if not any(r.contains(h) for r in self.aliased_regions)
        }


class SixTree:
    """Dynamic space-tree scanning against a scanner."""

    def __init__(self, scanner: Scanner, config: SixTreeConfig):
        if config.total_budget < 0:
            raise ValueError(f"budget must be non-negative: {config.total_budget}")
        self.scanner = scanner
        self.config = config
        self.rng = random.Random(config.rng_seed)

    def run(self, seeds: Sequence[int]) -> SixTreeResult:
        """Scan from the seeds' space tree, expanding productive regions."""
        result = SixTreeResult()
        seed_list = sorted(set(int(s) for s in seeds))
        if not seed_list or self.config.total_budget == 0:
            return result
        tree = build_space_tree(seed_list)
        probed: set[int] = set(seed_list)
        # Work queue: densest leaves first.
        queue = sorted(leaves(tree), key=lambda n: -n.density())
        work = [(node.region(), node.depth) for node in queue]

        while work and result.probes_used < self.config.total_budget:
            region, depth = work.pop(0)
            if any(region.is_subset(a) for a in result.aliased_regions):
                continue
            result.regions_scanned += 1
            batch_hits, batch_probes = self._scan_region(region, probed, result)
            rate = batch_hits / batch_probes if batch_probes else 0.0
            wildcards = NYBBLE_COUNT - depth
            if rate >= self.config.alias_rate_ceiling and batch_probes >= 8:
                if self._region_is_aliased(region, depth, result):
                    result.aliased_regions.append(region)
                    continue
            # A region with no unprobed addresses left (e.g. a singleton
            # leaf holding only its seed) gave no signal — expand it so
            # the seed's neighbourhood gets explored.
            exhausted = batch_probes == 0
            if (
                (exhausted or rate >= self.config.expand_threshold)
                and wildcards < self.config.max_wildcards
                and depth > 0
            ):
                # Expand: wildcard one more nybble (the parent region).
                parent_masks = list(region.masks)
                parent_masks[depth - 1] = 0xFFFF
                result.expansions += 1
                work.insert(0, (NybbleRange(parent_masks), depth - 1))
        return result

    def _region_is_aliased(
        self, region: NybbleRange, depth: int, result: SixTreeResult
    ) -> bool:
        """Aliased-address detection before expansion (6Tree's AAD step).

        Probes random addresses of the *parent* region outside the
        current one: a genuine dense block is silent out there, an
        aliased prefix answers everywhere.  Regions already spanning
        the whole space (depth 0) cannot be tested and are treated as
        aliased — expanding them would be unbounded anyway.
        """
        if depth <= 0:
            return True
        parent_masks = list(region.masks)
        parent_masks[depth - 1] = 0xFFFF
        parent = NybbleRange(parent_masks)
        for _ in range(3):
            probe_addr = None
            for _ in range(64):
                candidate = parent.random_int(self.rng)
                if not region.contains(candidate):
                    probe_addr = candidate
                    break
            if probe_addr is None:
                return True
            if not any(
                self.scanner.probe(probe_addr, self.config.port) for _ in range(3)
            ):
                return False
        return True

    def _scan_region(
        self, region: NybbleRange, probed: set[int], result: SixTreeResult
    ) -> tuple[int, int]:
        """Probe the region's unscanned addresses; returns (hits, probes)."""
        remaining = self.config.total_budget - result.probes_used
        if remaining <= 0:
            return 0, 0
        cap = min(remaining, self.config.batch_size * 8)
        size = region.size()
        if size <= 4 * cap or size <= 65536:
            candidates = [a for a in region.iter_ints() if a not in probed]
            self.rng.shuffle(candidates)
            candidates = candidates[:cap]
        else:
            chosen: set[int] = set()
            attempts = 0
            while len(chosen) < cap and attempts < 64 * cap:
                attempts += 1
                addr = region.random_int(self.rng)
                if addr not in probed:
                    chosen.add(addr)
            candidates = sorted(chosen)
        hits = 0
        probes = 0
        for addr in candidates:
            if result.probes_used >= self.config.total_budget:
                break
            probed.add(addr)
            probes += 1
            result.probes_used += 1
            if self.scanner.probe(addr, self.config.port):
                hits += 1
                result.hits.add(addr)
        return hits, probes


def run_sixtree(
    seeds: Sequence[int] | Iterable[int],
    scanner: Scanner,
    total_budget: int,
    **kwargs,
) -> SixTreeResult:
    """Convenience wrapper around :class:`SixTree`."""
    config = SixTreeConfig(total_budget=total_budget, **kwargs)
    return SixTree(scanner, config).run([int(s) for s in seeds])
