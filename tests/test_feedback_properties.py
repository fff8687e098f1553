"""Property-based tests for the dynamic scanners (hypothesis).

Invariants shared by the §8 phased feedback campaign and the
6Tree-style successor: the probe budget is a hard ceiling, reported
hits are a subset of truly responsive addresses, determinism under a
fixed RNG seed, and — for the campaign — budget conservation: every
probe is charged to exactly one purpose.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import Campaign, CampaignSpec
from repro.ipv6.prefix import Prefix
from repro.predictive import PredictiveAllocator
from repro.scanner.engine import ScanConfig, Scanner
from repro.simnet.aliasing import AliasedRegionSet
from repro.simnet.ground_truth import GroundTruth
from repro.successors.sixtree import run_sixtree


@st.composite
def worlds(draw):
    """A small ground truth plus a seed subset of its hosts."""
    network = draw(st.integers(min_value=0, max_value=(1 << 64) - 1)) << 64
    host_count = draw(st.integers(min_value=2, max_value=60))
    lows = draw(
        st.lists(
            st.integers(min_value=0, max_value=0x3FF),
            min_size=host_count,
            max_size=host_count,
            unique=True,
        )
    )
    hosts = {network | low for low in lows}
    seed_fraction = draw(st.integers(min_value=1, max_value=len(hosts)))
    seeds = sorted(hosts)[:seed_fraction]
    return hosts, seeds


budgets = st.integers(min_value=0, max_value=800)


def _truth(hosts):
    return GroundTruth({80: hosts}, AliasedRegionSet())


def _scanner(hosts):
    return Scanner(_truth(hosts), rng_seed=0)


def _campaign(hosts, seeds, budget):
    """A phased campaign over the seeds' /64, scanned without retries."""
    prefix = Prefix.containing(seeds[0], 64)
    spec = CampaignSpec(
        budget=budget, dealias=False, scan_config=ScanConfig(retries=0)
    )
    return Campaign(
        _truth(hosts), None, {prefix: seeds}, spec,
        allocation=PredictiveAllocator(),
    )


class TestAdaptiveProperties:
    @settings(max_examples=20, deadline=None)
    @given(worlds(), budgets)
    def test_budget_ceiling_and_hit_validity(self, world, budget):
        hosts, seeds = world
        result = _campaign(hosts, seeds, budget).run()
        assert result.probes_sent <= budget
        assert result.raw_hits <= hosts

    @settings(max_examples=15, deadline=None)
    @given(worlds(), budgets)
    def test_deterministic(self, world, budget):
        hosts, seeds = world
        a, b = _campaign(hosts, seeds, budget), _campaign(hosts, seeds, budget)
        result_a, result_b = a.run(), b.run()
        assert result_a.raw_hits == result_b.raw_hits
        assert result_a.scan.stats == result_b.scan.stats
        assert a.progress == b.progress

    @settings(max_examples=15, deadline=None)
    @given(worlds(), budgets)
    def test_region_probes_sum(self, world, budget):
        # Budget conservation: each probe is either a phase's scan probe,
        # charged to exactly one prefix, or an in-loop alias-test probe.
        hosts, seeds = world
        campaign = _campaign(hosts, seeds, budget)
        result = campaign.run()
        progress = campaign.progress.values()
        assert result.probes_sent == (
            sum(state.probes for state in progress) + campaign.alias_probes
        )
        assert sum(state.hits for state in progress) == len(
            result.raw_hits - campaign.aliased_hits
        )


class TestSixTreeProperties:
    @settings(max_examples=20, deadline=None)
    @given(worlds(), budgets)
    def test_budget_ceiling_and_hit_validity(self, world, budget):
        hosts, seeds = world
        result = run_sixtree(seeds, _scanner(hosts), budget)
        assert result.probes_used <= budget
        assert result.hits <= hosts

    @settings(max_examples=15, deadline=None)
    @given(worlds(), budgets)
    def test_clean_hits_subset(self, world, budget):
        hosts, seeds = world
        result = run_sixtree(seeds, _scanner(hosts), budget)
        assert result.clean_hits() <= result.hits

    @settings(max_examples=15, deadline=None)
    @given(worlds(), budgets)
    def test_deterministic(self, world, budget):
        hosts, seeds = world
        a = run_sixtree(seeds, _scanner(hosts), budget, rng_seed=5)
        b = run_sixtree(seeds, _scanner(hosts), budget, rng_seed=5)
        assert a.hits == b.hits
        assert a.expansions == b.expansions
