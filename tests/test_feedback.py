"""Tests for the §8 scanner-integrated feedback loop: the phased campaign.

Every run here is a :class:`~repro.campaign.Campaign` driven by a
:class:`~repro.predictive.PredictiveAllocator` over a toy
:class:`~repro.simnet.ground_truth.GroundTruth`: 6Gen is re-planned per
phase from scan feedback, hit-concentrating /64s and /96s get the §6.2
random-probe test between phases, and every probe — scan or alias
test — is charged to one ledger (``Campaign.probes_sent``).
"""

import pytest

from repro.campaign import Campaign, CampaignSpec
from repro.ipv6.prefix import Prefix
from repro.predictive import PredictiveAllocator
from repro.simnet.aliasing import AliasedRegionSet
from repro.simnet.ground_truth import GroundTruth
from repro.telemetry.sinks import read_jsonl

from conftest import addr


class _RecordingTruth(GroundTruth):
    """A ground truth that logs every ``(address, attempt)`` it answers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.queries: list[tuple[int, int]] = []

    def responsive_many(self, addrs, port=80, attempt=0):
        addrs = [int(a) for a in addrs]
        self.queries.extend((a, attempt) for a in addrs)
        return super().responsive_many(addrs, port, attempt)


def _truth(hosts=(), aliased=(), cls=GroundTruth):
    regions = AliasedRegionSet()
    for prefix in aliased:
        regions.add_prefix(Prefix.parse(prefix))
    return cls({80: set(hosts)}, regions)


def _campaign(truth, groups, budget, *, allocator=None, checkpoint=None):
    groups = {Prefix.parse(prefix): seeds for prefix, seeds in groups.items()}
    return Campaign(
        truth, None, groups, CampaignSpec(budget=budget, dealias=False),
        allocation=allocator or PredictiveAllocator(),
        checkpoint_path=str(checkpoint) if checkpoint else None,
    )


def _phase_events(path):
    return [e for e in read_jsonl(path) if e.get("event") == "campaign_phase"]


#: 256 real hosts, one per (k, i), spread over 16 /96s of one /64: every
#: phase finds hits in /96s no earlier phase tested.
SPREAD_HOSTS = [
    addr(f"2001:db8::{k:x}:0:0:{i:x}") for k in range(16) for i in range(16)
]
SPREAD_SEEDS = [h for h in SPREAD_HOSTS if h & 0xF in (0, 5, 10)]


class TestAdaptiveBasics:
    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="budget"):
            CampaignSpec(budget=-1)

    def test_zero_budget(self):
        truth = _truth(hosts=[addr("2001:db8::1")])
        result = _campaign(
            truth, {"2001:db8::/32": [addr("2001:db8::1")]}, 0
        ).run()
        assert result.probes_sent == 0
        assert result.raw_hits == set()

    def test_empty_seeds(self):
        result = _campaign(_truth(), {"2001:db8::/32": []}, 100).run()
        assert result.probes_sent == 0

    def test_budget_never_exceeded(self):
        hosts = [addr(f"2001:db8::{i:x}") for i in range(1, 40)]
        result = _campaign(_truth(hosts), {"2001:db8::/32": hosts[:10]}, 50).run()
        assert result.probes_sent <= 50
        # Alias tests that would not fit the budget left after a phase's
        # scan never start, so the ceiling holds when they bind too.
        for budget in (60, 100, 150, 200):
            for phases in (2, 3):
                campaign = _campaign(
                    _truth(SPREAD_HOSTS), {"2001:db8::/32": SPREAD_SEEDS},
                    budget, allocator=PredictiveAllocator(phases=phases),
                )
                assert campaign.run().probes_sent <= budget, (budget, phases)

    def test_finds_unseen_hosts(self):
        hosts = [addr(f"2001:db8::{i:x}") for i in range(1, 200)]
        seeds = hosts[::8]
        result = _campaign(_truth(hosts), {"2001:db8::/32": seeds}, 400).run()
        assert len(result.raw_hits - set(seeds)) > 50
        assert result.raw_hits <= set(hosts)


class TestEarlyTermination:
    DEAD = [addr("2001:db8::1"), addr("2001:db8::f00f"),
            addr("2001:db8::0bb0"), addr("2001:db8::5a5a")]
    LIVE = [addr(f"2001:db9::{i:x}") for i in range(1, 250)]

    def _run(self, tmp_path):
        # Two prefixes: around the dead one only its seeds respond, the
        # live one is a dense block of hosts.
        path = tmp_path / "campaign.jsonl"
        campaign = _campaign(
            _truth(hosts=self.DEAD + self.LIVE),
            {"2001:db8::/32": self.DEAD, "2001:db9::/32": self.LIVE[:40]},
            1000, checkpoint=path,
        )
        return campaign, campaign.run(), _phase_events(path)

    def test_dead_region_terminated(self, tmp_path):
        # After the uniform pilot, the dead prefix's share shrinks: the
        # loop stops pouring budget into space that does not answer.
        campaign, result, events = self._run(tmp_path)
        pilot, replan = events[0]["allocations"], events[1]["allocations"]
        assert pilot["2001:db8::/32"] == pilot["2001:db9::/32"]
        assert replan["2001:db8::/32"] < replan["2001:db9::/32"] / 4
        dead = campaign.progress[Prefix.parse("2001:db8::/32")]
        assert dead.probes < 1000  # under its even share of the budget
        assert result.probes_sent < 2000  # unused budget is returned

    def test_productive_region_completed(self, tmp_path):
        campaign, result, _ = self._run(tmp_path)
        live = campaign.progress[Prefix.parse("2001:db9::/32")]
        assert live.hits == len(self.LIVE)
        assert set(self.LIVE) <= result.raw_hits


class TestAliasHalting:
    def test_aliased_region_halted(self, tmp_path):
        # Seeds inside an aliased /96: the phase's hits concentrate
        # there, the §6.2 test flags it, and the later phases find no
        # fresh targets outside it.
        seeds = [addr(f"2600:aaaa::{i:x}") for i in (1, 2, 3, 0x11, 0x22, 0x33)]
        path = tmp_path / "campaign.jsonl"
        campaign = _campaign(
            _truth(aliased=["2600:aaaa::/96"]), {"2600:aaaa::/32": seeds},
            100_000, checkpoint=path,
        )
        result = campaign.run()
        assert _phase_events(path)[0]["alias_tests"]["2600:aaaa::/96"] is True
        assert campaign.aliased_hits == result.raw_hits
        # halting early means far less than the full budget is burned
        assert result.probes_sent < 20_000

    def test_dense_real_region_not_halted(self, tmp_path):
        # A fully responsive *range* of real hosts is not aliasing: the
        # test's random probes fall outside the dense block.
        hosts = [addr(f"2001:db8::{i:x}") for i in range(0, 256)]
        path = tmp_path / "campaign.jsonl"
        campaign = _campaign(
            _truth(hosts), {"2001:db8::/32": hosts[::4]}, 1000, checkpoint=path
        )
        result = campaign.run()
        verdicts = {
            prefix: bad
            for event in _phase_events(path)
            for prefix, bad in event["alias_tests"].items()
        }
        assert verdicts and not any(verdicts.values())
        assert campaign.aliased_hits == set()
        assert result.raw_hits == set(hosts)


class TestBudgetAccounting:
    """Every probe lands on the campaign's one ledger, within budget."""

    def test_mid_round_alias_halt_protects_subset_regions(self, tmp_path):
        # One prefix holds an aliased /96 and a real /64.  The seeds span
        # far more of the /96 than the pilot can probe; phase 0 flags
        # it, and the later phases keep scanning the prefix, but never
        # inside the flagged /96 — where every probe would answer.
        aliased = Prefix.parse("2600:aaaa::/96")
        seeds = [
            addr(f"2600:aaaa::{i:x}:{j:x}")
            for i, j in ((1, 1), (2, 0x20), (3, 0x300), (0x11, 0x4000),
                         (0x22, 5), (0x33, 0x66))
        ]
        real = [addr(f"2600:aaaa:0:1::{i:x}") for i in range(1, 200)]
        path = tmp_path / "campaign.jsonl"
        _campaign(
            _truth(real, aliased=[str(aliased)]),
            {"2600:aaaa::/32": seeds + real[::10]}, 3000, checkpoint=path,
        ).run()
        first, *later = _phase_events(path)
        assert first["alias_tests"][str(aliased)] is True
        assert later and all(e["scanned"] for e in later)
        for event in later:
            assert not any(aliased.contains(h) for h in event["hits_new"])

    def test_skip_overlap_does_not_starve_region(self):
        # Every phase regenerates 6Gen at its cumulative quota, so its
        # targets overlap earlier phases'; already-probed addresses are
        # filtered out, so no address gets a first probe twice and the
        # overlap does not eat into the phase's allocation.
        truth = _truth(hosts=TestEarlyTermination.DEAD, cls=_RecordingTruth)
        campaign = _campaign(
            truth, {"2001:db8::/32": TestEarlyTermination.DEAD}, 600
        )
        result = campaign.run()
        first_probes = [a for a, attempt in truth.queries if attempt == 0]
        assert len(first_probes) == len(set(first_probes))
        state = campaign.progress[Prefix.parse("2001:db8::/32")]
        assert state.probes == state.allocated
        assert result.probes_sent == 600

    def test_alias_test_probes_are_charged(self):
        # The alias-test probes reach the world like scan probes do: the
        # truth's query count and the campaign's ledger agree exactly.
        seeds = [addr("2600:aaaa::1"), addr("2600:aaaa::2"), addr("2600:aaaa::3")]
        truth = _truth(aliased=["2600:aaaa::/96"], cls=_RecordingTruth)
        campaign = _campaign(truth, {"2600:aaaa::/32": seeds}, 200)
        result = campaign.run()
        assert campaign.alias_probes > 0
        assert campaign.aliased_hits
        assert result.probes_sent <= 200
        assert len(truth.queries) == result.probes_sent

    def test_budget_exhaustion_mid_alias_test_is_inconclusive(self):
        # Budget 12: the 3-probe pilot answers in full, the /64 test
        # takes the 9 probes left, and the /96 test — which would have
        # flagged the region — cannot start.  The region stays
        # unflagged and the ledger ends exactly on the budget.
        seeds = [addr("2600:aaaa::1"), addr("2600:aaaa::2")]
        truth = _truth(aliased=["2600:aaaa::/96"], cls=_RecordingTruth)
        campaign = _campaign(truth, {"2600:aaaa::/32": seeds}, 12)
        result = campaign.run()
        assert result.probes_sent == 12
        assert len(truth.queries) == 12
        assert campaign.aliased_hits == set()


class TestFeedbackRounds:
    def test_round_count_bounded(self, tmp_path):
        hosts = [addr(f"2001:db8::{i:x}") for i in range(1, 50)]
        path = tmp_path / "campaign.jsonl"
        _campaign(
            _truth(hosts), {"2001:db8::/32": hosts[:10]}, 10_000,
            allocator=PredictiveAllocator(phases=3), checkpoint=path,
        ).run()
        phases = [e["phase"] for e in _phase_events(path)]
        assert phases == sorted(set(phases))
        assert phases and max(phases) < 3

    def test_hit_rate_property(self):
        hosts = [addr(f"2001:db8::{i:x}") for i in range(1, 100)]
        campaign = _campaign(_truth(hosts), {"2001:db8::/32": hosts[:20]}, 500)
        campaign.run()
        for state in campaign.progress.values():
            assert 0.0 <= state.hit_rate <= 1.0
