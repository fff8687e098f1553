"""Tests for hitlist file I/O."""

import pytest

from repro.datasets.hitlist import (
    iter_hitlist_file,
    read_hitlist,
    read_hitlist_ints,
    write_hitlist,
)
from repro.ipv6.address import AddressError, IPv6Addr

from conftest import addr


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "list.txt"
        addrs = [addr("2001:db8::2"), addr("2001:db8::1"), addr("2001:db8::2")]
        count = write_hitlist(path, addrs)
        assert count == 2  # deduplicated
        back = read_hitlist_ints(path)
        assert back == [addr("2001:db8::1"), addr("2001:db8::2")]  # sorted

    def test_header_written_as_comments(self, tmp_path):
        path = tmp_path / "list.txt"
        write_hitlist(path, [1], header="line one\nline two")
        text = path.read_text()
        assert text.startswith("# line one\n# line two\n")
        assert read_hitlist_ints(path) == [1]

    def test_accepts_ipv6addr_objects(self, tmp_path):
        path = tmp_path / "list.txt"
        write_hitlist(path, [IPv6Addr(5)])
        assert read_hitlist(path) == [IPv6Addr(5)]

    def test_iter_streaming(self, tmp_path):
        path = tmp_path / "list.txt"
        write_hitlist(path, range(10))
        assert len(list(iter_hitlist_file(path))) == 10

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text("# hello\n\n::1\n  \n::2\n")
        assert read_hitlist_ints(path) == [1, 2]

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text("::1\nbogus\n")
        with pytest.raises(AddressError):
            read_hitlist(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text("")
        assert read_hitlist(path) == []


# ---------------------------------------------------------------------------
# Living hitlist: decaying belief over a churning world.
# ---------------------------------------------------------------------------

from repro.hitlist import (
    DEFAULT_DECAY,
    DeltaCampaign,
    DeltaSpec,
    LivingHitlist,
)
from repro.ipv6.addrplane import fuse, pack, unpack


def _cols(*ints):
    return pack(sorted(ints))


class TestLivingHitlistBelief:
    def test_observe_counts_hits_misses_new(self):
        store = LivingHitlist()
        out = store.observe(0, [1, 2, 3], hits={1, 3})
        assert out == {"hits": 2, "misses": 1, "new": 3}
        assert len(store) == 3
        assert store.latest_epoch == 0
        # Re-probing known entries admits nothing new.
        out = store.observe(1, [1, 2], hits={2})
        assert out["new"] == 0

    def test_accepts_packed_columns_and_ints(self):
        a = LivingHitlist()
        a.observe(0, [5, 9], hits={9})
        b = LivingHitlist()
        b.observe(0, _cols(5, 9), hits={9})
        assert a.state_digest() == b.state_digest()

    def test_score_decay_schedule(self):
        store = LivingHitlist()
        store.observe(0, [7], hits={7})
        assert store.decayed_scores(0).tolist() == [1.0]
        # One epoch later belief has decayed by exactly the decay rate.
        assert store.decayed_scores(1).tolist() == [DEFAULT_DECAY]
        # A second hit decays-then-bumps: s = 1*d^2 + 1.
        store.observe(2, [7], hits={7})
        expected = DEFAULT_DECAY**2 + 1.0
        assert store.decayed_scores(2).tolist() == [expected]

    def test_believed_live_threshold(self):
        store = LivingHitlist()
        store.observe(0, [7], hits={7})
        assert unpack(*store.believed_live(0)) == [7]
        # 0.6^5 ≈ 0.078 < 0.1 — belief fades without confirmation.
        assert unpack(*store.believed_live(5)) == []

    def test_never_seen_is_never_believed(self):
        store = LivingHitlist()
        store.observe(0, [7], hits=set())
        assert unpack(*store.believed_live(0)) == []
        assert unpack(*store.due_for_reprobe(0)) == []

    def test_due_for_reprobe_cadence_and_forgetting(self):
        store = LivingHitlist()
        store.observe(0, [7], hits={7})
        # Fresh belief (score 1.0) is not due.
        assert unpack(*store.due_for_reprobe(0)) == []
        # After two epochs 0.36 < 0.45: due.
        assert unpack(*store.due_for_reprobe(2)) == [7]
        # Silent past miss_forget_age: abandoned.
        assert unpack(*store.due_for_reprobe(2, miss_forget_age=1)) == []

    def test_probed_within_keys(self):
        store = LivingHitlist()
        store.observe(0, [5], hits={5})
        store.observe(3, [9], hits=set())
        keys = store.probed_within(3, 2)
        assert keys.tolist() == fuse(*_cols(9)).tolist()
        assert len(store.probed_within(9, 2)) == 0

    def test_epoch_regression_rejected(self):
        store = LivingHitlist()
        store.observe(3, [1], hits=set())
        with pytest.raises(ValueError, match="epoch-ordered"):
            store.observe(2, [2], hits=set())
        # Same-epoch observes (multiple campaigns per epoch) are fine.
        store.observe(3, [2], hits={2})

    def test_freshness_and_staleness_math(self):
        store = LivingHitlist()
        store.observe(0, [1, 2, 3], hits={1, 2, 3})
        # Truth now: {2, 3, 4}. Believed: {1, 2, 3}.
        report = store.freshness(0, _cols(2, 3, 4))
        assert report["overlap"] == 2
        assert report["freshness"] == pytest.approx(2 / 3)
        assert report["staleness"] == pytest.approx(1 / 3)

    def test_summary_shape(self):
        store = LivingHitlist()
        store.observe(0, [1, 2], hits={1})
        summary = store.summary()
        assert summary["entries"] == 2
        assert summary["responders"] == 1
        assert summary["believed_live"] == 1

    def test_snapshot_requires_path(self):
        with pytest.raises(ValueError, match="path"):
            LivingHitlist().snapshot()

    def test_decay_validation(self):
        with pytest.raises(ValueError):
            LivingHitlist(decay=1.0)
        with pytest.raises(ValueError):
            LivingHitlist(decay=0.0)


class TestLivingHitlistPersistence:
    def test_log_replay_round_trip(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = LivingHitlist(path=path)
        store.observe(0, [10, 11, 12], hits={10, 11})
        store.observe(1, [10, 13], hits={13})
        digest = store.state_digest()
        store.close()
        back = LivingHitlist.open(path)
        assert back.state_digest() == digest
        assert back.latest_epoch == 1
        back.close()

    def test_snapshot_plus_tail_round_trip(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = LivingHitlist(path=path)
        store.observe(0, [10, 11], hits={10})
        store.snapshot()
        store.observe(1, [12], hits={12})  # tail after the snapshot
        digest = store.state_digest()
        store.close()
        back = LivingHitlist.open(path)
        assert back.state_digest() == digest
        back.close()

    def test_open_missing_file_bootstraps_empty(self, tmp_path):
        store = LivingHitlist.open(tmp_path / "fresh.jsonl")
        assert len(store) == 0
        assert store.latest_epoch == -1
        # ...and is immediately writable.
        store.observe(0, [1], hits={1})
        store.close()

    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = LivingHitlist(path=path)
        store.observe(0, [10, 11], hits={10})
        digest = store.state_digest()
        store.observe(1, [12], hits={12})
        store.close()
        # Chop the final record mid-line, as a crash would.
        raw = path.read_bytes()
        path.write_bytes(raw[: raw.index(b"\n") + 10])
        back = LivingHitlist.open(path)
        assert back.state_digest() == digest
        back.close()

    def test_reopen_continues_the_timeline(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with LivingHitlist(path=path) as store:
            store.observe(0, [10], hits={10})
        with LivingHitlist.open(path) as back:
            back.observe(1, [10], hits=set())
        with LivingHitlist.open(path) as final:
            assert final.latest_epoch == 1
            assert len(final) == 1


class TestDeltaCampaign:
    """Delta planning + the campaign targets-override path."""

    @pytest.fixture(scope="class")
    def world(self):
        from repro.simnet import default_internet

        return default_internet(scale=0.05, rng_seed=13)

    def _seed_store(self, world, path=None):
        """Epoch-0 bootstrap: a full campaign's clean hits."""
        from repro.campaign.pipeline import Campaign, CampaignSpec
        from repro.scanner import ScanConfig
        from repro.simnet.bgp import group_by_routed_prefix
        from repro.simnet.dns import collect_seeds

        seeds = collect_seeds(world, rng_seed=7)
        groups = group_by_routed_prefix(seeds.addresses(), world.bgp)
        spec = CampaignSpec(
            budget=300,
            scan_config=ScanConfig(batch_size=64),
        )
        result = Campaign(world.truth, world.bgp, groups, spec).run()
        store = LivingHitlist(path=path)
        store.observe(0, _cols(*result.run.all_targets()), result.clean_hits)
        return store, spec

    def test_plan_is_deterministic(self, world):
        store, spec = self._seed_store(world)
        delta = DeltaCampaign(store, world.bgp, spec)
        a = delta.plan(2)
        b = delta.plan(2)
        assert a.hi.tobytes() == b.hi.tobytes()
        assert a.lo.tobytes() == b.lo.tobytes()
        assert 0 < a.total <= a.reprobe_count + a.explore_count

    def test_plan_identical_from_independent_store_replicas(
        self, world, tmp_path
    ):
        """Same (log, epoch) → bit-identical plan, wherever replayed."""
        path = tmp_path / "store.jsonl"
        store, spec = self._seed_store(world, path=path)
        plan = DeltaCampaign(store, world.bgp, spec).plan(2)
        store.close()
        replica = LivingHitlist.open(path)
        replan = DeltaCampaign(replica, world.bgp, spec).plan(2)
        replica.close()
        assert plan.hi.tobytes() == replan.hi.tobytes()
        assert plan.lo.tobytes() == replan.lo.tobytes()

    def test_scan_hits_identical_at_workers_1_and_2(self, world):
        from dataclasses import replace

        from repro.scanner import ScanConfig

        store, spec = self._seed_store(world)
        hits = {}
        for workers in (1, 2):
            wspec = replace(
                spec,
                scan_config=ScanConfig(batch_size=64, workers=workers),
            )
            delta = DeltaCampaign(store, world.bgp, wspec)
            plan = delta.plan(2)
            assert not plan.is_empty
            result = delta.campaign(world.truth, plan).run()
            hits[workers] = result.raw_hits
        assert hits[1] == hits[2]

    def test_reprobe_skips_fresh_belief(self, world):
        store, spec = self._seed_store(world)
        delta = DeltaCampaign(store, world.bgp, spec)
        # Epoch 1: score 0.6 >= 0.45, nothing is due yet.
        assert delta.plan(1).reprobe_count == 0
        # Epoch 2: 0.36 < 0.45, every responder is due.
        assert delta.plan(2).reprobe_count == len(
            store.known_responders()[0]
        )

    def test_explore_respects_budget_and_recency_filter(self, world):
        store, spec = self._seed_store(world)
        tight = DeltaSpec(explore_fraction=0.0)
        plan = DeltaCampaign(store, world.bgp, spec, delta=tight).plan(2)
        assert plan.explore_count == 0
        wide = DeltaSpec(miss_revisit_age=3)
        filtered = DeltaCampaign(
            store, world.bgp, spec, delta=wide
        ).plan(2)
        loose = DeltaCampaign(
            store, world.bgp, spec, delta=DeltaSpec(miss_revisit_age=0)
        ).plan(2)
        # A wider revisit window can only drop more generated targets.
        assert filtered.filtered_recent >= loose.filtered_recent

    def test_run_ingests_clean_hits_not_raw(self, world):
        """Aliased hits must enter the store as misses (§6.2)."""
        store, spec = self._seed_store(world)
        delta = DeltaCampaign(store, world.bgp, spec)
        plan, result = delta.run(world.truth, 2)
        assert result is not None
        aliased_raw = result.raw_hits - result.clean_hits
        if not aliased_raw:
            pytest.skip("plan never wandered into an aliased region")
        believed = set(unpack(*store.believed_live(2)))
        fresh_aliased = aliased_raw - set(store.addresses())
        assert not (believed & fresh_aliased)

    def test_empty_store_plans_nothing(self, world):
        from repro.campaign.pipeline import CampaignSpec

        delta = DeltaCampaign(
            LivingHitlist(), world.bgp, CampaignSpec(budget=100)
        )
        plan = delta.plan(0)
        assert plan.is_empty
        replan, result = delta.run(world.truth, 0)
        assert replan.is_empty
        assert result is None


class TestCampaignTargetsOverride:
    def test_monolithic_and_stepwise_agree(self):
        from repro.campaign.pipeline import Campaign, CampaignSpec
        from repro.scanner import ScanConfig
        from repro.simnet import default_internet

        world = default_internet(scale=0.05, rng_seed=13)
        targets = _cols(*sorted(world.all_active_hosts())[:200])
        spec = CampaignSpec(
            budget=100,
            scan_config=ScanConfig(batch_size=32),
        )
        mono = Campaign(
            world.truth, world.bgp, {}, spec, targets=targets
        ).run()
        stepped = Campaign(
            world.truth, world.bgp, {}, spec, targets=targets
        )
        stepped.begin()
        while stepped.step():
            pass
        step_result = stepped.finish()
        assert mono.run is None and step_result.run is None
        assert mono.raw_hits == step_result.raw_hits
        assert mono.clean_hits == step_result.clean_hits
