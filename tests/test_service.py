"""Tests for the multi-tenant campaign service (fairness, isolation,
budgets, preempt/resume bit-identity)."""

import pytest

from repro.analysis import experiments as ex
from repro.campaign import Campaign, CampaignSpec
from repro.faults import FaultyGroundTruth, RateLimiter, WorkerCrash
from repro.scanner.engine import ScanConfig
from repro.scanner.schedule import RatePolicy
from repro.service import CampaignService, TenantPolicy


SCALE = 0.1
BUDGET = 1_500


def _context():
    return ex.standard_context(SCALE)


def _spec(**overrides):
    defaults = dict(
        budget=BUDGET, scan_config=ScanConfig(batch_size=128, retries=1)
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def _service(context, **kwargs):
    return CampaignService(
        context.internet.truth, context.internet.bgp, **kwargs
    )


def _solo(context, spec, truth=None):
    return Campaign(
        truth if truth is not None else context.internet.truth,
        context.internet.bgp, context.groups, spec,
    ).run()


class TestTenantPolicy:
    def test_quantum_validated(self):
        with pytest.raises(ValueError):
            TenantPolicy(quantum=0)

    def test_duplicate_tenant_rejected(self):
        service = _service(_context())
        service.register_tenant("a")
        with pytest.raises(ValueError):
            service.register_tenant("a")

    def test_unknown_tenant_rejected(self):
        service = _service(_context())
        with pytest.raises(KeyError):
            service.submit("ghost", _context().groups, _spec())

    def test_unknown_job_rejected(self):
        service = _service(_context())
        with pytest.raises(KeyError):
            service.progress("job-99")


class TestInterleavedParity:
    def test_each_tenant_result_identical_to_solo_run(self):
        context = _context()
        specs = {
            "alpha": _spec(),
            "beta": _spec(budget=800),
            "gamma": _spec(scan_config=ScanConfig(batch_size=64, retries=2)),
        }
        solos = {name: _solo(context, spec) for name, spec in specs.items()}

        service = _service(context)
        jobs = {}
        for i, (name, spec) in enumerate(specs.items()):
            service.register_tenant(name, TenantPolicy(quantum=1 + i))
            jobs[name] = service.submit(name, context.groups, spec)
        service.run_until_idle()

        for name in specs:
            result = service.result(jobs[name])
            assert service.jobs[jobs[name]].state == "finished"
            assert result.raw_hits == solos[name].raw_hits, name
            assert result.scan.stats == solos[name].scan.stats, name
            assert result.clean_hits == solos[name].clean_hits, name

    def test_rate_capped_tenant_matches_explicit_overlay(self):
        context = _context()
        policy = RatePolicy(budget=32, window=256)
        overlay = FaultyGroundTruth(
            context.internet.truth,
            RateLimiter.from_policy(policy, seed=7, prefix_len=64),
        )
        solo = _solo(context, _spec(), truth=overlay)

        service = _service(context)
        service.register_tenant(
            "capped", TenantPolicy(prefix_rate=policy, rate_seed=7)
        )
        job = service.submit("capped", context.groups, _spec())
        service.run_until_idle()
        result = service.result(job)
        assert result.raw_hits == solo.raw_hits
        assert result.scan.stats == solo.scan.stats
        # and the cap actually bites
        uncapped = _solo(context, _spec())
        assert len(result.raw_hits) < len(uncapped.raw_hits)


class TestFairness:
    def test_equal_tenants_progress_within_one_quantum(self):
        context = _context()
        quantum = 2
        service = _service(context)
        jobs = []
        for i in range(3):
            name = f"t{i}"
            service.register_tenant(name, TenantPolicy(quantum=quantum))
            jobs.append(service.submit(name, context.groups, _spec()))
        # Let every campaign begin, then watch the spread mid-flight.
        spreads = []
        while service.step():
            done = [
                service.jobs[j].campaign.execution.batches_done
                for j in jobs
                if service.jobs[j].campaign.execution is not None
                and service.jobs[j].state == "running"
            ]
            if len(done) == len(jobs):
                spreads.append(max(done) - min(done))
        assert spreads, "never observed all three running"
        batch = _spec().scan_config.batch_size
        assert max(spreads) <= quantum, (
            f"fairness spread {max(spreads)} batches exceeds quantum "
            f"{quantum} (batch_size {batch})"
        )

    def test_round_robin_order_is_stable(self):
        context = _context()
        service = _service(context)
        service.register_tenant("a", TenantPolicy(quantum=1))
        service.register_tenant("b", TenantPolicy(quantum=1))
        ja = service.submit("a", context.groups, _spec())
        jb = service.submit("b", context.groups, _spec())
        # two begin turns, then strictly alternating probe turns
        service.step()
        service.step()
        order = []
        for _ in range(6):
            head = service._rotation[0]
            service.step()
            order.append(head)
        assert order == [ja, jb, ja, jb, ja, jb]


class TestBudgets:
    def test_exhausted_tenant_interrupted_with_partial_result(self):
        context = _context()
        limit = 600
        batch = 128
        service = _service(context)
        service.register_tenant("small", TenantPolicy(probe_budget=limit))
        job = service.submit("small", context.groups, _spec())
        service.run_until_idle()
        assert service.jobs[job].state == "budget_exhausted"
        result = service.result(job)
        assert result.interrupted
        assert result.probes_sent >= limit
        # enforcement is batch-granular: overshoot bounded by one batch
        assert result.probes_sent < limit + batch

    def test_exhaustion_never_stalls_other_tenants(self):
        context = _context()
        solo = _solo(context, _spec())
        service = _service(context)
        service.register_tenant("small", TenantPolicy(probe_budget=400))
        service.register_tenant("big")
        js = service.submit("small", context.groups, _spec())
        jb = service.submit("big", context.groups, _spec())
        service.run_until_idle()
        assert service.jobs[js].state == "budget_exhausted"
        assert service.jobs[jb].state == "finished"
        assert service.result(jb).raw_hits == solo.raw_hits
        assert service.result(jb).scan.stats == solo.scan.stats

    def test_budget_spans_all_tenant_jobs(self):
        context = _context()
        service = _service(context)
        service.register_tenant("t", TenantPolicy(probe_budget=900))
        j1 = service.submit("t", context.groups, _spec(budget=300))
        j2 = service.submit("t", context.groups, _spec(budget=300))
        j3 = service.submit("t", context.groups, _spec(budget=300))
        service.run_until_idle()
        states = [service.jobs[j].state for j in (j1, j2, j3)]
        assert "budget_exhausted" in states
        spent = service.tenants["t"].budget.spent
        assert spent >= 900
        # a queued job of an exhausted tenant must never have begun
        never_ran = [
            j for j in (j1, j2, j3)
            if service.jobs[j].state == "budget_exhausted"
            and service.jobs[j].campaign.execution is None
        ]
        for j in never_ran:
            assert service.jobs[j].campaign.state == "created"


class TestIsolation:
    def test_crashing_campaign_never_stalls_others(self):
        context = _context()
        solo = _solo(context, _spec())
        service = _service(context)
        service.register_tenant("victim")
        service.register_tenant("bystander")
        jv = service.submit(
            "victim", context.groups, _spec(), crash=WorkerCrash(at_batch=2)
        )
        jb = service.submit("bystander", context.groups, _spec())
        service.run_until_idle()
        assert service.jobs[jv].state == "failed"
        assert "InjectedWorkerCrash" in service.jobs[jv].error
        assert service.jobs[jv].campaign.state == "failed"
        assert service.jobs[jb].state == "finished"
        assert service.result(jb).raw_hits == solo.raw_hits

    def test_failed_job_has_no_result(self):
        context = _context()
        service = _service(context)
        service.register_tenant("t")
        job = service.submit(
            "t", context.groups, _spec(), crash=WorkerCrash(at_batch=0)
        )
        service.run_until_idle()
        with pytest.raises(RuntimeError):
            service.result(job)


class TestPreemptResume:
    def test_warm_pause_resume_is_bit_identical(self):
        context = _context()
        solo = _solo(context, _spec())
        service = _service(context)
        service.register_tenant("t")
        job = service.submit("t", context.groups, _spec())
        for _ in range(6):
            service.step()
        service.pause(job)
        assert service.idle
        assert service.jobs[job].state == "paused"
        service.resume(job)
        service.run_until_idle()
        result = service.result(job)
        assert result.raw_hits == solo.raw_hits
        assert result.scan.stats == solo.scan.stats

    def test_cold_preempt_resume_through_checkpoint(self, tmp_path):
        context = _context()
        solo = _solo(context, _spec())
        ckpt = str(tmp_path / "svc.jsonl")

        first = _service(context)
        first.register_tenant("t", TenantPolicy(probe_budget=700))
        j1 = first.submit("t", context.groups, _spec(), checkpoint_path=ckpt)
        first.run_until_idle()
        assert first.jobs[j1].state == "budget_exhausted"

        # A fresh service instance (think: new process after a kill)
        # resumes the campaign from the checkpoint file.
        second = _service(context)
        second.register_tenant("t")
        j2 = second.submit(
            "t", context.groups, _spec(), checkpoint_path=ckpt, resume=True
        )
        second.run_until_idle()
        result = second.result(j2)
        assert result.raw_hits == solo.raw_hits
        assert result.scan.stats == solo.scan.stats

    def test_pause_finished_job_rejected(self):
        context = _context()
        service = _service(context)
        service.register_tenant("t")
        job = service.submit("t", context.groups, _spec())
        service.run_until_idle()
        with pytest.raises(ValueError):
            service.pause(job)
        with pytest.raises(ValueError):
            service.resume(job)


class TestProgress:
    def test_progress_snapshot_fields(self):
        context = _context()
        service = _service(context)
        service.register_tenant("t", TenantPolicy(probe_budget=500_000))
        job = service.submit("t", context.groups, _spec(), name="my-scan")
        snap = service.progress(job)
        assert snap["state"] == "queued"
        assert snap["name"] == "my-scan"
        assert "probes_sent" not in snap  # nothing armed yet
        service.step()  # begin
        service.step()  # some batches
        snap = service.progress(job)
        assert snap["state"] == "running"
        assert snap["probes_sent"] > 0
        assert snap["batches_done"] > 0
        assert snap["targets"] > 0
        assert snap["budget_remaining"] < 500_000
        service.run_until_idle()
        assert service.progress(job)["state"] == "finished"
        assert len(service.progress_all()) == 1


class TestEpochBoundaries:
    """Service jobs interacting with DynamicWorld.advance_to.

    These use a private world (not the cached ``_context``): the whole
    point is to mutate it.
    """

    def _dynamic_world(self, seed=17):
        from repro.simnet import default_internet
        from repro.simnet.bgp import group_by_routed_prefix
        from repro.simnet.dns import collect_seeds
        from repro.simnet.dynamics import DynamicWorld

        world = default_internet(scale=0.05, rng_seed=seed)
        seeds = collect_seeds(world, rng_seed=7)
        groups = group_by_routed_prefix(seeds.addresses(), world.bgp)
        return world, DynamicWorld(world, churn_seed=5), groups

    def _spec(self):
        return CampaignSpec(
            budget=300,
            scan_config=ScanConfig(batch_size=64),
        )

    def test_same_epoch_pause_resume_is_bit_identical(self):
        world, dynamic, groups = self._dynamic_world()
        spec = self._spec()
        solo = Campaign(world.truth, world.bgp, groups, spec).run()

        service = CampaignService(world.truth, world.bgp)
        service.register_tenant("t")
        job_id = service.submit("t", groups, spec)
        for _ in range(3):
            service.step()
        service.pause(job_id)
        # Advancing to the *current* epoch is a no-op: nothing mutates,
        # the version token stands, and the job resumes cleanly.
        dynamic.advance_to(0)
        service.resume(job_id)
        service.run_until_idle()
        job = service.jobs[job_id]
        assert job.state == "finished", job.error
        assert job.result.raw_hits == solo.raw_hits
        assert job.result.clean_hits == solo.clean_hits

    def test_resume_after_advance_fails_with_stale_world_error(self):
        world, dynamic, groups = self._dynamic_world()
        service = CampaignService(world.truth, world.bgp)
        service.register_tenant("t")
        job_id = service.submit("t", groups, self._spec())
        # Run until the scan is armed and mid-flight, then pause.
        while service.jobs[job_id].state != "running":
            service.step()
        service.step()
        service.pause(job_id)
        dynamic.advance_to(1)
        service.resume(job_id)
        service.run_until_idle()
        job = service.jobs[job_id]
        assert job.state == "failed"
        assert "StaleWorldError" in job.error
        assert "advance" in job.error  # points at the epoch move

    def test_job_submitted_before_advance_but_begun_after_runs(self):
        world, dynamic, groups = self._dynamic_world()
        service = CampaignService(world.truth, world.bgp)
        service.register_tenant("t")
        job_id = service.submit("t", groups, self._spec())
        # The queued job holds no frozen scan state yet; begin() after
        # the epoch move plans against the new world and succeeds.
        dynamic.advance_to(2)
        service.run_until_idle()
        job = service.jobs[job_id]
        assert job.state == "finished", job.error
        assert job.result.raw_hits

    def test_failed_job_does_not_poison_the_rotation(self):
        world, dynamic, groups = self._dynamic_world()
        service = CampaignService(world.truth, world.bgp)
        service.register_tenant("a")
        service.register_tenant("b")
        stale_id = service.submit("a", groups, self._spec())
        while service.jobs[stale_id].state != "running":
            service.step()
        service.step()
        dynamic.advance_to(1)  # strands tenant a's in-flight scan
        fresh_id = service.submit("b", groups, self._spec())
        service.run_until_idle()
        assert service.jobs[stale_id].state == "failed"
        assert "StaleWorldError" in service.jobs[stale_id].error
        assert service.jobs[fresh_id].state == "finished"
