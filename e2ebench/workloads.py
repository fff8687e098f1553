"""The benchmark's three workloads, their inputs and their output checks.

Every workload runs in this process with no pools: serial generation
(``gen_workers=None``), ``ScanConfig(workers=1)``, and therefore
dealiasing with one worker.  Inputs come only from the world seeds,
which :func:`world_seeds` derives from the benchmark's ``--seed``.

* ``classic`` — one §6 campaign through ``Campaign.run``: per-prefix
  6Gen at 10 k budget, scan, §6.2 dealias.
* ``rescan`` — a generation-free hitlist rescan: a fixed target list
  (every DNS seed's low 9 bits swept, deduplicated) scanned at churn
  epochs 0, 1 and 2 over a bursty-loss overlay with retries and a
  checkpoint file, each outcome observed into a disk-backed living
  hitlist that is snapshotted at the end.
* ``phased`` — one predictive campaign: three plan→generate→scan phases
  at 5 k budget per prefix with in-loop alias tests.

A workload's ``run`` times itself with a :class:`Stopwatch` and pauses
it while it checks outputs, so checks never count toward ``wall_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro import simnet
from repro.campaign import Campaign, CampaignSpec
from repro.faults import BurstyLoss, FaultyGroundTruth
from repro.hitlist import LivingHitlist
from repro.ipv6.addrplane import pack
from repro.predictive import PredictiveAllocator, policy_labels
from repro.scanner.engine import ScanConfig

#: World scale shared by every workload (about 55 routed prefixes).
SCALE = 0.3
PORT = 80
CLASSIC_BUDGET = 3_000
PHASED_BUDGET = 2_000
PHASES = 3
RESCAN_EPOCHS = (0, 1, 2)
RESCAN_SWEEP_BITS = 7
RESCAN_RETRIES = 2


class CheckFailed(Exception):
    """An output check failed: the program produced a wrong result."""


@dataclass(frozen=True)
class WorldSeeds:
    world: int
    dns: int
    churn: int
    fault: int


def world_seeds(seed: int, index: int) -> WorldSeeds:
    """The seeds of world ``index`` of a run at benchmark seed ``seed``."""
    rng = random.Random(f"e2ebench:{seed}:{index}")
    return WorldSeeds(*(rng.getrandbits(32) for _ in range(4)))


class Stopwatch:
    """Accumulates the timed part of a workload; checks run paused.

    ``recorder`` (a :class:`tracing.Recorder`) is paused along with the
    clock, so a traced run records no spans for the checks either.
    """

    def __init__(self, recorder=None):
        self.elapsed = 0.0
        self._started: float | None = None
        self._recorder = recorder

    def start(self) -> None:
        if self._recorder is not None:
            self._recorder.active = True
        self._started = time.perf_counter()

    def stop(self) -> None:
        self.elapsed += time.perf_counter() - self._started
        self._started = None
        if self._recorder is not None:
            self._recorder.active = False

    @contextlib.contextmanager
    def paused(self):
        self.stop()
        try:
            yield
        finally:
            self.start()


@dataclass
class Inputs:
    """What set-up hands a workload: the world and the workload's inputs."""

    internet: object
    groups: dict
    labels: dict | None = None
    dynamic: object | None = None
    truth: object | None = None
    targets: tuple | None = None


@dataclass
class Outcome:
    """One workload iteration's timed result and its scored outputs."""

    wall_s: float = 0.0
    #: Distinct targets scanned, summed over the workload's scans.
    targets: int = 0
    attempted: int = 0
    failed: int = 0
    disk_bytes: int = 0
    clean_hits: int = 0
    #: Clean hits outside every aliased region of the truth.
    clean_true: int = 0
    #: Raw hits outside every aliased region of the truth.
    raw_true: int = 0
    digest: object = field(default_factory=hashlib.sha256)

    @property
    def clean_precision(self) -> float:
        return self.clean_true / self.clean_hits if self.clean_hits else 0.0

    @property
    def clean_recall(self) -> float:
        return self.clean_true / self.raw_true if self.raw_true else 0.0

    def score(self, truth, raw: set[int], clean: set[int]) -> None:
        """Check one scan's hits against ``truth`` at its epoch and score them.

        Every raw hit must answer the truth and the clean hits must be a
        subset of the raw hits.  Dealiasing defects are scored, not
        checked: precision and recall are metrics.
        """
        if not clean <= raw:
            raise CheckFailed(
                f"{len(clean - raw)} clean hits are not raw hits"
            )
        ordered = sorted(raw)
        answers = truth.responsive_many(ordered, PORT)
        silent = len(ordered) - sum(answers)
        if silent:
            raise CheckFailed(f"{silent} raw hits do not answer the truth")
        aliased = {addr for addr in ordered if truth.is_aliased(addr, PORT)}
        self.clean_hits += len(clean)
        self.clean_true += len(clean - aliased)
        self.raw_true += len(raw) - len(aliased)
        self.digest.update(len(clean).to_bytes(8, "big"))
        for addr in sorted(clean):
            self.digest.update(addr.to_bytes(16, "big"))


def _build_world(seeds: WorldSeeds) -> Inputs:
    internet = simnet.default_internet(scale=SCALE, rng_seed=seeds.world)
    collection = simnet.collect_seeds(internet, rng_seed=seeds.dns)
    groups = simnet.group_by_routed_prefix(collection.addresses(), internet.bgp)
    return Inputs(internet=internet, groups=groups)


def _spec(budget: int, retries: int = 0):
    return CampaignSpec(
        budget=budget,
        port=PORT,
        scan_config=ScanConfig(workers=1, retries=retries),
        gen_workers=None,
    )


# -- classic -------------------------------------------------------------


def setup_classic(seeds: WorldSeeds) -> Inputs:
    return _build_world(seeds)


def run_classic(inputs: Inputs, clock: Stopwatch, scratch: str, telemetry) -> Outcome:
    internet = inputs.internet
    clock.start()
    campaign = Campaign(
        internet.truth, internet.bgp, inputs.groups, _spec(CLASSIC_BUDGET),
        telemetry=telemetry,
    )
    result = campaign.run()
    clock.stop()
    outcome = Outcome(wall_s=clock.elapsed)
    run = result.run
    outcome.attempted = len(inputs.groups)
    outcome.failed = len(run.failures)
    for prefix, prefix_run in run.runs.items():
        used = prefix_run.result.budget_used
        if used > CLASSIC_BUDGET:
            raise CheckFailed(f"{prefix} used {used} of {CLASSIC_BUDGET} budget")
    outcome.targets = _distinct(
        [prefix_run.target_columns() for prefix_run in run.runs.values()]
    )
    outcome.score(internet.truth, result.raw_hits, result.clean_hits)
    return outcome


def _distinct(chunks) -> int:
    if not chunks:
        return 0
    hi = np.concatenate([c[0] for c in chunks])
    lo = np.concatenate([c[1] for c in chunks])
    return len(np.unique(np.stack([hi, lo], axis=1), axis=0))


# -- rescan --------------------------------------------------------------


def setup_rescan(seeds: WorldSeeds) -> Inputs:
    inputs = _build_world(seeds)
    internet = inputs.internet
    inputs.dynamic = simnet.DynamicWorld(internet, churn_seed=seeds.churn)
    inputs.truth = FaultyGroundTruth(internet.truth, BurstyLoss(seed=seeds.fault))
    dns_seeds = sorted(a for group in inputs.groups.values() for a in group)
    hi, lo = pack(dns_seeds)
    # Seeds sharing a swept block give the same block: dedupe the blocks,
    # then expand each one; distinct blocks never overlap.
    mask = np.uint64((1 << RESCAN_SWEEP_BITS) - 1)
    blocks = np.unique(np.stack([hi, lo & ~mask], axis=1), axis=0)
    sweep = np.arange(1 << RESCAN_SWEEP_BITS, dtype=np.uint64)
    inputs.targets = (
        np.repeat(blocks[:, 0], len(sweep)),
        (blocks[:, 1][:, None] | sweep[None, :]).ravel(),
    )
    return inputs


def run_rescan(inputs: Inputs, clock: Stopwatch, scratch: str, telemetry) -> Outcome:
    internet = inputs.internet
    targets = inputs.targets
    outcome = Outcome()
    clock.start()
    hitlist = LivingHitlist(
        path=os.path.join(scratch, "hitlist.jsonl"), telemetry=telemetry
    )
    try:
        for epoch in RESCAN_EPOCHS:
            inputs.dynamic.advance_to(epoch)
            campaign = Campaign(
                inputs.truth, internet.bgp, inputs.groups,
                _spec(len(targets[0]), retries=RESCAN_RETRIES),
                telemetry=telemetry,
                checkpoint_path=os.path.join(scratch, f"scan-{epoch}.jsonl"),
                targets=targets,
            )
            result = campaign.run()
            with clock.paused():
                # The truth moves on at the next epoch: check this one now.
                outcome.attempted += 1
                outcome.targets += len(targets[0])
                outcome.score(internet.truth, result.raw_hits, result.clean_hits)
            hitlist.observe(epoch, targets, result.clean_hits)
        hitlist.snapshot()
    finally:
        hitlist.close()
    clock.stop()
    outcome.wall_s = clock.elapsed
    outcome.disk_bytes = sum(
        entry.stat().st_size for entry in os.scandir(scratch) if entry.is_file()
    )
    return outcome


# -- phased --------------------------------------------------------------


def setup_phased(seeds: WorldSeeds) -> Inputs:
    inputs = _build_world(seeds)
    inputs.labels = policy_labels(inputs.internet)
    return inputs


def run_phased(inputs: Inputs, clock: Stopwatch, scratch: str, telemetry) -> Outcome:
    internet = inputs.internet
    failed_phases = 0
    clock.start()
    campaign = Campaign(
        internet.truth, internet.bgp, inputs.groups, _spec(PHASED_BUDGET),
        telemetry=telemetry,
        allocation=PredictiveAllocator(phases=PHASES, policy_labels=inputs.labels),
    )
    # Driven step by step (what Campaign.run does for a phased campaign)
    # so each phase's generation output can be inspected for failures.
    campaign.begin()
    runs = []
    while True:
        if not runs or campaign.run_output is not runs[-1]:
            runs.append(campaign.run_output)
            failed_phases += bool(runs[-1].failures)
        if not campaign.step():
            break
    result = campaign.finish()
    clock.stop()
    outcome = Outcome(wall_s=clock.elapsed, attempted=PHASES, failed=failed_phases)
    for run in runs:
        for prefix, prefix_run in run.runs.items():
            if prefix_run.result.budget_used > prefix_run.result.budget_limit:
                raise CheckFailed(
                    f"{prefix} used {prefix_run.result.budget_used} of "
                    f"{prefix_run.result.budget_limit} phase quota"
                )
    total_budget = PHASED_BUDGET * len(campaign.progress)
    allocated = 0
    for prefix, progress in campaign.progress.items():
        if progress.probes > progress.allocated:
            raise CheckFailed(
                f"{prefix} scanned {progress.probes} targets on "
                f"{progress.allocated} budget"
            )
        allocated += progress.allocated
        outcome.targets += progress.probes
    if allocated > total_budget:
        raise CheckFailed(f"allocated {allocated} of {total_budget} budget")
    outcome.score(internet.truth, result.raw_hits, result.clean_hits)
    return outcome


#: name -> (set-up, run).  ``run`` takes the inputs, a stopped
#: :class:`Stopwatch`, a scratch directory for its files, and an optional
#: ``Telemetry``.
WORKLOADS = {
    "classic": (setup_classic, run_classic),
    "rescan": (setup_rescan, run_rescan),
    "phased": (setup_phased, run_phased),
}


@contextlib.contextmanager
def scratch_dir(root: str):
    """A fresh directory under ``root`` for one iteration's files."""
    path = tempfile.mkdtemp(prefix=".e2ebench-", dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
