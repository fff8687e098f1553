"""Stepwise scan execution: the batched scan loop, one batch per call.

:class:`ScanExecution` is the scan path as an explicit state machine:
each :meth:`ScanExecution.step` executes exactly one probe batch on the
array plane (:class:`~repro.scanner.plane.ScanPlane`) — a round-0 chunk
or a retry chunk, with round transitions, pending-set computation, and
checkpoint writes happening between batches.  :meth:`Scanner.scan`
drives an execution to completion, and :class:`~repro.campaign.
pipeline.Campaign` steps one per phase.

Every probe verdict — loss, fault, ground truth — is a pure function
of ``(key, address, attempt)``, never of sequential RNG state, so
stepping execution A between two steps of execution B cannot change
what either scan observes (``tests/test_campaign.py`` checks two
campaigns stepped alternately against their solo runs).

Stopping is preemption: an execution that is no longer stepped leaves
its checkpoint file (when armed) holding a resumable prefix, so a cold
resume goes through the ordinary resume path and finishes
bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterator

from .plane import ScanPlane, StaleWorldError
from .probe import ScanResult, ScanStats
from .schedule import CyclicPermutation

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..faults.models import WorkerCrash
    from .checkpoint import ResumeState, ScanCheckpointer
    from .engine import ScanConfig, Scanner


class ScanExecution:
    """One scan's remaining work, executable one batch at a time.

    Built by :meth:`Scanner.start_execution`.  Call :meth:`step` until
    it returns False, then read :meth:`result`.  ``stats`` and ``hits``
    are live between steps.
    """

    def __init__(
        self,
        scanner: "Scanner",
        *,
        cols: "tuple[np.ndarray, np.ndarray] | None",
        perm: CyclicPermutation | None,
        loss_key: int,
        port: int,
        config: "ScanConfig",
        checkpoint: "ScanCheckpointer | None" = None,
        resume: "ResumeState | None" = None,
        crash: "WorkerCrash | None" = None,
        completed: ScanResult | None = None,
        finalize: bool = False,
    ):
        self.scanner = scanner
        self.port = port
        self.config = config
        self.perm = perm
        self.loss_key = loss_key
        self.checkpoint = checkpoint
        self.crash = crash
        self.batches_done = 0
        self._finalize = finalize
        self._started_at: float | None = None
        if completed is not None:
            # A resume state that already recorded scan_complete: there
            # is no work; the execution is born finished.
            self.stats = completed.stats
            self.hits = completed.hits
            self.n = completed.stats.probes_sent + completed.stats.blacklisted
            self.start_round = self.start_batch = 0
            self.plane = None
            self._result: ScanResult | None = completed
            self._gen: Iterator[None] = iter(())
            return
        if resume is not None:
            self.stats = resume.stats.copy()
            self.hits = set(resume.hits)
            self.start_round, self.start_batch = resume.round, resume.next_batch
        else:
            self.stats = ScanStats()
            self.hits = set()
            self.start_round, self.start_batch = 0, 0
        self.plane = ScanPlane.build(
            scanner.truth, scanner.blacklist, cols, port, scanner.loss_rate
        )
        self.n = len(cols[0])
        # Version token of the world this execution was planned against.
        # A stepped execution spans wall-clock time; if the truth
        # mutates in between (churn advancing an epoch), both the frozen
        # plane and the already-computed pending sets describe a world
        # that no longer exists, so step() refuses to continue.
        self.world_version = getattr(scanner.truth, "world_version", None)
        self._result = None
        self._gen = self._work()

    @property
    def finished(self) -> bool:
        return self._result is not None

    def step(self) -> bool:
        """Execute one probe batch; False once the scan has finished.

        The final call (the one that returns False) performs the
        terminal bookkeeping: the ``scan_complete`` checkpoint record
        and — for standalone executions — the scanner's summary
        telemetry.  A preempted execution that is never stepped again
        therefore leaves exactly the on-disk state an interrupted run
        would.
        """
        if self._result is not None:
            return False
        self._check_fresh()
        if self._started_at is None:
            self._started_at = time.perf_counter()
        try:
            next(self._gen)
        except StopIteration:
            self._complete()
            return False
        self.batches_done += 1
        return True

    def _check_fresh(self) -> None:
        """Refuse to step against a world that mutated since planning."""
        if self.world_version is None:
            return
        current = getattr(self.scanner.truth, "world_version", None)
        if current is not None and current != self.world_version:
            raise StaleWorldError(
                "scan execution was planned at world version "
                f"{self.world_version} but the truth is now at "
                f"{current}; the world mutated mid-scan (e.g. "
                "DynamicWorld.advance_to) — finish or abort campaigns "
                "before advancing, then plan a fresh scan"
            )

    def run(self) -> ScanResult:
        """Drive the execution to completion and return its result."""
        while self.step():
            pass
        return self.result()

    def result(self) -> ScanResult:
        if self._result is None:
            raise RuntimeError("scan execution has not finished")
        return self._result

    def _complete(self) -> None:
        # The plane's columns and tables are dead weight from here on;
        # a finished execution is often held while its hits are dealiased.
        self.plane = None
        if self.checkpoint is not None:
            self.checkpoint.complete(stats=self.stats)
        self._result = ScanResult(
            port=self.port, hits=self.hits, stats=self.stats
        )
        if self._finalize:
            elapsed = (
                time.perf_counter() - self._started_at
                if self._started_at is not None
                else 0.0
            )
            self.scanner.total_probes += (
                self.stats.probes_sent + self.stats.retransmits
            )
            self.scanner._emit_scan_summary(
                self._result, self.n, elapsed, self.port, self.config
            )

    def _work(self) -> Iterator[None]:
        """Yield once per executed batch.

        Round 0 walks the permuted targets in ``batch_size`` slices;
        each retry round re-derives the pending set (a pure function of
        targets, permutation and hits) and walks it the same way.
        """
        from .engine import _round_key

        config, plane, perm, loss_key = (
            self.config, self.plane, self.perm, self.loss_key,
        )
        stats, hits, checkpoint, crash = (
            self.stats, self.hits, self.checkpoint, self.crash,
        )
        tele = self.scanner.telemetry
        batch_size = config.batch_size
        n = self.n
        start_round = self.start_round
        if start_round == 0:
            for start in range(self.start_batch * batch_size, n, batch_size):
                index = start // batch_size
                if crash is not None:
                    crash.check(0, index)
                new_hits = plane.probe_range(
                    perm, start, min(start + batch_size, n),
                    loss_key, stats, hits,
                )
                tele.count("scan.batches")
                if checkpoint is not None:
                    checkpoint.note_batch(new_hits)
                    checkpoint.checkpoint(0, index + 1, stats)
                yield
            start_round = 1
        # Checkpoints for retry rounds land only on round boundaries —
        # the pending set is derived from the hits at round start, so a
        # boundary checkpoint is exactly recomputable on resume.
        for round_ in range(start_round, config.retries + 1):
            pending_hi, pending_lo = plane.pending_columns(
                perm, batch_size, hits
            )
            if not len(pending_hi):
                break
            key = _round_key(loss_key, round_)
            if tele.enabled:
                tele.count("scan.retry_rounds")
            for index, start in enumerate(
                range(0, len(pending_hi), batch_size)
            ):
                if crash is not None:
                    crash.check(round_, index)
                new_hits = plane.retry_chunk(
                    pending_hi[start : start + batch_size],
                    pending_lo[start : start + batch_size],
                    key, round_, stats, hits,
                )
                tele.count("scan.batches")
                if checkpoint is not None:
                    checkpoint.note_batch(new_hits)
                yield
            if checkpoint is not None and round_ < config.retries:
                checkpoint.checkpoint(round_ + 1, 0, stats, force=True)
