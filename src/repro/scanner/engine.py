"""Simulated ZMap-style scan engine (stand-in for ZMap-v6, §6).

Probes the simulated ground truth instead of the live Internet.  The
engine reproduces the operational properties that matter to the
algorithms under test:

* every probe is counted (probe budgets are the paper's core resource);
* targets are deduplicated and scanned in randomised order (the paper
  randomises destination order to avoid overloading networks);
* a blacklist is honoured unconditionally;
* optional probe loss models an unreliable network path, and repeated
  probes can recover from it (used for failure-injection tests).

The bulk path is a streaming, batched pipeline.  Targets stream in
(deduplicated in insertion order), probe order is a ZMap-style cyclic
permutation of the index space (:class:`~repro.scanner.schedule.
CyclicPermutation` — O(1) auxiliary memory, no shuffled copy), and
every batch runs on the array plane (:class:`~repro.scanner.plane.
ScanPlane`) as vectorised blacklist / loss / ground-truth lookups,
driven one batch per step by :class:`~repro.scanner.execution.
ScanExecution`.  A per-address loop (``Scanner._scan_reference``) is
kept as the test-only correctness oracle: for a fixed ``rng_seed`` both
produce identical hits *and* identical
:class:`~repro.scanner.probe.ScanStats` at any batch size, because
probe order is the shared permutation and scan-time probe loss is a
pure function of ``(scan key, address)`` rather than a draw from a
sequential RNG stream.  ``benchmarks/bench_scan.py`` enforces the
parity on every run.

Robustness extensions (all default-off, all parity-preserving):

* **Retries** (:attr:`ScanConfig.retries`): after the first pass,
  non-responding, non-blacklisted targets are re-probed for up to
  ``retries`` extra rounds.  Round ``r`` keys the loss PRF with
  ``mix64(loss_key + r)`` (round 0 keeps the raw ``loss_key``, so
  ``retries=0`` output is bit-identical to a scanner without the
  feature) and passes ``attempt=r`` to the ground truth so fault
  models (:mod:`repro.faults`) see the retransmission number.
  Retransmissions are tallied in ``ScanStats.retransmits``, never in
  ``probes_sent`` — budgets stay first-attempt budgets.
* **Checkpoint/resume** (:meth:`Scanner.scan` ``checkpoint=`` /
  ``resume=``): progress streams through a crash-safe
  :class:`~repro.scanner.checkpoint.ScanCheckpointer`; a resumed scan
  replays the recorded keys over the same target stream and finishes
  with hits and stats identical to an uninterrupted run (see
  :mod:`repro.scanner.checkpoint` for the argument).
* **Crash injection** (``crash=``): a
  :class:`~repro.faults.WorkerCrash` spec raises at a chosen batch,
  the test hook behind the resume-parity CI job.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..ipv6.addrplane import (
    ColumnDeduper,
    concat_columns,
    dedupe_columns,
    fuse,
    is_columns,
    mix64,
    pack,
    unpack,
)
from ..simnet.ground_truth import GroundTruth
from ..telemetry.metrics import MetricsSnapshot
from ..telemetry.spans import Telemetry, ensure
from .blacklist import Blacklist
from .plane import ScanPlane, loss_prf_arr
from .probe import DEFAULT_PORT, ScanResult, ScanStats
from .schedule import CyclicPermutation

try:  # posix-only; the peak-RSS gauge degrades to absent elsewhere
    import resource as _resource
except ImportError:  # pragma: no cover - non-posix
    _resource = None

if TYPE_CHECKING:  # import cycles avoided: these are type-only
    from ..faults.models import WorkerCrash
    from .checkpoint import ResumeState, ScanCheckpointer

_M64 = (1 << 64) - 1
#: Domain-separation constants for the keys derived from ``rng_seed``.
_ORDER_SALT = 0x5C4E06D3A1B2C4D5
_PROBE_SALT = 0x9E3779B97F4A7C15
#: Minimum probe_many batch worth routing through the array plane;
#: below this the numpy call overhead outweighs the vectorisation.
_ARRAY_PROBE_MIN = 32


def _loss_prf(key: int, addr: int) -> float:
    """Uniform-in-[0,1) pseudo-random function of ``(key, address)``.

    Scan-time probe loss uses this instead of a sequential RNG stream
    so outcomes do not depend on probe order or batching — the property
    that makes the array plane bit-identical to the sequential
    reference.
    """
    h = mix64(key ^ (addr & _M64))
    h = mix64(h ^ (addr >> 64))
    return h / 18446744073709551616.0  # 2**64


def _columns_to_list(cols: "tuple[np.ndarray, np.ndarray]") -> list[int]:
    """Unpack target columns into the boxed ordered list.

    Isolated (instead of calling ``unpack`` inline) so tests can assert
    the pure column path never materialises a boxed list.
    """
    return unpack(cols[0], cols[1])


def _normalize_targets(
    targets,
) -> "tuple[list[int] | None, tuple[np.ndarray, np.ndarray] | None]":
    """Split a target source into ``(ordered ints, packed columns)``.

    Exactly one of the two is non-None.  Accepted sources:

    * packed ``(hi, lo)`` columns, or an iterable of column chunks (the
      generation plane's streaming handoff) — deduplicated first-seen
      via fused-key sort/unique, never boxing an int;
    * a ``list`` of ints — deduplicated without the ``map(int, ...)``
      re-boxing pass (elements are assumed type-homogeneous, judged by
      the first, the same idiom ``addrplane.pack`` uses);
    * any other iterable — the original coerce-and-dedupe path.

    Every variant preserves first-seen order, so probe order — and
    therefore loss outcomes — stay deterministic and identical across
    input forms.
    """
    if is_columns(targets):
        return None, dedupe_columns(*targets)
    if isinstance(targets, list):
        if not targets or isinstance(targets[0], int):
            return list(dict.fromkeys(targets)), None
        return list(dict.fromkeys(map(int, targets))), None
    iterator = iter(targets)
    try:
        first = next(iterator)
    except StopIteration:
        return [], None
    if is_columns(first):
        dedupe = ColumnDeduper()
        chunks = [dedupe.add(*first)]
        chunks.extend(dedupe.add(*chunk) for chunk in iterator)
        return None, concat_columns(chunks)
    return (
        list(dict.fromkeys(map(int, itertools.chain((first,), iterator)))),
        None,
    )


def _round_key(loss_key: int, round_: int) -> int:
    """Loss-PRF key for one scan round.

    Round 0 uses the raw scan loss key — this is load-bearing for
    parity: a ``retries=0`` scan must consume exactly the key material
    a pre-retry scanner did.  Retry rounds re-key with the round
    number, mirroring ``probe_many``'s per-attempt scheme, so each
    retransmission is an independent loss draw.
    """
    return loss_key if round_ == 0 else mix64(loss_key + round_)


@dataclass(frozen=True)
class ScanConfig:
    """Execution parameters for :meth:`Scanner.scan`.

    ``batch_size`` is the chunk granularity of the streaming pipeline
    (one :meth:`~repro.scanner.execution.ScanExecution.step` probes one
    batch); ``workers`` sizes the process pool dealiasing shards its
    alias tests across — the scan itself always runs in-process.  Hits
    and stats are identical for every setting; they only trade memory
    and speed.
    """

    batch_size: int = 4096
    workers: int = 1
    #: Extra probe rounds for non-responders (0 = single-pass, the
    #: pre-retry behaviour, bit-identical output).
    retries: int = 0
    #: Virtual seconds waited between retry rounds.  The simulator has
    #: no wall clock, so this is operational bookkeeping only: it is
    #: reported through telemetry (``scan_summary.backoff_seconds``)
    #: and never changes probe outcomes — retries already land in
    #: fresh rate-limiter windows because the attempt number keys the
    #: fault PRFs.
    retry_backoff: float = 0.0

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive: {self.batch_size}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1: {self.workers}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0: {self.retries}")
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0: {self.retry_backoff}"
            )


@dataclass
class _PreparedScan:
    """Output of ``Scanner._prepare_scan``: the inputs one scan runs on.

    ``completed`` is set (and everything else meaningless) when a
    resume state already recorded ``scan_complete``.
    """

    cols: "tuple[np.ndarray, np.ndarray] | None" = None
    perm: CyclicPermutation | None = None
    loss_key: int = 0
    completed: ScanResult | None = None


class Scanner:
    """A probe engine bound to one ground truth."""

    def __init__(
        self,
        truth: GroundTruth,
        *,
        blacklist: Blacklist | None = None,
        loss_rate: float = 0.0,
        rng_seed: int | None = 0,
        config: ScanConfig | None = None,
        telemetry: Telemetry | None = None,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1): {loss_rate}")
        self.truth = truth
        self.blacklist = blacklist or Blacklist()
        self.loss_rate = loss_rate
        self.config = config or ScanConfig()
        # Telemetry is strictly passive: it never draws from an RNG or
        # reorders probes, so hits and stats are identical with it on
        # or off (tests/test_telemetry.py enforces this).
        self.telemetry = ensure(telemetry)
        self._rng = random.Random(rng_seed)
        self._rng_seed = rng_seed
        # Independent deterministic streams so single-probe callers
        # (probe / probe_retry) and bulk scans never perturb each other:
        # scan order/loss keys come from _order_rng, the batched-prober
        # loss PRF from _probe_key.  A worker process rebuilt from the
        # same rng_seed derives the same keys, which is what makes
        # parallel dealiasing reproduce the serial decisions.
        if rng_seed is None:
            self._order_rng = random.Random()
            self._probe_key = random.Random().getrandbits(64)
        else:
            self._order_rng = random.Random(int(rng_seed) ^ _ORDER_SALT)
            self._probe_key = mix64(int(rng_seed) ^ _PROBE_SALT)
        self.total_probes = 0

    def skip_scan_keys(self, scans: int = 1) -> None:
        """Advance the scan-key stream past ``scans`` completed scans.

        Every scan draws one (perm, loss) key pair from ``_order_rng``
        in sequence.  A process resuming a multi-scan campaign replays
        completed scans from their checkpoints instead of re-running
        them, so it must burn their key pairs to keep later scans on
        the same keys an uninterrupted run would draw.
        """
        if scans < 0:
            raise ValueError(f"scans must be >= 0: {scans}")
        for _ in range(scans):
            self._order_rng.getrandbits(64)
            self._order_rng.getrandbits(64)

    # -- single probe -------------------------------------------------------
    def probe(self, addr: int, port: int = DEFAULT_PORT) -> bool:
        """Send one probe; returns True on a SYN-ACK.

        Blacklisted addresses are never probed (and count as no
        response).  Probe loss applies before the ground-truth check.
        """
        if self.blacklist.contains(addr):
            return False
        self.total_probes += 1
        if self.loss_rate and self._rng.random() < self.loss_rate:
            return False
        return self.truth.is_responsive(int(addr), port)

    def probe_retry(
        self,
        addr: int,
        port: int = DEFAULT_PORT,
        attempts: int = 3,
        *,
        stats: ScanStats | None = None,
    ) -> bool:
        """Probe with retries (used by the dealiasing prober).

        Blacklisted targets short-circuit before the retry loop — the
        blacklist verdict cannot change between attempts — and are
        counted once in ``stats`` when given.
        """
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1: {attempts}")
        if self.blacklist.contains(addr):
            if stats is not None:
                stats.blacklisted += 1
            return False
        return any(self.probe(addr, port) for _ in range(attempts))

    def probe_many(
        self,
        addrs: Sequence[int],
        port: int = DEFAULT_PORT,
        *,
        attempts: int = 1,
        stats: ScanStats | None = None,
    ) -> list[bool]:
        """Batched probe-with-retries; one flag per address, in order.

        The blacklist is consulted once per address (not once per
        attempt), losses use the order-independent PRF keyed on
        ``(rng_seed, address, attempt)``, and ground-truth lookups are
        batched.  Addresses that respond stop retrying; the rest get up
        to ``attempts`` rounds.

        ``stats.probes_sent`` counts every attempt (the dealiasing
        prober has always budgeted per-attempt); attempts after the
        first are *additionally* tallied in ``stats.retransmits``.
        """
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1: {attempts}")
        addrs = [int(a) for a in addrs]
        if len(addrs) >= _ARRAY_PROBE_MIN:
            return self._probe_many_arr(addrs, port, attempts, stats)
        results = [False] * len(addrs)
        if self.blacklist:
            flags = self.blacklist.contains_many(addrs)
            pending = [i for i, flagged in enumerate(flags) if not flagged]
            if stats is not None:
                stats.blacklisted += len(addrs) - len(pending)
        else:
            pending = list(range(len(addrs)))
        loss = self.loss_rate
        for attempt in range(attempts):
            if not pending:
                break
            batch = [addrs[i] for i in pending]
            self.total_probes += len(batch)
            if stats is not None:
                stats.probes_sent += len(batch)
                if attempt > 0:
                    stats.retransmits += len(batch)
            if loss:
                attempt_key = mix64(self._probe_key + attempt)
                kept = []
                for i, a in zip(pending, batch):
                    if _loss_prf(attempt_key, a) < loss:
                        if stats is not None:
                            stats.dropped += 1
                    else:
                        kept.append(i)
            else:
                kept = pending
            if kept:
                flags = self.truth.responsive_many(
                    [addrs[i] for i in kept], port, attempt=attempt
                )
                for i, responded in zip(kept, flags):
                    if responded:
                        results[i] = True
                        if stats is not None:
                            stats.responses += 1
            pending = [i for i in pending if not results[i]]
        return results

    def _probe_many_arr(
        self,
        addrs: list[int],
        port: int,
        attempts: int,
        stats: ScanStats | None,
    ) -> list[bool]:
        """Array-native :meth:`probe_many`: identical verdicts and stats.

        Lookups go through a :class:`ScanPlane` over the batch, so any
        truth/blacklist type is served (frozen tables for the exact
        types, the object's own batch methods for subclasses).
        """
        hi, lo = pack(addrs)
        plane = ScanPlane.build(
            self.truth, self.blacklist, (hi, lo), port, self.loss_rate
        )
        results = np.zeros(len(addrs), dtype=bool)
        blocked = plane._blocked(hi, lo)
        if blocked is not None:
            pending = np.flatnonzero(~blocked)
            if stats is not None:
                stats.blacklisted += len(addrs) - len(pending)
        else:
            pending = np.arange(len(addrs))
        loss = self.loss_rate
        for attempt in range(attempts):
            if not len(pending):
                break
            self.total_probes += len(pending)
            if stats is not None:
                stats.probes_sent += len(pending)
                if attempt > 0:
                    stats.retransmits += len(pending)
            if loss:
                attempt_key = mix64(self._probe_key + attempt)
                lost = (
                    loss_prf_arr(attempt_key, hi[pending], lo[pending]) < loss
                )
                if stats is not None:
                    stats.dropped += int(lost.sum())
                kept = pending[~lost]
            else:
                kept = pending
            if len(kept):
                flags = plane._responsive(hi[kept], lo[kept], attempt)
                responded = kept[flags]
                results[responded] = True
                if stats is not None:
                    stats.responses += len(responded)
            pending = pending[~results[pending]]
        return results.tolist()

    # -- bulk scan ------------------------------------------------------------
    def _prepare_scan(
        self,
        targets: Iterable[int],
        port: int,
        *,
        shuffle: bool,
        checkpoint: "ScanCheckpointer | None",
        resume: "ResumeState | None",
    ) -> "_PreparedScan":
        """Everything before the first probe.

        Normalises the target source to packed columns, draws the scan
        keys, verifies and applies a resume state, and writes the
        ``scan_begin`` record.  Returns the prepared inputs — or, for a
        resume state that already recorded completion, the finished
        result (``completed`` set, nothing else valid).
        """
        config = self.config
        ordered, cols = _normalize_targets(targets)
        if cols is not None:
            if not shuffle:
                # Fused-key argsort == numeric ascending == the scalar
                # path's ordered.sort() on the unpacked list.
                order = np.argsort(fuse(*cols))
                cols = (cols[0][order], cols[1][order])
            if checkpoint is not None or resume is not None:
                # The checkpoint digest is defined over boxed ints.
                ordered = _columns_to_list(cols)
        else:
            if not shuffle:
                ordered.sort()
            cols = pack(ordered)
        n = len(cols[0])
        # A resumed scan still draws the keys (then discards them in
        # favour of the recorded ones) so later scans on this Scanner
        # see an unshifted key stream.
        perm_key = self._order_rng.getrandbits(64)
        loss_key = self._order_rng.getrandbits(64)
        digest = None
        if checkpoint is not None or resume is not None:
            from .checkpoint import target_digest

            digest = target_digest(ordered)
        if resume is not None:
            if (
                resume.digest != digest
                or resume.target_count != n
                or resume.port != port
                or resume.retries != config.retries
            ):
                raise ValueError(
                    "checkpoint does not match this scan "
                    f"(targets={n}/{resume.target_count}, "
                    f"port={port}/{resume.port}, "
                    f"retries={config.retries}/{resume.retries}, "
                    "digest "
                    + ("ok)" if resume.digest == digest else "MISMATCH)")
                )
            perm_key, loss_key = resume.perm_key, resume.loss_key
            if resume.complete:
                # The recorded run already finished — hand back its
                # result without re-probing (or re-counting probes).
                if self.telemetry.enabled:
                    self.telemetry.count("scan.resumed_complete")
                return _PreparedScan(
                    completed=ScanResult(
                        port=port,
                        hits=set(resume.hits),
                        stats=resume.stats.copy(),
                    )
                )
        perm = (
            CyclicPermutation(n, perm_key)
            if shuffle and n > 1
            else None
        )
        if checkpoint is not None:
            checkpoint.begin(
                perm_key=perm_key,
                loss_key=loss_key,
                targets=n,
                digest=digest,
                port=port,
                retries=config.retries,
            )
            if resume is not None:
                # Make the file self-contained from this scan_begin on,
                # so a resumed run can itself be resumed.
                checkpoint.baseline(
                    round_=resume.round,
                    next_batch=resume.next_batch,
                    stats=resume.stats,
                    hits=resume.hits,
                )
        return _PreparedScan(cols=cols, perm=perm, loss_key=loss_key)

    def scan(
        self,
        targets: Iterable[int],
        port: int = DEFAULT_PORT,
        *,
        shuffle: bool = True,
        checkpoint: "ScanCheckpointer | None" = None,
        resume: "ResumeState | None" = None,
        crash: "WorkerCrash | None" = None,
    ) -> ScanResult:
        """Probe each distinct target; collect responsive addresses.

        Targets may be any iterable (a generator streams straight in);
        they are deduplicated preserving first-seen order, which keeps
        probe order — and therefore loss outcomes — deterministic for a
        fixed ``rng_seed`` regardless of CPython build (a plain
        ``set`` dedupe does not guarantee that).

        ``checkpoint`` streams progress through a
        :class:`~repro.scanner.checkpoint.ScanCheckpointer`;
        ``resume`` replays a loaded
        :class:`~repro.scanner.checkpoint.ResumeState` (the caller must
        supply the same target stream, port, and retry budget — this is
        verified against the recorded digest).  ``crash`` arms a
        :class:`~repro.faults.WorkerCrash` fault, the deterministic
        kill switch the resume-parity tests use.

        This drives :meth:`start_execution` to completion; the scan
        itself books the probes and emits the summary telemetry.
        """
        execution = self.start_execution(
            targets, port, shuffle=shuffle, checkpoint=checkpoint,
            resume=resume, crash=crash, finalize=False,
        )
        if execution.finished:
            return execution.result()
        config = self.config
        with self.telemetry.span(
            "scan", port=port, targets=execution.n, workers=config.workers
        ):
            start = time.perf_counter()
            result = execution.run()
            elapsed = time.perf_counter() - start
        self.total_probes += result.stats.probes_sent + result.stats.retransmits
        self._emit_scan_summary(result, execution.n, elapsed, port, config)
        return result

    def start_execution(
        self,
        targets: Iterable[int],
        port: int = DEFAULT_PORT,
        *,
        shuffle: bool = True,
        checkpoint: "ScanCheckpointer | None" = None,
        resume: "ResumeState | None" = None,
        crash: "WorkerCrash | None" = None,
        finalize: bool = True,
    ):
        """Begin a scan as a stepwise :class:`~repro.scanner.execution.
        ScanExecution` instead of running it to completion.

        The returned execution performs the scan one batch per
        :meth:`~repro.scanner.execution.ScanExecution.step` — what
        :class:`~repro.campaign.pipeline.Campaign` steps.  With
        ``finalize`` (the default) the closing step books the probes on
        this scanner and emits the summary telemetry; :meth:`scan`
        passes False and does both itself.
        """
        from .execution import ScanExecution

        prep = self._prepare_scan(
            targets, port, shuffle=shuffle, checkpoint=checkpoint,
            resume=resume,
        )
        if prep.completed is not None:
            return ScanExecution(
                self, cols=None, perm=None, loss_key=0,
                port=port, config=self.config, completed=prep.completed,
            )
        return ScanExecution(
            self,
            cols=prep.cols,
            perm=prep.perm,
            loss_key=prep.loss_key,
            port=port,
            config=self.config,
            checkpoint=checkpoint,
            resume=resume,
            crash=crash,
            finalize=finalize,
        )

    def _emit_scan_summary(
        self,
        result: ScanResult,
        n: int,
        elapsed: float,
        port: int,
        config: ScanConfig,
    ) -> None:
        """Post-scan telemetry, shared by monolithic and stepwise paths."""
        tele = self.telemetry
        if not tele.enabled:
            return
        tele.count("scan.runs")
        tele.count("scan.targets", n)
        tele.count("scan.hits", len(result.hits))
        # One conversion from the final (parity-gated) stats, so
        # counter totals are identical for any batch size.
        tele.merge_snapshot(scan_stats_snapshot(result.stats))
        if elapsed > 0:
            tele.gauge(
                "scan.probes_per_sec", result.stats.probes_sent / elapsed
            )
        if _resource is not None:
            # Gauges merge by max, so across runs this reports the
            # campaign's peak resident set (KiB on Linux) — the
            # memory axis of `repro report --against` comparisons.
            tele.gauge(
                "scan.peak_rss_kib",
                float(
                    _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
                ),
            )
        tele.event(
            "scan_summary",
            {
                "port": port,
                "targets": n,
                "hits": len(result.hits),
                "probes_sent": result.stats.probes_sent,
                "blacklisted": result.stats.blacklisted,
                "dropped": result.stats.dropped,
                "retransmits": result.stats.retransmits,
                "retries": config.retries,
                "backoff_seconds": round(
                    config.retry_backoff * config.retries, 6
                ),
                "hit_rate": round(result.stats.hit_rate, 6),
                "workers": config.workers,
                "seconds": round(elapsed, 6),
            },
        )

    def _scan_reference(
        self,
        targets: Iterable[int],
        port: int = DEFAULT_PORT,
        *,
        shuffle: bool = True,
    ) -> ScanResult:
        """Per-address loop: the readable spec the array plane must match.

        A test-only oracle.  It draws the scan keys exactly as
        :meth:`scan` does, so for a fixed ``rng_seed`` both return the
        same hits and stats; it emits no telemetry and takes no
        checkpoint.
        """
        prep = self._prepare_scan(
            targets, port, shuffle=shuffle, checkpoint=None, resume=None
        )
        ordered = unpack(*prep.cols)
        perm, loss_key = prep.perm, prep.loss_key
        stats = ScanStats()
        hits: set[int] = set()
        loss = self.loss_rate
        for index in range(len(ordered)):
            addr = ordered[perm(index)] if perm is not None else ordered[index]
            if self.blacklist.contains(addr):
                stats.blacklisted += 1
                continue
            stats.probes_sent += 1
            if loss and _loss_prf(loss_key, addr) < loss:
                stats.dropped += 1
                continue
            if self.truth.is_responsive(addr, port):
                stats.responses += 1
                hits.add(addr)
        # Retry rounds: re-walk the permuted order, skipping responders
        # and blacklisted targets.  Blacklist verdicts are not
        # re-counted (the verdict cannot change between rounds).
        for round_ in range(1, self.config.retries + 1):
            key = _round_key(loss_key, round_)
            pending_seen = False
            for index in range(len(ordered)):
                addr = (
                    ordered[perm(index)] if perm is not None else ordered[index]
                )
                if addr in hits or self.blacklist.contains(addr):
                    continue
                pending_seen = True
                stats.retransmits += 1
                if loss and _loss_prf(key, addr) < loss:
                    stats.dropped += 1
                    continue
                if self.truth.is_responsive(addr, port, attempt=round_):
                    stats.responses += 1
                    hits.add(addr)
            if not pending_seen:
                break
        self.total_probes += stats.probes_sent + stats.retransmits
        return ScanResult(port=port, hits=hits, stats=stats)


def scan_stats_snapshot(stats: ScanStats) -> MetricsSnapshot:
    """Express :class:`ScanStats` as a mergeable metrics snapshot.

    Both types share the merge contract (order-independent sums), so a
    per-shard ``ScanStats`` and its snapshot form stay interchangeable:
    merging snapshots of shard stats equals the snapshot of merged
    shard stats.
    """
    return MetricsSnapshot(
        counters={
            "scan.probes_sent": stats.probes_sent,
            "scan.responses": stats.responses,
            "scan.blacklisted": stats.blacklisted,
            "scan.dropped": stats.dropped,
            "scan.retransmits": stats.retransmits,
        }
    )
