"""Array-native scan plane: the batched pipeline over uint64 columns.

:class:`ScanPlane` is a frozen snapshot of everything a scan batch
needs — target hi/lo columns, the blacklist as a
:class:`~repro.ipv6.addrplane.PrefixMaskTable`, the ground truth's host
set as a :class:`~repro.ipv6.addrplane.FrozenKeySet`, aliased regions
as a second mask table, and the (optional) fault model — so one probe
batch is a handful of vectorised numpy passes instead of a Python loop
over boxed 128-bit ints.  It is the only production scan path:
:class:`~repro.scanner.execution.ScanExecution` runs every batch here.

Any :class:`GroundTruth` / :class:`Blacklist` is accepted.  The exact
types (and :class:`~repro.faults.FaultyGroundTruth`) are frozen into
tables; for a subclass the plane keeps the object and calls its
``responsive_many`` / ``contains_many`` on each batch's unpacked ints,
so overridden lookups are still honoured.

Parity contract: every verdict here is the same pure function of
``(key, address, attempt)`` the per-address reference loop
(``Scanner._scan_reference``) computes — :func:`loss_prf_arr` matches
``engine._loss_prf`` bit-for-bit (uint64 hash, then one exact
power-of-two float scaling), membership tables are exact, and fault
models vectorise their own PRFs — so hits and stats are identical to
the reference scan for any batch size.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..ipv6.addrplane import (
    FrozenKeySet,
    PrefixMaskTable,
    _mix64_np,
    hash_columns,
    pack,
    unpack,
)
from ..simnet.ground_truth import ICMPV6, GroundTruth
from .blacklist import Blacklist
from .schedule import CyclicPermutation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.models import FaultModel
    from .probe import ScanStats

_TWO64 = np.float64(2**64)


class StaleWorldError(RuntimeError):
    """A frozen scan context outlived the world it was built against.

    Raised when a :class:`ScanPlane` (or a stepped
    :class:`~repro.scanner.execution.ScanExecution`) is used after the
    ground truth mutated — e.g. the churn layer advanced an epoch
    mid-campaign.  Frozen host/alias tables are snapshots; silently
    reusing them would report hits from a world that no longer exists.
    """


def loss_prf_arr(key: int, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Vectorised ``engine._loss_prf``: uniform-in-[0,1) per address.

    Bit-identical to the scalar form: the hash chain folds the low then
    the high column through splitmix64, and dividing the uint64 result
    by 2**64 is an exact power-of-two scaling, so the float compares
    equal to Python's correctly rounded ``h / 2**64``.
    """
    h = _mix64_np(np.uint64(key) ^ lo)
    h = _mix64_np(h ^ hi)
    return h / _TWO64


class ScanPlane:
    """Array-native scan context (targets + lookup tables)."""

    __slots__ = (
        "hi", "lo", "port", "loss_rate", "world_version", "permuted",
        "blacklist_table", "blacklist", "host_keys", "alias_table",
        "fault", "truth",
    )

    def __init__(
        self,
        hi: np.ndarray,
        lo: np.ndarray,
        *,
        port: int,
        loss_rate: float,
        world_version: tuple[int, int] | None = None,
    ):
        self.hi = hi
        self.lo = lo
        self.port = port
        self.loss_rate = loss_rate
        # Version token of the truth this plane was built against.
        self.world_version = world_version
        # Lazily materialised permuted target columns (see gather()).
        self.permuted: tuple[np.ndarray, np.ndarray] | None = None
        # Frozen lookup tables (exact types) ...
        self.blacklist_table: PrefixMaskTable | None = None
        self.host_keys: FrozenKeySet | None = None
        self.alias_table: PrefixMaskTable | None = None
        self.fault: "FaultModel | None" = None
        # ... or the live objects, for subclasses the plane cannot freeze.
        self.blacklist: Blacklist | None = None
        self.truth: GroundTruth | None = None

    # -- construction -------------------------------------------------------
    @classmethod
    def build(
        cls,
        truth: GroundTruth,
        blacklist: Blacklist,
        targets: "list[int] | tuple[np.ndarray, np.ndarray]",
        port: int,
        loss_rate: float,
    ) -> "ScanPlane":
        """Build a scan context over targets.

        ``targets`` is either a deduplicated ordered list of int
        addresses (packed here) or already-packed ``(hi, lo)`` columns
        from the generation plane, adopted without conversion.  Only
        the exact types are frozen; any subclass may override its
        lookups, so it is kept and called per batch instead.
        """
        from ..faults.ground import FaultyGroundTruth

        hi, lo = targets if isinstance(targets, tuple) else pack(targets)
        plane = cls(
            hi, lo, port=port, loss_rate=loss_rate,
            world_version=getattr(truth, "world_version", None),
        )
        if type(blacklist) is Blacklist:
            plane.blacklist_table = blacklist.frozen_table()
        elif blacklist:
            plane.blacklist = blacklist
        if type(truth) in (GroundTruth, FaultyGroundTruth):
            plane.host_keys = truth.frozen_hosts(port)
            # ICMPv6 pings match any aliased region regardless of its
            # port set (the scalar find_many contract).
            if truth.aliased:
                plane.alias_table = truth.aliased.frozen_table(
                    None if port == ICMPV6 else port
                )
            if isinstance(truth, FaultyGroundTruth):
                plane.fault = truth.fault
        else:
            plane.truth = truth
        return plane

    def ensure_fresh(self, truth: GroundTruth) -> None:
        """Raise :class:`StaleWorldError` if ``truth`` mutated since build."""
        if self.world_version is None:
            return
        current = getattr(truth, "world_version", None)
        if current is not None and current != self.world_version:
            raise StaleWorldError(
                "scan plane frozen at world version "
                f"{self.world_version} but the truth is now at {current}; "
                "rebuild the plane (or restart the scan) after mutating "
                "the world"
            )

    # -- probing ------------------------------------------------------------
    def gather(
        self, perm: CyclicPermutation | None, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One batch's target columns, in permuted probe order.

        The whole permuted column pair is materialised on first use:
        one big vectorised Feistel walk plus one fancy-gather beats
        thousands of small per-batch ones (the cycle-walk loop's fixed
        numpy overhead dominates at batch granularity), after which
        every batch is a zero-copy slice.  The copy is 16 bytes per
        target.
        """
        if perm is None:
            return self.hi[start:stop], self.lo[start:stop]
        permuted = self.permuted
        if permuted is None:
            indices = perm.permute_range_arr(0, len(self.hi))
            permuted = self.permuted = (self.hi[indices], self.lo[indices])
        return permuted[0][start:stop], permuted[1][start:stop]

    def probe_range(
        self,
        perm: CyclicPermutation | None,
        start: int,
        stop: int,
        loss_key: int,
        stats: "ScanStats",
        hits: set[int],
    ) -> list[int]:
        """Round-0 probe of targets ``start..stop-1`` (permuted order)."""
        bhi, blo = self.gather(perm, start, stop)
        return self.probe_batch(bhi, blo, loss_key, stats, hits)

    def probe_batch(
        self,
        bhi: np.ndarray,
        blo: np.ndarray,
        loss_key: int,
        stats: "ScanStats",
        hits: set[int],
    ) -> list[int]:
        """Blacklist / loss / responsiveness for one column batch.

        Returns the batch's responsive addresses (the checkpoint delta)
        in probe order.  The batch is hashed once and the hashes are
        reused by every exact-membership stage (``/128`` blacklist
        entries, the host table).
        """
        hashes = hash_columns(bhi, blo)
        blocked = self._blocked(bhi, blo, hashes)
        if blocked is not None:
            count = int(blocked.sum())
            if count:
                stats.blacklisted += count
                keep = ~blocked
                bhi, blo, hashes = bhi[keep], blo[keep], hashes[keep]
        stats.probes_sent += len(bhi)
        if self.loss_rate:
            lost = loss_prf_arr(loss_key, bhi, blo) < self.loss_rate
            count = int(lost.sum())
            if count:
                stats.dropped += count
                keep = ~lost
                bhi, blo, hashes = bhi[keep], blo[keep], hashes[keep]
        responded = self._responsive(bhi, blo, attempt=0, hashes=hashes)
        responsive = unpack(bhi[responded], blo[responded])
        stats.responses += len(responsive)
        hits.update(responsive)
        return responsive

    def retry_chunk(
        self,
        bhi: np.ndarray,
        blo: np.ndarray,
        round_key: int,
        round_: int,
        stats: "ScanStats",
        hits: set[int],
    ) -> list[int]:
        """One retry round over a pre-filtered pending chunk."""
        stats.retransmits += len(bhi)
        if self.loss_rate:
            lost = loss_prf_arr(round_key, bhi, blo) < self.loss_rate
            count = int(lost.sum())
            if count:
                stats.dropped += count
                keep = ~lost
                bhi, blo = bhi[keep], blo[keep]
        responded = self._responsive(bhi, blo, attempt=round_)
        responsive = unpack(bhi[responded], blo[responded])
        stats.responses += len(responsive)
        hits.update(responsive)
        return responsive

    def pending_columns(
        self,
        perm: CyclicPermutation | None,
        batch_size: int,
        hits: set[int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Non-responding, non-blacklisted targets in permuted order.

        A pure function of (targets, permutation, hits) — the property
        that lets a resumed run rebuild exactly the pending set an
        uninterrupted run would carry into a retry round — chunked so
        the permutation is computed batch-wise like the scan itself.
        """
        hit_keys = FrozenKeySet.from_ints(hits)
        keep_hi: list[np.ndarray] = []
        keep_lo: list[np.ndarray] = []
        n = len(self.hi)
        for start in range(0, n, batch_size):
            bhi, blo = self.gather(perm, start, min(start + batch_size, n))
            keep = ~hit_keys.member(bhi, blo)
            blocked = self._blocked(bhi, blo)
            if blocked is not None:
                keep &= ~blocked
            keep_hi.append(bhi[keep])
            keep_lo.append(blo[keep])
        if not keep_hi:
            empty = np.empty(0, dtype=np.uint64)
            return empty, empty
        return np.concatenate(keep_hi), np.concatenate(keep_lo)

    # -- lookups: frozen tables, or the live object's batch methods ---------
    def _blocked(
        self,
        bhi: np.ndarray,
        blo: np.ndarray,
        hashes: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Blacklist verdict per address; None when nothing is blacklisted."""
        if self.blacklist_table is not None:
            return self.blacklist_table.match_any(bhi, blo, hashes=hashes)
        if self.blacklist is not None:
            return np.array(
                self.blacklist.contains_many(unpack(bhi, blo)), dtype=bool
            )
        return None

    def _responsive(
        self,
        bhi: np.ndarray,
        blo: np.ndarray,
        attempt: int,
        hashes: np.ndarray | None = None,
    ) -> np.ndarray:
        """Would each probe get a response?  (Fault layer, then truth.)"""
        if self.truth is not None:
            return np.array(
                self.truth.responsive_many(
                    unpack(bhi, blo), self.port, attempt=attempt
                ),
                dtype=bool,
            )
        if self.fault is not None:
            dropped = self.fault.drops_many_arr(bhi, blo, self.port, attempt)
            flags = np.zeros(len(bhi), dtype=bool)
            live = ~dropped
            if live.any():
                flags[live] = self._base_responsive(
                    bhi[live],
                    blo[live],
                    hashes[live] if hashes is not None else None,
                )
            return flags
        return self._base_responsive(bhi, blo, hashes)

    def _base_responsive(
        self,
        bhi: np.ndarray,
        blo: np.ndarray,
        hashes: np.ndarray | None = None,
    ) -> np.ndarray:
        if hashes is None:
            hashes = hash_columns(bhi, blo)
        flags = self.host_keys.member(bhi, blo, hashes=hashes)
        if self.alias_table is not None:
            miss = ~flags
            if miss.any():
                flags[miss] = self.alias_table.match_any(
                    bhi[miss], blo[miss], hashes=hashes[miss]
                )
        return flags
