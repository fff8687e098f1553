"""PRF-keyed fault models: pure functions of ``(seed, addr, attempt)``.

Each model answers one question — "does this probe get dropped?" —
through :meth:`FaultModel.drops`.  Verdicts are derived from splitmix64
hashes of the model seed, the 128-bit address, and the attempt number,
never from sequential RNG state.  That choice buys three properties the
scanner's parity tests rely on:

* **order independence** — the verdict for a probe does not depend on
  which probes came before it, so the batched scan plane and the
  sequential reference loop agree bit-for-bit;
* **retry realism** — the attempt number is part of the key, so a
  retransmission is a fresh Bernoulli draw (except where a model
  deliberately pins state per address, e.g. a dead flaky host);
* **replayability** — rerunning a campaign with the same seed replays
  the exact fault sequence, which is what makes checkpoint/resume
  verifiable.

``WorkerCrash`` is the odd one out: it models an operational fault (a
scan worker dying mid-campaign) rather than a network one, and fires by
raising :class:`InjectedWorkerCrash` at a chosen batch index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..ipv6.addrplane import _mix64_np, _prf_bits, _prf_unit, mix64
from ..scanner.schedule import RatePolicy

_M64 = (1 << 64) - 1
_TWO64_NP = np.float64(2**64)
_ZERO64 = np.uint64(0)

# Domain-separation salts: each question a model asks the PRF gets its
# own constant, so e.g. "which window is this probe in" and "does the
# window drop it" are independent draws.
_SALT_DROP = 0x9D8A7B6C5D4E3F21
_SALT_WINDOW = 0x1F2E3D4C5B6A7988
_SALT_STATE = 0xC3A5C85C97CB3127
_SALT_ARRIVAL = 0xB492B66FBE98F273
_SALT_MEMBER = 0x6C62272E07BB0142
_SALT_AVAIL = 0x27D4EB2F165667C5


# -- vectorised PRF helpers (bit-identical to the scalar forms) -------------
def _prf_start(seed: int, salt: int) -> np.uint64:
    """The scalar hash-chain start ``mix64(seed ^ salt)`` as a uint64."""
    return np.uint64(mix64((seed ^ salt) & _M64))


def _fold64(h: np.ndarray | np.uint64, part: np.ndarray | np.uint64) -> np.ndarray:
    """Fold one 64-bit part into the chain (matches ``_prf_bits``)."""
    return _mix64_np(h ^ part)


def _fold128(
    h: np.ndarray | np.uint64, hi: np.ndarray, lo: np.ndarray
) -> np.ndarray:
    """Fold a 128-bit part given as hi/lo columns.

    The scalar ``_prf_bits`` folds the high word only when it is
    non-zero; ``np.where`` replicates that branch exactly.
    """
    h = _mix64_np(h ^ lo)
    return np.where(hi != _ZERO64, _mix64_np(h ^ hi), h)


def _unit(h: np.ndarray) -> np.ndarray:
    """Chain value -> uniform-in-[0, 1) float64 (exact 2**64 scaling)."""
    return h / _TWO64_NP


class FaultModel:
    """One deterministic probe-level fault.

    Subclasses implement :meth:`drops`; :meth:`drops_many` is the
    batched form the scanner's bulk path uses (override it if a model
    can vectorise, the default just loops).
    """

    def drops(self, addr: int, port: int, attempt: int) -> bool:
        raise NotImplementedError

    def drops_many(
        self, addrs: Sequence[int], port: int, attempt: int
    ) -> list[bool]:
        return [self.drops(int(a), port, attempt) for a in addrs]

    def drops_many_arr(
        self, hi: np.ndarray, lo: np.ndarray, port: int, attempt: int
    ) -> np.ndarray:
        """Batched verdicts over hi/lo uint64 columns (bool array).

        Built-in models override this with fully vectorised PRFs; the
        default unpacks to ints and delegates to :meth:`drops_many`, so
        any custom model works on the array scan path unchanged.
        """
        from ..ipv6.addrplane import unpack

        return np.asarray(
            self.drops_many(unpack(hi, lo), port, attempt), dtype=bool
        )


@dataclass(frozen=True)
class BurstyLoss(FaultModel):
    """Gilbert–Elliott two-state loss channel, PRF-approximated.

    The classical model is a Markov chain: a *good* state with low loss
    and a *bad* state with high loss, with per-slot transition
    probabilities ``p_enter`` (good→bad) and ``p_exit`` (bad→good).
    A literal chain is sequential state — poison for order-independent
    scans — so this model keeps the chain's two observable signatures
    and discards the sequencing:

    * the stationary fraction of time spent bad,
      ``p_enter / (p_enter + p_exit)``;
    * the mean burst length, ``1 / p_exit`` slots.

    Each probe is hashed to a virtual time slot, slots group into
    windows of the mean burst length, and the *window* (not the probe)
    draws good/bad at the stationary probability.  Probes landing in a
    bad window share its fate — losses arrive in bursts — yet every
    verdict is still a pure function of ``(seed, addr, attempt)``.
    """

    seed: int
    p_enter: float = 0.02
    p_exit: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 0.9

    def __post_init__(self) -> None:
        for name in ("p_enter", "p_exit"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]: {value}")
        for name in ("loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {value}")

    @property
    def stationary_bad(self) -> float:
        """Long-run fraction of time the channel spends in the bad state."""
        return self.p_enter / (self.p_enter + self.p_exit)

    @property
    def burst_slots(self) -> int:
        """Mean bad-burst length in slots (window size for state draws)."""
        return max(1, round(1.0 / self.p_exit))

    def drops(self, addr: int, port: int, attempt: int) -> bool:
        slot = _prf_bits(self.seed, _SALT_WINDOW, addr, attempt) & 0xFFFFFFFF
        window = slot // self.burst_slots
        bad = _prf_unit(self.seed, _SALT_STATE, window) < self.stationary_bad
        loss = self.loss_bad if bad else self.loss_good
        if loss <= 0.0:
            return False
        if loss >= 1.0:
            return True
        return _prf_unit(self.seed, _SALT_DROP, addr, attempt) < loss

    def drops_many_arr(
        self, hi: np.ndarray, lo: np.ndarray, port: int, attempt: int
    ) -> np.ndarray:
        att = np.uint64(attempt)
        slot = _fold64(
            _fold128(_prf_start(self.seed, _SALT_WINDOW), hi, lo), att
        ) & np.uint64(0xFFFFFFFF)
        window = slot // np.uint64(self.burst_slots)
        bad = (
            _unit(_fold64(_prf_start(self.seed, _SALT_STATE), window))
            < self.stationary_bad
        )
        loss = np.where(bad, self.loss_bad, self.loss_good)
        draw = _unit(
            _fold64(_fold128(_prf_start(self.seed, _SALT_DROP), hi, lo), att)
        )
        # Mirrors the scalar clamps: loss<=0 never drops, loss>=1 always.
        return (loss > 0.0) & ((loss >= 1.0) | (draw < loss))


@dataclass(frozen=True)
class RateLimiter(FaultModel):
    """Per-prefix responders that stop answering above a probe budget.

    Models ICMPv6-style rate limiting: a network answers at most
    ``budget`` probes out of every ``window`` virtual arrivals aimed at
    its ``/prefix_len``.  Each probe is hashed to an arrival slot
    within its prefix's window; slots past the budget are silently
    dropped.  With the default ``budget/window`` ratio a limited prefix
    answers ~25% of probes — retries land in fresh slots (the attempt
    is part of the hash), so persistence pays, just like against real
    throttling routers.

    ``limited_fraction`` < 1 limits only a PRF-chosen subset of
    prefixes, leaving the rest transparent.

    The budget/window admission rule itself lives in
    :class:`repro.scanner.schedule.RatePolicy`; this model keeps the
    network side — hashing each probe to an arrival slot within its
    prefix's window — and drops exactly the probes the policy does not
    admit.
    """

    seed: int
    budget: int = 64
    window: int = 256
    prefix_len: int = 64
    limited_fraction: float = 1.0

    def __post_init__(self) -> None:
        # Validates budget/window; cached because scalar drops() runs
        # once per probe (object.__setattr__ walks the frozen wall).
        object.__setattr__(self, "_policy", RatePolicy(self.budget, self.window))
        if not 0 <= self.prefix_len <= 128:
            raise ValueError(f"prefix_len must be in [0, 128]: {self.prefix_len}")
        if not 0.0 <= self.limited_fraction <= 1.0:
            raise ValueError(
                f"limited_fraction must be in [0, 1]: {self.limited_fraction}"
            )

    @property
    def policy(self) -> RatePolicy:
        """The admission rule this limiter enforces."""
        return self._policy

    @classmethod
    def from_policy(
        cls,
        policy: RatePolicy,
        *,
        seed: int,
        prefix_len: int = 64,
        limited_fraction: float = 1.0,
    ) -> "RateLimiter":
        """Build the limiter that enforces ``policy``."""
        return cls(
            seed=seed,
            budget=policy.budget,
            window=policy.window,
            prefix_len=prefix_len,
            limited_fraction=limited_fraction,
        )

    def _prefix_of(self, addr: int) -> int:
        return addr >> (128 - self.prefix_len) if self.prefix_len else 0

    def drops(self, addr: int, port: int, attempt: int) -> bool:
        prefix = self._prefix_of(addr)
        if self.limited_fraction < 1.0:
            if _prf_unit(self.seed, _SALT_MEMBER, prefix) >= self.limited_fraction:
                return False
        slot = _prf_bits(self.seed, _SALT_ARRIVAL, prefix, addr, attempt)
        return not self._policy.admits(slot)

    def _prefix_columns(
        self, hi: np.ndarray, lo: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``/prefix_len`` network *value* as hi/lo columns.

        numpy shifts by >= 64 are undefined for uint64, so the four
        length regimes are handled explicitly.
        """
        length = self.prefix_len
        zeros = np.zeros(len(hi), dtype=np.uint64)
        if length == 0:
            return zeros, zeros
        if length <= 64:
            plo = hi if length == 64 else hi >> np.uint64(64 - length)
            return zeros, plo
        if length == 128:
            return hi, lo
        shift = np.uint64(128 - length)
        plo = (hi << (np.uint64(64) - shift)) | (lo >> shift)
        return hi >> shift, plo

    def drops_many_arr(
        self, hi: np.ndarray, lo: np.ndarray, port: int, attempt: int
    ) -> np.ndarray:
        phi, plo = self._prefix_columns(hi, lo)
        slot = _fold64(
            _fold128(
                _fold128(_prf_start(self.seed, _SALT_ARRIVAL), phi, plo),
                hi,
                lo,
            ),
            np.uint64(attempt),
        )
        dropped = ~self._policy.admits_arr(slot)
        if self.limited_fraction < 1.0:
            member = (
                _unit(_fold128(_prf_start(self.seed, _SALT_MEMBER), phi, plo))
                < self.limited_fraction
            )
            dropped &= member
        return dropped


@dataclass(frozen=True)
class FlakyHosts(FaultModel):
    """Hosts with a stable per-address availability below 1.

    Follow-up hitlist studies (Gasser et al.) find responsiveness is
    unstable across probes even for "known" hosts.  Each address draws
    a fixed availability in ``[min_availability, max_availability]``
    from its hash; every (attempt-keyed) probe then succeeds with that
    probability.  ``flaky_fraction`` < 1 makes only a PRF-chosen subset
    of addresses flaky at all.
    """

    seed: int
    min_availability: float = 0.3
    max_availability: float = 0.95
    flaky_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_availability <= self.max_availability <= 1.0:
            raise ValueError(
                "need 0 <= min_availability <= max_availability <= 1: "
                f"{self.min_availability}..{self.max_availability}"
            )
        if not 0.0 <= self.flaky_fraction <= 1.0:
            raise ValueError(
                f"flaky_fraction must be in [0, 1]: {self.flaky_fraction}"
            )

    def drops(self, addr: int, port: int, attempt: int) -> bool:
        if self.flaky_fraction < 1.0:
            if _prf_unit(self.seed, _SALT_MEMBER, addr) >= self.flaky_fraction:
                return False
        span = self.max_availability - self.min_availability
        availability = self.min_availability + span * _prf_unit(
            self.seed, _SALT_AVAIL, addr
        )
        return _prf_unit(self.seed, _SALT_DROP, addr, attempt) >= availability

    def drops_many_arr(
        self, hi: np.ndarray, lo: np.ndarray, port: int, attempt: int
    ) -> np.ndarray:
        span = self.max_availability - self.min_availability
        availability = self.min_availability + span * _unit(
            _fold128(_prf_start(self.seed, _SALT_AVAIL), hi, lo)
        )
        draw = _unit(
            _fold64(
                _fold128(_prf_start(self.seed, _SALT_DROP), hi, lo),
                np.uint64(attempt),
            )
        )
        dropped = draw >= availability
        if self.flaky_fraction < 1.0:
            member = (
                _unit(_fold128(_prf_start(self.seed, _SALT_MEMBER), hi, lo))
                < self.flaky_fraction
            )
            dropped &= member
        return dropped


@dataclass(frozen=True)
class CompositeFault(FaultModel):
    """Drop when *any* member model drops (independent fault layers)."""

    models: tuple[FaultModel, ...]

    def drops(self, addr: int, port: int, attempt: int) -> bool:
        return any(m.drops(addr, port, attempt) for m in self.models)

    def drops_many(
        self, addrs: Sequence[int], port: int, attempt: int
    ) -> list[bool]:
        flags = [False] * len(addrs)
        for model in self.models:
            for i, dropped in enumerate(model.drops_many(addrs, port, attempt)):
                if dropped:
                    flags[i] = True
        return flags

    def drops_many_arr(
        self, hi: np.ndarray, lo: np.ndarray, port: int, attempt: int
    ) -> np.ndarray:
        flags = np.zeros(len(hi), dtype=bool)
        for model in self.models:
            flags |= model.drops_many_arr(hi, lo, port, attempt)
        return flags


def compose(*models: FaultModel) -> FaultModel:
    """Stack fault models; a probe is lost if any layer loses it."""
    if not models:
        raise ValueError("compose() needs at least one fault model")
    if len(models) == 1:
        return models[0]
    return CompositeFault(models=tuple(models))


class InjectedWorkerCrash(RuntimeError):
    """Raised by an armed :class:`WorkerCrash` — simulates a dying worker."""


@dataclass(frozen=True)
class WorkerCrash:
    """Deterministic crash trigger for the scan pipeline.

    Fires (raises :class:`InjectedWorkerCrash`) exactly when the scan
    reaches batch ``at_batch`` of round ``at_round``.  The spec is
    stateless; a resumed run simply does not pass the crash spec again,
    mirroring an operator restarting a fixed deployment.
    """

    at_batch: int
    at_round: int = 0

    def __post_init__(self) -> None:
        if self.at_batch < 0:
            raise ValueError(f"at_batch must be >= 0: {self.at_batch}")
        if self.at_round < 0:
            raise ValueError(f"at_round must be >= 0: {self.at_round}")

    def check(self, round_: int, batch_index: int) -> None:
        if round_ == self.at_round and batch_index == self.at_batch:
            raise InjectedWorkerCrash(
                f"injected crash at round {round_}, batch {batch_index}"
            )
