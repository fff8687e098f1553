"""Scan scheduling: the cyclic target order and the probe-rate policy.

The paper randomises destination order and runs scans serially "to
avoid overloading networks" (§6).  :class:`CyclicPermutation` is the
ZMap-style keyed bijection the scan engine uses to visit a target list
in pseudo-random order with O(1) auxiliary memory.

:class:`RatePolicy` is the budget/window admission rule (admit at most
``budget`` of every ``window`` arrivals) behind
:class:`repro.faults.RateLimiter`, a throttling router modelled as a
fault.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ipv6.addrplane import _mix64_np, mix64

_GOLDEN = 0x9E3779B97F4A7C15


class CyclicPermutation:
    """A keyed bijection over ``[0, n)`` — ZMap's trick for IPv6 lists.

    ZMap scans the IPv4 space in the order of a cyclic group generator
    so the whole permutation costs O(1) state.  The target lists here
    are arbitrary, so we permute their *index space* instead: a 4-round
    Feistel network over the smallest even-bit domain covering ``n``,
    with cycle-walking for out-of-range images.  Walking indices
    ``0..n-1`` through the permutation visits every target exactly once
    in a key-dependent pseudo-random order, with no shuffled copy of
    the list and no index array.

    The scalar :meth:`__call__` is the specification; the vectorised
    :meth:`permute_range_arr` computes the same mapping batch-wise (the
    scan plane's order) and is verified equal in the tests.
    """

    __slots__ = ("n", "_half_bits", "_half_mask", "_keys")

    def __init__(self, n: int, key: int, rounds: int = 4):
        if n < 0:
            raise ValueError(f"permutation size must be non-negative: {n}")
        self.n = n
        bits = max(2, (n - 1).bit_length()) if n > 1 else 2
        half = (bits + 1) // 2
        self._half_bits = half
        self._half_mask = (1 << half) - 1
        self._keys = tuple(mix64(key + r * _GOLDEN) for r in range(rounds))

    def _encrypt(self, x: int) -> int:
        half, mask = self._half_bits, self._half_mask
        left, right = x >> half, x & mask
        for k in self._keys:
            left, right = right, left ^ (mix64(right ^ k) & mask)
        return (left << half) | right

    def __call__(self, index: int) -> int:
        """Image of ``index`` under the permutation (both in ``[0, n)``)."""
        if not 0 <= index < self.n:
            raise IndexError(f"index {index} out of range [0, {self.n})")
        image = self._encrypt(index)
        while image >= self.n:
            # Cycle-walk: the domain is < 4n, so this terminates fast,
            # and re-encrypting stays within the index's own cycle —
            # the first in-range image is unique to it (bijectivity).
            image = self._encrypt(image)
        return image

    def permute_range_arr(self, start: int, stop: int) -> "np.ndarray":
        """Images of ``start..stop-1`` as a uint64 array (no boxing).

        The array scan plane indexes its hi/lo target columns with this
        directly.
        """
        if not 0 <= start <= stop <= self.n:
            raise IndexError(f"range [{start}, {stop}) outside [0, {self.n})")
        if start == stop:
            return np.empty(0, dtype=np.uint64)
        half = np.uint64(self._half_bits)
        mask = np.uint64(self._half_mask)
        keys = [np.uint64(k) for k in self._keys]

        def encrypt(x: "np.ndarray") -> "np.ndarray":
            left, right = x >> half, x & mask
            for k in keys:
                left, right = right, left ^ (_mix64_np(right ^ k) & mask)
            return (left << half) | right

        images = encrypt(np.arange(start, stop, dtype=np.uint64))
        walking = images >= self.n
        while walking.any():
            images[walking] = encrypt(images[walking])
            walking = images >= self.n
        return images


@dataclass(frozen=True)
class RatePolicy:
    """Budget/window admission: admit ``budget`` of every ``window`` slots.

    The mechanics behind ICMPv6-style rate limiting, as used by the
    :class:`repro.faults.RateLimiter` fault model.  A probe hashed to
    arrival slot ``s`` is admitted iff ``s % window < budget``;
    everything else about *which* slot a probe lands in (the PRF over
    prefix/address/attempt) stays with the consumer.
    """

    budget: int = 64
    window: int = 256

    def __post_init__(self) -> None:
        if not 0 < self.budget <= self.window:
            raise ValueError(
                f"budget must be in (0, window]: {self.budget}/{self.window}"
            )

    @property
    def admitted_fraction(self) -> float:
        """Long-run fraction of arrivals the policy admits."""
        return self.budget / self.window

    def admits(self, slot: int) -> bool:
        """Whether the arrival hashed to ``slot`` is within the budget."""
        return slot % self.window < self.budget

    def admits_arr(self, slots: "np.ndarray") -> "np.ndarray":
        """Vectorised :meth:`admits` over a uint64 slot column."""
        return slots % np.uint64(self.window) < np.uint64(self.budget)
