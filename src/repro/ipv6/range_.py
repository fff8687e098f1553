"""Nybble-wildcard address ranges (the paper's cluster ranges, §5.3).

A :class:`NybbleRange` constrains each of the 32 nybble positions of an
IPv6 address to a set of allowed values, stored as a 16-bit mask per
position (bit ``v`` set means hex value ``v`` is allowed).  The range
covers exactly the product set of the per-position value sets.

Two clustering granularities from the paper are supported:

* **loose** — a position is either fixed to a single value or a full
  wildcard ``?`` accepting all 16 values;
* **tight** — positions may carry any subset of values, written with the
  paper's bracket syntax, e.g. ``[1-2,8-a]``.

Text syntax extends standard IPv6 notation: ``2001:db8::?:100?`` is a
range of 256 addresses; ``2001:db8::[0-3]1`` bounds one nybble to the
values 0–3.
"""

from __future__ import annotations

import itertools
import random
import re
from typing import Iterable, Iterator, Sequence

import numpy as np

from .address import AddressError
from .addrplane import ColumnDeduper, concat_columns, unpack
from .nybble import (
    FULL_MASK,
    HEXTET_COUNT,
    NYBBLE_COUNT,
    hex_digit,
    hex_value,
    mask_contains,
    mask_values,
    popcount16,
)
from .prefix import Prefix


class RangeError(ValueError):
    """Raised for malformed range text or invalid range operations."""


_BRACKET_RE = re.compile(r"^\[([0-9a-fA-F,\-]+)\]$")


def _parse_bracket(token: str) -> int:
    """Parse a ``[1-2,8-a]`` bracket expression into a 16-bit mask."""
    match = _BRACKET_RE.match(token)
    if not match:
        raise RangeError(f"invalid bracket expression: {token!r}")
    mask = 0
    for part in match.group(1).split(","):
        if not part:
            raise RangeError(f"empty item in bracket expression: {token!r}")
        lo_text, dash, hi_text = part.partition("-")
        lo = hex_value(lo_text) if len(lo_text) == 1 else None
        if lo is None:
            raise RangeError(f"invalid bracket item: {part!r}")
        if dash:
            hi = hex_value(hi_text) if len(hi_text) == 1 else None
            if hi is None or hi < lo:
                raise RangeError(f"invalid bracket span: {part!r}")
        else:
            hi = lo
        for v in range(lo, hi + 1):
            mask |= 1 << v
    return mask


def _format_mask(mask: int) -> str:
    """Format one position's mask as a digit, ``?``, or bracket expression."""
    if mask == FULL_MASK:
        return "?"
    values = mask_values(mask)
    if len(values) == 1:
        return hex_digit(values[0])
    # Collapse consecutive runs into spans.
    parts: list[str] = []
    run_start = prev = values[0]
    for v in values[1:] + (None,):  # type: ignore[operator]
        if v is not None and v == prev + 1:
            prev = v
            continue
        if run_start == prev:
            parts.append(hex_digit(run_start))
        else:
            parts.append(f"{hex_digit(run_start)}-{hex_digit(prev)}")
        if v is not None:
            run_start = prev = v
    return "[" + ",".join(parts) + "]"


def _tokenize_group(group: str) -> list[str]:
    """Split one colon-separated group into per-nybble tokens."""
    tokens: list[str] = []
    i = 0
    while i < len(group):
        ch = group[i]
        if ch == "[":
            end = group.find("]", i)
            if end == -1:
                raise RangeError(f"unterminated bracket in group: {group!r}")
            tokens.append(group[i : end + 1])
            i = end + 1
        else:
            tokens.append(ch)
            i += 1
    if not 1 <= len(tokens) <= 4:
        raise RangeError(f"group must contain 1-4 nybbles: {group!r}")
    return tokens


class NybbleRange:
    """A product-set region of IPv6 address space, one value-mask per nybble.

    Immutable; all growth operations return new ranges.
    """

    __slots__ = ("_masks", "_size")

    def __init__(self, masks: Sequence[int]):
        masks = tuple(masks)
        if len(masks) != NYBBLE_COUNT:
            raise RangeError(f"expected {NYBBLE_COUNT} masks, got {len(masks)}")
        size = 1
        for m in masks:
            if not 0 < m <= FULL_MASK:
                raise RangeError(f"invalid nybble mask: {m:#x}")
            size *= popcount16(m)
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_size", size)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("NybbleRange is immutable")

    def __reduce__(self):
        # immutability guard blocks default unpickling; rebuild via ctor
        return (NybbleRange, (self._masks,))

    # -- constructors ---------------------------------------------------
    @classmethod
    def _make(cls, masks: tuple[int, ...], size: int) -> "NybbleRange":
        """Trusted constructor: masks known valid, size precomputed.

        Used by the vectorised 6Gen kernel, which builds span masks from
        an existing (validated) range and tracks the size incrementally;
        skipping the 32-position validation loop matters when thousands
        of candidate spans are built per run.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_size", size)
        return self

    @classmethod
    def from_address(cls, addr: int) -> "NybbleRange":
        """The singleton range covering exactly one address."""
        value = int(addr)
        masks = [
            1 << ((value >> (4 * i)) & 0xF) for i in range(NYBBLE_COUNT - 1, -1, -1)
        ]
        return cls(masks)

    @classmethod
    def full(cls) -> "NybbleRange":
        """The range covering the entire 128-bit address space."""
        return cls([FULL_MASK] * NYBBLE_COUNT)

    @classmethod
    def from_prefix(cls, prefix: Prefix) -> "NybbleRange":
        """A range equivalent to a nybble-aligned CIDR prefix.

        The prefix length must be a multiple of 4 (a bit-aligned prefix
        has no exact nybble-mask representation otherwise).
        """
        if prefix.length % 4 != 0:
            raise RangeError(
                f"prefix length {prefix.length} is not nybble-aligned"
            )
        fixed = prefix.length // 4
        masks = []
        for i in range(NYBBLE_COUNT):
            if i < fixed:
                masks.append(1 << ((prefix.network >> (4 * (NYBBLE_COUNT - 1 - i))) & 0xF))
            else:
                masks.append(FULL_MASK)
        return cls(masks)

    @classmethod
    def parse(cls, text: str) -> "NybbleRange":
        """Parse wildcard range text (IPv6 grammar + ``?`` + brackets)."""
        text = text.strip()
        if not text:
            raise RangeError("empty range")
        if text.count("::") > 1:
            raise RangeError(f"multiple '::' in range: {text!r}")

        def groups_to_masks(groups: list[str]) -> list[int]:
            masks: list[int] = []
            for group in groups:
                tokens = _tokenize_group(group)
                group_masks = []
                for token in tokens:
                    if token == "?":
                        group_masks.append(FULL_MASK)
                    elif token.startswith("["):
                        group_masks.append(_parse_bracket(token))
                    else:
                        try:
                            group_masks.append(1 << hex_value(token))
                        except ValueError:
                            raise RangeError(
                                f"invalid character {token!r} in range {text!r}"
                            ) from None
                # Implied leading zeros for short groups (e.g. "?" == "000?").
                masks.extend([1 << 0] * (4 - len(group_masks)))
                masks.extend(group_masks)
            return masks

        if "::" in text:
            left_text, right_text = text.split("::", 1)
            left = [g for g in left_text.split(":") if g] if left_text else []
            right = [g for g in right_text.split(":") if g] if right_text else []
            fill = HEXTET_COUNT - len(left) - len(right)
            if fill < 1:
                raise RangeError(f"'::' must replace at least one group: {text!r}")
            left_masks = groups_to_masks(left)
            right_masks = groups_to_masks(right)
            masks = left_masks + [1 << 0] * (4 * fill) + right_masks
        else:
            groups = text.split(":")
            if len(groups) != HEXTET_COUNT:
                raise RangeError(
                    f"expected {HEXTET_COUNT} groups, got {len(groups)}: {text!r}"
                )
            masks = groups_to_masks(groups)
        if len(masks) != NYBBLE_COUNT:
            raise RangeError(f"range does not span 32 nybbles: {text!r}")
        return cls(masks)

    # -- accessors -------------------------------------------------------
    @property
    def masks(self) -> tuple[int, ...]:
        """Per-position 16-bit value masks (index 0 = most significant)."""
        return self._masks

    def size(self) -> int:
        """Number of addresses covered (product of per-position set sizes)."""
        return self._size

    def mask(self, index: int) -> int:
        """The value mask at one nybble position."""
        return self._masks[index]

    def values_at(self, index: int) -> tuple[int, ...]:
        """Allowed nybble values at one position, ascending."""
        return mask_values(self._masks[index])

    def is_singleton(self) -> bool:
        """True if the range covers exactly one address."""
        return self._size == 1

    def dynamic_positions(self) -> tuple[int, ...]:
        """Indices of positions allowing more than one value (paper Fig. 6)."""
        return tuple(i for i, m in enumerate(self._masks) if popcount16(m) > 1)

    def fixed_positions(self) -> tuple[int, ...]:
        """Indices of positions fixed to a single value."""
        return tuple(i for i, m in enumerate(self._masks) if popcount16(m) == 1)

    # -- membership & set relations ---------------------------------------
    def contains(self, addr: int) -> bool:
        """True if the address lies within the range."""
        value = int(addr)
        for i in range(NYBBLE_COUNT):
            nybble = (value >> (4 * (NYBBLE_COUNT - 1 - i))) & 0xF
            if not mask_contains(self._masks[i], nybble):
                return False
        return True

    def is_subset(self, other: "NybbleRange") -> bool:
        """True if every address in this range is also in ``other``."""
        return all(
            (mine & ~theirs) == 0 for mine, theirs in zip(self._masks, other._masks)
        )

    def is_strict_subset(self, other: "NybbleRange") -> bool:
        """True if this range is a subset of ``other`` and not equal to it."""
        return self._masks != other._masks and self.is_subset(other)

    def overlaps(self, other: "NybbleRange") -> bool:
        """True if the ranges share at least one address."""
        return all(
            (mine & theirs) != 0 for mine, theirs in zip(self._masks, other._masks)
        )

    def intersection(self, other: "NybbleRange") -> "NybbleRange | None":
        """The shared region, or ``None`` if the ranges are disjoint."""
        masks = [mine & theirs for mine, theirs in zip(self._masks, other._masks)]
        if any(m == 0 for m in masks):
            return None
        return NybbleRange(masks)

    # -- growth (cluster expansion, §5.4) ----------------------------------
    def span_tight(self, addr: int) -> "NybbleRange":
        """Smallest tight range covering this range plus one address.

        Each differing position gains exactly the address's nybble value.
        """
        value = int(addr)
        masks = list(self._masks)
        for i in range(NYBBLE_COUNT):
            nybble = (value >> (4 * (NYBBLE_COUNT - 1 - i))) & 0xF
            masks[i] |= 1 << nybble
        return NybbleRange(masks)

    def span_loose(self, addr: int) -> "NybbleRange":
        """Loose range covering this range plus one address.

        Each position whose mask does not already contain the address's
        nybble becomes a full ``?`` wildcard.
        """
        value = int(addr)
        masks = list(self._masks)
        for i in range(NYBBLE_COUNT):
            nybble = (value >> (4 * (NYBBLE_COUNT - 1 - i))) & 0xF
            if not mask_contains(masks[i], nybble):
                masks[i] = FULL_MASK
        return NybbleRange(masks)

    def span(self, addr: int, loose: bool) -> "NybbleRange":
        """Dispatch to :meth:`span_loose` or :meth:`span_tight`."""
        return self.span_loose(addr) if loose else self.span_tight(addr)

    # -- enumeration & sampling -------------------------------------------
    def iter_ints(self) -> Iterator[int]:
        """Iterate covered addresses as integers, ascending.

        The caller is responsible for checking :meth:`size` first; a
        range can cover up to 2**128 addresses.
        """
        value_lists = [mask_values(m) for m in self._masks]
        for combo in itertools.product(*value_lists):
            value = 0
            for nybble in combo:
                value = (value << 4) | nybble
            yield value

    def iter_new_ints(self, old: "NybbleRange") -> Iterator[int]:
        """Iterate addresses in this range that are *not* in ``old``.

        ``old`` must be a subset of this range (the cluster-growth case:
        a grown range always contains its pre-growth range).  The cost is
        proportional to the size of the *difference*, not of the full
        range: the difference of two product sets is partitioned by the
        first widened position that takes a newly added value.  The
        budget ledger uses the column form, :func:`expand_new_arr`; this
        scalar iterator is its test oracle.
        """
        if not old.is_subset(self):
            raise RangeError("iter_new_ints requires old ⊆ new")
        widened = [
            i
            for i in range(NYBBLE_COUNT)
            if self._masks[i] != old._masks[i]
        ]
        for k, pivot in enumerate(widened):
            # Positions before the pivot (among widened ones) take OLD
            # values, the pivot takes NEW-ONLY values, later widened
            # positions take NEW values; unchanged positions keep their
            # common mask.
            value_lists: list[tuple[int, ...]] = []
            for i in range(NYBBLE_COUNT):
                if i == pivot:
                    values = mask_values(self._masks[i] & ~old._masks[i])
                elif i in widened[:k]:
                    values = mask_values(old._masks[i])
                else:
                    values = mask_values(self._masks[i])
                value_lists.append(values)
            for combo in itertools.product(*value_lists):
                value = 0
                for nybble in combo:
                    value = (value << 4) | nybble
                yield value

    def difference_size(self, old: "NybbleRange") -> int:
        """``len(self \\ old)`` for ``old`` a subset of this range."""
        if not old.is_subset(self):
            raise RangeError("difference_size requires old ⊆ new")
        return self._size - old._size

    def sample_new_ints(
        self,
        old: "NybbleRange",
        count: int,
        rng: random.Random,
        *,
        exclude: ColumnDeduper | None = None,
    ) -> list[int]:
        """``count`` distinct random addresses from ``self \\ old``, none in ``exclude``.

        The paper's final-growth sampling; :func:`sample_new_arr` with
        the picks unpacked to integers.
        """
        return unpack(*sample_new_arr(self, old, count, rng, exclude=exclude))

    def random_int(self, rng: random.Random) -> int:
        """A uniformly random covered address."""
        value = 0
        for m in self._masks:
            values = mask_values(m)
            value = (value << 4) | rng.choice(values)
        return value

    def sample_ints(self, count: int, rng: random.Random) -> list[int]:
        """``count`` distinct covered addresses, uniformly at random.

        Raises :class:`RangeError` if the range holds fewer than
        ``count`` addresses.  Uses rejection sampling (cheap because the
        per-position draws are independent) with an enumeration fallback
        for small ranges.
        """
        if count > self._size:
            raise RangeError(
                f"cannot sample {count} distinct addresses from range of size {self._size}"
            )
        if self._size <= 4 * count:
            population = list(self.iter_ints())
            return rng.sample(population, count)
        chosen: set[int] = set()
        while len(chosen) < count:
            chosen.add(self.random_int(rng))
        return sorted(chosen)

    # -- formatting & protocol --------------------------------------------
    def wildcard_text(self) -> str:
        """Paper-style text form with ``?`` wildcards and brackets.

        Runs of two or more all-zero groups are compressed with ``::``
        like plain addresses.
        """
        group_texts = []
        for g in range(HEXTET_COUNT):
            masks = self._masks[4 * g : 4 * g + 4]
            tokens = [_format_mask(m) for m in masks]
            # Strip implied leading zeros, keeping at least one token.
            while len(tokens) > 1 and tokens[0] == "0":
                tokens.pop(0)
            group_texts.append("".join(tokens))
        # Compress the longest run (>= 2) of "0" groups, leftmost first.
        best_start, best_len = -1, 0
        run_start, run_len = -1, 0
        for i, g in enumerate(group_texts + ["x"]):
            if g == "0":
                if run_len == 0:
                    run_start = i
                run_len += 1
            else:
                if run_len > best_len:
                    best_start, best_len = run_start, run_len
                run_len = 0
        if best_len < 2:
            return ":".join(group_texts)
        left = ":".join(group_texts[:best_start])
        right = ":".join(group_texts[best_start + best_len:])
        return f"{left}::{right}"

    def __str__(self) -> str:
        return self.wildcard_text()

    def __repr__(self) -> str:
        return f"NybbleRange({self.wildcard_text()!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, NybbleRange):
            return self._masks == other._masks
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._masks)

    def __contains__(self, addr) -> bool:
        try:
            return self.contains(int(addr))
        except (TypeError, ValueError, AddressError):
            return False


# -- column-native expansion (generation plane) -----------------------------
def _expand_half_arr(masks: Sequence[int]) -> np.ndarray:
    """Cartesian product of 16 nybble positions as one uint64 column.

    Fixed positions fold into one constant; each dynamic position then
    contributes a single repeat/tile pass over the full-size output —
    leftmost varying slowest, exactly the ``itertools.product`` order
    of :meth:`NybbleRange.iter_ints`.  One full-size array op per
    *dynamic* position (typically 1–3) instead of one per position.
    """
    size = 1
    const = 0
    dynamic: list[tuple[int, tuple[int, ...]]] = []
    shift = 4 * len(masks)
    for m in masks:
        shift -= 4
        if m & (m - 1):
            values = mask_values(m)
            dynamic.append((shift, values))
            size *= len(values)
        else:
            const |= (m.bit_length() - 1) << shift
    if len(dynamic) <= 1:
        # At most one dynamic position: the column is that position's
        # values over the constant, built in one pass.
        shift, values = dynamic[0] if dynamic else (0, (0,))
        return np.array([const | (v << shift) for v in values], dtype=np.uint64)
    out = np.full(size, np.uint64(const), dtype=np.uint64)
    stride = size
    for shift, values in dynamic:
        stride //= len(values)
        shifted = np.array([v << shift for v in values], dtype=np.uint64)
        block = np.repeat(shifted, stride)
        if len(block) == size:
            out |= block
        else:
            out |= np.tile(block, size // len(block))
    return out


def _expand_prefix_arr(
    masks: Sequence[int], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``n`` addresses of the product set, as hi/lo columns.

    The product order is a mixed-radix counter (rightmost position is
    the fastest digit), so address ``j`` decodes positionally:
    ``digit = (j // stride) % count`` with ``stride`` the product of all
    value counts to the right.  Positions whose stride already exceeds
    ``n`` never advance and contribute their first value as a constant.
    """
    idx = np.arange(n, dtype=np.uint64)
    hi = np.zeros(n, dtype=np.uint64)
    lo = np.zeros(n, dtype=np.uint64)
    stride = 1
    for pos in range(NYBBLE_COUNT - 1, -1, -1):
        values = mask_values(masks[pos])
        count = len(values)
        nybble_index = NYBBLE_COUNT - 1 - pos  # 0 = least significant
        column = hi if nybble_index >= 16 else lo
        shift = np.uint64(4 * (nybble_index % 16))
        if count == 1 or stride >= n:
            if values[0]:
                column |= np.uint64(values[0]) << shift
        else:
            digits = (idx // np.uint64(stride)) % np.uint64(count)
            column |= np.array(values, dtype=np.uint64)[digits] << shift
        stride *= count
    return hi, lo


def expand_range_arr(
    range_: NybbleRange, *, limit: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Materialise a range directly into packed ``(hi, lo)`` columns.

    Column-native counterpart of :meth:`NybbleRange.iter_ints`: the
    output order is exactly the scalar iteration order (ascending), and
    with ``limit`` the first ``limit`` addresses of that order.  No
    Python big-ints are boxed along the way.  As with ``iter_ints``, the
    caller is responsible for keeping ``min(size, limit)`` sane.
    """
    size = range_.size()
    n = size if limit is None else min(limit, size)
    if n <= 0:
        empty = np.empty(0, dtype=np.uint64)
        return empty, empty
    if n < size:
        return _expand_prefix_arr(range_.masks, n)
    return _expand_masks_arr(range_.masks)


def _expand_masks_arr(masks: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The full product set of 32 position masks as hi/lo columns."""
    hi = _expand_half_arr(masks[:16])
    lo = _expand_half_arr(masks[16:])
    return np.repeat(hi, len(lo)), np.tile(lo, len(hi))


def expand_new_arr(
    new: NybbleRange, old: NybbleRange
) -> tuple[np.ndarray, np.ndarray]:
    """Column-native :meth:`NybbleRange.iter_new_ints`: ``new \\ old`` as columns.

    One :func:`expand_range_arr` per pivot sub-range (earlier widened
    positions at their old values, the pivot at its new-only values,
    later ones at their new values), concatenated in exactly the
    scalar iteration order.  ``old`` must be a subset of ``new``.
    """
    if not old.is_subset(new):
        raise RangeError("expand_new_arr requires old ⊆ new")
    masks = list(new.masks)
    parts = []
    for i, (new_mask, old_mask) in enumerate(zip(new.masks, old.masks)):
        if new_mask != old_mask:
            masks[i] = new_mask & ~old_mask
            parts.append(_expand_masks_arr(masks))
            masks[i] = old_mask
    return concat_columns(parts)


def sample_new_arr(
    new: NybbleRange,
    old: NybbleRange,
    count: int,
    rng: random.Random,
    *,
    exclude: ColumnDeduper | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` distinct random addresses from ``new \\ old``, none in ``exclude``.

    Implements the paper's final-growth sampling (§5.4): when the last
    cluster growth would exceed the probe budget, the budget is
    consumed exactly by randomly selecting addresses of the grown range
    that were not already in the pre-growth range (nor, with
    ``exclude``, already covered by another cluster).  The pick is
    uniform over ``new \\ old \\ exclude`` and depends only on ``rng``.

    When fresh addresses may be scarce (fewer than ``8 * count``
    guaranteed, since at most ``len(exclude)`` of the difference can be
    excluded) or the difference is small, the difference is enumerated
    by :func:`expand_new_arr` and ``rng.sample(range(n), k)`` picks from
    it — the same picks ``rng.sample`` over the boxed list would make.
    Fewer than ``count`` come back only when fewer fresh addresses
    exist.  Otherwise :func:`_draw_new_arr` draws them as columns.
    """
    diff_size = new.difference_size(old)
    if count > diff_size:
        raise RangeError(
            f"cannot sample {count} addresses from difference of size {diff_size}"
        )
    if count <= 0:
        empty = np.empty(0, dtype=np.uint64)
        return empty, empty
    excluded = len(exclude) if exclude is not None else 0
    if diff_size - excluded >= 8 * count and diff_size > 65536:
        return _draw_new_arr(new, old, count, rng, exclude)
    hi, lo = expand_new_arr(new, old)
    if exclude is not None:
        fresh = ~exclude.member(hi, lo)
        hi, lo = hi[fresh], lo[fresh]
    picks = np.array(rng.sample(range(len(hi)), min(count, len(hi))), dtype=np.intp)
    return hi[picks], lo[picks]


def _draw_new_arr(
    new: NybbleRange,
    old: NybbleRange,
    count: int,
    rng: random.Random,
    exclude: ColumnDeduper | None,
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` distinct uniform picks from ``new \\ old \\ exclude``, ascending.

    Rejection sampling on columns.  Every dynamic nybble of a whole
    batch is drawn from one ``rng.randbytes`` call: a byte ``b`` picks
    value ``b % c`` of the position's ``c`` values and is rejected when
    ``b >= 256 - 256 % c``, so each pick is exactly uniform.  Members of
    ``old``, of ``exclude`` and repeats are then rejected in vectorised
    passes.  The caller guarantees at least ``8 * count`` eligible
    addresses.  Batches are sized as if every excluded address lay in
    the difference, so one batch almost always suffices.  (Bytes from
    ``rng`` rather than a ``numpy.random`` generator: importing that
    module alone costs about 6 MB of resident memory.)
    """
    const = [0, 0]  # (lo, hi) bits of the fixed positions
    dynamic = []
    accept = 1.0  # lower bound on the share of drawn addresses kept
    for pos, (new_mask, old_mask) in enumerate(zip(new.masks, old.masks)):
        values = mask_values(new_mask)
        half, digit = divmod(NYBBLE_COUNT - 1 - pos, 16)  # half 1 = hi
        if len(values) == 1:
            const[half] |= values[0] << (4 * digit)
            continue
        in_old = None
        if new_mask != old_mask:
            in_old = np.array([mask_contains(old_mask, v) for v in values])
        shifted = np.array([v << (4 * digit) for v in values], dtype=np.uint64)
        limit = 256 - 256 % len(values)
        dynamic.append((half, shifted, in_old, limit))
        accept *= limit / 256
    excluded = len(exclude) if exclude is not None else 0
    accept *= (new.difference_size(old) - excluded) / new.size()
    seen = ColumnDeduper()
    parts = []
    got = 0
    while got < count:
        need = count - got
        batch = min(int(need / accept * 1.25) + 64, 1 << 18)
        draws = np.frombuffer(
            rng.randbytes(batch * len(dynamic)), dtype=np.uint8
        ).reshape(len(dynamic), batch)
        cols = [np.full(batch, np.uint64(bits)) for bits in const]
        keep = np.ones(batch, dtype=bool)
        inside_old = np.ones(batch, dtype=bool)
        for (half, shifted, in_old, limit), draw in zip(dynamic, draws):
            idx = draw % len(shifted)
            cols[half] |= shifted[idx]
            if limit < 256:
                keep &= draw < limit
            if in_old is not None:
                inside_old &= in_old[idx]
        keep &= ~inside_old
        hi, lo = cols[1][keep], cols[0][keep]
        if exclude is not None:
            fresh = ~exclude.member(hi, lo)
            hi, lo = hi[fresh], lo[fresh]
        hi, lo = seen.add(hi, lo)
        parts.append((hi[:need], lo[:need]))
        got += min(len(hi), need)
    hi, lo = concat_columns(parts)
    order = np.lexsort((lo, hi))
    return hi[order], lo[order]


def expand_ranges_arr(
    ranges: Iterable[NybbleRange], *, limit: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Column-native :func:`repro.datasets.rangelist.expand_ranges`.

    Same contract as the scalar version: distinct addresses, ranges
    expanded in the given order (each ascending internally), optionally
    capped at ``limit`` total.  Only ranges that overlap another range
    in the list pay for dedupe tracking — pairwise-disjoint ranges
    cannot repeat an address, exactly mirroring the scalar code's
    ``seen``-set gating, so the emitted sequence is bit-identical.

    One divergence in *cost* (not output): a tracked range is expanded
    fully before the cap is applied, where the scalar generator stops
    mid-iteration.  6Gen cluster lists are budget-bounded, so this does
    not matter in practice.
    """
    range_list = list(ranges)
    overlapping = [
        any(
            i != j and range_.overlaps(other)
            for j, other in enumerate(range_list)
        )
        for i, range_ in enumerate(range_list)
    ]
    dedupe = ColumnDeduper()
    parts_hi: list[np.ndarray] = []
    parts_lo: list[np.ndarray] = []
    emitted = 0
    for range_, tracked in zip(range_list, overlapping):
        remaining = None if limit is None else limit - emitted
        if remaining is not None and remaining <= 0:
            break
        hi, lo = expand_range_arr(
            range_, limit=None if tracked else remaining
        )
        if tracked:
            hi, lo = dedupe.add(hi, lo)
            if remaining is not None and len(hi) > remaining:
                hi, lo = hi[:remaining], lo[:remaining]
        if len(hi):
            parts_hi.append(hi)
            parts_lo.append(lo)
            emitted += len(hi)
    if not parts_hi:
        empty = np.empty(0, dtype=np.uint64)
        return empty, empty
    return np.concatenate(parts_hi), np.concatenate(parts_lo)


def spanning_range(addrs: Iterable[int], loose: bool = True) -> NybbleRange:
    """Smallest range (of the given granularity) covering all addresses."""
    it = iter(addrs)
    try:
        first = next(it)
    except StopIteration:
        raise RangeError("spanning_range needs at least one address") from None
    rng = NybbleRange.from_address(int(first))
    for addr in it:
        rng = rng.span(int(addr), loose=loose)
    return rng
