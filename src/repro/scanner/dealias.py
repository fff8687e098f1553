"""Aliased-prefix detection and hit filtering (paper §6.2).

The paper's best-effort dealiasing: for every /96 prefix containing a
responsive target, probe three random addresses in the prefix with
three TCP SYNs each; if all three addresses respond, the prefix is
aliased (the chance of three random picks all hitting real hosts in a
non-aliased /96 is negligible — below 1e-10 even with a million hosts
in the prefix).

Because /96 probing cannot see finer-grained aliasing, the paper then
manually inspected the top-10 ASes of the remaining hits and found two
(Cloudflare, Mittwald) aliased at /112.  :func:`as_level_inspection`
automates that step: it re-runs the random-probe test at /112 inside
the top ASes and excludes ASes where most hit-/112s test aliased.

Per-prefix tests are independent, so the detection stage shards across
a process pool when asked (``workers`` > 1).  Each prefix draws its
sample addresses from an RNG derived from ``(rng_seed, prefix)`` —
never from a stream shared across prefixes — which makes every
prefix's verdict independent of test order and worker placement: the
parallel path reproduces the serial decisions exactly (for a scanner
built with a fixed ``rng_seed``).
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..ipv6.addrplane import mix64
from ..ipv6.prefix import Prefix, network_mask
from ..simnet.bgp import BgpTable
from ..telemetry.spans import Telemetry, ensure
from .engine import Scanner
from .probe import DEFAULT_PORT

_M64 = (1 << 64) - 1


def group_hits_by_prefix(hits: Iterable[int], length: int = 96) -> dict[Prefix, list[int]]:
    """Group responsive addresses by their containing /length prefix.

    Groups come out in first-hit order.  Each hit is masked with one
    precomputed network mask; a :class:`Prefix` is built once per
    distinct network, not once per hit.
    """
    mask = network_mask(length)
    groups: dict[int, list[int]] = defaultdict(list)
    for addr in hits:
        value = int(addr)
        groups[value & mask].append(value)
    return {Prefix(network, length): members for network, members in groups.items()}


def is_prefix_aliased(
    prefix: Prefix,
    scanner: Scanner,
    rng: random.Random,
    *,
    sample_addrs: int = 3,
    probes_per_addr: int = 3,
    port: int = DEFAULT_PORT,
) -> bool:
    """The paper's random-probe aliasing test for one prefix.

    Draws ``sample_addrs`` random addresses in the prefix and sends up
    to ``probes_per_addr`` probes to each; the prefix is aliased iff
    every sampled address answers at least once.  All samples go
    through one batched :meth:`Scanner.probe_many` call, so blacklist,
    loss, and ground-truth lookups are chunked rather than per-probe.
    """
    addrs = [prefix.random_address(rng).value for _ in range(sample_addrs)]
    return all(scanner.probe_many(addrs, port, attempts=probes_per_addr))


def _alias_tests_fused(
    pairs: Sequence[tuple[Prefix, int]],
    scanner: Scanner,
    *,
    sample_addrs: int,
    probes_per_addr: int,
    port: int,
) -> list[bool]:
    """All of ``pairs``' samples through one :meth:`Scanner.probe_many`.

    Identical verdicts and probe totals to per-prefix
    :func:`is_prefix_aliased` calls: every per-address outcome
    (blacklist, loss, truth, retry stop) is a pure function of the
    address and attempt, never of what else shares the batch.  Fusing
    just hands the prober batches big enough for its array fast path.
    """
    addrs: list[int] = []
    for prefix, seed in pairs:
        rng = random.Random(seed)
        addrs.extend(
            prefix.random_address(rng).value for _ in range(sample_addrs)
        )
    flags = scanner.probe_many(addrs, port, attempts=probes_per_addr)
    return [
        all(flags[i * sample_addrs : (i + 1) * sample_addrs])
        for i in range(len(pairs))
    ]


def _base_key(rng_seed: int | None) -> int:
    """One 64-bit key per pipeline run, derived the same way everywhere."""
    return random.Random(rng_seed).getrandbits(64)


def _derived_seed(base_key: int, prefix: Prefix) -> int:
    """Deterministic per-prefix RNG seed: a pure function of the prefix."""
    h = mix64(base_key ^ (prefix.network & _M64))
    h = mix64(h ^ (prefix.network >> 64) ^ prefix.length)
    return h


def _run_alias_tests(
    pairs: Sequence[tuple[Prefix, int]],
    scanner: Scanner,
    *,
    sample_addrs: int,
    probes_per_addr: int,
    port: int,
    workers: int,
) -> list[bool]:
    """Run the random-probe test for each (prefix, rng seed) pair.

    With ``workers`` > 1 the pairs are sharded across a process pool;
    each worker rebuilds a scanner from the parent's construction
    parameters, so loss outcomes (a pure function of the scanner's
    ``rng_seed`` and the probed address) match the serial path, and the
    parent's probe counter is advanced by the workers' probe totals.
    """
    if workers <= 1 or len(pairs) <= 1:
        return _alias_tests_fused(
            pairs,
            scanner,
            sample_addrs=sample_addrs,
            probes_per_addr=probes_per_addr,
            port=port,
        )
    from concurrent.futures import ProcessPoolExecutor

    chunk_size = max(1, (len(pairs) + workers * 4 - 1) // (workers * 4))
    chunks = [
        list(pairs[start : start + chunk_size])
        for start in range(0, len(pairs), chunk_size)
    ]
    params = (sample_addrs, probes_per_addr, port)
    flags: list[bool] = []
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_dealias_pool_init,
        initargs=(
            scanner.truth,
            scanner.blacklist,
            scanner.loss_rate,
            scanner._rng_seed,
        ),
    ) as pool:
        for chunk_flags, probes in pool.map(
            _dealias_check_chunk, ((chunk, params) for chunk in chunks)
        ):
            flags.extend(chunk_flags)
            scanner.total_probes += probes
    return flags


#: Per-process scanner for dealias-pool workers (set by the initializer).
_DEALIAS_STATE: dict = {}


def _dealias_pool_init(truth, blacklist, loss_rate, rng_seed) -> None:
    _DEALIAS_STATE["scanner"] = Scanner(
        truth, blacklist=blacklist, loss_rate=loss_rate, rng_seed=rng_seed
    )


def _dealias_check_chunk(args) -> tuple[list[bool], int]:
    pairs, (sample_addrs, probes_per_addr, port) = args
    scanner: Scanner = _DEALIAS_STATE["scanner"]
    before = scanner.total_probes
    flags = _alias_tests_fused(
        pairs,
        scanner,
        sample_addrs=sample_addrs,
        probes_per_addr=probes_per_addr,
        port=port,
    )
    return flags, scanner.total_probes - before


def detect_aliased_prefixes(
    hits: Iterable[int],
    scanner: Scanner,
    *,
    length: int = 96,
    sample_addrs: int = 3,
    probes_per_addr: int = 3,
    port: int = DEFAULT_PORT,
    rng_seed: int | None = 0,
    workers: int = 1,
    telemetry: Telemetry | None = None,
) -> set[Prefix]:
    """All hit-containing /length prefixes that test as aliased.

    Prefixes are tested in sorted order with per-prefix derived RNGs,
    so the result is a pure function of ``(hits, rng_seed)`` and the
    scanner — identical for any ``workers`` value (and with telemetry
    on or off: verdict RNGs derive from the prefix, never from the
    observer).
    """
    tele = ensure(telemetry)
    base = _base_key(rng_seed)
    prefixes = sorted(group_hits_by_prefix(hits, length))
    pairs = [(prefix, _derived_seed(base, prefix)) for prefix in prefixes]
    probes_before = scanner.total_probes
    with tele.span("alias_detect", length=length, prefixes=len(pairs)):
        flags = _run_alias_tests(
            pairs,
            scanner,
            sample_addrs=sample_addrs,
            probes_per_addr=probes_per_addr,
            port=port,
            workers=workers,
        )
    aliased = {prefix for prefix, flagged in zip(prefixes, flags) if flagged}
    if tele.enabled:
        tele.count("dealias.prefixes_tested", len(pairs))
        tele.count("dealias.aliased_prefixes", len(aliased))
        tele.count("dealias.probes", scanner.total_probes - probes_before)
    return aliased


def split_hits(
    hits: Iterable[int], aliased_prefixes: set[Prefix]
) -> tuple[set[int], set[int]]:
    """Partition hits into (aliased, clean) by the detected prefixes."""
    by_mask: dict[int, set[int]] = defaultdict(set)
    for prefix in aliased_prefixes:
        by_mask[network_mask(prefix.length)].add(prefix.network)
    aliased_hits: set[int] = set()
    clean_hits: set[int] = set()
    for addr in hits:
        value = int(addr)
        in_aliased = any(value & mask in networks for mask, networks in by_mask.items())
        (aliased_hits if in_aliased else clean_hits).add(value)
    return aliased_hits, clean_hits


def as_level_inspection(
    clean_hits: Iterable[int],
    bgp: BgpTable,
    scanner: Scanner,
    *,
    top_k: int = 10,
    length: int = 112,
    aliased_fraction: float = 0.5,
    port: int = DEFAULT_PORT,
    rng_seed: int | None = 1,
    workers: int = 1,
    telemetry: Telemetry | None = None,
) -> set[int]:
    """Find ASes aliased at a finer granularity than /96 (§6.2's manual step).

    For each of the ``top_k`` ASes by remaining hits, tests every
    hit-containing /length prefix with the random-probe method; an AS
    is flagged when more than ``aliased_fraction`` of its tested
    prefixes are aliased.  All per-prefix tests across the inspected
    ASes form one flat work list, sharded over ``workers`` processes.
    """
    tele = ensure(telemetry)
    base = _base_key(rng_seed)
    by_asn: dict[int, list[int]] = defaultdict(list)
    for addr in clean_hits:
        asn = bgp.origin_asn(int(addr))
        if asn is not None:
            by_asn[asn].append(int(addr))
    top_ases = sorted(by_asn, key=lambda a: -len(by_asn[a]))[:top_k]
    tests: list[tuple[int, Prefix, int]] = []
    for asn in top_ases:
        for prefix, addrs in sorted(group_hits_by_prefix(by_asn[asn], length).items()):
            tests.append((asn, prefix, len(addrs)))
    with tele.span("as_inspection", ases=len(top_ases), prefixes=len(tests)):
        flags = _run_alias_tests(
            [(prefix, _derived_seed(base, prefix)) for _, prefix, _ in tests],
            scanner,
            sample_addrs=3,
            probes_per_addr=3,
            port=port,
            workers=workers,
        )
    if tele.enabled:
        tele.count("dealias.as_prefixes_tested", len(tests))
    # Weight by hits, not by prefix count: an AS whose hits
    # overwhelmingly sit inside aliased sub-prefixes is flagged even
    # if it also has a few genuine host prefixes.
    aliased_by_asn: dict[int, int] = defaultdict(int)
    for (asn, _, addr_count), flagged_prefix in zip(tests, flags):
        if flagged_prefix:
            aliased_by_asn[asn] += addr_count
    flagged_asns = {
        asn
        for asn in top_ases
        if by_asn[asn] and aliased_by_asn[asn] / len(by_asn[asn]) > aliased_fraction
    }
    if tele.enabled:
        tele.count("dealias.aliased_asns", len(flagged_asns))
    return flagged_asns


@dataclass
class AliasedSummary:
    """Aggregation of detected aliased prefixes (paper §6.2 reporting).

    The paper collapses its 10.0 M aliased /96s to "205 routed prefixes
    in 138 ASes"; this mirrors that roll-up.
    """

    aliased_prefix_count: int
    routed_prefixes: set[Prefix] = field(default_factory=set)
    asns: set[int] = field(default_factory=set)


def summarize_aliased_prefixes(
    aliased_prefixes: Iterable[Prefix], bgp: BgpTable
) -> AliasedSummary:
    """Collapse detected aliased prefixes to routed prefixes and ASes."""
    summary = AliasedSummary(aliased_prefix_count=0)
    for prefix in aliased_prefixes:
        summary.aliased_prefix_count += 1
        route = bgp.lookup(prefix.network)
        if route is not None:
            summary.routed_prefixes.add(route.prefix)
            summary.asns.add(route.asn)
    return summary


@dataclass
class DealiasReport:
    """Full §6.2 dealiasing outcome for one hit set."""

    aliased_prefixes: set[Prefix] = field(default_factory=set)
    aliased_asns: set[int] = field(default_factory=set)
    aliased_hits: set[int] = field(default_factory=set)
    clean_hits: set[int] = field(default_factory=set)

    @property
    def total_hits(self) -> int:
        return len(self.aliased_hits) + len(self.clean_hits)

    def aliased_fraction(self) -> float:
        """Fraction of raw hits in aliased space (the paper's 98 %)."""
        total = self.total_hits
        return len(self.aliased_hits) / total if total else 0.0


def dealias(
    hits: Iterable[int],
    scanner: Scanner,
    bgp: BgpTable | None = None,
    *,
    length: int = 96,
    as_inspection: bool = True,
    port: int = DEFAULT_PORT,
    rng_seed: int | None = 0,
    workers: int = 1,
    telemetry: Telemetry | None = None,
) -> DealiasReport:
    """Run the full dealiasing pipeline: /96 detection + AS inspection.

    ``workers`` > 1 shards the independent per-prefix alias tests over
    a process pool; the report is identical for any worker count.
    """
    tele = ensure(telemetry)
    hit_set = {int(h) for h in hits}
    with tele.span("dealias", hits=len(hit_set), workers=workers):
        aliased_prefixes = detect_aliased_prefixes(
            hit_set, scanner, length=length, port=port, rng_seed=rng_seed,
            workers=workers, telemetry=tele,
        )
        aliased_hits, clean_hits = split_hits(hit_set, aliased_prefixes)
        aliased_asns: set[int] = set()
        if as_inspection and bgp is not None and clean_hits:
            aliased_asns = as_level_inspection(
                clean_hits, bgp, scanner, port=port, rng_seed=rng_seed,
                workers=workers, telemetry=tele,
            )
            if aliased_asns:
                moved = {
                    addr for addr in clean_hits
                    if bgp.origin_asn(addr) in aliased_asns
                }
                clean_hits -= moved
                aliased_hits |= moved
                tele.count("dealias.hits_moved_by_as_inspection", len(moved))
    report = DealiasReport(
        aliased_prefixes=aliased_prefixes,
        aliased_asns=aliased_asns,
        aliased_hits=aliased_hits,
        clean_hits=clean_hits,
    )
    if tele.enabled:
        tele.count("dealias.hits_in", len(hit_set))
        tele.count("dealias.aliased_hits", len(report.aliased_hits))
        tele.count("dealias.clean_hits", len(report.clean_hits))
        tele.event(
            "dealias_summary",
            {
                "hits_in": len(hit_set),
                "aliased_prefixes": len(report.aliased_prefixes),
                "aliased_asns": sorted(report.aliased_asns),
                "aliased_hits": len(report.aliased_hits),
                "clean_hits": len(report.clean_hits),
                "aliased_fraction": round(report.aliased_fraction(), 6),
            },
        )
    return report
