"""Scan-pipeline benchmark: the array plane against the reference loop.

Builds one target pool from the standard per-prefix 6Gen run, then
scans growing tiers of it with (a) the sequential per-address reference
loop (``Scanner._scan_reference``, the test-only oracle) and (b) the
production scan (``Scanner.scan`` — packed uint64 hi/lo columns,
vectorised lookups on the array plane), verifying on every tier that
both produce identical hits *and* identical ``ScanStats`` — the parity
contract the engine promises for a fixed ``rng_seed``.  A lossy tier
exercises the order-independent loss PRF and a retries tier the retry
rounds.  Medians and speedups land in
``benchmarks/results/BENCH_scan.json`` (see docs/performance.md for
how to read the tiers).

Standalone script, not a pytest benchmark — CI runs it with ``--quick``
and fails the build if the paths ever diverge, and the ``scan-speedup``
job additionally gates on ``--min-reference-speedup``:

    python benchmarks/bench_scan.py [--quick] [--out BENCH_scan.json]
                                    [--min-reference-speedup X.Y]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import experiments as ex  # noqa: E402
from repro.campaign.generate import generate_per_prefix  # noqa: E402
from repro.scanner.blacklist import Blacklist  # noqa: E402
from repro.scanner.engine import ScanConfig, Scanner  # noqa: E402
from repro.ipv6.prefix import Prefix  # noqa: E402
from repro.telemetry import (  # noqa: E402
    NULL_TELEMETRY,
    JsonlSink,
    RunManifest,
    Telemetry,
)
from repro.telemetry.timer import time_call  # noqa: E402

FULL_TIERS = (10_000, 50_000, 200_000, 500_000)
QUICK_TIERS = (10_000, 50_000)
BUDGET = 20_000
SCALE = 0.3
RNG_SEED = 5
#: Loss rate of the lossy and retries tiers; retry rounds of the latter.
LOSS_RATE = 0.2
RETRIES = 2

DEFAULT_OUT = REPO_ROOT / "benchmarks" / "results" / "BENCH_scan.json"


def build_pool(limit: int) -> list[int]:
    """Target pool from the standard 6Gen run (streamed, deterministic)."""
    context = ex.standard_context(SCALE)
    run = generate_per_prefix(context.groups, BUDGET)
    pool: list[int] = []
    seen: set[int] = set()
    for target in run.iter_targets():
        if target not in seen:
            seen.add(target)
            pool.append(target)
            if len(pool) >= limit:
                break
    return pool


def make_blacklist(pool: list[int]) -> Blacklist:
    """Blacklist a slice of target space so that path gets exercised."""
    blacklist = Blacklist()
    for target in pool[:: max(1, len(pool) // 50)]:
        blacklist.add(Prefix(int(target), 128))
    return blacklist


def bench_tier(
    truth, blacklist: Blacklist, pool: list[int], n: int,
    repeats: int, loss_rate: float, retries: int = 0,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> dict:
    targets = pool[:n]
    config = ScanConfig(retries=retries)
    reference_s: list[float] = []
    plane_s: list[float] = []
    identical = True
    for _ in range(repeats):
        # Only the production path is instrumented, so the JSONL
        # records one pipeline's counters per tier run.
        oracle, scanner = (
            Scanner(
                truth, blacklist=blacklist, loss_rate=loss_rate,
                rng_seed=RNG_SEED, config=config, telemetry=tele,
            )
            for tele in (None, telemetry)
        )
        reference, elapsed = time_call(
            lambda: oracle._scan_reference(targets)
        )
        reference_s.append(elapsed)
        plane, elapsed = time_call(lambda: scanner.scan(targets))
        plane_s.append(elapsed)
        if plane.hits != reference.hits or plane.stats != reference.stats:
            identical = False
    reference_median = statistics.median(reference_s)
    plane_median = statistics.median(plane_s)
    return {
        "targets": n,
        "loss_rate": loss_rate,
        "retries": retries,
        "reference_median_s": round(reference_median, 4),
        "plane_median_s": round(plane_median, 4),
        "speedup": (
            round(reference_median / plane_median, 2) if plane_median else None
        ),
        "identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small tiers / fewer repeats (CI divergence gate)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_OUT,
        help="output JSON path (default: benchmarks/results/BENCH_scan.json)",
    )
    parser.add_argument(
        "--min-reference-speedup",
        type=float,
        metavar="X.Y",
        help="fail unless the array plane beats the reference loop by at "
             "least this factor on the largest lossless tier (CI "
             "scan-speedup gate)",
    )
    parser.add_argument(
        "--telemetry",
        type=pathlib.Path,
        metavar="FILE",
        help="also append a telemetry JSONL (manifest + per-tier events + "
             "scan metrics) for the production path",
    )
    args = parser.parse_args(argv)
    if not args.out.parent.is_dir():
        parser.error(f"output directory does not exist: {args.out.parent}")

    tiers = QUICK_TIERS if args.quick else FULL_TIERS
    repeats = 2 if args.quick else 3
    telemetry = (
        Telemetry(JsonlSink(args.telemetry)) if args.telemetry
        else NULL_TELEMETRY
    )
    RunManifest.create(
        "bench_scan",
        {"quick": args.quick, "scale": SCALE, "budget": BUDGET,
         "repeats": repeats},
        rng_seed=RNG_SEED,
    ).emit(telemetry)
    pool = build_pool(max(tiers))
    tiers = tuple(n for n in tiers if n <= len(pool)) or (len(pool),)
    blacklist = make_blacklist(pool)
    truth = ex.standard_context(SCALE).internet.truth

    # The lossless ladder first (the gate reads its last row), then one
    # lossy tier (the loss PRF must stay order-independent) and one
    # retries tier (the retry rounds must match the reference's).
    plan = [(n, 0.0, 0) for n in tiers]
    plan += [(tiers[0], LOSS_RATE, 0), (tiers[0], LOSS_RATE, RETRIES)]
    rows = []
    for n, loss_rate, retries in plan:
        row = bench_tier(
            truth, blacklist, pool, n, repeats, loss_rate, retries, telemetry
        )
        rows.append(row)
        telemetry.event("progress", {"stage": "bench_tier", **row})
        print(
            f"targets={row['targets']:>7}  loss={loss_rate}  "
            f"retries={retries}  "
            f"reference={row['reference_median_s']:.3f}s  "
            f"plane={row['plane_median_s']:.3f}s  "
            f"speedup={row['speedup']}x  identical={row['identical']}"
        )
    telemetry.close()

    payload = {
        "benchmark": "scan_plane_vs_reference",
        "scale": SCALE,
        "budget": BUDGET,
        "rng_seed": RNG_SEED,
        "repeats": repeats,
        "quick": args.quick,
        "tiers": rows,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")

    if not all(row["identical"] for row in rows):
        print("DIVERGENCE: array-plane scan output differs from reference")
        return 1
    if args.min_reference_speedup is not None:
        gate_row = rows[len(tiers) - 1]
        measured = gate_row["speedup"]
        if measured is None or measured < args.min_reference_speedup:
            print(
                f"SPEEDUP GATE FAILED: plane over reference "
                f"{measured}x < {args.min_reference_speedup}x "
                f"at {gate_row['targets']} targets"
            )
            return 1
        print(
            f"speedup gate OK: {measured}x >= {args.min_reference_speedup}x "
            f"at {gate_row['targets']} targets"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
