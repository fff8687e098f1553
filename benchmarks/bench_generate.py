"""Generation-plane benchmark: column-native TGA output vs scalar.

Fits the standard per-prefix 6Gen run once (clustering is identical
work for every path and is excluded from timing), then measures the
*generation -> scan-ingest* stage over growing target tiers:

* **scalar** — each prefix emits boxed Python ints in densest-first
  order (``iter_targets_by_density``), the stream is deduped with
  ``dict.fromkeys`` and packed into ``(hi, lo)`` columns — exactly what
  ``Scanner.scan`` does with a list of ints before the array plane can
  start probing;
* **columns** — each prefix emits packed ``(hi, lo)`` uint64 columns
  directly (``target_columns_by_density``), deduped with the streaming
  fused-key :class:`ColumnDeduper` — the zero-boxing path
  ``run_full_scan`` now feeds the scanner.

Every tier asserts the two paths produce the identical address
sequence (same targets, same first-seen order), and a separate check
runs the *full* pipeline — per-prefix generation through a real scan —
serially and with ``gen_workers`` 1 and 2, requiring identical hits
and stats.  Results land in ``benchmarks/results/BENCH_generate.json``.

Standalone script, not a pytest benchmark — CI runs it with ``--quick``
and fails the build on any divergence, and the ``gen-speedup`` job
additionally gates on ``--min-column-speedup``:

    python benchmarks/bench_generate.py [--quick] [--out OUT.json]
                                        [--min-column-speedup X.Y]
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
from repro.analysis.grouping import MultiPrefixRun  # noqa: E402
from repro.campaign.generate import generate_per_prefix  # noqa: E402
from repro.ipv6.addrplane import (  # noqa: E402
    ColumnDeduper,
    concat_columns,
    pack,
    unpack,
)
from repro.scanner.engine import ScanConfig, Scanner  # noqa: E402
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

DEFAULT_OUT = REPO_ROOT / "benchmarks" / "results" / "BENCH_generate.json"


def fit_runs() -> MultiPrefixRun:
    """The shared clustering fit every timed path starts from."""
    context = ex.standard_context(SCALE)
    return generate_per_prefix(context.groups, BUDGET)


def select_prefixes(run: MultiPrefixRun, n: int) -> list:
    """Smallest sorted-prefix slice whose cumulative targets reach ``n``."""
    selected = []
    total = 0
    for prefix in sorted(run.runs):
        prefix_run = run.runs[prefix]
        selected.append(prefix_run)
        total += len(prefix_run.result.target_set())
        if total >= n:
            break
    return selected


def emit_scalar(prefix_runs) -> tuple:
    """Boxed emission + list ingest: densest-first ints, dict dedupe, pack."""
    stream = []
    for prefix_run in prefix_runs:
        stream.extend(prefix_run.result.iter_targets_by_density())
    ordered = list(dict.fromkeys(stream))
    return pack(ordered)


def emit_columns(prefix_runs) -> tuple:
    """Packed emission + column ingest: column chunks, fused-key dedupe."""
    dedupe = ColumnDeduper()
    chunks = []
    for prefix_run in prefix_runs:
        hi, lo = prefix_run.result.target_columns_by_density()
        chunks.append(dedupe.add(hi, lo))
    return concat_columns(chunks)


def clear_column_cache(prefix_runs) -> None:
    """Drop cached columns so every repeat re-materialises them."""
    for prefix_run in prefix_runs:
        prefix_run.result._columns = None


def bench_tier(
    run: MultiPrefixRun, n: int, repeats: int,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> dict:
    prefix_runs = select_prefixes(run, n)
    timings: dict[str, list[float]] = {"scalar": [], "columns": []}
    identical = True
    targets = 0
    for _ in range(repeats):
        clear_column_cache(prefix_runs)
        scalar, scalar_s = time_call(lambda: emit_scalar(prefix_runs))
        columns, columns_s = time_call(lambda: emit_columns(prefix_runs))
        timings["scalar"].append(scalar_s)
        timings["columns"].append(columns_s)
        targets = len(scalar[0])
        if len(columns[0]) != targets or unpack(*columns) != unpack(*scalar):
            identical = False
        telemetry.count("generate.targets_total", targets)
        if columns_s > 0:
            telemetry.gauge("generate.targets_per_sec", targets / columns_s)
    scalar_median = statistics.median(timings["scalar"])
    columns_median = statistics.median(timings["columns"])
    return {
        "tier": n,
        "targets": targets,
        "prefixes": len(prefix_runs),
        "scalar_median_s": round(scalar_median, 4),
        "columns_median_s": round(columns_median, 4),
        "column_speedup": (
            round(scalar_median / columns_median, 2) if columns_median else None
        ),
        "identical": identical,
    }


def check_gen_workers(telemetry: Telemetry = NULL_TELEMETRY) -> dict:
    """Serial vs gen_workers 1/2 full pipelines must be bit-identical.

    A smaller budget keeps this check fast; it exercises the complete
    path — parallel per-prefix generation, shared-memory column
    transport, column streaming into the scanner — against the serial
    reference, comparing hits *and* stats.
    """
    context = ex.standard_context(SCALE)
    groups = {p: context.groups[p] for p in sorted(context.groups)[:16]}

    def full(gen_workers):
        run = generate_per_prefix(groups, 2_000, processes=gen_workers)
        scanner = Scanner(
            context.internet.truth, config=ScanConfig(), rng_seed=RNG_SEED,
        )
        return run, scanner.scan(run.iter_target_columns())

    reference_run, reference = full(None)
    rows = []
    identical = True
    for workers in (1, 2):
        (run, scan), elapsed = time_call(lambda w=workers: full(w))
        same = (
            scan.hits == reference.hits
            and scan.stats == reference.stats
            and all(
                run.runs[p].target_columns()[0].tolist()
                == reference_run.runs[p].target_columns()[0].tolist()
                and run.runs[p].target_columns()[1].tolist()
                == reference_run.runs[p].target_columns()[1].tolist()
                for p in reference_run.runs
            )
        )
        identical = identical and same
        rows.append(
            {"gen_workers": workers, "seconds": round(elapsed, 4),
             "identical": same}
        )
        telemetry.event(
            "progress", {"stage": "gen_workers_check", **rows[-1]}
        )
    return {
        "prefixes": len(groups),
        "hits": len(reference.hits),
        "runs": rows,
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
        help="output JSON path (default: benchmarks/results/"
             "BENCH_generate.json)",
    )
    parser.add_argument(
        "--min-column-speedup",
        type=float,
        metavar="X.Y",
        help="fail unless the column path beats the scalar path by at "
             "least this factor on the largest tier (CI gen-speedup gate)",
    )
    parser.add_argument(
        "--telemetry",
        type=pathlib.Path,
        metavar="FILE",
        help="also append a telemetry JSONL (manifest + per-tier events + "
             "generation metrics) for the column path",
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
        "bench_generate",
        {"quick": args.quick, "scale": SCALE, "budget": BUDGET,
         "repeats": repeats},
        rng_seed=RNG_SEED,
    ).emit(telemetry)

    run = fit_runs()
    available = sum(len(r.result.target_set()) for r in run.runs.values())
    tiers = tuple(n for n in tiers if n <= available) or (available,)

    rows = []
    for n in tiers:
        row = bench_tier(run, n, repeats, telemetry)
        rows.append(row)
        telemetry.event("progress", {"stage": "bench_tier", **row})
        print(
            f"tier={row['tier']:>7}  targets={row['targets']:>7}  "
            f"scalar={row['scalar_median_s']:.3f}s  "
            f"columns={row['columns_median_s']:.3f}s  "
            f"column_speedup={row['column_speedup']}x  "
            f"identical={row['identical']}"
        )
    workers = check_gen_workers(telemetry)
    print(
        f"gen_workers check: prefixes={workers['prefixes']}  "
        f"hits={workers['hits']}  identical={workers['identical']}"
    )
    telemetry.close()

    payload = {
        "benchmark": "generate_column_plane",
        "scale": SCALE,
        "budget": BUDGET,
        "rng_seed": RNG_SEED,
        "repeats": repeats,
        "quick": args.quick,
        "available_targets": available,
        "tiers": rows,
        "gen_workers_check": workers,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")

    if not all(row["identical"] for row in rows) or not workers["identical"]:
        print("DIVERGENCE: column generation output differs from scalar")
        return 1
    if args.min_column_speedup is not None:
        gate_row = rows[-1]
        measured = gate_row["column_speedup"]
        if measured is None or measured < args.min_column_speedup:
            print(
                f"SPEEDUP GATE FAILED: columns over scalar "
                f"{measured}x < {args.min_column_speedup}x "
                f"at {gate_row['targets']} targets"
            )
            return 1
        print(
            f"speedup gate OK: {measured}x >= {args.min_column_speedup}x "
            f"at {gate_row['targets']} targets"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
