"""Kernel benchmark: vectorised 6Gen hot path vs the reference oracle.

Runs a Figure-2-style seed-count sweep, timing each tier on both the
vector kernel (``run_6gen``) and the Algorithm 1 reference oracle
(``_run_6gen_reference``), verifying on every run that the two produce
identical target sets, and checks resumption: a run at a third of the
budget, extended to two thirds and then to the full budget, must equal
the fresh vector run in clusters, target columns, sample, budget use
and iterations.  Writes the medians and speedups to
``benchmarks/results/BENCH_sixgen.json`` (see DESIGN.md "Performance"
for how to read it).

Standalone script, not a pytest benchmark — CI runs it with ``--quick``
and fails the build if the paths ever diverge:

    python benchmarks/bench_kernel.py [--quick] [--out BENCH_sixgen.json]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import statistics
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import experiments as ex  # noqa: E402
from repro.core.sixgen import (  # noqa: E402
    SixGen,
    SixGenConfig,
    _run_6gen_reference,
    run_6gen,
)
from repro.telemetry.timer import time_call  # noqa: E402

FULL_TIERS = (30, 100, 300, 1000, 2000)
QUICK_TIERS = (30, 100, 300)
BUDGET = 10_000
SCALE = 0.3


def signature(result) -> tuple:
    """Everything a resumed run must share with a fresh one."""
    hi, lo = result.target_columns_by_density()
    return (
        sorted((c.range.masks, c.seed_count) for c in result.clusters),
        hi.tolist(),
        lo.tolist(),
        result.sampled,
        result.budget_used,
        result.iterations,
    )


def resumed_run(subset: list[int]):
    """One run at BUDGET/3, extended to 2*BUDGET/3 and then to BUDGET."""
    gen = SixGen(subset, SixGenConfig(budget=BUDGET // 3))
    gen.run()
    gen.extend(2 * BUDGET // 3)
    return gen.extend(BUDGET)


def bench_tier(pool: list[int], n: int, repeats: int) -> dict:
    """Median runtime of both paths on one deterministic n-seed subset."""
    subset = random.Random(1000 * n).sample(pool, n)
    timings: dict[bool, list[float]] = {True: [], False: []}
    identical = True
    for _ in range(repeats):
        results = {}
        for vector, run in ((True, run_6gen), (False, _run_6gen_reference)):
            results[vector], elapsed = time_call(
                lambda run=run: run(subset, BUDGET)
            )
            timings[vector].append(elapsed)
        if results[True].target_set() != results[False].target_set():
            identical = False
        if signature(resumed_run(subset)) != signature(results[True]):
            identical = False
    baseline = statistics.median(timings[False])
    vectorised = statistics.median(timings[True])
    return {
        "seeds": n,
        "baseline_median_s": round(baseline, 4),
        "vector_median_s": round(vectorised, 4),
        "speedup": round(baseline / vectorised, 2) if vectorised else None,
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
        default=REPO_ROOT / "benchmarks" / "results" / "BENCH_sixgen.json",
        help="output JSON path (default: benchmarks/results/BENCH_sixgen.json)",
    )
    args = parser.parse_args(argv)
    if not args.out.parent.is_dir():
        parser.error(f"output directory does not exist: {args.out.parent}")

    tiers = QUICK_TIERS if args.quick else FULL_TIERS
    repeats = 2 if args.quick else 3
    pool = sorted(int(a) for a in ex.standard_context(SCALE).seed_addresses)

    rows = []
    for n in tiers:
        row = bench_tier(pool, n, repeats)
        rows.append(row)
        print(
            f"seeds={row['seeds']:>5}  baseline={row['baseline_median_s']:.3f}s  "
            f"vector={row['vector_median_s']:.3f}s  speedup={row['speedup']}x  "
            f"identical={row['identical']}"
        )

    payload = {
        "benchmark": "sixgen_vector_kernel",
        "scale": SCALE,
        "budget": BUDGET,
        "repeats": repeats,
        "quick": args.quick,
        "tiers": rows,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")

    if not all(row["identical"] for row in rows):
        print(
            "DIVERGENCE: vectorised kernel output differs from reference, "
            "or a resumed run differs from a fresh one"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
