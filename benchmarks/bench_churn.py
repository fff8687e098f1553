"""Churn-freshness gate: delta campaigns vs full rescans over a drifting world.

Evolves two identical copies of the simulated Internet through the same
deterministic churn (same worldfile, same churn seed) and tracks the
moving host population two ways:

1. **full rescan** — re-collect seeds, regenerate, and re-probe the
   whole campaign every epoch (the naive longitudinal baseline);
2. **delta** — a :class:`~repro.hitlist.LivingHitlist` of decaying
   belief driving :class:`~repro.hitlist.DeltaCampaign`: re-probe only
   what decayed, explore with a budgeted slice seeded from the hitlist.

Both start from the same epoch-0 bootstrap campaign.  After every epoch
each side's belief is scored against ground truth:

* ``freshness`` — fraction of truly live addresses believed live
  (recall of the current population);
* ``staleness`` — fraction of believed-live addresses actually gone.

The gate fails (exit 1) unless, averaged over the post-bootstrap
epochs, the delta tracker's freshness stays within ``--tolerance`` of
the full-rescan baseline **and** its cumulative probe count stays at or
below ``--max-probe-ratio`` (default 50%) of the baseline's.

Standalone script, not a pytest benchmark — CI runs it with ``--quick``:

    python benchmarks/bench_churn.py [--quick] [--out BENCH_churn.json]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign import Campaign, CampaignSpec  # noqa: E402
from repro.hitlist import DeltaCampaign, LivingHitlist  # noqa: E402
from repro.ipv6.addrplane import pack  # noqa: E402
from repro.scanner.engine import ScanConfig  # noqa: E402
from repro.simnet.bgp import group_by_routed_prefix  # noqa: E402
from repro.simnet.dns import collect_seeds  # noqa: E402
from repro.simnet.dynamics import DynamicWorld  # noqa: E402
from repro.simnet.ground_truth import default_internet  # noqa: E402

WORLD_SEED = 7
CHURN_SEED = 3
BATCH_SIZE = 256


def live_columns(internet):
    return pack(sorted(internet.all_active_hosts()))


def bootstrap(internet, spec):
    """Epoch-0 seeding: one full campaign, observed into a fresh store."""
    seeds = collect_seeds(internet)
    groups = group_by_routed_prefix(seeds.addresses(), internet.bgp)
    result = Campaign(internet.truth, internet.bgp, groups, spec).run()
    store = LivingHitlist()
    probed = pack(sorted(result.run.all_targets()))
    store.observe(0, probed, result.clean_hits)
    return store, len(probed[0])


def run_full_rescan(scale, spec, epochs):
    """The baseline: regenerate + re-probe everything, every epoch."""
    internet = default_internet(scale=scale, rng_seed=WORLD_SEED)
    dynamic = DynamicWorld(internet, churn_seed=CHURN_SEED)
    store, _ = bootstrap(internet, spec)
    probes = 0
    rows = []
    started = time.perf_counter()
    for epoch in range(1, epochs + 1):
        dynamic.advance_to(epoch)
        seeds = collect_seeds(internet)
        groups = group_by_routed_prefix(seeds.addresses(), internet.bgp)
        result = Campaign(internet.truth, internet.bgp, groups, spec).run()
        probed = pack(sorted(result.run.all_targets()))
        probes += len(probed[0])
        store.observe(epoch, probed, result.clean_hits)
        quality = store.freshness(epoch, live_columns(internet))
        rows.append({
            "epoch": epoch,
            "probes": len(probed[0]),
            "freshness": round(quality["freshness"], 4),
            "staleness": round(quality["staleness"], 4),
        })
    return rows, probes, time.perf_counter() - started


def run_delta(scale, spec, epochs):
    """The contender: decay-driven re-probe + seeded exploration.

    Exploration seeds are the store's believed-live addresses plus the
    epoch's fresh DNS snapshot — the same seed feed the full rescan
    regenerates from.  Seed intake costs no probes; only the planned
    targets do, and that is what the probe-ratio gate counts.
    """
    internet = default_internet(scale=scale, rng_seed=WORLD_SEED)
    dynamic = DynamicWorld(internet, churn_seed=CHURN_SEED)
    store, _ = bootstrap(internet, spec)
    delta = DeltaCampaign(store, internet.bgp, spec)
    probes = 0
    rows = []
    started = time.perf_counter()
    for epoch in range(1, epochs + 1):
        dynamic.advance_to(epoch)
        feed = collect_seeds(internet).addresses()
        plan, _result = delta.run(internet.truth, epoch, extra_seeds=feed)
        probes += plan.total
        quality = store.freshness(epoch, live_columns(internet))
        rows.append({
            "epoch": epoch,
            "probes": plan.total,
            "reprobe": plan.reprobe_count,
            "explore": plan.explore_count,
            "freshness": round(quality["freshness"], 4),
            "staleness": round(quality["staleness"], 4),
        })
    return rows, probes, time.perf_counter() - started


def mean(values):
    return sum(values) / len(values) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller world and fewer epochs (the CI gate configuration)",
    )
    parser.add_argument(
        "--epochs", type=int, default=None, metavar="E",
        help="churn epochs after the bootstrap (default: 6 quick, 10 full)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.10, metavar="FRAC",
        help="max mean-freshness deficit vs the full rescan (default 0.10)",
    )
    parser.add_argument(
        "--max-probe-ratio", type=float, default=0.50, metavar="FRAC",
        help="max delta/full cumulative probe ratio (default 0.50)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the JSON report here (default: benchmarks/results/)",
    )
    args = parser.parse_args()

    scale = 0.05 if args.quick else 0.1
    budget = 600 if args.quick else 1_200
    epochs = args.epochs or (6 if args.quick else 10)
    spec = CampaignSpec(
        budget=budget,
        scan_config=ScanConfig(batch_size=BATCH_SIZE),
    )
    print(f"world scale={scale}, budget={budget}/prefix, "
          f"{epochs} churn epochs (seed {CHURN_SEED})")

    full_rows, full_probes, full_seconds = run_full_rescan(
        scale, spec, epochs
    )
    delta_rows, delta_probes, delta_seconds = run_delta(scale, spec, epochs)

    print(f"\n{'epoch':>5} {'full prb':>9} {'full frs':>9} "
          f"{'delta prb':>10} {'delta frs':>10} {'delta stl':>10}")
    for full, delta in zip(full_rows, delta_rows):
        print(f"{full['epoch']:>5} {full['probes']:>9} "
              f"{full['freshness']:>9.3f} {delta['probes']:>10} "
              f"{delta['freshness']:>10.3f} {delta['staleness']:>10.3f}")

    full_freshness = mean([r["freshness"] for r in full_rows])
    delta_freshness = mean([r["freshness"] for r in delta_rows])
    probe_ratio = delta_probes / full_probes if full_probes else 0.0
    deficit = full_freshness - delta_freshness
    print(f"\nmean freshness: full {full_freshness:.3f}, "
          f"delta {delta_freshness:.3f} (deficit {deficit:+.3f}, "
          f"tolerance {args.tolerance})")
    print(f"cumulative probes: full {full_probes}, delta {delta_probes} "
          f"({probe_ratio:.0%}; gate {args.max_probe_ratio:.0%})")
    print(f"wall-clock: full {full_seconds:.1f}s, delta {delta_seconds:.1f}s")

    failures = []
    if deficit > args.tolerance:
        failures.append(
            f"delta freshness {delta_freshness:.3f} trails the full "
            f"rescan {full_freshness:.3f} by more than {args.tolerance}"
        )
    if probe_ratio > args.max_probe_ratio:
        failures.append(
            f"delta probe ratio {probe_ratio:.2f} exceeds "
            f"{args.max_probe_ratio:.2f}"
        )

    report = {
        "benchmark": "churn_freshness",
        "quick": args.quick,
        "scale": scale,
        "budget": budget,
        "epochs": epochs,
        "churn_seed": CHURN_SEED,
        "world_seed": WORLD_SEED,
        "full": {
            "rows": full_rows,
            "probes": full_probes,
            "mean_freshness": round(full_freshness, 4),
            "seconds": round(full_seconds, 2),
        },
        "delta": {
            "rows": delta_rows,
            "probes": delta_probes,
            "mean_freshness": round(delta_freshness, 4),
            "seconds": round(delta_seconds, 2),
        },
        "probe_ratio": round(probe_ratio, 4),
        "freshness_deficit": round(deficit, 4),
        "tolerance_gate": args.tolerance,
        "max_probe_ratio_gate": args.max_probe_ratio,
        "failures": failures,
    }
    out = pathlib.Path(
        args.out or REPO_ROOT / "benchmarks" / "results" / "BENCH_churn.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report -> {out}")

    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}")
        return 1
    print("gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
