"""Resume-parity gate: kill a scan campaign mid-run, resume, compare.

Runs the same deterministic campaign three ways:

1. **uninterrupted** — the baseline hits and ``ScanStats``;
2. **crashed** — the identical campaign with an injected
   :class:`~repro.faults.WorkerCrash` that raises partway through the
   probe stream while checkpoints land in a crash-safe JSONL file;
3. **resumed** — a fresh campaign restored from that checkpoint file.

The gate fails (exit 1) unless the resumed run's hits and stats are
*bit-identical* to the uninterrupted baseline — the checkpoint/resume
contract documented in ``docs/fault_tolerance.md``.  Crash points are
swept across round-0 batches and the retry rounds, at a small and a
large batch size, so resume is checked at both ends of the step
granularity.

Standalone script, not a pytest benchmark — CI runs it with ``--quick``
and fails the build on any divergence:

    python benchmarks/bench_resume.py [--quick] [--out BENCH_resume.json]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import experiments as ex  # noqa: E402
from repro.campaign.generate import generate_per_prefix  # noqa: E402
from repro.faults import InjectedWorkerCrash, WorkerCrash  # noqa: E402
from repro.scanner.checkpoint import (  # noqa: E402
    ScanCheckpointer,
    load_scan_checkpoint,
)
from repro.scanner.engine import ScanConfig, Scanner  # noqa: E402
from repro.telemetry import JsonlSink  # noqa: E402

SCALE = 0.2
BUDGET = 10_000
RNG_SEED = 5
LOSS_RATE = 0.2
BATCH_SIZES = (32, 4096)
RETRIES = 2


def build_campaign():
    """Deterministic truth + target pool from the standard 6Gen run."""
    context = ex.standard_context(SCALE)
    run = generate_per_prefix(context.groups, BUDGET)
    targets = list(dict.fromkeys(run.iter_targets()))
    return context.internet.truth, targets


def scan_once(truth, targets, batch_size, *, checkpoint=None, resume=None,
              crash=None):
    scanner = Scanner(
        truth, loss_rate=LOSS_RATE, rng_seed=RNG_SEED,
        config=ScanConfig(batch_size=batch_size, retries=RETRIES),
    )
    return scanner.scan(
        targets, checkpoint=checkpoint, resume=resume, crash=crash
    )


def run_case(truth, targets, batch_size, crash, workdir, baseline) -> dict:
    """One crash/resume cycle; returns the parity verdict."""
    path = (
        workdir / f"ckpt_s{batch_size}_r{crash.at_round}_b{crash.at_batch}.jsonl"
    )
    sink = JsonlSink(path)
    crashed = False
    try:
        scan_once(
            truth, targets, batch_size,
            checkpoint=ScanCheckpointer(sink, every_batches=2), crash=crash,
        )
    except InjectedWorkerCrash:
        crashed = True
    finally:
        sink.close()

    state = load_scan_checkpoint(path)
    sink = JsonlSink(path)
    try:
        resumed = scan_once(
            truth, targets, batch_size,
            checkpoint=ScanCheckpointer(sink, every_batches=2), resume=state,
        )
    finally:
        sink.close()

    return {
        "batch_size": batch_size,
        "crash_round": crash.at_round,
        "crash_batch": crash.at_batch,
        "crashed": crashed,
        "resumed_from_round": state.round if state else None,
        "resumed_from_batch": state.next_batch if state else None,
        "hits_match": resumed.hits == baseline.hits,
        "stats_match": resumed.stats == baseline.stats,
        "baseline_hits": len(baseline.hits),
        "resumed_hits": len(resumed.hits),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer crash points (the CI gate configuration)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the JSON report here (default: benchmarks/results/)",
    )
    args = parser.parse_args()

    truth, targets = build_campaign()
    print(f"campaign: {len(targets)} targets")

    cases = []
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        for batch_size in BATCH_SIZES:
            n_batches = (len(targets) + batch_size - 1) // batch_size
            if args.quick:
                crashes = [
                    WorkerCrash(at_batch=max(1, n_batches // 2)),
                    WorkerCrash(at_batch=0, at_round=1),
                ]
            else:
                crashes = [
                    WorkerCrash(at_batch=1),
                    WorkerCrash(at_batch=max(1, n_batches // 2)),
                    WorkerCrash(at_batch=max(1, n_batches - 1)),
                    WorkerCrash(at_batch=0, at_round=1),
                    WorkerCrash(at_batch=0, at_round=RETRIES),
                ]
            baseline = scan_once(truth, targets, batch_size)
            for crash in crashes:
                case = run_case(
                    truth, targets, batch_size, crash, workdir, baseline
                )
                cases.append(case)
                ok = case["crashed"] and case["hits_match"] and case["stats_match"]
                if not ok:
                    failures += 1
                print(
                    f"  batch_size={batch_size} crash=({crash.at_round},"
                    f"{crash.at_batch:>4}) resumed_from=({case['resumed_from_round']},"
                    f"{case['resumed_from_batch']}) "
                    f"hits={case['resumed_hits']}/{case['baseline_hits']} "
                    f"{'OK' if ok else 'DIVERGED'}"
                )

    report = {
        "benchmark": "resume_parity",
        "quick": args.quick,
        "scale": SCALE,
        "budget": BUDGET,
        "targets": len(targets),
        "retries": RETRIES,
        "cases": cases,
        "failures": failures,
    }
    out = pathlib.Path(
        args.out
        or REPO_ROOT / "benchmarks" / "results" / "BENCH_resume.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report -> {out}")

    if failures:
        print(f"RESUME PARITY FAILED: {failures} diverging case(s)")
        return 1
    print("resume parity holds on every case")
    return 0


if __name__ == "__main__":
    sys.exit(main())
