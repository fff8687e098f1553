"""End-to-end benchmark of the paper's §6 pipeline, with a traced per-layer run.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload classic --seed 1 --seconds 30 --trace 0

``--workload`` is ``classic``, ``rescan`` or ``phased`` (see
``workloads.py`` and ``design.json``).  The run repeats the workload for
at least ``--seconds`` seconds, each time on a new world derived from
``--seed``, then once more on the first world to check that it finds
the same clean hits.  Every iteration builds its world from scratch, so
set-up and lazy tables are paid each time.  Each end-to-end metric is
the median over the iterations.  With ``--trace 1``
one more iteration runs with a span around every layer entry point
(``tracing.py``) and one with in-memory telemetry, and the per-layer
metrics are printed instead; the traced iteration's spans are written to
``.e2ebench-trace-<workload>-<seed>.jsonl`` in the checkout root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output
check prints ``"correct": false`` and exits 1.  Files go to a temporary
directory under the checkout root that is removed after each iteration.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Set-up takes tens of milliseconds, so each iteration repeats it to
#: give ``setup_s`` a steadier median.
SETUP_REPEATS = 3

#: The gated end-to-end metrics (BENCHMARK.json), name -> unit.
#: ``disk_mb`` and ``failed_frac`` are printed too but not gated, since
#: they are 0 on some workloads: ``disk_mb`` is reported with the
#: per-layer metrics, ``failed_frac`` as ``failed``/``attempted``.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "targets_per_s": "targets/s",
    "peak_rss_mb": "MB",
    "clean_hits": "count",
    "clean_precision": "ratio",
    "clean_recall": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end §6 pipeline benchmark."
    )
    parser.add_argument(
        "--workload", required=True, choices=("classic", "rescan", "phased")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def iterate(workloads, name, seeds, *, repeats=1, recorder=None, telemetry=None):
    """Set up one world ``repeats`` times, then run the workload on it once.

    Returns the set-up times and the outcome.
    """
    setup, run = workloads.WORKLOADS[name]
    setup_times = []
    for _ in range(repeats):
        inputs = None  # let the collector free the previous world
        gc.collect()
        if recorder is not None:
            recorder.active = True
        started = time.perf_counter()
        inputs = setup(seeds)
        setup_times.append(time.perf_counter() - started)
        if recorder is not None:
            recorder.active = False
    with workloads.scratch_dir(str(ROOT)) as scratch:
        outcome = run(inputs, workloads.Stopwatch(recorder), scratch, telemetry)
    return setup_times, outcome


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"e2ebench: no repro package under {ROOT / 'src'}; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    name = args.workload
    samples = []
    digests: dict[int, str] = {}
    problems: list[str] = []

    def measure(world: int):
        setup_times, outcome = iterate(
            workloads, name, workloads.world_seeds(args.seed, world),
            repeats=SETUP_REPEATS,
        )
        check_digest(world, outcome, f"iteration {len(samples)}")
        print(f"iteration {len(samples)} world {world}: set-up "
              f"{statistics.median(setup_times):.4f} s, wall "
              f"{outcome.wall_s:.4f} s, {outcome.targets} targets, "
              f"{outcome.clean_hits} clean hits", flush=True)
        return world, setup_times, outcome

    def check_digest(world: int, outcome, label: str) -> None:
        digest = outcome.digest.hexdigest()
        if digests.setdefault(world, digest) != digest:
            problems.append(
                f"{label} on world {world} found a different clean-hit set"
            )

    try:
        started = time.perf_counter()
        # Every iteration runs a new world, which averages out how much
        # one world's layout favours or penalises a layer; a last
        # iteration repeats world 0 for the determinism check.
        while not samples or time.perf_counter() - started < args.seconds:
            samples.append(measure(len(samples)))
        samples.append(measure(0))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        outcomes = [outcome for _, _, outcome in samples]
        values = {
            "setup_s": [t for _, times, _ in samples for t in times],
            "wall_s": [o.wall_s for o in outcomes],
            "peak_rss_mb": [peak_rss_mb],
            "clean_hits": [o.clean_hits for o in outcomes],
            "clean_precision": [o.clean_precision for o in outcomes],
            "clean_recall": [o.clean_recall for o in outcomes],
            "disk_mb": [o.disk_bytes / 1e6 for o in outcomes],
        }
        units = dict(END_TO_END, disk_mb="MB", failed_frac="ratio")
        attempted = sum(o.attempted for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        medians = {key: statistics.median(v) for key, v in values.items()}
        # Throughput over the whole run rather than a median of ratios:
        # worlds differ in target count far more than in run time.
        medians["targets_per_s"] = (
            sum(o.targets for o in outcomes) / sum(o.wall_s for o in outcomes)
        )
        medians["failed_frac"] = failed / attempted
        print(f"workload {name}, seed {args.seed}: {len(samples)} iterations "
              f"in {time.perf_counter() - started:.1f} s")
        for key, unit in units.items():
            line = f"  {key:<16} {medians[key]:>14.6g} {unit}"
            if len(values.get(key, ())) > 1:
                q1, q3 = quartiles(values[key])
                line += f"   (median of {len(values[key])}; q1 {q1:.6g}, q3 {q3:.6g})"
            print(line)

        if args.trace:
            metrics = traced_metrics(
                tracing, workloads, name, args.seed, samples, check_digest
            )
            metrics["disk_mb"] = (medians["disk_mb"], "MB")
        else:
            metrics = {key: (medians[key], unit) for key, unit in END_TO_END.items()}
    except workloads.CheckFailed as exc:
        problems.append(str(exc))
        metrics, attempted, failed = {}, 1, 0

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }))
    return 1 if problems else 0


def traced_metrics(tracing, workloads, name, seed, samples, check_digest):
    """One traced and one telemetry-on iteration on world 0, as per-layer metrics."""
    from repro.telemetry import MemorySink, Telemetry

    seeds = workloads.world_seeds(seed, 0)
    untraced = statistics.median(o.wall_s for w, _, o in samples if w == 0)

    recorder = tracing.Recorder()
    with tracing.instrument(recorder):
        (setup_s,), traced = iterate(workloads, name, seeds, recorder=recorder)
    check_digest(0, traced, "the traced iteration")
    spans_path = ROOT / f".e2ebench-trace-{name}-{seed}.jsonl"
    recorder.write(spans_path)
    metrics = tracing.layer_metrics(recorder, setup_s + traced.wall_s)
    metrics["trace.overhead_frac"] = (traced.wall_s / untraced - 1, "ratio")

    _, observed = iterate(workloads, name, seeds, telemetry=Telemetry(MemorySink()))
    check_digest(0, observed, "the telemetry iteration")
    metrics["telemetry.overhead_frac"] = (observed.wall_s / untraced - 1, "ratio")

    wall = metrics["trace.wall_s"][0]
    parts = sum(metrics[key][0] for key in tracing.SELF_TIME_METRICS)
    if abs(parts - wall) > 1e-6 * max(wall, 1.0):
        raise workloads.CheckFailed(
            f"layer self times sum to {parts:.6f} s, traced wall is {wall:.6f} s"
        )
    if name == "rescan":
        calls = (
            metrics["core.ledger_charge_calls"][0]
            + metrics["core.ledger_sample_calls"][0]
            + recorder.calls("core.SixGen.run")
        )
        if calls:
            raise workloads.CheckFailed(f"rescan made {calls:.0f} calls into core")

    print(f"traced iteration on world 0: {wall:.3f} s "
          f"(set-up {setup_s:.3f} s + wall {traced.wall_s:.3f} s), "
          f"{len(recorder.spans)} spans written to {spans_path.name}")
    for key in tracing.SELF_TIME_METRICS:
        value = metrics[key][0]
        print(f"  {key:<24} {value:>10.4f} s  {value / wall:>7.1%}")
    ledger = metrics["core.ledger_charge_s"][0] + metrics["core.ledger_sample_s"][0]
    others = {
        key: metrics[key][0] for key in tracing.SELF_TIME_METRICS
        if key not in ("core.ledger_charge_s", "core.ledger_sample_s")
    }
    leader = max(others, key=others.get)
    if name == "classic":
        # A sanity check on the wrappers at the time the benchmark was
        # written, not a performance gate: a faster ledger may drop it.
        verdict = "leads" if ledger >= others[leader] else "does NOT lead"
        print(f"  ledger self time {ledger:.3f} s {verdict} "
              f"(next: {leader} {others[leader]:.3f} s)")
    for key, (value, unit) in metrics.items():
        if key not in tracing.SELF_TIME_METRICS:
            print(f"  {key:<24} {value:>14.6g} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
