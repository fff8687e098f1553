"""The campaign's generation stage: per-prefix 6Gen over a process pool.

Run 6Gen on every routed prefix's seed group, serially or across a
process pool, with failure isolation and per-prefix progress events
(the data types live in :mod:`repro.analysis.grouping`).  The campaign
pipeline calls it directly as its first stage; targets leave as packed
``(hi, lo)`` column chunks per prefix, never as a materialised union.
"""

from __future__ import annotations

import contextlib
import time
from typing import Mapping, Sequence

from ..core.sixgen import SixGenResult, run_6gen
from ..ipv6.prefix import Prefix
from ..telemetry.spans import Telemetry, ensure
from ..analysis.grouping import (
    BudgetPolicy,
    MultiPrefixRun,
    PrefixRun,
    static_budget,
)


def _run_prefix(
    item: tuple[Prefix, list[int], int, bool, str, int | None],
    telemetry: Telemetry | None = None,
) -> SixGenResult:
    """Run 6Gen on one prefix and materialise its packed target columns.

    The one per-prefix worker, run in-process or in a pool process.
    Expanding the winning ranges into concrete addresses happens here,
    so in a pool it parallelises with the other prefixes instead of
    serialising in the parent.  The result carries only the columns
    (two raw uint64 buffers, about 160 KB per prefix at a 10 k budget),
    never a boxed-int target set, which is what a pool pickles back.
    """
    prefix, seeds, prefix_budget, loose, ledger, rng_seed = item
    result = run_6gen(
        seeds, prefix_budget, loose=loose, ledger=ledger, rng_seed=rng_seed,
        telemetry=telemetry,
    )
    result.target_columns_by_density()  # cached on the result
    return result


def _pool(processes: int | None, jobs: int):
    """A process pool when ``processes`` > 1 and there are several jobs.

    Otherwise a null context yielding ``None``: the worker runs
    in-process.
    """
    if not (processes and processes > 1 and jobs > 1):
        return contextlib.nullcontext()
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=processes)


def generate_per_prefix(
    groups: Mapping[Prefix, Sequence[int]],
    budget: int,
    *,
    loose: bool = True,
    ledger: str = "exact",
    budget_policy: BudgetPolicy = static_budget,
    min_seeds: int = 1,
    rng_seed: int | None = 0,
    processes: int | None = None,
    telemetry: Telemetry | None = None,
    isolate_failures: bool = True,
    progress_sink=None,
) -> MultiPrefixRun:
    """Run 6Gen on every routed prefix's seed group.

    ``budget_policy`` decides each prefix's budget from the base value;
    prefixes with fewer than ``min_seeds`` seeds are skipped (the paper
    omits <10-seed prefixes from some analyses but still scans them, so
    the default keeps everything).

    ``processes`` > 1 runs prefixes in a process pool — the
    parallelisation axis §5.6 mentions ("we could parallelize execution
    across different prefixes").  Serial and pooled runs share one
    worker and one loop; the pool only decides where the worker runs.
    Results, events and counters are identical at any worker count
    because every prefix run is independently seeded.

    ``telemetry`` records a ``generate`` span, one ``generate.prefix``
    span per prefix, per-prefix ``progress`` events (each with its
    ``targets`` count), and aggregate counters.  Telemetry objects stay
    in the parent, so 6Gen's own ``sixgen`` spans and counters nest
    inside ``generate.prefix`` only when the prefix runs in-process.

    With ``isolate_failures`` (the default) a prefix whose 6Gen run
    raises does not kill the campaign: the run is retried once
    (deterministic inputs, so this only papers over environmental
    faults like a killed pool worker), then recorded in
    ``MultiPrefixRun.failures`` / telemetry and skipped with a
    :class:`RuntimeWarning`.  ``progress_sink`` (an optional
    :class:`~repro.telemetry.sinks.Sink`, e.g. a campaign checkpoint
    file) receives one ``prefix_generated`` event per completed prefix
    and one ``prefix_failed`` event per skipped prefix.
    """
    tele = ensure(telemetry)
    work = []
    for prefix in sorted(groups):
        seeds = [int(s) for s in groups[prefix]]
        if len(seeds) < min_seeds:
            continue
        prefix_budget = budget_policy(prefix, seeds, budget)
        work.append((prefix, seeds, prefix_budget, loose, ledger, rng_seed))

    out = MultiPrefixRun()
    started = time.perf_counter()
    targets_total = 0
    with tele.span("generate", prefixes=len(work), budget=budget), _pool(
        processes, len(work)
    ) as pool:
        if pool is not None:
            # Seed-count distributions are heavy-tailed (Figure 4): a
            # few prefixes dominate the runtime.  Submit largest-first
            # (one future per prefix) so a giant prefix never queues
            # behind a chunk of small ones at the tail of the pool.
            # Results are still collected in prefix order, and each
            # poisoned prefix surfaces from exactly its own future.
            futures = {
                item[0]: pool.submit(_run_prefix, item)
                for item in sorted(work, key=lambda it: (-len(it[1]), it[0]))
            }
        for item in work:
            prefix, seeds, prefix_budget = item[:3]
            # The per-prefix span wraps the whole attempt (retry
            # included) so `repro report` can attribute generation time
            # prefix by prefix.
            try:
                with tele.span(
                    "generate.prefix", prefix=str(prefix), seeds=len(seeds)
                ):
                    try:
                        if pool is None:
                            result = _run_prefix(item, telemetry)
                        else:
                            result = futures.pop(prefix).result()
                    except Exception:
                        if not isolate_failures:
                            raise
                        # Retry once, in the parent — same args, same
                        # seed, so a success is the run the first
                        # attempt would have produced.
                        tele.count("generate.prefix_retries")
                        result = _run_prefix(item, telemetry)
                    targets = len(result.target_columns_by_density()[0])
                    tele.count("generate.targets_total", targets)
            except Exception as exc:
                if not isolate_failures:
                    raise
                _record_prefix_failure(
                    tele, out, prefix, exc, len(work), progress_sink
                )
                continue
            targets_total += targets
            out.runs[prefix] = PrefixRun(
                prefix=prefix, seeds=seeds, budget=prefix_budget,
                result=result,
            )
            _record_prefix_run(
                tele, out.runs[prefix], len(work), targets, progress_sink
            )
    elapsed = time.perf_counter() - started
    if tele.enabled and out.runs and elapsed > 0:
        tele.gauge("generate.targets_per_sec", targets_total / elapsed)
    return out


def _record_prefix_run(
    telemetry: Telemetry,
    run: PrefixRun,
    total: int,
    targets: int,
    sink=None,
) -> None:
    """Per-prefix progress accounting (no-op for null telemetry).

    ``targets`` is the prefix's distinct generated-target count.
    """
    if sink is not None:
        sink.emit(
            {
                "event": "prefix_generated",
                "prefix": str(run.prefix),
                "seeds": len(run.seeds),
                "budget_used": run.result.budget_used,
            }
        )
    if not telemetry.enabled:
        return
    telemetry.count("generate.prefixes")
    telemetry.count("generate.budget_used", run.result.budget_used)
    telemetry.count("generate.clusters", len(run.result.clusters))
    telemetry.event(
        "progress",
        {
            "stage": "6gen",
            "prefix": str(run.prefix),
            "seeds": len(run.seeds),
            "budget_used": run.result.budget_used,
            "iterations": run.result.iterations,
            "targets": targets,
            "total_prefixes": total,
        },
    )


def _record_prefix_failure(
    telemetry: Telemetry,
    out: MultiPrefixRun,
    prefix: Prefix,
    exc: BaseException,
    total: int,
    sink=None,
) -> None:
    """Record a twice-failed prefix and warn; the campaign continues."""
    import warnings

    detail = f"{type(exc).__name__}: {exc}"
    out.failures[prefix] = detail
    warnings.warn(
        f"6Gen failed twice for {prefix}; skipping its targets ({detail})",
        RuntimeWarning,
        stacklevel=3,
    )
    if sink is not None:
        sink.emit(
            {"event": "prefix_failed", "prefix": str(prefix), "error": detail}
        )
    if telemetry.enabled:
        telemetry.count("generate.failed_prefixes")
        telemetry.event(
            "prefix_failed",
            {"prefix": str(prefix), "error": detail, "total_prefixes": total},
        )
