"""Per-layer spans for the traced benchmark run, recorded from outside ``src/``.

:func:`instrument` replaces each layer's public entry points with thin
wrappers for the duration of one traced iteration and restores the
originals afterwards.  Module-level functions are swapped in every
loaded ``repro`` module that bound them, so a caller that imported the
name (``from .generate import generate_per_prefix``) is traced the same
as one that looks it up on its module.  Methods are swapped on their
class.  Nothing under ``src/`` changes.

Spans live in memory as ``(name, start, end, parent)``; once the
iteration ends they are written out and turned into per-layer metrics.  A span's self time is
its duration minus the durations of its direct children; children never
overlap because the program is single-threaded.  Layer self times plus
the time outside every span (``trace.remainder_s``) add up to the traced
wall time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro.analysis.grouping import MultiPrefixRun, PrefixRun
from repro.campaign.pipeline import Campaign
from repro.core.budget import make_ledger
from repro.core.sixgen import SixGen
from repro.hitlist.store import LivingHitlist
from repro.predictive.allocate import PredictiveAllocator
from repro.scanner.engine import Scanner
from repro.scanner.execution import ScanExecution
from repro.simnet.dynamics import DynamicWorld
from repro.telemetry.sinks import JsonlSink

# Package __init__ files re-export functions under their modules' names
# (repro.scanner.dealias is shadowed by the dealias function), so the
# modules are looked up by their full names.
_bgp = importlib.import_module("repro.simnet.bgp")
_dns = importlib.import_module("repro.simnet.dns")
_ground_truth = importlib.import_module("repro.simnet.ground_truth")
_generate = importlib.import_module("repro.campaign.generate")
_dealias = importlib.import_module("repro.scanner.dealias")

#: A span name's first dotted part is its layer.
_DEALIAS = "dealias.dealias"
_DETECT = "dealias.detect_aliased_prefixes"
_ALIAS_TEST = "campaign.alias_test"
_SCAN = "scanner.Scanner.scan"


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    children: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


@dataclass
class Recorder:
    """Spans and counters of one traced iteration.

    ``active`` gates recording: the benchmark switches it off while it
    checks outputs, so the checks' own calls leave no spans.
    """

    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    active: bool = False
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if name == _DETECT and not self.inside(_DEALIAS):
            # The phased campaign's in-loop alias tests call the same
            # function; they are campaign work, not final dealiasing.
            name = _ALIAS_TEST
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].children += span.duration

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def inclusive(self, *names: str) -> float:
        return sum(s.duration for s in self.spans if s.name in names)

    def self_time(self, *names: str) -> float:
        return sum(s.self_time for s in self.spans if s.name in names)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index,
                    "name": span.name,
                    "parent": span.parent,
                    "start": span.start - origin,
                    "end": span.end - origin,
                }) + "\n")


def _wrap(rec: Recorder, fn, name: str, before=None, after=None):
    """``fn`` with a span around each call while ``rec.active``.

    ``before(args, kwargs)`` returns a token handed to
    ``after(token, args, kwargs, result)``; both run outside the span,
    so counter bookkeeping is not charged to the layer it measures.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        token = before(args, kwargs) if before is not None else None
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(token, args, kwargs, result)
        return result

    return wrapper


def _wrap_generator(rec: Recorder, fn, name: str):
    """A generator method traced per resumption: each ``next()`` is a span.

    A span held open across ``yield`` would charge the consumer's work
    to the producer.
    """

    def traced(gen):
        while True:
            index = rec.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                rec.close(index)
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        return traced(gen) if rec.active else gen

    return wrapper


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _scanner_probes(get_scanner):
    """A ``before`` hook recording a call's scanner and its ``total_probes``."""

    def before(args, kwargs):
        scanner = get_scanner(args, kwargs)
        return scanner, scanner.total_probes

    return before


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Trace every layer entry point the benchmark names, then restore."""
    # -- counter hooks ---------------------------------------------------
    def sixgen_after(_token, _args, _kwargs, result):
        rec.count("core.budget_used", result.budget_used)
        rec.count("core.budget_limit", result.budget_limit)

    def columns_after(_token, _args, _kwargs, result):
        rec.count("generate.targets", len(result[0]))

    def scan_after(token, _args, _kwargs, result):
        scanner, probes = token
        rec.count("scanner.probes", scanner.total_probes - probes)
        rec.count("scanner.retransmits", result.stats.retransmits)
        rec.count("scanner.hits", len(result.hits))

    def step_after(token, args, _kwargs, more):
        scanner, probes = token
        sent = scanner.total_probes - probes
        if not more and sent:
            # The closing step of a stepwise execution books its probes
            # (steps driven inside Scanner.scan leave that to the scan).
            execution = args[0]
            rec.count("scanner.probes", sent)
            rec.count("scanner.retransmits", execution.stats.retransmits)
            rec.count("scanner.hits", len(execution.hits))

    def dealias_after(token, _args, _kwargs, report):
        scanner, probes = token
        rec.count("dealias.probes", scanner.total_probes - probes)
        rec.count("dealias.aliased_hits", len(report.aliased_hits))
        rec.count("dealias.hits", report.total_hits)

    def detect_after(token, _args, _kwargs, _result):
        scanner, probes = token
        if not rec.inside(_DEALIAS):
            rec.count("campaign.alias_probes", scanner.total_probes - probes)

    def emit_before(args, _kwargs):
        return os.path.getsize(args[0].path)

    def emit_after(size, args, _kwargs, _result):
        rec.count("persist.records")
        rec.count("persist.bytes", os.path.getsize(args[0].path) - size)

    def hitlist_after(_token, args, _kwargs, _result):
        rec.counts["hitlist.entries"] = len(args[0])

    scanner_self = _scanner_probes(lambda a, k: a[0])
    scanner_of_execution = _scanner_probes(lambda a, k: a[0].scanner)
    scanner_arg = _scanner_probes(lambda a, k: _arg(a, k, 1, "scanner"))
    ledger = type(make_ledger("exact", 0, ()))

    functions = [
        (_ground_truth.default_internet, "simnet.default_internet", {}),
        (_dns.collect_seeds, "simnet.collect_seeds", {}),
        (_bgp.group_by_routed_prefix, "simnet.group_by_routed_prefix", {}),
        (_generate.generate_per_prefix, "generate.generate_per_prefix", {}),
        (_dealias.dealias, _DEALIAS,
         {"before": scanner_arg, "after": dealias_after}),
        (_dealias.detect_aliased_prefixes, _DETECT,
         {"before": scanner_arg, "after": detect_after}),
        (_dealias.as_level_inspection, "dealias.as_level_inspection", {}),
    ]
    methods = [
        (DynamicWorld, "advance_to", "simnet.advance_to", {}),
        (SixGen, "run", "core.SixGen.run", {"after": sixgen_after}),
        (ledger, "try_charge", "core.ledger.try_charge", {}),
        (ledger, "charge_partial", "core.ledger.charge_partial", {}),
        (MultiPrefixRun, "iter_target_columns", "generate.iter_target_columns",
         None),
        (PrefixRun, "target_columns", "generate.target_columns",
         {"after": columns_after}),
        (Scanner, "scan", _SCAN, {"before": scanner_self, "after": scan_after}),
        (Scanner, "start_execution", "scanner.Scanner.start_execution", {}),
        (ScanExecution, "step", "scanner.ScanExecution.step",
         {"before": scanner_of_execution, "after": step_after}),
        (JsonlSink, "emit", "persist.JsonlSink.emit",
         {"before": emit_before, "after": emit_after}),
        (Campaign, "run", "campaign.Campaign.run", {}),
        (Campaign, "begin", "campaign.Campaign.begin", {}),
        (Campaign, "step", "campaign.Campaign.step", {}),
        (Campaign, "finish", "campaign.Campaign.finish", {}),
        (PredictiveAllocator, "plan", "predictive.PredictiveAllocator.plan", {}),
        (LivingHitlist, "observe", "hitlist.LivingHitlist.observe",
         {"after": hitlist_after}),
        (LivingHitlist, "snapshot", "hitlist.LivingHitlist.snapshot",
         {"after": hitlist_after}),
    ]

    restore: list[tuple[object, str, object]] = []
    try:
        for fn, name, hooks in functions:
            wrapper = _wrap(rec, fn, name, **hooks)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        restore.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for cls, attr, name, hooks in methods:
            fn = cls.__dict__[attr]
            if hooks is None:
                if not inspect.isgeneratorfunction(fn):
                    raise TypeError(f"{cls.__name__}.{attr} is not a generator")
                wrapper = _wrap_generator(rec, fn, name)
            else:
                wrapper = _wrap(rec, fn, name, **hooks)
            restore.append((cls, attr, fn))
            setattr(cls, attr, wrapper)
        yield rec
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


def layer_metrics(rec: Recorder, wall_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced iteration, as ``name -> (value, unit)``.

    ``wall_s`` is the traced iteration's wall time (set-up included);
    ``trace.remainder_s`` is the part of it outside every span.
    """
    c = rec.counts
    scanner_probes = c["scanner.probes"]
    dealias_hits = c["dealias.hits"]
    limit = c["core.budget_limit"]
    spans_self = sum(s.self_time for s in rec.spans)
    return {
        "simnet.build_s": (rec.self_time(
            "simnet.default_internet", "simnet.collect_seeds",
            "simnet.group_by_routed_prefix"), "s"),
        "simnet.advance_s": (rec.self_time("simnet.advance_to"), "s"),
        "core.sixgen_s": (rec.inclusive("core.SixGen.run"), "s"),
        "core.cluster_self_s": (rec.self_time("core.SixGen.run"), "s"),
        "core.ledger_charge_s": (rec.self_time("core.ledger.try_charge"), "s"),
        "core.ledger_charge_calls": (rec.calls("core.ledger.try_charge"), "count"),
        "core.ledger_sample_s": (rec.self_time("core.ledger.charge_partial"), "s"),
        "core.ledger_sample_calls": (
            rec.calls("core.ledger.charge_partial"), "count"),
        "core.budget_used_frac": (
            c["core.budget_used"] / limit if limit else 0.0, "ratio"),
        "generate.self_s": (rec.self_time("generate.generate_per_prefix"), "s"),
        "generate.emit_s": (rec.self_time(
            "generate.iter_target_columns", "generate.target_columns"), "s"),
        "generate.targets": (c["generate.targets"], "count"),
        "scanner.scan_s": (rec.self_time(
            _SCAN, "scanner.Scanner.start_execution",
            "scanner.ScanExecution.step"), "s"),
        "scanner.probes": (scanner_probes, "count"),
        "scanner.retransmits": (c["scanner.retransmits"], "count"),
        "scanner.hit_frac": (
            c["scanner.hits"] / scanner_probes if scanner_probes else 0.0,
            "ratio"),
        "persist.emit_s": (rec.self_time("persist.JsonlSink.emit"), "s"),
        "persist.records": (c["persist.records"], "count"),
        "persist.bytes": (c["persist.bytes"], "bytes"),
        "dealias.s": (rec.self_time(
            _DEALIAS, _DETECT, "dealias.as_level_inspection"), "s"),
        "dealias.detect_s": (rec.inclusive(_DETECT), "s"),
        "dealias.as_inspect_s": (rec.inclusive("dealias.as_level_inspection"), "s"),
        "dealias.probes": (c["dealias.probes"], "count"),
        "dealias.aliased_frac": (
            c["dealias.aliased_hits"] / dealias_hits if dealias_hits else 0.0,
            "ratio"),
        "campaign.self_s": (rec.self_time(
            "campaign.Campaign.run", "campaign.Campaign.begin",
            "campaign.Campaign.step", "campaign.Campaign.finish"), "s"),
        "campaign.alias_test_s": (rec.self_time(_ALIAS_TEST), "s"),
        "campaign.alias_probes": (c["campaign.alias_probes"], "count"),
        "predictive.plan_s": (
            rec.self_time("predictive.PredictiveAllocator.plan"), "s"),
        "hitlist.observe_s": (rec.self_time("hitlist.LivingHitlist.observe"), "s"),
        "hitlist.snapshot_s": (
            rec.self_time("hitlist.LivingHitlist.snapshot"), "s"),
        "hitlist.entries": (c["hitlist.entries"], "count"),
        "trace.wall_s": (wall_s, "s"),
        "trace.remainder_s": (wall_s - spans_self, "s"),
    }


#: The self-time metrics that partition the traced wall time, with
#: ``trace.remainder_s``; printed as the layer-share table.
SELF_TIME_METRICS = (
    "simnet.build_s",
    "simnet.advance_s",
    "core.cluster_self_s",
    "core.ledger_charge_s",
    "core.ledger_sample_s",
    "generate.self_s",
    "generate.emit_s",
    "scanner.scan_s",
    "persist.emit_s",
    "dealias.s",
    "campaign.self_s",
    "campaign.alias_test_s",
    "predictive.plan_s",
    "hitlist.observe_s",
    "hitlist.snapshot_s",
    "trace.remainder_s",
)
