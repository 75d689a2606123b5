"""Span tracing and per-layer metrics for the traced benchmark run.

The tracer wraps a fixed set of demonlab functions by rebinding every
attribute of every loaded ``demonlab`` module that refers to them.  Calls
made inside the package (``harness.run_sweep`` calling ``measure_power``,
``propagate`` calling ``loss_channel``) are caught as well as calls made by
the benchmark.  Nothing in ``src/`` is edited.

Each span records its name, start, end, parent span, op id and round, plus
the counts its probe reads off the arguments or the result.  Spans stay in
memory; ``layer_metrics`` turns them into the per-layer numbers once the
traced rounds have ended.  A span's self time is its duration minus the
durations of its direct children; in this single-threaded process the
children never overlap, so that is the time no child covers.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc

#: Functions wrapped in the traced run, as (module, function).
TARGETS = (
    ("cli", "main"),
    ("harness", "parse_sweep_config"),
    ("harness", "run_sweep"),
    ("harness", "emit_report"),
    ("analytics", "closed_form_power"),
    ("montecarlo", "measure_power"),
    ("montecarlo", "run"),
    ("montecarlo", "calibrate_balance"),
    ("montecarlo", "estimate_g2"),
    ("montecarlo", "fit_gaussian_memory_tau_c"),
    ("protocol", "propagate"),
    ("fock", "loss_channel"),
    ("fock", "beamsplitter_split"),
    ("sources", "make_source"),
    ("information", "mutual_information"),
    ("oracle", "enumerate_outcomes"),
    ("oracle", "compare"),
)

#: Root span the benchmark opens around each traced round.  Its self time
#: is benchmark glue plus program code outside the wrapped functions.
ROUND_SPAN = "bench.round"

RUN_KINDS = ("feed_forward", "cross", "bar", "dead_window")
BULK_KINDS = RUN_KINDS[:3]

#: Spans whose peak traced allocation is recorded (tracemalloc is on only
#: inside them, so other spans pay nothing for it).
MEMORY_SPANS = frozenset({"montecarlo.estimate_g2"})

#: Slots per run that ``sweep.fig4a_both_1e6_s`` scales fig4a's engine time to.
FIG4A_SLOTS = 1_000_000


def _run_kind(config) -> str:
    mode = config.mode.value
    if mode == "feed_forward" and config.dead_window_slots > 0:
        return "dead_window"
    return mode


def _probe_run(args, result):
    config = args["config"]
    return {"kind": _run_kind(config), "slots": config.slots,
            "source": (config.spec, config.eps2)}


def _probe_measure_power(args, result):
    return {"source": (args["spec"], float(args["eps2"]))}


def _probe_estimate_g2(args, result):
    return {"slots": int(args["slots"])}


#: Counts read at the span boundary: name -> f(bound arguments, result).
PROBES = {
    "montecarlo.run": _probe_run,
    "montecarlo.measure_power": _probe_measure_power,
    "montecarlo.estimate_g2": _probe_estimate_g2,
    "protocol.propagate": lambda a, r: {"entries": len(r.dist.entries)},
    "information.mutual_information": lambda a, r: {"joint_entries": len(r.joint)},
    "oracle.enumerate_outcomes": lambda a, r: {"paths": r.paths},
}


class Span:
    __slots__ = ("name", "parent", "op", "round", "start", "end", "attrs")

    def __init__(self, name, parent, op, round_):
        self.name = name
        self.parent = parent
        self.op = op
        self.round = round_
        self.start = self.end = 0.0
        self.attrs = None


class Tracer:
    """Records spans around the wrapped functions while installed.

    ``op_source`` is any object with a ``current`` attribute naming the op
    in progress (None between ops); spans copy it as their op id.
    """

    def __init__(self, op_source):
        self.op_source = op_source
        self.spans: list[Span] = []
        self.round = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "demonlab" or name.startswith("demonlab."))]
        for module_name, func_name in TARGETS:
            original = getattr(sys.modules[f"demonlab.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.op_source.current, self.round)
        self.spans.append(span)
        index = len(self.spans) - 1
        self._stack.append(index)
        span.start = time.perf_counter()
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        signature = inspect.signature(fn)
        track_memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started_tracemalloc = track_memory and not tracemalloc.is_tracing()
            if started_tracemalloc:
                tracemalloc.start()
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(index)
                if started_tracemalloc:
                    span.attrs = {"peak_bytes": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = {**(span.attrs or {}), **probe(bound.arguments, result)}
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


#: Every per-layer metric the traced run reports, with its unit, in the
#: order of ``BENCHMARK.json``.  Counts are per round and must repeat
#: exactly; times are per-round means.
PER_LAYER = (
    *((f"montecarlo.run.{kind}.{field}", unit)
      for kind in RUN_KINDS
      for field, unit in (("calls", "count"), ("slots", "count"),
                          ("self_s", "s"), ("slots_per_s", "1/s"))),
    ("montecarlo.run.occupied_frac", "frac"),
    ("montecarlo.measure_power.calls", "count"),
    ("montecarlo.measure_power.self_s", "s"),
    ("montecarlo.calibrate_balance.calls", "count"),
    ("montecarlo.calibrate_balance.self_s", "s"),
    ("montecarlo.calibrate_balance.runs", "count"),
    ("montecarlo.estimate_g2.calls", "count"),
    ("montecarlo.estimate_g2.self_s", "s"),
    ("montecarlo.estimate_g2.slots_per_s", "1/s"),
    ("montecarlo.estimate_g2.peak_mb", "MB"),
    ("montecarlo.fit_gaussian_memory_tau_c.self_s", "s"),
    ("protocol.propagate.calls", "count"),
    ("protocol.propagate.self_s", "s"),
    ("protocol.propagate.entries", "count"),
    ("fock.loss_channel.calls", "count"),
    ("fock.loss_channel.self_s", "s"),
    ("fock.beamsplitter_split.calls", "count"),
    ("fock.beamsplitter_split.self_s", "s"),
    ("sources.make_source.calls", "count"),
    ("sources.make_source.self_s", "s"),
    ("information.mutual_information.calls", "count"),
    ("information.mutual_information.self_s", "s"),
    ("information.mutual_information.joint_entries", "count"),
    ("oracle.enumerate_outcomes.calls", "count"),
    ("oracle.enumerate_outcomes.self_s", "s"),
    ("oracle.enumerate_outcomes.paths", "count"),
    ("oracle.enumerate_outcomes.paths_per_s", "1/s"),
    ("oracle.compare.self_s", "s"),
    ("analytics.closed_form_power.calls", "count"),
    ("analytics.closed_form_power.self_s", "s"),
    ("harness.parse_sweep_config.self_s", "s"),
    ("harness.run_sweep.self_s", "s"),
    ("harness.emit_report.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("bench.round.self_s", "s"),
    ("engine.bulk_mslots_per_s", "Mslots/s"),
    ("engine.dead_window_ratio", "ratio"),
    ("sweep.fig4a_both_1e6_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

UNITS = dict(PER_LAYER)

#: Names whose value is a count per round; they must repeat exactly.
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER if unit == "count")


def _round_counts(spans: list[Span], round_index: int) -> dict[str, int]:
    counts = dict.fromkeys(EXACT_COUNTS, 0)
    for span in spans:
        if span.round != round_index:
            continue
        attrs = span.attrs or {}
        if span.name == "montecarlo.run":
            if attrs:
                counts[f"montecarlo.run.{attrs['kind']}.calls"] += 1
                counts[f"montecarlo.run.{attrs['kind']}.slots"] += attrs["slots"]
            if span.parent >= 0 and spans[span.parent].name == "montecarlo.calibrate_balance":
                counts["montecarlo.calibrate_balance.runs"] += 1
            continue
        if f"{span.name}.calls" in counts:
            counts[f"{span.name}.calls"] += 1
        for field, value in attrs.items():
            if f"{span.name}.{field}" in counts:
                counts[f"{span.name}.{field}"] += value
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], rounds: int, vacuum_probability,
                  fig4a_sources=frozenset()):
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    Every traced round runs the same input, and ``Span.round`` holds the
    round's position.  ``vacuum_probability(spec)`` gives a source's exact
    P(vacuum) for ``occupied_frac``.  ``fig4a_sources`` holds the
    ``(spec, eps2)`` pairs of the fig4a curves, whose engine time is scaled
    to ``FIG4A_SLOTS`` per run.  Returns ``(metrics, mismatches)``:
    ``metrics`` maps every ``PER_LAYER`` name except the ``trace.*`` pair to
    its value, and ``mismatches`` names the counts that differ between
    rounds.
    """
    own = self_times(spans)
    per_round = [_round_counts(spans, k) for k in range(rounds)]
    mismatches = [name for name in EXACT_COUNTS
                  if len({counts[name] for counts in per_round}) > 1]
    totals = {name: sum(counts[name] for counts in per_round) for name in EXACT_COUNTS}
    metrics = {name: per_round[0][name] for name in EXACT_COUNTS}

    self_by_name: dict[str, float] = {}
    run_self = dict.fromkeys(RUN_KINDS, 0.0)
    occupied = weighted_slots = 0.0
    fig4a_run = fig4a_other = 0.0
    g2_slots = 0
    peak_bytes = 0
    for span, t in zip(spans, own):
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + t
        attrs = span.attrs or {}
        if span.name == "montecarlo.run" and attrs:
            run_self[attrs["kind"]] += t
            occupied += attrs["slots"] * (1.0 - vacuum_probability(attrs["source"][0]))
            weighted_slots += attrs["slots"]
            if attrs["source"] in fig4a_sources:
                fig4a_run += t * FIG4A_SLOTS / attrs["slots"]
        elif span.name == "montecarlo.measure_power" and attrs.get("source") in fig4a_sources:
            fig4a_other += t
        elif span.name == "montecarlo.estimate_g2":
            g2_slots += attrs.get("slots", 0)
            peak_bytes = max(peak_bytes, attrs.get("peak_bytes", 0))

    for name, unit in PER_LAYER:
        if name.endswith(".self_s") and not name.startswith("montecarlo.run."):
            metrics[name] = self_by_name.get(name[:-len(".self_s")], 0.0) / rounds
    for kind in RUN_KINDS:
        slots = totals[f"montecarlo.run.{kind}.slots"]
        metrics[f"montecarlo.run.{kind}.self_s"] = run_self[kind] / rounds
        metrics[f"montecarlo.run.{kind}.slots_per_s"] = _ratio(slots, run_self[kind])
    metrics["montecarlo.run.occupied_frac"] = _ratio(occupied, weighted_slots)
    metrics["montecarlo.estimate_g2.slots_per_s"] = _ratio(
        g2_slots, self_by_name.get("montecarlo.estimate_g2", 0.0))
    metrics["montecarlo.estimate_g2.peak_mb"] = peak_bytes / 2 ** 20
    metrics["oracle.enumerate_outcomes.paths_per_s"] = _ratio(
        totals["oracle.enumerate_outcomes.paths"],
        self_by_name.get("oracle.enumerate_outcomes", 0.0))

    bulk_slots = sum(totals[f"montecarlo.run.{k}.slots"] for k in BULK_KINDS)
    bulk_self = sum(run_self[k] for k in BULK_KINDS)
    metrics["engine.bulk_mslots_per_s"] = _ratio(bulk_slots, bulk_self) / 1e6
    dw_per_slot = _ratio(run_self["dead_window"], totals["montecarlo.run.dead_window.slots"])
    bulk_per_slot = _ratio(bulk_self, bulk_slots)
    metrics["engine.dead_window_ratio"] = _ratio(dw_per_slot, bulk_per_slot)
    metrics["sweep.fig4a_both_1e6_s"] = (fig4a_run + fig4a_other) / rounds
    return metrics, mismatches
