"""Per-layer metrics of one traced CLI invocation.

Spans come from the start-up hook in ``hook/benchtrace.py``: one JSON
file per process (the CLI and each sweep worker).  Worker spans are
rebased onto the CLI process's clock through each file's
``(perf_counter_ns, time_ns)`` anchor.  Exact counts that the issue
names as counts (batch calls, fill ratios, leases, dispatched units)
come from the inputs and the service telemetry, never from timers.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Sequence

METRICS: tuple[tuple[str, str], ...] = (
    ("kernel.fast.ns_per_row_cycle", "ns"),
    ("kernel.fast.calls", "count"),
    ("kernel.batch.ns_per_row_cycle", "ns"),
    ("kernel.batch.us_per_call_cycle", "us"),
    ("kernel.batch.init_s", "s"),
    ("kernel.batch.calls", "count"),
    ("kernel.batch.rows_per_call", "count"),
    ("fleet.run_s", "s"),
    ("fleet.lane_fill", "ratio"),
    ("fleet.module_fill", "ratio"),
    ("sketch.summaries_s", "s"),
    ("service.run_s", "s"),
    ("service.ready_s", "s"),
    ("service.lease_p50_s", "s"),
    ("service.worker_idle_frac", "ratio"),
    ("service.leases", "count"),
    ("service.units_per_lease", "count"),
    ("service.dispatched", "count"),
    ("service.retries", "count"),
    ("service.worker.evaluate_s", "s"),
    ("service.serial_ratio", "ratio"),
    ("scenarios.plan_s", "s"),
    ("scenarios.compile_s", "s"),
    ("scenarios.render_s", "s"),
    ("cache.key_s", "s"),
    ("cache.get_many_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.put_s", "s"),
    ("cache.puts", "count"),
    ("engine.evaluate_s", "s"),
    ("engine.units", "count"),
    ("pool.map_s", "s"),
    ("startup.import_s", "s"),
    ("trace.overhead_s", "s"),
    ("paper_ebw_mape_pct", "%"),
)
"""Every per-layer metric, with its unit; a layer a workload does not
exercise reads 0."""

NS = 1e-9


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def load_trace(directory: pathlib.Path) -> list[dict]:
    """The span records of one traced invocation, CLI process first.

    Every record's spans are rebased onto the CLI process's clock.
    """
    records = [
        json.loads(path.read_text())
        for path in sorted(directory.glob("spans-*.json"))
    ]
    records.sort(key=lambda record: record["role"] != "cli")
    if not records or records[0]["role"] != "cli":
        raise RuntimeError(f"no CLI span record in {directory}")
    main = records[0]["anchor"]
    for record in records:
        offset = rebase_offset(record["anchor"], main)
        for span in record["spans"]:
            if span is not None:
                span[1] += offset
                span[2] += offset
    return records


def rebase_offset(anchor: dict, main: dict) -> int:
    """Nanoseconds to add to a process's perf-counter readings so they
    read on the main process's perf-counter scale."""
    return (anchor["wall_ns"] - anchor["perf_ns"]) - (
        main["wall_ns"] - main["perf_ns"]
    )


def self_times(spans: Sequence) -> list[int]:
    """Each span's duration minus the part of it its children cover.

    ``spans`` holds ``[name, start, end, parent, attrs]`` entries (or
    ``None`` for a span still open when the process exited), where
    ``parent`` is the index of the enclosing span or -1.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span is not None and span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    result = []
    for index, span in enumerate(spans):
        if span is None:
            result.append(0)
            continue
        start, end = span[1], span[2]
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append(end - start - covered)
    return result


def _spans(records: Sequence[dict], name: str, roles=("cli", "worker")):
    """``(span, self_ns)`` pairs named ``name`` in records of ``roles``."""
    found = []
    for record in records:
        if record["role"] not in roles:
            continue
        spans = record["spans"]
        for span, own in zip(spans, self_times(spans)):
            if span is not None and span[0] == name:
                found.append((span, own))
    return found


def _seconds(pairs) -> float:
    return sum(span[2] - span[1] for span, _ in pairs) * NS


def kernel_costs(pairs) -> tuple[float, float]:
    """ns per row-cycle and us per call-cycle of kernel ``run`` spans.

    Self time excludes nested spans (the batch kernel's sketch freeze).
    The per-call-cycle figure is the kernel's fixed cost when fleets
    are small; the per-row-cycle figure is its all-in cost per row.
    """
    own = sum(own for _, own in pairs)
    row_steps = sum(span[4]["rows"] * span[4]["steps"] for span, _ in pairs)
    steps = sum(span[4]["steps"] for span, _ in pairs)
    if not steps:
        return 0.0, 0.0
    return own / row_steps, own / steps / 1000.0


# ----------------------------------------------------------------------
# Counts from the inputs
# ----------------------------------------------------------------------
def fleet_plan(units: Sequence, workers: int | None) -> dict:
    """Batch calls and lane/module fill the run will make, from inputs.

    Mirrors what executes: serially every batch unit goes to one
    ``run_units`` call; through the service each lease the planner
    carves is one ``run_units`` call on a worker.  Either way each
    ``pack_fleets`` group is one padded kernel call.  Assumes a cold
    store (every unit evaluated).
    """
    from repro.parallel.fleet import pack_fleets
    from repro.scenarios.plan import carve_leases

    positions = range(len(units))
    blocks = (
        carve_leases(units, positions, workers=workers)
        if workers
        else [list(positions)]
    )
    calls = rows = lanes = lanes_used = modules = modules_used = 0
    for block in blocks:
        batch = [units[p] for p in block if units[p].kernel == "batch"]
        cases = [unit.case() for unit in batch]
        for group in pack_fleets(cases):
            configs = [cases[i].config for i in group]
            width_n = max(config.processors for config in configs)
            width_m = max(config.memories for config in configs)
            calls += 1
            rows += len(configs)
            lanes += len(configs) * width_n
            modules += len(configs) * width_m
            lanes_used += sum(config.processors for config in configs)
            modules_used += sum(config.memories for config in configs)
    return {
        "kernel.batch.calls": calls,
        "kernel.batch.rows_per_call": rows / calls if calls else 0.0,
        "fleet.lane_fill": lanes_used / lanes if lanes else 0.0,
        "fleet.module_fill": modules_used / modules if modules else 0.0,
    }


# ----------------------------------------------------------------------
# One invocation's metrics
# ----------------------------------------------------------------------
def layer_metrics(records: Sequence[dict]) -> dict[str, float]:
    """Span-derived per-layer metrics of one traced invocation."""
    main_only = ("cli",)
    metrics: dict[str, float] = {}

    fast = _spans(records, "kernel.fast.run")
    metrics["kernel.fast.ns_per_row_cycle"] = kernel_costs(fast)[0]
    metrics["kernel.fast.calls"] = len(fast)
    batch = _spans(records, "kernel.batch.run")
    (
        metrics["kernel.batch.ns_per_row_cycle"],
        metrics["kernel.batch.us_per_call_cycle"],
    ) = kernel_costs(batch)
    metrics["kernel.batch.init_s"] = _seconds(
        _spans(records, "kernel.batch.init")
    )
    metrics["fleet.run_s"] = _seconds(_spans(records, "fleet.run"))
    metrics["sketch.summaries_s"] = _seconds(
        _spans(records, "sketch.summaries")
    )
    metrics.update(service_metrics(records))
    metrics["scenarios.plan_s"] = _seconds(
        _spans(records, "scenarios.plan", main_only)
    )
    metrics["scenarios.compile_s"] = _seconds(
        _spans(records, "scenarios.compile", main_only)
    )
    metrics["scenarios.render_s"] = _seconds(
        _spans(records, "scenarios.render", main_only)
    )
    metrics["cache.key_s"] = _seconds(_spans(records, "cache.key"))
    probes = _spans(records, "cache.get_many")
    metrics["cache.get_many_s"] = _seconds(probes)
    keys = sum(span[4]["keys"] for span, _ in probes)
    hits = sum(span[4]["hits"] for span, _ in probes)
    metrics["cache.hit_ratio"] = hits / keys if keys else 0.0
    puts = _spans(records, "cache.put")
    metrics["cache.put_s"] = _seconds(puts)
    metrics["cache.puts"] = len(puts)
    evaluations = _spans(records, "engine.evaluate")
    metrics["engine.evaluate_s"] = _seconds(evaluations)
    metrics["engine.units"] = sum(span[4]["units"] for span, _ in evaluations)
    metrics["pool.map_s"] = _seconds(_spans(records, "pool.map"))
    metrics["startup.import_s"] = records[0]["import_ns"] * NS
    return metrics


def service_metrics(records: Sequence[dict]) -> dict[str, float]:
    """Coordinator telemetry plus worker-side lease timings.

    ``ready_s`` runs from the start of ``run_service`` (which spawns
    the workers) to the last worker's ``ready``; idle time is each
    worker's time from its ``ready`` to the end of the service run not
    spent handling a lease.
    """
    metrics = dict.fromkeys(
        (
            "service.run_s",
            "service.ready_s",
            "service.lease_p50_s",
            "service.worker_idle_frac",
            "service.leases",
            "service.units_per_lease",
            "service.dispatched",
            "service.retries",
            "service.worker.evaluate_s",
        ),
        0.0,
    )
    runs = _spans(records, "service.run", ("cli",))
    if not runs:
        return metrics
    run = runs[0][0]
    telemetry = run[4] or {}
    metrics["service.run_s"] = (run[2] - run[1]) * NS
    leases = telemetry.get("leases_issued", 0)
    metrics["service.leases"] = leases
    metrics["service.dispatched"] = telemetry.get("dispatched", 0)
    metrics["service.retries"] = telemetry.get("leases_retried", 0)
    metrics["service.units_per_lease"] = (
        telemetry.get("dispatched", 0) / leases if leases else 0.0
    )
    busy = 0
    available = 0
    durations = []
    ready_times = []
    for record in records[1:]:
        ready = _spans([record], "service.ready", ("worker",))
        if not ready:
            continue
        ready_at = ready[0][0][1]
        ready_times.append(ready_at)
        available += max(run[2] - ready_at, 0)
        for span, _ in _spans([record], "service.worker.handle", ("worker",)):
            if span[4] and span[4]["type"] == "lease":
                durations.append(span[2] - span[1])
                busy += span[2] - span[1]
    if ready_times:
        metrics["service.ready_s"] = (max(ready_times) - run[1]) * NS
    if durations:
        metrics["service.lease_p50_s"] = statistics.median(durations) * NS
    metrics["service.worker.evaluate_s"] = busy * NS
    if available:
        metrics["service.worker_idle_frac"] = 1.0 - busy / available
    return metrics
