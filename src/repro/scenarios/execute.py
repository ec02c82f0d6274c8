"""Execute compiled work units and render mergeable reports.

:func:`evaluate_unit` is the single module-level (hence pool- and
spawn-safe) dispatcher from a :class:`~repro.scenarios.compiler.WorkUnit`
to its metrics; :func:`run_units` fans uncached units over the
:mod:`repro.parallel` pool map and serves repeats from a
:class:`~repro.parallel.cache.ResultCache` keyed on each unit's
content-addressed payload (which covers the workload spec, so hot-spot
and trace results can never collide with uniform entries).

Report format and sharding
--------------------------
:func:`unit_line` renders one unit result as one self-contained line
starting with ``unit <zero-padded index>``.  A sharded run prints only
its own units' lines; because every line carries the unsharded index,
sorting the concatenation of all shards' lines (:func:`merge_reports`)
reproduces the unsharded report byte-for-byte.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Sequence

from repro.core.errors import ConfigurationError, ExperimentError
from repro.engine.base import EvalResult, EvaluationMethod, LittlesLawLatency
from repro.engine.registry import get_evaluator
from repro.metrics import LatencyReport
from repro.parallel.pool import map_ordered
from repro.scenarios.compiler import WorkUnit, compile_scenario, shard_units
from repro.scenarios.spec import ScenarioSpec


@dataclasses.dataclass(frozen=True)
class UnitResult:
    """The measured metrics of one executed work unit."""

    unit: WorkUnit
    ebw: float
    processor_utilization: float
    bus_utilization: float
    cached: bool = False
    latency: LatencyReport | None = None
    """Wait/service/total latency summaries (latency-metric units only)."""
    littles: LittlesLawLatency | None = None
    """Analytic Little's-law means (``mva`` units with the latency
    metric)."""


def evaluate_unit(unit: WorkUnit) -> dict[str, Any]:
    """Evaluate one work unit (module-level, hence pool-safe).

    Resolves the unit's method in the evaluator registry
    (:mod:`repro.engine.registry`) and returns the evaluation's plain
    JSON-able metrics mapping so the value can be cached verbatim;
    floats round-trip exactly through JSON, so cached and
    freshly-computed runs are byte-identical.  Latency-metric units add
    a ``"latency"`` entry holding the exact (rational-encoded)
    wait/service/total summaries (or, for the ``mva`` method, a
    ``"littles_law"`` entry with the analytic means), which also
    round-trip exactly.
    """
    return get_evaluator(unit.method).evaluate(unit.request()).payload()


def evaluate_fleet(units: Sequence[WorkUnit]) -> list[dict[str, Any]]:
    """Evaluate batch-kernel simulation units as one lockstep fleet.

    The fleet-aggregation fast path of :func:`run_units`: instead of
    one evaluator dispatch per unit, the whole block of units runs
    through a single :func:`repro.parallel.fleet.run_fleet` call.
    Fleet rows are independent, so each unit's payload is byte-identical
    to the payload :func:`evaluate_unit` would produce for it alone
    (property-tested); the aggregation is purely a wall-clock lever.
    """
    from repro.parallel.fleet import run_fleet

    results = run_fleet([unit.case() for unit in units])
    return [
        EvalResult(
            ebw=result.ebw,
            processor_utilization=result.processor_utilization,
            bus_utilization=result.bus_utilization,
            latency=result.latency,
        ).payload()
        for result in results
    ]


def _evaluate_task(task) -> list[dict[str, Any]]:
    """Pool task: one single unit or one batch fleet (module-level).

    Returns a list of payloads aligned with the task's units, so single
    units and fleets flow through one :func:`map_ordered` call.
    """
    kind, payload = task
    if kind == "unit":
        return [evaluate_unit(payload)]
    return evaluate_fleet(payload)


def _batchable(unit: WorkUnit) -> bool:
    """Whether a unit can join a lockstep fleet.

    Latency-metric units qualify: the batch kernel collects wait/total
    distributions through per-row quantile sketches, and the fleet key
    (:func:`repro.parallel.fleet.fleet_key`) separates latency fleets
    from plain ones.
    """
    return (
        unit.method is EvaluationMethod.SIMULATION
        and unit.kernel == "batch"
    )


def _evaluation_tasks(
    units: Sequence[WorkUnit],
) -> tuple[list[tuple], list[list[int]]]:
    """Group units into pool tasks, fleets first-appearance ordered.

    Batch-kernel simulation units sharing a
    :func:`repro.parallel.fleet.pack_key` travel as one
    ``("fleet", (...units...))`` task, so shape-heterogeneous sweeps
    land in one padded super-fleet per batch call; everything else
    stays a ``("unit", unit)`` task.  Returns the tasks plus, aligned
    with them, each task's member positions in ``units``.  The grouping
    is a deterministic function of the unit list, and - because fleet
    rows are independent - it can never change any unit's bytes.
    """
    from repro.parallel.fleet import pack_key

    fleets: dict[tuple, list[int]] = {}
    order: list[tuple[str, Any]] = []
    for position, unit in enumerate(units):
        if _batchable(unit):
            key = pack_key(unit.case())
            if key not in fleets:
                fleets[key] = []
                order.append(("fleet", key))
            fleets[key].append(position)
        else:
            order.append(("unit", position))
    tasks: list[tuple] = []
    groups: list[list[int]] = []
    for kind, content in order:
        if kind == "unit":
            tasks.append(("unit", units[content]))
            groups.append([content])
        else:
            members = fleets[content]
            tasks.append(("fleet", tuple(units[i] for i in members)))
            groups.append(members)
    return tasks, groups


def _expectations(unit: WorkUnit) -> tuple[bool, bool]:
    """Which latency payload flavours this unit's metrics must carry."""
    if not unit.collects_latency:
        return False, False
    if unit.method is EvaluationMethod.SIMULATION:
        return True, False
    return False, True


def result_from_metrics(
    unit: WorkUnit, metrics: Any, cached: bool
) -> UnitResult:
    expect_latency, expect_littles = _expectations(unit)
    try:
        # A cached entry without the latency payload (or with a stale
        # format) is malformed for this unit and triggers a recompute,
        # exactly like a missing ebw would.
        value = EvalResult.from_payload(
            metrics,
            expect_latency=expect_latency,
            expect_littles=expect_littles,
        )
        return UnitResult(
            unit=unit,
            ebw=value.ebw,
            processor_utilization=value.processor_utilization,
            bus_utilization=value.bus_utilization,
            cached=cached,
            latency=value.latency,
            littles=value.littles,
        )
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise ExperimentError(
            f"malformed metrics payload for unit {unit.index}: {exc!r}"
        ) from exc


def run_units(
    units: Sequence[WorkUnit],
    jobs: int | None = 1,
    cache=None,
) -> list[UnitResult]:
    """Execute ``units`` in order, via pool and cache when available.

    The returned list preserves input order, and its values are
    independent of ``jobs`` and cache state - these levers change
    wall-clock time, never bytes.  Units whose content-addressed
    payloads coincide (e.g. analytic-method replications, whose keys
    ignore the seed) are computed once and fanned out.  Batch-kernel
    units run as shape-packed super-fleets.
    """
    from repro.parallel.cache import unit_keys

    units = list(units)
    keys = unit_keys(units) if cache is None else cache.keys(units)
    results: dict[int, UnitResult] = {}
    if cache is not None:
        # One batched probe resolves every cached unit up front
        # (repeated keys are probed once), so a warm sweep never reaches
        # the pool at all.
        cached_values = cache.get_many(keys)
        for position, unit in enumerate(units):
            value = cached_values.get(keys[position])
            if value is not None:
                try:
                    results[position] = result_from_metrics(unit, value, True)
                except ExperimentError:
                    # Malformed entry: recompute below.
                    results.pop(position, None)
    pending = [
        position for position in range(len(units)) if position not in results
    ]
    if pending:
        representatives: list[int] = []
        seen: set[str] = set()
        for position in pending:
            if keys[position] not in seen:
                seen.add(keys[position])
                representatives.append(position)
        # Batch-kernel units aggregate into lockstep fleets (one
        # vectorized call per fleet) while everything else dispatches
        # per unit; both travel through the same ordered pool map.
        tasks, groups = _evaluation_tasks(
            [units[position] for position in representatives]
        )
        computed_lists = map_ordered(_evaluate_task, tasks, max_workers=jobs)
        metrics_by_key: dict[str, Any] = {}
        for members, payloads in zip(groups, computed_lists):
            for member, metrics in zip(members, payloads):
                metrics_by_key[keys[representatives[member]]] = metrics
        for position in pending:
            results[position] = result_from_metrics(
                units[position], metrics_by_key[keys[position]], False
            )
        if cache is not None:
            for position in representatives:
                try:
                    cache.put(keys[position], metrics_by_key[keys[position]])
                except (OSError, ConfigurationError):
                    # A full disk must not block the science run.
                    pass
    return [results[position] for position in range(len(units))]


def run_scenario(
    spec: ScenarioSpec,
    shard: tuple[int, int] | None = None,
    jobs: int | None = 1,
    cache=None,
    kernel: str = "reference",
    backend: str = "numpy",
) -> list[UnitResult]:
    """Compile ``spec``, optionally take one shard, and execute it.

    ``kernel`` selects the simulation loop: ``"reference"`` and
    ``"fast"`` are bit-identical, so that choice changes wall-clock
    only - exactly like ``jobs`` and ``cache``.  ``"batch"`` runs
    lockstep fleets whose bytes are reproducible in themselves (across
    shards, jobs and grouping) but deliberately different from the
    exact kernels' - never mix batch and exact shards of one sweep.
    ``backend`` selects the batch kernel's array substrate
    (:mod:`repro.bus.backends`); the numpy/numba pair is bit-identical,
    so that choice too changes wall-clock only.
    """
    units = compile_scenario(spec, kernel=kernel, backend=backend)
    if shard is not None:
        shard_index, shard_count = shard
        units = shard_units(units, shard_index, shard_count)
    return run_units(units, jobs=jobs, cache=cache)


# ----------------------------------------------------------------------
# Report rendering.
# ----------------------------------------------------------------------
def _describe_config(unit: WorkUnit) -> str:
    config = unit.config
    buffering = (
        f"buffered(depth={config.buffer_depth})"
        if config.buffered
        else "unbuffered"
    )
    return (
        f"n={config.processors} m={config.memories} "
        f"r={config.memory_cycle_ratio} p={config.request_probability:g} "
        f"priority={config.priority} {buffering} tie={config.tie_break}"
    )


def _summary_columns(prefix: str, summary) -> str:
    """Fixed-format percentile columns for one latency population."""
    return (
        f"{prefix}_mean={summary.mean:.6f} "
        f"{prefix}_p50={summary.p50_value:.6f} "
        f"{prefix}_p90={summary.p90_value:.6f} "
        f"{prefix}_p99={summary.p99_value:.6f} "
        f"{prefix}_max={summary.max_value:.6f}"
    )


def unit_line(result: UnitResult) -> str:
    """One deterministic, self-contained report line for one unit.

    The leading ``unit <index:06d>`` token gives the line its global
    position, which is the whole sharding contract: shard outputs sorted
    on that token equal the unsharded output.  Latency-metric units
    append the percentile columns (``lat_count`` plus
    mean/p50/p90/p99/max for each of wait/service/total); units without
    metrics render the exact pre-metrics bytes.
    """
    unit = result.unit
    workload = unit.workload.describe() if unit.workload is not None else "uniform"
    line = (
        f"unit {unit.index:06d} {_describe_config(unit)} "
        f"workload={workload} method={unit.method} seed={unit.seed} "
        f"cycles={unit.cycles} ebw={result.ebw:.6f} "
        f"putil={result.processor_utilization:.6f} "
        f"butil={result.bus_utilization:.6f}"
    )
    if result.latency is not None:
        report = result.latency
        line += (
            f" lat_count={report.total.count} "
            f"{_summary_columns('wait', report.wait)} "
            f"{_summary_columns('serv', report.service)} "
            f"{_summary_columns('lat', report.total)}"
        )
    if result.littles is not None:
        littles = result.littles
        line += (
            f" wait_mean={littles.wait_mean:.6f} "
            f"total_mean={littles.total_mean:.6f} "
            f"qlen_bus={littles.queue_bus:.6f} "
            f"qlen_mem={littles.queue_memory:.6f}"
        )
    return line


def render_report(results: Iterable[UnitResult]) -> str:
    """The unit lines of ``results``, one per line, in input order."""
    return "\n".join(unit_line(result) for result in results)


def _line_index(line: str) -> int:
    parts = line.split()
    if len(parts) < 2 or parts[0] != "unit":
        raise ConfigurationError(f"not a scenario unit line: {line!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise ConfigurationError(
            f"not a scenario unit line: {line!r}"
        ) from None


def merge_reports(reports: Iterable[str]) -> str:
    """Merge shard reports into the canonical unsharded report.

    Accepts each shard's stdout (possibly empty), validates that unit
    indices neither collide nor leave holes
    (:func:`~repro.scenarios.compiler.merge_by_index`), and returns the
    lines sorted by unit index - byte-identical to the unsharded run.
    """
    from repro.scenarios.compiler import merge_by_index

    entries = (
        (_line_index(line), line)
        for report in reports
        for line in report.splitlines()
        if line.strip()
    )
    return "\n".join(merge_by_index(entries, "report line"))
