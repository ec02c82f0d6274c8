"""Cache- and fleet-aware sweep planning.

A compiled scenario is a list of independent work units; *how* that
list is cut into leases is a pure wall-clock lever (results merge by
position, and fleet rows are independent), so the service is free to
plan.  This module turns a unit list into an execution plan in two
steps:

1. **Batched cache probe** (:func:`probe_cached`): one bulk
   :meth:`~repro.parallel.cache.ResultCache.keys` call keys the
   positions (one payload encoding per shape) and one
   :meth:`~repro.parallel.cache.ResultCache.get_many` call resolves
   every already-cached position before any dispatch, so warm or
   resumed sweeps never ship cached work to workers.
2. **Fleet-affine lease carving** (:func:`carve_leases`): the
   remaining positions are grouped by
   :func:`~repro.parallel.fleet.pack_key` - batch-kernel units that
   can share one shape-packed super-fleet travel together and run as
   one padded batch call.  A batch call costs about
   ``cycles * (c0 + c1 * rows)`` with a fixed per-cycle part ``c0``
   that dominates small fleets, so each pack group starts as **one
   lease** and is split only while workers would otherwise sit idle
   and the split lowers the estimated makespan
   (:func:`batch_lease_cost`, :func:`makespan`), or when the group
   would be estimated to outlast a quarter of the lease deadline (its
   results only arrive when the call ends).  Exact-kernel and
   analytic units are packed into leases sized by **estimated cost**
   (cycles + warmup per simulation unit, an explicit floor for
   analytic units), about four leases per worker, so a lease of heavy
   100k-cycle units is shorter than a lease of analytic one-liners.

Neither step can change bytes: the probe only substitutes values the
worker would have fetched from the same shared store, and lease
composition only changes which worker computes a position, never the
position's deterministic result (property-tested in
``tests/properties/test_service_merge.py``).
"""

from __future__ import annotations

import heapq
from typing import Any, Sequence

from repro.bus.system import _DEFAULT_WARMUP_FRACTION
from repro.engine.base import EvaluationMethod
from repro.scenarios.compiler import WorkUnit

ANALYTIC_UNIT_COST = 1.0
"""Explicit floor cost of any unit.

Closed-form (non-simulation) units cost exactly this much, and no unit
ever costs less: an all-analytic or mixed ``simulation``+``mva`` sweep
therefore always produces strictly positive lease costs, so cost-target
carving degrades to even count-based splitting instead of degenerating
to one giant lease."""

MAX_LEASE_UNITS = 256
"""Hard cap on positions per lease: one lost worker can never strand
more than this many units."""

BATCH_CALL_CYCLE_US = 35.0
"""``c0``: fixed wall-clock microseconds per lockstep cycle of one
batch-kernel call, whatever its row count.

Fitted with ``benchmarks/run_benchmarks.py``'s ``batch_call_cost``
entries (one figure2 pack group timed at 1 and 27 rows, best of 5,
numpy backend) on a 2-core x86-64 Xeon host under Python 3.11 and
numpy 2.4.  Repeated fits at 1000 and 2000 cycles on that shared host
read 29-50 us (the committed ``BENCH_kernels_quick.json`` holds 49.5).
35 sits at the low end on purpose: best-of timings that read higher
are the ones other load on the host slowed down.  Split decisions
depend only on the ratio ``c0 / c1`` (about 20-40 rows across the
fits); the absolute value only feeds the deadline cap
(:data:`BATCH_LEASE_DEADLINE_SHARE`), which leaves 4x headroom."""

BATCH_ROW_CYCLE_US = 1.0
"""``c1``: marginal microseconds per lockstep cycle per fleet row.

Same fits as :data:`BATCH_CALL_CYCLE_US`: 0.7-2.6 us (committed 1.67),
1.0 picked from the low end for the same reason.  A 27-row call
therefore costs only about 1.8x a 1-row call, which is why the planner
keeps pack groups whole."""

BATCH_LEASE_DEADLINE_SHARE = 0.25
"""Largest share of the coordinator's lease deadline one batch lease
may be estimated to take.

A batch lease returns its results only when its single call ends, so a
lease that outlives the deadline retires its worker and is re-leased
whole until the sweep aborts.  A pack group whose estimated
:func:`batch_lease_cost` exceeds this share is cut into near-equal
pieces that fit; the 4x margin covers the spread of the fitted
constants across hosts and load.  It also bounds the work one crashed
worker loses."""

def simulated_cycles(unit: WorkUnit) -> int:
    """Cycles a simulation unit actually steps: collection plus warmup.

    A ``warmup`` of ``None`` means the kernels' default warmup of
    ``int(cycles * _DEFAULT_WARMUP_FRACTION)`` cycles, which is stepped
    (and paid for) like any other.
    """
    warmup = unit.warmup
    if warmup is None:
        warmup = int(unit.cycles * _DEFAULT_WARMUP_FRACTION)
    return unit.cycles + warmup


def unit_cost(unit: WorkUnit) -> float:
    """Estimated relative cost of evaluating one unit on an exact kernel.

    Simulation units cost their stepped cycle count
    (:func:`simulated_cycles`); exact kernels step one machine at a
    time, so a unit's wall clock grows with its cycles.  Closed-form
    analytic units cost a nominal constant.  Every unit costs at least
    :data:`ANALYTIC_UNIT_COST`, so no unit mix can yield a zero or
    degenerate total.  Batch-kernel pack groups are costed per call by
    :func:`batch_lease_cost` instead.  The estimate only shapes lease
    sizes; being wrong is a performance bug, never a correctness bug.
    """
    if unit.method is EvaluationMethod.SIMULATION:
        return max(float(simulated_cycles(unit)), ANALYTIC_UNIT_COST)
    return ANALYTIC_UNIT_COST


def batch_lease_cost(cycles: int, rows: int) -> float:
    """Estimated microseconds of one batch call of ``rows`` rows.

    Every row of a pack group steps the same ``cycles`` lockstep
    cycles, each costing ``c0 + c1 * rows``
    (:data:`BATCH_CALL_CYCLE_US`, :data:`BATCH_ROW_CYCLE_US`).
    """
    return cycles * (BATCH_CALL_CYCLE_US + BATCH_ROW_CYCLE_US * rows)


def makespan(costs: Sequence[float], workers: int) -> float:
    """Finish time of ``costs`` list-scheduled longest-first on ``workers``."""
    loads = [0.0] * max(1, workers)
    for cost in sorted(costs, reverse=True):
        heapq.heapreplace(loads, loads[0] + cost)
    return max(loads)


def probe_cached(
    units: Sequence[WorkUnit], positions: Sequence[int], cache
) -> dict[int, Any]:
    """Resolve already-cached positions in one batched probe.

    Returns ``{position: metrics_payload}`` for every position of
    ``positions`` whose unit payload hits in ``cache``.  Payload
    validation is the caller's job (a malformed entry must trigger a
    recompute, not a crash).
    """
    keys = dict(
        zip(positions, cache.keys([units[position] for position in positions]))
    )
    found = cache.get_many(keys.values())
    return {
        position: found[key]
        for position, key in keys.items()
        if key in found
    }


def _affine_groups(
    units: Sequence[WorkUnit], positions: Sequence[int]
) -> tuple[list[list[int]], list[int]]:
    """Split positions into super-fleet pack groups and the rest.

    Batch-kernel simulation positions that can share one shape-packed
    super-fleet form one group (they run as a single padded vectorized
    call on the worker, regardless of per-row shape), groups ordered by
    first appearance; every other position is returned in input order.
    Grouping mirrors :func:`repro.scenarios.execute._evaluation_tasks`'
    packed mode, so a lease built from whole groups turns into exactly
    one batch call per group.
    """
    from repro.parallel.fleet import pack_key
    from repro.scenarios.execute import _batchable

    fleets: dict[tuple, list[int]] = {}
    rest: list[int] = []
    for position in positions:
        unit = units[position]
        if _batchable(unit):
            fleets.setdefault(pack_key(unit.case()), []).append(position)
        else:
            rest.append(position)
    return list(fleets.values()), rest


def _split(group: list[int], pieces: int) -> list[list[int]]:
    """Cut ``group`` into ``pieces`` contiguous chunks of near-equal size."""
    size, extra = divmod(len(group), pieces)
    chunks = []
    start = 0
    for piece in range(pieces):
        stop = start + size + (piece < extra)
        chunks.append(group[start:stop])
        start = stop
    return chunks


def _carve_batch_groups(
    units: Sequence[WorkUnit],
    groups: list[list[int]],
    workers: int,
    deadline: float | None,
) -> list[list[int]]:
    """One lease per pack group, split only where idle workers pay off.

    Each group starts as the fewest near-equal leases that hold at most
    :data:`MAX_LEASE_UNITS` rows and, given a ``deadline`` in seconds,
    are estimated to take at most :data:`BATCH_LEASE_DEADLINE_SHARE` of
    it (down to one row per lease).  While there are fewer leases than ``workers``, the group
    whose largest lease costs most gains one more piece; the piece
    counts with the lowest estimated :func:`makespan` win (earliest on
    ties, so a split that does not shorten the sweep never happens).
    Splitting two equal groups over four workers only pays once both
    are split, which is why the search runs to ``workers`` leases
    before choosing instead of stopping at the first non-improving
    split.
    """
    cycles = [simulated_cycles(units[group[0]]) for group in groups]
    pieces = []
    for group, steps in zip(groups, cycles):
        rows = MAX_LEASE_UNITS
        if deadline is not None:
            budget = deadline * BATCH_LEASE_DEADLINE_SHARE * 1e6 / steps
            fit = (budget - BATCH_CALL_CYCLE_US) // BATCH_ROW_CYCLE_US
            rows = min(rows, int(fit))
        pieces.append(-(-len(group) // max(1, rows)))

    def largest(index: int) -> float:
        rows = -(-len(groups[index]) // pieces[index])
        return batch_lease_cost(cycles[index], rows)

    def estimate() -> float:
        return makespan(
            [
                batch_lease_cost(cycles[index], len(chunk))
                for index, group in enumerate(groups)
                for chunk in _split(group, pieces[index])
            ],
            workers,
        )

    best, best_pieces = estimate(), list(pieces)
    while sum(pieces) < workers:
        splittable = [
            index
            for index, group in enumerate(groups)
            if pieces[index] < len(group)
        ]
        if not splittable:
            break
        pieces[max(splittable, key=largest)] += 1
        span = estimate()
        if span < best:
            best, best_pieces = span, list(pieces)
    return [
        chunk
        for group, count in zip(groups, best_pieces)
        for chunk in _split(group, count)
    ]


def _pack(
    units: Sequence[WorkUnit],
    positions: Sequence[int],
    capacity: int,
    cost_target: float | None,
) -> list[list[int]]:
    """Fill leases in order, closing one at ``capacity`` positions or
    (when given) before it would exceed ``cost_target``."""
    leases: list[list[int]] = []
    current: list[int] = []
    current_cost = 0.0
    for position in positions:
        cost = unit_cost(units[position])
        full = len(current) >= capacity or (
            cost_target is not None
            and current
            and current_cost + cost > cost_target
        )
        if full:
            leases.append(current)
            current = []
            current_cost = 0.0
        current.append(position)
        current_cost += cost
    if current:
        leases.append(current)
    return leases


def carve_leases(
    units: Sequence[WorkUnit],
    positions: Sequence[int],
    workers: int,
    lease_size: int | None = None,
    affine: bool = True,
    deadline: float | None = None,
) -> list[list[int]]:
    """Cut ``positions`` into lease position-lists.

    With ``affine=True`` (the default) positions are first grouped by
    pack key so batch units that can share one super-fleet stay
    together; ``affine=False`` keeps the legacy contiguous order and
    cost carving for every unit (the benchmark's control arm).

    An explicit ``lease_size`` packs by **unit count**, exactly like
    the historical contiguous carving - the operator's knob for chaos
    tests and retry granularity.  Otherwise each batch pack group
    becomes one lease, split only while workers would idle and the
    split lowers the estimated makespan, or while a lease would be
    estimated to outlast its share of the lease ``deadline`` (seconds;
    ``None`` means no deadline) (:func:`_carve_batch_groups`), and the
    remaining units are packed by **estimated cost**: the
    target is ``total_cost / (workers * 4)`` (four waves per worker,
    amortizing stragglers).  Every lease is capped at
    :data:`MAX_LEASE_UNITS` positions, and every input position appears
    in exactly one lease.
    """
    positions = list(positions)
    if not positions:
        return []
    workers = max(1, int(workers))
    if affine:
        groups, rest = _affine_groups(units, positions)
    else:
        groups, rest = [], positions
    if lease_size is not None:
        ordered = [position for group in groups for position in group]
        return _pack(units, ordered + rest, max(1, int(lease_size)), None)
    leases = _carve_batch_groups(units, groups, workers, deadline)
    if rest:
        total = sum(unit_cost(units[position]) for position in rest)
        leases += _pack(
            units, rest, MAX_LEASE_UNITS, max(total / (workers * 4), 1.0)
        )
    return leases
