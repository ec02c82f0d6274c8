#!/usr/bin/env python
"""Record kernel and figure timings in a stable JSON schema.

The benchmark trajectory file (``BENCH_kernels.json``) gives future PRs
a perf baseline: CI runs this script on every build and uploads the JSON
as an artifact, so a hot-path regression shows up as a ratio change
between two artifacts rather than an anecdote.

Usage::

    python benchmarks/run_benchmarks.py --json BENCH_kernels.json
    python benchmarks/run_benchmarks.py --json out.json --quick
    python benchmarks/run_benchmarks.py --json out.json --compare BENCH_kernels.json

Schema (``repro-bench-kernels@4``)::

    {
      "schema": "repro-bench-kernels@4",
      "python": "3.12.x ...",
      "parameters": {"cycles": ..., "repeat": ..., "warmup": ...,
                     "figure_cycles": ...},
      "results": [{"name": ..., "seconds": ..., "mean": ...,
                   "meta": {...}}, ...],
      "speedups": {"<pair>": <reference seconds / fast seconds>, ...}
    }

``results`` names are stable identifiers; every benchmark runs
``--warmup`` untimed iterations first (cache/allocator/JIT effects land
there, not in the measurement), then ``--repeat`` timed ones.
``seconds`` is the minimum timed run (the low-noise signal the compare
gate reads) and ``mean`` the average (the dispersion hint: a mean far
above the min means a noisy host).  Timings are machine-dependent; the
*speedups* are the portable signal.  Batch-kernel fleet entries carry
the array backend in their ``meta`` (``"backend"``), and when the
optional numba backends are importable the fleet block grows
``batch_fleet_batch_<backend>`` entries timing the identical fleet on
that substrate.

``--compare OLD.json`` prints a per-benchmark speedup/regression table
against a previously written report and exits with status 4 when any
same-parameter benchmark slowed down - or any speedup ratio dropped -
by more than the ``--threshold`` fraction (default 0.25, i.e. 25%).
Reports with different parameters (e.g. a
``--quick`` run against the full baseline) compare *nothing* - every
row prints "skipped (parameters differ)", because neither raw seconds
nor the fleet speedup ratios are comparable across run sizes.  Compare
like with like: quick runs against the committed quick baseline
(``BENCH_kernels_quick.json``, which is what CI does), full runs
against ``BENCH_kernels.json``.  ``--compare-only`` skips benchmarking
and compares an already-written ``--json`` report.

The ``batch_fleet_*`` entries time one figure2-shaped replication fleet
(the (16, 16) r = 8 grid point under many seeds) through all three
kernels; the ``buffered_fleet_*`` entries time the same fleet over the
buffered machine (fast vs batch, plus a latency-collecting batch leg
exercising the quantile sketch).  The batch entries require the
optional numpy extra and are skipped (with a warning) when it is
missing.

The ``sweep_*`` entries time the distributed sweep service itself:
``sweep_workers_{1,2,4,8}`` run figure2 end-to-end over real
subprocess workers (the scaling curve), ``sweep_cache_{cold,warm}``
run the same sweep twice against one result store (the ``warm``
leg is served entirely from the coordinator's pre-lease probe -
the ``warm_cache_collapse`` speedup), and
``sweep_plan_{affine,contiguous}`` drive a fragmented
interleaved-shape batch grid through loopback workers under both
planner modes (the ``affine_vs_contiguous`` speedup: fleet-affine
leases keep batchable rows in one lockstep call).

The ``packed_sweep_*`` entries (schema @4) time fleet packing itself:
a figure2-shaped shape-fragmented grid - every (n, m) system crossed
with several access ratios, 30 replications per point - executed as
one shape-packed super-fleet call (``packed_sweep_packed``) versus one
homogeneous fleet per shape (``packed_sweep_fragmented``); the
``packed_vs_fragmented`` speedup is the packing contract's wall-clock
claim.  When optional backends are importable the block grows
``packed_sweep_packed_<backend>`` entries timing the identical packed
super-fleet on that substrate.

The ``warm_probe_{keys,get_many}`` entries time the in-process half of
a warm re-run of Tables 3(a) and 4: the 112 published cells x 80
replications (8960 batch units, 100 cycles) keyed in bulk
(:meth:`~repro.parallel.cache.ResultCache.keys`) and read back with one
:meth:`~repro.parallel.cache.ResultCache.get_many` from a store filled
beforehand in a temp directory.

The ``batch_call_cost_{c0,c1}`` entries fit the sweep planner's batch
cost model (:func:`repro.scenarios.plan.batch_lease_cost`): one figure2
pack group is timed at 1 and 27 rows, and the fixed per-cycle cost
``c0`` and the per-row per-cycle cost ``c1`` are recorded as
``seconds`` per million lockstep cycles - numerically microseconds per
cycle, the unit of the planner's constants, which ride along in
``meta["planner_us"]``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable

from repro.bus import simulate
from repro.core.config import SystemConfig
from repro.core.policy import Priority
from repro.workloads.spec import HotSpotWorkload

SCHEMA = "repro-bench-kernels@4"


def best_of(
    repeat: int, func: Callable[[], object], warmup: int = 0
) -> tuple[float, float]:
    """``(min, mean)`` wall-clock seconds over ``repeat`` timed runs.

    ``warmup`` untimed invocations run first, so one-off costs (page
    faults, allocator growth, JIT compilation on the numba backend)
    land outside the measurement window.  The minimum is the low-noise
    statistic the regression gate compares; the mean travels alongside
    as a dispersion hint.
    """
    for _ in range(warmup):
        func()
    timings = []
    for _ in range(repeat):
        started = time.perf_counter()
        func()
        timings.append(time.perf_counter() - started)
    return min(timings), sum(timings) / len(timings)


def _entry(name: str, timing: tuple[float, float], meta: dict) -> dict:
    """One schema-@3 result entry from a :func:`best_of` measurement."""
    seconds, mean = timing
    return {"name": name, "seconds": seconds, "mean": mean, "meta": meta}


def kernel_pairs():
    """The benchmarked (name, config, workload) kernel comparisons."""
    uniform = SystemConfig(8, 16, 8, priority=Priority.PROCESSORS)
    yield "unbuffered_8x16_r8", uniform, None
    yield "buffered_8x16_r8", uniform.with_buffers(), None
    yield (
        "hot_spot_8x16_r8",
        uniform,
        HotSpotWorkload(hot_fraction=0.3),
    )
    yield (
        "partial_load_8x16_r8_p05",
        SystemConfig(8, 16, 8, request_probability=0.5,
                     priority=Priority.PROCESSORS),
        None,
    )


def time_simulation(
    config, workload, cycles: int, kernel: str
) -> Callable[[], object]:
    from repro.parallel.workers import SimulationCase, run_case

    def run():
        return run_case(
            SimulationCase(config, cycles, seed=1, workload=workload,
                           kernel=kernel)
        )

    return run


FLEET_CONFIG = SystemConfig(16, 16, 8, priority=Priority.PROCESSORS)
"""The figure2 (n, m) = (16, 16), r = 8 grid point the fleet benchmark
replicates under many seeds."""


def time_fleet(
    kernel: str,
    rows: int,
    cycles: int,
    config: SystemConfig = FLEET_CONFIG,
    collect_latency: bool = False,
    backend: str = "numpy",
) -> Callable[[], object]:
    """One whole replication fleet under ``kernel`` (and ``backend``).

    The batch kernel runs the fleet as a single lockstep call
    (:func:`repro.parallel.fleet.run_fleet`) on the selected array
    backend; the exact kernels run the same cases one by one - which is
    precisely the comparison the fleet-aggregation layer exists to win.
    """
    from repro.parallel.workers import SimulationCase, run_case

    cases = [
        SimulationCase(
            config, cycles, seed, kernel=kernel,
            collect_latency=collect_latency, backend=backend,
        )
        for seed in range(rows)
    ]

    if kernel == "batch":
        from repro.parallel.fleet import run_fleet

        def run():
            return run_fleet(cases)

    else:

        def run():
            return [run_case(case) for case in cases]

    return run


def compare_reports(old: dict, new: dict, threshold: float = 0.25):
    """Per-benchmark comparison of two report payloads.

    Returns ``(lines, regressions)``: a printable table and the names
    that regressed - a same-parameter benchmark more than ``threshold``
    slower, or a speedup ratio more than ``threshold`` lower.  Entries
    whose ``meta`` parameters differ are skipped (their seconds are not
    comparable), and when the two reports' global ``parameters`` blocks
    differ the speedup section is skipped too: ratios like the fleet
    speedups depend on fleet size, so a ``--quick`` run compared
    against a full baseline must warn about nothing rather than flag
    phantom regressions.
    """
    lines = [
        f"{'benchmark':<42} {'old':>9} {'new':>9} {'ratio':>7}  status"
    ]
    regressions: list[str] = []
    old_results = {entry["name"]: entry for entry in old.get("results", ())}
    for entry in new.get("results", ()):
        name = entry["name"]
        previous = old_results.get(name)
        if previous is None:
            lines.append(f"{name:<42} {'-':>9} {entry['seconds']:>9.3f} {'-':>7}  new")
            continue
        if previous.get("meta") != entry.get("meta"):
            lines.append(
                f"{name:<42} {previous['seconds']:>9.3f} "
                f"{entry['seconds']:>9.3f} {'-':>7}  skipped (parameters differ)"
            )
            continue
        ratio = entry["seconds"] / previous["seconds"]
        if ratio > 1.0 + threshold:
            status = "REGRESSION"
            regressions.append(name)
        elif ratio < 1.0 - threshold:
            status = "improved"
        else:
            status = "ok"
        lines.append(
            f"{name:<42} {previous['seconds']:>9.3f} "
            f"{entry['seconds']:>9.3f} {ratio:>6.2f}x  {status}"
        )
    # Benchmarks the baseline had but this run lost (e.g. batch entries
    # skipped because numpy went missing) are regressions too: a
    # vanished benchmark could otherwise mask a real slowdown forever.
    new_names = {entry["name"] for entry in new.get("results", ())}
    for name in old_results:
        if name not in new_names:
            lines.append(
                f"{name:<42} {old_results[name]['seconds']:>9.3f} "
                f"{'-':>9} {'-':>7}  MISSING from new report"
            )
            regressions.append(name)
    old_speedups = old.get("speedups", {})
    parameters_match = old.get("parameters") == new.get("parameters")
    for key, value in sorted(new.get("speedups", {}).items()):
        previous = old_speedups.get(key)
        name = f"speedup:{key}"
        if previous is None or previous <= 0:
            lines.append(f"{name:<42} {'-':>9} {value:>8.2f}x {'-':>7}  new")
            continue
        if not parameters_match:
            lines.append(
                f"{name:<42} {previous:>8.2f}x {value:>8.2f}x {'-':>7}  "
                "skipped (parameters differ)"
            )
            continue
        ratio = value / previous
        if ratio < 1.0 - threshold:
            status = "REGRESSION"
            regressions.append(name)
        elif ratio > 1.0 + threshold:
            status = "improved"
        else:
            status = "ok"
        lines.append(
            f"{name:<42} {previous:>8.2f}x {value:>8.2f}x "
            f"{ratio:>6.2f}x  {status}"
        )
    return lines, regressions


def time_sweep_service(workers: int, cycles: int) -> Callable[[], object]:
    """Figure2 end-to-end through the sweep service over ``workers``
    real subprocess workers, cache disabled (pure scheduling signal)."""
    import dataclasses

    from repro.scenarios.registry import get_scenario
    from repro.service.coordinator import run_service

    spec = dataclasses.replace(get_scenario("figure2"), cycles=cycles)

    def run():
        return run_service(
            spec, workers=workers, kernel="fast", cache_enabled=False
        )

    return run


def time_cached_sweep(store: str, cycles: int) -> Callable[[], object]:
    """The same figure2 sweep against one shared result store: the
    first call populates it, every later call is resolved entirely by
    the coordinator's pre-lease probe."""
    import dataclasses

    from repro.scenarios.registry import get_scenario
    from repro.service.coordinator import run_service

    spec = dataclasses.replace(get_scenario("figure2"), cycles=cycles)

    def run():
        return run_service(
            spec,
            workers=2,
            kernel="fast",
            cache_enabled=True,
            cache_dir=store,
        )

    return run


def warm_probe_units(cycles: int, replications: int) -> tuple:
    """The 112 published cells of Tables 3(a) and 4 (n = 8, priority to
    processors, p = 1), each replicated, as batch-kernel work units."""
    from repro.experiments import paper_data
    from repro.scenarios.compiler import compile_scenario
    from repro.scenarios.spec import spec_from_mapping

    cells = [[False, m, r] for m, r in sorted(paper_data.TABLE3A_SIMULATION)]
    cells += [
        [True, m, r] for m, r in sorted(paper_data.TABLE4_BUFFERED_SIMULATION)
    ]
    spec = spec_from_mapping(
        {
            "name": "paper-cells",
            "cycles": cycles,
            "warmup": cycles // 4,
            "base": {"processors": 8, "priority": "processors"},
            "grid": [
                {
                    "fields": ["buffered", "memories", "memory_cycle_ratio"],
                    "values": cells,
                }
            ],
            "replications": {"count": replications, "base_seed": 1985},
        }
    )
    return compile_scenario(spec, kernel="batch")


def time_planned_sweep(
    plan_mode: str, replications: int, cycles: int
) -> Callable[[], object]:
    """A fragmented batch grid through loopback workers under one
    planner mode.

    The grid interleaves fleet shapes (the ``buffered`` axis varies
    fastest), so contiguous leases split every batchable group across
    lease boundaries while affine leases reunite them into single
    lockstep batch calls - the wall-clock difference is the planner's
    whole value proposition.
    """
    from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec
    from repro.service.coordinator import Coordinator
    from repro.service.transports import LoopbackTransport

    spec = ScenarioSpec(
        name="bench-fragmented-grid",
        base={"processors": 16, "memories": 16, "memory_cycle_ratio": 8},
        grid=(
            GridAxis("request_probability", (0.25, 0.5, 0.75, 1.0)),
            GridAxis("buffered", (False, True)),
        ),
        cycles=cycles,
        plan=ReplicationPlan(replications=replications, base_seed=7),
        description="interleaved fleet shapes for planner benchmarks",
    )

    def run():
        coordinator = Coordinator(
            spec,
            [LoopbackTransport(f"w{index}") for index in range(2)],
            kernel="batch",
            plan_mode=plan_mode,
            cache_enabled=False,
        )
        return coordinator.run()

    return run


PACKED_GRID_SYSTEMS = ((4, 4), (8, 8), (16, 16))
"""The figure2 (n, m) systems of the shape-fragmented packing grid."""

PACKED_GRID_RATIOS = (2, 4, 8, 16, 24)
"""Access ratios crossed with the systems: 15 distinct fleet shapes."""


def time_packed_sweep(
    pack: bool, replications: int, cycles: int, backend: str = "numpy"
) -> Callable[[], object]:
    """The figure2-shaped fragmented grid as one grouping or the other.

    Every (n, m) system crossed with every access ratio, ``replications``
    seeds per point: 15 distinct shapes that share the pack fields.
    ``pack=True`` runs the whole grid as one padded super-fleet batch
    call; ``pack=False`` runs each homogeneous :func:`group_fleets`
    group alone through :func:`run_fleet`, one lockstep fleet per shape.
    Identical bytes either way (the packing contract) - the timing gap
    is the per-call overhead packing exists to amortize.
    """
    from repro.parallel.fleet import group_fleets, run_fleet
    from repro.parallel.workers import SimulationCase

    cases = [
        SimulationCase(
            SystemConfig(n, m, ratio, priority=Priority.PROCESSORS),
            cycles,
            seed,
            kernel="batch",
            backend=backend,
        )
        for n, m in PACKED_GRID_SYSTEMS
        for ratio in PACKED_GRID_RATIOS
        for seed in range(replications)
    ]

    groups = [cases] if pack else [
        [cases[position] for position in group]
        for group in group_fleets(cases)
    ]

    def run():
        return [run_fleet(group) for group in groups]

    return run


def time_batch_call(rows: int, cycles: int) -> Callable[[], object]:
    """One batch call over the first ``rows`` rows of a figure2 pack group.

    figure2 at ``--kernel batch`` packs into two 27-row super-fleets
    (one per priority rule) of mixed ``n = m`` shapes; the planner
    costs such a call as ``cycles * (c0 + c1 * rows)``.
    """
    import dataclasses

    from repro.parallel.fleet import pack_fleets, run_fleet
    from repro.scenarios.compiler import compile_scenario
    from repro.scenarios.registry import get_scenario

    spec = dataclasses.replace(get_scenario("figure2"), cycles=cycles)
    cases = [
        unit.case() for unit in compile_scenario(spec, kernel="batch")
    ]
    group = [cases[position] for position in pack_fleets(cases)[0]]
    fleet = group[:rows]

    def run():
        return run_fleet(fleet)

    return run


def time_figure2(cycles: int, kernel: str) -> Callable[[], object]:
    import dataclasses

    from repro.scenarios.execute import run_scenario
    from repro.scenarios.registry import get_scenario

    spec = dataclasses.replace(get_scenario("figure2"), cycles=cycles)

    def run():
        return run_scenario(spec, kernel=kernel)

    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the simulation kernels and the figure2 scenario, "
        "writing a stable-schema JSON perf baseline."
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default="BENCH_kernels.json",
        help="output file (default BENCH_kernels.json)",
    )
    parser.add_argument(
        "--cycles",
        type=int,
        default=100_000,
        metavar="N",
        help="simulated cycles per kernel benchmark (default 100000)",
    )
    parser.add_argument(
        "--figure-cycles",
        type=int,
        default=4_000,
        metavar="N",
        help="cycles per figure2 scenario unit (default 4000)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        metavar="K",
        help="timed runs per benchmark; min and mean are recorded "
        "(default 3)",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=1,
        metavar="K",
        help="untimed warm-up runs before the timed repeats (default 1; "
        "the expensive reference fleet leg always skips warm-up, and "
        "JIT-backend legs always take at least one)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: fewer cycles, single repetition",
    )
    parser.add_argument(
        "--compare",
        metavar="OLD.json",
        help="after running, print a speedup/regression table against a "
        "previous report and exit 4 on a regression beyond --threshold",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        metavar="FRACTION",
        help="regression tolerance for --compare as a fraction "
        "(default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--compare-only",
        action="store_true",
        help="with --compare: skip benchmarking and compare the existing "
        "--json report against OLD.json (e.g. a CI compare step reusing "
        "the timings the benchmark step just wrote)",
    )
    args = parser.parse_args(argv)
    if args.compare_only:
        if not args.compare:
            parser.error("--compare-only requires --compare OLD.json")
        with open(args.json, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        return _compare_and_report(args.compare, payload, args.threshold)
    if args.warmup < 0:
        parser.error("--warmup must be >= 0")
    cycles = 20_000 if args.quick else args.cycles
    figure_cycles = 1_500 if args.quick else args.figure_cycles
    repeat = 1 if args.quick else args.repeat
    warmup = args.warmup
    fleet_rows = 64 if args.quick else 512
    fleet_cycles = 800 if args.quick else 2_400

    results = []
    speedups = {}
    for name, config, workload in kernel_pairs():
        pair = {}
        for kernel in ("reference", "fast"):
            timing = best_of(
                repeat, time_simulation(config, workload, cycles, kernel),
                warmup=warmup,
            )
            pair[kernel] = timing[0]
            results.append(
                _entry(
                    f"kernel_{kernel}_{name}",
                    timing,
                    {
                        "cycles": cycles,
                        "kernel": kernel,
                        "config": config.describe(),
                        "workload": workload.describe() if workload else "uniform",
                    },
                )
            )
        speedups[name] = pair["reference"] / pair["fast"]
        print(
            f"{name}: reference {pair['reference']:.3f}s, "
            f"fast {pair['fast']:.3f}s, speedup {speedups[name]:.2f}x",
            file=sys.stderr,
        )
    for kernel in ("reference", "fast"):
        timing = best_of(
            1, time_figure2(figure_cycles, kernel), warmup=warmup
        )
        results.append(
            _entry(
                f"scenario_figure2_{kernel}",
                timing,
                {"cycles": figure_cycles, "kernel": kernel},
            )
        )
        print(f"scenario_figure2_{kernel}: {timing[0]:.3f}s", file=sys.stderr)
    reference, fast = results[-2]["seconds"], results[-1]["seconds"]
    speedups["scenario_figure2"] = reference / fast

    # Fleet benchmark: the same figure2-shaped replication block through
    # every kernel; the batch entries need the optional numpy extra.
    from repro.bus.batch import numpy_available

    fleet_kernels = ["reference", "fast"]
    if numpy_available():
        fleet_kernels.append("batch")
    else:
        print(
            "warning: numpy unavailable - skipping batch_fleet_batch "
            "(install the [batch] extra)",
            file=sys.stderr,
        )
    if "batch" in fleet_kernels:
        # Untimed warm-up: the first batch call pays one-off numpy
        # bit-generator/allocator setup that would otherwise pollute
        # the timed leg.
        time_fleet("batch", 8, 200)()
    fleet_seconds = {}
    for kernel in fleet_kernels:
        # The reference leg takes ~30 s per run, too long to repeat
        # (and to warm up); the cheap legs get best-of-2 to shave
        # scheduler noise.  Meta records each leg's repeat so
        # --compare only matches like runs.
        fleet_repeat = 1 if kernel == "reference" else 2
        meta = {
            "rows": fleet_rows,
            "cycles": fleet_cycles,
            "kernel": kernel,
            "config": FLEET_CONFIG.describe(),
            "repeat": fleet_repeat,
        }
        if kernel == "batch":
            meta["backend"] = "numpy"
        timing = best_of(
            fleet_repeat, time_fleet(kernel, fleet_rows, fleet_cycles),
            warmup=0 if kernel == "reference" else warmup,
        )
        fleet_seconds[kernel] = timing[0]
        results.append(_entry(f"batch_fleet_{kernel}", timing, meta))
        print(f"batch_fleet_{kernel}: {timing[0]:.3f}s", file=sys.stderr)
    if "batch" in fleet_seconds:
        speedups["batch_fleet_vs_fast"] = (
            fleet_seconds["fast"] / fleet_seconds["batch"]
        )
        speedups["batch_fleet_vs_reference"] = (
            fleet_seconds["reference"] / fleet_seconds["batch"]
        )
        print(
            f"batch fleet speedup: {speedups['batch_fleet_vs_fast']:.2f}x "
            f"over fast, {speedups['batch_fleet_vs_reference']:.2f}x over "
            "reference",
            file=sys.stderr,
        )

    # Per-backend fleet legs: the identical batch fleet on every
    # optional array substrate importable here.  A missing backend is
    # skipped with a warning naming its extra - never silently retimed
    # on numpy - so the baseline only ever contains entries this host
    # actually produced.
    if "batch" in fleet_seconds:
        from repro.bus.backends import get_backend

        for backend_name in ("numba", "numba-parallel"):
            backend = get_backend(backend_name)
            if not backend.available():
                print(
                    f"warning: {backend_name} unavailable - skipping "
                    f"batch_fleet_batch_{backend_name} (install the "
                    f"[{backend.extra}] extra)",
                    file=sys.stderr,
                )
                continue
            # At least one warm-up run: the numba leg's first call pays
            # the JIT compile, which must stay outside the measurement.
            timing = best_of(
                2,
                time_fleet(
                    "batch", fleet_rows, fleet_cycles, backend=backend_name
                ),
                warmup=max(warmup, 1),
            )
            results.append(
                _entry(
                    f"batch_fleet_batch_{backend_name}",
                    timing,
                    {
                        "rows": fleet_rows,
                        "cycles": fleet_cycles,
                        "kernel": "batch",
                        "backend": backend_name,
                        "config": FLEET_CONFIG.describe(),
                        "repeat": 2,
                    },
                )
            )
            key = f"{backend_name}_fleet_vs_numpy"
            speedups[key] = fleet_seconds["batch"] / timing[0]
            print(
                f"batch_fleet_batch_{backend_name}: {timing[0]:.3f}s "
                f"({speedups[key]:.2f}x over the numpy backend)",
                file=sys.stderr,
            )

    # Buffered fleet: the same replication block over the buffered
    # machine - the circular-queue hot path the batch kernel vectorizes.
    # The reference leg is omitted (minutes per run at full size); the
    # fast kernel is the meaningful baseline.  The latency leg times the
    # per-row quantile sketch on top of the plain batch run.
    buffered_config = FLEET_CONFIG.with_buffers()
    if "batch" in fleet_kernels:
        buffered_legs = [("fast", False), ("batch", False), ("batch", True)]
    else:
        buffered_legs = [("fast", False)]
    buffered_seconds = {}
    for kernel, latency in buffered_legs:
        leg = f"{kernel}_latency" if latency else kernel
        meta = {
            "rows": fleet_rows,
            "cycles": fleet_cycles,
            "kernel": kernel,
            "collect_latency": latency,
            "config": buffered_config.describe(),
            "repeat": 2,
        }
        if kernel == "batch":
            meta["backend"] = "numpy"
        timing = best_of(
            2,
            time_fleet(
                kernel, fleet_rows, fleet_cycles,
                config=buffered_config, collect_latency=latency,
            ),
            warmup=warmup,
        )
        buffered_seconds[leg] = timing[0]
        results.append(_entry(f"buffered_fleet_{leg}", timing, meta))
        print(f"buffered_fleet_{leg}: {timing[0]:.3f}s", file=sys.stderr)
    if "batch" in buffered_seconds:
        speedups["buffered_fleet_vs_fast"] = (
            buffered_seconds["fast"] / buffered_seconds["batch"]
        )
        speedups["buffered_fleet_latency_vs_fast"] = (
            buffered_seconds["fast"] / buffered_seconds["batch_latency"]
        )
        print(
            "buffered fleet speedup: "
            f"{speedups['buffered_fleet_vs_fast']:.2f}x over fast "
            f"({speedups['buffered_fleet_latency_vs_fast']:.2f}x with "
            "latency sketches)",
            file=sys.stderr,
        )

    # Sweep-service legs: worker scaling, the warm-cache collapse, and
    # the planner's affine-vs-contiguous lease composition.
    # Full-size sweeps carry enough per-unit work for the scaling
    # curve to reflect scheduling rather than subprocess startup; the
    # quick legs only guard that the service path keeps working.
    sweep_cycles = 400 if args.quick else 20_000
    sweep_seconds = {}
    for workers in (1, 2, 4, 8):
        timing = best_of(
            1, time_sweep_service(workers, sweep_cycles), warmup=0
        )
        sweep_seconds[workers] = timing[0]
        results.append(
            _entry(
                f"sweep_workers_{workers}",
                timing,
                {
                    "scenario": "figure2",
                    "workers": workers,
                    "cycles": sweep_cycles,
                    "kernel": "fast",
                    "repeat": 1,
                },
            )
        )
        print(
            f"sweep_workers_{workers}: {timing[0]:.3f}s", file=sys.stderr
        )
    speedups["sweep_workers_4_vs_1"] = sweep_seconds[1] / sweep_seconds[4]
    print(
        f"sweep worker scaling: {speedups['sweep_workers_4_vs_1']:.2f}x "
        "at 4 workers",
        file=sys.stderr,
    )

    import tempfile

    with tempfile.TemporaryDirectory() as store:
        # The cold leg must run exactly once into the fresh store (any
        # warm-up or repeat would pre-populate it); the warm leg is
        # idempotent and gets best-of-2.
        cold = best_of(1, time_cached_sweep(store, sweep_cycles), warmup=0)
        warm = best_of(2, time_cached_sweep(store, sweep_cycles), warmup=0)
    cache_meta = {
        "scenario": "figure2",
        "workers": 2,
        "cycles": sweep_cycles,
        "kernel": "fast",
    }
    results.append(
        _entry(
            "sweep_cache_cold", cold, {**cache_meta, "cache": "cold",
                                       "repeat": 1}
        )
    )
    results.append(
        _entry(
            "sweep_cache_warm", warm, {**cache_meta, "cache": "warm",
                                       "repeat": 2}
        )
    )
    speedups["warm_cache_collapse"] = cold[0] / warm[0]
    print(
        f"sweep_cache_cold: {cold[0]:.3f}s, sweep_cache_warm: "
        f"{warm[0]:.3f}s (collapse "
        f"{speedups['warm_cache_collapse']:.2f}x)",
        file=sys.stderr,
    )

    # Warm-store probe legs: keying and bulk-reading the paper cells
    # x 80 replications from a pre-filled store, the in-process share
    # of a warm re-run of Tables 3(a) and 4.
    if numpy_available():
        from repro.parallel.cache import ResultCache

        probe_cycles, probe_replications = 100, 80
        units = warm_probe_units(probe_cycles, probe_replications)
        probe_meta = {
            "scenario": "paper-cells",
            "units": len(units),
            "cycles": probe_cycles,
            "replications": probe_replications,
            "kernel": "batch",
            "repeat": 5,
        }
        with tempfile.TemporaryDirectory() as store:
            cache = ResultCache(store)
            keys = cache.keys(units)
            for key in keys:
                cache.put(
                    key,
                    {
                        "ebw": 3.9876543210987654,
                        "processor_utilization": 0.49845679013734567,
                        "bus_utilization": 0.99691358027469135,
                    },
                )
            keying = best_of(
                5, lambda: cache.keys(units), warmup=max(warmup, 1)
            )
            reading = best_of(
                5, lambda: cache.get_many(keys), warmup=max(warmup, 1)
            )
        results.append(_entry("warm_probe_keys", keying, probe_meta))
        results.append(_entry("warm_probe_get_many", reading, probe_meta))
        print(
            f"warm_probe_keys: {keying[0]:.3f}s, warm_probe_get_many: "
            f"{reading[0]:.3f}s ({len(units)} units)",
            file=sys.stderr,
        )
    else:
        print(
            "warning: numpy unavailable - skipping warm_probe_* "
            "(install the [batch] extra)",
            file=sys.stderr,
        )

    if numpy_available():
        plan_replications = 4 if args.quick else 16
        plan_cycles = 300 if args.quick else 1_200
        plan_seconds = {}
        for plan_mode in ("affine", "contiguous"):
            timing = best_of(
                2,
                time_planned_sweep(
                    plan_mode, plan_replications, plan_cycles
                ),
                warmup=warmup,
            )
            plan_seconds[plan_mode] = timing[0]
            results.append(
                _entry(
                    f"sweep_plan_{plan_mode}",
                    timing,
                    {
                        "plan_mode": plan_mode,
                        "replications": plan_replications,
                        "cycles": plan_cycles,
                        "kernel": "batch",
                        "workers": 2,
                        "repeat": 2,
                    },
                )
            )
            print(
                f"sweep_plan_{plan_mode}: {timing[0]:.3f}s",
                file=sys.stderr,
            )
        speedups["affine_vs_contiguous"] = (
            plan_seconds["contiguous"] / plan_seconds["affine"]
        )
        print(
            "affine lease planning: "
            f"{speedups['affine_vs_contiguous']:.2f}x over contiguous "
            "on the fragmented grid",
            file=sys.stderr,
        )
    else:
        print(
            "warning: numpy unavailable - skipping sweep_plan_* "
            "(install the [batch] extra)",
            file=sys.stderr,
        )

    # Fleet-packing legs: the shape-fragmented grid as one packed
    # super-fleet call versus one homogeneous fleet per shape.
    packed_replications = 8 if args.quick else 30
    packed_cycles = 400 if args.quick else 1_200
    if numpy_available():
        packed_seconds = {}
        for leg, pack in (("packed", True), ("fragmented", False)):
            timing = best_of(
                2,
                time_packed_sweep(pack, packed_replications, packed_cycles),
                warmup=warmup,
            )
            packed_seconds[leg] = timing[0]
            results.append(
                _entry(
                    f"packed_sweep_{leg}",
                    timing,
                    {
                        "pack": pack,
                        "replications": packed_replications,
                        "cycles": packed_cycles,
                        "kernel": "batch",
                        "backend": "numpy",
                        "repeat": 2,
                    },
                )
            )
            print(
                f"packed_sweep_{leg}: {timing[0]:.3f}s", file=sys.stderr
            )
        speedups["packed_vs_fragmented"] = (
            packed_seconds["fragmented"] / packed_seconds["packed"]
        )
        print(
            "fleet packing: "
            f"{speedups['packed_vs_fragmented']:.2f}x over per-shape "
            "fleets on the fragmented grid",
            file=sys.stderr,
        )
        from repro.bus.backends import get_backend

        for backend_name in ("numba", "numba-parallel"):
            backend = get_backend(backend_name)
            if not backend.available():
                print(
                    f"warning: {backend_name} unavailable - skipping "
                    f"packed_sweep_packed_{backend_name} (install the "
                    f"[{backend.extra}] extra)",
                    file=sys.stderr,
                )
                continue
            timing = best_of(
                2,
                time_packed_sweep(
                    True,
                    packed_replications,
                    packed_cycles,
                    backend=backend_name,
                ),
                warmup=max(warmup, 1),
            )
            results.append(
                _entry(
                    f"packed_sweep_packed_{backend_name}",
                    timing,
                    {
                        "pack": True,
                        "replications": packed_replications,
                        "cycles": packed_cycles,
                        "kernel": "batch",
                        "backend": backend_name,
                        "repeat": 2,
                    },
                )
            )
            key = f"packed_sweep_{backend_name}_vs_numpy"
            speedups[key] = packed_seconds["packed"] / timing[0]
            print(
                f"packed_sweep_packed_{backend_name}: {timing[0]:.3f}s "
                f"({speedups[key]:.2f}x over the numpy backend)",
                file=sys.stderr,
            )
    else:
        print(
            "warning: numpy unavailable - skipping packed_sweep_* "
            "(install the [batch] extra)",
            file=sys.stderr,
        )

    # Batch call cost: one figure2 pack group at 1 and 27 rows, fitted
    # to the planner's per-call model cycles * (c0 + c1 * rows).  The
    # fit lands as two entries whose "seconds" are seconds per million
    # lockstep cycles (numerically the planner's microseconds per
    # cycle), so --compare flags drift from the committed fit; the
    # planner's own constants ride in meta.
    call_cycles = 1_000 if args.quick else 2_000
    if numpy_available():
        from repro.bus.system import _DEFAULT_WARMUP_FRACTION
        from repro.scenarios import plan

        steps = call_cycles + int(call_cycles * _DEFAULT_WARMUP_FRACTION)
        call_us = {}
        for rows in (1, 27):
            timing = best_of(
                5, time_batch_call(rows, call_cycles), warmup=max(warmup, 1)
            )
            call_us[rows] = timing[0] / steps * 1e6
        c1 = (call_us[27] - call_us[1]) / 26
        c0 = call_us[1] - c1
        for name, value, planner_us in (
            ("c0", c0, plan.BATCH_CALL_CYCLE_US),
            ("c1", c1, plan.BATCH_ROW_CYCLE_US),
        ):
            results.append(
                _entry(
                    f"batch_call_cost_{name}",
                    (value, value),
                    {
                        "scenario": "figure2",
                        "rows": [1, 27],
                        "cycles": call_cycles,
                        "kernel": "batch",
                        "backend": "numpy",
                        "repeat": 5,
                        "unit": "seconds per million lockstep cycles",
                        "planner_us": planner_us,
                    },
                )
            )
        print(
            f"batch_call_cost: c0 {c0:.1f} us/cycle (planner "
            f"{plan.BATCH_CALL_CYCLE_US}), c1 {c1:.2f} us/row-cycle "
            f"(planner {plan.BATCH_ROW_CYCLE_US})",
            file=sys.stderr,
        )
    else:
        print(
            "warning: numpy unavailable - skipping batch_call_cost_* "
            "(install the [batch] extra)",
            file=sys.stderr,
        )

    payload = {
        "schema": SCHEMA,
        "python": sys.version,
        "parameters": {
            "cycles": cycles,
            "figure_cycles": figure_cycles,
            "repeat": repeat,
            "warmup": warmup,
            "fleet_rows": fleet_rows,
            "fleet_cycles": fleet_cycles,
            "sweep_cycles": sweep_cycles,
            "packed_replications": packed_replications,
            "packed_cycles": packed_cycles,
        },
        "results": results,
        "speedups": speedups,
    }
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.json}", file=sys.stderr)
    if args.compare:
        return _compare_and_report(args.compare, payload, args.threshold)
    return 0


def _compare_and_report(
    baseline_path: str, payload: dict, threshold: float = 0.25
) -> int:
    """Print the comparison table; 4 when any regression crossed
    ``threshold`` (a fraction, e.g. 0.25 for 25%)."""
    with open(baseline_path, "r", encoding="utf-8") as handle:
        old = json.load(handle)
    lines, regressions = compare_reports(old, payload, threshold=threshold)
    print(f"comparison against {baseline_path}:")
    for line in lines:
        print(line)
    if regressions:
        print(
            f"{len(regressions)} regression(s) beyond {threshold:.0%}: "
            + ", ".join(regressions),
            file=sys.stderr,
        )
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
