"""The ``repro-experiments scenario`` subcommand.

Usage::

    repro-experiments scenario                          # list scenarios
    repro-experiments scenario figure2 --jobs 8
    repro-experiments scenario figure2 --workers 4      # sweep service
    repro-experiments scenario my-sweep.toml --shard 2/4
    repro-experiments scenario table3a --shard 1/3 > shard1.out

Sharding contract: stdout carries exactly one self-contained line per
executed work unit, each prefixed with its global (unsharded) index.
Run the same scenario as ``k`` shards on ``k`` machines, concatenate
the shard outputs, and ``sort`` them (or pass them through
:func:`repro.scenarios.execute.merge_reports`): the result is
byte-identical to the unsharded run.  Headers, timings and summaries go
to stderr so stdout stays mergeable and reproducible.

``--workers N`` runs the same units through the distributed sweep
service (:func:`repro.service.coordinator.run_service`) with ``N``
local workers, forked from this process when that is safe and spawned
otherwise; ``--lease-size``, ``--deadline`` and
``--chaos-kill-after`` tune that path and require it.  The bytes match
the serial run whatever the worker count, lease carving or crash
history.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from typing import Sequence

from repro.bus.backends import DEFAULT_BACKEND, KNOWN_BACKENDS
from repro.core.errors import ConfigurationError, ReproError
from repro.scenarios.compiler import compile_scenario, parse_shard, shard_units
from repro.scenarios.execute import run_units, unit_line
from repro.scenarios.registry import all_scenarios, load_scenario
from repro.scenarios.spec import ReplicationPlan


def apply_spec_overrides(
    spec,
    cycles: int | None = None,
    seed: int | None = None,
    metrics: Sequence[str] | None = None,
):
    """Apply the CLI's ``--cycles``/``--seed``/``--metrics`` overrides.

    The one place a spec is spelled from these flags, shared by the
    serial path, the ``--workers`` service path and benchmark harnesses
    - which is what licenses their outputs to be byte-compared.
    """
    if cycles is not None:
        spec = dataclasses.replace(spec, cycles=cycles)
    if metrics is not None:
        spec = dataclasses.replace(spec, metrics=spec.metrics + tuple(metrics))
    if seed is not None:
        spec = dataclasses.replace(
            spec, plan=ReplicationPlan(spec.plan.replications, seed)
        )
    return spec


def list_scenarios() -> str:
    """Human-readable table of every registered scenario."""
    lines = ["available scenarios:"]
    for spec in all_scenarios():
        units = spec.grid_size() * spec.plan.replications
        lines.append(
            f"  {spec.name:<22} {units:>5} units  {str(spec.method):<10} "
            f"{spec.description}"
        )
    lines.append(
        "\nrun one with: repro-experiments scenario <name|file.toml> "
        "[--shard i/k] [--jobs N]"
    )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro-experiments scenario ...``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments scenario",
        description="Compile a declarative scenario into work units and "
        "run them (optionally one shard of a multi-machine sweep).",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        help="registered scenario name or a .toml/.json spec file; "
        "omit to list registered scenarios",
    )
    parser.add_argument(
        "--shard",
        metavar="I/K",
        help="run only shard I of K (1-based); merging all K shard "
        "outputs reproduces the unsharded output byte-for-byte",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for unit execution (default 1)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run through the distributed sweep service with N local "
        "workers (forked when safe, spawned otherwise) leasing planned "
        "position lists from a coordinator; stdout stays byte-identical "
        "to the serial run",
    )
    parser.add_argument(
        "--lease-size",
        type=int,
        default=None,
        metavar="N",
        help="units per service lease (requires --workers; default: "
        "cost-weighted planner sizing)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds a service lease may run before its worker is "
        "declared failed and its range is re-leased (requires "
        "--workers; default 300)",
    )
    parser.add_argument(
        "--chaos-kill-after",
        type=int,
        default=None,
        metavar="K",
        help="fault-injection testing hook (requires --workers): the "
        "first worker exits abruptly after its K-th result, exercising "
        "lease retry",
    )
    parser.add_argument(
        "--cycles",
        type=int,
        metavar="N",
        help="override the spec's simulated cycles per unit",
    )
    parser.add_argument(
        "--seed",
        type=int,
        metavar="N",
        help="override the spec's replication base seed",
    )
    parser.add_argument(
        "--metrics",
        metavar="NAME",
        action="append",
        default=None,
        help="collect an extra per-unit metric family (repeatable); "
        "'latency' adds streaming wait/service/total percentile columns "
        "to every unit line (simulation scenarios only)",
    )
    parser.add_argument(
        "--kernel",
        choices=("reference", "fast", "batch"),
        default="reference",
        help="simulation-loop implementation; 'fast' runs the flattened "
        "bit-identical kernel (repro.bus.kernel) - same bytes, less "
        "time; 'batch' runs whole replication fleets in one vectorized "
        "lockstep call (repro.bus.batch; needs the numpy extra) - "
        "reproducible in itself, statistically equivalent, own cache "
        "namespace",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="shorthand for --kernel fast",
    )
    parser.add_argument(
        "--backend",
        choices=KNOWN_BACKENDS,
        default=DEFAULT_BACKEND,
        help="array substrate for the batch kernel (requires --kernel "
        "batch): 'numpy' (default), 'numba' (JIT-compiled cycle loop, "
        "bit-identical to numpy, [batch-jit] extra) or 'numba-parallel' "
        "(same loop under prange over fleet rows, bit-identical, "
        "[batch-jit] extra); a missing backend fails loudly naming its "
        "extra",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="after the unit lines, draw the p50/p90/p99 total-latency "
        "percentile curves across units as an ASCII chart on stderr "
        "(requires --metrics latency); stdout stays byte-reproducible",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse cached unit results (default on; --no-cache disables)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="cache directory (default $REPRO_CACHE_DIR or "
        "~/.cache/repro-single-bus)",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="after the run, print the cache's hit/miss/store counters "
        "on stderr (for --workers runs: the coordinator's pre-lease "
        "probe counters plus units dispatched), so planner skip-rates "
        "are observable",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be a positive integer")
    if args.workers is not None:
        if args.workers < 1:
            parser.error("--workers must be a positive integer")
        if args.jobs != 1:
            # Two parallelism levers at once would obscure which one
            # ran; the service's workers already parallelise the sweep.
            parser.error(
                "--jobs and --workers conflict: --workers delegates "
                "parallelism to the sweep service's worker fleet"
            )
    for flag, value in (
        ("--lease-size", args.lease_size),
        ("--deadline", args.deadline),
        ("--chaos-kill-after", args.chaos_kill_after),
    ):
        if value is None:
            continue
        if args.workers is None:
            parser.error(f"{flag} requires --workers")
        # NaN compares false both ways: without isfinite a NaN deadline
        # would pass and silently disable lease expiry.
        if not (math.isfinite(value) and value > 0):
            parser.error(f"{flag} must be positive and finite, got {value:g}")
    if args.fast and args.kernel == "batch":
        # fast and batch produce deliberately different bytes, so a
        # silent precedence pick would hand back the wrong tier.
        parser.error("--fast conflicts with --kernel batch; pick one")
    kernel = "fast" if args.fast else args.kernel
    if args.backend != DEFAULT_BACKEND and kernel != "batch":
        # Backends are the batch kernel's array substrate; silently
        # ignoring --backend on another kernel would misreport what ran.
        parser.error("--backend requires --kernel batch")
    if args.scenario is None:
        print(list_scenarios())
        return 0
    shard = None
    try:
        spec = load_scenario(args.scenario)
        spec = apply_spec_overrides(
            spec, cycles=args.cycles, seed=args.seed, metrics=args.metrics
        )
        units = compile_scenario(spec, kernel=kernel, backend=args.backend)
        total = len(units)
        if args.shard is not None:
            shard = parse_shard(args.shard)
            units = shard_units(units, shard[0], shard[1])
            print(
                f"[scenario {spec.name}: shard {shard[0]}/{shard[1]}, "
                f"{len(units)} of {total} units]",
                file=sys.stderr,
            )
        else:
            print(
                f"[scenario {spec.name}: {total} units]",
                file=sys.stderr,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = None
    if args.cache and args.workers is None:
        from repro.parallel.cache import ResultCache

        try:
            cache = ResultCache(cache_dir=args.cache_dir)
        except (ConfigurationError, OSError) as exc:
            # A broken cache location must never block the science run.
            print(f"warning: caching disabled: {exc}", file=sys.stderr)
    started = time.time()
    telemetry: dict = {}
    try:
        if args.workers is not None:
            # The distributed sweep service: a coordinator probing the
            # shared store, then leasing planned position lists to
            # local workers.  Byte-identical to the serial path
            # below, property- and golden-tested.
            from repro.service.coordinator import DEFAULT_DEADLINE, run_service

            results = run_service(
                spec,
                workers=args.workers,
                kernel=kernel,
                backend=args.backend,
                shard=shard,
                lease_size=args.lease_size,
                deadline=(
                    DEFAULT_DEADLINE if args.deadline is None else args.deadline
                ),
                cache_enabled=args.cache,
                cache_dir=args.cache_dir,
                chaos_kill_after=args.chaos_kill_after,
                telemetry=telemetry,
            )
        else:
            results = run_units(units, jobs=args.jobs, cache=cache)
    except ReproError as exc:
        # Covers simulation and model failures too - any library error
        # surfaces as the CLI's curated one-line diagnostic.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(unit_line(result), flush=True)
    if args.chart:
        from repro.experiments.asciichart import render_percentile_chart

        try:
            print(render_percentile_chart(results), file=sys.stderr)
        except ReproError as exc:
            print(f"warning: no chart: {exc}", file=sys.stderr)
    elapsed = time.time() - started
    served = sum(1 for result in results if result.cached)
    print(
        f"[{len(results)} units in {elapsed:.1f}s, {served} from cache]",
        file=sys.stderr,
    )
    if args.cache_stats:
        print(render_cache_stats(cache, telemetry), file=sys.stderr)
    return 0


def render_cache_stats(cache, telemetry: dict) -> str:
    """The ``--cache-stats`` stderr line.

    Serial runs report the run cache's own
    :class:`~repro.parallel.cache.CacheStats`; service runs report the
    coordinator's pre-lease probe counters plus how many units were
    actually dispatched to workers (zero on a fully-warm sweep) and,
    last, how many leases carried them.
    """
    if telemetry:
        stats = telemetry.get("probe_stats")
        line = (
            f"[cache-stats probe_hits={telemetry.get('probe_hits', 0)} "
            f"dispatched={telemetry.get('dispatched', 0)} "
            f"of {telemetry.get('units', 0)} units"
        )
        if stats is not None:
            line += (
                f" hits={stats.hits} misses={stats.misses} "
                f"transient_errors={stats.transient_errors}"
            )
        return line + f" leases={telemetry.get('leases_issued', 0)}]"
    if cache is None:
        return "[cache-stats disabled]"
    stats = cache.stats
    return (
        f"[cache-stats hits={stats.hits} misses={stats.misses} "
        f"stores={stats.stores} evictions={stats.evictions} "
        f"transient_errors={stats.transient_errors}]"
    )
