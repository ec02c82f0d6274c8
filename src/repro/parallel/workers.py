"""Spawn-safe worker tasks for process-pool execution.

Everything a worker process touches must be importable at module level
and picklable: no closures, no lambdas, no objects holding open
resources.  The tasks here are small frozen dataclasses that carry a
:class:`~repro.core.config.SystemConfig` (itself a frozen dataclass of
primitives and enums) plus the run parameters, so they cross process
boundaries unchanged under both the ``fork`` and ``spawn`` start
methods.

Non-uniform workloads travel as declarative specs
(:mod:`repro.workloads.spec`) rather than live generators: a
:class:`SimulationCase` carries the spec, and :func:`run_case` builds
the matching generator *inside* the executing process from the case's
own seed.  Live generators hold random streams and replay positions, so
shipping the spec (not the object) is what keeps the tasks spawn-safe
and the results independent of which process runs them.

Determinism contract: a task called with a given seed performs exactly
the computation the serial code path performs with that seed - the
worker functions call the same :func:`repro.bus.simulate` entry point
with the same arguments, so estimates are bit-for-bit identical
regardless of which process (or how many) produced them.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import SystemConfig
from repro.core.results import SimulationResult
from repro.workloads.spec import WorkloadSpec


@dataclasses.dataclass(frozen=True)
class SimulationCase:
    """One fully-specified simulator invocation.

    ``workload=None`` means the paper's uniform workload and follows the
    exact code path (and random-stream layout) of a plain
    ``simulate(config, ...)`` call, so adding the field changed no
    existing result bytes.  ``collect_latency`` attaches streaming
    wait/service/total latency summaries (:mod:`repro.metrics`) to the
    result; it draws no random numbers, so every simulated counter stays
    bit-identical either way - but it *is* part of the case's cache
    identity (see :func:`repro.parallel.cache.case_payload`), because
    the cached value carries extra fields when it is set.
    """

    config: SystemConfig
    cycles: int
    seed: int
    warmup: int | None = None
    workload: WorkloadSpec | None = None
    collect_latency: bool = False
    kernel: str = "reference"
    """Simulation-loop implementation (``"reference"``, ``"fast"`` or
    ``"batch"``).  Reference and fast are property-tested bit-identical,
    so for them the kernel is a pure execution lever and is deliberately
    **not** part of :func:`repro.parallel.cache.case_payload`.  The
    batch kernel is reproducible in itself but *not* bit-identical, so
    the engine layer caches batch results under their own
    ``simulation-batch@1`` namespace (see
    :meth:`repro.engine.evaluators.SimulationEvaluator.cache_payload`)."""
    backend: str = "numpy"
    """Array substrate for the batch kernel (:mod:`repro.bus.backends`).
    Like ``kernel``, it is an execution lever and stays out of
    :func:`repro.parallel.cache.case_payload`; backends that are not
    bit-identical to numpy carry their own engine token, which is how
    the cache keeps their results apart."""


def run_case(case: SimulationCase) -> SimulationResult:
    """Execute one :class:`SimulationCase` (module-level, hence pool-safe)."""
    from repro.bus import simulate

    targets = None
    request_probabilities = None
    if case.workload is not None:
        case.workload.validate(case.config)
        targets = case.workload.build_targets(case.config, case.seed)
        request_probabilities = case.workload.request_probabilities(case.config)
    return simulate(
        case.config,
        cycles=case.cycles,
        seed=case.seed,
        warmup=case.warmup,
        targets=targets,
        request_probabilities=request_probabilities,
        collect_latency=case.collect_latency,
        kernel=case.kernel,
        backend=case.backend,
    )


def simulate_cases(
    cases, max_workers: int | None = None
) -> list[SimulationResult]:
    """Run many :class:`SimulationCase` items, results in input order.

    The grid-point dispatcher behind the parallel sweep and experiment
    paths; with ``max_workers=1`` it is exactly the serial loop.
    """
    from repro.parallel.pool import map_ordered

    return list(map_ordered(run_case, cases, max_workers=max_workers))


@dataclasses.dataclass(frozen=True)
class EbwTask:
    """A picklable seed-to-EBW estimator for replication runs.

    Equivalent to the closure built by
    :func:`repro.des.replications.ebw_estimator` but safe to ship to a
    worker process.  Calling it with a seed returns the simulated EBW of
    ``config`` under that seed.  An optional workload spec reproduces
    hot-spot, trace or heterogeneous-p runs; ``None`` is the paper's
    uniform workload.
    """

    config: SystemConfig
    cycles: int = 20_000
    workload: WorkloadSpec | None = None

    def __call__(self, seed: int) -> float:
        return run_case(
            SimulationCase(self.config, self.cycles, seed, workload=self.workload)
        ).ebw


@dataclasses.dataclass(frozen=True)
class LatencyTask:
    """A picklable seed-to-:class:`~repro.metrics.LatencyReport` estimator.

    The latency counterpart of :class:`EbwTask`: calling it with a seed
    runs the seeded simulation with latency collection enabled and
    returns the run's wait/service/total summaries.  Used by
    :func:`repro.des.replications.replicate_latency`, whose serial and
    pooled results are bit-for-bit identical because both merge the same
    per-seed reports in the same seed order.
    """

    config: SystemConfig
    cycles: int = 20_000
    workload: WorkloadSpec | None = None

    def __call__(self, seed: int):
        result = run_case(
            SimulationCase(
                self.config,
                self.cycles,
                seed,
                workload=self.workload,
                collect_latency=True,
            )
        )
        assert result.latency is not None
        return result.latency
