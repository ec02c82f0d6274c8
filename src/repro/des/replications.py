"""Independent-replication statistics for simulation experiments.

Batch means (:class:`repro.des.stats.BatchMeans`) derive a confidence
interval from one long run; the orthogonal - and more robust - method is
*independent replications*: run the same configuration under several
seeds and treat each run's estimate as one i.i.d. observation.  This
module provides both a fixed-count replicator and a sequential version
that keeps adding replications until the confidence interval is tight
enough, the standard stopping rule in simulation methodology.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Sequence

from repro.core.errors import ConfigurationError
from repro.des.rng import mean_and_half_width

Estimator = Callable[[int], float]
"""Maps a seed to one replication's point estimate."""


@dataclasses.dataclass(frozen=True)
class ReplicationResult:
    """Aggregate of several independent replications."""

    estimates: tuple[float, ...]
    seeds: tuple[int, ...]
    confidence: float

    @property
    def replications(self) -> int:
        """Number of completed replications."""
        return len(self.estimates)

    @property
    def mean(self) -> float:
        """Point estimate: the mean across replications."""
        return sum(self.estimates) / len(self.estimates)

    @property
    def half_width(self) -> float:
        """Normal-approximation CI half width at the stored confidence."""
        _, half = mean_and_half_width(self.estimates, _z_value(self.confidence))
        return half

    @property
    def relative_half_width(self) -> float:
        """Half width relative to the mean (``inf`` for zero mean)."""
        if self.mean == 0.0:
            return math.inf
        return self.half_width / abs(self.mean)

    def interval(self) -> tuple[float, float]:
        """The confidence interval ``(low, high)``."""
        return self.mean - self.half_width, self.mean + self.half_width

    def summary(self) -> str:
        """One-line human-readable digest."""
        low, high = self.interval()
        return (
            f"{self.mean:.4f} +/- {self.half_width:.4f} "
            f"[{low:.4f}, {high:.4f}] over {self.replications} replications"
        )


def _z_value(confidence: float) -> float:
    """Two-sided normal quantile for the common confidence levels."""
    table = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}
    try:
        return table[round(confidence, 2)]
    except KeyError:
        raise ConfigurationError(
            f"confidence must be one of {sorted(table)}, got {confidence}"
        ) from None


def replication_seeds(base_seed: int, replications: int) -> tuple[int, ...]:
    """The canonical seed tuple ``base_seed, base_seed + 1, ...``.

    Single source of truth for the seed-to-replication mapping: the
    serial and pooled paths below both derive their seeds here, which is
    what makes serial and parallel replication results bit-for-bit
    identical.  Distinct seeds produce independent random streams (see
    :mod:`repro.des.rng`).
    """
    if replications < 2:
        raise ConfigurationError(
            f"at least 2 replications are required, got {replications}"
        )
    return tuple(base_seed + i for i in range(replications))


def replicate(
    estimator: Estimator,
    replications: int,
    base_seed: int = 0,
    confidence: float = 0.95,
    parallel: bool = False,
    max_workers: int | None = None,
) -> ReplicationResult:
    """Run a fixed number of independent replications.

    With ``parallel=True`` - or simply a ``max_workers`` value - the
    replications are fanned out over a process pool (``max_workers``
    processes, defaulting to the CPU count); the estimator must then be
    picklable - e.g. the task returned by :func:`ebw_estimator` or any
    module-level function - or a :class:`ConfigurationError` is raised.
    With ``max_workers=1`` the loop stays in-process and any callable
    works.  The result is identical to the serial run either way.
    """
    seeds = replication_seeds(base_seed, replications)
    estimates = tuple(_map_seeds(estimator, seeds, parallel, max_workers))
    return ReplicationResult(
        estimates=estimates, seeds=seeds, confidence=confidence
    )


def _map_seeds(estimator, seeds, parallel: bool, max_workers: int | None):
    """One estimate per seed, in seed order.

    In-process unless ``parallel`` or a ``max_workers`` value asks for
    the pool (:func:`repro.parallel.pool.map_ordered`, imported only
    then so serial callers never load the process machinery).
    """
    if not parallel and max_workers is None:
        return map(estimator, seeds)
    from repro.parallel.pool import map_ordered

    return map_ordered(estimator, seeds, max_workers=max_workers)


def replicate_until(
    estimator: Estimator,
    relative_precision: float,
    base_seed: int = 0,
    confidence: float = 0.95,
    min_replications: int = 3,
    max_replications: int = 50,
) -> ReplicationResult:
    """Sequential stopping: replicate until the CI is relatively tight.

    Adds replications one at a time (after a minimum of
    ``min_replications``) until the CI half width falls below
    ``relative_precision * |mean|``, or ``max_replications`` is reached -
    the textbook sequential procedure for steady-state estimation.
    """
    if not 0.0 < relative_precision < 1.0:
        raise ConfigurationError(
            f"relative_precision must lie in (0, 1), got {relative_precision}"
        )
    if min_replications < 2:
        raise ConfigurationError(
            f"min_replications must be >= 2, got {min_replications}"
        )
    if max_replications < min_replications:
        raise ConfigurationError(
            "max_replications must be >= min_replications "
            f"({max_replications} < {min_replications})"
        )
    estimates: list[float] = []
    seeds: list[int] = []
    for seed in replication_seeds(base_seed, max_replications):
        estimates.append(estimator(seed))
        seeds.append(seed)
        if len(estimates) >= min_replications:
            result = ReplicationResult(
                estimates=tuple(estimates),
                seeds=tuple(seeds),
                confidence=confidence,
            )
            if result.relative_half_width <= relative_precision:
                return result
    return ReplicationResult(
        estimates=tuple(estimates), seeds=tuple(seeds), confidence=confidence
    )


@dataclasses.dataclass(frozen=True)
class LatencyReplication:
    """Latency-distribution aggregate of independent replications.

    ``reports`` holds one :class:`~repro.metrics.LatencyReport` per
    replication, ordered by seed; :attr:`merged` folds them with the
    exactly-associative summary merge, so the aggregate is a
    deterministic function of the per-seed reports alone - serial and
    parallel execution produce bit-identical values.
    """

    reports: tuple  # tuple[LatencyReport, ...]
    seeds: tuple[int, ...]

    @property
    def replications(self) -> int:
        """Number of completed replications."""
        return len(self.reports)

    @functools.cached_property
    def merged(self):
        """The seed-order fold of all per-replication reports.

        Computed once per instance: the fold is exact rational
        arithmetic, which is not free for many replications.  (Caching
        via ``__dict__`` is compatible with the frozen dataclass and
        does not participate in equality.)
        """
        from repro.metrics import merge_latency_reports

        return merge_latency_reports(self.reports)


def replicate_latency(
    estimator,
    replications: int,
    base_seed: int = 0,
    parallel: bool = False,
    max_workers: int | None = None,
) -> LatencyReplication:
    """Aggregate per-seed latency reports across replications.

    ``estimator`` maps a seed to a :class:`~repro.metrics.LatencyReport`
    (e.g. :class:`repro.parallel.workers.LatencyTask`).  Seeds follow
    the canonical :func:`replication_seeds` mapping; with
    ``parallel=True`` (or an explicit ``max_workers``) the replications
    fan out over a process pool exactly as in :func:`replicate`; the
    result is bit-for-bit identical to the serial loop.
    """
    seeds = replication_seeds(base_seed, replications)
    return LatencyReplication(
        reports=tuple(_map_seeds(estimator, seeds, parallel, max_workers)),
        seeds=seeds,
    )


def latency_estimator(
    config: "SystemConfig",  # noqa: F821 - forward reference, see below
    cycles: int = 20_000,
):
    """A seed-to-:class:`~repro.metrics.LatencyReport` estimator.

    The latency analogue of :func:`ebw_estimator`: a picklable task for
    :func:`replicate_latency`, serial or parallel alike.
    """
    from repro.parallel.workers import LatencyTask

    return LatencyTask(config=config, cycles=cycles)


def ebw_estimator(
    config: "SystemConfig",  # noqa: F821 - forward reference, see below
    cycles: int = 20_000,
) -> Estimator:
    """An :data:`Estimator` producing the simulated EBW of ``config``.

    Convenience factory tying the replication machinery to the bus
    simulator without creating an import cycle at module load.  The
    returned task is a picklable object, so it works with the serial
    path and with ``replicate(..., parallel=True)`` alike.
    """
    from repro.parallel.workers import EbwTask

    return EbwTask(config=config, cycles=cycles)
