"""Parallel replication, sweep execution, and result caching.

This subsystem turns the library's embarrassingly parallel workloads -
independent simulation replications, sweep grids, whole experiments -
into process-pool jobs without giving up the reproduction's core
guarantee: *the numbers do not depend on how they were scheduled*.

Three pieces cooperate:

* :func:`map_ordered` (:mod:`repro.parallel.pool`) is the one
  order-preserving, lazily-yielding process-pool map; replications
  (:func:`repro.des.replications.replicate` with ``max_workers``),
  sweep grids, scenario units (``--jobs``) and whole experiments all
  fan out through it, and :mod:`repro.parallel.workers` supplies the
  spawn-safe picklable tasks they dispatch;
* :class:`ResultCache` (:mod:`repro.parallel.cache`) is a
  content-addressed JSON store keyed on a canonical hash of the work
  description plus a code-version tag, so repeated sweeps and experiment
  runs skip already-computed points;
* :mod:`repro.parallel.fleet` aggregates batch-kernel simulation cases
  into lockstep fleets (:func:`~repro.parallel.fleet.run_fleet`,
  :func:`~repro.parallel.fleet.replicate_batch`), handing whole
  replication blocks to one vectorized
  :class:`~repro.bus.batch.BatchBusKernel` call instead of pool-mapping
  single runs.

Determinism guarantee
---------------------
Every parallel entry point takes the exact work list its serial
counterpart would execute, evaluates items in isolated processes (each
item's randomness derives solely from its own seed via
:mod:`repro.des.rng`), and reassembles results in input order.  Serial
and parallel runs therefore produce identical bytes, which the property
tests under ``tests/properties/test_parallel_equivalence.py`` assert
directly.
"""

from repro.parallel.fleet import (
    fleet_key,
    group_fleets,
    replicate_batch,
    run_fleet,
)
from repro.parallel.cache import (
    ENV_CACHE_DIR,
    CacheStats,
    ResultCache,
    canonical_json,
    case_payload,
    code_version_tag,
    config_payload,
    default_cache_dir,
    fingerprint,
    reset_code_version_tag,
)
from repro.parallel.pool import map_ordered, resolve_workers
from repro.parallel.workers import (
    EbwTask,
    LatencyTask,
    SimulationCase,
    run_case,
    simulate_cases,
)

__all__ = [
    "ResultCache",
    "fleet_key",
    "group_fleets",
    "replicate_batch",
    "run_fleet",
    "CacheStats",
    "EbwTask",
    "LatencyTask",
    "SimulationCase",
    "run_case",
    "simulate_cases",
    "map_ordered",
    "resolve_workers",
    "canonical_json",
    "fingerprint",
    "config_payload",
    "case_payload",
    "code_version_tag",
    "reset_code_version_tag",
    "default_cache_dir",
    "ENV_CACHE_DIR",
]
