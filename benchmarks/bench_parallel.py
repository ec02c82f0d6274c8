"""Benchmarks: the parallel replication pool path and the result cache.

Perf regressions in :mod:`repro.parallel` would silently erase the
speedups every scaled-up workload depends on, so the pool dispatch, the
serial fast path they must beat, and cache hit latency are each pinned
here at reduced cycles (``pytest benchmarks/ --benchmark-only``).
"""

from __future__ import annotations

from repro.core.config import SystemConfig
from repro.des.replications import replicate
from repro.parallel import EbwTask, ResultCache

CONFIG = SystemConfig(8, 8, 8)
REPLICATIONS = 4
BENCH_PARALLEL_CYCLES = 2_000
"""Short runs: these benches time dispatch overhead, not the simulator."""


def test_replicate_serial_reference(benchmark):
    """Serial baseline the pool path is compared against."""
    task = EbwTask(CONFIG, cycles=BENCH_PARALLEL_CYCLES)
    result = benchmark(
        lambda: replicate(task, replications=REPLICATIONS, base_seed=1)
    )
    assert result.replications == REPLICATIONS


def test_parallel_replicator_pool(benchmark):
    """Pool dispatch (includes worker startup; dominated by it here)."""
    task = EbwTask(CONFIG, cycles=BENCH_PARALLEL_CYCLES)
    result = benchmark(
        lambda: replicate(
            task, replications=REPLICATIONS, base_seed=1, max_workers=2
        )
    )
    assert result.replications == REPLICATIONS


def test_cache_hit_latency(benchmark, tmp_path):
    """A warm cache lookup must stay far below one simulation."""
    cache = ResultCache(cache_dir=tmp_path, version_tag="bench")
    payload = {"experiment_id": "bench", "kwargs": {"cycles": 1}}
    cache.store(payload, {"measured": [["r=1", "c=1", 1.0]] * 64})
    value = benchmark(lambda: cache.lookup(payload))
    assert value is not None


def test_cache_store_latency(benchmark, tmp_path):
    """Atomic store cost (canonical hash + temp file + rename)."""
    cache = ResultCache(cache_dir=tmp_path, version_tag="bench")
    payload = {"experiment_id": "bench-store", "kwargs": {"cycles": 1}}
    value = {"measured": [["r=1", "c=1", 1.0]] * 64}
    benchmark(lambda: cache.store(payload, value))
