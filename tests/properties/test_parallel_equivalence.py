"""Property tests: parallel execution is invisible in the results.

The central promise of :mod:`repro.parallel` is that fanning work out
over processes changes wall-clock time and nothing else.  These tests
state that as properties over randomly drawn configurations and seed
sets: serial :func:`repro.des.replications.replicate` and its pooled
``max_workers=N`` form must return identical
estimates, seeds and confidence-interval half widths, and parallel
sweeps must trace identical curves.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweeps import sweep_p, sweep_r
from repro.core.config import SystemConfig
from repro.core.policy import Priority
from repro.des.replications import (
    ebw_estimator,
    latency_estimator,
    replicate,
    replicate_latency,
)
from repro.parallel import EbwTask, LatencyTask
from repro.workloads.spec import HotSpotWorkload, TraceWorkload

CYCLES = 400
"""Tiny runs: equivalence is exact, so statistical strength is irrelevant."""

configs = st.builds(
    SystemConfig,
    processors=st.integers(min_value=1, max_value=4),
    memories=st.integers(min_value=1, max_value=4),
    memory_cycle_ratio=st.integers(min_value=1, max_value=4),
    request_probability=st.sampled_from([0.3, 0.7, 1.0]),
    priority=st.sampled_from(list(Priority)),
    buffered=st.booleans(),
)


class TestReplicationEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(
        config=configs,
        replications=st.integers(min_value=2, max_value=4),
        base_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_parallel_replicator_matches_serial(
        self, config, replications, base_seed
    ):
        estimator = ebw_estimator(config, cycles=CYCLES)
        serial = replicate(estimator, replications, base_seed=base_seed)
        parallel = replicate(
            estimator, replications, base_seed=base_seed, max_workers=2
        )
        assert parallel.estimates == serial.estimates
        assert parallel.seeds == serial.seeds
        assert parallel.confidence == serial.confidence
        assert parallel.mean == serial.mean
        assert parallel.half_width == serial.half_width

    @settings(max_examples=8, deadline=None)
    @given(config=configs, base_seed=st.integers(min_value=0, max_value=100))
    def test_worker_count_is_invisible(self, config, base_seed):
        estimator = ebw_estimator(config, cycles=CYCLES)
        results = [
            replicate(
                estimator, 3, base_seed=base_seed, max_workers=workers
            )
            for workers in (1, 2, 3)
        ]
        assert results[0] == results[1] == results[2]


class TestWorkloadReplicationEquivalence:
    """Hot-spot and trace workloads dispatched through the pool.

    Same contract as the uniform-workload properties above: fanning the
    replications over worker processes must be invisible in the result.
    """

    @settings(max_examples=8, deadline=None)
    @given(
        config=configs,
        hot_fraction=st.sampled_from([0.0, 0.3, 0.8]),
        base_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_hot_spot_parallel_matches_serial(
        self, config, hot_fraction, base_seed
    ):
        estimator = EbwTask(
            config=config,
            cycles=CYCLES,
            workload=HotSpotWorkload(hot_fraction=hot_fraction),
        )
        serial = replicate(estimator, 3, base_seed=base_seed)
        parallel = replicate(
            estimator, 3, base_seed=base_seed, max_workers=2
        )
        assert parallel.estimates == serial.estimates
        assert parallel.seeds == serial.seeds
        assert parallel.mean == serial.mean
        assert parallel.half_width == serial.half_width

    @settings(max_examples=8, deadline=None)
    @given(
        config=configs,
        base_seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_trace_parallel_matches_serial(self, config, base_seed, data):
        traces = tuple(
            tuple(
                data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=config.memories - 1),
                        min_size=1,
                        max_size=6,
                    ),
                    label=f"trace for processor {processor}",
                )
            )
            for processor in range(config.processors)
        )
        estimator = EbwTask(
            config=config, cycles=CYCLES, workload=TraceWorkload(traces)
        )
        serial = replicate(estimator, 3, base_seed=base_seed)
        parallel = replicate(
            estimator, 3, base_seed=base_seed, max_workers=3
        )
        assert parallel.estimates == serial.estimates
        assert parallel.seeds == serial.seeds

    def test_worker_count_is_invisible_for_hot_spot(self):
        config = SystemConfig(3, 4, 2)
        estimator = EbwTask(
            config=config, cycles=CYCLES, workload=HotSpotWorkload(0.4)
        )
        results = [
            replicate(
                estimator, 3, base_seed=17, max_workers=workers
            )
            for workers in (1, 2, 3)
        ]
        assert results[0] == results[1] == results[2]


class TestLatencyReplicationEquivalence:
    """Latency-distribution aggregation is pool-invariant.

    The percentile pipeline's contract is stricter than "same means":
    the merged wait/service/total summaries - counts, exact totals,
    extrema and every quantile estimate - must be bit-identical whether
    the replications ran serially or on any number of workers.
    """

    @settings(max_examples=6, deadline=None)
    @given(
        config=configs,
        replications=st.integers(min_value=2, max_value=4),
        base_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_parallel_latency_matches_serial(
        self, config, replications, base_seed
    ):
        estimator = latency_estimator(config, cycles=CYCLES)
        serial = replicate_latency(estimator, replications, base_seed=base_seed)
        parallel = replicate_latency(
            estimator, replications, base_seed=base_seed, max_workers=2
        )
        assert parallel == serial
        assert parallel.merged == serial.merged
        assert parallel.merged.total.count == sum(
            report.total.count for report in serial.reports
        )

    @settings(max_examples=6, deadline=None)
    @given(
        config=configs,
        hot_fraction=st.sampled_from([0.0, 0.4]),
        base_seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_hot_spot_latency_worker_count_invisible(
        self, config, hot_fraction, base_seed
    ):
        estimator = LatencyTask(
            config=config,
            cycles=CYCLES,
            workload=HotSpotWorkload(hot_fraction=hot_fraction),
        )
        results = [
            replicate_latency(
                estimator, 3, base_seed=base_seed, max_workers=workers
            )
            for workers in (1, 2, 3)
        ]
        assert results[0] == results[1] == results[2]
        assert results[0].merged == results[1].merged == results[2].merged


class TestSeededGridEquivalence:
    """Deterministic grid (no hypothesis) covering the sweep dispatchers."""

    GRID = [
        SystemConfig(2, 2, 2),
        SystemConfig(3, 2, 4, request_probability=0.5),
        SystemConfig(2, 4, 3, priority=Priority.MEMORIES, buffered=True),
    ]

    @pytest.mark.parametrize("config", GRID, ids=lambda c: c.describe())
    def test_sweep_r_identical_curves(self, config):
        values = (1, 2, 4)
        serial = sweep_r(config, values, "serial", cycles=CYCLES, seed=9)
        pooled = sweep_r(
            config, values, "serial", cycles=CYCLES, seed=9, max_workers=2
        )
        assert serial == pooled

    def test_sweep_p_identical_curves(self):
        config = dataclasses.replace(self.GRID[0], request_probability=1.0)
        values = (0.2, 0.6, 1.0)
        serial = sweep_p(config, values, "curve", cycles=CYCLES, seed=3)
        pooled = sweep_p(
            config, values, "curve", cycles=CYCLES, seed=3, max_workers=3
        )
        assert serial.ebw_values() == pooled.ebw_values()
        assert serial.processor_utilization_values() == (
            pooled.processor_utilization_values()
        )

    def test_sensitivity_identical_reports(self):
        from repro.analysis.sensitivity import sensitivity_analysis

        base = SystemConfig(2, 2, 2)
        serial = sensitivity_analysis(base, cycles=CYCLES, seed=5)
        pooled = sensitivity_analysis(
            base, cycles=CYCLES, seed=5, max_workers=2
        )
        assert serial == pooled
