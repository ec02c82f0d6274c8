"""Unit tests for the parallel replication and pool primitives."""

from __future__ import annotations

import os
import warnings

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.des.replications import (
    ebw_estimator,
    replicate,
    replicate_latency,
    replication_seeds,
)
from repro.parallel import (
    EbwTask,
    SimulationCase,
    map_ordered,
    resolve_workers,
    run_case,
    simulate_cases,
)

CONFIG = SystemConfig(2, 2, 2)
CYCLES = 1_500


def _square(x: int) -> int:
    return x * x


def _reciprocal(x: int) -> float:
    return 1 / x


class _CountedSquare:
    """A picklable squaring function that records every call."""

    def __init__(self):
        self.calls = []

    def __call__(self, x: int) -> int:
        self.calls.append(x)
        return x * x


def _square_or_die_in_child(item: tuple[int, int]) -> int:
    """Square ``value``; kill the pool worker on ``value == 2``.

    ``parent`` is the pid of the mapping process, so the in-process
    fallback computes the same item normally.
    """
    value, parent = item
    if value == 2 and os.getpid() != parent:
        os._exit(1)
    return value * value


class TestResolveWorkers:
    def test_none_defaults_to_cpu_count(self):
        assert resolve_workers(None) >= 1

    def test_explicit_value_passes_through(self):
        assert resolve_workers(3) == 3

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "4", True])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_workers(bad)


class TestMapOrdered:
    def test_preserves_input_order(self):
        items = [5, 3, 1, 4, 2]
        assert list(map_ordered(_square, items, max_workers=2)) == [
            25,
            9,
            1,
            16,
            4,
        ]

    def test_serial_fast_path_identical(self):
        items = list(range(6))
        assert list(map_ordered(_square, items, max_workers=1)) == list(
            map_ordered(_square, items, max_workers=3)
        )

    def test_results_are_yielded_lazily(self):
        calls = []

        def record(x):
            calls.append(x)
            return x

        results = map_ordered(record, [1, 2, 3], max_workers=1)
        assert calls == []
        assert next(results) == 1
        assert calls == [1]

    def test_empty_items(self):
        assert list(map_ordered(_square, [], max_workers=4)) == []

    def test_single_item_runs_in_process(self):
        # One item never needs a pool; unpicklable functions still work.
        assert list(map_ordered(lambda x: x + 1, [41], max_workers=4)) == [42]

    def test_unpicklable_function_rejected_at_call_time(self):
        with pytest.raises(ConfigurationError, match="picklable"):
            map_ordered(lambda x: x, [1, 2], max_workers=2)

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        import repro.parallel.pool as pool_module

        def broken_executor(*args, **kwargs):
            raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(
            pool_module, "ProcessPoolExecutor", broken_executor
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = list(map_ordered(_square, [1, 2, 3], max_workers=2))
        assert result == [1, 4, 9]
        assert any("process pool unavailable" in str(w.message) for w in caught)

    def test_submit_time_pool_breakage_falls_back(self, monkeypatch):
        # Spawn failures can surface lazily inside executor.map, not at
        # construction; those must degrade to the serial loop too.
        from concurrent.futures.process import BrokenProcessPool

        import repro.parallel.pool as pool_module

        class LazyBrokenExecutor:
            def __init__(self, *args, **kwargs):
                pass

            def map(self, *args, **kwargs):
                raise BrokenProcessPool("worker died during spawn")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(
            pool_module, "ProcessPoolExecutor", LazyBrokenExecutor
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = list(map_ordered(_square, [1, 2, 3], max_workers=2))
        assert result == [1, 4, 9]
        assert any("process pool unavailable" in str(w.message) for w in caught)

    def test_pool_breaking_after_first_result_yields_each_item_once(
        self, monkeypatch
    ):
        from concurrent.futures.process import BrokenProcessPool

        import repro.parallel.pool as pool_module

        counted_square = _CountedSquare()

        class BreaksAfterFirstResult:
            shut_down = False

            def __init__(self, *args, **kwargs):
                pass

            def map(self, function, items, chunksize=1):
                def results():
                    yield function(items[0])
                    raise BrokenProcessPool("worker killed mid-map")

                return results()

            def shutdown(self, wait=True, cancel_futures=False):
                BreaksAfterFirstResult.shut_down = True

        monkeypatch.setattr(
            pool_module, "ProcessPoolExecutor", BreaksAfterFirstResult
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = list(
                map_ordered(counted_square, [1, 2, 3, 4, 5], max_workers=2)
            )
        assert result == [1, 4, 9, 16, 25]
        assert counted_square.calls == [1, 2, 3, 4, 5]
        assert BreaksAfterFirstResult.shut_down
        assert any("4 remaining item(s)" in str(w.message) for w in caught)

    def test_real_worker_death_finishes_in_process(self):
        items = [(value, os.getpid()) for value in range(5)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = list(
                map_ordered(_square_or_die_in_child, items, max_workers=2)
            )
        assert result == [0, 1, 4, 9, 16]
        assert any("process pool unavailable" in str(w.message) for w in caught)

    def test_function_errors_propagate_unchanged(self):
        with pytest.raises(ZeroDivisionError):
            list(map_ordered(_reciprocal, [1, 0, 2], max_workers=2))


class TestSimulationTasks:
    def test_run_case_matches_simulate(self):
        from repro.bus import simulate

        case = SimulationCase(CONFIG, CYCLES, seed=7)
        assert run_case(case) == simulate(CONFIG, cycles=CYCLES, seed=7)

    def test_simulate_cases_matches_serial_loop(self):
        cases = [SimulationCase(CONFIG, CYCLES, seed) for seed in range(3)]
        serial = [run_case(case) for case in cases]
        pooled = simulate_cases(cases, max_workers=2)
        assert serial == pooled

    def test_ebw_task_is_picklable_and_correct(self):
        import pickle

        task = EbwTask(CONFIG, cycles=CYCLES)
        clone = pickle.loads(pickle.dumps(task))
        assert clone(3) == task(3)

    def test_ebw_estimator_returns_picklable_task(self):
        import pickle

        estimator = ebw_estimator(CONFIG, cycles=CYCLES)
        pickle.dumps(estimator)
        assert isinstance(estimator, EbwTask)


class TestPooledReplicate:
    def test_matches_serial_replicate_exactly(self):
        estimator = ebw_estimator(CONFIG, cycles=CYCLES)
        serial = replicate(estimator, replications=4, base_seed=11)
        parallel = replicate(
            estimator, replications=4, base_seed=11, max_workers=2
        )
        assert parallel == serial
        assert parallel.estimates == serial.estimates
        assert parallel.seeds == serial.seeds
        assert parallel.half_width == serial.half_width

    def test_replicate_parallel_flag(self):
        estimator = ebw_estimator(CONFIG, cycles=CYCLES)
        serial = replicate(estimator, replications=3, base_seed=2)
        parallel = replicate(
            estimator, replications=3, base_seed=2, parallel=True, max_workers=2
        )
        assert parallel == serial

    def test_seeds_follow_canonical_mapping(self):
        estimator = ebw_estimator(CONFIG, cycles=CYCLES)
        result = replicate(
            estimator, replications=3, base_seed=40, max_workers=1
        )
        assert result.seeds == replication_seeds(40, 3) == (40, 41, 42)

    @pytest.mark.parametrize("replicator", [replicate, replicate_latency])
    def test_rejects_unpicklable_estimator(self, replicator):
        with pytest.raises(ConfigurationError, match="picklable"):
            replicator(lambda seed: 1.0, replications=2, max_workers=2)

    def test_single_worker_accepts_any_callable(self):
        # max_workers=1 is the serial contract: no pool, no pickling.
        result = replicate(
            lambda seed: float(seed), replications=3, base_seed=5,
            max_workers=1,
        )
        assert result.estimates == (5.0, 6.0, 7.0)

    def test_replicate_max_workers_one_accepts_lambda(self):
        result = replicate(lambda seed: 2.0, 3, max_workers=1)
        assert result.mean == 2.0

    def test_too_few_replications_rejected(self):
        estimator = ebw_estimator(CONFIG, cycles=CYCLES)
        with pytest.raises(ConfigurationError):
            replicate(estimator, replications=1, parallel=True)

    def test_confidence_recorded(self):
        estimator = ebw_estimator(CONFIG, cycles=CYCLES)
        result = replicate(
            estimator, replications=2, confidence=0.99, max_workers=1
        )
        assert result.confidence == 0.99
