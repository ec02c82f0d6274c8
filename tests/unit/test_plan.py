"""Unit tests for the sweep planner: cost model, grouping, carving."""

from __future__ import annotations

import dataclasses

import pytest

from repro.parallel.cache import ResultCache
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.execute import run_units
from repro.scenarios.plan import (
    ANALYTIC_UNIT_COST,
    BATCH_LEASE_DEADLINE_SHARE,
    MAX_LEASE_UNITS,
    batch_lease_cost,
    carve_leases,
    makespan,
    probe_cached,
    unit_cost,
)
from repro.engine.base import EvaluationMethod
from repro.parallel.fleet import pack_key
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec


def _spec(**overrides) -> ScenarioSpec:
    kwargs = dict(
        name="plan-unit-test",
        base={"processors": 2, "memories": 2, "memory_cycle_ratio": 2},
        grid=(GridAxis("request_probability", (0.5, 1.0)),),
        cycles=80,
        plan=ReplicationPlan(replications=3, base_seed=5),
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestUnitCost:
    def test_simulation_cost_is_cycles_plus_warmup(self):
        units = compile_scenario(_spec(cycles=500, warmup=100))
        assert unit_cost(units[0]) == 600.0

    def test_default_warmup_is_counted(self):
        # warmup=None steps int(cycles * 0.25) warmup cycles on every
        # kernel, so the estimate must count them.
        units = compile_scenario(_spec(cycles=800, warmup=None))
        assert units[0].warmup is None
        assert unit_cost(units[0]) == 800 * 1.25

    def test_analytic_cost_is_nominal(self):
        units = compile_scenario(_spec(method=EvaluationMethod.BANDWIDTH))
        assert unit_cost(units[0]) == 1.0
        assert unit_cost(units[0]) < unit_cost(compile_scenario(_spec())[0])

    def test_every_cost_floors_at_the_analytic_constant(self):
        # The floor is explicit: no unit mix can produce a zero-cost
        # lease, whatever degenerate cycle counts a spec sneaks in.
        mva = compile_scenario(_spec(method=EvaluationMethod.MVA))
        simulation = compile_scenario(_spec(cycles=1, warmup=0))
        for unit in list(mva) + list(simulation):
            assert unit_cost(unit) >= ANALYTIC_UNIT_COST


class TestCarveLeases:
    def test_every_position_appears_exactly_once(self):
        units = compile_scenario(_spec())
        positions = list(range(len(units)))
        leases = carve_leases(units, positions, workers=2)
        flat = sorted(p for lease in leases for p in lease)
        assert flat == positions
        assert all(lease for lease in leases)

    def test_empty_positions_make_no_leases(self):
        units = compile_scenario(_spec())
        assert carve_leases(units, [], workers=2) == []

    def test_explicit_lease_size_packs_by_count(self):
        units = compile_scenario(_spec())
        leases = carve_leases(
            units, range(len(units)), workers=1, lease_size=2, affine=False
        )
        assert [len(lease) for lease in leases[:-1]] == [2] * (len(leases) - 1)
        assert all(len(lease) <= 2 for lease in leases)

    def test_cost_weighted_sizing_targets_four_waves_per_worker(self):
        # 6 equal-cost units over 1 worker: target cost = total/4, so
        # leases hold at most ceil(6/4)=2 units each.
        units = compile_scenario(_spec())
        leases = carve_leases(units, range(len(units)), workers=1)
        assert max(len(lease) for lease in leases) <= 2
        assert len(leases) >= 3

    def test_lease_size_never_exceeds_the_hard_cap(self):
        units = compile_scenario(
            _spec(
                method=EvaluationMethod.BANDWIDTH,
                grid=(
                    GridAxis("request_probability", tuple(
                        round(0.002 * i + 0.01, 6) for i in range(300)
                    )),
                ),
                plan=ReplicationPlan(replications=1, base_seed=5),
            )
        )
        assert len(units) == 300
        # Analytic units are so cheap that cost targeting alone would
        # put all 300 in one lease; the unit cap still applies.
        leases = carve_leases(units, range(len(units)), workers=1)
        assert max(len(lease) for lease in leases) <= MAX_LEASE_UNITS

    def test_heavy_units_get_shorter_leases_than_light_units(self):
        heavy = compile_scenario(_spec(cycles=100_000))
        light = compile_scenario(_spec(cycles=80))
        mixed = list(heavy[:3]) + list(light[:3])
        leases = carve_leases(mixed, range(6), workers=1)
        by_position = {
            position: index
            for index, lease in enumerate(leases)
            for position in lease
        }
        # No lease mixes a heavy unit with more than its cost share:
        # each heavy unit rides alone, the light tail can share.
        heavy_leases = {by_position[p] for p in range(3)}
        assert len(heavy_leases) == 3
        assert all(len(leases[i]) == 1 for i in heavy_leases)

    def test_affine_grouping_keeps_fleet_mates_adjacent(self):
        # Two interleaved fleet shapes (buffered axis last, so
        # positions alternate shapes); affine carving reunites them.
        spec = _spec(
            grid=(
                GridAxis("request_probability", (0.5, 1.0)),
                GridAxis("buffered", (False, True)),
            ),
            plan=ReplicationPlan(replications=2, base_seed=5),
        )
        units = compile_scenario(spec, kernel="batch")
        leases = carve_leases(
            units, range(len(units)), workers=1, lease_size=len(units)
        )
        from repro.parallel.fleet import fleet_key

        ordered_keys = [
            fleet_key(units[p].case()) for lease in leases for p in lease
        ]
        # Affine order visits each fleet key as one contiguous run.
        seen = []
        for key in ordered_keys:
            if not seen or seen[-1] != key:
                seen.append(key)
        assert len(seen) == len(set(seen))

    def test_mixed_simulation_and_mva_units_carve_cleanly(self):
        # A mixed sweep: heavy simulation units next to floor-cost mva
        # units.  Carving must keep every position exactly once, never
        # emit an empty lease, and the cost floor must keep the mva
        # tail from collapsing into the simulation leases' cost shadow.
        simulation = compile_scenario(_spec(cycles=50_000))
        mva = compile_scenario(_spec(method=EvaluationMethod.MVA))
        mixed = list(simulation[:3]) + list(mva)
        leases = carve_leases(mixed, range(len(mixed)), workers=1)
        flat = sorted(p for lease in leases for p in lease)
        assert flat == list(range(len(mixed)))
        assert all(lease for lease in leases)
        by_position = {
            position: index
            for index, lease in enumerate(leases)
            for position in lease
        }
        # Each heavy simulation unit fills its own lease; the analytic
        # units share leases rather than riding one-per-lease.
        heavy_leases = {by_position[p] for p in range(3)}
        assert all(len(leases[i]) == 1 for i in heavy_leases)
        analytic_leases = {
            by_position[p] for p in range(3, len(mixed))
        }
        assert analytic_leases.isdisjoint(heavy_leases)
        assert len(analytic_leases) < len(mixed) - 3

    def test_mixed_batch_and_mva_affine_groups_are_stable(self):
        # Batch simulation units pack into one super-fleet group while
        # analytic units stay singletons; the carving is deterministic.
        simulation = compile_scenario(
            _spec(
                grid=(GridAxis("memory_cycle_ratio", (1, 2, 3)),),
                plan=ReplicationPlan(replications=2, base_seed=5),
            ),
            kernel="batch",
        )
        mva = compile_scenario(_spec(method=EvaluationMethod.MVA))
        mixed = list(simulation) + list(mva)
        first = carve_leases(mixed, range(len(mixed)), workers=2)
        second = carve_leases(mixed, range(len(mixed)), workers=2)
        assert first == second
        flat = sorted(p for lease in first for p in lease)
        assert flat == list(range(len(mixed)))

    def test_contiguous_mode_preserves_input_order(self):
        units = compile_scenario(_spec())
        leases = carve_leases(
            units, range(len(units)), workers=2, lease_size=2, affine=False
        )
        flat = [p for lease in leases for p in lease]
        assert flat == list(range(len(units)))


def _figure2_batch(cycles: int = 2000):
    spec = dataclasses.replace(get_scenario("figure2"), cycles=cycles)
    return compile_scenario(spec, kernel="batch")


def _pack_groups(units, lease):
    return {pack_key(units[position].case()) for position in lease}


class TestBatchCostModel:
    def test_batch_call_cost_is_fixed_plus_per_row(self):
        one, two = batch_lease_cost(100, 1), batch_lease_cost(100, 2)
        assert 0 < two - one < one
        assert batch_lease_cost(200, 1) == 2 * one

    def test_makespan_list_schedules_longest_first(self):
        assert makespan([3, 3, 2, 2, 2], 2) == 7
        assert makespan([5, 1], 4) == 5
        assert makespan([], 2) == 0

    # Two equal pack groups (one per priority rule): one or two workers
    # get one lease each; on three, splitting one group still leaves
    # the other as the makespan, so neither splits.
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_figure2_carves_one_lease_per_pack_group(self, workers):
        units = _figure2_batch()
        leases = carve_leases(units, range(len(units)), workers=workers)
        assert len(leases) == 2
        assert sorted(len(lease) for lease in leases) == [27, 27]
        assert all(len(_pack_groups(units, lease)) == 1 for lease in leases)
        assert len({key for lease in leases
                    for key in _pack_groups(units, lease)}) == 2

    def test_idle_workers_split_groups_without_mixing_them(self):
        units = _figure2_batch()
        leases = carve_leases(units, range(len(units)), workers=4)
        assert len(leases) <= 4
        assert all(len(_pack_groups(units, lease)) == 1 for lease in leases)
        flat = sorted(p for lease in leases for p in lease)
        assert flat == list(range(len(units)))

    def test_oversized_pack_group_is_still_capped(self):
        units = compile_scenario(
            _spec(
                grid=(GridAxis("request_probability", tuple(
                    round(0.002 * i + 0.01, 6) for i in range(150)
                )),),
                plan=ReplicationPlan(replications=2, base_seed=5),
            ),
            kernel="batch",
        )
        assert len(units) == 300
        assert len({pack_key(unit.case()) for unit in units}) == 1
        leases = carve_leases(units, range(len(units)), workers=1)
        assert len(leases) == 2
        assert max(len(lease) for lease in leases) <= MAX_LEASE_UNITS

    # figure2 at 1M cycles steps 1.25M lockstep cycles per call: a whole
    # 27-row group is estimated at about 77 s, over a quarter of the
    # coordinator's 300 s default deadline, so each group is halved.
    def test_long_cycle_group_is_split_to_fit_the_deadline(self):
        units = _figure2_batch(cycles=1_000_000)
        positions = range(len(units))
        assert len(carve_leases(units, positions, workers=2)) == 2
        leases = carve_leases(units, positions, workers=2, deadline=300.0)
        assert sorted(len(lease) for lease in leases) == [13, 13, 14, 14]
        assert all(len(_pack_groups(units, lease)) == 1 for lease in leases)
        budget = 300.0 * BATCH_LEASE_DEADLINE_SHARE * 1e6
        assert all(
            batch_lease_cost(1_250_000, len(lease)) <= budget
            for lease in leases
        )

    def test_deadline_too_short_for_any_call_leases_single_rows(self):
        units = _figure2_batch()
        leases = carve_leases(
            units, range(len(units)), workers=2, deadline=0.01
        )
        assert [len(lease) for lease in leases] == [1] * len(units)

    def test_explicit_lease_size_keeps_count_semantics_for_batch(self):
        units = _figure2_batch()
        leases = carve_leases(
            units, range(len(units)), workers=2, lease_size=6
        )
        assert [len(lease) for lease in leases] == [6] * 9


class TestProbeCached:
    def test_probe_resolves_exactly_the_stored_positions(self, tmp_path):
        units = compile_scenario(_spec())
        cache = ResultCache(cache_dir=tmp_path / "store")
        run_units(units[:3], jobs=1, cache=cache)
        found = probe_cached(units, range(len(units)), cache)
        assert sorted(found) == [0, 1, 2]

    def test_probe_on_a_cold_store_finds_nothing(self, tmp_path):
        units = compile_scenario(_spec())
        cache = ResultCache(cache_dir=tmp_path / "store")
        assert probe_cached(units, range(len(units)), cache) == {}
        assert cache.stats.misses > 0
