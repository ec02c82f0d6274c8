"""Tests of the benchmark harness's own arithmetic and checks."""

from __future__ import annotations

import json
import pathlib
from types import SimpleNamespace

import pytest

import layers
import measure
import outputs
import run
from workloads import PAPER_SPEC, WORKLOADS, Workload, paper_cells_spec

ROOT = pathlib.Path(__file__).resolve().parents[2]


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_once():
    spans = [
        span("outer", 0, 100),
        span("child", 10, 30, parent=0),
        span("child", 25, 50, parent=0),  # overlaps its sibling
        span("grandchild", 12, 20, parent=1),
        None,  # still open at exit
    ]
    assert layers.self_times(spans) == [60, 12, 25, 8, 0]


def test_self_time_clips_children_to_parent():
    spans = [span("outer", 10, 20), span("child", 5, 15, parent=0)]
    assert layers.self_times(spans) == [5, 10]


def test_rebase_maps_worker_clock_onto_cli_clock():
    cli = {"perf_ns": 1_000, "wall_ns": 50_000}
    worker = {"perf_ns": 9_000, "wall_ns": 50_500}
    # The worker's anchor instant reads 500 ns after the CLI's anchor.
    assert worker["perf_ns"] + layers.rebase_offset(worker, cli) == 1_500


def test_kernel_cost_per_row_cycle_uses_self_time():
    spans = [
        span("kernel.batch.run", 0, 1_000_000, attrs={"rows": 10, "steps": 100}),
        span("sketch.summaries", 0, 200_000, parent=0),
        span("kernel.batch.run", 0, 600_000, attrs={"rows": 20, "steps": 100}),
    ]
    pairs = [
        (s, own)
        for s, own in zip(spans, layers.self_times(spans))
        if s[0] == "kernel.batch.run"
    ]
    ns_per_row_cycle, us_per_call_cycle = layers.kernel_costs(pairs)
    # (800_000 + 600_000) ns over 10*100 + 20*100 row-cycles.
    assert ns_per_row_cycle == pytest.approx(1_400_000 / 3_000)
    # Same self time over 200 lockstep call-cycles, in microseconds.
    assert us_per_call_cycle == pytest.approx(1_400_000 / 200 / 1000)
    assert layers.kernel_costs([]) == (0.0, 0.0)


def test_service_metrics_from_rebased_worker_spans():
    telemetry = {"leases_issued": 4, "dispatched": 10, "leases_retried": 1}
    records = [
        {
            "role": "cli",
            "spans": [span("service.run", 0, 1_000, attrs=telemetry)],
        },
        {
            "role": "worker",
            "spans": [
                span("service.ready", 200, 201),
                span("service.worker.handle", 300, 500, attrs={"type": "lease"}),
                span("service.worker.handle", 600, 700, attrs={"type": "lease"}),
            ],
        },
    ]
    metrics = layers.service_metrics(records)
    assert metrics["service.leases"] == 4
    assert metrics["service.units_per_lease"] == 2.5
    assert metrics["service.retries"] == 1
    assert metrics["service.ready_s"] == pytest.approx(200e-9)
    assert metrics["service.lease_p50_s"] == pytest.approx(150e-9)
    # Busy 300 ns of the 800 ns between ready and the end of the run.
    assert metrics["service.worker_idle_frac"] == pytest.approx(1 - 300 / 800)


def test_tail_is_highest_percentile_with_ten_samples_above():
    assert measure.tail(list(range(10))) is None
    percent, value = measure.tail(list(range(40)))
    assert (percent, value) == (75.0, 29)


# ----------------------------------------------------------------------
# Counts from the inputs
# ----------------------------------------------------------------------
def _units(spec_mapping, kernel="batch"):
    from repro.scenarios.compiler import compile_scenario
    from repro.scenarios.spec import spec_from_mapping

    return compile_scenario(spec_from_mapping(spec_mapping), kernel=kernel)


def test_fill_ratios_of_the_paper_fleet():
    plan = layers.fleet_plan(_units(paper_cells_spec(100, 2)), None)
    # Unbuffered and buffered cells form one padded fleet each; n = 8
    # everywhere, m runs 4..16 and pads to 16 (mean m is 10).
    assert plan["kernel.batch.calls"] == 2
    assert plan["kernel.batch.rows_per_call"] == 112
    assert plan["fleet.lane_fill"] == 1.0
    assert plan["fleet.module_fill"] == pytest.approx(10 / 16)


def test_fill_ratios_pad_lanes_and_modules():
    spec = {
        "name": "pad",
        "method": "simulation",
        "cycles": 100,
        "base": {"memory_cycle_ratio": 4},
        "grid": [
            {"fields": ["processors", "memories"], "values": [[4, 2], [8, 8]]}
        ],
    }
    plan = layers.fleet_plan(_units(spec), None)
    assert plan["kernel.batch.calls"] == 1
    assert plan["fleet.lane_fill"] == pytest.approx((4 + 8) / (2 * 8))
    assert plan["fleet.module_fill"] == pytest.approx((2 + 8) / (2 * 8))
    fast = layers.fleet_plan(_units(spec, kernel="fast"), None)
    assert fast["kernel.batch.calls"] == 0 and fast["fleet.lane_fill"] == 0.0


def test_service_fleet_plan_follows_the_lease_carving():
    from repro.scenarios.plan import carve_leases

    units = _units(paper_cells_spec(100, 1))
    leases = carve_leases(units, range(len(units)), workers=2)
    plan = layers.fleet_plan(units, 2)
    # One call per pack group (buffered or not) present in each lease.
    calls = sum(
        len({units[position].config.buffered for position in lease})
        for lease in leases
    )
    assert plan["kernel.batch.calls"] == calls > 2


# ----------------------------------------------------------------------
# Output checks and accuracy
# ----------------------------------------------------------------------
def _line(index, m, r, ebw, buffered=False, seed=1985, cycles=1000):
    buffering = "buffered(depth=1)" if buffered else "unbuffered"
    return (
        f"unit {index:06d} n=8 m={m} r={r} p=1 priority=processors "
        f"{buffering} tie=random workload=uniform method=simulation "
        f"seed={seed} cycles={cycles} ebw={ebw:.6f} "
        f"putil={ebw / 8:.6f} butil=0.900000"
    )


def test_mape_against_the_published_tables():
    from repro.experiments import paper_data

    table3a = paper_data.TABLE3A_SIMULATION[(4, 4)]
    table4 = paper_data.TABLE4_BUFFERED_SIMULATION[(8, 10)]
    lines = [
        # Two replications of one cell average to 2 % high.
        _line(0, 4, 4, table3a * 1.01),
        _line(1, 4, 4, table3a * 1.03),
        # A buffered cell read exactly.
        _line(2, 8, 10, table4, buffered=True),
        # No published cell: left out.
        _line(3, 5, 4, 3.0),
        "garbage",
    ]
    mape = outputs.ebw_mape_pct(lines, outputs.published_ebw())
    assert mape == pytest.approx(1.0)
    assert outputs.ebw_mape_pct([], outputs.published_ebw()) == 0.0


def _expected(count, buffered=False, r=4):
    config = SimpleNamespace(
        processors=8,
        memories=4,
        memory_cycle_ratio=r,
        buffered=buffered,
        request_probability=1.0,
    )
    return [
        outputs.unit_expectation(
            SimpleNamespace(
                index=index,
                config=config,
                seed=1985,
                cycles=1000,
                collects_latency=False,
            )
        )
        for index in range(count)
    ]


def test_corrupted_line_counts_as_one_failed_unit():
    lines = [_line(i, 4, 4, 2.8) for i in range(4)]
    expected = _expected(4)
    assert outputs.failed_units(lines, expected) == 0
    corrupted = list(lines)
    corrupted[2] = corrupted[2].replace("ebw=2.800000", "ebw=2.8O0000")
    assert outputs.failed_units(corrupted, expected) == 1
    # Missing, out-of-order and out-of-range lines fail too.
    assert outputs.failed_units(lines[:3], expected) == 1
    assert outputs.failed_units([lines[1], lines[0]] + lines[2:], expected) == 2
    assert outputs.failed_units(lines[:3] + [_line(3, 4, 4, 9.0)], expected) == 1
    # Byte-identity and pinned digests catch a plausible wrong value.
    wrong = lines[:3] + [_line(3, 4, 4, 2.7)]
    assert outputs.failed_units(wrong, expected, reference=lines) == 1
    digests = [outputs.line_digest(line) for line in lines]
    assert outputs.failed_units(wrong, expected, digests=digests) == 1


def test_buffered_ebw_may_exceed_the_module_count():
    # m = 4, r = 8 buffered: modules free before the response, so the
    # long-run ceiling is min(8, 5, 4 * 10 / 8) = 5, not m = 4.
    assert outputs.ebw_ceiling(8, 4, 8, 10**9) == pytest.approx(5.0)
    expected = _expected(1, buffered=True, r=8)
    assert outputs.failed_units([_line(0, 4, 8, 4.2, buffered=True)], expected) == 0
    assert outputs.failed_units([_line(0, 4, 8, 5.2, buffered=True)], expected) == 1


def test_short_windows_may_read_more_than_full_utilisation():
    # Requests in flight when the window opens complete inside it: over
    # 100 cycles with r = 24, 8 processors may complete 8.06 processor
    # cycles' worth of requests (putil 1.0075; seen at m = 16).
    assert outputs.ebw_ceiling(8, 16, 24, 100) == pytest.approx(8 + 8 * 26 / 100)
    config = SimpleNamespace(
        processors=8,
        memories=16,
        memory_cycle_ratio=24,
        buffered=True,
        request_probability=1.0,
    )
    unit = SimpleNamespace(
        index=0, config=config, seed=1, cycles=100, collects_latency=False
    )
    expected = [outputs.unit_expectation(unit)]
    line = (
        "unit 000000 n=8 m=16 r=24 p=1 priority=processors "
        "buffered(depth=1) tie=random workload=uniform method=simulation "
        "seed=1 cycles=100 ebw={ebw} putil={putil} butil=0.610000"
    )
    ok = line.format(ebw="8.060000", putil="1.007500")
    assert outputs.failed_units([ok], expected) == 0
    too_high = line.format(ebw="8.060000", putil="1.300000")
    assert outputs.failed_units([too_high], expected) == 1


def test_nonzero_exit_fails_every_unit(tmp_path, monkeypatch):
    def crashed(argv, env, workdir, timeout):
        return measure.Invocation(1.0, 20.0, 2, "", "error: boom\n")

    workload = WORKLOADS["paper-fast"]
    bench = run.Run(workload, 1985, 1.0, ROOT, tmp_path)
    monkeypatch.setattr(measure, "invoke", crashed)
    bench.timed()
    assert (bench.failed, bench.attempted) == (112, 112)
    assert bench.rates == [(0.0, 0.0)]


# ----------------------------------------------------------------------
# The benchmark definition
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_harness():
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in definition["workloads"]] == list(WORKLOADS)
    assert {
        metric["name"]: metric["unit"] for metric in definition["end_to_end"]
    } == run.END_TO_END_UNITS
    assert [
        (metric["name"], metric["unit"]) for metric in definition["per_layer"]
    ] == list(layers.METRICS)


def test_generated_spec_covers_every_published_cell():
    spec = paper_cells_spec(100, 1)
    cells = spec["grid"][0]["values"]
    assert len(cells) == len(outputs.published_ebw()) == 112
    assert {tuple(cell) for cell in cells} == set(outputs.published_ebw())


def test_workload_arguments_pass_the_seed_through():
    workload = Workload(
        name="w",
        why="",
        scenario="figure2",
        cycles=500,
        kernel="batch",
        reference="serial",
        workers=2,
    )
    args = workload.cli_args("figure2", 7)
    assert args[:2] == ["scenario", "figure2"]
    assert args[args.index("--seed") + 1] == "7"
    assert "--workers" in args
    assert "--workers" not in workload.cli_args("figure2", 7, workers=False)
    assert WORKLOADS["paper-fast"].scenario == PAPER_SPEC
