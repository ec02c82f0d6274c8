"""Unit tests for the sweep service: protocol, worker, coordinator, CLI."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError, ExperimentError
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec
from repro.service import protocol
from repro.service.coordinator import Coordinator
from repro.service.transports import LoopbackTransport
from repro.service.worker import WorkerSession


def tiny_spec(**overrides) -> ScenarioSpec:
    kwargs = dict(
        name="service-unit-test",
        base={"processors": 2, "memories": 2, "memory_cycle_ratio": 2},
        grid=(GridAxis("request_probability", (0.5, 1.0)),),
        cycles=60,
        plan=ReplicationPlan(replications=2, base_seed=3),
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = protocol.lease_message(3, [0, 4, 2])
        line = protocol.encode_message(message)
        assert "\n" not in line
        assert protocol.decode_message(line) == message
        assert message["positions"] == [0, 4, 2]

    def test_decode_rejects_non_json(self):
        with pytest.raises(ConfigurationError, match="undecodable"):
            protocol.decode_message("{torn line")

    def test_decode_rejects_untyped_objects(self):
        with pytest.raises(ConfigurationError, match="'type'"):
            protocol.decode_message('{"a": 1}')

    def test_decode_rejects_unknown_types(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            protocol.decode_message('{"type": "gossip"}')

    def test_lease_message_validates_positions(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            protocol.lease_message(0, [])
        with pytest.raises(ConfigurationError, match="non-negative"):
            protocol.lease_message(0, [-1, 4])
        with pytest.raises(ConfigurationError, match="unique"):
            protocol.lease_message(0, [3, 3])

    def test_spec_survives_the_wire_exactly(self):
        spec = tiny_spec(metrics=("latency",), warmup=25)
        rebuilt = protocol.spec_from_wire(protocol.spec_to_mapping(spec))
        assert rebuilt == spec
        # Determinism of the compiler then guarantees identical units.
        assert compile_scenario(rebuilt) == compile_scenario(spec)

    def test_hello_message_carries_shard_and_cache_config(self):
        message = protocol.hello_message(
            tiny_spec(),
            "fast",
            "numpy",
            shard=(2, 3),
            cache_dir="/tmp/x",
            cache_enabled=False,
        )
        assert message["shard"] == [2, 3]
        assert message["cache"] == {"enabled": False, "dir": "/tmp/x"}
        assert message["protocol"] == protocol.PROTOCOL_VERSION


class TestWorkerSession:
    def test_lease_before_hello_is_rejected(self):
        session = WorkerSession(lambda message: None)
        with pytest.raises(ConfigurationError, match="before hello"):
            session.handle(protocol.lease_message(0, [0]))

    def test_protocol_version_mismatch_is_rejected(self):
        session = WorkerSession(lambda message: None)
        hello = protocol.hello_message(tiny_spec(), "reference", "numpy")
        hello["protocol"] = 999
        with pytest.raises(ConfigurationError, match="version mismatch"):
            session.handle(hello)

    def test_out_of_range_lease_is_rejected(self):
        outbox = []
        session = WorkerSession(outbox.append)
        session.handle(
            protocol.hello_message(
                tiny_spec(), "reference", "numpy", cache_enabled=False
            )
        )
        units = outbox[-1]["units"]
        with pytest.raises(ConfigurationError, match="outside"):
            session.handle(protocol.lease_message(0, [0, units]))

    def test_lease_streams_one_result_per_position_then_done(self):
        outbox = []
        session = WorkerSession(outbox.append)
        session.handle(
            protocol.hello_message(
                tiny_spec(), "reference", "numpy", cache_enabled=False
            )
        )
        outbox.clear()
        session.handle(protocol.lease_message(7, [1, 2]))
        kinds = [message["type"] for message in outbox]
        assert kinds == ["result", "result", "lease_done"]
        assert [m["position"] for m in outbox[:2]] == [1, 2]
        assert all(m["lease_id"] == 7 for m in outbox)
        assert {"ebw", "processor_utilization", "bus_utilization"} <= set(
            outbox[0]["metrics"]
        )

    def test_shutdown_ends_the_session(self):
        session = WorkerSession(lambda message: None)
        assert session.handle(protocol.shutdown_message()) is False


class _StubTransport:
    """A scriptable worker for coordinator edge cases."""

    def __init__(self, name, ready_units, complete_leases=True):
        self.name = name
        self._outbox = []
        self._ready_units = ready_units
        self._complete = complete_leases
        self._dead = False

    def send(self, message):
        if self._dead:
            return
        if message["type"] == "hello":
            self._outbox.append(
                protocol.ready_message(self._ready_units, 999)
            )
        elif message["type"] == "lease":
            # A protocol-violating worker: declares the lease done
            # without streaming any results.
            if self._complete:
                self._outbox.append(
                    protocol.lease_done_message(message["lease_id"])
                )

    def receive(self):
        return self._outbox.pop(0) if self._outbox else None

    def alive(self):
        return not self._dead or bool(self._outbox)

    def close(self):
        self._dead = True


class TestCoordinator:
    def test_needs_at_least_one_worker(self):
        with pytest.raises(ExperimentError, match="at least one worker"):
            Coordinator(tiny_spec(), [])

    @pytest.mark.parametrize(
        "deadline", [-5.0, 0.0, float("nan"), float("inf")]
    )
    def test_rejects_a_deadline_that_is_not_positive_and_finite(
        self, deadline
    ):
        # A negative deadline would retire every worker before its
        # handshake; NaN would silently disable lease expiry.
        with pytest.raises(ExperimentError, match="deadline"):
            Coordinator(
                tiny_spec(), [LoopbackTransport("a")], deadline=deadline
            )

    def test_unit_count_mismatch_is_version_skew(self):
        spec = tiny_spec()
        wrong = len(compile_scenario(spec)) + 5
        coordinator = Coordinator(
            spec,
            [_StubTransport("skewed", wrong)],
            cache_enabled=False,
        )
        with pytest.raises(ExperimentError, match="different code versions"):
            coordinator.run()

    def test_all_workers_dying_aborts_with_outstanding_count(self):
        coordinator = Coordinator(
            tiny_spec(),
            [LoopbackTransport("dies", fail_after_results=1)],
            lease_size=2,
            cache_enabled=False,
        )
        with pytest.raises(ExperimentError, match="workers failed"):
            coordinator.run()

    def test_retry_budget_bounds_protocol_violators(self):
        spec = tiny_spec()
        coordinator = Coordinator(
            spec,
            [_StubTransport("liar", len(compile_scenario(spec)))],
            lease_size=2,
            max_retries=2,
            cache_enabled=False,
        )
        with pytest.raises(ExperimentError, match="lease retries"):
            coordinator.run()

    def test_batch_leases_are_carved_against_the_lease_deadline(self):
        import dataclasses

        from repro.scenarios.registry import get_scenario

        spec = dataclasses.replace(
            get_scenario("figure2"), cycles=1_000_000
        )
        transports = [LoopbackTransport("a"), LoopbackTransport("b")]
        plans = {
            deadline: Coordinator(
                spec, transports, kernel="batch", deadline=deadline
            )._plan_leases(list(range(54)))
            for deadline in (300.0, 3000.0)
        }
        assert len(plans[3000.0]) == 2
        assert len(plans[300.0]) == 4

    def test_single_loopback_worker_completes_everything(self):
        coordinator = Coordinator(
            tiny_spec(),
            [LoopbackTransport("solo")],
            cache_enabled=False,
        )
        results = coordinator.run()
        assert [r.unit.index for r in results] == list(
            range(len(coordinator.units))
        )

    def test_workers_share_the_result_store(self, tmp_path):
        """A second sweep over a warm shared store is served entirely
        from the coordinator's pre-lease probe - zero units dispatched."""
        store = tmp_path / "store"
        for expect_cached in (False, True):
            coordinator = Coordinator(
                tiny_spec(),
                [LoopbackTransport("w0"), LoopbackTransport("w1")],
                cache_enabled=True,
                cache_dir=str(store),
            )
            results = coordinator.run()
            assert all(r.cached == expect_cached for r in results)
            if expect_cached:
                assert coordinator.units_dispatched == 0
                assert coordinator.leases_issued == 0
                assert coordinator.probe_hits == len(coordinator.units)
            else:
                assert coordinator.units_dispatched == len(coordinator.units)
                assert coordinator.probe_hits == 0
        # The store used the sharded concurrent layout throughout.
        assert list(store.glob("*.json")) == []
        assert list(store.glob("[0-9a-f][0-9a-f]/*.json"))

    def test_unknown_plan_mode_is_rejected(self):
        with pytest.raises(ExperimentError, match="plan mode"):
            Coordinator(
                tiny_spec(),
                [LoopbackTransport("solo")],
                plan_mode="psychic",
            )

    def test_contiguous_plan_mode_matches_affine_bytes(self):
        from repro.scenarios.execute import render_report

        reports = []
        for plan_mode in ("affine", "contiguous"):
            coordinator = Coordinator(
                tiny_spec(),
                [LoopbackTransport("solo")],
                plan_mode=plan_mode,
                cache_enabled=False,
            )
            reports.append(render_report(coordinator.run()))
        assert reports[0] == reports[1]


class TestServiceCli:
    def test_scenario_workers_rejects_backend_without_batch(self, capsys):
        from repro.scenarios.cli import main as scenario_main

        with pytest.raises(SystemExit):
            scenario_main(["figure2", "--workers", "2", "--backend", "numba"])

    def test_sweep_work_rejects_bad_exit_after(self, capsys):
        from repro.service.cli import work_main

        with pytest.raises(SystemExit):
            work_main(["--exit-after", "0"])

    def test_scenario_workers_unknown_scenario_is_error(self, capsys):
        from repro.scenarios.cli import main as scenario_main

        assert scenario_main(["no-such-scenario", "--workers", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--deadline", "-5"],
            ["--deadline", "0"],
            ["--deadline", "nan"],
            ["--deadline", "inf"],
            ["--chaos-kill-after", "0"],
        ],
        ids=[
            "deadline-negative",
            "deadline-zero",
            "deadline-nan",
            "deadline-inf",
            "chaos-kill-after-zero",
        ],
    )
    def test_scenario_rejects_bad_service_values(self, capsys, argv):
        from repro.scenarios.cli import main as scenario_main

        with pytest.raises(SystemExit) as excinfo:
            scenario_main(["figure2", "--workers", "1", "--no-cache", *argv])
        assert excinfo.value.code == 2
        assert f"{argv[0]} must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["--deadline", "30"], ["--chaos-kill-after", "1"]]
    )
    def test_scenario_service_flags_require_workers(self, capsys, argv):
        from repro.scenarios.cli import main as scenario_main

        with pytest.raises(SystemExit):
            scenario_main(["figure2", *argv])
        assert f"{argv[0]} requires --workers" in capsys.readouterr().err

    def test_scenario_rejects_jobs_with_workers(self, capsys):
        from repro.scenarios.cli import main as scenario_main

        with pytest.raises(SystemExit):
            scenario_main(
                ["figure2", "--jobs", "2", "--workers", "2"]
            )

    def test_scenario_rejects_nonpositive_workers(self, capsys):
        from repro.scenarios.cli import main as scenario_main

        with pytest.raises(SystemExit):
            scenario_main(["figure2", "--workers", "0"])

    def test_scenario_rejects_lease_size_without_workers(self, capsys):
        from repro.scenarios.cli import main as scenario_main

        with pytest.raises(SystemExit):
            scenario_main(["figure2", "--lease-size", "2"])
        assert "requires --workers" in capsys.readouterr().err

    def test_scenario_rejects_nonpositive_lease_size(self, capsys):
        from repro.scenarios.cli import main as scenario_main

        with pytest.raises(SystemExit):
            scenario_main(["figure2", "--workers", "2", "--lease-size", "0"])
