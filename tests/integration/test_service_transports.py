"""The sweep service's real local transports, driven in-process.

``scenario --workers N`` forks its workers when it safely can and
spawns ``sweep-work`` subprocesses otherwise, so both transports carry
production traffic.  These tests build a :class:`Coordinator` over each
one directly and byte-compare against serial :func:`run_units`, script
forked workers that die or garble their output through the
:class:`ForkTransport` ``target`` seam, and check that a service run
leaves no child unreaped, no descriptor open and no stdout text
duplicated.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
import time
import types

import pytest

from repro.core.errors import ExperimentError
from repro.scenarios.cli import apply_spec_overrides
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.execute import render_report, run_units
from repro.scenarios.registry import load_scenario
from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec
from repro.service import coordinator as coordinator_module
from repro.service import transports
from repro.service.coordinator import Coordinator, run_service
from repro.service.transports import ForkTransport, SubprocessTransport
from repro.service.worker import serve_stdio

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="forked workers need os.fork"
)


def figure2(cycles: int = 300) -> ScenarioSpec:
    return apply_spec_overrides(load_scenario("figure2"), cycles=cycles)


def tiny_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="transport-test",
        base={"processors": 2, "memories": 2, "memory_cycle_ratio": 2},
        grid=(GridAxis("request_probability", (0.5, 1.0)),),
        cycles=60,
        plan=ReplicationPlan(replications=2, base_seed=3),
    )


def serial_report(spec: ScenarioSpec, kernel: str = "reference") -> str:
    return render_report(run_units(compile_scenario(spec, kernel=kernel)))


def served_report(spec, workers, kernel="reference", **options) -> str:
    coordinator = Coordinator(
        spec, workers, kernel=kernel, cache_enabled=False, **options
    )
    return render_report(coordinator.run())


def _needs_numpy(kernel: str) -> None:
    if kernel == "batch":
        pytest.importorskip("numpy")


# ---------------------------------------------------------------------------
# Byte identity over both real transports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", ["fast", "batch"])
def test_forked_workers_match_serial_bytes(kernel):
    _needs_numpy(kernel)
    spec = figure2()
    workers = [ForkTransport(name="fork-0"), ForkTransport(name="fork-1")]
    assert served_report(spec, workers, kernel) == serial_report(spec, kernel)


@pytest.mark.parametrize("kernel", ["fast", "batch"])
def test_spawned_workers_match_serial_bytes(kernel):
    _needs_numpy(kernel)
    spec = figure2()
    workers = [
        SubprocessTransport(name="spawn-0"),
        SubprocessTransport(name="spawn-1"),
    ]
    assert served_report(spec, workers, kernel) == serial_report(spec, kernel)


# ---------------------------------------------------------------------------
# Scripted worker deaths (ForkTransport's target seam)
# ---------------------------------------------------------------------------


def exit_at_once(stdin, stdout, exit_after=None) -> int:
    """A worker that dies before answering ``hello``."""
    return 3


class _MangleFirstResult:
    """A worker stdout that hands its first ``result`` line to
    ``mangle`` instead of writing it, then calls ``after``."""

    def __init__(self, stream, mangle, after) -> None:
        self._stream = stream
        self._mangle = mangle
        self._after = after

    def write(self, text: str) -> None:
        if self._mangle is None or '"type":"result"' not in text:
            self._stream.write(text)
            return
        mangle, self._mangle = self._mangle, None
        mangle(self._stream, text)
        self._stream.flush()
        self._after()

    def flush(self) -> None:
        self._stream.flush()


def garble(stream, line: str) -> None:
    stream.write("{this is not json\n")


def truncate_and_die(stream, line: str) -> None:
    stream.write(line[: len(line) // 2])
    stream.flush()
    os._exit(17)


def gated_pair(mangle) -> list[ForkTransport]:
    """A mangling worker and a healthy one that holds its ``ready``
    back until the first has mangled a result, so the mangled lease is
    always the first one issued."""
    gate_read, gate_write = os.pipe()

    def mangling(stdin, stdout, exit_after=None) -> int:
        os.close(gate_read)
        stdout = _MangleFirstResult(
            stdout, mangle, lambda: os.close(gate_write)
        )
        return serve_stdio(stdin, stdout, exit_after)

    def healthy(stdin, stdout, exit_after=None) -> int:
        os.close(gate_write)
        os.read(gate_read, 1)  # EOF once the mangling worker closes it
        return serve_stdio(stdin, stdout, exit_after)

    try:
        return [
            ForkTransport(name="mangler", target=mangling),
            ForkTransport(name="healthy", target=healthy),
        ]
    finally:
        os.close(gate_read)
        os.close(gate_write)


def test_worker_dying_before_ready_is_retired():
    spec = figure2()
    workers = [
        ForkTransport(name="dies", target=exit_at_once),
        ForkTransport(name="survives"),
    ]
    assert served_report(spec, workers, "fast") == serial_report(spec, "fast")
    assert [worker.returncode for worker in workers] == [3, 0]


def test_every_worker_dying_before_ready_is_an_error_not_a_hang():
    coordinator = Coordinator(
        tiny_spec(),
        [
            ForkTransport(name="dies-0", target=exit_at_once),
            ForkTransport(name="dies-1", target=exit_at_once),
        ],
        cache_enabled=False,
        deadline=60.0,
    )
    with pytest.raises(ExperimentError, match="all sweep workers failed"):
        coordinator.run()


@pytest.mark.parametrize(
    "mangle", [garble, truncate_and_die], ids=["garbled", "partial-line"]
)
def test_undecodable_worker_output_retires_it_and_requeues(mangle, capfd):
    spec = figure2()
    workers = gated_pair(mangle)
    coordinator = Coordinator(
        spec, workers, kernel="fast", cache_enabled=False, lease_size=4
    )
    assert render_report(coordinator.run()) == serial_report(spec, "fast")
    assert coordinator.leases_retried >= 1
    assert "worker mangler failed: undecodable worker output" in (
        capfd.readouterr().err
    )


def test_target_exception_prints_a_traceback_and_exits(capfd):
    def explode(stdin, stdout, exit_after=None) -> int:
        raise RuntimeError("scripted worker failure")

    worker = ForkTransport(name="explodes", target=explode)
    try:
        deadline = time.monotonic() + 30
        while worker.alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not worker.alive()
        assert worker.receive() is None
    finally:
        worker.close()
    assert worker.returncode == 1
    err = capfd.readouterr().err
    assert "Traceback" in err and "scripted worker failure" in err


# ---------------------------------------------------------------------------
# Process hygiene and the fork/spawn choice
# ---------------------------------------------------------------------------


def test_closing_a_worker_ends_it_by_eof_while_a_sibling_lives():
    """Each child closes its siblings' pipe ends; otherwise a later
    sibling would hold this worker's stdin open, and close() could only
    end it with SIGKILL after the timeout."""
    first = ForkTransport(name="first")
    second = ForkTransport(name="second")
    try:
        first.close()
        assert first.returncode == 0
        assert second.alive()
    finally:
        second.close()
    assert second.returncode == 0


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


needs_proc_fds = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_proc_fds
def test_run_service_reaps_every_worker_and_closes_every_fd():
    spec = tiny_spec()
    before = _open_fds()
    report = render_report(run_service(spec, workers=2, cache_enabled=False))
    assert _open_fds() == before
    assert_no_child_left()
    assert report == serial_report(spec)


@needs_proc_fds
def test_failed_coordinator_set_up_closes_the_started_workers():
    before = _open_fds()
    with pytest.raises(ExperimentError, match="plan mode"):
        run_service(tiny_spec(), workers=2, plan_mode="psychic")
    assert _open_fds() == before
    assert_no_child_left()


@needs_proc_fds
def test_run_service_spawns_while_another_thread_runs(monkeypatch):
    spawned: list[str] = []

    class SpyTransport(SubprocessTransport):
        def __init__(self, argv=None, name="worker") -> None:
            spawned.append(name)
            super().__init__(argv, name=name)

    def no_fork(*args, **kwargs):
        raise AssertionError("forked while another thread was running")

    monkeypatch.setattr(transports, "SubprocessTransport", SpyTransport)
    monkeypatch.setattr(transports, "ForkTransport", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, daemon=True)
    thread.start()
    try:
        spec = tiny_spec()
        before = _open_fds()
        results = run_service(spec, workers=2, cache_enabled=False)
        assert _open_fds() == before
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert spawned == ["worker-0", "worker-1"]
    assert_no_child_left()
    assert render_report(results) == serial_report(spec)


def test_a_launched_numba_thread_pool_forbids_forking(monkeypatch):
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    monkeypatch.setattr(sys, "platform", "linux")
    pool = types.SimpleNamespace(_is_initialized=False)
    monkeypatch.setitem(sys.modules, "numba.np.ufunc.parallel", pool)
    assert coordinator_module._can_fork()
    pool._is_initialized = True
    assert not coordinator_module._can_fork()


def test_unflushed_output_is_written_once_by_a_forking_coordinator():
    """In a fresh single-threaded interpreter the service forks; text
    still sitting in the parent's stdout or stderr buffer must not be
    written a second time by a child."""
    script = textwrap.dedent(
        """
        import sys

        from repro.scenarios.spec import GridAxis, ReplicationPlan, ScenarioSpec
        from repro.service import transports
        from repro.service.coordinator import run_service

        def no_spawn(*args, **kwargs):
            raise AssertionError("spawned where forking was safe")

        transports.SubprocessTransport = no_spawn
        spec = ScenarioSpec(
            name="unflushed",
            base={"processors": 2, "memories": 2, "memory_cycle_ratio": 2},
            grid=(GridAxis("request_probability", (0.5, 1.0)),),
            cycles=60,
            plan=ReplicationPlan(replications=2, base_seed=3),
        )
        print("unflushed-marker")
        sys.stderr.write("partial-stderr-line")
        results = run_service(spec, workers=2, cache_enabled=False)
        print(len(results))
        """
    )
    process = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert process.returncode == 0, process.stderr
    assert process.stdout == "unflushed-marker\n4\n"
    assert process.stderr.count("partial-stderr-line") == 1
    assert "[sweep]" not in process.stderr
