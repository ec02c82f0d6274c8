"""The worker side of the sweep service.

:class:`WorkerSession` is the transport-agnostic protocol machine: feed
it decoded messages, and it emits replies through the ``send`` callable
it was constructed with.  :func:`serve_stdio` wires a session to
stdin/stdout as newline-delimited JSON.  It is what ``repro-experiments
sweep-work`` runs, and what a local worker forked by the coordinator
runs on its pipes; ``ssh host repro-experiments sweep-work`` works
unchanged, which is what keeps the lease protocol transport-agnostic.

A worker compiles the scenario it receives in ``hello`` locally -
compilation is deterministic, so coordinator and worker hold identical
unit lists and leases can name positions instead of shipping unit
objects.  Leased blocks execute through the ordinary
:func:`repro.scenarios.execute.run_units` path, so workers get fleet
aggregation, per-unit caching against the shared concurrent store, and
the exact evaluator byte behaviour of a serial run for free.  Results
stream back one message per unit *as each block completes*, letting the
coordinator detect stragglers at block granularity.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Callable, Mapping, Sequence

from repro.core.errors import ConfigurationError, ReproError
from repro.engine.base import EvalResult
from repro.scenarios.compiler import WorkUnit, compile_scenario, shard_units
from repro.service import protocol


def unit_metrics(result) -> dict[str, Any]:
    """The cacheable metrics payload of one executed unit result.

    Inverts :meth:`repro.scenarios.execute.UnitResult` back into the
    evaluator's JSON payload; every field round-trips exactly (floats
    through JSON, latency summaries through their rational encoding),
    so a payload that crossed the wire renders byte-identical lines.
    """
    return EvalResult(
        ebw=result.ebw,
        processor_utilization=result.processor_utilization,
        bus_utilization=result.bus_utilization,
        latency=result.latency,
        littles=result.littles,
    ).payload()


class WorkerSession:
    """Protocol state machine for one worker, independent of transport.

    ``send`` delivers one encoded-able message mapping to the
    coordinator; ``result_hook``, when given, runs after each result
    message has been sent (the crash-injection seam: the stdio server
    uses it to implement ``--exit-after``, tests use it to simulate a
    worker dying mid-lease).
    """

    def __init__(
        self,
        send: Callable[[Mapping[str, Any]], None],
        result_hook: Callable[[int], None] | None = None,
    ) -> None:
        self._send = send
        self._result_hook = result_hook
        self._units: Sequence[WorkUnit] | None = None
        self._cache = None
        self._results_sent = 0

    # ------------------------------------------------------------------
    def handle(self, message: Mapping[str, Any]) -> bool:
        """Process one decoded message; ``False`` ends the session."""
        kind = message.get("type")
        if kind == "hello":
            self._handle_hello(message)
            return True
        if kind == "lease":
            self._handle_lease(message)
            return True
        if kind == "shutdown":
            return False
        raise ConfigurationError(
            f"worker cannot handle protocol message type {kind!r}"
        )

    # ------------------------------------------------------------------
    def _handle_hello(self, message: Mapping[str, Any]) -> None:
        if message.get("protocol") != protocol.PROTOCOL_VERSION:
            raise ConfigurationError(
                f"protocol version mismatch: coordinator speaks "
                f"{message.get('protocol')!r}, worker speaks "
                f"{protocol.PROTOCOL_VERSION}"
            )
        spec = protocol.spec_from_wire(message["spec"])
        units: Sequence[WorkUnit] = compile_scenario(
            spec,
            kernel=message.get("kernel", "reference"),
            backend=message.get("backend", "numpy"),
        )
        shard = message.get("shard")
        if shard is not None:
            shard_index, shard_count = shard
            units = shard_units(units, shard_index, shard_count)
        self._units = units
        cache_config = message.get("cache") or {}
        if cache_config.get("enabled", False):
            from repro.parallel.cache import ResultCache

            try:
                self._cache = ResultCache(cache_dir=cache_config.get("dir"))
            except (ConfigurationError, OSError) as exc:
                # A broken cache location must never block the sweep;
                # the worker just computes everything.
                print(
                    f"[sweep-work {os.getpid()}] caching disabled: {exc}",
                    file=sys.stderr,
                )
        self._send(protocol.ready_message(len(units), os.getpid()))

    def _handle_lease(self, message: Mapping[str, Any]) -> None:
        if self._units is None:
            raise ConfigurationError("lease received before hello")
        from repro.scenarios.execute import run_units

        lease_id = message["lease_id"]
        positions = list(message["positions"])
        bad = [p for p in positions if not 0 <= p < len(self._units)]
        if not positions or bad:
            raise ConfigurationError(
                f"lease positions {bad or positions!r} outside compiled "
                f"unit list (0..{len(self._units)})"
            )
        block = [self._units[position] for position in positions]
        results = run_units(block, jobs=1, cache=self._cache)
        for position, result in zip(positions, results):
            self._send(
                protocol.result_message(
                    lease_id,
                    position,
                    result.unit.index,
                    unit_metrics(result),
                    result.cached,
                )
            )
            self._results_sent += 1
            if self._result_hook is not None:
                self._result_hook(self._results_sent)
        self._send(protocol.lease_done_message(lease_id))


def serve_stdio(
    stdin=None,
    stdout=None,
    exit_after: int | None = None,
) -> int:
    """Run one worker session over newline-delimited JSON on stdio.

    ``exit_after`` is the crash-injection hook behind ``sweep-work
    --exit-after N``: the process dies abruptly (``os._exit``, no
    cleanup, mid-lease) after streaming its N-th result, which is how
    the test suite and the CI smoke job prove coordinator retry without
    real crashes.  Returns the process exit code.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    def send(message: Mapping[str, Any]) -> None:
        stdout.write(protocol.encode_message(message) + "\n")
        stdout.flush()

    def crash_hook(results_sent: int) -> None:
        if exit_after is not None and results_sent >= exit_after:
            # Simulated kill: no flush-on-exit, no lease_done, no
            # shutdown handshake - exactly what SIGKILL would leave.
            os._exit(17)

    session = WorkerSession(send, result_hook=crash_hook)
    try:
        for line in stdin:
            if not line.strip():
                continue
            message = protocol.decode_message(line)
            if not session.handle(message):
                return 0
    except ReproError as exc:
        send(protocol.error_message(str(exc)))
        print(f"[sweep-work {os.getpid()}] error: {exc}", file=sys.stderr)
        return 2
    # EOF without shutdown: the coordinator went away; exit quietly.
    return 0
