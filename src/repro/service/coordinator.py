"""The sweep coordinator: compile once, plan, lease, merge exactly.

The coordinator owns the canonical compiled unit list and drives any
number of :class:`~repro.service.transports.WorkerTransport` endpoints
through the lease protocol (:mod:`repro.service.protocol`):

* before any dispatch, a **pre-lease cache probe**
  (:func:`repro.scenarios.plan.probe_cached`) resolves every
  already-cached position against the shared store, so warm or resumed
  sweeps never ship cached work to workers (a fully-warm sweep
  dispatches zero units and skips the handshake entirely);
* the remaining work is cut by the **sweep planner**
  (:func:`repro.scenarios.plan.carve_leases`) into position-list
  leases: fleet-affine grouping keeps every batch unit of one pack
  group in one lease (one padded fleet call on the worker, split only
  when otherwise-idle workers shorten the estimated makespan, since a
  batch call's fixed per-cycle cost dominates small fleets, or when
  the group would be estimated to outlast a quarter of the lease
  deadline), while
  exact-kernel and analytic leases are sized by estimated cost instead
  of unit count;
* every lease carries a **deadline**; a lease whose results stop
  arriving in time marks its worker failed, and the unfinished
  positions are re-leased to healthy workers (per-position retry
  budget, so a poisoned unit cannot loop forever);
* results are recorded **idempotently by position** - duplicates from a
  straggler that answered after being retired are accepted and ignored,
  which is safe because unit evaluation is deterministic: any two
  answers for one position are byte-identical;
* the merged outcome is the exact :class:`UnitResult` list a serial
  :func:`repro.scenarios.execute.run_units` call would produce -
  metrics payloads round-trip exactly through JSON, so rendered report
  lines are byte-identical whatever the worker count, lease sizing or
  mid-run crash history (property-tested in
  ``tests/properties/test_service_merge.py``).
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
import threading
import time
from typing import Any, Callable, Sequence

from repro.core.errors import ConfigurationError, ExperimentError
from repro.scenarios.compiler import compile_scenario, shard_units
from repro.scenarios.execute import UnitResult, result_from_metrics
from repro.scenarios.spec import ScenarioSpec
from repro.service import protocol
from repro.service.transports import WorkerTransport

DEFAULT_DEADLINE = 300.0
"""Seconds a lease may run before its worker is declared failed."""

DEFAULT_MAX_RETRIES = 3
"""Times one position may be re-leased before the sweep aborts."""

PLAN_MODES = ("affine", "contiguous")
"""``affine`` groups leases by lockstep fleet key (the planner
default); ``contiguous`` keeps the historical dense-range carving (the
benchmark's control arm)."""


@dataclasses.dataclass
class _Lease:
    lease_id: int
    worker: int
    positions: tuple[int, ...]
    issued: float
    remaining: set[int]
    active: bool = True


@dataclasses.dataclass
class _Worker:
    transport: WorkerTransport
    state: str = "new"  # new -> ready -> dead
    lease_id: int | None = None


class Coordinator:
    """Drive one compiled scenario across a set of worker transports."""

    def __init__(
        self,
        spec: ScenarioSpec,
        transports: Sequence[WorkerTransport],
        kernel: str = "reference",
        backend: str = "numpy",
        shard: tuple[int, int] | None = None,
        lease_size: int | None = None,
        plan_mode: str = "affine",
        deadline: float = DEFAULT_DEADLINE,
        max_retries: int = DEFAULT_MAX_RETRIES,
        cache_enabled: bool = True,
        cache_dir: str | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        poll_interval: float = 0.02,
    ) -> None:
        if not transports:
            raise ExperimentError("the sweep service needs at least one worker")
        if plan_mode not in PLAN_MODES:
            raise ExperimentError(
                f"unknown plan mode {plan_mode!r}; known modes: "
                f"{', '.join(PLAN_MODES)}"
            )
        units = compile_scenario(spec, kernel=kernel, backend=backend)
        if shard is not None:
            units = shard_units(units, shard[0], shard[1])
        self.spec = spec
        self.units = units
        self.kernel = kernel
        self.backend = backend
        self.shard = shard
        self.cache_enabled = cache_enabled
        self.cache_dir = cache_dir
        self.deadline = deadline
        self.max_retries = max_retries
        self.plan_mode = plan_mode
        if lease_size is not None and lease_size < 1:
            raise ExperimentError(
                f"lease size must be >= 1, got {lease_size}"
            )
        if not (math.isfinite(deadline) and deadline > 0):
            # NaN would compare false against every elapsed time and
            # silently disable lease expiry.
            raise ExperimentError(
                f"deadline must be a positive finite number of seconds, "
                f"got {deadline}"
            )
        self.lease_size = lease_size
        self._clock = clock
        self._sleep = sleep
        self._poll_interval = poll_interval
        self._workers = [_Worker(transport) for transport in transports]
        self._leases: dict[int, _Lease] = {}
        self._next_lease_id = 0
        self._queue: list[list[int]] = []
        self._metrics: dict[int, tuple[Any, bool]] = {}
        self._retries: dict[int, int] = {}
        self.leases_issued = 0
        self.leases_retried = 0
        self.units_dispatched = 0
        self.probe_hits = 0
        self.probe_stats = None

    # ------------------------------------------------------------------
    def run(self) -> list[UnitResult]:
        """Execute every unit and return results in canonical order."""
        self._started = self._clock()
        self._probe_cache()
        self._queue = self._plan_leases(
            [
                position
                for position in range(len(self.units))
                if position not in self._metrics
            ]
        )
        if self._queue:
            # A fully-warm sweep skips the handshake entirely: there is
            # nothing to dispatch, so workers need not compile.
            hello = protocol.hello_message(
                self.spec,
                self.kernel,
                self.backend,
                shard=self.shard,
                cache_dir=self.cache_dir,
                cache_enabled=self.cache_enabled,
            )
            for worker in self._workers:
                worker.transport.send(hello)
        try:
            while len(self._metrics) < len(self.units):
                progressed = self._drain_messages()
                self._retire_dead_workers()
                self._expire_leases()
                progressed |= self._assign_leases()
                if len(self._metrics) >= len(self.units):
                    break
                if not any(w.state != "dead" for w in self._workers):
                    missing = len(self.units) - len(self._metrics)
                    raise ExperimentError(
                        f"all sweep workers failed with {missing} "
                        f"unit(s) outstanding"
                    )
                if not progressed:
                    self._sleep(self._poll_interval)
        finally:
            for worker in self._workers:
                if worker.state != "dead":
                    worker.transport.send(protocol.shutdown_message())
                worker.transport.close()
        return [
            result_from_metrics(self.units[position], metrics, cached)
            for position, (metrics, cached) in sorted(self._metrics.items())
        ]

    # ------------------------------------------------------------------
    def _probe_cache(self) -> None:
        """Resolve already-cached positions before any dispatch.

        One batched probe against the shared store fills
        :attr:`_metrics` with every valid cached value, so those
        positions are never leased.  A malformed entry is skipped (the
        worker recomputes it); a broken cache location only disables
        the probe, never the sweep.
        """
        if not self.cache_enabled:
            return
        from repro.parallel.cache import ResultCache
        from repro.scenarios.plan import probe_cached

        try:
            cache = ResultCache(cache_dir=self.cache_dir)
        except (ConfigurationError, OSError) as exc:
            print(
                f"[sweep] pre-lease cache probe disabled: {exc}",
                file=sys.stderr,
            )
            return
        self.probe_stats = cache.stats
        found = probe_cached(self.units, range(len(self.units)), cache)
        for position, value in sorted(found.items()):
            try:
                result_from_metrics(self.units[position], value, True)
            except ExperimentError:
                continue
            self._metrics[position] = (value, True)
            self.probe_hits += 1

    def _plan_leases(self, positions: list[int]) -> list[list[int]]:
        """Cut the unresolved positions into the lease queue."""
        from repro.scenarios.plan import carve_leases

        return carve_leases(
            self.units,
            positions,
            workers=len(self._workers),
            lease_size=self.lease_size,
            affine=self.plan_mode == "affine",
            deadline=self.deadline,
        )

    # ------------------------------------------------------------------
    def _drain_messages(self) -> bool:
        progressed = False
        for worker_index, worker in enumerate(self._workers):
            while True:
                message = worker.transport.receive()
                if message is None:
                    break
                progressed = True
                self._handle_message(worker_index, message)
        return progressed

    def _handle_message(self, worker_index: int, message: dict) -> None:
        worker = self._workers[worker_index]
        kind = message["type"]
        if kind == "ready":
            if message["units"] != len(self.units):
                worker.state = "dead"
                raise ExperimentError(
                    f"worker {worker.transport.name} compiled "
                    f"{message['units']} units, coordinator compiled "
                    f"{len(self.units)}: coordinator and workers run "
                    f"different code versions"
                )
            if worker.state == "new":
                worker.state = "ready"
        elif kind == "result":
            position = message["position"]
            lease = self._leases.get(message["lease_id"])
            if lease is not None:
                lease.remaining.discard(position)
            if position not in self._metrics:
                # Deterministic evaluation makes duplicates (from
                # retried leases or retired stragglers) byte-identical,
                # so first-writer-wins is exact, not approximate.
                self._metrics[position] = (
                    message["metrics"],
                    bool(message.get("cached", False)),
                )
        elif kind == "lease_done":
            lease = self._leases.get(message["lease_id"])
            if lease is not None:
                lease.active = False
                if lease.remaining:
                    # A done lease with unstreamed positions is a
                    # protocol violation; requeue rather than hang.
                    self._requeue(lease)
            if worker.lease_id == message["lease_id"]:
                worker.lease_id = None
        elif kind == "error":
            print(
                f"[sweep] worker {worker.transport.name} failed: "
                f"{message.get('message', '')}",
                file=sys.stderr,
            )
            self._fail_worker(worker_index)
        # hello/lease/shutdown never travel worker -> coordinator;
        # decode_message already rejected unknown types.

    # ------------------------------------------------------------------
    def _retire_dead_workers(self) -> None:
        for worker_index, worker in enumerate(self._workers):
            if worker.state != "dead" and not worker.transport.alive():
                self._fail_worker(worker_index)

    def _expire_leases(self) -> None:
        now = self._clock()
        # The handshake honours the same deadline: a worker that never
        # answers hello must not stall the sweep.
        for worker_index, worker in enumerate(self._workers):
            if worker.state == "new" and now - self._started > self.deadline:
                print(
                    f"[sweep] worker {worker.transport.name} never "
                    f"finished its handshake within {self.deadline:g}s; "
                    f"retiring it",
                    file=sys.stderr,
                )
                self._fail_worker(worker_index)
        for lease in list(self._leases.values()):
            if not lease.active:
                continue
            if now - lease.issued > self.deadline:
                worker = self._workers[lease.worker]
                print(
                    f"[sweep] lease {lease.lease_id} "
                    f"({len(lease.positions)} position(s)) on worker "
                    f"{worker.transport.name} exceeded its "
                    f"{self.deadline:g}s deadline; retiring worker",
                    file=sys.stderr,
                )
                self._fail_worker(lease.worker)

    def _fail_worker(self, worker_index: int) -> None:
        worker = self._workers[worker_index]
        if worker.state == "dead":
            return
        # Drain anything the worker streamed before dying: those
        # results are valid, paid-for work.
        while True:
            message = worker.transport.receive()
            if message is None:
                break
            if message["type"] in ("result", "ready", "lease_done"):
                self._handle_message(worker_index, message)
        worker.state = "dead"
        worker.transport.close()
        if worker.lease_id is not None:
            lease = self._leases.get(worker.lease_id)
            worker.lease_id = None
            if lease is not None and lease.active:
                lease.active = False
                self._requeue(lease)

    def _requeue(self, lease: _Lease) -> None:
        requeued = [
            position
            for position in sorted(lease.remaining)
            if position not in self._metrics
        ]
        if not requeued:
            return
        for position in requeued:
            self._retries[position] = self._retries.get(position, 0) + 1
            if self._retries[position] > self.max_retries:
                raise ExperimentError(
                    f"unit position {position} (index "
                    f"{self.units[position].index}) failed after "
                    f"{self.max_retries} lease retries"
                )
        self.leases_retried += 1
        self._queue.append(requeued)

    def _assign_leases(self) -> bool:
        progressed = False
        for worker_index, worker in enumerate(self._workers):
            if worker.state != "ready" or worker.lease_id is not None:
                continue
            positions = self._next_lease_positions()
            if not positions:
                break
            lease = _Lease(
                lease_id=self._next_lease_id,
                worker=worker_index,
                positions=tuple(positions),
                issued=self._clock(),
                remaining=set(positions),
            )
            self._next_lease_id += 1
            self._leases[lease.lease_id] = lease
            worker.lease_id = lease.lease_id
            self.leases_issued += 1
            self.units_dispatched += len(positions)
            worker.transport.send(
                protocol.lease_message(lease.lease_id, lease.positions)
            )
            progressed = True
        return progressed

    def _next_lease_positions(self) -> list[int]:
        """The planner's next lease, minus positions already resolved.

        Positions that gained results while queued (idempotent
        duplicates from retired stragglers) are skipped; an entry that
        empties out entirely is dropped and the next one tried.
        """
        while self._queue:
            entry = self._queue.pop(0)
            positions = [
                position
                for position in entry
                if position not in self._metrics
            ]
            if positions:
                return positions
        return []


def _can_fork() -> bool:
    """Whether local workers may be forked from this process.

    Forking copies only the calling thread, so any other live thread
    (a reader thread, a pool, an embedding application's) could leave
    a lock held forever in the child.  numba's thread pool is native,
    invisible to :mod:`threading`, so its launch flag is read instead.
    Only Linux forks: other platforms' system libraries are not
    fork-safe after import.
    """
    if not (hasattr(os, "fork") and sys.platform.startswith("linux")):
        return False
    if threading.active_count() != 1:
        return False
    numba_pool = sys.modules.get("numba.np.ufunc.parallel")
    return not getattr(numba_pool, "_is_initialized", False)


def run_service(
    spec: ScenarioSpec,
    workers: int = 2,
    kernel: str = "reference",
    backend: str = "numpy",
    shard: tuple[int, int] | None = None,
    lease_size: int | None = None,
    plan_mode: str = "affine",
    deadline: float = DEFAULT_DEADLINE,
    cache_enabled: bool = True,
    cache_dir: str | None = None,
    chaos_kill_after: int | None = None,
    telemetry: dict | None = None,
) -> list[UnitResult]:
    """Run ``spec`` under the coordinator with ``workers`` local workers.

    The one-call service entry point behind ``repro-experiments
    scenario --workers N``.  Workers are forked from this process
    (:class:`~repro.service.transports.ForkTransport`) when
    :func:`_can_fork` holds, which skips a fresh interpreter and a full
    re-import per worker; otherwise each is a spawned ``sweep-work``
    subprocess (:class:`~repro.service.transports.SubprocessTransport`).
    Both carry the same protocol, so the bytes never depend on which.
    ``chaos_kill_after`` is the fault-injection hook for tests and the
    CI smoke job: the first worker runs with ``--exit-after`` so it
    dies abruptly mid-lease, exercising the retry path on a real
    process fleet.  ``telemetry``, when given, is filled in place with
    the run's planning counters (units, dispatched, probe hits, the
    probe cache's :class:`~repro.parallel.cache.CacheStats`, lease
    counts) for CLI reporting.
    """
    from repro.parallel.cache import reset_code_version_tag
    from repro.service.transports import (
        ForkTransport,
        SubprocessTransport,
        sweep_work_argv,
    )

    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
    # A coordinator may be long-lived (or embedded in a long-lived
    # process); never let it stamp a version tag memoized before the
    # sources last changed.
    reset_code_version_tag()
    fork = _can_fork()
    transports: list[WorkerTransport] = []
    try:
        # Workers start before the coordinator compiles and probes, so
        # no store handle is open across a fork.
        for index in range(workers):
            exit_after = chaos_kill_after if index == 0 else None
            name = f"worker-{index}"
            if fork:
                transport = ForkTransport(name=name, exit_after=exit_after)
            else:
                transport = SubprocessTransport(
                    sweep_work_argv(exit_after=exit_after),
                    name=name,
                )
            transports.append(transport)
        coordinator = Coordinator(
            spec,
            transports,
            kernel=kernel,
            backend=backend,
            shard=shard,
            lease_size=lease_size,
            plan_mode=plan_mode,
            deadline=deadline,
            cache_enabled=cache_enabled,
            cache_dir=cache_dir,
        )
    except BaseException:
        # The coordinator's run() owns shutdown; before it exists, the
        # workers started so far must not outlive a failed set-up.
        for transport in transports:
            transport.close()
        raise
    results = coordinator.run()
    if telemetry is not None:
        telemetry.update(
            units=len(coordinator.units),
            dispatched=coordinator.units_dispatched,
            probe_hits=coordinator.probe_hits,
            probe_stats=coordinator.probe_stats,
            leases_issued=coordinator.leases_issued,
            leases_retried=coordinator.leases_retried,
        )
    return results
