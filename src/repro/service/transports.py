"""Worker transports: how lease-protocol messages reach a worker.

The coordinator speaks to abstract :class:`WorkerTransport` endpoints -
``send`` a message, ``receive`` whatever has arrived, ``alive`` to
detect death - and never learns how bytes move.  Three implementations
ship:

* :class:`ForkTransport` forks a worker from the calling process, which
  has already imported the worker modules, and carries the protocol
  over two pipes as newline-delimited JSON.  The child runs the same
  :func:`~repro.service.worker.serve_stdio` loop a spawned worker runs,
  so it costs a ``fork()`` instead of a fresh interpreter and a full
  re-import.  The parent reads without blocking and starts no thread,
  so every later fork also happens in a single-threaded process.  The
  local service uses it whenever forking is safe
  (:func:`repro.service.coordinator.run_service`).
* :class:`SubprocessTransport` spawns ``repro-experiments sweep-work``
  and carries the same JSON lines over the child's stdin/stdout (a
  daemon reader thread keeps receipt non-blocking).  It is the local
  fallback where forking is unsafe - no ``fork()``, another thread
  running, numba's thread pool launched - and, pointed at a different
  argv, an ssh or batch-queue transport: nothing in coordinator or
  worker changes.
* :class:`LoopbackTransport` runs a real :class:`WorkerSession`
  in-process and synchronously.  It exists for tests: it makes
  coordinator scheduling deterministic and lets a "worker" be killed
  after exactly k results (``fail_after_results``), which is how the
  lease-retry property tests explore crash timings far faster than
  real subprocesses could.
"""

from __future__ import annotations

import os
import queue
import select
import signal
import subprocess
import sys
import threading
import time
import traceback
from typing import Any, Callable, Mapping, Protocol, Sequence

from repro.core.errors import ReproError
from repro.service import protocol
from repro.service.worker import WorkerSession, serve_stdio


class WorkerTransport(Protocol):
    """One worker endpoint, whatever carries its bytes."""

    name: str

    def send(self, message: Mapping[str, Any]) -> None:
        """Deliver one message; silently drop if the worker is gone
        (the coordinator discovers death through :meth:`alive`)."""

    def receive(self) -> dict[str, Any] | None:
        """The next pending message from the worker, or ``None``."""

    def alive(self) -> bool:
        """Whether the worker can still produce messages."""

    def close(self) -> None:
        """Release resources; idempotent."""


def decode_worker_line(line: str) -> dict[str, Any]:
    """One line of worker output as a protocol message.

    A corrupt line means a broken worker: it comes back as a protocol
    ``error`` message, so the coordinator retires the worker and
    requeues its lease instead of hanging.
    """
    try:
        return protocol.decode_message(line)
    except ReproError:
        return protocol.error_message(
            f"undecodable worker output: {line[:200]!r}"
        )


def sweep_work_argv(exit_after: int | None = None) -> list[str]:
    """The argv that starts a local stdio worker in this environment."""
    argv = [sys.executable, "-m", "repro.experiments", "sweep-work"]
    if exit_after is not None:
        argv += ["--exit-after", str(exit_after)]
    return argv


CLOSE_TIMEOUT = 5.0
"""Seconds a transport's ``close`` waits for its worker before SIGKILL."""

_PARENT_PIPE_FDS: set[int] = set()
"""The pipe ends this process holds for its live forked workers.  Every
new child closes them, so a worker sees EOF on its stdin when *its*
coordinator end closes, not only once every sibling has exited."""


class ForkTransport:
    """A worker forked from this process, speaking JSON lines over pipes.

    The child points fds 0/1 at its two pipes, closes every other
    forked worker's pipe ends and runs ``target`` (by default
    :func:`~repro.service.worker.serve_stdio`; ``exit_after`` is its
    ``--exit-after`` crash hook).  It always leaves through
    ``os._exit``, printing a traceback to stderr first if ``target``
    raised, so it never returns into the caller's stack.  ``target``
    is the seam tests use to script broken workers.

    The parent reads with non-blocking ``os.read`` inside
    :meth:`receive` and :meth:`alive` and starts no thread.  Callers
    must only fork from a single-threaded process that has not
    launched numba's thread pool (``run_service`` checks this).
    """

    def __init__(
        self,
        name: str = "worker",
        exit_after: int | None = None,
        target: Callable[..., int] = serve_stdio,
    ) -> None:
        self.name = name
        self._inbox: list[dict[str, Any]] = []
        self._partial = b""
        self._closed = False
        self.returncode: int | None = None
        to_child = os.pipe()
        from_child = os.pipe()
        pipe_fds = (*to_child, *from_child)
        for stream in (sys.stdout, sys.stderr):
            # Unflushed text would otherwise be written twice: once by
            # this process and once by the child's copy of the buffer.
            if stream is not None:
                stream.flush()
        try:
            pid = os.fork()
        except OSError:
            for fd in pipe_fds:
                os.close(fd)
            raise
        if pid == 0:  # pragma: no cover - runs in the child only
            _forked_worker(
                to_child[0],
                from_child[1],
                {to_child[1], from_child[0], *_PARENT_PIPE_FDS},
                target,
                exit_after,
            )
        os.close(to_child[0])
        os.close(from_child[1])
        os.set_blocking(from_child[0], False)
        self.pid = pid
        self._write_fd: int | None = to_child[1]
        self._read_fd: int | None = from_child[0]
        _PARENT_PIPE_FDS.update((to_child[1], from_child[0]))

    # ------------------------------------------------------------------
    def send(self, message: Mapping[str, Any]) -> None:
        if self._closed or self._write_fd is None:
            return
        data = (protocol.encode_message(message) + "\n").encode("ascii")
        try:
            while data:
                data = data[os.write(self._write_fd, data):]
        except OSError:
            # Dead or closing worker; alive() will report it.
            pass

    def receive(self) -> dict[str, Any] | None:
        self._pump()
        return self._inbox.pop(0) if self._inbox else None

    def alive(self) -> bool:
        # Reap before reading: once the child has exited, every byte it
        # wrote is already in the pipe, so results streamed before its
        # death are never lost.
        exited = self._reap()
        self._pump()
        return bool(self._inbox) or not (self._closed or exited)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._close_fd("_write_fd")
        deadline = time.monotonic() + CLOSE_TIMEOUT
        while not self._reap():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                try:
                    os.kill(self.pid, signal.SIGKILL)
                except ProcessLookupError:  # pragma: no cover - just exited
                    pass
                self._reap(block=True)
                break
            if self._read_fd is not None:
                # Keep draining: a child blocked on a full pipe could
                # never exit.  EOF wakes the wait as the child ends.
                select.select([self._read_fd], [], [], min(remaining, 0.05))
                self._pump()
            else:
                time.sleep(0.001)
        self._close_fd("_read_fd")

    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Move every complete line already in the pipe to the inbox."""
        while self._read_fd is not None:
            try:
                chunk = os.read(self._read_fd, 1 << 16)
            except BlockingIOError:
                return
            except OSError:  # pragma: no cover - treat as EOF
                chunk = b""
            if not chunk:
                # EOF: a trailing partial line is the child's last word.
                self._close_fd("_read_fd")
                lines, self._partial = [self._partial], b""
            else:
                *lines, self._partial = (self._partial + chunk).split(b"\n")
            for line in lines:
                if line.strip():
                    self._inbox.append(
                        decode_worker_line(line.decode("utf-8", "replace"))
                    )

    def _reap(self, block: bool = False) -> bool:
        """Whether the child has exited, reaping it if it just did."""
        if self.returncode is None:
            try:
                pid, status = os.waitpid(self.pid, 0 if block else os.WNOHANG)
            except ChildProcessError:  # reaped elsewhere; status lost
                pid, status = self.pid, 255 << 8
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode is not None

    def _close_fd(self, attr: str) -> None:
        fd = getattr(self, attr)
        if fd is not None:
            setattr(self, attr, None)
            _PARENT_PIPE_FDS.discard(fd)
            os.close(fd)


def _forked_worker(
    stdin_fd: int,
    stdout_fd: int,
    inherited: set[int],
    target: Callable[..., int],
    exit_after: int | None,
) -> None:  # pragma: no cover - runs in the child only
    """The child side of :class:`ForkTransport`; never returns."""
    code = 1
    try:
        os.dup2(stdin_fd, 0)
        os.dup2(stdout_fd, 1)
        for fd in (inherited | {stdin_fd, stdout_fd}) - {0, 1}:
            os.close(fd)
        _PARENT_PIPE_FDS.clear()
        sys.stdin = open(0, "r", encoding="utf-8", closefd=False)
        sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
        code = target(stdin=sys.stdin, stdout=sys.stdout, exit_after=exit_after)
    except BaseException:
        # The child's top level: report whatever ended the worker, but
        # never unwind into the stack it copied from the parent.
        traceback.print_exc()
        code = 1
    finally:
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        finally:
            os._exit(code if isinstance(code, int) else 0)


class SubprocessTransport:
    """A local ``sweep-work`` subprocess speaking JSON lines on stdio."""

    def __init__(
        self, argv: Sequence[str] | None = None, name: str = "worker"
    ) -> None:
        self.name = name
        self._inbox: queue.Queue[dict[str, Any]] = queue.Queue()
        self._closed = False
        self._proc = subprocess.Popen(
            list(argv) if argv is not None else sweep_work_argv(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # worker diagnostics join the coordinator's stderr
            text=True,
            bufsize=1,
        )
        self._reader = threading.Thread(
            target=self._drain_stdout, name=f"{name}-reader", daemon=True
        )
        self._reader.start()

    def _drain_stdout(self) -> None:
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            if line.strip():
                self._inbox.put(decode_worker_line(line))

    # ------------------------------------------------------------------
    def send(self, message: Mapping[str, Any]) -> None:
        if self._closed or self._proc.stdin is None:
            return
        try:
            self._proc.stdin.write(protocol.encode_message(message) + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError, ValueError):
            # Dead or closing worker; alive() will report it.
            pass

    def receive(self) -> dict[str, Any] | None:
        try:
            return self._inbox.get_nowait()
        except queue.Empty:
            return None

    def alive(self) -> bool:
        # Queued messages from an already-dead process still count: the
        # coordinator must consume results a worker streamed before
        # dying.
        return not self._inbox.empty() or (
            not self._closed and self._proc.poll() is None
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            if self._proc.stdin is not None:
                self._proc.stdin.close()
        except OSError:  # pragma: no cover - already-broken pipe
            pass
        try:
            self._proc.wait(timeout=CLOSE_TIMEOUT)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung worker
            self._proc.kill()
            self._proc.wait()
        self._reader.join(timeout=CLOSE_TIMEOUT)
        if not self._reader.is_alive() and self._proc.stdout is not None:
            self._proc.stdout.close()


class LoopbackTransport:
    """An in-process worker executing leases synchronously on ``send``.

    ``fail_after_results`` simulates a worker killed mid-lease: the
    session stops after streaming that many results in total - messages
    already "sent" stay delivered (a real pipe would have carried them),
    nothing later arrives, and :meth:`alive` turns ``False``.
    """

    def __init__(
        self,
        name: str = "loopback",
        fail_after_results: int | None = None,
    ) -> None:
        self.name = name
        self._inbox: list[dict[str, Any]] = []
        self._dead = False
        self._fail_after = fail_after_results

        def deliver(message: Mapping[str, Any]) -> None:
            if not self._dead:
                self._inbox.append(dict(message))

        def maybe_die(results_sent: int) -> None:
            if self._fail_after is not None and results_sent >= self._fail_after:
                self._dead = True
                raise _SimulatedKill()

        self._session = WorkerSession(deliver, result_hook=maybe_die)

    def send(self, message: Mapping[str, Any]) -> None:
        if self._dead:
            return
        try:
            if not self._session.handle(message):
                self._dead = True
        except _SimulatedKill:
            self._dead = True
        except ReproError as exc:
            self._inbox.append(protocol.error_message(str(exc)))
            self._dead = True

    def receive(self) -> dict[str, Any] | None:
        if self._inbox:
            return self._inbox.pop(0)
        return None

    def alive(self) -> bool:
        return bool(self._inbox) or not self._dead

    def close(self) -> None:
        self._dead = True


class _SimulatedKill(BaseException):
    """Raised inside a loopback worker to mimic SIGKILL mid-lease.

    Derives from ``BaseException`` so no library ``except Exception``
    can swallow it - like the real signal, nothing in the worker gets
    to handle it.
    """
