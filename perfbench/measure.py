"""Process timing: one CLI invocation or one set-up probe per call.

Each invocation is a fresh interpreter started in its own session, so a
timeout can stop it together with any sweep workers it spawned.  Wall
time runs from spawn to reap; the peak resident set comes from
``wait4``, whose ``ru_maxrss`` covers the process and every descendant
it reaped (the largest of them, on Linux).
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import signal
import subprocess
import threading
import time
from typing import Sequence


@dataclasses.dataclass(frozen=True)
class Invocation:
    """The outcome of one timed process."""

    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str

    @property
    def lines(self) -> list[str]:
        return self.stdout.splitlines()


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(
    argv: Sequence[str],
    env: dict,
    workdir: pathlib.Path,
    timeout: float,
) -> Invocation:
    """Run ``argv`` to completion, capturing output through files."""
    out_path = workdir / "stdout.txt"
    err_path = workdir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), stdout=out, stderr=err, env=env, start_new_session=True
        )
        timer = threading.Timer(max(timeout, 0.1), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # A timed-out coordinator leaves its workers in the same group.
    _kill_group(proc.pid)
    return Invocation(
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def time_until_ready(argv: Sequence[str], env: dict, timeout: float) -> float:
    """Seconds from spawning ``argv`` until it prints a ``ready`` line.

    The probe is then waited for, so it tears down whatever it started
    before the next probe runs.  Raises ``RuntimeError`` if the probe
    exits without reporting ready or fails.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        list(argv),
        stdout=subprocess.PIPE,
        env=env,
        text=True,
        start_new_session=True,
    )
    timer = threading.Timer(max(timeout, 0.1), _kill_group, (proc.pid,))
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        proc.stdout.close()
        returncode = proc.wait()
    finally:
        timer.cancel()
    if not line.startswith("ready") or returncode != 0:
        raise RuntimeError(
            f"set-up probe failed (exit {returncode}): {line.strip()!r}"
        )
    return ready


def tail(values: Sequence[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it.

    Returns ``(percent, value)``, or ``None`` below eleven samples.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return None
    return 100.0 * (count - 10) / count, ordered[count - 11]

