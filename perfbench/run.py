"""Benchmark harness for the ``repro-experiments scenario`` CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One run prepares the workload untimed (spec file, reference output,
pre-filled store), times several fresh-interpreter set-ups, then starts
the CLI as a fresh process again and again for ``--seconds`` seconds,
checking every output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pathlib
import platform
import shutil
import statistics
import sys
import time

import layers
import measure
import outputs
from workloads import DEFAULT_SEED, WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent

SETUP_PROBES = 5
"""Fewest fresh-interpreter set-ups timed per run."""

SETUP_WINDOW_S = 6.0
"""Seconds of set-up probes per run; ``setup_s`` is their median.

The window also keeps the timed invocations clear of the previous
run's clean-up: on journalling filesystems, file creation stays slow
for several seconds after a mass delete.  Probes only read files.
"""

RUN_BUDGET_S = 170.0
"""Hard wall-clock budget of one run; invocations past it are killed."""

END_TO_END_UNITS = {
    "wall_s": "s",
    "row_cycles_per_s": "1/s",
    "units_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Run:
    """One measured run of one workload."""

    def __init__(self, workload, seed: int, seconds: float, root, workdir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.src = root / "src"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(self.src)
        # Nothing may fall back to a store outside the checkout.
        self.env["REPRO_CACHE_DIR"] = str(workdir / "default-store")
        self.spec = workload.spec_argument(workdir)
        self.args = workload.cli_args(self.spec, seed)
        self.units = workload.compile(self.spec, seed)
        self.expected = [outputs.unit_expectation(unit) for unit in self.units]
        self.row_cycles = sum(
            unit.cycles
            + (unit.warmup if unit.warmup is not None else unit.cycles // 4)
            for unit in self.units
        )
        self.reference = None
        self.digests = workload.pinned_digests(seed)
        self.serial_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []
        self.rates: list[tuple[float, float]] = []
        self.rss: list[float] = []
        self.stores = 0
        self.output: list[str] = []

    # ------------------------------------------------------------------
    def invoke(self, args, env=None) -> measure.Invocation:
        """Run ``repro-experiments <args>`` as a fresh process."""
        return measure.invoke(
            [sys.executable, "-m", "repro.experiments", *args],
            env or self.env,
            self.workdir,
            self.deadline - time.perf_counter(),
        )

    def prepare(self) -> None:
        """Untimed preparation; also the warm-up invocation."""
        kind = self.workload.reference
        if kind == "serial":
            serial = self.invoke(
                self.workload.cli_args(self.spec, self.seed, workers=False)
                + ["--no-cache"]
            )
            self.serial_s = serial.wall_s
            self.reference = serial.lines if serial.returncode == 0 else []
        elif kind == "fill":
            self.warm_store = self.workdir / "warm-store"
            fill = self.invoke(self.args + ["--cache-dir", str(self.warm_store)])
            self.reference = fill.lines if fill.returncode == 0 else []
        else:
            self.invoke(self.args + ["--no-cache"])

    def setup_seconds(self) -> float:
        probe = [sys.executable, str(HERE / "setup_probe.py"), *self.args[1:]]
        times: list[float] = []
        start = time.perf_counter()
        while (
            len(times) < SETUP_PROBES
            or time.perf_counter() - start < SETUP_WINDOW_S
        ):
            times.append(
                measure.time_until_ready(
                    probe, self.env, self.deadline - time.perf_counter()
                )
            )
        return statistics.median(times)

    def timed(self, env=None) -> measure.Invocation:
        """One checked invocation into a fresh (or the pre-filled) store.

        Counts its units as attempted and failed; an untraced one
        (``env`` left ``None``) also records wall time, rates and memory.
        """
        if self.workload.reference == "fill":
            store = self.warm_store
        else:
            # Stores stay until the run ends: on some filesystems, file
            # creation slows for seconds after a mass delete, which would
            # charge one invocation's clean-up to the next one's wall time.
            self.stores += 1
            store = self.workdir / f"store-{self.stores}"
        invocation = self.invoke(self.args + ["--cache-dir", str(store)], env)
        units = len(self.expected)
        if invocation.returncode != 0:
            failed = units
            print(
                f"invocation exited {invocation.returncode}: "
                f"{invocation.stderr[-500:]}",
                file=sys.stderr,
            )
        else:
            failed = outputs.failed_units(
                invocation.lines, self.expected, self.reference, self.digests
            )
        if failed == 0:
            self.output = invocation.lines
        self.attempted += units
        self.failed += failed
        done = (units - failed) / units
        if env is None:
            self.walls.append(invocation.wall_s)
            self.rss.append(invocation.peak_rss_mb)
            self.rates.append(
                (
                    done * self.row_cycles / invocation.wall_s,
                    done * units / invocation.wall_s,
                )
            )
        return invocation

    def _time_left(self, start: float) -> bool:
        now = time.perf_counter()
        last = self.walls[-1] if self.walls else 0.0
        return now - start < self.seconds and now + 2 * last < self.deadline

    # ------------------------------------------------------------------
    def end_to_end(self) -> dict:
        self.prepare()
        setup = self.setup_seconds()
        start = time.perf_counter()
        while not self.walls or self._time_left(start):
            self.timed()
        return {
            "wall_s": statistics.median(self.walls),
            "row_cycles_per_s": statistics.median(r[0] for r in self.rates),
            "units_per_s": statistics.median(r[1] for r in self.rates),
            "setup_s": setup,
            "peak_rss_mb": statistics.median(self.rss),
        }

    def per_layer(self) -> dict:
        self.prepare()
        traced_walls: list[float] = []
        samples: list[dict] = []
        hook = HERE / "hook"
        start = time.perf_counter()
        while not samples or self._time_left(start):
            self.timed()
            trace_dir = self.workdir / f"trace-{len(samples)}"
            trace_dir.mkdir()
            env = dict(self.env)
            env["PYTHONPATH"] = f"{hook}{os.pathsep}{self.src}"
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
            invocation = self.timed(env)
            traced_walls.append(invocation.wall_s)
            if invocation.returncode == 0:
                samples.append(layers.layer_metrics(layers.load_trace(trace_dir)))
            shutil.rmtree(trace_dir, ignore_errors=True)
            if invocation.returncode != 0 and not samples:
                break
        metrics = dict.fromkeys(dict(layers.METRICS), 0.0)
        for name in samples[0] if samples else ():
            metrics[name] = statistics.median(sample[name] for sample in samples)
        evaluated = self.units if self.workload.reference != "fill" else ()
        metrics.update(layers.fleet_plan(evaluated, self.workload.workers))
        untraced = statistics.median(self.walls)
        metrics["service.serial_ratio"] = (
            untraced / self.serial_s if self.serial_s else 0.0
        )
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - untraced
        metrics["paper_ebw_mape_pct"] = self.mape()
        return metrics

    def mape(self) -> float:
        """EBW error of the last correct output against the paper."""
        return outputs.ebw_mape_pct(self.output, outputs.published_ebw())


def host_line() -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    numba = importlib.util.find_spec("numba") is not None
    return (
        f"host nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy_version} numba={'importable' if numba else 'absent'}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "error: no src/repro here; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    work_root = root / ".perfbench_work"
    workdir = work_root / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Run(workload, args.seed, args.seconds, root, workdir)
        if args.trace:
            metrics = run.per_layer()
            units = dict(layers.METRICS)
        else:
            metrics = run.end_to_end()
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    print(host_line())
    print(
        f"workload {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} units={len(run.units)} "
        f"row_cycles={run.row_cycles}"
    )
    tail = measure.tail(run.walls)
    tail_text = f"p{tail[0]:.0f}={tail[1]:.4f}" if tail else "tail=n/a"
    print(
        f"runs={len(run.walls)} wall_s median={statistics.median(run.walls):.4f} "
        f"{tail_text}"
    )
    print(
        f"error_frac={run.failed / run.attempted:.6f} "
        f"({run.failed}/{run.attempted}) "
        f"paper_ebw_mape_pct={run.mape():.4f}"
    )
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
