"""In-memory span recorder installed into CLI and worker interpreters.

:func:`install` imports the program's layers, replaces each traced
public function or method with a wrapper that records one span per call
(name, start, end, parent span, a few call attributes), and writes the
spans of the process to ``<trace_dir>/spans-<pid>.json`` at exit.
Times are ``time.perf_counter_ns`` readings; the file carries a
``(perf_counter_ns, time_ns)`` anchor so the harness can rebase worker
spans onto the coordinator's clock.

Functions the program binds by name at import (``from x import f``) are
replaced in every module that holds the original object, which is where
the caller looks them up.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import threading
import time

_NOW = time.perf_counter_ns


class Recorder:
    """Spans of one process, kept in memory until exit."""

    def __init__(self) -> None:
        self.anchor = {"perf_ns": _NOW(), "wall_ns": time.time_ns()}
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, name, original, describe=None):
        """A wrapper around ``original`` recording span ``name`` per call.

        ``describe(args, kwargs, result)`` returns the span's attribute
        mapping; it runs outside the timed interval.
        """
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = _NOW()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = _NOW()
                stack.pop()
                attrs = None
                if describe is not None and result is not None:
                    attrs = describe(args, kwargs, result)
                recorder.spans[index] = [name, start, end, parent, attrs]

        return wrapper

    def dump(self, directory: str, import_ns: int) -> None:
        role = "worker" if "sweep-work" in sys.argv else "cli"
        record = {
            "pid": os.getpid(),
            "role": role,
            "anchor": self.anchor,
            "import_ns": import_ns,
            "spans": [span for span in self.spans if span is not None],
        }
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


def _replace(recorder, name, owner, attr, describe=None, rebind=()):
    """Wrap ``owner.attr``; also swap it in ``rebind`` modules that
    imported the same object by name."""
    original = getattr(owner, attr)
    wrapper = recorder.traced(name, original, describe)
    setattr(owner, attr, wrapper)
    for module in rebind:
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)


def _fast_run(args, kwargs, result):
    return {"rows": 1, "steps": result.cycles + result.warmup_cycles}


def _batch_run(args, kwargs, result):
    return {
        "rows": len(result),
        "steps": result[0].cycles + result[0].warmup_cycles,
    }


def _get_many(args, kwargs, result):
    keys = args[1] if len(args) > 1 else kwargs["keys"]
    return {"keys": len(set(keys)), "hits": len(result)}


def _fleet_units(args, kwargs, result):
    return {"units": len(result)}


def _one_unit(args, kwargs, result):
    return {"units": 1}


def _telemetry(args, kwargs, result):
    telemetry = kwargs.get("telemetry") or {}
    return {
        key: value
        for key, value in telemetry.items()
        if isinstance(value, (int, float))
    }


def _message(args, kwargs, result):
    message = args[1]
    return {
        "type": message.get("type"),
        "positions": len(message.get("positions", ())),
    }


def install(directory: str) -> Recorder:
    """Import the traced layers, wrap them, and dump spans at exit."""
    recorder = Recorder()
    start = _NOW()
    import repro.experiments.runner  # noqa: F401  (the CLI entry point)
    import repro.scenarios.cli as cli

    import_ns = _NOW() - start

    import repro.bus.batch as batch
    import repro.bus.kernel as kernel
    import repro.metrics.sketch as sketch
    import repro.parallel.cache as cache
    import repro.parallel.fleet as fleet
    import repro.scenarios.compiler as compiler
    import repro.scenarios.execute as execute
    import repro.scenarios.plan as plan
    import repro.service.coordinator as coordinator
    import repro.service.protocol as protocol
    import repro.service.worker as worker

    wrap = functools.partial(_replace, recorder)
    wrap("kernel.fast.run", kernel.FastBusKernel, "run", _fast_run)
    wrap("kernel.batch.init", batch.BatchBusKernel, "__init__")
    wrap("kernel.batch.run", batch.BatchBusKernel, "run", _batch_run)
    wrap("sketch.summaries", sketch.FleetQuantileSketch, "summaries")
    wrap("fleet.run", fleet, "run_fleet")
    wrap("cache.key", cache.ResultCache, "key")
    wrap("cache.get_many", cache.ResultCache, "get_many", _get_many)
    wrap("cache.put", cache.ResultCache, "put")
    wrap(
        "scenarios.compile",
        compiler,
        "compile_scenario",
        rebind=(cli, execute, coordinator, worker),
    )
    wrap("scenarios.run_units", execute, "run_units", rebind=(cli,))
    wrap("scenarios.render", execute, "unit_line", rebind=(cli,))
    wrap("scenarios.plan", plan, "carve_leases")
    wrap("scenarios.plan", plan, "probe_cached")
    wrap("engine.evaluate", execute, "evaluate_unit", _one_unit)
    wrap("engine.evaluate", execute, "evaluate_fleet", _fleet_units)
    wrap("pool.map", execute, "map_ordered")
    wrap("service.run", coordinator, "run_service", _telemetry)
    wrap("service.worker.handle", worker.WorkerSession, "handle", _message)
    wrap("service.ready", protocol, "ready_message")
    atexit.register(recorder.dump, directory, import_ns)
    return recorder
