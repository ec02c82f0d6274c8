"""Set-up probe: a fresh interpreter up to the point work can start.

Usage::

    python3 perfbench/setup_probe.py <scenario|spec> [--kernel K]
        [--seed N] [--cycles N] [--metrics NAME] [--workers N]

Imports the CLI, loads the workload spec and compiles it into units,
exactly as ``repro-experiments scenario`` does before running them.
With ``--workers N`` it also spawns N sweep workers, hands them the
spec and waits until each has compiled it and answered ``ready``.  It
then prints ``ready <units>``; the harness times spawn to that line.
Other CLI flags are accepted and ignored.
"""

from __future__ import annotations

import argparse
import sys
import time


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("scenario")
    parser.add_argument("--kernel", default="reference")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--cycles", type=int)
    parser.add_argument("--metrics", action="append")
    parser.add_argument("--workers", type=int)
    args, _ = parser.parse_known_args(argv)

    import repro.experiments.runner  # noqa: F401  (the CLI entry point)
    from repro.scenarios.cli import apply_spec_overrides
    from repro.scenarios.compiler import compile_scenario
    from repro.scenarios.registry import load_scenario

    spec = apply_spec_overrides(
        load_scenario(args.scenario),
        cycles=args.cycles,
        seed=args.seed,
        metrics=args.metrics,
    )
    units = compile_scenario(spec, kernel=args.kernel)
    transports = []
    try:
        if args.workers:
            from repro.service import protocol
            from repro.service.transports import SubprocessTransport

            transports = [
                SubprocessTransport(name=f"worker-{index}")
                for index in range(args.workers)
            ]
            hello = protocol.hello_message(
                spec, args.kernel, "numpy", cache_enabled=False
            )
            for transport in transports:
                transport.send(hello)
            for transport in transports:
                message = transport.receive()
                while message is None and transport.alive():
                    time.sleep(0.001)
                    message = transport.receive()
                if message is None or message.get("type") != "ready":
                    print(f"worker not ready: {message!r}", file=sys.stderr)
                    return 2
        print(f"ready {len(units)}", flush=True)
    finally:
        for transport in transports:
            transport.send(protocol.shutdown_message())
            transport.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
