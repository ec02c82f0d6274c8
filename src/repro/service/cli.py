"""The ``sweep-work`` subcommand: one lease-protocol worker on stdio.

Usage::

    # A worker endpoint speaking the lease protocol on stdio (spawned
    # by ``scenario --workers N`` where it cannot fork its workers;
    # also usable behind ssh or a batch queue):
    repro-experiments sweep-work

The coordinator side is ``repro-experiments scenario <name> --workers
N`` (:mod:`repro.scenarios.cli`): its stdout carries exactly the unit
lines the serial run would print, byte-identical and already in
canonical order, while scheduling diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
from typing import Sequence


def work_main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro-experiments sweep-work``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep-work",
        description="Serve one sweep worker over the lease protocol on "
        "stdin/stdout (newline-delimited JSON).  'scenario --workers N' "
        "spawns it where it cannot fork its workers; run it behind ssh "
        "or a batch queue for remote fleets.",
    )
    parser.add_argument(
        "--exit-after",
        type=int,
        default=None,
        metavar="K",
        help="fault-injection testing hook: die abruptly (no cleanup) "
        "after streaming the K-th result",
    )
    args = parser.parse_args(argv)
    if args.exit_after is not None and args.exit_after < 1:
        parser.error("--exit-after must be a positive integer")
    from repro.service.worker import serve_stdio

    return serve_stdio(exit_after=args.exit_after)
