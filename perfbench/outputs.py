"""Output checks and the accuracy metric for one CLI invocation's stdout.

Every unit line is checked against the compiled unit it claims to be:
its index, its configuration fields and the range of its measurements.
A workload may add a stricter check: byte-identity with a reference
output, or per-line digests pinned at the default seed.  A unit whose
line is missing, malformed or wrong counts as failed.
"""

from __future__ import annotations

import hashlib
import statistics
from typing import Iterable, Sequence

LATENCY_KEYS = ("lat_count", "wait_p50", "serv_p50", "lat_p50", "lat_p99")
"""Columns a latency-metric unit line must carry."""


def ebw_ceiling(n: int, m: int, r: int, cycles: int) -> float:
    """The largest EBW a correct run over ``cycles`` measured cycles shows.

    EBW counts completions per processor cycle of ``r + 2`` bus cycles.
    Each processor completes at most one request per processor cycle,
    the bus carries two transfers per request, and a module is busy
    ``r`` cycles per access, so the long-run EBW is at most
    ``min(n, (r + 2) / 2, m (r + 2) / r)``.  A buffered module frees
    itself before the response goes back, so that EBW may exceed ``m``.
    A finite window also counts up to ``n`` requests already in flight
    when it opened, which adds ``n (r + 2) / cycles``; so processor
    utilisation, ``EBW / (n p)``, may exceed 1 over a short window.
    """
    processor_cycle = r + 2
    steady = min(n, processor_cycle / 2, m * processor_cycle / r)
    return steady + n * processor_cycle / cycles


def unit_expectation(unit) -> dict:
    """What the line of compiled ``unit`` must say about itself."""
    config = unit.config
    ebw_max = ebw_ceiling(
        config.processors,
        config.memories,
        config.memory_cycle_ratio,
        unit.cycles,
    )
    return {
        "index": unit.index,
        "fields": {
            "n": str(config.processors),
            "m": str(config.memories),
            "r": str(config.memory_cycle_ratio),
            "seed": str(unit.seed),
            "cycles": str(unit.cycles),
        },
        "buffered": bool(config.buffered),
        "latency": bool(unit.collects_latency),
        "ebw_max": ebw_max,
        "putil_max": ebw_max / (config.processors * config.request_probability),
    }


def parse_line(line: str) -> dict | None:
    """The index, ``key=value`` fields and buffering of one unit line."""
    parts = line.split()
    if len(parts) < 2 or parts[0] != "unit" or not parts[1].isdigit():
        return None
    fields = {}
    buffered = None
    for token in parts[2:]:
        if token == "unbuffered":
            buffered = False
        elif token.startswith("buffered("):
            buffered = True
        else:
            key, _, value = token.partition("=")
            fields[key] = value
    return {"index": int(parts[1]), "fields": fields, "buffered": buffered}


def _measurements_ok(fields: dict, expected: dict) -> bool:
    try:
        ebw = float(fields["ebw"])
        putil = float(fields["putil"])
        butil = float(fields["butil"])
    except (KeyError, ValueError):
        return False
    if not (
        0.0 <= ebw <= expected["ebw_max"]
        and 0.0 <= putil <= expected["putil_max"]
        and 0.0 <= butil <= 1.0
    ):
        return False
    return not expected["latency"] or all(key in fields for key in LATENCY_KEYS)


def line_ok(line: str, expected: dict) -> bool:
    """Structure and range check of one line against its unit."""
    parsed = parse_line(line)
    if parsed is None or parsed["index"] != expected["index"]:
        return False
    fields = parsed["fields"]
    if any(fields.get(key) != value for key, value in expected["fields"].items()):
        return False
    if parsed["buffered"] != expected["buffered"]:
        return False
    return _measurements_ok(fields, expected)


def line_digest(line: str) -> str:
    """The short per-line digest pinned for the default seed."""
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:12]


def failed_units(
    lines: Sequence[str],
    expected: Sequence[dict],
    reference: Sequence[str] | None = None,
    digests: Sequence[str] | None = None,
) -> int:
    """How many of the ``expected`` units have no correct line.

    Line ``i`` must belong to unit ``i``; lines past the expected count
    are ignored (every attempted unit is already accounted for).
    """
    failed = 0
    for position, unit in enumerate(expected):
        if position >= len(lines):
            failed += 1
            continue
        line = lines[position]
        ok = line_ok(line, unit)
        if ok and reference is not None:
            ok = position < len(reference) and line == reference[position]
        if ok and digests is not None:
            ok = line_digest(line) == digests[position]
        failed += not ok
    return failed


def published_ebw() -> dict:
    """The paper's simulated EBW per ``(buffered, m, r)`` cell, n = 8.

    Tables 3(a) (unbuffered) and 4 (buffered), both priority to
    processors with p = 1.
    """
    from repro.experiments import paper_data

    cells = {
        (False, m, r): value
        for (m, r), value in paper_data.TABLE3A_SIMULATION.items()
    }
    cells.update(
        {
            (True, m, r): value
            for (m, r), value in paper_data.TABLE4_BUFFERED_SIMULATION.items()
        }
    )
    return cells


def paper_cell(parsed: dict) -> tuple | None:
    """The published cell a parsed line reproduces, if any."""
    fields = parsed["fields"]
    if (
        fields.get("n") != "8"
        or fields.get("p") != "1"
        or fields.get("priority") != "processors"
        or fields.get("workload") != "uniform"
        or fields.get("method") != "simulation"
    ):
        return None
    return (parsed["buffered"], int(fields["m"]), int(fields["r"]))


def ebw_mape_pct(lines: Iterable[str], published: dict) -> float:
    """Mean absolute relative EBW error against the published cells, in %.

    Replications of one cell are averaged before the cell's error is
    taken; cells the output does not cover are left out.  Returns 0.0
    when no line reproduces a published cell.
    """
    runs: dict[tuple, list[float]] = {}
    for line in lines:
        parsed = parse_line(line)
        if parsed is None:
            continue
        cell = paper_cell(parsed)
        if cell is None or cell not in published:
            continue
        runs.setdefault(cell, []).append(float(parsed["fields"]["ebw"]))
    if not runs:
        return 0.0
    errors = [
        abs(statistics.fmean(values) - published[cell]) / published[cell]
        for cell, values in runs.items()
    ]
    return 100.0 * statistics.fmean(errors)
