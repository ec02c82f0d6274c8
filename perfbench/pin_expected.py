"""Regenerate the pinned per-line output digests at the default seed.

Usage, from the root of a checkout::

    python3 perfbench/pin_expected.py

Runs each ``pinned`` workload once at :data:`workloads.DEFAULT_SEED`
and writes ``perfbench/expected/<workload>.json``.  Run it only after
a deliberate change to a workload's inputs or to the program's output
bytes; the harness counts every line that no longer matches as failed.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

import outputs
from workloads import DEFAULT_SEED, EXPECTED_DIR, WORKLOADS


def main() -> int:
    root = pathlib.Path.cwd()
    sys.path.insert(0, str(root / "src"))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        if workload.reference != "pinned":
            continue
        with tempfile.TemporaryDirectory(dir=root) as workdir:
            spec = workload.spec_argument(pathlib.Path(workdir))
            argv = [sys.executable, "-m", "repro.experiments"]
            argv += workload.cli_args(spec, DEFAULT_SEED) + ["--no-cache"]
            stdout = subprocess.run(
                argv, env=env, check=True, capture_output=True, text=True
            ).stdout
        lines = stdout.splitlines()
        record = {
            "seed": DEFAULT_SEED,
            "digests": [outputs.line_digest(line) for line in lines],
        }
        path = EXPECTED_DIR / f"{workload.name}.json"
        path.write_text(json.dumps(record, indent=0) + "\n")
        print(f"{path}: {len(lines)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
