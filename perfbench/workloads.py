"""The benchmark's four workloads and the inputs each one generates.

Every workload is one ``repro-experiments scenario ...`` command line.
Its only inputs are the workload seed, passed through ``--seed``, and,
for the paper-cell workloads, a spec file generated here.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

DEFAULT_SEED = 1985
"""The paper's seed; pinned output digests exist for this seed only."""

PAPER_SPEC = "paper-cells.json"

EXPECTED_DIR = pathlib.Path(__file__).resolve().parent / "expected"


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``reference`` names the output check beyond structure and range:
    ``pinned`` (per-line digests at :data:`DEFAULT_SEED`), ``serial``
    (byte-identical to the serial run, computed before timing) or
    ``fill`` (byte-identical to the run that filled the store).
    """

    name: str
    why: str
    scenario: str
    cycles: int
    kernel: str
    reference: str
    replications: int = 1
    metrics: tuple[str, ...] = ()
    workers: int | None = None

    @property
    def generated(self) -> bool:
        return self.scenario == PAPER_SPEC

    def spec_argument(self, workdir: pathlib.Path) -> str:
        """The CLI's scenario argument, writing the spec file if any."""
        if not self.generated:
            return self.scenario
        path = workdir / PAPER_SPEC
        path.write_text(json.dumps(paper_cells_spec(self.cycles, self.replications)))
        return str(path)

    def cli_args(self, spec: str, seed: int, workers: bool = True) -> list[str]:
        """Arguments after ``repro-experiments``, minus the store flag.

        ``workers=False`` gives the serial run of the same sweep.
        """
        args = ["scenario", spec, "--kernel", self.kernel, "--seed", str(seed)]
        for metric in self.metrics:
            args += ["--metrics", metric]
        if self.workers and workers:
            args += ["--workers", str(self.workers)]
        if not self.generated:
            args += ["--cycles", str(self.cycles)]
        return args

    def compile(self, spec: str, seed: int) -> tuple:
        """The units the CLI compiles from these arguments."""
        from repro.scenarios.cli import apply_spec_overrides
        from repro.scenarios.compiler import compile_scenario
        from repro.scenarios.registry import load_scenario

        loaded = apply_spec_overrides(
            load_scenario(spec),
            cycles=None if self.generated else self.cycles,
            seed=seed,
            metrics=list(self.metrics) or None,
        )
        return compile_scenario(loaded, kernel=self.kernel)

    def pinned_digests(self, seed: int) -> list[str] | None:
        if self.reference != "pinned" or seed != DEFAULT_SEED:
            return None
        path = EXPECTED_DIR / f"{self.name}.json"
        return json.loads(path.read_text())["digests"]


def paper_cells_spec(cycles: int, replications: int) -> dict:
    """The 112 published cells of Tables 3(a) and 4 as one scenario.

    One joint ``(buffered, memories, memory_cycle_ratio)`` axis over
    n = 8, priority to processors, p = 1.
    """
    from repro.experiments import paper_data

    cells = [[False, m, r] for m, r in sorted(paper_data.TABLE3A_SIMULATION)]
    cells += [
        [True, m, r] for m, r in sorted(paper_data.TABLE4_BUFFERED_SIMULATION)
    ]
    return {
        "name": "paper-cells",
        "description": "Tables 3(a) and 4: the 112 published EBW cells",
        "method": "simulation",
        "cycles": cycles,
        "warmup": cycles // 4,
        "base": {"processors": 8, "priority": "processors"},
        "grid": [
            {
                "fields": ["buffered", "memories", "memory_cycle_ratio"],
                "values": cells,
            }
        ],
        "replications": {"count": replications, "base_seed": DEFAULT_SEED},
    }


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-fast",
            why="the 112 published cells on the exact fast kernel; "
            "batch kernel, service and cache reads bypassed",
            scenario=PAPER_SPEC,
            cycles=3000,
            kernel="fast",
            reference="pinned",
        ),
        Workload(
            name="paper-fleet",
            why="the same cells x 8 replications on the batch kernel with "
            "latency sketches, packed into padded super-fleets",
            scenario=PAPER_SPEC,
            cycles=1000,
            replications=8,
            kernel="batch",
            metrics=("latency",),
            reference="pinned",
        ),
        Workload(
            name="sweep-service",
            why="figure2 grid through 2 service workers: spawn, handshake, "
            "lease round trips and small-fleet kernel calls dominate",
            scenario="figure2",
            cycles=2000,
            kernel="batch",
            reference="serial",
            workers=2,
        ),
        Workload(
            name="warm-rerun",
            why="8960 short units served from a pre-filled store: start-up, "
            "cache keys, bulk cache reads and rendering; no kernel runs",
            scenario=PAPER_SPEC,
            cycles=100,
            replications=80,
            kernel="batch",
            reference="fill",
        ),
    )
}
