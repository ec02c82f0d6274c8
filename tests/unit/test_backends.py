"""Unit tests for the pluggable batch-backend layer.

Covers the registry surface (:mod:`repro.bus.backends`), the
missing-dependency diagnostics (each optional backend must fail loudly
naming its install extra - never fall back to numpy silently), the
lazy numba import, the backend/kernel validation shared by
``simulate``, ``compile_scenario`` and the CLIs, and the one engine
token every (bit-identical) backend shares.  The numerical numpy ==
numba contract lives in ``tests/properties/test_backend_equivalence.py``.
"""

from __future__ import annotations

import builtins
import os
import subprocess
import sys

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError


def _block_import(monkeypatch, module: str):
    """Make ``import <module>`` raise ImportError inside the test."""
    real_import = builtins.__import__

    def blocked(name, *args, **kwargs):
        if name == module or name.startswith(module + "."):
            raise ImportError(f"{module} disabled for this test")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", blocked)


class TestRegistry:
    def test_known_backends_resolve_to_singletons(self):
        from repro.bus.backends import KNOWN_BACKENDS, get_backend

        for name in KNOWN_BACKENDS:
            backend = get_backend(name)
            assert backend.name == name
            assert get_backend(name) is backend

    def test_unknown_backend_names_the_known_table(self):
        from repro.bus.backends import get_backend

        with pytest.raises(
            ConfigurationError, match="numpy, numba, numba-parallel"
        ):
            get_backend("torch")

    def test_instances_pass_through(self):
        from repro.bus.backends import NumbaBackend, get_backend

        instance = NumbaBackend(jit=False)
        assert get_backend(instance) is instance

    def test_known_backends_are_the_bit_identical_three(self):
        from repro.bus.backends import KNOWN_BACKENDS

        assert KNOWN_BACKENDS == ("numpy", "numba", "numba-parallel")

    def test_every_backend_shares_the_batch_engine_token(self):
        from repro.bus.backends import BATCH_ENGINE_TOKEN, KNOWN_BACKENDS
        from repro.engine import EvalRequest, EvaluationMethod, get_evaluator

        # Every backend is proven bit-identical to numpy, so their cache
        # entries are interchangeable: one shared namespace.
        evaluator = get_evaluator(EvaluationMethod.SIMULATION)
        payloads = [
            evaluator.cache_payload(
                EvalRequest(
                    SystemConfig(2, 2, 2),
                    cycles=500,
                    seed=3,
                    kernel="batch",
                    backend=name,
                )
            )
            for name in KNOWN_BACKENDS
        ]
        assert payloads[0]["engine"] == BATCH_ENGINE_TOKEN
        assert all(payload == payloads[0] for payload in payloads)


class TestLazyNumba:
    def test_numpy_batch_run_never_imports_numba(self):
        """Importing the backends package (which registers both numba
        backends) and running the numpy backend must not pay the numba
        import: numba loads only when a JIT loop is first compiled."""
        pytest.importorskip("numpy")
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        code = (
            "import sys\n"
            "import repro.bus.batch as batch\n"
            "from repro.core.config import SystemConfig\n"
            "batch.run_batch(SystemConfig(2, 2, 2), cycles=200, seed=1)\n"
            "print('numba' in sys.modules)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"


class TestMissingDependencies:
    def test_missing_numba_raises_naming_batch_jit_extra(self, monkeypatch):
        from repro.bus.backends import NumbaBackend

        backend = NumbaBackend()
        _block_import(monkeypatch, "numba")
        assert not backend.available()
        with pytest.raises(
            ConfigurationError, match=r"repro-single-bus\[batch-jit\]"
        ):
            backend.require()

    def test_missing_numba_fails_the_parallel_backend_too(self, monkeypatch):
        from repro.bus.backends import NumbaParallelBackend

        backend = NumbaParallelBackend()
        _block_import(monkeypatch, "numba")
        assert not backend.available()
        with pytest.raises(
            ConfigurationError, match=r"repro-single-bus\[batch-jit\]"
        ):
            backend.require()

    def test_missing_backend_surfaces_through_simulate(self, monkeypatch):
        pytest.importorskip("numpy")
        from repro.bus import simulate

        _block_import(monkeypatch, "numba")
        with pytest.raises(ConfigurationError, match=r"\[batch-jit\]"):
            simulate(
                SystemConfig(2, 2, 2),
                cycles=100,
                kernel="batch",
                backend="numba",
            )

    def test_interpreted_numba_backend_needs_no_numba(self, monkeypatch):
        """``NumbaBackend(jit=False)`` runs the same loops in plain
        Python - the lever the equivalence suite uses on hosts without
        numba."""
        pytest.importorskip("numpy")
        from repro.bus.backends import NumbaBackend
        from repro.bus.batch import run_batch

        _block_import(monkeypatch, "numba")
        result = run_batch(
            SystemConfig(2, 2, 2),
            cycles=300,
            seed=3,
            backend=NumbaBackend(jit=False),
        )
        assert result.completions > 0


class TestValidation:
    def test_simulate_rejects_backend_without_batch_kernel(self):
        from repro.bus import simulate

        for kernel in ("reference", "fast"):
            with pytest.raises(
                ConfigurationError, match="requires kernel='batch'"
            ):
                simulate(
                    SystemConfig(2, 2, 2),
                    cycles=100,
                    kernel=kernel,
                    backend="numba",
                )

    def test_check_batch_features_threads_backend(self):
        from repro.bus.batch import check_batch_features

        with pytest.raises(ConfigurationError, match="known backends"):
            check_batch_features(metrics=("latency",), backend="cupy")
        check_batch_features(metrics=("latency",), backend="numba")
        check_batch_features(metrics=("latency",), backend="numba-parallel")

    @pytest.mark.parametrize(
        "parallel", [False, True], ids=["serial", "parallel"]
    )
    def test_too_many_buffered_geometric_memories_rejected(self, parallel):
        """A buffered geometric row can pull one access draw per module
        plus two per cycle, so more than ``chunk - 2`` memories cannot
        fit one stream buffer: the driver must refuse loudly, naming the
        numpy backend, before it could ever report a stalled loop."""
        pytest.importorskip("numpy")
        from repro.bus.backends import NumbaBackend, NumbaParallelBackend
        from repro.bus.batch import run_batch

        backend_type = NumbaParallelBackend if parallel else NumbaBackend
        with pytest.raises(ConfigurationError, match="backend='numpy'"):
            run_batch(
                SystemConfig(1, 2047, 2, buffered=True),
                cycles=50,
                seed=1,
                geometric_access_times=True,
                backend=backend_type(jit=False),
            )


class TestScenarioCompiler:
    def _spec(self, metrics=()):
        from repro.scenarios.spec import (
            GridAxis,
            ReplicationPlan,
            ScenarioSpec,
        )

        return ScenarioSpec(
            name="backend-unit",
            description="",
            base={"processors": 2, "memories": 2},
            grid=(GridAxis("memory_cycle_ratio", (2,)),),
            cycles=200,
            plan=ReplicationPlan(2, 0),
            metrics=metrics,
        )

    def test_units_carry_backend_and_shared_token(self):
        from repro.scenarios.compiler import compile_scenario

        numba_units = compile_scenario(
            self._spec(), kernel="batch", backend="numba"
        )
        numpy_units = compile_scenario(self._spec(), kernel="batch")
        assert all(unit.backend == "numba" for unit in numba_units)
        # Bit-identical backends share cache identity: payloads match
        # byte-for-byte, so a numba run is served from numpy entries.
        for numba_unit, numpy_unit in zip(numba_units, numpy_units):
            assert numba_unit.payload() == numpy_unit.payload()
            assert numba_unit.payload()["engine"] == "simulation-batch@1"
        # numba-parallel is in the same bit-identical family: a
        # threaded run is served from (and feeds) the same entries.
        parallel_units = compile_scenario(
            self._spec(), kernel="batch", backend="numba-parallel"
        )
        for parallel_unit, numpy_unit in zip(parallel_units, numpy_units):
            assert parallel_unit.payload() == numpy_unit.payload()

    def test_unknown_backend_rejected_at_compile_time(self):
        from repro.scenarios.compiler import compile_scenario

        with pytest.raises(
            ConfigurationError, match="numpy, numba, numba-parallel"
        ):
            compile_scenario(self._spec(), kernel="batch", backend="mlx")

    def test_backend_requires_batch_kernel(self):
        from repro.scenarios.compiler import compile_scenario

        with pytest.raises(
            ConfigurationError, match="requires kernel='batch'"
        ):
            compile_scenario(self._spec(), kernel="fast", backend="numba")


class TestFleetGrouping:
    def test_fleet_key_separates_backends(self):
        pytest.importorskip("numpy")
        from repro.parallel.fleet import fleet_key, group_fleets
        from repro.parallel.workers import SimulationCase

        config = SystemConfig(2, 2, 2)
        numpy_case = SimulationCase(config, 500, 0, kernel="batch")
        numba_case = SimulationCase(
            config, 500, 0, kernel="batch", backend="numba"
        )
        assert fleet_key(numpy_case) != fleet_key(numba_case)
        groups = group_fleets([numpy_case, numba_case, numpy_case])
        assert groups == [[0, 2], [1]]


class TestCli:
    def test_backend_flag_requires_batch_kernel(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "figure2", "--backend", "numba"])
        assert excinfo.value.code == 2
        assert "--backend requires --kernel batch" in capsys.readouterr().err

    def test_unknown_backend_rejected_by_argparse(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "scenario",
                    "figure2",
                    "--kernel",
                    "batch",
                    "--backend",
                    "torch",
                ]
            )
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", [[], ["--workers", "2"]], ids=["scenario", "workers"]
    )
    def test_cupy_is_not_a_backend_choice(self, capsys, extra):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "scenario",
                    *extra,
                    "figure2",
                    "--kernel",
                    "batch",
                    "--backend",
                    "cupy",
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'cupy'" in err
        assert "numba-parallel" in err
