"""Runner-level tests: --jobs / --cache wiring and result serialization."""

from __future__ import annotations

import pytest

from repro.core.errors import ExperimentError
from repro.experiments.registry import ExperimentResult
from repro.experiments.runner import main, run_experiments
from repro.experiments.serialization import (
    result_from_payload,
    result_to_payload,
)
from repro.parallel.cache import ResultCache


def make_result() -> ExperimentResult:
    return ExperimentResult(
        experiment_id="demo",
        title="Demo table",
        row_label="n",
        column_label="m",
        rows=("n=2", "n=4"),
        columns=("m=2",),
        measured={("n=2", "m=2"): 0.1 + 0.2, ("n=4", "m=2"): 1.75},
        reference={("n=2", "m=2"): 0.3},
        notes="demo",
    )


class TestSerialization:
    def test_round_trip_is_lossless(self):
        result = make_result()
        assert result_from_payload(result_to_payload(result)) == result

    def test_payload_is_json_serializable(self):
        import json

        json.dumps(result_to_payload(make_result()))

    def test_floats_survive_json_round_trip_exactly(self):
        import json

        payload = json.loads(json.dumps(result_to_payload(make_result())))
        restored = result_from_payload(payload)
        assert restored.measured[("n=2", "m=2")] == 0.1 + 0.2

    def test_malformed_payload_raises(self):
        with pytest.raises(ExperimentError):
            result_from_payload({"payload_version": 1})

    def test_version_mismatch_raises(self):
        payload = result_to_payload(make_result())
        payload["payload_version"] = 999
        with pytest.raises(ExperimentError, match="version"):
            result_from_payload(payload)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(cache_dir=tmp_path / "cache", version_tag="test")


class TestRunnerCache:
    def test_cold_then_cached_output_identical(self, cache):
        cold = run_experiments(["table1"], cache=cache)
        assert cache.stats.stores == 1
        warm = run_experiments(["table1"], cache=cache)
        assert warm == cold
        assert cache.stats.hits == 1

    def test_cache_shared_between_jobs_settings(self, cache):
        serial = run_experiments(["table1"], cache=cache)
        pooled = run_experiments(["table1"], jobs=4, cache=cache)
        assert pooled == serial
        # Second run must have been served from the cache.
        assert cache.stats.hits >= 1

    def test_fast_and_full_have_distinct_keys(self, cache):
        run_experiments(["table3b"], cache=cache)
        run_experiments(["table3b"], cache=cache)
        # table3b ignores --fast (deterministic model) so keys collide
        # only for identical kwargs: exactly one store, one hit.
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1

    def test_corrupted_cache_entry_recomputes(self, cache):
        cold = run_experiments(["table1"], cache=cache)
        for path in cache.cache_dir.rglob("*.json"):
            path.write_text("corrupted!", encoding="utf-8")
        again = run_experiments(["table1"], cache=cache)
        assert again == cold
        assert cache.stats.evictions >= 1

    def test_uncached_run_stores_nothing(self, tmp_path):
        run_experiments(["table1"], cache=None)
        assert not list(tmp_path.rglob("*.json"))

    def test_cache_write_failure_does_not_block_run(
        self, cache, monkeypatch, capsys
    ):
        def failing_store(payload, value):
            raise OSError("disk full")

        monkeypatch.setattr(cache, "store", failing_store)
        report = run_experiments(["table1"], cache=cache)
        assert "Table 1" in report
        assert "could not cache table1" in capsys.readouterr().err


class TestMainFlags:
    def test_jobs_flag_byte_identical_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c1"))
        assert main(["table1", "--no-cache"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["table1", "--jobs", "4", "--no-cache"]) == 0
        jobs_out = capsys.readouterr().out
        assert jobs_out == serial_out

    def test_pooled_experiments_byte_identical_output(self, capsys):
        """Several uncached experiments with --jobs go through the
        pool (one experiment per worker) and print the serial bytes."""
        ids = ["table1", "table2", "table3b"]
        assert main([*ids, "--no-cache"]) == 0
        serial_out = capsys.readouterr().out
        assert main([*ids, "--jobs", "2", "--no-cache"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_broken_pool_finishes_experiments_in_process(
        self, capsys, monkeypatch
    ):
        import repro.parallel.pool as pool_module

        def no_pool(*args, **kwargs):
            raise OSError("no semaphores in this sandbox")

        ids = ["table1", "table2", "table3b"]
        assert main([*ids, "--no-cache"]) == 0
        serial_out = capsys.readouterr().out
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", no_pool)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            assert main([*ids, "--jobs", "2", "--no-cache"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_importing_the_runner_loads_no_pool_numpy_or_service(self):
        """The CLI entry point stays cheap to start: process pools,
        numpy and the sweep service load only when a run needs them."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        code = (
            "import sys\n"
            "import repro.experiments.runner\n"
            "print(sorted(name for name in "
            "('concurrent.futures', 'numpy', 'repro.service') "
            "if name in sys.modules))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        out = completed.stdout
        assert out.strip() == "[]"

    def test_cache_dir_flag(self, capsys, tmp_path):
        target = tmp_path / "explicit"
        assert main(["table1", "--cache-dir", str(target)]) == 0
        capsys.readouterr()
        assert list(target.rglob("*.json"))

    def test_cached_rerun_identical_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c2"))
        assert main(["table1"]) == 0
        cold = capsys.readouterr().out
        assert main(["table1"]) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_rejects_nonpositive_jobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--jobs", "0"])

    def test_timings_go_to_stderr_not_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c3"))
        assert main(["table1"]) == 0
        captured = capsys.readouterr()
        assert "[table1:" in captured.err
        assert "[table1:" not in captured.out


class TestCacheSubcommand:
    def test_sweep_removes_orphans_keeps_entries(self, capsys, tmp_path):
        store = ResultCache(cache_dir=tmp_path)
        path = store.put("deadbeef", {"v": 1})
        (path.parent / ".stale.json.123.ab.tmp").write_text("junk")
        (tmp_path / ".flat.json.99.cd.tmp").write_text("junk")
        assert main(["cache", "sweep", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "swept 2 orphaned tmp files" in out
        assert "1 entry kept" in out
        # The entry itself was never touched.
        assert ResultCache(cache_dir=tmp_path).get("deadbeef") == {"v": 1}
        assert not list(tmp_path.rglob("*.tmp"))

    def test_sweep_reports_size_and_empty_store(self, capsys, tmp_path):
        assert main(["cache", "sweep", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "swept 0 orphaned tmp files" in out
        assert "0 entries kept, 0 bytes" in out

    def test_sweep_rejects_unknown_action(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "clear", "--cache-dir", str(tmp_path)])

    def test_sweep_bad_cache_dir_is_a_clean_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert (
            main(["cache", "sweep", "--cache-dir", str(blocker / "sub")]) == 2
        )
        assert "error:" in capsys.readouterr().err
