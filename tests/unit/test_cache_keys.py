"""Bulk work-unit keying: every key equals ``cache.key(unit.payload())``.

:func:`repro.parallel.cache.unit_keys` encodes one payload per shape
and splices each unit's seed into it.  These tests hold it to the
per-unit encoding over every registered scenario, the trace workload,
both exact and batch kernels, with and without latency metrics, and
arbitrary seeds; three literal keys pin the encoding itself.
"""

from __future__ import annotations

import dataclasses
from importlib.util import find_spec

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.parallel.cache import ResultCache, fingerprint, unit_keys
from repro.scenarios.cli import apply_spec_overrides
from repro.scenarios.compiler import WorkUnit, compile_scenario
from repro.scenarios.registry import all_scenarios
from repro.scenarios.spec import EvaluationMethod, spec_from_mapping
from repro.workloads.spec import HotSpotWorkload

TRACE_SPEC = spec_from_mapping(
    {
        "name": "trace-keys",
        "method": "simulation",
        "cycles": 200,
        "base": {"processors": 4, "memories": 4},
        "grid": [{"field": "memory_cycle_ratio", "values": [2, 4]}],
        "workload": {"kind": "trace", "traces": [[0, 1], [1, 2], [2, 3], [3]]},
        "replications": {"count": 3, "base_seed": 7},
    }
)

# No registered scenario uses the crossbar method.
CROSSBAR_SPEC = spec_from_mapping(
    {
        "name": "crossbar-keys",
        "method": "crossbar",
        "base": {"processors": 4, "memory_cycle_ratio": 2},
        "grid": [{"field": "memories", "values": [2, 4]}],
        "replications": {"count": 3},
    }
)

SPECS = {spec.name: spec for spec in all_scenarios()}
SPECS[TRACE_SPEC.name] = TRACE_SPEC
SPECS[CROSSBAR_SPEC.name] = CROSSBAR_SPEC


@pytest.fixture
def cache(tmp_path):
    return ResultCache(cache_dir=tmp_path, version_tag="v-keys")


def compiled(name: str, kernel: str, metrics: tuple[str, ...]):
    """The units the CLI would compile, or ``None`` if it rejects them."""
    try:
        spec = apply_spec_overrides(SPECS[name], metrics=list(metrics) or None)
        return compile_scenario(spec, kernel=kernel)
    except ConfigurationError:
        return None


# Every scenario x kernel x metrics combination the CLI accepts
# (analytic methods other than mva reject the latency metric).
SWEEPS = {
    f"{name}-{kernel}-{'+'.join(metrics) or 'none'}": units
    for name in SPECS
    for kernel in ("fast", "batch")
    for metrics in ((), ("latency",))
    if (units := compiled(name, kernel, metrics)) is not None
}


@pytest.mark.parametrize("sweep", SWEEPS)
def test_bulk_keys_equal_per_unit_keys(cache, sweep):
    units = SWEEPS[sweep]
    assert cache.keys(units) == [cache.key(u.payload()) for u in units]
    assert unit_keys(units) == [fingerprint(u.payload()) for u in units]


def test_equivalence_sweeps_cover_every_workload_kind_and_method():
    """The sweeps above reach every workload kind and method, both
    kernels and the latency payloads."""
    seen = set()
    for units in SWEEPS.values():
        for unit in units:
            kind = unit.workload.kind if unit.workload else "uniform"
            seen.update({kind, unit.method, (unit.kernel, unit.metrics)})
    assert {"uniform", "hot_spot", "trace", "request_mix"} <= seen
    assert set(EvaluationMethod) <= seen
    kernels = ("fast", "batch") if find_spec("numpy") else ("fast",)
    for kernel in kernels:
        assert (kernel, ()) in seen and (kernel, ("latency",)) in seen


def base_unit(method=EvaluationMethod.SIMULATION, kernel="fast", metrics=()):
    return WorkUnit(
        index=0,
        scenario="pinned",
        config=SystemConfig(8, 4, 4),
        workload=None,
        method=method,
        cycles=1000,
        warmup=250,
        seed=1985,
        replication=0,
        metrics=metrics,
        kernel=kernel,
    )


SEEDS = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 1]),
)


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=1, max_size=12), repeat=st.booleans())
def test_spliced_seeds_match_full_encoding(tmp_path_factory, seeds, repeat):
    """Any seeds - zero, 64-bit extremes, repeats - key as in full."""
    cache = ResultCache(
        cache_dir=tmp_path_factory.mktemp("keys"), version_tag="v-keys"
    )
    if repeat:
        seeds = seeds + seeds[::-1]
    templates = (
        base_unit(),
        base_unit(kernel="batch", metrics=("latency",)),
        base_unit(method=EvaluationMethod.MVA, metrics=("latency",)),
    )
    units = [
        dataclasses.replace(template, index=index, seed=seed)
        for index, seed in enumerate(seeds)
        for template in templates
    ]
    assert cache.keys(units) == [cache.key(u.payload()) for u in units]


def test_units_sharing_one_config_object_split_on_every_other_field(cache):
    """Only the seed is spliced: workload, method, cycles, warmup,
    metrics, kernel and backend each start a new shape."""
    base = base_unit()
    variants = [
        {},
        {"workload": HotSpotWorkload(hot_fraction=0.3)},
        {"method": EvaluationMethod.MVA},
        {"cycles": 500},
        {"warmup": None},
        {"metrics": ("latency",)},
        {"kernel": "batch"},
        {"kernel": "batch", "backend": "numba"},
    ]
    units = [
        dataclasses.replace(base, seed=seed, **changes)
        for changes in variants
        for seed in (1, 2)
    ]
    keys = cache.keys(units)
    assert keys == [cache.key(u.payload()) for u in units]
    # numba is bit-identical to numpy: one shared batch namespace.
    assert keys[-2:] == keys[-4:-2]
    # The two MVA units share one key; so do the numba/numpy batch pairs.
    assert len(set(keys)) == len(units) - 3


# Keys under version tag "pinned-tag", from the per-unit encoding.  A
# change here retires every stored entry: make it on purpose only.
PINNED = [
    (
        base_unit(),
        "0888f91366765054ceb4cab6247273f3c8aaf33ccddfeba1e4d7e2096c34c524",
    ),
    (
        base_unit(kernel="batch", metrics=("latency",)),
        "57cb93f166e43227356b83c223f296c346ad54649c02ec5acc72e5f263eab4b0",
    ),
    (
        base_unit(method=EvaluationMethod.MARKOV, kernel="reference"),
        "06cea7d05d884f402cd713be90d4248ddd48a15d16873ca934ed321b69e193d0",
    ),
]


@pytest.mark.parametrize(
    "unit,expected",
    PINNED,
    ids=["exact-simulation", "batch-latency", "analytic-markov"],
)
def test_pinned_keys(tmp_path, unit, expected):
    cache = ResultCache(cache_dir=tmp_path, version_tag="pinned-tag")
    assert cache.keys([unit]) == [expected]
    assert cache.key(unit.payload()) == expected


@dataclasses.dataclass(frozen=True)
class EchoUnit:
    """A unit whose payload carries its seed twice."""

    seed: int
    config: object = None
    workload: object = None
    method: str = "echo"
    cycles: int = 1
    warmup: int | None = None
    metrics: tuple = ()
    kernel: str = "fast"
    backend: str = "numpy"

    def payload(self):
        return {"seed": self.seed, "echo": [self.seed]}


def test_seed_carried_twice_falls_back_to_full_encoding(cache):
    units = [EchoUnit(seed) for seed in (3, 4, 3, 2**64)]
    assert cache.keys(units) == [cache.key(u.payload()) for u in units]
    assert len(set(cache.keys(units))) == 3
