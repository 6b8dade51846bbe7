"""The names the benchmark in ``perfbench/`` imports, wraps and passes still work.

The benchmark's files are read, never changed: these tests import its span
tracer, its workloads (whose ``TOY`` configs set ``n_cal``/``reps``) and its
cache adapter, install the tracer over every function it wraps, and make
one small call through each way the adapter hands a gamma cache to the
package.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import nnentropy.cli as cli
import nnentropy.estimators as estimators
import nnentropy.experiments as experiments
from nnentropy import GammaCache, GammaKey, IsaExperimentConfig, RateExperimentConfig, estimate_gamma

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """The ``spans``, ``workloads`` and ``coldcache`` modules of the benchmark."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return tuple(map(importlib.import_module, ("spans", "workloads", "coldcache")))


@pytest.fixture
def traced(bench):
    """A tracer installed over every target for the length of one test."""
    tracer = bench[0].Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_toy_configs_keep_the_calibration_fields(bench):
    toy = bench[1].TOY
    assert isinstance(toy.rate, RateExperimentConfig)
    assert isinstance(toy.isa, IsaExperimentConfig)
    for config in (toy.rate, toy.isa):
        assert (config.n_cal, config.reps) == (2_000, 2)


def test_uninstall_restores_every_wrapped_attribute(bench):
    spans = bench[0]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for owner, attr, fn in originals:
            assert getattr(owner, attr) is not fn, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn, (owner, attr)


def _entropy_settings(cache, csv, toy):
    report = estimators.renyi_entropy(np.loadtxt(csv, delimiter=","), cache.settings(alpha=0.7))
    assert np.isfinite(report.value)


def _mi_settings(cache, csv, toy):
    report = estimators.renyi_mi(np.loadtxt(csv, delimiter=",")[:, :2], cache.settings(alpha=0.7))
    assert np.isfinite(report.value)


def _entropy_cli(cache, csv, toy):
    assert cli.main(["entropy", str(csv), "--alpha", "0.7", *cache.cli_args()]) == 0


def _mi_cli(cache, csv, toy):
    assert cli.main(["mi", str(csv), "--alpha", "0.7", *cache.cli_args()]) == 0


def _rate_driver(cache, csv, toy):
    result = experiments.run_rate_experiment(toy.rate, seed=0, **cache.driver_kwargs())
    assert sorted({row.n for row in result.rows}) == [64, 128]


def _isa_driver(cache, csv, toy):
    result = experiments.run_isa_experiment(toy.isa, seed=0, **cache.driver_kwargs())
    assert result.block_norms.shape == (3, 3)


@pytest.mark.parametrize(
    "call, span",
    [
        (_entropy_settings, "estimators.renyi_entropy"),
        (_mi_settings, "estimators.renyi_mi"),
        (_entropy_cli, "cli.main"),
        (_mi_cli, "cli.main"),
        (_rate_driver, "experiments.run_rate_experiment"),
        (_isa_driver, "experiments.run_isa_experiment"),
    ],
    ids=["entropy-settings", "mi-settings", "entropy-cli", "mi-cli", "rate-driver", "isa-driver"],
)
def test_traced_call_through_a_cache_handle(bench, traced, tmp_path, capsys, call, span):
    """Each handle is accepted, the call is recorded, and no cache file appears."""
    cache = bench[2].ColdCache(tmp_path)
    csv = tmp_path / "sample.csv"
    np.savetxt(csv, np.random.default_rng(0).random((300, 3)), delimiter=",")
    call(cache, csv, bench[1].TOY)
    assert span in {s.name for s in traced.take()}
    assert not cache.path.exists()


def test_traced_get_or_compute_wraps_the_monte_carlo(traced, tmp_path):
    key = GammaKey(d=2, p=1.0, spec=(1,), n_cal=500, reps=2)
    expected = estimate_gamma(key, seed=3)
    traced.take()
    est, was_hit = GammaCache(tmp_path / "g.jsonl").get_or_compute(key, seed=3)
    assert (est, was_hit) == (expected, False)
    outer, inner, *graphs = sorted(traced.take(), key=lambda s: s.start)
    assert (outer.name, inner.name) == ("calibration.get_or_compute", "calibration.estimate_gamma")
    assert inner.parent is outer
    assert inner.counts == {"calibration.points": 1_000}
    builds = [g for g in graphs if g.name == "calibration.build_nn_graph"]
    assert len(builds) == key.reps and all(g.parent is inner for g in builds)
    assert list(tmp_path.iterdir()) == []
