"""Shared fixtures: a session-wide calibration cache and fast settings."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings as hyp_settings

from nnentropy import EstimatorSettings, GammaCache

hyp_settings.register_profile(
    "suite",
    deadline=None,
    max_examples=30,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
hyp_settings.load_profile("suite")

# Calibration size used by unit tests; small enough to be fast, large
# enough that the constant is within a couple percent of its limit.
FAST_N_CAL = 20_000
FAST_REPS = 3


@pytest.fixture(scope="session")
def gamma_cache(tmp_path_factory) -> GammaCache:
    """One on-disk calibration cache shared by the whole session."""
    return GammaCache(tmp_path_factory.mktemp("calibration") / "gamma.jsonl")


@pytest.fixture(scope="session")
def fast_settings(gamma_cache):
    """Factory for estimator settings with fast, cached calibration."""

    def _make(alpha: float, **overrides) -> EstimatorSettings:
        kwargs = dict(
            alpha=alpha,
            cache=gamma_cache,
            n_cal=FAST_N_CAL,
            reps=FAST_REPS,
        )
        kwargs.update(overrides)
        return EstimatorSettings(**kwargs)

    return _make


@pytest.fixture
def announce(capsys):
    """Print a line straight to the terminal, bypassing capture."""

    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)

    return _announce
