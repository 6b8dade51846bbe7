"""Shared fixtures: a session-wide gamma cache handle and terminal output."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings as hyp_settings

from nnentropy import GammaCache

hyp_settings.register_profile(
    "suite",
    deadline=None,
    max_examples=30,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
hyp_settings.load_profile("suite")


@pytest.fixture(scope="session")
def gamma_cache(tmp_path_factory) -> GammaCache:
    """One gamma cache handle shared by the whole session; estimates accept and ignore it."""
    return GammaCache(tmp_path_factory.mktemp("calibration") / "gamma.jsonl")


@pytest.fixture
def announce(capsys):
    """Print a line straight to the terminal, bypassing capture."""

    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)

    return _announce
