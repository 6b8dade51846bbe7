"""The one place where the benchmark hands a gamma cache to the program.

Every workload run starts with an empty cache file in a fresh directory, so
its first pass pays for every Monte-Carlo calibration it triggers and later
passes read the cache. All three ways the package accepts a cache (the CLI
``--cache`` flag, ``EstimatorSettings(cache=)`` and the study drivers'
``cache=``) are built here and nowhere else, so a change to that API needs
an edit to this file only.
"""

from __future__ import annotations

from pathlib import Path

from nnentropy import EstimatorSettings, GammaCache


class ColdCache:
    """An initially empty gamma cache file inside ``directory``."""

    def __init__(self, directory) -> None:
        self.path = Path(directory) / "gamma.jsonl"
        if self.path.exists():
            raise FileExistsError(f"{self.path} already exists; the cache must start empty")

    def cli_args(self) -> list[str]:
        """Arguments that point an ``entropy``/``mi`` CLI call at the cache."""
        return ["--cache", str(self.path)]

    def settings(self, **kwargs) -> EstimatorSettings:
        """Estimator settings that resolve gamma through the cache."""
        return EstimatorSettings(cache=GammaCache(self.path), **kwargs)

    def driver_kwargs(self) -> dict:
        """Keyword arguments that point a study driver at the cache."""
        return {"cache": GammaCache(self.path)}
