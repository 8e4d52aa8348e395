"""One smoke-scale run of every experiment, shared by the tests that read it."""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentScale
from repro.experiments.__main__ import EXPERIMENTS, run_experiment

SMOKE = ExperimentScale.smoke()
#: fig5's discrete-event engine at a scale it runs in about a second; at
#: smoke scale it takes most of a minute
DES_TINY = ExperimentScale(name="tiny", dataset_scale=1 / 2048, node_counts=(8,), n_failures=1, repeats=1)


def run_every_experiment(seed: int = 2024) -> dict:
    """Every experiment of the CLI at smoke scale, and fig5 under ``des`` too."""
    results = {name: run_experiment(name, SMOKE, seed=seed) for name in EXPERIMENTS}
    results["fig5-des"] = run_experiment("fig5", DES_TINY, seed=seed, model="des")
    return results


@pytest.fixture(scope="session")
def smoke_results() -> dict:
    return run_every_experiment()
