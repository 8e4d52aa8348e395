"""Same seed, same results: every experiment reruns bit-identically.

``repro.sim``, ``repro.dl`` and ``repro.experiments`` draw every random
number from a seeded stream and read no wall clock, so a second run in
the same process must export the same document.  Two fields are wall
clock by design and are left out by name: the export's
``meta.generated_utc`` and ``placement.timing``, the ring build and
lookup times the placement ablation measures.
"""

from __future__ import annotations

from repro.experiments.export import export_results, load_results

from tests.experiments.conftest import run_every_experiment


def _exported(results: dict, path) -> dict:
    doc = load_results(export_results(results, path, seed=2024, scale="smoke"))
    del doc["meta"]["generated_utc"]
    del doc["results"]["placement"]["timing"]
    return doc


def test_same_seed_reruns_export_the_same_results(smoke_results, tmp_path):
    first = _exported(smoke_results, tmp_path / "first.json")
    again = _exported(run_every_experiment(), tmp_path / "again.json")
    for name in first["results"]:
        assert again["results"][name] == first["results"][name], f"{name} differs between same-seed runs"
    assert again == first
