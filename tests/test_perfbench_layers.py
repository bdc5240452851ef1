"""The benchmark's imports and wrappers still resolve on the current package.

``perfbench/layers.py`` wraps keenact functions and methods by name, and
``perfbench/workloads.py`` imports keenact names and calls some of their
methods; a refactor that drops or renames one of them breaks
``perfbench/run.py`` with an ``ImportError`` or ``AttributeError``.
These tests catch that here.
"""

import importlib.util
from pathlib import Path

from keenact import training
from keenact.features import empty_features
from keenact.synth import generate_two_stage
from keenact.training import TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_installs_and_uninstalls():
    layers, spans = load("layers"), load("spans")
    originals = (training.Trainer.warp_step_keen, training.Trainer.warp_step_act, training.part_stats)
    rec = spans.SpanRecorder()
    layers.instrument(rec)
    try:
        assert training.Trainer.warp_step_keen is not originals[0]
        catalog, store = generate_two_stage(6, 12, 2, seed=1, items_per_user=(2, 4))
        training.train(
            store,
            empty_features(catalog.n_users),
            empty_features(catalog.n_items),
            TrainConfig(epochs=1, k=2, threshold_epochs=1, batch_size=4),
        )
    finally:
        rec.uninstall()
    assert (training.Trainer.warp_step_keen, training.Trainer.warp_step_act, training.part_stats) == originals
    totals = rec.totals()
    # one span per batch of 4 examples; the hooks sum draws and updated rows over a batch
    assert totals["training.keen_rank"]["calls"] == -(-store.n_pairs // 4)
    assert totals["training.act_rank"]["calls"] == -(-store.n_triples // 4)
    assert rec.counters["training.keen_draws"] > 0
    # fm.updates counts one fm.adam span per batch with at least one updated row
    updates = rec.counters["training.keen_updates"] + rec.counters["training.act_updates"]
    assert 0 < totals["fm.adam"]["calls"] <= updates
    assert totals["fm.adam"]["calls"] <= totals["training.keen_rank"]["calls"] + totals["training.act_rank"]["calls"]


def test_workloads_names_resolve():
    """Loading imports every keenact name the workloads use; these methods are looked up at run time."""
    workloads = load("workloads")
    assert callable(workloads.FlatPairSpace.flatten)
    assert callable(workloads.RecommendationList.is_ordered)
