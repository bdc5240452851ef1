"""The traced benchmark's wrappers still install on the current package.

``perfbench/layers.py`` wraps keenact functions and methods by name; a
refactor that drops or renames one of them breaks ``perfbench/run.py
--trace 1`` with an ``AttributeError``.  This test catches that here.
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
            empty_features(catalog.n_users, "user"),
            empty_features(catalog.n_items, "item"),
            TrainConfig(epochs=1, k=2, threshold_epochs=1),
        )
    finally:
        rec.uninstall()
    assert (training.Trainer.warp_step_keen, training.Trainer.warp_step_act, training.part_stats) == originals
    totals = rec.totals()
    assert totals["training.keen_rank"]["calls"] == store.n_pairs
    assert totals["training.act_rank"]["calls"] == store.n_triples
    assert rec.counters["training.keen_draws"] > 0
    # fm.updates counts one fm.adam span per applied update
    assert totals["fm.adam"]["calls"] == rec.counters["training.keen_updates"] + rec.counters["training.act_updates"]
