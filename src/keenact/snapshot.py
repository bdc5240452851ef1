"""Model persistence as deterministic JSON text.

Floats are serialized through their shortest round-trip repr, so a
saved model reloads bit-exactly and two identical training runs produce
byte-identical snapshot files.
"""

from __future__ import annotations

import json

import numpy as np

from keenact.data import Catalog
from keenact.features import CSR, FeatureLayout, FeatureMatrix
from keenact.fm import FMParameters
from keenact.training import ThresholdTable, TrainConfig, TrainedModel

FORMAT_NAME = "keenact-model"
FORMAT_VERSION = 1


class SnapshotError(ValueError):
    """Snapshot file is missing, malformed, or from an unknown format."""


def _params_to_dict(params: FMParameters) -> dict:
    return {
        "w0": params.w0,
        "w": params.w.tolist(),
        "factors": params.factors.tolist(),
    }


def _params_from_dict(payload: dict) -> FMParameters:
    return FMParameters(
        w0=float(payload["w0"]),
        w=np.array(payload["w"], dtype=np.float64),
        factors=np.array(payload["factors"], dtype=np.float64),
    )


def _feats_to_dict(feats: FeatureMatrix) -> dict:
    m = feats.matrix
    return {
        "kind": feats.entity_kind,
        "shape": list(m.shape),
        "rows": m.row_ids().tolist(),
        "cols": m.indices.tolist(),
        "values": m.data.tolist(),
    }


def _feats_from_dict(payload: dict) -> FeatureMatrix:
    """Entries in any order; duplicates are summed and zeros dropped."""
    matrix = CSR.from_coo(payload["rows"], payload["cols"], payload["values"], payload["shape"])
    return FeatureMatrix(matrix, payload["kind"])


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "catalog": model.catalog.to_dict() if model.catalog is not None else None,
        "keen": _params_to_dict(model.keen),
        "act": _params_to_dict(model.act),
        "keen_layout": model.keen_layout.to_dict(),
        "act_layout": model.act_layout.to_dict(),
        "thresholds": {
            "item": model.thresholds.item_thresholds.tolist(),
            "activity": model.thresholds.activity_thresholds.tolist(),
            "fallback": model.thresholds.global_item_fallback,
            "trained": [int(b) for b in model.thresholds.item_trained],
        },
        "user_feats": _feats_to_dict(model.user_feats),
        "item_feats": _feats_to_dict(model.item_feats),
        "seen_items": sorted(model.seen_items),
        "report": [[e, p, m, v] for (e, p, m, v) in model.report],
    }


def _check_shape(name: str, array: np.ndarray, shape: tuple) -> None:
    if array.shape != shape:
        raise SnapshotError(f"{name} has shape {array.shape}, expected {shape}")


def model_from_dict(payload: dict) -> TrainedModel:
    """Rebuild a model; a missing key, a wrong type or a size that does
    not fit the stored layouts, catalog counts included, is a SnapshotError."""
    if payload.get("format") != FORMAT_NAME:
        raise SnapshotError(f"not a {FORMAT_NAME} file")
    if payload.get("version") != FORMAT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {payload.get('version')!r}")
    try:
        return _model_from_payload(payload)
    except SnapshotError:
        raise
    except KeyError as exc:
        raise SnapshotError(f"malformed snapshot: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from None


def _model_from_payload(payload: dict) -> TrainedModel:
    config = TrainConfig(**payload["config"])
    keen_layout = FeatureLayout.from_dict(payload["keen_layout"])
    act_layout = FeatureLayout.from_dict(payload["act_layout"])
    keen = _params_from_dict(payload["keen"])
    act = _params_from_dict(payload["act"])
    for name, params, layout in (("keen", keen, keen_layout), ("act", act, act_layout)):
        _check_shape(f"{name}.w", params.w, (layout.dim,))
        _check_shape(f"{name}.factors", params.factors, (layout.dim, config.k))
    user_feats = _feats_from_dict(payload["user_feats"])
    item_feats = _feats_from_dict(payload["item_feats"])
    _check_shape("user_feats", user_feats.matrix, (keen_layout.n_users, keen_layout.d_user))
    _check_shape("item_feats", item_feats.matrix, (keen_layout.n_items, keen_layout.d_item))
    thresholds = ThresholdTable(
        item_thresholds=np.array(payload["thresholds"]["item"], dtype=np.float64),
        activity_thresholds=np.array(payload["thresholds"]["activity"], dtype=np.float64),
        global_item_fallback=float(payload["thresholds"]["fallback"]),
        item_trained=np.array(payload["thresholds"]["trained"], dtype=bool),
    )
    _check_shape("thresholds.item", thresholds.item_thresholds, (keen_layout.n_items,))
    _check_shape("thresholds.trained", thresholds.item_trained, (keen_layout.n_items,))
    _check_shape("thresholds.activity", thresholds.activity_thresholds, (act_layout.n_activities,))
    seen_items = frozenset(int(v) for v in payload["seen_items"])
    catalog = Catalog.from_dict(payload["catalog"]) if payload.get("catalog") else None
    expected = (keen_layout.n_users, keen_layout.n_items, act_layout.n_activities)
    if catalog is not None and (catalog.n_users, catalog.n_items, catalog.n_activities) != expected:
        counts = (catalog.n_users, catalog.n_items, catalog.n_activities)
        raise SnapshotError(f"catalog lists {counts} (users, items, activities); the layouts expect {expected}")
    return TrainedModel(
        keen=keen,
        act=act,
        thresholds=thresholds,
        keen_layout=keen_layout,
        act_layout=act_layout,
        user_feats=user_feats,
        item_feats=item_feats,
        seen_items=seen_items,
        report=[(int(e), str(p), str(m), float(v)) for e, p, m, v in payload["report"]],
        config=config,
        catalog=catalog,
    )


def save_model(model: TrainedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # dumps runs the C encoder; dump would stream through the pure-Python one
        fh.write(json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def load_model(path) -> TrainedModel:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from None
    if not isinstance(payload, dict):
        raise SnapshotError("malformed snapshot: expected a JSON object")
    return model_from_dict(payload)
