"""Model persistence as deterministic JSON text.

Every float64 array is stored as one base64 string of its little-endian
bytes in row-major order (a float block); scalars, integer lists, the
config, the catalog and the report are plain JSON. A saved model
therefore reloads bit-exactly, and two identical training runs produce
byte-identical snapshot files. Loading checks each block's length
against the shape that the stored layouts, ``config.k`` and the feature
``rows`` give it.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

from keenact.data import Catalog
from keenact.features import CSR, FeatureLayout, FeatureMatrix
from keenact.fm import FMParameters
from keenact.training import ThresholdTable, TrainConfig, TrainedModel

FORMAT_NAME = "keenact-model"
FORMAT_VERSION = 2


class SnapshotError(ValueError):
    """Snapshot file is missing, malformed, or from an unknown format."""


def encode_block(array: np.ndarray) -> str:
    """A float64 array as base64 text of its ``<f8`` bytes in row-major order."""
    return base64.b64encode(np.ascontiguousarray(array, dtype="<f8").tobytes()).decode("ascii")


def decode_block(text, shape: tuple, name: str) -> np.ndarray:
    """The native, writable float64 array of ``shape`` that ``text`` encodes;
    text that is not a base64 string of exactly that many values is a SnapshotError."""
    if not isinstance(text, str):
        raise SnapshotError(f"malformed snapshot: {name} is not a base64 string")
    try:
        # validate=True rejects characters outside the alphabet; binascii's
        # stricter strict_mode needs Python 3.11
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise SnapshotError(f"malformed snapshot: {name} is not valid base64: {exc}") from None
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise SnapshotError(f"malformed snapshot: {name} holds {len(raw)} bytes, {expected} expected for shape {shape}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _params_to_dict(params: FMParameters) -> dict:
    return {
        "w0": params.w0,
        "w": encode_block(params.w),
        "factors": encode_block(params.factors),
    }


def _params_from_dict(payload: dict, name: str, dim: int, k: int) -> FMParameters:
    return FMParameters(
        w0=float(payload["w0"]),
        w=decode_block(payload["w"], (dim,), f"{name}.w"),
        factors=decode_block(payload["factors"], (dim, k), f"{name}.factors"),
    )


def _feats_to_dict(feats: FeatureMatrix) -> dict:
    m = feats.matrix
    return {
        "kind": feats.entity_kind,
        "shape": list(m.shape),
        "rows": m.row_ids().tolist(),
        "cols": m.indices.tolist(),
        "values": encode_block(m.data),
    }


def _feats_from_dict(payload: dict, name: str) -> FeatureMatrix:
    """Entries in any order; duplicates are summed and zeros dropped."""
    rows = payload["rows"]
    values = decode_block(payload["values"], (len(rows),), f"{name}.values")
    matrix = CSR.from_coo(rows, payload["cols"], values, payload["shape"])
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
            "item": encode_block(model.thresholds.item_thresholds),
            "activity": encode_block(model.thresholds.activity_thresholds),
            "fallback": model.thresholds.global_item_fallback,
            "trained": [int(b) for b in model.thresholds.item_trained],
        },
        "user_feats": _feats_to_dict(model.user_feats),
        "item_feats": _feats_to_dict(model.item_feats),
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
        raise SnapshotError(
            f"unsupported snapshot version {payload.get('version')!r}; this release reads version {FORMAT_VERSION}"
        )
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
    keen = _params_from_dict(payload["keen"], "keen", keen_layout.dim, config.k)
    act = _params_from_dict(payload["act"], "act", act_layout.dim, config.k)
    user_feats = _feats_from_dict(payload["user_feats"], "user_feats")
    item_feats = _feats_from_dict(payload["item_feats"], "item_feats")
    _check_shape("user_feats", user_feats.matrix, (keen_layout.n_users, keen_layout.d_user))
    _check_shape("item_feats", item_feats.matrix, (keen_layout.n_items, keen_layout.d_item))
    cutoffs = payload["thresholds"]
    thresholds = ThresholdTable(
        item_thresholds=decode_block(cutoffs["item"], (keen_layout.n_items,), "thresholds.item"),
        activity_thresholds=decode_block(cutoffs["activity"], (act_layout.n_activities,), "thresholds.activity"),
        global_item_fallback=float(cutoffs["fallback"]),
        item_trained=np.array(cutoffs["trained"], dtype=bool),
    )
    _check_shape("thresholds.trained", thresholds.item_trained, (keen_layout.n_items,))
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
        seen_items=frozenset(np.flatnonzero(thresholds.item_trained).tolist()),
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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from None
    except RecursionError:
        raise SnapshotError("malformed snapshot: JSON nested too deeply") from None
    if not isinstance(payload, dict):
        raise SnapshotError("malformed snapshot: expected a JSON object")
    return model_from_dict(payload)
