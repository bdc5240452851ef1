"""Model persistence as deterministic JSON text.

Every float64 array is stored as one base64 string of its little-endian
bytes in row-major order (a float block); scalars, integer lists, the
config, the catalog and the report are plain JSON. A saved model
therefore reloads bit-exactly, and two identical training runs produce
byte-identical snapshot files. Each fact is stored once: a feature
matrix is its CSR ``indptr``, ``indices``, ``values`` and ``width``
with the catalog's row count, and the layouts are rebuilt from the
catalog, the feature widths and ``config.id_onehots``, as ``train``
builds them. Loading checks every value's type, each block's length
against the shape those layouts and ``config.k`` give it, and that
every stored number is finite.
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
FORMAT_VERSION = 3


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


def _finite(value, name: str):
    """``value``, a float array or a JSON number other than a bool, if all of it is finite; else a SnapshotError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.ndarray)) or not np.isfinite(value).all():
        raise SnapshotError(f"malformed snapshot: {name} is not a finite number or block")
    return value


def _finite_block(text, shape: tuple, name: str) -> np.ndarray:
    """decode_block for the blocks that must be finite; the codec itself carries any bits."""
    return _finite(decode_block(text, shape, name), name)


def _params_to_dict(params: FMParameters) -> dict:
    return {
        "w0": params.w0,
        "w": encode_block(params.w),
        "factors": encode_block(params.factors),
    }


def _params_from_dict(payload: dict, name: str, dim: int, k: int) -> FMParameters:
    return FMParameters(
        w0=float(_finite(payload["w0"], f"{name}.w0")),
        w=_finite_block(payload["w"], (dim,), f"{name}.w"),
        factors=_finite_block(payload["factors"], (dim, k), f"{name}.factors"),
    )


def _list_of(kind: type, value, name: str) -> list:
    """``value`` if it is a JSON list whose items are all exactly ``kind``: ``true`` and ``1.0`` are not ints."""
    if not isinstance(value, list) or not set(map(type, value)) <= {kind}:
        raise SnapshotError(f"malformed snapshot: {name} is not a list of {kind.__name__} values")
    return value


def _feats_to_dict(feats: FeatureMatrix) -> dict:
    m = feats.matrix
    return {
        "indptr": m.indptr.tolist(),
        "indices": m.indices.tolist(),
        "values": encode_block(m.data),
        "width": m.shape[1],
    }


def _feats_from_dict(payload: dict, name: str, n_rows: int) -> FeatureMatrix:
    """The canonical CSR rows as stored; the CSR constructor rejects any other."""
    indptr = _list_of(int, payload["indptr"], f"{name}.indptr")
    indices = _list_of(int, payload["indices"], f"{name}.indices")
    values = _finite_block(payload["values"], (len(indices),), f"{name}.values")
    # CSR takes a shape of non-negative ints only, so it rejects a bool or float width
    return FeatureMatrix(CSR(indptr, indices, values, (n_rows, payload["width"])))


def _report_row(row) -> tuple[int, str, str, float]:
    if not (isinstance(row, list) and len(row) == 4 and [type(x) for x in row[:3]] == [int, str, str]):
        raise SnapshotError(f"malformed snapshot: report row {row!r} is not [epoch, phase, metric, value]")
    return row[0], row[1], row[2], float(_finite(row[3], "a report value"))


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "catalog": model.catalog.to_dict(),
        "keen": _params_to_dict(model.keen),
        "act": _params_to_dict(model.act),
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


def model_from_dict(payload: dict) -> TrainedModel:
    """Rebuild a model; a missing key, a wrong type or a size that does
    not fit the layouts the catalog and features give is a SnapshotError."""
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
    names = payload["catalog"]
    catalog = Catalog(*(_list_of(str, names[key], f"catalog.{key}") for key in ("users", "items", "activities")))
    user_feats = _feats_from_dict(payload["user_feats"], "user_feats", catalog.n_users)
    item_feats = _feats_from_dict(payload["item_feats"], "item_feats", catalog.n_items)
    keen_layout = FeatureLayout.for_keen(catalog, user_feats, item_feats, config.id_onehots)
    act_layout = FeatureLayout.for_act(catalog, user_feats, item_feats, config.id_onehots)
    keen = _params_from_dict(payload["keen"], "keen", keen_layout.dim, config.k)
    act = _params_from_dict(payload["act"], "act", act_layout.dim, config.k)
    cutoffs = payload["thresholds"]
    trained = _list_of(int, cutoffs["trained"], "thresholds.trained")
    if len(trained) != catalog.n_items or set(trained) - {0, 1}:
        raise SnapshotError("malformed snapshot: thresholds.trained is not one 0 or 1 per catalog item")
    thresholds = ThresholdTable(
        item_thresholds=_finite_block(cutoffs["item"], (catalog.n_items,), "thresholds.item"),
        activity_thresholds=_finite_block(cutoffs["activity"], (catalog.n_activities,), "thresholds.activity"),
        global_item_fallback=float(_finite(cutoffs["fallback"], "thresholds.fallback")),
        item_trained=np.array(trained, dtype=bool),
    )
    return TrainedModel(
        keen=keen,
        act=act,
        thresholds=thresholds,
        keen_layout=keen_layout,
        act_layout=act_layout,
        user_feats=user_feats,
        item_feats=item_feats,
        seen_items=frozenset(np.flatnonzero(thresholds.item_trained).tolist()),
        report=[_report_row(row) for row in _list_of(list, payload["report"], "report")],
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
