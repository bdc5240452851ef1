"""Snapshot files: exact round trips and strict format checks."""

import base64
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keenact.data import Catalog
from keenact.features import co_participation_features, empty_features, l2_normalize_rows
from keenact.fm import FMParameters
from keenact.recommend import recommend
from keenact.snapshot import SnapshotError, decode_block, encode_block, load_model, save_model
from keenact.synth import generate_two_stage
from keenact.training import ThresholdTable, TrainConfig, train


def trained_model(seed=3):
    catalog, store = generate_two_stage(8, 12, 2, seed=seed, items_per_user=(2, 5))
    user_feats = l2_normalize_rows(co_participation_features(store))
    item_feats = empty_features(catalog.n_items, "item")
    config = TrainConfig(epochs=2, k=4, threshold_epochs=3, max_neg_samples=5)
    return train(store, user_feats, item_feats, config)


class TestRoundTrip:
    def test_arrays_reload_bit_exact(self, tmp_path):
        model = trained_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.keen.w0 == model.keen.w0
        np.testing.assert_array_equal(back.keen.w, model.keen.w)
        np.testing.assert_array_equal(back.keen.factors, model.keen.factors)
        np.testing.assert_array_equal(back.act.w, model.act.w)
        np.testing.assert_array_equal(back.act.factors, model.act.factors)
        np.testing.assert_array_equal(back.thresholds.item_thresholds, model.thresholds.item_thresholds)
        np.testing.assert_array_equal(
            back.thresholds.activity_thresholds, model.thresholds.activity_thresholds
        )
        assert back.thresholds.global_item_fallback == model.thresholds.global_item_fallback
        np.testing.assert_array_equal(back.thresholds.item_trained, model.thresholds.item_trained)
        assert back.seen_items == model.seen_items
        assert back.report == model.report
        assert back.config == model.config
        assert back.catalog.users == model.catalog.users
        assert back.catalog.items == model.catalog.items
        assert back.catalog.activities == model.catalog.activities
        for back_feats, feats in ((back.user_feats, model.user_feats), (back.item_feats, model.item_feats)):
            assert back_feats.entity_kind == feats.entity_kind
            assert back_feats.matrix.shape == feats.matrix.shape
            np.testing.assert_array_equal(back_feats.matrix.indptr, feats.matrix.indptr)
            np.testing.assert_array_equal(back_feats.matrix.indices, feats.matrix.indices)
            np.testing.assert_array_equal(back_feats.matrix.data, feats.matrix.data)

    def test_reloaded_model_recommends_identically(self, tmp_path):
        model = trained_model(seed=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        for u in range(back.n_users):
            a = recommend(model, u).entries
            b = recommend(back, u).entries
            assert [(e.item, e.activity) for e in a] == [(e.item, e.activity) for e in b]
            assert [e.keen_score for e in a] == [e.keen_score for e in b]

    def test_resave_is_byte_identical(self, tmp_path):
        model = trained_model()
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()


# any finite float, with the edge values drawn often: signed zeros,
# subnormals, the smallest normal and magnitudes near the float64 limit
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308, 1.7976931348623157e308]
finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))

SMALL_MODEL = trained_model()


def float_arrays(shape):
    size = int(np.prod(shape))
    return st.lists(finite_floats, min_size=size, max_size=size).map(lambda xs: np.array(xs).reshape(shape))


@st.composite
def filled_models(draw):
    """SMALL_MODEL with every weight, factor, cutoff and the fallback drawn."""
    def params(p):
        return FMParameters(draw(finite_floats), draw(float_arrays(p.w.shape)), draw(float_arrays(p.factors.shape)))

    t = SMALL_MODEL.thresholds
    thresholds = ThresholdTable(
        item_thresholds=draw(float_arrays(t.item_thresholds.shape)),
        activity_thresholds=draw(float_arrays(t.activity_thresholds.shape)),
        global_item_fallback=draw(finite_floats),
        item_trained=t.item_trained,
    )
    return dataclasses.replace(SMALL_MODEL, keen=params(SMALL_MODEL.keen), act=params(SMALL_MODEL.act), thresholds=thresholds)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(filled_models())
    def test_any_finite_floats_reload_bit_exact(self, tmp_path_factory, model):
        """Every float block reloads with its bits, -0.0 and subnormals
        included, and a re-save writes the same bytes."""
        d = tmp_path_factory.mktemp("snap")
        save_model(model, d / "a.json")
        back = load_model(d / "a.json")
        for name in ("keen", "act"):
            want, got = getattr(model, name), getattr(back, name)
            assert same_bits(got.w0, want.w0)
            assert same_bits(got.w, want.w)
            assert same_bits(got.factors, want.factors)
        t, bt = model.thresholds, back.thresholds
        assert same_bits(bt.item_thresholds, t.item_thresholds)
        assert same_bits(bt.activity_thresholds, t.activity_thresholds)
        assert same_bits(bt.global_item_fallback, t.global_item_fallback)
        save_model(back, d / "b.json")
        assert (d / "a.json").read_bytes() == (d / "b.json").read_bytes()


# float64 bit patterns built by field: either sign; exponent 0 (zeros and
# subnormals), 0x7FF (infinities, and NaNs with any payload), the ends of
# the normal range or any; and a zero or any mantissa
float_bits = st.builds(
    lambda sign, exponent, mantissa: (sign << 63) | (exponent << 52) | mantissa,
    st.integers(0, 1),
    st.one_of(st.sampled_from([0, 1, 0x7FE, 0x7FF]), st.integers(0, 0x7FF)),
    st.one_of(st.just(0), st.integers(1, 2**52 - 1)),
)


@st.composite
def bit_arrays(draw):
    shape = draw(st.one_of(st.tuples(st.integers(0, 6)), st.tuples(st.integers(0, 5), st.integers(1, 4))))
    bits = draw(st.lists(float_bits, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(bits, dtype=np.uint64).reshape(shape).view(np.float64)


class TestBlockCodec:
    @settings(max_examples=200, deadline=None)
    @given(bit_arrays())
    @example(np.zeros((0, 4)))
    def test_round_trip_keeps_every_bit(self, array):
        """NaN payloads, infinities, signed zeros, subnormals and empty shapes
        come back bit for bit, as native writable arrays."""
        back = decode_block(encode_block(array), array.shape, "block")
        assert back.shape == array.shape
        assert back.dtype == np.float64 and back.dtype.isnative
        assert back.flags.writeable and back.flags.c_contiguous
        np.testing.assert_array_equal(back.view(np.uint64), array.view(np.uint64))


class TestFormatChecks:
    def test_wrong_format_name(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "other", "version": 1}), encoding="utf-8")
        with pytest.raises(SnapshotError, match="not a"):
            load_model(path)

    def test_wrong_version(self, tmp_path):
        model = trained_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SnapshotError, match="version"):
            load_model(path)

    def test_version_1_rejected(self, tmp_path):
        """Version 1 stored floats as JSON numbers; no reader for it remains."""
        model = trained_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SnapshotError, match="version 1"):
            load_model(path)

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000, '{"a":' * 100_000, b"\xff\xfe{}"],
        ids=["nested-lists", "nested-objects", "not-utf8"],
    )
    def test_unparseable_file_exits_2(self, tmp_path, capsys, text):
        """Nesting past the parser's recursion limit and bytes that are not
        UTF-8 are malformed snapshots, not crashes."""
        from keenact.cli import main

        path = tmp_path / "model.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        with pytest.raises(SnapshotError, match="malformed snapshot"):
            load_model(path)
        assert main(["recommend", "--model", str(path), "--all-users"]) == 2
        assert "malformed snapshot" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SnapshotError, match="malformed"):
            load_model(path)

    def test_non_object_payload(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(SnapshotError, match="object"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "absent.json")

    def test_catalog_optional(self, tmp_path):
        model = trained_model()
        model.catalog = None
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path).catalog is None


def saved_payload(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_model(), path)
    return path, json.loads(path.read_text(encoding="utf-8"))


def drop(*keys):
    def edit(payload):
        node = payload
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]

    return edit


def put(value, *keys):
    def edit(payload):
        node = payload
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value(node[keys[-1]]) if callable(value) else value

    return edit


def floats(text):
    """The flat float64 array a block encodes."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8")


def block(edit, *keys):
    """put() for a float block: edit its flat array and store the result re-encoded."""
    return put(lambda text: encode_block(edit(floats(text))), *keys)


def factors(edit, stage):
    """Edit a stage's factor block as its (dim, k) array."""
    def apply(payload):
        params = payload[stage]
        params["factors"] = encode_block(edit(floats(params["factors"]).reshape(-1, payload["config"]["k"])))

    return apply


def w_as_rows(payload):
    """Move each row's first factor into keen.w: the block lengths still add
    up, but each one misses the shape its layout gives it."""
    params = payload["keen"]
    f = floats(params["factors"]).reshape(-1, payload["config"]["k"])
    params["w"] = encode_block(np.column_stack((floats(params["w"]), f[:, 0])))
    params["factors"] = encode_block(f[:, 1:])


class TestContract:
    """A snapshot that does not fit its own layouts is a SnapshotError, not a crash."""

    @pytest.mark.parametrize(
        "edit",
        [
            drop("keen"),
            drop("thresholds", "item"),
            drop("act", "factors"),
            drop("keen_layout", "n_items"),
            put([], "thresholds"),
            put("abc", "keen"),
            put(None, "thresholds", "fallback"),
            put(lambda d: {**d, "colour": 1}, "keen_layout"),
            block(lambda w: w[:-1], "keen", "w"),
            put(lambda w: [w], "act", "w"),
            factors(lambda f: f[:-1], "keen"),
            factors(lambda f: f[:, :-1], "act"),
            w_as_rows,
            block(lambda t: np.append(t, 0.0), "thresholds", "item"),
            block(lambda t: t[:-1], "thresholds", "activity"),
            put(lambda t: t[:-1], "thresholds", "trained"),
            put(lambda c: {**c, "lr": -1.0}, "config"),
            put(lambda u: u[:-1], "catalog", "users"),
            put(lambda u: u + ["extra"], "catalog", "users"),
            put(lambda i: i[:-1], "catalog", "items"),
            put(lambda a: a[:-1], "catalog", "activities"),
            put(lambda r: r[:-1] + [8], "user_feats", "rows"),
            put(lambda c: c[:-1] + [8], "user_feats", "cols"),
            put(lambda c: [-1] + c[1:], "user_feats", "cols"),
            put(lambda r: [-1] + r[1:], "user_feats", "rows"),
            block(lambda v: v[:-1], "user_feats", "values"),
            put(lambda c: c + [0], "user_feats", "cols"),
            put(lambda r: [r[0] + 0.5] + r[1:], "user_feats", "rows"),
            put(lambda c: [float(c[0])] + c[1:], "user_feats", "cols"),
            put(lambda c: ["0"] + c[1:], "user_feats", "cols"),
            put(lambda v: "!" + v[1:], "user_feats", "values"),
            put([8, -1], "user_feats", "shape"),
            put([12.0, 0], "item_feats", "shape"),
            put([12, 0, 1], "item_feats", "shape"),
            put(12, "item_feats", "shape"),
            put([True, 0], "item_feats", "shape"),
            put(lambda f: floats(f).tolist(), "keen", "factors"),
            put(None, "thresholds", "item"),
            put(lambda w: base64.b64encode(base64.b64decode(w)[:-3]).decode("ascii"), "keen", "w"),
            put(lambda t: t[:4] + "\n" + t[4:], "thresholds", "activity"),
            put("\u00e9", "item_feats", "values"),
            block(lambda v: np.append(v, 1.0), "user_feats", "values"),
        ],
        ids=[
            "missing-keen", "missing-item-thresholds", "missing-factors", "missing-layout-field",
            "thresholds-not-object", "params-not-object", "fallback-null",
            "unknown-layout-field", "short-w", "w-not-vector", "short-factors", "narrow-factors",
            "w-as-rows", "long-item-thresholds", "short-activity-thresholds", "short-trained-mask",
            "bad-config",
            "catalog-user-short", "catalog-user-extra", "catalog-item-short", "catalog-activity-short",
            "feature-row-outside-shape", "feature-col-outside-shape", "feature-col-negative",
            "feature-row-negative", "feature-values-short", "feature-cols-long", "feature-row-fraction",
            "feature-col-float", "feature-col-string", "feature-value-string", "feature-shape-negative",
            "feature-shape-float", "feature-shape-three", "feature-shape-scalar", "feature-shape-bool",
            "factors-as-number-list", "item-thresholds-null", "w-bytes-not-multiple-of-8",
            "block-with-newline", "block-not-ascii", "feature-values-long",
        ],
    )
    def test_rejected_with_snapshot_error(self, tmp_path, edit):
        path, payload = saved_payload(tmp_path)
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SnapshotError):
            load_model(path)

    def test_feature_entries_in_any_order_load_canonical(self, tmp_path):
        """Feature entries are read as a COO list: duplicates are summed and zeros dropped."""
        path, payload = saved_payload(tmp_path)
        block = payload["user_feats"]
        want = load_model(path).user_feats.matrix
        entries = list(zip(block["rows"], block["cols"], floats(block["values"]).tolist()))
        halves = [(r, c, v / 2) for r, c, v in entries]
        extra = [(0, 1, 0.0), (2, 2, 0.0)]
        block["rows"], block["cols"], values = (list(x) for x in zip(*reversed(halves + extra + halves)))
        block["values"] = encode_block(np.array(values))
        path.write_text(json.dumps(payload), encoding="utf-8")
        got = load_model(path).user_feats.matrix
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)

    def test_config_without_batch_size_loads_with_the_default(self, tmp_path):
        """Snapshots written before the key existed still load."""
        path, payload = saved_payload(tmp_path)
        del payload["config"]["batch_size"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert load_model(path).config.batch_size == TrainConfig().batch_size

    @pytest.mark.parametrize("value", [0, 2.5])
    def test_bad_batch_size_rejected(self, tmp_path, value):
        path, payload = saved_payload(tmp_path)
        payload["config"]["batch_size"] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SnapshotError):
            load_model(path)

    def test_recommend_exits_2_on_missing_key(self, tmp_path, capsys):
        from keenact.cli import main

        path, payload = saved_payload(tmp_path)
        del payload["act"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["recommend", "--model", str(path), "--all-users"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_recommend_exits_2_on_short_item_list(self, tmp_path, capsys):
        """A catalog that names fewer items than the layouts is a data error, not an IndexError."""
        from keenact.cli import main

        path, payload = saved_payload(tmp_path)
        payload["catalog"]["items"].pop()
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["recommend", "--model", str(path), "--all-users"]) == 2
        assert "catalog lists" in capsys.readouterr().err
