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
from keenact.features import co_participation_features, empty_features, l2_normalize_rows, tfidf_item_features
from keenact.fm import FMParameters
from keenact.recommend import recommend
from keenact.snapshot import SnapshotError, decode_block, encode_block, load_model, save_model
from keenact.synth import generate_two_stage
from keenact.training import ThresholdTable, TrainConfig, train


def trained_model(seed=3, id_onehots=True, tags=False):
    """A small trained model; ``tags`` gives items tf-idf features over three tags."""
    catalog, store = generate_two_stage(8, 12, 2, seed=seed, items_per_user=(2, 5))
    user_feats = l2_normalize_rows(co_participation_features(store))
    if tags:
        item_tags = {item: [f"t{j % 3}"] * (1 + j % 2) + [f"t{j % 2}"] for j, item in enumerate(catalog.items)}
        item_feats = tfidf_item_features(item_tags, catalog)
    else:
        item_feats = empty_features(catalog.n_items)
    config = TrainConfig(epochs=2, k=4, threshold_epochs=3, max_neg_samples=5, id_onehots=id_onehots)
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

    @pytest.mark.parametrize(
        "kwargs", [{}, {"id_onehots": False}, {"tags": True}, {"id_onehots": False, "tags": True}],
        ids=["id-onehots", "no-id-onehots", "tfidf-items", "tfidf-items-no-id-onehots"],
    )
    def test_layouts_are_rebuilt_as_training_built_them(self, tmp_path, kwargs):
        model = trained_model(**kwargs)
        assert model.item_feats.dim == (3 if kwargs.get("tags") else 0)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.keen_layout == model.keen_layout
        assert back.act_layout == model.act_layout
        for back_feats, feats in ((back.user_feats, model.user_feats), (back.item_feats, model.item_feats)):
            assert back_feats.matrix.shape == feats.matrix.shape
            np.testing.assert_array_equal(back_feats.matrix.data, feats.matrix.data)
        for u in range(model.n_users):
            assert recommend(back, u).entries == recommend(model, u).entries

    def test_each_fact_is_stored_once(self, tmp_path):
        """Version 3 keys: no layouts, and a feature block is its CSR arrays and width."""
        path = tmp_path / "model.json"
        save_model(trained_model(), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["version"] == 3
        assert set(payload) == {
            "format", "version", "config", "catalog", "keen", "act", "thresholds", "user_feats", "item_feats", "report",
        }
        for name in ("user_feats", "item_feats"):
            assert set(payload[name]) == {"indptr", "indices", "values", "width"}

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
        """Version 1 stored floats as JSON numbers and version 2 stored the
        layouts and a COO row list; no reader for either remains."""
        model = trained_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        for version in (1, 2):
            payload["version"] = version
            path.write_text(json.dumps(payload), encoding="utf-8")
            with pytest.raises(SnapshotError, match=f"version {version}"):
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


def unsorted_row(payload):
    """Swap the first two columns of the first user feature row that has two."""
    feats = payload["user_feats"]
    indptr, indices = feats["indptr"], feats["indices"]
    start = next(indptr[r] for r in range(len(indptr) - 1) if indptr[r + 1] - indptr[r] >= 2)
    indices[start], indices[start + 1] = indices[start + 1], indices[start]


def w_as_rows(payload):
    """Move each row's first factor into keen.w: the block lengths still add
    up, but each one misses the shape its layout gives it."""
    params = payload["keen"]
    f = floats(params["factors"]).reshape(-1, payload["config"]["k"])
    params["w"] = encode_block(np.column_stack((floats(params["w"]), f[:, 0])))
    params["factors"] = encode_block(f[:, 1:])


class TestContract:
    """A snapshot that does not fit the layouts its catalog, feature widths and
    config give, or holds a value of the wrong type, is a SnapshotError, not a crash."""

    @pytest.mark.parametrize(
        "edit",
        [
            drop("keen"),
            drop("thresholds", "item"),
            drop("act", "factors"),
            put([], "thresholds"),
            put("abc", "keen"),
            put(None, "thresholds", "fallback"),
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
            put(lambda p: p + [p[-1]], "user_feats", "indptr"),
            put(lambda c: c[:-1] + [8], "user_feats", "indices"),
            put(lambda c: [-1] + c[1:], "user_feats", "indices"),
            put(lambda p: [-1] + p[1:], "user_feats", "indptr"),
            block(lambda v: v[:-1], "user_feats", "values"),
            put(lambda c: c + [0], "user_feats", "indices"),
            put(lambda p: [p[0] + 0.5] + p[1:], "user_feats", "indptr"),
            put(lambda c: [float(c[0])] + c[1:], "user_feats", "indices"),
            put(lambda c: ["0"] + c[1:], "user_feats", "indices"),
            put(lambda v: "!" + v[1:], "user_feats", "values"),
            put(-1, "user_feats", "width"),
            put(0.0, "item_feats", "width"),
            put([0], "item_feats", "width"),
            put(None, "item_feats", "width"),
            put(False, "item_feats", "width"),
            put(lambda f: floats(f).tolist(), "keen", "factors"),
            put(None, "thresholds", "item"),
            put(lambda w: base64.b64encode(base64.b64decode(w)[:-3]).decode("ascii"), "keen", "w"),
            put(lambda t: t[:4] + "\n" + t[4:], "thresholds", "activity"),
            put("\u00e9", "item_feats", "values"),
            block(lambda v: np.append(v, 1.0), "user_feats", "values"),
            put(lambda t: [2] + t[1:], "thresholds", "trained"),
            put(lambda t: ["x"] + t[1:], "thresholds", "trained"),
            put(lambda t: [None] + t[1:], "thresholds", "trained"),
            put(lambda t: [True] + t[1:], "thresholds", "trained"),
            put(lambda t: [-1] + t[1:], "thresholds", "trained"),
            put(lambda t: [0.5] + t[1:], "thresholds", "trained"),
            put(math.nan, "thresholds", "fallback"),
            put("0.25", "thresholds", "fallback"),
            put(True, "thresholds", "fallback"),
            put("1e3", "keen", "w0"),
            put(math.inf, "keen", "w0"),
            put(10**400, "act", "w0"),
            block(lambda w: np.where(np.arange(w.size) == 1, np.nan, w), "keen", "w"),
            block(lambda f: np.where(np.arange(f.size) == 0, np.inf, f), "act", "factors"),
            block(lambda t: np.where(np.arange(t.size) == 0, -np.inf, t), "thresholds", "item"),
            block(lambda t: np.where(np.arange(t.size) == 0, np.nan, t), "thresholds", "activity"),
            block(lambda v: np.where(np.arange(v.size) == 0, np.inf, v), "user_feats", "values"),
            put(lambda c: {**c, "id_onehots": not c["id_onehots"]}, "config"),
            put(lambda w: w + 1, "user_feats", "width"),
            put(lambda w: w - 1, "user_feats", "width"),
            put(lambda w: w + 1, "item_feats", "width"),
            put(lambda p: p[:-1], "user_feats", "indptr"),
            put(lambda p: [0] + p, "user_feats", "indptr"),
            put(lambda p: p[:-1], "item_feats", "indptr"),
            unsorted_row,
            block(lambda v: np.where(np.arange(v.size) == 0, 0.0, v), "user_feats", "values"),
            put(None, "catalog"),
            drop("catalog"),
            put(lambda p: [True] + p[1:], "user_feats", "indptr"),
            put(lambda c: [c[0] == 1] + c[1:], "user_feats", "indices"),
            put(lambda u: [7] + u[1:], "catalog", "users"),
            put(lambda a: a[:-1] + [None], "catalog", "activities"),
            put(lambda r: [["0", 7, None, "1e3"]] + r[1:], "report"),
            put(lambda r: [[True, "keen_rank", "warp_loss", 1.0]] + r[1:], "report"),
            put(lambda r: [[0.5, "keen_rank", "warp_loss", 1.0]] + r[1:], "report"),
            put(lambda r: [[0, "keen_rank", "warp_loss", math.nan]] + r[1:], "report"),
            put(lambda r: [[0, "keen_rank", "warp_loss"]] + r[1:], "report"),
            put({"0": []}, "report"),
        ],
        ids=[
            "missing-keen", "missing-item-thresholds", "missing-factors",
            "thresholds-not-object", "params-not-object", "fallback-null",
            "short-w", "w-not-vector", "short-factors", "narrow-factors",
            "w-as-rows", "long-item-thresholds", "short-activity-thresholds", "short-trained-mask",
            "bad-config",
            "catalog-user-short", "catalog-user-extra", "catalog-item-short", "catalog-activity-short",
            "feature-row-outside-shape", "feature-col-outside-shape", "feature-col-negative",
            "feature-row-negative", "feature-values-short", "feature-cols-long", "feature-row-fraction",
            "feature-col-float", "feature-col-string", "feature-value-string", "feature-shape-negative",
            "feature-shape-float", "feature-shape-three", "feature-shape-scalar", "feature-shape-bool",
            "factors-as-number-list", "item-thresholds-null", "w-bytes-not-multiple-of-8",
            "block-with-newline", "block-not-ascii", "feature-values-long",
            "trained-mask-two", "trained-mask-string", "trained-mask-null", "trained-mask-bool",
            "trained-mask-negative", "trained-mask-fraction",
            "fallback-nan", "fallback-string", "fallback-bool", "w0-string", "w0-inf", "w0-overflows-float",
            "w-nan", "factors-inf", "item-thresholds-minus-inf", "activity-thresholds-nan", "feature-values-inf",
            "id-onehots-flipped", "user-width-plus-one", "user-width-minus-one", "item-width-plus-one",
            "user-indptr-short", "user-indptr-long", "item-indptr-short", "feature-row-unsorted", "feature-value-zero",
            "catalog-null", "catalog-missing",
            "feature-indptr-bool", "feature-index-bool",
            "catalog-user-int", "catalog-activity-null",
            "report-row-coerced", "report-epoch-bool", "report-epoch-fraction", "report-value-nan",
            "report-row-short", "report-not-list",
        ],
    )
    def test_rejected_with_snapshot_error(self, tmp_path, edit):
        path, payload = saved_payload(tmp_path)
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SnapshotError):
            load_model(path)

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
        """A catalog that names fewer items than the item features have rows is a data error, not an IndexError."""
        from keenact.cli import main

        path, payload = saved_payload(tmp_path)
        payload["catalog"]["items"].pop()
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["recommend", "--model", str(path), "--all-users"]) == 2
        assert "indptr needs one entry per row" in capsys.readouterr().err
