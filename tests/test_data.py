"""Ingestion, deduplication, user filtering, and per-user splitting."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keenact.data import (
    Catalog,
    DatasetError,
    EmptyDatasetError,
    InteractionStore,
    ParseError,
    SchemaError,
    filter_active_users,
    ingest,
    split_per_user,
    write_interaction_log,
)


def write_log(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(str(c) for c in row) + "\n")
    return path


class TestIngest:
    def test_three_row_example(self, tmp_path):
        """Two users, two items, two activity types; three triples, two pairs."""
        log = write_log(
            tmp_path / "log.tsv",
            [
                ("a", "x", "fork", 100),
                ("a", "x", "watch", 101),
                ("b", "y", "fork", 102),
            ],
        )
        catalog, store = ingest(log)
        assert catalog.n_users == 2
        assert catalog.n_items == 2
        assert catalog.n_activities == 2
        assert store.n_triples == 3
        assert store.n_pairs == 2

    def test_single_row(self, tmp_path):
        log = write_log(tmp_path / "log.tsv", [("u", "i", "fork", 1)])
        _, store = ingest(log)
        assert store.keen_pairs == ((0, 0),)
        assert store.triples == ((0, 0, 0),)

    def test_first_seen_order(self, tmp_path):
        log = write_log(
            tmp_path / "log.tsv",
            [("b", "y", "watch", 1), ("a", "x", "fork", 2), ("b", "x", "fork", 3)],
        )
        catalog, _ = ingest(log)
        assert catalog.users == ("b", "a")
        assert catalog.items == ("y", "x")
        assert catalog.activities == ("watch", "fork")
        assert catalog.user_index["a"] == 1

    def test_duplicates_collapse_and_count(self, tmp_path):
        log = write_log(
            tmp_path / "log.tsv",
            [("a", "x", "fork", 1)] * 3 + [("a", "x", "watch", 2)],
        )
        _, store = ingest(log)
        assert store.n_triples == 2
        assert store.n_duplicates == 2

    def test_byte_order_mark_is_not_part_of_the_first_user(self, tmp_path):
        log = tmp_path / "log.tsv"
        log.write_bytes(b"\xef\xbb\xbfu1\tx\tfork\t1\nu1\ty\twatch\t2\n")
        catalog, store = ingest(log)
        assert catalog.users == ("u1",)
        assert store.n_pairs == 2

    def test_crlf_line_endings(self, tmp_path):
        log = tmp_path / "log.tsv"
        log.write_bytes(b"a\tx\tfork\t1\r\nb\ty\twatch\t2\r\n")
        catalog, store = ingest(log)
        assert (catalog.users, catalog.items, catalog.activities) == (("a", "b"), ("x", "y"), ("fork", "watch"))
        assert store.timestamps == {(0, 0, 0): 1, (1, 1, 1): 2}

    def test_extra_columns_are_ignored(self, tmp_path):
        log = write_log(tmp_path / "log.tsv", [("a", "x", "fork", 1, "note"), ("b", "x", "watch", 2, "", "more")])
        catalog, store = ingest(log)
        assert (catalog.users, catalog.items, catalog.activities) == (("a", "b"), ("x",), ("fork", "watch"))
        assert store.triples == ((0, 0, 0), (1, 0, 1))

    def test_parse_error_carries_line_number(self, tmp_path):
        log = write_log(tmp_path / "log.tsv", [("a", "x", "fork", 1), ("broken",)])
        with pytest.raises(ParseError) as err:
            ingest(log)
        assert err.value.line_number == 2
        assert "line 2" in str(err.value)

    def test_non_integer_timestamp(self, tmp_path):
        log = write_log(tmp_path / "log.tsv", [("a", "x", "fork", "soon")])
        with pytest.raises(ParseError):
            ingest(log)

    def test_timestamp_outside_int64_is_a_data_error(self, tmp_path):
        log = write_log(tmp_path / "log.tsv", [("a", "x", "fork", 2**63 - 1), ("b", "x", "fork", 2**63)])
        with pytest.raises(DatasetError, match="int64"):
            ingest(log)

    def test_header_line_is_a_record(self, tmp_path):
        """A log has no header: a column-name line fails to parse at line 1."""
        log = write_log(tmp_path / "log.tsv", [("user", "item", "activity", "timestamp"), ("a", "x", "fork", 1)])
        with pytest.raises(ParseError) as err:
            ingest(log)
        assert err.value.line_number == 1

    def test_declared_activities_enforced(self, tmp_path):
        log = write_log(tmp_path / "log.tsv", [("a", "x", "star", 1)])
        with pytest.raises(SchemaError):
            ingest(log, ("fork", "watch"))

    def test_declared_activities_fix_ids(self, tmp_path):
        """Declared vocabulary pins activity ids even for unseen types."""
        log = write_log(tmp_path / "log.tsv", [("a", "x", "watch", 1)])
        catalog, _ = ingest(log, ("fork", "watch"))
        assert catalog.activities == ("fork", "watch")
        assert catalog.activity_index["watch"] == 1

    def test_empty_file_rejected(self, tmp_path):
        log = write_log(tmp_path / "log.tsv", [])
        with pytest.raises(EmptyDatasetError, match="empty dataset"):
            ingest(log)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("a\tx\tfork\t1\n\n\nb\ty\twatch\t2\n", encoding="utf-8")
        _, store = ingest(path)
        assert store.n_triples == 2

    def test_round_trip_through_canonical_log(self, tmp_path):
        log = write_log(
            tmp_path / "log.tsv",
            [("a", "x", "fork", 5), ("b", "y", "watch", 6), ("a", "y", "fork", 7)],
        )
        _, store = ingest(log)
        out = tmp_path / "canonical.tsv"
        write_interaction_log(store, out)
        _, reread = ingest(out)
        assert reread.triples == store.triples
        assert reread.catalog.users == store.catalog.users


# raw ids the parser keeps as written: no tabs, line breaks, edge whitespace or BOM
raw_ids = st.text(
    st.characters(exclude_categories=("Cc", "Cs", "Zs", "Zl", "Zp"), exclude_characters="\ufeff"),
    min_size=1,
    max_size=6,
)


@st.composite
def raw_logs(draw):
    """Rows over small id pools, so the same triple recurs with other timestamps."""
    users, items, acts = (draw(st.lists(raw_ids, min_size=1, max_size=4, unique=True)) for _ in range(3))
    row = st.tuples(st.sampled_from(users), st.sampled_from(items), st.sampled_from(acts), st.integers(-(2**40), 2**40))
    return draw(st.lists(row, min_size=1, max_size=25))


def raw_view(catalog, store):
    """Catalog id sets, triples and timestamps in raw ids."""
    def raw(t):
        return catalog.users[t[0]], catalog.items[t[1]], catalog.activities[t[2]]

    return (
        (set(catalog.users), set(catalog.items), set(catalog.activities)),
        {raw(t) for t in store.triples},
        {raw(t): ts for t, ts in store.timestamps.items()},
    )


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(raw_logs())
    def test_ingest_write_ingest_keeps_the_log(self, rows):
        """The canonical log keeps every raw triple and its first timestamp.

        Dense ids may be renumbered: the log is written in dense-id order
        and read back in first-seen order.
        """
        with tempfile.TemporaryDirectory() as tmp:
            catalog, store = ingest(write_log(Path(tmp) / "raw.tsv", rows))
            write_interaction_log(store, Path(tmp) / "canonical.tsv")
            reread_catalog, reread = ingest(Path(tmp) / "canonical.tsv")
        first = {}
        for u, v, z, ts in rows:
            first.setdefault((u, v, z), ts)
        ids = ({r[0] for r in rows}, {r[1] for r in rows}, {r[2] for r in rows})
        assert raw_view(catalog, store) == (ids, set(first), first)
        assert store.n_duplicates == len(rows) - len(first)
        assert raw_view(reread_catalog, reread) == raw_view(catalog, store)
        assert reread.n_duplicates == 0


class TestStore:
    def test_positive_sets(self):
        catalog = Catalog(["a", "b"], ["x", "y", "z"], ["fork", "watch"])
        store = InteractionStore(catalog, [(0, 0, 0), (0, 0, 1), (0, 2, 0), (1, 1, 0)])
        assert store.positive_items(0) == {0, 2}
        assert store.positive_activities(0, 0) == {0, 1}
        assert store.positive_activities(0, 1) == frozenset()
        assert store.positive_items(1) == {1}

    def test_triples_sorted_and_bounded(self):
        catalog = Catalog(["a"], ["x"], ["fork"])
        with pytest.raises(ValueError):
            InteractionStore(catalog, [(0, 1, 0)])

    @pytest.mark.parametrize("bad", [(0, 1.5, 0), (0, "1", 0), (None, 0, 0), (0, 1.0, 0)])
    def test_non_integer_ids_rejected(self, bad):
        """A non-integer id is named, not truncated or stored as given."""
        catalog = Catalog(["a", "b"], ["x", "y"], ["fork"])
        with pytest.raises(DatasetError, match=re.escape(f"triple {bad}")):
            InteractionStore(catalog, [(0, 0, 0), bad, (1, 1, 0)])

    @pytest.mark.parametrize("n_times", [0, 2, 4])
    def test_timestamps_must_align_with_triples(self, n_times):
        catalog = Catalog(["a", "b"], ["x", "y"], ["fork"])
        with pytest.raises(DatasetError, match=f"{n_times} timestamps for 3 triples"):
            InteractionStore(catalog, [(0, 0, 0), (0, 1, 0), (1, 1, 0)], list(range(n_times)))

    def test_pipeline_builds_no_tuple_view(self, tmp_path):
        """Ingest, filter, split, write and the feature and evaluation readers use the columns only."""
        from keenact.evaluation import FlatPairSpace, _flat_by_user, train_baseline
        from keenact.features import co_participation_features, empty_features
        from keenact.training import TrainConfig

        rows = [(f"u{i % 7}", f"i{(3 * i) % 11}", ("fork", "watch")[i % 2], i) for i in range(90)]
        _, raw = ingest(write_log(tmp_path / "log.tsv", rows + rows[:9]))
        store = filter_active_users(raw, 3)
        split = split_per_user(store, 0.7, seed=0)
        write_interaction_log(store, tmp_path / "out.tsv")
        write_interaction_log(split.test, tmp_path / "test.tsv")
        feats = co_participation_features(split.train)
        _flat_by_user(split.test, FlatPairSpace(store.catalog.n_items, store.catalog.n_activities))
        items = empty_features(store.catalog.n_items, "item")
        train_baseline(split.train, feats, items, TrainConfig(epochs=1), kind="bpr")
        for s in (raw, store, split.train, split.test):
            assert not {"triples", "keen_pairs", "timestamps"} & set(vars(s))

    def test_empty_store(self):
        store = InteractionStore(Catalog(["a"], ["x"], ["fork"]), [])
        assert (store.triples, store.keen_pairs, store.n_duplicates) == ((), (), 0)
        assert store.users_with_interactions() == store.items_with_interactions() == []
        assert [c.shape for c in store.columns] == [(0,), (0,), (0,)]


@st.composite
def catalogs_and_triples(draw, margin=0):
    """A small catalog and a triple list over it, ids up to ``margin`` outside its bounds.

    Short id ranges make duplicates and users or items without triples
    common; one-activity catalogs are included.
    """
    n_users, n_items, n_acts = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    catalog = Catalog(
        [f"u{i}" for i in range(n_users)], [f"i{j}" for j in range(n_items)], [f"a{z}" for z in range(n_acts)]
    )
    ids = [st.integers(-margin, n - 1 + margin) for n in (n_users, n_items, n_acts)]
    return catalog, draw(st.lists(st.tuples(*ids), max_size=40))


def all_python_ints(values) -> bool:
    return all(type(x) is int for x in values)


class TestStoreProperty:
    @settings(max_examples=300, deadline=None)
    @given(catalogs_and_triples(), st.lists(st.integers(-(2**62), 2**62), min_size=40, max_size=40))
    def test_matches_a_set_reference(self, case, times):
        catalog, triples = case
        times = times[: len(triples)]
        store = InteractionStore(catalog, triples, times)
        distinct = sorted(set(triples))
        first = {}
        for t, ts in zip(triples, times):
            first.setdefault(t, ts)
        pos_items, pos_acts = {}, {}
        for u, v, z in distinct:
            pos_items.setdefault(u, set()).add(v)
            pos_acts.setdefault((u, v), set()).add(z)
        assert store.triples == tuple(distinct)
        assert store.keen_pairs == tuple(sorted(pos_acts))
        assert list(zip(*(c.tolist() for c in store.pair_columns))) == sorted(pos_acts)
        assert [store.keen_pairs[p] for p in store.pair_ids.tolist()] == [t[:2] for t in distinct]
        assert store.n_duplicates == len(triples) - len(distinct)
        assert store.users_with_interactions() == sorted(pos_items)
        assert store.items_with_interactions() == sorted({v for _, v, _ in distinct})
        for u in range(catalog.n_users):
            assert store.positive_items(u) == pos_items.get(u, set())
            assert all_python_ints(store.positive_items(u))
            for v in range(catalog.n_items):
                assert store.positive_activities(u, v) == pos_acts.get((u, v), set())
                assert all_python_ints(store.positive_activities(u, v))
        assert all_python_ints(x for t in store.triples + store.keen_pairs for x in t)
        assert all_python_ints(store.users_with_interactions() + store.items_with_interactions())
        assert list(zip(*(c.tolist() for c in store.columns))) == distinct
        assert all(c.dtype == np.int64 and not c.flags.writeable for c in (*store.columns, store.times))
        assert store.timestamps == first
        assert store.times.tolist() == [first[t] for t in distinct]
        assert all_python_ints(x for t, ts in store.timestamps.items() for x in (*t, ts))

    @settings(max_examples=300, deadline=None)
    @given(catalogs_and_triples(margin=2))
    def test_smallest_out_of_bounds_triple_is_named(self, case):
        catalog, triples = case
        limits = (catalog.n_users, catalog.n_items, catalog.n_activities)
        outside = sorted(t for t in triples if not all(0 <= x < n for x, n in zip(t, limits)))
        if not outside:
            InteractionStore(catalog, triples)
            return
        with pytest.raises(DatasetError, match=re.escape(f"triple {outside[0]} outside catalog bounds")):
            InteractionStore(catalog, triples)

    @settings(max_examples=300, deadline=None)
    @given(catalogs_and_triples(), st.integers(1, 4))
    def test_filter_matches_a_count_reference(self, case, min_activities):
        """Kept users, items, triples and first timestamps, compared in raw ids."""
        catalog, triples = case
        timestamps = [100 * i for i in range(len(triples))]
        store = InteractionStore(catalog, triples, timestamps)
        first = {}
        for t, ts in zip(triples, timestamps):
            first.setdefault(t, ts)
        counts = {}
        for u, _, _ in set(triples):
            counts[u] = counts.get(u, 0) + 1
        kept = sorted(u for u, c in counts.items() if c >= min_activities)
        if not kept:
            with pytest.raises(EmptyDatasetError):
                filter_active_users(store, min_activities)
            return
        out = filter_active_users(store, min_activities)
        kept_triples = {t for t in triples if t[0] in kept}
        assert out.catalog.users == tuple(catalog.users[u] for u in kept)
        assert out.catalog.items == tuple(catalog.items[v] for v in sorted({v for _, v, _ in kept_triples}))
        assert out.catalog.activities == catalog.activities
        def raw(t):
            return catalog.users[t[0]], catalog.items[t[1]], catalog.activities[t[2]]

        assert raw_view(out.catalog, out)[1:] == (
            {raw(t) for t in kept_triples},
            {raw(t): first[t] for t in kept_triples},
        )
        assert out.n_duplicates == 0
        assert all_python_ints(x for t in (*out.triples, *out.timestamps) for x in t)


class TestFilterActiveUsers:
    def _store(self, counts):
        """One user per entry with ``counts[u]`` triples on distinct items."""
        n_items = max(counts.values())
        users = [f"u{i}" for i in range(len(counts))]
        items = [f"i{j}" for j in range(n_items)]
        triples = []
        for u, c in enumerate(counts.values()):
            triples.extend((u, j, 0) for j in range(c))
        catalog = Catalog(users, items, ["fork"])
        return InteractionStore(catalog, triples)

    def test_boundary_is_inclusive(self):
        store = self._store({"u0": 9, "u1": 10})
        kept = filter_active_users(store, 10)
        assert kept.catalog.users == ("u1",)
        assert kept.n_triples == 10

    def test_mixed_counts(self):
        store = self._store({"u0": 12, "u1": 3})
        kept = filter_active_users(store, 10)
        assert kept.catalog.users == ("u0",)
        assert kept.n_triples == 12

    def test_orphaned_items_dropped_and_ids_redensified(self):
        catalog = Catalog(["a", "b"], ["x", "y", "z"], ["fork"])
        store = InteractionStore(catalog, [(0, 0, 0), (0, 2, 0), (1, 1, 0)])
        kept = filter_active_users(store, 2)
        assert kept.catalog.users == ("a",)
        assert kept.catalog.items == ("x", "z")
        assert kept.triples == ((0, 0, 0), (0, 1, 0))

    def test_all_users_removed(self):
        store = self._store({"u0": 2})
        with pytest.raises(EmptyDatasetError):
            filter_active_users(store, 3)


class TestSplit:
    def _uniform_store(self, n_users, per_user):
        users = [f"u{i}" for i in range(n_users)]
        items = [f"i{j}" for j in range(per_user)]
        triples = [(u, j, 0) for u in range(n_users) for j in range(per_user)]
        catalog = Catalog(users, items, ["fork"])
        return InteractionStore(catalog, triples)

    def test_ceil_fraction_counts(self):
        store = self._uniform_store(1, 10)
        split = split_per_user(store, fraction=0.8, seed=0)
        assert split.train.n_triples == 8
        assert split.test.n_triples == 2

    def test_single_triple_goes_to_train(self):
        store = self._uniform_store(1, 1)
        split = split_per_user(store, fraction=0.8, seed=3)
        assert split.train.n_triples == 1
        assert split.test.n_triples == 0

    def test_disjoint_and_covering(self):
        rng = np.random.default_rng(21)
        catalog = Catalog(
            [f"u{i}" for i in range(6)], [f"i{j}" for j in range(15)], ["fork", "watch"]
        )
        triples = {
            (int(u), int(v), int(z))
            for u, v, z in zip(
                rng.integers(0, 6, 120), rng.integers(0, 15, 120), rng.integers(0, 2, 120)
            )
        }
        store = InteractionStore(catalog, sorted(triples))
        split = split_per_user(store, fraction=0.7, seed=5)
        train = set(split.train.triples)
        test = set(split.test.triples)
        assert train | test == set(store.triples)
        assert train & test == set()
        for u in store.users_with_interactions():
            assert split.train.positive_items(u)

    def test_deterministic_per_seed(self):
        store = self._uniform_store(4, 9)
        a = split_per_user(store, fraction=0.8, seed=11)
        b = split_per_user(store, fraction=0.8, seed=11)
        c = split_per_user(store, fraction=0.8, seed=12)
        assert a.train.triples == b.train.triples
        assert a.test.triples == b.test.triples
        assert a.train.triples != c.train.triples

    def test_pinned_split(self):
        """The per-user shuffle draws as it always has: one permutation per user, in id order."""
        split = split_per_user(self._uniform_store(4, 9), 0.8, seed=11)
        held_out = ((0, 0, 0), (1, 4, 0), (2, 0, 0), (3, 7, 0))
        assert split.test.triples == held_out
        assert split.train.triples == tuple((u, j, 0) for u in range(4) for j in range(9) if (u, j, 0) not in held_out)

    def test_both_sides_keep_timestamps(self):
        rng = np.random.default_rng(4)
        catalog = Catalog([f"u{i}" for i in range(5)], [f"i{j}" for j in range(8)], ["fork", "watch"])
        triples = np.column_stack([rng.integers(0, n, 60) for n in (5, 8, 2)])
        store = InteractionStore(catalog, triples, rng.integers(-(2**40), 2**40, 60))
        split = split_per_user(store, fraction=0.6, seed=2)
        assert split.test.n_triples > 0
        for side in (split.train, split.test):
            assert side.timestamps == {t: store.timestamps[t] for t in side.triples}

    def test_fraction_bounds(self):
        store = self._uniform_store(1, 4)
        with pytest.raises(ValueError):
            split_per_user(store, fraction=0.0, seed=0)
        with pytest.raises(ValueError):
            split_per_user(store, fraction=1.0, seed=0)
