"""Ingestion, deduplication, user filtering, and per-user splitting."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keenact.data import (
    Catalog,
    EmptyDatasetError,
    InteractionStore,
    LogSchema,
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

    def test_declared_activities_enforced(self, tmp_path):
        log = write_log(tmp_path / "log.tsv", [("a", "x", "star", 1)])
        schema = LogSchema(activities=("fork", "watch"))
        with pytest.raises(SchemaError):
            ingest(log, schema)

    def test_declared_activities_fix_ids(self, tmp_path):
        """Declared vocabulary pins activity ids even for unseen types."""
        log = write_log(tmp_path / "log.tsv", [("a", "x", "watch", 1)])
        catalog, _ = ingest(log, LogSchema(activities=("fork", "watch")))
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

    def test_activity_counts(self):
        catalog = Catalog(["a", "b"], ["x"], ["fork", "watch"])
        store = InteractionStore(catalog, [(0, 0, 0), (1, 0, 0), (0, 0, 1)])
        assert store.activity_counts() == {0: 2, 1: 1}


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

    def test_fraction_bounds(self):
        store = self._uniform_store(1, 4)
        with pytest.raises(ValueError):
            split_per_user(store, fraction=0.0, seed=0)
        with pytest.raises(ValueError):
            split_per_user(store, fraction=1.0, seed=0)
