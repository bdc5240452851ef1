"""Ingestion, deduplication, user filtering, and per-user splitting."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keenact import data
from keenact.data import (
    Catalog,
    DatasetError,
    EmptyDatasetError,
    InteractionStore,
    ParseError,
    SchemaError,
    _parse_line,
    filter_active_users,
    ingest,
    split_per_user,
    write_interaction_log,
)


def triples_of(store):
    """The store's triples as Python-int tuples, in column order."""
    return tuple(zip(*(c.tolist() for c in store.columns)))


def pairs_of(store):
    """The store's distinct (u, v) pairs as Python-int tuples, in column order."""
    return tuple(zip(*(c.tolist() for c in store.pair_columns)))


def timestamps_of(store):
    """Each triple's timestamp, keyed by the triple."""
    return dict(zip(triples_of(store), store.times.tolist()))


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
        assert pairs_of(store) == ((0, 0),)
        assert triples_of(store) == ((0, 0, 0),)

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
        assert timestamps_of(store) == {(0, 0, 0): 1, (1, 1, 1): 2}

    def test_extra_columns_are_ignored(self, tmp_path):
        log = write_log(tmp_path / "log.tsv", [("a", "x", "fork", 1, "note"), ("b", "x", "watch", 2, "", "more")])
        catalog, store = ingest(log)
        assert (catalog.users, catalog.items, catalog.activities) == (("a", "b"), ("x",), ("fork", "watch"))
        assert triples_of(store) == ((0, 0, 0), (1, 0, 1))

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

    @pytest.mark.parametrize("ts", ["1_000", "\u0661\u0662", "+-5", "5.0", "0x10", ""])
    def test_timestamp_is_ascii_digits(self, tmp_path, ts):
        """A timestamp is ``[+-]?[0-9]+``, not whatever ``int()`` accepts."""
        log = write_log(tmp_path / "log.tsv", [("a", "x", "fork", 1), ("b", "x", "fork", ts)])
        with pytest.raises(ParseError, match=f"^line 2: timestamp {re.escape(repr(ts))} is not an integer$"):
            ingest(log)

    def test_signed_timestamps_and_leading_zeros(self, tmp_path):
        rows = [("a", "x", "fork", "+5"), ("b", "x", "fork", "-007"), ("c", "x", "fork", " +0 ")]
        log = write_log(tmp_path / "log.tsv", rows)
        _, store = ingest(log)
        assert timestamps_of(store) == {(0, 0, 0): 5, (1, 0, 0): -7, (2, 0, 0): 0}

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
        assert triples_of(reread) == triples_of(store)
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


@st.composite
def raw_logs_with_blank_lines(draw):
    """A ``raw_logs`` table as log text, BOM-started or not, with blank lines and CRLF endings."""
    lines = []
    for row in draw(raw_logs()):
        lines.append("\t".join(str(c) for c in row) + draw(st.sampled_from(["\n", "\r\n"])))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["\n", " \n", "\r\n"])))
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(lines)


def raw_view(catalog, store):
    """Catalog id sets, triples and timestamps in raw ids."""
    def raw(t):
        return catalog.users[t[0]], catalog.items[t[1]], catalog.activities[t[2]]

    return (
        (set(catalog.users), set(catalog.items), set(catalog.activities)),
        {raw(t) for t in triples_of(store)},
        {raw(t): ts for t, ts in timestamps_of(store).items()},
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


def line_by_line_ingest(path, activities=None):
    """``ingest`` as one pass over the file's lines, every row a Python int: the block reader's oracle."""
    users, items = {}, {}
    declared = None if activities is None else {name: i for i, name in enumerate(activities)}
    activity_ids = dict(declared or {})
    ids, times = [], []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            user, item, activity, ts = _parse_line(line, lineno)
            if declared is not None and activity not in declared:
                raise SchemaError(f"line {lineno}: activity {activity!r} not in declared set {sorted(declared)}")
            ids.append(users.setdefault(user, len(users)))
            ids.append(items.setdefault(item, len(items)))
            ids.append(activity_ids.setdefault(activity, len(activity_ids)))
            times.append(ts)
    if not times:
        raise EmptyDatasetError(f"empty dataset: no interactions in {path}")
    catalog = Catalog(list(users), list(items), list(activity_ids))
    return catalog, InteractionStore(catalog, np.array(ids, dtype=np.int64).reshape(-1, 3), times)


def read_blocks(path):
    """The log's lines as ``ingest`` reads them, one list per block."""
    with open(path, encoding="utf-8-sig") as fh:
        return list(iter(lambda: fh.readlines(data.INGEST_BLOCK), []))


def assert_same_ingest(got, expected):
    (catalog, store), (ref_catalog, ref) = got, expected
    assert (catalog.users, catalog.items, catalog.activities) == (ref_catalog.users, ref_catalog.items, ref_catalog.activities)
    for col, ref_col in zip((*store.columns, store.times), (*ref.columns, ref.times)):
        np.testing.assert_array_equal(col, ref_col)
    assert store.n_duplicates == ref.n_duplicates


def block_log(path, n_rows, bad_row=None):
    """A BOM-started log of ``n_rows`` rows, one of them repeated, one CRLF-ended
    and one after a blank line; ``bad_row`` is put first in the second block."""
    lines = [f"u{i % 97}\ti{(7 * i) % 131}\t{('fork', 'watch')[i % 2]}\t{i}\n" for i in range(n_rows)]
    lines[5] = lines[4]
    lines[9] = lines[9].replace("\n", "\r\n")
    lines[12] = "\n"

    def write():
        path.write_bytes(b"\xef\xbb\xbf" + "".join(lines).encode("utf-8"))

    write()
    if bad_row is not None:
        lines.insert(len(read_blocks(path)[0]), bad_row)  # the lines before it keep their block
        write()
    return path


class TestIngestBlocks:
    def test_matches_the_line_by_line_oracle(self, tmp_path):
        log = block_log(tmp_path / "log.tsv", 4 * data.INGEST_BLOCK // 20)
        assert len(read_blocks(log)) > 3
        got = ingest(log)
        assert_same_ingest(got, line_by_line_ingest(log))
        assert got[1].n_duplicates > 0

    @settings(max_examples=100, deadline=None)
    @given(raw_logs_with_blank_lines(), st.sampled_from([1, 9, 40]))
    def test_matches_the_oracle_at_any_block_size(self, text, block):
        with tempfile.TemporaryDirectory() as tmp:
            log = Path(tmp) / "log.tsv"
            log.write_bytes(text.encode("utf-8"))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(data, "INGEST_BLOCK", block)
                try:
                    got = ingest(log)
                except EmptyDatasetError:
                    with pytest.raises(EmptyDatasetError):
                        line_by_line_ingest(log)
                    return
            assert_same_ingest(got, line_by_line_ingest(log))

    def test_parse_error_first_in_the_second_block(self, tmp_path):
        log = block_log(tmp_path / "log.tsv", 3 * data.INGEST_BLOCK // 20, bad_row="broken\n")
        first, second = read_blocks(log)[:2]
        assert second[0] == "broken\n"
        with pytest.raises(ParseError) as err:
            ingest(log)
        assert err.value.line_number == len(first) + 1
        assert f"line {len(first) + 1}:" in str(err.value)

    def test_undeclared_activity_first_in_the_second_block(self, tmp_path):
        log = block_log(tmp_path / "log.tsv", 3 * data.INGEST_BLOCK // 20, bad_row="a\tx\tstar\t1\n")
        first, second = read_blocks(log)[:2]
        assert second[0] == "a\tx\tstar\t1\n"
        with pytest.raises(SchemaError, match=f"^line {len(first) + 1}: activity 'star' not in declared set"):
            ingest(log, ("fork", "watch"))

    def test_timestamp_overflow_reported_after_a_later_parse_error(self, tmp_path, monkeypatch):
        """As in one pass: every line parses before the int64 range is checked."""
        monkeypatch.setattr(data, "INGEST_BLOCK", 1)
        log = write_log(tmp_path / "log.tsv", [("a", "x", "fork", 2**63), ("broken",)])
        with pytest.raises(ParseError) as err:
            ingest(log)
        assert err.value.line_number == 2


# ids of 1 to 8 UTF-8 bytes, which the numpy path keys by their bytes: plain
# ASCII, or one or two characters beyond it
short_ids = st.one_of(
    st.text(st.sampled_from("abcxyz0189/-_."), min_size=1, max_size=8),
    st.text(
        st.characters(exclude_categories=("Cc", "Cs", "Zs", "Zl", "Zp"), exclude_characters="\ufeff"),
        min_size=1,
        max_size=2,
    ),
)
# ids of 1 to 40 UTF-8 bytes; a block with one longer than 8 falls back
block_ids = st.one_of(
    short_ids,
    st.text(st.sampled_from("abcxyz0189/-_."), min_size=9, max_size=40),
    st.text(
        st.characters(exclude_categories=("Cc", "Cs", "Zs", "Zl", "Zp"), exclude_characters="\ufeff"),
        min_size=3,
        max_size=10,
    ),
)
# leading zeros, signs, and 18 and 19 digits; ``+`` and 19 digits fall back
block_times = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.integers(0, 999).map(lambda n: f"00{n}"),
    st.integers(10**17, 10**18 - 1).map(str),
    st.integers(10**17, 10**18 - 1).map(lambda n: f"-{n}"),
    st.integers(10**18, 2**63 - 1).map(str),
    st.integers(0, 99).map(lambda n: f"+{n}"),
)


@st.composite
def mixed_logs(draw):
    """Log text whose blocks often qualify for the numpy path and sometimes fall back.

    Half the logs hold only ids of up to 8 bytes.  Rarer lines fall
    back: blank, padded with whitespace in or beyond ASCII, or a line
    that does not parse.  Some lines have extra columns.
    """
    ids = draw(st.sampled_from([short_ids, block_ids]))
    users, items, acts = (draw(st.lists(ids, min_size=1, max_size=6, unique=True)) for _ in range(3))
    lines = []
    for _ in range(draw(st.integers(1, 40))):
        cols = [draw(st.sampled_from(pool)) for pool in (users, items, acts)] + [draw(block_times)]
        cols += draw(st.lists(block_ids, max_size=2))
        odd = draw(st.integers(0, 30))
        if odd == 0:
            lines.append("\n")
        elif odd == 1:
            cols[0] = f" {cols[0]}"
        elif odd == 3:
            cols[1] += draw(st.sampled_from(["\xa0", "\u3000", "\x85", "\u2028"]))
        elif odd == 2:
            cols = cols[:3]
        lines.append("\t".join(cols) + "\n")
    return "".join(lines)


def ingest_outcome(read, path, activities=None):
    """What ``read`` gives for a log: its catalog and store, or its error's type and message."""
    try:
        return read(path, activities)
    except DatasetError as err:
        return type(err), str(err)


class TestNumpyBlocks:
    """``_parse_block`` parses a qualifying block as ``_parse_lines`` would, and leaves any other alone."""

    @staticmethod
    def spy(monkeypatch) -> list[bool]:
        """Whether each block took the numpy path, in read order."""
        took, parse_block = [], data._parse_block

        def spied(lines, names):
            parsed = parse_block(lines, names)
            took.append(parsed is not None)
            return parsed

        monkeypatch.setattr(data, "_parse_block", spied)
        return took

    @settings(max_examples=300, deadline=None)
    @given(mixed_logs(), st.sampled_from([1, 9, 40, None]), st.sampled_from([None, 0, 1]))
    def test_matches_the_oracle(self, text, block, undeclared):
        """At block sizes 1, 9, 40 and the default; with no declared activities, or
        all of them but the first ``undeclared`` in sorted order."""
        acts = sorted({line.split("\t")[2] for line in text.split("\n") if line.count("\t") >= 3})
        declared = None if undeclared is None else tuple(acts[undeclared:])
        with tempfile.TemporaryDirectory() as tmp:
            log = Path(tmp) / "log.tsv"
            log.write_bytes(text.encode("utf-8"))
            with pytest.MonkeyPatch.context() as mp:
                if block is not None:
                    mp.setattr(data, "INGEST_BLOCK", block)
                got = ingest_outcome(ingest, log, declared)
            expected = ingest_outcome(line_by_line_ingest, log, declared)
        if isinstance(expected[0], type):
            assert got == expected
        else:
            assert not isinstance(got[0], type), got
            assert_same_ingest(got, expected)

    def test_both_paths_in_one_log(self, tmp_path, monkeypatch):
        rows = [f"r-{i % 13:04d}\t\u00fcml-{i % 5}\tfork\t{i:018d}\n" for i in range(300)]
        rows[150] = rows[150].replace("fork", " fork")
        log = tmp_path / "log.tsv"
        log.write_text("".join(rows), encoding="utf-8")
        monkeypatch.setattr(data, "INGEST_BLOCK", 2000)
        took = self.spy(monkeypatch)
        assert_same_ingest(ingest(log), line_by_line_ingest(log))
        assert len(took) > 4 and took.count(False) == 1

    def test_undeclared_activity_inside_a_numpy_block(self, tmp_path, monkeypatch):
        rows = [f"u{i % 17}\ti{i % 29}\t{('fork', 'watch')[i % 2]}\t{i}\n" for i in range(400)]
        rows[250] = "u3\ti7\tstar\t5\n"
        log = tmp_path / "log.tsv"
        log.write_text("".join(rows), encoding="utf-8")
        monkeypatch.setattr(data, "INGEST_BLOCK", 1000)
        sizes = [len(b) for b in read_blocks(log)]
        assert 250 not in np.cumsum(sizes)  # line 251 is not the first of its block
        took = self.spy(monkeypatch)
        with pytest.raises(SchemaError) as err:
            ingest(log, ("fork", "watch"))
        with pytest.raises(SchemaError) as ref:
            line_by_line_ingest(log, ("fork", "watch"))
        assert str(err.value) == str(ref.value)
        assert str(err.value).startswith("line 251: activity 'star'")
        assert took == [True] * (len(took) - 1) + [False]
        assert sum(sizes[: len(took) - 1]) < 251 <= sum(sizes[: len(took)])

    def test_an_id_longer_than_8_bytes_sends_its_block_to_the_line_loop(self, tmp_path, monkeypatch):
        """Ids of 8 bytes key as their bytes; ``owner/r-0001`` and ``owner/r-0002`` would share them.

        The second block's first line has no long id, so the block is parsed until its field lengths.
        """
        rows = [f"u{i % 7}\towner/r-\tfork\t{i:02d}\n" for i in range(40)]
        rows += ["u0\tx\tfork\t0\n"] + [f"u{i % 7}\towner/r-{i % 2 + 1:04d}\tfork\t{i}\n" for i in range(29)]
        log = tmp_path / "log.tsv"
        log.write_text("".join(rows), encoding="utf-8")
        monkeypatch.setattr(data, "INGEST_BLOCK", 40 * len(rows[0]) - 1)
        assert [len(block) for block in read_blocks(log)] == [40, 30]
        took = self.spy(monkeypatch)
        catalog, store = ingest(log)
        assert took == [True, False]
        assert catalog.items == ("owner/r-", "x", "owner/r-0001", "owner/r-0002")
        assert_same_ingest((catalog, store), line_by_line_ingest(log))

    @pytest.mark.parametrize("user", ["\xa0u1", "u1\u3000", "\x85u1", "u1\u2028"])
    def test_whitespace_beyond_ascii_is_stripped(self, tmp_path, user):
        log = tmp_path / "log.tsv"
        log.write_text(f"{user}\tx\tfork\t1\nu2\tx\tfork\t2\n", encoding="utf-8")
        catalog, store = ingest(log)
        assert catalog.users == ("u1", "u2")
        assert_same_ingest((catalog, store), line_by_line_ingest(log))

    def test_whitespace_inside_a_name_is_kept_on_the_numpy_path(self, tmp_path, monkeypatch):
        log = tmp_path / "log.tsv"
        log.write_text("u\u30001\tx\tfork\t1\nu2\tx\u00a0y\tfork\t2\n", encoding="utf-8")
        took = self.spy(monkeypatch)
        catalog, store = ingest(log)
        assert took == [True]
        assert (catalog.users, catalog.items) == (("u\u30001", "u2"), ("x", "x\u00a0y"))
        assert_same_ingest((catalog, store), line_by_line_ingest(log))

    def test_every_block_of_a_corpus_log_takes_the_numpy_path(self, tmp_path, monkeypatch):
        """A shuffled synthetic log with repeated rows, as the benchmark's ``corpus`` reads."""
        from keenact.synth import generate_two_stage

        _, store = generate_two_stage(200, 400, 3, seed=1, items_per_user=(5, 60))
        write_interaction_log(store, tmp_path / "canonical.tsv")
        rows = (tmp_path / "canonical.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        rng = np.random.default_rng(1)
        rows += [rows[i] for i in rng.choice(len(rows), len(rows) // 10)]
        log = tmp_path / "raw.tsv"
        log.write_text("".join(rows[i] for i in rng.permutation(len(rows))), encoding="utf-8")
        took = self.spy(monkeypatch)
        got = ingest(log)
        assert len(took) > 2 and all(took)
        assert_same_ingest(got, line_by_line_ingest(log))
        assert got[1].n_duplicates > 0


def one_shot_log(store) -> bytes:
    """The canonical log as one f-string per row over whole-column lists."""
    c = store.catalog
    return "".join(
        f"{c.users[u]}\t{c.items[v]}\t{c.activities[z]}\t{ts}\n"
        for u, v, z, ts in zip(*(col.tolist() for col in (*store.columns, store.times)))
    ).encode("utf-8")


class TestWriteBlocks:
    @pytest.mark.parametrize("block", [None, 1, 7])
    def test_same_bytes_as_a_one_shot_writer(self, tmp_path, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(data, "WRITE_BLOCK", block)
        n = 2 * data.WRITE_BLOCK + 5 if block is None else 40
        rng = np.random.default_rng(3)
        catalog = Catalog([f"u{i}" for i in range(50)], [f"i{j}" for j in range(400)], ["fork", "watch", "star"])
        triples = np.column_stack([rng.integers(0, k, n) for k in (50, 400, 3)])
        store = InteractionStore(catalog, triples, rng.integers(-(2**62), 2**62, n))
        assert store.n_triples > data.WRITE_BLOCK
        write_interaction_log(store, tmp_path / "log.tsv")
        assert (tmp_path / "log.tsv").read_bytes() == one_shot_log(store)


class TestStore:
    def test_int64_input_is_read_in_place(self):
        """The store neither writes to its int64 inputs nor keeps a view of them."""
        rng = np.random.default_rng(6)
        catalog = Catalog([f"u{i}" for i in range(4)], [f"i{j}" for j in range(5)], ["fork", "watch"])
        triples = np.column_stack([rng.integers(0, k, 30) for k in (4, 5, 2)]).astype(np.int64)
        times = rng.integers(0, 1000, 30)
        before = triples.copy(), times.copy()
        store = InteractionStore(catalog, triples, times)
        np.testing.assert_array_equal(triples, before[0])
        np.testing.assert_array_equal(times, before[1])
        derived = (*store.columns, store.times, *store.pair_columns, store.pair_ids)
        assert not any(np.shares_memory(col, given) for col in derived for given in (triples, times))
        assert triples.flags.writeable and times.flags.writeable

    def test_positive_sets(self):
        catalog = Catalog(["a", "b"], ["x", "y", "z"], ["fork", "watch"])
        store = InteractionStore(catalog, [(0, 0, 0), (0, 0, 1), (0, 2, 0), (1, 1, 0)])
        u, v, z = store.columns
        assert {user: set(v[rows].tolist()) for user, rows in store.user_rows().items()} == {0: {0, 2}, 1: {1}}
        assert z[(u == 0) & (v == 0)].tolist() == [0, 1]
        assert z[(u == 0) & (v == 1)].tolist() == []
        assert pairs_of(store) == ((0, 0), (0, 2), (1, 1))

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
        items = empty_features(store.catalog.n_items)
        train_baseline(split.train, feats, items, TrainConfig(epochs=1), kind="bpr")
        columns = {"catalog", "columns", "times", "n_duplicates", "_pair_rows", "pair_columns", "pair_ids"}
        for s in (raw, store, split.train, split.test):
            assert set(vars(s)) <= columns

    def test_empty_store(self):
        store = InteractionStore(Catalog(["a"], ["x"], ["fork"]), [])
        assert (triples_of(store), pairs_of(store), store.n_duplicates, store.user_rows()) == ((), (), 0, {})
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
        pairs = pairs_of(store)
        assert pairs == tuple(sorted(pos_acts))
        assert [pairs[p] for p in store.pair_ids.tolist()] == [t[:2] for t in distinct]
        assert store.n_pairs == len(pos_acts)
        assert store.n_duplicates == len(triples) - len(distinct)
        rows = store.user_rows()
        assert list(rows) == sorted(pos_items)
        assert all_python_ints(rows)
        u_col, v_col, z_col = store.columns
        assert {u: set(v_col[r].tolist()) for u, r in rows.items()} == pos_items
        acts = {}
        for p, z in zip(store.pair_ids.tolist(), z_col.tolist()):
            acts.setdefault(pairs[p], set()).add(z)
        assert acts == pos_acts
        assert list(zip(*(c.tolist() for c in store.columns))) == distinct
        assert all(c.dtype == np.int64 and not c.flags.writeable for c in (*store.columns, store.times))
        assert all(c.dtype == np.int64 for c in (*store.pair_columns, store.pair_ids))
        assert timestamps_of(store) == first
        assert store.times.tolist() == [first[t] for t in distinct]

    @settings(max_examples=300, deadline=None)
    @given(catalogs_and_triples())
    @example((Catalog(["u0"], ["i0"], ["a0"]), [(0, 0, 0)]))
    @example((Catalog(["u0"], ["i0", "i1"], ["a0", "a1"]), [(0, 1, 1), (0, 0, 1), (0, 1, 0), (0, 1, 1)]))
    def test_runs_equal_the_unique_form(self, case):
        """Pair and user run starts are the first rows np.unique finds, one triple and one user included."""
        catalog, triples = case
        store = InteractionStore(catalog, triples)
        u, v, _ = store.columns
        np.testing.assert_array_equal(store._pair_rows, np.unique(u * catalog.n_items + v, return_index=True)[1])
        assert store._pair_rows.dtype == np.intp
        users, starts = np.unique(u, return_index=True)
        bounds = [*starts.tolist(), store.n_triples]
        assert store.user_rows() == {a: slice(b, c) for a, b, c in zip(users.tolist(), bounds, bounds[1:])}

    @settings(max_examples=300, deadline=None)
    @given(catalogs_and_triples(), st.lists(st.integers(-(2**62), 2**62), min_size=40, max_size=40))
    def test_canonical_path_equals_the_full_constructor(self, case, times):
        """Distinct sorted triples taken as they are make the store the full sort makes."""
        catalog, triples = case
        full = InteractionStore(catalog, triples, times[: len(triples)])
        store = InteractionStore._canonical(catalog, [c.copy() for c in full.columns], full.times.copy())
        derived = [(*s.columns, s.times, *s.pair_columns, s.pair_ids) for s in (store, full)]
        for col, ref in zip(*derived):
            np.testing.assert_array_equal(col, ref)
            assert col.dtype == ref.dtype
        assert store.n_duplicates == 0
        assert store.user_rows() == full.user_rows()
        assert not any(c.flags.writeable for c in (*store.columns, store.times))

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
        assert all(c.dtype == np.int64 for c in (*out.columns, out.times))


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
        assert triples_of(kept) == ((0, 0, 0), (0, 1, 0))

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
        train = set(triples_of(split.train))
        test = set(triples_of(split.test))
        assert train | test == set(triples_of(store))
        assert train & test == set()
        assert split.train.user_rows().keys() == store.user_rows().keys()

    def test_deterministic_per_seed(self):
        store = self._uniform_store(4, 9)
        a = split_per_user(store, fraction=0.8, seed=11)
        b = split_per_user(store, fraction=0.8, seed=11)
        c = split_per_user(store, fraction=0.8, seed=12)
        assert triples_of(a.train) == triples_of(b.train)
        assert triples_of(a.test) == triples_of(b.test)
        assert triples_of(a.train) != triples_of(c.train)

    def test_pinned_split(self):
        """The per-user shuffle draws as it always has: one permutation per user, in id order."""
        split = split_per_user(self._uniform_store(4, 9), 0.8, seed=11)
        held_out = ((0, 0, 0), (1, 4, 0), (2, 0, 0), (3, 7, 0))
        assert triples_of(split.test) == held_out
        assert triples_of(split.train) == tuple((u, j, 0) for u in range(4) for j in range(9) if (u, j, 0) not in held_out)

    def test_both_sides_keep_timestamps(self):
        rng = np.random.default_rng(4)
        catalog = Catalog([f"u{i}" for i in range(5)], [f"i{j}" for j in range(8)], ["fork", "watch"])
        triples = np.column_stack([rng.integers(0, n, 60) for n in (5, 8, 2)])
        store = InteractionStore(catalog, triples, rng.integers(-(2**40), 2**40, 60))
        split = split_per_user(store, fraction=0.6, seed=2)
        assert split.test.n_triples > 0
        for side in (split.train, split.test):
            stamps = timestamps_of(store)
            assert timestamps_of(side) == {t: stamps[t] for t in triples_of(side)}

    def test_fraction_bounds(self):
        store = self._uniform_store(1, 4)
        with pytest.raises(ValueError):
            split_per_user(store, fraction=0.0, seed=0)
        with pytest.raises(ValueError):
            split_per_user(store, fraction=1.0, seed=0)
