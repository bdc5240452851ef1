"""Catalog, interaction storage, ingestion and per-user train/test splitting.

An interaction log is a UTF-8 text file with one record per line and
no header line:

    user_id<TAB>item_id<TAB>activity<TAB>unix_timestamp

Raw string ids are mapped to dense integer ids (contiguous from 0, in
first-seen order).  A store is its sorted (u, v, z) columns plus a
timestamp column; the distinct item-level (u, v) pairs are derived from
them, so a triple (u, v, z) implies the pair (u, v).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Base class for dataset construction failures."""


class ParseError(DatasetError):
    """A log line that does not parse; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class SchemaError(DatasetError):
    """Row content outside the declared schema (e.g. unknown activity)."""


class EmptyDatasetError(DatasetError):
    """No interactions survive ingestion or filtering."""


class Catalog:
    """Immutable registry of users, items and activity types.

    Dense ids are contiguous from 0; raw<->dense maps are mutually
    inverse bijections.
    """

    def __init__(self, users, items, activities):
        self.users: tuple[str, ...] = tuple(users)
        self.items: tuple[str, ...] = tuple(items)
        self.activities: tuple[str, ...] = tuple(activities)
        self.user_index: dict[str, int] = {raw: i for i, raw in enumerate(self.users)}
        self.item_index: dict[str, int] = {raw: i for i, raw in enumerate(self.items)}
        self.activity_index: dict[str, int] = {raw: i for i, raw in enumerate(self.activities)}
        if len(self.user_index) != len(self.users):
            raise DatasetError("duplicate raw user ids")
        if len(self.item_index) != len(self.items):
            raise DatasetError("duplicate raw item ids")
        if len(self.activity_index) != len(self.activities):
            raise DatasetError("duplicate activity names")
        if not self.activities:
            raise DatasetError("catalog needs at least one activity type")

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_activities(self) -> int:
        return len(self.activities)

    def to_dict(self) -> dict:
        return {"users": list(self.users), "items": list(self.items), "activities": list(self.activities)}


def _invalid_triple(raw, limits) -> DatasetError:
    """The error for a triple list that fails the vectorised checks.

    A triple holding a non-integer id comes first, in input order; else
    the smallest triple outside the catalog bounds, in sorted order.
    """
    for t in raw:
        if not all(isinstance(x, (int, np.integer)) for x in t):
            return DatasetError(f"triple {tuple(t)} holds a non-integer id")
    u, v, z = min(tuple(t) for t in raw if not all(0 <= x < n for x, n in zip(t, limits)))
    return DatasetError(f"triple ({u}, {v}, {z}) outside catalog bounds")


def _run_starts(*columns) -> np.ndarray:
    """The first row of each run of equal keys in lexicographically sorted columns."""
    starts = np.zeros(columns[0].size, dtype=bool)
    starts[:1] = True
    for col in columns:
        starts[1:] |= col[1:] != col[:-1]
    return np.flatnonzero(starts)


class InteractionStore:
    """Deduplicated activity triples and their timestamps, stored as columns.

    ``columns`` holds the distinct triples as read-only int64 ``(u, v, z)``
    arrays in lexicographic order, and ``times`` an aligned read-only
    int64 timestamp array (0 for a store built without timestamps).
    Construction is one stable sort of the keys
    ``(u * n_items + v) * n_activities + z``, ordered as the triples,
    keeping each key's first row: a repeated triple keeps the timestamp
    of its first input row.  ``pair_columns`` and ``pair_ids`` are derived
    from the columns on first use.

    An int64 ``(n, 3)`` array of triples, and an int64 timestamp array,
    are read in place: the store neither copies nor modifies them, and
    keeps no reference to them, so the caller may drop them at once.

    Instances are read-only after construction; a concurrent first use
    may derive a column twice, with equal results.
    """

    def __init__(self, catalog: Catalog, triples, timestamps=None):
        self.catalog = catalog
        arr = np.asarray(triples) if len(triples) else np.empty((0, 3), dtype=np.int64)
        limits = (catalog.n_users, catalog.n_items, catalog.n_activities)
        if arr.dtype.kind not in "biu" or ((arr < 0) | (arr >= limits)).any():
            raise _invalid_triple(triples, limits)
        try:
            times = np.zeros(len(arr), dtype=np.int64) if timestamps is None else np.asarray(timestamps, dtype=np.int64)
        except OverflowError:
            raise DatasetError("a timestamp is outside the int64 range") from None
        if times.shape != (len(arr),):
            raise DatasetError(f"{times.size} timestamps for {len(arr)} triples")
        arr = arr.astype(np.int64, copy=False)
        keys = (arr[:, 0] * limits[1] + arr[:, 1]) * limits[2] + arr[:, 2]
        keys, rows = np.unique(keys, return_index=True)  # first rows, in key order
        self.n_duplicates = len(times) - rows.size
        self.times = times[rows]
        del times, rows
        pair_keys, z = np.divmod(keys, limits[2])
        del keys
        u, v = np.divmod(pair_keys, limits[1])
        for col in (u, v, z, self.times):
            col.flags.writeable = False
        self.columns: tuple[np.ndarray, np.ndarray, np.ndarray] = (u, v, z)

    @classmethod
    def _canonical(cls, catalog: Catalog, columns, times: np.ndarray) -> InteractionStore:
        """A store of triples that are already distinct and in lexicographic order.

        ``columns`` are the int64 (u, v, z) arrays and ``times`` their
        timestamps; the store takes them as they are, with no sort, and
        makes them read-only.
        """
        store = cls.__new__(cls)
        store.catalog, store.n_duplicates = catalog, 0
        store.columns, store.times = tuple(columns), times
        for col in (*store.columns, times):
            col.flags.writeable = False
        return store

    @property
    def n_triples(self) -> int:
        return self.times.size

    @property
    def n_pairs(self) -> int:
        return self._pair_rows.size

    @cached_property
    def _pair_rows(self) -> np.ndarray:
        return _run_starts(*self.columns[:2])

    @cached_property
    def pair_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct (u, v) pairs as two int64 columns, in lexicographic order."""
        return self.columns[0][self._pair_rows], self.columns[1][self._pair_rows]

    @cached_property
    def pair_ids(self) -> np.ndarray:
        """Each triple's index in ``pair_columns``, aligned with ``columns``."""
        starts = np.zeros(self.n_triples, dtype=np.int64)
        starts[self._pair_rows] = 1
        return np.cumsum(starts) - 1

    def user_rows(self) -> dict[int, slice]:
        """Each user's rows of ``columns``, in ascending user order."""
        starts = _run_starts(self.columns[0])
        bounds = [*starts.tolist(), self.n_triples]
        return {u: slice(a, b) for u, a, b in zip(self.columns[0][starts].tolist(), bounds, bounds[1:])}


@dataclass(frozen=True)
class SplitPair:
    """A per-user train/test partition of one source store."""

    train: InteractionStore
    test: InteractionStore
    seed: int
    fraction: float


def _parse_line(line: str, lineno: int) -> tuple[str, str, str, int]:
    cols = line.rstrip("\n").split("\t")
    if len(cols) < 4:
        raise ParseError(f"expected at least 4 tab-separated columns, got {len(cols)}", lineno)
    user = cols[0].strip()
    item = cols[1].strip()
    activity = cols[2].strip()
    ts_raw = cols[3].strip()
    if not user or not item or not activity:
        raise ParseError("empty user, item or activity field", lineno)
    try:
        if not ts_raw.isascii() or "_" in ts_raw:  # int() reads "1_000" and non-ASCII digits too
            raise ValueError
        ts = int(ts_raw)
    except ValueError:
        raise ParseError(f"timestamp {ts_raw!r} is not an integer", lineno) from None
    return user, item, activity, ts


# characters of log lines that ingest parses at once: a ``readlines`` size hint
INGEST_BLOCK = 1 << 16
# rows that write_interaction_log turns into Python objects at once
WRITE_BLOCK = 1 << 13
# the most rows of a chunk that ingest collects parsed rows in.  Chunks double
# up to this size, so most rows sit in a few large allocations apart from the
# blocks' temporaries: small per-block arrays kept to the end sit among those
# temporaries, and once freed leave holes too small for the store's sorts
# (11 MiB more peak at 10x the corpus rows).  A small log gets one small chunk.
_CHUNK_ROWS = 1 << 16

# the most timestamp digits a numpy-parsed block holds: 10**18 - 1 < 2**63
_TIME_DIGITS = 18
_POW10 = np.array([10**k for k in reversed(range(_TIME_DIGITS))], dtype=np.int64)
# row n keeps the last n of _TIME_DIGITS digits
_DIGIT_MASKS = np.array([[0] * (_TIME_DIGITS - n) + [1] * n for n in range(_TIME_DIGITS + 1)], dtype=np.uint8)
# a name of up to _WORD bytes keys as those bytes; _LOW_BYTES[n] keeps n of them
_WORD = 8
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(_WORD + 1)], dtype=np.uint64)


def _windows(buf: bytes, width: int) -> np.ndarray:
    """Row i is ``buf[i : i + width]`` as uint8: a read-only view, not a copy."""
    return np.ndarray((len(buf) - width + 1, width), dtype=np.uint8, buffer=buf, strides=(1, 1))


def _field_keys(buf: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each field's bytes as a little-endian uint64, zero past its end.

    Field i is ``buf[starts[i] : starts[i] + lengths[i]]``, of 1 to
    ``_WORD`` bytes, with at least ``_WORD - 1`` bytes of ``buf`` after
    it.  No field holds a zero byte, so distinct fields have distinct keys.
    """
    at = _windows(buf, _WORD).view("<u8")[:, 0]  # at[i] is the word that starts at byte i
    return at[starts] & _LOW_BYTES[lengths]


class _Names:
    """One id column: names and their dense ids in first-seen order, and a key index over them.

    ``keys`` is a sorted uint64 array of the ``_field_keys`` keys of the
    names that numpy-parsed blocks have held, and ``key_ids`` their dense
    ids.  A block's new keys are merged in with one ``np.insert``.
    """

    def __init__(self, names=(), frozen: bool = False):
        self.ids: dict[str, int] = {name: i for i, name in enumerate(names)}
        self.frozen = frozen  # the names are declared: another one fails its block
        self.keys, self.key_ids = np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Each key's dense id, or -1 where the index does not hold it."""
        if not self.keys.size:
            return np.full(keys.size, -1)
        order = np.argsort(keys)  # searchsorted is several times faster on sorted keys
        sorted_keys = keys[order]
        pos = np.minimum(np.searchsorted(self.keys, sorted_keys), self.keys.size - 1)
        out = np.empty(keys.size, dtype=np.int64)
        out[order] = np.where(self.keys[pos] == sorted_keys, self.key_ids[pos], -1)
        return out

    def assign(self, buf, starts, lengths, keys):
        """Give a block's fields of this column their dense ids; None when the block must fall back.

        A block falls back when a new name has whitespace to strip: the
        bytes below 0x21 are only tabs and newlines, but ``str.strip``
        also removes whitespace beyond ASCII.  Nothing changes until the
        returned function runs: it names the block's new names, in
        first-seen order, and returns every field's dense id.  A name is
        new to the index the first time a numpy-parsed block holds it,
        even when ``ids`` already has it.
        """
        found = self.lookup(keys)
        miss = np.flatnonzero(found < 0)
        if not miss.size:
            return lambda: found
        new_keys, new_at, new_of = np.unique(keys[miss], return_index=True, return_inverse=True)
        new_rows = miss[new_at]  # each new key's first field
        seen = np.argsort(new_rows)
        bounds = zip(starts[new_rows[seen]].tolist(), (starts + lengths)[new_rows[seen]].tolist())
        names = [buf[a:b].decode() for a, b in bounds]
        if any(name != name.strip() for name in names) or (self.frozen and not all(n in self.ids for n in names)):
            return None

        def commit() -> np.ndarray:
            ids = np.empty(new_rows.size, dtype=np.int64)
            ids[seen] = [self.ids.setdefault(name, len(self.ids)) for name in names]
            found[miss] = ids[new_of]
            pos = np.searchsorted(self.keys, new_keys)
            self.keys, self.key_ids = np.insert(self.keys, pos, new_keys), np.insert(self.key_ids, pos, ids)
            return found

        return commit


def _parse_block(lines: list[str], names: tuple[_Names, _Names, _Names]):
    """A block's (n, 3) dense ids and int64 timestamps, parsed with numpy; None when it does not qualify.

    A block qualifies when its only bytes below 0x21 are tabs and
    newlines, every line has at least three tabs, the first three fields
    are 1 to ``_WORD`` bytes long with no whitespace to strip, the
    fourth matches ``-?[0-9]{1,18}`` and every activity is declared
    (when declared).  Such a block parses as ``_parse_lines`` would
    parse it.  Nothing changes unless the block qualifies.
    """
    if max(map(len, lines[0].split("\t", 3)[:3])) > _WORD:  # a long id: the block cannot qualify
        return None
    text = "".join(lines)
    buf = b"0" * _TIME_DIGITS + text.encode() + (b"" if text.endswith("\n") else b"\n") + b"0" * _WORD
    del text
    a = np.frombuffer(buf, dtype=np.uint8)
    seps = np.flatnonzero(a < 0x21)
    kind = a[seps]
    newline = kind == 10
    if not (newline | (kind == 9)).all():
        return None
    ends = np.flatnonzero(newline)  # each line's newline, as an index into seps
    firsts = np.concatenate(([0], ends[:-1] + 1))
    if (ends - firsts).min() < 3:
        return None
    t1, t2, t3, t4 = (seps[firsts + i] for i in range(4))  # three tabs and the fourth field's end
    starts = np.concatenate(([_TIME_DIGITS], seps[ends[:-1]] + 1, t1 + 1, t2 + 1))
    lengths = np.concatenate((t1, t2, t3)) - starts
    if lengths.min() < 1 or lengths.max() > _WORD:
        return None
    negative = a[t3 + 1] == 45
    n_digits = t4 - t3 - 1 - negative
    if n_digits.min() < 1 or n_digits.max() > _TIME_DIGITS:
        return None
    digits = (_windows(buf, _TIME_DIGITS)[t4 - _TIME_DIGITS] - np.uint8(48)) * _DIGIT_MASKS[n_digits]
    if digits.max() > 9:
        return None
    keys = _field_keys(buf, starts, lengths)
    column = [slice(c * ends.size, (c + 1) * ends.size) for c in range(3)]
    commits = [col.assign(buf, starts[c], lengths[c], keys[c]) for col, c in zip(names, column)]
    if None in commits:
        return None
    times = digits @ _POW10
    np.negative(times, out=times, where=negative)
    return np.column_stack([commit() for commit in commits]), times


def _parse_lines(lines: list[str], lineno: int, names: tuple[_Names, _Names, _Names]):
    """A block parsed one line at a time: the definition of the log format and of its errors.

    Lines are numbered from ``lineno + 1``.  Returns the block's (n, 3)
    dense ids and its timestamps, as int64 or, when one is outside that
    range, None.
    """
    users, items, activity_ids = (col.ids for col in names)
    ids: list[int] = []
    times: list[int] = []
    for lineno, line in enumerate(lines, start=lineno + 1):
        if not line.strip():
            continue
        user, item, activity, ts = _parse_line(line, lineno)
        if names[2].frozen and activity not in activity_ids:
            raise SchemaError(f"line {lineno}: activity {activity!r} not in declared set {sorted(activity_ids)}")
        ids.append(users.setdefault(user, len(users)))
        ids.append(items.setdefault(item, len(items)))
        ids.append(activity_ids.setdefault(activity, len(activity_ids)))
        times.append(ts)
    try:
        stamps = np.array(times, dtype=np.int64)
    except OverflowError:
        stamps = None
    return np.array(ids, dtype=np.int64).reshape(-1, 3), stamps


def ingest(path, activities: tuple[str, ...] | None = None) -> tuple[Catalog, InteractionStore]:
    """Read an interaction log into a catalog and a deduplicated store.

    ``activities`` declares the legal activity names; when None they are
    inferred from the file.  Dense ids are assigned in first-seen order.
    Duplicate rows collapse to one triple that keeps the timestamp of its
    first row (the count is recorded on the store); the keen pairs are
    the projection of the triples onto (user, item).

    The log is read in blocks of about ``INGEST_BLOCK`` characters of
    whole lines.  A block of plain lines with ids of up to 8 bytes is
    parsed as one byte array by ``_parse_block``.  Any other block goes
    through ``_parse_lines``, which defines the format and every error
    message and line number: one with a longer id, whitespace to strip,
    a blank line, a ``+`` or 19-digit timestamp, an undeclared activity
    or a line that does not parse.  A name goes through Python when it
    is first seen, not once per line.  Only one block's lines are Python
    objects at a time: each block's ids and timestamps are written to
    int64 chunks that double up to ``_CHUNK_ROWS`` rows, joined once at
    the end and handed to the store uncopied.  A timestamp outside the
    int64 range is reported after every line has parsed, as a line that
    does not parse comes first.
    """
    names = (_Names(), _Names(), _Names(activities or (), frozen=activities is not None))
    chunks: list[np.ndarray] = []  # (rows, 4) int64: user, item, activity, timestamp
    filled = total = 0  # rows written to the last chunk, and to all of them
    overflow = False
    lineno = 0
    with open(path, encoding="utf-8-sig") as fh:
        while lines := fh.readlines(INGEST_BLOCK):
            ids, times = _parse_block(lines, names) or _parse_lines(lines, lineno, names)
            lineno += len(lines)
            del lines  # the next block is read without this one's strings
            if not chunks or filled + len(ids) > len(chunks[-1]):
                chunks[-1:] = [chunks[-1][:filled]] if chunks else []
                chunks.append(np.empty((max(len(ids), min(total, _CHUNK_ROWS)), 4), dtype=np.int64))
                filled = 0
            chunks[-1][filled : filled + len(ids), :3] = ids
            if times is None:
                overflow = True
            else:
                chunks[-1][filled : filled + len(ids), 3] = times
            filled += len(ids)
            total += len(ids)
            del ids, times

    if not names[0].ids:
        raise EmptyDatasetError(f"empty dataset: no interactions in {path}")
    if overflow:
        raise DatasetError("a timestamp is outside the int64 range")
    catalog = Catalog(*(list(col.ids) for col in names))
    del names
    chunks[-1] = chunks[-1][:filled]
    rows = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    del chunks
    return catalog, InteractionStore(catalog, rows[:, :3], rows[:, 3])


def filter_active_users(store: InteractionStore, min_activities: int) -> InteractionStore:
    """Keep users with at least ``min_activities`` triples; re-densify ids.

    Users below the threshold are dropped with all their triples; items
    left without any triple are dropped too.  Activity types stay as
    declared.  Raw-id relationships survive the renumbering, and each
    kept triple keeps its timestamp.
    """
    if min_activities < 1:
        raise ValueError("min_activities must be >= 1")
    old = store.catalog
    u, v, z = store.columns
    keep_user = np.bincount(u, minlength=old.n_users) >= min_activities
    rows = keep_user[u]
    if not rows.any():
        raise EmptyDatasetError(f"no user has >= {min_activities} activities")
    keep_item = np.zeros(old.n_items, dtype=bool)
    keep_item[v[rows]] = True
    # new id = rank among the kept ids, so the renumbering keeps the triples' order
    user_map, item_map = np.cumsum(keep_user) - 1, np.cumsum(keep_item) - 1
    catalog = Catalog(
        [old.users[i] for i in np.flatnonzero(keep_user).tolist()],
        [old.items[i] for i in np.flatnonzero(keep_item).tolist()],
        old.activities,
    )
    # dropping whole users and renumbering by rank keeps the triples distinct and sorted
    columns = (user_map[u[rows]], item_map[v[rows]], z[rows])
    return InteractionStore._canonical(catalog, columns, store.times[rows])


def split_per_user(store: InteractionStore, fraction: float, seed: int) -> SplitPair:
    """Split each user's triples into train/test with a seeded shuffle.

    ceil(fraction * n_u) triples go to train, so every user keeps at
    least one training triple.  Each user, in ascending id order, draws
    one ``permutation(n_u)`` over their sorted triples.  Both sides share
    the source catalog and keep each triple's timestamp.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must be in (0, 1)")
    rng = np.random.Generator(np.random.PCG64(seed))
    in_train = np.zeros(store.n_triples, dtype=bool)
    for rows in store.user_rows().values():
        n_u = rows.stop - rows.start
        in_train[rows.start + rng.permutation(n_u)[: math.ceil(fraction * n_u)]] = True
    train, test = (
        InteractionStore._canonical(store.catalog, [c[side] for c in store.columns], store.times[side])
        for side in (in_train, ~in_train)
    )
    return SplitPair(train=train, test=test, seed=seed, fraction=fraction)


def write_interaction_log(store: InteractionStore, path) -> None:
    """Write a store back to the canonical tab-separated log format.

    Re-ingesting it keeps raw ids, triples and first timestamps, but may
    renumber dense ids: no row order keeps every first-seen numbering.
    Rows are written in column order, ``WRITE_BLOCK`` at a time: only one
    block's ids and timestamps are Python ints at once.
    """
    catalog = store.catalog
    columns = (*store.columns, store.times)
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, store.n_triples, WRITE_BLOCK):
            block = (c[lo : lo + WRITE_BLOCK].tolist() for c in columns)
            for u, v, z, ts in zip(*block):
                fh.write(f"{catalog.users[u]}\t{catalog.items[v]}\t{catalog.activities[z]}\t{ts}\n")


def write_split_manifest(split: SplitPair, out_dir) -> dict[str, str]:
    """Write train/test logs plus a metadata file recording seed and fraction."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "train": str(out / "train.tsv"),
        "test": str(out / "test.tsv"),
        "meta": str(out / "split.json"),
    }
    write_interaction_log(split.train, paths["train"])
    write_interaction_log(split.test, paths["test"])
    meta = {
        "seed": split.seed,
        "fraction": split.fraction,
        "train_triples": split.train.n_triples,
        "test_triples": split.test.n_triples,
    }
    with open(paths["meta"], "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    return paths
