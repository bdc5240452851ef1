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
        ts = int(ts_raw)
    except ValueError:
        raise ParseError(f"timestamp {ts_raw!r} is not an integer", lineno) from None
    return user, item, activity, ts


# characters of log lines that ingest parses at once: a ``readlines`` size hint
INGEST_BLOCK = 1 << 16
# rows that write_interaction_log turns into Python objects at once
WRITE_BLOCK = 1 << 13


def ingest(path, activities: tuple[str, ...] | None = None) -> tuple[Catalog, InteractionStore]:
    """Read an interaction log into a catalog and a deduplicated store.

    ``activities`` declares the legal activity names; when None they are
    inferred from the file.  Dense ids are assigned in first-seen order.
    Duplicate rows collapse to one triple that keeps the timestamp of its
    first row (the count is recorded on the store); the keen pairs are
    the projection of the triples onto (user, item).

    The log is read in blocks of about ``INGEST_BLOCK`` characters of
    whole lines.  Only one block's lines and parsed values are Python
    objects at a time: each block's ids and timestamps become int64
    arrays, joined once at the end and handed to the store uncopied.
    A timestamp outside the int64 range is reported after every line
    has parsed, as a line that does not parse comes first.
    """
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    declared = None if activities is None else {name: i for i, name in enumerate(activities)}
    activity_ids: dict[str, int] = dict(declared or {})

    id_blocks: list[np.ndarray] = []
    time_blocks: list[np.ndarray] = []
    overflow = False
    lineno = 0
    with open(path, encoding="utf-8-sig") as fh:
        while lines := fh.readlines(INGEST_BLOCK):
            ids: list[int] = []
            times: list[int] = []
            for lineno, line in enumerate(lines, start=lineno + 1):
                if not line.strip():
                    continue
                user, item, activity, ts = _parse_line(line, lineno)
                if declared is not None and activity not in declared:
                    raise SchemaError(f"line {lineno}: activity {activity!r} not in declared set {sorted(declared)}")
                ids.append(users.setdefault(user, len(users)))
                ids.append(items.setdefault(item, len(items)))
                ids.append(activity_ids.setdefault(activity, len(activity_ids)))
                times.append(ts)
            del lines  # the next block is read without this one's strings
            id_blocks.append(np.array(ids, dtype=np.int64))
            try:
                time_blocks.append(np.array(times, dtype=np.int64))
            except OverflowError:
                overflow = True
            del ids, times

    if not users:
        raise EmptyDatasetError(f"empty dataset: no interactions in {path}")
    if overflow:
        raise DatasetError("a timestamp is outside the int64 range")
    catalog = Catalog(list(users), list(items), list(activity_ids))
    triples, stamps = np.concatenate(id_blocks).reshape(-1, 3), np.concatenate(time_blocks)
    del id_blocks, time_blocks
    return catalog, InteractionStore(catalog, triples, stamps)


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
    remapped = np.empty((np.count_nonzero(rows), 3), dtype=np.int64)
    remapped[:, 0] = user_map[u[rows]]
    remapped[:, 1] = item_map[v[rows]]
    remapped[:, 2] = z[rows]
    return InteractionStore(catalog, remapped, store.times[rows])


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
        InteractionStore(store.catalog, np.column_stack([c[side] for c in store.columns]), store.times[side])
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
