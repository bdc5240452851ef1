"""Catalog, interaction storage, ingestion and per-user train/test splitting.

An interaction log is a UTF-8 text file with one record per line and
no header line:

    user_id<TAB>item_id<TAB>activity<TAB>unix_timestamp

Raw string ids are mapped to dense integer ids (contiguous from 0, in
first-seen order).  A store is its sorted (u, v, z) columns plus a
timestamp column; item-level "keen" pairs and every other view are
derived from them, so a triple (u, v, z) implies the pair (u, v).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter
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

    @classmethod
    def from_dict(cls, d: dict) -> "Catalog":
        return cls(d["users"], d["items"], d["activities"])


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


class InteractionStore:
    """Deduplicated activity triples and their timestamps, stored as columns.

    ``columns`` holds the distinct triples as read-only int64 ``(u, v, z)``
    arrays in lexicographic order, and ``times`` an aligned read-only
    int64 timestamp array (0 for a store built without timestamps).
    Construction is one stable sort of the keys
    ``(u * n_items + v) * n_activities + z``, ordered as the triples,
    keeping each key's first row: a repeated triple keeps the timestamp
    of its first input row.  ``triples``, ``keen_pairs``, ``timestamps``
    and the positive maps are views of the columns, built on first use.

    Instances are read-only after construction; a concurrent first use
    may build a view twice, with equal results.
    """

    def __init__(self, catalog: Catalog, triples, timestamps=None):
        self.catalog = catalog
        arr = np.array(triples) if len(triples) else np.empty((0, 3), dtype=np.int64)
        limits = (catalog.n_users, catalog.n_items, catalog.n_activities)
        if arr.dtype.kind not in "biu" or ((arr < 0) | (arr >= limits)).any():
            raise _invalid_triple(triples, limits)
        try:
            times = np.zeros(len(arr), dtype=np.int64) if timestamps is None else np.array(timestamps, dtype=np.int64)
        except OverflowError:
            raise DatasetError("a timestamp is outside the int64 range") from None
        if times.shape != (len(arr),):
            raise DatasetError(f"{times.size} timestamps for {len(arr)} triples")
        arr = arr.astype(np.int64, copy=False)
        keys = (arr[:, 0] * limits[1] + arr[:, 1]) * limits[2] + arr[:, 2]
        keys, rows = np.unique(keys, return_index=True)  # first rows, in key order
        self.n_duplicates = len(arr) - rows.size
        pair_keys, z = np.divmod(keys, limits[2])
        u, v = np.divmod(pair_keys, limits[1])
        self.times = times[rows]
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
        return np.unique(self.columns[0] * self.catalog.n_items + self.columns[1], return_index=True)[1]

    @cached_property
    def triples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(zip(*(c.tolist() for c in self.columns)))

    @cached_property
    def pair_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct (u, v) pairs as two int64 columns, in ``keen_pairs`` order."""
        return self.columns[0][self._pair_rows], self.columns[1][self._pair_rows]

    @cached_property
    def pair_ids(self) -> np.ndarray:
        """Each triple's index in ``keen_pairs``, aligned with ``columns``."""
        starts = np.zeros(self.n_triples, dtype=np.int64)
        starts[self._pair_rows] = 1
        return np.cumsum(starts) - 1

    @cached_property
    def keen_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*(c.tolist() for c in self.pair_columns)))

    @cached_property
    def timestamps(self) -> dict[tuple[int, int, int], int]:
        return dict(zip(self.triples, self.times.tolist()))

    @cached_property
    def _pos_items(self) -> dict[int, frozenset[int]]:
        return {u: frozenset(v for _, v in pairs) for u, pairs in groupby(self.keen_pairs, itemgetter(0))}

    @cached_property
    def _pos_acts(self) -> dict[tuple[int, int], frozenset[int]]:
        return {pair: frozenset(t[2] for t in group) for pair, group in groupby(self.triples, itemgetter(0, 1))}

    def positive_items(self, u: int) -> frozenset[int]:
        return self._pos_items.get(u, frozenset())

    def positive_activities(self, u: int, v: int) -> frozenset[int]:
        return self._pos_acts.get((u, v), frozenset())

    def users_with_interactions(self) -> list[int]:
        return list(self.user_rows())

    def items_with_interactions(self) -> list[int]:
        return np.unique(self.columns[1]).tolist()

    def user_rows(self) -> dict[int, slice]:
        """Each user's rows of ``columns``, in ascending user order."""
        users, starts = np.unique(self.columns[0], return_index=True)
        bounds = [*starts.tolist(), self.n_triples]  # the user column is sorted
        return {u: slice(a, b) for u, a, b in zip(users.tolist(), bounds, bounds[1:])}

    def triples_by_user(self) -> dict[int, list[tuple[int, int, int]]]:
        return {u: list(self.triples[rows]) for u, rows in self.user_rows().items()}


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


def ingest(path, activities: tuple[str, ...] | None = None) -> tuple[Catalog, InteractionStore]:
    """Read an interaction log into a catalog and a deduplicated store.

    ``activities`` declares the legal activity names; when None they are
    inferred from the file.  Dense ids are assigned in first-seen order.
    Duplicate rows collapse to one triple that keeps the timestamp of its
    first row (the count is recorded on the store); the keen pairs are
    the projection of the triples onto (user, item).
    """
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    declared = None if activities is None else {name: i for i, name in enumerate(activities)}
    activity_ids: dict[str, int] = dict(declared or {})

    ids: list[int] = []
    times: list[int] = []
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
    remapped = np.column_stack((user_map[u[rows]], item_map[v[rows]], z[rows]))
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
    """
    catalog = store.catalog
    with open(path, "w", encoding="utf-8") as fh:
        for u, v, z, ts in zip(*(c.tolist() for c in (*store.columns, store.times))):
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
