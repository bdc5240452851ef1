"""Catalog, interaction storage, ingestion and per-user train/test splitting.

An interaction log is a UTF-8 text file with one record per line and
no header line:

    user_id<TAB>item_id<TAB>activity<TAB>unix_timestamp

Raw string ids are mapped to dense integer ids (contiguous from 0, in
first-seen order).  Item-level "keen" pairs are always derived from the
activity triples, so a triple (u, v, z) implies the pair (u, v).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, groupby
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


def _distinct(sorted_keys: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array (``np.unique`` without its sort)."""
    first = np.ones(sorted_keys.size, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return sorted_keys[first]


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
    """Deduplicated activity triples plus the derived item-level pairs.

    Construction is one sort over encoded keys: each triple becomes
    ``(u * n_items + v) * n_activities + z``, whose order is the
    lexicographic order of the triples.  Dropping equal neighbours from
    the sorted keys dedups the triples, and from ``key // n_activities``
    (sorted with them) the keen pairs.  ``triples`` and ``keen_pairs``
    are sorted tuples of Python ints; ``columns`` holds the triples as
    read-only int64 ``(u, v, z)`` arrays.  The positive-item and
    positive-activity maps are built on first use.

    Construction is the only mutation point; instances are safe for
    concurrent reads afterwards.  A concurrent first use may build a
    positive map more than once; every build is equal, so each reader
    gets the same sets.
    """

    def __init__(self, catalog: Catalog, triples, timestamps: dict | None = None):
        self.catalog = catalog
        raw = list(triples)
        arr = np.array(raw) if raw else np.empty((0, 3), dtype=np.int64)
        limits = (catalog.n_users, catalog.n_items, catalog.n_activities)
        if arr.dtype.kind not in "biu" or ((arr < 0) | (arr >= limits)).any():
            raise _invalid_triple(raw, limits)
        arr = arr.astype(np.int64, copy=False)
        keys = _distinct(np.sort((arr[:, 0] * limits[1] + arr[:, 1]) * limits[2] + arr[:, 2]))
        self.n_duplicates = len(raw) - keys.size
        pair_keys, z = np.divmod(keys, limits[2])
        u, v = np.divmod(pair_keys, limits[1])
        for col in (u, v, z):
            col.flags.writeable = False
        self.columns: tuple[np.ndarray, np.ndarray, np.ndarray] = (u, v, z)
        self.triples: tuple[tuple[int, int, int], ...] = tuple(zip(u.tolist(), v.tolist(), z.tolist()))
        pair_u, pair_v = np.divmod(_distinct(pair_keys), limits[1])
        self.keen_pairs: tuple[tuple[int, int], ...] = tuple(zip(pair_u.tolist(), pair_v.tolist()))
        self.timestamps: dict[tuple[int, int, int], int] = dict(timestamps or {})

    @property
    def n_triples(self) -> int:
        return len(self.triples)

    @property
    def n_pairs(self) -> int:
        return len(self.keen_pairs)

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
        return _distinct(self.columns[0]).tolist()  # the user column is sorted

    def items_with_interactions(self) -> list[int]:
        return np.unique(self.columns[1]).tolist()

    def triples_by_user(self) -> dict[int, list[tuple[int, int, int]]]:
        return {u: list(group) for u, group in groupby(self.triples, itemgetter(0))}


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
    Duplicate rows collapse to one triple (the count is recorded on the
    store); the keen pairs are the projection of the triples onto
    (user, item).
    """
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    declared = None if activities is None else {name: i for i, name in enumerate(activities)}
    activity_ids: dict[str, int] = dict(declared or {})

    triples: list[tuple[int, int, int]] = []
    timestamps: dict[tuple[int, int, int], int] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            user, item, activity, ts = _parse_line(line, lineno)
            if declared is not None and activity not in declared:
                raise SchemaError(f"line {lineno}: activity {activity!r} not in declared set {sorted(declared)}")
            u = users.setdefault(user, len(users))
            v = items.setdefault(item, len(items))
            z = activity_ids.setdefault(activity, len(activity_ids))
            t = (u, v, z)
            triples.append(t)
            if t not in timestamps:
                timestamps[t] = ts

    if not triples:
        raise EmptyDatasetError(f"empty dataset: no interactions in {path}")
    catalog = Catalog(list(users), list(items), list(activity_ids))
    store = InteractionStore(catalog, triples, timestamps)
    return catalog, store


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
    remapped = list(zip(user_map[u[rows]].tolist(), item_map[v[rows]].tolist(), z[rows].tolist()))
    ts = store.timestamps
    timestamps = {new: ts[t] for t, new in zip(compress(store.triples, rows.tolist()), remapped) if t in ts}
    return InteractionStore(catalog, remapped, timestamps)


def split_per_user(store: InteractionStore, fraction: float, seed: int) -> SplitPair:
    """Split each user's triples into train/test with a seeded shuffle.

    ceil(fraction * n_u) triples go to train, so every user keeps at
    least one training triple.  Both sides share the source catalog and
    derive their own keen pairs.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must be in (0, 1)")
    rng = np.random.Generator(np.random.PCG64(seed))
    train_triples: list[tuple[int, int, int]] = []
    test_triples: list[tuple[int, int, int]] = []
    grouped = store.triples_by_user()
    for u in sorted(grouped):
        user_triples = grouped[u]
        order = rng.permutation(len(user_triples))
        n_train = math.ceil(fraction * len(user_triples))
        for rank, idx in enumerate(order):
            (train_triples if rank < n_train else test_triples).append(user_triples[idx])
    ts = store.timestamps
    train = InteractionStore(store.catalog, train_triples, {t: ts[t] for t in train_triples if t in ts})
    test = InteractionStore(store.catalog, test_triples, {t: ts[t] for t in test_triples if t in ts})
    return SplitPair(train=train, test=test, seed=seed, fraction=fraction)


def write_interaction_log(store: InteractionStore, path) -> None:
    """Write a store back to the canonical tab-separated log format.

    Re-ingesting it keeps raw ids, triples and first timestamps, but may
    renumber dense ids: no row order keeps every first-seen numbering.
    """
    catalog = store.catalog
    with open(path, "w", encoding="utf-8") as fh:
        for t in store.triples:
            u, v, z = t
            ts = store.timestamps.get(t, 0)
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
