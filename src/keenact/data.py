"""Catalog, interaction storage, ingestion and per-user train/test splitting.

An interaction log is a UTF-8 text file with one record per line:

    user_id<TAB>item_id<TAB>activity<TAB>unix_timestamp

Raw string ids are mapped to dense integer ids (contiguous from 0, in
first-seen order).  Item-level "keen" pairs are always derived from the
activity triples, so a triple (u, v, z) implies the pair (u, v).
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
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


@dataclass(frozen=True)
class LogSchema:
    """Column mapping for interaction logs.

    ``activities`` declares the finite set of legal activity names; when
    None the set is inferred from the file in first-seen order.
    """

    user_col: int = 0
    item_col: int = 1
    activity_col: int = 2
    timestamp_col: int = 3
    has_header: bool = False
    activities: tuple[str, ...] | None = None


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


class InteractionStore:
    """Deduplicated activity triples plus the derived item-level pairs.

    ``triples`` is kept in sorted order so iteration is deterministic.
    Construction is the only mutation point; instances are safe for
    concurrent reads afterwards.
    """

    def __init__(self, catalog: Catalog, triples, timestamps: dict | None = None):
        self.catalog = catalog
        raw = [tuple(t) for t in triples]
        seen = dict.fromkeys(raw)
        self.n_duplicates = len(raw) - len(seen)
        self.triples: tuple[tuple[int, int, int], ...] = tuple(sorted(seen))
        for u, v, z in self.triples:
            if not (0 <= u < catalog.n_users and 0 <= v < catalog.n_items and 0 <= z < catalog.n_activities):
                raise DatasetError(f"triple ({u}, {v}, {z}) outside catalog bounds")
        self.keen_pairs: tuple[tuple[int, int], ...] = tuple(sorted({(u, v) for u, v, _ in self.triples}))
        items_by_user = defaultdict(set)
        acts_by_pair = defaultdict(set)
        for u, v, z in self.triples:
            items_by_user[u].add(v)
            acts_by_pair[(u, v)].add(z)
        self._pos_items: dict[int, frozenset[int]] = {u: frozenset(s) for u, s in items_by_user.items()}
        self._pos_acts: dict[tuple[int, int], frozenset[int]] = {p: frozenset(s) for p, s in acts_by_pair.items()}
        self.timestamps: dict[tuple[int, int, int], int] = dict(timestamps or {})

    @property
    def n_triples(self) -> int:
        return len(self.triples)

    @property
    def n_pairs(self) -> int:
        return len(self.keen_pairs)

    def positive_items(self, u: int) -> frozenset[int]:
        return self._pos_items.get(u, frozenset())

    def positive_activities(self, u: int, v: int) -> frozenset[int]:
        return self._pos_acts.get((u, v), frozenset())

    def users_with_interactions(self) -> list[int]:
        return sorted(self._pos_items)

    def items_with_interactions(self) -> list[int]:
        return sorted({v for _, v, _ in self.triples})

    def triples_by_user(self) -> dict[int, list[tuple[int, int, int]]]:
        grouped = defaultdict(list)
        for t in self.triples:
            grouped[t[0]].append(t)
        return dict(grouped)

    def activity_counts(self) -> dict[int, int]:
        counts = dict.fromkeys(range(self.catalog.n_activities), 0)
        for _, _, z in self.triples:
            counts[z] += 1
        return counts


@dataclass(frozen=True)
class SplitPair:
    """A per-user train/test partition of one source store."""

    train: InteractionStore
    test: InteractionStore
    seed: int
    fraction: float


def _parse_line(line: str, lineno: int, schema: LogSchema) -> tuple[str, str, str, int]:
    cols = line.rstrip("\n").split("\t")
    needed = max(schema.user_col, schema.item_col, schema.activity_col, schema.timestamp_col) + 1
    if len(cols) < needed:
        raise ParseError(f"expected at least {needed} tab-separated columns, got {len(cols)}", lineno)
    user = cols[schema.user_col].strip()
    item = cols[schema.item_col].strip()
    activity = cols[schema.activity_col].strip()
    ts_raw = cols[schema.timestamp_col].strip()
    if not user or not item or not activity:
        raise ParseError("empty user, item or activity field", lineno)
    try:
        ts = int(ts_raw)
    except ValueError:
        raise ParseError(f"timestamp {ts_raw!r} is not an integer", lineno) from None
    return user, item, activity, ts


def ingest(path, schema: LogSchema | None = None) -> tuple[Catalog, InteractionStore]:
    """Read an interaction log into a catalog and a deduplicated store.

    Dense ids are assigned in first-seen order.  Duplicate rows collapse
    to one triple (the count is recorded on the store); the keen pairs
    are the projection of the triples onto (user, item).
    """
    schema = schema or LogSchema()
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    activities: dict[str, int] = {}
    declared = None
    if schema.activities is not None:
        declared = {name: i for i, name in enumerate(schema.activities)}
        activities = dict(declared)

    triples: list[tuple[int, int, int]] = []
    timestamps: dict[tuple[int, int, int], int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1 and schema.has_header:
                continue
            if not line.strip():
                continue
            user, item, activity, ts = _parse_line(line, lineno, schema)
            if declared is not None and activity not in declared:
                raise SchemaError(f"line {lineno}: activity {activity!r} not in declared set {sorted(declared)}")
            u = users.setdefault(user, len(users))
            v = items.setdefault(item, len(items))
            z = activities.setdefault(activity, len(activities))
            t = (u, v, z)
            triples.append(t)
            if t not in timestamps:
                timestamps[t] = ts

    if not triples:
        raise EmptyDatasetError(f"empty dataset: no interactions in {path}")
    catalog = Catalog(list(users), list(items), list(activities))
    store = InteractionStore(catalog, triples, timestamps)
    return catalog, store


def filter_active_users(store: InteractionStore, min_activities: int) -> InteractionStore:
    """Keep users with at least ``min_activities`` triples; re-densify ids.

    Users below the threshold are dropped with all their triples; items
    left without any triple are dropped too.  Activity types stay as
    declared.  Raw-id relationships survive the renumbering.
    """
    if min_activities < 1:
        raise ValueError("min_activities must be >= 1")
    old = store.catalog
    counts = defaultdict(int)
    for u, _, _ in store.triples:
        counts[u] += 1
    kept_users = sorted(u for u, c in counts.items() if c >= min_activities)
    kept = set(kept_users)
    kept_triples = [t for t in store.triples if t[0] in kept]
    if not kept_triples:
        raise EmptyDatasetError(f"no user has >= {min_activities} activities")
    kept_items = sorted({v for _, v, _ in kept_triples})
    user_map = {u: i for i, u in enumerate(kept_users)}
    item_map = {v: i for i, v in enumerate(kept_items)}
    catalog = Catalog(
        [old.users[u] for u in kept_users],
        [old.items[v] for v in kept_items],
        old.activities,
    )
    remapped = [(user_map[u], item_map[v], z) for u, v, z in kept_triples]
    timestamps = {
        (user_map[u], item_map[v], z): ts
        for (u, v, z), ts in store.timestamps.items()
        if u in user_map and v in item_map
    }
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
    """Write a store back to the canonical tab-separated log format."""
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
