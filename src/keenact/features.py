"""User co-participation features, item tag TF-IDF, and FM input assembly.

Scorer inputs are sparse concatenations of ordered blocks:

    [user id one-hot |U|] [item id one-hot |V|] [user features d_U]
    [item features d_T] [activity one-hot |Z|]

The activity block exists only in the Act layout; the id blocks can be
switched off for pure cold-start experiments.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from collections import defaultdict

import numpy as np
from scipy import sparse


@dataclass(frozen=True)
class SparseVector:
    """Sorted sparse vector: strictly increasing indices, no stored zeros."""

    indices: np.ndarray
    values: np.ndarray
    dim: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)
        if idx.shape != val.shape:
            raise ValueError("indices and values length mismatch")
        if idx.size:
            if np.any(np.diff(idx) <= 0):
                raise ValueError("indices must be strictly increasing")
            if idx[0] < 0 or idx[-1] >= self.dim:
                raise ValueError(f"index outside [0, {self.dim})")
            if np.any(val == 0.0):
                raise ValueError("zeros must not be stored")

    @classmethod
    def from_entries(cls, entries, dim: int) -> "SparseVector":
        entries = sorted((int(i), float(x)) for i, x in entries if x != 0.0)
        idx = np.array([i for i, _ in entries], dtype=np.int64)
        val = np.array([x for _, x in entries], dtype=np.float64)
        return cls(idx, val, dim)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def to_entries(self) -> list[tuple[int, float]]:
        return [(int(i), float(x)) for i, x in zip(self.indices, self.values)]


class FeatureMatrix:
    """One sparse feature row per entity, all rows sharing one dimension."""

    def __init__(self, matrix: sparse.csr_matrix, entity_kind: str):
        if entity_kind not in ("user", "item"):
            raise ValueError(f"unknown entity kind {entity_kind!r}")
        m = sparse.csr_matrix(matrix, dtype=np.float64)
        m.eliminate_zeros()
        m.sort_indices()
        self.matrix = m
        self.entity_kind = entity_kind

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (indices, values) views of one row."""
        if not (0 <= i < self.n_rows):
            raise IndexError(f"row {i} outside [0, {self.n_rows})")
        start, end = self.matrix.indptr[i], self.matrix.indptr[i + 1]
        return self.matrix.indices[start:end].astype(np.int64), self.matrix.data[start:end]


def empty_features(n_rows: int, entity_kind: str) -> FeatureMatrix:
    """Zero-width feature matrix for datasets without side information."""
    return FeatureMatrix(sparse.csr_matrix((n_rows, 0), dtype=np.float64), entity_kind)


def co_participation_features(train) -> FeatureMatrix:
    """Count, for each user pair, shared (item, activity-type) combinations.

    Entry (u, u') is the number of (v, z) combinations both users acted
    on, i.e. co-forks plus co-watches and so on.  The diagonal is forced
    to zero.  Computed from the training split only.
    """
    if train.n_triples == 0:
        raise ValueError("empty training store")
    catalog = train.catalog
    u, v, z = train.columns
    pairs, cols = np.unique(v * catalog.n_activities + z, return_inverse=True)
    incidence = sparse.csr_matrix((np.ones(u.size), (u, cols)), shape=(catalog.n_users, pairs.size))
    co = (incidence @ incidence.T).tocsr()
    co.setdiag(0.0)
    co.eliminate_zeros()
    return FeatureMatrix(co, "user")


def l2_normalize_rows(feats: FeatureMatrix) -> FeatureMatrix:
    """Scale each row to unit L2 norm; zero rows stay zero.

    Raw co-participation counts grow with corpus density and would
    dwarf the identity one-hots inside a scorer, so the training
    pipeline feeds them through this.
    """
    m = feats.matrix.tocsr().astype(np.float64)
    norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    norms[norms == 0.0] = 1.0
    scaled = sparse.diags(1.0 / norms) @ m
    return FeatureMatrix(scaled.tocsr(), feats.entity_kind)


def tfidf_item_features(tags: dict, catalog) -> FeatureMatrix:
    """TF-IDF rows over description tags, L2-normalized per item.

    tf is the raw count of a tag on the item; idf(t) uses add-one
    smoothing, ln((1 + |V|) / (1 + df(t))) + 1.  Items without tags get
    zero rows.  ``tags`` maps raw item ids to tag lists; unknown items
    are ignored.
    """
    tag_counts: dict[int, dict[str, int]] = {}
    df: dict[str, int] = defaultdict(int)
    for raw_id, tag_list in tags.items():
        v = catalog.item_index.get(raw_id)
        if v is None:
            continue
        counts: dict[str, int] = defaultdict(int)
        for t in tag_list:
            counts[t] += 1
        if counts:
            tag_counts[v] = dict(counts)
            for t in counts:
                df[t] += 1
    vocab = {t: j for j, t in enumerate(sorted(df))}
    n_items = catalog.n_items
    idf = {t: np.log((1.0 + n_items) / (1.0 + df[t])) + 1.0 for t in vocab}

    rows, cols, vals = [], [], []
    for v, counts in tag_counts.items():
        entries = [(vocab[t], c * idf[t]) for t, c in counts.items()]
        norm = np.sqrt(sum(x * x for _, x in entries))
        for j, x in entries:
            rows.append(v)
            cols.append(j)
            vals.append(x / norm)
    mat = sparse.csr_matrix((vals, (rows, cols)), shape=(n_items, len(vocab)), dtype=np.float64)
    return FeatureMatrix(mat, "item")


def read_tag_file(path) -> dict[str, list[str]]:
    """Read lines of ``item_id<TAB>tag1,tag2,...`` into a tag map."""
    tags: dict[str, list[str]] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            item, _, tag_field = line.partition("\t")
            tag_list = [t.strip() for t in tag_field.split(",") if t.strip()]
            tags[item.strip()] = tag_list
    return tags


@dataclass(frozen=True)
class FeatureLayout:
    """Block offsets for scorer inputs.

    ``n_activities == 0`` describes the Keen layout (no activity block).
    Disabled id blocks have zero width; all offsets stay contiguous.
    """

    n_users: int
    n_items: int
    d_user: int
    d_item: int
    n_activities: int = 0
    use_user_ids: bool = True
    use_item_ids: bool = True

    @property
    def user_id_offset(self) -> int:
        return 0

    @property
    def item_id_offset(self) -> int:
        return self.n_users if self.use_user_ids else 0

    @property
    def user_feat_offset(self) -> int:
        return self.item_id_offset + (self.n_items if self.use_item_ids else 0)

    @property
    def item_feat_offset(self) -> int:
        return self.user_feat_offset + self.d_user

    @property
    def activity_offset(self) -> int:
        return self.item_feat_offset + self.d_item

    @property
    def dim(self) -> int:
        return self.activity_offset + self.n_activities

    def blocks(self) -> list[tuple[str, int, int]]:
        """(name, offset, size) for each enabled block, in layout order."""
        out = []
        if self.use_user_ids:
            out.append(("user_id", self.user_id_offset, self.n_users))
        if self.use_item_ids:
            out.append(("item_id", self.item_id_offset, self.n_items))
        out.append(("user_features", self.user_feat_offset, self.d_user))
        out.append(("item_features", self.item_feat_offset, self.d_item))
        if self.n_activities:
            out.append(("activity", self.activity_offset, self.n_activities))
        return out

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureLayout":
        return cls(**d)

    @classmethod
    def for_keen(cls, catalog, user_feats: FeatureMatrix, item_feats: FeatureMatrix, id_onehots: bool = True) -> "FeatureLayout":
        return dataclasses.replace(cls.for_act(catalog, user_feats, item_feats, id_onehots), n_activities=0)

    @classmethod
    def for_act(cls, catalog, user_feats: FeatureMatrix, item_feats: FeatureMatrix, id_onehots: bool = True) -> "FeatureLayout":
        return cls(
            n_users=catalog.n_users,
            n_items=catalog.n_items,
            d_user=user_feats.dim,
            d_item=item_feats.dim,
            n_activities=catalog.n_activities,
            use_user_ids=id_onehots,
            use_item_ids=id_onehots,
        )


def _entity_part(i: int, one_hot: int | None, feat_offset: int, feats: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Entries of one entity: the one-hot at absolute index ``one_hot`` (None: none) and its feature row."""
    fidx, fval = feats.row(i)
    if one_hot is not None:
        idx = np.concatenate(([one_hot], feat_offset + fidx))
        val = np.concatenate(([1.0], fval))
        return idx.astype(np.int64), val.astype(np.float64)
    return (feat_offset + fidx).astype(np.int64), fval.astype(np.float64)


def user_part(u: int, layout: FeatureLayout, user_feats: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    """User-side entries (id one-hot + feature block), absolute indices."""
    if not (0 <= u < layout.n_users):
        raise ValueError(f"user id {u} outside [0, {layout.n_users})")
    one_hot = layout.user_id_offset + u if layout.use_user_ids else None
    return _entity_part(u, one_hot, layout.user_feat_offset, user_feats)


def item_part(
    v: int,
    layout: FeatureLayout,
    item_feats: FeatureMatrix,
    cold: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Item-side entries; a cold item contributes features only, no one-hot."""
    if not (0 <= v < layout.n_items):
        raise ValueError(f"item id {v} outside [0, {layout.n_items})")
    one_hot = layout.item_id_offset + v if layout.use_item_ids and not cold else None
    return _entity_part(v, one_hot, layout.item_feat_offset, item_feats)


def activity_part(z: int, layout: FeatureLayout) -> tuple[np.ndarray, np.ndarray]:
    if layout.n_activities == 0:
        raise ValueError("layout has no activity block")
    if not (0 <= z < layout.n_activities):
        raise ValueError(f"activity id {z} outside [0, {layout.n_activities})")
    return np.array([layout.activity_offset + z], dtype=np.int64), np.array([1.0])


def join_parts(*parts: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate (indices, values) parts of disjoint blocks, unsorted."""
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def pad_parts(parts) -> tuple[np.ndarray, np.ndarray]:
    """Stack parts into one padded (indices, values) pair, one row per part.

    Padding is index 0 with value 0, at the end of each row, which adds
    nothing to a part's base or factor sum; stored values are never 0, so
    a row's nonzero entries are its part.
    """
    parts = list(parts)
    width = max([1] + [p[0].size for p in parts])
    indices = np.zeros((len(parts), width), dtype=np.int64)
    values = np.zeros((len(parts), width))
    for row, (idx, val) in enumerate(parts):
        indices[row, : idx.size] = idx
        values[row, : val.size] = val
    return indices, values


def join_tables(*selections: tuple[tuple[np.ndarray, np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Join rows of padded tables of disjoint blocks: for (table, rows)
    selections of equal length, row r holds each table's row rows[r], in
    selection order, with all padding at the row's end."""
    idx = np.hstack([table[0][rows] for table, rows in selections])
    val = np.hstack([table[1][rows] for table, rows in selections])
    order = np.argsort(val == 0.0, axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(val, order, axis=1)


def _merge_parts(parts, dim: int) -> SparseVector:
    idx, val = join_parts(*parts)
    order = np.argsort(idx, kind="stable")
    return SparseVector(idx[order], val[order], dim)


def assemble_keen_input(
    u: int,
    v: int,
    layout: FeatureLayout,
    user_feats: FeatureMatrix,
    item_feats: FeatureMatrix,
    cold_item: bool = False,
) -> SparseVector:
    """Concatenate user and item blocks into one Keen scorer input."""
    return _merge_parts(
        [user_part(u, layout, user_feats), item_part(v, layout, item_feats, cold=cold_item)],
        layout.dim,
    )


def assemble_act_input(
    u: int,
    v: int,
    z: int,
    layout: FeatureLayout,
    user_feats: FeatureMatrix,
    item_feats: FeatureMatrix,
    cold_item: bool = False,
) -> SparseVector:
    """Keen blocks plus the activity one-hot, for the Act scorer."""
    return _merge_parts(
        [
            user_part(u, layout, user_feats),
            item_part(v, layout, item_feats, cold=cold_item),
            activity_part(z, layout),
        ],
        layout.dim,
    )
