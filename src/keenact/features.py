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

import numpy as np


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

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def to_entries(self) -> list[tuple[int, float]]:
        return [(int(i), float(x)) for i, x in zip(self.indices, self.values)]


def _shape(shape) -> tuple[int, int]:
    if not (
        isinstance(shape, (tuple, list))
        and len(shape) == 2
        and all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 0 for n in shape)
    ):
        raise ValueError(f"shape {shape!r} is not two non-negative integers")
    return int(shape[0]), int(shape[1])


def _integers(values, name: str) -> np.ndarray:
    """``values`` as a 1-D integer array; an empty list counts as integers."""
    array = np.asarray(values)
    if array.ndim != 1 or (array.size and array.dtype.kind not in "iu"):
        raise ValueError(f"{name} must be a list of integers")
    return array if array.size else array.astype(np.int64)


@dataclass(frozen=True, eq=False)
class CSR:
    """Canonical compressed sparse rows in numpy arrays.

    Row i holds the columns ``indices[indptr[i]:indptr[i + 1]]``, strictly
    increasing, with the nonzero values ``data`` at the same positions.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        n_rows, n_cols = _shape(self.shape)
        indptr = _integers(self.indptr, "indptr").astype(np.int64, copy=False)
        indices = _integers(self.indices, "indices")
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "shape", (n_rows, n_cols))
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "data", data)
        if indptr.size != n_rows + 1 or data.shape != indices.shape:
            raise ValueError("indptr needs one entry per row plus one, and data one per index")
        if indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must rise from 0 to the number of entries")
        if indices.size:
            if indices.min() < 0 or indices.max() >= n_cols:
                raise ValueError(f"column index outside [0, {n_cols})")
            rising = np.diff(indices) > 0
            row_starts = indptr[1:-1]
            rising[row_starts[(row_starts > 0) & (row_starts < indices.size)] - 1] = True
            if not rising.all():
                raise ValueError("columns must be strictly increasing within a row")
            if np.any(data == 0.0):
                raise ValueError("zeros must not be stored")

    @classmethod
    def from_coo(cls, rows, cols, values, shape) -> "CSR":
        """Entries (rows[i], cols[i], values[i]), in any order: duplicates are
        summed in input order, and entries that are or sum to 0 are dropped."""
        n_rows, n_cols = _shape(shape)
        rows, cols = _integers(rows, "rows"), _integers(cols, "cols")
        values = np.asarray(values, dtype=np.float64)
        if not rows.shape == cols.shape == values.shape:
            raise ValueError("rows, cols and values differ in length")
        if rows.size and (min(rows.min(), cols.min()) < 0 or rows.max() >= n_rows or cols.max() >= n_cols):
            raise ValueError(f"an index lies outside the shape {(n_rows, n_cols)}")
        order = np.lexsort((cols, rows))  # stable: duplicates keep input order
        rows, cols, values = rows[order], cols[order], values[order]
        first = np.ones(rows.size, dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        if not first.all():
            # bincount adds each entry's values in order, from 0
            values = np.bincount(np.cumsum(first) - 1, weights=values)
            rows, cols = rows[first], cols[first]
        kept = values != 0.0
        counts = np.bincount(rows[kept], minlength=n_rows)
        return cls(np.concatenate(([0], np.cumsum(counts))), cols[kept], values[kept], (n_rows, n_cols))

    @classmethod
    def from_dense(cls, array) -> "CSR":
        """The nonzero entries of a 2-D array."""
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError(f"expected a 2-D array, got {array.ndim}-D")
        rows, cols = np.nonzero(array)
        return cls.from_coo(rows, cols, array[rows, cols], array.shape)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry, in stored order."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.row_ids(), self.indices] = self.data
        return dense


class FeatureMatrix:
    """One sparse feature row per entity, all rows sharing one dimension."""

    def __init__(self, matrix: CSR):
        if not isinstance(matrix, CSR):
            raise TypeError(f"feature rows must be a CSR, not {type(matrix).__name__}")
        self.matrix = matrix

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


def empty_features(n_rows: int) -> FeatureMatrix:
    """Zero-width feature matrix for datasets without side information."""
    return FeatureMatrix(CSR(np.zeros(n_rows + 1, dtype=np.int64), [], [], (n_rows, 0)))


# user pairs expanded at once by co_participation_features
CO_PARTICIPATION_CHUNK = 1 << 15


def co_participation_features(train) -> FeatureMatrix:
    """Count, for each user pair, shared (item, activity-type) combinations.

    Entry (u, u') is the number of (v, z) combinations both users acted
    on, i.e. co-forks plus co-watches and so on.  The diagonal is forced
    to zero.  Computed from the training split only.

    Rows are counted a block of users at a time: each of a block's
    entries expands into the users of its (v, z) column, and sorting the
    block's (row, user) keys counts the pairs.  A block holds at most
    ``CO_PARTICIPATION_CHUNK`` pairs, unless one user alone expands into
    more, so time and memory follow the number of pairs, not the square
    of the number of users.
    """
    if train.n_triples == 0:
        raise ValueError("empty training store")
    catalog = train.catalog
    n = catalog.n_users
    u, v, z = train.columns  # sorted by user
    _, col = np.unique(v * catalog.n_activities + z, return_inverse=True)
    col_users = u[np.argsort(col, kind="stable")]
    col_size = np.bincount(col)
    col_start = np.cumsum(col_size) - col_size
    width = col_size[col]
    reach = np.concatenate(([0], np.cumsum(width)))  # pairs expanded before each entry
    user_start = np.searchsorted(u, np.arange(n + 1))
    user_reach = reach[user_start]
    indices, data, row_nnz = [], [], []
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(user_reach, user_reach[lo] + CO_PARTICIPATION_CHUNK, side="right")) - 1)
        e0, e1 = user_start[lo], user_start[hi]
        at = np.repeat(col_start[col[e0:e1]] - (reach[e0:e1] - reach[e0]), width[e0:e1])
        at += np.arange(at.size)
        keys = np.repeat(u[e0:e1] * n, width[e0:e1])
        keys += col_users[at]
        del at
        keys.sort()
        first = np.flatnonzero(np.concatenate((keys[:1] >= 0, keys[1:] != keys[:-1])))
        counts = np.diff(np.append(first, keys.size))
        row, user = np.divmod(keys[first], n)
        del keys
        off_diagonal = row != user
        indices.append(user[off_diagonal].astype(np.int32))
        data.append(counts[off_diagonal].astype(np.int32))
        row_nnz.append(np.bincount(row[off_diagonal] - lo, minlength=hi - lo))
        lo = hi
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(row_nnz))))
    indices = np.concatenate(indices)
    data = np.concatenate(data, dtype=np.float64)
    return FeatureMatrix(CSR(indptr, indices, data, (n, n)))


def l2_normalize_rows(feats: FeatureMatrix) -> FeatureMatrix:
    """Scale each row to unit L2 norm; zero rows stay zero.

    Raw co-participation counts grow with corpus density and would
    dwarf the identity one-hots inside a scorer, so the training
    pipeline feeds them through this; tf-idf item rows are scaled here too.

    The arithmetic is a sparse library's: the squares that are not 0 are
    summed per row by ``np.add.reduceat``, each value is multiplied by
    its row's reciprocal norm, and products of 0 are dropped.  An in-order
    sum such as ``np.bincount`` would not do: ``reduceat`` groups the
    additions differently, so the last bits of a norm would change.  A
    row whose norm is infinite has reciprocal 0 and stores nothing, an
    infinite value included, as a product with a zero diagonal would.
    """
    m = feats.matrix
    squares = m.data * m.data
    nonzero = squares != 0.0
    ptr = np.concatenate(([0], np.cumsum(nonzero)))[m.indptr]
    filled = np.flatnonzero(np.diff(ptr))
    norms = np.zeros(m.shape[0])
    norms[filled] = np.add.reduceat(squares[nonzero], ptr[filled])
    norms = np.sqrt(norms)
    norms[norms == 0.0] = 1.0
    scale = (1.0 / norms)[m.row_ids()]
    scaled = scale * m.data
    kept = (scale != 0.0) & (scaled != 0.0)
    indptr = np.concatenate(([0], np.cumsum(kept)))[m.indptr]
    return FeatureMatrix(CSR(indptr, m.indices[kept], scaled[kept], m.shape))


def tfidf_item_features(tags: dict, catalog) -> FeatureMatrix:
    """TF-IDF rows over description tags, scaled per item by ``l2_normalize_rows``.

    tf is the raw count of a tag on the item; idf(t) uses add-one
    smoothing, ln((1 + |V|) / (1 + df(t))) + 1.  Items without tags get
    zero rows.  ``tags`` maps raw item ids to tag lists; unknown items
    are ignored.
    """
    index = catalog.item_index
    pairs = [(index[raw_id], t) for raw_id, tag_list in tags.items() if raw_id in index for t in tag_list]
    vocab = {t: j for j, t in enumerate(sorted({t for _, t in pairs}))}
    rows, cols = [v for v, _ in pairs], [vocab[t] for _, t in pairs]
    tf = CSR.from_coo(rows, cols, np.ones(len(pairs)), (catalog.n_items, len(vocab)))
    idf = np.log((1.0 + catalog.n_items) / (1.0 + np.bincount(tf.indices, minlength=len(vocab)))) + 1.0
    return l2_normalize_rows(FeatureMatrix(CSR(tf.indptr, tf.indices, tf.data * idf[tf.indices], tf.shape)))


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
    id_onehots: bool = True

    @property
    def user_id_offset(self) -> int:
        return 0

    @property
    def item_id_offset(self) -> int:
        return self.n_users if self.id_onehots else 0

    @property
    def user_feat_offset(self) -> int:
        return self.item_id_offset + (self.n_items if self.id_onehots else 0)

    @property
    def item_feat_offset(self) -> int:
        return self.user_feat_offset + self.d_user

    @property
    def activity_offset(self) -> int:
        return self.item_feat_offset + self.d_item

    @property
    def dim(self) -> int:
        return self.activity_offset + self.n_activities

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
            id_onehots=id_onehots,
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
    one_hot = layout.user_id_offset + u if layout.id_onehots else None
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
    one_hot = layout.item_id_offset + v if layout.id_onehots and not cold else None
    return _entity_part(v, one_hot, layout.item_feat_offset, item_feats)


def activity_part(z: int, layout: FeatureLayout) -> tuple[np.ndarray, np.ndarray]:
    if layout.n_activities == 0:
        raise ValueError("layout has no activity block")
    if not (0 <= z < layout.n_activities):
        raise ValueError(f"activity id {z} outside [0, {layout.n_activities})")
    return np.array([layout.activity_offset + z], dtype=np.int64), np.array([1.0])


def padded_rows(feats: FeatureMatrix, rows: np.ndarray, one_hot: int | None, feat_offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Part-table rows of the entities ``rows``, as one padded (indices, values) pair
    as wide as its widest row.

    Row r holds entity ``rows[r]``'s one-hot ``one_hot + rows[r]`` at value 1
    (None: no one-hot), then its feature entries at ``feat_offset + column``,
    then padding: index 0 with value 0, which adds nothing to a part's base
    or factor sum.  Stored values are never 0, so a row's nonzero entries
    are its part.
    """
    m = feats.matrix
    lead = one_hot is not None
    lengths = np.diff(m.indptr)[rows]
    width = max(1, int(lengths.max(initial=0)) + lead)
    indices = np.zeros((rows.size, width), dtype=np.int64)
    values = np.zeros((rows.size, width))
    if lead:
        indices[:, 0] = one_hot + rows
        values[:, 0] = 1.0
    # row-major order of the filled slots is the rows' entries in turn
    filled = np.arange(lead, width) < (lead + lengths)[:, None]
    entry = np.arange(lengths.sum()) + np.repeat(m.indptr[rows] - (np.cumsum(lengths) - lengths), lengths)
    indices[:, lead:][filled] = feat_offset + m.indices[entry]
    values[:, lead:][filled] = m.data[entry]
    return indices, values


def part_tables(layout: FeatureLayout, user_feats: FeatureMatrix, item_feats: FeatureMatrix):
    """The padded (user, item, activity) part tables of ``layout``: row i of
    each holds the entries of entity i, as ``user_part``, ``item_part`` and
    ``activity_part`` give them, and every item keeps its one-hot."""
    user_oh = layout.user_id_offset if layout.id_onehots else None
    item_oh = layout.item_id_offset if layout.id_onehots else None
    return (
        padded_rows(user_feats, np.arange(layout.n_users), user_oh, layout.user_feat_offset),
        padded_rows(item_feats, np.arange(layout.n_items), item_oh, layout.item_feat_offset),
        padded_rows(empty_features(layout.n_activities), np.arange(layout.n_activities), layout.activity_offset, 0),
    )


def join_tables(*selections: tuple[tuple[np.ndarray, np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Join rows of padded tables of disjoint blocks: for (table, rows)
    selections of equal length, row r holds each table's row rows[r], in
    selection order, with all padding at the row's end."""
    idx = np.hstack([table[0][rows] for table, rows in selections])
    val = np.hstack([table[1][rows] for table, rows in selections])
    order = np.argsort(val == 0.0, axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(val, order, axis=1)


def _merge_parts(parts, dim: int) -> SparseVector:
    """One sorted vector from (indices, values) parts of disjoint blocks."""
    idx, val = np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
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
