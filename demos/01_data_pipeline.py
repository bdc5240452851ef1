"""From a raw activity log to training-ready structures.

Walks the ingestion path end to end: parse a messy TSV, deduplicate,
filter inactive users, split per user, and build the sparse feature
matrices the scorers consume.
"""

import tempfile
from pathlib import Path

from keenact.data import filter_active_users, ingest, split_per_user
from keenact.features import co_participation_features, l2_normalize_rows, read_tag_file, tfidf_item_features

with tempfile.TemporaryDirectory(prefix="keenact-demo-") as tmp:
    workdir = Path(tmp)

    # A raw log: one row per (user, item, activity, timestamp) event, with
    # no header line. Note the duplicate row and the blank line; both are
    # tolerated.
    log = workdir / "raw.tsv"
    log.write_text(
        "ana\trepo-a\tfork\t1700000001\n"
        "ana\trepo-a\twatch\t1700000002\n"
        "ana\trepo-b\twatch\t1700000003\n"
        "ana\trepo-a\tfork\t1700000009\n"
        "\n"
        "ben\trepo-a\twatch\t1700000004\n"
        "ben\trepo-c\tfork\t1700000005\n"
        "cyd\trepo-b\twatch\t1700000006\n",
        encoding="utf-8",
    )

    catalog, store = ingest(log)
    print("users:", list(catalog.users))
    print("items:", list(catalog.items))
    print("activities:", list(catalog.activities))
    print("records kept:", store.n_triples, "| duplicates dropped:", store.n_duplicates)

    # The store is sorted integer-id columns: (user, item, activity) per
    # triple and (user, item) per distinct pair. The catalog maps the ids
    # back to the raw strings.
    u = catalog.user_index["ana"]
    pair_users, pair_items = store.pair_columns
    print("ana's items:", [catalog.items[v] for v in pair_items[pair_users == u].tolist()])
    v = catalog.item_index["repo-a"]
    users, items, activities = store.columns
    on_repo_a = (users == u) & (items == v)
    print("ana's activities on repo-a:", [catalog.activities[z] for z in activities[on_repo_a].tolist()])

    # Dropping users with too few events re-densifies every id space, so
    # downstream one-hot blocks stay tight.
    active = filter_active_users(store, min_activities=2)
    print("after min_activities=2:", active.catalog.n_users, "users,", active.catalog.n_items, "items")

    # The per-user split keeps a fixed fraction of each user's records for
    # training, so nobody disappears from the train half.
    split = split_per_user(store, fraction=0.5, seed=0)
    print("split:", split.train.n_triples, "train /", split.test.n_triples, "test")

    # User features: how often two users touched the same item, L2 scaled.
    user_feats = l2_normalize_rows(co_participation_features(split.train))
    print("user feature matrix:", user_feats.matrix.shape, "with", user_feats.matrix.nnz, "nonzeros")

    # Item features come from tags when you have them; tf-idf downweights
    # tags that every item carries.
    tags = workdir / "tags.tsv"
    tags.write_text("repo-a\tpython,cli\nrepo-b\tpython\nrepo-c\trust\n", encoding="utf-8")
    item_feats = tfidf_item_features(read_tag_file(tags), catalog)
    row, values = item_feats.row(catalog.item_index["repo-a"])
    print("repo-a tf-idf row: indices", [int(i) for i in row], "values", [round(float(x), 3) for x in values])
