"""Command-line entry point.

Subcommands cover the whole pipeline: ``ingest`` normalizes a raw
interaction log, ``train`` fits the two-stage model, ``recommend``
emits ranked pairs from a saved model, ``evaluate`` runs the
repeated-split comparison, and ``synth`` writes a synthetic corpus.

Exit codes: 0 on success, 2 for usage, data, or configuration errors,
3 when training diverges numerically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from keenact import __version__
from keenact.data import (
    DatasetError,
    filter_active_users,
    ingest,
    split_per_user,
    write_interaction_log,
    write_split_manifest,
)
from keenact.evaluation import DEFAULT_KS, VARIANTS, run_experiment
from keenact.features import (
    co_participation_features,
    empty_features,
    l2_normalize_rows,
    read_tag_file,
    tfidf_item_features,
)
from keenact.recommend import write_recommendations
from keenact.snapshot import load_model, save_model
from keenact.synth import generate_two_stage
from keenact.training import (
    ConfigError,
    NumericalError,
    TrainConfig,
    parse_config,
    train,
    write_training_report,
)

# `recommend` no longer runs here; the traced benchmark (perfbench/layers.py)
# still wraps it on this module, so it stays importable from it.
from keenact.recommend import recommend  # noqa: F401

logger = logging.getLogger("keenact.cli")


# -- run manifests ------------------------------------------------------------


def _sha256(path) -> str:
    # imported here, its only use: loading it maps OpenSSL, which ingest never needs
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, config: TrainConfig, inputs: dict, artifacts: list) -> None:
    """Record config, master seed, and input digests for a training run."""
    payload = {
        "tool": "keenact",
        "tool_version": __version__,
        "seed": config.seed,
        "config": config.to_dict(),
        "inputs": {
            label: {"path": os.path.abspath(p), "sha256": _sha256(p)} for label, p in inputs.items()
        },
        "artifacts": [str(a) for a in artifacts],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def stale_inputs(manifest_path) -> list[str]:
    """Labels of recorded inputs whose content changed or disappeared; a
    manifest whose inputs are not {label: {"path", "sha256"}} is a ValueError."""
    with open(manifest_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    inputs = payload.get("inputs", {}) if isinstance(payload, dict) else None
    if not isinstance(inputs, dict):
        raise ValueError("manifest inputs are not an object")
    stale = []
    for label, entry in inputs.items():
        # a path that is not a string could name an open file descriptor
        if not (isinstance(entry, dict) and isinstance(entry.get("path"), str) and isinstance(entry.get("sha256"), str)):
            raise ValueError(f"manifest input {label!r} is not a path and a sha256 string")
        try:
            fresh = _sha256(entry["path"])
        except OSError:
            stale.append(label)
            continue
        if fresh != entry["sha256"]:
            stale.append(label)
    return stale


def _warn_if_stale(model_path) -> None:
    manifest = os.path.join(os.path.dirname(os.path.abspath(model_path)), "manifest.json")
    if not os.path.exists(manifest):
        return
    try:
        stale = stale_inputs(manifest)
    except (OSError, ValueError, RecursionError):
        logger.warning("could not verify run manifest %s", manifest)
        return
    if stale:
        logger.warning("model may be stale: inputs changed since training: %s", ", ".join(stale))


# -- shared helpers -----------------------------------------------------------


def _load_store(args):
    """(catalog, store after --min-activities, duplicate rows ingest dropped)."""
    min_acts = args.min_activities
    if min_acts < 1:
        raise ConfigError("min_activities", f"--min-activities must be >= 1, got {min_acts}")
    activities = tuple(args.activities.split(",")) if args.activities else None
    catalog, store = ingest(args.log, activities)
    duplicates = store.n_duplicates
    if min_acts > 1:
        store = filter_active_users(store, min_acts)
        catalog = store.catalog
    return catalog, store, duplicates


def _load_config(args) -> TrainConfig:
    config = parse_config(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _item_features(args, catalog):
    if args.tags:
        return tfidf_item_features(read_tag_file(args.tags), catalog)
    return empty_features(catalog.n_items)


def _adoption_band(args) -> tuple[int, int]:
    raw = args.items_per_user
    if raw:
        try:
            lo, hi = (int(t) for t in raw.split(","))
        except ValueError:
            raise ConfigError("items_per_user", f"expected LO,HI integers, got {raw!r}") from None
        return lo, hi
    # clamp the usual band so tiny corpora stay generable
    return min(10, args.items), min(30, args.items)


# -- subcommands --------------------------------------------------------------


def cmd_ingest(args) -> int:
    catalog, store, duplicates = _load_store(args)
    print(f"users: {catalog.n_users}")
    print(f"items: {catalog.n_items}")
    print(f"activities: {catalog.n_activities}")
    print(f"activity records: {store.n_triples}")
    print(f"item pairs: {store.n_pairs}")
    print(f"duplicates dropped: {duplicates}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        out_path = os.path.join(args.out, "interactions.tsv")
        write_interaction_log(store, out_path)
        print(f"wrote {out_path}")
    return 0


def cmd_train(args) -> int:
    catalog, store, _ = _load_store(args)
    config = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    train_store = store
    if args.split is not None:
        if not 0 < args.split < 1:
            raise ConfigError("split", "--split must be a fraction in (0, 1)")
        # the split evaluate draws first for this seed and fraction
        split = split_per_user(store, fraction=args.split, seed=config.seed)
        write_split_manifest(split, args.out)
        train_store = split.train
        print(f"split: {split.train.n_triples} train / {split.test.n_triples} test records")
    user_feats = l2_normalize_rows(co_participation_features(train_store))
    item_feats = _item_features(args, catalog)
    model = train(train_store, user_feats, item_feats, config)
    model_path = os.path.join(args.out, "model.json")
    report_path = os.path.join(args.out, "report.tsv")
    save_model(model, model_path)
    write_training_report(model.report, report_path)
    inputs = {"log": args.log}
    if args.config:
        inputs["config"] = args.config
    if args.tags:
        inputs["tags"] = args.tags
    write_manifest(os.path.join(args.out, "manifest.json"), config, inputs, [model_path, report_path])
    last = {}
    for epoch, phase, metric, value in model.report:
        last[(phase, metric)] = value
    for (phase, metric), value in sorted(last.items()):
        print(f"final {phase} {metric}: {value:.6f}")
    print(f"wrote {model_path}")
    return 0


def cmd_recommend(args) -> int:
    model = load_model(args.model)
    _warn_if_stale(args.model)
    catalog = model.catalog
    if args.all_users:
        users = list(range(catalog.n_users))
    else:
        if not args.user:
            raise ConfigError("user", "pass --user at least once or --all-users")
        users = []
        for raw in args.user:
            idx = catalog.user_index.get(raw)
            if idx is None:
                logger.warning("unknown user id %r, skipping", raw)
                continue
            users.append(idx)
        if not users:
            raise DatasetError("none of the requested user ids are in the model catalog")
    # checked before --out is opened, so a usage error leaves the file as it was
    if args.k is not None and args.k < 1:
        raise ConfigError("k", f"--k must be >= 1, got {args.k}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            empty = write_recommendations(model, users, fh, args.k)
        print(f"wrote {args.out}")
    else:
        empty = write_recommendations(model, users, sys.stdout, args.k)
    for u in empty:
        logger.warning("user %s: no pair clears the thresholds", catalog.users[u])
    return 0


def _parse_ks(text: str):
    ks = []
    for token in text.split(","):
        token = token.strip().lower()
        if token in ("inf", "none", "all"):
            ks.append(None)
        else:
            k = int(token)
            if k < 1:
                raise ConfigError("ks", f"cutoff must be >= 1, got {k}")
            ks.append(k)
    return tuple(ks)


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    catalog, store, _ = _load_store(args)
    dataset = args.dataset or os.path.splitext(os.path.basename(args.log))[0]
    item_feats = _item_features(args, catalog) if args.tags else None
    variants = tuple(v.strip() for v in args.variants.split(",")) if args.variants else VARIANTS
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError("variants", f"unknown variant {v!r} (choose from {', '.join(VARIANTS)})")
    ks = _parse_ks(args.ks) if args.ks else DEFAULT_KS
    report = run_experiment(
        store,
        config,
        n_splits=args.splits,
        variants=variants,
        ks=ks,
        dataset=dataset,
        fraction=args.fraction,
        item_feats=item_feats,
    )
    table = report.table()
    print(table)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        tsv_path = os.path.join(args.out, "eval.tsv")
        report.write_tsv(tsv_path)
        with open(os.path.join(args.out, "table.txt"), "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        print(f"wrote {tsv_path}")
    return 0


def cmd_synth(args) -> int:
    catalog, store = generate_two_stage(
        n_users=args.users,
        n_items=args.items,
        n_activities=args.n_activities,
        seed=args.seed,
        items_per_user=_adoption_band(args),
    )
    write_interaction_log(store, args.out)
    print(f"wrote {store.n_triples} records for {catalog.n_users} users to {args.out}")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="keenact", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"keenact {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize a raw interaction log")
    p.add_argument("--log", required=True, help="tab-separated user/item/activity/timestamp log")
    p.add_argument("--out", help="directory for the canonical log")
    p.add_argument("--activities", help="comma-separated declared activity vocabulary")
    p.add_argument("--min-activities", type=int, default=1, help="drop users with fewer records")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="fit the two-stage model")
    p.add_argument("--log", required=True)
    p.add_argument("--config", help="flat key = value hyperparameter file")
    p.add_argument("--out", required=True, help="directory for model, report, and manifest")
    p.add_argument("--tags", help="item tag file for tf-idf item features")
    p.add_argument("--activities", help="comma-separated declared activity vocabulary")
    p.add_argument("--min-activities", type=int, default=1)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--split", type=float, help="train fraction per user; hold out the rest")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("recommend", help="emit ranked pairs from a saved model")
    p.add_argument("--model", required=True, help="model snapshot from train")
    p.add_argument("--user", action="append", help="raw user id (repeatable)")
    p.add_argument("--all-users", action="store_true")
    p.add_argument("--k", type=int, help="truncate each user's list")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("evaluate", help="repeated-split comparison of the variants")
    p.add_argument("--log", required=True)
    p.add_argument("--config")
    p.add_argument("--out", help="directory for eval records and the table")
    p.add_argument("--variants", help=f"comma-separated subset of: {', '.join(VARIANTS)}")
    p.add_argument("--splits", type=int, default=5)
    p.add_argument("--ks", help="comma-separated cutoffs, e.g. 5,10,inf")
    p.add_argument("--fraction", type=float, default=0.8, help="train fraction per split")
    p.add_argument("--tags")
    p.add_argument("--activities")
    p.add_argument("--min-activities", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.add_argument("--dataset", help="dataset label in the records")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="write a synthetic two-stage corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--users", type=int, default=200)
    p.add_argument("--items", type=int, default=500)
    p.add_argument("--n-activities", type=int, default=2)
    p.add_argument("--items-per-user", help="LO,HI adoption band per user")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
