"""The benchmark's workloads: generated inputs, the timed command, output checks.

Each workload runs one real ``keenact`` command in-process through
``keenact.cli.main``.  ``setup`` writes the inputs for a seed (the
program sees only these files), ``argv`` is the timed command,
``check_rep`` validates one run's output and ``check_run`` makes the
slower checks once per benchmark run.  Check helpers return a list of
error strings; an empty list means the output is correct.

Sizes keep one repetition at a few seconds or less on a 2-core x86-64
machine, so that an 18 s run holds enough repetitions for a steady mean;
``smoke`` shrinks every corpus so that all workloads finish in seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from pathlib import Path

import numpy as np

from keenact import cli
from keenact.data import ingest, write_interaction_log
from keenact.evaluation import VARIANTS, FlatPairSpace, map_at_k, rank_keen2act
from keenact.features import co_participation_features
from keenact.recommend import Recommendation, RecommendationList, decide, recommend
from keenact.snapshot import load_model
from keenact.synth import generate_two_stage


def run_cli(argv) -> tuple[int, str]:
    """``keenact <argv>`` in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def corpus_counts(log) -> dict:
    """Counts of a canonical log, for the run record."""
    catalog, store = ingest(log)
    return {
        "users": catalog.n_users,
        "items": catalog.n_items,
        "activities": catalog.n_activities,
        "triples": store.n_triples,
        "pairs": store.n_pairs,
        "duplicate_rows": store.n_duplicates,
        "user_feat_nnz": int(co_participation_features(store).matrix.nnz),
    }


def _synth(d: Path, users: int, items: int, seed: int) -> Path:
    # a fixed adoption target per user keeps the corpus size, and with it
    # the command's time, nearly the same from seed to seed
    d.mkdir(parents=True, exist_ok=True)
    log = d / "log.tsv"
    rc, _ = run_cli(["synth", "--out", log, "--users", users, "--items", items, "--items-per-user", "20,20", "--seed", seed])
    if rc != 0:
        raise RuntimeError(f"keenact synth exited with {rc}")
    return log


def _config(d: Path, epochs: int) -> Path:
    path = d / "config.txt"
    path.write_text(f"epochs = {epochs}\n", encoding="utf-8")
    return path


def _read_raw_triples(path, catalog) -> list[tuple[int, int, int]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            user, item, activity = line.rstrip("\n").split("\t")[:3]
            out.append((catalog.user_index[user], catalog.item_index[item], catalog.activity_index[activity]))
    return out


def heldout_map10(model, out: Path) -> float:
    """MAP@10 of the two-stage list against the ``train --split`` test half."""
    catalog = model.catalog
    space = FlatPairSpace(catalog.n_items, catalog.n_activities)
    relevant: dict[int, set] = {}
    for u, v, z in _read_raw_triples(out / "test.tsv", catalog):
        relevant.setdefault(u, set()).add(space.flatten(v, z))
    exclude: dict[int, set] = {}
    for u, v, z in _read_raw_triples(out / "train.tsv", catalog):
        exclude.setdefault(u, set()).add(space.flatten(v, z))
    ranked = {u: rank_keen2act(model, space, u, frozenset(exclude.get(u, ()))) for u in relevant}
    return map_at_k(ranked, {u: frozenset(s) for u, s in relevant.items()}, 10)


class Workload:
    name = ""
    default_seed = 0
    #: (users, items) of the synthetic corpus, normal and smoke
    sizes = {False: (40, 250), True: (20, 40)}

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.users, self.items = self.sizes[smoke]

    def setup(self, d: Path, seed: int) -> dict:
        raise NotImplementedError

    def argv(self, ctx: dict, out: Path) -> list:
        raise NotImplementedError

    def check_rep(self, ctx: dict, out: Path, stdout: str) -> list[str]:
        return []

    def check_run(self, ctx: dict, out: Path) -> list[str]:
        return []

    def quality(self, ctx: dict, out: Path) -> dict[str, float]:
        """Held-out MAP@10 per ranking, for the traced run; 0 where not measured."""
        values = {f"evaluation.{variant}.map10": 0.0 for variant in VARIANTS}
        values["quality.map10_keen2act"] = 0.0
        return values

    def _first(self, ctx: dict, key: str, value) -> list[str]:
        """Record ``value`` on the first repetition; later ones must match it."""
        first = ctx.setdefault("first", {}).setdefault(key, value)
        return [] if first == value else [f"{key} differs from the first repetition"]


class Fit(Workload):
    """``train --split 0.8`` with the default config: late-epoch WARP sampling."""

    name = "fit"
    sizes = {False: (30, 250), True: (20, 40)}

    def setup(self, d, seed):
        ctx = {"seed": seed, "log": _synth(d, self.users, self.items, seed)}
        if self.smoke:
            ctx["config"] = _config(d, 2)
        return ctx

    def argv(self, ctx, out):
        argv = ["train", "--log", ctx["log"], "--out", out, "--split", "0.8", "--seed", ctx["seed"]]
        return argv + (["--config", ctx["config"]] if "config" in ctx else [])

    def check_rep(self, ctx, out, stdout):
        model = load_model(out / "model.json")
        t = model.thresholds
        finite = (
            model.keen.all_finite()
            and model.act.all_finite()
            and np.isfinite(t.item_thresholds).all()
            and np.isfinite(t.activity_thresholds).all()
            and math.isfinite(t.global_item_fallback)
        )
        errors = [] if finite else ["model.json holds a non-finite parameter"]
        digests = {"model.json": sha256(out / "model.json"), "report.tsv": sha256(out / "report.tsv")}
        return errors + self._first(ctx, "digests", digests)

    def quality(self, ctx, out):
        values = super().quality(ctx, out)
        values["quality.map10_keen2act"] = heldout_map10(load_model(out / "model.json"), out)
        return values


class Evaluate(Workload):
    """``evaluate`` over all five variants with 2 epochs: early-epoch WARP and ranking."""

    name = "evaluate"

    def setup(self, d, seed):
        return {"seed": seed, "log": _synth(d, self.users, self.items, seed), "config": _config(d, 2)}

    def argv(self, ctx, out):
        return [
            "evaluate", "--log", ctx["log"], "--config", ctx["config"], "--splits", "1",
            "--ks", "10,inf", "--seed", ctx["seed"], "--out", out,
        ]

    @staticmethod
    def map_values(out: Path) -> dict[tuple[str, str], float]:
        values = {}
        with open(out / "eval.tsv", encoding="utf-8") as fh:
            for line in fh:
                _, variant, metric, split, value = line.rstrip("\n").split("\t")
                if metric.startswith("map@") and split == "mean":
                    values[(variant, metric)] = float(value)
        return values

    def check_rep(self, ctx, out, stdout):
        values = self.map_values(out)
        errors = [
            f"eval.tsv lacks {variant} {metric}"
            for variant in VARIANTS
            for metric in ("map@10", "map@inf")
            if (variant, metric) not in values
        ]
        errors += [f"{key} = {v} is outside [0, 1]" for key, v in values.items() if not 0.0 <= v <= 1.0]
        return errors + self._first(ctx, "map values", sorted(values.items()))

    def quality(self, ctx, out):
        values = super().quality(ctx, out)
        for (variant, metric), value in self.map_values(out).items():
            if metric == "map@10":
                values[f"evaluation.{variant}.map10"] = value
        values["quality.map10_keen2act"] = values["evaluation.keen2act.map10"]
        return values


class Serve(Workload):
    """``recommend --all-users`` from a snapshot trained in set-up (2 epochs)."""

    sizes = {False: (60, 500), True: (20, 40)}
    k: int | None = None

    def setup(self, d, seed):
        log = _synth(d, self.users, self.items, seed)
        rc, _ = run_cli(["train", "--log", log, "--config", _config(d, 2), "--out", d / "model", "--seed", seed])
        if rc != 0:
            raise RuntimeError(f"keenact train exited with {rc}")
        model_path = d / "model" / "model.json"
        return {
            "seed": seed,
            "log": log,
            "model_path": model_path,
            "snapshot_sha256": sha256(model_path),
        }

    def argv(self, ctx, out):
        argv = ["recommend", "--model", ctx["model_path"], "--all-users", "--out", out / "recs.tsv"]
        return argv + (["--k", self.k] if self.k is not None else [])

    def check_rep(self, ctx, out, stdout):
        return self._first(ctx, "recs.tsv", sha256(out / "recs.tsv"))

    def check_run(self, ctx, out):
        model = load_model(ctx["model_path"])
        catalog = model.catalog
        lists: dict[int, list[Recommendation]] = {}
        errors = []
        with open(out / "recs.tsv", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    user, item, activity, keen, act, rank = line.rstrip("\n").split("\t")
                    u = catalog.user_index[user]
                    entry = Recommendation(
                        catalog.item_index[item], catalog.activity_index[activity], float(keen), float(act)
                    )
                    rank = int(rank)
                except (ValueError, KeyError) as exc:
                    return [f"recs.tsv line {lineno} does not parse: {exc!r}"]
                entries = lists.setdefault(u, [])
                entries.append(entry)
                if rank != len(entries):
                    errors.append(f"recs.tsv line {lineno}: rank {rank}, expected {len(entries)}")
        for u, entries in lists.items():
            if not RecommendationList(u, entries).is_ordered():
                errors.append(f"user {catalog.users[u]}: list is not ordered")
            if self.k is not None and len(entries) > self.k:
                errors.append(f"user {catalog.users[u]}: {len(entries)} entries with --k {self.k}")
        # recommend == decide on a seeded sample of users
        for u in random.Random(ctx["seed"]).sample(range(catalog.n_users), min(3, catalog.n_users)):
            listed = [(e.item, e.activity) for e in lists.get(u, [])]
            expected = recommend(model, u, k=self.k)
            if listed != [(e.item, e.activity) for e in expected.entries]:
                errors.append(f"user {catalog.users[u]}: output differs from recommend()")
            accepted = {
                (v, z)
                for v in range(catalog.n_items)
                for z in range(catalog.n_activities)
                if decide(model, u, v, z)
            }
            if (self.k is None and set(listed) != accepted) or not set(listed) <= accepted:
                errors.append(f"user {catalog.users[u]}: listed pairs differ from decide()")
        return errors


class ServeTop10(Serve):
    """Top-10 leaves the per-item loop early: the bypass case for batched scoring."""

    name = "serve-top10"
    k = 10


class ServeFull(Serve):
    """The full list walks every selected item: the case batched scoring targets."""

    name = "serve-full"


class Corpus(Workload):
    """``ingest --min-activities 10`` on a raw log with duplicates, shuffled."""

    name = "corpus"
    default_seed = 1
    sizes = {False: (700, 1500), True: (60, 100)}

    def setup(self, d, seed):
        d.mkdir(parents=True, exist_ok=True)
        _, store = generate_two_stage(self.users, self.items, 3, seed=seed, items_per_user=(5, 60))
        canonical = d / "canonical.tsv"
        write_interaction_log(store, canonical)
        rows = canonical.read_text(encoding="utf-8").splitlines(keepends=True)
        rng = random.Random(seed)
        rows += rng.sample(rows, len(rows) // 10)
        rng.shuffle(rows)
        raw = d / "raw.tsv"
        raw.write_text("".join(rows), encoding="utf-8")
        return {"seed": seed, "log": raw}

    def argv(self, ctx, out):
        return ["ingest", "--log", ctx["log"], "--min-activities", "10", "--out", out]

    @staticmethod
    def printed(stdout: str, label: str) -> int:
        for line in stdout.splitlines():
            if line.startswith(label + ": "):
                return int(line.split(": ", 1)[1])
        raise ValueError(f"ingest printed no {label!r} line")

    def check_rep(self, ctx, out, stdout):
        # ``duplicates dropped`` is not checked: with --min-activities the
        # command prints the count of the filtered store, which is always 0
        ctx["records"] = self.printed(stdout, "activity records")
        ctx["users"] = self.printed(stdout, "users")
        return self._first(ctx, "interactions.tsv", sha256(out / "interactions.tsv"))

    def check_run(self, ctx, out):
        catalog, store = ingest(out / "interactions.tsv")
        errors = []
        if store.n_triples != ctx["records"]:
            errors.append(f"written log re-ingests to {store.n_triples} records, printed {ctx['records']}")
        if catalog.n_users != ctx["users"]:
            errors.append(f"written log re-ingests to {catalog.n_users} users, printed {ctx['users']}")
        return errors


WORKLOADS = {w.name: w for w in (Fit, Evaluate, ServeTop10, ServeFull, Corpus)}
