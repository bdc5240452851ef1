"""Which keenact functions the traced run times, and the per-layer metrics.

Span names are ``<module>.<what>``; the module prefix is the keenact
module that owns the code, so self times can be summed per module.  The
root span of a traced command is ``cli.<command>``; its self time is the
part of the command no layer span covers (``cli.other_s``).
"""

from __future__ import annotations

import os

import numpy as np

from keenact import cli, data, evaluation, scoring, training

MODULES = ("data", "features", "training", "scoring", "fm", "recommend", "snapshot", "evaluation")
VARIANTS = evaluation.VARIANTS
TRAINED_VARIANTS = ("keen2act", "fm_bpr", "fm_warp")


def _count_rows(rec, _dur, result, *args, **kwargs):
    _catalog, store = result
    rec.counters["data.ingest_rows"] += store.n_triples + store.n_duplicates


def _feat_nnz(rec, _dur, result, *args, **kwargs):
    rec.counters["features.user_feat_nnz"] = result.matrix.nnz


def _warp_counts(stage):
    def hook(rec, _dur, result, *args, **kwargs):
        rec.counters[f"training.{stage}_draws"] += result.draws
        rec.counters[f"training.{stage}_updates"] += int(result.updated)

    return hook


def _snapshot_bytes(rec, _dur, _result, _model, path):
    rec.counters["snapshot.bytes"] = os.path.getsize(path)


def _recommend_name(_model, _u, k=None):
    return "recommend.full" if k is None else f"recommend.top{k}"


def _recommend_sample(rec, dur, result, _model, _u, k=None):
    rec.samples[_recommend_name(_model, _u, k)].append(dur)
    if k is None:
        rec.counters["recommend.full_pairs"] += len(result.entries)


def _baseline_train_name(*args, **kwargs):
    kind = kwargs["kind"] if "kind" in kwargs else args[4]
    return f"evaluation.fm_{kind}.train"


def instrument(rec) -> None:
    """Install every wrapper on ``rec``; undo with ``rec.uninstall()``."""
    E = evaluation
    for owner, attr, name, hook in [
        (cli, "ingest", "data.ingest", _count_rows),
        (cli, "filter_active_users", "data.filter_active_users", None),
        (cli, "write_interaction_log", "data.write_log", None),
        (data, "write_interaction_log", "data.write_log", None),
        (cli, "split_per_user", "data.split", None),
        (E, "split_per_user", "data.split", None),
        (cli, "write_split_manifest", "data.write_split", None),
        (cli, "co_participation_features", "features.co_participation", _feat_nnz),
        (E, "co_participation_features", "features.co_participation", _feat_nnz),
        (cli, "l2_normalize_rows", "features.normalize", None),
        (E, "l2_normalize_rows", "features.normalize", None),
        (training, "assemble_keen_input", "features.assemble", None),
        (training, "assemble_act_input", "features.assemble", None),
        (E, "assemble_act_input", "features.assemble", None),
        (cli, "train", "training.train", None),
        (training.Trainer, "warp_step_keen", "training.keen_rank", _warp_counts("keen")),
        (training.Trainer, "warp_step_act", "training.act_rank", _warp_counts("act")),
        (training.Trainer, "learn_thresholds_keen", "training.keen_threshold", None),
        (training.Trainer, "learn_thresholds_act", "training.act_threshold", None),
        (cli, "write_training_report", "training.write_report", None),
        (training, "part_stats", "scoring.part_stats", None),
        (E, "part_stats", "scoring.part_stats", None),
        (scoring.Scorer, "__init__", "scoring.scorer_build", None),
        (scoring.Scorer, "score_items", "scoring.score", None),
        (scoring.Scorer, "score_activities", "scoring.score", None),
        (scoring.Scorer, "score_pair_matrix", "scoring.score", None),
        (training, "fm_gradient", "fm.gradient", None),
        (E, "fm_gradient", "fm.gradient", None),
        (training, "combine_gradients", "fm.combine", None),
        (E, "combine_gradients", "fm.combine", None),
        (training, "adam_update", "fm.adam", None),
        (E, "adam_update", "fm.adam", None),
        (cli, "recommend", _recommend_name, _recommend_sample),
        (E, "recommend", _recommend_name, _recommend_sample),
        (E, "select_items", "recommend.select_items", None),
        (cli, "write_recommendations", "recommend.write", None),
        (cli, "save_model", "snapshot.save", _snapshot_bytes),
        (cli, "load_model", "snapshot.load", None),
        (cli, "run_experiment", "evaluation.run_experiment", None),
        (E, "train", "evaluation.keen2act.train", None),
        (E, "train_baseline", _baseline_train_name, None),
        (E, "rank_keen2act", "evaluation.keen2act.rank", None),
        (E, "rank_keen_only", "evaluation.keen.rank", None),
        (E, "rank_act_only", "evaluation.act.rank", None),
        (E, "rank_baseline", lambda b, *a, **k: f"evaluation.fm_{b.kind}.rank", None),
        (E, "map_at_k", "evaluation.map", None),
    ]:
        rec.install(owner, attr, name, hook)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct_ms(samples, q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3 if samples else 0.0


def latency_metrics(samples) -> dict[str, float]:
    """Median and p99 per-user ``recommend`` latency from call durations."""
    m = {}
    for kind in ("top10", "full"):
        m[f"recommend.{kind}_p50_ms"] = _pct_ms(samples.get(f"recommend.{kind}", []), 50)
        m[f"recommend.{kind}_p99_ms"] = _pct_ms(samples.get(f"recommend.{kind}", []), 99)
    return m


def layer_metrics(rec, root: str) -> dict[str, float]:
    """Per-layer values of one traced command whose root span is ``root``."""
    spans = rec.totals()
    c = rec.counters

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    m: dict[str, float] = {
        "data.ingest_s": total("data.ingest"),
        "data.ingest_rows_per_s": _ratio(c["data.ingest_rows"], total("data.ingest")),
        "data.filter_active_users_s": total("data.filter_active_users"),
        "data.write_log_s": total("data.write_log"),
        "data.split_s": total("data.split"),
        "data.write_split_s": total("data.write_split"),
        "features.co_participation_s": total("features.co_participation"),
        "features.normalize_s": total("features.normalize"),
        "features.assemble_s": total("features.assemble"),
        "features.user_feat_nnz": c["features.user_feat_nnz"],
    }
    for stage in ("keen", "act"):
        steps = calls(f"training.{stage}_rank")
        rank_s = total(f"training.{stage}_rank")
        m[f"training.{stage}_rank_s"] = rank_s
        m[f"training.{stage}_steps_per_s"] = _ratio(steps, rank_s)
        m[f"training.{stage}_mean_draws"] = _ratio(c[f"training.{stage}_draws"], steps)
        m[f"training.{stage}_violation_rate"] = _ratio(c[f"training.{stage}_updates"], steps)
        m[f"training.{stage}_threshold_s"] = total(f"training.{stage}_threshold")
    m["scoring.part_stats_calls"] = calls("scoring.part_stats")
    m["scoring.part_stats_s"] = total("scoring.part_stats")
    m["scoring.scorer_builds"] = calls("scoring.scorer_build")
    m["scoring.scorer_build_s"] = total("scoring.scorer_build")
    m["scoring.score_calls"] = calls("scoring.score")
    m["scoring.score_s"] = total("scoring.score")
    m["fm.updates"] = calls("fm.adam")
    m["fm.update_s"] = total("fm.gradient") + total("fm.combine") + total("fm.adam")
    m.update(latency_metrics(rec.samples))
    m["recommend.pairs_per_user"] = _ratio(c["recommend.full_pairs"], len(rec.samples["recommend.full"]))
    m["recommend.write_s"] = total("recommend.write")
    m["snapshot.save_s"] = total("snapshot.save")
    m["snapshot.bytes"] = c["snapshot.bytes"]
    m["snapshot.load_s"] = total("snapshot.load")
    for variant in VARIANTS:
        m[f"evaluation.{variant}.rank_s"] = total(f"evaluation.{variant}.rank")
    for variant in TRAINED_VARIANTS:
        m[f"evaluation.{variant}.train_s"] = total(f"evaluation.{variant}.train")
    for module in MODULES:
        m[f"{module}.self_s"] = sum(
            v["self_s"] for name, v in spans.items() if name.startswith(module + ".")
        )
    m["cli.other_s"] = spans[root]["self_s"]
    m["trace.command_s"] = spans[root]["total_s"]
    m["trace.spans"] = len(rec.start)
    return {k: float(v) for k, v in m.items()}
