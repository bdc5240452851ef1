"""End-to-end command flows through the argparse entry point."""

import base64
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from keenact.cli import main, stale_inputs

FAST_CONFIG = "epochs = 2\nk = 4\nthreshold_epochs = 3\nmax_neg_samples = 5\n"


@pytest.fixture()
def corpus(tmp_path):
    log = tmp_path / "log.tsv"
    code = main(["synth", "--out", str(log), "--users", "8", "--items", "12",
                 "--n-activities", "2", "--seed", "3", "--items-per-user", "2,5"])
    assert code == 0
    config = tmp_path / "fast.conf"
    config.write_text(FAST_CONFIG, encoding="utf-8")
    return log, config


def run_train(tmp_path, log, config, out="run", extra=()):
    out_dir = tmp_path / out
    code = main(["train", "--log", str(log), "--config", str(config), "--out", str(out_dir), *extra])
    assert code == 0
    return out_dir


class TestSynth:
    def test_writes_parseable_log(self, tmp_path, capsys):
        log = tmp_path / "log.tsv"
        assert main(["synth", "--out", str(log), "--users", "5", "--items", "8",
                     "--n-activities", "2", "--seed", "1", "--items-per-user", "1,3"]) == 0
        assert "wrote" in capsys.readouterr().out
        lines = log.read_text(encoding="utf-8").strip().splitlines()
        assert all(len(line.split("\t")) == 4 for line in lines[1:])

    def test_small_corpora_use_clamped_band(self, tmp_path):
        log = tmp_path / "log.tsv"
        assert main(["synth", "--out", str(log), "--users", "4", "--items", "6", "--seed", "0"]) == 0

    def test_bad_band(self, tmp_path, capsys):
        log = tmp_path / "log.tsv"
        code = main(["synth", "--out", str(log), "--items-per-user", "5"])
        assert code == 2
        assert "LO,HI" in capsys.readouterr().err


class TestIngest:
    def test_counts_on_stdout(self, corpus, capsys):
        log, _ = corpus
        assert main(["ingest", "--log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "users: 8" in out
        assert "items:" in out
        assert "activity records:" in out

    def test_canonical_output_round_trips(self, corpus, tmp_path, capsys):
        log, _ = corpus
        out_dir = tmp_path / "canon"
        assert main(["ingest", "--log", str(log), "--out", str(out_dir)]) == 0
        canonical = out_dir / "interactions.tsv"
        assert canonical.exists()
        capsys.readouterr()
        assert main(["ingest", "--log", str(canonical)]) == 0
        assert "duplicates dropped: 0" in capsys.readouterr().out

    def test_duplicates_counted_before_activity_filter(self, tmp_path, capsys):
        """--min-activities reports the duplicate rows ingest dropped, not the filtered store's."""
        rows = [
            "a\tx\tfork\t1", "a\tx\tfork\t2", "a\ty\twatch\t3", "a\tz\tfork\t4",
            "b\tx\tfork\t5", "b\tx\tfork\t6",
        ]
        log = tmp_path / "dups.tsv"
        log.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["ingest", "--log", str(log), "--min-activities", "2"]) == 0
        out = capsys.readouterr().out
        assert "users: 1" in out
        assert "activity records: 3" in out
        assert "duplicates dropped: 2" in out

    def test_empty_log(self, tmp_path, capsys):
        log = tmp_path / "empty.tsv"
        log.write_text("", encoding="utf-8")
        assert main(["ingest", "--log", str(log)]) == 2
        assert "empty dataset" in capsys.readouterr().err

    def test_missing_log(self, tmp_path, capsys):
        assert main(["ingest", "--log", str(tmp_path / "absent.tsv")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_min_activities_below_one(self, corpus, tmp_path, capsys, bad):
        log, _ = corpus
        out_dir = tmp_path / "canon"
        assert main(["ingest", "--log", str(log), "--min-activities", bad, "--out", str(out_dir)]) == 2
        assert "--min-activities" in capsys.readouterr().err
        assert not out_dir.exists()


class TestTrain:
    def test_writes_model_report_manifest(self, corpus, tmp_path, capsys):
        log, config = corpus
        out_dir = run_train(tmp_path, log, config)
        assert (out_dir / "model.json").exists()
        assert (out_dir / "report.tsv").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 0
        assert manifest["config"]["epochs"] == 2
        assert set(manifest["inputs"]) == {"log", "config"}
        for entry in manifest["inputs"].values():
            assert len(entry["sha256"]) == 64
        out = capsys.readouterr().out
        assert "final" in out and "wrote" in out

    def test_manifest_digest_is_the_log_sha256(self, corpus, tmp_path):
        log, config = corpus
        manifest = json.loads((run_train(tmp_path, log, config) / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["inputs"]["log"]["sha256"] == hashlib.sha256(log.read_bytes()).hexdigest()
        assert manifest["inputs"]["config"]["sha256"] == hashlib.sha256(config.read_bytes()).hexdigest()

    def test_reruns_are_byte_identical(self, corpus, tmp_path):
        log, config = corpus
        first = run_train(tmp_path, log, config, out="run1")
        second = run_train(tmp_path, log, config, out="run2")
        assert (first / "model.json").read_bytes() == (second / "model.json").read_bytes()
        assert (first / "report.tsv").read_bytes() == (second / "report.tsv").read_bytes()

    def test_seed_flag_changes_model(self, corpus, tmp_path):
        log, config = corpus
        first = run_train(tmp_path, log, config, out="run1")
        second = run_train(tmp_path, log, config, out="run2", extra=["--seed", "9"])
        assert (first / "model.json").read_bytes() != (second / "model.json").read_bytes()

    def test_split_writes_holdout(self, corpus, tmp_path, capsys):
        log, config = corpus
        out_dir = run_train(tmp_path, log, config, extra=["--split", "0.8"])
        assert (out_dir / "train.tsv").exists()
        assert (out_dir / "test.tsv").exists()
        assert "split:" in capsys.readouterr().out

    def test_bad_split(self, corpus, tmp_path, capsys):
        log, config = corpus
        assert main(["train", "--log", str(log), "--config", str(config),
                     "--out", str(tmp_path / "x"), "--split", "1.5"]) == 2
        assert "split" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_min_activities_below_one(self, corpus, tmp_path, capsys, bad):
        log, config = corpus
        out_dir = tmp_path / "x"
        assert main(["train", "--log", str(log), "--config", str(config),
                     "--out", str(out_dir), "--min-activities", bad]) == 2
        assert "--min-activities" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_config_key(self, corpus, tmp_path, capsys):
        log, _ = corpus
        bad = tmp_path / "bad.conf"
        bad.write_text("epochs = 2\nlearning_rate_typo = 0.1\n", encoding="utf-8")
        assert main(["train", "--log", str(log), "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "learning_rate_typo" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "2.5"])
    def test_bad_batch_size_exits_2(self, corpus, tmp_path, capsys, value):
        log, _ = corpus
        bad = tmp_path / "bad.conf"
        bad.write_text(f"epochs = 2\nbatch_size = {value}\n", encoding="utf-8")
        assert main(["train", "--log", str(log), "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "batch_size" in capsys.readouterr().err

    def test_default_batch_size_runs_are_byte_identical(self, corpus, tmp_path):
        """The same seed at the default batch size: identical model.json and report.tsv."""
        log, config = corpus
        first, second = run_train(tmp_path, log, config, "a"), run_train(tmp_path, log, config, "b")
        assert json.loads((first / "model.json").read_text(encoding="utf-8"))["config"]["batch_size"] == 16
        for name in ("model.json", "report.tsv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_out_of_range_config_value(self, corpus, tmp_path, capsys):
        log, _ = corpus
        bad = tmp_path / "bad.conf"
        bad.write_text("epochs = 2\nlr = -1\n", encoding="utf-8")
        assert main(["train", "--log", str(log), "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "lr" in capsys.readouterr().err

    def test_diverging_run_exits_3_without_model(self, tmp_path, capsys):
        """Finite huge parameters overflow the cutoff scores: exit 3, no NaN model."""
        log = tmp_path / "log.tsv"
        assert main(["synth", "--out", str(log), "--users", "20", "--items", "60",
                     "--items-per-user", "5,10", "--seed", "1"]) == 0
        config = tmp_path / "diverge.conf"
        config.write_text("lr = 1e300\nepochs = 2\n", encoding="utf-8")
        out_dir = tmp_path / "run"
        assert main(["train", "--log", str(log), "--config", str(config), "--out", str(out_dir)]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (out_dir / "model.json").exists()


class TestEnvironmentOverrides:
    def test_config_from_environment(self, corpus, tmp_path, monkeypatch):
        log, config = corpus
        monkeypatch.setenv("KEENACT_CONFIG", str(config))
        out_dir = tmp_path / "env_run"
        assert main(["train", "--log", str(log), "--out", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["epochs"] == 2
        assert manifest["inputs"]["config"]["path"] == str(config)

    def test_flag_beats_environment(self, corpus, tmp_path, monkeypatch):
        log, config = corpus
        other = tmp_path / "other.conf"
        other.write_text(FAST_CONFIG.replace("epochs = 2", "epochs = 1"), encoding="utf-8")
        monkeypatch.setenv("KEENACT_CONFIG", str(other))
        out_dir = run_train(tmp_path, log, config)
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["epochs"] == 2

    def test_seed_from_environment(self, corpus, tmp_path, monkeypatch):
        log, config = corpus
        monkeypatch.setenv("KEENACT_SEED", "9")
        out_dir = run_train(tmp_path, log, config)
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 9

    def test_bad_seed_env(self, corpus, tmp_path, monkeypatch, capsys):
        log, config = corpus
        monkeypatch.setenv("KEENACT_SEED", "nine")
        assert main(["train", "--log", str(log), "--config", str(config),
                     "--out", str(tmp_path / "x")]) == 2
        assert "KEENACT_SEED" in capsys.readouterr().err


class TestRecommend:
    @pytest.fixture()
    def model_dir(self, corpus, tmp_path):
        log, config = corpus
        return run_train(tmp_path, log, config)

    def test_stdout_lines(self, model_dir, capsys):
        assert main(["recommend", "--model", str(model_dir / "model.json"),
                     "--user", "u0000", "--k", "3"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("u0000")]
        assert 0 < len(lines) <= 3
        fields = lines[0].split("\t")
        assert len(fields) == 6
        float(fields[3]); float(fields[4])
        assert fields[5] == "1"

    def test_output_file_and_all_users(self, model_dir, tmp_path):
        out = tmp_path / "recs.tsv"
        assert main(["recommend", "--model", str(model_dir / "model.json"),
                     "--all-users", "--k", "2", "--out", str(out)]) == 0
        users = {line.split("\t")[0] for line in out.read_text(encoding="utf-8").splitlines()}
        assert len(users) > 1

    def test_unknown_users_are_skipped_with_warning(self, model_dir, capsys, caplog):
        code = main(["recommend", "--model", str(model_dir / "model.json"),
                     "--user", "ghost", "--user", "u0001", "--k", "2"])
        assert code == 0
        assert any("ghost" in r.message for r in caplog.records)
        assert "u0001" in capsys.readouterr().out

    def test_all_users_unknown(self, model_dir, capsys):
        assert main(["recommend", "--model", str(model_dir / "model.json"),
                     "--user", "ghost"]) == 2
        assert "none of the requested user ids" in capsys.readouterr().err

    def test_requires_user_selection(self, model_dir, capsys):
        assert main(["recommend", "--model", str(model_dir / "model.json")]) == 2
        assert "--user" in capsys.readouterr().err

    def test_stale_inputs_warning(self, model_dir, corpus, caplog):
        log, _ = corpus
        log.write_text(log.read_text(encoding="utf-8") + "u0000\ti0001\ta0\t1700000000\n",
                       encoding="utf-8")
        assert stale_inputs(model_dir / "manifest.json") == ["log"]
        assert main(["recommend", "--model", str(model_dir / "model.json"),
                     "--user", "u0000", "--k", "1"]) == 0
        assert any("stale" in r.message for r in caplog.records)

    def test_relative_inputs_verify_from_another_directory(self, corpus, tmp_path, monkeypatch, caplog):
        """Inputs named relative to the training directory are not stale from a sibling one."""
        log, config = corpus
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--log", log.name, "--config", config.name, "--out", "relrun"]) == 0
        (tmp_path / "other").mkdir()
        monkeypatch.chdir(tmp_path / "other")
        assert stale_inputs("../relrun/manifest.json") == []
        assert main(["recommend", "--model", "../relrun/model.json", "--user", "u0000", "--k", "1"]) == 0
        assert not any("stale" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        "content",
        [b"[]", b'{"inputs": []}', b'{"inputs": {"log": "x"}}', b'{"inputs": {"log": {"path": 3, "sha256": "x"}}}',
         b"\xff\xfe{}", b"[" * 100_000],
        ids=["list", "inputs-list", "entry-string", "path-not-string", "not-utf8", "nested"],
    )
    def test_unreadable_manifest_only_warns(self, model_dir, capsys, caplog, content):
        """The manifest only drives a warning, so recommend goes on without it."""
        (model_dir / "manifest.json").write_bytes(content)
        assert main(["recommend", "--model", str(model_dir / "model.json"),
                     "--user", "u0000", "--k", "1"]) == 0
        assert any("could not verify run manifest" in r.message for r in caplog.records)
        assert "u0000" in capsys.readouterr().out

    def test_version_1_snapshot_exits_2(self, model_dir, capsys):
        """Versions 1 and 2 have no reader: the error names the version."""
        path = model_dir / "model.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        for version in (1, 2):
            payload["version"] = version
            path.write_text(json.dumps(payload), encoding="utf-8")
            assert main(["recommend", "--model", str(path), "--all-users"]) == 2
            assert f"version {version}" in capsys.readouterr().err

    def test_bad_k_leaves_out_untouched(self, model_dir, tmp_path, capsys):
        """A usage error exits 2 before --out is opened, so an existing file keeps its bytes."""
        out = tmp_path / "recs.tsv"
        out.write_bytes(b"kept\n")
        assert main(["recommend", "--model", str(model_dir / "model.json"),
                     "--all-users", "--k", "0", "--out", str(out)]) == 2
        assert "k must be >= 1" in capsys.readouterr().err
        assert out.read_bytes() == b"kept\n"

    def test_missing_model(self, tmp_path, capsys):
        assert main(["recommend", "--model", str(tmp_path / "no.json"), "--user", "u0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("indices", lambda block: block["indices"][:-1] + [block["width"]]),
            ("indptr", lambda block: [-1] + block["indptr"][1:]),
            ("values", lambda block: base64.b64encode(base64.b64decode(block["values"])[:-8]).decode("ascii")),
            ("indptr", lambda block: [0.5] + block["indptr"][1:]),
            ("width", lambda block: -1),
        ],
        ids=["outside-shape", "negative", "unequal-lengths", "non-integer", "bad-shape"],
    )
    def test_bad_feature_block_exits_2(self, model_dir, capsys, key, edit):
        path = model_dir / "model.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        block = payload["user_feats"]
        assert block["indices"], "the corpus gives users co-participation features"
        block[key] = edit(block)
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["recommend", "--model", str(path), "--all-users"]) == 2
        assert "malformed snapshot" in capsys.readouterr().err


class TestEvaluate:
    def test_synthetic_table(self, corpus, tmp_path, capsys):
        _, config = corpus
        out_dir = tmp_path / "eval"
        code = main(["evaluate", "--synthetic", "--users", "8", "--items", "12",
                     "--items-per-user", "2,5", "--config", str(config), "--splits", "1",
                     "--variants", "keen2act,fm_bpr", "--ks", "5,inf", "--out", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Keen2Act" in out and "FM_BPR" in out
        tsv = (out_dir / "eval.tsv").read_text(encoding="utf-8")
        assert "map@5" in tsv and "map@inf" in tsv
        assert (out_dir / "table.txt").exists()

    def test_log_input(self, corpus, tmp_path, capsys):
        log, config = corpus
        code = main(["evaluate", "--log", str(log), "--config", str(config), "--splits", "1",
                     "--variants", "keen", "--ks", "5"])
        assert code == 0
        assert "Keen Model" in capsys.readouterr().out

    def test_unknown_variant(self, corpus, capsys):
        log, config = corpus
        assert main(["evaluate", "--log", str(log), "--config", str(config),
                     "--variants", "popularity"]) == 2
        assert "unknown variant" in capsys.readouterr().err

    def test_bad_cutoff(self, corpus, capsys):
        log, config = corpus
        assert main(["evaluate", "--log", str(log), "--config", str(config), "--ks", "0"]) == 2
        assert "cutoff" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_min_activities_below_one(self, corpus, tmp_path, capsys, bad):
        log, config = corpus
        out_dir = tmp_path / "eval"
        assert main(["evaluate", "--log", str(log), "--config", str(config),
                     "--min-activities", bad, "--out", str(out_dir)]) == 2
        assert "--min-activities" in capsys.readouterr().err
        assert not out_dir.exists()


SRC = str(Path(__file__).resolve().parent.parent / "src")

NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from keenact.cli import main
out, config = sys.argv[1], sys.argv[2]
log = out + "/clean/interactions.tsv"
steps = [
    ["synth", "--out", out + "/raw.tsv", "--users", "12", "--items", "30", "--items-per-user", "4,8", "--seed", "0"],
    ["ingest", "--log", out + "/raw.tsv", "--min-activities", "2", "--out", out + "/clean"],
    ["train", "--log", log, "--config", config, "--split", "0.8", "--seed", "0", "--out", out + "/model"],
    ["recommend", "--model", out + "/model/model.json", "--all-users", "--k", "5", "--out", out + "/recs.tsv"],
    ["evaluate", "--log", log, "--config", config, "--splits", "1", "--ks", "5", "--seed", "0", "--out", out + "/eval"],
]
for argv in steps:
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
"""


def run_python(code, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=600)


class TestWithoutScipy:
    """The program needs numpy only; scipy is the tests' oracle."""

    def test_import_loads_no_scipy(self):
        done = run_python(
            "import sys, keenact, keenact.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        config = tmp_path / "fast.conf"
        config.write_text(FAST_CONFIG, encoding="utf-8")
        done = run_python(NO_SCIPY_RUN, str(tmp_path), str(config))
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "recs.tsv").read_text(encoding="utf-8")
        assert (tmp_path / "eval" / "eval.tsv").exists()


class TestIngestImports:
    def test_ingest_loads_no_openssl(self, corpus, tmp_path):
        """Only the run manifests hash, so ingest never maps OpenSSL's ``_hashlib``."""
        log, _ = corpus
        done = run_python(
            "import sys\n"
            "from keenact.cli import main\n"
            "code = main(['ingest', '--log', sys.argv[1], '--min-activities', '2', '--out', sys.argv[2]])\n"
            "print(code, '_hashlib' in sys.modules)",
            str(log),
            str(tmp_path / "clean"),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False"
        assert (tmp_path / "clean" / "interactions.tsv").exists()


class TestEvaluateImports:
    def test_evaluate_loads_no_numpy_ma(self, tmp_path):
        """Ranking filters the excluded ids without ``np.isin``, whose sorting
        path (an empty exclusion, or ids spread wide) imports ``numpy.ma``."""
        log, config = tmp_path / "log.tsv", tmp_path / "fast.conf"
        assert main(["synth", "--out", str(log), "--users", "30", "--items", "100", "--seed", "3",
                     "--items-per-user", "10,20"]) == 0
        config.write_text(FAST_CONFIG, encoding="utf-8")
        done = run_python(
            "import sys\n"
            "import numpy as np\n"
            "from keenact.cli import main\n"
            "from keenact.evaluation import _excluding\n"
            "code = main(['evaluate', '--log', sys.argv[1], '--config', sys.argv[2], '--splits', '1',\n"
            "             '--ks', '5', '--seed', '0', '--out', sys.argv[3]])\n"
            "kept = _excluding(np.arange(3), frozenset()), _excluding(np.array([5, 900]), frozenset({1, 900, 2000}))\n"
            "print(code, kept, 'numpy.ma' in sys.modules)",
            str(log),
            str(config),
            str(tmp_path / "eval"),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 ([0, 1, 2], [5]) False"
        assert (tmp_path / "eval" / "eval.tsv").exists()
