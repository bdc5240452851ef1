"""keenact benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fit --seed 0 --seconds 18 --trace 0

Run from the root of a checkout; the benchmark imports keenact from that
checkout's ``src/``.  A run sets the workload up at least three times
(``setup_s`` is the median), then repeats the workload's command until
``--seconds`` have passed, checking every repetition's output.  A fixed
reference task (reference.py) runs between set-ups and repetitions, and
``setup_s`` and ``command_s`` are given at the reference speed, so that
the host's changing speed cancels out.  With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json from untraced repetitions (the
command time is the mean over the run) and the command's peak RSS from
one run of it in a fresh process (command.py); with ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer
metrics (medians over the traced repetitions).  The last line of stdout
is the result as JSON.  The run record (environment, inputs, every
repetition) goes to ``perfbench/out/<workload>-seed<n>-trace<t>.json``
and, when traced, the spans of the last traced repetition to
``perfbench/out/<workload>-seed<n>.spans.npz``.

``--smoke`` runs the same code on tiny corpora, for tests.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import logging
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# All load comes from one process at a time; one BLAS thread keeps the small
# matrix products from competing with it for the machine's cores.  Set
# before numpy is first imported, and inherited by command.py.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from reference import REFERENCE_S, timed_reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_SETUPS = 3
SETUP_SECONDS = 2.0
MIN_REPS = 3
#: Share of the measuring time spent on the reference task.
REFERENCE_SHARE = 0.2


def import_program():
    """Import keenact from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import keenact
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import keenact from {src}: {exc}") from None
    if Path(keenact.__file__).resolve().parent != src / "keenact":
        raise SystemExit(f"perfbench: keenact imported from {keenact.__file__}, not from {src}")
    return keenact


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, if an OpenBLAS is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(keenact) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "keenact": keenact.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def check_determinism(label: str, inputs: Path, digests: dict) -> list[str]:
    """Compare output digests with earlier runs of the same code on the same inputs."""
    code = hashlib.sha256(inputs.read_bytes())
    for path in sorted((ROOT / "src" / "keenact").glob("*.py")):
        code.update(path.name.encode() + b"\0" + path.read_bytes())
    key = f"{label}/{code.hexdigest()[:16]}"
    path = OUT / "determinism.json"
    record = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    earlier = record.setdefault(key, digests)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return [] if earlier == digests else [f"output digests differ from an earlier run of this code and seed: {earlier}"]


def command_peak_rss_mb(argv, work: Path) -> tuple[float, int]:
    """Peak RSS (MiB) and exit code of the command run once in a fresh ``python3``."""
    peak = work / "peak_kib"
    args = [sys.executable, str(HERE / "command.py"), str(peak), *map(str, argv)]
    to_log = [(os.POSIX_SPAWN_OPEN, 1, str(work / "command.log"), os.O_WRONLY | os.O_CREAT, 0o644), (os.POSIX_SPAWN_DUP2, 1, 2)]
    pid = os.posix_spawn(sys.executable, args, os.environ, file_actions=to_log)
    _, status = os.waitpid(pid, 0)
    rc = os.waitstatus_to_exitcode(status)
    return (int(peak.read_text(encoding="ascii")) / 1024.0 if rc == 0 else float("nan")), rc


def run_rep(wl, ctx: dict, out: Path, root: str, traced: bool):
    """One repetition of the workload's command; returns (seconds, errors, recorder)."""
    from layers import instrument
    from spans import SpanRecorder
    from workloads import run_cli

    out.mkdir()
    command = run_cli
    recorder = None
    if traced:
        recorder = SpanRecorder()
        instrument(recorder)
        command = recorder.span(run_cli, root)
    started = time.perf_counter()
    try:
        rc, stdout = command(wl.argv(ctx, out))
    except Exception as exc:  # a crash of the command is a failed operation
        rc, stdout = repr(exc), ""
    finally:
        elapsed = time.perf_counter() - started
        if recorder is not None:
            recorder.uninstall()
    try:
        errors = [f"exit code {rc}"] if rc != 0 else wl.check_rep(ctx, out, stdout)
    except Exception as exc:  # any failure to read the output is a wrong output
        errors = [f"output check raised {exc!r}"]
    return elapsed, errors, recorder


def set_up(wl, work: Path, seed: int) -> tuple[dict, dict]:
    """Set the workload up at least MIN_SETUPS times and for SETUP_SECONDS, with a
    reference task before each; returns the last context and the timings."""
    s = {"setup_s": [], "reference_s": [], "snapshots": set()}
    started = time.perf_counter()
    while len(s["setup_s"]) < MIN_SETUPS or time.perf_counter() - started < SETUP_SECONDS:
        s["reference_s"].append(timed_reference())
        t = time.perf_counter()
        ctx = wl.setup(work / f"setup{len(s['setup_s'])}", seed)
        s["setup_s"].append(time.perf_counter() - t)
        s["snapshots"].add(ctx.get("snapshot_sha256"))
    s["reference_s"].append(timed_reference())
    return ctx, s


def measure(wl, ctx: dict, work: Path, seconds: float, trace: bool) -> dict:
    """Repeat the command until ``seconds`` have passed; every other one traced.

    Reference tasks take REFERENCE_SHARE of the time, spread between the
    repetitions, so that they see the same host speed as the command.
    """
    from layers import layer_metrics

    root = f"cli.{wl.argv(ctx, work)[0]}"
    m = {
        "plain_s": [], "traced_s": [], "reference_s": [timed_reference()], "layers": [], "latencies": {},
        "errors": [], "attempted": 0, "failed": 0,
    }
    started = time.perf_counter()
    owed = 0.0  # reference time still owed for the repetitions so far
    rep = 0
    while True:
        traced = trace and rep % 2 == 1
        elapsed, errors, recorder = run_rep(wl, ctx, work / f"rep{rep}", root, traced)
        owed += elapsed * REFERENCE_SHARE / (1.0 - REFERENCE_SHARE)
        while owed > REFERENCE_S / 2:
            m["reference_s"].append(timed_reference())
            owed -= m["reference_s"][-1]
        if traced:
            m["traced_s"].append(elapsed)
            values = layer_metrics(recorder, root)
            # every span, orphans included, against the time taken outside the wrapper
            covered = sum(v["self_s"] for v in recorder.totals().values())
            if abs(covered - elapsed) > 1e-3 + 0.01 * elapsed:
                errors.append(f"self times sum to {covered} s, the command took {elapsed} s")
            m["layers"].append(values)
            for kind, durations in recorder.samples.items():
                m["latencies"].setdefault(kind, []).extend(durations)
            m["recorder"] = recorder
        else:
            m["plain_s"].append(elapsed)
        m["attempted"] += 1
        if errors:
            m["failed"] += 1
            m["errors"] += [f"rep {rep}: {e}" for e in errors]
        if rep > 0:
            shutil.rmtree(work / f"rep{rep - 1}")
        rep += 1
        typical = statistics.median(m["plain_s"] + m["traced_s"])
        if rep >= MIN_REPS and time.perf_counter() - started + typical > seconds:
            break
    m["last"] = work / f"rep{rep - 1}"
    return m


def run_checks(wl, ctx: dict, last: Path, label: str, trace: bool, snapshots: set) -> tuple[list[str], dict]:
    """The once-per-run checks; returns (errors, quality metrics)."""
    from workloads import Workload

    errors = ["the set-ups trained snapshots that differ"] if len(snapshots) > 1 else []
    try:
        errors += wl.check_run(ctx, last)
        if "digests" in ctx.get("first", {}):
            errors += check_determinism(label, ctx["log"], ctx["first"]["digests"])
        return errors, wl.quality(ctx, last) if trace else {}
    except Exception as exc:  # a check that cannot run means the output is wrong
        return errors + [f"run check raised {exc!r}"], Workload.quality(wl, ctx, last)


def main(argv=None) -> int:
    from workloads import WORKLOADS  # imported here: needs keenact on sys.path

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=18.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, for tests")
    args = parser.parse_args(argv)

    from layers import latency_metrics
    from workloads import corpus_counts

    wl = WORKLOADS[args.workload](smoke=args.smoke)
    seed = wl.default_seed if args.seed is None else args.seed
    units = metric_units()["per_layer" if args.trace else "end_to_end"]
    label = f"{wl.name}-seed{seed}{'-smoke' if args.smoke else ''}"
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    log_handler = logging.FileHandler(work / "keenact.log", encoding="utf-8")
    logging.basicConfig(level=logging.INFO, handlers=[log_handler], force=True)
    try:
        ctx, s = set_up(wl, work, seed)
        counts = corpus_counts(ctx["log"])

        m = measure(wl, ctx, work, args.seconds, bool(args.trace))
        run_errors, quality = run_checks(wl, ctx, m["last"], label, bool(args.trace), s["snapshots"])

        peak_rss_mb = None
        if not args.trace:
            (work / "rss").mkdir()
            peak_rss_mb, rc = command_peak_rss_mb(wl.argv(ctx, work / "rss"), work / "rss")
            if rc != 0:
                run_errors.append(f"the command in a fresh process exited with {rc}")
        # Times at the reference speed (reference.py).  The command's is the
        # mean over the run: the host's speed changes in spells of seconds,
        # and the mean averages over them where a median jumps between them.
        setup_speed = REFERENCE_S / statistics.mean(s["reference_s"])
        command_speed = REFERENCE_S / statistics.mean(m["reference_s"])
        command_s = statistics.mean(m["plain_s"]) * command_speed
        if args.trace:
            metrics = {name: statistics.median(v[name] for v in m["layers"]) for name in m["layers"][0]}
            metrics.update(latency_metrics(m["latencies"]))
            metrics["trace.overhead_frac"] = statistics.mean(m["traced_s"]) / statistics.mean(m["plain_s"]) - 1.0
            metrics.update(quality)
            m["recorder"].save(OUT / f"{label}.spans.npz")
        else:
            metrics = {
                "command_s": command_s,
                "setup_s": statistics.median(s["setup_s"]) * setup_speed,
                "peak_rss_mb": peak_rss_mb,
            }
        errors = m["errors"] + run_errors
        attempted = m["attempted"] + 1
        failed = m["failed"] + bool(run_errors)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
        }
        record = {
            "workload": wl.name,
            "seed": seed,
            "trace": args.trace,
            "smoke": args.smoke,
            "seconds": args.seconds,
            "environment": environment(sys.modules["keenact"]),
            "inputs": {
                "argv": [os.path.relpath(a, ROOT) if isinstance(a, Path) else str(a) for a in wl.argv(ctx, work / "OUT")],
                "corpus": counts,
            },
            "wall_setup_s": s["setup_s"],
            "wall_untraced_command_s": m["plain_s"],
            "wall_traced_command_s": m["traced_s"],
            "wall_reference_s": {"setup": s["reference_s"], "command": m["reference_s"]},
            "peak_rss_mb": peak_rss_mb,
            "digests": ctx.get("first", {}),
            "errors": errors,
            "result": result,
        }
        if args.trace:
            record["layers_per_rep"] = m["layers"]
            record["latency_samples"] = {kind: len(d) for kind, d in m["latencies"].items()}
        (OUT / f"{label}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
        for e in errors:
            print(f"perfbench: {e}", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        logging.getLogger().removeHandler(log_handler)
        log_handler.close()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    import_program()
    sys.exit(main())
