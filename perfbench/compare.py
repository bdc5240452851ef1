"""Bundle benchmark run records, and compare two bundles.

    python3 perfbench/compare.py collect perfbench/out > perfbench/results/BENCH_<label>.json
    python3 perfbench/compare.py diff BASE.json NEW.json

``collect`` gathers the run records that ``run.py`` wrote (smoke runs
excluded) into one file.  ``diff`` pairs the untraced runs of the two
bundles by workload and seed, so that each pair ran on the same inputs,
and prints per workload and end-to-end metric the median new/base ratio
over the seeds both bundles ran, the metric's bound from BENCHMARK.json
and the spread of those ratios (quartile distance over their median),
which is run-to-run noise, not a difference between inputs.  A change is
"worse" when the median ratio exceeds the bound in the metric's bad
direction, and "unresolved" when the ratios spread wider than the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def collect(out_dir: str) -> dict:
    runs = []
    for path in sorted(Path(out_dir).glob("*-trace[01].json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if not record["smoke"]:
            record.pop("layers_per_rep", None)  # the result keeps their medians
            runs.append(record)
    return {"environment": runs[0]["environment"] if runs else {}, "runs": runs}


def end_to_end_values(bundle: dict) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> seed -> value, from the untraced runs."""
    values: dict[tuple[str, str], dict[int, float]] = {}
    for run in bundle["runs"]:
        if run["trace"] == 0:
            for name, metric in run["result"]["metrics"].items():
                values.setdefault((run["workload"], name), {})[run["seed"]] = metric["value"]
    return values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def diff(base_path: str, new_path: str) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base = end_to_end_values(json.loads(Path(base_path).read_text(encoding="utf-8")))
    new = end_to_end_values(json.loads(Path(new_path).read_text(encoding="utf-8")))
    print(f"{'workload':12} {'metric':12} {'seeds':>5} {'base':>12} {'new':>12} {'change':>8} {'bound':>6} {'spread':>7}  verdict")
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        m = metrics[name]
        seeds = sorted(base[key].keys() & new[key].keys())
        if not seeds:
            continue
        ratios = [new[key][seed] / base[key][seed] for seed in seeds]
        change = statistics.median(ratios) - 1.0
        worse = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
        s = spread(ratios)
        verdict = "unresolved" if s > m["bound"] else "worse" if worse else "ok"
        b = statistics.median(base[key][seed] for seed in seeds)
        n = statistics.median(new[key][seed] for seed in seeds)
        print(
            f"{workload:12} {name:12} {len(seeds):5d} {b:12.5g} {n:12.5g} {change:+8.1%} {m['bound']:6.2f} {s:7.3f}  {verdict}"
        )


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "collect":
        bundle = collect(argv[1])
        runs = ",\n".join(json.dumps(run) for run in bundle["runs"])
        sys.stdout.write(f'{{"environment": {json.dumps(bundle["environment"])},\n"runs": [\n{runs}\n]}}\n')
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        diff(argv[1], argv[2])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
