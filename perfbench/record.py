"""Record sets of benchmark runs as points of the bench trajectory.

    python3 perfbench/record.py --labels baseline baseline-repeat --runs 10

Each label is one set: ``--runs`` untraced runs per workload, each on its
own seed (the second set's seeds follow the first's), then one traced
run per workload.  The sets are interleaved run by run: the order of the
sets flips every round and the order of the workloads every second
round, so that a drift of the host's speed, or what one run leaves
behind for the next, reaches every set and workload alike.

Writes ``perfbench/results/<label>.json`` per set with the host (nproc,
Python), every run's metrics, each end-to-end metric's median and
quartile spread (``statistics.quantiles(values, n=4)``, the spread as a
share of the median), and each workload's per-layer table.  With two
sets, the second file also compares its medians with the first's
against the bounds of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str], float]:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=900,
    )
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1], wall


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def agreement(first: dict, second: dict, bounds: dict) -> dict:
    """Per workload and metric: second median over first, and the bound."""
    out = {}
    for workload, entry in second["workloads"].items():
        rows = {}
        for name, stats in entry["end_to_end"].items():
            base = first["workloads"][workload]["end_to_end"][name]["median"]
            ratio = stats["median"] / base if base else None
            rows[name] = {
                "ratio": ratio,
                "bound": bounds[name],
                "within": ratio is not None and abs(ratio - 1.0) <= bounds[name],
                "spread_within": stats["spread"] is not None and stats["spread"] <= bounds[name],
            }
        out[workload] = rows
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--labels", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", nargs="*", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    host = {"nproc": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine()}
    runs: dict = {(label, w): [] for label in args.labels for w in workloads}
    for index in range(args.runs):
        order = workloads if index // 2 % 2 == 0 else workloads[::-1]
        labels = args.labels if index % 2 == 0 else args.labels[::-1]
        for workload in order:
            for label in labels:
                seed = args.first_seed + 100 * args.labels.index(label) + index
                result, _, wall = run_once(workload, seed, seconds, 0)
                runs[label, workload].append({"seed": seed, "wall_s": wall, **result})
                print(f"{label} {workload} seed {seed}: {wall:.1f} s correct={result['correct']}", flush=True)

    reports = []
    for number, label in enumerate(args.labels):
        report = {"label": label, "host": host, "run_seconds": seconds, "workloads": {}}
        for workload in workloads:
            done = runs[label, workload]
            metrics = {name: spread([run["metrics"][name]["value"] for run in done]) for name in done[0]["metrics"]}
            traced, table, wall = run_once(workload, args.first_seed + 100 * number, seconds, 1)
            report["workloads"][workload] = {
                "runs": done,
                "end_to_end": metrics,
                "traced": {"wall_s": wall, "correct": traced["correct"], "metrics": traced["metrics"], "table": table},
            }
            for name, stats in metrics.items():
                print(f"  {label} {workload} {name:22} median {stats['median']:.6g} spread {stats['spread']}", flush=True)
        reports.append(report)
    if len(reports) == 2:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        reports[1]["agreement_with"] = {"label": reports[0]["label"], **agreement(reports[0], reports[1], bounds)}
        for workload, rows in reports[1]["agreement_with"].items():
            if workload == "label":
                continue
            for name, row in rows.items():
                print(f"  agreement {workload} {name:22} ratio {row['ratio']} within={row['within']}", flush=True)
    for report in reports:
        out = HERE / "results" / f"{report['label']}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
