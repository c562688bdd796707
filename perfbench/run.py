"""Repo benchmark: one workload per invocation, metrics as JSON on the last line.

    python3 perfbench/run.py --workload batch_scan --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` is the separate traced run: it wraps the public functions
of each ``repro`` layer (see ``perfbench/layers.py``), prints the
per-layer table, writes the spans as JSON and as Chrome trace-event
JSON under ``.perfbench-out/``, and reports the per-layer metrics.

Every time is scaled to a reference host speed by a probe timed
between operations (see ``perfbench/hostspeed.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.hostspeed import REFERENCE_PROBE_S, HostClock  # noqa: E402

#: The first probe; set-up is timed from its end.
HOST = HostClock()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

#: End-to-end metrics: (name, unit).  Every workload reports all of them.
END_TO_END = (
    ("setup_s", "s"),
    ("compile_s", "s"),
    ("fragments_translated", "count"),
    ("job_p50_s", "s"),
    ("records_per_s", "records/s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def percentile_with_tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples above it."""
    ordered = sorted(values)
    for label, q in (("p99", 0.99), ("p95", 0.95), ("p90", 0.90), ("p75", 0.75)):
        if len(ordered) - int(q * len(ordered)) > 10:
            index = min(len(ordered) - 1, int(q * len(ordered)))
            return label, ordered[index]
    return None


def round_means_median(jobs, size: int) -> tuple[float, int]:
    """Median over whole rounds of ``size`` jobs of the round's mean job time.

    A round runs one job of each kind, so every round holds the same
    mix.  A median over single jobs falls between kinds and sits on one
    kind's tail; a median of per-kind medians jumps with a kind whose
    time is bimodal (``joins_q3_revenue`` on batch_shuffle).
    """
    rounds = [jobs[i : i + size] for i in range(0, len(jobs) - size + 1, size)]
    if not rounds:
        return float("nan"), 0
    return statistics.median(sum(job.scaled_s for job in one) / size for one in rounds), len(rounds)


def kind_medians(jobs) -> str:
    """Each job kind's median scaled time, in ms, for the printed report."""
    by_kind: dict[str, list[float]] = {}
    for job in jobs:
        by_kind.setdefault(job.kind, []).append(job.scaled_s)
    return ", ".join(f"{kind} {statistics.median(v) * 1e3:.1f} (n={len(v)})" for kind, v in by_kind.items())


def end_to_end(workload: str, out) -> tuple[dict, list[str]]:
    timed = out.timed_jobs()
    latencies = [job.latency_s for job in timed]
    done = [job for job in timed if job.status == "ok"]
    records = sum(job.records for job in done)
    window = out.window_s or float("nan")
    job_p50, rounds = round_means_median(timed, out.round_size)
    metrics = {
        "setup_s": out.setup_s,
        "compile_s": out.compile_s,
        "fragments_translated": out.fragments_translated,
        "job_p50_s": job_p50,
        "records_per_s": records / window,
        "jobs_per_s": len(done) / window,
        "peak_rss_mb": out.peak_rss_mb,
    }
    lines = [
        f"setup_s = {metrics['setup_s']:.4f} s",
        f"compile_s = {metrics['compile_s']:.4f} s (n={max(1, len(out.compile_runs))})",
        f"fragments_translated = {metrics['fragments_translated']} count (must repeat exactly)",
    ]
    probes = HOST.probes
    lines.append(
        f"host probe = {statistics.median(probes) * 1e3:.2f} ms median, {min(probes) * 1e3:.2f}-{max(probes) * 1e3:.2f} ms "
        f"(n={len(probes)}); times are scaled to a {REFERENCE_PROBE_S * 1e3:g} ms probe, wall-clock lines say so"
    )
    lines.append(
        f"job_p50_s = {metrics['job_p50_s']:.5f} s "
        f"(median over {rounds} rounds of {out.round_size} jobs of the round's mean job time; n={len(latencies)})"
    )
    lines.append(f"median per job kind, ms: {kind_medians(timed)}")
    prefix = "serve_" if workload == "serve_small" else "all_jobs_"
    if latencies:
        lines.append(f"{prefix}p50_ms = {statistics.median(latencies) * 1e3:.3f} ms wall-clock (n={len(latencies)})")
    tail = percentile_with_tail(latencies)
    if tail is not None:
        lines.append(f"{prefix}{tail[0]}_ms = {tail[1] * 1e3:.3f} ms wall-clock (n={len(latencies)})")
    else:
        lines.append(f"{prefix}p95_ms = n/a: needs 10 samples above it (n={len(latencies)})")
    if workload == "serve_small":
        lines.append(f"serve_jobs_per_s = {metrics['jobs_per_s']:.4f} jobs/s (input making excluded)")
    else:
        lines.append(f"jobs_per_s = {metrics['jobs_per_s']:.4f} 1/s")
    lines.append(f"records_per_s = {metrics['records_per_s']:.1f} records/s")
    lines += check_lines(out)
    lines.append(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB")
    return metrics, lines


def check_counts(out) -> tuple[int, int, int]:
    wrong = sum(1 for job in out.jobs if job.wrong)
    failed = sum(1 for job in out.jobs if job.failed)
    return wrong, failed, len(out.jobs)


def check_lines(out) -> list[str]:
    wrong, failed, attempted = check_counts(out)
    lines = [
        f"wrong_outputs = {wrong} count",
        f"failed_share = {failed / attempted if attempted else 0.0:.4f} ratio ({failed}/{attempted} jobs)",
    ]
    for job in out.jobs:
        if job.failed:
            reason = job.error or job.check_error or "outputs differ from interpret_reference"
            lines.append(f"  FAILED {job.program} job {job.job_id}: {reason}")
    return lines


def layer_facts(out) -> dict:
    """Per-layer numbers read off job results and the summary cache."""
    from perfbench.layers import median_or_zero

    population = set(out.traced_jobs)
    traced = [job for job in out.jobs if job.job_id in population]

    def per_job(fn) -> tuple[float, float]:
        values = [fn(job) for job in traced]
        return sum(values), median_or_zero(values)

    def unit_sum(key, sub):
        return lambda job: sum(((u.get(key) or {}).get(sub) or 0) for u in job.units)

    def share(predicate):
        return lambda job: (sum(1 for u in job.units if predicate(u)) / len(job.units)) if job.units else 0.0

    def pooled(unit):
        return unit.get("backend_used") == "multiprocess"

    def spilled(unit):
        return bool(unit.get("spill_stats"))

    all_units = [u for job in out.jobs for u in job.units]
    wrong, failed, attempted = check_counts(out)
    rows = {
        "engine.spill_runs": per_job(unit_sum("spill_stats", "spill_runs")),
        "engine.spilled_bytes": per_job(unit_sum("spill_stats", "spilled_bytes")),
        "engine.guard_fallbacks": per_job(unit_sum("columnar", "guard_fallbacks")),
        "serve.queue_ms": per_job(lambda job: job.queue_s * 1e3),
        "serve.exec_ms": per_job(lambda job: job.exec_s * 1e3),
        "serve.transport_ms": per_job(lambda job: (job.latency_s - job.queue_s - job.exec_s) * 1e3),
        "serve.exclusive_admissions": per_job(lambda job: 1 if job.admission_mode == "exclusive" else 0),
    }
    totals = {name: total for name, (total, _) in rows.items()}
    medians = {name: median for name, (_, median) in rows.items()}
    totals["planner.pool_share"] = sum(1 for u in all_units if pooled(u)) / len(all_units) if all_units else 0.0
    totals["planner.spill_share"] = sum(1 for u in all_units if spilled(u)) / len(all_units) if all_units else 0.0
    medians["planner.pool_share"] = per_job(share(pooled))[1]
    medians["planner.spill_share"] = per_job(share(spilled))[1]
    totals["pipeline.cache_hits"] = out.cache_stats.get("hits", 0)
    totals["pipeline.cache_misses"] = out.cache_stats.get("misses", 0)
    totals["check.wrong_outputs"] = wrong
    totals["check.failed_share"] = failed / attempted if attempted else 0.0
    return {"totals": totals, "medians": medians}


def traced_report(workload: str, seed: int, out, tracer, out_dir: Path) -> tuple[dict, list[str]]:
    from perfbench import layers, spans

    facts = layer_facts(out)
    totals, medians, recorded = layers.compute(tracer, list(out.traced_jobs), facts, out.overhead_share)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{workload}-seed{seed}"
    spans.write_json(
        f"{stem}.spans.json",
        tracer,
        recorded,
        {"workload": workload, "seed": seed, "layers": totals, "per_job_median": medians, "notes": out.notes},
    )
    spans.write_chrome(f"{stem}.chrome.json", tracer, recorded)

    lines = [f"per-layer table ({len(out.traced_jobs)} traced jobs; per-job medians over them)"]
    lines.append(f"{'metric':30} {'unit':9} {'run total':>14} {'per-job p50':>14}  measures; should move")
    for metric in layers.LAYER_METRICS:
        total = totals.get(metric.name, 0.0)
        median = medians.get(metric.name)
        median_text = "" if median is None else f"{median:14.6g}"
        exact = " (a count that must repeat exactly)" if metric.name in layers.EXACT_COUNTS else ""
        lines.append(
            f"{metric.name:30} {metric.unit:9} {total:14.6g} {median_text:>14}  "
            f"{metric.times}; moves {metric.moves}{exact}"
        )
    lines.append(
        f"unattributed remainder of root spans = {totals['trace.unattributed_s']:.4f} s; "
        f"tracing overhead = {out.overhead_share * 100:.2f}% (traced vs untraced, same process)"
    )
    lines.append("pool workers are not traced: engine.run_s counts their time as waiting")
    lines += out.notes
    shown = stem.relative_to(ROOT) if stem.is_relative_to(ROOT) else stem
    lines.append(f"spans: {shown}.spans.json  chrome trace: {shown}.chrome.json ({len(recorded)} spans)")
    lines += check_lines(out)
    units = {metric.name: metric.unit for metric in layers.LAYER_METRICS}
    return {name: {"value": totals[name], "unit": units[name]} for name in units}, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (tests use a small one)")
    args = parser.parse_args(argv)

    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run_fn, why = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    out = run_fn(args.seed, args.seconds, args.scale, tracer, HOST)

    print(f"workload {args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}): {why}")
    print(f"host: nproc={os.cpu_count()} python={sys.version.split()[0]}")
    if args.trace:
        metrics, lines = traced_report(args.workload, args.seed, out, tracer, ROOT / ".perfbench-out")
    else:
        values, lines = end_to_end(args.workload, out)
        units = dict(END_TO_END)
        metrics = {name: {"value": values[name], "unit": units[name]} for name, _ in END_TO_END}
    for line in lines:
        print(line)
    wrong, failed, attempted = check_counts(out)
    attempted += len(out.compile_runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def adopt_orphans() -> None:
    """Become the parent of every descendant whose own parent exits.

    The serve daemon's helpers (such as its multiprocessing resource
    tracker) outlive the daemon by a moment; as a child subreaper this
    process inherits them and can wait for them.  Linux only; elsewhere
    a no-op.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    """Live children of this process, adopted ones included (from /proc)."""
    me = os.getpid()
    pids = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def reap_children(grace_s: float = 20.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The multiprocessing resource tracker, started by the engine's first
    shared-memory segment, lives until its parent closes the pipe to it;
    stopping it here waits for it instead of leaving it to outlive the
    run.  Any other child still running after ``grace_s`` is killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in child_pids():
                try:
                    os.kill(child, 9)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        time.sleep(0.02)


if __name__ == "__main__":
    adopt_orphans()
    try:
        code = main()
    finally:
        sys.stdout.flush()
        reap_children()
    sys.exit(code)
