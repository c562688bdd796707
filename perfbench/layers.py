"""The per-layer metrics: what each one times, and what it should move.

Every row of :data:`LAYER_METRICS` names one per-layer metric, its unit,
which way is better, how it is measured, and the end-to-end metric it
should move on the workload where it is large.  ``BENCHMARK.json``
declares the same names and units; a test keeps the two in step.

:func:`install` wraps the listed ``repro`` functions at their module
attributes, in every ``repro`` module that imported them by name, and
returns the undo list.  Only the traced run calls it.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

from . import spans as spans_mod

#: Counts that must repeat exactly from run to run on the same seed.
EXACT_COUNTS = ("fragments_translated", "synthesis.candidates", "engine.spill_runs")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: How the value is measured (printed in the layer table).
    times: str
    #: End-to-end metric it should move, and on which workload.
    moves: str


def _m(name, unit, better, times, moves):
    return LayerMetric(name, unit, better, times, moves)


LAYER_METRICS: tuple[LayerMetric, ...] = (
    _m("lang.parse_s", "s", "lower", "self time of parser.parse_program", "compile_s and setup_s on batch_*"),
    _m("lang.analyze_s", "s", "lower", "self time of fragments.analyze_function and analyze_fragment", "compile_s and setup_s on batch_*"),
    _m("lang.fragments", "count", "higher", "fragments analyze_fragment returned", "compile_s and setup_s on batch_*"),
    _m("diagnostics.soundness_s", "s", "lower", "self time of soundness.analyze_soundness", "compile_s and setup_s on batch_*"),
    _m("diagnostics.rejected", "count", "lower", "fragments analyze_soundness rejected", "compile_s and setup_s on batch_*"),
    _m("synthesis.search_s", "s", "lower", "self time of search.find_summaries", "compile_s and setup_s on batch_*; zero in serve_small's timed loop"),
    _m("synthesis.enumerate_s", "s", "lower", "self time of cegis.Synthesizer.synthesize", "compile_s and setup_s on batch_*"),
    _m("synthesis.candidates", "count", "lower", "candidates find_summaries checked", "compile_s and setup_s on batch_*"),
    _m("synthesis.failed_searches", "count", "lower", "find_summaries calls that ended with no summary", "compile_s and setup_s on batch_*"),
    _m("verification.bounded_s", "s", "lower", "self time of bounded.BoundedChecker.check", "compile_s and setup_s on batch_*"),
    _m("verification.bounded_checks", "count", "lower", "calls of BoundedChecker.check", "compile_s and setup_s on batch_*"),
    _m("verification.refute_ratio", "ratio", "higher", "share of bounded checks that returned a counterexample", "compile_s and setup_s on batch_*"),
    _m("verification.prove_s", "s", "lower", "self time of prover.FullVerifier.verify", "compile_s and setup_s on batch_*"),
    _m("verification.proofs", "count", "lower", "calls of FullVerifier.verify", "compile_s and setup_s on batch_*"),
    _m("verification.tier1_share", "ratio", "higher", "share of accepted summaries proved rather than bounded-only", "compile_s and setup_s on batch_*"),
    _m("pipeline.cache_hits", "count", "higher", "SummaryCache.stats hits", "compile_s and setup_s"),
    _m("pipeline.cache_misses", "count", "lower", "SummaryCache.stats misses", "compile_s and setup_s"),
    _m("codegen.build_s", "s", "lower", "self time of glue.build_adaptive_program", "compile_s and setup_s on batch_*"),
    _m("codegen.view_records_s", "s", "lower", "self time of base.view_records", "job_p50_s on batch_scan (tpch_q6 builds records)"),
    _m("codegen.kernel_compile_s", "s", "lower", "self time of kernels.compile_kernel (parent process)", "job_p50_s on serve_small"),
    _m("codegen.kernel_compiles", "count", "lower", "calls of kernels.compile_kernel (parent process)", "job_p50_s on serve_small"),
    _m("codegen.join_build_s", "s", "lower", "self time of joins.build_join_steps", "records_per_s on batch_shuffle; zero on batch_scan"),
    _m("codegen.bind_s", "s", "lower", "self time of base.bind_outputs", "job_p50_s on batch_shuffle"),
    _m("cost.monitor_s", "s", "lower", "self time of RuntimeMonitor.choose and AdaptiveProgram.sample_elements", "job_p50_s on serve_small; a small share on batch_*"),
    _m("cost.observe_s", "s", "lower", "self time of ObservationStore.lookup/record and harvest_observation", "job_p50_s on serve_small; a small share on batch_*"),
    _m("planner.precompute_s", "s", "lower", "self time of ExecutionPlanner.precompute", "setup_s and compile_s"),
    _m("planner.plan_s", "s", "lower", "self time of ExecutionPlanner.plan, calibration included", "job_p50_s on serve_small"),
    _m("planner.pool_share", "ratio", "higher", "share of planned units whose backend_used is multiprocess", "explains spread in job_p50_s on batch_scan"),
    _m("planner.spill_share", "ratio", "lower", "share of planned units that spilled", "records_per_s on batch_shuffle; zero on batch_scan"),
    _m("engine.run_s", "s", "lower", "self time of MultiprocessEngine.run_pipeline, parent side, waiting on pool workers included", "job_p50_s and records_per_s on batch_*"),
    _m("engine.columnar_s", "s", "lower", "time in columnar.build_chunk (parent process)", "records_per_s on batch_scan; small on serve_small"),
    _m("engine.sizeof_calls", "count", "lower", "outermost calls of sizes.sizeof and sizeof_pair (parent process)", "records_per_s on batch_scan; small on serve_small"),
    _m("engine.sizeof_s", "s", "lower", "time in sizes.sizeof and sizeof_pair (parent process)", "records_per_s on batch_scan; small on serve_small"),
    _m("engine.pool_starts", "count", "lower", "ProcessPoolExecutor constructions in engine.multiprocess", "job_p50_s on serve_small and batch_*"),
    _m("engine.pool_start_s", "s", "lower", "time constructing ProcessPoolExecutor in engine.multiprocess", "job_p50_s on serve_small and batch_*"),
    _m("engine.spill_write_s", "s", "lower", "self time of spill.SpillWriter.spill", "records_per_s on batch_shuffle; zero on batch_scan"),
    _m("engine.spill_merge_s", "s", "lower", "self time of spill.merge_partition (parent process)", "records_per_s on batch_shuffle; zero on batch_scan"),
    _m("engine.spill_runs", "count", "lower", "spill_stats spill_runs summed over planned units", "records_per_s on batch_shuffle; zero on batch_scan"),
    _m("engine.spilled_bytes", "bytes", "lower", "spill_stats spilled_bytes summed over planned units", "records_per_s on batch_shuffle; zero on batch_scan"),
    _m("engine.guard_fallbacks", "count", "lower", "columnar guard_fallbacks summed over planned units", "records_per_s on batch_scan"),
    _m("graph.optimize_s", "s", "lower", "self time of fuse.optimize_graph", "compile_s"),
    _m("graph.run_s", "s", "lower", "self time of executor.run_graph", "job_p50_s on batch_*"),
    _m("session.run_s", "s", "lower", "wall time of the root span around Session.run or the client round trip", "job_p50_s on every workload"),
    _m("serve.queue_ms", "ms", "lower", "JobResult.queued_seconds summed over timed jobs", "job_p50_s on serve_small"),
    _m("serve.exec_ms", "ms", "lower", "JobResult.wall_seconds summed over timed jobs", "job_p50_s on serve_small"),
    _m("serve.transport_ms", "ms", "lower", "latency minus queue minus execution, summed over timed jobs (HTTP plus codec on serve_small)", "job_p50_s on serve_small"),
    _m("serve.exclusive_admissions", "count", "lower", "timed jobs admitted in exclusive mode", "job_p50_s on serve_small"),
    _m("trace.unattributed_s", "s", "lower", "self time of root spans: what no wrapped layer covers", "shrinks as spans move into the program"),
    _m("trace.overhead_share", "ratio", "lower", "traced over untraced median job latency in the same process, minus 1", "none: the cost of tracing"),
    _m("check.wrong_outputs", "count", "lower", "timed jobs whose outputs differ from interpret_reference", "must stay 0 on every workload"),
    _m("check.failed_share", "ratio", "lower", "jobs that raised, returned an error or were wrong, over jobs attempted", "must stay 0 on every workload"),
)


# ----------------------------------------------------------------------
# Installing the wrappers


def _count_fragment(tracer, result, args):
    tracer.count("lang.fragments")


def _count_soundness(tracer, result, args):
    if any(getattr(d, "severity", None) == "error" for d in result or ()):
        tracer.count("diagnostics.rejected")


def _count_search(tracer, result, args):
    tracer.count("synthesis.candidates", getattr(result, "candidates_checked", 0))
    if not getattr(result, "summaries", None):
        tracer.count("synthesis.failed_searches")


def _count_check(tracer, result, args):
    tracer.count("verification.bounded_checks")
    if result is not None:
        tracer.count("verification.refuted")


def _count_proof(tracer, result, args):
    tracer.count("verification.proofs")
    tracer.count(f"verification.status.{getattr(result, 'status', 'unknown')}")


def _count_kernel(tracer, result, args):
    tracer.count("codegen.kernel_compiles")


#: (module, attribute or "Class.method", span name, result hook).
SPAN_TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.lang.parser", "parse_program", "lang.parse", None),
    ("repro.lang.analysis.fragments", "analyze_function", "lang.analyze", None),
    ("repro.lang.analysis.fragments", "analyze_fragment", "lang.analyze", _count_fragment),
    ("repro.diagnostics.soundness", "analyze_soundness", "diagnostics.soundness", _count_soundness),
    ("repro.synthesis.search", "find_summaries", "synthesis.search", _count_search),
    ("repro.synthesis.cegis", "Synthesizer.synthesize", "synthesis.enumerate", None),
    ("repro.verification.bounded", "BoundedChecker.check", "verification.bounded", _count_check),
    ("repro.verification.prover", "FullVerifier.verify", "verification.prove", _count_proof),
    ("repro.codegen.glue", "build_adaptive_program", "codegen.build", None),
    ("repro.codegen.base", "view_records", "codegen.view_records", None),
    ("repro.codegen.kernels", "compile_kernel", "codegen.kernel_compile", _count_kernel),
    ("repro.codegen.joins", "build_join_steps", "codegen.join_build", None),
    ("repro.codegen.base", "bind_outputs", "codegen.bind", None),
    ("repro.cost.monitor", "RuntimeMonitor.choose", "cost.monitor", None),
    ("repro.codegen.glue", "AdaptiveProgram.sample_elements", "cost.monitor", None),
    ("repro.cost.observe", "ObservationStore.lookup", "cost.observe", None),
    ("repro.cost.observe", "ObservationStore.record", "cost.observe", None),
    ("repro.cost.observe", "harvest_observation", "cost.observe", None),
    ("repro.planner.planner", "ExecutionPlanner.precompute", "planner.precompute", None),
    ("repro.planner.planner", "ExecutionPlanner.plan", "planner.plan", None),
    ("repro.engine.multiprocess", "MultiprocessEngine.run_pipeline", "engine.run", None),
    ("repro.engine.spill", "SpillWriter.spill", "engine.spill_write", None),
    ("repro.engine.spill", "merge_partition", "engine.spill_merge", None),
    ("repro.graph.fuse", "optimize_graph", "graph.optimize", None),
    ("repro.graph.executor", "run_graph", "graph.run", None),
)

#: Functions called per record or per chunk: counted and timed, no spans.
HOT_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.engine.sizes", "sizeof", "engine.sizeof"),
    ("repro.engine.sizes", "sizeof_pair", "engine.sizeof"),
    ("repro.engine.columnar", "build_chunk", "engine.columnar"),
)


def _replace_everywhere(original: Any, replacement: Any, undo: list) -> None:
    """Rebind every ``repro`` module global that *is* ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                undo.append((module, attr, original))
                setattr(module, attr, replacement)


def _execute_wrapper(tracer, original):
    """``Session._execute`` opens a span tagged with the session's job id.

    A daemon runs the job on its own threads; the tag is what links
    those spans to the client's root span for the same job.
    """

    def traced(self, job_id, *args, **kwargs):
        span = tracer.begin("session.execute", job=job_id)
        try:
            return original(self, job_id, *args, **kwargs)
        finally:
            tracer.finish(span)

    return traced


def _pool_wrapper(tracer, original):
    def traced(*args, **kwargs):
        span = tracer.begin("engine.pool_start")
        try:
            return original(*args, **kwargs)
        finally:
            tracer.finish(span)

    return traced


def install(tracer: spans_mod.Tracer) -> list:
    """Wrap every target; returns the undo list for :func:`uninstall`."""
    undo: list = []
    for module_name, attr, span_name, hook in SPAN_TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            undo.append((cls, method, original))
            setattr(cls, method, tracer.wrap_span(span_name, original, hook))
        else:
            original = getattr(module, attr)
            _replace_everywhere(original, tracer.wrap_span(span_name, original, hook), undo)
    for module_name, attr, name in HOT_TARGETS:
        original = getattr(importlib.import_module(module_name), attr)
        _replace_everywhere(original, tracer.wrap_hot(name, original), undo)

    session_cls = importlib.import_module("repro.session").Session
    original = session_cls.__dict__["_execute"]
    undo.append((session_cls, "_execute", original))
    session_cls._execute = _execute_wrapper(tracer, original)

    multiprocess = importlib.import_module("repro.engine.multiprocess")
    original = multiprocess.ProcessPoolExecutor
    undo.append((multiprocess, "ProcessPoolExecutor", original))
    multiprocess.ProcessPoolExecutor = _pool_wrapper(tracer, original)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Turning a traced run into the layer metrics


def _span_metric(name: str) -> Optional[str]:
    for metric in LAYER_METRICS:
        if metric.unit == "s" and metric.name == f"{name}_s":
            return metric.name
    return None


def compute(
    tracer: spans_mod.Tracer,
    timed_jobs: list,
    facts: dict,
    overhead_share: float,
) -> tuple[dict[str, float], dict[str, float], list]:
    """(run totals, per-job medians, spans) for every layer metric.

    ``timed_jobs`` are the job ids of the timed loop, the population of
    the per-job medians.  ``facts`` carries what the workload read off
    its job results and summary cache (see ``workloads.layer_facts``).
    """
    spans = tracer.spans()
    spans_mod.link_jobs(spans, "session.run")
    selfs = spans_mod.self_times(spans, tracer.orphan_hot())
    jobs = spans_mod.resolve_jobs(spans)
    by_name = spans_mod.per_name(spans, selfs, jobs)
    counts = tracer.counts()
    hot = tracer.hot_totals()

    totals: dict[str, float] = {}
    medians: dict[str, float] = {}
    for span_name, entry in by_name.items():
        metric = _span_metric(span_name)
        if metric is None:
            continue
        totals[metric] = totals.get(metric, 0.0) + entry["self_s"]
        medians[metric] = spans_mod.job_median(entry["jobs"], timed_jobs)

    # Roots: the remainder no wrapped layer covers, and session.run's
    # inclusive wall time.
    by_id = {span.sid: span for span in spans}
    roots = [span for span in spans if span.parent not in by_id]
    remainder: dict = {}
    for span in roots:
        remainder[jobs.get(span.sid)] = remainder.get(jobs.get(span.sid), 0.0) + selfs[span.sid]
    totals["trace.unattributed_s"] = sum(remainder.values())
    medians["trace.unattributed_s"] = spans_mod.job_median(remainder, timed_jobs)
    run_walls = {jobs.get(s.sid): s.duration for s in spans if s.name == "session.run"}
    totals["session.run_s"] = sum(run_walls.values())
    medians["session.run_s"] = spans_mod.job_median(run_walls, timed_jobs)

    sizeof_calls, sizeof_s = hot.get("engine.sizeof", (0, 0.0))
    columnar_calls, columnar_s = hot.get("engine.columnar", (0, 0.0))
    pool = by_name.get("engine.pool_start", {"calls": 0, "self_s": 0.0, "jobs": {}})
    checks = counts.get("verification.bounded_checks", 0)
    accepted = counts.get("verification.status.proved", 0) + counts.get("verification.status.unknown", 0)
    totals.update(
        {
            "lang.fragments": counts.get("lang.fragments", 0),
            "diagnostics.rejected": counts.get("diagnostics.rejected", 0),
            "synthesis.candidates": counts.get("synthesis.candidates", 0),
            "synthesis.failed_searches": counts.get("synthesis.failed_searches", 0),
            "verification.bounded_checks": checks,
            "verification.refute_ratio": counts.get("verification.refuted", 0) / checks if checks else 0.0,
            "verification.proofs": counts.get("verification.proofs", 0),
            "verification.tier1_share": counts.get("verification.status.proved", 0) / accepted if accepted else 0.0,
            "codegen.kernel_compiles": counts.get("codegen.kernel_compiles", 0),
            "engine.sizeof_calls": sizeof_calls,
            "engine.sizeof_s": sizeof_s,
            "engine.columnar_s": columnar_s,
            "engine.pool_starts": pool["calls"],
            "engine.pool_start_s": pool["self_s"],
            "trace.overhead_share": overhead_share,
        }
    )
    totals.update(facts["totals"])
    medians.update(facts["medians"])
    for metric in LAYER_METRICS:
        totals.setdefault(metric.name, 0.0)
    return totals, medians, spans


def median_or_zero(values: list) -> float:
    return statistics.median(values) if values else 0.0
