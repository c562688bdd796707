"""The three workloads, all driven through ``repro``'s public API.

Each workload makes its inputs from the seed, sets up (imports,
registration, input generation, warm-up), runs a timed window, and
checks every job's outputs against ``interpret_reference`` on the
compilation's job graph.  A reference that cannot be computed counts
as a failure, never as a pass.

``scale`` shrinks every input size; the tests use it to run each
workload in a second or two.
"""

from __future__ import annotations

import itertools
import os
import queue
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import repro
from repro import ExecOptions, Session
from repro.graph.executor import interpret_reference
from repro.lang.values import Instance, values_equal
from repro.workloads import datagen
from repro.workloads.registry import get_benchmark

from . import layers
from . import spans as spans_mod
from .hostspeed import HostClock
from .layers import median_or_zero

ROOT = Path(__file__).resolve().parents[1]

#: Compile threads: one.  Two threads contend for the GIL and spread a
#: cold compile's wall time from 13 s to 22 s on a 2-CPU host; one
#: thread takes 16-18 s and the same total CPU time.
COMPILE_WORKERS = 1


def sized(n: int, scale: float, floor: int = 8) -> int:
    return max(floor, int(n * scale))


@dataclass
class Job:
    """One submitted job and everything checked or reported about it."""

    job_id: str
    program: str
    input_key: Any
    records: int
    latency_s: float
    status: str
    #: ``latency_s`` scaled to the reference host speed (hostspeed.py).
    scaled_s: float = 0.0
    error: Optional[str] = None
    outputs: dict = field(default_factory=dict)
    queue_s: float = 0.0
    exec_s: float = 0.0
    units: list = field(default_factory=list)
    admission_mode: Optional[str] = None
    timed: bool = True
    #: Jobs of one kind run the same program the same way, with the same
    #: join strategies; the report prints a median per kind.
    kind: str = ""
    wrong: bool = False
    check_error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.status != "ok" or self.wrong or self.check_error is not None


def unit_summaries(report: Any) -> list[dict]:
    """Per-unit plan-report dicts of a whole-program job result."""
    if report is None:
        return []
    summary = report.summary() if hasattr(report, "summary") else report
    units = summary.get("unit_reports")
    if units is None:  # a single fragment's PlanReport
        return [summary]
    return list(units.values())


def join_strategies(units: list[dict]) -> str:
    """The join strategy of every join level a job ran, in order; '' for none."""
    return "+".join(level.get("strategy", "?") for unit in units for level in (unit.get("join") or {}).get("levels") or ())


def job_from_result(result, program, input_key, records, latency, scaled, timed=True, kind=None) -> Job:
    units = unit_summaries(result.plan_report)
    joins = join_strategies(units)
    return Job(
        job_id=result.job_id,
        program=program,
        input_key=input_key,
        records=records,
        latency_s=latency,
        scaled_s=scaled,
        status=result.status,
        error=result.error,
        outputs=dict(result.outputs or {}),
        queue_s=result.queued_seconds,
        exec_s=result.wall_seconds,
        units=units,
        admission_mode=(result.admission or {}).get("mode"),
        timed=timed,
        kind=f"{kind or program}[{joins}]" if joins else kind or program,
    )


def outputs_match(graph, outputs: dict, expected: dict) -> bool:
    """Every final variable the reference produced, equal within 1e-6.

    ``values_equal`` is exact for ints, strings and keys and relative
    1e-6 for floats: summaries re-associate float sums.
    """
    required = set(graph.final_vars) & set(expected)
    if not required <= set(outputs):
        return False
    return all(values_equal(outputs[name], expected[name]) for name in set(outputs) & set(expected))


def check_jobs(jobs: list[Job], graph_of: Callable[[str], Any], inputs_of: Callable[[Any], dict]) -> None:
    """Compare each ok job with ``interpret_reference``; one run per input."""
    references: dict = {}
    for job in jobs:
        if job.status != "ok":
            continue
        key = (job.program, job.input_key)
        if key not in references:
            graph = graph_of(job.program)
            try:
                references[key] = (graph, interpret_reference(graph, dict(inputs_of(job.input_key))), None)
            except Exception as exc:  # the check itself failed: not a pass
                references[key] = (graph, None, f"{type(exc).__name__}: {exc}")
        graph, expected, error = references[key]
        if error is not None:
            job.check_error = error
        else:
            job.wrong = not outputs_match(graph, job.outputs, expected)
        job.outputs = {}


def record_count(bench, inputs: dict) -> int:
    total = 0
    for name in bench.data_args:
        value = inputs.get(name)
        if isinstance(value, list):
            total += len(value)
    return total


def peak_rss_mb(extra_kb: int = 0) -> float:
    """Peak resident set of this process, plus ``extra_kb`` (a daemon's).

    Forked pool workers are left out: their pages are mostly the
    parent's, and whether a job ran pooled flips with the planner's
    wall-clock calibration, which would make the figure bimodal.
    """
    import resource

    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + extra_kb) / 1024.0


def process_peak_kb(pid: int) -> int:
    """``VmHWM`` of a live process, in KiB (0 where /proc is missing)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Phases:
    """Switches the wrappers on and off between the phases of a traced run."""

    def __init__(self, tracer: Optional[spans_mod.Tracer]) -> None:
        self.tracer = tracer
        self._undo: Optional[list] = None

    def on(self) -> None:
        if self.tracer is not None and self._undo is None:
            self._undo = layers.install(self.tracer)

    def off(self) -> None:
        if self._undo is not None:
            layers.uninstall(self._undo)
            self._undo = None

    def root(self, name: str, job: Any = None, fallback: bool = True):
        if self._undo is None:
            return _NullSpan()
        return self.tracer.root(name, job, fallback=fallback)


class _NullSpan:
    job = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


@dataclass
class Outcome:
    """What one workload run measured; ``run.py`` turns it into metrics.

    Times are scaled to the reference host speed (``hostspeed.py``).
    """

    setup_s: float = 0.0
    compile_s: float = 0.0
    compile_runs: list = field(default_factory=list)
    fragments_translated: int = 0
    jobs: list = field(default_factory=list)
    #: Timed jobs come in rounds of this many, one job of each kind.
    round_size: int = 1
    peak_rss_mb: float = 0.0
    cache_stats: dict = field(default_factory=dict)
    #: Traced runs: job ids of the traced window, and the overhead.
    traced_jobs: list = field(default_factory=list)
    overhead_share: float = 0.0
    notes: list = field(default_factory=list)

    def timed_jobs(self) -> list[Job]:
        return [job for job in self.jobs if job.timed]

    @property
    def window_s(self) -> float:
        """The timed jobs' scaled time: the window less probes and input making."""
        return sum(job.scaled_s for job in self.timed_jobs())


# ----------------------------------------------------------------------
# batch_scan and batch_shuffle: one caller, back-to-back jobs


@dataclass
class BatchJob:
    program: str
    input_key: str
    options: ExecOptions

    @property
    def kind(self) -> str:
        budget = self.options.memory_budget
        return self.program if budget is None else f"{self.program}@budget={budget}"


def pagecount_log(n: int, seed: int, pages: int) -> list:
    """Page-view records, Zipf over ``pages`` titles, drawn in one pass.

    ``datagen.wikipedia_log`` draws each record with its own weighted
    ``choices`` call, which is quadratic in the page count; the records
    here have the same shape and distribution.
    """
    rng = random.Random(seed)
    titles = [f"Page_{i}" for i in range(pages)]
    cumulative = list(itertools.accumulate(1.0 / (i + 1) for i in range(pages)))
    drawn = rng.choices(titles, cum_weights=cumulative, k=n)
    return [Instance("LogEntry", {"title": title, "views": rng.randint(1, 500)}) for title in drawn]


def scan_plan(seed: int, scale: float):
    """batch_scan: map-bound folds over one or a few keys."""
    sizes = {
        "ariths_sum": sized(50_000, scale),
        "ariths_dot_product": sized(50_000, scale),
        "stats_covariance": sized(50_000, scale),
        "tpch_q6": sized(25_000, scale),
    }
    inputs = {name: get_benchmark(name).make_inputs(n, seed + i) for i, (name, n) in enumerate(sizes.items())}
    auto = ExecOptions(plan="auto")
    jobs = [BatchJob(name, name, auto) for name in sizes]
    return list(sizes), inputs, jobs, 3, 5


def shuffle_plan(seed: int, scale: float):
    """batch_shuffle: keyed jobs with many distinct keys, spill and a join."""
    vocabulary = [f"w{i}" for i in range(50_000)]
    words = datagen.words(sized(100_000, scale), seed, zipf_s=1.1, pool=vocabulary)
    inputs = {
        "phoenix_wordcount": {"wordList": words},
        "biglambda_wikipedia_pagecount": {"log": pagecount_log(sized(50_000, scale), seed + 1, 20_000)},
        "joins_q3_revenue": get_benchmark("joins_q3_revenue").make_inputs(sized(600, scale), seed + 2),
    }
    auto = ExecOptions(plan="auto")
    jobs = [
        BatchJob("phoenix_wordcount", "phoenix_wordcount", auto),
        BatchJob("phoenix_wordcount", "phoenix_wordcount", ExecOptions(plan="auto", memory_budget=65_536)),
        BatchJob("biglambda_wikipedia_pagecount", "biglambda_wikipedia_pagecount", auto),
        BatchJob("joins_q3_revenue", "joins_q3_revenue", ExecOptions(plan="auto", memory_budget=512)),
    ]
    return list(inputs), inputs, jobs, 5, 7


def run_batch(plan_fn, seed: int, seconds: float, scale: float, tracer, host: HostClock) -> Outcome:
    """Set up (fresh session, cold registration, warm-up round), then the window.

    Each run sets up ``setups`` times and setup_s counts the median one:
    batch_shuffle's warm-up spill job alone moves set-up time by a
    second from run to run.  compile_s is the median of
    ``registrations`` cold registrations, the set-ups' included.
    """
    out = Outcome()
    phases = Phases(tracer)
    phases.on()  # a traced run also traces set-up (registration, warm-up)
    programs, inputs, round_jobs, setups, registrations = plan_fn(seed, scale)
    out.round_size = len(round_jobs)
    benches = {name: get_benchmark(name) for name in programs}
    session = None
    entries: dict = {}
    try:

        def run_round(timed: bool) -> list[Job]:
            done = []
            for spec in round_jobs:
                bench = benches[spec.program]
                with phases.root("session.run") as root:
                    started = time.perf_counter()
                    answer = session.run(entries[spec.program], dict(inputs[spec.input_key]), spec.options)
                    latency = time.perf_counter() - started
                    root.job = answer.job_id
                scaled = host.lap(latency)
                records = record_count(bench, inputs[spec.input_key])
                done.append(job_from_result(answer, spec.program, spec.input_key, records, latency, scaled, timed, spec.kind))
            return done

        def register(fresh: Session) -> tuple[float, dict]:
            """Cold registration of every program, one lap each; scaled seconds."""
            total, registered = 0.0, {}
            for name in programs:
                started = time.perf_counter()
                registered[name] = fresh.compile(benches[name].source, benches[name].function)
                total += host.since(started)
            return total, registered

        before_setup = host.since(host.started)  # imports and input generation
        setup_runs = []
        for _ in range(setups):
            if session is not None:
                session.close()
            session = Session(max_workers=0, compile_workers=COMPILE_WORKERS)
            with phases.root("setup.compile", job="setup"):
                compile_s, entries = register(session)
            out.compile_runs.append(compile_s)
            warmup = run_round(timed=False)
            out.jobs.extend(warmup)
            setup_runs.append(out.compile_runs[-1] + sum(job.scaled_s for job in warmup))
        out.setup_s = before_setup + median_or_zero(setup_runs)
        out.fragments_translated = sum(entry.translated for entry in entries.values())

        def window(budget: float) -> list[Job]:
            jobs: list[Job] = []
            started = time.perf_counter()
            while not jobs or time.perf_counter() - started < budget:
                jobs.extend(run_round(timed=True))  # whole rounds only
            return jobs

        if tracer is None:
            out.jobs.extend(window(seconds))
        else:
            phases.off()
            untraced = window(seconds / 2)
            phases.on()
            traced = window(seconds / 2)
            phases.off()
            out.overhead_share = median_or_zero([j.latency_s for j in traced]) / median_or_zero([j.latency_s for j in untraced]) - 1.0
            out.traced_jobs = [job.job_id for job in traced]
            for job in untraced:
                job.timed = False
            out.jobs.extend(untraced + traced)
        out.peak_rss_mb = peak_rss_mb()
        out.cache_stats = session.registry.cache.stats.as_dict()
        # A short registration is a small sample of a noisy host: more
        # registrations in fresh sessions after the window, and
        # compile_s is the median of all of them.
        while len(out.compile_runs) < registrations:
            with Session(max_workers=0, compile_workers=COMPILE_WORKERS) as fresh:
                out.compile_runs.append(register(fresh)[0])
        out.compile_s = median_or_zero(out.compile_runs)
    finally:
        phases.off()
        if session is not None:
            session.close()
    graphs = {name: entry.compilation.job_graph for name, entry in entries.items()}
    check_jobs(out.jobs, graphs.__getitem__, inputs.__getitem__)
    return out


def run_batch_scan(seed, seconds, scale, tracer, host):
    return run_batch(scan_plan, seed, seconds, scale, tracer, host)


def run_batch_shuffle(seed, seconds, scale, tracer, host):
    return run_batch(shuffle_plan, seed, seconds, scale, tracer, host)


# ----------------------------------------------------------------------
# serve_small: closed loop against a daemon

SERVE_PROGRAMS = ("ariths_sum", "ariths_dot_product", "stats_histogram", "phoenix_wordcount")
SERVE_REGISTRATIONS = 6
SERVE_DAEMON_WORKERS = 2
SERVE_RECORDS = 5_000
#: Inputs are made this many at a time, with the window's clock
#: stopped, so that the client's memory does not grow with the window.
SERVE_INPUT_BATCH = 16


class DaemonProcess:
    """``python -m repro.serve`` on an ephemeral port, with its cache dir."""

    def __init__(self, cache_dir: Path, workers: int) -> None:
        self.cache_dir = cache_dir
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "--port",
                "0",
                "--max-workers",
                str(workers),
                "--cache-dir",
                str(cache_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
            cwd=str(ROOT),
        )
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, args=(lines,), daemon=True)
        self._reader.start()
        deadline = time.monotonic() + 60
        self.address = None
        while self.address is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                self.close()
                raise RuntimeError("serve daemon did not report its address")
            try:
                line = lines.get(timeout=min(remaining, 1.0))
            except queue.Empty:
                continue
            if "listening at" in line:
                self.address = line.rsplit(" ", 1)[-1].strip()

    def _read(self, lines: queue.Queue) -> None:
        for line in self.proc.stdout:
            lines.put(line)

    def peak_kb(self) -> int:
        return process_peak_kb(self.proc.pid) if self.proc.poll() is None else 0

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self._reader.join(timeout=5)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class InProcessDaemon:
    """The traced run hosts ``serve.daemon.serve`` on a thread instead."""

    def __init__(self, cache_dir: Path, workers: int) -> None:
        from repro.serve.daemon import serve

        self.daemon = serve(cache_dir=str(cache_dir), max_workers=workers)
        self.address = self.daemon.address

    def peak_kb(self) -> int:
        return 0  # the daemon's memory is this process's

    def close(self) -> None:
        self.daemon.shutdown()


def serve_input(seed: int, index: int, records: int) -> tuple[str, dict]:
    """The ``index``-th job's program and fresh input, round-robin."""
    name = SERVE_PROGRAMS[index % len(SERVE_PROGRAMS)]
    return name, get_benchmark(name).make_inputs(records, seed * 1_000_003 + index)


def run_serve_small(
    seed, seconds, scale, tracer, host: HostClock, fail_job: Optional[int] = None
) -> Outcome:
    """One client in a closed loop: the next job is sent when the last ends.

    One client, not two: two clients and the daemon saturate both CPUs
    of a two-CPU host, and job_p50_s and jobs_per_s then spread
    0.27-0.30 (quartile distance over the median, ten seeds) against
    0.09-0.10 with one client, which also completed more jobs per second.
    """
    out = Outcome(round_size=len(SERVE_PROGRAMS))  # round-robin over the programs
    out.setup_s = host.since(host.started)  # imports
    phases = Phases(tracer)
    records = sized(SERVE_RECORDS, scale)
    cache_dir = ROOT / ".perfbench-out" / f"serve-cache-{os.getpid()}-{seed}"
    cache_dir.mkdir(parents=True, exist_ok=True)
    daemon = None
    daemon_peak_kb = 0
    try:
        if tracer is not None:
            phases.on()
            out.notes.append("serve_small traced run hosts the daemon in-process (serve.daemon.serve on a thread)")
        benches = {name: get_benchmark(name) for name in SERVE_PROGRAMS}

        def start_and_register():
            """A fresh daemon with the four programs registered cold.

            Returns the registrations and the scaled time of the daemon's start.
            """
            nonlocal daemon
            started = time.perf_counter()
            daemon_dir = cache_dir / f"daemon-{len(out.compile_runs)}"
            daemon_dir.mkdir()
            daemon = (DaemonProcess if tracer is None else InProcessDaemon)(daemon_dir, SERVE_DAEMON_WORKERS)
            client = repro.connect(daemon.address)
            start_s = host.since(started)
            compile_s, remote = 0.0, {}
            with phases.root("setup.compile", job="setup"):
                for name, bench in benches.items():
                    started = time.perf_counter()
                    remote[name] = client.compile(bench.source, bench.function)
                    compile_s += host.since(started)
            out.compile_runs.append(compile_s)
            return remote, start_s

        remote, start_s = start_and_register()
        out.setup_s += start_s + out.compile_runs[0]
        out.fragments_translated = sum(r.translated for r in remote.values())
        client = repro.connect(daemon.address)
        options = ExecOptions(plan="auto")
        next_index = itertools.count()

        def one_job(index: int, name: str, payload: dict, timed: bool) -> Job:
            if index == fail_job:
                payload = {}  # a job that fails: its inputs are missing
            with phases.root("session.run", fallback=False) as root:
                started = time.perf_counter()
                handle = client.submit(remote[name], payload, options)
                root.job = handle.job_id
                answer = handle.result()
                latency = time.perf_counter() - started
            scaled = host.lap(latency)
            return job_from_result(answer, name, index, record_count(benches[name], payload), latency, scaled, timed)

        for _ in range(2 * len(SERVE_PROGRAMS)):  # warm-up
            started = time.perf_counter()
            index = next(next_index)
            name, payload = serve_input(seed, index, records)
            out.setup_s += host.since(started)
            out.jobs.append(one_job(index, name, payload, timed=False))
            out.setup_s += out.jobs[-1].scaled_s

        def window(budget: float) -> list[Job]:
            """Jobs until ``budget`` seconds of the loop, input making excluded."""
            jobs: list[Job] = []
            pending: list = []
            paused = 0.0
            started = time.perf_counter()
            while time.perf_counter() - started - paused < budget:
                if not pending:
                    making = time.perf_counter()
                    indices = [next(next_index) for _ in range(SERVE_INPUT_BATCH)]
                    pending = [(index, *serve_input(seed, index, records)) for index in reversed(indices)]
                    paused += time.perf_counter() - making
                jobs.append(one_job(*pending.pop(), timed=True))
            return jobs

        if tracer is None:
            out.jobs.extend(window(seconds))
        else:
            phases.off()
            untraced = window(seconds / 2)
            phases.on()
            traced = window(seconds / 2)
            phases.off()
            out.overhead_share = median_or_zero([j.latency_s for j in traced]) / median_or_zero([j.latency_s for j in untraced]) - 1.0
            out.traced_jobs = [job.job_id for job in traced]
            for job in untraced:
                job.timed = False
            out.jobs.extend(untraced + traced)
        out.cache_stats = client.health()["registry"]["cache"]
        daemon_peak_kb = daemon.peak_kb()
        # One registration is a short sample of a noisy host: fresh
        # daemons register again after the window, spreading the samples
        # over the run, and compile_s is their median.
        while len(out.compile_runs) < SERVE_REGISTRATIONS:
            daemon.close()
            start_and_register()
        out.compile_s = median_or_zero(out.compile_runs)
    finally:
        phases.off()
        if daemon is not None:
            daemon.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
    out.peak_rss_mb = peak_rss_mb(daemon_peak_kb)

    # References: compile each program locally for its job graph, and
    # make each job's input again from its index.
    graphs = {}

    def graph_of(name: str):
        if name not in graphs:
            bench = benches[name]
            graphs[name] = repro.translate(bench.source, bench.function).job_graph
        return graphs[name]

    check_jobs(out.jobs, graph_of, lambda index: serve_input(seed, index, records)[1])
    return out


WORKLOADS: dict[str, tuple[Callable, str]] = {
    "batch_scan": (
        run_batch_scan,
        "map-bound folds over few keys: scan, column extraction, compiled kernels and sizeof accounting; the shuffle is nearly empty",
    ),
    "batch_shuffle": (
        run_batch_shuffle,
        "keyed jobs with many distinct keys, a spilling run and a join: shuffle, spill and join layers work, unlike batch_scan",
    ),
    "serve_small": (
        run_serve_small,
        "closed loop, one client, fresh 5k-record jobs on a serve daemon: fixed per-job costs (HTTP, codec, admission, planning) dominate",
    ),
}
