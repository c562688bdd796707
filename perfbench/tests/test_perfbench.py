"""Tests of the benchmark itself (not part of the repo's tier-1 suite).

    python3 -m pytest perfbench/tests -q

Every workload runs at a tiny size (``--scale``), so the whole file
takes about two minutes on two CPUs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, run, spans, workloads  # noqa: E402
from perfbench.hostspeed import HostClock  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.01


def bench(workload: str, seed: int, trace: int, seconds: float = 1) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--scale", str(TINY)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


# ----------------------------------------------------------------------
# The declared metrics


def test_declared_metrics_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.LAYER_METRICS
    ]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_workload_prints_every_metric_with_its_unit(workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result, text = bench(workload, seed=3, trace=trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert "wrong_outputs = 0 count" in text and "failed_share = 0.0000 ratio" in text
        if trace:
            assert "unattributed remainder of root spans" in text and "tracing overhead" in text
            chrome = json.loads((ROOT / ".perfbench-out" / f"{workload}-seed3.chrome.json").read_text())
            assert chrome["traceEvents"] and all(e["ph"] == "X" for e in chrome["traceEvents"])
        else:
            for name, _ in run.END_TO_END:
                assert f"{name} = " in text, name


def test_a_second_seed_passes_the_output_checks():
    for workload in ("batch_scan", "batch_shuffle"):
        result, _ = bench(workload, seed=4, trace=0)
        assert result["correct"] is True and result["failed"] == 0


# ----------------------------------------------------------------------
# Output checks


def test_an_injected_wrong_output_is_counted(monkeypatch, capsys):
    original = workloads.job_from_result
    corrupted = []

    def corrupt(result, *args, **kwargs):
        job = original(result, *args, **kwargs)
        if not corrupted and job.outputs:
            name = sorted(job.outputs)[0]
            job.outputs[name] = job.outputs[name] + 1
            corrupted.append(job.job_id)
        return job

    monkeypatch.setattr(workloads, "job_from_result", corrupt)
    assert run.main(["--workload", "batch_scan", "--seed", "5", "--seconds", "1",
                     "--trace", "0", "--scale", str(TINY)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert corrupted
    assert result["correct"] is False and result["failed"] == 1
    assert "wrong_outputs = 1 count" in lines
    share = next(line for line in lines if line.startswith("failed_share = "))
    assert float(share.split()[2]) > 0


def test_a_reference_that_cannot_be_computed_is_a_failure(monkeypatch):
    def broken(graph, inputs):
        raise RuntimeError("interpreter step budget exceeded")

    monkeypatch.setattr(workloads, "interpret_reference", broken)
    job = workloads.Job("j1", "p", "k", 1, 0.1, "ok", outputs={"t": 1})
    workloads.check_jobs([job], lambda name: None, lambda key: {})
    assert job.failed and not job.wrong and "step budget" in job.check_error


# ----------------------------------------------------------------------
# The serve workload cleans up


def _capture_daemons(monkeypatch) -> list:
    started = []
    original = workloads.DaemonProcess

    class Recorded(original):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(workloads, "DaemonProcess", Recorded)
    return started


def _serve_cache_dirs() -> set:
    out = ROOT / ".perfbench-out"
    return set(out.glob("serve-cache-*")) if out.exists() else set()


def test_serve_cleans_up_when_a_job_fails(monkeypatch):
    daemons = _capture_daemons(monkeypatch)
    before = _serve_cache_dirs()
    out = workloads.run_serve_small(6, 1.0, TINY, None, HostClock(), fail_job=9)
    assert [job.status for job in out.jobs].count("error") == 1
    assert sum(job.failed for job in out.jobs) == 1
    assert daemons and all(d.proc.poll() is not None for d in daemons)
    assert _serve_cache_dirs() == before


def test_serve_cleans_up_when_the_run_raises(monkeypatch):
    daemons = _capture_daemons(monkeypatch)
    before = _serve_cache_dirs()

    def boom(*args, **kwargs):
        raise RuntimeError("input generation failed")

    monkeypatch.setattr(workloads, "serve_input", boom)
    with pytest.raises(RuntimeError, match="input generation failed"):
        workloads.run_serve_small(7, 1.0, TINY, None, HostClock())
    assert daemons and all(d.proc.poll() is not None for d in daemons)
    assert _serve_cache_dirs() == before


# ----------------------------------------------------------------------
# Spans and wrappers


def test_self_time_subtracts_children_union_and_hot_calls():
    tracer = spans.Tracer()
    with tracer.root("session.run", job="j1") as root:
        with tracer.span("a"):
            time.sleep(0.02)
            with tracer.span("b"):
                time.sleep(0.02)
        tracer.hot_call("engine.sizeof", time.sleep, (0.01,), {})
        time.sleep(0.01)
    recorded = tracer.spans()
    selfs = spans.self_times(recorded)
    by_name = {s.name: s for s in recorded}
    assert abs(sum(selfs.values()) - root.duration) < 0.005 + by_name["session.run"].hot
    assert 0.005 <= selfs[root.sid] <= 0.02
    assert selfs[by_name["a"].sid] == pytest.approx(0.02, abs=0.01)
    assert tracer.hot_totals()["engine.sizeof"][0] == 1
    jobs = spans.resolve_jobs(recorded)
    assert {jobs[s.sid] for s in recorded} == {"j1"}


def test_parentless_spans_link_to_their_job_root():
    tracer = spans.Tracer()
    with tracer.root("session.run", fallback=False) as root:
        root.job = "job-7"
    with tracer.span("session.execute", job="job-7"):
        pass
    recorded = tracer.spans()
    spans.link_jobs(recorded, "session.run")
    execute = next(s for s in recorded if s.name == "session.execute")
    assert execute.parent == root.sid


def test_install_wraps_every_target_and_uninstall_restores():
    import repro.engine.multiprocess as multiprocess
    import repro.engine.sizes as sizes
    from repro.verification.bounded import BoundedChecker

    before = (sizes.sizeof, multiprocess.sizeof, BoundedChecker.check)
    undo = layers.install(spans.Tracer())
    try:
        assert multiprocess.sizeof is sizes.sizeof and sizes.sizeof is not before[0]
        assert BoundedChecker.check is not before[2]
        assert sizes.sizeof([1, [2, 3]]) == before[0]([1, [2, 3]])
    finally:
        layers.uninstall(undo)
    assert (sizes.sizeof, multiprocess.sizeof, BoundedChecker.check) == before


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def session_processes(sid: int) -> list[str]:
    """Processes, zombies included, of session ``sid`` (from /proc)."""
    found = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid:
            found.append(stat)
    return found


SPAWNER = """
import subprocess, sys
from multiprocessing import resource_tracker
sys.path[:0] = sys.argv[1:2]
from perfbench import run
run.adopt_orphans()
resource_tracker.ensure_running()
# A child that exits at once, leaving a grandchild behind.
subprocess.run(["sh", "-c", "sleep 1 &"], check=True)
run.reap_children()
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_a_run_leaves_no_process_behind():
    proc = subprocess.Popen([sys.executable, "-c", SPAWNER, str(ROOT)], cwd=str(ROOT), start_new_session=True)
    assert proc.wait(timeout=60) == 0
    assert session_processes(proc.pid) == []
