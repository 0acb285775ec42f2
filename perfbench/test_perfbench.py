"""Tests of the benchmark itself: every workload runs at tiny size and prints
every metric BENCHMARK.json names, the oracles reject corrupted outputs, and
the command fails cleanly where the library sources are missing."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench_jobs  # noqa: E402
import bench_oracle  # noqa: E402
import host_speed  # noqa: E402
from bench_trace import NullTracer, Tracer, self_times, summarize  # noqa: E402

from amalgrowth import catalog_load  # noqa: E402
from amalgrowth.tree import neighbors, tree_distance  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench_jobs.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace, tmp_path):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--size", "tiny"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    record = tmp_path / ".perfbench" / f"{workload}-seed3-trace{trace}.json"
    stored = json.loads(record.read_text())
    assert stored["attempted"] == result["attempted"]
    assert {"failed", "inconclusive", "failed_share"} <= set(stored)


def test_job_list_depends_only_on_the_seed():
    ref = bench_jobs.load_reference()
    for workload in bench_jobs.WORKLOADS:
        a = [j.id for j in bench_jobs.build_jobs(workload, 5, ref)]
        b = [j.id for j in bench_jobs.build_jobs(workload, 5, ref)]
        assert a == b
    many = {w: [j.id for j in bench_jobs.build_jobs("many_gensets", w, ref)]
            for w in (5, 6)}
    assert many[5] != many[6]


def _probe(kind):
    """The fixed probe job of that kind, run and checked."""
    ref = bench_jobs.load_reference()
    probes = bench_jobs.probe_jobs("deep_ball", ref) + bench_jobs.probe_jobs("tree_certs", ref)
    job = next(j for j in probes if j.kind == kind)
    out = bench_jobs.run_job(job, NullTracer())
    assert bench_jobs.check_job(job, out) is None
    return job, out


def test_oracle_rejects_off_by_one_sphere_count():
    job, out = _probe("deep")
    sphere = list(out["sphere"])
    sphere[9] += 1
    bad = dict(out, sphere=sphere, ball=[sum(sphere[:k + 1]) for k in range(len(sphere))])
    assert bench_jobs.check_job(job, bad) is not None
    # without the stored counts, the documented recurrence still catches it
    job.ref = dict(job.ref, sphere=sphere)
    assert "recurrence" in bench_jobs.check_job(job, bad)


def test_oracle_rejects_tampered_axis_vertex():
    job, out = _probe("axis")
    verts = list(out["vertices"])
    spec = catalog_load(job.entry).spec
    # swap an inner axis vertex for one of its neighbours off the axis
    i, w = next((i, w) for i, v in enumerate(verts[1:-1], 1)
                for w in neighbors(spec, v) if w not in verts)
    verts[i] = w
    bad = dict(out, vertices=verts)
    assert bench_jobs.check_job(job, bad) is not None
    # with a reference that agrees with the tampered set, the displacement
    # and adjacency checks still catch it
    job.ref = dict(job.ref, vertices_sha=bench_oracle.vertex_digest(verts))
    assert "axis vertex" in bench_jobs.check_job(job, bad) or \
        "adjacent" in bench_jobs.check_job(job, bad)


def test_oracle_rejects_a_certificate_that_lost_its_elements():
    job, out = _probe("split")
    assert out["replay"] is True
    cert = json.loads(json.dumps(out["certificate"]))
    cert["elements"] = [cert["elements"][0], dict(cert["elements"][0], role="right")]
    assert bench_jobs.check_job(job, dict(out, certificate=cert)) is not None


def test_oracle_tree_distance_agrees_with_library():
    job, out = _probe("axis")
    verts = out["vertices"]
    for u in verts:
        for v in verts:
            assert bench_oracle.vertex_distance(u, v) == tree_distance(u, v)


def test_self_time_subtracts_children():
    spans = [(0, "job", 0, 100, None, "j"), (1, "a", 10, 40, 0, "j"),
             (2, "b", 50, 60, 0, "j"), (3, "c", 15, 20, 1, "j")]
    assert self_times(spans) == {0: 60, 1: 25, 2: 10, 3: 5}
    assert summarize(spans)["a"] == {"calls": 1, "total_ns": 30, "self_ns": 25}
    tr = Tracer()
    tr.job = "x"
    assert tr.call("outer", lambda: tr.call("inner", lambda: 7)) == 7
    assert [s[1] for s in tr.spans] == ["outer", "inner"]
    assert tr.spans[1][4] == 0 and tr.spans[0][4] is None


def test_host_speed_correction():
    ref = host_speed.REFERENCE_S
    assert host_speed.scale([ref, ref], 1.0) == pytest.approx(1.0)
    # a loop running at half speed: the slowdown is taken out in full, or
    # in part for work that slows down less than the loop does
    assert host_speed.scale([2 * ref, 2 * ref], 1.0) == pytest.approx(0.5)
    assert host_speed.scale([2 * ref, 2 * ref], 0.5) == pytest.approx(0.5 ** 0.5)
    meter = host_speed.Meter()
    meter.samples = [(0.0, ref), (9.5, 3 * ref), (10.0, ref), (10.1, ref), (40.0, 3 * ref)]
    # a short job is judged by its own brackets, a long one by the samples
    # within its own length around it
    assert meter.scale(10.0, 10.1, 1.0) == pytest.approx(1.0)
    assert meter.scale(10.0, 20.0, 1.0) == pytest.approx(4 / 6)
    assert set(bench_jobs.SENSITIVITY) == {"deep", "stream", *bench_jobs.TREE_KINDS}
    assert host_speed.loop_seconds() > 0


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "tree_certs", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
