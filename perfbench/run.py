"""The repository benchmark: one workload per process, seeded inputs, checked
outputs.

    python3 perfbench/run.py --workload deep_ball --seed 1 --seconds 45 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  deep_ball     enumerate_balls deep on five default generating sets, then
                fit_recurrence(guard=4) and dominant_root
  many_gensets  seeded random generating sets streamed with sphere_stream
                until the first exact fit, then dominant_root
  tree_certs    axis_segment, fixed_set, certify_free_monoid and
                certify_free_split (each certificate replayed) at one radius

The job list is built from the seed before timing starts.  The run repeats
passes over it until at least `--seconds` of jobs were measured, stopping at
a job boundary once two whole passes are done, and checks every output
against `bench_oracle` afterwards.  Job and set-up times are reported at a
reference host speed (see host_speed).  With `--trace 0` it
prints the end-to-end metrics; with `--trace 1` it alternates untraced and
traced passes and prints the per-layer metrics.  The last stdout line is the
result object; a record of the run (and its spans, when traced) is written
under `.perfbench/` in the working directory.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "amalgrowth" / "__init__.py").is_file():
    sys.exit(f"perfbench: no library sources at {SRC / 'amalgrowth'}")
sys.path.insert(0, str(SRC))
from amalgrowth import NormalForm, catalog_load, identity_nf, invert, multiply  # noqa: E402
from amalgrowth.tree import tree_distance  # noqa: E402

from bench_jobs import (  # noqa: E402
    SENSITIVITY,
    SETUP_SENSITIVITY,
    WORKLOADS,
    build_jobs,
    check_job,
    inconclusive,
    load_reference,
    probe_jobs,
    run_job,
)
import host_speed  # noqa: E402
from bench_trace import SPAN_FIELDS, NullTracer, Tracer, summarize  # noqa: E402

NULL = NullTracer()
OUT_DIR = ".perfbench"
SETUP_SAMPLES = 15
PROBE_REPEATS = 3
MICRO_REPEATS = 7
MICRO_OPS = 20_000
CORPUS_CAP = 20_000
HARVEST_FRONTIER = 1000
HARVEST_SAMPLE = 200


@dataclass
class Record:
    job: object
    start: float
    seconds: float
    out: dict | None
    error: str | None
    traced: bool = False
    scale: float = 1.0        # host_speed.Meter.scale around the job

    @property
    def corrected(self) -> float:
        """The job's time at the reference host speed."""
        return self.seconds * self.scale


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def setup_seconds(setup: list[dict], key: str = "setup_s") -> list[float]:
    """Set-up times at the reference host speed."""
    return [s[key] * host_speed.scale(s["loop_s"], SETUP_SENSITIVITY) for s in setup]


def measure_setup(entries: list[str], samples: int) -> list[dict]:
    """Cold set-up, each sample in a fresh interpreter."""
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *entries],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def run_one(job, tr, label: str, meter: host_speed.Meter) -> Record:
    gc.collect()
    tr.job = f"{label}:{job.id}"
    meter.before()
    t0 = time.perf_counter()
    try:
        out, error = tr.call("job." + job.kind, run_job, job, tr), None
    except Exception as exc:  # a job that raises is counted as failed
        out, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    meter.after()
    return Record(job, t0, seconds, out, error, tr is not NULL)


def measure(jobs_list, seconds: float, trace: bool, tracer: Tracer,
            meter: host_speed.Meter) -> list[Record]:
    """Passes over the job list until `seconds` of jobs were measured, ending
    at a job boundary once two whole passes are done (untraced, or in a
    traced run one untraced and one traced, alternating)."""
    whole = 2
    records: list[Record] = []
    spent = 0.0
    k = 0
    while True:
        tr = tracer if trace and k % 2 == 1 else NULL
        for job in jobs_list:
            if spent >= seconds and k >= whole:
                return records
            records.append(run_one(job, tr, f"pass{k}", meter))
            spent += records[-1].seconds
        k += 1
        if spent >= seconds and k >= whole:
            return records


def per_job_seconds(records: list[Record], corrected: bool = True) -> dict[str, float]:
    """Each job's median time over its samples, at the reference host speed
    (see host_speed) unless `corrected` is false.  Summed over the job list
    this is the time of one pass, whatever share of the last pass was run."""
    times = defaultdict(list)
    for r in records:
        times[r.job.id].append(r.corrected if corrected else r.seconds)
    return {k: statistics.median(v) for k, v in times.items()}


def check(records: list[Record]) -> tuple[int, int, list[str]]:
    """(failed, inconclusive, failure reasons) over the records."""
    failed, undecided, reasons = 0, 0, []
    for r in records:
        reason = r.error if r.out is None else check_job(r.job, r.out)
        if reason is not None:
            failed += 1
            reasons.append(f"{r.job.id}: {reason}")
        elif inconclusive(r.job, r.out):
            undecided += 1
    return failed, undecided, reasons


# --- end-to-end metrics -----------------------------------------------------

def whole_passes(records: list[Record], jobs_per_pass: int) -> list[Record]:
    """The records of the completed passes, so that every job counts equally."""
    return records[:len(records) - len(records) % jobs_per_pass]


def job_times_ms(records: list[Record], corrected: bool = True) -> list[float]:
    """Each job's median time (see per_job_seconds).  Percentiles are taken
    over these, since a single slow sample of one of the few long jobs
    otherwise moves the tail percentiles from run to run."""
    return [s * 1000 for s in per_job_seconds(records, corrected).values()]


def end_to_end(records: list[Record], setup: list[dict], attempted: int,
               failed: int) -> dict:
    per_job = per_job_seconds(records)
    busy = sum(per_job.values())
    elements = {r.job.id: r.out["elements"] for r in records if r.out}
    ms = job_times_ms(records)
    return {
        "setup_s": (statistics.median(setup_seconds(setup)), "s"),
        "jobs_per_s": (len(per_job) / busy, "1/s"),
        "job_p50_ms": (statistics.median(ms), "ms"),
        "job_p90_ms": (_percentile(ms, 90), "ms"),
        "elements_per_s": (sum(elements.values()) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": ((attempted - failed) / attempted, "share"),
    }


# --- per-layer metrics ------------------------------------------------------

LAYER_KINDS = {
    "growth": ("deep", "stream"),
    "tree": ("axis", "fixed"),
    "pingpong": ("monoid", "split"),
}


def _span_ms(spans, name: str) -> float:
    return _mean((s[3] - s[2]) / 1e6 for s in spans if s[1] == name)


def _span_seconds_per_job(spans, prefix: str) -> dict[str, float]:
    """Each job's time in spans named prefix*, averaged over its runs."""
    per_run = defaultdict(float)
    for s in spans:
        if s[1].startswith(prefix):
            per_run[s[5]] += (s[3] - s[2]) / 1e9
    per_job = defaultdict(list)
    for label, secs in per_run.items():
        per_job[label.split(":", 1)[1]].append(secs)
    return {job: _mean(v) for job, v in per_job.items()}


def _harvest_products(records: list[Record], rng: random.Random) -> list[tuple]:
    """(spec, x, y) multiplication pairs the workload performs: frontier
    elements times letters for ball jobs, group elements times vertex
    representatives for tree jobs."""
    pairs, seen_jobs = [], set()
    for r in records:
        if r.out is None or r.job.id in seen_jobs:
            continue
        seen_jobs.add(r.job.id)
        spec = catalog_load(r.job.entry).spec
        if r.job.kind in LAYER_KINDS["growth"]:
            gens = r.job.gens.elements
            letters = list({g.key(): g for g in
                            list(gens) + [invert(spec, g) for g in gens]}.values())
            seen = {identity_nf(spec).key()}
            frontier = [identity_nf(spec)]
            while 0 < len(frontier) < HARVEST_FRONTIER:
                nxt = []
                for x in frontier:
                    for g in letters:
                        y = multiply(spec, x, g)
                        if y.key() not in seen:
                            seen.add(y.key())
                            nxt.append(y)
                frontier = nxt
            sample = rng.sample(frontier, min(len(frontier), HARVEST_SAMPLE))
            pairs += [(spec, x, g) for x in sample for g in letters]
            continue
        if r.job.kind in LAYER_KINDS["tree"]:
            g = r.job.inputs[0]
            pairs += [(spec, g, NormalForm(v.key, spec.C.identity))
                      for v in r.out["vertices"]]
        pairs += [(spec, x, y) for x in r.job.inputs for y in r.job.inputs]
    return pairs if len(pairs) <= CORPUS_CAP else rng.sample(pairs, CORPUS_CAP)


def _harvest_vertex_pairs(records: list[Record], rng: random.Random) -> list[tuple]:
    pairs = []
    for r in records:
        if r.out is not None and r.job.kind in LAYER_KINDS["tree"]:
            verts = r.out["vertices"]
            pairs += [(u, v) for u in verts for v in verts]
    return pairs if len(pairs) <= CORPUS_CAP else rng.sample(pairs, CORPUS_CAP)


def _per_op_seconds(fn, corpus: list[tuple]) -> float:
    """Median over repeats of the mean time of fn(*args) over the corpus,
    each repeat cycling the corpus for at least MICRO_OPS calls."""
    cycles = -(-MICRO_OPS // len(corpus))
    runs = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        for _ in range(cycles):
            for args in corpus:
                fn(*args)
        runs.append((time.perf_counter() - t0) / (cycles * len(corpus)))
    return statistics.median(runs)


def per_layer(records: list[Record], probe: list[Record], pass_spans, probe_spans,
              setup: list[dict], seed: int) -> dict:
    """Layer metrics from the traced passes; a layer the workload never calls
    is measured on the probe jobs instead."""
    traced = [r for r in records if r.traced]

    def source(layer):
        """One record per job of the layer's kinds, and the spans to read."""
        kinds = LAYER_KINDS[layer]
        for recs, spans in ((traced, pass_spans), (probe, probe_spans)):
            jobs = {r.job.id: r for r in recs if r.job.kind in kinds and r.out}
            if jobs:
                return list(jobs.values()), spans
        raise ValueError(f"no {layer} jobs ran")

    grow, gspans = source("growth")
    growth_s = sum(_span_seconds_per_job(gspans, "growth.").values())
    multiplies = sum(r.out["multiplies"] for r in grow)
    fit_calls = sum(r.out["fit_calls"] for r in grow)
    tree_recs, tspans = source("tree")
    pp, pspans = source("pingpong")
    certs = [r.out["certificate"] for r in pp if r.out["certificate"]]

    rng = random.Random(seed)
    products = _harvest_products(traced + probe, rng)
    vertex_pairs = _harvest_vertex_pairs(traced + probe, rng)

    def busy(traced_pass: bool) -> float:
        return sum(per_job_seconds([r for r in records if r.traced == traced_pass]).values())

    return {
        "amalgam.multiply_ns": (_per_op_seconds(multiply, products) * 1e9, "ns"),
        "amalgam.multiplies": (multiplies / len(grow), "count"),
        "growth.enumerate_s": (growth_s / len(grow), "s"),
        "growth.elements_per_s": (sum(r.out["elements"] for r in grow) / growth_s, "1/s"),
        "growth.dup_ratio": (sum(r.out["new"] for r in grow) / multiplies, "share"),
        "spectral.fit_ms": (_span_ms(gspans, "spectral.fit_recurrence"), "ms"),
        "spectral.fit_calls": (fit_calls / len(grow), "count"),
        "spectral.fit_hit_ratio": (sum(r.out["fit_hits"] for r in grow) / fit_calls, "share"),
        "spectral.root_ms": (_span_ms(gspans, "spectral.dominant_root"), "ms"),
        "tree.axis_segment_ms": (_span_ms(tspans, "tree.axis_segment"), "ms"),
        "tree.fixed_set_ms": (_span_ms(tspans, "tree.fixed_set"), "ms"),
        "tree.classify_ms": (_span_ms(tspans, "tree.classify"), "ms"),
        "tree.tree_distance_us": (_per_op_seconds(tree_distance, vertex_pairs) * 1e6, "us"),
        "tree.output_vertices": (_mean(len(r.out["vertices"]) for r in tree_recs), "count"),
        "pingpong.certify_monoid_ms": (_span_ms(pspans, "pingpong.certify_free_monoid"), "ms"),
        "pingpong.certify_split_ms": (_span_ms(pspans, "pingpong.certify_free_split"), "ms"),
        "pingpong.replay_ms": (_span_ms(pspans, "pingpong.replay"), "ms"),
        "pingpong.certified_share": (len(certs) / len(pp), "share"),
        "pingpong.checks_per_cert": (_mean(len(c["checks"]) for c in certs), "count"),
        "catalog.load_ms": (statistics.median(setup_seconds(setup, "load_s")) * 1000, "ms"),
        "trace.overhead_share": (busy(True) / busy(False) - 1, "share"),
    }


# --- the run ----------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    ref = load_reference()
    jobs_list = build_jobs(workload, seed, ref, tiny=tiny)
    setup = measure_setup(sorted({j.entry for j in jobs_list}),
                          3 if tiny else SETUP_SAMPLES)
    pass_tracer, probe_tracer = Tracer(), Tracer()
    meter = host_speed.Meter()
    records = measure(jobs_list, seconds, trace, pass_tracer, meter)
    probe = [run_one(job, probe_tracer, "probe", meter)
             for _ in range(PROBE_REPEATS) for job in probe_jobs(workload, ref)] if trace else []
    for r in records + probe:
        r.scale = meter.scale(r.start, r.start + r.seconds, SENSITIVITY[r.job.kind])
    attempted = len(records) + len(probe)
    failed, undecided, reasons = check(records + probe)
    if trace:
        metrics = per_layer(records, probe, pass_tracer.spans, probe_tracer.spans,
                            setup, seed)
    else:
        metrics = end_to_end(records, setup, attempted, failed)

    ms = [r.corrected * 1000 for r in whole_passes(records, len(jobs_list))]
    p90 = _percentile(job_times_ms(records), 90)
    raw_ms = job_times_ms(records, corrected=False)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "jobs_per_pass": len(jobs_list),
        "job_samples": len(ms), "samples_beyond_p90": sum(m > p90 for m in ms),
        "attempted": attempted, "failed": failed, "inconclusive": undecided,
        "failed_share": failed / attempted, "failures": reasons[:50],
        "setup_samples": setup,
        "host_scale": {"min": min(r.scale for r in records),
                       "median": statistics.median(r.scale for r in records),
                       "max": max(r.scale for r in records)},
        "uncorrected": {"setup_s": statistics.median(s["setup_s"] for s in setup),
                        "jobs_per_s": len(raw_ms) / sum(raw_ms) * 1000,
                        "job_p50_ms": statistics.median(raw_ms),
                        "job_p90_ms": _percentile(raw_ms, 90)},
        "samples": [(r.job.id, r.seconds, r.scale) for r in records],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = Path(OUT_DIR)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        spans = {"fields": SPAN_FIELDS,
                 "passes": {"spans": pass_tracer.spans,
                            "summary": summarize(pass_tracer.spans)},
                 "probe": {"spans": probe_tracer.spans,
                           "summary": summarize(probe_tracer.spans)}}
        with open(out_dir / f"{stem}-spans.json", "w") as fh:
            json.dump(spans, fh)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few small jobs, for the benchmark's tests")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 tiny=args.size == "tiny")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
