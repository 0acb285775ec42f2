"""Regenerate `reference.json`: the workloads' jobs and the reference outputs
their oracles compare against.

    python3 perfbench/make_reference.py

The jobs come from a fixed seed.  Every job is run with the library as it
stands, its output must pass the oracle's property checks, and its sphere
counts, digests, certification status and median cost (used to pick the
cheapest jobs for probes and tiny runs) are stored.  Regenerate only on purpose: the stored values are what
later versions of the library are held to.
"""
from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from amalgrowth import catalog_load, classify, identity_nf, invert, is_identity, multiply, parse_word  # noqa: E402
from amalgrowth.growth import GenSetError  # noqa: E402

import bench_jobs as jobs  # noqa: E402
import bench_oracle as oracle  # noqa: E402
from bench_trace import NullTracer  # noqa: E402

JOB_SEED = 20121209
DEEP = (("c2*c3", 21), ("pgl2z", 33), ("c2*c5", 18), ("c2*c4", 22), ("c2*c2xc2", 20))
STREAM_ENTRIES = ("c2*c3", "pgl2z", "c2*c5", "c2*c4", "c2*c2xc2")
STREAMS_PER_ENTRY = 10
STREAM_BUDGET = 100_000
TREE_ENTRIES = ("pgl2z", "c2*c3", "c2*c4", "c2*c5")
TREE_PER_CELL = 5
TREE_RADIUS = 12
COST_RUNS = 3


def _token(rng: random.Random, names: list[str]) -> str:
    return rng.choice(names) + rng.choice(("", "^-1"))


def _random_word(rng: random.Random, names: list[str], lo: int, hi: int) -> str:
    return " ".join(_token(rng, names) for _ in range(rng.randint(lo, hi)))


def _generates(entry, elements) -> bool:
    """Criterion 7's test: a radius-6 ball over the set reaches every
    letter of the entry's alphabet."""
    spec = entry.spec
    step = list(elements) + [invert(spec, g) for g in elements]
    targets = {g.key() for g in entry.alphabet.values()}
    seen = {identity_nf(spec).key()}
    frontier = [identity_nf(spec)]
    for _ in range(6):
        nxt = []
        for x in frontier:
            for g in step:
                y = multiply(spec, x, g)
                if y.key() not in seen:
                    seen.add(y.key())
                    nxt.append(y)
        frontier = nxt
        if targets <= seen:
            return True
    return False


def _timed(job):
    """The job's output and its median time over COST_RUNS runs, in ms."""
    times = []
    for _ in range(COST_RUNS):
        t0 = time.perf_counter()
        out = jobs.run_job(job, NullTracer())
        times.append(time.perf_counter() - t0)
    return out, round(statistics.median(times) * 1000, 3)


def _require(job, out):
    reason = jobs.check_job(job, out)
    if reason is not None:
        raise SystemExit(f"{job.id}: oracle rejects the reference output: {reason}")


def deep_items() -> list[dict]:
    items = []
    for name, depth in DEEP:
        item = {"entry": name, "depth": depth}
        job = jobs._deep_job(item, None, depth)
        out, cost = _timed(job)
        item.update(sphere=out["sphere"], cost_ms=cost)
        _require(job, out)
        items.append(item)
        print(f"deep {name} n={depth}: {out['elements']} elements, {cost:.0f} ms",
              flush=True)
    return items


def stream_items(rng: random.Random) -> list[dict]:
    """Criterion 7's recipe: two or three generators, each a product of one
    to three random letters or inverse letters, kept when they generate."""
    items = []
    for name in STREAM_ENTRIES:
        entry = catalog_load(name)
        names = list(entry.alphabet)
        seen = set()
        while sum(it["entry"] == name for it in items) < STREAMS_PER_ENTRY:
            words = [_random_word(rng, names, 1, 3)
                     for _ in range(rng.choice((2, 2, 3)))]
            els = [parse_word(entry, w) for w in words]
            key = frozenset(g.key() for g in els)
            if key in seen or not _generates(entry, els):
                continue
            try:
                jobs._genset(name, els)
            except GenSetError:
                continue
            seen.add(key)
            item = {"id": f"stream:{name}:{len(seen)}", "entry": name,
                    "words": words}
            job = jobs._stream_job(item, STREAM_BUDGET)
            out, cost = _timed(job)
            fit = None
            if out["fit"] is not None:
                lo, hi = out["enclosure"]
                fit = {"skip": out["fit"][0], "order": len(out["fit"][1]),
                       "root": float((lo + hi) / 2)}
            item.update(cost_ms=cost, terms=len(out["seq"]),
                        sphere_sha=oracle.digest(out["seq"]), fit=fit)
            _require(job, out)
            items.append(item)
        print(f"streams {name}: {STREAMS_PER_ENTRY} sets", flush=True)
    return items


def _element(entry, rng, names, want):
    """A random non-identity word of one to five letters with the wanted
    verdict; elliptic ones are drawn as conjugates u x u^-1 of a letter by a
    word of up to three letters, since short random words are rarely
    elliptic."""
    while True:
        if want == "elliptic":
            u = _random_word(rng, names, 0, 3).split()
            inv = [t[:-3] if t.endswith("^-1") else t + "^-1" for t in reversed(u)]
            w = " ".join(u + [_token(rng, names)] + inv)
        else:
            w = _random_word(rng, names, 1, 5)
        g = parse_word(entry, w)
        if is_identity(entry.spec, g):
            continue
        if want is None or classify(entry.spec, g).verdict == want:
            return w


def tree_items(rng: random.Random) -> list[dict]:
    want = {"axis": ("hyperbolic",), "fixed": ("elliptic",),
            "monoid": ("hyperbolic", "hyperbolic"), "split": (None, None)}
    items = []
    for name in TREE_ENTRIES:
        entry = catalog_load(name)
        names = list(entry.alphabet)
        for kind in jobs.TREE_KINDS:
            seen = set()
            while len(seen) < TREE_PER_CELL:
                words = [_element(entry, rng, names, w) for w in want[kind]]
                key = tuple(parse_word(entry, w).key() for w in words)
                if key in seen or (len(key) == 2 and key[0] == key[1]):
                    continue
                seen.add(key)
                item = {"id": f"{kind}:{name}:{len(seen)}", "entry": name,
                        "kind": kind, "words": words}
                job = jobs._tree_job(item, TREE_RADIUS)
                out, cost = _timed(job)
                item["cost_ms"] = cost
                if kind in ("axis", "fixed"):
                    item.update(count=len(out["vertices"]),
                                vertices_sha=oracle.vertex_digest(out["vertices"]))
                    if kind == "axis":
                        item["tau"] = out["tau"]
                else:
                    item["certified"] = out["certificate"] is not None
                _require(job, out)
                items.append(item)
            print(f"tree {name} {kind}: {TREE_PER_CELL} jobs", flush=True)
    return items


def main() -> int:
    rng = random.Random(JOB_SEED)
    ref = {
        "about": "benchmark jobs and reference outputs; see make_reference.py",
        "job_seed": JOB_SEED,
        "deep": deep_items(),
        "stream_entries": list(STREAM_ENTRIES),
        "stream_budget": STREAM_BUDGET,
        "streams": stream_items(rng),
        "tree_entries": list(TREE_ENTRIES),
        "tree_radius": TREE_RADIUS,
        "tree": tree_items(rng),
    }
    with open(jobs.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
