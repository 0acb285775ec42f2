"""Job lists for the three workloads, and the calls each job makes into the
library.

A job list is built from the stored reference jobs and `--seed` before any
timing starts; a job then runs exactly the library calls the matching CLI
command makes (with the default `workers=1`), each wrapped in a span when the
pass is traced.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from amalgrowth import (
    axis_segment,
    catalog_load,
    certify_free_monoid,
    certify_free_split,
    classify,
    dominant_root,
    enumerate_balls,
    fit_recurrence,
    fixed_set,
    invert,
    make_genset,
    parse_word,
    replay,
)
from amalgrowth.growth import sphere_stream

import bench_oracle as oracle

REFERENCE = Path(__file__).with_name("reference.json")

WORKLOADS = ("deep_ball", "many_gensets", "tree_certs")
TREE_KINDS = ("axis", "fixed", "monoid", "split")

# criterion 7's stream loop: stop after this many terms, fit from MIN_TERMS
# on, with looser guard/skip schedules once the stream has ended
MAX_TERMS = 31
MIN_TERMS = 10
FIT_SCHEDULE = ((4, 5), (3, 6))
FINAL_FIT_SCHEDULE = ((4, 6), (3, 7), (2, 8), (1, 8))

# How strongly each kind of work slows down with the host_speed loop: the
# slope of log(time) against log(loop time), measured on the 2-vCPU VM the
# benchmark was written on.  Tree and certificate jobs do small-ball
# arithmetic much like the loop's and slow down with it (a slope near 1 gave
# the steadiest figures).  Ball enumeration works over hash sets of up to
# 140 MB and set-up imports and builds tables; they slow down about half as
# much (slopes 0.35-0.55).
SENSITIVITY = {"deep": 0.5, "stream": 0.5, "axis": 1.0, "fixed": 1.0,
               "monoid": 1.0, "split": 1.0}
SETUP_SENSITIVITY = 0.5

TINY_DEPTH = 16
PROBE_ENTRY = "pgl2z"
PROBE_DEPTH = 20


@dataclass
class Job:
    id: str
    kind: str                 # deep | stream | axis | fixed | monoid | split
    entry: str
    ref: dict
    inputs: list = field(default_factory=list)
    gens: object = None
    letters: int = 0
    depth: int = 0
    budget: int = 0
    radius: int = 0


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def letter_count(spec, gens) -> int:
    """Distinct letters of the symmetric generating set."""
    keys = {g.key() for g in gens.elements}
    keys |= {invert(spec, g).key() for g in gens.elements}
    return len(keys)


def _genset(entry_name: str, elements) -> object:
    spec = catalog_load(entry_name).spec
    return make_genset(spec, [(f"g{i + 1}", g) for i, g in enumerate(elements)])


def _cheapest(items: list[dict], **match) -> dict:
    return min((it for it in items
                if all(it.get(k, v) == v for k, v in match.items())),
               key=lambda it: (it["cost_ms"], it["id"]))


# The seed only changes how an input is presented, never its cost or its
# answer: a generating set's letter order and which generators appear
# inverted (the symmetric letter set, and so every sphere count, is the
# same), and the operand order of a certificate search.

def _present(spec, elements: list, rng: random.Random | None) -> list:
    els = list(elements)
    if rng is None:
        return els
    rng.shuffle(els)
    keys = {g.key() for g in els}
    for i, g in enumerate(els):
        gi = invert(spec, g)
        # an inverse already in the set would make a duplicate generator
        if rng.random() < 0.5 and gi.key() not in keys:
            keys.discard(g.key())
            keys.add(gi.key())
            els[i] = gi
    return els


def _deep_job(item: dict, rng: random.Random | None, depth: int) -> Job:
    """The entry's default generating set, taken to `depth`."""
    entry = catalog_load(item["entry"])
    gens = _genset(item["entry"], _present(entry.spec, entry.default_genset.elements, rng))
    return Job(id=f"deep:{item['entry']}:{depth}", kind="deep",
               entry=item["entry"], ref=item, gens=gens,
               letters=letter_count(entry.spec, gens), depth=depth)


def _stream_job(item: dict, budget: int, rng: random.Random | None = None) -> Job:
    entry = catalog_load(item["entry"])
    els = [parse_word(entry, w) for w in item["words"]]
    gens = _genset(item["entry"], _present(entry.spec, els, rng))
    return Job(id=item["id"], kind="stream", entry=item["entry"], ref=item,
               gens=gens, letters=letter_count(entry.spec, gens), budget=budget)


def _tree_job(item: dict, radius: int, rng: random.Random | None = None) -> Job:
    entry = catalog_load(item["entry"])
    inputs = [parse_word(entry, w) for w in item["words"]]
    if rng is not None and rng.random() < 0.5:
        inputs.reverse()
    return Job(id=item["id"], kind=item["kind"], entry=item["entry"], ref=item,
               inputs=inputs, radius=radius)


def build_jobs(workload: str, seed: int, ref: dict, tiny: bool = False) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "deep_ball":
        jobs = [_deep_job(item, rng, TINY_DEPTH if tiny else item["depth"])
                for item in ref["deep"]]
    elif workload == "many_gensets":
        items = ([_cheapest(ref["streams"], entry=name) for name in ref["stream_entries"]]
                 if tiny else ref["streams"])
        jobs = [_stream_job(it, ref["stream_budget"], rng) for it in items]
    elif workload == "tree_certs":
        items = ([_cheapest(ref["tree"], entry=name, kind=kind)
                  for name in ref["tree_entries"][:2] for kind in TREE_KINDS]
                 if tiny else ref["tree"])
        jobs = [_tree_job(it, ref["tree_radius"], rng) for it in items]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def probe_jobs(workload: str, ref: dict) -> list[Job]:
    """Small fixed jobs for the layers a workload never calls, run only in a
    traced run so that every per-layer time is measured on every workload:
    a shallow pgl2z ball for growth and spectral, and the cheapest pgl2z
    job of each tree kind (a certified one for the certificate kinds) for
    tree and pingpong."""
    if workload == "tree_certs":
        item = next(it for it in ref["deep"] if it["entry"] == PROBE_ENTRY)
        return [_deep_job(item, None, PROBE_DEPTH)]
    return [_tree_job(_cheapest(ref["tree"], entry=PROBE_ENTRY, kind=kind,
                                certified=True), ref["tree_radius"])
            for kind in TREE_KINDS]


# --- running one job --------------------------------------------------------

def _enclosure(enc):
    return None if enc is None else (enc.lo, enc.hi)


def _run_deep(job: Job, tr) -> dict:
    spec = catalog_load(job.entry).spec
    table = tr.call("growth.enumerate_balls", enumerate_balls, spec, job.gens, job.depth)
    rec = tr.call("spectral.fit_recurrence", fit_recurrence, list(table.sphere), guard=4)
    enc = tr.call("spectral.dominant_root", dominant_root, rec) if rec else None
    sphere = list(table.sphere)
    return {"depth": job.depth, "sphere": sphere, "ball": list(table.ball),
            "truncated": table.truncated, "enclosure": _enclosure(enc),
            "elements": sum(sphere), "new": sum(sphere[1:]),
            "multiplies": job.letters * sum(sphere[:-1]),
            "fit_calls": 1, "fit_hits": int(rec is not None)}


def _fit_tail(seq: list[int], schedule, tr, counts: list[int]):
    """First exact fit of seq with a short transient prefix skipped."""
    for guard, max_skip in schedule:
        for skip in range(min(max_skip, max(0, len(seq) - 2 * guard)) + 1):
            counts[0] += 1
            rec = tr.call("spectral.fit_recurrence", fit_recurrence,
                          seq[skip:], guard=guard)
            if rec is not None:
                counts[1] += 1
                return rec, skip
    return None


def _run_stream(job: Job, tr) -> dict:
    spec = catalog_load(job.entry).spec
    stream = sphere_stream(spec, job.gens, budget=job.budget)
    seq: list[int] = []
    counts = [0, 0]
    fit = None
    while True:
        s = tr.call("growth.sphere_stream", next, stream, None)
        if s is None:
            break
        seq.append(s)
        if len(seq) > MAX_TERMS:
            break
        if len(seq) >= MIN_TERMS:
            fit = _fit_tail(seq, FIT_SCHEDULE, tr, counts)
            if fit:
                break
    stream.close()
    if fit is None:
        fit = _fit_tail(seq, FINAL_FIT_SCHEDULE, tr, counts)
    enc = tr.call("spectral.dominant_root", dominant_root, fit[0]) if fit else None
    return {"entry": job.entry, "seq": seq,
            "fit": None if fit is None else (fit[1], list(fit[0].coefficients)),
            "enclosure": _enclosure(enc),
            "elements": sum(seq), "new": sum(seq[1:]),
            "multiplies": job.letters * sum(seq[:-1]),
            "fit_calls": counts[0], "fit_hits": counts[1]}


def _run_tree(job: Job, tr) -> dict:
    spec = catalog_load(job.entry).spec
    if job.kind == "axis":
        g = job.inputs[0]
        verts = tr.call("tree.axis_segment", axis_segment, spec, g, job.radius)
        tau = tr.call("tree.classify", classify, spec, g).tau
        return {"vertices": verts, "tau": tau, "elements": len(verts)}
    if job.kind == "fixed":
        verts = tr.call("tree.fixed_set", fixed_set, spec, job.inputs[0], job.radius)
        return {"vertices": verts, "elements": len(verts)}
    if job.kind == "monoid":
        cert = tr.call("pingpong.certify_free_monoid", certify_free_monoid,
                       spec, list(job.inputs), radius=job.radius)
    else:
        cert = tr.call("pingpong.certify_free_split", certify_free_split,
                       spec, job.inputs[:1], job.inputs[1:], radius=job.radius)
    if cert is None:
        return {"certificate": None, "replay": None, "elements": 0}
    ok = tr.call("pingpong.replay", replay, spec, cert)
    return {"certificate": cert.to_json(), "replay": ok, "elements": 0}


def run_job(job: Job, tr) -> dict:
    if job.kind == "deep":
        return _run_deep(job, tr)
    if job.kind == "stream":
        return _run_stream(job, tr)
    return _run_tree(job, tr)


def check_job(job: Job, out: dict) -> str | None:
    """None when the output passes its oracle, else the reason."""
    if job.kind == "deep":
        return oracle.check_deep(out, job.entry, job.ref["sphere"])
    if job.kind == "stream":
        return oracle.check_stream(out, job.ref)
    spec = catalog_load(job.entry).spec
    check = {"axis": oracle.check_axis, "fixed": oracle.check_fixed,
             "monoid": oracle.check_monoid, "split": oracle.check_split}[job.kind]
    if job.kind in ("axis", "fixed"):
        return check(spec, job.inputs[0], out, job.ref)
    return check(spec, job.inputs, out, job.ref)


def inconclusive(job: Job, out: dict) -> bool:
    """A search that ended without a result, as the reference did too."""
    if job.kind == "stream":
        return out["fit"] is None
    if job.kind in ("monoid", "split"):
        return out["certificate"] is None
    return False
