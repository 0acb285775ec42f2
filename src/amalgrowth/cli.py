"""Command-line surface: reproducible experiments over the built-in catalog.

Every JSON output carries the spec hash, generator names, parameters, seed,
and artifact version, so any reported number can be reproduced exactly.

Exit codes: 0 success, 1 error, 2 inconclusive, 3 partial output (budget).
"""
from __future__ import annotations

import argparse
import json
import resource
import sys

from . import __version__
from .amalgam import UnknownGeneratorError, describe_nf
from .catalog import (
    UnknownEntryError,
    catalog_load,
    catalog_names,
    parse_word,
)
from .growth import (
    enumerate_balls,
    growth_table_csv,
    rate_estimates,
    shortest_word,
)
from .pingpong import (
    certify_free_monoid,
    certify_free_split,
    replay,
)
from .spectral import (
    dominant_root,
    fit_recurrence,
    largest_positive_root,
    positive_root_from_lengths,
)
from .tree import VerdictError, axis_segment, classify, fixed_set
from .verify import run_all

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_PARTIAL = 3


class CliError(Exception):
    pass


def _provenance(entry, args, seed=None) -> dict:
    prov = {
        "version": __version__,
        "entry": entry.name,
        "spec_hash": entry.spec.spec_hash(),
        "generators": list(entry.default_genset.names),
        "parameters": {k: v for k, v in vars(args).items()
                       if k not in ("func", "out") and v is not None},
    }
    if seed is not None:
        prov["seed"] = seed
    return prov


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(name: str):
    try:
        return catalog_load(name)
    except UnknownEntryError as exc:
        raise CliError(str(exc)) from exc


def _parse_elements(entry, words: list[str]):
    try:
        return [parse_word(entry, w) for w in words]
    except UnknownGeneratorError as exc:
        raise CliError(f"unknown generator {exc.args[0]!r}; alphabet: "
                       + " ".join(entry.alphabet)) from exc


def cmd_growth(args) -> int:
    entry = _load(args.spec)
    table = enumerate_balls(entry.spec, entry.default_genset, args.nmax,
                            budget=args.budget)
    csv_text = growth_table_csv(table)
    report = _provenance(entry, args)
    report["sphere"] = list(table.sphere)
    report["ball"] = list(table.ball)
    report["truncated"] = table.truncated
    report["level_seconds"] = list(table.timings)
    report["level_candidates"] = list(table.candidates)
    report["level_new"] = list(table.sphere)
    report["level_duplicates"] = [c - n for c, n in zip(table.candidates, table.sphere)]
    report["level_products"] = list(table.products)
    # ru_maxrss is in KiB on Linux
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if table.nmax >= 2:
        est = rate_estimates(table)
        report["root_estimate"] = est.root_estimate
        report["ratio_estimate"] = est.ratio_estimate
    rec = fit_recurrence(list(table.sphere), guard=4)
    if rec is not None:
        enc = dominant_root(rec)
        report["recurrence"] = {
            "order": rec.order,
            "coefficients": [str(c) for c in rec.coefficients],
            "char_poly": [str(c) for c in rec.char_poly()],
        }
        if enc is not None:
            report["dominant_root"] = {"lo": str(enc.lo), "hi": str(enc.hi),
                                       "mid": enc.mid}
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        if args.format == "json":
            _emit(report, args.out + ".json")
    elif args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        report["csv"] = csv_text
        _emit(report, None)
    return EXIT_PARTIAL if table.truncated else EXIT_OK


def cmd_classify(args) -> int:
    entry = _load(args.spec)
    g = _parse_elements(entry, [args.word])[0]
    radius = args.radius if args.radius is not None else 2 * len(g.syllables)
    cls = classify(entry.spec, g, radius=radius)
    report = _provenance(entry, args)
    report["word"] = args.word
    report["element"] = describe_nf(entry.spec, g)
    report["verdict"] = cls.verdict
    report["tau"] = cls.tau
    report["witness"] = {"side": cls.witness.side,
                         "key": [list(s) for s in cls.witness.key]}
    report["radius"] = radius
    report["cross_checked"] = cls.cross_checked
    _emit(report, args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    entry = _load(args.spec)
    report = _provenance(entry, args)
    diagnostics: list[str] = []
    if args.mode == "monoid":
        elements = _parse_elements(entry, args.elements or [])
        cert = certify_free_monoid(entry.spec, elements, radius=args.radius,
                                   diagnostics=diagnostics)
    else:
        left = _parse_elements(entry, args.left or [])
        right = _parse_elements(entry, args.right or [])
        cert = certify_free_split(entry.spec, left, right, radius=args.radius,
                                  diagnostics=diagnostics)
    if cert is None:
        report["result"] = "inconclusive"
        report["diagnostics"] = diagnostics
        _emit(report, args.out)
        return EXIT_INCONCLUSIVE
    report["result"] = "certified"
    payload = {"certificate": cert.to_json()}
    if args.mode == "monoid":
        gens = entry.default_genset
        lengths = []
        for w in args.elements:
            g = parse_word(entry, w)
            res = shortest_word(entry.spec, gens, g, 2 * len(g.syllables) + 6)
            lengths.append(res[0] if res else None)
        rep = {"lengths": lengths}
        if all(l is not None for l in lengths):
            enc = positive_root_from_lengths(lengths)
            rep["bound"] = enc.mid
            rep["bound_enclosure"] = {"lo": str(enc.lo), "hi": str(enc.hi)}
        payload["report"] = rep
    payload["replay_ok"] = replay(entry.spec, cert)
    payload.update(report)
    _emit(payload, args.out)
    return EXIT_OK if payload["replay_ok"] else EXIT_ERROR


def cmd_fixedset(args) -> int:
    entry = _load(args.spec)
    g = _parse_elements(entry, [args.word])[0]
    radius = args.radius if args.radius is not None else 2 * len(g.syllables) + 4
    try:
        verts = fixed_set(entry.spec, g, radius)
    except VerdictError as exc:
        raise CliError(str(exc)) from exc
    report = _provenance(entry, args)
    report["word"] = args.word
    report["radius"] = radius
    report["fixed"] = [{"side": v.side, "key": [list(s) for s in v.key]}
                       for v in verts]
    _emit(report, args.out)
    return EXIT_OK


def cmd_axis(args) -> int:
    entry = _load(args.spec)
    g = _parse_elements(entry, [args.word])[0]
    radius = args.radius if args.radius is not None else 2 * len(g.syllables) + 4
    try:
        verts = axis_segment(entry.spec, g, radius)
    except VerdictError as exc:
        raise CliError(str(exc)) from exc
    report = _provenance(entry, args)
    report["word"] = args.word
    report["radius"] = radius
    report["tau"] = classify(entry.spec, g).tau
    report["axis"] = [{"side": v.side, "key": [list(s) for s in v.key]}
                      for v in verts]
    _emit(report, args.out)
    return EXIT_OK


def cmd_catalog(args) -> int:
    listing = []
    for name in catalog_names():
        entry = catalog_load(name)
        listing.append({
            "name": name,
            "description": entry.description,
            "orders": [entry.spec.A.order, entry.spec.B.order,
                       entry.spec.C.order],
            "branching": entry.spec.branching,
            "spec_hash": entry.spec.spec_hash(),
            "generators": list(entry.default_genset.names),
            "alphabet": list(entry.alphabet),
            "expected": list(entry.expected),
        })
    _emit({"version": __version__, "catalog": listing}, args.out)
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    results = run_all(seed=args.seed)
    if not args.out:
        for r in results:
            print(r.line())
    payload = {
        "version": __version__,
        "seed": args.seed,
        "results": [{"name": r.name, "passed": r.passed,
                     "details": r.details, "elapsed_s": r.elapsed_s}
                    for r in results],
    }
    if args.out:
        _emit(payload, args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_ERROR


def cmd_root(args) -> int:
    if args.lengths:
        enc = positive_root_from_lengths(args.lengths)
        desc = {"lengths": args.lengths}
    elif args.poly:
        enc = largest_positive_root(args.poly)
        desc = {"poly": args.poly}
        if enc is None:
            raise CliError("no positive real root")
    else:
        raise CliError("provide --lengths or --poly")
    payload = {"version": __version__}
    payload.update(desc)
    payload["root"] = {"lo": str(enc.lo), "hi": str(enc.hi), "mid": enc.mid,
                       "width": str(enc.width),
                       "unique_positive": enc.unique_positive}
    _emit(payload, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amalgrowth",
        description="exact growth-rate workbench for free and amalgamated "
                    "products of finite groups")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=True):
        if spec:
            p.add_argument("spec", help="catalog entry name")
        p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("growth", help="enumerate Cayley balls exactly")
    common(p)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--budget", type=int, default=10_000_000)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("classify", help="elliptic/hyperbolic verdict")
    common(p)
    p.add_argument("word", help="word over the entry alphabet, "
                                "e.g. 'a b c^-1'")
    p.add_argument("--radius", type=int)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("certify", help="emit a replayable ping-pong "
                                       "certificate")
    common(p)
    p.add_argument("--mode", choices=("monoid", "split"), required=True)
    p.add_argument("--elements", nargs="+", help="words (monoid mode)")
    p.add_argument("--left", nargs="+", help="words (split mode)")
    p.add_argument("--right", nargs="+", help="words (split mode)")
    p.add_argument("--radius", type=int)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("fixedset", help="fixed vertices of an elliptic "
                                        "element")
    common(p)
    p.add_argument("word")
    p.add_argument("--radius", type=int)
    p.set_defaults(func=cmd_fixedset)

    p = sub.add_parser("axis", help="axis segment of a hyperbolic element")
    common(p)
    p.add_argument("word")
    p.add_argument("--radius", type=int)
    p.set_defaults(func=cmd_axis)

    p = sub.add_parser("catalog", help="list built-in specifications")
    common(p, spec=False)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify-paper", help="run the acceptance suite")
    common(p, spec=False)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("root", help="exact positive-root enclosures")
    common(p, spec=False)
    p.add_argument("--lengths", type=int, nargs="+",
                   help="generator lengths for the monoid bound")
    p.add_argument("--poly", type=int, nargs="+",
                   help="ascending polynomial coefficients")
    p.set_defaults(func=cmd_root)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
