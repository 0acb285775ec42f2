"""Command-line surface: reproducible experiments over the built-in catalog.

Every JSON output carries the spec hash, generator names, parameters, seed,
and artifact version, so any reported number can be reproduced exactly.

Exit codes: 0 success, 1 error, 2 inconclusive, 3 partial output (budget).

Each handler imports the layers it runs, so `root` and `catalog` load no
tree or certificate code.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys

from . import __version__
from .amalgam import SIDE_A, AmalgamSpec, NormalForm, UnknownGeneratorError
from .catalog import (
    UnknownEntryError,
    catalog_load,
    catalog_names,
    parse_word,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_PARTIAL = 3


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a CliError, so it exits with EXIT_ERROR like
    any other error (argparse would exit with 2, EXIT_INCONCLUSIVE)."""

    def error(self, message):
        raise CliError(message)


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
        raise CliError(exc.args[0]) from exc


def _parse_elements(entry, words: list[str]):
    try:
        return [parse_word(entry, w) for w in words]
    except UnknownGeneratorError as exc:
        raise CliError(f"unknown generator {exc.args[0]!r}; alphabet: "
                       + " ".join(entry.alphabet)) from exc


def _radius(args, default: int | None) -> int | None:
    if args.radius is None:
        return default
    if args.radius < 0:
        raise CliError("--radius must be >= 0")
    return args.radius


def describe_nf(spec: AmalgamSpec, x: NormalForm) -> str:
    parts = []
    for side, elem in x.syllables:
        fac = spec.factor(side)
        parts.append(("A:" if side == SIDE_A else "B:") + fac.labels[elem])
    if x.head != spec.C.identity or not parts:
        parts.append("C:" + spec.C.labels[x.head])
    return ".".join(parts)


def cmd_growth(args) -> int:
    from .growth import (
        DEFAULT_BUDGET,
        MIN_FIT_TERMS,
        ball_estimates,
        enumerate_balls,
        growth_table_csv,
    )
    from .spectral import fit_rate

    entry = _load(args.spec)
    if args.budget is None:
        args.budget = DEFAULT_BUDGET
    if args.budget < 0:
        raise CliError("--budget must be >= 0")
    try:
        table = enumerate_balls(entry.spec, entry.default_genset, args.nmax,
                                budget=args.budget)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
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
    report["level_packed"] = list(table.packed)
    report["level_compared"] = list(table.compared)
    # ru_maxrss is in KiB on Linux
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if table.nmax >= 2:
        report["root_estimate"], report["ratio_estimate"] = ball_estimates(
            table, table.nmax)
    # below MIN_FIT_TERMS counts a fit that holds out one term can give a
    # wrong rate (pgl2z at nmax 4 and 6, gl2z at nmax 3), so none is reported
    fit = fit_rate(table.sphere) if len(table.sphere) >= MIN_FIT_TERMS else None
    if fit is not None:
        rec, enc = fit.recurrence, fit.enclosure
        report["recurrence"] = {
            "order": rec.order,
            "coefficients": [str(c) for c in rec.coefficients],
            "char_poly": [str(c) for c in rec.char_poly()],
        }
        if enc is not None:
            report["dominant_root"] = {"lo": str(enc.lo), "hi": str(enc.hi),
                                       "mid": enc.mid,
                                       "bisection_steps": enc.bisection_steps,
                                       "basis": "fitted", "guard": rec.guard,
                                       "skip": fit.skip}
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
    from .tree import classify, vertex_json, witness_holds

    entry = _load(args.spec)
    g = _parse_elements(entry, [args.word])[0]
    cls = classify(entry.spec, g)
    if not witness_holds(entry.spec, g, cls):
        raise CliError(f"{cls.verdict} with tau={cls.tau} fails its "
                       f"two-action proof at {vertex_json(cls.witness)}")
    report = _provenance(entry, args)
    report["word"] = args.word
    report["element"] = describe_nf(entry.spec, g)
    report["verdict"] = cls.verdict
    report["tau"] = cls.tau
    report["witness"] = vertex_json(cls.witness)
    _emit(report, args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    from .growth import shortest_word
    from .pingpong import certify_free_monoid, certify_free_split, replay
    from .spectral import positive_root_from_lengths

    entry = _load(args.spec)
    report = _provenance(entry, args)
    diagnostics: list[str] = []
    report["search"] = stats = {}
    radius = _radius(args, None)
    if args.mode == "monoid":
        if args.left or args.right:
            raise CliError("--left and --right need --mode split")
        if radius is not None:
            raise CliError("--radius needs --mode split")
        if len(args.elements or []) < 2:
            raise CliError("--mode monoid needs at least two --elements")
        elements = _parse_elements(entry, args.elements)
        cert = certify_free_monoid(entry.spec, elements,
                                   diagnostics=diagnostics, stats=stats)
    else:
        if args.elements:
            raise CliError("--elements needs --mode monoid")
        if not args.left or not args.right:
            raise CliError("--mode split needs --left and --right")
        left = _parse_elements(entry, args.left)
        right = _parse_elements(entry, args.right)
        cert = certify_free_split(entry.spec, left, right, radius=radius,
                                  diagnostics=diagnostics, stats=stats)
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
        for g in elements:
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
    from .tree import VerdictError, fixed_set, vertex_json

    entry = _load(args.spec)
    g = _parse_elements(entry, [args.word])[0]
    radius = _radius(args, 2 * len(g.syllables) + 4)
    try:
        verts = fixed_set(entry.spec, g, radius)
    except VerdictError as exc:
        raise CliError(str(exc)) from exc
    report = _provenance(entry, args)
    report["word"] = args.word
    report["radius"] = radius
    report["fixed"] = [vertex_json(v) for v in verts]
    _emit(report, args.out)
    return EXIT_OK


def cmd_axis(args) -> int:
    from .tree import VerdictError, axis_segment, classify, vertex_json

    entry = _load(args.spec)
    g = _parse_elements(entry, [args.word])[0]
    radius = _radius(args, 2 * len(g.syllables) + 4)
    try:
        verts = axis_segment(entry.spec, g, radius)
    except VerdictError as exc:
        raise CliError(str(exc)) from exc
    report = _provenance(entry, args)
    report["word"] = args.word
    report["radius"] = radius
    report["tau"] = classify(entry.spec, g).tau
    report["axis"] = [vertex_json(v) for v in verts]
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
    from .verify import run_all

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
    from .spectral import largest_positive_root, positive_root_from_lengths

    if args.lengths:
        try:
            enc = positive_root_from_lengths(args.lengths)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        desc = {"lengths": args.lengths}
    else:
        enc = largest_positive_root(args.poly)
        desc = {"poly": args.poly}
        if enc is None:
            raise CliError("no positive real root")
    payload = {"version": __version__}
    payload.update(desc)
    payload["root"] = {"lo": str(enc.lo), "hi": str(enc.hi), "mid": enc.mid,
                       "width": str(enc.width),
                       "unique_positive": enc.unique_positive,
                       "bisection_steps": enc.bisection_steps}
    _emit(payload, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    # None stands for growth.DEFAULT_BUDGET, read when the command runs
    p.add_argument("--budget", type=int)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("classify", help="elliptic/hyperbolic verdict")
    common(p)
    p.add_argument("word", help="word over the entry alphabet, "
                                "e.g. 'a b c^-1'")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("certify", help="emit a replayable ping-pong "
                                       "certificate")
    common(p)
    p.add_argument("--mode", choices=("monoid", "split"), required=True)
    p.add_argument("--elements", nargs="+", help="words (monoid mode)")
    p.add_argument("--left", nargs="+", help="words (split mode)")
    p.add_argument("--right", nargs="+", help="words (split mode)")
    p.add_argument("--radius", type=int,
                   help="search radius of the axes and fixed sets (split "
                        "mode)")
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
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--lengths", type=int, nargs="+",
                       help="generator lengths for the monoid bound")
    given.add_argument("--poly", type=int, nargs="+",
                       help="ascending polynomial coefficients")
    p.set_defaults(func=cmd_root)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
