"""The artifact's acceptance suite: ten numbered checks combining exact
enumeration, independent oracles, and root enclosures.  The oracles live
here, beside the checks that read them: the pgl2z letter-minimal forms
(`plastic_enumerate`), criterion 6's ball minimum and criterion 10's
plain BFS over normal forms.

Every check returns a CriterionResult with the measured values in `details`,
so a failure is always accompanied by the numbers that produced it.
"""
from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from typing import NamedTuple

from .amalgam import (
    AmalgamSpec,
    NormalForm,
    identity_nf,
    invert,
    is_identity,
    multiply,
)
from .catalog import (
    GOLDEN_POLY,
    PLASTIC_POLY,
    CatalogEntry,
    catalog_load,
    catalog_names,
)
from .growth import (
    GenSet,
    GenSetError,
    _levels,
    _named_letters,
    decode_flat,
    encode_flat,
    enumerate_balls,
    growth_table_csv,
    make_genset,
    rate,
)
from .spectral import (
    RootEnclosure,
    WeightedAlphabet,
    _eval_over,
    count_avoiding,
    fit_rate,
    lpv_bound,
    positive_root_from_lengths,
)
from .tree import (
    BASE_A,
    act,
    ball,
    classify,
    displacement,
    fixed_set,
    geodesic,
    nearest_pair,
    witness_holds,
)

GOLDEN = 1.6180339887498949
TOL = 1e-9


class CriterionResult(NamedTuple):
    name: str
    passed: bool
    details: str
    # wall time of the check, set by `run_all`
    elapsed_s: float | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.details}"


def _sign_change_contains(poly, enc: RootEnclosure) -> bool:
    """Exact witness that the enclosure brackets a root of the integer
    polynomial poly."""
    lo, hi = (_eval_over(poly, x.numerator, x.denominator)
              for x in (enc.lo, enc.hi))
    return lo == 0 or hi == 0 or (lo < 0) != (hi < 0)


# The pgl2z letter-minimal form oracle: all words of the shape
#
#     U c M1 c M2 c ... c M_{j-1} c V
#
# with U, V in {empty, a, b, ab} and every middle block in {b, ab}.  These
# words are letter-minimal and pairwise distinct, so their per-length counts
# are an oracle for Cayley-sphere sizes that is independent of ball
# enumeration.
PLASTIC_EDGE = ("", "a", "b", "ab")
PLASTIC_MIDDLE = ("b", "ab")


def plastic_forms(nmax: int) -> list[str]:
    """All valid forms of letter length <= nmax as letter strings, shortest
    first, then by their maximal c-free segments."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    out = [u for u in PLASTIC_EDGE if len(u) <= nmax]
    # bodies are open forms U c M1 c ... Mk still awaiting "c V"
    partial = list(PLASTIC_EDGE)
    while partial:
        nxt = []
        for body in partial:
            for v in PLASTIC_EDGE:
                if len(body) + 1 + len(v) <= nmax:
                    out.append(body + "c" + v)
            for m in PLASTIC_MIDDLE:
                if len(body) + 2 + len(m) <= nmax:
                    nxt.append(body + "c" + m)
        partial = nxt
    out.sort(key=lambda f: (len(f), f.split("c")))
    return out


class PlasticCounts(NamedTuple):
    w: tuple[int, ...]       # all forms of each letter length
    c: tuple[int, ...]       # forms ending in c


def plastic_enumerate(nmax: int) -> PlasticCounts:
    """Exact per-length counts by direct generation.

    Checks the holding recurrences C(n) = C(n-2) + C(n-3) for n >= 4 and
    W(n) = W(n-2) + W(n-3) for n >= 5, and that distinct forms evaluate to
    distinct group elements; a failure raises AssertionError, also under -O.
    """
    forms = plastic_forms(nmax)
    w = [0] * (nmax + 1)
    c = [0] * (nmax + 1)
    for f in forms:
        w[len(f)] += 1
        if f.endswith("c"):
            c[len(f)] += 1
    for n in range(4, nmax + 1):
        if c[n] != c[n - 2] + c[n - 3]:
            raise AssertionError(f"C-recurrence fails at {n}")
    for n in range(5, nmax + 1):
        if w[n] != w[n - 2] + w[n - 3]:
            raise AssertionError(f"W-recurrence fails at {n}")
    entry = catalog_load("pgl2z")
    seen: dict[NormalForm, str] = {}
    for f in forms:
        g = plastic_eval(entry, f)
        if g in seen:
            raise AssertionError(f"forms {seen[g]!r} and {f!r} collide")
        seen[g] = f
    return PlasticCounts(tuple(w), tuple(c))


def plastic_eval(entry: CatalogEntry, form: str) -> NormalForm:
    acc = identity_nf(entry.spec)
    for ch in form:
        acc = multiply(entry.spec, acc, entry.alphabet[ch])
    return acc


def criterion_1() -> CriterionResult:
    entry = catalog_load("c2*c3")
    table = enumerate_balls(entry.spec, entry.default_genset, 25)
    fit = fit_rate(table.sphere)
    if fit is None:
        return CriterionResult("criterion-1", False, "no recurrence fit")
    # the characteristic polynomial with its roots at 0 divided out
    poly = tuple(itertools.dropwhile(lambda c: c == 0,
                                     fit.recurrence.char_poly()))
    enc = fit.enclosure
    root_ok = enc is not None and abs(enc.mid - GOLDEN) <= TOL
    poly_ok = poly == GOLDEN_POLY
    return CriterionResult(
        "criterion-1", poly_ok and root_ok,
        f"c2*c3 char poly {tuple(map(str, poly))} "
        f"(want (-1, -1, 1)), root {fit}")


def criterion_2() -> CriterionResult:
    nmax = 20
    entry = catalog_load("pgl2z")
    table = enumerate_balls(entry.spec, entry.default_genset, nmax)
    counts = plastic_enumerate(nmax)
    bfs_ok = table.sphere == counts.w
    w, c = counts.w, counts.c
    c_rec_ok = all(c[n] == c[n - 2] + c[n - 3] for n in range(4, nmax + 1))
    # checked exactly as documented; the enumerated counts instead satisfy
    # w[n] = c[n] + 2 c[n-1] + c[n-2]
    stated_w_ok = all(w[n] == c[n] + c[n - 1] + c[n - 2]
                      for n in range(2, nmax + 1))
    fit = fit_rate(table.sphere)
    enc = fit.enclosure if fit else None
    root_ok = (enc is not None and enc.width <= Fraction(1, 10 ** 9)
               and _sign_change_contains(PLASTIC_POLY, enc))
    passed = bfs_ok and c_rec_ok and stated_w_ok and root_ok
    return CriterionResult(
        "criterion-2", passed,
        f"pgl2z BFS==forms {bfs_ok}; C(n)=C(n-2)+C(n-3) {c_rec_ok}; "
        f"W(n)=C(n)+C(n-1)+C(n-2) {stated_w_ok}; "
        f"root enclosure ok {root_ok} (mid {fit})")


def criterion_3() -> CriterionResult:
    cases = [
        ((1, 2), GOLDEN_POLY),
        ((2, 3), PLASTIC_POLY),
        ((1, 3, 3), (-2, 0, -1, 1)),    # z^3 - z^2 - 2
    ]
    parts = []
    ok = True
    for lengths, target in cases:
        enc = positive_root_from_lengths(lengths)
        good = (enc.width <= Fraction(1, 10 ** 12)
                and _sign_change_contains(target, enc))
        ok = ok and good
        parts.append(f"{lengths}->{enc.mid:.12f} ok={good}")
    return CriterionResult("criterion-3", ok, "; ".join(parts))


def criterion_4() -> CriterionResult:
    alpha = WeightedAlphabet((("x", 1), ("y", 1), ("t", 1)), (("x", "y"),))
    w = count_avoiding(alpha, 31)
    rec_ok = all(w[n + 1] == 3 * w[n] - w[n - 1] for n in range(2, 31))
    fit = fit_rate(w[1:])
    enc = fit.enclosure if fit else None
    # (3+sqrt(5))/2 is the larger root of z^2-3z+1
    root_ok = enc is not None and _sign_change_contains((1, -3, 1), enc)
    larger_ok = enc is not None and enc.lo > 1
    return CriterionResult(
        "criterion-4", rec_ok and root_ok and larger_ok,
        f"W(n+1)=3W(n)-W(n-1) {rec_ok}; rate enclosure mid "
        f"{fit} brackets (3+sqrt5)/2 {root_ok}")


def criterion_5() -> CriterionResult:
    nmax = 30
    quad = WeightedAlphabet((("p", 2), ("q", 2), ("r", 3), ("s", 3)))
    w4 = count_avoiding(quad, nmax)
    rec4_ok = all(w4[n] == 2 * w4[n - 2] + 2 * w4[n - 3]
                  for n in range(3, nmax + 1))
    tri = WeightedAlphabet((("p", 2), ("q", 2), ("r", 3)))
    w3 = count_avoiding(tri, nmax)
    rec3_ok = all(w3[n] == 2 * w3[n - 2] + w3[n - 3]
                  for n in range(3, nmax + 1))
    # z^3 - 2z - 1 = (z + 1)(z^2 - z - 1), exactly: both sides have degree
    # 3 and agree at 4 points
    factor_ok = all(_eval_over((1, 1), z, 1) * _eval_over(GOLDEN_POLY, z, 1)
                    == _eval_over((-1, -2, 0, 1), z, 1) for z in range(4))
    fit = fit_rate(w3[2:])
    enc = fit.enclosure if fit else None
    root_ok = enc is not None and abs(enc.mid - GOLDEN) <= TOL
    return CriterionResult(
        "criterion-5", rec4_ok and rec3_ok and factor_ok and root_ok,
        f"{{2,2,3,3}} recurrence {rec4_ok}; {{2,2,3}} recurrence {rec3_ok}; "
        f"factorization {factor_ok}; root {fit}")


def _random_element(entry: CatalogEntry, rng: random.Random,
                    max_syllables: int) -> NormalForm:
    letters = list(entry.alphabet.values())
    letters += [invert(entry.spec, g) for g in letters]
    while True:
        acc = identity_nf(entry.spec)
        for _ in range(rng.randint(1, 2 * max_syllables)):
            acc = multiply(entry.spec, acc, rng.choice(letters))
        if not is_identity(entry.spec, acc) and len(acc.syllables) <= max_syllables:
            return acc


def _min_displacement(spec: AmalgamSpec, g: NormalForm) -> int:
    """min d(v, g.v) over the ball of radius max(2, 2 * syllable length)
    about the base vertex, where it is attained: the oracle for
    `classify`'s translation length, sharing none of its cyclic
    reduction."""
    radius = max(2, 2 * len(g.syllables))
    return min(displacement(spec, g, v) for v in ball(spec, BASE_A, radius))


def _elliptic_product(spec: AmalgamSpec, x: NormalForm, y: NormalForm,
                      radius: int) -> bool | None:
    """For elliptic x, y: None when their fixed sets meet within the
    radius, else whether x y^-1 has tau = 2 d(Fix(x), Fix(y)) (d >= 1, so
    it is hyperbolic) and its axis holds the segment between the fixed
    sets with its x- and y-images (a vertex lies on the axis iff x y^-1
    moves it by tau)."""
    fx = fixed_set(spec, x, radius)
    fy = fixed_set(spec, y, radius)
    if set(fx) & set(fy):
        return None
    d, u, v = nearest_pair(fx, fy)
    g = multiply(spec, x, invert(spec, y))
    tau = classify(spec, g).tau
    return tau == 2 * d and all(
        displacement(spec, g, img) == tau for w in geodesic(u, v)
        for img in (w, act(spec, x, w), act(spec, y, w)))


def criterion_6(seed: int = 0) -> CriterionResult:
    samples = pairs = 200
    names = ("c2*c3", "c2*c4", "pgl2z")
    rng = random.Random(seed)
    agree = collinear = even = 0
    hyperbolic_seen = 0
    elliptics: dict[str, list[NormalForm]] = {n: [] for n in names}
    for i in range(samples):
        entry = catalog_load(names[i % len(names)])
        g = _random_element(entry, rng, 6)
        cls = classify(entry.spec, g)
        if cls.tau != _min_displacement(entry.spec, g):
            continue
        agree += 1
        if cls.tau % 2 == 0:
            even += 1
        if cls.hyperbolic:
            hyperbolic_seen += 1
            collinear += witness_holds(entry.spec, g, cls)
        else:
            elliptics[entry.name].append(g)
    pair_pass = pair_seen = 0
    attempts = 0
    while pair_seen < pairs and attempts < 40 * pairs:
        attempts += 1
        name = names[attempts % len(names)]
        pool = elliptics[name]
        if len(pool) < 2:
            entry = catalog_load(name)
            g = _random_element(entry, rng, 4)
            if classify(entry.spec, g).elliptic:
                pool.append(g)
            continue
        entry = catalog_load(name)
        x, y = rng.choice(pool), rng.choice(pool)
        ok = _elliptic_product(entry.spec, x, y, radius=8)
        if ok is None:
            continue
        pair_seen += 1
        pair_pass += ok
    passed = (agree == samples and collinear == hyperbolic_seen
              and even == samples and pair_seen == pairs
              and pair_pass == pairs)
    return CriterionResult(
        "criterion-6", passed,
        f"cross-path {agree}/{samples}; collinear "
        f"{collinear}/{hyperbolic_seen}; even tau {even}/{samples}; "
        f"disjoint-fix pairs {pair_pass}/{pair_seen}")


def _random_genset(entry: CatalogEntry, rng: random.Random) -> GenSet | None:
    spec = entry.spec
    letters = list(entry.alphabet.values())
    letters += [invert(spec, g) for g in letters]
    elems = []
    for _ in range(rng.choice((2, 2, 3))):
        acc = identity_nf(spec)
        for _ in range(rng.randint(1, 3)):
            acc = multiply(spec, acc, rng.choice(letters))
        elems.append(acc)
    try:
        gens = make_genset(spec, [(f"g{i + 1}", x) for i, x in enumerate(elems)])
    except GenSetError:
        return None
    # must generate: a small ball over the set has to reach every letter
    step = [g for _, g in _named_letters(spec, gens)]
    targets = {encode_flat(spec, g) for g in entry.alphabet.values()}
    seen = set()
    for sphere in itertools.islice(_levels(spec, step), 7):   # radius 0..6
        seen.update(sphere)
        if targets <= seen:
            return gens
    return None


def criterion_7(seed: int = 7) -> CriterionResult:
    names = ("c2*c4", "c2*c5", "c2*c2xc2")
    nmax = 30
    failures = []
    total = loose = 0
    for name in names:
        entry = catalog_load(name)
        rng = random.Random(seed)
        made = 0
        while made < 10:
            gens = _random_genset(entry, rng)
            if gens is None:
                continue
            made += 1
            total += 1
            fit = rate(entry.spec, gens, nmax=nmax, budget=800_000)
            if fit is None:
                failures.append(f"{name}#{made}: no fit to radius {nmax}")
                continue
            loose += fit.recurrence.guard < 4
            enc = fit.enclosure
            if enc is None or enc.mid < GOLDEN - TOL:
                failures.append(f"{name}#{made}: root {fit}")
    return CriterionResult(
        "criterion-7", not failures,
        f"{total - len(failures)}/{total} seeded generating sets fitted "
        f"with dominant root >= golden; {loose}/{total} rates fitted on "
        f"fewer than 4 held-out terms" + ("" if not failures else
                                          "; " + "; ".join(failures)))


def criterion_8() -> CriterionResult:
    import json
    import os
    import tempfile

    from . import cli
    from .pingpong import PingPongCertificate, replay

    with tempfile.TemporaryDirectory(prefix="certify-") as workdir:
        out = os.path.join(workdir, "certificate.json")
        code = cli.main(["certify", "pgl2z", "--mode", "monoid",
                         "--elements", "b c", "a b c", "--out", out])
        if code != 0:
            return CriterionResult("criterion-8", False,
                                   f"certify exited with {code}")
        with open(out) as fh:
            payload = json.load(fh)
    cert = PingPongCertificate.from_json(payload["certificate"])
    entry = catalog_load("pgl2z")
    lengths = tuple(payload["report"]["lengths"])
    bound = payload["report"]["bound"]
    replay_ok = replay(entry.spec, cert)
    enc = positive_root_from_lengths((2, 3))
    ok = (cert.kind == "free-monoid" and sorted(lengths) == [2, 3]
          and abs(bound - enc.mid) <= 1e-9 and replay_ok)
    return CriterionResult(
        "criterion-8", ok,
        f"lengths {lengths}, bound {bound:.10f}, replay {replay_ok}")


def criterion_9() -> CriterionResult:
    base = lpv_bound(2, 7, 0, 0)
    base_ok = base == Fraction(12, 7) and base > Fraction(5, 3)
    entries_ok = True
    parts = [f"lpv(2,7)={base}"]
    for name in catalog_names():
        entry = catalog_load(name)
        if entry.spec.C.order != 1:
            continue        # bound applies to free products
        table = enumerate_balls(entry.spec, entry.default_genset, 18)
        fit = fit_rate(table.sphere)
        enc = fit.enclosure if fit else None
        bound = lpv_bound(entry.spec.A.order, entry.spec.B.order)
        good = enc is not None and enc.hi >= bound - Fraction(1, 10 ** 9)
        entries_ok = entries_ok and good
        parts.append(f"{name}: rate {fit} >= {bound} {good}")
    return CriterionResult("criterion-9", base_ok and entries_ok,
                           "; ".join(parts))


def _reference_spheres(spec: AmalgamSpec, letters: list[NormalForm], nmax: int,
                       budget: int | None = None) -> list[list[NormalForm]]:
    """Spheres 0..nmax of the Cayley graph of `letters` by a plain BFS over
    `multiply` and a set of normal forms: the oracle for `growth._levels`,
    sharing none of its code.  It stops where `_levels` does: after an empty
    sphere, or before a level that could take it past the budget."""
    ident = identity_nf(spec)
    seen = {ident}
    spheres = [[ident]]
    while spheres[-1] and len(spheres) <= nmax:
        if budget is not None and len(seen) + len(spheres[-1]) * len(letters) > budget:
            break
        nxt = []
        for x in spheres[-1]:
            for l in letters:
                y = multiply(spec, x, l)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        spheres.append(nxt)
    return spheres


def _same_spheres(spec: AmalgamSpec, got: list, ref: list[list[NormalForm]]) -> bool:
    """Engine spheres equal the reference spheres as sets (spheres carry no
    order), with each element yielded once and `len` agreeing."""
    if len(got) != len(ref):
        return False
    for sphere, want in zip(got, ref):
        elements = [decode_flat(spec, x) for x in sphere]
        if not len(sphere) == len(elements) == len(want) or set(elements) != set(want):
            return False
    return True


def criterion_10() -> CriterionResult:
    import os
    import tempfile

    from . import cli

    entry = catalog_load("pgl2z")
    named = list(entry.default_genset.alphabet().items())
    with tempfile.TemporaryDirectory(prefix="growth-") as workdir:
        out = os.path.join(workdir, "growth.csv")
        code = cli.main(["growth", "pgl2z", "--nmax", "14", "--out", out])
        if code != 0:
            return CriterionResult("criterion-10", False,
                                   f"growth exited with {code}")
        with open(out, "rb") as fh:
            cli_bytes = fh.read()
    orders = list(itertools.permutations(named))
    outs = {growth_table_csv(enumerate_balls(
                entry.spec, make_genset(entry.spec, list(order)), 14)).encode()
            for order in orders}
    orders_same = len(outs) == 1
    cli_same = outs == {cli_bytes}
    nmax = 10
    engine_diff = []
    for name in catalog_names():
        other = catalog_load(name)
        spec = other.spec
        letters = [g for _, g in _named_letters(spec, other.default_genset)]
        got = list(itertools.islice(_levels(spec, letters), nmax + 1))
        if not _same_spheres(spec, got, _reference_spheres(spec, letters, nmax)):
            engine_diff.append(name)
    return CriterionResult(
        "criterion-10", orders_same and cli_same and not engine_diff,
        f"CSV byte-identical across {len(orders)} generator orderings: "
        f"{orders_same}; CLI --out file equals growth_table_csv: {cli_same}; "
        f"engine spheres equal the multiply BFS as sets to "
        f"n={nmax}: {not engine_diff}"
        + (f" (differ: {', '.join(engine_diff)})" if engine_diff else ""))


ALL_CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
)


def run_all(seed: int = 0) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        t0 = time.perf_counter()
        if fn is criterion_6:
            r = fn(seed=seed)
        elif fn is criterion_7:
            r = fn(seed=seed + 7)
        else:
            r = fn()
        results.append(r._replace(elapsed_s=time.perf_counter() - t0))
    return results
