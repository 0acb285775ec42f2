"""Exhaustive Cayley-ball enumeration and growth-rate estimates.

One breadth-first engine, `_levels`, closes the identity under right
multiplication by a list of letters (inverses adjoined by default) and yields
each sphere in discovery order, deduplicated exactly, so all counts are exact
and every run is deterministic.  Ball tables, sphere streams, geodesic words,
subgroup closures and generation checks are all consumers of it; it runs on
one thread.

Inside the engine an element is one int, its normal form packed one
syllable per base-2^w digit with the head lowest (`amalgam.encode_flat`).
Right multiplication by a letter of at most K syllables rewrites only the
last K syllables and the head, the low digits, so one `amalgam.StepTable`,
filled on first use, maps that tail to its products with every letter: a
step is one dict lookup per element and one shift-and-or per letter.  When
the letters are closed under inversion, every neighbour of sphere n lies in
sphere n-1, n or n+1, and the seen set keeps only those three spheres;
one-sided letters (subgroup closures, `include_inverses=False`) keep every
element met.  The element budget counts elements the same way in both
cases.
"""
from __future__ import annotations

import io
import time
from dataclasses import dataclass

from .amalgam import (
    AmalgamSpec,
    NormalForm,
    StepTable,
    decode_flat,
    encode_flat,
    identity_nf,
    invert,
    is_identity,
    multiply,
)

DEFAULT_BUDGET = 10_000_000


class GenSetError(ValueError):
    pass


@dataclass(frozen=True)
class GenSet:
    names: tuple[str, ...]
    elements: tuple[NormalForm, ...]

    def alphabet(self) -> dict[str, NormalForm]:
        return dict(zip(self.names, self.elements))


def make_genset(spec: AmalgamSpec, named: list[tuple[str, NormalForm]]) -> GenSet:
    names = [n for n, _ in named]
    elements = [g for _, g in named]
    if len(set(names)) != len(names):
        raise GenSetError("duplicate generator names")
    if len(set(g.key() for g in elements)) != len(elements):
        raise GenSetError("duplicate generators")
    for n, g in named:
        if is_identity(spec, g):
            raise GenSetError(f"generator {n} is the identity")
    return GenSet(tuple(names), tuple(elements))


@dataclass(frozen=True)
class GrowthTable:
    nmax: int
    sphere: tuple[int, ...]
    ball: tuple[int, ...]
    truncated: bool
    timings: tuple[float, ...]
    spec_hash: str
    generators: tuple[str, ...]
    # products tried per level, len(previous sphere) * len(letters); the
    # identity is level 0's one candidate
    candidates: tuple[int, ...]


def _named_letters(spec: AmalgamSpec, gens: GenSet,
                   include_inverses: bool) -> list[tuple[str, NormalForm]]:
    """(name, element) letters: the generators, then the inverses that are
    not already letters, named with a ^-1 suffix."""
    named: list[tuple[str, NormalForm]] = []
    seen = set()
    candidates = list(zip(gens.names, gens.elements))
    if include_inverses:
        candidates += [(n + "^-1", invert(spec, g)) for n, g in candidates]
    for name, g in candidates:
        if g.key() not in seen:
            seen.add(g.key())
            named.append((name, g))
    return named


def _levels(spec: AmalgamSpec, letters: list[NormalForm],
            budget: int | None = None):
    """Yield the spheres of the Cayley graph of `letters`, starting with the
    radius-0 sphere [identity]: each as a list of packed forms
    (`amalgam.encode_flat`) in discovery order (frontier order, then letter
    order), holding the right products not seen at any smaller radius.

    An empty sphere is yielded once and ends the iteration.  With a budget,
    iteration stops silently before a level whose worst case
    (elements so far) + len(frontier) * len(letters) would exceed it.
    """
    table = StepTable(spec, letters)
    shift, mask = table.shift, table.mask
    symmetric = {l.key() for l in letters} == {invert(spec, l).key() for l in letters}
    frontier = [encode_flat(spec, identity_nf(spec))]
    seen = set(frontier)
    older: list[int] = []
    total = 1
    yield frontier
    while frontier:
        if budget is not None and total + len(frontier) * len(letters) > budget:
            return
        nxt = []
        for x in frontier:
            prefix = x >> shift
            for t, s in table[x & mask]:
                y = prefix << s | t
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if symmetric:
            seen.difference_update(older)
            older = frontier
        total += len(nxt)
        yield nxt
        frontier = nxt


def sphere_stream(spec: AmalgamSpec, gens: GenSet, *,
                  include_inverses: bool = True,
                  budget: int = DEFAULT_BUDGET):
    """Yield successive sphere counts (starting with 1 for radius 0),
    stopping silently at the element budget or when a sphere is empty."""
    letters = [g for _, g in _named_letters(spec, gens, include_inverses)]
    for sphere in _levels(spec, letters, budget):
        if not sphere:
            return
        yield len(sphere)


def enumerate_balls(spec: AmalgamSpec, gens: GenSet, nmax: int, *,
                    include_inverses: bool = True,
                    budget: int = DEFAULT_BUDGET) -> GrowthTable:
    """Exact sphere and ball counts up to radius nmax.

    If the element budget would be exceeded the table is truncated at the last
    complete level and flagged; truncation is never silent.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    letters = [g for _, g in _named_letters(spec, gens, include_inverses)]
    levels = _levels(spec, letters, budget)
    next(levels)
    sphere = [1]
    timings = [0.0]
    candidates = [1]
    truncated = False
    for _ in range(nmax):
        t0 = time.perf_counter()
        nxt = next(levels, None)
        if nxt is None:
            truncated = True
            break
        candidates.append(sphere[-1] * len(letters))
        sphere.append(len(nxt))
        timings.append(time.perf_counter() - t0)
        if not nxt:
            break
    ball = []
    acc = 0
    for s in sphere:
        acc += s
        ball.append(acc)
    return GrowthTable(
        nmax=len(sphere) - 1,
        sphere=tuple(sphere),
        ball=tuple(ball),
        truncated=truncated,
        timings=tuple(timings),
        spec_hash=spec.spec_hash(),
        generators=gens.names,
        candidates=tuple(candidates),
    )


@dataclass(frozen=True)
class RateEstimates:
    """Ball-based estimates of the exponential growth rate.

    root estimates ball[n]^(1/n) are upper bounds on the true rate (the
    growth function is submultiplicative); ratio estimates are heuristic.
    """
    root_sequence: tuple[float, ...]
    ratio_sequence: tuple[float, ...]
    root_estimate: float
    ratio_estimate: float
    reliable: bool


def rate_estimates(table: GrowthTable) -> RateEstimates:
    if table.nmax < 2:
        raise ValueError("need nmax >= 2 for rate estimates")
    roots = tuple(table.ball[n] ** (1.0 / n) for n in range(1, table.nmax + 1))
    ratios = tuple(table.ball[n] / table.ball[n - 1] for n in range(1, table.nmax + 1))
    return RateEstimates(
        root_sequence=roots,
        ratio_sequence=ratios,
        root_estimate=roots[-1],
        ratio_estimate=ratios[-1],
        reliable=not table.truncated,
    )


def word_length(spec: AmalgamSpec, gens: GenSet, g: NormalForm, nmax: int, *,
                include_inverses: bool = True) -> int | None:
    """Exact word length of g, or None if g is outside the nmax-ball."""
    res = shortest_word(spec, gens, g, nmax, include_inverses=include_inverses)
    return None if res is None else res[0]


def shortest_word(spec: AmalgamSpec, gens: GenSet, g: NormalForm, nmax: int, *,
                  include_inverses: bool = True) -> tuple[int, list[str]] | None:
    """(length, letter names) of one geodesic word for g, or None.

    Letter names carry a ^-1 suffix for inverse letters.
    """
    if is_identity(spec, g):
        return (0, [])
    named = _named_letters(spec, gens, include_inverses)
    target = encode_flat(spec, g)
    spheres: list[dict[int, int]] = []
    for n, sphere in zip(range(nmax + 1), _levels(spec, [l for _, l in named])):
        spheres.append({x: i for i, x in enumerate(sphere)})
        if target in spheres[-1]:
            break
    else:
        return None
    # walk back: the predecessor first discovered in the previous sphere,
    # i.e. the smallest (index there, letter index)
    inverses = [invert(spec, l) for _, l in named]
    word = []
    y = g
    for prev in reversed(spheres[:-1]):
        preds = [encode_flat(spec, multiply(spec, y, li)) for li in inverses]
        _, j = min((prev[x], j) for j, x in enumerate(preds) if x in prev)
        y = decode_flat(spec, preds[j])
        word.append(named[j][0])
    word.reverse()
    return (n, word)


def growth_table_csv(table: GrowthTable) -> str:
    """CSV with columns n, sphere, ball, root_estimate, ratio_estimate."""
    buf = io.StringIO()
    buf.write("n,sphere,ball,root_estimate,ratio_estimate\n")
    for n in range(table.nmax + 1):
        root = "" if n == 0 else repr(table.ball[n] ** (1.0 / n))
        ratio = "" if n == 0 else repr(table.ball[n] / table.ball[n - 1])
        buf.write(f"{n},{table.sphere[n]},{table.ball[n]},{root},{ratio}\n")
    return buf.getvalue()
