"""Exhaustive Cayley-ball enumeration and growth-rate estimates.

One breadth-first engine, `_levels`, closes the identity under right
multiplication by a list of letters (inverses adjoined by default) and yields
each sphere as an unordered `Sphere`, deduplicated exactly, so all counts are
exact and every run is deterministic.  Ball tables, sphere streams, geodesic
words, subgroup closures and generation checks are all consumers of it; none
of their outputs depends on an order inside a sphere.  It runs on one thread.

Inside the engine an element is one int, its normal form packed one
syllable per base-2^w digit with the head lowest (`amalgam.encode_flat`).
Right multiplication by a letter of at most K syllables rewrites only the
last K syllables and the head, the tail x & mask, so one
`amalgam.StepTable`, filled on first use, maps a tail to its product with
every letter.

A sphere is held as classes (state, tail) -> set of prefixes x >> shift.
The state is the last <= 2 letters of a shortlex-least word for x, from a
table built once per letter set (`_shortlex_moves`).  A BFS discovers
elements in shortlex order, so a new element's shortlex-least word is that
of an element of the previous sphere plus one letter; since every factor of
a shortlex-least word is shortlex-least, stepping a class only by the
letters its state allows drops no new element.  When the products keep the
whole tail, a class steps by a letter in one C-level `map`/`set.update`
batch into one target class; shorter products are placed one by one.
Dedupe is exact set difference per tail: against the previous two spheres
when the letters are closed under inversion (every neighbour of sphere n
lies in sphere n-1, n or n+1), against every earlier sphere for one-sided
letters (subgroup closures, `include_inverses=False`).  An element reached
under several states stays under each, since one of them is its true state,
and is counted once.  The element budget counts elements the same way in
both cases.
"""
from __future__ import annotations

import io
import time
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations, product, repeat
from operator import lshift, or_

from .amalgam import (
    AmalgamSpec,
    NormalForm,
    StepTable,
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
    # products a plain BFS tries per level: len(previous sphere) *
    # len(letters); the identity is level 0's one candidate
    candidates: tuple[int, ...]
    # products the engine formed per level, after the shortlex filter
    products: tuple[int, ...]


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


def _shortlex_moves(spec: AmalgamSpec,
                    letters: list[NormalForm]) -> list[tuple[tuple[int, int], ...]]:
    """The shortlex suffix-state table of `letters`, indexed by letter
    position: moves[state] lists (k, next state) for each letter k allowed
    after the state, state 0 being the empty word's.

    Every word of length <= 3 is evaluated with `multiply` in shortlex
    order; the first to reach an element is its shortlex-least word.  A
    state is the last <= 2 letters of a shortlex-least word, and letter k is
    allowed after state s when s + (k,), at most 3 letters, is
    shortlex-least.  A factor of a shortlex-least word is shortlex-least, so
    every shortlex-least word passes this filter.
    """
    value = {(): identity_nf(spec)}
    first = {value[()].key()}
    least = {()}
    for n in range(1, 4):
        for word in product(range(len(letters)), repeat=n):
            g = value[word] = multiply(spec, value[word[:-1]], letters[word[-1]])
            if g.key() not in first:
                first.add(g.key())
                least.add(word)
    states = [()]
    index = {(): 0}
    moves = []
    for state in states:            # grows while it is walked
        row = []
        for k in range(len(letters)):
            word = state + (k,)
            if word in least:
                if word[-2:] not in index:
                    index[word[-2:]] = len(states)
                    states.append(word[-2:])
                row.append((k, index[word[-2:]]))
        moves.append(tuple(row))
    return moves


class Sphere:
    """One sphere of `_levels`, unordered: its packed elements
    (`amalgam.encode_flat`) as tail -> disjoint sets of prefixes, with
    x == prefix << shift | tail.  `len`, `in` on packed ints and iteration;
    `products` counts the products the engine formed to build it."""

    __slots__ = ("by_tail", "shift", "mask", "size", "products")

    def __init__(self, by_tail: dict[int, list[set[int]]], shift: int, products: int):
        self.by_tail = by_tail
        self.shift = shift
        self.mask = (1 << shift) - 1
        self.size = sum(len(p) for sets in by_tail.values() for p in sets)
        self.products = products

    def __len__(self) -> int:
        return self.size

    def __contains__(self, x: int) -> bool:
        p = x >> self.shift
        return any(p in prefixes for prefixes in self.by_tail.get(x & self.mask, ()))

    def __iter__(self):
        shift = repeat(self.shift)
        for tail, sets in self.by_tail.items():
            for prefixes in sets:
                yield from map(or_, map(lshift, prefixes, shift), repeat(tail))


def _disjoint(sets: list[set[int]]) -> list[set[int]]:
    """`sets` when they are pairwise disjoint, else [their union]."""
    if all(a.isdisjoint(b) for a, b in combinations(sets, 2)):
        return sets
    return [set().union(*sets)]


def _levels(spec: AmalgamSpec, letters: list[NormalForm],
            budget: int | None = None):
    """Yield the spheres of the Cayley graph of `letters` as `Sphere`s,
    starting with the radius-0 sphere {identity}: sphere n holds the right
    products not seen at any smaller radius.

    An element is kept in classes (shortlex state, tail); a class steps only
    by the letters `_shortlex_moves` allows after its state, and when the
    product keeps the whole tail, all its prefixes go to one target class
    in one batch.  An empty sphere is yielded once and ends the iteration.
    With a budget, iteration stops silently before a level whose worst case
    (elements so far) + len(sphere) * len(letters) would exceed it.
    """
    table = StepTable(spec, letters)
    moves = _shortlex_moves(spec, letters)
    shift, mask = table.shift, table.mask
    symmetric = {l.key() for l in letters} == {invert(spec, l).key() for l in letters}
    one = encode_flat(spec, identity_nf(spec))
    classes = {(0, one & mask): {one >> shift}}
    sphere = Sphere({one & mask: [{one >> shift}]}, shift, 1)
    older: dict[int, list[set[int]]] = {}
    total = 1
    while True:
        yield sphere
        if not sphere or (budget is not None
                          and total + len(sphere) * len(letters) > budget):
            return
        nxt: dict[tuple[int, int], set[int]] = defaultdict(set)
        products = 0
        for (state, tail), prefixes in classes.items():
            row = table[tail]
            products += len(prefixes) * len(moves[state])
            for k, after in moves[state]:
                t, s = row[k]
                if s == shift:
                    nxt[after, t].update(prefixes)
                elif s > shift:
                    nxt[after, t & mask].update(map(
                        or_, map(lshift, prefixes, repeat(s - shift)),
                        repeat(t >> shift)))
                else:
                    # the product is shorter than the tail: its new tail
                    # takes digits from the prefix
                    for p in prefixes:
                        y = p << s | t
                        nxt[after, y & mask].add(y >> shift)
        # exact dedupe per tail; an element reached under several states
        # stays under each (one is its true state) and is counted once
        if symmetric:
            drop = (sphere.by_tail, older)
            older = sphere.by_tail
        else:
            for tail, sets in sphere.by_tail.items():
                older.setdefault(tail, [set()])[0].update(*sets)
            drop = (older,)
        classes = {}
        by_tail: dict[int, list[set[int]]] = defaultdict(list)
        for key, prefixes in nxt.items():
            for seen in drop:
                for old in seen.get(key[1], ()):
                    prefixes -= old
            if prefixes:
                classes[key] = prefixes
                by_tail[key[1]].append(prefixes)
        sphere = Sphere({tail: sets if len(sets) == 1 else _disjoint(sets)
                         for tail, sets in by_tail.items()}, shift, products)
        total += len(sphere)


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
    products = [1]
    truncated = False
    for _ in range(nmax):
        t0 = time.perf_counter()
        nxt = next(levels, None)
        if nxt is None:
            truncated = True
            break
        candidates.append(sphere[-1] * len(letters))
        products.append(nxt.products)
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
        products=tuple(products),
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
    """(length, letter names) of the lex-least geodesic word for g (letters
    ordered as generators, then inverses), or None outside the nmax-ball.

    Letter names carry a ^-1 suffix for inverse letters.
    """
    if is_identity(spec, g):
        return (0, [])
    named = _named_letters(spec, gens, include_inverses)
    target = encode_flat(spec, g)
    spheres = []
    for n, sphere in zip(range(nmax + 1), _levels(spec, [l for _, l in named])):
        spheres.append(sphere)
        if target in sphere:
            break
    else:
        return None
    # greedy left walk: the least letter l with l^-1 y one sphere closer;
    # this is also the word a BFS in letter order discovers first
    inverses = [invert(spec, l) for _, l in named]
    word = []
    y = g
    for prev in reversed(spheres[:-1]):
        for (name, _), li in zip(named, inverses):
            z = multiply(spec, li, y)
            if encode_flat(spec, z) in prev:
                word.append(name)
                y = z
                break
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
