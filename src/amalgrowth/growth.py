"""Exhaustive Cayley-ball enumeration and growth-rate estimates.

One breadth-first engine, `_levels`, closes the identity under right
multiplication by a list of letters closed under inversion (the generators
with their inverses adjoined) and yields each sphere as an unordered
`Sphere`, deduplicated exactly, so all counts are exact and every run is
deterministic.  Ball tables, sphere streams, geodesic words and generation
checks are all consumers of it; none of their outputs depends on an order
inside a sphere.  It runs on one thread.

Inside the engine an element is one int, its normal form packed one
syllable per base-2^w digit with the head lowest (`encode_flat`).
Right multiplication by a letter of at most K syllables rewrites only the
last K syllables and the head, the tail x & mask, so one `StepTable`, filled
on first use, maps a tail to its product with every letter.

A sphere is held as classes (state, tail, pend, np, pb) -> set of bases:
the prefix x >> shift has L nonzero digits, np = L mod BLOCK, pend is its
np lowest digits and base = prefix >> np * w the rest, whole blocks, so
each x has exactly one such split; pb = psi(base) is the min-plus product
of start with the tables of the base's digits, highest first (`_weights`):
a |C|-vector, numbered, or for trivial C one int, the sum of a weight per
digit; a constant when `_weights` refuses the letters.  The state is the
last <= 2 letters of a shortlex-least word for x, from a table built once
per letter set (`_shortlex_moves`; with tables, the letters lying in C come
first in the shortlex order).  A BFS discovers elements in shortlex order, so a
new element's shortlex-least word is that of an element of the previous
sphere plus one letter; since every factor of a shortlex-least word is
shortlex-least, stepping a class only by the letters its state allows drops
no new element.  A product at least as long as the tail re-keys the class,
its set shared, the digits leaving the tail joining pend; whole blocks of
pend move into the bases in one C-level `map` batch, built once per source
set and digits, pb carried through the moved digits (memoised per pb and
digits).  A shorter product takes its digits back from pend, keeping pb, or
goes element by element when pend holds too few, pb losing the digits each
base gives up (min-plus has no inverse, so a vector is rebuilt).
So a prefix int is rebuilt about once every BLOCK syllables.  Sets are never
mutated once built, so classes, spheres and levels share them.  Dedupe is
exact set difference per (tail, pend, np, pb), the split being canonical
and pb a function of the base, whatever the tables: against the previous
two spheres, since the letters are closed under inversion (every neighbour
of sphere n lies in sphere n-1, n or n+1).  Where `_weights` gives tables
(a factor-generated letter set: pgl2z's default, one-syllable letters of a
free product), pb carried on through pend and tail reads the word length of
x at its head, so (tail, pend, np, pb) fixes it: no key of a new sphere is
a key of an older one and no lookup runs.  An element reached under several
states stays under each, since one of them is its true state, and is
counted once.
"""
from __future__ import annotations

import io
import time
from collections import defaultdict
from itertools import accumulate, chain, combinations, product, repeat
from operator import add, lshift, or_
from typing import NamedTuple

from .amalgam import (
    SIDE_A,
    SIDE_B,
    AmalgamSpec,
    GenSet,
    NormalForm,
    identity_nf,
    invert,
    is_identity,
    multiply,
)
# generating sets are validated in amalgam, which the catalog loads without
# growth; the names stay importable from here
from .amalgam import GenSetError, make_genset  # noqa: F401
from .groups import FiniteGroup
from .spectral import FittedRate, fit_rate

DEFAULT_BUDGET = 10_000_000
# sphere counts `rate` reads before its first fit attempt
MIN_FIT_TERMS = 10
# prefix digits packed into an element's base at a time (module docstring)
BLOCK = 4


def encode_flat(spec: AmalgamSpec, x: NormalForm) -> int:
    """The packed form of x, the BFS engine's element and set key: one int in
    base 2^w (w = `spec.digit_bits`) with the head as the lowest digit and
    each syllable above it as the digit 1 + side + 2 * rep, the last syllable
    lowest.  Syllable digits are never 0, so the value alone fixes the
    length."""
    w = spec.digit_bits
    v = 0
    for side, rep in x.syllables:
        v = v << w | 1 + side + 2 * rep
    return v << w | x.head


def decode_flat(spec: AmalgamSpec, v: int) -> NormalForm:
    w = spec.digit_bits
    m = (1 << w) - 1
    head = v & m
    syl = []
    v >>= w
    while v:
        d = (v & m) - 1
        syl.append((d & 1, d >> 1))
        v >>= w
    return NormalForm(tuple(reversed(syl)), head)


class StepTable(dict):
    """Right multiplication of packed forms by every letter of a list.

    Each syllable of a letter merges with at most one trailing syllable of x,
    so with K the syllable length of the longest letter only the tail
    x & mask (the last K syllables and the head) changes: x * letter ==
    (x >> shift) << s | t, shift = (K + 1) * w, where (t, s) is the packed
    product of the tail and the letter and its bit width.  The table maps a
    tail to those pairs in letter order and fills itself on first use.
    """

    def __init__(self, spec: AmalgamSpec, letters: list[NormalForm]):
        super().__init__()
        self.spec = spec
        self.letters = letters
        self.shift = (max((len(l.syllables) for l in letters), default=0)
                      + 1) * spec.digit_bits
        self.mask = (1 << self.shift) - 1

    def __missing__(self, tail: int) -> tuple[tuple[int, int], ...]:
        spec, w = self.spec, self.spec.digit_bits
        x = decode_flat(spec, tail)
        products = [multiply(spec, x, l) for l in self.letters]
        row = self[tail] = tuple((encode_flat(spec, y), (len(y.syllables) + 1) * w)
                                 for y in products)
        return row

class GrowthTable(NamedTuple):
    nmax: int
    sphere: tuple[int, ...]
    ball: tuple[int, ...]
    truncated: bool
    timings: tuple[float, ...]
    # products a plain BFS tries per level: len(previous sphere) *
    # len(letters); the identity is level 0's one candidate
    candidates: tuple[int, ...]
    # products the engine formed per level, after the shortlex filter
    products: tuple[int, ...]
    # prefix ints the engine built per level; the identity is level 0's one
    packed: tuple[int, ...]
    # bases dedupe tested against older spheres per level
    compared: tuple[int, ...]


def _named_letters(spec: AmalgamSpec, gens: GenSet) -> list[tuple[str, NormalForm]]:
    """(name, element) letters: the generators, then the inverses that are
    not already letters, named with a ^-1 suffix."""
    named: list[tuple[str, NormalForm]] = []
    seen = set()
    candidates = list(zip(gens.names, gens.elements))
    candidates += [(n + "^-1", invert(spec, g)) for n, g in candidates]
    for name, g in candidates:
        if g not in seen:
            seen.add(g)
            named.append((name, g))
    return named


def _shortlex_moves(table: StepTable) -> list[tuple[tuple[int, int], ...]]:
    """The shortlex suffix-state table of `table.letters`, indexed by letter
    position: moves[state] lists (k, next state) for each letter k allowed
    after the state, state 0 being the empty word's.

    Every word of length <= 3 is evaluated on packed forms through the step
    table in shortlex order; the first to reach an element is its
    shortlex-least word.  A state is the last <= 2 letters of a
    shortlex-least word, and letter k is allowed after state s when s +
    (k,), at most 3 letters, is shortlex-least.  A factor of a
    shortlex-least word is shortlex-least, so every shortlex-least word
    passes this filter.
    """
    one = encode_flat(table.spec, identity_nf(table.spec))
    value = {(): one}
    first = {one}
    least = {()}
    for n in range(1, 4):
        for word in product(range(len(table.letters)), repeat=n):
            x = value[word[:-1]]
            t, s = table[x & table.mask][word[-1]]
            y = value[word] = x >> table.shift << s | t
            if y not in first:
                first.add(y)
                least.add(word)
    states = [()]
    index = {(): 0}
    moves = []
    for state in states:            # grows while it is walked
        row = []
        for k in range(len(table.letters)):
            word = state + (k,)
            if word in least:
                if word[-2:] not in index:
                    index[word[-2:]] = len(states)
                    states.append(word[-2:])
                row.append((k, index[word[-2:]]))
        moves.append(tuple(row))
    return moves


def _lengths(fac: FiniteGroup, gens: list[int]) -> dict[int, int]:
    """Word length over `gens` of each element of `fac` they reach (BFS)."""
    dist = {fac.identity: 0}
    frontier = [fac.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for gh in map(fac.mul[g].__getitem__, gens):
                if gh not in dist:
                    dist[gh] = dist[g] + 1
                    nxt.append(gh)
        frontier = nxt
    return dist


def _weights(spec: AmalgamSpec, letters: list[NormalForm]
             ) -> tuple[tuple[int, ...], list[tuple[tuple[int, ...], ...]]] | None:
    """The min-plus tables (start, M) of `_levels`' dedupe key, or None for
    a constant key.

    M[d][c][c'] = l(c^-1 rep c') for the syllable digit d = 1 + side + 2 *
    rep, l being word length in that factor over the letters lying in it
    (other digits get zeros), and start[c] = l(c) on C.  The tables come
    only when the letter set is factor-generated: every letter has at most
    one syllable, the letters lying in C generate C, and word lengths on C
    agree in A, B and C.  A geodesic for x = s1 ... sn * c then splits into
    factor blocks c_{i-1}^-1 s_i c_i (c_0 = 1, c_n = c), so |x| is entry c
    of the min-plus product start M(s1) ... M(sn), a dynamic program with a
    C-element as state (Alonso, "Growth functions of amalgams", 1991).  For
    trivial C the product is one int, the sum of the M[d][0][0].
    """
    if any(len(l.syllables) > 1 for l in letters):
        return None
    C = spec.C
    in_c = [l.head for l in letters if not l.syllables]
    start = _lengths(C, in_c)
    if len(start) < C.order:
        return None
    zero = ((0,) * C.order,) * C.order
    tables = [zero] * (1 << spec.digit_bits)
    for side in (SIDE_A, SIDE_B):
        fac, img = spec.factor(side), spec.image(side)
        dist = _lengths(fac, [img[c] for c in in_c] + [
            fac.mul[l.syllables[0][1]][img[l.head]]
            for l in letters if l.syllables and l.syllables[0][0] == side])
        if any(dist.get(img[c]) != n for c, n in start.items()):
            return None
        # unreached factor elements get 0: every entry of the table of a
        # digit of an element the letters reach is itself reached
        for rep in spec.transversal(side).reps[1:]:
            left = fac.mul[rep]
            tables[1 + side + 2 * rep] = tuple(
                tuple(dist.get(fac.mul[fac.inv[img[c]]][left[img[c2]]], 0)
                      for c2 in range(C.order))
                for c in range(C.order))
    return tuple(start[c] for c in range(C.order)), tables


class _Psi(dict):
    """psi[x]: the sum of the weights `lam` over the base-2^w digits of x,
    memoised; the engine asks it only of short digit strings."""

    __slots__ = ("lam", "w")

    def __init__(self, lam: list[int], w: int):
        self.lam = lam
        self.w = w

    def of(self, x: int) -> int:
        lam, w, m = self.lam, self.w, (1 << self.w) - 1
        acc = 0
        while x:
            acc += lam[x & m]
            x >>= w
        return acc

    def __missing__(self, x: int) -> int:
        v = self[x] = self.of(x)
        return v


class _MinPlus(dict):
    """psi[n, x]: the min-plus product of vector n with the tables
    (`_weights`) of the base-2^w digits of x, highest first, memoised; the
    engine asks it only of short digit strings.  Vectors are numbered in
    order of first sight, start being 0, so keys hash ints.  `of(x)` is
    start carried through x, a BLOCK of digits at a time."""

    __slots__ = ("vecs", "ids", "cols", "w")

    def __init__(self, start: tuple[int, ...],
                 tables: list[tuple[tuple[int, ...], ...]], w: int):
        self.vecs = [start]
        self.ids = {start: 0}
        # cols[d][c'] lists M[d][c][c'] over c
        self.cols = [tuple(zip(*m)) for m in tables]
        self.w = w

    def of(self, x: int) -> int:
        step = BLOCK * self.w
        v = 0
        for i in reversed(range(0, x.bit_length(), step)):
            v = self[v, x >> i & ((1 << step) - 1)]
        return v

    def __missing__(self, key: tuple[int, int]) -> int:
        n, x = key
        v = self.vecs[n]
        cols, w, m = self.cols, self.w, (1 << self.w) - 1
        for i in reversed(range(0, x.bit_length(), w)):
            v = tuple(min(map(add, v, col)) for col in cols[x >> i & m])
        n = self[key] = self.ids.setdefault(v, len(self.vecs))
        if n == len(self.vecs):
            self.vecs.append(v)
        return n


class Sphere:
    """One sphere of `_levels`, unordered: its packed elements
    (`encode_flat`) as (tail, pend, np, pb) -> disjoint sets of
    bases, x == (base << np * w | pend) << shift | tail and pb ==
    psi.of(base).  `len`, `in` on packed ints and iteration; `products` and
    `packed` count the products formed and the prefix ints built to make
    it, `compared` the bases dedupe tested against older spheres."""

    __slots__ = ("by_key", "shift", "w", "mask", "psi", "size", "products",
                 "packed", "compared")

    def __init__(self, by_key: dict[tuple[int, int, int, int], list[set[int]]],
                 shift: int, w: int, psi: _Psi | _MinPlus, products: int,
                 packed: int, compared: int):
        self.by_key = by_key
        self.shift = shift
        self.w = w
        self.mask = (1 << shift) - 1
        self.psi = psi
        self.size = sum(map(len, chain.from_iterable(by_key.values())))
        self.products = products
        self.packed = packed
        self.compared = compared

    def __len__(self) -> int:
        return self.size

    def __contains__(self, x: int) -> bool:
        p = x >> self.shift
        np = -(-p.bit_length() // self.w) % BLOCK
        low = np * self.w
        base = p >> low
        key = (x & self.mask, p & ((1 << low) - 1), np, self.psi.of(base))
        return any(base in bases for bases in self.by_key.get(key, ()))

    def __iter__(self):
        shift, w = self.shift, self.w
        return chain.from_iterable(
            map(or_, map(lshift, bases, repeat(shift + np * w)),
                repeat(pend << shift | tail))
            for (tail, pend, np, _), sets in self.by_key.items()
            for bases in sets)


def _disjoint(sets: list[set[int]]) -> list[set[int]]:
    """`sets` when they are pairwise disjoint, else [their union]."""
    if all(a.isdisjoint(b) for a, b in combinations(sets, 2)):
        return sets
    return [set().union(*sets)]


def _levels(spec: AmalgamSpec, letters: list[NormalForm],
            budget: int | None = None):
    """Yield the spheres of the Cayley graph of `letters` as `Sphere`s,
    starting with the radius-0 sphere {identity}: sphere n holds the right
    products not seen at any smaller radius.  ValueError unless the letters
    are closed under inversion.

    An element is kept in classes (shortlex state, tail, pend, np, pb) ->
    set of bases; a class steps only by the letters `_shortlex_moves`
    allows after its state, and its set goes to the target class as it is,
    or through one batch when whole blocks move into the bases.  An empty
    sphere is yielded once and ends the iteration.  With a budget,
    iteration stops silently before a level whose worst case (elements so
    far) + len(sphere) * len(letters) would exceed it.
    """
    tables = _weights(spec, letters)
    if tables is not None:
        # the letters lying in C first in the shortlex order: on
        # factor-generated sets the window-3 filter then lets fewer
        # products through (pgl2z: none, against 32% more with c before a)
        letters = sorted(letters, key=lambda l: l.syllables != ())
    table = StepTable(spec, letters)
    moves = _shortlex_moves(table)
    shift, mask, w = table.shift, table.mask, spec.digit_bits
    # for trivial C the vector is one int: a free product keeps int sums,
    # cheaper to add and hash than 1-tuples
    vector = tables is not None and spec.C.order > 1
    lam = None if vector or tables is None else [m[0][0] for m in tables[1]]
    psi = _MinPlus(*tables, w) if vector else _Psi(lam or [0] * (1 << w), w)
    one = encode_flat(spec, identity_nf(spec))
    # closed under inversion: each letter times some letter is the identity
    # (a letter fits in a tail, and `_shortlex_moves` filled its row)
    if not all(any(t == one for t, _ in table[encode_flat(spec, l)])
               for l in letters):
        raise ValueError("letters are not closed under inversion")
    pb = psi.of(0)
    classes = {(0, one & mask, 0, 0, pb): {0}}
    sphere = Sphere({(one & mask, 0, 0, pb): [{0}]}, shift, w, psi, 1, 1, 0)
    older: dict[tuple[int, int, int, int], list[set[int]]] = {}
    total = 1
    # products placed element by element; emptied into nxt every level
    loose: dict[tuple[int, int, int, int, int], set[int]] = defaultdict(set)
    while True:
        yield sphere
        if not sphere or (budget is not None
                          and total + len(sphere) * len(letters) > budget):
            return
        nxt: dict[tuple[int, int, int, int, int], list[set[int]]] = defaultdict(list)
        flushed: dict[tuple[int, int, int], set[int]] = {}
        products = packed = compared = 0
        for (state, tail, pend, np, pb), bases in classes.items():
            row = table[tail]
            products += len(bases) * len(moves[state])
            for k, after in moves[state]:
                t, s = row[k]
                if s >= shift:
                    # the digits leaving the tail join the pending block;
                    # whole blocks move into the bases in one batch
                    pend2 = pend << s - shift | t >> shift
                    np2 = np + (s - shift) // w
                    if np2 >= BLOCK:
                        keep = np2 % BLOCK
                        bits, hi = (np2 - keep) * w, pend2 >> keep * w
                        memo = (id(bases), bits, hi)
                        if memo not in flushed:
                            flushed[memo] = set(map(
                                or_, map(lshift, bases, repeat(bits)), repeat(hi)))
                            packed += len(bases)
                        nxt[after, t & mask, pend2 & ((1 << keep * w) - 1),
                            keep, psi[pb, hi] if vector else pb + psi[hi]
                            ].append(flushed[memo])
                    else:
                        nxt[after, t & mask, pend2, np2, pb].append(bases)
                elif np * w >= shift - s:
                    # the product is shorter than the tail: its new tail
                    # takes digits from the pending block
                    r = shift - s
                    nxt[after, (pend & ((1 << r) - 1)) << s | t, pend >> r,
                        np - r // w, pb].append(bases)
                else:
                    # ... and from the bases: element by element, a base b
                    # losing its low r + np2 * w bits
                    packed += len(bases)
                    r = shift - s - np * w
                    for b in bases:
                        y = (b << np * w | pend) << s | t
                        p = b >> r
                        np2 = -(-p.bit_length() // w) % BLOCK
                        low = np2 * w
                        # min-plus has no inverse: a vector is rebuilt
                        loose[after, y & mask, p & ((1 << low) - 1), np2,
                              psi.of(p >> low) if vector
                              else pb - psi[b & ((1 << r + low) - 1)] if lam
                              else pb].add(p >> low)
        if loose:
            for key, bases in loose.items():
                nxt[key].append(bases)
            loose.clear()
        # exact dedupe per (tail, pend, np, pb) against the previous two
        # spheres; an element reached under several states stays under each
        # (one is its true state) and is counted once
        drop = (sphere.by_key, older)
        older = sphere.by_key
        classes = {}
        by_key: dict[tuple[int, int, int, int], list[set[int]]] = defaultdict(list)
        for key, sets in nxt.items():
            bases = sets[0] if len(sets) == 1 else set().union(*sets)
            sub = key[1:]
            for seen in drop:
                for old in seen.get(sub, ()):
                    if bases is old:
                        bases = set()
                    else:
                        compared += min(len(bases), len(old))
                        if not bases.isdisjoint(old):
                            bases = bases - old
            if bases:
                classes[key] = bases
                by_key[sub].append(bases)
        if len(by_key) < len(classes):
            for sub, sets in by_key.items():
                if len(sets) > 1:
                    by_key[sub] = _disjoint(sets)
        sphere = Sphere(by_key, shift, w, psi, products, packed, compared)
        total += len(sphere)


def sphere_stream(spec: AmalgamSpec, gens: GenSet, *,
                  budget: int = DEFAULT_BUDGET):
    """Yield successive sphere counts (starting with 1 for radius 0),
    stopping silently at the element budget or when a sphere is empty."""
    letters = [g for _, g in _named_letters(spec, gens)]
    for sphere in _levels(spec, letters, budget):
        if not sphere:
            return
        yield len(sphere)


def enumerate_balls(spec: AmalgamSpec, gens: GenSet, nmax: int, *,
                    budget: int = DEFAULT_BUDGET) -> GrowthTable:
    """Exact sphere and ball counts up to radius nmax.

    If the element budget would be exceeded the table is truncated at the last
    complete level and flagged; truncation is never silent.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    letters = [g for _, g in _named_letters(spec, gens)]
    levels = _levels(spec, letters, budget)
    next(levels)
    # (size, products, packed, compared, seconds) per level
    records = [(1, 1, 1, 0, 0.0)]
    truncated = False
    for _ in range(nmax):
        t0 = time.perf_counter()
        nxt = next(levels, None)
        if nxt is None:
            truncated = True
            break
        records.append((len(nxt), nxt.products, nxt.packed, nxt.compared,
                        time.perf_counter() - t0))
        if not nxt:
            break
    sphere, products, packed, compared, timings = zip(*records)
    candidates = (1, *(s * len(letters) for s in sphere[:-1]))
    return GrowthTable(len(sphere) - 1, sphere, tuple(accumulate(sphere)),
                       truncated, timings, candidates, products, packed,
                       compared)


def rate(spec: AmalgamSpec, gens: GenSet, *, nmax: int,
         budget: int = DEFAULT_BUDGET) -> FittedRate | None:
    """The fitted rate of the sphere counts of radius 0..nmax, streamed:
    from MIN_FIT_TERMS terms on, the first `fit_rate(..., complete=False)`
    ends the stream; else `fit_rate` of all the counts read, once the
    stream ends (budget or an empty sphere) or radius nmax is read."""
    seq: list[int] = []
    for s in sphere_stream(spec, gens, budget=budget):
        seq.append(s)
        if len(seq) > nmax:
            break
        if len(seq) >= MIN_FIT_TERMS:
            fit = fit_rate(seq, complete=False)
            if fit is not None:
                return fit
    return fit_rate(seq)


def shortest_word(spec: AmalgamSpec, gens: GenSet, g: NormalForm,
                  nmax: int) -> tuple[int, list[str]] | None:
    """(length, letter names) of the lex-least geodesic word for g (letters
    ordered as generators, then inverses), or None outside the nmax-ball.

    Letter names carry a ^-1 suffix for inverse letters.
    """
    if is_identity(spec, g):
        return (0, [])
    named = _named_letters(spec, gens)
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


def ball_estimates(table: GrowthTable, n: int) -> tuple[float, float]:
    """(root, ratio) estimates of the growth rate at radius n >= 1:
    ball[n]^(1/n), an upper bound on the rate (the growth function is
    submultiplicative), and the heuristic ball[n] / ball[n-1]."""
    return table.ball[n] ** (1.0 / n), table.ball[n] / table.ball[n - 1]


def growth_table_csv(table: GrowthTable) -> str:
    """CSV with columns n, sphere, ball, root_estimate, ratio_estimate."""
    buf = io.StringIO()
    buf.write("n,sphere,ball,root_estimate,ratio_estimate\n")
    for n in range(table.nmax + 1):
        root, ratio = ("", "") if n == 0 else map(repr, ball_estimates(table, n))
        buf.write(f"{n},{table.sphere[n]},{table.ball[n]},{root},{ratio}\n")
    return buf.getvalue()
