"""Exact arithmetic in an amalgamated product A *_C B via syllable normal
forms.

An element is written g = s1 s2 ... sn * c where the si are non-identity
coset representatives strictly alternating between the A and B factors, and
the head c lies in C (appended on the right).  Free products are the special
case of trivial C.  Uniqueness of this form makes equality testing, and
therefore exact ball enumeration, a tuple comparison.  The ball enumerator
packs each form into one int (`encode_flat`: one base-2^w digit per
syllable, the head lowest) and right-multiplies by a whole letter set through
one `StepTable`, which rewrites only the low digits, so elements that share
them step together as one class; `multiply` stays the reference arithmetic.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

from .groups import Embedding, FiniteGroup, Transversal, coset_transversal

SIDE_A = 0
SIDE_B = 1


@dataclass(frozen=True)
class AmalgamSpec:
    A: FiniteGroup
    B: FiniteGroup
    C: FiniteGroup
    embA: Embedding
    embB: Embedding
    transA: Transversal
    transB: Transversal
    name: str = ""

    @property
    def index_product(self) -> int:
        """([A:C]-1)([B:C]-1); the tree is neither a point nor a line iff
        this is >= 2."""
        return (len(self.transA.reps) - 1) * (len(self.transB.reps) - 1)

    @property
    def branching(self) -> bool:
        return self.index_product >= 2

    def factor(self, side: int) -> FiniteGroup:
        return self.A if side == SIDE_A else self.B

    def image(self, side: int) -> tuple[int, ...]:
        return (self.embA if side == SIDE_A else self.embB).image

    def factorize(self, side: int, elem: int) -> tuple[int, int]:
        trans = self.transA if side == SIDE_A else self.transB
        return trans.factorization[elem]

    def transversal(self, side: int) -> Transversal:
        return self.transA if side == SIDE_A else self.transB

    @cached_property
    def digit_bits(self) -> int:
        """Bits per digit of the packed form (`encode_flat`): enough for a
        syllable digit 1 + side + 2 * rep and for a head in C."""
        return max(2 * max(self.A.order, self.B.order), self.C.order - 1).bit_length()

    def spec_hash(self) -> str:
        payload = {
            "A": self.A.mul, "B": self.B.mul, "C": self.C.mul,
            "embA": self.embA.image, "embB": self.embB.image,
        }
        blob = json.dumps(payload, sort_keys=True, default=list).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def make_amalgam(A: FiniteGroup, B: FiniteGroup, C: FiniteGroup,
                 embA: Embedding, embB: Embedding, name: str = "") -> AmalgamSpec:
    return AmalgamSpec(
        A=A, B=B, C=C, embA=embA, embB=embB,
        transA=coset_transversal(A, embA),
        transB=coset_transversal(B, embB),
        name=name,
    )


@dataclass(frozen=True)
class NormalForm:
    """syllables: ((side, element_index), ...); head: element index in C."""
    syllables: tuple[tuple[int, int], ...]
    head: int

    def __len__(self) -> int:
        return len(self.syllables)

    def key(self) -> tuple:
        return (self.syllables, self.head)


def identity_nf(spec: AmalgamSpec) -> NormalForm:
    return NormalForm((), spec.C.identity)


def is_identity(spec: AmalgamSpec, x: NormalForm) -> bool:
    return not x.syllables and x.head == spec.C.identity


def _append_factor(spec: AmalgamSpec, syllables: list, head: int,
                   side: int, elem: int) -> int:
    """Right-multiply the partial form `syllables * head` by a single factor
    element, mutating `syllables`; returns the new head.

    The head is pushed through the embedding into the factor, merged with a
    same-side trailing syllable if present, and the product re-factored as
    rep * c via the transversal.
    """
    fac = spec.factor(side)
    p = fac.mul[spec.image(side)[head]][elem]
    if syllables and syllables[-1][0] == side:
        p = fac.mul[syllables.pop()[1]][p]
    rep, c = spec.factorize(side, p)
    if rep != fac.identity:
        syllables.append((side, rep))
    return c


def factor_nf(spec: AmalgamSpec, side: int, elem: int) -> NormalForm:
    """Normal form of a single factor element."""
    syl: list = []
    head = _append_factor(spec, syl, spec.C.identity, side, elem)
    return NormalForm(tuple(syl), head)


def multiply(spec: AmalgamSpec, x: NormalForm, y: NormalForm) -> NormalForm:
    syl = list(x.syllables)
    head = x.head
    for side, elem in y.syllables:
        head = _append_factor(spec, syl, head, side, elem)
    head = spec.C.mul[head][y.head]
    return NormalForm(tuple(syl), head)


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


def invert(spec: AmalgamSpec, x: NormalForm) -> NormalForm:
    syl: list = []
    head = spec.C.inv[x.head]
    for side, elem in reversed(x.syllables):
        head = _append_factor(spec, syl, head, side, spec.factor(side).inv[elem])
    return NormalForm(tuple(syl), head)


def cyclic_reduce(spec: AmalgamSpec, x: NormalForm) -> tuple[NormalForm, NormalForm]:
    """Return (core, conjugator) with x = conjugator * core * conjugator^-1 and
    core of minimal syllable length under iterated end-cancellation."""
    conj = identity_nf(spec)
    cur = x
    while len(cur.syllables) >= 2 and cur.syllables[0][0] == cur.syllables[-1][0]:
        s = NormalForm((cur.syllables[0],), spec.C.identity)
        cur = multiply(spec, multiply(spec, invert(spec, s), cur), s)
        conj = multiply(spec, conj, s)
    return cur, conj


@dataclass(frozen=True)
class Word:
    """A word over a named generator alphabet; letters are (name, exponent)
    with exponent +-1."""
    letters: tuple[tuple[str, int], ...]

    @staticmethod
    def parse(text: str) -> "Word":
        """Parse whitespace-separated letters; `name^-1` denotes an inverse."""
        letters = []
        for tok in text.split():
            if tok.endswith("^-1"):
                letters.append((tok[:-3], -1))
            else:
                letters.append((tok, 1))
        return Word(tuple(letters))


class UnknownGeneratorError(KeyError):
    pass


def reduce_word(spec: AmalgamSpec, w: Word,
                alphabet: dict[str, NormalForm]) -> NormalForm:
    """The unique normal form of the product of w's letters."""
    acc = identity_nf(spec)
    for name, exp in w.letters:
        if name not in alphabet:
            raise UnknownGeneratorError(name)
        g = alphabet[name]
        if exp == -1:
            g = invert(spec, g)
        elif exp != 1:
            raise ValueError(f"exponent must be +-1, got {exp}")
        acc = multiply(spec, acc, g)
    return acc


def nf_to_json(x: NormalForm) -> dict:
    return {"syllables": [list(s) for s in x.syllables], "head": x.head}


def syllables_from_json(spec: AmalgamSpec, raw) -> tuple[tuple[int, int], ...]:
    """An alternating syllable string of non-identity transversal reps, as
    stored by `nf_to_json`; ValueError when `raw` is not one."""
    out: list[tuple[int, int]] = []
    for s in raw:
        side, rep = s
        if (type(side) is not int or type(rep) is not int
                or side not in (SIDE_A, SIDE_B)
                or rep == spec.factor(side).identity
                or rep not in spec.transversal(side).reps
                or (out and out[-1][0] == side)):
            raise ValueError(f"not an alternating syllable string: {raw!r}")
        out.append((side, rep))
    return tuple(out)


def nf_from_json(spec: AmalgamSpec, d: dict) -> NormalForm:
    """The normal form stored by `nf_to_json`; ValueError when `d` is not a
    normal form of this spec."""
    head = d["head"]
    if type(head) is not int or not 0 <= head < spec.C.order:
        raise ValueError(f"head {head!r} is not an element of C")
    return NormalForm(syllables_from_json(spec, d["syllables"]), head)


def describe_nf(spec: AmalgamSpec, x: NormalForm) -> str:
    parts = []
    for side, elem in x.syllables:
        fac = spec.factor(side)
        parts.append(("A:" if side == SIDE_A else "B:") + fac.labels[elem])
    if x.head != spec.C.identity or not parts:
        parts.append("C:" + spec.C.labels[x.head])
    return ".".join(parts)
