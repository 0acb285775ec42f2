"""Exact arithmetic in an amalgamated product A *_C B via syllable normal
forms.

An element is written g = s1 s2 ... sn * c where the si are non-identity
coset representatives strictly alternating between the A and B factors, and
the head c lies in C (appended on the right).  Free products are the special
case of trivial C.  Uniqueness of this form makes equality testing, and
therefore exact ball enumeration, a tuple comparison.  `multiply` is the
reference arithmetic; the ball enumerator works on a packed int form of its
own (`growth.encode_flat`).  `multiply`, `invert` and `factor_nf` share one
step, `_append_factor`, which reads only the spec's per-factor side table;
`multiply` runs it only up to the junction of its two operands.
"""
from __future__ import annotations

from typing import NamedTuple

from .groups import Embedding, FiniteGroup, Transversal, coset_transversal

SIDE_A = 0
SIDE_B = 1


# `spec_hash` results by the id of their spec; each entry holds its spec,
# so no id is reused while its entry stands
_HASHES: dict[int, tuple[AmalgamSpec, str]] = {}


class AmalgamSpec(NamedTuple):
    """Built by `make_amalgam`, which also fills in the derived fields."""
    A: FiniteGroup
    B: FiniteGroup
    C: FiniteGroup
    embA: Embedding
    embB: Embedding
    transA: Transversal
    transB: Transversal
    # bits per digit of the packed form (`growth.encode_flat`): enough for a
    # syllable digit 1 + side + 2 * rep and for a head in C
    digit_bits: int
    # by side: (factor's mul, image of C, factorization, factor's identity)
    sides: tuple[tuple, tuple]

    @property
    def branching(self) -> bool:
        """Whether ([A:C]-1)([B:C]-1) >= 2: the tree is then neither a point
        nor a line."""
        return (len(self.transA.reps) - 1) * (len(self.transB.reps) - 1) >= 2

    def factor(self, side: int) -> FiniteGroup:
        return self.A if side == SIDE_A else self.B

    def image(self, side: int) -> tuple[int, ...]:
        return (self.embA if side == SIDE_A else self.embB).image

    def transversal(self, side: int) -> Transversal:
        return self.transA if side == SIDE_A else self.transB

    def spec_hash(self) -> str:
        """16 hex digits of the sha256 of the tables and embeddings, computed
        on the first call: loading a spec hashes nothing."""
        hit = _HASHES.get(id(self))
        if hit is None:
            import hashlib
            import json
            payload = {"A": self.A.mul, "B": self.B.mul, "C": self.C.mul,
                       "embA": self.embA.image, "embB": self.embB.image}
            blob = json.dumps(payload, sort_keys=True, default=list).encode()
            digest = hashlib.sha256(blob).hexdigest()[:16]
            hit = _HASHES[id(self)] = (self, digest)
        return hit[1]


def make_amalgam(A: FiniteGroup, B: FiniteGroup, C: FiniteGroup,
                 embA: Embedding, embB: Embedding) -> AmalgamSpec:
    transA, transB = coset_transversal(A, embA), coset_transversal(B, embB)
    return AmalgamSpec(
        A=A, B=B, C=C, embA=embA, embB=embB, transA=transA, transB=transB,
        digit_bits=max(2 * max(A.order, B.order), C.order - 1).bit_length(),
        sides=((A.mul, embA.image, transA.factorization, A.identity),
               (B.mul, embB.image, transB.factorization, B.identity)),
    )


class NormalForm(NamedTuple):
    """syllables: ((side, element_index), ...); head: element index in C."""
    syllables: tuple[tuple[int, int], ...]
    head: int

    def key(self) -> tuple:
        return (self.syllables, self.head)


def identity_nf(spec: AmalgamSpec) -> NormalForm:
    return NormalForm((), spec.C.identity)


def is_identity(spec: AmalgamSpec, x: NormalForm) -> bool:
    return not x.syllables and x.head == spec.C.identity


def _append_factor(table: tuple, syllables: list, head: int,
                   side: int, elem: int) -> int:
    """Right-multiply the partial form `syllables * head` by an element of
    the factor with side table `table`, mutating `syllables`; returns the
    new head.

    The head is pushed through the embedding into the factor, merged with a
    same-side trailing syllable if present, and the product re-factored as
    rep * c via the transversal.
    """
    mul, image, factorization, identity = table
    p = mul[image[head]][elem]
    if syllables and syllables[-1][0] == side:
        p = mul[syllables.pop()[1]][p]
    rep, c = factorization[p]
    if rep != identity:
        syllables.append((side, rep))
    return c


def factor_nf(spec: AmalgamSpec, side: int, elem: int) -> NormalForm:
    """Normal form of a single factor element."""
    syl: list = []
    head = _append_factor(spec.sides[side], syl, spec.C.identity, side, elem)
    return NormalForm(tuple(syl), head)


def multiply(spec: AmalgamSpec, x: NormalForm, y: NormalForm) -> NormalForm:
    """x y.  y's syllables are appended one by one only up to the junction:
    once the carried head is C's identity and y's next syllable is on the
    other side from the last syllable so far, the rest of y is copied in one
    slice.  That is right because y is a normal form (alternating
    non-identity transversal reps), which callers must ensure."""
    sides = spec.sides
    C = spec.C
    one = C.identity
    syl = list(x.syllables)
    head = x.head
    ys = y.syllables
    i = 0
    for side, elem in ys:
        if head == one and not (syl and syl[-1][0] == side):
            syl += ys[i:]
            break
        head = _append_factor(sides[side], syl, head, side, elem)
        i += 1
    return NormalForm(tuple(syl), C.mul[head][y.head])


def invert(spec: AmalgamSpec, x: NormalForm) -> NormalForm:
    syl: list = []
    head = spec.C.inv[x.head]
    for side, elem in reversed(x.syllables):
        inv = spec.factor(side).inv
        head = _append_factor(spec.sides[side], syl, head, side, inv[elem])
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


class Word(NamedTuple):
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


class GenSetError(ValueError):
    pass


class GenSet(NamedTuple):
    names: tuple[str, ...]
    elements: tuple[NormalForm, ...]

    def alphabet(self) -> dict[str, NormalForm]:
        return dict(zip(self.names, self.elements))


def make_genset(spec: AmalgamSpec, named: list[tuple[str, NormalForm]]) -> GenSet:
    names = [n for n, _ in named]
    elements = [g for _, g in named]
    if len(set(names)) != len(names):
        raise GenSetError("duplicate generator names")
    if len(set(elements)) != len(elements):
        raise GenSetError("duplicate generators")
    for n, g in named:
        if is_identity(spec, g):
            raise GenSetError(f"generator {n} is the identity")
    return GenSet(tuple(names), tuple(elements))
