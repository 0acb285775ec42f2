"""Finite groups as explicit multiplication tables, plus embeddings and coset
transversals.

Every table is validated exactly, at any order: it must be a Latin square
with a two-sided identity and two-sided inverses, and associative by Light's
test (Clifford and Preston, The Algebraic Theory of Semigroups I, 1.2):
(x g) y = x (g y) for all x, y and each g of a set generating the table, in
n^2 lookups per generator.
"""
from __future__ import annotations

from typing import NamedTuple


class GroupValidationError(ValueError):
    """A multiplication table violates a group axiom; the message names the
    axiom and a witness."""


class FiniteGroup(NamedTuple):
    order: int
    mul: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...]
    labels: tuple[str, ...]

    def element_order(self, x: int) -> int:
        n, acc = 1, x
        while acc != self.identity:
            acc = self.mul[acc][x]
            n += 1
        return n

    def is_abelian(self) -> bool:
        return all(
            self.mul[x][y] == self.mul[y][x]
            for x in range(self.order) for y in range(self.order)
        )


def _generators(mul: list[list[int]], identity: int) -> list[int]:
    """A set generating the table under its own operation, greedily: each
    generator is the least element outside the products reached so far."""
    gens: list[int] = []
    reached = {identity}
    for x in range(len(mul)):
        if x not in reached:
            gens.append(x)
            todo = list(reached)
            while todo:
                row = mul[todo.pop()]
                new = {row[g] for g in gens} - reached
                reached |= new
                todo.extend(new)
    return gens


def _validate_table(mul: list[list[int]], labels: list[str]) -> tuple[int, list[int]]:
    """Check the group axioms, returning (identity, inverses).

    Raises GroupValidationError with a witness on failure.
    """
    n = len(mul)
    if n == 0 or any(len(row) != n for row in mul):
        raise GroupValidationError("table is not square")
    rng = range(n)
    for i, row in enumerate(mul):
        for v in row:
            if not 0 <= v < n:
                raise GroupValidationError(f"entry out of range in row {i}")
        if sorted(row) != list(rng):
            raise GroupValidationError(f"closure/cancellation: row {labels[i]} is not a permutation")
    for j in rng:
        col = [mul[i][j] for i in rng]
        if sorted(col) != list(rng):
            raise GroupValidationError(f"closure/cancellation: column {labels[j]} is not a permutation")

    identity = None
    for e in rng:
        if all(mul[e][x] == x and mul[x][e] == x for x in rng):
            identity = e
            break
    if identity is None:
        raise GroupValidationError("no two-sided identity")

    # rows are permutations, so x has exactly one right inverse
    inv = [row.index(identity) for row in mul]
    for x in rng:
        if mul[inv[x]][x] != identity:
            raise GroupValidationError(f"no two-sided inverse for {labels[x]}")

    # Light's test: the g with (x g) y = x (g y) for all x, y are closed
    # under products, so checking generators proves associativity
    for g in _generators(mul, identity):
        row_g = mul[g]
        for x in rng:
            row_x = mul[x]
            if mul[row_x[g]] != [row_x[v] for v in row_g]:
                y = next(y for y in rng if mul[row_x[g]][y] != row_x[row_g[y]])
                raise GroupValidationError(
                    f"associativity fails at ({labels[x]},{labels[g]},{labels[y]})")
    return identity, inv


def _make(mul: list[list[int]], labels: list[str]) -> FiniteGroup:
    identity, inv = _validate_table(mul, labels)
    return FiniteGroup(
        order=len(mul),
        mul=tuple(tuple(row) for row in mul),
        identity=identity,
        inv=tuple(inv),
        labels=tuple(labels),
    )


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n, elements labelled 1, a, a^2, ..."""
    if n < 1:
        raise ValueError("cyclic order must be >= 1")
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["1" if i == 0 else ("a" if i == 1 else f"a^{i}") for i in range(n)]
    return _make(mul, labels)


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order: rotations a^0..a^{n-1} first,
    then reflections a^i b.  Convention: b a = a^{-1} b."""
    if order < 2 or order % 2:
        raise ValueError("dihedral order must be even and >= 2")
    n = order // 2
    mul = [[0] * order for _ in range(order)]
    for i in range(n):
        for j in range(n):
            mul[i][j] = (i + j) % n                  # a^i a^j
            mul[i][n + j] = n + (i + j) % n          # a^i (a^j b)
            mul[n + i][j] = n + (i - j) % n          # (a^i b) a^j
            mul[n + i][n + j] = (i - j) % n          # (a^i b)(a^j b)
    rot = ["1" if i == 0 else ("a" if i == 1 else f"a^{i}") for i in range(n)]
    ref = ["b" if i == 0 else (f"ab" if i == 1 else f"a^{i}b") for i in range(n)]
    return _make(mul, rot + ref)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product; element (x, y) has index x*|H| + y."""
    n, m = g.order, h.order
    mul = [[0] * (n * m) for _ in range(n * m)]
    for x1 in range(n):
        for y1 in range(m):
            for x2 in range(n):
                for y2 in range(m):
                    mul[x1 * m + y1][x2 * m + y2] = g.mul[x1][x2] * m + h.mul[y1][y2]
    labels = [f"({g.labels[x]},{h.labels[y]})" for x in range(n) for y in range(m)]
    return _make(mul, labels)


def from_table(mul: list[list[int]], labels: list[str] | None = None) -> FiniteGroup:
    if labels is None:
        labels = [f"g{i}" for i in range(len(mul))]
    return _make([list(row) for row in mul], list(labels))


def build_group(spec: dict) -> FiniteGroup:
    """Build a group from a JSON-compatible family descriptor.

    Accepted forms:
      {"family": "cyclic", "n": 3}
      {"family": "dihedral", "order": 6}
      {"family": "product", "left": <spec>, "right": <spec>}
      {"family": "table", "mul": [[...]], "labels": [...]?}
    """
    fam = spec.get("family")
    if fam == "cyclic":
        return cyclic(int(spec["n"]))
    if fam == "dihedral":
        return dihedral(int(spec["order"]))
    if fam == "product":
        return direct_product(build_group(spec["left"]), build_group(spec["right"]))
    if fam == "table":
        return from_table(spec["mul"], spec.get("labels"))
    raise ValueError(f"unknown group family: {fam!r}")


class Embedding(NamedTuple):
    """An injective homomorphism from `source` into `target`, given as a
    per-element index map."""
    source: FiniteGroup
    target: FiniteGroup
    image: tuple[int, ...]


class EmbeddingError(ValueError):
    pass


def verify_embedding(source: FiniteGroup, target: FiniteGroup, image) -> Embedding:
    """Validate an index map C -> target as an injective homomorphism."""
    image = tuple(image)
    if len(image) != source.order:
        raise EmbeddingError("image must be defined on every source element")
    if any(not 0 <= v < target.order for v in image):
        raise EmbeddingError("image index out of range")
    if len(set(image)) != source.order:
        seen = {}
        for i, v in enumerate(image):
            if v in seen:
                raise EmbeddingError(
                    f"not injective: {source.labels[seen[v]]} and "
                    f"{source.labels[i]} both map to {target.labels[v]}")
            seen[v] = i
    for x in range(source.order):
        for y in range(source.order):
            if image[source.mul[x][y]] != target.mul[image[x]][image[y]]:
                raise EmbeddingError(
                    f"not multiplicative at ({source.labels[x]},{source.labels[y]})")
    return Embedding(source, target, image)


class Transversal(NamedTuple):
    """Left-coset representatives of the embedded subgroup, identity first,
    every other coset represented by its smallest element index."""
    reps: tuple[int, ...]
    # per target element: (rep, c) with element = rep * image[c]
    factorization: tuple[tuple[int, int], ...]


def coset_transversal(target: FiniteGroup, emb: Embedding) -> Transversal:
    if emb.target is not target:
        raise ValueError("embedding does not target this group")
    csub = list(emb.image)
    assigned: dict[int, int] = {}
    reps = []
    for g in range(target.order):
        if g in assigned:
            continue
        coset = [target.mul[g][c] for c in csub]
        rep = target.identity if target.identity in coset else min(coset)
        reps.append(rep)
        for h in coset:
            assigned[h] = rep
    reps.sort()
    if target.identity in reps:
        reps.remove(target.identity)
        reps.insert(0, target.identity)
    fact = [None] * target.order
    for r in reps:
        for ci in range(emb.source.order):
            fact[target.mul[r][emb.image[ci]]] = (r, ci)
    if any(f is None for f in fact):
        raise ValueError("cosets do not cover the group")  # pragma: no cover
    return Transversal(reps=tuple(reps), factorization=tuple(fact))
