"""The Bass-Serre tree of an amalgam, as a lazily expanded graph.

Vertices are the left cosets gA and gB, edges the cosets gC; the group acts
by left multiplication, preserving the two sides (no edge inversions), so
the tree is bipartite and all translation lengths are even.

A vertex is canonically keyed by the syllable string of its coset: the head
and any trailing same-side syllable are stripped.  With that convention the
vertex set is exactly the set of alternating syllable strings, each vertex's
parent is obtained by dropping the last syllable, and the two base vertices
(empty key, either side) are adjacent.  So v's ancestor at depth n is keyed
by the prefix v.key[:n]: geodesics, and tree distances as their lengths, come
from the longest common prefix of two keys.
"""
from __future__ import annotations

from typing import NamedTuple

from .amalgam import (
    SIDE_A,
    SIDE_B,
    AmalgamSpec,
    NormalForm,
    cyclic_reduce,
    invert,
    multiply,
)


class TreeVertex(NamedTuple):
    side: int
    key: tuple[tuple[int, int], ...]

    def sort_key(self):
        return (len(self.key), self.key, self.side)


def vertex_json(v: TreeVertex) -> dict:
    """v as JSON: its side and its key's syllables as lists."""
    return {"side": v.side, "key": [list(s) for s in v.key]}


def base_vertex(side: int) -> TreeVertex:
    return TreeVertex(side, ())


BASE_A = base_vertex(SIDE_A)
BASE_B = base_vertex(SIDE_B)


def act(spec: AmalgamSpec, g: NormalForm, v: TreeVertex) -> TreeVertex:
    """g.v: the form g * v.key, a last syllable on v's side stripped."""
    syl = multiply(spec, g, NormalForm(v.key, spec.C.identity)).syllables
    if syl and syl[-1][0] == v.side:
        syl = syl[:-1]
    return TreeVertex(v.side, syl)


def neighbors(spec: AmalgamSpec, v: TreeVertex) -> list[TreeVertex]:
    """Adjacent vertices: for gA these are g t B over the transversal of C in
    A (t = identity giving gB), and symmetrically."""
    other = SIDE_B if v.side == SIDE_A else SIDE_A
    fac = spec.factor(v.side)
    out = []
    for t in spec.transversal(v.side).reps:
        if t == fac.identity:
            out.append(_parent(v) or base_vertex(other))
        else:
            out.append(TreeVertex(other, v.key + ((v.side, t),)))
    return out


def _ancestor(v: TreeVertex, n: int) -> TreeVertex:
    """The vertex on v's chain keyed by v.key[:n]: its side is that of the
    next syllable of v's key, or v's own side at n == len(v.key)."""
    return TreeVertex(v.key[n][0] if n < len(v.key) else v.side, v.key[:n])


def _meet(u: TreeVertex, v: TreeVertex) -> int:
    """The length of the longest common prefix of the two keys."""
    n = 0
    for a, b in zip(u.key, v.key):
        if a != b:
            break
        n += 1
    return n


def _parent(v: TreeVertex) -> TreeVertex | None:
    return _ancestor(v, len(v.key) - 1) if v.key else None


def _at_or_above(x: TreeVertex, v: TreeVertex) -> bool:
    """Whether x is v or an ancestor of v: `_ancestor(v, len(x.key)) == x`,
    tested on that vertex's side and key prefix without building it."""
    n, key = len(x.key), v.key
    return (n <= len(key) and (key[n][0] if n < len(key) else v.side) == x.side
            and key[:n] == x.key)


def tree_distance(u: TreeVertex, v: TreeVertex) -> int:
    """Exact tree distance: the length of the geodesic."""
    return len(geodesic(u, v)) - 1


def nearest_pair(us, vs) -> tuple[int, TreeVertex, TreeVertex]:
    """(d, u, v) with d = tree_distance(u, v) least over u in us and v in
    vs, ties broken by u's and then v's sort_key."""
    return min(((tree_distance(u, v), u, v) for u in us for v in vs),
               key=lambda t: (t[0], t[1].sort_key(), t[2].sort_key()))


def geodesic(u: TreeVertex, v: TreeVertex) -> list[TreeVertex]:
    """The vertex path from u to v (inclusive): up u's chain to the depth of
    the keys' common prefix, then down v's.  The two halves share their
    meeting vertex, or, at depth 0, are the two ends of the base edge."""
    m = _meet(u, v)
    up = [_ancestor(u, n) for n in range(len(u.key), m - 1, -1)]
    down = [_ancestor(v, n) for n in range(m, len(v.key) + 1)]
    return up + down[1:] if up[-1] == down[0] else up + down


def ball(spec: AmalgamSpec, center: TreeVertex, radius: int) -> list[TreeVertex]:
    """All vertices within the radius, in BFS discovery order."""
    seen = {center}
    out = [center]
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for y in neighbors(spec, x):
                if y not in seen:
                    seen.add(y)
                    out.append(y)
                    nxt.append(y)
        frontier = nxt
    return out


def displacement(spec: AmalgamSpec, g: NormalForm, v: TreeVertex) -> int:
    return tree_distance(v, act(spec, g, v))


class Classification(NamedTuple):
    tau: int                          # translation length; 0 iff elliptic
    witness: TreeVertex               # fixed by g, or on its axis

    @property
    def verdict(self) -> str:
        return "hyperbolic" if self.tau else "elliptic"

    @property
    def elliptic(self) -> bool:
        return self.tau == 0

    @property
    def hyperbolic(self) -> bool:
        return self.tau > 0


def classify(spec: AmalgamSpec, g: NormalForm) -> Classification:
    """Translation length and a witness vertex (fixed by g, or on its axis),
    by cyclic reduction.  A core of syllable length <= 1 lies in a factor up
    to conjugacy (elliptic); otherwise the core is alternating with ends on
    different sides, the translation length equals its syllable length
    (even), and the conjugated base vertex lies on the axis.  The action has
    no inversions, so every element is elliptic or hyperbolic (Serre,
    *Trees*, I.6.4, Prop. 24-25); `witness_holds` proves a result with two
    actions."""
    core, conj = cyclic_reduce(spec, g)
    n = len(core.syllables)
    tau = n if n > 1 else 0
    assert tau % 2 == 0, "translation lengths on the bipartite tree are even"
    side = core.syllables[0][0] if n == 1 else SIDE_A
    return Classification(tau, act(spec, conj, base_vertex(side)))


def witness_holds(spec: AmalgamSpec, g: NormalForm,
                  cls: Classification) -> bool:
    """Whether two actions on the witness w prove `cls` for g: g.w = w
    proves g elliptic, and d(w, g.w) = tau > 0 with d(w, g^2.w) = 2 tau
    proves g hyperbolic with translation length tau and w on its axis.  Off
    the axis both distances exceed these by 2 d(w, axis); for an elliptic
    g, d(w, g^2.w) <= d(w, g.w)."""
    w = cls.witness
    return (tree_distance(w, act(spec, g, w)) == cls.tau
            and tree_distance(w, act(spec, multiply(spec, g, g), w))
            == 2 * cls.tau)


class VerdictError(ValueError):
    pass


def fixed_set(spec: AmalgamSpec, g: NormalForm, radius: int) -> list[TreeVertex]:
    """All fixed vertices within `radius` of a fixed witness, sorted by
    sort_key; the result is a connected subtree.  Refuses hyperbolic input.

    Fix(g) and the ball are subtrees holding the witness, so their
    intersection is connected: a BFS from the witness that expands only
    fixed vertices reaches all of it, at one `act` per neighbour of a
    fixed vertex rather than one per ball vertex."""
    cls = classify(spec, g)
    if not cls.elliptic:
        raise VerdictError("fixed_set requires an elliptic element")
    seen = {cls.witness}
    frontier = [cls.witness]
    for _ in range(radius):
        frontier = [y for x in frontier for y in neighbors(spec, x)
                    if y not in seen and act(spec, g, y) == y]
        seen.update(frontier)
    return sorted(seen, key=TreeVertex.sort_key)


def axis_segment(spec: AmalgamSpec, g: NormalForm, radius: int) -> list[TreeVertex]:
    """Vertices v with d(v, g.v) = tau within the ball, ordered along the
    axis; g translates the returned list by tau positions on the overlap."""
    cls = classify(spec, g)
    if not cls.hyperbolic:
        raise VerdictError("axis_segment requires a hyperbolic element")
    verts = [v for v in ball(spec, cls.witness, radius)
             if displacement(spec, g, v) == cls.tau]
    end = max(verts, key=lambda v: (tree_distance(v, cls.witness), v.sort_key()))
    verts.sort(key=lambda v: (tree_distance(v, end), v.sort_key()))
    for a, b in zip(verts, verts[1:]):
        if tree_distance(a, b) != 1:
            raise AssertionError("axis segment is not a path at this radius")
    return verts


class EllipticProductReport(NamedTuple):
    applicable: bool
    passed: bool
    tau: int | None
    fix_distance: int | None
    detail: str


def elliptic_product_check(spec: AmalgamSpec, x: NormalForm, y: NormalForm,
                           radius: int) -> EllipticProductReport:
    """For elliptic x, y with disjoint fixed sets, verify that x y^-1 is
    hyperbolic with tau = 2 d(Fix(x), Fix(y)) and that its axis contains the
    segment between the fixed sets together with its x- and y-images."""
    for g in (x, y):
        if not classify(spec, g).elliptic:
            raise VerdictError("elliptic_product_check requires elliptic inputs")
    fx = fixed_set(spec, x, radius)
    fy = fixed_set(spec, y, radius)
    if set(fx) & set(fy):
        return EllipticProductReport(False, False, None, None,
                                     "fixed sets intersect within the radius")
    d, u, v = nearest_pair(fx, fy)
    g = multiply(spec, x, invert(spec, y))
    cls = classify(spec, g)
    if not cls.hyperbolic or cls.tau != 2 * d:
        return EllipticProductReport(
            True, False, cls.tau, d,
            f"expected hyperbolic with tau={2*d}, got {cls.verdict} tau={cls.tau}")
    segment = geodesic(u, v)
    for w in segment:
        for img in (w, act(spec, x, w), act(spec, y, w)):
            # img lies on the axis of g iff d(img, g.img) = tau
            if displacement(spec, g, img) != cls.tau:
                return EllipticProductReport(
                    True, False, cls.tau, d, f"axis misses {img}")
    return EllipticProductReport(True, True, cls.tau, d,
                                 "tau = 2 d(Fix,Fix); segment and images on axis")

