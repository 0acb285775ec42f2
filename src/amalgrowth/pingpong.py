"""Replayable ping-pong certificates on the amalgam tree.

A certificate holds a claim and its witness, and nothing else: its kind and
spec hash, its elements (role and normal form), a list of half-tree sets
(anchor edge plus direction), a list of checks, the conclusion, and in
`data` the one hint `ell` (the certified right element is y x^ell for the
input y).  `CHECKS` decides each check kind from the check's JSON dict, for
the certificate search and for `replay` alike.  Because the group acts by
tree automorphisms, g(H) is again a half-tree with known anchor, so
disjointness and "g maps this set into that set" reduce to a constant number
of exact key-prefix tests.

`replay` derives from the payload's kind, elements and set labels the checks
that the ping-pong lemma needs for its shape and the conclusion they prove
(`_obligations`): the orders of the generated finite subgroups and the
translation length of each `hyperbolic` check are computed, never read.  It
requires each of those checks to be listed and the conclusion to be the
derived one, and re-runs every listed check; a check of a kind outside
`CHECKS` is rejected.  `replay` never reads `data`.  Older payloads, which
also carry the search radius, each element's `inverted` flag and `tau`, and
in `data` copies of the orders, distances, translation lengths and inversion
pattern, still replay: those fields are ignored.

Success is a proof; failure is always inconclusive (never a refutation).
"""
from __future__ import annotations

import itertools
from typing import NamedTuple

from .amalgam import (
    SIDE_A,
    SIDE_B,
    AmalgamSpec,
    NormalForm,
    identity_nf,
    invert,
    is_identity,
    multiply,
)
from .tree import (
    Classification,
    TreeVertex,
    _at_or_above,
    act,
    axis_segment,
    classify,
    displacement,
    fixed_set,
    geodesic,
    nearest_pair,
    tree_distance,
    vertex_json,
)

SUBGROUP_CAP = 512


class HalfTree(NamedTuple):
    """The vertices strictly closer to w than to u, for an edge (u, w); one of
    the two components of the tree minus that edge.

    `contains` is exact only when u and w are adjacent: it decides membership
    from key prefixes, since the tree hangs from the base edge.  H(u, w) is
    the subtree under w, or everything outside u's subtree when w is u's
    parent.  `replay` checks the adjacency first."""
    u: TreeVertex
    w: TreeVertex

    def contains(self, v: TreeVertex) -> bool:
        u, w = self.u, self.w
        if u.key and u.key[-1][0] == w.side and u.key[:-1] == w.key:
            return not _at_or_above(u, v)
        return _at_or_above(w, v)


def image_half_tree(spec: AmalgamSpec, g: NormalForm, h: HalfTree) -> HalfTree:
    """g(H(u, w)) = H(g.u, g.w): automorphisms carry half-trees to half-trees."""
    return HalfTree(act(spec, g, h.u), act(spec, g, h.w))


def half_trees_disjoint(h1: HalfTree, h2: HalfTree) -> bool:
    """Exact: two half-trees are disjoint iff neither contains the other's
    inner anchor (geodesics between members stay inside a component)."""
    return not h1.contains(h2.w) and not h2.contains(h1.w)


def half_tree_subset(h1: HalfTree, h2: HalfTree) -> bool:
    """Exact: H1 is contained in H2 iff w1 lies in H2 and u2 does not lie in
    H1."""
    return h2.contains(h1.w) and not h1.contains(h2.u)


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


def _vertex_from_json(spec: AmalgamSpec, d: dict) -> TreeVertex:
    """The vertex stored by `vertex_json`; ValueError unless its key is an
    alternating syllable string whose last syllable is on the other side."""
    key = syllables_from_json(spec, d["key"])
    side = d["side"]
    if type(side) is not int or side not in (SIDE_A, SIDE_B) or (
            key and key[-1][0] == side):
        raise ValueError(f"not a canonical vertex: {d!r}")
    return TreeVertex(side, key)


class PingPongCertificate(NamedTuple):
    kind: str                      # "free-monoid" | "free-product-split"
    spec_hash: str
    elements: list[dict]           # {"role": str, "nf": {...}}
    sets: list[dict]               # {"label": str, "u": {...}, "w": {...}}
    checks: list[dict]
    conclusion: str
    data: dict                     # {"ell": int} or {}; never replayed

    def to_json(self) -> dict:
        return self._asdict()

    @staticmethod
    def from_json(d: dict) -> "PingPongCertificate":
        return PingPongCertificate(
            kind=d["kind"], spec_hash=d["spec_hash"], elements=d["elements"],
            sets=d["sets"], checks=d["checks"], conclusion=d["conclusion"],
            data=d.get("data", {}))


def _check(kind: str, **fields) -> dict:
    """The JSON dict of a check; normal forms are serialised."""
    out = {"check": kind}
    for name, value in fields.items():
        out[name] = nf_to_json(value) if isinstance(value, NormalForm) else value
    return out


def _maps_into(spec: AmalgamSpec, sets: list[HalfTree], c: dict) -> bool:
    g = nf_from_json(spec, c["g"])
    return half_tree_subset(image_half_tree(spec, g, sets[c["source"]]),
                            sets[c["target"]])


def _hyperbolic(spec: AmalgamSpec, sets: list[HalfTree], c: dict) -> bool:
    cls = classify(spec, nf_from_json(spec, c["g"]))
    return cls.hyperbolic and cls.tau == c["tau"]


def _hyperbolic_check(spec: AmalgamSpec, g: NormalForm) -> dict:
    return _check("hyperbolic", g=g, tau=classify(spec, g).tau)


# check kind -> decision from (spec, the certificate's sets, the check's dict)
CHECKS = {
    "disjoint": lambda spec, sets, c: half_trees_disjoint(
        *[sets[i] for i in c["sets"]]),
    "maps_into": _maps_into,
    "hyperbolic": _hyperbolic,
}


def _obligations(spec: AmalgamSpec, kind: str, elements: list[dict],
                 sets: list[dict]) -> tuple[list[dict], str] | None:
    """The checks the ping-pong lemma (de la Harpe, Topics in Geometric Group
    Theory, II.B) needs for the payload's shape and the conclusion they
    prove, or None when it fits no shape or a generated subgroup has more
    than `SUBGROUP_CAP` elements.  Subgroup orders and translation lengths
    are computed here (`_closure`, `classify`), never read from the payload.

    The shape is read from the kind, the element roles and the set labels:
    - free monoid x1..xk on X1..Xk: X_i pairwise disjoint, x_i(X_j) in X_i
      for all i, j, each x_i hyperbolic;
    - split on X, Y (elliptic/elliptic): X, Y disjoint, every non-identity
      element of each generated finite subgroup maps the other set into its
      own, and for two subgroups of order 2 their product is hyperbolic;
    - split on X, Y+, Y- (elliptic/hyperbolic y): the sets pairwise
      disjoint, y hyperbolic, y^{+-1} maps X and Y+- into Y+-, every
      non-identity element of the finite subgroup maps Y+- into X;
    - split on X+, X-, Y+, Y- (hyperbolic x, y): the sets pairwise
      disjoint, x and y hyperbolic, each of x^{+-1}, y^{+-1} maps the three
      sets other than its repelling one into its attracting one.
    """
    k = len(elements)
    roles = [e["role"] for e in elements]
    nfs = [nf_from_json(spec, e["nf"]) for e in elements]
    labels = [s["label"] for s in sets]
    if kind == "free-monoid":
        if (k < 2 or labels != [f"X{i+1}" for i in range(k)]
                or any(r not in (f"x{i+1}", f"x{i+1}^-1")
                       for i, r in enumerate(roles))):
            return None
        out = []
        for i, g in enumerate(nfs):
            for j in range(k):
                out.append(_check("maps_into", g=g, source=j, target=i))
                if i < j:
                    out.append(_check("disjoint", sets=[i, j]))
            out.append(_hyperbolic_check(spec, g))
        return out, ("positive words in {" + ", ".join(roles)
                     + "} are pairwise distinct (free monoid)")
    n_left = roles.count("left")
    if (kind != "free-product-split" or not 0 < n_left < k
            or roles != ["left"] * n_left + ["right"] * (k - n_left)):
        return None
    left, right = nfs[:n_left], nfs[n_left:]
    disjoint = [_check("disjoint", sets=[i, j])
                for i, j in itertools.combinations(range(len(sets)), 2)]
    if labels == ["X", "Y"]:
        GX = _closure(spec, left, SUBGROUP_CAP)
        GY = _closure(spec, right, SUBGROUP_CAP)
        if GX is None or GY is None:
            return None
        out = (disjoint
               + [_check("maps_into", g=g, source=1, target=0)
                  for g in GX if not is_identity(spec, g)]
               + [_check("maps_into", g=h, source=0, target=1)
                  for h in GY if not is_identity(spec, h)])
        if len(GX) == 2 and len(GY) == 2:
            out.append(_hyperbolic_check(spec, multiply(spec, left[0], right[0])))
        return out, (f"the generated subgroups (orders {len(GX)}, {len(GY)}) "
                     "generate their free product")
    if labels == ["X", "Y+", "Y-"] and len(right) == 1:
        GX = _closure(spec, left, SUBGROUP_CAP)
        if GX is None:
            return None
        y, yi = right[0], invert(spec, right[0])
        out = disjoint + [
            _hyperbolic_check(spec, y),
            _check("maps_into", g=y, source=1, target=1),
            _check("maps_into", g=y, source=0, target=1),
            _check("maps_into", g=yi, source=2, target=2),
            _check("maps_into", g=yi, source=0, target=2)]
        for g in GX:
            if not is_identity(spec, g):
                out += [_check("maps_into", g=g, source=1, target=0),
                        _check("maps_into", g=g, source=2, target=0)]
        return out, (f"the finite subgroup (order {len(GX)}) and the "
                     "hyperbolic cyclic group generate their free product")
    if labels == ["X+", "X-", "Y+", "Y-"] and k == 2:
        x, y = nfs
        out = disjoint + [_hyperbolic_check(spec, g) for g in nfs]
        # each generator drives everything outside its repelling set into
        # its attracting set
        for g, target in ((x, 0), (invert(spec, x), 1),
                          (y, 2), (invert(spec, y), 3)):
            repelling = target ^ 1
            out += [_check("maps_into", g=g, source=src, target=target)
                    for src in range(4) if src != repelling]
        return out, ("the two hyperbolic cyclic groups generate their free "
                     "product")
    return None


def replay(spec: AmalgamSpec, cert: PingPongCertificate) -> bool:
    """Accept a certificate iff it is for this spec, its sets are edges,
    every check its shape requires is listed, every listed check holds and
    its conclusion is the one its shape proves (`_obligations`).  It
    never reads `data`, nor an element's keys other than `role` and `nf`.
    A malformed payload is rejected, never raised on."""
    if spec.spec_hash() != cert.spec_hash:
        return False
    try:
        sets = [HalfTree(_vertex_from_json(spec, s["u"]),
                         _vertex_from_json(spec, s["w"])) for s in cert.sets]
        obligations = _obligations(spec, cert.kind, cert.elements, cert.sets)
        if obligations is None:
            return False
        required, conclusion = obligations
        # the sets must be edges before any check reads them: membership
        # (`HalfTree.contains`) is exact only on edges
        return (cert.conclusion == conclusion
                and all(tree_distance(s.u, s.w) == 1 for s in sets)
                and all(c in cert.checks for c in required)
                and all(CHECKS[c["check"]](spec, sets, c) for c in cert.checks))
    except (KeyError, IndexError, TypeError, ValueError):
        return False


def default_radius(elements: list[NormalForm]) -> int:
    return 2 * max((len(g.syllables) for g in elements), default=1) + 4


def _diag(diagnostics: list[str] | None, msg: str) -> None:
    if diagnostics is not None:
        diagnostics.append(msg)


def _certificate(spec: AmalgamSpec, kind: str,
                 elements: list[tuple[str, NormalForm]],
                 sets: list[tuple[str, HalfTree]], data: dict,
                 diagnostics: list[str] | None) -> PingPongCertificate | None:
    """The certificate of the (role, element) pairs whose checks are its
    shape's obligations, or None when one of them fails."""
    elements_json = [{"role": role, "nf": nf_to_json(g)} for role, g in elements]
    sets_json = [{"label": label, "u": vertex_json(h.u), "w": vertex_json(h.w)}
                 for label, h in sets]
    halves = [h for _, h in sets]
    obligations = _obligations(spec, kind, elements_json, sets_json)
    if obligations is None:
        # the searches build only payloads of a shape, so a subgroup
        # closure gave up
        _diag(diagnostics, f"generated subgroup exceeds cap {SUBGROUP_CAP}")
        return None
    checks, conclusion = obligations
    for c in checks:
        if not CHECKS[c["check"]](spec, halves, c):
            _diag(diagnostics, f"structural check {c['check']} failed")
            return None
    return PingPongCertificate(kind, spec.spec_hash(), elements_json,
                               sets_json, checks, conclusion, data)


def _axis_window(spec: AmalgamSpec, g: NormalForm,
                 cls: Classification) -> list[TreeVertex]:
    """Axis vertices from g^-1(v) to g(v) around the witness v, ordered in
    the translation direction."""
    back = act(spec, invert(spec, g), cls.witness)
    fwd = act(spec, g, cls.witness)
    return geodesic(back, cls.witness)[:-1] + geodesic(cls.witness, fwd)


def _forward_anchors(spec: AmalgamSpec, g: NormalForm,
                     cls: Classification) -> list[HalfTree]:
    """Candidate attracting sets for a hyperbolic g: half-trees anchored on
    forward edges of its axis window, each verified self-absorbing."""
    path = _axis_window(spec, g, cls)
    out = []
    for u, w in zip(path, path[1:]):
        h = HalfTree(u, w)
        if half_tree_subset(image_half_tree(spec, g, h), h):
            out.append(h)
    return out


def certify_free_monoid(spec: AmalgamSpec, elements: list[NormalForm],
                        radius: int | None = None,
                        diagnostics: list[str] | None = None,
                        stats: dict | None = None,
                        ) -> PingPongCertificate | None:
    """Certificate that the elements (possibly after recorded inverse
    replacements) generate a free monoid: pairwise disjoint half-trees X_i
    with x_i(X_j) contained in X_i for all i, j.

    Returns None when no candidate family works (inconclusive, not a
    refutation).  The search reads one axis window per element and does not
    depend on `radius`, which callers pass as to `certify_free_split`.  A
    `stats` dict, when given, receives the search counters: `patterns_tried`
    (inversion patterns searched) and `anchors_tested` (candidate half-trees
    tested against the family chosen so far).
    """
    counts = stats if stats is not None else {}
    counts.update(patterns_tried=0, anchors_tested=0)
    k = len(elements)
    if k < 2:
        _diag(diagnostics, "need at least two elements")
        return None
    base_cls = [classify(spec, g) for g in elements]
    if any(c.elliptic for c in base_cls):
        _diag(diagnostics, "an element is elliptic; no attracting half-tree")
        return None
    # (element or its inverse, its forward anchors) per (index, flip), built
    # on first use: 2k of them serve all 2^k patterns
    sides: dict[tuple[int, bool], tuple] = {}

    def side(i: int, flip: bool) -> tuple:
        if (i, flip) not in sides:
            g = invert(spec, elements[i]) if flip else elements[i]
            c = classify(spec, g) if flip else base_cls[i]
            sides[i, flip] = g, _forward_anchors(spec, g, c)
        return sides[i, flip]

    patterns = sorted(itertools.product((False, True), repeat=k),
                      key=lambda p: (sum(p), p))
    for pattern in patterns:
        counts["patterns_tried"] += 1
        if not all(side(i, flip)[1] for i, flip in enumerate(pattern)):
            continue
        els, anchors = zip(*map(side, range(k), pattern))
        chosen: list[HalfTree] = []

        def search(i: int) -> bool:
            if i == k:
                return True
            for h in anchors[i]:
                counts["anchors_tested"] += 1
                if all(half_trees_disjoint(h, prev)
                       and half_tree_subset(image_half_tree(spec, els[i], prev), h)
                       and half_tree_subset(image_half_tree(spec, els[j], h), prev)
                       for j, prev in enumerate(chosen)):
                    chosen.append(h)
                    if search(i + 1):
                        return True
                    chosen.pop()
            return False

        if not search(0):
            continue
        names = [f"x{i+1}" + ("^-1" if flip else "")
                 for i, flip in enumerate(pattern)]
        # the search verified the inclusions, so this cannot fail
        return _certificate(
            spec, "free-monoid", list(zip(names, els)),
            [(f"X{i+1}", h) for i, h in enumerate(chosen)], {}, diagnostics)
    _diag(diagnostics, "no disjoint absorbing half-tree family found")
    return None


def _closure(spec: AmalgamSpec, gens: list[NormalForm],
             cap: int) -> list[NormalForm] | None:
    """All elements of the generated subgroup, sorted, or None once it has
    more than `cap`: a plain BFS over `multiply`.  Right multiplication by
    the generators alone reaches the whole subgroup when it is finite (each
    inverse is a positive power)."""
    one = identity_nf(spec)
    seen = {one}
    frontier = [one]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = multiply(spec, x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if len(seen) > cap:
            return None
        frontier = nxt
    return sorted(seen)


def _common_fixed(spec: AmalgamSpec, gens: list[NormalForm],
                  radius: int) -> list[TreeVertex]:
    """Vertices fixed by every generator, within the radius ball around a
    fixed witness of the first one: `fixed_set` of the first generator (a
    BFS inside its fixed subtree), filtered by the others."""
    return [v for v in fixed_set(spec, gens[0], radius)
            if all(act(spec, g, v) == v for g in gens[1:])]


def _middle_edge(path: list[TreeVertex]) -> tuple[TreeVertex, TreeVertex]:
    i = (len(path) - 2) // 2
    return path[i], path[i + 1]


def _split_elements(left: list[NormalForm],
                   right: list[NormalForm]) -> list[tuple[str, NormalForm]]:
    return [("left", g) for g in left] + [("right", h) for h in right]


def _split_elliptic_elliptic(
        spec: AmalgamSpec, gx: list[NormalForm], fx: list[TreeVertex],
        gy: list[NormalForm], radius: int, diagnostics: list[str] | None,
        data: dict) -> PingPongCertificate | None:
    """Free-product split of two finite subgroups with disjoint fixed sets
    (fx the common fixed set of gx), by ping-pong across a middle edge of
    the connecting segment."""
    fy = _common_fixed(spec, gy, radius)
    if not fy:
        _diag(diagnostics, "no common fixed vertex within radius")
        return None
    if set(fx) & set(fy):
        _diag(diagnostics, "subgroups share a fixed vertex; not a split")
        return None
    _, p, q = nearest_pair(fx, fy)
    m, mp = _middle_edge(geodesic(p, q))
    return _certificate(
        spec, "free-product-split", _split_elements(gx, gy),
        [("X", HalfTree(mp, m)), ("Y", HalfTree(m, mp))],  # X holds p, Y q
        data, diagnostics)


def _split_elliptic_hyperbolic(
        spec: AmalgamSpec, gx: list[NormalForm], fx: list[TreeVertex],
        y: NormalForm, radius: int, diagnostics: list[str] | None,
        data: dict) -> PingPongCertificate | None:
    """Free-product split of a finite subgroup (fx the common fixed set of
    gx) and a hyperbolic cyclic group whose axis avoids fx: three half-trees
    anchored at the axis vertex nearest fx."""
    tau = classify(spec, y).tau
    if any(displacement(spec, y, v) == tau for v in fx):
        _diag(diagnostics, "a fixed vertex lies on the axis")
        return None
    axis = axis_segment(spec, y, radius)
    _, p, q = nearest_pair(fx, axis)
    p1 = geodesic(q, p)[1]
    f = geodesic(q, act(spec, y, q))[1]
    r = geodesic(q, act(spec, invert(spec, y), q))[1]
    if len({p1, f, r}) != 3:
        _diag(diagnostics, "axis and fixed-set directions collide")
        return None
    return _certificate(
        spec, "free-product-split", _split_elements(gx, [y]),
        [("X", HalfTree(q, p1)), ("Y+", HalfTree(q, f)), ("Y-", HalfTree(q, r))],
        data, diagnostics)


def _split_hyperbolic_hyperbolic(
        spec: AmalgamSpec, x: NormalForm, y: NormalForm,
        radius: int, diagnostics: list[str] | None,
        ) -> PingPongCertificate | None:
    """Free-product split of two hyperbolic cyclic groups with separated
    axes: four half-trees, one per axis end.

    y's axis segment is exactly the vertices v of its ball with
    d(v, y.v) = tau, so a vertex of x's segment passing that test is a
    common vertex: crossing axes are settled from x's segment alone."""
    ax = axis_segment(spec, x, radius)
    cy = classify(spec, y)
    if any(tree_distance(v, cy.witness) <= radius
           and displacement(spec, y, v) == cy.tau for v in ax):
        _diag(diagnostics, "axes intersect within radius")
        return None
    _, qx, qy = nearest_pair(ax, axis_segment(spec, y, radius))
    ends = [geodesic(q, act(spec, g, q))[1]
            for q, g in ((qx, x), (qx, invert(spec, x)),
                         (qy, y), (qy, invert(spec, y)))]
    return _certificate(
        spec, "free-product-split", _split_elements([x], [y]),
        [(label, HalfTree(q, end)) for label, q, end
         in zip(("X+", "X-", "Y+", "Y-"), (qx, qx, qy, qy), ends)],
        {}, diagnostics)


def certify_free_split(spec: AmalgamSpec, left: list[NormalForm],
                       right: list[NormalForm], radius: int | None = None,
                       diagnostics: list[str] | None = None,
                       stats: dict | None = None,
                       ) -> PingPongCertificate | None:
    """Certificate that the subgroups generated by `left` and `right` meet
    trivially and generate their free product.

    Elliptic/elliptic pairs split across a middle edge of the segment joining
    their fixed sets.  For an elliptic side X against a single hyperbolic y,
    one loop over l = 0..order(x)-1 searches for a split of <X> * <y x^l>
    (only l = 0 when X has several generators), and the found l is recorded
    in the certificate.  A `stats` dict, when given, receives `powers_tried`: the
    powers l >= 1 that search tried.
    """
    counts = stats if stats is not None else {}
    counts["powers_tried"] = 0
    if not left or not right:
        _diag(diagnostics, "both sides must be nonempty")
        return None
    if radius is None:
        radius = default_radius(left + right)
    l_ell = all(classify(spec, g).elliptic for g in left)
    r_ell = all(classify(spec, g).elliptic for g in right)
    if not l_ell and not r_ell:
        if len(left) == 1 and len(right) == 1:
            return _split_hyperbolic_hyperbolic(spec, left[0], right[0],
                                                radius, diagnostics)
        _diag(diagnostics, "mixed hyperbolic sides must be singletons")
        return None
    gx, gy = (left, right) if l_ell else (right, left)
    if not (l_ell and r_ell) and len(gy) != 1:
        _diag(diagnostics, "the hyperbolic side must be a single element")
        return None
    fx = _common_fixed(spec, gx, radius)
    if not fx:
        _diag(diagnostics, "no common fixed vertex within radius")
        return None
    if l_ell and r_ell:
        return _split_elliptic_elliptic(spec, gx, fx, gy, radius,
                                        diagnostics, {})
    # elliptic gx, hyperbolic y: try <gx> * <y x^l> for the powers of gx's
    # single generator x, or only l = 0 when gx has several
    y, x = gy[0], gx[0]
    power = identity_nf(spec)
    for ell_exp in itertools.count():
        counts["powers_tried"] = ell_exp
        y2 = multiply(spec, y, power)
        if classify(spec, y2).hyperbolic:
            cert = _split_elliptic_hyperbolic(spec, gx, fx, y2, radius,
                                              diagnostics, {"ell": ell_exp})
        else:
            cert = _split_elliptic_elliptic(spec, gx, fx, [y2], radius,
                                            diagnostics, {"ell": ell_exp})
        if cert is not None:
            return cert
        power = multiply(spec, power, x)
        if len(gx) > 1 or is_identity(spec, power):
            break
    _diag(diagnostics, f"no power l in 0..{ell_exp} produced a split "
                       f"at radius {radius}")
    return None
