"""Replayable ping-pong certificates on the amalgam tree.

A certificate is finite data: a list of half-tree predicates (anchor edge plus
direction) together with the exact structural checks that were verified,
namely pairwise disjointness and "g maps this set into that set".  Because
the group acts by tree automorphisms, g(H) is again a half-tree with known
anchor, so every inclusion reduces to a constant number of exact distance
computations; a sampled ball check is recorded alongside as a second witness.

Success is a proof; failure is always inconclusive (never a refutation).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .amalgam import (
    AmalgamSpec,
    NormalForm,
    decode_flat,
    invert,
    is_identity,
    multiply,
    nf_from_json,
    nf_to_json,
)
from .growth import _levels
from .tree import (
    Classification,
    TreeVertex,
    act,
    axis_segment,
    ball,
    classify,
    displacement,
    fixed_set,
    geodesic,
    tree_distance,
)

SUBGROUP_CAP = 512
SAMPLE_RADIUS = 6


@dataclass(frozen=True)
class HalfTree:
    """The vertices strictly closer to w than to u, for an edge (u, w); one of
    the two components of the tree minus that edge."""
    u: TreeVertex
    w: TreeVertex

    def contains(self, v: TreeVertex) -> bool:
        return tree_distance(v, self.w) < tree_distance(v, self.u)


def half_tree(u: TreeVertex, w: TreeVertex) -> HalfTree:
    if tree_distance(u, w) != 1:
        raise ValueError("half-tree anchor must be an edge")
    return HalfTree(u, w)


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


def _vertex_json(v: TreeVertex) -> dict:
    return {"side": v.side, "key": [list(s) for s in v.key]}


def _vertex_from_json(d: dict) -> TreeVertex:
    return TreeVertex(d["side"], tuple((s[0], s[1]) for s in d["key"]))


@dataclass
class PingPongCertificate:
    kind: str                      # "free-monoid" | "free-product-split"
    spec_hash: str
    radius: int
    elements: list[dict]           # {"role": str, "nf": {...}, ...}
    sets: list[dict]               # {"label": str, "u": {...}, "w": {...}}
    checks: list[dict]
    conclusion: str
    data: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "spec_hash": self.spec_hash,
            "radius": self.radius,
            "elements": self.elements,
            "sets": self.sets,
            "checks": self.checks,
            "conclusion": self.conclusion,
            "data": self.data,
        }

    @staticmethod
    def from_json(d: dict) -> "PingPongCertificate":
        return PingPongCertificate(
            kind=d["kind"], spec_hash=d["spec_hash"], radius=d["radius"],
            elements=d["elements"], sets=d["sets"], checks=d["checks"],
            conclusion=d["conclusion"], data=d.get("data", {}))


def _cert_sets(cert: PingPongCertificate) -> list[HalfTree]:
    return [HalfTree(_vertex_from_json(s["u"]), _vertex_from_json(s["w"]))
            for s in cert.sets]


def _check_holds(spec: AmalgamSpec, sets: list[HalfTree], c: dict) -> bool:
    kind = c["check"]
    if kind == "disjoint":
        return half_trees_disjoint(sets[c["sets"][0]], sets[c["sets"][1]])
    g = nf_from_json(c["g"])
    if kind == "maps_into":
        return half_tree_subset(image_half_tree(spec, g, sets[c["source"]]),
                                sets[c["target"]])
    if kind == "hyperbolic":
        cls = classify(spec, g)
        return cls.hyperbolic and cls.tau == c["tau"]
    if kind == "fixes_vertex":
        v = _vertex_from_json(c["v"])
        return act(spec, g, v) == v
    if kind == "moves_vertex":
        v = _vertex_from_json(c["v"])
        return act(spec, g, v) != v
    if kind == "not_on_axis":
        return displacement(spec, g, _vertex_from_json(c["v"])) != c["tau"]
    if kind == "sampled_maps_into":
        src, tgt = sets[c["source"]], sets[c["target"]]
        center = _vertex_from_json(c["center"])
        return all(tgt.contains(act(spec, g, v))
                   for v in ball(spec, center, c["radius"]) if src.contains(v))
    return False


def replay(spec: AmalgamSpec, cert: PingPongCertificate) -> bool:
    """Re-run every recorded check from the certificate data alone; a
    malformed payload (missing field, bad index, wrong type) is rejected."""
    if spec.spec_hash() != cert.spec_hash:
        return False
    try:
        sets = _cert_sets(cert)
        return (all(tree_distance(s.u, s.w) == 1 for s in sets)
                and all(_check_holds(spec, sets, c) for c in cert.checks))
    except (KeyError, IndexError, TypeError):
        return False


def default_radius(elements: list[NormalForm]) -> int:
    return 2 * max((len(g.syllables) for g in elements), default=1) + 4


def _diag(diagnostics: list[str] | None, msg: str) -> None:
    if diagnostics is not None:
        diagnostics.append(msg)


class _CheckLog:
    """Runs structural checks, recording each one; a failure marks the log
    dead so a candidate can be abandoned cheaply."""

    def __init__(self, spec: AmalgamSpec, sets: list[HalfTree]):
        self.spec = spec
        self.sets = sets
        self.checks: list[dict] = []
        self.ok = True

    def disjoint(self, i: int, j: int) -> bool:
        good = half_trees_disjoint(self.sets[i], self.sets[j])
        self.checks.append({"check": "disjoint", "sets": [i, j]})
        self.ok = self.ok and good
        return good

    def maps_into(self, g: NormalForm, i: int, j: int) -> bool:
        good = half_tree_subset(
            image_half_tree(self.spec, g, self.sets[i]), self.sets[j])
        self.checks.append(
            {"check": "maps_into", "g": nf_to_json(g), "source": i, "target": j})
        self.ok = self.ok and good
        return good

    def hyperbolic(self, g: NormalForm, tau: int) -> bool:
        cls = classify(self.spec, g)
        good = cls.hyperbolic and cls.tau == tau
        self.checks.append({"check": "hyperbolic", "g": nf_to_json(g), "tau": tau})
        self.ok = self.ok and good
        return good

    def fixes(self, g: NormalForm, v: TreeVertex) -> bool:
        good = act(self.spec, g, v) == v
        self.checks.append(
            {"check": "fixes_vertex", "g": nf_to_json(g), "v": _vertex_json(v)})
        self.ok = self.ok and good
        return good

    def moves(self, g: NormalForm, v: TreeVertex) -> bool:
        good = act(self.spec, g, v) != v
        self.checks.append(
            {"check": "moves_vertex", "g": nf_to_json(g), "v": _vertex_json(v)})
        self.ok = self.ok and good
        return good

    def not_on_axis(self, g: NormalForm, tau: int, v: TreeVertex) -> bool:
        good = displacement(self.spec, g, v) != tau
        self.checks.append({"check": "not_on_axis", "g": nf_to_json(g),
                            "tau": tau, "v": _vertex_json(v)})
        self.ok = self.ok and good
        return good

    def sampled(self, g: NormalForm, i: int, j: int,
                center: TreeVertex, radius: int) -> bool:
        src, tgt = self.sets[i], self.sets[j]
        good = all(tgt.contains(act(self.spec, g, v))
                   for v in ball(self.spec, center, radius) if src.contains(v))
        self.checks.append(
            {"check": "sampled_maps_into", "g": nf_to_json(g), "source": i,
             "target": j, "center": _vertex_json(center), "radius": radius})
        self.ok = self.ok and good
        return good


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
                        ) -> PingPongCertificate | None:
    """Certificate that the elements (possibly after recorded inverse
    replacements) generate a free monoid: pairwise disjoint half-trees X_i
    with x_i(X_j) contained in X_i for all i, j.

    Returns None when no candidate family works at this radius
    (inconclusive, not a refutation).
    """
    k = len(elements)
    if k < 2:
        _diag(diagnostics, "need at least two elements")
        return None
    if radius is None:
        radius = default_radius(elements)
    base_cls = [classify(spec, g) for g in elements]
    if any(c.elliptic for c in base_cls):
        _diag(diagnostics, "an element is elliptic; no attracting half-tree")
        return None
    patterns = sorted(itertools.product((False, True), repeat=k),
                      key=lambda p: (sum(p), p))
    for pattern in patterns:
        els = [invert(spec, g) if flip else g
               for g, flip in zip(elements, pattern)]
        cls = [base_cls[i] if not pattern[i] else classify(spec, els[i])
               for i in range(k)]
        anchors = [_forward_anchors(spec, els[i], cls[i]) for i in range(k)]
        if any(not a for a in anchors):
            continue
        chosen: list[HalfTree] = []

        def search(i: int) -> bool:
            if i == k:
                return True
            for h in anchors[i]:
                ok = True
                for j, prev in enumerate(chosen):
                    if not half_trees_disjoint(h, prev):
                        ok = False
                        break
                    if not half_tree_subset(
                            image_half_tree(spec, els[i], prev), h):
                        ok = False
                        break
                    if not half_tree_subset(
                            image_half_tree(spec, els[j], h), prev):
                        ok = False
                        break
                if ok:
                    chosen.append(h)
                    if search(i + 1):
                        return True
                    chosen.pop()
            return False

        if not search(0):
            continue
        log = _CheckLog(spec, list(chosen))
        for i in range(k):
            for j in range(k):
                log.maps_into(els[i], j, i)
                if i < j:
                    log.disjoint(i, j)
            log.hyperbolic(els[i], cls[i].tau)
        center = chosen[0].w
        for i in range(k):
            log.sampled(els[i], i, i, center, min(radius, SAMPLE_RADIUS))
        if not log.ok:  # pragma: no cover - search already verified these
            continue
        names = [f"x{i+1}" + ("^-1" if pattern[i] else "")
                 for i in range(k)]
        return PingPongCertificate(
            kind="free-monoid",
            spec_hash=spec.spec_hash(),
            radius=radius,
            elements=[{"role": names[i], "nf": nf_to_json(els[i]),
                       "inverted": pattern[i], "tau": cls[i].tau}
                      for i in range(k)],
            sets=[{"label": f"X{i+1}", "u": _vertex_json(h.u),
                   "w": _vertex_json(h.w)} for i, h in enumerate(chosen)],
            checks=log.checks,
            conclusion=("positive words in {" + ", ".join(names)
                        + "} are pairwise distinct (free monoid)"),
            data={"inverted": list(pattern),
                  "translation_lengths": [c.tau for c in cls]},
        )
    _diag(diagnostics, "no disjoint absorbing half-tree family found "
                       f"at radius {radius}")
    return None


def _element_order(spec: AmalgamSpec, g: NormalForm) -> int | None:
    cap = max(spec.A.order, spec.B.order)
    acc = g
    for n in range(1, cap + 1):
        if is_identity(spec, acc):
            return n
        acc = multiply(spec, acc, g)
    return None


def _closure(spec: AmalgamSpec, gens: list[NormalForm],
             cap: int) -> list[NormalForm] | None:
    """All elements of the generated subgroup, or None past the cap."""
    elements: list[tuple[int, ...]] = []
    for sphere in _levels(spec, gens):
        elements += sphere
        if len(elements) > cap:
            return None
    return sorted(map(decode_flat, elements), key=NormalForm.key)


def _common_fixed(spec: AmalgamSpec, gens: list[NormalForm],
                  radius: int) -> list[TreeVertex]:
    """Vertices fixed by every generator, within the radius ball around a
    fixed witness of the first one."""
    base = fixed_set(spec, gens[0], radius)
    out = [v for v in base
           if all(act(spec, g, v) == v for g in gens[1:])]
    out.sort(key=TreeVertex.sort_key)
    return out


def _middle_edge(path: list[TreeVertex]) -> tuple[TreeVertex, TreeVertex]:
    i = (len(path) - 2) // 2
    return path[i], path[i + 1]


def _split_elliptic_elliptic(
        spec: AmalgamSpec, gx: list[NormalForm], gy: list[NormalForm],
        radius: int, cap: int, diagnostics: list[str] | None,
        extra_data: dict) -> PingPongCertificate | None:
    """Free-product split of two finite subgroups with disjoint fixed sets,
    by ping-pong across a middle edge of the connecting segment."""
    GX = _closure(spec, gx, cap)
    GY = _closure(spec, gy, cap)
    if GX is None or GY is None:
        _diag(diagnostics, f"generated subgroup exceeds cap {cap}")
        return None
    fx = _common_fixed(spec, gx, radius)
    fy = _common_fixed(spec, gy, radius)
    if not fx or not fy:
        _diag(diagnostics, "no common fixed vertex within radius")
        return None
    if set(fx) & set(fy):
        _diag(diagnostics, "subgroups share a fixed vertex; not a split")
        return None
    d, p, q = min(((tree_distance(u, v), u, v) for u in fx for v in fy),
                  key=lambda t: (t[0], t[1].sort_key(), t[2].sort_key()))
    m, mp = _middle_edge(geodesic(p, q))
    sets = [HalfTree(mp, m), HalfTree(m, mp)]   # X holds p, Y holds q
    log = _CheckLog(spec, sets)
    log.disjoint(0, 1)
    for g in GX:
        if is_identity(spec, g):
            continue
        log.fixes(g, p)
        if not log.maps_into(g, 1, 0):
            _diag(diagnostics, "a left element does not push Y across "
                               "the middle edge")
            return None
    for h in GY:
        if is_identity(spec, h):
            continue
        log.fixes(h, q)
        if not log.maps_into(h, 0, 1):
            _diag(diagnostics, "a right element does not push X across "
                               "the middle edge")
            return None
    if len(GX) == 2 and len(GY) == 2:
        # two order-2 factors: also witness the product's infinite order
        prod = multiply(spec, gx[0], gy[0])
        if not log.hyperbolic(prod, 2 * d):
            _diag(diagnostics, "order-2/order-2 product is not hyperbolic")
            return None
    for g in gx:
        log.sampled(g, 1, 0, m, min(radius, SAMPLE_RADIUS))
    for h in gy:
        log.sampled(h, 0, 1, m, min(radius, SAMPLE_RADIUS))
    if not log.ok:
        _diag(diagnostics, "structural checks failed")
        return None
    data = {"left_order": len(GX), "right_order": len(GY),
            "fixed_distance": d}
    data.update(extra_data)
    return PingPongCertificate(
        kind="free-product-split",
        spec_hash=spec.spec_hash(),
        radius=radius,
        elements=([{"role": "left", "nf": nf_to_json(g)} for g in gx]
                  + [{"role": "right", "nf": nf_to_json(h)} for h in gy]),
        sets=[{"label": "X", "u": _vertex_json(sets[0].u),
               "w": _vertex_json(sets[0].w)},
              {"label": "Y", "u": _vertex_json(sets[1].u),
               "w": _vertex_json(sets[1].w)}],
        checks=log.checks,
        conclusion=(f"the generated subgroups (orders {len(GX)}, {len(GY)}) "
                    "generate their free product"),
        data=data,
    )


def _split_elliptic_hyperbolic(
        spec: AmalgamSpec, gx: list[NormalForm], y: NormalForm,
        radius: int, cap: int, diagnostics: list[str] | None,
        extra_data: dict) -> PingPongCertificate | None:
    """Free-product split of a finite subgroup and a hyperbolic cyclic group
    whose axis avoids the common fixed set: three half-trees anchored at the
    axis vertex nearest the fixed set."""
    GX = _closure(spec, gx, cap)
    if GX is None:
        _diag(diagnostics, f"generated subgroup exceeds cap {cap}")
        return None
    fx = _common_fixed(spec, gx, radius)
    if not fx:
        _diag(diagnostics, "no common fixed vertex within radius")
        return None
    ycls = classify(spec, y)
    tau = ycls.tau
    if any(displacement(spec, y, v) == tau for v in fx):
        _diag(diagnostics, "a fixed vertex lies on the axis")
        return None
    axis = axis_segment(spec, y, radius)
    d, p, q = min(((tree_distance(u, v), u, v) for u in fx for v in axis),
                  key=lambda t: (t[0], t[1].sort_key(), t[2].sort_key()))
    yq = act(spec, y, q)
    yiq = act(spec, invert(spec, y), q)
    p1 = geodesic(q, p)[1]
    f = geodesic(q, yq)[1]
    r = geodesic(q, yiq)[1]
    if len({p1, f, r}) != 3:
        _diag(diagnostics, "axis and fixed-set directions collide")
        return None
    sets = [HalfTree(q, p1), HalfTree(q, f), HalfTree(q, r)]  # X, Y+, Y-
    log = _CheckLog(spec, sets)
    log.disjoint(0, 1)
    log.disjoint(0, 2)
    log.disjoint(1, 2)
    yi = invert(spec, y)
    ok = (log.hyperbolic(y, tau)
          and log.maps_into(y, 1, 1) and log.maps_into(y, 0, 1)
          and log.maps_into(yi, 2, 2) and log.maps_into(yi, 0, 2))
    for g in GX:
        if is_identity(spec, g):
            continue
        ok = ok and log.fixes(g, p)
        ok = ok and log.maps_into(g, 1, 0) and log.maps_into(g, 2, 0)
    for v in fx:
        log.not_on_axis(y, tau, v)
    log.sampled(y, 0, 1, q, min(radius, SAMPLE_RADIUS))
    for g in gx:
        log.sampled(g, 1, 0, q, min(radius, SAMPLE_RADIUS))
    if not ok or not log.ok:
        _diag(diagnostics, "structural checks failed for the "
                           "elliptic/hyperbolic split")
        return None
    data = {"left_order": len(GX), "translation_length": tau,
            "axis_distance": d}
    data.update(extra_data)
    return PingPongCertificate(
        kind="free-product-split",
        spec_hash=spec.spec_hash(),
        radius=radius,
        elements=([{"role": "left", "nf": nf_to_json(g)} for g in gx]
                  + [{"role": "right", "nf": nf_to_json(y), "tau": tau}]),
        sets=[{"label": lbl, "u": _vertex_json(h.u), "w": _vertex_json(h.w)}
              for lbl, h in zip(("X", "Y+", "Y-"), sets)],
        checks=log.checks,
        conclusion=(f"the finite subgroup (order {len(GX)}) and the "
                    "hyperbolic cyclic group generate their free product"),
        data=data,
    )


def _split_hyperbolic_hyperbolic(
        spec: AmalgamSpec, x: NormalForm, y: NormalForm,
        radius: int, diagnostics: list[str] | None,
        ) -> PingPongCertificate | None:
    """Free-product split of two hyperbolic cyclic groups with separated
    axes: four half-trees, one per axis end."""
    xcls, ycls = classify(spec, x), classify(spec, y)
    ax = axis_segment(spec, x, radius)
    ay = axis_segment(spec, y, radius)
    pairs = ((tree_distance(u, v), u, v) for u in ax for v in ay)
    d, qx, qy = min(pairs, key=lambda t: (t[0], t[1].sort_key(), t[2].sort_key()))
    if d == 0:
        _diag(diagnostics, "axes intersect within radius")
        return None
    xi, yi = invert(spec, x), invert(spec, y)
    fx = geodesic(qx, act(spec, x, qx))[1]
    rx = geodesic(qx, act(spec, xi, qx))[1]
    fy = geodesic(qy, act(spec, y, qy))[1]
    ry = geodesic(qy, act(spec, yi, qy))[1]
    sets = [HalfTree(qx, fx), HalfTree(qx, rx),
            HalfTree(qy, fy), HalfTree(qy, ry)]  # X+, X-, Y+, Y-
    log = _CheckLog(spec, sets)
    ok = True
    for i in range(4):
        for j in range(i + 1, 4):
            ok = ok and log.disjoint(i, j)
    ok = ok and log.hyperbolic(x, xcls.tau) and log.hyperbolic(y, ycls.tau)
    # x drives everything outside X- into X+, and dually; same for y
    for src in (0, 2, 3):
        ok = ok and log.maps_into(x, src, 0)
    for src in (1, 2, 3):
        ok = ok and log.maps_into(xi, src, 1)
    for src in (0, 1, 2):
        ok = ok and log.maps_into(y, src, 2)
    for src in (0, 1, 3):
        ok = ok and log.maps_into(yi, src, 3)
    log.sampled(x, 2, 0, qx, min(radius, SAMPLE_RADIUS))
    log.sampled(y, 0, 2, qy, min(radius, SAMPLE_RADIUS))
    if not ok or not log.ok:
        _diag(diagnostics, "structural checks failed for the "
                           "hyperbolic/hyperbolic split")
        return None
    return PingPongCertificate(
        kind="free-product-split",
        spec_hash=spec.spec_hash(),
        radius=radius,
        elements=[{"role": "left", "nf": nf_to_json(x), "tau": xcls.tau},
                  {"role": "right", "nf": nf_to_json(y), "tau": ycls.tau}],
        sets=[{"label": lbl, "u": _vertex_json(h.u), "w": _vertex_json(h.w)}
              for lbl, h in zip(("X+", "X-", "Y+", "Y-"), sets)],
        checks=log.checks,
        conclusion="the two hyperbolic cyclic groups generate their free product",
        data={"axis_distance": d,
              "translation_lengths": [xcls.tau, ycls.tau]},
    )


def certify_free_split(spec: AmalgamSpec, left: list[NormalForm],
                       right: list[NormalForm], radius: int | None = None,
                       cap: int = SUBGROUP_CAP,
                       diagnostics: list[str] | None = None,
                       ) -> PingPongCertificate | None:
    """Certificate that the subgroups generated by `left` and `right` meet
    trivially and generate their free product.

    Elliptic/elliptic pairs split across a middle edge of the segment joining
    their fixed sets; for a single elliptic x against a hyperbolic y whose
    axis meets Fix(x), powers l = 0..order(x)-1 are searched for a split of
    <x> * <y x^l>, and the found l is recorded in the certificate.
    """
    if not left or not right:
        _diag(diagnostics, "both sides must be nonempty")
        return None
    if radius is None:
        radius = default_radius(left + right)
    lcls = [classify(spec, g) for g in left]
    rcls = [classify(spec, g) for g in right]
    l_ell = all(c.elliptic for c in lcls)
    r_ell = all(c.elliptic for c in rcls)
    if l_ell and r_ell:
        return _split_elliptic_elliptic(spec, left, right, radius, cap,
                                        diagnostics, {})
    if not l_ell and not r_ell:
        if len(left) == 1 and len(right) == 1:
            return _split_hyperbolic_hyperbolic(spec, left[0], right[0],
                                                radius, diagnostics)
        _diag(diagnostics, "mixed hyperbolic sides must be singletons")
        return None
    # one side elliptic, the other contains a hyperbolic element
    if l_ell:
        ell, hyp_list = left, right
    else:
        ell, hyp_list = right, left
    if len(hyp_list) != 1:
        _diag(diagnostics, "the hyperbolic side must be a single element")
        return None
    y = hyp_list[0]
    cert = _split_elliptic_hyperbolic(spec, ell, y, radius, cap,
                                      diagnostics, {"ell": 0})
    if cert is not None:
        return cert
    # the axis meets the fixed set: search l with <x> * <y x^l>
    if len(ell) != 1:
        _diag(diagnostics, "power search needs a single elliptic generator")
        return None
    x = ell[0]
    order = _element_order(spec, x)
    if order is None:
        _diag(diagnostics, "could not determine the elliptic element's order")
        return None
    power = x
    for ell_exp in range(1, order):
        y2 = multiply(spec, y, power)
        power = multiply(spec, power, x)
        c2 = classify(spec, y2)
        if c2.hyperbolic:
            cert = _split_elliptic_hyperbolic(
                spec, [x], y2, radius, cap, diagnostics, {"ell": ell_exp})
        else:
            cert = _split_elliptic_elliptic(
                spec, [x], [y2], radius, cap, diagnostics, {"ell": ell_exp})
        if cert is not None:
            return cert
    _diag(diagnostics, f"no power l in 0..{order - 1} produced a split "
                       f"at radius {radius}")
    return None
