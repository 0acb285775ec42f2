import copy
import functools
import hashlib
import itertools
import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amalgrowth import pingpong
from amalgrowth.amalgam import (
    NormalForm,
    identity_nf,
    invert,
    is_identity,
    multiply,
)
from amalgrowth.catalog import catalog_load, catalog_names, parse_word
from amalgrowth.pingpong import (
    SUBGROUP_CAP,
    HalfTree,
    PingPongCertificate,
    _closure,
    certify_free_monoid,
    certify_free_split,
    half_tree_subset,
    half_trees_disjoint,
    image_half_tree,
    nf_from_json,
    nf_to_json,
    replay,
)
from amalgrowth.tree import (
    BASE_A,
    BASE_B,
    TreeVertex,
    _at_or_above,
    _parent,
    act,
    axis_segment,
    ball,
    classify,
    displacement,
    geodesic,
    nearest_pair,
    neighbors,
    tree_distance,
    vertex_json,
)


def _elements(entry, *words):
    return [parse_word(entry, w) for w in words]


def test_half_tree_predicates_match_pointwise_definition():
    entry = catalog_load("c2*c3")
    spec = entry.spec
    verts = ball(spec, BASE_A, 6)
    edges = [(u, w) for u in ball(spec, BASE_A, 2)
             for w in neighbors(spec, u)]
    halves = [HalfTree(u, w) for u, w in edges]

    def members(h):
        return {v for v in verts
                if tree_distance(v, h.w) < tree_distance(v, h.u)}

    for h1, h2 in itertools.combinations(halves[:8], 2):
        m1, m2 = members(h1), members(h2)
        assert half_trees_disjoint(h1, h2) == (not (m1 & m2))
        assert half_tree_subset(h1, h2) == (m1 <= m2)


@pytest.mark.parametrize("name", catalog_names())
def test_half_tree_contains_matches_tree_distances(name):
    # every edge of the radius-5 balls around both base vertices, in both
    # directions (the base edge among them), against every vertex there
    spec = catalog_load(name).spec
    verts = set(ball(spec, BASE_A, 5)) | set(ball(spec, BASE_B, 5))
    dist = {x: {v: tree_distance(v, x) for v in verts} for x in verts}
    edges = [(u, w) for u in verts for w in neighbors(spec, u) if w in verts]
    assert (BASE_A, BASE_B) in edges and (BASE_B, BASE_A) in edges
    for u, w in edges:
        h = HalfTree(u, w)
        assert [v for v in verts if h.contains(v)] \
            == [v for v in verts if dist[w][v] < dist[u][v]], (u, w)


@pytest.mark.parametrize("name", catalog_names())
def test_half_tree_contains_matches_the_parent_form(name):
    # `contains` against its form through `_parent`, on every ordered pair
    # of ball vertices, adjacent or not (`_at_or_above` has its own test)
    spec = catalog_load(name).spec
    verts = ball(spec, BASE_A, 3) + ball(spec, BASE_B, 3)
    for u in verts:
        for w in verts:
            h = HalfTree(u, w)
            if _parent(u) == w:
                want = [not _at_or_above(u, v) for v in verts]
            else:
                want = [_at_or_above(w, v) for v in verts]
            assert [h.contains(v) for v in verts] == want, (u, w)


def test_image_half_tree_is_equivariant():
    entry = catalog_load("pgl2z")
    spec = entry.spec
    g = parse_word(entry, "a b c")
    h = HalfTree(BASE_A, BASE_B)
    img = image_half_tree(spec, g, h)
    assert tree_distance(img.u, img.w) == 1
    # membership transports: v in H iff g.v in g(H)
    for v in ball(spec, BASE_A, 3):
        in_h = tree_distance(v, h.w) < tree_distance(v, h.u)
        gv = act(spec, g, v)
        in_img = tree_distance(gv, img.w) < tree_distance(gv, img.u)
        assert in_h == in_img


def test_monoid_certificate_for_independent_hyperbolics():
    entry = catalog_load("c2*c3")
    elems = _elements(entry, "a b", "b a")
    cert = certify_free_monoid(entry.spec, elems)
    assert cert is not None
    assert cert.kind == "free-monoid"
    assert replay(entry.spec, cert)
    # each role records whether its input was replaced by its inverse;
    # positive words in the certified basis give distinct elements
    spec = entry.spec
    basis = [invert(spec, g) if e["role"].endswith("^-1") else g
             for g, e in zip(elems, cert.elements)]
    assert basis == [nf_from_json(spec, e["nf"]) for e in cert.elements]
    seen = {}
    for n in range(5):
        for bits in itertools.product(range(2), repeat=n):
            g = identity_nf(spec)
            for i in bits:
                g = multiply(spec, g, basis[i])
            assert g.key() not in seen or seen[g.key()] == bits
            seen[g.key()] = bits
    assert len(seen) == 2 ** 5 - 1


def test_monoid_certificate_refuses_dependent_pair():
    entry = catalog_load("c2*c3")
    ab = parse_word(entry, "a b")
    sq = multiply(entry.spec, ab, ab)
    diags = []
    assert certify_free_monoid(entry.spec, [ab, sq],
                               diagnostics=diags) is None
    assert diags


def test_monoid_certificate_positive_generators():
    entry = catalog_load("pgl2z")
    elems = _elements(entry, "b c", "a b c")
    cert = certify_free_monoid(entry.spec, elems)
    assert cert is not None
    assert replay(entry.spec, cert)


def test_certificate_json_round_trip_and_tamper_detection():
    entry = catalog_load("c2*c3")
    cert = certify_free_monoid(entry.spec, _elements(entry, "a b", "b a"))
    d = cert.to_json()
    again = PingPongCertificate.from_json(copy.deepcopy(d))
    assert replay(entry.spec, again)
    # wrong group
    other = catalog_load("c2*c4")
    assert not replay(other.spec, again)
    # tampered half-tree
    bad = copy.deepcopy(d)
    bad["sets"][0], bad["sets"][1] = bad["sets"][1], bad["sets"][0]
    assert not replay(entry.spec, PingPongCertificate.from_json(bad))


def test_certificate_json_round_trip_is_identical():
    for _, d in _one_certificate_per_shape():
        cert = PingPongCertificate.from_json(copy.deepcopy(d))
        assert cert.to_json() == d
        assert list(cert.to_json()) == list(PingPongCertificate._fields)
        assert PingPongCertificate.from_json(cert.to_json()).to_json() == d
    # a payload without `data` gets a fresh dict each time
    bare = {k: v for k, v in d.items() if k != "data"}
    one, two = (PingPongCertificate.from_json(bare) for _ in range(2))
    assert one.data == {} and one.data is not two.data


# (entry, words, sha256 of the certificate JSON or None, patterns_tried,
# anchors_tested), recorded with the search that rebuilt every element's
# inverse, classification and anchors under each inversion pattern: the
# perfbench reference's monoid jobs, then four triples.  The certificates
# then also carried the search radius, each element's `inverted` flag and
# `tau`, and in `data` the inversion pattern and translation lengths;
# `_with_older_fields` restores them before hashing.
MONOID_SEARCHES = [
    ("pgl2z", ("b^-1 b b^-1 a c", "b c^-1 a^-1 b^-1 c^-1"), "abee9614d6f62728", 1, 34),
    ("pgl2z", ("c b^-1 a^-1", "a c^-1 b a a^-1"), "b323bd7b18fdba2e", 1, 20),
    ("pgl2z", ("c^-1 b^-1", "a^-1 c^-1 a b^-1"), "b6e84379d8b2e396", 1, 20),
    ("pgl2z", ("c^-1 b c^-1 a^-1 c^-1", "b c^-1"), "9a74b57a8e3c1cbe", 3, 48),
    ("pgl2z", ("a^-1 c b", "b^-1 b c^-1 b^-1"), "86d3c9e128cc7bd0", 1, 20),
    ("c2*c3", ("b^-1 a b^-1 a^-1", "a^-1 b^-1"), "f6affaa3665fcac4", 2, 70),
    ("c2*c3", ("b^-1 a^-1", "a^-1 b^-1"), "37f7e310dca9ddad", 2, 40),
    ("c2*c3", ("b a a^-1 a^-1", "b b^-1 b^-1 a"), "9be75e7dce848bf4", 1, 20),
    ("c2*c3", ("b b^-1 b a b", "b^-1 a^-1"), "07f29ac37398b0ce", 2, 28),
    ("c2*c3", ("a^-1 a b b a^-1", "b^-1 b b a"), "a237a1466671b32d", 1, 20),
    ("c2*c4", ("b^-1 a^-1", "b b a^-1 b^-1"), "9bba859e6c7ef2f0", 1, 18),
    ("c2*c4", ("a^-1 b^-1", "b b a^-1 a a"), "4e57407b22080327", 2, 40),
    ("c2*c4", ("b a a^-1 a b", "b a^-1"), "65d708706c2af0ef", 4, 68),
    ("c2*c4", ("b^-1 a^-1", "a^-1 b^-1 b b"), None, 4, 80),
    ("c2*c4", ("a b a a b", "b a b a"), "f32d584b8b63b0f6", 2, 70),
    ("c2*c5", ("b^-1 b^-1 a b^-1 a", "b a"), "6eed735a1ca63d02", 1, 30),
    ("c2*c5", ("b a", "b a^-1 b a"), None, 4, 144),
    ("c2*c5", ("b a^-1 b^-1 b^-1", "a^-1 b a^-1 a^-1 b"), "7df2acf9420bcd38", 1, 8),
    ("c2*c5", ("b a b", "a^-1 a^-1 b a"), "cbade4a5e404a3c4", 4, 68),
    ("c2*c5", ("b a", "b^-1 a^-1 b^-1 a a"), "487e3881a0a785ef", 3, 48),
    ("pgl2z", ("b c", "a b c", "c a b"), None, 8, 168),
    ("c2*c3", ("a b", "b a", "a b a b^-1"), None, 8, 192),
    ("c2*c5", ("a b", "b a", "a b b"), "22282b171763a75c", 3, 64),
    ("c2*c4", ("a b", "a b^-1", "b a b^-1 a"), None, 8, 192),
]


@pytest.mark.parametrize("name, words, sha, patterns, anchors", MONOID_SEARCHES)
def test_monoid_search_matches_the_recorded_search(name, words, sha, patterns,
                                                   anchors, monkeypatch):
    entry = catalog_load(name)
    built = []
    real = pingpong._forward_anchors
    monkeypatch.setattr(pingpong, "_forward_anchors",
                        lambda spec, g, cls: built.append(g) or real(spec, g, cls))
    stats = {}
    inputs = _elements(entry, *words)
    cert = certify_free_monoid(entry.spec, inputs, stats=stats)
    got = None if cert is None else _sha(
        _with_older_fields(entry.spec, cert.to_json(), inputs))
    assert (got, stats) == (sha, {"patterns_tried": patterns,
                                  "anchors_tested": anchors})
    # each (element, inversion) builds its anchors at most once
    assert len(built) <= 2 * len(words)


def _sha(d):
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]


def _with_older_fields(spec, d, inputs):
    """A monoid certificate's JSON with the fields older payloads carried
    beside it: the default search radius, each element's `inverted` flag
    (read from its role) and `tau` (from `classify`), and their copies in
    `data`."""
    assert set(d) == set(PingPongCertificate._fields) and d["data"] == {}
    inverted = [e["role"].endswith("^-1") for e in d["elements"]]
    taus = [classify(spec, nf_from_json(spec, e["nf"])).tau
            for e in d["elements"]]
    return dict(d, radius=pingpong.default_radius(inputs),
                elements=[dict(e, inverted=i, tau=t) for e, i, t
                          in zip(d["elements"], inverted, taus)],
                data={"inverted": inverted, "translation_lengths": taus})


# (entry, (left word, right word), sha256 of the certificate JSON or None,
# data's `ell`, powers_tried) for the perfbench reference's split jobs at the
# default radius, recorded with the search that tried l = 0 apart from its
# power search and closed each finite subgroup twice, with the fields that
# search also wrote (`radius`, the elements' `tau`, every `data` key but
# `ell`) removed
SPLIT_SEARCHES = [
    ("pgl2z", ("a a c^-1 b", "a^-1 c"), "5c755cff54e43f04", 1, 1),
    ("pgl2z", ("b^-1 c^-1", "c a^-1 c a^-1"), "1c59c36e78c116cb", 2, 2),
    ("pgl2z", ("c", "a b a^-1 b a^-1"), None, None, 0),
    ("pgl2z", ("a b^-1 b^-1", "a c^-1 a^-1"), None, None, 0),
    ("pgl2z", ("b^-1 c", "b^-1 a b c c^-1"), None, None, 1),
    ("c2*c3", ("b^-1 a^-1", "a^-1 b^-1 b^-1"), None, None, 0),
    ("c2*c3", ("a a b", "a b^-1 b^-1 a"), "4b1301b38157b8f3", None, 0),
    ("c2*c3", ("b^-1 a", "a a b b"), "fd660753aa72826b", 2, 2),
    ("c2*c3", ("a b^-1", "b b"), "52a2e0931028bea3", 2, 2),
    ("c2*c3", ("a", "b^-1 a b b^-1 a^-1"), "727f510f05989288", None, 0),
    ("c2*c4", ("b^-1 a", "a b^-1 b"), "d8263767531c6cb5", 1, 1),
    ("c2*c4", ("b^-1 a^-1 b^-1 a b^-1", "b a a^-1 b^-1 b"),
     "73eb24acc74c560e", 2, 2),
    ("c2*c4", ("b^-1 a^-1 a^-1 b^-1 b^-1", "a^-1 b^-1 a^-1 b b"),
     "457d6896456b5db1", 2, 2),
    ("c2*c4", ("a^-1", "b^-1 b^-1 a^-1"), "2180a8f71e453576", 1, 1),
    ("c2*c4", ("b a^-1 b^-1 b", "a a^-1 a^-1 a^-1 a"), "9dddd398c7ee17f8", 1, 1),
    ("c2*c5", ("a a a b", "b a^-1"), None, None, 0),
    ("c2*c5", ("b^-1 a b^-1 b^-1", "b a^-1 b^-1 b^-1"), None, None, 0),
    ("c2*c5", ("a a a b b", "a b"), None, None, 0),
    ("c2*c5", ("b^-1 b^-1 b^-1", "a^-1 b^-1 a"), "ac2c19685b14dbe9", None, 0),
    ("c2*c5", ("b^-1 a^-1 b a", "a b a b b"), None, None, 0),
]


@pytest.mark.parametrize("name, words, sha, ell, powers", SPLIT_SEARCHES)
def test_split_search_matches_the_recorded_search(name, words, sha, ell,
                                                  powers, monkeypatch):
    entry = catalog_load(name)
    fixed, closed = [], []
    real_fixed, real_closure = pingpong._common_fixed, pingpong._closure
    monkeypatch.setattr(pingpong, "_common_fixed", lambda spec, gens, radius:
                        fixed.append(tuple(gens)) or real_fixed(spec, gens, radius))
    monkeypatch.setattr(pingpong, "_closure", lambda spec, gens, cap:
                        closed.append(tuple(gens)) or real_closure(spec, gens, cap))
    left, right = ([parse_word(entry, w)] for w in words)
    stats = {}
    cert = certify_free_split(entry.spec, left, right, stats=stats)
    got = None if cert is None else _sha(cert.to_json())
    assert (got, stats) == (sha, {"powers_tried": powers})
    assert (cert.data.get("ell") if cert else None) == ell
    # each fixed set is computed once, and each certificate closes each of
    # its finite subgroups once, in `_obligations`
    assert len(fixed) == len(set(fixed))
    assert len(closed) == len(set(closed)) <= 2 * (cert is not None)


def _drop(key):
    return lambda check: check.pop(key)


def _set(key, value):
    return lambda check: check.update({key: value})


def _first_maps_into(mutate):
    return lambda d: mutate(
        next(c for c in d["checks"] if c["check"] == "maps_into"))


def _legacy_sampled_check(d):
    # x1(X1) in X1 sampled in the radius-6 ball around X1's inner anchor, as
    # older certificates listed it; the inclusion holds, the kind is gone
    d["checks"].append({"check": "sampled_maps_into",
                        "g": d["elements"][0]["nf"], "source": 0, "target": 0,
                        "center": d["sets"][0]["w"], "radius": 6})


@pytest.mark.parametrize("mutate, accepted", [
    (lambda d: None, True),
    (_first_maps_into(_drop("g")), False),
    (_first_maps_into(_drop("check")), False),
    (_first_maps_into(_set("source", 9)), False),
    (_first_maps_into(_set("g", 5)), False),
    (_first_maps_into(_set("g", {"syllables": [[0, 1], [0, 1]], "head": 0})),
     False),
    (_legacy_sampled_check, False),
    (lambda d: d["checks"].append({"check": "made_up", "source": 0}), False),
], ids=["valid", "no-g", "no-check", "set-index-9", "g-is-int",
        "g-not-alternating", "legacy-sampled-check", "unknown-check-kind"])
def test_replay_is_total_on_malformed_checks(mutate, accepted):
    entry = catalog_load("pgl2z")
    cert = certify_free_monoid(entry.spec, _elements(entry, "b c", "a b c"))
    d = copy.deepcopy(cert.to_json())
    mutate(d)
    assert replay(entry.spec, PingPongCertificate.from_json(d)) is accepted


def _without_disjoint(d):
    d["checks"] = [c for c in d["checks"] if c["check"] != "disjoint"]


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(checks=[]),
    lambda d: d["elements"][0].update(
        nf=nf_to_json(parse_word(catalog_load("pgl2z"), "a"))),
    _without_disjoint,
    lambda d: d["sets"][0]["w"].update(key=[[1, 1], [1, 1]]),
    # the role is the one statement of an element's inversion: flipped, it
    # no longer gives the listed conclusion
    lambda d: d["elements"][0].update(role="x1^-1"),
    lambda d: d.update(conclusion=d["conclusion"].replace("x2", "x2^-1")),
    # X1 = H(u, w) with w a child of u; the base vertex is canonical and two
    # steps from w, so only the edge check tells this set from X1
    lambda d: d["sets"][0].update(u={"side": 0, "key": []}),
], ids=["no-checks", "element-replaced", "no-disjoint", "vertex-not-alternating",
        "inverted-flag-flipped", "conclusion-changed", "anchor-not-an-edge"])
def test_replay_requires_the_obligations_of_the_shape(mutate):
    entry = catalog_load("pgl2z")
    cert = certify_free_monoid(entry.spec, _elements(entry, "b c", "a b c"))
    d = copy.deepcopy(cert.to_json())
    mutate(d)
    assert not replay(entry.spec, PingPongCertificate.from_json(d))


# `certify pgl2z --mode monoid --elements "b c" "a b c"` and `certify pgl2z
# --mode split --left b --right "b c"` as written before certificates held
# only their claim and witness: beside it they carry `radius`, the monoid
# elements' `inverted` and `tau`, and `data`'s inversion pattern,
# translation lengths, subgroup orders and fixed-set distance
OLDER_PAYLOADS = [
    json.loads(
        '{"checks":[{"check":"maps_into","g":{"head":1,"syllables":[[0,1],[1,'
        '2]]},"source":0,"target":0},{"check":"maps_into","g":{"head":1,'
        '"syllables":[[0,1],[1,2]]},"source":1,"target":0},{"check":"disjoint",'
        '"sets":[0,1]},{"check":"hyperbolic","g":{"head":1,"syllables":[[0,1],'
        '[1,2]]},"tau":2},{"check":"maps_into","g":{"head":0,"syllables":[[0,'
        '1],[1,1]]},"source":0,"target":1},{"check":"maps_into","g":{"head":0,'
        '"syllables":[[0,1],[1,1]]},"source":1,"target":1},'
        '{"check":"hyperbolic","g":{"head":0,"syllables":[[0,1],[1,1]]},'
        '"tau":2}],"conclusion":"positive words in {x1,'
        ' x2} are pairwise distinct (free monoid)","data":{"inverted":[false,'
        'false],"translation_lengths":[2,2]},"elements":[{"inverted":false,'
        '"nf":{"head":1,"syllables":[[0,1],[1,2]]},"role":"x1","tau":2},'
        '{"inverted":false,"nf":{"head":0,"syllables":[[0,1],[1,1]]},'
        '"role":"x2","tau":2}],"kind":"free-monoid","radius":8,'
        '"sets":[{"label":"X1","u":{"key":[[0,1]],"side":1},"w":{"key":[[0,1],'
        '[1,2]],"side":0}},{"label":"X2","u":{"key":[[0,1]],"side":1},'
        '"w":{"key":[[0,1],[1,1]],"side":0}}],"spec_hash":"dfe003bd49a7e678"}'
    ),
    json.loads(
        '{"checks":[{"check":"disjoint","sets":[0,1]},{"check":"maps_into",'
        '"g":{"head":0,"syllables":[[0,1]]},"source":1,"target":0},'
        '{"check":"maps_into","g":{"head":1,"syllables":[[0,1],[1,2],[0,1]]},'
        '"source":0,"target":1},{"check":"hyperbolic","g":{"head":1,'
        '"syllables":[[1,2],[0,1]]},"tau":2}],'
        '"conclusion":"the generated subgroups (orders 2,'
        ' 2) generate their free product","data":{"ell":1,"fixed_distance":1,'
        '"left_order":2,"right_order":2},"elements":[{"nf":{"head":0,'
        '"syllables":[[0,1]]},"role":"left"},{"nf":{"head":1,"syllables":[[0,'
        '1],[1,2],[0,1]]},"role":"right"}],"kind":"free-product-split",'
        '"radius":8,"sets":[{"label":"X","u":{"key":[[0,1]],"side":1},'
        '"w":{"key":[],"side":0}},{"label":"Y","u":{"key":[],"side":0},'
        '"w":{"key":[[0,1]],"side":1}}],"spec_hash":"dfe003bd49a7e678"}'
    ),
]


def test_older_payloads_still_replay():
    spec = catalog_load("pgl2z").spec
    monoid, split = OLDER_PAYLOADS
    assert monoid["radius"] == split["radius"] == 8
    assert [set(e) for e in monoid["elements"]] == [{"role", "nf", "inverted", "tau"}] * 2
    assert set(monoid["data"]) == {"inverted", "translation_lengths"}
    assert set(split["data"]) == {"ell", "fixed_distance", "left_order", "right_order"}
    for d in OLDER_PAYLOADS:
        assert replay(spec, PingPongCertificate.from_json(copy.deepcopy(d)))
    # certifying the same elements again gives the same claim and witness
    entry = catalog_load("pgl2z")
    again = [certify_free_monoid(spec, _elements(entry, "b c", "a b c")),
             certify_free_split(spec, _elements(entry, "b"),
                                _elements(entry, "b c"))]
    for d, cert in zip(OLDER_PAYLOADS, again):
        assert cert.to_json() == PingPongCertificate.from_json(d).to_json() | {
            "elements": [{"role": e["role"], "nf": e["nf"]} for e in d["elements"]],
            "data": {k: v for k, v in d["data"].items() if k == "ell"}}


def _orders_7_3(d):
    # orders and conclusion changed together, consistent with each other
    d["data"].update(left_order=7, right_order=3)
    d["conclusion"] = d["conclusion"].replace("orders 2, 2", "orders 7, 3")


@pytest.mark.parametrize("mutate, accepted", [
    (lambda d: None, True),
    (lambda d: d.update(conclusion="the generated subgroups (orders 3, 3) "
                                   "generate their free product"), False),
    # `replay` never reads `data`: the orders the older payload states there
    # are ignored, and so is the power, a hint: the certificate is about the
    # right element it lists, (b c) b here, whatever `ell` says
    (lambda d: d["data"].update(left_order=7), True),
    (lambda d: d["data"].update(right_order=3), True),
    (_orders_7_3, False),
    (lambda d: d["data"].pop("left_order"), True),
    (lambda d: d.update(data=[]), True),
    (lambda d: d["data"].update(ell=0), True),
], ids=["valid", "conclusion-orders-3-3", "left-order-7", "right-order-3",
        "orders-and-conclusion-7-3", "no-left-order", "data-not-a-dict",
        "ell-0"])
def test_replay_binds_the_conclusion_and_the_subgroup_orders(mutate, accepted):
    # the split of b and b c as an older payload wrote it: the subgroup
    # orders stand in the conclusion and again in `data`
    d = copy.deepcopy(OLDER_PAYLOADS[1])
    assert d["data"]["ell"] == 1 and "orders 2, 2" in d["conclusion"]
    mutate(d)
    spec = catalog_load("pgl2z").spec
    assert replay(spec, PingPongCertificate.from_json(d)) is accepted


def test_certificates_hold_only_the_claim_and_its_witness():
    for _, d in _one_certificate_per_shape():
        assert list(d) == ["kind", "spec_hash", "elements", "sets", "checks",
                           "conclusion", "data"]
        assert all(set(e) == {"role", "nf"} for e in d["elements"])
        assert set(d["data"]) <= {"ell"}


def test_an_over_cap_subgroup_surfaces_from_the_certificate(monkeypatch):
    # <b> has order 3 in C2*C3: below that cap the split's obligations
    # cannot be derived
    entry = catalog_load("c2*c3")
    monkeypatch.setattr(pingpong, "SUBGROUP_CAP", 2)
    diags = []
    assert certify_free_split(entry.spec, _elements(entry, "a"),
                              _elements(entry, "b"), diagnostics=diags) is None
    assert diags == ["generated subgroup exceeds cap 2"]


def _hyperbolic_pair():
    """Two hyperbolic elements of C2*C5 with disjoint axes: x and a
    conjugate of x."""
    entry = catalog_load("c2*c5")
    spec = entry.spec
    x = parse_word(entry, "a b")
    h = parse_word(entry, "b a b b")
    return entry, x, multiply(spec, multiply(spec, h, x), invert(spec, h))


@functools.lru_cache(maxsize=None)
def _one_certificate_per_shape():
    """(entry, certificate JSON) for the free monoid and each split shape."""
    pgl2z, c2c3 = catalog_load("pgl2z"), catalog_load("c2*c3")
    c2c5, x, y = _hyperbolic_pair()
    certs = [
        (pgl2z, certify_free_monoid(pgl2z.spec, _elements(pgl2z, "b c", "a b c"))),
        (c2c3, certify_free_split(c2c3.spec, _elements(c2c3, "a"),
                                  _elements(c2c3, "b"))),
        (pgl2z, certify_free_split(pgl2z.spec, _elements(pgl2z, "b"),
                                   _elements(pgl2z, "b c"))),
        (c2c3, certify_free_split(c2c3.spec, _elements(c2c3, "a"),
                                  _elements(c2c3, "b a b"))),
        (c2c5, certify_free_split(c2c5.spec, [x], [y], radius=6)),
    ]
    shapes = {tuple(s["label"] for s in cert.sets) for _, cert in certs}
    assert shapes == {("X1", "X2"), ("X", "Y"), ("X", "Y+", "Y-"),
                      ("X+", "X-", "Y+", "Y-")}
    return tuple((entry, cert.to_json()) for entry, cert in certs)


STRUCTURAL = {"disjoint", "maps_into", "hyperbolic"}


def _vertex(d):
    return TreeVertex(d["side"], tuple(tuple(s) for s in d["key"]))


def test_maps_into_checks_hold_pointwise_on_a_ball():
    # oracle by `act` and `tree_distance` alone, without `HalfTree.contains`:
    # every vertex of the source set H(u, w) within radius 6 of w is carried
    # by g to a vertex closer to w' than to u', the target set H(u', w')
    for entry, d in _one_certificate_per_shape():
        spec = entry.spec
        sets = [(_vertex(s["u"]), _vertex(s["w"])) for s in d["sets"]]
        maps = [c for c in d["checks"] if c["check"] == "maps_into"]
        assert maps
        for c in maps:
            g = nf_from_json(spec, c["g"])
            (u, w), (u2, w2) = sets[c["source"]], sets[c["target"]]
            inside = [v for v in ball(spec, w, 6)
                      if tree_distance(v, w) < tree_distance(v, u)]
            assert inside
            for v in inside:
                gv = act(spec, g, v)
                assert tree_distance(gv, w2) < tree_distance(gv, u2), (c, v)


def test_checks_are_the_structural_kinds():
    assert set(pingpong.CHECKS) == STRUCTURAL


def test_replay_needs_every_listed_check():
    for entry, d in _one_certificate_per_shape():
        assert replay(entry.spec, PingPongCertificate.from_json(d))
        assert {c["check"] for c in d["checks"]} <= STRUCTURAL
        for i, check in enumerate(d["checks"]):
            mutant = copy.deepcopy(d)
            del mutant["checks"][i]
            assert not replay(entry.spec, PingPongCertificate.from_json(mutant)), check


def _older_auxiliary_check(spec, d, kind):
    """A check that holds, of a kind older split certificates listed beside
    their obligations: the left element fixes its witness vertex v
    (`fixes_vertex`), or v is off the right element's axis
    (`not_on_axis`)."""
    x = nf_from_json(spec, d["elements"][0]["nf"])
    v = classify(spec, x).witness
    assert act(spec, x, v) == v
    if kind == "fixes_vertex":
        return {"check": kind, "g": d["elements"][0]["nf"], "v": vertex_json(v)}
    y = nf_from_json(spec, d["elements"][-1]["nf"])
    tau = classify(spec, y).tau
    assert tau > 0 and displacement(spec, y, v) != tau
    return {"check": kind, "g": d["elements"][-1]["nf"], "tau": tau,
            "v": vertex_json(v)}


@pytest.mark.parametrize("shape, kind", [
    (1, "fixes_vertex"), (2, "fixes_vertex"), (3, "fixes_vertex"),
    (3, "not_on_axis"),
], ids=["X-Y", "X-Y-power", "X-Y+-Y-", "X-Y+-Y-not-on-axis"])
def test_replay_rejects_the_auxiliary_checks_of_older_split_certificates(
        shape, kind):
    entry, d = _one_certificate_per_shape()[shape]
    assert d["kind"] == "free-product-split"
    assert replay(entry.spec, PingPongCertificate.from_json(d))
    older = copy.deepcopy(d)
    older["checks"].append(_older_auxiliary_check(entry.spec, d, kind))
    assert not replay(entry.spec, PingPongCertificate.from_json(older))


def _paths(node, path=()):
    """Every position in a JSON value, the root included."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replace(node, path, value):
    if not path:
        return value
    node[path[0]] = _replace(node[path[0]], path[1:], value)
    return node


def _positive_words_are_distinct(spec, elements, length=4):
    """Oracle by `multiply` alone: the products of the positive words of
    length <= `length` over the elements are pairwise distinct."""
    seen = {identity_nf(spec).key()}
    level = [identity_nf(spec)]
    for _ in range(length):
        level = [multiply(spec, g, x) for g in level for x in elements]
        for g in level:
            if g.key() in seen:
                return False
            seen.add(g.key())
    return True


JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 12),
                 st.floats(allow_nan=True), st.text(max_size=3),
                 st.lists(st.integers(-1, 3), max_size=3),
                 st.dictionaries(st.sampled_from(["side", "key", "syllables",
                                                  "head", "check", "g"]),
                                 st.integers(-1, 3), max_size=2))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_replay_on_mutated_certificates(data):
    entry, valid = data.draw(st.sampled_from(_one_certificate_per_shape()))
    d = copy.deepcopy(valid)
    mutation = data.draw(st.sampled_from(
        ["permute", "duplicate", "element", "field"]))
    if mutation == "permute":
        d["checks"] = data.draw(st.permutations(d["checks"]))
    elif mutation == "duplicate":
        d["checks"].append(copy.deepcopy(data.draw(st.sampled_from(d["checks"]))))
    elif mutation == "element":
        word = " ".join(data.draw(st.lists(
            st.sampled_from(sorted(entry.alphabet)), min_size=1, max_size=4)))
        i = data.draw(st.integers(0, len(d["elements"]) - 1))
        d["elements"][i]["nf"] = nf_to_json(parse_word(entry, word))
    else:
        path = data.draw(st.sampled_from(list(_paths(d))[1:]))
        d = _replace(d, path, data.draw(JUNK))
    accepted = replay(entry.spec, PingPongCertificate.from_json(d))
    assert accepted in (True, False)
    if mutation in ("permute", "duplicate"):
        assert accepted
    if accepted and d["kind"] == "free-monoid":
        elements = [nf_from_json(entry.spec, e["nf"]) for e in d["elements"]]
        assert _positive_words_are_distinct(entry.spec, elements)


@pytest.mark.parametrize("name, words, order", [
    ("c2*c3", ["a"], 2),
    ("c2*c3", ["b"], 3),
    ("c2*c5", ["b"], 5),
    ("pgl2z", ["a", "b"], 4),
    ("pgl2z", ["a", "c"], 6),
    ("gl2z", ["a", "b"], 8),
    ("c2*c3", ["a", "b"], None),
    # gl2z's d is the same element as b; a repeated generator; the identity
    # ("a a") as a generator, alone and beside another
    ("gl2z", ["c", "d"], 12),
    ("c2*c5", ["b", "b"], 5),
    ("c2*c3", ["b", "a a"], 3),
    ("c2*c3", ["a a"], 1),
])
def test_closure_orders_and_cap(name, words, order):
    entry = catalog_load(name)
    elements = _closure(entry.spec, _elements(entry, *words), SUBGROUP_CAP)
    if order is None:
        assert elements is None      # <a, b> is infinite
        return
    assert len(elements) == order
    assert len({g.key() for g in elements}) == order
    assert elements == sorted(elements, key=lambda g: g.key())
    # one below the order is past the cap
    assert _closure(entry.spec, _elements(entry, *words), order - 1) is None


def test_split_certificate_recovers_the_defining_splitting():
    entry = catalog_load("c2*c3")
    cert = certify_free_split(entry.spec,
                              _elements(entry, "a"),
                              _elements(entry, "b"))
    assert cert is not None
    assert "orders 2, 3" in cert.conclusion
    assert replay(entry.spec, cert)
    # every non-identity element of <a> and <b> pushes the other set across
    a, b = _elements(entry, "a", "b")
    pushed = [c["g"] for c in cert.checks if c["check"] == "maps_into"]
    expected = [a, b, multiply(entry.spec, b, b)]
    assert sorted(map(str, pushed)) == sorted(str(nf_to_json(g)) for g in expected)


def test_split_of_two_involutions_needs_the_hyperbolic_product():
    # two subgroups of order 2 also need their product to have infinite order
    entry = catalog_load("c2*c2")
    cert = certify_free_split(entry.spec, _elements(entry, "a"),
                              _elements(entry, "b"))
    assert cert is not None
    d = cert.to_json()
    ab = nf_to_json(parse_word(entry, "a b"))
    assert [c["g"] for c in d["checks"] if c["check"] == "hyperbolic"] == [ab]
    d["checks"] = [c for c in d["checks"] if c["check"] != "hyperbolic"]
    assert not replay(entry.spec, PingPongCertificate.from_json(d))


def test_split_certificate_elliptic_hyperbolic():
    entry = catalog_load("pgl2z")
    cert = certify_free_split(entry.spec,
                              _elements(entry, "b"),
                              _elements(entry, "b c"))
    assert cert is not None
    assert replay(entry.spec, cert)


def test_split_certificate_hyperbolic_hyperbolic():
    entry, x, y = _hyperbolic_pair()
    cert = certify_free_split(entry.spec, [x], [y])
    assert cert is not None
    assert cert.kind == "free-product-split"
    assert replay(entry.spec, cert)


def _two_axes_split(spec, x, y, radius, diagnostics):
    """The hyperbolic/hyperbolic split from both axis segments and their
    nearest pair: the oracle for the exit that reads x's segment alone."""
    ax = axis_segment(spec, x, radius)
    ay = axis_segment(spec, y, radius)
    d, qx, qy = nearest_pair(ax, ay)
    if d == 0:
        diagnostics.append("axes intersect within radius")
        return None
    ends = [geodesic(q, act(spec, g, q))[1]
            for q, g in ((qx, x), (qx, invert(spec, x)),
                         (qy, y), (qy, invert(spec, y)))]
    return pingpong._certificate(
        spec, "free-product-split", pingpong._split_elements([x], [y]),
        [(label, HalfTree(q, end)) for label, q, end
         in zip(("X+", "X-", "Y+", "Y-"), (qx, qx, qy, qy), ends)],
        {}, diagnostics)


def _assert_split_matches_two_axes(spec, x, y, radius):
    for a, b in ((x, y), (y, x)):
        got_diags, want_diags = [], []
        got = certify_free_split(spec, [a], [b], radius=radius,
                                 diagnostics=got_diags)
        want = _two_axes_split(spec, a, b, radius, want_diags)
        assert (got and got.to_json(), got_diags) == (
            want and want.to_json(), want_diags)


def _count_axes(monkeypatch):
    calls = []
    real = pingpong.axis_segment
    monkeypatch.setattr(pingpong, "axis_segment", lambda spec, g, radius:
                        calls.append(g) or real(spec, g, radius))
    return calls


CROSSING_C2C5 = [words for name, words, sha, _, _ in SPLIT_SEARCHES
                 if name == "c2*c5" and sha is None]


@pytest.mark.parametrize("words", CROSSING_C2C5)
def test_crossing_axes_are_settled_from_one_axis(words, monkeypatch):
    entry = catalog_load("c2*c5")
    x, y = _elements(entry, *words)
    assert classify(entry.spec, x).hyperbolic and classify(entry.spec, y).hyperbolic
    calls = _count_axes(monkeypatch)
    diags = []
    assert certify_free_split(entry.spec, [x], [y], diagnostics=diags) is None
    assert diags == ["axes intersect within radius"]
    assert calls == [x]


def test_separated_axes_read_both_axes(monkeypatch):
    entry, x, y = _hyperbolic_pair()
    calls = _count_axes(monkeypatch)
    assert certify_free_split(entry.spec, [x], [y], radius=6) is not None
    assert calls == [x, y]


def test_axes_meeting_outside_the_ball_are_not_settled_early():
    # y = a b has its witness at the base; x is a conjugate of a b b by
    # (a b)^3, so the two axes meet only 5-7 steps from y's witness, beyond
    # the radius
    entry = catalog_load("c2*c5")
    spec = entry.spec
    y = parse_word(entry, "a b")
    h = parse_word(entry, "a b a b a b")
    x = multiply(spec, multiply(spec, h, parse_word(entry, "a b b")),
                 invert(spec, h))
    radius = 4
    cy = classify(spec, y)
    ax = axis_segment(spec, x, radius)
    meet = [v for v in ax if displacement(spec, y, v) == cy.tau]
    assert meet and all(tree_distance(v, cy.witness) > radius for v in meet)
    diags = []
    assert _two_axes_split(spec, x, y, radius, diags) is None
    assert diags and diags != ["axes intersect within radius"]
    _assert_split_matches_two_axes(spec, x, y, radius)


@st.composite
def _hyperbolic_pairs(draw):
    # two random forms, the second conjugated by a third to move its axis
    entry = catalog_load(draw(st.sampled_from(catalog_names())))
    spec = entry.spec

    def form(lo, hi):
        side, syl = draw(st.sampled_from((0, 1))), []
        for _ in range(draw(st.integers(lo, hi))):
            syl.append((side, draw(st.sampled_from(
                spec.transversal(side).reps[1:]))))
            side = 1 - side
        return NormalForm(tuple(syl), draw(st.integers(0, spec.C.order - 1)))

    x, y, h = form(2, 6), form(2, 6), form(0, 4)
    y = multiply(spec, multiply(spec, h, y), invert(spec, h))
    assume(classify(spec, x).hyperbolic and classify(spec, y).hyperbolic)
    return spec, x, y, draw(st.integers(4, 8))


@settings(max_examples=60, deadline=None)
@given(_hyperbolic_pairs())
def test_split_of_hyperbolic_pairs_matches_the_two_axes_path(data):
    _assert_split_matches_two_axes(*data)


def test_split_certificate_elliptic_hyperbolic_without_power_search():
    # the axis of b a b misses the vertex fixed by a
    entry = catalog_load("c2*c3")
    cert = certify_free_split(entry.spec, _elements(entry, "a"),
                              _elements(entry, "b a b"))
    assert cert is not None
    assert [s["label"] for s in cert.sets] == ["X", "Y+", "Y-"]
    assert cert.data["ell"] == 0
    assert replay(entry.spec, cert)


def test_split_certificate_edge_group_element_is_inconclusive():
    # the amalgamated involution fixes every axis vertex it meets; no free
    # splitting with it can be certified
    entry = catalog_load("pgl2z")
    diags = []
    cert = certify_free_split(entry.spec,
                              _elements(entry, "a"),
                              _elements(entry, "b c"),
                              diagnostics=diags)
    assert cert is None
    assert diags


def test_split_certificate_rejects_commuting_inputs():
    entry = catalog_load("pgl2z")
    # a and b commute (both in the Klein-four factor): no free splitting
    assert certify_free_split(entry.spec,
                              _elements(entry, "a"),
                              _elements(entry, "b")) is None


def test_split_certificate_is_sound_on_samples():
    # derive group words from the certified splitting and check non-triviality
    entry = catalog_load("pgl2z")
    left = _elements(entry, "b")
    right = _elements(entry, "b c")
    cert = certify_free_split(entry.spec, left, right)
    assert cert is not None
    spec = entry.spec
    x, y = left[0], right[0]
    # the certificate may replace y by y x^l; the free basis is (x, y')
    for _ in range(cert.data.get("ell") or 0):
        y = multiply(spec, y, x)
    assert [e["nf"] for e in cert.elements] == [nf_to_json(x), nf_to_json(y)]
    # alternating products x y^e1 x y^e2 ... with exponents below the
    # certified factor orders, as the conclusion states them, are never
    # trivial
    _, right_order = map(int, re.search(r"orders (\d+), (\d+)",
                                        cert.conclusion).groups())
    exps = tuple(range(1, right_order))
    for repeat in (1, 2, 3, 4):
        for pattern in itertools.product(exps, repeat=repeat):
            g = identity_nf(spec)
            for e in pattern:
                g = multiply(spec, g, x)
                acc = identity_nf(spec)
                for _ in range(e):
                    acc = multiply(spec, acc, y)
                g = multiply(spec, g, acc)
            assert not is_identity(spec, g)
