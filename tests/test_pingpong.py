import copy
import itertools

import pytest

from amalgrowth.amalgam import Word, identity_nf, is_identity, multiply, reduce_word
from amalgrowth.catalog import catalog_load, parse_word
from amalgrowth.pingpong import (
    SUBGROUP_CAP,
    HalfTree,
    PingPongCertificate,
    _closure,
    certify_free_monoid,
    certify_free_split,
    half_tree,
    half_tree_subset,
    half_trees_disjoint,
    image_half_tree,
    replay,
)
from amalgrowth.tree import BASE_A, BASE_B, ball, neighbors, tree_distance


def _elements(entry, *words):
    return [parse_word(entry, w) for w in words]


def test_half_tree_predicates_match_pointwise_definition():
    entry = catalog_load("c2*c3")
    spec = entry.spec
    verts = ball(spec, BASE_A, 6)
    edges = [(u, w) for u in ball(spec, BASE_A, 2)
             for w in neighbors(spec, u)]
    halves = [half_tree(u, w) for u, w in edges]

    def members(h):
        return {v for v in verts
                if tree_distance(v, h.w) < tree_distance(v, h.u)}

    for h1, h2 in itertools.combinations(halves[:8], 2):
        m1, m2 = members(h1), members(h2)
        assert half_trees_disjoint(h1, h2) == (not (m1 & m2))
        assert half_tree_subset(h1, h2) == (m1 <= m2)


def test_image_half_tree_is_equivariant():
    entry = catalog_load("pgl2z")
    spec = entry.spec
    g = parse_word(entry, "a b c")
    h = half_tree(BASE_A, BASE_B)
    img = image_half_tree(spec, g, h)
    assert tree_distance(img.u, img.w) == 1
    # membership transports: v in H iff g.v in g(H)
    from amalgrowth.tree import act
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
    # the certificate records which inputs were replaced by their inverses;
    # positive words in the certified basis give distinct elements
    from amalgrowth.amalgam import invert
    spec = entry.spec
    basis = [invert(spec, g) if inv else g
             for g, inv in zip(elems, cert.data["inverted"])]
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


def _drop(key):
    return lambda check: check.pop(key)


def _set(key, value):
    return lambda check: check.update({key: value})


@pytest.mark.parametrize("mutate, accepted", [
    (lambda check: None, True),
    (_drop("g"), False),
    (_drop("check"), False),
    (_set("source", 9), False),
    (_set("g", 5), False),
], ids=["valid", "no-g", "no-check", "set-index-9", "g-is-int"])
def test_replay_is_total_on_malformed_checks(mutate, accepted):
    entry = catalog_load("pgl2z")
    cert = certify_free_monoid(entry.spec, _elements(entry, "b c", "a b c"))
    d = copy.deepcopy(cert.to_json())
    assert d["checks"][0]["check"] == "maps_into"
    mutate(d["checks"][0])
    assert replay(entry.spec, PingPongCertificate.from_json(d)) is accepted


@pytest.mark.parametrize("name, words, order", [
    ("c2*c3", ["a"], 2),
    ("c2*c3", ["b"], 3),
    ("c2*c5", ["b"], 5),
    ("pgl2z", ["a", "b"], 4),
    ("pgl2z", ["a", "c"], 6),
    ("gl2z", ["a", "b"], 8),
    ("c2*c3", ["a", "b"], None),
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


def test_split_certificate_elliptic_hyperbolic():
    entry = catalog_load("pgl2z")
    cert = certify_free_split(entry.spec,
                              _elements(entry, "b"),
                              _elements(entry, "b c"))
    assert cert is not None
    assert replay(entry.spec, cert)


def test_split_certificate_hyperbolic_hyperbolic():
    from amalgrowth.amalgam import invert
    entry = catalog_load("c2*c5")
    spec = entry.spec
    x = parse_word(entry, "a b")
    h = parse_word(entry, "b a b b")
    y = multiply(spec, multiply(spec, h, x), invert(spec, h))
    cert = certify_free_split(spec, [x], [y])
    assert cert is not None
    assert cert.kind == "free-product-split"
    assert replay(spec, cert)


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
    # alternating products x y^e1 x y^e2 ... with exponents below the
    # certified factor orders are never trivial
    exps = tuple(range(1, cert.data["right_order"]))
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
