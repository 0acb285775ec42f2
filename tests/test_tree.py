import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amalgrowth.amalgam import (
    SIDE_A,
    SIDE_B,
    NormalForm,
    Word,
    identity_nf,
    invert,
    multiply,
    reduce_word,
)
from amalgrowth.catalog import catalog_load, catalog_names, parse_word
from amalgrowth.tree import (
    BASE_A,
    BASE_B,
    TreeVertex,
    VerdictError,
    _ancestor,
    _at_or_above,
    act,
    axis_segment,
    ball,
    classify,
    displacement,
    fixed_set,
    geodesic,
    nearest_pair,
    neighbors,
    tree_distance,
    witness_holds,
)
from amalgrowth.verify import _elliptic_product, _min_displacement


def _bfs_distance(spec, u: TreeVertex, v: TreeVertex,
                  radius: int | None = None) -> int | None:
    """Tree distance via bidirectional BFS over the lazy adjacency; None when
    a radius cap is given and exceeded.  First contact is exact in a tree.
    The reference for `tree_distance`, sharing none of its code."""
    if u == v:
        return 0
    du, dv = {u: 0}, {v: 0}
    fu, fv = [u], [v]
    ru = rv = 0
    while True:
        if radius is not None and ru + rv >= radius:
            return None
        if len(fu) <= len(fv):
            frontier, mine, theirs = fu, du, dv
        else:
            frontier, mine, theirs = fv, dv, du
        depth = mine[frontier[0]] + 1
        nxt = []
        for x in frontier:
            for y in neighbors(spec, x):
                if y in mine:
                    continue
                mine[y] = depth
                if y in theirs:
                    return depth + theirs[y]
                nxt.append(y)
        if mine is du:
            fu, ru = nxt, depth
        else:
            fv, rv = nxt, depth


def _random_words(entry, count, maxlen, seed):
    rng = random.Random(seed)
    names = sorted(entry.alphabet)
    out = []
    for _ in range(count):
        letters = tuple(
            (rng.choice(names), rng.choice((1, -1)))
            for _ in range(rng.randint(1, maxlen)))
        out.append(reduce_word(entry.spec, Word(letters), entry.alphabet))
    return out


def test_base_edge():
    entry = catalog_load("c2*c3")
    assert tree_distance(BASE_A, BASE_B) == 1
    assert tree_distance(BASE_A, BASE_A) == 0
    assert _bfs_distance(entry.spec, BASE_A, BASE_B, 5) == 1


def test_bipartite_distances():
    entry = catalog_load("pgl2z")
    for v in ball(entry.spec, BASE_A, 4):
        d = tree_distance(BASE_A, v)
        assert (d % 2 == 0) == (v.side == BASE_A.side)
        assert _bfs_distance(entry.spec, BASE_A, v, 8) == d


def test_neighbors_degree():
    entry = catalog_load("pgl2z")
    # vertex stabilizers are conjugates of A or B; degree = index of C
    degA = len(entry.spec.transA.reps)
    degB = len(entry.spec.transB.reps)
    for v in ball(entry.spec, BASE_A, 3):
        expect = degA if v.side == BASE_A.side else degB
        nbrs = neighbors(entry.spec, v)
        assert len(nbrs) == len(set(nbrs)) == expect
        assert all(tree_distance(v, w) == 1 for w in nbrs)


def _canonical_vertex(g: NormalForm, side: int) -> TreeVertex:
    """The vertex of the coset g*(A or B): g's syllables with a last one on
    that side dropped."""
    syl = g.syllables
    if syl and syl[-1][0] == side:
        syl = syl[:-1]
    return TreeVertex(side, syl)


@pytest.mark.parametrize("name", catalog_names())
def test_act_is_the_canonical_vertex_of_the_product(name):
    entry = catalog_load(name)
    spec = entry.spec
    verts = ball(spec, BASE_A, 4) + ball(spec, BASE_B, 4)
    for g in _random_words(entry, 20, 6, seed=11):
        for v in verts:
            rep = NormalForm(v.key, spec.C.identity)
            assert act(spec, g, v) == _canonical_vertex(
                multiply(spec, g, rep), v.side), (name, g, v)


@pytest.mark.parametrize("name", catalog_names())
def test_at_or_above_is_the_ancestor_at_that_depth(name):
    spec = catalog_load(name).spec
    verts = ball(spec, BASE_A, 4) + ball(spec, BASE_B, 4)
    for x in verts:
        for v in verts:
            assert _at_or_above(x, v) == (
                len(x.key) <= len(v.key) and _ancestor(v, len(x.key)) == x)


@pytest.mark.parametrize("name", catalog_names())
def test_tree_distance_has_a_closed_form(name):
    # m common syllables, then one more step across the base-edge side at
    # depth m when the two chains leave it on different sides; only this
    # test carries the formula
    spec = catalog_load(name).spec
    verts = ball(spec, BASE_A, 6)
    for u in verts:
        for v in verts:
            m = 0
            while m < min(len(u.key), len(v.key)) and u.key[m] == v.key[m]:
                m += 1
            side_u = u.key[m][0] if m < len(u.key) else u.side
            side_v = v.key[m][0] if m < len(v.key) else v.side
            assert tree_distance(u, v) == (len(u.key) + len(v.key) - 2 * m
                                           + (side_u != side_v)), (u, v)


def test_action_is_isometric():
    entry = catalog_load("pgl2z")
    elems = _random_words(entry, 15, 5, seed=3)
    verts = ball(entry.spec, BASE_A, 3)[:12]
    for g in elems:
        for u in verts:
            for v in verts[:4]:
                assert tree_distance(act(entry.spec, g, u),
                                     act(entry.spec, g, v)) \
                    == tree_distance(u, v)


def test_action_is_homomorphic():
    entry = catalog_load("gl2z")
    elems = _random_words(entry, 10, 4, seed=5)
    verts = ball(entry.spec, BASE_B, 2)
    for g in elems[:5]:
        for h in elems[5:]:
            gh = multiply(entry.spec, g, h)
            for v in verts:
                assert act(entry.spec, gh, v) \
                    == act(entry.spec, g, act(entry.spec, h, v))


def test_classify_factor_elements_are_elliptic():
    entry = catalog_load("c2*c3")
    for name in ("a", "b"):
        cls = classify(entry.spec, entry.alphabet[name])
        assert cls.elliptic
        assert cls.tau == 0
        g = entry.alphabet[name]
        assert act(entry.spec, g, cls.witness) == cls.witness


def test_classify_hyperbolic_translation_length():
    entry = catalog_load("c2*c3")
    ab = parse_word(entry, "a b")
    cls = classify(entry.spec, ab)
    assert cls.hyperbolic
    assert cls.tau == 2
    assert witness_holds(entry.spec, ab, cls)
    w = cls.witness
    assert tree_distance(w, act(entry.spec, ab, w)) == 2


@st.composite
def _short_elements(draw):
    """(spec, g) for a catalog entry and a word of <= 4 syllables over its
    alphabet and the inverses."""
    entry = catalog_load(draw(st.sampled_from(catalog_names())))
    letters = draw(st.lists(st.tuples(st.sampled_from(sorted(entry.alphabet)),
                                      st.sampled_from((1, -1))),
                            min_size=1, max_size=6))
    g = reduce_word(entry.spec, Word(tuple(letters)), entry.alphabet)
    assume(len(g.syllables) <= 4)
    return entry.spec, g


@settings(max_examples=200, deadline=None)
@given(_short_elements())
def test_witness_holds_and_tau_is_the_least_displacement(case):
    spec, g = case
    cls = classify(spec, g)
    assert witness_holds(spec, g, cls)
    assert cls.tau == _min_displacement(spec, g)
    # a wrong translation length fails the proof
    assert not witness_holds(spec, g, cls._replace(tau=cls.tau + 2))
    if cls.tau >= 2:
        assert not witness_holds(spec, g, cls._replace(tau=cls.tau - 2))
    w = cls.witness
    if cls.hyperbolic:
        # so does a witness off the axis: the witness lies on side A, of
        # degree [A:C] = 2 in every catalog entry, so its neighbours are on
        # the axis and the nearest vertices off it are two steps away
        off = [v for v in ball(spec, w, 2) if displacement(spec, g, v) != cls.tau]
        assert off or len(spec.transA.reps) == len(spec.transB.reps) == 2
        for v in off:
            assert not witness_holds(spec, g, cls._replace(witness=v))
    else:
        # and, for an elliptic g, a witness that g moves
        moved = next((v for v in ball(spec, w, 4) if act(spec, g, v) != v),
                     None)
        if moved is not None:
            assert not witness_holds(spec, g, cls._replace(witness=moved))
            # nor does one action prove a hyperbolic claim: d(v, g^2.v) <=
            # d(v, g.v) for an elliptic g
            fake = cls._replace(tau=displacement(spec, g, moved), witness=moved)
            assert not witness_holds(spec, g, fake)


def test_classify_conjugates_preserve_verdict():
    entry = catalog_load("pgl2z")
    g = parse_word(entry, "a b c")
    base = classify(entry.spec, g)
    for h in _random_words(entry, 8, 4, seed=11):
        conj = multiply(entry.spec, multiply(entry.spec, h, g),
                        invert(entry.spec, h))
        cls = classify(entry.spec, conj)
        assert cls.verdict == base.verdict
        assert cls.tau == base.tau


def test_fixed_set_is_invariant():
    entry = catalog_load("pgl2z")
    g = entry.alphabet["c"]
    fs = fixed_set(entry.spec, g, 4)
    assert fs
    for v in fs:
        assert act(entry.spec, g, v) == v
    with pytest.raises(VerdictError):
        fixed_set(entry.spec, parse_word(entry, "a b c"), 4)


def _fixed_by_ball_filter(spec, g, radius):
    """Oracle: the fixed vertices among all of the ball around the witness."""
    witness = classify(spec, g).witness
    fixed = [v for v in ball(spec, witness, radius) if act(spec, g, v) == v]
    fixed.sort(key=TreeVertex.sort_key)
    return fixed


def _edge_group(spec):
    return [NormalForm((), c) for c in range(spec.C.order)]


def _elliptic_elements(entry, length):
    """The elements of C (the identity among them, all fixing large subtrees)
    and every elliptic element of word length <= length over the alphabet."""
    spec = entry.spec
    letters = list(entry.alphabet.values())
    letters += [invert(spec, g) for g in letters]
    seen = {g.key(): g for g in _edge_group(spec)}
    level = [identity_nf(spec)]
    for _ in range(length):
        nxt = {}
        for g in level:
            for x in letters:
                h = multiply(spec, g, x)
                if h.key() not in seen:
                    seen[h.key()] = nxt[h.key()] = h
        level = list(nxt.values())
    return [g for g in seen.values() if classify(spec, g).elliptic]


@pytest.mark.parametrize("name", catalog_names())
def test_fixed_set_matches_the_ball_filter(name):
    entry = catalog_load(name)
    spec = entry.spec
    for g in _elliptic_elements(entry, 4):
        for radius in range(9):
            assert fixed_set(spec, g, radius) \
                == _fixed_by_ball_filter(spec, g, radius), (g, radius)
    # one deep case: a non-identity element of C, or the identity in a free
    # product, whose fixed set is the whole ball
    g = next((c for c in _edge_group(spec) if c.head != spec.C.identity),
             identity_nf(spec))
    assert fixed_set(spec, g, 12) == _fixed_by_ball_filter(spec, g, 12)


def test_axis_is_a_geodesic_line_segment():
    entry = catalog_load("pgl2z")
    g = parse_word(entry, "b c a b c")
    cls = classify(entry.spec, g)
    assert cls.hyperbolic
    seg = axis_segment(entry.spec, g, 8)
    assert len(seg) >= 3
    for u, v in zip(seg, seg[1:]):
        assert tree_distance(u, v) == 1
    for v in seg:
        assert displacement(entry.spec, g, v) == cls.tau
    # endpoints of the segment realize the full length as a geodesic
    assert tree_distance(seg[0], seg[-1]) == len(seg) - 1


def test_geodesic_matches_distance():
    # every pair in the ball on every entry: pairs hanging from the two ends
    # of the base edge, and pairs whose keys share a prefix and then diverge
    for name in catalog_names():
        spec = catalog_load(name).spec
        verts = ball(spec, BASE_A, 3)
        assert {v.key[0][0] for v in verts if v.key} == {SIDE_A, SIDE_B}
        for u in verts:
            for v in verts:
                d = _bfs_distance(spec, u, v)
                assert tree_distance(u, v) == d, (name, u, v)
                path = geodesic(u, v)
                assert path[0] == u and path[-1] == v and len(path) == d + 1
                for x, y in zip(path, path[1:]):
                    assert y in neighbors(spec, x), (name, u, v)


def test_elliptic_product_translation_length():
    # x, y elliptic with disjoint fixed sets at distance d: x y^-1 is
    # hyperbolic with translation length 2d; fixed sets that meet give no
    # verdict
    entry = catalog_load("c2*c3")
    spec = entry.spec
    x = entry.alphabet["a"]
    y = entry.alphabet["b"]
    assert _elliptic_product(spec, x, y, 8) is True
    assert _elliptic_product(spec, x, x, 8) is None
    d, _, _ = nearest_pair(fixed_set(spec, x, 8), fixed_set(spec, y, 8))
    cls = classify(spec, multiply(spec, x, invert(spec, y)))
    assert cls.hyperbolic
    assert cls.tau == 2 * d


def test_nearest_pair_breaks_ties_by_sort_key():
    # c2*c3: two pairs at distance 1, one across the base edge; u's sort key
    # decides before v's, and a nearer pair beats any sort key
    b_a = TreeVertex(SIDE_A, ((SIDE_B, 1),))
    a_b = TreeVertex(SIDE_B, ((SIDE_A, 1),))
    ab_a = TreeVertex(SIDE_A, ((SIDE_A, 1), (SIDE_B, 1)))
    assert tree_distance(BASE_B, b_a) == tree_distance(ab_a, a_b) == 1
    assert nearest_pair([ab_a, BASE_B], [a_b, b_a]) == (1, BASE_B, b_a)
    assert nearest_pair([BASE_B], [a_b, b_a]) == (1, BASE_B, b_a)
    assert nearest_pair([BASE_A, a_b], [ab_a]) == (1, a_b, ab_a)
