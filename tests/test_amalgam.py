import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgrowth.amalgam import (
    SIDE_A,
    SIDE_B,
    NormalForm,
    Word,
    cyclic_reduce,
    factor_nf,
    identity_nf,
    invert,
    is_identity,
    make_amalgam,
    multiply,
    reduce_word,
)
from amalgrowth.catalog import catalog_load, catalog_names, parse_word
from amalgrowth.growth import StepTable, decode_flat, encode_flat
from amalgrowth.pingpong import nf_from_json, nf_to_json
from amalgrowth.tree import BASE_A, TreeVertex, act, ball

ENTRIES = [catalog_load("c2*c3"), catalog_load("pgl2z"), catalog_load("gl2z")]
ALL_ENTRIES = [catalog_load(name) for name in catalog_names()]


def _letters(entry):
    names = sorted(entry.alphabet)
    return st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from((1, -1))),
        max_size=8)


def _nf(entry, letters):
    return reduce_word(entry.spec, Word(tuple(letters)), entry.alphabet)


entry_and_two_words = st.sampled_from(ENTRIES).flatmap(
    lambda e: st.tuples(st.just(e), _letters(e), _letters(e)))


def _assert_valid_nf(spec, x):
    # Alternating sides, syllables are non-identity transversal reps,
    # head is an index into C.
    for i, (side, elem) in enumerate(x.syllables):
        trans = spec.transversal(side)
        assert elem in trans.reps and elem != spec.factor(side).identity
        if i:
            assert x.syllables[i - 1][0] != side
    assert 0 <= x.head < spec.C.order


@settings(max_examples=200, deadline=None)
@given(entry_and_two_words)
def test_reduce_is_homomorphic(data):
    entry, u, v = data
    gu = _nf(entry, u)
    gv = _nf(entry, v)
    guv = _nf(entry, list(u) + list(v))
    assert multiply(entry.spec, gu, gv) == guv
    _assert_valid_nf(entry.spec, guv)


@settings(max_examples=200, deadline=None)
@given(entry_and_two_words)
def test_inverse_and_identity(data):
    entry, u, _ = data
    g = _nf(entry, u)
    gi = invert(entry.spec, g)
    assert is_identity(entry.spec, multiply(entry.spec, g, gi))
    assert is_identity(entry.spec, multiply(entry.spec, gi, g))
    assert invert(entry.spec, gi) == g


@settings(max_examples=200, deadline=None)
@given(entry_and_two_words)
def test_json_round_trip(data):
    entry, u, _ = data
    g = _nf(entry, u)
    assert nf_from_json(entry.spec, nf_to_json(g)) == g


def _ref_append(spec, syllables, head, side, elem):
    # the per-syllable right multiplication through the spec's `factor`,
    # `image` and `transversal` methods: the reference for the side table
    fac = spec.factor(side)
    p = fac.mul[spec.image(side)[head]][elem]
    if syllables and syllables[-1][0] == side:
        p = fac.mul[syllables.pop()[1]][p]
    rep, c = spec.transversal(side).factorization[p]
    if rep != fac.identity:
        syllables.append((side, rep))
    return c


def _ref_multiply(spec, x, y):
    syl, head = list(x.syllables), x.head
    for side, elem in y.syllables:
        head = _ref_append(spec, syl, head, side, elem)
    return NormalForm(tuple(syl), spec.C.mul[head][y.head])


def _ref_invert(spec, x):
    syl, head = [], spec.C.inv[x.head]
    for side, elem in reversed(x.syllables):
        head = _ref_append(spec, syl, head, side, spec.factor(side).inv[elem])
    return NormalForm(tuple(syl), head)


def _ref_factor_nf(spec, side, elem):
    syl = []
    head = _ref_append(spec, syl, spec.C.identity, side, elem)
    return NormalForm(tuple(syl), head)


@st.composite
def _random_nf(draw, spec, side=None, min_syllables=0):
    # drawn syllable by syllable, so no kernel call builds the input
    if side is None:
        side = draw(st.sampled_from((SIDE_A, SIDE_B)))
    syl = []
    for _ in range(draw(st.integers(min_syllables, 10))):
        syl.append((side, draw(st.sampled_from(
            spec.transversal(side).reps[1:]))))
        side = 1 - side
    return NormalForm(tuple(syl), draw(st.integers(0, spec.C.order - 1)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_ENTRIES).flatmap(lambda e: st.tuples(
    st.just(e), _random_nf(e.spec), _random_nf(e.spec),
    st.sampled_from((SIDE_A, SIDE_B)), st.integers(0, 11))))
def test_kernel_matches_the_per_syllable_reference(data):
    entry, x, y, side, elem = data
    spec = entry.spec
    elem %= spec.factor(side).order
    _assert_valid_nf(spec, x)
    assert multiply(spec, x, y) == _ref_multiply(spec, x, y)
    assert invert(spec, x) == _ref_invert(spec, x)
    assert factor_nf(spec, side, elem) == _ref_factor_nf(spec, side, elem)


@st.composite
def _merging_pair(draw, entry):
    # y starts on the side x ends on, so the two syllables at the junction
    # merge before the rest of y can be copied
    x = draw(_random_nf(entry.spec, min_syllables=1))
    y = draw(_random_nf(entry.spec, side=x.syllables[-1][0], min_syllables=1))
    return entry, x, y


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALL_ENTRIES).flatmap(_merging_pair))
def test_multiply_matches_the_reference_when_the_junction_merges(data):
    entry, x, y = data
    spec = entry.spec
    assert multiply(spec, x, y) == _ref_multiply(spec, x, y)
    # x x^-1 cancels syllable by syllable up to the identity
    xi = _ref_invert(spec, x)
    assert multiply(spec, x, xi) == _ref_multiply(spec, x, xi)
    assert is_identity(spec, multiply(spec, x, xi))


@st.composite
def _head_carrying_pair(draw, entry):
    # x's head is not C's identity, and each syllable of y is drawn among the
    # reps after which the reference's head stays off the identity, so the
    # head is carried through every syllable of y
    spec = entry.spec
    one = spec.C.identity
    x = draw(_random_nf(entry.spec).filter(lambda x: x.head != one))
    syl, head = list(x.syllables), x.head
    side = draw(st.sampled_from((SIDE_A, SIDE_B)))
    ys = []
    for _ in range(draw(st.integers(1, 10))):
        keep = []
        for rep in spec.transversal(side).reps[1:]:
            trial = list(syl)
            if _ref_append(spec, trial, head, side, rep) != one:
                keep.append(rep)
        if not keep:
            break
        rep = draw(st.sampled_from(keep))
        head = _ref_append(spec, syl, head, side, rep)
        ys.append((side, rep))
        side = 1 - side
    return entry, x, NormalForm(tuple(ys), draw(st.integers(0, spec.C.order - 1)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([catalog_load("pgl2z"), catalog_load("gl2z")])
       .flatmap(_head_carrying_pair).filter(lambda data: data[2].syllables))
def test_multiply_matches_the_reference_with_a_carried_head(data):
    entry, x, y = data
    spec = entry.spec
    syl, head = list(x.syllables), x.head
    for side, elem in y.syllables:
        assert head != spec.C.identity
        head = _ref_append(spec, syl, head, side, elem)
    assert multiply(spec, x, y) == _ref_multiply(spec, x, y)


def _ref_act(spec, g, v):
    # `tree.act` on the per-syllable reference product
    syl = _ref_multiply(spec, g, NormalForm(v.key, spec.C.identity)).syllables
    if syl and syl[-1][0] == v.side:
        syl = syl[:-1]
    return TreeVertex(v.side, syl)


@pytest.mark.parametrize("entry", ALL_ENTRIES, ids=catalog_names())
def test_act_matches_the_reference_on_a_ball(entry):
    # every vertex of the radius-4 ball, acted on by each vertex's key with
    # every head in C
    spec = entry.spec
    verts = ball(spec, BASE_A, 4)
    elements = [NormalForm(v.key, c) for v in verts for c in range(spec.C.order)]
    for g in elements:
        for v in verts:
            assert act(spec, g, v) == _ref_act(spec, g, v)


def _malformed_forms(spec):
    a = spec.transA.reps[1]
    not_a_rep = next(x for x in range(spec.A.order) if x not in spec.transA.reps)
    return {
        "not-alternating": {"syllables": [[SIDE_A, a], [SIDE_A, a]], "head": 0},
        "identity-syllable": {"syllables": [[SIDE_A, spec.A.identity]], "head": 0},
        "not-a-rep": {"syllables": [[SIDE_A, not_a_rep]], "head": 0},
        "side-2": {"syllables": [[2, a]], "head": 0},
        "three-fields": {"syllables": [[SIDE_A, a, 0]], "head": 0},
        "head-outside-C": {"syllables": [], "head": spec.C.order},
        "head-is-float": {"syllables": [], "head": 0.0},
        "rep-is-bool": {"syllables": [[SIDE_A, True]], "head": 0},
    }


@pytest.mark.parametrize("case", sorted(_malformed_forms(
    catalog_load("pgl2z").spec)))
def test_nf_from_json_rejects_malformed_forms(case):
    spec = catalog_load("pgl2z").spec
    with pytest.raises(ValueError):
        nf_from_json(spec, _malformed_forms(spec)[case])


@settings(max_examples=200, deadline=None)
@given(entry_and_two_words)
def test_cyclic_reduce_is_a_conjugation(data):
    entry, u, _ = data
    g = _nf(entry, u)
    core, conj = cyclic_reduce(entry.spec, g)
    spec = entry.spec
    back = multiply(spec, multiply(spec, conj, core), invert(spec, conj))
    assert back == g
    assert len(core.syllables) <= len(g.syllables)
    if len(core.syllables) >= 2:
        assert core.syllables[0][0] != core.syllables[-1][0]


@settings(max_examples=150, deadline=None)
@given(entry_and_two_words)
def test_associativity(data):
    entry, u, v = data
    spec = entry.spec
    gu, gv = _nf(entry, u), _nf(entry, v)
    gw = _nf(entry, list(reversed(u)))
    lhs = multiply(spec, multiply(spec, gu, gv), gw)
    rhs = multiply(spec, gu, multiply(spec, gv, gw))
    assert lhs == rhs


def test_word_parse():
    w = Word.parse("a b^-1 c")
    assert w.letters == (("a", 1), ("b", -1), ("c", 1))
    assert Word.parse("").letters == ()


def test_known_relations_pgl2z():
    entry = catalog_load("pgl2z")
    spec = entry.spec
    a, b, c = (entry.alphabet[n] for n in "abc")
    for g in (a, b, c):
        assert is_identity(spec, multiply(spec, g, g))
    # a is the amalgamated involution; with the order-3 side (ac)^3 = 1
    ac = multiply(spec, a, c)
    cube = multiply(spec, multiply(spec, ac, ac), ac)
    assert is_identity(spec, cube)
    # a and b commute and lie in the same factor
    ab = multiply(spec, a, b)
    assert ab == multiply(spec, b, a)
    assert len(ab.syllables) <= 1


def test_gl2z_identified_generator():
    entry = catalog_load("gl2z")
    # The amalgamation glues one reflection of each dihedral factor into the
    # same element, exposed under two alphabet names.
    assert entry.alphabet["b"] == entry.alphabet["d"]


def test_sides_are_distinct():
    entry = catalog_load("c2*c3")
    spec = entry.spec
    a = entry.alphabet["a"]
    b = entry.alphabet["b"]
    assert a.syllables[0][0] != b.syllables[0][0]
    assert {SIDE_A, SIDE_B} == {a.syllables[0][0], b.syllables[0][0]}
    assert identity_nf(spec).syllables == ()


@pytest.mark.parametrize("entry", ALL_ENTRIES, ids=catalog_names())
def test_spec_hash_is_the_sha256_of_the_tables(entry, monkeypatch):
    # the formula `spec_hash` computes, recomputed here as the oracle
    spec = entry.spec
    payload = {"A": spec.A.mul, "B": spec.B.mul, "C": spec.C.mul,
               "embA": spec.embA.image, "embB": spec.embB.image}
    blob = json.dumps(payload, sort_keys=True, default=list).encode()
    want = hashlib.sha256(blob).hexdigest()[:16]
    # two specs rebuilt from the same tables, neither hashed yet, equal the
    # catalog's with the same repr, and stay so as each computes its hash
    x, y = (make_amalgam(spec.A, spec.B, spec.C, spec.embA, spec.embB)
            for _ in range(2))

    def same():
        assert x == spec == y and tuple(x) == tuple(spec)
        assert repr(x) == repr(spec) == repr(y) and hash(x) == hash(spec)

    same()
    blobs = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256",
                        lambda data: blobs.append(data) or sha256(data))
    assert [x.spec_hash() for _ in range(3)] == [want] * 3
    assert blobs == [blob]
    same()
    assert spec.spec_hash() == want
    same()
    blobs.clear()
    assert [y.spec_hash() for _ in range(2)] == [want] * 2
    assert blobs == [blob]
    same()
    assert (spec.digit_bits == max(2 * max(spec.A.order, spec.B.order),
                                   spec.C.order - 1).bit_length())


def test_spec_hash_pinned():
    assert {name: catalog_load(name).spec.spec_hash()
            for name in catalog_names()} == {
        "c2*c2": "fc718594096f3db2",
        "c2*c3": "9fba79a795206a19",
        "c2*c4": "696f45423c37cd63",
        "c2*c5": "93714511c3836a2b",
        "c2*c2xc2": "5fe7c22cf6e71305",
        "pgl2z": "dfe003bd49a7e678",
        "gl2z": "eb3d467b4ace3c3a",
    }


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_ENTRIES).flatmap(
    lambda e: st.tuples(st.just(e), _letters(e))))
def test_packed_form_round_trip(data):
    entry, word = data
    spec = entry.spec
    x = _nf(entry, word)
    v = encode_flat(spec, x)
    assert decode_flat(spec, v) == x
    # syllable digits are never 0, so the top digit fixes the length
    w = spec.digit_bits
    if x.syllables:
        assert len(x.syllables) * w < v.bit_length() <= (len(x.syllables) + 1) * w
    else:
        assert v == x.head


def _stepped(table, v):
    """The packed products of v with the table's letters, in letter order."""
    prefix = v >> table.shift
    return [prefix << s | t for t, s in table[v & table.mask]]


def _assert_steps_match_multiply(spec, letters, elements):
    table = StepTable(spec, letters)
    for x in elements:
        assert _stepped(table, encode_flat(spec, x)) == [
            encode_flat(spec, multiply(spec, x, l)) for l in letters]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALL_ENTRIES).flatmap(lambda e: st.tuples(
    st.just(e), st.lists(_letters(e), min_size=1, max_size=4), _letters(e))))
def test_step_table_matches_multiply(data):
    entry, letter_words, word = data
    letters = [_nf(entry, w) for w in letter_words]
    _assert_steps_match_multiply(entry.spec, letters, [_nf(entry, word)])


@pytest.mark.parametrize("name, words", [
    ("pgl2z", ["a", "b", "c"]),              # a lies in C: 0 syllables
    ("pgl2z", ["a", "b c", "a b c b"]),
    ("c2*c3", ["a", "b a"]),                 # the default set {a, ba}
    ("c2*c3", ["a", "b a", "b^-1 a b^-1", "a b a b a"]),
    ("gl2z", ["b", "a c a", "c"]),
])
def test_step_table_on_small_balls(name, words):
    # every element of the radius-3 ball over the alphabet, so many are
    # shorter than the longest letter; lengths 0, 1 and 2+ are mixed
    entry = catalog_load(name)
    spec = entry.spec
    letters = [parse_word(entry, w) for w in words]
    alphabet = list(entry.alphabet.values())
    alphabet += [invert(spec, g) for g in alphabet]
    ball = {identity_nf(spec)}
    for _ in range(3):
        ball |= {multiply(spec, x, g) for x in ball for g in alphabet}
    longest = max(len(l.syllables) for l in letters)
    assert any(len(x.syllables) < longest for x in ball)
    _assert_steps_match_multiply(spec, letters, sorted(ball, key=lambda x: x.key()))
