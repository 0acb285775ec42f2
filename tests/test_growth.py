import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgrowth import cli, growth, verify
from amalgrowth.amalgam import (
    SIDE_A,
    SIDE_B,
    factor_nf,
    identity_nf,
    invert,
    make_amalgam,
    multiply,
)
from amalgrowth.catalog import catalog_load, catalog_names, parse_word
from amalgrowth.growth import (
    BLOCK,
    DEFAULT_BUDGET,
    GenSetError,
    StepTable,
    _levels,
    _MinPlus,
    _named_letters,
    _Psi,
    _shortlex_moves,
    _weights,
    encode_flat,
    enumerate_balls,
    growth_table_csv,
    make_genset,
    rate,
    shortest_word,
    sphere_stream,
)
from amalgrowth.groups import cyclic, verify_embedding
from amalgrowth.spectral import fit_rate
from amalgrowth.verify import _random_genset, _reference_spheres, _same_spheres

SRC = Path(__file__).resolve().parents[1] / "src"


def _child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def test_infinite_dihedral_spheres_are_constant():
    entry = catalog_load("c2*c2")
    table = enumerate_balls(entry.spec, entry.default_genset, 12)
    assert table.sphere == (1,) + (2,) * 12
    assert table.ball[-1] == 25
    assert not table.truncated


def _up_to_sign(m):
    # 2x2 integer matrices as (p, q, r, s) = [[p, q], [r, s]]; the larger of
    # m and -m stands for the class of m in PGL(2, Z)
    return max(m, tuple(-t for t in m))


def _mat_mul(x, y):
    p, q, r, s = x
    e, f, g, h = y
    return _up_to_sign(
        (p * e + q * g, p * f + q * h, r * e + s * g, r * f + s * h))


def test_pgl2z_spheres_match_the_matrix_group():
    # PGL(2, Z) as integer matrices modulo sign, sharing no code with the
    # normal forms: the relations of (C2 x C2) *_C2 D6, then the spheres of
    # {a, b, c} by a BFS over matrices against `enumerate_balls`
    one = (1, 0, 0, 1)
    a, b, c = (_up_to_sign(m) for m in ((0, 1, 1, 0), (-1, 0, 0, 1),
                                         (-1, 1, 0, 1)))

    def power(x, n):
        acc = one
        for _ in range(n):
            acc = _mat_mul(acc, x)
        return acc

    for g, n in ((a, 2), (b, 2), (c, 2), (_mat_mul(a, b), 2),
                 (_mat_mul(a, c), 3)):
        assert power(g, n) == one
    assert _mat_mul(a, c) != one and power(_mat_mul(a, c), 2) != one
    seen, frontier, spheres = {one}, [one], [1]
    for _ in range(20):
        frontier = list({y for x in frontier for g in (a, b, c)
                         if (y := _mat_mul(x, g)) not in seen})
        seen.update(frontier)
        spheres.append(len(frontier))
    entry = catalog_load("pgl2z")
    table = enumerate_balls(entry.spec, entry.default_genset, 20)
    assert list(table.sphere) == spheres
    assert spheres[:6] == [1, 3, 5, 7, 9, 12] and spheres[-2:] == [616, 816]


def test_sphere_stream_matches_enumerate_balls():
    entry = catalog_load("pgl2z")
    for budget in (DEFAULT_BUDGET, 500):
        table = enumerate_balls(entry.spec, entry.default_genset, 20, budget=budget)
        stream = sphere_stream(entry.spec, entry.default_genset, budget=budget)
        got = tuple(itertools.islice(stream, table.nmax + 1))
        assert got == table.sphere
        # the stream stops exactly where the table was truncated
        assert table.truncated == (next(stream, None) is None)


def _random_weights(seed):
    """A stand-in for `growth._weights`: a random non-negative start vector
    and min-plus table for every digit, the 0 digit included, whatever C."""
    def weights(spec, letters):
        rng = random.Random(seed)
        n = spec.C.order

        def vector():
            return tuple(rng.randrange(5) for _ in range(n))
        return vector(), [tuple(vector() for _ in range(n))
                          for _ in range(1 << spec.digit_bits)]
    return weights


def _letters(spec, gens, inverses=True):
    """The generators with their inverses adjoined, as the engine takes
    them, or (for the state table and the digit weights, which take any
    letters) the generators alone."""
    if inverses:
        return [g for _, g in _named_letters(spec, gens)]
    return list(gens.elements)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(catalog_names()), seed=st.integers(0, 2 ** 32 - 1),
       budget=st.sampled_from([None, 500, 5000]), weighted=st.booleans())
def test_levels_match_the_reference_bfs(name, seed, budget, weighted):
    # criterion 7's random generating sets, inverses adjoined: the engine
    # keeps three spheres; the dedupe key carries psi of the base, a
    # function of the base, so random min-plus tables keep it exact
    entry = catalog_load(name)
    rng = random.Random(seed)
    gens = None
    while gens is None:
        gens = _random_genset(entry, rng)
    letters = _letters(entry.spec, gens)
    nmax = 8
    weights = _random_weights(seed) if weighted else growth._weights
    # spheres carry no order: they are compared as sets, each element once
    with mock.patch.object(growth, "_weights", weights):
        got = list(itertools.islice(_levels(entry.spec, letters, budget), nmax + 1))
    assert _same_spheres(entry.spec, got,
                         _reference_spheres(entry.spec, letters, nmax, budget))


@pytest.mark.parametrize("name, words, inverses, budget, nmax, two_blocks", [
    # letters of more than BLOCK syllables: appended to an element with
    # enough pending syllables, one moves two whole blocks into the base in
    # one step
    ("c2*c3", ["a", "b a b a b a b"], True, None, 6, True),
    ("c2*c5", ["a b a b a b b", "b"], True, 3000, 12, True),
    # c2*c3's default {a, ba}: a product shorter than the tail takes its
    # digits back from the pending block, or element by element when the
    # block holds too few
    ("c2*c3", ["a", "b a"], True, None, 14, False),
])
def test_levels_match_the_reference_bfs_on_long_and_shrinking_letters(
        name, words, inverses, budget, nmax, two_blocks):
    entry = catalog_load(name)
    spec = entry.spec
    gens = make_genset(spec, [(f"g{i}", parse_word(entry, w)) for i, w in enumerate(words)])
    letters = _letters(spec, gens, inverses)
    assert not two_blocks or max(len(l.syllables) for l in letters) > BLOCK
    got = list(itertools.islice(_levels(spec, letters, budget), nmax + 1))
    assert _same_spheres(spec, got, _reference_spheres(spec, letters, nmax, budget))


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("inverses", [True])
@pytest.mark.parametrize("name", ["c2*c4", "c2*c5", "c2*c2xc2"])
def test_levels_are_exact_for_any_digit_weights_on_free_product_sets(
        name, inverses, seed):
    # radius 12 puts 11 syllables above a one-syllable tail: two block
    # flushes, each adding psi of the moved digits to the class key
    entry = catalog_load(name)
    spec = entry.spec
    letters = _letters(spec, entry.default_genset, inverses)
    nmax = 12
    with mock.patch.object(growth, "_weights", _random_weights(seed)):
        got = list(itertools.islice(_levels(spec, letters), nmax + 1))
    assert _same_spheres(spec, got, _reference_spheres(spec, letters, nmax))


@pytest.mark.parametrize("inverses", [True, False])
@pytest.mark.parametrize("name", ["c2*c4", "c2*c5", "c2*c2xc2"])
def test_digit_weights_sum_to_word_length_on_free_product_sets(name, inverses):
    # one-syllable letters of a free product: psi of an element is its
    # sphere index in a plain BFS over multiply
    entry = catalog_load(name)
    spec = entry.spec
    letters = _letters(spec, entry.default_genset, inverses)
    psi = _Psi([m[0][0] for m in _weights(spec, letters)[1]], spec.digit_bits)
    for n, sphere in enumerate(_reference_spheres(spec, letters, 10)):
        assert {psi.of(encode_flat(spec, x)) for x in sphere} == {n}
    # so with inverses no key of a new sphere is a key of an older one, and
    # dedupe tests no base
    if inverses:
        table = enumerate_balls(spec, entry.default_genset, 16)
        assert table.compared == (0,) * 17


def _assert_tables_read_word_length(spec, letters, nmax):
    # the length read from the tables, the min-plus product over the
    # syllables taken at the head, is the sphere index in a plain BFS over
    # multiply; the engine's memoised product gives the same vector
    start, tables = _weights(spec, letters)
    psi = _MinPlus(start, tables, spec.digit_bits)
    for n, sphere in enumerate(_reference_spheres(spec, letters, nmax)):
        for x in sphere:
            v = start
            for side, rep in x.syllables:
                m = tables[1 + side + 2 * rep]
                v = tuple(min(a + row[c] for a, row in zip(v, m))
                          for c in range(len(v)))
            assert v[x.head] == n
            assert psi.vecs[psi.of(encode_flat(spec, x) >> spec.digit_bits)] == v


@pytest.mark.parametrize("name", ["c2*c4", "c2*c5", "c2*c2xc2", "pgl2z"])
def test_weight_tables_read_word_length(name):
    # pgl2z's {a, b, c}: a lies in C = C2 and generates it, b and c are one
    # syllable each, and a has length 1 in A, B and C
    entry = catalog_load(name)
    spec = entry.spec
    _assert_tables_read_word_length(
        spec, _letters(spec, entry.default_genset), 10)
    # so no key of a new sphere is a key of an older one, and dedupe tests
    # no base
    assert enumerate_balls(spec, entry.default_genset, 16).compared == (0,) * 17


def test_letters_in_c_go_first_on_factor_generated_sets():
    # with c before a in the shortlex order the window-3 filter misses
    # a c b a = c a c b and forms about a third more products than there
    # are new elements; with a (the letter in C) first it forms none extra
    entry = catalog_load("pgl2z")
    named = list(zip(entry.default_genset.names, entry.default_genset.elements))
    for perm in itertools.permutations(named):
        table = enumerate_balls(entry.spec, make_genset(entry.spec, list(perm)), 16)
        assert table.products == table.sphere
        assert table.compared == (0,) * 17


@pytest.mark.parametrize("name", ["c2*c3", "gl2z"])
def test_digit_weights_are_zero_where_length_is_not_additive(name):
    # c2*c3's {a, ba} has a two-syllable letter; gl2z's {a, b, c} has b
    # alone in C = C2 x C2, which it does not generate
    entry = catalog_load(name)
    letters = _letters(entry.spec, entry.default_genset)
    assert _weights(entry.spec, letters) is None


def test_weight_tables_refuse_sets_that_are_not_factor_generated():
    # gl2z's {a, b, c} is refused (above): b = d generates only half of C;
    # adding (ab)^2, the rotation square in C, completes the letters in C,
    # with the same lengths there
    entry = catalog_load("gl2z")
    spec, alpha = entry.spec, entry.alphabet
    gens = [alpha[k] for k in "abc"]
    r2 = parse_word(entry, "a b a b")
    assert r2.syllables == ()
    assert _weights(spec, _letters(spec, make_genset(
        spec, list(zip("abcr", gens + [r2]))))) is not None
    # C12 *_{C6} C12 with C = <h^2>: over {h^2, h^3, k}, h^6 has length 2
    # in A (h^3 h^3) but 3 in C (h^2 h^2 h^2), so the syllable tables would
    # miss the geodesics through h^3; over {h^2, h, k} the lengths agree
    A, C = cyclic(12), cyclic(6)
    image = [2 * i for i in range(6)]
    spec = make_amalgam(A, A, C, verify_embedding(C, A, image),
                        verify_embedding(C, A, image))
    h2, h3, h, k = (factor_nf(spec, SIDE_A, 2), factor_nf(spec, SIDE_A, 3),
                    factor_nf(spec, SIDE_A, 1), factor_nf(spec, SIDE_B, 1))
    assert h2.syllables == ()
    refused = _letters(spec, make_genset(spec, [("h2", h2), ("h3", h3), ("k", k)]))
    assert _weights(spec, refused) is None
    letters = _letters(spec, make_genset(spec, [("h2", h2), ("h", h), ("k", k)]))
    _assert_tables_read_word_length(spec, letters, 6)


def test_levels_reject_letters_not_closed_under_inversion():
    # c2*c3's b has order 3, so [b] lacks b^-1; dedupe against the previous
    # two spheres would be wrong for it
    entry = catalog_load("c2*c3")
    with pytest.raises(ValueError):
        next(_levels(entry.spec, [entry.alphabet["b"]]))


def test_sphere_stream_memory_is_bounded_on_linear_growth():
    # c2*c2 has 2 elements per sphere, so a 20,000-element budget reaches
    # radius ~10,000 and the whole ball holds ~10^8 syllables (about 1 GB);
    # the stream must run in a 512 MB address space
    code = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
        from amalgrowth.catalog import catalog_load
        from amalgrowth.growth import sphere_stream
        entry = catalog_load("c2*c2")
        print(sum(1 for _ in sphere_stream(entry.spec, entry.default_genset,
                                           budget=20000)))
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["9999"]


def test_deep_ball_fits_in_100_mb():
    # c2*c3 {a, ba} to radius 25 keeps about 650,000 elements (three
    # spheres) for dedupe, as sets of bases that classes and spheres share,
    # most elements with no int of their own; the run needs about 75 MB of
    # address space, one packed int per element needed 100-120 MB and
    # tuples of syllable codes over 300 MB
    code = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))
        from amalgrowth.catalog import catalog_load
        from amalgrowth.growth import enumerate_balls
        entry = catalog_load("c2*c3")
        table = enumerate_balls(entry.spec, entry.default_genset, 25)
        print(table.nmax, table.truncated, table.sphere[-1])
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["25", "False", "392836"]


def test_generator_order_does_not_change_the_csv():
    entry = catalog_load("c2*c5")
    named = list(entry.default_genset.alphabet().items())
    t1 = enumerate_balls(entry.spec, entry.default_genset, 9)
    t2 = enumerate_balls(entry.spec, make_genset(entry.spec, named[::-1]), 9)
    assert t1.sphere == t2.sphere
    assert growth_table_csv(t1) == growth_table_csv(t2)


def test_growth_tables_are_pinned():
    # every field of every entry's table but the timings, through nmax 14,
    # with a budget that never binds, one that truncates and one of 0
    rows = []
    for name in catalog_names():
        entry = catalog_load(name)
        for nmax in (0, 1, 5, 14):
            for budget in (DEFAULT_BUDGET, 50, 0):
                t = enumerate_balls(entry.spec, entry.default_genset, nmax,
                                    budget=budget)
                rows.append([name, nmax, budget, t.nmax, t.sphere, t.ball,
                             t.truncated, t.candidates, t.products, t.packed,
                             t.compared])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "078fc5a8ff0cd4458320523f590c5a7abc7189dee230461ee8f8b8fa1d32b254")


def test_budget_truncation_is_flagged():
    entry = catalog_load("pgl2z")
    table = enumerate_balls(entry.spec, entry.default_genset, 40, budget=500)
    assert table.truncated
    assert table.nmax < 40
    # counts up to the truncation point are still exact
    full = enumerate_balls(entry.spec, entry.default_genset, table.nmax)
    assert table.sphere == full.sphere


def test_shortest_word_is_geodesic():
    entry = catalog_load("pgl2z")
    g = parse_word(entry, "a b c a c")
    res = shortest_word(entry.spec, entry.default_genset, g, 12)
    assert res is not None
    length, word = res
    assert parse_word(entry, " ".join(word)) == g
    assert length == len(word)
    # nothing shorter exists: the length-(l-1) ball misses g
    table_elems = set()
    from amalgrowth.amalgam import identity_nf, invert, multiply
    frontier = [identity_nf(entry.spec)]
    letters = list(entry.default_genset.elements)
    letters += [invert(entry.spec, x) for x in letters]
    table_elems.add(frontier[0].key())
    for _ in range(length - 1):
        nxt = []
        for x in frontier:
            for l in letters:
                y = multiply(entry.spec, x, l)
                if y.key() not in table_elems:
                    table_elems.add(y.key())
                    nxt.append(y)
        frontier = nxt
    assert g.key() not in table_elems


@pytest.mark.parametrize("name, text, nmax, inverses, expected", [
    ("pgl2z", "a b c a c", 12, True, ["b", "c", "a"]),
    ("pgl2z", "c b a b", 12, True, ["c", "a"]),
    ("c2*c3", "b a b^-1 a b", 12, True, ["b", "a", "b^-1", "a", "b", "a"]),
    ("c2*c5", "b b a b^-1 a", 12, True, ["b", "b", "a", "b^-1", "a"]),
])
def test_shortest_word_pinned(name, text, nmax, inverses, expected):
    # the first geodesic in discovery order, pinned from the parent-pointer
    # search this engine replaced; `inverses` is True in every row (inverses
    # are always adjoined) and stays in the ids of these cases
    assert inverses
    entry = catalog_load(name)
    res = shortest_word(entry.spec, entry.default_genset,
                        parse_word(entry, text), nmax)
    assert res == (len(expected), expected)


def _shortlex_words(spec, letters, nmax):
    """(word, value) for every word of length <= nmax over the letter
    indices, by length then letter order, each evaluated with multiply."""
    level = [((), identity_nf(spec))]
    for n in range(nmax + 1):
        yield from level
        if n < nmax:
            level = [(w + (k,), multiply(spec, g, l))
                     for w, g in level for k, l in enumerate(letters)]


@pytest.mark.parametrize("inverses", [True])
@pytest.mark.parametrize("name", catalog_names())
def test_shortest_word_is_the_first_word_in_shortlex_order(name, inverses):
    # brute-force oracle: the first word over the letters (the generators,
    # then their inverses), by length then letter order, that multiply
    # evaluates to g; inverses are always adjoined, so `inverses` is True
    # and stays in the ids of these cases
    assert inverses
    entry = catalog_load(name)
    spec = entry.spec
    named = _named_letters(spec, entry.default_genset)
    nmax = 7
    first = {}
    for word, g in _shortlex_words(spec, [l for _, l in named], nmax):
        first.setdefault(g.key(), word)
    alphabet = list(entry.alphabet.values())
    alphabet += [invert(spec, x) for x in alphabet]
    rng = random.Random(name)
    for _ in range(15):
        g = identity_nf(spec)
        for _ in range(rng.randint(0, 8)):
            g = multiply(spec, g, rng.choice(alphabet))
        want = first.get(g.key())
        assert shortest_word(spec, entry.default_genset, g, nmax) == (
            None if want is None else (len(want), [named[k][0] for k in want]))


def _assert_accepts_shortlex_least_words(spec, letters, nmax=5):
    # a word is accepted when each letter is allowed after the state the
    # word before it reached
    moves = [dict(row) for row in _shortlex_moves(StepTable(spec, letters))]
    seen = set()
    for word, g in _shortlex_words(spec, letters, nmax):
        if g.key() in seen:
            continue
        seen.add(g.key())
        state = 0
        for k in word:
            assert k in moves[state], (word, k)
            state = moves[state][k]


@pytest.mark.parametrize("inverses", [True, False])
@pytest.mark.parametrize("name", catalog_names())
def test_state_table_accepts_shortlex_least_words_of_default_sets(name, inverses):
    entry = catalog_load(name)
    _assert_accepts_shortlex_least_words(
        entry.spec, _letters(entry.spec, entry.default_genset, inverses))


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(catalog_names()), seed=st.integers(0, 2 ** 32 - 1),
       inverses=st.booleans())
def test_state_table_accepts_shortlex_least_words_of_random_sets(name, seed, inverses):
    entry = catalog_load(name)
    rng = random.Random(seed)
    gens = None
    while gens is None:
        gens = _random_genset(entry, rng)
    _assert_accepts_shortlex_least_words(
        entry.spec, _letters(entry.spec, gens, inverses))


def test_word_length_identity_and_out_of_range():
    entry = catalog_load("c2*c3")
    from amalgrowth.amalgam import identity_nf
    assert shortest_word(entry.spec, entry.default_genset,
                         identity_nf(entry.spec), 3)[0] == 0
    far = parse_word(entry, " ".join(["a b"] * 10))
    assert shortest_word(entry.spec, entry.default_genset, far, 2) is None


def test_rate_estimates_bounds(tmp_path):
    csv = tmp_path / "t.csv"
    assert cli.main(["growth", "c2*c3", "--nmax", "16", "--format", "json",
                     "--out", str(csv)]) == 0
    report = json.loads((tmp_path / "t.csv.json").read_text())
    roots = [float(line.split(",")[3])
             for line in csv.read_text().splitlines()[2:]]
    assert not report["truncated"]
    # ball[n]^(1/n) is an upper bound on the true rate (golden ratio here)
    assert all(r >= 1.6180339887 for r in roots)
    assert report["root_estimate"] == roots[-1]


def test_rate_reads_spheres_up_to_nmax_only():
    entry = catalog_load("c2*c4")
    table = enumerate_balls(entry.spec, entry.default_genset, 8)
    got = rate(entry.spec, entry.default_genset, nmax=8)
    assert got == fit_rate(table.sphere) is not None


def test_criterion_7_fits_keep_their_guards_and_skips():
    fits = []

    def recording_rate(*args, **kwargs):
        fit = rate(*args, **kwargs)
        fits.append((fit.recurrence.guard, fit.skip))
        return fit

    with mock.patch.object(verify, "rate", recording_rate):
        result = verify.criterion_7(seed=7)
    assert result.passed
    assert sorted(fits) == sorted([(4, 0)] * 9 + [(4, 2)] * 3 + [(3, 1)] * 2
                                  + [(3, 2)] * 12 + [(3, 3)] * 2 + [(1, 6)] * 2)
    assert "18/30 rates fitted on fewer than 4 held-out terms" in result.details


def test_csv_schema():
    entry = catalog_load("c2*c2")
    table = enumerate_balls(entry.spec, entry.default_genset, 3)
    lines = growth_table_csv(table).strip().split("\n")
    assert lines[0] == "n,sphere,ball,root_estimate,ratio_estimate"
    assert lines[1].startswith("0,1,1,")
    assert len(lines) == 5


def test_make_genset_rejects_degenerate_input():
    entry = catalog_load("c2*c3")
    a = entry.alphabet["a"]
    from amalgrowth.amalgam import identity_nf
    with pytest.raises(GenSetError):
        make_genset(entry.spec, [("a", a), ("a", a)])
    with pytest.raises(GenSetError):
        make_genset(entry.spec, [("x", a), ("y", a)])
    with pytest.raises(GenSetError):
        make_genset(entry.spec, [("e", identity_nf(entry.spec))])
