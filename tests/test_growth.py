import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgrowth.amalgam import identity_nf, invert, multiply
from amalgrowth.catalog import catalog_load, catalog_names, parse_word
from amalgrowth.growth import (
    DEFAULT_BUDGET,
    GenSetError,
    _levels,
    _named_letters,
    _shortlex_moves,
    enumerate_balls,
    growth_table_csv,
    make_genset,
    rate_estimates,
    shortest_word,
    sphere_stream,
    word_length,
)
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


def test_sphere_stream_matches_enumerate_balls():
    entry = catalog_load("pgl2z")
    for budget in (DEFAULT_BUDGET, 500):
        table = enumerate_balls(entry.spec, entry.default_genset, 20, budget=budget)
        stream = sphere_stream(entry.spec, entry.default_genset, budget=budget)
        got = tuple(itertools.islice(stream, table.nmax + 1))
        assert got == table.sphere
        # the stream stops exactly where the table was truncated
        assert table.truncated == (next(stream, None) is None)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(catalog_names()), seed=st.integers(0, 2 ** 32 - 1),
       inverses=st.booleans(), budget=st.sampled_from([None, 500, 5000]))
def test_levels_match_the_reference_bfs(name, seed, inverses, budget):
    # criterion 7's random generating sets; with inverses the letters are
    # closed under inversion and the engine keeps three spheres, without
    # them it keeps every element it has seen
    entry = catalog_load(name)
    rng = random.Random(seed)
    gens = None
    while gens is None:
        gens = _random_genset(entry, rng)
    letters = [g for _, g in _named_letters(entry.spec, gens, inverses)]
    nmax = 8
    # spheres carry no order: they are compared as sets, each element once
    got = list(itertools.islice(_levels(entry.spec, letters, budget), nmax + 1))
    assert _same_spheres(entry.spec, got,
                         _reference_spheres(entry.spec, letters, nmax, budget))


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


def test_deep_ball_fits_in_200_mb():
    # c2*c3 {a, ba} to radius 25 keeps about 650,000 elements (three spheres)
    # in the seen set; one packed int each fits a 200 MB address space, where
    # tuples of syllable codes needed over 300 MB
    code = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))
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
    assert word_length(entry.spec, entry.default_genset, g, 12) == length
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
    ("c2*c3", "b^-1 a b^-1", 12, False, ["b", "a", "b", "b", "a", "b", "a"]),
    ("c2*c3", "b^-1 a b^-1", 6, False, None),
])
def test_shortest_word_pinned(name, text, nmax, inverses, expected):
    # the first geodesic in discovery order, pinned from the parent-pointer
    # search this engine replaced
    entry = catalog_load(name)
    res = shortest_word(entry.spec, entry.default_genset,
                        parse_word(entry, text), nmax, include_inverses=inverses)
    assert res == (None if expected is None else (len(expected), expected))


def _shortlex_words(spec, letters, nmax):
    """(word, value) for every word of length <= nmax over the letter
    indices, by length then letter order, each evaluated with multiply."""
    level = [((), identity_nf(spec))]
    for n in range(nmax + 1):
        yield from level
        if n < nmax:
            level = [(w + (k,), multiply(spec, g, l))
                     for w, g in level for k, l in enumerate(letters)]


@pytest.mark.parametrize("inverses", [True, False])
@pytest.mark.parametrize("name", catalog_names())
def test_shortest_word_is_the_first_word_in_shortlex_order(name, inverses):
    # brute-force oracle: the first word over the letters, by length then
    # letter order, that multiply evaluates to g
    entry = catalog_load(name)
    spec = entry.spec
    named = _named_letters(spec, entry.default_genset, inverses)
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
        assert shortest_word(spec, entry.default_genset, g, nmax,
                             include_inverses=inverses) == (
            None if want is None else (len(want), [named[k][0] for k in want]))


def _assert_accepts_shortlex_least_words(spec, letters, nmax=5):
    # a word is accepted when each letter is allowed after the state the
    # word before it reached
    moves = [dict(row) for row in _shortlex_moves(spec, letters)]
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
    _assert_accepts_shortlex_least_words(entry.spec, [
        g for _, g in _named_letters(entry.spec, entry.default_genset, inverses)])


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(catalog_names()), seed=st.integers(0, 2 ** 32 - 1),
       inverses=st.booleans())
def test_state_table_accepts_shortlex_least_words_of_random_sets(name, seed, inverses):
    entry = catalog_load(name)
    rng = random.Random(seed)
    gens = None
    while gens is None:
        gens = _random_genset(entry, rng)
    _assert_accepts_shortlex_least_words(entry.spec, [
        g for _, g in _named_letters(entry.spec, gens, inverses)])


def test_word_length_identity_and_out_of_range():
    entry = catalog_load("c2*c3")
    from amalgrowth.amalgam import identity_nf
    assert word_length(entry.spec, entry.default_genset,
                       identity_nf(entry.spec), 3) == 0
    far = parse_word(entry, " ".join(["a b"] * 10))
    assert word_length(entry.spec, entry.default_genset, far, 2) is None


def test_rate_estimates_bounds():
    entry = catalog_load("c2*c3")
    table = enumerate_balls(entry.spec, entry.default_genset, 16)
    est = rate_estimates(table)
    assert est.reliable
    # ball[n]^(1/n) is an upper bound on the true rate (golden ratio here)
    assert all(r >= 1.6180339887 for r in est.root_sequence)
    assert est.root_estimate == est.root_sequence[-1]


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
