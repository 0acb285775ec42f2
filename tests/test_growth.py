import itertools

import pytest

from amalgrowth.catalog import catalog_load, parse_word
from amalgrowth.growth import (
    DEFAULT_BUDGET,
    GenSetError,
    enumerate_balls,
    growth_table_csv,
    make_genset,
    rate_estimates,
    shortest_word,
    sphere_stream,
    word_length,
)


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
