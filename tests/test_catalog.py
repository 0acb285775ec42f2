import pytest

from amalgrowth.amalgam import is_identity, make_genset, multiply
from amalgrowth.catalog import (
    PlasticFormError,
    UnknownEntryError,
    catalog_load,
    catalog_names,
    make_plastic,
    parse_word,
    plastic_enumerate,
    plastic_eval,
    plastic_forms,
)
from amalgrowth.growth import enumerate_balls, shortest_word


def _rewrite_letters(s: str) -> str:
    """Confluent passes to the letter-minimal shape: cancel doubled letters,
    order the commuting pair as ab, and flatten c-a-c sandwiches to a-c-a.
    Terminates because (#c, length, #ba-inversions) drops lexicographically.
    """
    changed = True
    while changed:
        changed = False
        for pat, rep in (("aa", ""), ("bb", ""), ("cc", ""),
                         ("cac", "aca"), ("ba", "ab")):
            i = s.find(pat)
            if i >= 0:
                s = s[:i] + rep + s[i + len(pat):]
                changed = True
                break
    return s


def plastic_normal_form(entry, g):
    """Oracle: the letter-minimal form of g, from a shortest word over
    {a, b, c}; evaluating it reproduces g and its length is g's word
    length."""
    gens = make_genset(entry.spec,
                       [(n, entry.alphabet[n]) for n in ("a", "b", "c")])
    length, word = shortest_word(entry.spec, gens, g, 3 * len(g.syllables) + 4)
    form = make_plastic(tuple(_rewrite_letters("".join(word)).split("c")))
    assert plastic_eval(entry, form) == g
    assert form.length() == length
    return form


def test_catalog_names_and_load():
    names = catalog_names()
    assert "c2*c3" in names and "pgl2z" in names and "gl2z" in names
    for name in names:
        entry = catalog_load(name)
        assert entry.name == name
        assert entry.default_genset.names
    with pytest.raises(UnknownEntryError):
        catalog_load("nope")


def test_entries_have_valid_amalgams():
    for name in catalog_names():
        entry = catalog_load(name)
        spec = entry.spec
        # embedded subgroup orders divide both factor orders
        assert spec.A.order % spec.C.order == 0
        assert spec.B.order % spec.C.order == 0
        for g in entry.alphabet.values():
            assert not is_identity(spec, g)


def test_free_product_entries_have_trivial_edge_group():
    for name in ("c2*c2", "c2*c3", "c2*c4", "c2*c5", "c2*c2xc2"):
        assert catalog_load(name).spec.C.order == 1


def test_pgl2z_edge_group():
    entry = catalog_load("pgl2z")
    assert (entry.spec.A.order, entry.spec.B.order, entry.spec.C.order) \
        == (4, 6, 2)
    assert entry.spec.branching


def test_gl2z_edge_group():
    entry = catalog_load("gl2z")
    assert (entry.spec.A.order, entry.spec.B.order, entry.spec.C.order) \
        == (8, 12, 4)


def test_plastic_forms_counts():
    counts = plastic_enumerate(12)
    # segment-count recurrence C(n) = C(n-2) + C(n-3)
    for n in range(4, 13):
        assert counts.c[n] == counts.c[n - 2] + counts.c[n - 3]
    # aggregate recurrence W(n) = W(n-2) + W(n-3)
    for n in range(5, 13):
        assert counts.w[n] == counts.w[n - 2] + counts.w[n - 3]
    # sphere relation with doubled middle term
    for n in range(3, 13):
        assert counts.w[n] == counts.c[n] + 2 * counts.c[n - 1] + counts.c[n - 2]


def test_plastic_forms_match_ball_enumeration():
    entry = catalog_load("pgl2z")
    table = enumerate_balls(entry.spec, entry.default_genset, 12)
    counts = plastic_enumerate(12)
    assert list(table.sphere) == list(counts.w[:13])


def test_plastic_forms_evaluate_injectively():
    entry = catalog_load("pgl2z")
    seen = {}
    for n in range(9):
        for form in plastic_forms(n):
            if form.length() != n:
                continue
            k = plastic_eval(entry, form).key()
            assert k not in seen, (form, seen[k])
            seen[k] = form


def test_plastic_form_validation():
    make_plastic(("a", "b", "a"))  # U c M c V
    with pytest.raises(PlasticFormError):
        make_plastic(("a", "a", "a"))  # middle segment must be b or ab
    with pytest.raises(PlasticFormError):
        make_plastic(("ba",))  # not an admissible segment


def test_plastic_normal_form_round_trip():
    entry = catalog_load("pgl2z")
    words = ["a", "b", "c", "a b", "c a c", "b c a b c", "a c b a c",
             "c b c a", "a b c a b c a b"]
    for w in words:
        g = parse_word(entry, w)
        form = plastic_normal_form(entry, g)
        assert plastic_eval(entry, form) == g


def test_plastic_normal_form_rewrites():
    entry = catalog_load("pgl2z")
    # c a c = a c a in the group
    lhs = parse_word(entry, "c a c")
    rhs = parse_word(entry, "a c a")
    assert lhs == rhs
    assert plastic_normal_form(entry, lhs).letters() == "aca"


def test_expected_metadata_is_well_formed():
    for name in catalog_names():
        for item in catalog_load(name).expected:
            assert "quantity" in item and "basis" in item
            assert "value" in item or "polynomial" in item


def test_parse_word():
    entry = catalog_load("c2*c3")
    g = parse_word(entry, "a b a b^-1")
    h = multiply(entry.spec, parse_word(entry, "a b a"),
                 parse_word(entry, "b^-1"))
    assert g == h
    assert is_identity(entry.spec, parse_word(entry, ""))
