import hashlib
import json
import subprocess
import sys
import textwrap

import pytest
from test_growth import _child_env

from amalgrowth import cli
from amalgrowth.amalgam import is_identity, make_genset, multiply
from amalgrowth import catalog
from amalgrowth.catalog import (
    UnknownEntryError,
    catalog_load,
    catalog_names,
    parse_word,
)
from amalgrowth.growth import enumerate_balls, shortest_word
from amalgrowth.pingpong import nf_to_json
from amalgrowth.verify import plastic_enumerate, plastic_eval, plastic_forms


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
    form = _rewrite_letters("".join(word))
    assert form in plastic_forms(len(form))
    assert plastic_eval(entry, form) == g
    assert len(form) == length
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


# entry: (alphabet, default generating set), each letter as (name,
# syllables, head) of its `nf_to_json`, in order
PINNED_LETTERS = {
    "c2*c2": ([("a", [[0, 1]], 0), ("b", [[1, 1]], 0)],
              [("a", [[0, 1]], 0), ("b", [[1, 1]], 0)]),
    "c2*c3": ([("a", [[0, 1]], 0), ("b", [[1, 1]], 0)],
              [("a", [[0, 1]], 0), ("b", [[1, 1], [0, 1]], 0)]),
    "c2*c4": ([("a", [[0, 1]], 0), ("b", [[1, 1]], 0)],
              [("a", [[0, 1]], 0), ("b", [[1, 1]], 0)]),
    "c2*c5": ([("a", [[0, 1]], 0), ("b", [[1, 1]], 0)],
              [("a", [[0, 1]], 0), ("b", [[1, 1]], 0)]),
    "c2*c2xc2": (
        [("a", [[0, 1]], 0), ("b", [[1, 2]], 0), ("c", [[1, 1]], 0)],
        [("a", [[0, 1]], 0), ("b", [[1, 2]], 0), ("c", [[1, 1]], 0)]),
    "pgl2z": ([("a", [], 1), ("b", [[0, 1]], 0), ("c", [[1, 2]], 1)],
              [("a", [], 1), ("b", [[0, 1]], 0), ("c", [[1, 2]], 1)]),
    "gl2z": ([("a", [[0, 1]], 3), ("b", [], 1), ("c", [[1, 2]], 3),
              ("d", [], 1)],
             [("a", [[0, 1]], 3), ("b", [], 1), ("c", [[1, 2]], 3)]),
}


def test_alphabets_and_default_gensets_are_pinned():
    assert list(PINNED_LETTERS) == catalog_names()
    for name, (alphabet, gens) in PINNED_LETTERS.items():
        entry = catalog_load(name)
        for letters, pinned in ((entry.alphabet, alphabet),
                                (entry.default_genset.alphabet(), gens)):
            assert [(n, nf_to_json(g)) for n, g in letters.items()] == [
                (n, {"syllables": syl, "head": head})
                for n, syl, head in pinned], name


def test_every_row_is_json_data():
    for row in catalog._ROWS.values():
        json.dumps(row)  # TypeError on anything but JSON data


def test_catalog_listing_is_pinned(capsys):
    assert cli.main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c89919b4e6af0edbde3d752ce5b4a7907436fa62371b737607ebb9ae023abbe8")


def test_import_builds_no_group_and_a_load_only_its_own():
    code = textwrap.dedent("""
        import json, sys
        calls = []
        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.endswith("groups.py"):
                calls.append([code.co_name, frame.f_locals.get("n")])
        sys.setprofile(profile)
        import amalgrowth.catalog
        on_import = list(calls)
        calls.clear()
        amalgrowth.catalog.catalog_load("c2*c3")
        sys.setprofile(None)
        print(json.dumps([on_import, calls]))
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    on_import, on_load = json.loads(proc.stdout)
    constructors = {"cyclic", "dihedral", "direct_product", "from_table",
                    "build_group", "_make"}
    # the hook sees groups.py run, and no constructor runs with it
    assert ["<module>", None] in on_import
    assert not constructors & {name for name, _ in on_import}
    # c2*c3 builds C2, C3 and the trivial group, and nothing else
    assert sorted(n for name, n in on_load if name == "cyclic") == [1, 2, 3]
    assert not {"dihedral", "direct_product"} & {name for name, _ in on_load}


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
            if len(form) != n:
                continue
            k = plastic_eval(entry, form).key()
            assert k not in seen, (form, seen[k])
            seen[k] = form


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
    assert plastic_normal_form(entry, lhs) == "aca"


def test_plastic_enumerate_checks_survive_optimisation():
    # with every form evaluating to one element, the uniqueness check must
    # raise under python -O too, which strips assert statements
    code = textwrap.dedent("""
        from amalgrowth import verify
        verify.plastic_eval = lambda entry, form: verify.identity_nf(
            entry.spec)
        try:
            verify.plastic_enumerate(3)
        except AssertionError as exc:
            print(exc)
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "forms '' and 'c' collide\n"


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
