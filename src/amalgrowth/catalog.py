"""Built-in named amalgam specifications with documented expected quantities,
one row of data per entry read by `catalog_load`.  The oracles that check the
documented quantities live in `verify`.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .amalgam import (
    SIDE_A,
    SIDE_B,
    AmalgamSpec,
    GenSet,
    NormalForm,
    Word,
    factor_nf,
    make_amalgam,
    make_genset,
    reduce_word,
)
from .groups import build_group, verify_embedding


class CatalogEntry(NamedTuple):
    name: str
    spec: AmalgamSpec
    # canonical letters for parsing words on the command line; may contain
    # aliases (distinct names for one element), unlike the generating set
    alphabet: dict[str, NormalForm]
    default_genset: GenSet
    description: str
    # documented quantities: each has a "quantity", a value or polynomial
    # (ascending coefficients), and the basis on which it is recorded
    expected: tuple[dict, ...]


class UnknownEntryError(KeyError):
    pass


GOLDEN_POLY = (-1, -1, 1)          # z^2 - z - 1
PLASTIC_POLY = (-1, -1, 0, 1)      # z^3 - z - 1

_C1 = {"family": "cyclic", "n": 1}
_C2 = {"family": "cyclic", "n": 2}
_V4 = {"family": "product", "left": _C2, "right": _C2}
_GOLDEN = (
    {"quantity": "sphere_char_poly", "polynomial": GOLDEN_POLY,
     "basis": "independent enumeration"},
    {"quantity": "growth_rate", "value": (1 + 5 ** 0.5) / 2,
     "basis": "positive root of z^2-z-1"},
)
# C2 * B over the trivial group, with a and b the factors' generators
_FREE = {"A": _C2, "C": _C1, "embA": [0], "embB": [0],
         "alphabet": {"a": [SIDE_A, 1], "b": [SIDE_B, 1]},
         "generators": {"a": "a", "b": "b"}}

# One JSON-compatible row per entry: the factors A and B and the edge group
# C as `build_group` descriptors, the images of C in A and in B, the
# alphabet as name -> (side, element of that factor), the default
# generators as words over the alphabet, and the documentation.
_ROWS = {
    "c2*c2": {
        **_FREE, "B": _C2,
        "description": "infinite dihedral group C2*C2; the excluded linear "
                       "case with ([A:C]-1)([B:C]-1) = 1",
        "expected": (
            {"quantity": "growth_rate", "value": 1,
             "basis": "sphere sizes are eventually constant"},
            {"quantity": "sphere_char_poly", "polynomial": (-1, 1),
             "basis": "independent enumeration"},
        ),
    },
    # the default generating set {a, ba} has rate phi (spheres 1, 3, 6, 10,
    # 16, 26, ...); the factor generators {a, b} give the smaller rate
    # sqrt(2) (spheres 1, 3, 4, 6, 8, 12, ...)
    "c2*c3": {
        **_FREE, "B": {"family": "cyclic", "n": 3},
        "generators": {"a": "a", "b": "b a"},
        "description": "C2*C3 with the generating set {a, ba} (rate phi)",
        "expected": _GOLDEN + (
            {"quantity": "factor_generator_rate", "value": 2 ** 0.5,
             "basis": "independent enumeration with {a, b}: z^2-2"},
        ),
    },
    "c2*c4": {
        **_FREE, "B": {"family": "cyclic", "n": 4},
        "description": "C2*C4 with factor generators",
        "expected": _GOLDEN,
    },
    "c2*c5": {
        **_FREE, "B": {"family": "cyclic", "n": 5},
        "description": "C2*C5 with factor generators",
        "expected": (
            {"quantity": "sphere_char_poly", "polynomial": (-2, -2, 0, 1),
             "basis": "independent enumeration"},
            {"quantity": "growth_rate", "value": 1.7692923542386314,
             "basis": "positive root of z^3-2z-2"},
        ),
    },
    "c2*c2xc2": {
        **_FREE, "B": _V4,
        "alphabet": {"a": [SIDE_A, 1], "b": [SIDE_B, 2], "c": [SIDE_B, 1]},
        "generators": {"a": "a", "b": "b", "c": "c"},
        "description": "C2*(C2xC2), generated entirely by involutions",
        "expected": _GOLDEN,
    },
    # (C2 x C2) amalgamated with D6 over C2, identifying a with the
    # reflection d; generators a, b (Klein factor) and c (reflection of D6)
    # satisfy a^2 = b^2 = c^2 = (ab)^2 = (ac)^3 = 1
    "pgl2z": {
        "A": _V4, "B": {"family": "dihedral", "order": 6}, "C": _C2,
        "embA": [0, 2], "embB": [0, 4],
        "alphabet": {"a": [SIDE_A, 2], "b": [SIDE_A, 1], "c": [SIDE_B, 3]},
        "generators": {"a": "a", "b": "b", "c": "c"},
        "description": "(C2xC2) amalgamated with D6 over C2; indices "
                       "[A:C]=2, [B:C]=3",
        "expected": (
            {"quantity": "sphere_char_poly", "polynomial": PLASTIC_POLY,
             "basis": "independent enumeration and the letter-minimal "
                      "form oracle"},
            {"quantity": "growth_rate", "value": 1.3247179572447460,
             "basis": "positive root of z^3-z-1"},
        ),
    },
    # D8 amalgamated with D12 over C2 x C2: the rotation square (ab)^2 of D8
    # is identified with the rotation cube (cd)^3 of D12, and the reflection
    # b with the reflection d (so b and d name the same element)
    "gl2z": {
        "A": {"family": "dihedral", "order": 8},
        "B": {"family": "dihedral", "order": 12}, "C": _V4,
        "embA": [0, 5, 2, 7], "embB": [0, 7, 3, 10],
        "alphabet": {"a": [SIDE_A, 4], "b": [SIDE_A, 5], "c": [SIDE_B, 6],
                     "d": [SIDE_B, 7]},
        "generators": {"a": "a", "b": "b", "c": "c"},
        "description": "D8 amalgamated with D12 over C2xC2; the alphabet "
                       "name d is an alias for b",
        "expected": (
            {"quantity": "minimal_growth_rate", "value": 1.3247179572447460,
             "basis": "documented transfer from the pgl2z entry; not an "
                      "enumeration target"},
        ),
    },
}


def catalog_names() -> list[str]:
    return list(_ROWS)


@lru_cache(maxsize=None)
def catalog_load(name: str) -> CatalogEntry:
    if name not in _ROWS:
        raise UnknownEntryError(
            f"unknown catalog entry {name!r}; available: "
            + ", ".join(catalog_names()))
    row = _ROWS[name]
    A, B, C = (build_group(row[k]) for k in "ABC")
    spec = make_amalgam(A, B, C, verify_embedding(C, A, row["embA"]),
                        verify_embedding(C, B, row["embB"]))
    alphabet = {n: factor_nf(spec, side, elem)
                for n, (side, elem) in row["alphabet"].items()}
    gens = make_genset(spec, [
        (n, reduce_word(spec, Word.parse(w), alphabet))
        for n, w in row["generators"].items()])
    return CatalogEntry(name, spec, alphabet, gens, row["description"],
                        row["expected"])


def parse_word(entry: CatalogEntry, text: str) -> NormalForm:
    """Reduce a whitespace-separated word over the entry's alphabet."""
    return reduce_word(entry.spec, Word.parse(text), entry.alphabet)
