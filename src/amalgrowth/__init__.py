"""Exact workbench for exponential growth rates of free and amalgamated
products of finite groups: normal-form arithmetic, Cayley-ball enumeration,
exact recurrence and root machinery, tree actions with replayable ping-pong
certificates, and a catalog of ready-made specifications."""

__version__ = "0.1.0"

import importlib
import types

from .amalgam import (
    AmalgamSpec,
    GenSet,
    NormalForm,
    Word,
    cyclic_reduce,
    identity_nf,
    invert,
    is_identity,
    make_amalgam,
    make_genset,
    multiply,
    reduce_word,
)
from .catalog import catalog_load, catalog_names, parse_word
from .groups import FiniteGroup, build_group, cyclic, dihedral, direct_product

# the other layers load on first access to one of their names (PEP 562): a
# caller that counts balls never compiles the tree or certificate code, and
# one that only loads the catalog compiles none of them
_LAZY = {
    **dict.fromkeys(("GrowthTable", "enumerate_balls", "rate", "shortest_word"),
                    "growth"),
    **dict.fromkeys(("PingPongCertificate", "certify_free_monoid",
                     "certify_free_split", "nf_from_json", "nf_to_json",
                     "replay"), "pingpong"),
    **dict.fromkeys(("FittedRate", "Recurrence", "RootEnclosure",
                     "WeightedAlphabet", "count_avoiding", "dominant_root",
                     "fit_rate", "fit_recurrence", "largest_positive_root",
                     "lpv_bound", "positive_root_from_lengths"), "spectral"),
    **dict.fromkeys(("TreeVertex", "axis_segment", "classify", "fixed_set"),
                    "tree"),
}

# the names imported above and the lazy ones; not the submodules themselves
__all__ = sorted({"__version__", *_LAZY, *(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType))})


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _LAZY[name], __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
