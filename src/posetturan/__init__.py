"""Workbench for generalized Turan problems on posets in the Boolean lattice.

Every public name is served lazily from one table, ``_HOMES``, which maps it
to the submodule that defines it. The module ``__getattr__`` below (PEP 562)
imports that submodule the first time the name is read, keeps the object in
the package namespace and returns it. ``__dir__`` and ``__all__`` list the
same table, less the lemma checker's names (``Coloring``, ``color_family``
and the rest of ``posetturan.proofcheck``): those are served but not listed,
so ``from posetturan import *`` leaves ``proofcheck`` unloaded.
``import posetturan`` loads no submodule, and each CLI command loads only
the modules it runs (see ``posetturan.cli``).
"""

__version__ = "0.1.0"

# public name -> its home submodule; a submodule's own name maps to itself
# (all of them but proofcheck, whose names alone are served)
_HOMES = {
    name: module
    for module, names in {
        "lattice": (
            "lattice SetFamily chains_meeting comparability_components convex_hull"
            " count_k_chains interval_family level_family"
        ),
        "posets": (
            "posets Poset PosetError dual_poset named_poset path_hasse_family"
            " poset_from_relations"
        ),
        "embedding": "embedding EmbeddingWitness count_copies find_embedding is_free",
        "constructions": (
            "constructions middle_two_levels n_free_construction p5_construction p6_construction"
        ),
        "formulas": "formulas chain_count_in_levels closed_formula",
        "search": "search SearchReport cached_la_exact la_exact la_levels verify_witness",
        "dsl": "dsl parse_poset_dsl parse_single_poset",
        "familyio": "familyio format_family parse_family read_family",
        "proofcheck": (
            "Coloring check_one_critical_pair_per_chain classify_nfree_components color_family"
            " erdos_gallai_check p5_component_report zigzag_find_WM"
        ),
    }.items()
    for name in names.split()
}

__all__ = [name for name, home in _HOMES.items() if home != "proofcheck"]


def __getattr__(name):
    # PEP 562: called only for names the package namespace does not hold yet
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
