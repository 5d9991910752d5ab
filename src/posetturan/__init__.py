"""Workbench for generalized Turan problems on posets in the Boolean lattice.

The names of the lemma checker, ``posetturan.proofcheck`` (``Coloring``,
``color_family``, ``zigzag_find_WM`` and the rest of ``_PROOFCHECK_NAMES``),
are served lazily: the module ``__getattr__`` below imports ``proofcheck`` the
first time one of them is read and returns that module's object. Importing the
package, and every CLI command but ``verify``, leaves ``proofcheck`` unloaded.
"""

from .lattice import (
    ComparabilityComponents,
    SetFamily,
    chains_meeting,
    comparability_components,
    complement_family,
    containment_pairs,
    convex_hull,
    count_k_chains,
    full_lattice,
    interval_family,
    level_family,
)
from .posets import (
    Poset,
    PosetError,
    dual_poset,
    named_poset,
    path_hasse_family,
    poset_from_relations,
    poset_isomorphic,
)
from .embedding import (
    EmbeddingWitness,
    count_copies,
    find_embedding,
    is_free,
)
from .constructions import (
    middle_two_levels,
    n_free_construction,
    p5_construction,
    p6_construction,
)
from .formulas import chain_count_in_levels, closed_formula
from .search import SearchReport, cached_la_exact, la_exact, la_levels, verify_witness
from .dsl import parse_poset_dsl, parse_single_poset, poset_to_dsl
from .familyio import format_family, parse_family, read_family

__version__ = "0.1.0"

_PROOFCHECK_NAMES = frozenset({
    "Coloring",
    "check_one_critical_pair_per_chain",
    "classify_nfree_components",
    "color_family",
    "erdos_gallai_check",
    "p5_component_report",
    "zigzag_find_WM",
})


def __getattr__(name):
    # PEP 562: called only for names the package namespace does not hold
    if name in _PROOFCHECK_NAMES:
        from . import proofcheck

        return getattr(proofcheck, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
