"""The exact search at n = 4 against ``oracle_n4``, which shares no code with it.

Tier-1 runs the five paper problems with Q = P2, a spread of other Q and a
few random forbidden lists, and checks the n = 4 rows of the table
``results/la_small.jsonl`` against the same oracle values;
``python tests/oracle_n4.py`` runs all 112 catalog cases and a fixed batch of
random lists.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_n4 import QS, la_n4, random_case, supports
from posetturan.posets import chain, kst, m_poset, n_poset, named_poset, path_hasse_family, w_poset
from posetturan.search import _request, la_exact
from test_embedding import catalog_posets
from test_results import table_rows

TESTS = Path(__file__).resolve().parent
BFLY = named_poset("butterfly")

# (forbidden list, Q, the number of optimal families of 2^[4], where pinned)
CASES = {
    "N": ([n_poset()], "P2", 30),
    "butterfly": ([BFLY], "P2", 6),
    "chain(3)": ([chain(3)], "P2", 3),
    "W,M": ([w_poset(), m_poset()], "P2", None),
    "pathfamily(5)": (path_hasse_family(5), "P2", None),
    "kst(2,3)#P3": ([kst(2, 3)], "P3", 6),
    "butterfly#N": ([BFLY], "N", 8),
    "diamond#K12": ([named_poset("diamond")], "K12", None),
    "N#N": ([n_poset()], "N", None),
    "chain(4)#P3": ([chain(4)], "P3", None),
    "chain(3)#K12": ([chain(3)], "K12", 1),
    "butterfly#P3": ([BFLY], "P3", 1),
    # duality-closed lists: a mixed one, and one with a Q that is not self-dual
    "K12,K21,butterfly": ([kst(1, 2), kst(2, 1), BFLY], "P2", None),
    "W,M#K12": ([w_poset(), m_poset()], "K12", None),
}
CATALOG = catalog_posets(5)


def _key(params):
    return json.dumps(params, sort_keys=True)


# the table's n = 4 rows by their params; each is one of the cases above
TABLE_N4 = {_key(row["params"]): row for row in table_rows() if row["params"]["n"] == 4}


@pytest.mark.parametrize("forbidden, q, optimal_families", CASES.values(), ids=CASES)
def test_la_exact_matches_the_oracle(forbidden, q, optimal_families):
    value, families = la_n4(forbidden, QS[q])
    assert la_exact(4, forbidden, QS[q]).optimum == value
    row = TABLE_N4.get(_key(_request(4, forbidden, QS[q], None)))
    if row is not None:
        assert row["optimum"] == value
    if optimal_families is not None:
        assert families == optimal_families


@settings(max_examples=8, deadline=None)
@given(st.randoms(use_true_random=False))
def test_la_exact_matches_the_oracle_on_random_lists(rng):
    forbidden, q = random_case(rng, CATALOG)
    assert la_exact(4, forbidden, q).optimum == la_n4(forbidden, q)[0]


def test_each_n4_row_of_the_table_is_a_case():
    cases = {_key(_request(4, forbidden, QS[q], None)) for forbidden, q, _ in CASES.values()}
    assert len(TABLE_N4) == 8 and set(TABLE_N4) <= cases


def test_supports_of_small_posets():
    # a 2-chain is a strict containment pair of 2^[4]: 3^4 - 2^4 of them
    assert len(supports(chain(2))) == 65
    assert len(supports(chain(1))) == 16
    # the only copy of chain(5) in 2^[4] is a full chain: 4! of them
    assert len(supports(chain(5))) == 24


# Run in a fresh interpreter without site: the posetturan modules that
# importing the oracle loads; posets loads lattice for its size cap alone
ORACLE_PROBE = """
import json, sys
import oracle_n4
print(json.dumps(sorted(name for name in sys.modules if name.startswith("posetturan"))))
"""


def test_oracle_loads_no_search_code():
    src = TESTS.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", ORACLE_PROBE],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS), str(src)])),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["posetturan", "posetturan.lattice", "posetturan.posets"]
