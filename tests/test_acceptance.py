"""Acceptance suite.

One test per criterion. Each records a single pass/fail line in RESULTS,
which conftest.py prints in the terminal summary so the lines appear in the
test run output regardless of capture mode. All equalities are exact integer
comparisons.
"""
import itertools
import math
import time

from posetturan.constructions import (
    middle_two_levels,
    n_free_construction,
    p5_construction,
    p6_construction,
)
from posetturan.embedding import is_free
from posetturan.formulas import (
    butterfly_p2,
    chain_count_in_levels,
    n_free,
    p5,
    p6_lower,
)
from posetturan.lattice import count_k_chains, level_family
from posetturan.posets import (
    chain,
    m_poset,
    n_poset,
    named_poset,
    path_hasse_family,
    w_poset,
)
from posetturan.proofcheck import (
    p5_component_report,
    verify_chaincount,
    verify_coloring,
    verify_sublattice,
    verify_zigzag,
)
from posetturan.search import la_exact, la_levels, verify_witness
from test_formulas import balanced_parts

BFLY = named_poset("butterfly")
P2 = chain(2)


RESULTS = []


def _report(num, ok, note=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f"  ({note})"
    RESULTS.append(line)
    print(line)


def _run(num, note, checks):
    ok = all(checks)
    _report(num, ok, note)
    assert ok


def test_criterion_1_small_n_la_values():
    checks = []
    for n, forbidden, expect in (
        (3, [BFLY], 7),
        (3, [n_poset()], 3),
        (4, [n_poset()], 6),
        (4, [chain(3)], 12),
    ):
        start = time.monotonic()
        rep = la_exact(n, forbidden, P2)
        checks.append(rep.optimum == expect and rep.complete)
        checks.append(time.monotonic() - start < 10)
    rep = la_exact(2, [BFLY], P2)
    checks.append(rep.optimum == 5)
    checks.append(rep.witnesses == [(0, 1, 2, 3)])
    RESULTS.append(
        "criterion 1 note: exhaustive scan gives La(2, butterfly, #P2) = 5 with the "
        "full lattice as witness; the previously reported value 4 is an expected "
        "discrepancy"
    )
    _run(1, "small-n exact La values", checks)


def test_criterion_2_construction_formula_agreement():
    start = time.monotonic()
    checks = []
    for n in range(2, 15):
        checks.append(count_k_chains(middle_two_levels(n), 2) == butterfly_p2(n))
        checks.append(count_k_chains(n_free_construction(n), 2) == n_free(n))
        if n >= 4:
            checks.append(count_k_chains(p5_construction(n), 2) == p5(n))
        checks.append(count_k_chains(p6_construction(n), 2) == p6_lower(n))
    checks.append(time.monotonic() - start < 5)
    _run(2, "construction/formula agreement, n = 2..14", checks)


def test_criterion_3_construction_freeness():
    start = time.monotonic()
    checks = []
    for n in range(2, 11):
        checks.append(is_free(middle_two_levels(n), [BFLY]))
        checks.append(is_free(n_free_construction(n), [n_poset()]))
        checks.append(is_free(p6_construction(n), [w_poset(), m_poset()]))
    for n in range(4, 10):
        checks.append(is_free(p5_construction(n), path_hasse_family(5)))
    for n in range(2, 9):
        checks.append(is_free(p6_construction(n), path_hasse_family(6)))
    checks.append(time.monotonic() - start < 60)
    _run(3, "constructions are free of their forbidden posets", checks)


def test_criterion_4_sublattice_lemma():
    start = time.monotonic()
    rep = verify_sublattice()
    _run(
        4,
        f"sublattice lemma, {rep.instances_checked} closed intervals",
        [rep.failures == 0, rep.instances_checked == 960, time.monotonic() - start < 30],
    )


def test_criterion_5_chaincount_lemma():
    start = time.monotonic()
    rep = verify_chaincount(seed=0)
    _run(
        5,
        f"chain-count lower bound, {rep.instances_checked} families",
        [rep.failures == 0, rep.instances_checked == 3516, time.monotonic() - start < 60],
    )


def test_criterion_6_coloring_machinery():
    rep = verify_coloring(seed=0)
    _run(
        6,
        f"coloring machinery, {rep.instances_checked} colorings",
        [rep.failures == 0, rep.instances_checked == 1268],
    )


def test_criterion_7_zigzag_and_path_families():
    rep = verify_zigzag(seed=0)
    checks = [rep.failures == 0, rep.instances_checked >= 10000]
    checks.append(len(path_hasse_family(4)) == 4)
    h2 = [p for p in path_hasse_family(4) if p.height() == 2]
    checks.append(len(h2) == 1 and h2[0].canonical_key() == n_poset().canonical_key())
    h2 = [p for p in path_hasse_family(5) if p.height() == 2]
    checks.append(len(h2) == 2)
    checks.append(any(p.canonical_key() == w_poset().canonical_key() for p in h2))
    checks.append(any(p.canonical_key() == m_poset().canonical_key() for p in h2))
    _run(7, f"zigzag lemma ({rep.instances_checked} sequences) and path families", checks)


def test_criterion_8_level_formula_cross_check():
    checks = []
    for n in range(1, 9):
        for r in range(n + 2):
            for tup in itertools.combinations(range(n + 1), r):
                fam = level_family(n, tup)
                for ell in (1, 2, 3):
                    checks.append(
                        chain_count_in_levels(n, ell, tup) == count_k_chains(fam, ell)
                    )
    rep = la_levels(4, [chain(3)], chain(2))
    checks.append(rep.optimum == 12)
    checks.append(any(balanced_parts(4, tup) for tup in rep.params["levels"]))
    checks.append(all(chain_count_in_levels(4, 2, tup) == 12 for tup in rep.params["levels"]))
    _run(8, "level-union chain formula vs enumeration, n <= 8", checks)


def test_criterion_9_lower_bound_witnesses_and_diagnostics():
    # Asymptotic upper bounds are out of reach at this scale; what is checked
    # here is that each construction certifies the matching lower bound and
    # that the per-component diagnostics run clean on the P5 construction.
    checks = []
    for n in (6, 8, 10):
        chk = verify_witness(middle_two_levels(n), [BFLY], P2)
        checks.append(chk.free and chk.copies == butterfly_p2(n))
        chk = verify_witness(n_free_construction(n), [n_poset()], P2)
        checks.append(chk.free and chk.copies == n_free(n))
        chk = verify_witness(p5_construction(n), path_hasse_family(5), P2)
        checks.append(chk.free and chk.copies == p5(n))
        chk = verify_witness(p6_construction(n), [w_poset(), m_poset()], P2)
        checks.append(chk.free and chk.copies == p6_lower(n))
    reports = p5_component_report(p5_construction(6))
    checks.append(len(reports) == math.comb(4, 2))
    checks.append(all(r.ratio >= 1 and not r.below_threshold for r in reports))
    _run(9, "lower-bound witness certificates and component diagnostics", checks)
