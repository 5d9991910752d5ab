import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import posetturan
from posetturan import formulas

from posetturan.dsl import parse_poset_dsl, parse_single_poset
from posetturan.embedding import (
    completing_members,
    count_copies,
    embedding_using_member,
    is_free,
    minimal_posets,
)
from posetturan.lattice import (
    DimensionError,
    SetFamily,
    cached_lattice,
    chain_count,
    count_k_chains,
    iter_bits,
    level_family,
)
from posetturan.formulas import chain_count_in_levels
from posetturan.posets import (
    Poset,
    chain,
    dual_poset,
    kst,
    m_poset,
    n_poset,
    named_poset,
    path_hasse_family,
    poset_from_relations,
    w_poset,
)
from posetturan.search import (
    DEFAULT_WITNESS_CAP,
    MAX_LEVEL_GENERIC_N,
    SearchReport,
    _cache_lookup,
    _least_images,
    _permutation_tables,
    _request,
    _symmetry_group,
    cached_la_exact,
    la_exact,
    la_levels,
    verify_witness,
)
from test_embedding import (
    catalog_posets,
    propagation_reference,
    reference_count_copies,
    reference_count_through,
    using_member_reference,
)
from test_results import table_report

BFLY = named_poset("butterfly")
P2 = chain(2)


def brute_la(n, forbidden, q):
    """Exhaustive scan over all 2^(2^n) subfamilies.

    Returns the optimum and the DEFAULT_WITNESS_CAP lexicographically least
    optimal families, as sorted mask tuples.
    """
    best, optimal = -1, []
    for bits in range(1 << (1 << n)):
        fam = SetFamily(n, [m for m in range(1 << n) if bits >> m & 1])
        if is_free(fam, forbidden):
            value = reference_count_copies(fam, q)
            if value > best:
                best, optimal = value, []
            if value == best:
                optimal.append(fam.members)
    return best, sorted(optimal)[:DEFAULT_WITNESS_CAP]


def reference_la_exact(n, forbidden, q):
    """The optimum as la_exact found it before orbital branching, the
    incremental P2 bound and the degree filter: the differential reference.

    It branches on the masks in a static order, middle levels first, checks
    each inclusion with a pinned embedding search that tries every element, and
    recounts the bound of every excluding child over all of avail.
    """
    forbidden = list(forbidden)
    order = sorted(range(1 << n), key=lambda m: (abs(m.bit_count() - n / 2), m))
    universe = SetFamily(n, range(1 << n))
    def copies(avail):
        return reference_count_copies(universe, q, avail)
    best = -1

    def rec(pos, chosen, avail, bound):
        # bound: the copies of Q in avail, which is chosen plus order[pos:]
        nonlocal best
        if pos == len(order):
            best = max(best, bound)
            return
        if bound <= best:
            return
        x = order[pos]
        within = chosen | 1 << x
        if not any(using_member_reference(universe, p, x, within) is not None for p in forbidden):
            rec(pos + 1, within, avail, bound)
        rest = avail & ~(1 << x)
        rec(pos + 1, chosen, rest, copies(rest))

    full = (1 << (1 << n)) - 1
    rec(0, 0, full, copies(full))
    return best


def reference_root_pass(n, minimal):
    """la_exact's root pass as it was: the masks that host a poset of ``minimal``
    on their own, by one member-forced search per mask and poset."""
    universe = cached_lattice(n)
    return sum(1 << y for y in range(1 << n)
               if any(embedding_using_member(universe, p, y, 1 << y) is not None for p in minimal))


def test_root_pass_is_the_one_element_test():
    # an embedding is injective, so a single mask hosts a poset only when the
    # poset has one element: la_exact's root removes every mask or none
    posets = catalog_posets(5)
    assert chain(1) in posets
    for n in range(1, 6):
        full = (1 << (1 << n)) - 1
        for p in posets:
            minimal = minimal_posets([p])
            alone = full if any(m.size == 1 for m in minimal) else 0
            assert reference_root_pass(n, minimal) == alone, (n, p)
            # which the one search per poset at the empty set decides
            assert (embedding_using_member(cached_lattice(n), p, 0, 1) is not None) == (p.size == 1)


def reference_dive(n, minimal, avail):
    """The free family that la_exact's incumbent dive reaches from ``avail``:
    each step includes the undecided mask with the fewest members of avail
    comparable to it (the least on ties) and drops every undecided mask that
    would then complete a minimal poset, by one member-forced search each."""
    universe = cached_lattice(n)
    near = universe.comparable
    chosen = 0
    while avail & ~chosen:
        x = min(iter_bits(avail & ~chosen), key=lambda y: (avail & near[y]).bit_count())
        chosen |= 1 << x
        for y in iter_bits(avail & ~chosen):
            if any(using_member_reference(universe, p, y, chosen | 1 << y) is not None for p in minimal):
                avail ^= 1 << y
    return chosen


def recursive_la_exact(n, forbidden, q, budget=None, seeded=True):
    """la_exact as a recursive closure over a shared state dict: the reference
    for the node loop, budgeted runs included.

    The include child recurses before the exclude child, and each child drops
    its removed masks from avail, and their copies from the bound, before it
    is entered. The bound is counted, not kept as a bitset of copies: each
    removed mask subtracts ``reference_count_through``. The include child
    keeps the symmetries that fix x and map its removed masks onto
    themselves; la_exact keeps those that fix x, which is the same list.
    ``seeded`` starts the best value at the copies of Q in ``reference_dive``'s
    family, which is the witness if no leaf is reached; without it the search
    starts from -1 and no family, as la_exact did before its dive.
    """
    forbidden = list(forbidden)
    universe = cached_lattice(n)
    near = universe.comparable
    group = _symmetry_group(n, forbidden, q)
    minimal = minimal_posets(forbidden)
    full = (1 << (1 << n)) - 1
    root = full ^ reference_root_pass(n, minimal)
    seeds = [reference_dive(n, minimal, root)] if seeded else []
    best = reference_count_copies(universe, q, seeds[0]) if seeds else -1

    state = {"nodes": 0, "complete": True, "best": best, "leaves": []}

    def drop(avail, bound, masks):
        for y in iter_bits(masks):
            bound -= reference_count_through(universe, q, avail, y)
            avail ^= 1 << y
        return avail, bound

    def rec(chosen, avail, bound, h):
        if budget is not None and state["nodes"] >= budget:
            state["complete"] = False
            return
        state["nodes"] += 1
        if bound < state["best"]:
            return
        free = avail & ~chosen
        if not free:
            if bound > state["best"]:
                state["best"], state["leaves"] = bound, []
            state["leaves"].append(chosen)
            return
        x = max(iter_bits(free), key=lambda y: (avail & near[y]).bit_count())
        included = chosen | 1 << x
        dead = 0
        for p in minimal:
            dead |= completing_members(universe, p, x, included, (free ^ 1 << x) & ~dead)
        dead_masks = tuple(iter_bits(dead))
        stabiliser = [g for g in h if g[x] == x and all(dead >> g[d] & 1 for d in dead_masks)]
        rec(included, *drop(avail, bound, dead), stabiliser)
        orbit = 0
        for g in h:
            orbit |= 1 << g[x]
        rec(chosen, *drop(avail, bound, orbit), h)

    avail, bound = drop(full, count_copies(universe, q), full ^ root)
    rec(0, avail, bound, group)
    del rec
    return SearchReport(
        optimum=state["best"],
        witnesses=_least_images(state["leaves"] or seeds, group),
        nodes_explored=state["nodes"],
        complete=state["complete"],
        params=_request(n, forbidden, q, budget),
    )


def reference_cache_lookup(path, params):
    """search._cache_lookup as it was before the bytes search.

    The whole file is decoded as text and tested line by line; the last
    valid line wins.
    """
    if not os.path.exists(path):
        return None
    needle = '"params": ' + json.dumps(params, sort_keys=True)
    entry = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if needle not in line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if (
                isinstance(rec, dict)
                and rec.keys() == {"optimum", "witnesses", "nodes_explored", "complete", "params"}
                and rec["params"] == params
            ):
                entry = rec
    return entry


class TestLaExact:
    def test_butterfly_n3(self):
        rep = la_exact(3, [BFLY], P2)
        assert rep.optimum == 7 and rep.complete

    def test_n_poset_n3(self):
        rep = la_exact(3, [n_poset()], P2)
        assert rep.optimum == 3
        assert (0, 1, 2, 4) in rep.witnesses

    def test_n_poset_n4(self):
        assert la_exact(4, [n_poset()], P2).optimum == 6

    def test_chain3_n4(self):
        assert la_exact(4, [chain(3)], P2).optimum == 12

    def test_butterfly_n2_full_lattice(self):
        rep = la_exact(2, [BFLY], P2)
        assert rep.optimum == 5
        assert rep.witnesses == [(0, 1, 2, 3)]

    def test_witnesses_are_valid(self):
        rep = la_exact(3, [BFLY], P2)
        for w in rep.witnesses:
            chk = verify_witness(SetFamily(3, w), [BFLY], P2)
            assert chk.free and chk.copies == rep.optimum

    @pytest.mark.parametrize("n", (2, 3))
    def test_matches_exhaustive_scan(self, n):
        for forbidden in ([BFLY], [n_poset()], [chain(3)]):
            assert la_exact(n, forbidden, P2).optimum == brute_la(n, forbidden, P2)[0]

    def test_n5_requires_budget(self):
        # n = 5 and 6 no longer need one; n = 7 is refused with or without
        with pytest.raises(DimensionError, match="^exact search n=7 outside supported range 1..6$"):
            la_exact(7, [BFLY], P2)

    def test_n5_without_budget_completes(self):
        rep = la_exact(5, [chain(3)], P2)
        assert rep.complete and rep.optimum == 30

    def test_n5_budget_exhaustion_flagged(self):
        rep = la_exact(5, [BFLY], P2, budget=200)
        assert not rep.complete

    def test_n_too_large(self):
        with pytest.raises(ValueError):
            la_exact(7, [BFLY], P2, budget=10)

    def test_three_chain_q(self):
        # butterfly-free optimum for counting 3-chains at n=3
        rep = la_exact(3, [BFLY], chain(3))
        assert rep.complete
        for w in rep.witnesses:
            assert verify_witness(SetFamily(3, w), [BFLY], chain(3)).copies == rep.optimum

    def test_report_json_roundtrip(self):
        rep = la_exact(3, [n_poset()], P2)
        data = json.loads(json.dumps(rep.to_json()))
        assert data["optimum"] == 3 and data["complete"] is True


class TestBudget:
    def test_stops_after_exactly_budget_nodes(self):
        for budget in (1, 10, 200):
            rep = la_exact(5, [BFLY], P2, budget=budget)
            assert rep.nodes_explored == budget and not rep.complete

    def test_budget_that_covers_the_tree_completes(self):
        full = la_exact(3, [BFLY], P2)
        exact = la_exact(3, [BFLY], P2, budget=full.nodes_explored)
        assert exact.complete and exact.to_json()["witnesses"] == full.to_json()["witnesses"]
        short = la_exact(3, [BFLY], P2, budget=full.nodes_explored - 1)
        assert not short.complete and short.nodes_explored == full.nodes_explored - 1

    def test_empty_forbidden_poset_rejected(self, tmp_path):
        # every family, even the empty one, hosts the empty poset
        empty = poset_from_relations(0, [])
        with pytest.raises(ValueError, match="at least one element"):
            la_exact(2, [empty], P2)
        path = tmp_path / "c.jsonl"
        with pytest.raises(ValueError, match="at least one element"):
            cached_la_exact(2, [BFLY, empty], P2, path=str(path))
        assert not path.exists()

    @pytest.mark.parametrize("budget", (0, -5))
    def test_budget_below_one_rejected(self, budget, tmp_path):
        with pytest.raises(ValueError, match="budget"):
            la_exact(5, [BFLY], P2, budget=budget)
        with pytest.raises(ValueError, match="budget"):
            cached_la_exact(3, [BFLY], P2, budget=budget, path=str(tmp_path / "c.jsonl"))


def brute_down(n):
    return [sum(1 << a for a in range(1 << n) if a & m == a and a != m) for m in range(1 << n)]


def brute_chains(masks, k):
    """k-subsets of the masks that are pairwise nested."""
    return sum(
        all(a & b == a for a, b in zip(combo, combo[1:]))
        for combo in itertools.combinations(sorted(masks), k)
    )


class TestChainCount:
    def test_matches_count_k_chains(self):
        rng = random.Random(23)
        for n in range(1, 6):
            down = brute_down(n)
            for _ in range(15):
                masks = rng.sample(range(1 << n), rng.randint(0, 1 << n))
                avail = sum(1 << m for m in masks)
                for k in range(1, 5):
                    expect = brute_chains(masks, k)
                    assert chain_count(avail, k, down) == expect
                    assert count_k_chains(SetFamily(n, masks), k) == expect


# The five paper problems, each with Q = P2, and the four of them that the
# benchmark searches at n = 4; test_results.table_report gives their reports.
PAPER_SPECS = ("@N", "@W @M", "@butterfly", "@chain(3)", "@pathfamily(5)")
BENCH_N4 = ("@N", "@butterfly", "@chain(3)", "@pathfamily(5)")
# the n = 5 rows of the table whose group has complementation: all but
# (K_{2,3}, #P3), whose group is S_5 alone
DUAL_CLOSED_N5 = [*((spec, "@chain(2)") for spec in PAPER_SPECS), ("@pathfamily(6)", "@chain(2)"),
                  ("@butterfly", "@chain(3)"), ("@butterfly", "@N"), ("@N", "@N")]


def canonical_keys(posets):
    return [p.canonical_key() for p in posets]


def dual_closed_lists(most):
    """The lists [p, p^d, q, q^d, ...] of up to ``most`` classes {p, p^d} of
    catalog posets with at most 5 elements, one list per set of classes."""
    classes = {}
    for p in catalog_posets(5):
        classes.setdefault(frozenset(canonical_keys([p, dual_poset(p)])), [p, dual_poset(p)])
    return [[p for pair in combo for p in pair]
            for k in range(1, most + 1) for combo in itertools.combinations(classes.values(), k)]


def forbid(spec):
    """The forbidden list of space-separated DSL specs."""
    return [p for part in spec.split() for p in parse_poset_dsl(part)]


@pytest.mark.parametrize("spec", BENCH_N4)
def test_n4_search_tree_pinned(spec):
    # the library's report, which the table pins as the CLI prints it
    assert la_exact(4, forbid(spec), P2).to_json() == table_report(4, forbid(spec), P2)


def check_other_q_report(n, spec, q_spec):
    """la_exact's report equals the table row, and each witness is a Q-count optimum."""
    q = parse_single_poset(q_spec)
    rep = la_exact(n, forbid(spec), q).to_json()
    assert rep == table_report(n, forbid(spec), q)
    for w in rep["witnesses"]:
        chk = verify_witness(SetFamily(n, w), forbid(spec), q)
        assert chk.free and chk.copies == rep["optimum"]


@pytest.mark.parametrize("spec, q_spec", [("@N", "@N"), ("@butterfly", "@chain(3)"),
                                          ("@chain(3)", "@kst(1,2)")])
def test_n4_other_q_search_tree_pinned(spec, q_spec):
    check_other_q_report(4, spec, q_spec)


@pytest.mark.parametrize("spec, q_spec", [("@butterfly", "@N"), ("@kst(2,3)", "@chain(3)")])
def test_n5_other_q_search_pinned(spec, q_spec):
    check_other_q_report(5, spec, q_spec)


@pytest.mark.parametrize("spec", PAPER_SPECS)
def test_n5_budgeted_search_pinned(spec):
    # the benchmark's budget of 20,000 nodes, which each search finishes within
    rep = la_exact(5, forbid(spec), P2, budget=20000).to_json()
    row = table_report(5, forbid(spec), P2)
    assert rep == {**row, "params": {**row["params"], "budget": 20000}}


@pytest.mark.parametrize("n", [5, 6])
def test_optima_are_the_paper_values(n):
    # at n = 6 these are rows 20-23: 20, 60, 41 and 30
    paper = {"@N": formulas.n_free, "@butterfly": formulas.butterfly_p2,
             "@W @M": formulas.p6_lower, "@pathfamily(5)": formulas.p5}
    for spec, formula in paper.items():
        assert table_report(n, forbid(spec), P2)["optimum"] == formula(n), spec


# La(4, p, #Q) for every catalog poset p, by canonical key: (Q = P2, Q = P3),
# as the search reported before orbital branching.
PARENT_OPTIMA_N4 = {
    "poset[1]{}": (0, 0),
    "poset[2]{0<1}": (0, 0),
    "poset[3]{0<1;0<2;1<2}": (12, 0),
    "poset[3]{0<1;0<2}": (6, 0),
    "poset[3]{0<1;2<1}": (6, 0),
    "poset[4]{0<1;0<2;0<3;1<2;1<3;2<3}": (36, 24),
    "poset[4]{0<1;0<2;0<3;1<2;3<2}": (20, 8),
    "poset[4]{0<1;0<2;0<3}": (12, 4),
    "poset[4]{0<1;0<2;3<1;3<2}": (14, 6),
    "poset[4]{0<1;0<2;3<1}": (6, 2),
    "poset[4]{0<1;2<1;3<1}": (12, 4),
    "poset[5]{0<1;0<2;0<3;0<4;1<2;1<3;1<4;2<3;2<4;3<4}": (50, 60),
    "poset[5]{0<1;0<2;0<3;0<4;1<2;3<2;4<2}": (36, 24),
    "poset[5]{0<1;0<2;0<3;0<4}": (22, 12),
    "poset[5]{0<1;0<2;0<3;1<2;4<2}": (12, 4),
    "poset[5]{0<1;0<2;0<3;4<1;4<2;4<3}": (24, 18),
    "poset[5]{0<1;0<2;3<1;3<2;4<1;4<2}": (24, 18),
    "poset[5]{0<1;0<2;3<1;3<4}": (13, 6),
    "poset[5]{0<1;0<2;3<1;4<2}": (13, 6),
    "poset[5]{0<1;2<1;3<1;4<1}": (22, 12),
}


class TestSameTreeAsReference:
    """la_exact against independent answers to the same requests.

    The optima come from the search before orbital branching (run here at
    n <= 4, pinned for every catalog poset at n = 4), the witnesses from brute
    force, and a budgeted run must be a prefix of the unbudgeted one.
    """

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_catalog_posets_small_n(self, n):
        for p in catalog_posets(5):
            for q in (P2, chain(3), kst(1, 2), n_poset()):
                rep = la_exact(n, [p], q)
                assert rep.complete
                assert rep.optimum == reference_la_exact(n, [p], q), (n, p, q)

    @pytest.mark.parametrize("spec", BENCH_N4)
    def test_bench_posets_n4(self, spec):
        got = table_report(4, forbid(spec), P2)["optimum"]
        assert got == reference_la_exact(4, forbid(spec), P2)

    def test_catalog_posets_n4(self):
        for p in catalog_posets(5):
            got = tuple(la_exact(4, [p], q).optimum for q in (P2, chain(3)))
            assert got == PARENT_OPTIMA_N4[p.canonical_key()], p

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_witnesses_are_the_least_optimal_families(self, n):
        for p in catalog_posets(5):
            for q in (P2, chain(3)):
                best, least = brute_la(n, [p], q)
                rep = la_exact(n, [p], q)
                assert (rep.optimum, rep.witnesses) == (best, least), (n, p, q)

    @pytest.mark.parametrize("spec", ("@N", "@butterfly"))
    @pytest.mark.parametrize("budget", (1, 200, 5000))
    def test_budgeted_n5(self, spec, budget):
        full = la_exact(5, forbid(spec), P2)
        rep = la_exact(5, forbid(spec), P2, budget)
        assert rep.nodes_explored == min(budget, full.nodes_explored)
        assert rep.complete == (budget >= full.nodes_explored)
        if rep.complete:
            assert rep.to_json() == {**full.to_json(), "params": rep.params}
        else:
            assert rep.optimum <= full.optimum
            for w in rep.witnesses:
                chk = verify_witness(SetFamily(5, w), forbid(spec), P2)
                assert chk.free and chk.copies == rep.optimum


def budgeted_cases():
    """(n, spec, Q spec, budget) for the budgeted comparison with the recursive search."""
    cases = []
    for spec, q_spec in [(spec, "@chain(2)") for spec in BENCH_N4] + [("@N", "@N")]:
        full = table_report(4, forbid(spec), parse_single_poset(q_spec))["nodes_explored"]
        cases += [(4, spec, q_spec, budget)
                  for budget in sorted({1, 2, 3, 5, 10, 30, 100, full - 1, full, full + 1})]
    full = table_report(5, forbid("@N"), P2)["nodes_explored"]
    return cases + [(5, "@N", "@chain(2)", budget) for budget in (1, 17, 200, full)]


@pytest.mark.parametrize("n, spec, q_spec, budget", budgeted_cases())
def test_budgeted_report_matches_the_recursive_search(n, spec, q_spec, budget):
    # a budget that runs out mid-tree must stop at the same node, with the
    # same best value and witnesses, as the recursive search did
    q = parse_single_poset(q_spec)
    got = la_exact(n, forbid(spec), q, budget).to_json()
    assert got == recursive_la_exact(n, forbid(spec), q, budget).to_json()


def check_against_the_plain_search(n, forbidden, q):
    # the dive only raises the starting best value to one that a free family
    # reaches, so the complete report keeps the unseeded search's optimum and
    # witnesses, from a tree no larger
    rep = la_exact(n, forbidden, q)
    plain = recursive_la_exact(n, forbidden, q, seeded=False)
    assert rep.complete and plain.complete
    assert (rep.optimum, rep.witnesses) == (plain.optimum, plain.witnesses)
    assert rep.nodes_explored <= plain.nodes_explored


@pytest.mark.parametrize("n", (1, 2, 3))
def test_seeded_reports_match_the_plain_search_small_n(n):
    for p in catalog_posets(5):
        for q in (P2, chain(3)):
            check_against_the_plain_search(n, [p], q)


@pytest.mark.parametrize("spec", BENCH_N4)
def test_seeded_reports_match_the_plain_search_n4(spec):
    check_against_the_plain_search(4, forbid(spec), P2)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_a_one_node_report_holds_the_dive_family(n):
    # one node is the root: unless the root is a leaf, the report is the
    # dive's free family, with its copies of Q as the optimum
    for p in catalog_posets(5):
        for q in (P2, chain(3)):
            rep = la_exact(n, [p], q, budget=1)
            assert rep.nodes_explored == 1 and len(rep.witnesses) >= 1, (n, p, q)
            for w in rep.witnesses:
                assert verify_witness(SetFamily(n, w), [p], q) == (True, rep.optimum), (n, p, q, w)


# la_exact keeps the copies inside avail as a bitset and branches with a plain
# loop; the recursive search counts the copies through each removed mask and
# calls max, so a change of bound or of tie rule shows in these full reports.
def test_n4_p2_reports_of_the_small_catalog_posets_match_the_recursive_search():
    for p in catalog_posets(4):
        got = la_exact(4, [p], P2).to_json()
        assert got["complete"]
        assert got == recursive_la_exact(4, [p], P2).to_json(), p


@pytest.mark.parametrize("spec", PAPER_SPECS)
def test_n5_p2_report_matches_the_recursive_search(spec):
    assert table_report(5, forbid(spec), P2) == recursive_la_exact(5, forbid(spec), P2).to_json()


def test_n5_tie_heavy_report_pinned():
    # (N, #N) at n = 5: all 25,754 leaves tie at 0, and only the witness
    # stream's skip of a leaf whose least images all start above the worst
    # witness kept brings the run under the gate (about 1 s; 12 s without)
    start = time.monotonic()
    rep = la_exact(5, [n_poset()], n_poset())
    assert time.monotonic() - start < 6
    assert rep.to_json() == table_report(5, [n_poset()], n_poset())


@pytest.mark.parametrize("spec", PAPER_SPECS)
def test_n5_dead_sets_match_the_per_member_loop(spec, monkeypatch):
    # every include lists through x once per minimal poset; the union of those
    # listings is what one forced search per free mask and poset finds
    forbidden = forbid(spec)
    calls = []

    def listed(family, p, x, within, candidates):
        found = completing_members(family, p, x, within, candidates)
        calls.append((family, within, candidates, found))
        return found

    monkeypatch.setattr(posetturan.search, "completing_members", listed)
    assert la_exact(5, forbidden, P2).nodes_explored == table_report(5, forbidden, P2)["nodes_explored"]
    k = len(minimal_posets(forbidden))
    assert calls and len(calls) % k == 0
    for start in range(0, len(calls), k):
        family, within, free, _ = calls[start]
        dead = 0
        for call in calls[start:start + k]:
            dead |= call[3]
        assert dead == propagation_reference(family, forbidden, within, free), (spec, within)


class TestSymmetry:
    """The group that orbital branching and the witness rule use."""

    def test_complementation_only_for_dual_closed_problems(self):
        fork, dual = named_poset("fork", 2), named_poset("kst", 2, 1)
        assert len(_symmetry_group(4, [fork], P2)) == 24
        assert len(_symmetry_group(4, [fork, dual], P2)) == 48
        assert len(_symmetry_group(4, [BFLY], P2)) == 48
        assert len(_symmetry_group(4, [BFLY], fork)) == 24
        assert len(_symmetry_group(6, [chain(3)], P2)) == 1440

    def test_minimal_posets_of_a_dual_closed_list_are_dual_closed(self):
        # la_exact's include child keeps every symmetry that fixes x, so
        # complementation must map each copy of a minimal poset through x and
        # y to one through x and its image of y
        for forbidden in dual_closed_lists(3) + [[w_poset(), m_poset()], path_hasse_family(5),
                                                 path_hasse_family(6)]:
            assert Counter(canonical_keys(forbidden)) == Counter(canonical_keys(map(dual_poset, forbidden)))
            minimal = minimal_posets(forbidden)
            assert set(canonical_keys(minimal)) == set(canonical_keys(map(dual_poset, minimal))), forbidden

    def test_complementation_exactly_for_dual_closed_lists_and_self_dual_q(self):
        qs = [q for q in catalog_posets(4) if q.size >= 2]
        for closed in dual_closed_lists(2):
            # without the dual of its first poset, the list is closed only if
            # that poset is self-dual
            lopsided = [p for i, p in enumerate(closed) if i != 1]
            assert (closed[0].canonical_key() == closed[1].canonical_key()
                    or len(_symmetry_group(3, lopsided, P2)) == 6)
            for q in qs:
                self_dual = q.canonical_key() == dual_poset(q).canonical_key()
                assert len(_symmetry_group(3, closed, q)) == (12 if self_dual else 6), (closed, q)

    @pytest.mark.parametrize("spec, q_spec", DUAL_CLOSED_N5, ids=[
        spec if q_spec == "@chain(2)" else f"{spec}-{q_spec}" for spec, q_spec in DUAL_CLOSED_N5])
    def test_permutations_alone_give_the_same_report(self, spec, q_spec, monkeypatch):
        # each of these rows is dual-closed, so la_exact used S_n x Z2 for it
        forbidden, q = forbid(spec), parse_single_poset(q_spec)
        assert len(_symmetry_group(5, forbidden, q)) == 240
        both = table_report(5, forbidden, q)
        monkeypatch.setattr(posetturan.search, "_symmetry_group", lambda n, f, q: _permutation_tables(n))
        alone = la_exact(5, forbidden, q).to_json()
        assert (alone["optimum"], alone["witnesses"]) == (both["optimum"], both["witnesses"])
        assert alone["complete"] and alone["nodes_explored"] > both["nodes_explored"]

    @pytest.mark.parametrize("forbidden", ([BFLY], [named_poset("fork", 2)]))
    def test_witness_stream_keeps_the_least_of_all_images(self, forbidden):
        # the stream skips leaves whose images all sort after the worst kept;
        # the plain rule sorts every image of every leaf
        group = _symmetry_group(4, forbidden, P2)
        rng = random.Random(17)
        for _ in range(40):
            leaves = [sum(1 << m for m in rng.sample(range(16), rng.randint(0, 5)))
                      for _ in range(rng.randint(0, 60))]
            images = {tuple(sorted(g[m] for m in iter_bits(leaf))) for leaf in leaves for g in group}
            assert _least_images(leaves, group) == sorted(images)[:DEFAULT_WITNESS_CAP]

    def test_witnesses_of_the_antichain_problem(self):
        # With chain(2) forbidden every antichain is optimal: the 16 least antichains
        antichains = []

        def grow(members, start):
            antichains.append(tuple(members))
            for m in range(start, 32):
                if all(a & m != a for a in members):  # no earlier member lies below m
                    grow(members + [m], m + 1)

        grow([], 0)
        assert len(antichains) == 7581  # the Dedekind number M(5)
        rep = la_exact(5, [chain(2)], P2)
        assert rep.complete and rep.optimum == 0
        assert rep.witnesses == sorted(antichains)[:DEFAULT_WITNESS_CAP]


def reference_la_levels(n, forbidden, q):
    """la_levels as one loop over all 2^(n+1) level tuples: a tuple of at
    least the shortest forbidden chain's length is skipped, and any other is
    tested against the non-chain forbidden posets.

    Returns (optimum, witnesses, levels) as la_levels reports them.
    """
    forbidden = list(forbidden)
    chains_only = all(p.is_chain() for p in forbidden)
    min_chain = min((p.size for p in forbidden if p.is_chain()), default=None)
    best = -1
    best_levels = []
    for r in range(n + 2):
        for tup in itertools.combinations(range(n + 1), r):
            if min_chain is not None and len(tup) >= min_chain:
                continue
            if not chains_only:
                fam = level_family(n, tup)
                if not is_free(fam, [p for p in forbidden if not p.is_chain()]):
                    continue
            if q.is_chain():
                copies = chain_count_in_levels(n, q.size, tup)
            else:
                copies = count_copies(level_family(n, tup), q)
            if copies > best:
                best = copies
                best_levels = [tup]
            elif copies == best:
                best_levels.append(tup)
    witnesses = sorted(tuple(level_family(n, t).members) for t in best_levels)
    levels = [list(t) for t in sorted(best_levels)[:DEFAULT_WITNESS_CAP]]
    return best, witnesses[:DEFAULT_WITNESS_CAP], levels


class TestLaLevels:
    def test_chain3_forbidden(self):
        rep = la_levels(6, [chain(3)], P2)
        assert rep.optimum == 90
        assert [2, 4] in rep.params["levels"]

    def test_chain3_n4(self):
        rep = la_levels(4, [chain(3)], P2)
        assert rep.optimum == 12
        assert rep.params["levels"] == [[1, 2], [1, 3], [2, 3]]

    def test_butterfly_forbidden(self):
        rep = la_levels(8, [BFLY], P2)
        assert rep.optimum == 4 * 70
        assert level_family(8, [3, 4]).members in [tuple(w) for w in rep.witnesses]

    def test_witnesses_free(self):
        rep = la_levels(6, [BFLY], P2)
        for w in rep.witnesses:
            assert is_free(SetFamily(6, w), [BFLY])

    def test_level_vs_exact_lower(self):
        # level-restricted optimum never beats the unrestricted one
        for forbidden in ([BFLY], [chain(3)], [n_poset()]):
            assert la_levels(4, forbidden, P2).optimum <= la_exact(4, forbidden, P2).optimum

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_tuple_loop(self, n):
        for p in catalog_posets(5):
            for q in (P2, chain(3), n_poset()):
                rep = la_levels(n, [p], q)
                assert (rep.optimum, rep.witnesses, rep.params["levels"]) == reference_la_levels(n, [p], q), (
                    n, p, q)
                assert rep.complete and rep.params["forbidden"] == [p.canonical_key()]

    def test_visits_only_tuples_whose_smaller_subtuples_are_free(self):
        # of the 2,048 tuples at n = 10; a forbidden 3-chain rules out the
        # C(11, 3) tuples of 3 levels untested, and the walk stops there
        assert la_levels(10, [n_poset()], P2).nodes_explored == 76
        assert la_levels(10, [BFLY], P2).nodes_explored == 92
        assert la_levels(10, [chain(3)], P2).nodes_explored == 1 + 11 + 55 + 165

    def test_empty_forbidden_poset_is_refused_as_la_exact_refuses_it(self):
        for n in (1, 2, 3):
            for forbidden in ([Poset(0)], [BFLY, Poset(0)]):
                with pytest.raises(ValueError, match="at least one element") as exact:
                    la_exact(n, forbidden, P2)
                with pytest.raises(ValueError) as levels:
                    la_levels(n, forbidden, P2)
                assert str(levels.value) == str(exact.value)

    def test_empty_q_has_one_copy_as_in_la_exact(self):
        for n in (1, 2, 3):
            for forbidden in ([BFLY], [chain(3)], [n_poset(), chain(2)], []):
                rep = la_levels(n, forbidden, Poset(0))
                if forbidden:
                    assert rep.optimum == la_exact(n, forbidden, Poset(0)).optimum == 1
                assert rep.optimum == count_copies(cached_lattice(n), Poset(0)) == 1

    def test_caps(self):
        # results (i) and (iii) at the non-chain cap: ceil(n/2) C(n, n/2) and C(n, n/2)
        assert MAX_LEVEL_GENERIC_N == 12
        assert la_levels(12, [BFLY], P2).optimum == 6 * 924
        assert la_levels(12, [n_poset()], P2).optimum == 924
        with pytest.raises(ValueError):
            la_levels(17, [chain(3)], P2)
        with pytest.raises(ValueError):
            la_levels(13, [BFLY], P2)
        with pytest.raises(ValueError):
            la_levels(9, [chain(4)], BFLY)


class TestCache:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        first = cached_la_exact(3, [BFLY], P2, path=path)
        second = cached_la_exact(3, [BFLY], P2, path=path)
        assert first.optimum == second.optimum == 7
        assert first.witnesses == second.witnesses
        assert sum(1 for _ in open(path)) == 1

    def test_cold_and_warm_reports_match(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cold = cached_la_exact(4, [n_poset()], P2, path=path)
        warm = cached_la_exact(4, [n_poset()], P2, path=path)
        assert json.dumps(cold.to_json(), sort_keys=True) == json.dumps(
            warm.to_json(), sort_keys=True
        )

    def test_incomplete_entry_rerun_with_bigger_budget(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        partial = cached_la_exact(5, [chain(2)], P2, budget=50, path=path)
        assert not partial.complete
        again = cached_la_exact(5, [chain(2)], P2, budget=100, path=path)
        assert again.nodes_explored > 50
        assert sum(1 for _ in open(path)) == 2

    def test_incomplete_entry_reused_at_same_budget(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cached_la_exact(5, [chain(2)], P2, budget=50, path=path)
        cached_la_exact(5, [chain(2)], P2, budget=50, path=path)
        assert sum(1 for _ in open(path)) == 1

    def test_env_var_controls_default(self, tmp_path, monkeypatch):
        path = tmp_path / "envcache.jsonl"
        monkeypatch.setenv("TURAN_CACHE", str(path))
        cached_la_exact(2, [BFLY], P2)
        assert path.exists()

    def test_corrupt_lines_ignored(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text("this is not json\n")
        rep = cached_la_exact(3, [BFLY], P2, path=str(path))
        assert rep.optimum == 7


    @staticmethod
    def _decoys(report):
        """Lines that hold the params of ``report``'s request but are not a report of it."""
        request = {"params": report["params"]}
        decoys = [
            json.dumps([request], sort_keys=True),   # the key inside a list
            json.dumps(request, sort_keys=True),     # the key without a report
            json.dumps(request, sort_keys=True)[:-1],  # cut short
            # nested past the parser's depth
            '{"x": ' + "[" * 100_000 + "]" * 100_000 + ", " + json.dumps(request, sort_keys=True)[1:],
            # the five report keys, with a field of the wrong type
            *(json.dumps({**report, field: value}, sort_keys=True) for field, value in (
                ("witnesses", 5), ("witnesses", [5]), ("witnesses", None), ("witnesses", [[1, "x"]]),
                ("witnesses", [[1, True]]), ("witnesses", [[1.5]]), ("witnesses", {"0": [1]}),
                ("optimum", True), ("optimum", 7.0), ("nodes_explored", "5"), ("complete", 1),
            )),
        ]
        assert all('"params": ' + json.dumps(request["params"], sort_keys=True) in line
                   for line in decoys)
        return decoys

    def test_non_object_lines_ignored(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        report = la_exact(3, [BFLY], P2).to_json()
        path.write_text("[1, 2]\n" + "\n".join(self._decoys(report)) + "\n")
        rep = cached_la_exact(3, [BFLY], P2, path=str(path))
        # every decoy is skipped: the search runs and appends its report
        assert rep.optimum == 7 and rep.to_json() == report
        assert path.read_text().splitlines()[-1] == json.dumps(report, sort_keys=True)

    def test_a_report_before_the_decoys_answers(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        report = la_exact(3, [BFLY], P2).to_json()
        marked = {**report, "nodes_explored": 1}
        path.write_text("\n".join([json.dumps(marked, sort_keys=True), *self._decoys(report)]) + "\n")
        size = path.stat().st_size
        rep = cached_la_exact(3, [BFLY], P2, path=str(path))
        assert rep.to_json() == marked and path.stat().st_size == size  # a hit appends nothing

    def test_record_is_the_report_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        rep = cached_la_exact(3, [BFLY], P2, budget=40, path=str(path))
        assert path.read_text() == json.dumps(rep.to_json(), sort_keys=True) + "\n"
        assert rep.params == _request(3, [BFLY], P2, 40) == la_exact(3, [BFLY], P2, 40).params
        assert rep.params["witness_cap"] == 16

    def test_forbidden_order_is_part_of_the_key(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        a = cached_la_exact(3, [BFLY, chain(3)], P2, path=str(path))
        b = cached_la_exact(3, [chain(3), BFLY], P2, path=str(path))
        assert a.params["forbidden"] == b.params["forbidden"][::-1]
        assert len(path.read_text().splitlines()) == 2

    def test_records_of_the_static_order_search_ignored(self, tmp_path):
        # a record as the search before orbital branching wrote it: the same
        # request without the "search" entry, and its own nodes and witnesses
        path = tmp_path / "cache.jsonl"
        params = _request(3, [BFLY], P2, None)
        del params["search"]
        old = {"optimum": 99, "witnesses": [], "nodes_explored": 1, "complete": True,
               "params": params}
        path.write_text(json.dumps(old, sort_keys=True) + "\n")
        rep = cached_la_exact(3, [BFLY], P2, path=str(path))
        assert rep.optimum == 7 and rep.params == _request(3, [BFLY], P2, None)
        assert len(path.read_text().splitlines()) == 2

    def test_a_new_search_tag_is_written_in_request_alone(self, tmp_path, monkeypatch):
        # the lookup anchors on the params' first and last keys, not on the
        # tag, so a search that only _request tags anew still hits its lines
        request = posetturan.search._request
        monkeypatch.setattr(posetturan.search, "_request",
                            lambda *args: {**request(*args), "search": "orbital-next"})
        path = tmp_path / "cache.jsonl"
        first = cached_la_exact(3, [BFLY], P2, path=str(path))
        assert first.params["search"] == "orbital-next"
        monkeypatch.setattr(posetturan.search, "la_exact", mock.Mock(side_effect=AssertionError))
        for _ in range(2):
            again = cached_la_exact(3, [BFLY], P2, path=str(path))
            assert again.to_json() == first.to_json()
        assert path.read_text() == json.dumps(first.to_json(), sort_keys=True) + "\n"

    def test_records_of_the_earlier_schema_ignored(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        old = {
            "n": 3, "budget": None, "complete": True, "nodes_explored": 1, "optimum": 99,
            "forbidden_key": hashlib.sha256(BFLY.canonical_key().encode()).hexdigest(),
            "q_key": hashlib.sha256(P2.canonical_key().encode()).hexdigest(),
            "timestamp": 1.7e9, "witnesses": [],
        }
        path.write_text(json.dumps(old, sort_keys=True) + "\n")
        rep = cached_la_exact(3, [BFLY], P2, path=str(path))
        assert rep.optimum == 7 and len(path.read_text().splitlines()) == 2

    def test_hit_among_filler_records(self, tmp_path):
        rng = random.Random(29)
        path = tmp_path / "cache.jsonl"
        real = tmp_path / "real.jsonl"
        cached_la_exact(3, [BFLY], P2, path=str(real))
        (record,) = real.read_text().splitlines()
        stale = json.loads(record)
        stale["nodes_explored"] = -1
        # the same request at other budgets
        filler = [
            json.dumps({"params": _request(3, [BFLY], P2, rng.randint(1, 10**6)), "optimum": 0,
                        "complete": False, "witnesses": [], "nodes_explored": 1}, sort_keys=True)
            for _ in range(1000)
        ]
        # last match wins: the stale copy comes first, the real record later
        lines = filler[:300] + [json.dumps(stale)] + filler[300:700] + [record] + filler[700:]
        path.write_text("\n".join(lines) + "\n")
        rep = cached_la_exact(3, [BFLY], P2, path=str(path))
        assert rep.to_json()["nodes_explored"] == json.loads(record)["nodes_explored"] > 0
        assert len(path.read_text().splitlines()) == 1002  # a hit appends nothing

    def test_non_utf8_lines_around_a_record_ignored(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        record = json.dumps(la_exact(3, [BFLY], P2).to_json(), sort_keys=True).encode()
        data = b"\xff\xfe garbage\n" + record + b"\n\xff\xfe garbage\n"
        path.write_bytes(data)
        rep = cached_la_exact(3, [BFLY], P2, path=str(path))
        assert json.dumps(rep.to_json(), sort_keys=True).encode() == record
        assert path.read_bytes() == data  # a hit appends nothing

    def test_record_after_a_bom_is_not_a_match(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        marked = {**la_exact(3, [BFLY], P2).to_json(), "optimum": 99}
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(marked, sort_keys=True).encode() + b"\n")
        rep = cached_la_exact(3, [BFLY], P2, path=str(path))
        assert rep.optimum == 7 and len(path.read_bytes().splitlines()) == 2


LOOKUP_BUDGETS = (None, 5, 40)


def _lookup_pieces():
    """Lines for cache files: records of the request at several budgets and decoys."""
    pieces = ["", "this is not json", "[1, 2]", "\u00e9 \u2202 garbage"]
    for budget in LOOKUP_BUDGETS:
        real = la_exact(3, [BFLY], P2, budget).to_json()
        request = {"params": real["params"]}
        needle = '"params": ' + json.dumps(real["params"], sort_keys=True)
        pieces += [
            json.dumps(real, sort_keys=True),
            # stale copies under the same key: only the last record may win
            json.dumps({**real, "nodes_explored": -1}, sort_keys=True),
            json.dumps({**real, "nodes_explored": -2}, sort_keys=True),
            json.dumps({**real, "timestamp": 1.7e9}, sort_keys=True),    # a field too many
            "\ufeff" + json.dumps(real, sort_keys=True),                 # after a BOM
            json.dumps([request], sort_keys=True),
            json.dumps(request, sort_keys=True),
            json.dumps(request, sort_keys=True)[:-1],
            "x " + needle + " y",
        ]
    return pieces


LOOKUP_PIECES = _lookup_pieces()
REAL = json.dumps(la_exact(3, [BFLY], P2).to_json(), sort_keys=True)
STALE = json.dumps({**json.loads(REAL), "nodes_explored": -1}, sort_keys=True)


class TestCacheLookupAgainstReference:
    """_cache_lookup against the line-by-line text lookup, on valid UTF-8 files."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(LOOKUP_BUDGETS),
        st.lists(st.tuples(st.sampled_from(LOOKUP_PIECES), st.sampled_from(("\n", "\r", "\r\n"))),
                 max_size=8),
        st.booleans(),
    )
    @example(None, [], False)                                          # the empty file
    @example(None, [(STALE, "\n"), (REAL, "\n")], False)               # the last record wins
    @example(None, [(REAL, "\r"), (STALE, "\n")], False)
    @example(None, [("this is not json", "\r"), (REAL, "\n")], False)  # \r ends a line
    @example(None, [(STALE, "\n"), (REAL, "\r\n")], True)              # no final line end
    def test_same_record_as_reference(self, budget, lines, unterminated):
        text = "".join(piece + end for piece, end in lines)
        if unterminated and lines:
            text = text[: -len(lines[-1][1])]
        params = _request(3, [BFLY], P2, budget)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cache.jsonl")
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
            assert _cache_lookup(path, params) == reference_cache_lookup(path, params)


def test_lookup_in_an_empty_special_or_missing_file(tmp_path):
    # the empty file and a character device are read, and searched by the same code
    params = _request(3, [BFLY], P2, None)
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    assert _cache_lookup(str(empty), params) is None
    assert _cache_lookup(os.devnull, params) is None
    assert _cache_lookup(str(tmp_path / "missing.jsonl"), params) is None


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
def test_lookup_in_a_pipe(tmp_path):
    # a pipe cannot seek: each lookup reads it whole, and it leaves no index
    fifo = tmp_path / "cache.fifo"
    os.mkfifo(fifo)
    params = _request(3, [BFLY], P2, None)
    for _ in range(2):
        writer = threading.Thread(target=fifo.write_text, args=(STALE + "\n" + REAL + "\n",), daemon=True)
        writer.start()
        try:
            assert _cache_lookup(str(fifo), params) == json.loads(REAL)
        finally:
            writer.join(timeout=10)
        assert posetturan.search._index is None


def _joined(lines, unterminated):
    text = "".join(piece + end for piece, end in lines)
    return text[: -len(lines[-1][1])] if unterminated and lines else text


LOOKUP_TEXT = st.builds(
    _joined,
    st.lists(st.tuples(st.sampled_from(LOOKUP_PIECES), st.sampled_from(("\n", "\r", "\r\n"))),
             max_size=4),
    st.booleans(),
)
CACHE_STEPS = st.lists(st.one_of(
    st.tuples(st.just("append"), LOOKUP_TEXT),
    st.tuples(st.just("append in two"), LOOKUP_TEXT, st.integers(0, 400)),
    st.tuples(st.just("rename over"), LOOKUP_TEXT),
    st.tuples(st.just("delete and re-create"), LOOKUP_TEXT),
    st.tuples(st.just("delete"),),
    st.tuples(st.just("truncate and rewrite"), st.integers(0, 2000), LOOKUP_TEXT),
), max_size=8)


# REAL and STALE padded to one width, so that either can replace the other in place
WIDTH = max(len(REAL), len(STALE)) + 1


class TestCacheIndexAcrossChanges:
    """One process looks a file up while it grows, is replaced, deleted or cut.

    The per-process index carries over from step to step; after each step a
    lookup of each budget's request must equal the line-by-line text lookup.
    """

    @staticmethod
    def _check(path):
        for budget in LOOKUP_BUDGETS:
            params = _request(3, [BFLY], P2, budget)
            assert _cache_lookup(path, params) == reference_cache_lookup(path, params), budget

    @staticmethod
    def _append(path, text):
        with open(path, "ab") as fh:
            fh.write(text.encode("utf-8"))

    @settings(max_examples=200, deadline=None)
    @given(CACHE_STEPS)
    @example([("append", STALE + "\n"), ("append", REAL + "\n")])                # appends
    # a line completed
    @example([("append", STALE + "\n" + REAL[:40]), ("append", REAL[40:] + "\n")])
    @example([("append", STALE + "\r"), ("append", "\n"), ("append", REAL)])
    @example([("append", REAL + "\n"), ("truncate and rewrite", 0, STALE + "\n")])  # shorter
    @example([("append", REAL + "\n"), ("rename over", REAL + "\n" + STALE + "\n")])
    @example([("append", STALE + "\n"), ("delete and re-create", STALE + "\n" + REAL + "\n")])
    @example([("append", REAL + "\n"), ("truncate and rewrite", 0, ""), ("append", STALE + "\n")])
    # another file, whose last line sits where the old one's did
    @example([("append", "x" * len(REAL) + "\n[1, 2]\n"), ("rename over", REAL + "\n[1, 2]\n")])
    # a rewrite in place that keeps the empty last line at its offset, and moves the record
    @example([("append", REAL.ljust(WIDTH) + "\n\n"),
              ("truncate and rewrite", 0, "\n" + STALE.ljust(WIDTH - 1) + "\n\n")])
    @example([("append", STALE + "\n" + REAL + "\n"), ("append", REAL + "\n")])
    def test_lookups_follow_the_file(self, steps):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cache.jsonl")
            self._check(path)
            for step in steps:
                kind = step[0]
                if kind == "append":
                    self._append(path, step[1])
                elif kind == "append in two":
                    self._append(path, step[1][:step[2]])
                    self._check(path)
                    self._append(path, step[1][step[2]:])
                elif kind == "rename over":
                    with open(path + ".new", "wb") as fh:
                        fh.write(step[1].encode("utf-8"))
                    os.replace(path + ".new", path)
                elif kind == "delete and re-create":
                    if os.path.exists(path):
                        os.remove(path)
                    self._append(path, step[1])
                elif kind == "delete":
                    if os.path.exists(path):
                        os.remove(path)
                else:  # cut at a character, in place, and write after it
                    with open(path, "a+b") as fh:
                        fh.seek(0)
                        keep = fh.read().decode("utf-8")[:step[1]].encode("utf-8")
                        fh.truncate(len(keep))
                        fh.write(step[2].encode("utf-8"))
                self._check(path)


def test_an_unchanged_file_is_not_searched_again(tmp_path, monkeypatch):
    path = str(tmp_path / "cache.jsonl")
    (tmp_path / "cache.jsonl").write_text(STALE + "\n" + REAL + "\n")
    searched = []
    search_lines = posetturan.search._params_lines

    def params_lines(data, start, stop):
        searched.append(data[start:stop])
        return search_lines(data, start, stop)

    monkeypatch.setattr(posetturan.search, "_params_lines", params_lines)
    params = _request(3, [BFLY], P2, None)
    whole = (STALE + "\n" + REAL + "\n").encode()
    for _ in range(3):
        assert _cache_lookup(path, params) == json.loads(REAL)
    assert _cache_lookup(path, _request(3, [BFLY], P2, 5)) is None
    assert searched == [whole]  # built once
    with open(path, "a") as fh:
        fh.write(STALE + "\n")
    assert _cache_lookup(path, params) == json.loads(STALE)
    assert searched == [whole, (STALE + "\n").encode()]  # then only what was appended


def test_a_rewrite_in_place_before_the_last_bytes_starts_a_new_index(tmp_path, monkeypatch):
    # Each rewrite keeps the size and the last bytes of the file, and changes
    # bytes among its first: one a line end, the other the first line.
    monkeypatch.setattr(posetturan.search, "_GUARD", 16)
    params = _request(3, [BFLY], P2, None)
    path = tmp_path / "cache.jsonl"
    filler = "[1, 2]\n" * 8
    for before, after in [
        ("[1, 2]\n" + REAL + "\n", "[1, 2]x" + REAL + "\n"),
        (REAL.ljust(WIDTH) + "\n" + filler, "\n" + STALE.ljust(WIDTH - 1) + "\n" + filler),
    ]:
        path.write_text(before)
        assert _cache_lookup(str(path), params) == json.loads(REAL)
        with open(path, "r+") as fh:
            fh.write(after)
        assert _cache_lookup(str(path), params) == reference_cache_lookup(str(path), params)


CUT_DURING_LOOKUP = """
import json, os, sys
import posetturan.search as search
from posetturan.posets import chain, named_poset
path, record = sys.argv[1], sys.argv[2]
with open(path, "w") as fh:
    fh.write("[1, 2]\\n" * 5000 + record + "\\n")
scan = search._params_lines

def params_lines(*args):
    found = scan(*args)
    os.truncate(path, 0)
    return found

search._params_lines = params_lines
params = search._request(3, [named_poset("butterfly")], chain(2), None)
print(json.dumps(search._cache_lookup(path, params), sort_keys=True))
"""


def test_a_file_cut_in_place_during_a_lookup_still_gives_the_answer(tmp_path):
    # The file is emptied in place once its lines are scanned. A lookup that
    # mapped the file died with SIGBUS here; one that read it has the bytes.
    env = dict(os.environ, PYTHONPATH=str(Path(posetturan.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", CUT_DURING_LOOKUP, str(tmp_path / "cache.jsonl"), REAL],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert proc.stdout == REAL + "\n"
    assert json.loads(proc.stdout)["optimum"] == 7


def test_a_report_after_an_unterminated_line_starts_its_own_line(tmp_path, monkeypatch):
    # the cut-off line used to swallow the report appended after it, so every
    # later request for it missed and searched again
    path = tmp_path / "cache.jsonl"
    path.write_text('{"complete": tr')
    runs = []

    def counted(*args, **kwargs):
        runs.append(args)
        return la_exact(*args, **kwargs)

    monkeypatch.setattr(posetturan.search, "la_exact", counted)
    reports = [cached_la_exact(3, [BFLY], P2, path=str(path)) for _ in range(3)]
    assert len(runs) == 1
    assert reports[0] == reports[1] == reports[2]
    record = json.dumps(reports[0].to_json(), sort_keys=True)
    assert path.read_text() == '{"complete": tr\n' + record + "\n"


HALF_WRITER = """
import os, sys, time
path, line = sys.argv[1], sys.argv[2]
with open(path, "a+b") as fh:
    os.lockf(fh.fileno(), os.F_LOCK, 0)
    fh.write(line[:40].encode())
    fh.flush()
    print("half written", flush=True)
    time.sleep(0.5)
    fh.write(line[40:].encode())
"""


@pytest.mark.skipif(not hasattr(os, "lockf"), reason="appends are locked on POSIX only")
def test_a_report_waits_for_the_line_another_writer_holds(tmp_path):
    # Another writer holds the lock over a line it writes in two parts. The
    # report must not take the half line for a cut-off one and split it.
    path = tmp_path / "cache.jsonl"
    line = json.dumps({"filler": "x" * 200}) + "\n"
    writer = subprocess.Popen([sys.executable, "-c", HALF_WRITER, str(path), line],
                              stdout=subprocess.PIPE, text=True)
    try:
        assert writer.stdout.readline() == "half written\n"
        report = cached_la_exact(3, [BFLY], P2, path=str(path))
    finally:
        writer.communicate(timeout=60)
    assert writer.returncode == 0
    assert path.read_text() == line + json.dumps(report.to_json(), sort_keys=True) + "\n"


WRITER = """
import sys
from posetturan.posets import chain, named_poset
from posetturan.search import cached_la_exact
path, lo, hi = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
for budget in range(lo, hi):
    cached_la_exact(3, [named_poset("butterfly")], chain(2), budget=budget, path=path)
"""


def test_concurrent_writers_leave_every_record_whole(tmp_path):
    # Two processes append 200 reports each while this one keeps looking up.
    path = str(tmp_path / "cache.jsonl")
    expect = {b: la_exact(3, [BFLY], P2, b).to_json() for b in range(1, 401)}
    env = dict(os.environ, PYTHONPATH=str(Path(posetturan.__file__).resolve().parents[1]))
    writers = [
        subprocess.Popen([sys.executable, "-c", WRITER, path, str(lo), str(lo + 200)],
                         env=env, stderr=subprocess.PIPE)
        for lo in (1, 201)
    ]
    rng = random.Random(5)
    lookups = 0
    try:
        deadline = time.monotonic() + 120
        while any(w.poll() is None for w in writers):
            assert time.monotonic() < deadline, "writers did not finish"
            budget = rng.randint(1, 400)
            rec = _cache_lookup(path, _request(3, [BFLY], P2, budget))
            assert rec is None or rec == expect[budget]
            lookups += 1
    finally:
        for w in writers:
            if w.poll() is None:
                w.kill()
    for w in writers:
        _, err = w.communicate()
        assert w.returncode == 0, err.decode()
    assert lookups > 0
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    assert lines.pop() == b""
    assert sorted(json.loads(line)["params"]["budget"] for line in lines) == list(range(1, 401))
    size = os.path.getsize(path)
    for budget, rec in expect.items():
        assert cached_la_exact(3, [BFLY], P2, budget, path=path).to_json() == rec
    assert os.path.getsize(path) == size  # every request was a hit


class TestVerifyWitness:
    def test_free_witness(self):
        chk = verify_witness(level_family(7, [3, 4]), [BFLY], P2)
        assert chk.free and chk.copies == 140

    def test_non_free_witness(self):
        chk = verify_witness(SetFamily(3, list(range(8))), [BFLY], P2)
        assert not chk.free
