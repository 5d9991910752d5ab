"""La(4, P, #Q) by plain enumeration, a reference that shares no code with the search.

The copies of a poset in 2^[4] come from a permutation test over the
|P|-subsets of the 16 masks, and the families from an include/exclude walk
over the masks 0..15. A poset is read only through its ``size`` and
``relations``, and ``posetturan.posets`` is the one package module this
module imports (it reads only the size cap and its check from
``posetturan.lattice``), so a fault in the embedding engine, the lattice
bitsets or the search cannot reach its answers.

Run as a script, it checks against ``la_exact`` the 112 cases of the 28
catalog posets of at most 5 elements times Q in {P2, P3, K_{1,2}, N}, then
RANDOM_CASES forbidden lists and Q drawn by ``random_case`` from a fixed
seed, and exits 1 on a mismatch (about 50 s on 2 vCPUs, Python 3.11.7):

    PYTHONPATH=src python tests/oracle_n4.py
"""
import itertools
import random
import sys
from functools import lru_cache

from posetturan.posets import chain, dual_poset, kst, n_poset

MASKS = range(16)  # the sets of 2^[4]
QS = {"P2": chain(2), "P3": chain(3), "K12": kst(1, 2), "N": n_poset()}
RANDOM_CASES = 240


@lru_cache(maxsize=None)
def supports(poset):
    """The copies of the poset in 2^[4], each as a bitset over the 16 masks.

    A |P|-subset is a copy if some ordering of it sends every relation a < b
    to a proper subset. That depends only on which positions of the sorted
    subset lie below which, so each such pattern is tested once, by trying
    every permutation of the positions.
    """
    relations, positions = tuple(poset.relations), range(poset.size)
    verdicts = {}  # pattern -> whether some permutation maps the relations into it
    found = []
    for subset in itertools.combinations(MASKS, poset.size):
        # the masks are distinct, so a subset relation between two is proper
        pattern = frozenset(
            (i, j) for i, j in itertools.permutations(positions, 2) if subset[i] & ~subset[j] == 0
        )
        if pattern not in verdicts:
            verdicts[pattern] = any(
                all((image[a], image[b]) in pattern for a, b in relations)
                for image in itertools.permutations(positions)
            )
        if verdicts[pattern]:
            found.append(sum(1 << m for m in subset))
    return tuple(found)


def la_n4(forbidden, q):
    """(La(4, forbidden, #Q), the number of families of 2^[4] that reach it).

    The walk decides the masks in ascending order. It includes a mask only
    when no copy of a forbidden poset whose highest mask it is lies inside
    the family, and it counts the copies of Q at their highest mask too.
    """
    closing = [[] for _ in MASKS]  # closing[m]: forbidden copies whose highest mask is m
    for p in forbidden:
        for s in supports(p):
            closing[s.bit_length() - 1].append(s)
    gained = [[] for _ in MASKS]  # gained[m]: copies of Q whose highest mask is m
    for s in supports(q):
        gained[s.bit_length() - 1].append(s)
    best = [-1, 0]

    def walk(m, family, value):
        if m == len(MASKS):
            if value > best[0]:
                best[:] = [value, 1]
            elif value == best[0]:
                best[1] += 1
            return
        walk(m + 1, family, value)
        grown = family | 1 << m
        if all(s & grown != s for s in closing[m]):
            walk(m + 1, grown, value + sum(s & grown == s for s in gained[m]))

    walk(0, 0, 0)
    return tuple(best)


def random_case(rng, catalog):
    """(a forbidden list, Q) drawn with ``rng`` from the catalog posets.

    The list holds 2-3 posets of at most 5 elements. 30 % of the lists get
    the dual of each member that is not self-dual, so that they are closed
    under duality, mixed lists included. Q has 2-4 elements and need not be
    self-dual.
    """
    forbidden = rng.sample([p for p in catalog if p.size <= 5], rng.randint(2, 3))
    if rng.random() < 0.3:
        forbidden += [dual_poset(p) for p in forbidden
                      if dual_poset(p).canonical_key() != p.canonical_key()]
    return forbidden, rng.choice([q for q in catalog if 2 <= q.size <= 4])


def main():
    # the comparison, unlike the oracle, reads the search and the test catalog
    from posetturan.search import _symmetry_group, la_exact
    from test_embedding import catalog_posets

    catalog, rng = catalog_posets(5), random.Random(0)
    batches = {
        "catalog cases": [([p], q) for p in catalog for q in QS.values()],
        "random lists": [random_case(rng, catalog) for _ in range(RANDOM_CASES)],
    }
    bad = 0
    for name, cases in batches.items():
        wrong = complemented = 0
        for forbidden, q in cases:
            complemented += len(_symmetry_group(4, forbidden, q)) > 24
            want, _ = la_n4(forbidden, q)
            got = la_exact(4, forbidden, q).optimum
            if got != want:
                wrong += 1
                keys = [p.canonical_key() for p in forbidden]
                print(f"mismatch: {keys} #{q.canonical_key()}: oracle {want}, la_exact {got}")
        print(f"{len(cases)} {name}, {complemented} with complementation, {wrong} mismatches")
        bad += wrong
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
