import itertools
import random

import pytest

from posetturan import posets
from posetturan.posets import (
    MAX_POSET_SIZE,
    PosetError,
    chain,
    crown,
    diamond,
    dual_poset,
    fork,
    kst,
    m_poset,
    n_poset,
    named_poset,
    path_hasse_family,
    poset_from_relations,
    s_poset,
    w_poset,
)


def orbit_count(k):
    """Path posets on k elements, counted independently as edge-orientation
    strings up to path reversal (reverse + flip)."""
    seen = set()
    classes = 0
    for bits in range(1 << (k - 1)):
        if bits in seen:
            continue
        classes += 1
        rev_flip = 0
        for i in range(k - 1):
            if not bits >> (k - 2 - i) & 1:
                rev_flip |= 1 << i
        seen.add(bits)
        seen.add(rev_flip)
    return classes


class TestFromRelations:
    def test_n_poset_shape(self):
        p = poset_from_relations(4, [(0, 2), (1, 2), (1, 3)])
        assert p.canonical_key() == n_poset().canonical_key()

    def test_antichain(self):
        p = poset_from_relations(2, [])
        assert not p.relations

    def test_transitivity(self):
        p = poset_from_relations(3, [(0, 1), (1, 2)])
        assert (0, 2) in p.relations
        assert p.canonical_key() == chain(3).canonical_key()

    def test_cycle_rejected(self):
        with pytest.raises(PosetError, match="not a partial order"):
            poset_from_relations(2, [(0, 1), (1, 0)])


class TestDual:
    def test_w_dual_is_m(self):
        assert dual_poset(w_poset()).canonical_key() == m_poset().canonical_key()

    def test_chain_self_dual(self):
        assert dual_poset(chain(4)).canonical_key() == chain(4).canonical_key()

    def test_kst_transpose(self):
        assert dual_poset(kst(2, 3)).canonical_key() == kst(3, 2).canonical_key()

    def test_involution(self):
        for p in (n_poset(), s_poset(), kst(2, 3), crown(3)):
            assert dual_poset(dual_poset(p)) == p
            assert dual_poset(p).height() == p.height()


class TestIsomorphism:
    def test_n_self_dual(self):
        assert n_poset().canonical_key() == dual_poset(n_poset()).canonical_key()

    def test_w_not_m(self):
        assert w_poset().canonical_key() != m_poset().canonical_key()

    def test_different_relation_counts(self):
        assert chain(3).canonical_key() != fork(2).canonical_key()

    def test_random_pairs_match_permutation_scan(self):
        # half the pairs are relabelled copies; the rest may differ in size
        rng = random.Random(47)
        for i in range(160):
            p = random_poset(rng, 0, 7)
            q = relabelled(rng, p) if i % 2 else random_poset(rng, max(0, p.size - 1), p.size + 1)
            same = (p.size, brute_canonical_relations(p)) == (q.size, brute_canonical_relations(q))
            assert (p.canonical_key() == q.canonical_key()) == same

    def test_antichains_differ_only_by_size(self):
        antichains = [poset_from_relations(m, []) for m in range(MAX_POSET_SIZE + 1)]
        for p, q in itertools.product(antichains, repeat=2):
            assert (p.canonical_key() == q.canonical_key()) == (p.size == q.size)


class TestCatalog:
    def test_chain(self):
        p = named_poset("chain", 4)
        assert p.size == 4 and len(p.relations) == 6

    def test_butterfly_aliases(self):
        assert named_poset("butterfly").canonical_key() == named_poset("K22").canonical_key()
        assert named_poset("butterfly").canonical_key() == named_poset("Kst", 2, 2).canonical_key()

    def test_s_relations(self):
        p = named_poset("S")
        # b1 < a, b1 < b2 < b3, c < b3 (indices a,b1,b2,b3,c = 0..4)
        assert {(1, 0), (1, 2), (2, 3), (4, 3), (1, 3)} == set(p.relations)

    def test_kst_relation_count(self):
        for s, t in ((2, 2), (2, 3), (3, 4)):
            assert len(named_poset("Kst", s, t).relations) == s * t

    def test_crown(self):
        for ell in (2, 3, 4):
            p = named_poset("crown", ell)
            assert p.size == 2 * ell and len(p.relations) == 2 * ell
        assert named_poset("crown", 2).canonical_key() == named_poset("butterfly").canonical_key()

    def test_diamond3(self):
        p = named_poset("diamond", 3)
        assert p.size == 5 and p.height() == 3

    def test_unknown(self):
        with pytest.raises(PosetError, match="unknown"):
            named_poset("mystery")

    def test_bad_params(self):
        with pytest.raises(PosetError):
            named_poset("crown", 1)
        with pytest.raises(PosetError):
            named_poset("chain", 2, 3)


def height_two(k):
    """The members of path_hasse_family(k) of height 2."""
    return [p for p in path_hasse_family(k) if p.height() == 2]


class TestPathHasseFamily:
    def test_p4_contents(self):
        fam = path_hasse_family(4)
        assert len(fam) == 4
        assert any(p.canonical_key() == chain(4).canonical_key() for p in fam)
        assert any(p.canonical_key() == n_poset().canonical_key() for p in fam)
        # the two chain-plus-pendant posets are dual to each other
        rest = [
            p
            for p in fam
            if p.canonical_key() not in (chain(4).canonical_key(), n_poset().canonical_key())
        ]
        assert len(rest) == 2
        assert dual_poset(rest[0]).canonical_key() == rest[1].canonical_key()

    def test_height2_filters(self):
        (only,) = height_two(4)
        assert only.canonical_key() == n_poset().canonical_key()
        h2 = height_two(5)
        assert len(h2) == 2
        assert any(p.canonical_key() == w_poset().canonical_key() for p in h2)
        assert any(p.canonical_key() == m_poset().canonical_key() for p in h2)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_sizes_match_orientation_orbits(self, k):
        assert len(path_hasse_family(k)) == orbit_count(k)

    def test_derived_sizes(self):
        # frozen constants, derived by enumeration
        assert len(path_hasse_family(5)) == 10
        assert len(path_hasse_family(6)) == 16

    @pytest.mark.parametrize("k", range(2, 8))
    def test_members_shape(self, k):
        for p in path_hasse_family(k):
            assert p.size == k
            assert len(p.hasse_edges()) == k - 1

    def test_contains_chain_and_s(self):
        assert any(p.canonical_key() == chain(5).canonical_key() for p in path_hasse_family(5))
        assert any(p.canonical_key() == s_poset().canonical_key() for p in path_hasse_family(5))

    @pytest.mark.parametrize("k", (3, 5, 7))
    def test_odd_k_height2_duals(self, k):
        h2 = height_two(k)
        assert len(h2) == 2
        assert dual_poset(h2[0]).canonical_key() == h2[1].canonical_key()

    @pytest.mark.parametrize("k", (2, 4, 6))
    def test_even_k_height2_selfdual(self, k):
        h2 = height_two(k)
        assert len(h2) == 1
        assert dual_poset(h2[0]).canonical_key() == h2[0].canonical_key()

    @pytest.mark.parametrize("k", range(2, 7))
    def test_keeps_the_first_orientation_of_each_class(self, k):
        # edge i points up iff bit i is set; classes found by permutation scan
        first = {}
        for bits in range(1 << (k - 1)):
            rels = [(i, i + 1) if bits >> i & 1 else (i + 1, i) for i in range(k - 1)]
            p = poset_from_relations(k, rels)
            first.setdefault(brute_canonical_relations(p), p.relations)
        assert {p.relations for p in path_hasse_family(k)} == set(first.values())

    @pytest.mark.parametrize("k", range(2, 8))
    def test_built_once_equals_the_enumeration(self, k):
        # the uncached enumeration: every orientation, the first poset of each class
        first = {}
        for bits in range(1 << (k - 1)):
            rels = [(i, i + 1) if bits >> i & 1 else (i + 1, i) for i in range(k - 1)]
            p = poset_from_relations(k, rels)
            first.setdefault(p.canonical_relations(), p)
        expect = sorted(first.values(), key=lambda p: (p.height(), p.canonical_relations()))
        assert path_hasse_family(k) == expect
        assert path_hasse_family(k) == expect  # a second call returns the same posets

    def test_a_mutated_result_leaves_the_next_call_unchanged(self):
        fam = path_hasse_family(5)
        expect = list(fam)
        fam.clear()
        fam2 = path_hasse_family(5)
        fam2.append(chain(2))
        assert path_hasse_family(5) == expect

    def test_k_out_of_range(self):
        with pytest.raises(PosetError):
            path_hasse_family(9)

    def test_k8_size(self):
        assert len(path_hasse_family(8)) == orbit_count(8) == 64


def random_poset(rng, lo, hi):
    """A random poset of lo..hi elements, its labels shuffled."""
    m = rng.randint(lo, hi)
    density = rng.random()
    rels = [(a, b) for a in range(m) for b in range(a + 1, m) if rng.random() < density]
    perm = rng.sample(range(m), m)
    return poset_from_relations(m, [(perm[a], perm[b]) for a, b in rels])


def relabelled(rng, p):
    perm = rng.sample(range(p.size), p.size)
    return poset_from_relations(p.size, [(perm[a], perm[b]) for a, b in p.relations])


def brute_canonical_relations(p):
    """The least sorted relation list over all relabellings of p."""
    return min(
        tuple(sorted((perm[a], perm[b]) for a, b in p.relations))
        for perm in itertools.permutations(range(p.size))
    )


class TestCanonicalRelations:
    def test_random_posets_match_permutation_scan(self):
        rng = random.Random(41)
        for _ in range(300):
            p = random_poset(rng, 1, 6)
            assert p.canonical_relations() == brute_canonical_relations(p)

    @pytest.mark.parametrize("p", (fork(7), kst(4, 4), crown(4), diamond(6), chain(8),
                                   poset_from_relations(8, [(0, 1), (2, 3), (4, 5), (6, 7)])),
                             ids=("fork7", "kst44", "crown4", "diamond6", "chain8", "4xchain2"))
    def test_eight_elements_match_permutation_scan(self, p):
        assert p.canonical_relations() == brute_canonical_relations(p)

    def test_relabelling_invariant(self):
        rng = random.Random(43)
        for p in path_hasse_family(7):
            assert relabelled(rng, p).canonical_key() == p.canonical_key()

    def test_antichain(self):
        assert poset_from_relations(3, []).canonical_relations() == ()


class TestSizeCheckedBeforeAllocation:
    # crown(ell) has 2 * ell elements, so its smallest oversized case has 10
    @pytest.mark.parametrize("build, args", (
        (chain, (MAX_POSET_SIZE + 1,)),
        (kst, (1, MAX_POSET_SIZE)),
        (kst, (MAX_POSET_SIZE, 1)),
        (fork, (MAX_POSET_SIZE,)),
        (crown, (MAX_POSET_SIZE // 2 + 1,)),
        (diamond, (MAX_POSET_SIZE - 1,)),
    ), ids=("chain", "kst-1-t", "kst-s-1", "fork", "crown", "diamond"))
    def test_oversized_refused_before_relations_are_built(self, monkeypatch, build, args):
        def unreachable(*_):
            raise AssertionError("relations built for an oversized poset")

        monkeypatch.setattr(posets, "poset_from_relations", unreachable)
        with pytest.raises(PosetError, match="poset size"):
            build(*args)

    def test_largest_sizes_still_build(self):
        sizes = [chain(8).size, kst(1, 7).size, fork(7).size, crown(4).size, diamond(6).size]
        assert sizes == [MAX_POSET_SIZE] * 5


class TestHeight:
    def test_chain_height(self):
        assert chain(5).height() == 5

    def test_height2(self):
        assert n_poset().height() == 2
        assert kst(3, 3).height() == 2
        assert s_poset().height() == 3


def brute_orbits(p):
    """Automorphism orbits as frozensets, by enumerating every relabeling."""
    orbits = {a: {a} for a in range(p.size)}
    for perm in itertools.permutations(range(p.size)):
        if all((perm[a], perm[b]) in p.relations for a, b in p.relations):
            for a in range(p.size):
                orbits[a].add(perm[a])
    return {frozenset(o) for o in orbits.values()}


class TestOrbits:
    def test_counts(self):
        assert named_poset("butterfly").orbit_representatives() == (0, 2)
        assert n_poset().orbit_representatives() == (0, 1, 2, 3)
        assert len(kst(4, 4).orbit_representatives()) == 2
        for k in range(1, 9):
            assert chain(k).orbit_representatives() == tuple(range(k))
            assert poset_from_relations(k, []).orbit_representatives() == (0,)
        assert poset_from_relations(0, []).orbit_representatives() == ()

    @pytest.mark.parametrize("p", [
        kst(2, 2), kst(4, 4), kst(2, 5), n_poset(), w_poset(), m_poset(), s_poset(),
        crown(3), crown(4), fork(4), diamond(3), poset_from_relations(5, [(0, 1), (2, 3)]),
        poset_from_relations(6, []), *path_hasse_family(6),
        *(random_poset(random.Random(53 + i), 1, 7) for i in range(24)),
    ])
    def test_every_element_is_an_image_of_a_representative(self, p):
        reps = p.orbit_representatives()
        orbits = brute_orbits(p)
        assert sorted(min(o) for o in orbits) == list(reps)
        assert all(any(r in o for r in reps) for o in orbits)
