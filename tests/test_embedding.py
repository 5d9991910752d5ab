import cProfile
import gc
import itertools
import pstats
import random
import tracemalloc

import pytest

from posetturan import embedding
from posetturan.embedding import (
    _plan,
    _search,
    completing_members,
    copy_supports,
    count_copies,
    embedding_using_member,
    find_any_embedding,
    find_embedding,
    is_free,
    minimal_posets,
)
from posetturan.constructions import CONSTRUCTIONS, middle_two_levels
from posetturan.lattice import (
    TABLE_MIN_MEMBERS,
    SetFamily,
    cached_lattice,
    chain_count,
    count_k_chains,
    iter_bits,
    level_family,
)
from posetturan.posets import (
    _canonical_form,
    chain,
    crown,
    dual_poset,
    fork,
    kst,
    n_poset,
    named_poset,
    path_hasse_family,
    poset_from_relations,
    s_poset,
    w_poset,
)
from posetturan.proofcheck import _find_graph_path, _max_antichain, _walks
from posetturan.search import la_exact

BFLY = named_poset("butterfly")


def brute_embeds(fam, poset):
    """Reference check over all injections."""
    for image in itertools.permutations(fam.members, poset.size):
        ok = True
        for a, b in poset.relations:
            if image[a] == image[b] or image[a] & image[b] != image[a]:
                ok = False
                break
        if ok:
            return True
    return False


class TestFindEmbedding:
    def test_four_chain_hosts_butterfly(self):
        fam = SetFamily(3, [0, 1, 3, 7])
        w = find_embedding(fam, BFLY)
        assert w is not None and w.check()

    def test_remark1_family_butterfly_free(self):
        assert find_embedding(SetFamily(3, [0, 1, 2, 4, 7]), BFLY) is None

    def test_antichain_has_no_2chain(self):
        assert find_embedding(level_family(4, [2]), chain(2)) is None

    def test_deterministic(self):
        fam = SetFamily(3, [0, 1, 3, 5, 7])
        w1 = find_embedding(fam, n_poset())
        w2 = find_embedding(fam, n_poset())
        assert w1 == w2

    def test_embedding_using_member(self):
        fam = SetFamily(3, [0, 1, 3, 7])
        # force the witness to use mask index 0 (the empty set)
        w = embedding_using_member(fam, chain(2), 0)
        assert w is not None and 0 in w.assignment


def catalog_posets(max_size):
    """Every catalog poset with at most max_size elements."""
    found = [named_poset(name) for name in ("butterfly", "N", "W", "M", "S")]
    for k in range(1, max_size + 1):
        found.append(named_poset("chain", k))
        found += [named_poset("Kst", s, k - s) for s in range(1, k)]
        if k >= 2:
            found.append(named_poset("fork", k - 1))
        if k >= 3:
            found.append(named_poset("diamond", k - 2))
        if k >= 4 and k % 2 == 0:
            found.append(named_poset("crown", k // 2))
    return [p for p in found if p.size <= max_size]


def reference_count_copies(family, q, within=None):
    """count_copies as it was before listing: one embedding search per
    |Q|-element selection of ``within``, so it checks the listing counter."""
    if within is None:
        within = (1 << len(family)) - 1
    if q.size == 1:
        return within.bit_count()
    if q.is_chain():
        return chain_count(within, q.size, family.below)
    return sum(
        find_embedding(family, q, sum(1 << i for i in combo)) is not None
        for combo in itertools.combinations(iter_bits(within), q.size)
    )


def reference_count_through(family, q, within, y):
    """The copies of Q inside ``within`` (None: the whole family) that hold
    member y, as the exact search once counted them for each removed mask.

    A chain is split at y into a chain below it and a chain above it; any
    other Q is listed with y pinned at the position of each orbit
    representative of Q, and refused past MAX_COPY_SUPPORTS supports.
    """
    if within is None:
        within = (1 << len(family)) - 1
    if q.is_chain():
        if not within >> y & 1:
            return 0
        if q.size == 2:
            return (within & family.comparable[y]).bit_count()
        down, up = within & family.below[y], within & family.above[y]
        return sum(chain_count(down, a, family.below) * chain_count(up, q.size - 1 - a, family.below)
                   for a in range(q.size))
    found = set()
    plan = _plan(q)
    for e in q.orbit_representatives():
        _search(family, q, plan, (plan[0].index(e), y), within, found)
    if len(found) > embedding.MAX_COPY_SUPPORTS:
        raise ValueError(f"copy counting stores at most {embedding.MAX_COPY_SUPPORTS} supports")
    return len(found)


def brute_images(fam, poset):
    """Every image tuple (indexed by poset element) of an embedding, by brute force."""
    images = []
    for image in itertools.permutations(fam.members, poset.size):
        if all(image[a] & image[b] == image[a] for a, b in poset.relations):
            images.append(image)
    return images


def reference_embedding(fam, poset):
    """The first embedding found by plain backtracking, as an assignment tuple.

    Elements are assigned in decreasing (in + out) degree, ties by index, and
    each takes the least member index comparable, in the right direction, to
    every element placed before it.
    """
    deg = [sum(a == e or b == e for a, b in poset.relations) for e in range(poset.size)]
    order = sorted(range(poset.size), key=lambda e: (-deg[e], e))
    ms = fam.members
    image = {}

    def extend(i):
        if i == len(order):
            return True
        e = order[i]
        for idx in range(len(ms)):
            if idx in image.values():
                continue
            if all(
                (not poset.less(f, e) or ms[j] & ms[idx] == ms[j])
                and (not poset.less(e, f) or ms[idx] & ms[j] == ms[idx])
                for f, j in image.items()
            ):
                image[e] = idx
                if extend(i + 1):
                    return True
                del image[e]
        return False

    if not extend(0):
        return None
    return tuple(ms[image[e]] for e in range(poset.size))


def using_member_reference(fam, poset, member_index, within=None):
    """embedding_using_member without the orbits: the member is pinned at every
    element's position in turn."""
    plan = _plan(poset)
    for i in range(poset.size):
        w = _search(fam, poset, plan, (i, member_index), within)
        if w is not None:
            return w
    return None


class TestCompiledPlans:
    # witnesses found before the plans were compiled; find_embedding must keep them
    PINNED = [
        (cached_lattice(4), BFLY, (0, 1, 3, 5)),
        (cached_lattice(4), n_poset(), (1, 0, 3, 2)),
        (cached_lattice(4), w_poset(), (2, 0, 3, 1, 5)),
        (cached_lattice(4), s_poset(), (4, 0, 1, 3, 2)),
        (cached_lattice(4), crown(3), (0, 1, 2, 3, 5, 7)),
        (level_family(5, [1, 2, 3]), w_poset(), (5, 1, 3, 2, 6)),
        (level_family(5, [1, 2, 3]), crown(3), (1, 2, 3, 7, 11, 19)),
        (level_family(5, [1, 2, 3]), chain(4), None),
        (SetFamily(4, [0, 1, 3, 5, 6, 7, 11, 15]), s_poset(), (3, 0, 1, 7, 5)),
    ]

    @pytest.mark.parametrize("fam, poset, assignment", PINNED)
    def test_find_embedding_witness_unchanged(self, fam, poset, assignment):
        w = find_embedding(fam, poset)
        assert (w and w.assignment) == assignment

    def test_using_member_matches_brute_force(self):
        rng = random.Random(17)
        posets = catalog_posets(5)
        for _ in range(12):
            n = rng.randint(2, 4)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(1, min(7, 1 << n))))
            for p in posets:
                images = brute_images(fam, p)
                for idx, mask in enumerate(fam.members):
                    within = {i for i in range(len(fam)) if i == idx or rng.random() < 0.6}
                    allowed = {fam.members[i] for i in within}
                    within = sum(1 << i for i in within)
                    for restrict, ok_masks in ((None, set(fam.members)), (within, allowed)):
                        expect = any(mask in img and ok_masks.issuperset(img) for img in images)
                        w = embedding_using_member(fam, p, idx, within=restrict)
                        assert (w is not None) == expect, (fam.members, p, idx, restrict)
                        if w is not None:
                            assert w.check() and mask in w.assignment
                            assert ok_masks.issuperset(w.assignment)

    def test_a_pin_at_any_position_matches_brute_force(self):
        # every element e, not only the orbit representatives, and every
        # member m: the pinned search finds a witness with e -> m exactly when
        # one exists inside within, and, as the unpinned search does, the one
        # whose member indices, read in plan order, are lexicographically least
        rng = random.Random(19)
        posets = catalog_posets(5)
        for _ in range(12):
            n = rng.randint(2, 4)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(1, min(7, 1 << n))))
            index = {mask: i for i, mask in enumerate(fam.members)}
            for p in posets:
                plan = _plan(p)
                order = plan[0]
                images = brute_images(fam, p)
                for m, mask in enumerate(fam.members):
                    within = rng.getrandbits(len(fam))
                    for restrict in (None, within):
                        ok = [img for img in images if restrict is None
                              or all(restrict >> index[x] & 1 for x in img)]
                        for e in range(p.size):
                            least = min((img for img in ok if img[e] == mask),
                                        key=lambda img: [index[img[a]] for a in order], default=None)
                            w = _search(fam, p, plan, (order.index(e), m), restrict)
                            assert (w and w.assignment) == least, (fam.members, p, e, m, restrict)

    def test_find_embedding_matches_reference_backtracker(self):
        rng = random.Random(41)
        posets = catalog_posets(5)
        for _ in range(40):
            n = rng.randint(1, 5)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(0, min(14, 1 << n))))
            for p in posets:
                w = find_embedding(fam, p)
                assert (w and w.assignment) == reference_embedding(fam, p), (fam.members, p)

    def test_find_embedding_is_the_least_image_in_plan_order(self):
        # the search tries candidates in ascending index order, position by
        # position of the plan, and its filters drop only dead candidates; so
        # its witness is the embedding whose member indices, read in plan
        # order, are lexicographically least
        rng = random.Random(59)
        posets = catalog_posets(5)
        for _ in range(300):
            n = rng.randint(1, 5)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(0, min(7, 1 << n))))
            index = {mask: i for i, mask in enumerate(fam.members)}
            for p in posets:
                order = _plan(p)[0]
                images = brute_images(fam, p)
                least = min(images, key=lambda img: [index[img[e]] for e in order], default=None)
                w = find_embedding(fam, p)
                assert (w and w.assignment) == least, (fam.members, p)

    def test_find_embedding_matches_reference_on_lattices(self):
        for fam in (cached_lattice(4), level_family(5, [1, 2, 3]), level_family(5, [2, 3])):
            for p in catalog_posets(5):
                w = find_embedding(fam, p)
                assert (w and w.assignment) == reference_embedding(fam, p), (fam.members, p)

    def test_within_must_hold_the_forced_member(self):
        fam = SetFamily(3, [0, 1, 3, 7])
        assert embedding_using_member(fam, chain(2), 0, within=0b110) is None
        assert embedding_using_member(fam, chain(2), 0, within=0b101) is not None


def reference_completing_members(fam, poset, x, within, candidates):
    """completing_members by brute force: every embedding of the poset into
    ``within | candidates``, assigned element by element in index order;
    each one that uses x and exactly one candidate adds that candidate."""
    ms = fam.members
    image = [None] * poset.size
    found = 0

    def extend(a, used):
        nonlocal found
        if a == poset.size:
            hosts = used & candidates
            if used >> x & 1 and hosts.bit_count() == 1:
                found |= hosts
            return
        for i in iter_bits((within | candidates) & ~used):
            if all(ms[image[b]] & ms[i] == ms[image[b]] for b in range(a) if poset.less(b, a)) \
                    and all(ms[i] & ms[image[b]] == ms[i] for b in range(a) if poset.less(a, b)):
                image[a] = i
                extend(a + 1, used | 1 << i)

    extend(0, 0)
    return found


def propagation_reference(fam, forbidden, within, free):
    """The members of free that la_exact dropped after an include before the
    listing: one forced embedding search per free member and forbidden poset."""
    return sum(1 << y for y in iter_bits(free)
               if any(embedding_using_member(fam, p, y, within | 1 << y) is not None
                      for p in forbidden))


class TestCompletingMembers:
    """The listing through x against brute force and against the per-member loop."""

    @staticmethod
    def cases(seed, count):
        # (lattice, chosen, x, candidates) at n <= 4, member index = mask
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(2, 4)
            masks = rng.sample(range(1 << n), rng.randint(2, min(10, 1 << n)))
            chosen = sum(1 << m for m in masks[2:rng.randint(2, len(masks))])
            candidates = sum(1 << m for m in masks[1:]) & ~chosen
            yield cached_lattice(n), chosen, masks[0], candidates

    def test_matches_brute_force(self):
        posets = catalog_posets(5)
        for fam, chosen, x, candidates in self.cases(61, 60):
            within = chosen | 1 << x
            for p in posets:
                got = completing_members(fam, p, x, within, candidates)
                assert got == reference_completing_members(fam, p, x, within, candidates), (
                    fam.n, chosen, x, candidates, p)

    def test_matches_the_per_member_loop(self):
        # as in la_exact: chosen is P-free, and so is chosen with any one candidate
        posets = catalog_posets(5)
        for fam, chosen, x, candidates in self.cases(67, 60):
            within = chosen | 1 << x
            for p in posets:
                if find_embedding(fam, p, chosen) is not None:
                    continue
                free = sum(1 << c for c in iter_bits(candidates)
                           if find_embedding(fam, p, chosen | 1 << c) is None)
                got = completing_members(fam, p, x, within, free)
                assert got == propagation_reference(fam, [p], within, free), (
                    fam.n, chosen, x, free, p)

    def test_plans_cover_every_role_of_x(self):
        # e ranges over the orbit representatives and f over every other
        # element but one with a smaller twin (same up- and down-sets) other than e
        for p in catalog_posets(5):
            roles = [(*set(range(p.size)) - set(order), order[0])
                     for order, *_ in embedding._through_plans(p)]
            twin = [(p.up_set(a), p.down_set(a)) for a in range(p.size)]
            assert roles == [(e, f) for e in p.orbit_representatives() for f in range(p.size)
                             if f != e and all(g == e or twin[g] != twin[f] for g in range(f))], p
        # butterfly: bottoms 0, 1 and tops 2, 3; x plays 1 or 3 only beside its twin
        assert [(*set(range(4)) - set(order), order[0])
                for order, *_ in embedding._through_plans(BFLY)] == [(0, 1), (0, 2), (2, 0), (2, 3)]


class TestMinimalPosets:
    @pytest.mark.parametrize("k, size", ((4, 1), (5, 3), (6, 3)))
    def test_path_family_sizes(self, k, size):
        assert len(minimal_posets(path_hasse_family(k))) == size

    def test_a_point_is_all_that_remains(self):
        for forbidden in ([chain(1)], [BFLY, chain(1), n_poset()], [chain(3), chain(1), chain(1)]):
            assert minimal_posets(forbidden) == [chain(1)]

    def test_keeps_order_and_one_of_each_class(self):
        assert minimal_posets([chain(3), BFLY, n_poset()]) == [chain(3), n_poset()]
        assert minimal_posets([w_poset(), dual_poset(w_poset())]) == [w_poset(), dual_poset(w_poset())]
        assert minimal_posets([n_poset(), dual_poset(n_poset())]) == [n_poset()]

    def test_dual_closed_lists_stay_dual_closed(self):
        lists = [path_hasse_family(k) for k in (4, 5, 6)]
        lists += [[p, dual_poset(p)] for p in catalog_posets(5)]
        lists.append([p for p in catalog_posets(5) if p.size == 4] + [fork(3), dual_poset(fork(3))])
        for forbidden in lists:
            keys = {p.canonical_key() for p in forbidden}
            if keys != {dual_poset(p).canonical_key() for p in forbidden}:
                continue
            kept = minimal_posets(forbidden)
            assert {p.canonical_key() for p in kept} == {dual_poset(p).canonical_key() for p in kept}

    def test_decisions_match_the_full_scan(self):
        rng = random.Random(71)
        posets = catalog_posets(5)
        lists = [path_hasse_family(4), path_hasse_family(5), [w_poset(), dual_poset(w_poset())]]
        for _ in range(200):
            n = rng.randint(1, 5)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(0, min(14, 1 << n))))
            forbidden = rng.choice(lists + [rng.sample(posets, rng.randint(1, 4))])
            scan = next((w for p in forbidden if (w := find_embedding(fam, p)) is not None), None)
            assert is_free(fam, forbidden) == (scan is None)
            assert find_any_embedding(fam, forbidden) == scan


class TestWithin:
    """A selection bitset over a family answers as the restricted family does."""

    @staticmethod
    def cases(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(1, 4)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(0, min(9, 1 << n))))
            within = sum(1 << i for i in range(len(fam)) if rng.random() < 0.7)
            yield fam, within, fam.restrict(iter_bits(within))

    def test_find_embedding_within_matches_restricted_family(self):
        posets = catalog_posets(5)
        for fam, within, sub in self.cases(61, 60):
            for p in posets:
                w = find_embedding(fam, p, within)
                ref = find_embedding(sub, p)
                assert (w and w.assignment) == (ref and ref.assignment), (fam.members, within, p)
                if w is not None:
                    assert w.family is fam and w.check()


def test_searches_leave_no_garbage():
    # A recursive closure refers to itself; unless the search drops it, each
    # call leaves a reference cycle for the collector.
    fam, small = cached_lattice(4), SetFamily(3, range(7))
    searches = {
        "embedding_using_member": lambda x: embedding_using_member(fam, BFLY, x),
        "completing_members": lambda x: completing_members(fam, BFLY, x, 1 << x | 0b1111, 1 << 15),
        "find_embedding": lambda x: find_embedding(fam, BFLY),
        "count_copies": lambda x: count_copies(fam, n_poset()),
        "la_exact": lambda x: la_exact(2, [BFLY], chain(2)),
        "_find_graph_path": lambda x: _find_graph_path(small, 6),
        "_max_antichain": lambda x: _max_antichain(small),
        "_walks": lambda x: next(_walks(cached_lattice(3).comparable, range(8), 6)),
        "height": lambda x: s_poset().height(),
        "path_hasse_family": lambda x: path_hasse_family(5),
        # a cleared cache makes every call compute the canonical form afresh
        "orbit_representatives": lambda x: (_canonical_form.cache_clear(),
                                            fork(4).orbit_representatives()),
        "canonical_key": lambda x: (_canonical_form.cache_clear(), w_poset().canonical_key()),
    }
    for search in searches.values():
        search(0)
    gc.collect()
    gc.disable()
    try:
        for name, search in searches.items():
            for x in range(16):
                search(x)
            assert gc.collect() == 0, name
    finally:
        gc.enable()


class TestIsFree:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_middle_levels_butterfly_free(self, n):
        lo = n // 2
        assert is_free(level_family(n, [lo, lo + 1]), [BFLY])

    def test_star_is_n_free(self):
        assert is_free(SetFamily(3, [0, 1, 2, 4]), [n_poset()])

    def test_remark1_family_not_n_free(self):
        assert not is_free(SetFamily(3, [0, 1, 2, 4, 7]), [n_poset()])

    def test_monotone_under_subfamilies(self):
        rng = random.Random(5)
        posets = [BFLY, n_poset(), chain(3)]
        for _ in range(30):
            n = rng.randint(2, 4)
            big = SetFamily(n, rng.sample(range(1 << n), rng.randint(2, 1 << n)))
            small = SetFamily(n, rng.sample(big.members, rng.randint(1, len(big))))
            for p in posets:
                if is_free(big, [p]):
                    assert is_free(small, [p])
                assert count_copies(small, p) <= count_copies(big, p)

    def test_agrees_with_brute_force(self):
        rng = random.Random(11)
        posets = [chain(2), chain(3), n_poset(), BFLY, kst(1, 2)]
        for _ in range(40):
            n = rng.randint(2, 4)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(1, min(10, 1 << n))))
            for p in posets:
                assert (find_embedding(fam, p) is not None) == brute_embeds(fam, p)

    def test_4chain_never_butterfly_free(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(3, 5)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(4, min(12, 1 << n))))
            if count_k_chains(fam, 4) > 0:
                assert find_embedding(fam, BFLY) is not None


class TestCountCopies:
    def test_p2_is_pair_count(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 5)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(0, min(12, 1 << n))))
            assert count_copies(fam, chain(2)) == count_k_chains(fam, 2)

    def test_antichain_has_no_n(self):
        assert count_copies(level_family(4, [2]), n_poset()) == 0

    def test_full_lattice_n2_3chains(self):
        # the 3-chains of 2^[2] are {} < {i} < {1,2} for i = 1, 2
        assert count_copies(cached_lattice(2), chain(3)) == 2

    def test_larger_poset_than_family(self):
        assert count_copies(SetFamily(3, [0, 7]), w_poset()) == 0

    def test_nonchain_brute_value(self):
        # supports of N inside the 5-set family, counted once per support
        fam = SetFamily(3, [0, 1, 2, 4, 7])
        supports = 0
        for combo in itertools.combinations(fam.members, 4):
            if brute_embeds(SetFamily(3, combo), n_poset()):
                supports += 1
        assert count_copies(fam, n_poset()) == supports

    def test_duality(self):
        rng = random.Random(13)
        posets = [n_poset(), w_poset(), kst(1, 2), chain(3), BFLY]
        for _ in range(25):
            n = rng.randint(2, 5)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(0, min(10, 1 << n))))
            full = (1 << n) - 1
            complement = SetFamily(n, [full ^ m for m in fam.members])
            for q in posets:
                assert count_copies(fam, q) == count_copies(complement, dual_poset(q))

    def test_matches_the_subset_counter(self):
        # every catalog poset of <= 5 elements on random families, with and
        # without a selection; the copies through y are the copies lost by
        # removing y, and none when y is not selected, both as the reference
        # counts them and as the listed supports that hold y
        rng = random.Random(71)
        posets = catalog_posets(5)
        cases = 0
        for _ in range(50):
            n = rng.randint(1, 5)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(0, min(10, 1 << n))))
            full = (1 << len(fam)) - 1
            within = sum(1 << i for i in range(len(fam)) if rng.random() < 0.7)
            for q in posets:
                for sel in (None, within):
                    ref = reference_count_copies(fam, q, sel)
                    # the selection as a family; its index j is fam's idx[j]
                    idx = range(len(fam)) if sel is None else list(iter_bits(sel))
                    sub = fam.restrict(idx)
                    assert count_copies(sub, q) == ref, (fam.members, q, sel)
                    supports = {tuple(idx[j] for j in s) for s in copy_supports(sub, q)}
                    assert len(supports) == ref, (fam.members, q, sel)
                    base = full if sel is None else sel
                    # each support is the sorted tuple of q.size distinct selected members
                    assert all(list(s) == sorted(set(s)) and len(s) == q.size
                               and all(base >> y & 1 for y in s) for s in supports)
                    for y in range(len(fam)):
                        expect = ref - reference_count_copies(fam, q, base & ~(1 << y))
                        got = reference_count_through(fam, q, sel, y)
                        assert got == expect, (fam.members, q, sel, y)
                        held = sum(y in s for s in supports)
                        assert held == expect, (fam.members, q, sel, y)
                        cases += 1
        assert cases > 8000

    def test_listing_refuses_past_the_support_cap(self, monkeypatch):
        fam = cached_lattice(3)
        copies = count_copies(fam, n_poset())
        through = reference_count_through(fam, n_poset(), None, 1)
        assert copies > through > 1
        monkeypatch.setattr(embedding, "MAX_COPY_SUPPORTS", copies)
        assert count_copies(fam, n_poset()) == copies
        assert len(copy_supports(fam, n_poset())) == copies
        monkeypatch.setattr(embedding, "MAX_COPY_SUPPORTS", through - 1)
        with pytest.raises(ValueError, match="supports"):
            count_copies(fam, n_poset())
        with pytest.raises(ValueError, match="supports"):
            copy_supports(fam, n_poset())
        with pytest.raises(ValueError, match="supports"):
            reference_count_through(fam, n_poset(), None, 1)
        # a chain is listed under the same cap, but counted without listing
        monkeypatch.setattr(embedding, "MAX_COPY_SUPPORTS", 17)
        assert count_copies(fam, chain(3)) == 18
        with pytest.raises(ValueError, match="supports"):
            copy_supports(fam, chain(3))

    def test_a_stored_copy_does_not_grow_with_the_family(self):
        # the 11,304 copies of N in the 300 highest-index members of the middle
        # two levels of 2^[14]: a support is a tuple of 4 member indices, about
        # 160 traced bytes, where a bitset over the 6,435 members takes 930
        fam = middle_two_levels(14)
        q = n_poset()
        sub = fam.restrict(range(len(fam) - 300, len(fam)))
        sub.above, sub.below, _plan(q)  # built before tracing starts
        tracemalloc.start()
        try:
            supports = copy_supports(sub, q)
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(supports) == 11304
        assert traced / len(supports) < 300


def per_neighbour_plan(plan):
    """``plan`` with each counted support (up, lower, upper, t) written as t
    one-neighbour supports (up, lower, upper), as ``_plan`` emitted them before
    twins were counted."""
    order, constraints, supports, needs, reads = plan
    supports = tuple(tuple(s[:3] for s in sup for _ in range(s[3])) for sup in supports)
    return order, constraints, supports, needs, reads


def per_neighbour_search(family, poset, plan, pin=None, within=None, found=None):
    """Reference for _search before counted supports: one look-ahead union per
    later neighbour, so twins build the same union twice. ``plan`` is a
    ``per_neighbour_plan``. Returns the witness assignment, or None."""
    order, constraints, supports, needs, _ = plan
    k = len(order)
    allowed = (1 << len(family.members)) - 1 if within is None else within
    if k > allowed.bit_count():
        return None
    above, below = family.above, family.below
    domain = [sum(1 << y for y in iter_bits(allowed)
                  if (above[y] & allowed).bit_count() >= u and (below[y] & allowed).bit_count() >= d)
              for u, d in needs]
    if pin is not None:
        i, m = pin
        domain[i] &= 1 << m
    image = [0] * k

    def extend(i, free):
        if i == k:
            if found is None:
                return True
            found.add(allowed ^ free)
            return False
        lower, upper = constraints[i]
        pool = free & domain[i]
        for j in lower:
            pool &= above[image[j]]
        for j in upper:
            pool &= below[image[j]]
        for up, p_lower, p_upper in supports[i]:
            dom = free
            for j in p_lower:
                dom &= above[image[j]]
            for j in p_upper:
                dom &= below[image[j]]
            reach = 0
            for y in iter_bits(dom):
                reach |= (below if up else above)[y]
            pool &= reach
        for y in iter_bits(pool):
            image[i] = y
            if extend(i + 1, free ^ 1 << y):
                return True
        return False

    if not extend(0, allowed):
        return None
    masks = [0] * k
    for i, e in enumerate(order):
        masks[e] = family.members[image[i]]
    return tuple(masks)


# the catalog posets of at most 5 elements hold the butterfly and K_{2,3}
TWIN_POSETS = catalog_posets(5) + [kst(3, 3), crown(3)]


def twin_families():
    """Random families and unions of levels, n <= 8."""
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(2, 6)
        yield SetFamily(n, rng.sample(range(1 << n), rng.randint(3, min(24, 1 << n))))
    for n in range(2, 9):
        yield level_family(n, [n // 2, n // 2 + 1])
        yield level_family(n, sorted(rng.sample(range(n + 1), rng.randint(2, 3))))


class TestCountedSupports:
    def test_twins_share_one_counted_support(self):
        # the two tops of a butterfly, placed after both bottoms
        assert _plan(BFLY)[2] == ((), ((True, (0,), (), 2),), (), ())
        assert [s[3] for sup in _plan(kst(3, 3))[2] for s in sup] == [3, 3]
        for p in TWIN_POSETS:
            for sup in _plan(p)[2]:
                assert len({s[:3] for s in sup}) == len(sup)

    def test_witnesses_refusals_and_copies_match_the_per_neighbour_search(self):
        for fam in twin_families():
            whole = (1 << len(fam)) - 1
            for p in TWIN_POSETS:
                plan = _plan(p)
                w = _search(fam, p, plan)
                assert (w and w.assignment) == per_neighbour_search(fam, p, per_neighbour_plan(plan)), \
                    (fam.members, p)
                if p.is_chain() or len(fam) > 30:
                    continue
                reference = set()
                per_neighbour_search(fam, p, per_neighbour_plan(plan), found=reference)
                assert copy_supports(fam, p) == {tuple(iter_bits(s)) for s in reference}, \
                    (fam.members, p)
                assert count_copies(fam, p) == len(reference), (fam.members, p)
                x = len(fam) // 2
                through = set()
                for e in p.orbit_representatives():
                    per_neighbour_search(fam, p, per_neighbour_plan(plan), (plan[0].index(e), x),
                                         whole, through)
                assert reference_count_through(fam, p, None, x) == len(through), (fam.members, p)

    def test_forced_witnesses_match_the_per_neighbour_search(self):
        rng = random.Random(31)
        for fam in twin_families():
            for p in TWIN_POSETS:
                x = rng.randrange(len(fam))
                within = rng.getrandbits(len(fam)) | 1 << x
                plan = _plan(p)
                for i in range(p.size):
                    w = _search(fam, p, plan, (i, x), within)
                    expect = per_neighbour_search(fam, p, per_neighbour_plan(plan), (i, x), within)
                    assert (w and w.assignment) == expect, (fam.members, p, i, x, within)

    def test_middle_levels_butterfly_refutation_steps(self):
        # each bottom of the butterfly on level 6 leaves no second bottom
        # below two tops above it: 1 root step + C(12, 6) steps
        fam = middle_two_levels(12)
        profile = cProfile.Profile()
        profile.enable()
        w = find_embedding(fam, BFLY)
        profile.disable()
        steps = sum(stat[1] for (path, _, name), stat in pstats.Stats(profile).stats.items()
                    if name == "extend" and path.endswith("embedding.py"))
        assert w is None and steps == 925


def stored_row_search(family, poset, plan, pin=None, within=None, found=None):
    """Reference for _search on rows made at placement: the search as it was
    when it read the stored ``above`` and ``below`` of every family. Returns
    the witness, or None; ``found`` collects the supports as ``_search`` does."""
    order, constraints, supports, needs, _ = plan
    k = len(order)
    allowed = (1 << len(family.members)) - 1 if within is None else within
    if k > allowed.bit_count():
        return None
    above, below = family.above, family.below
    domain = [allowed] * k
    fits = {}
    for i, (u, d) in enumerate(needs):
        if (u > 1 or d > 1) and (u, d) not in fits:
            bits = 0
            rest = allowed
            while rest:
                low = rest & -rest
                rest ^= low
                y = low.bit_length() - 1
                if ((not u or (above[y] & allowed).bit_count() >= u)
                        and (not d or (below[y] & allowed).bit_count() >= d)):
                    bits |= low
            fits[u, d] = bits
        domain[i] = fits.get((u, d), allowed)
    if pin is not None:
        i, m = pin
        domain[i] &= 1 << m
    image = [0] * k

    def extend(i, free):
        if i == k:
            if found is None:
                return True
            found.add(tuple(sorted(image)))
            return len(found) > embedding.MAX_COPY_SUPPORTS
        lower, upper = constraints[i]
        pool = free & domain[i]
        for j in lower:
            pool &= above[image[j]]
        for j in upper:
            pool &= below[image[j]]
        for up, p_lower, p_upper, t in supports[i]:
            dom = free
            for j in p_lower:
                dom &= above[image[j]]
            for j in p_upper:
                dom &= below[image[j]]
            toward = below if up else above
            count = [0] * t
            for y in iter_bits(dom):
                near = toward[y]
                for s in range(t - 1, 0, -1):
                    count[s] |= count[s - 1] & near
                count[0] |= near
            pool &= count[-1]
        while pool:
            low = pool & -pool
            pool ^= low
            image[i] = low.bit_length() - 1
            if extend(i + 1, free ^ low):
                return True
        return False

    if not extend(0, allowed):
        return None
    masks = [0] * k
    for i, e in enumerate(order):
        masks[e] = family.members[image[i]]
    return embedding.EmbeddingWitness(poset, family, tuple(masks))


class TestRowsOnDemand:
    """A family of TABLE_MIN_MEMBERS members or more is searched without its
    stored rows: each row is made from the chunk tables where it is read."""

    def test_unforced_searches_build_no_rows(self):
        fam = middle_two_levels(12)
        assert find_embedding(fam, BFLY) is None
        assert find_any_embedding(fam, [kst(2, 3), BFLY, n_poset()]).poset == n_poset()
        assert copy_supports(fam, BFLY) == set()
        sub = fam.restrict(range(60))
        assert len(copy_supports(sub, n_poset())) > 0
        for f in (fam, sub):
            assert "above" not in f.__dict__ and "below" not in f.__dict__

    @pytest.mark.parametrize("construction, forbidden", [
        ("p5", path_hasse_family(5)),
        ("middle-two-levels", [BFLY]),
    ], ids=["p5", "middle-two-levels"])
    def test_a_search_peaks_in_a_few_hundred_kib(self, construction, forbidden):
        # the stored rows of these 3,696 and 6,435 members took 1.8 and 4.1 MB
        fam = CONSTRUCTIONS[construction](14)
        fam._slices
        tracemalloc.start()
        try:
            assert find_any_embedding(fam, forbidden) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_witnesses_and_copies_match_the_stored_row_search(self, monkeypatch):
        # both listings stop at the same support past the cap, as copy_supports's does
        monkeypatch.setattr(embedding, "MAX_COPY_SUPPORTS", 2000)
        rng = random.Random(41)
        families = [SetFamily(n, rng.sample(range(1 << n), rng.randint(16, 40)))
                    for n in (6, 7, 8) for _ in range(4)]
        families += [level_family(6, [2, 3]), level_family(7, [3, 4]), level_family(6, [1, 3, 5])]
        assert {len(fam) < TABLE_MIN_MEMBERS for fam in families} == {True, False}
        for fam in families:
            for p in catalog_posets(5):
                plan = _plan(p)
                within = rng.getrandbits(len(fam))
                for w in (None, within):
                    got, expect = _search(fam, p, plan, within=w), stored_row_search(fam, p, plan, within=w)
                    assert (got and got.assignment) == (expect and expect.assignment), (fam.members, p, w)
                x = rng.randrange(len(fam))
                for i in range(p.size):
                    for w in (None, within | 1 << x):
                        got = _search(fam, p, plan, (i, x), w)
                        expect = stored_row_search(fam, p, plan, (i, x), w)
                        assert (got and got.assignment) == (expect and expect.assignment), \
                            (fam.members, p, i, x, w)
                listed, reference = set(), set()
                _search(fam, p, plan, found=listed)
                stored_row_search(fam, p, plan, found=reference)
                assert listed == reference, (fam.members, p)


def relabel(p, perm):
    return poset_from_relations(p.size, [(perm[a], perm[b]) for a, b in p.relations])


class TestFindAnyEmbedding:
    def test_matches_the_two_pass_scan_and_searches_each_poset_once(self, monkeypatch):
        rng = random.Random(83)
        posets = catalog_posets(5)
        searched = []

        def counted(family, poset, within=None):
            if family is fam:  # not the hosts minimal_posets searches
                searched.append(poset)
            return find_embedding(family, poset, within)

        for _ in range(150):
            n = rng.randint(1, 5)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(0, min(14, 1 << n))))
            forbidden = rng.sample(posets, rng.randint(1, 4))
            forbidden += rng.sample(forbidden, rng.randint(0, len(forbidden)))  # repeats
            forbidden += [relabel(p, rng.sample(range(p.size), p.size))  # isomorphic copies
                          for p in rng.sample(forbidden, rng.randint(0, min(2, len(forbidden))))]
            forbidden += [chain(5), w_poset()]  # above many others: not minimal
            rng.shuffle(forbidden)
            scan = None if is_free(fam, forbidden) else next(
                w for p in forbidden if (w := find_embedding(fam, p)) is not None)
            monkeypatch.setattr(embedding, "find_embedding", counted)
            got = find_any_embedding(fam, forbidden)
            monkeypatch.undo()
            assert got == scan
            assert all(searched.count(p) == 1 for p in searched), forbidden
            searched.clear()
