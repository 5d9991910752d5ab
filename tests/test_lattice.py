import itertools
import math
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetturan.constructions import CONSTRUCTIONS
from posetturan.embedding import count_copies
from posetturan.lattice import (
    TABLE_MIN_MEMBERS,
    DimensionError,
    SetFamily,
    cached_lattice,
    chain_count,
    chains_meeting,
    comparability_components,
    convex_hull,
    count_k_chains,
    interval_family,
    iter_bits,
    level_family,
)
from posetturan.posets import chain

families = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.lists(
        st.integers(min_value=0, max_value=(1 << n) - 1), max_size=10
    ).map(lambda masks: SetFamily(n, masks))
)


def brute_pairs(fam):
    return [
        (a, b)
        for a in fam.members
        for b in fam.members
        if a != b and a & b == a
    ]


def brute_chains_meeting(n, fam):
    member = set(fam.members)
    hits = 0
    for perm in itertools.permutations(range(n)):
        prefix = 0
        if 0 in member:
            hits += 1
            continue
        for i in perm:
            prefix |= 1 << i
            if prefix in member:
                hits += 1
                break
    return hits


def walk_chains_meeting(n, fam):
    """chains_meeting by its former walk over all 2^n masks: the chains that
    avoid the family, extended one element at a time, subtracted from n!."""
    member = set(fam.members)
    ways = [0] * (1 << n)
    ways[0] = 0 if 0 in member else 1
    for mask in range(1, 1 << n):  # every mask ^ bit below is smaller, so already counted
        if mask not in member:
            ways[mask] = sum(ways[mask ^ 1 << i] for i in range(n) if mask >> i & 1)
    return math.factorial(n) - ways[-1]


class TestLevelFamily:
    def test_single_level(self):
        assert len(level_family(4, [2])) == 6

    def test_two_levels_masks(self):
        assert level_family(3, [1, 3]).members == (1, 2, 4, 7)

    def test_sizes_sum(self):
        assert len(level_family(5, [2, 3])) == 20

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            level_family(3, [4])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_combinations(self, n):
        for r in range(n + 2):
            for ks in itertools.combinations(range(n + 1), r):
                expect = sorted(
                    sum(1 << b for b in bits)
                    for k in ks
                    for bits in itertools.combinations(range(n), k)
                )
                assert list(level_family(n, ks).members) == expect, ks


class TestCountKChains:
    def test_full_lattice_n2(self):
        assert count_k_chains(cached_lattice(2), 2) == 5

    def test_remark1_family(self):
        fam = SetFamily(3, [0, 1, 2, 4, 7])
        assert count_k_chains(fam, 2) == 7

    def test_antichain(self):
        assert count_k_chains(level_family(4, [2]), 2) == 0

    def test_k1_is_size(self):
        fam = SetFamily(3, [0, 3, 5])
        assert count_k_chains(fam, 1) == 3

    def test_bad_k(self):
        with pytest.raises(ValueError):
            count_k_chains(cached_lattice(2), 0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_full_lattice_pairs_closed_form(self, n):
        # pairs A strictly inside B: choose B's extra elements, 3^n - 2^n total
        assert count_k_chains(cached_lattice(n), 2) == 3**n - 2**n

    @given(families)
    @settings(max_examples=60, deadline=None)
    def test_matches_pair_enumeration(self, fam):
        assert count_k_chains(fam, 2) == len(brute_pairs(fam))

    def test_large_sub_families_match_chain_enumeration(self):
        # member bitsets on both sides of TABLE_MIN_MEMBERS bits, against every
        # k-subset; the rows stored, and as they are made (32 members), read once
        fam = cached_lattice(5)
        rng = random.Random(23)
        for width in (12, TABLE_MIN_MEMBERS - 1, TABLE_MIN_MEMBERS, len(fam)) * 3:
            avail = rng.getrandbits(width) | 1 << width - 1
            ms = [fam.members[i] for i in iter_bits(avail)]
            for k in range(6):
                expect = sum(
                    all(a & b == a for a, b in zip(c, c[1:]))
                    for c in itertools.combinations(ms, k)
                )
                assert chain_count(avail, k, fam.below) == expect, (avail, k)
                assert chain_count(avail, k, fam._rows[1]) == expect, (avail, k)


class TestContainmentPairs:
    # the containment pairs of a family are its 2-chains, and row i of above
    # lists the members that contain member i
    def test_two_sets(self):
        fam = SetFamily(3, [0, 7])
        assert fam.above == (0b10, 0) and count_k_chains(fam, 2) == 1

    def test_remark1_n4(self):
        fam = SetFamily(4, [0, 3, 5, 9, 6, 10, 12, 15])
        assert count_k_chains(fam, 2) == 13

    def test_level_pair(self):
        assert count_k_chains(level_family(5, [2, 3]), 2) == 30

    @given(families)
    @settings(max_examples=60, deadline=None)
    def test_length_equals_two_chains(self, fam):
        assert sum(map(int.bit_count, fam.above)) == count_k_chains(fam, 2)


class TestConvexHull:
    def test_span_everything(self):
        assert convex_hull(SetFamily(3, [0, 7])).members == tuple(range(8))

    def test_interval(self):
        assert convex_hull(SetFamily(3, [1, 7])).members == (1, 3, 5, 7)

    def test_antichain_fixed(self):
        fam = level_family(4, [2])
        assert convex_hull(fam) == fam

    @given(families)
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_extensive(self, fam):
        hull = convex_hull(fam)
        assert set(fam.members) <= set(hull.members)
        assert convex_hull(hull) == hull


class TestComparabilityComponents:
    def test_star(self):
        assert comparability_components(SetFamily(3, [0, 1, 2, 4])) == ((0, 1, 2, 3),)

    def test_singletons(self):
        assert comparability_components(level_family(3, [1])) == ((0,), (1,), (2,))

    @given(families)
    @settings(max_examples=60, deadline=None)
    def test_edges_sum_to_chain_count(self, fam):
        comps = comparability_components(fam)
        # every containment pair lies inside one component
        assert sum(count_k_chains(fam.restrict(c), 2) for c in comps) == count_k_chains(fam, 2)
        covered = sorted(i for comp in comps for i in comp)
        assert covered == list(range(len(fam)))


class TestChainsMeeting:
    def test_single_set(self):
        assert chains_meeting(SetFamily(4, [1])) == 6

    def test_empty_set_member(self):
        assert chains_meeting(SetFamily(4, [0])) == 24

    def test_interval(self):
        assert chains_meeting(interval_family(4, 1, 7)) == 12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_whole_lattice(self, n):
        assert chains_meeting(cached_lattice(n)) == math.factorial(n)

    def test_cap(self):
        with pytest.raises(DimensionError):
            chains_meeting(SetFamily(9, [1]))

    def test_reads_the_cached_lattice_not_the_family(self):
        # the members below each member come from cached_lattice(n).below
        fam = level_family(8, [3, 4, 5])
        assert chains_meeting(fam) == math.factorial(8)
        assert "below" not in fam.__dict__ and "_slices" not in fam.__dict__

    @given(families)
    @settings(max_examples=40, deadline=None)
    def test_matches_permutation_enumeration(self, fam):
        assert chains_meeting(fam) == brute_chains_meeting(fam.n, fam)

    def test_matches_permutation_enumeration_on_random_families(self):
        rng = random.Random(43)
        for _ in range(200):
            n = rng.randint(1, 6)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(0, 1 << n)))
            assert chains_meeting(fam) == brute_chains_meeting(n, fam), fam.members

    def test_matches_the_walk_on_random_families(self):
        rng = random.Random(23)
        for _ in range(3000):
            n = rng.randint(1, 8)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(0, min(40, 1 << n))))
            assert chains_meeting(fam) == walk_chains_meeting(n, fam), fam.members

    def test_matches_the_walk_on_every_interval(self):
        for n in range(1, 7):
            for hi in range(1 << n):
                lo = hi
                while True:  # every lo inside hi, down to the empty set
                    fam = interval_family(n, lo, hi)
                    assert chains_meeting(fam) == walk_chains_meeting(n, fam), (n, lo, hi)
                    if not lo:
                        break
                    lo = (lo - 1) & hi


class TestSetFamily:
    def test_dedup_and_sort(self):
        fam = SetFamily(3, [5, 1, 5, 0])
        assert fam.members == (0, 1, 5)

    def test_members_sorted_and_distinct_from_any_iterable(self):
        # the sort alone serves distinct masks; a repeat sits next to its twin
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randint(1, 8)
            masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 20))]
            expect = tuple(sorted(set(masks)))
            assert SetFamily(n, masks).members == expect
            assert SetFamily(n, iter(masks)).members == expect
        assert SetFamily(4, range(15, -1, -1)).members == tuple(range(16))
        assert SetFamily(4, [3, 3]).members == (3,)

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError):
            SetFamily(2, [4])


def pairwise_above(fam):
    """above[i] as a bitset, by testing every pair of members."""
    ms = fam.members
    return tuple(
        sum(1 << j for j, b in enumerate(ms) if a != b and a & b == a) for a in ms
    )


def pairwise_below(fam):
    ms = fam.members
    return tuple(
        sum(1 << j for j, b in enumerate(ms) if a != b and b & a == b) for a in ms
    )


def loop_slices(fam):
    """_slices by testing every element of every member."""
    return tuple(
        sum(1 << j for j, a in enumerate(fam.members) if a >> e & 1) for e in range(fam.n)
    )


def check_against_pairwise(fam):
    above, below = pairwise_above(fam), pairwise_below(fam)
    assert fam._slices == loop_slices(fam)
    ups, downs = fam._rows
    assert tuple(ups) == above
    assert tuple(downs) == below
    assert fam.above == above
    assert fam.below == below
    if len(fam) < TABLE_MIN_MEMBERS:  # the rows are stored once
        assert fam.above is ups and fam.below is downs
    else:  # and from there up made from the chunk tables
        assert not isinstance(ups, tuple) and not isinstance(downs, tuple)
    assert fam.comparable == tuple(up | down for up, down in zip(above, below))


def nested_masks(rng, n, m, extremes=()):
    """m distinct masks of [n], many of them nested: sparse and dense draws,
    and subsets and supersets of earlier masks."""
    full = (1 << n) - 1
    masks = set(extremes)
    while len(masks) < m:
        kind = rng.randrange(4)
        sparse = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
        if kind == 0 or not masks:
            masks.add(sparse)
        elif kind == 1:
            masks.add(full ^ sparse)
        else:
            base = rng.choice(sorted(masks))
            masks.add(base & rng.getrandbits(n) if kind == 2 else base | sparse)
    return masks


class TestTableRows:
    """The transpose and the chunk tables against the pairwise definition,
    on both sides of TABLE_MIN_MEMBERS."""

    # 8, 16 and 32 are the widest n, and 9, 17 and 33 the narrowest, of the
    # transpose's 8-, 16-, 32- and 64-bit numerals
    @pytest.mark.parametrize("n", (6, 7, 8, 9, 16, 17, 32, 33, 62))
    def test_sizes_around_the_threshold(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        for m in (TABLE_MIN_MEMBERS - 1, TABLE_MIN_MEMBERS, TABLE_MIN_MEMBERS + 1):
            for extremes in ((), (0,), (full,), (0, full)):
                for _ in range(3):
                    fam = SetFamily(n, nested_masks(rng, n, m, extremes))
                    assert len(fam) == m
                    check_against_pairwise(fam)

    @pytest.mark.parametrize("n", (3, 8, 20, 62))
    def test_every_size_up_to_past_the_threshold(self, n):
        # the pairwise pass below TABLE_MIN_MEMBERS, the chunk tables from there up;
        # the rows, above or below may be read first
        rng = random.Random(200 + n)
        for m in range(min(TABLE_MIN_MEMBERS + 1, 1 << n) + 1):
            for first in ("_rows", "above", "below"):
                for masks in (nested_masks(rng, n, m), rng.sample(range(1 << n), m)):
                    fam = SetFamily(n, masks)
                    getattr(fam, first)
                    check_against_pairwise(fam)

    def test_a_small_family_stores_both_directions_at_once(self):
        # reading either direction stores the rows of both, without the slices
        for first in ("above", "below"):
            fam = SetFamily(6, [0, 1, 3, 7, 12, 44])
            getattr(fam, first)
            assert fam.__dict__["_rows"] == (pairwise_above(fam), pairwise_below(fam))
            assert "_slices" not in fam.__dict__

    def test_empty_family(self):
        fam = SetFamily(5, [])
        assert (fam._slices, fam.above, fam.below, fam.comparable) == ((0,) * 5, (), (), ())

    def test_rows_are_stored_in_blocks_of_their_own_size(self):
        # an & result keeps the block of its shorter operand, so a row of
        # below, cleared of its own bit, would hold slack; each row is stored
        # in a block of its own size, which is what getsizeof reports (ints
        # up to 256 are shared)
        fam = CONSTRUCTIONS["p5"](12)
        assert len(fam) >= TABLE_MIN_MEMBERS
        fam._rows  # the family keeps its chunk tables
        for name in ("above", "below"):
            tracemalloc.start()
            try:
                rows = getattr(fam, name)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            stored = sys.getsizeof(rows) + sum(sys.getsizeof(row) for row in rows if row > 256)
            assert stored <= held < stored + 4096, name


class TestBitsetComparability:
    def test_iter_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert list(iter_bits(1 << 200 | 2)) == [1, 200]

    def test_random_families_match_pairwise_definition(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 6)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(0, 1 << n)))
            assert fam.above == pairwise_above(fam)
            assert fam.below == pairwise_below(fam)

    def test_comparable_is_the_symmetric_irreflexive_union(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(1, 6)
            fam = SetFamily(n, rng.sample(range(1 << n), rng.randint(0, 1 << n)))
            near = fam.comparable
            assert near == tuple(up | down for up, down in zip(fam.above, fam.below))
            for i, bits in enumerate(near):
                assert not bits >> i & 1
                assert all(near[j] >> i & 1 for j in iter_bits(bits))

    def test_sparse_n20_family_matches_pairwise(self):
        # the sets near the empty set AND few slices for above and nearly all
        # 20 for below; the sets near [20] the other way round
        n = 20
        full = (1 << n) - 1
        rng = random.Random(5)
        masks = {0, full, full ^ 1, full ^ 6, 1, 3} | {rng.getrandbits(n) for _ in range(40)}
        fam = SetFamily(n, masks)
        assert fam.above == pairwise_above(fam)
        assert fam.below == pairwise_below(fam)

    def test_sparse_n62_family_builds_fast(self):
        full = (1 << 62) - 1
        fam = SetFamily(62, [0, 1, 3, 1 << 61, full])
        start = time.perf_counter()
        above, below = fam.above, fam.below
        assert time.perf_counter() - start < 1.0
        assert above == pairwise_above(fam) and below == pairwise_below(fam)
        assert count_k_chains(fam, 3) == 5

    def test_constructions_match_pairwise(self):
        # with the middle two levels one step down, levels ceil(n/2) - 1 and ceil(n/2)
        builds = dict(CONSTRUCTIONS, lower=lambda n: level_family(n, [(n + 1) // 2 - 1, (n + 1) // 2]))
        for name, build in builds.items():
            for n in range(1, 13):
                try:
                    fam = build(n)
                except ValueError:  # below the construction's least n
                    continue
                check_against_pairwise(fam)

    def test_wide_family_matches_pairwise(self):
        rng = random.Random(40)
        fam = SetFamily(40, [rng.getrandbits(40) & rng.getrandbits(40) for _ in range(200)])
        assert len(fam) == 200
        assert fam.above == pairwise_above(fam)
        assert fam.below == pairwise_below(fam)

    def test_counting_two_chains_builds_no_above(self):
        # and keeps no below: a chain count reads below's rows as they are made
        for k, expect in ((2, 7 * math.comb(12, 7)), (3, 0)):
            copies, chains = CONSTRUCTIONS["middle-two-levels"](12), CONSTRUCTIONS["middle-two-levels"](12)
            assert count_copies(copies, chain(k)) == count_k_chains(chains, k) == expect
            for fam in (copies, chains):
                assert "above" not in fam.__dict__ and "below" not in fam.__dict__

    def test_counting_two_chains_streams_its_rows(self):
        # the rows are made one at a time: the kept below of the middle two
        # levels of 2^[14] would take about 2.2 MB
        fam = CONSTRUCTIONS["middle-two-levels"](14)
        fam._slices
        tracemalloc.start()
        try:
            assert count_k_chains(fam, 2) == 7 * math.comb(14, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
