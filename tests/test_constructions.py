import math

import pytest

from posetturan.constructions import (
    middle_two_levels,
    n_free_construction,
    p5_construction,
    p6_construction,
)
from posetturan.embedding import is_free
from posetturan.lattice import (
    MAX_SCAN_N,
    DimensionError,
    comparability_components,
    count_k_chains,
    level_family,
)
from posetturan.posets import n_poset, named_poset, path_hasse_family

BFLY = named_poset("butterfly")


class TestMiddleTwoLevels:
    def test_n5(self):
        fam = middle_two_levels(5)
        assert fam == level_family(5, [2, 3])
        assert len(fam) == 20
        assert count_k_chains(fam, 2) == 30

    def test_levels_floor_half_and_one_more(self):
        assert middle_two_levels(4) == level_family(4, [2, 3])
        assert middle_two_levels(7) == level_family(7, [3, 4])

    def test_too_small(self):
        with pytest.raises(ValueError):
            middle_two_levels(1)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_chain_count_formula(self, n):
        expect = -(-n // 2) * math.comb(n, n // 2)
        assert count_k_chains(middle_two_levels(n), 2) == expect

    @pytest.mark.parametrize("n", range(2, 11))
    def test_butterfly_free(self, n):
        assert is_free(middle_two_levels(n), [BFLY])


class TestNFreeConstruction:
    def test_n3(self):
        fam = n_free_construction(3)
        assert fam.members == (0, 1, 2, 4)
        assert count_k_chains(fam, 2) == 3

    def test_n4(self):
        fam = n_free_construction(4)
        assert len(fam) == 7
        assert count_k_chains(fam, 2) == 6

    def test_n1(self):
        assert n_free_construction(1).members == (0, 1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_free_and_count(self, n):
        fam = n_free_construction(n)
        assert count_k_chains(fam, 2) == math.comb(n, n // 2)
        assert is_free(fam, [n_poset()])


class TestP5Construction:
    def test_n6(self):
        fam = p5_construction(6)
        assert len(fam) == 24
        assert count_k_chains(fam, 2) == 30

    def test_n4_blocks(self):
        fam = p5_construction(4)
        # blocks {S, S+3, S+4, S+34} for S in {{1},{2}}
        assert set(fam.members) == {1, 1 | 4, 1 | 8, 1 | 12, 2, 2 | 4, 2 | 8, 2 | 12}
        assert count_k_chains(fam, 2) == 10

    def test_too_small(self):
        with pytest.raises(ValueError):
            p5_construction(3)

    def test_too_large_refused(self):
        with pytest.raises(DimensionError, match="^dimension n=40 outside supported range 4..24$"):
            p5_construction(40)
        with pytest.raises(DimensionError):
            p5_construction(MAX_SCAN_N + 1)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_block_structure(self, n):
        fam = p5_construction(n)
        comps = comparability_components(fam)
        assert len(comps) == math.comb(n - 2, n // 2 - 1)
        assert all(len(c) == 4 for c in comps)
        # 4 cover pairs plus the diagonal in each 2-cube block
        assert all(count_k_chains(fam.restrict(c), 2) == 5 for c in comps)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_free_of_all_5_paths(self, n):
        assert is_free(p5_construction(n), path_hasse_family(5))

    @pytest.mark.parametrize("n", range(4, 10))
    def test_trace_level_identity(self, n):
        assert (n - 2) // 2 == n // 2 - 1


class TestP6Construction:
    def test_n4(self):
        fam = p6_construction(4)
        assert len(fam) == 8
        assert count_k_chains(fam, 2) == 13

    def test_n2(self):
        fam = p6_construction(2)
        assert fam.members == (0, 1, 2, 3)
        assert count_k_chains(fam, 2) == 5

    @pytest.mark.parametrize("n", range(2, 11))
    def test_count_and_wm_freeness(self, n):
        fam = p6_construction(n)
        assert count_k_chains(fam, 2) == 2 * math.comb(n, n // 2) + 1
        assert is_free(fam, [named_poset("W"), named_poset("M")])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_free_of_all_6_paths(self, n):
        assert is_free(p6_construction(n), path_hasse_family(6))


class TestLevelListingCap:
    def test_levels_refused_before_any_mask(self):
        class Unread:
            def __iter__(self):
                raise AssertionError("levels read for an oversized n")

        with pytest.raises(DimensionError):
            level_family(MAX_SCAN_N + 1, Unread())

    @pytest.mark.parametrize("build", (middle_two_levels, n_free_construction, p6_construction))
    def test_constructions_refuse_large_n(self, build):
        with pytest.raises(DimensionError):
            build(60)

    def test_cap_itself_still_accepted(self):
        assert len(level_family(MAX_SCAN_N, [0, 1, MAX_SCAN_N])) == MAX_SCAN_N + 2
