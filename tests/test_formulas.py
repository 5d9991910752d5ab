import itertools
import math
import re
from fractions import Fraction

import pytest

from posetturan.formulas import (
    butterfly_p2,
    chain_count_in_levels,
    closed_formula,
    katona_nagy,
    n_free,
    p5,
    p6_lower,
    sublattice,
)
from posetturan.lattice import (
    SetFamily,
    chains_meeting,
    count_k_chains,
    interval_family,
    level_family,
)
from posetturan.posets import chain, named_poset
from posetturan.search import la_exact, la_levels


def balanced_parts(n, tup):
    """True iff the gaps i1, i2-i1, ..., n-i_{k-1} pairwise differ by at most one."""
    parts = [tup[0]] + [b - a for a, b in zip(tup, tup[1:])] + [n - tup[-1]]
    return max(parts) - min(parts) <= 1


class TestClosedForms:
    def test_butterfly_values(self):
        assert butterfly_p2(5) == 30
        assert butterfly_p2(6) == 60
        assert butterfly_p2(7) == 140

    def test_p5_values(self):
        assert p5(4) == 10
        assert p5(5) == 15
        assert p5(6) == 30

    def test_p6_lower_values(self):
        assert p6_lower(4) == 13
        assert p6_lower(5) == 21

    def test_n_free_values(self):
        assert n_free(3) == 3
        assert n_free(4) == 6
        assert n_free(5) == 10

    @pytest.mark.parametrize("formula, forbidden", [(butterfly_p2, "butterfly"), (n_free, "N")])
    def test_maximum_from_the_stated_n_on(self, formula, forbidden):
        # the docstring says from which n on the construction's count is the
        # maximum; below that n, down to 2, la_exact finds more
        first = int(re.search(r"maximum\s+from\s+n\s+=\s+(\d+)\s+on", formula.__doc__).group(1))
        for n in range(2, 6):
            best = la_exact(n, [named_poset(forbidden)], chain(2)).optimum
            assert formula(n) == best if n >= first else formula(n) < best, n

    def test_range_check(self):
        with pytest.raises(ValueError):
            p5(3)
        with pytest.raises(ValueError):
            butterfly_p2(100)

    def test_dispatch(self):
        assert closed_formula("butterfly_p2", n=6) == 60
        assert closed_formula("sublattice", n=4, a=1, b=3) == 12
        with pytest.raises(ValueError):
            closed_formula("nope", n=4)
        with pytest.raises(ValueError):
            closed_formula("p5", n=6, a=1)


class TestSublattice:
    def test_example(self):
        assert sublattice(4, 1, 3) == 12

    def test_full_interval(self):
        assert sublattice(5, 0, 5) == 120

    def test_bad_endpoints(self):
        with pytest.raises(ValueError):
            sublattice(4, 3, 3)
        with pytest.raises(ValueError):
            sublattice(4, 2, 5)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_chain_oracle(self, n):
        for lo in range(1 << n):
            for hi in range(1 << n):
                if lo != hi and lo & hi == lo:
                    fam = interval_family(n, lo, hi)
                    expect = sublattice(n, lo.bit_count(), hi.bit_count())
                    assert chains_meeting(fam) == expect


class TestKatonaNagy:
    def test_t1_is_exact_for_middle_set(self):
        # a single middle set meets exactly floor(n/2)! * ceil(n/2)! chains
        for n in range(2, 8):
            mid = (1 << (n // 2)) - 1
            fam = SetFamily(n, [mid])
            assert chains_meeting(fam) == katona_nagy(n, 1)

    def test_exact_rational(self):
        val = katona_nagy(5, 2)
        assert isinstance(val, Fraction)
        assert val == Fraction(8, 5) * 12

    def test_bound_holds(self):
        import random

        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(2, 6)
            t = rng.randint(1, 5)
            fam = SetFamily(n, rng.sample(range(1 << n), min(t, 1 << n)))
            assert chains_meeting(fam) >= katona_nagy(n, len(fam))

    def test_bad_t(self):
        with pytest.raises(ValueError):
            katona_nagy(4, -1)

    def test_never_negative(self):
        # t n - t (t - 1) is negative past t = n + 1; the bound is 0 there
        assert katona_nagy(4, 16) == 0
        for n in range(1, 7):
            assert all(katona_nagy(n, t) >= 0 for t in range((1 << n) + 1))

    @pytest.mark.parametrize("n", [1, 4, 62])
    def test_t_at_most_the_sets_of_2n(self, n):
        # no family of 2^[n] has more than 2^n sets
        assert katona_nagy(n, 1 << n) is not None
        with pytest.raises(ValueError, match="t <= 2\\^n"):
            katona_nagy(n, (1 << n) + 1)


def brute_chain_count(n, ell, levels):
    fam = level_family(n, levels)
    return count_k_chains(fam, ell)


class TestChainCountInLevels:
    def test_example(self):
        assert chain_count_in_levels(6, 2, (2, 4)) == 90

    def test_single_level(self):
        assert chain_count_in_levels(5, 1, (2,)) == 10
        assert chain_count_in_levels(5, 2, (2,)) == 0

    def test_empty_levels(self):
        assert chain_count_in_levels(4, 2, ()) == 0

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            chain_count_in_levels(4, 2, (2, 1))
        with pytest.raises(ValueError):
            chain_count_in_levels(4, 2, (0, 5))

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("ell", (1, 2, 3))
    def test_matches_lattice_oracle(self, n, ell):
        for r in range(min(4, n + 2)):
            for tup in itertools.combinations(range(n + 1), r):
                assert chain_count_in_levels(n, ell, tup) == brute_chain_count(n, ell, tup)


class TestLaChainLevelsMax:
    """The best (k-1)-tuple for counting l-chains, asked of the level search:
    la_levels(n, [chain(k)], chain(l)) walks the tuples of fewer than k levels."""

    def test_n4_k3_ell2(self):
        rep = la_levels(4, [chain(3)], chain(2))
        assert rep.optimum == 12
        assert [1, 2] in rep.params["levels"] and [2, 3] in rep.params["levels"]

    def test_n6_k3_ell2(self):
        rep = la_levels(6, [chain(3)], chain(2))
        assert rep.optimum == 90
        assert [2, 4] in rep.params["levels"]

    def test_argmax_values_agree(self):
        rep = la_levels(7, [chain(4)], chain(2))
        for tup in rep.params["levels"]:
            assert len(tup) == 3 and chain_count_in_levels(7, 2, tup) == rep.optimum

    def test_balanced_argmax_exists(self):
        # counting maximal (k-1)-chains, some argmax tuple always has balanced gaps
        for n in range(2, 11):
            for k in (2, 3, 4):
                levels = la_levels(n, [chain(k)], chain(k - 1)).params["levels"]
                assert len(levels) <= 6  # every argmax tuple is listed
                assert any(balanced_parts(n, tup) for tup in levels)


class TestBalancedParts:
    def test_balanced(self):
        assert balanced_parts(6, (2, 4))
        assert balanced_parts(4, (1, 2))

    def test_unbalanced(self):
        assert not balanced_parts(6, (3, 4))
        assert not balanced_parts(6, (1, 5))
