"""Bitmask subsets of [n], set families, and full-chain counting.

Subsets of [n] are little-endian masks: bit i-1 set iff element i is in the
set. Families are stored sorted ascending by mask value, which is also a
linear extension of containment (A is a proper subset of B implies A < B as
integers).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

MAX_SCAN_N = 24      # 2^n-set passes: whole-lattice scans, level listings, hulls
MAX_CHAIN_N = 8      # chains_meeting: its 2^n-state walk and the n! chains it counts
MAX_FORMULA_N = 62   # SetFamily mask width, which bounds the cost of each mask operation


class DimensionError(ValueError):
    pass


def iter_bits(bits: int):
    """Indices of the set bits of ``bits``, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _check_n(n: int, cap: int):
    if not 1 <= n <= cap:
        raise DimensionError(f"dimension n={n} outside supported range 1..{cap}")


@dataclass(frozen=True)
class SetFamily:
    """A duplicate-free collection of subsets of [n]."""

    n: int
    members: tuple

    def __init__(self, n: int, members):
        _check_n(n, MAX_FORMULA_N)
        masks = sorted(set(members))
        if masks and not 0 <= masks[0] <= masks[-1] < (1 << n):
            raise ValueError(f"mask out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", tuple(masks))

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, mask):
        return mask in self._index

    @cached_property
    def _index(self):
        """mask -> member index."""
        return {mask: i for i, mask in enumerate(self.members)}

    @cached_property
    def above(self):
        """above[i]: bitset of the indices j with members[i] a proper subset of members[j].

        Member i has 2^(n - |A|) supersets in the lattice and m - i - 1 later
        members; whichever is cheaper is scanned, so dense families walk the
        supersets through the mask -> index table and sparse ones test pairs.
        """
        ms = self.members
        m = len(ms)
        full = (1 << self.n) - 1
        up = []
        for i, a in enumerate(ms):
            free = full ^ a
            bits = 0
            if 1 << free.bit_count() <= m - i:
                index = self._index
                sup = free
                while sup:
                    j = index.get(a | sup)
                    if j is not None:
                        bits |= 1 << j
                    sup = (sup - 1) & free
            else:
                for j in range(i + 1, m):
                    if a & ms[j] == a:
                        bits |= 1 << j
            up.append(bits)
        return tuple(up)

    @cached_property
    def below(self):
        """below[j]: bitset of the indices i with members[i] a proper subset of members[j]."""
        down = [0] * len(self.members)
        for i, ups in enumerate(self.above):
            bit = 1 << i
            for j in iter_bits(ups):
                down[j] |= bit
        return tuple(down)

    @cached_property
    def comparable(self):
        """comparable[i]: bitset of the indices j != i with members i and j nested."""
        return tuple(up | down for up, down in zip(self.above, self.below))

    def restrict(self, indices) -> "SetFamily":
        return SetFamily(self.n, [self.members[i] for i in indices])


@dataclass(frozen=True)
class ComparabilityComponents:
    """Partition of a family into connected components of its comparability graph."""

    family: SetFamily
    components: tuple       # tuple of tuples of member indices
    edge_counts: tuple      # containment pairs within each component

    @property
    def total_edges(self):
        return sum(self.edge_counts)


def level_family(n: int, ks) -> SetFamily:
    """All subsets of [n] whose size lies in ks."""
    _check_n(n, MAX_SCAN_N)
    levels = sorted(set(ks))
    for k in levels:
        if not 0 <= k <= n:
            raise ValueError(f"level index {k} out of range 0..{n}")
    masks = []
    for k in levels:
        # Gosper's next-combination step (HAKMEM 175): the k-sets in ascending order
        m = (1 << k) - 1
        masks.append(m)
        for _ in range(math.comb(n, k) - 1):
            ripple = m + (m & -m)
            m = ripple | ((m ^ ripple) >> 2) // (m & -m)
            masks.append(m)
    return SetFamily(n, masks)


def full_lattice(n: int) -> SetFamily:
    _check_n(n, MAX_SCAN_N)
    return SetFamily(n, range(1 << n))


# 2^[n] built once per n; member index = mask, so a bitset of masks selects a subfamily
cached_lattice = lru_cache(maxsize=None)(full_lattice)


def chain_count(avail: int, k: int, below) -> int:
    """Number of k-chains among the members whose bits are set in ``avail``.

    ``below[i]`` is the bitset of the members strictly below member i.
    """
    if k < 2:  # the empty chain, or one member
        return avail.bit_count() if k else 1
    tops = list(iter_bits(avail))
    # dp[i]: chains of the current length (from 2 up) whose top is member i
    dp = {i: (avail & below[i]).bit_count() for i in tops}
    for _ in range(k - 2):
        dp = {i: sum(dp[j] for j in iter_bits(avail & below[i])) for i in tops}
    return sum(dp.values())


def count_k_chains(family: SetFamily, k: int) -> int:
    """Number of k-element subsets of the family that are pairwise nested."""
    if k < 1:
        raise ValueError("chain length must be at least 1")
    m = len(family)
    if k == 1:
        return m
    if k > m:
        return 0
    return chain_count((1 << m) - 1, k, family.below)


def containment_pairs(family: SetFamily):
    """All ordered pairs (A, B) of members with A a proper subset of B, ascending."""
    ms = family.members
    return [(ms[i], ms[j]) for i, ups in enumerate(family.above) for j in iter_bits(ups)]


def convex_hull(family: SetFamily) -> SetFamily:
    """All sets sandwiched (inclusively) between two members."""
    _check_n(family.n, MAX_SCAN_N)
    ms = family.members
    hull = []
    for m in range(1 << family.n):
        if any(f & m == f for f in ms) and any(f & m == m for f in ms):
            hull.append(m)
    return SetFamily(family.n, hull)


def comparability_components(family: SetFamily) -> ComparabilityComponents:
    above, adj = family.above, family.comparable
    unseen = (1 << len(family)) - 1
    comps = []
    edges = []
    while unseen:
        # grow the component of the least unseen member breadth-first
        comp = frontier = unseen & -unseen
        while frontier:
            reach = 0
            for i in iter_bits(frontier):
                reach |= adj[i]
            frontier = reach & ~comp
            comp |= frontier
        unseen &= ~comp
        comps.append(tuple(iter_bits(comp)))
        edges.append(sum((above[i] & comp).bit_count() for i in comps[-1]))
    return ComparabilityComponents(family, tuple(comps), tuple(edges))


def chains_meeting(n: int, family: SetFamily) -> int:
    """Number of the n! full chains containing at least one member of the family.

    Counts the complement (chains avoiding the family) by extending chains one
    element at a time through the lattice.
    """
    if n > MAX_CHAIN_N:
        raise DimensionError(f"n={n} too large for full-chain enumeration (cap {MAX_CHAIN_N})")
    if family.n != n:
        raise ValueError("family dimension mismatch")
    member = family._index
    size = 1 << n
    ways = [0] * size
    ways[0] = 0 if 0 in member else 1
    for mask in range(1, size):  # every mask ^ bit below is smaller, so already counted
        if mask in member:
            continue
        total = 0
        rest = mask
        while rest:
            bit = rest & -rest
            total += ways[mask ^ bit]
            rest ^= bit
        ways[mask] = total
    return math.factorial(n) - ways[size - 1]


def complement_family(family: SetFamily) -> SetFamily:
    full = (1 << family.n) - 1
    return SetFamily(family.n, [full ^ m for m in family.members])


def interval_family(n: int, lo: int, hi: int) -> SetFamily:
    """The closed interval {F : lo subseteq F subseteq hi} as a family."""
    if lo & hi != lo:
        raise ValueError("interval endpoints not nested")
    free = hi ^ lo
    masks = []
    sub = free
    while True:
        masks.append(lo | sub)
        if sub == 0:
            break
        sub = (sub - 1) & free
    return SetFamily(n, masks)


def format_mask(mask: int) -> str:
    if mask == 0:
        return "{}"
    return " ".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)
