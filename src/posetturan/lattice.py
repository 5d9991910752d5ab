"""Bitmask subsets of [n], set families, and full-chain counting.

Subsets of [n] are little-endian masks: bit i-1 set iff element i is in the
set. Families are stored sorted ascending by mask value, which is also a
linear extension of containment (A is a proper subset of B implies A < B as
integers).

The cap block below holds every size cap of the package (each MAX_*), and
``_check_n`` is the one range check behind them: each refusal is a
``DimensionError`` reading "<what> outside supported range <lo>..<hi>",
raised before the refused request allocates.
"""
from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import compress, islice, repeat
from operator import and_, eq, lshift, rshift, xor

MAX_SCAN_N = 24      # 2^n-set passes: whole-lattice scans, level listings, intervals, hulls
MAX_CHAIN_N = 8      # chains_meeting: its oracles list the n! full chains; the count reads the cached 2^[n]
MAX_FORMULA_N = 62   # SetFamily mask width, which bounds the cost of each mask operation; the formulas' n
MAX_POSET_SIZE = 8   # posets: canonical labelling backtracks over up to size! labellings
MAX_COPY_SUPPORTS = 2_000_000  # embedding.copy_supports: about 160 bytes each for N, whatever the family's size
MAX_COLOR_N = 12     # proofcheck: coloring, critical-pair and zigzag checks read the 2^n-member cached lattice
MAX_COMPONENT_MEMBERS = 20  # proofcheck._max_antichain: branch and bound over up to 2^m member subsets

# The search caps; the CLI's parser reads MAX_EXACT_SEARCH_N from here
# without loading posetturan.search
MAX_EXACT_SEARCH_N = 6  # search.la_exact: 5-34 s per paper problem at n = 6 (2 vCPUs, Python 3.11.7); 2^128 families at n = 7
MAX_LEVEL_SEARCH_N = 16  # search.la_levels: up to 2^(n+1) level tuples, 7.5 s at n = 16 with nothing forbidden
MAX_LEVEL_GENERIC_N = 12  # search.la_levels with non-chain P at n = 12: paper posets 0.2-0.4 s, diamond(4) 7 s
MAX_LEVEL_GENERIC_Q_N = 8  # search.la_levels with non-chain Q: a copy listing per free tuple, 104 s for (chain(5), #N) at n = 8


# Families of at least this many members make their comparability rows
# (SetFamily._rows) from chunk tables, each when it is read; smaller ones
# store the rows of both directions from one pass over their pairs, which
# is faster there (the crossover sweeps are in CHANGES.md)
TABLE_MIN_MEMBERS = 24
_CHUNK = 6  # widest chunk of [n] in a table: 2^6 entries


class DimensionError(ValueError):
    pass


def iter_bits(bits: int):
    """Indices of the set bits of ``bits``, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class _TableRows:
    """Row i: the AND of the slices over the elements of members[i] ^ flip, less bit i.

    [n] is cut into chunks of at most _CHUNK elements. Each chunk has a table
    of the AND of its slices for every subset of the chunk, one AND per
    entry, so a row costs one AND per chunk, not one per element. Indexing
    makes one row, iterating makes all lazily, each in C; neither keeps any.
    """

    __slots__ = ("members", "flip", "width", "tables")

    def __init__(self, slices, members, flip):
        n, m = len(slices), len(members)
        self.members, self.flip = members, flip
        self.width = width = -(-n // -(-n // _CHUNK))  # the chunks' common width, balanced
        self.tables = []
        for lo in range(0, n, width):
            table = [(1 << m) - 1]
            for s in slices[lo:lo + width]:
                table += [t & s for t in table]
            self.tables.append(table)

    def __getitem__(self, i):
        pattern, width = self.members[i] ^ self.flip, self.width
        low = (1 << width) - 1
        bits = self.tables[0][pattern & low]
        for table in self.tables[1:]:
            pattern >>= width
            bits &= table[pattern & low]
        return bits ^ 1 << i

    def __iter__(self):
        members, flip, width = self.members, self.flip, self.width
        low, rows = (1 << width) - 1, None
        for c, table in enumerate(self.tables):
            # each row's pattern in chunk c: (members[i] ^ flip) >> c * width & low
            parts = map(and_, map(rshift, map(xor, members, repeat(flip)), repeat(c * width)), repeat(low))
            column = map(table.__getitem__, parts)
            rows = column if rows is None else map(and_, rows, column)
        return map(xor, rows, map(lshift, repeat(1), range(len(members))))


def _pair_rows(members):
    """(up, down): the rows of ``above`` and ``below`` of ascending distinct masks, from
    their pairs i < j: a pair whose AND is members[i] sets bit j of up[i] and bit i of down[j]."""
    up, down = [0] * len(members), []
    for j, b in enumerate(members):
        bit, row, i = 1 << j, 0, 0
        for a in members[:j]:
            if a & b == a:
                up[i] |= bit
                row |= 1 << i
            i += 1
        down.append(row)
    return tuple(up), tuple(down)


def _check_n(n: int, hi: int, lo: int = 1, what: str = "dimension n="):
    """Refuse n outside lo..hi; ``what`` names n in the message, which is made only on a refusal."""
    if not lo <= n <= hi:
        raise DimensionError(f"{what}{n} outside supported range {lo}..{hi}")


class SetFamily:
    """A duplicate-free collection of subsets of [n].

    Immutable, with equality and hash over (n, members); the comparability
    bitsets below are computed on first use and kept in the instance dict.
    """

    def __init__(self, n: int, members):
        _check_n(n, MAX_FORMULA_N)
        masks = sorted(members)
        if any(map(eq, masks, islice(masks, 1, None))):  # a repeat sits next to its twin
            masks = sorted(set(masks))
        if masks and not 0 <= masks[0] <= masks[-1] < (1 << n):
            raise ValueError(f"mask out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", tuple(masks))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.members) == (other.n, other.members)

    def __hash__(self):
        return hash((self.n, self.members))

    def __repr__(self):
        return f"SetFamily(n={self.n!r}, members={self.members!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

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
    def _slices(self):
        """_slices[e]: bitset of the indices of the members that hold element e.

        A bit-matrix transpose: the members as fixed-width binary numerals,
        highest first, in one string; digit e of each member, read at a
        stride of one numeral, is slice e.
        """
        ms, n = self.members, self.n
        if not ms:
            return (0,) * n
        import struct  # here, so import posetturan does not load it

        k = (n > 8) + (n > 16) + (n > 32)
        width = 8 << k
        raw = struct.pack(f"<{len(ms)}{'BHIQ'[k]}", *ms)
        digits = format(int.from_bytes(raw, "little"), f"0{width * len(ms)}b")
        return tuple(int(digits[width - 1 - e::width], 2) for e in range(n))

    @cached_property
    def _rows(self):
        """(ups, downs): the rows of ``above`` and ``below``, stored or made when read.

        Under TABLE_MIN_MEMBERS members both are stored, from one pass over
        the pairs (``_pair_rows``); from there up, chunk tables make each row
        when it is read. A superset comes later in the ascending order, so up
        row i is the later indices that hold every element of members[i]: the
        AND of the slices of its elements. A subset comes earlier, so down row
        j is the earlier indices that hold no element outside members[j]: the
        AND of the complements (within the m member bits) of the slices of the
        elements it lacks. Each AND holds the member itself; its row clears it.
        """
        ms = self.members
        if len(ms) < TABLE_MIN_MEMBERS:
            return _pair_rows(ms)
        slices = self._slices
        lacks = [((1 << len(ms)) - 1) ^ s for s in slices]
        return _TableRows(slices, ms, 0), _TableRows(lacks, ms, (1 << self.n) - 1)

    @cached_property
    def _degrees(self):
        """(ups, downs): how many members lie above, resp. below, each member; one pass per source."""
        ups, downs = self._rows
        return tuple(map(int.bit_count, ups)), tuple(map(int.bit_count, downs))

    @cached_property
    def above(self):
        """above[i]: bitset of the indices j with members[i] a proper subset of members[j]."""
        return tuple(self._rows[0])  # a stored tuple is its own copy

    @cached_property
    def below(self):
        """below[j]: bitset of the indices i with members[i] a proper subset of members[j]."""
        downs = self._rows[1]
        if isinstance(downs, tuple):
            return downs
        # an & result keeps the block of its shorter operand, and clearing bit
        # j can shorten a row a lot, so x & x copies it into a block of its own size
        return tuple(x & x for x in downs)

    @cached_property
    def comparable(self):
        """comparable[i]: bitset of the indices j != i with members i and j nested."""
        return tuple(up | down for up, down in zip(self.above, self.below))

    def restrict(self, indices) -> "SetFamily":
        return SetFamily(self.n, [self.members[i] for i in indices])


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


@lru_cache(maxsize=None)
def cached_lattice(n: int) -> SetFamily:
    """2^[n], built once per n; member index = mask, so a bitset of masks selects a subfamily."""
    _check_n(n, MAX_SCAN_N)
    return SetFamily(n, range(1 << n))


def chain_count(avail: int, k: int, rows) -> int:
    """Number of k-chains among the members whose bits are set in ``avail``.

    ``rows`` gives, in member order, the bitset of the members strictly
    below each member (``SetFamily._rows[1]``, stored or made as it is read).
    It is read once, in order, and not past the top member of ``avail``.
    """
    if k < 2:  # the empty chain, or one member
        return avail.bit_count() if k else 1
    # the rows of the members of avail: avail's digits, lowest first, as 0/1 flags
    picks = bin(avail)[:1:-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))
    if k == 2:
        return sum(map(int.bit_count, map(and_, repeat(avail), compress(rows, picks))))
    # tops[l][i]: the chains of l + 2 members of avail whose top is member i;
    # the members below i come earlier, so theirs are in by then
    tops = [{} for _ in range(k - 2)]
    total = 0
    for i, row in compress(enumerate(rows), picks):
        down = list(iter_bits(avail & row))
        c = len(down)
        for t in tops:
            t[i] = c
            c = sum(map(t.__getitem__, down))
        total += c
    return total


def count_k_chains(family: SetFamily, k: int) -> int:
    """Number of k-element subsets of the family that are pairwise nested."""
    if k < 1:
        raise ValueError("chain length must be at least 1")
    m = len(family)
    if k > m:
        return 0
    return chain_count((1 << m) - 1, k, family._rows[1])


def convex_hull(family: SetFamily) -> SetFamily:
    """All sets sandwiched (inclusively) between two members."""
    _check_n(family.n, MAX_SCAN_N)
    ms = family.members
    hull = []
    for m in range(1 << family.n):
        if any(f & m == f for f in ms) and any(f & m == m for f in ms):
            hull.append(m)
    return SetFamily(family.n, hull)


def comparability_components(family: SetFamily) -> tuple:
    """The components of the comparability graph, as tuples of member indices."""
    adj = family.comparable
    unseen = (1 << len(family)) - 1
    comps = []
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
    return tuple(comps)


@lru_cache(maxsize=None)
def _chain_tables(n: int):
    """chains_meeting's tables at n: k! for k = 0..n, 2^[n]'s ``below`` and each mask's size."""
    return [math.factorial(k) for k in range(n + 1)], cached_lattice(n).below, [m.bit_count() for m in range(1 << n)]


def chains_meeting(family: SetFamily) -> int:
    """Number of the n! full chains of 2^[n], n = family.n, containing at least one member.

    Counts each chain at its first (least) member. Of the |B|! chains from
    the empty set up to member B, first[B] avoid every member below B:
    first[B] = |B|! - sum over members A below B of first[A] * (|B| - |A|)!.
    Members come in ascending order, so every A is counted before B, and
    the result is the sum of first[B] * (n - |B|)!. The members below B are
    read off the cached 2^[n], whose member index is the mask, so the
    family's own comparability bitsets are not built; the factorials, that
    ``below`` and the mask sizes are tables kept per n.
    """
    n = family.n
    _check_n(n, MAX_CHAIN_N, what="chains_meeting n=")
    fact, below, size = _chain_tables(n)
    first = [0] * (1 << n)  # first[B] for the members B seen so far, indexed by mask
    seen = total = 0        # seen: bitset of those masks
    for b in family.members:
        s, lower = size[b], below[b] & seen
        f = fact[s]
        if lower:
            f -= sum(first[a] * fact[s - size[a]] for a in iter_bits(lower))
        first[b] = f
        seen |= 1 << b
        total += f * fact[n - s]
    return total


def interval_family(n: int, lo: int, hi: int) -> SetFamily:
    """The closed interval {F : lo subseteq F subseteq hi} as a family."""
    _check_n(n, MAX_SCAN_N)
    if not 0 <= hi < 1 << n:  # SetFamily's refusal, before the 2^|hi - lo| sets are listed
        raise ValueError(f"mask out of range for n={n}")
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


# _BYTE_NAMES[k][b]: the elements of byte k of a mask whose byte k is b, each
# followed by a space; grown on first use, at most 8 tables for a member
_BYTE_NAMES = []


def format_mask(mask: int) -> str:
    if mask == 0:
        return "{}"
    if mask >> 64:  # past the 8 tables (no member is), or negative
        return " ".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)
    text = ""
    k = 0
    while mask:
        if k == len(_BYTE_NAMES):
            names = [""]
            for e in range(8 * k + 1, 8 * k + 9):
                names += [t + f"{e} " for t in names]
            _BYTE_NAMES.append(names)
        text += _BYTE_NAMES[k][mask & 255]
        mask >>= 8
        k += 1
    return text[:-1]
