"""Mechanized checks of the counting machinery used in the upper-bound proofs.

Blue/red colorings with critical pairs, the N-free component classification,
the W-or-M selection from zigzag six-sequences, the Erdos-Gallai edge bound
for path-free comparability graphs, and per-component diagnostics for families
avoiding all 5-element path posets.
"""
from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from functools import lru_cache

from .embedding import find_any_embedding, find_embedding, minimal_posets
from .lattice import (
    MAX_CHAIN_N,
    MAX_COLOR_N,
    MAX_COMPONENT_MEMBERS,
    SetFamily,
    _check_n,
    cached_lattice,
    chain_count,
    chains_meeting,
    comparability_components,
    convex_hull,
    count_k_chains,
    interval_family,
    iter_bits,
)
from .formulas import katona_nagy, sublattice
from .posets import m_poset, n_poset, path_hasse_family, w_poset


class NotFreeError(ValueError):
    """Raised when an operation's freeness precondition fails; carries the witness."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class Coloring(namedtuple("Coloring", "n family threshold blue critical_pairs")):
    """Blue/red labels for all of 2^[n] relative to a family and threshold t.

    A mask is blue iff it is strictly contained in at least t family members;
    ``blue`` is the bitset of blue masks: bit m is set iff mask m is blue.
    Critical pairs are the blue-to-red steps of size one.
    """

    __slots__ = ()


def color_family(family: SetFamily, t: int) -> Coloring:
    """The coloring of 2^[n], n = family.n, by the family with threshold t."""
    n = family.n
    _check_n(n, MAX_COLOR_N, what="coloring n=")
    if t < 1:
        raise ValueError("threshold must be at least 1")
    lattice = cached_lattice(n)
    above = lattice.above
    members = sum(1 << f for f in family.members)
    blue = 0
    for mask in range(1 << n):
        if (above[mask] & members).bit_count() >= t:
            blue |= 1 << mask
    # g is the bottom of a critical pair with top g | {i} iff g is blue, lacks i, and bit
    # g + 2^i of blue is clear; the lattice's slice i has the bits of the masks with i
    pairs = sorted(
        (g, g | 1 << i)
        for i, has in enumerate(lattice._slices)
        for g in iter_bits(blue & ~(has | blue >> (1 << i)))
    )
    return Coloring(n, family, t, blue, tuple(pairs))


def check_one_critical_pair_per_chain(coloring: Coloring) -> bool:
    """True iff every full chain of 2^[n], n = coloring.n, contains at most one critical pair.

    Two critical pairs can share a full chain only if all four sets nest, so it
    suffices to test whether any pair's red top fits inside another pair's blue
    bottom: one bitset of the bottoms, tested against each top's up-set. (The n!
    chains are never materialized; tests cross-check against a permutation
    enumeration at small n.)
    """
    n = coloring.n
    _check_n(n, MAX_COLOR_N, what="critical-pair check n=")
    above = cached_lattice(n).above
    bottoms = 0
    for g, _ in coloring.critical_pairs:
        bottoms |= 1 << g  # pairs share bottoms, so OR, not a sum
    return not any((above[gp] | 1 << gp) & bottoms for _, gp in coloring.critical_pairs)


class ComponentClass(namedtuple("ComponentClass", "kind members center", defaults=(None,))):
    """Classification of one comparability component of an N-free family.

    ``kind`` is "triangle" or "star", ``members`` the masks, and ``center``
    the star's center mask (None for triangles).
    """

    __slots__ = ()


def classify_nfree_components(family: SetFamily):
    """Tag each comparability component of an N-free family as triangle or star."""
    witness = find_any_embedding(family, [n_poset()])
    if witness is not None:
        raise NotFreeError("family is not N-free", witness)
    below, comparable, ms = family.below, family.comparable, family.members
    out = []
    for comp in comparability_components(family):
        bits = sum(1 << i for i in comp)
        masks = tuple(ms[i] for i in comp)
        if chain_count(bits, 3, below) > 0:
            # N-freeness forces a 3-chain component to be exactly a triangle
            assert len(comp) == 3 and chain_count(bits, 2, below) == 3
            out.append(ComponentClass("triangle", masks))
        else:
            # a star's center is comparable with all others; a singleton is its own center
            others = len(comp) - 1
            centers = [i for i in comp if (comparable[i] & bits).bit_count() == others]
            assert centers
            out.append(ComponentClass("star", masks, ms[centers[0]]))
    return out


class ZigzagWitness(namedtuple("ZigzagWitness", "which indices")):
    """``which`` is "W" or "M"; ``indices`` five 0-based positions into the input sequence."""

    __slots__ = ()


def _zigzag_dirs(seq):
    """(dirs, start, length, direction) in one pass over the sequence.

    ``dirs`` holds each step's direction, 1 up or -1 down; the rest describe the
    first longest constant-direction run, its length counted in sets.
    """
    dirs = []
    best = (0, 1, 0)
    begin = prev = 0
    for i, (a, b) in enumerate(zip(seq, seq[1:])):
        if a == b:
            raise ValueError("sequence elements must be distinct")
        if a & b == a:
            d = 1
        elif a & b == b:
            d = -1
        else:
            raise ValueError("consecutive sets must be comparable")
        if d != prev:
            begin, prev = i, d
        dirs.append(d)
        if i - begin + 2 > best[1]:
            best = (begin, i - begin + 2, d)
    return (dirs, *best)


def zigzag_find_WM(n: int, seq) -> ZigzagWitness:
    """Select five of six alternately-comparable distinct sets forming W or M.

    Implements the case analysis on the longest consecutive chain run, then
    re-verifies the selection with the embedding engine. A 5-chain hosts both
    posets and is reported as W.
    """
    return ZigzagWitness(*_find_WM(n, seq)[0])


def _find_WM(n, seq):
    """((which, indices) of zigzag_find_WM, the length of the sequence's longest chain run)."""
    seq = list(seq)
    if len(seq) != 6 or len(set(seq)) != 6:
        raise ValueError("need 6 distinct sets")
    _check_n(n, MAX_COLOR_N, what="zigzag n=")
    if min(seq) < 0 or max(seq) >= 1 << n:
        raise ValueError(f"need subsets of [{n}]")
    dirs, start, m, direction = _zigzag_dirs(seq)
    return _zigzag_select(n, seq, dirs, start, m, direction), m


def _zigzag_select(n, seq, dirs, start, m, direction):
    """(which, indices): the label "W" or "M" and the five selected positions.

    The selection is checked to host its label; a failed check raises
    AssertionError. A strictly alternating sequence (m == 2) selects the
    window ``seq[:5]``.
    """
    if m >= 5:
        which, indices = "W", tuple(range(start, start + 5))
    elif direction == -1:
        # complementing every set reverses the order, so the complements ascend
        # where the sets descend: solve that case on the directions alone, swap the label
        which, indices = _zigzag_ascending([-d for d in dirs], start, m)
        which = "W" if which == "M" else "M"
    else:
        which, indices = _zigzag_ascending(dirs, start, m)
    target = w_poset() if which == "W" else m_poset()
    if not _hosts(n, target, [seq[i] for i in indices]):
        raise AssertionError(f"zigzag case analysis produced an invalid {which} selection")
    return which, indices


def _zigzag_ascending(dirs, start, m):
    """(which, indices) for a longest run of m < 5 sets that ascends."""
    i = start + 1  # 1-based position of the run start, as in the case analysis
    if m == 4:
        if i >= 2:
            return "W", (i - 2, i - 1, i + 1, i, i + 2)
        return "M", (0, 2, 1, 3, 4)
    if m == 3:
        if i <= 2:
            if dirs[i + 2] == 1:  # edge between A_{i+3} and A_{i+4} ascends
                return "W", (i, i - 1, i + 1, i + 2, i + 3)
            return "W", (i, i - 1, i + 1, i + 3, i + 2)
        if dirs[i - 3] == 1:  # A_{i-2} below A_{i-1}
            return "M", (i - 3, i - 2, i - 1, i + 1, i)
        return "M", (i - 2, i - 3, i - 1, i + 1, i)
    # m == 2: strictly alternating; an ascending first step of the window
    # makes A_1..A_5 an M (three minima), otherwise a W
    return "M" if dirs[0] == 1 else "W", (0, 1, 2, 3, 4)


# (poset size, poset relations, selection size, containment order of the selection) -> hosts
_HOSTS = {}


def _hosts(n, poset, masks) -> bool:
    """Whether the distinct subsets ``masks`` of [n] host the poset.

    The answer depends only on which mask contains which, so the engine runs
    once per poset, selection size and containment order (``_order``).
    """
    key = (poset.size, poset.relations, len(masks), _order(masks))
    hit = _HOSTS.get(key)
    if hit is None:
        within = sum(1 << m for m in masks)
        hit = _HOSTS[key] = find_embedding(cached_lattice(n), poset, within) is not None
    return hit


def erdos_gallai_check(family: SetFamily) -> bool:
    """Edge bound |E| <= 2|V| for comparability graphs with no 6-vertex path.

    The edges are the containment pairs of the family, counted from its
    ``above`` bitsets.
    """
    path = _find_graph_path(family, 6)
    if path is not None:
        raise NotFreeError("comparability graph contains a 6-vertex path", path)
    return sum(map(int.bit_count, family.above)) <= 2 * len(family)


def _find_graph_path(family: SetFamily, length: int):
    starts = (v for comp in comparability_components(family) if len(comp) >= length for v in comp)
    for path, _ in _walks(family.comparable, starts, length):
        return tuple(family.members[i] for i in path)
    return None


def _walks(near, starts, length):
    """(seq, order) for every sequence ``seq`` of ``length`` distinct indices, consecutive ones
    adjacent in ``near``, and the containment order (see _order) of its indices read as masks.

    ``near[i]`` is the bitset of i's neighbours. Starts come in turn, least index first.
    Each step extends the order, so a shared prefix is tested once.
    """
    for start in starts:
        stack = [([start], 1 << start, 0)]  # seq, its indices' bitset, order
        while stack:
            seq, seen, order = stack.pop()
            if len(seq) == length:
                yield seq, order
                continue
            for new in reversed(list(iter_bits(near[seq[-1]] & ~seen))):  # the least is popped first
                more = order
                for s in seq:
                    x = s & new
                    more = more << 2 | (x == s) | (x == new) << 1
                stack.append((seq + [new], seen | 1 << new, more))


class ComponentReport(namedtuple("ComponentReport", (
    "members",
    "containments",
    "hull_size",
    "max_antichain",
    "chains_meeting_hull",
    "threshold",             # c * n! / (5 * C(n-2, floor(n/2)-1)), a Fraction
    "ratio",                 # chains over threshold, a Fraction; None when c = 0
    "type_one",              # c <= 100 and hull at least c elements
    "type_two",              # antichain of at least 5c/6 members
    "below_threshold",
))):
    """Diagnostics for one component of a family avoiding 5-element path posets."""

    __slots__ = ()


def p5_component_report(family: SetFamily):
    """Per-component chain-coverage diagnostics for a P5-path-free family in 2^[n], n = family.n.

    Reporting only: the underlying theorem is asymptotic, so components below
    the proof's coverage threshold are flagged, not rejected.
    """
    from fractions import Fraction

    n = family.n
    _check_n(n, MAX_CHAIN_N, lo=2, what="component report n=")  # the threshold reads C(n - 2, n // 2 - 1)
    witness = find_any_embedding(family, path_hasse_family(5))
    if witness is not None:
        raise NotFreeError("family embeds a 5-element path poset", witness)
    denom = 5 * math.comb(n - 2, n // 2 - 1)
    comps = comparability_components(family)
    _check_n(max(map(len, comps), default=1), MAX_COMPONENT_MEMBERS, what="component size ")  # before any report
    reports = []
    for comp in comps:
        sub = family.restrict(comp)
        c = count_k_chains(sub, 2)
        hull = convex_hull(sub)
        meets = chains_meeting(hull)
        threshold = Fraction(c * math.factorial(n), denom)
        ratio = Fraction(meets) / threshold if c else None
        anti = _max_antichain(sub)
        reports.append(
            ComponentReport(
                members=sub.members,
                containments=c,
                hull_size=len(hull),
                max_antichain=anti,
                chains_meeting_hull=meets,
                threshold=threshold,
                ratio=ratio,
                type_one=c <= 100 and len(hull) >= c,
                type_two=c > 0 and anti * 6 >= 5 * c,
                below_threshold=c > 0 and meets < threshold,
            )
        )
    return reports


def _max_antichain(family: SetFamily) -> int:
    """Largest pairwise-incomparable subset, by branch and bound over members."""
    adj = family.comparable
    best = 0

    def rec(candidates, size):
        # candidates: bitset of the members still addable
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if not candidates:
            best = max(best, size)
            return
        low = candidates & -candidates
        rec(candidates & ~(low | adj[low.bit_length() - 1]), size + 1)
        rec(candidates ^ low, size)

    rec((1 << len(family)) - 1, 0)
    del rec  # rec's closure holds rec: drop it, or each call leaves a cycle
    return best


# ---------------------------------------------------------------------------
# Lemma verification suites (also driven by the CLI `verify` subcommand)
# ---------------------------------------------------------------------------


class LemmaReport(namedtuple("LemmaReport", "lemma instances_checked failures seed first_failure",
                             defaults=(None, None))):
    """One verifier's tally: the instances it checked, how many failed and the first failure message."""

    __slots__ = ()

    def to_json(self):
        out = self._asdict()
        if not self.first_failure:
            del out["first_failure"]
        return out


def _run_suite(lemma, seed, instances, check) -> LemmaReport:
    """Run ``check(*instance)`` on every instance; it returns None or a failure message."""
    checked = failures = 0
    first = None
    for instance in instances:
        checked += 1
        message = check(*instance)
        if message is not None:
            failures += 1
            if first is None:
                first = message
    return LemmaReport(lemma, checked, failures, seed, first)


def _families_of_3():
    """All 256 families of subsets of [3]."""
    for bits in range(1 << 8):
        yield SetFamily(3, [m for m in range(8) if bits >> m & 1])


def _sampled_families(seed, dims, max_size):
    """(n, family): every family on [3], then 200 random families of 1..max_size sets per n."""
    for fam in _families_of_3():
        yield 3, fam
    rng = random.Random(seed)
    for n in dims:
        for _ in range(200):
            yield n, SetFamily(n, rng.sample(range(1 << n), rng.randint(1, max_size)))


def verify_sublattice() -> LemmaReport:
    def instances():
        for n in range(3, 7):
            above = cached_lattice(n).above
            for lo in range(1 << n):
                for hi in iter_bits(above[lo]):
                    yield n, lo, hi

    def check(n, lo, hi):
        expect = sublattice(n, lo.bit_count(), hi.bit_count())
        got = chains_meeting(interval_family(n, lo, hi))
        if got != expect:
            return f"n={n} interval [{lo},{hi}]: {got} != {expect}"

    return _run_suite("sublattice", None, instances(), check)


def verify_chaincount(seed: int = 0) -> LemmaReport:
    def instances():
        for t in range(1, 5):
            for masks in itertools.combinations(range(1 << 4), t):
                yield 4, masks
        rng = random.Random(seed)
        for n in (6, 8):
            for _ in range(500):
                yield n, rng.sample(range(1 << n), rng.randint(1, 6))

    least = lru_cache(maxsize=None)(lambda n, t: math.ceil(katona_nagy(n, t)))  # 16 (n, t) pairs per run

    def check(n, masks):
        fam = SetFamily(n, masks)
        got = chains_meeting(fam)
        if got < least(n, len(fam)):
            return f"n={n} F={list(masks)}: {got} < {katona_nagy(n, len(fam))}"

    return _run_suite("chaincount", seed, instances(), check)


def verify_coloring(seed: int = 0) -> LemmaReport:
    def instances():
        for fam in _families_of_3():
            for t in (1, 2, 3):
                yield 3, fam, t
        rng = random.Random(seed)
        for n in range(4, 9):
            for _ in range(100):
                fam = SetFamily(n, [m for m in range(1 << n) if rng.random() < 0.5])
                yield n, fam, rng.randint(1, 3)

    def check(n, fam, t):
        col = color_family(fam, t)
        # down-set: removing any element i of a blue mask g leaves a blue mask. The
        # blue masks with i, shifted down by 2^i, must land on blue bits; a stray bit
        # h marks the offending blue mask h | {i}
        blue = col.blue
        stray = 0
        for i, has in enumerate(cached_lattice(n)._slices):
            stray |= ((blue & has) >> (1 << i) & ~blue) << (1 << i)
        if stray:
            g = (stray & -stray).bit_length() - 1
            return f"n={n} t={t}: blue set not a downset at {g}"
        if not check_one_critical_pair_per_chain(col):
            return f"n={n} t={t} F={list(fam.members)}: chain with two critical pairs"

    return _run_suite("coloring", seed, instances(), check)


@lru_cache(maxsize=None)
def _comparable_masks(n):
    """Per mask of [n], the other masks comparable with it, ascending."""
    return tuple(tuple(iter_bits(near)) for near in cached_lattice(n).comparable)


def _draw_zigzag(rng, n, length):
    """(seq, order): a uniform-ish random sequence of ``length`` distinct,
    consecutively comparable subsets of [n], and its containment order (see _order)."""
    if not 1 <= length <= 1 << n:
        raise ValueError(f"no sequence of {length} distinct subsets of [{n}]")
    near = _comparable_masks(n)
    # rng.randrange(c) draws getrandbits(c.bit_length()) until it is below c: the same draws, inline
    bits, size = rng.getrandbits, 1 << n
    while True:
        new = bits(n + 1)
        while new >= size:
            new = bits(n + 1)
        seq, order, taken = [new], 0, []
        for _ in range(length - 1):
            # draw the k-th of near[new] minus the earlier sets, without building that list;
            # taken holds the earlier sets comparable with new, other than new itself
            options = near[new]
            count = len(options) - len(taken)
            if not count:
                break
            width = count.bit_length()
            k = bits(width)
            while k >= count:
                k = bits(width)
            new = options[k]
            taken.sort()
            for s in taken:  # options ascend, so a taken set at or below new shifts it up one
                if s > new:
                    break
                k += 1
                new = options[k]
            taken = []
            for s in seq:
                x = s & new
                if x == s:
                    order = order << 2 | 1
                    taken.append(s)
                elif x == new:
                    order = order << 2 | 2
                    taken.append(s)
                else:
                    order <<= 2
            seq.append(new)
        if len(seq) == length:
            return seq, order


def _order(seq):
    """The containment order of distinct sets: 2 bits per pair of positions i < j.

    The pairs come in the order (0, 1), (0, 2), (1, 2), (0, 3), ...; each holds
    1 if seq[i] is a subset of seq[j], 2 if a superset, 0 if neither.
    """
    order = 0
    for j, new in enumerate(seq):
        for s in seq[:j]:
            x = s & new
            order = order << 2 | (x == s) | (x == new) << 1
    return order


def verify_zigzag(seed: int = 0) -> LemmaReport:
    """Check the W-or-M selection on every six-sequence of 2^[3] and 2,000 random ones per n = 4..8.

    The verdict depends only on the sequence's containment order: _zigzag_dirs
    reads the consecutive containments, and _hosts answers per containment
    order of the selected sets. So each order is judged once per call, and
    every instance with that order gets the same verdict under its own n and seq.
    """
    shapes = {"W": w_poset(), "M": m_poset()}
    verdicts = {}  # order -> failure text, or "" when the order passes

    def instances():
        yield from ((3, *walk) for walk in _walks(cached_lattice(3).comparable, range(8), 6))
        rng = random.Random(seed)
        for n in range(4, 9):
            for _ in range(2000):
                yield n, *_draw_zigzag(rng, n, 6)

    def judge(n, seq):
        try:
            (which, _), run = _find_WM(n, seq)
        except AssertionError as exc:
            return str(exc)
        if run == 2:
            # the selection was the window seq[:5], checked to host which
            lo, hi = seq[:5], seq[1:]
            this, other = shapes[which], shapes["M" if which == "W" else "W"]
            split = _hosts(n, other, hi) or (_hosts(n, other, lo) and _hosts(n, this, hi))
            if not split:
                return "windows do not split into W and M"
        return ""

    def check(n, seq, order):
        verdict = verdicts.get(order)
        if verdict is None:
            verdict = verdicts[order] = judge(n, seq)
        if verdict:
            return f"n={n} seq={seq}: {verdict}"

    return _run_suite("zigzag", seed, instances(), check)


def _hosts_n(family: SetFamily) -> bool:
    """Whether N (p1 < q1 > p2 < q2) embeds in the family, read off its bitsets.

    It does iff some members b < c have a member a != b below c and a member
    d != c above b with a != d, which fails only when both sets are the same
    single member. This shares no code with the search the classifier runs.
    """
    above = family.above
    for c, down in enumerate(family.below):
        for b in iter_bits(down):
            lows, highs = down & ~(1 << b), above[b] & ~(1 << c)
            if lows and highs and (lows != highs or lows & (lows - 1)):
                return True
    return False


def verify_nfree_components(seed: int = 0) -> LemmaReport:
    def check(n, fam):
        free = not _hosts_n(fam)
        try:
            classes = classify_nfree_components(fam)
        except NotFreeError as exc:
            if free:
                return f"n={n} F={list(fam.members)}: refused an N-free family"
            if not exc.witness.check():
                return f"n={n} F={list(fam.members)}: invalid refusal witness"
            return None
        if not free:
            return f"n={n} F={list(fam.members)}: classified a non-N-free family"
        for cls in classes:
            sub = SetFamily(fam.n, cls.members)
            if cls.kind == "triangle":
                ok = len(sub) == 3 and count_k_chains(sub, 3) == 1
            elif cls.center in sub:
                # a star: the center is comparable with every other member, no other pair is
                i = sub.members.index(cls.center)
                spokes = len(sub) - 1
                ok = sub.comparable[i].bit_count() == spokes == count_k_chains(sub, 2)
            else:
                ok = False
            if not ok:
                return f"n={n} component {cls.members}: bad {cls.kind}"

    return _run_suite("nfree-components", seed, _sampled_families(seed, (4, 5), 8), check)


def verify_erdos_gallai(seed: int = 0) -> LemmaReport:
    p6 = minimal_posets(path_hasse_family(6))  # is_free's list, formed once per run
    instances = (
        (n, fam) for n, fam in _sampled_families(seed, (4, 5, 6), 10)
        if all(find_embedding(fam, p) is None for p in p6)
    )

    def check(n, fam):
        try:
            ok = erdos_gallai_check(fam)
        except NotFreeError:
            return f"n={n} F={list(fam.members)}: path found in a P6-free family"
        if not ok:
            return f"n={n} F={list(fam.members)}: edge bound violated"

    return _run_suite("erdos-gallai", seed, instances, check)


VERIFIERS = {
    "sublattice": lambda seed: verify_sublattice(),
    "chaincount": verify_chaincount,
    "coloring": verify_coloring,
    "zigzag": verify_zigzag,
    "nfree-components": verify_nfree_components,
    "erdos-gallai": verify_erdos_gallai,
}
