"""Exact La(n, forbidden, #Q) computation by branch-and-bound subfamily search."""
from __future__ import annotations

import itertools
import json
import os
import re
from collections import namedtuple
from functools import lru_cache

from .embedding import completing_members, copy_supports, count_copies, embedding_using_member, is_free, minimal_posets
from .lattice import (
    MAX_EXACT_SEARCH_N,
    MAX_LEVEL_GENERIC_N,
    MAX_LEVEL_GENERIC_Q_N,
    MAX_LEVEL_SEARCH_N,
    SetFamily,
    cached_lattice,
    iter_bits,
    level_family,
)
from .formulas import chain_count_in_levels
from .posets import Poset, dual_poset

DEFAULT_WITNESS_CAP = 16
CACHE_ENV_VAR = "TURAN_CACHE"
DEFAULT_CACHE_FILE = "turan-cache.jsonl"


class SearchReport(namedtuple("SearchReport", "optimum witnesses nodes_explored complete params")):
    """One search result; ``witnesses`` lists mask tuples, lexicographically least first.

    ``params`` defaults to a new empty dict. A report is frozen, but its
    witness list makes it unhashable.
    """

    __slots__ = ()

    def __new__(cls, optimum, witnesses, nodes_explored, complete, params=None):
        return super().__new__(cls, optimum, witnesses, nodes_explored, complete, {} if params is None else params)

    def to_json(self) -> dict:
        return {**self._asdict(), "witnesses": [list(w) for w in self.witnesses]}


def _check_request(n: int, forbidden, budget):
    if not 1 <= n <= MAX_EXACT_SEARCH_N:
        raise ValueError(
            f"exact search supports 1 <= n <= {MAX_EXACT_SEARCH_N}, with an optional budget; got n={n}"
        )
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if any(p.size == 0 for p in forbidden):
        # every family, even the empty one, hosts the empty poset
        raise ValueError("a forbidden poset must have at least one element")


def _request(n: int, forbidden, q: Poset, budget) -> dict:
    """The params of a search report, which are also its cache key; a cached
    record with other params, such as another search tag, is a miss."""
    return {
        "n": n,
        "forbidden": [p.canonical_key() for p in forbidden],
        "q": q.canonical_key(),
        "budget": budget,
        "witness_cap": DEFAULT_WITNESS_CAP,
        "search": "orbital-dive",
    }


@lru_cache(maxsize=None)
def _permutation_tables(n: int) -> tuple:
    """S_n acting on 2^[n]: per permutation of [n], the table mask -> image mask."""
    tables = []
    for perm in itertools.permutations(range(n)):
        table = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            table[m] = table[m ^ low] | 1 << perm[low.bit_length() - 1]
        tables.append(tuple(table))
    return tuple(tables)


@lru_cache(maxsize=None)
def _group_tables(n: int, complemented: bool) -> tuple:
    """S_n, and with ``complemented`` S_n x Z2, acting on 2^[n], as mask tables."""
    tables = _permutation_tables(n)
    if complemented:
        full = (1 << n) - 1
        tables += tuple(tuple(full ^ image for image in table) for table in tables)
    return tables


@lru_cache(maxsize=None)
def _least_image_table(group: tuple) -> tuple:
    """mask -> its least image under the group."""
    return tuple(min(images) for images in zip(*group))


def _symmetry_group(n: int, forbidden, q: Poset) -> tuple:
    """The symmetries of 2^[n] that map the search problem to itself, as mask tables.

    Permuting [n] keeps containment. Complementing every set reverses it, so
    it maps a P-free family to a P^d-free one and its copies of Q to copies of
    Q^d: it is a symmetry when the forbidden list is closed under duality and
    Q is self-dual.
    """
    return _group_tables(n, sorted(p.canonical_key() for p in forbidden)
                         == sorted(dual_poset(p).canonical_key() for p in forbidden)
                         and q.canonical_key() == dual_poset(q).canonical_key())


def la_exact(n: int, forbidden, q: Poset, budget: int = None) -> SearchReport:
    """Exact maximum Q-copy count over forbidden-free subfamilies of 2^[n].

    Branch-and-bound over the masks of 2^[n], one loop over an explicit stack
    of nodes. A node holds the included masks (chosen), chosen plus the
    undecided masks (avail), the bitset of the copies of Q inside avail
    (alive), H, the pointwise stabiliser of chosen in ``_symmetry_group``,
    and gone, the masks it removes from avail when it is popped. It pushes
    its exclude child, then its include child, which is popped first.
    H maps avail onto itself: a g in H that fixes x maps each copy of a
    ``minimal_posets`` member through x and y to one through x and g(y), as
    that list is closed under duality when the forbidden list is.

    - Dynamic branching: the node branches on the undecided mask with the most
      members of avail comparable to it, the least such mask on ties.
    - Propagation: including x removes every undecided y for which chosen, x
      and y hold a forbidden poset. So every undecided mask can join chosen,
      and including one needs no check. As chosen, and chosen with any one
      undecided y, are free, such an embedding uses both x and y: one listing
      through x per forbidden poset (``completing_members``) finds every such
      y. Only the posets that ``minimal_posets`` keeps are listed, since a
      family free of those is free of the whole list; these masks are the
      include child's gone. The root has no x: its gone is every mask that
      hosts a forbidden poset on its own. One mask hosts what any other does,
      so one search per poset at the empty set finds it: every mask when a
      one-element poset is forbidden (an embedding is injective), else none.
    - Orbital branching (Ostrowski, Linderoth, Rossi and Smriglio, Math.
      Programming 126, 2011): the exclude child's gone is the whole H-orbit
      of x, since some element of H maps any family that meets the orbit onto
      one that holds x, with the same value.
    - Incumbent: a dive from the root's avail includes the free mask with the
      fewest members of avail comparable to it (the least on ties) and drops
      what that include child would, down to a free family. Its copies of Q
      are the first best value; it is the witness if a budget stops the loop
      before any leaf.
    - Bound: a node is cut only when its bound, the bit count of alive, is
      below the best value, so every optimal family keeps an image in the
      tree, and a complete report does not depend on the incumbent. The root
      numbers the copies of Q in 2^[n] (``copy_supports``), and keep[y] is
      the bitset of those without mask y: each y of gone is dropped by
      alive &= keep[y], as in bit-parallel max-clique search (San Segundo,
      Rodriguez-Losada and Jimenez, Comput. Oper. Res. 38, 2011).

    The witnesses are the DEFAULT_WITNESS_CAP lexicographically least optimal
    families: the images under the group of the leaves that reach the optimum,
    streamed into the least few. n <= 6 is supported: each paper problem
    takes under 0.2 s at n = 5 and 5-34 s at n = 6 (2 vCPUs, Python 3.11.7;
    2.2-15.6 s on a faster host). A budget stops the
    search after exactly that many nodes, with complete=False if a node was
    still pending. A forbidden poset with no elements is refused: every
    family hosts it.
    """
    forbidden = list(forbidden)
    _check_request(n, forbidden, budget)
    # One family for the whole search: member index = mask.
    universe = cached_lattice(n)
    near = universe.comparable
    group = _symmetry_group(n, forbidden, q)
    minimal = minimal_posets(forbidden)
    # the root has no x: one mask on its own hosts what any other does
    full = (1 << (1 << n)) - 1
    alone = full if any(embedding_using_member(universe, p, 0, 1) is not None for p in minimal) else 0
    supports = copy_supports(universe, q)
    every = (1 << len(supports)) - 1
    keep = [every] * (1 << n)
    for i, s in enumerate(supports):
        for y in s:
            keep[y] ^= 1 << i
    # the incumbent: one dive from the root's avail, including and dropping as a node does
    seed, free = 0, full ^ alone
    while free:
        avail = seed | free
        x, fewest, bits = -1, 1 << n, free  # the least free mask with the fewest members of avail comparable to it
        while bits:
            low = bits & -bits
            y = low.bit_length() - 1
            degree = (avail & near[y]).bit_count()
            if degree < fewest:
                x, fewest = y, degree
            bits ^= low
        seed |= 1 << x
        free ^= 1 << x
        for p in minimal:
            free &= ~completing_members(universe, p, x, seed, free)
    alive = every
    for y in iter_bits(full ^ seed):
        alive &= keep[y]
    stack = [(0, full, every, group, alone)]
    nodes, best, leaves, complete = 0, alive.bit_count(), [], True
    while stack:
        if nodes == budget:
            complete = False
            break
        chosen, avail, alive, h, gone = stack.pop()
        nodes += 1
        avail &= ~gone
        while gone:
            low = gone & -gone
            alive &= keep[low.bit_length() - 1]
            gone ^= low
        bound = alive.bit_count()
        if bound < best:
            continue
        free = avail & ~chosen
        if not free:
            if bound > best:
                best, leaves = bound, []
            leaves.append(chosen)
            continue
        x, most, bits = -1, -1, free  # the least free mask with the most members of avail comparable to it
        while bits:
            low = bits & -bits
            y = low.bit_length() - 1
            degree = (avail & near[y]).bit_count()
            if degree > most:
                x, most = y, degree
            bits ^= low
        included = chosen | 1 << x
        dead = 0  # the undecided masks that would complete a forbidden poset with x
        for p in minimal:
            dead |= completing_members(universe, p, x, included, (free ^ 1 << x) & ~dead)
        orbit = 0
        for g in h:
            orbit |= 1 << g[x]
        # the include child is pushed last, so its subtree is explored first
        stack.append((chosen, avail, alive, h, orbit))
        stack.append((included, avail, alive, [g for g in h if g[x] == x], dead))
    return SearchReport(
        optimum=best,
        witnesses=_least_images(leaves or [seed], group),
        nodes_explored=nodes,
        complete=complete,
        params=_request(n, forbidden, q, budget),
    )


def _least_images(leaves, group) -> list:
    """The DEFAULT_WITNESS_CAP least distinct images of the leaves under the group.

    Images are sorted mask tuples, compared lexicographically. They are
    streamed, so at most the cap of them is kept at a time. Once the cap is
    full, a leaf is skipped when the least image of each of its members is
    above the first mask of the worst image kept: every image of that leaf
    then sorts after it. That image is not empty, since the cap holds more
    than one distinct image.
    """
    least = []  # ascending
    low = _least_image_table(group)
    for leaf in leaves:
        members = tuple(iter_bits(leaf))
        full = len(least) == DEFAULT_WITNESS_CAP
        if full and members and min(map(low.__getitem__, members)) > least[-1][0]:
            continue
        for g in group:
            image = tuple(sorted(map(g.__getitem__, members)))
            if len(least) == DEFAULT_WITNESS_CAP and image >= least[-1] or image in least:
                continue
            least.append(image)
            least.sort()
            del least[DEFAULT_WITNESS_CAP:]
    return least


def la_levels(n: int, forbidden, q: Poset) -> SearchReport:
    """Best Q-copy count over unions of full levels that avoid the forbidden posets.

    The level tuples are walked by size, as in Apriori's candidate walk
    (Agrawal and Srikant, VLDB 1994): freeness of a level union is monotone,
    so a tuple is visited (``nodes_explored``) only when each subtuple of one
    level fewer is free. A forbidden k-chain rules out every tuple of k
    levels untested; a non-chain minimal P meets at most |P| levels, so
    ``is_free`` tests it only on tuples of at most |P| levels. A forbidden
    poset with no elements is refused; an empty Q has one copy.
    """
    forbidden = list(forbidden)
    if n > MAX_LEVEL_SEARCH_N:
        raise ValueError(f"level search supports n <= {MAX_LEVEL_SEARCH_N}")
    if any(p.size == 0 for p in forbidden):
        raise ValueError("a forbidden poset must have at least one element")
    minimal = minimal_posets(forbidden)
    generic = [p for p in minimal if not p.is_chain()]
    if generic and n > MAX_LEVEL_GENERIC_N:
        raise ValueError(f"level search with non-chain forbidden posets supports n <= {MAX_LEVEL_GENERIC_N}")
    if not q.is_chain() and n > MAX_LEVEL_GENERIC_Q_N:
        raise ValueError(f"level search with a non-chain Q supports n <= {MAX_LEVEL_GENERIC_Q_N}")
    shortest = min((p.size for p in minimal if p.is_chain()), default=n + 2)
    best, best_levels, nodes = -1, [], 0
    layer = [()]  # the visited tuples of one size, ascending
    while layer:
        nodes += len(layer)
        kept = set()  # the free tuples of the layer
        for tup in layer:
            hosts = [p for p in generic if p.size >= len(tup)]
            if len(tup) >= shortest or hosts and not is_free(level_family(n, tup), hosts):
                continue
            kept.add(tup)
            copies = (count_copies(level_family(n, tup), q) if not q.is_chain()
                      else chain_count_in_levels(n, q.size, tup) if q.size else 1)
            if copies > best:
                best, best_levels = copies, []
            if copies == best:
                best_levels.append(tup)
        layer = [tup + (j,) for tup in layer if tup in kept
                 for j in range(tup[-1] + 1 if tup else 0, n + 1)
                 if all(tup[:i] + tup[i + 1:] + (j,) in kept for i in range(len(tup)))]
    return SearchReport(
        optimum=best,
        witnesses=sorted(tuple(level_family(n, t).members) for t in best_levels)[:DEFAULT_WITNESS_CAP],
        nodes_explored=nodes,
        complete=True,
        params={
            "n": n,
            "forbidden": [p.canonical_key() for p in forbidden],
            "q": q.canonical_key(),
            "levels": [list(t) for t in sorted(best_levels)[:DEFAULT_WITNESS_CAP]],
        },
    )


class WitnessCheck(namedtuple("WitnessCheck", "free copies")):
    __slots__ = ()


def verify_witness(family: SetFamily, forbidden, q: Poset) -> WitnessCheck:
    """Certificate check: freeness plus the Q-copy count of the family."""
    return WitnessCheck(is_free(family, forbidden), count_copies(family, q))


# A request's params text is '"params": ' and the sorted-key JSON of its
# params. It begins with _HEAD and ends with _TAIL, the budget and the witness
# cap being its first and last keys (the search tag is only _request's); neither
# text appears anywhere else in it, since JSON escapes each quote in a string.
_KEY = b'"params": '
_HEAD = _KEY + b'{"budget": '
_TAIL = b', "witness_cap": %d}' % DEFAULT_WITNESS_CAP

# A later lookup compares this many bytes at each end of the indexed bytes.
_GUARD = 1 << 12
# A line from a given start, without its line end.
_LINE = re.compile(rb"[^\r\n]*")

# The index of the result file looked up last: (path, device, inode), the
# number of bytes indexed, the params text -> lines map of _params_lines, and
# the _guard bytes of the indexed bytes.
_index = None


def _cache_lookup(path, params):
    """The last valid report line for ``params`` in the result file at ``path``, or None.

    A candidate is a line, ended by \\n, \\r or \\r\\n or by the end of
    the file, that holds '"params": ' followed by the sorted-key JSON of
    ``params``. Candidates are tried last first, and the first that is UTF-8
    JSON with the five report keys, typed, and equal params is the answer.

    The lines are found through one index per process, of the path looked up
    last: each params text maps to the complete lines that hold it. The
    first lookup of a file reads it whole and indexes it; a later lookup
    reads only the bytes appended since and indexes the lines they complete.
    A lookup tries the unterminated last line, then the indexed lines. Another
    file at the path (device or inode), or one that no longer reads the same
    in the first and last 4 KiB of the indexed bytes, is read whole again; so
    a rewrite in place that keeps those bytes at their offsets is taken for an
    append. The file is read, not mapped, so a lookup answers from the bytes
    it read even when the file is cut short meanwhile. A file that cannot seek
    (a pipe) leaves no index.
    """
    global _index
    needle = _KEY + json.dumps(params, sort_keys=True).encode()
    assert needle.startswith(_HEAD) and needle.endswith(_TAIL), "not a request's params"
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None
    with fh:
        st = os.fstat(fh.fileno())
        file = (path, st.st_dev, st.st_ino)
        old = _index
        end, lines = 0, {}
        if old is not None and old[0] == file:
            if _guard(fh, old[1]) == old[3]:
                end, lines = old[1], old[2]
            fh.seek(end)
        data = fh.read()
        nl = data.rfind(b"\n")
        stop = max(nl, data.rfind(b"\r", max(nl, 0))) + 1  # just past the last line end
        found = _params_lines(data, 0, stop) if stop else {}
        guard = _guard(fh, end + stop) if fh.seekable() else None
    for text, new in found.items():
        lines.setdefault(text, []).extend(new)
    _index = None if guard is None else (file, end + stop, lines, guard)
    tail = data[stop:]  # the unterminated last line, if any
    if needle in tail and (rec := _record(tail, params)) is not None:
        return rec
    for line in reversed(lines.get(needle, ())):
        if (rec := _record(line, params)) is not None:
            return rec
    return None


def _guard(fh, end):
    """The first and last _GUARD bytes of the first ``end`` bytes of the open file ``fh``."""
    fh.seek(0)
    head = fh.read(min(end, _GUARD))
    fh.seek(max(end - _GUARD, 0))
    return head, fh.read(min(end, _GUARD))


def _params_lines(data, start, stop):
    """params text -> the lines in data[start:stop] that hold it, in order, without their ends.

    ``start`` is a line start and data[stop - 1] ends a line. Each params
    text is found from its end, _TAIL, and is what lies between it and the
    last _HEAD before it on its line. No two params texts overlap, so each
    search resumes where the last one ended, and the bytes are read about
    twice however the lines end.
    """
    found = {}
    pos = first = start  # where the searches resume; the start of the line at pos
    while (hit := data.find(_TAIL, pos, stop)) >= 0:
        nl = data.rfind(b"\n", pos, hit)
        cut = max(nl, data.rfind(b"\r", max(nl, pos), hit))
        if cut >= 0:
            first = cut + 1
        head = data.rfind(_HEAD, max(first, pos), hit)
        pos = hit + len(_TAIL)
        if head >= 0:
            starts = found.setdefault(data[head:pos], [])
            if not starts or starts[-1] != first:
                starts.append(first)
    return {text: [_LINE.match(data, first)[0] for first in starts] for text, starts in found.items()}


def _record(line, params):
    """The report on ``line`` if it is UTF-8 JSON with the five report keys, typed, and ``params``."""
    try:
        rec = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError):  # not UTF-8, not JSON, or nested past the parser's depth
        return None
    if not (isinstance(rec, dict) and rec.keys() == set(SearchReport._fields) and rec["params"] == params):
        return None
    # type(), not isinstance: JSON true and false load as bools, which are ints
    ws = rec["witnesses"]
    ok = type(rec["optimum"]) is type(rec["nodes_explored"]) is int and type(rec["complete"]) is bool
    ok = ok and type(ws) is list and all(type(w) is list and all(type(m) is int for m in w) for w in ws)
    return rec if ok else None


def cached_la_exact(n, forbidden, q, budget=None, path=None) -> SearchReport:
    """la_exact with an append-only JSONL cache of its reports.

    Each line is a report exactly as ``search`` prints it, keyed on its
    params; the last line whose params equal the request is returned, so a
    hit reports what la_exact would. A lookup goes through the per-process
    index of ``_cache_lookup``, which reads the whole file once and then only
    the bytes appended since. A miss appends the report in one write, after
    a line end when the file's last line has none, so a cut-off line cannot
    swallow it.
    """
    forbidden = list(forbidden)
    _check_request(n, forbidden, budget)
    path = path or os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_FILE
    params = _request(n, forbidden, q, budget)
    rec = _cache_lookup(path, params)
    if rec is not None:
        return SearchReport(**{**rec, "witnesses": [tuple(w) for w in rec["witnesses"]]})
    report = la_exact(n, forbidden, q, budget=budget)
    text = json.dumps(report.to_json(), sort_keys=True) + "\n"
    with open(path, "a+b") as fh:
        # A last line left without its line end would run into the record, so
        # the same write ends it. Writers take turns, so that none reads
        # another's line, half written, as such a line.
        if hasattr(os, "lockf"):  # POSIX; the lock goes with the file's close
            os.lockf(fh.fileno(), os.F_LOCK, 0)
        fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
        if fh.read(1) not in (b"", b"\n", b"\r"):
            text = "\n" + text
        fh.write(text.encode())
    return report
