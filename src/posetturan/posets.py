"""Finite strict partial orders: construction, duality, isomorphism, catalog."""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

MAX_POSET_SIZE = 8  # canonical labelling backtracks over up to size! labellings


class PosetError(ValueError):
    pass


class Poset(namedtuple("Poset", "size relations", defaults=(frozenset(),))):
    """A finite strict partial order on elements 0..size-1.

    ``relations`` is the full transitive closure (irreflexive, antisymmetric).
    Use :func:`poset_from_relations` to build one from arbitrary generators.
    Immutable; a poset is its order: equality and hash are over (size, relations).
    """

    __slots__ = ()

    def less(self, a: int, b: int) -> bool:
        return (a, b) in self.relations

    def comparable(self, a: int, b: int) -> bool:
        return (a, b) in self.relations or (b, a) in self.relations

    def up_set(self, a: int):
        return frozenset(b for b in range(self.size) if self.less(a, b))

    def down_set(self, a: int):
        return frozenset(b for b in range(self.size) if self.less(b, a))

    def height(self) -> int:
        """Number of elements in a longest chain."""
        ups = [self.up_set(a) for a in range(self.size)]
        longest = [0] * self.size  # longest[a]: the longest chain starting at a
        # an element's up-set holds only elements whose up-sets are smaller
        for a in sorted(range(self.size), key=lambda a: len(ups[a])):
            longest[a] = 1 + max((longest[b] for b in ups[a]), default=0)
        return max(longest, default=0)

    def is_chain(self) -> bool:
        return len(self.relations) == self.size * (self.size - 1) // 2

    def hasse_edges(self) -> frozenset:
        """Cover pairs (a, b): a < b with nothing strictly between."""
        covers = set()
        for a, b in self.relations:
            if not any(self.less(a, c) and self.less(c, b) for c in range(self.size)):
                covers.add((a, b))
        return frozenset(covers)

    def canonical_relations(self):
        return _canonical_form(self.size, tuple(sorted(self.relations)))[0]

    def canonical_key(self) -> str:
        """The size and the canonical relations: two posets are isomorphic iff their keys are equal."""
        rels = ";".join(f"{a}<{b}" for a, b in self.canonical_relations())
        return f"poset[{self.size}]{{{rels}}}"

    def orbit_representatives(self) -> tuple:
        """The least element of each automorphism orbit, ascending."""
        return _canonical_form(self.size, tuple(sorted(self.relations)))[1]


@lru_cache(maxsize=4096)
def _canonical_form(size, relations):
    """(least relabelled sorted relation list, least element of each orbit)."""
    # The least relabelled sorted relation list is the labelling whose 0/1
    # relation matrix, read row by row, is greatest. Labels are handed out in
    # order. The unlabelled elements form an ordered partition into cells that
    # relate alike to the labelled ones, and the next label goes to a member
    # of the first cell whose row (its relations to the labelled elements,
    # then its up-set packed first in every cell) is greatest. Only the
    # labellings that win every step are compared.
    if not relations:  # one orbit; walking its size! labellings would be slow
        return (), tuple(range(min(size, 1)))
    up = [frozenset(b for a, b in relations if a == x) for x in range(size)]
    # The winning labellings are closed under automorphisms, and two that give
    # the least list differ by one, so the orbit of the element labelled i is
    # what the least-list labellings (best) put at label i.
    least, best, stack = None, [], [([], [frozenset(range(size))])]
    while stack:
        order, cells = stack.pop()
        if not cells:
            label = {x: i for i, x in enumerate(order)}
            form = tuple(sorted((label[a], label[b]) for a, b in relations))
            if least is None or form < least:
                least, best = form, []
            if form == least:
                best.append(order)
            continue
        rows = []
        for y in cells[0]:
            rest = [c for c in [cells[0] - {y}] + cells[1:] if c]
            row = (tuple(x in up[y] for x in order), tuple(len(c & up[y]) for c in rest))
            rows.append((row, y, rest))
        top = max(row for row, _, _ in rows)
        for row, y, rest in rows:
            if row == top:
                stack.append((order + [y], [p for c in rest for p in (c & up[y], c - up[y]) if p]))
    return least, tuple(sorted({min(order[i] for order in best) for i in range(size)}))


def _check_size(m: int):
    if m < 0 or m > MAX_POSET_SIZE:
        raise PosetError(f"poset size {m} outside supported range 0..{MAX_POSET_SIZE}")


def poset_from_relations(m: int, relations) -> Poset:
    """Transitive closure of the given (lo, hi) pairs; rejects cycles."""
    _check_size(m)
    less = [[False] * m for _ in range(m)]
    for a, b in relations:
        if not (0 <= a < m and 0 <= b < m):
            raise PosetError(f"relation ({a},{b}) out of range for {m} elements")
        less[a][b] = True
    for k in range(m):
        for i in range(m):
            if less[i][k]:
                row_k = less[k]
                row_i = less[i]
                for j in range(m):
                    if row_k[j]:
                        row_i[j] = True
    for i in range(m):
        if less[i][i]:
            raise PosetError("not a partial order: cycle detected")
    closure = frozenset(
        (i, j) for i in range(m) for j in range(m) if less[i][j]
    )
    return Poset(m, closure)


def dual_poset(p: Poset) -> Poset:
    return Poset(p.size, frozenset((b, a) for a, b in p.relations))


def chain(k: int) -> Poset:
    if k < 1:
        raise PosetError("chain needs at least one element")
    _check_size(k)
    return poset_from_relations(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def kst(s: int, t: int) -> Poset:
    if s < 1 or t < 1:
        raise PosetError("Kst parameters must be positive")
    _check_size(s + t)
    return poset_from_relations(s + t, [(i, s + j) for i in range(s) for j in range(t)])


def fork(r: int) -> Poset:
    if r < 1:
        raise PosetError("fork parameter must be positive")
    _check_size(r + 1)
    return poset_from_relations(r + 1, [(0, i) for i in range(1, r + 1)])


def crown(ell: int) -> Poset:
    if ell < 2:
        raise PosetError("crown parameter must be at least 2")
    _check_size(2 * ell)
    rels = []
    for i in range(ell):
        rels.append((i, ell + i))
        rels.append((i, ell + (i + 1) % ell))
    return poset_from_relations(2 * ell, rels)


def diamond(r: int = 2) -> Poset:
    if r < 1:
        raise PosetError("diamond parameter must be positive")
    _check_size(r + 2)
    rels = [(0, i) for i in range(1, r + 1)] + [(i, r + 1) for i in range(1, r + 1)]
    return poset_from_relations(r + 2, rels)


@lru_cache(maxsize=None)
def n_poset() -> Poset:
    # elements p1, p2, q1, q2 = 0, 1, 2, 3
    return poset_from_relations(4, [(0, 2), (1, 2), (1, 3)])


@lru_cache(maxsize=None)
def w_poset() -> Poset:
    # elements a, b, c, d, e = 0..4 with b < a, b < c, d < c, d < e
    return poset_from_relations(5, [(1, 0), (1, 2), (3, 2), (3, 4)])


@lru_cache(maxsize=None)
def m_poset() -> Poset:
    return dual_poset(w_poset())


def s_poset() -> Poset:
    # elements a, b1, b2, b3, c = 0..4 with b1 < a, b1 < b2 < b3, c < b3
    return poset_from_relations(5, [(1, 0), (1, 2), (2, 3), (4, 3)])


_CATALOG = {
    "chain": (chain, 1),
    "p": (chain, 1),
    "kst": (kst, 2),
    "fork": (fork, 1),
    "crown": (crown, 1),
    "diamond": (lambda *a: diamond(*a) if a else diamond(), (0, 1)),
    "butterfly": (lambda: kst(2, 2), 0),
    "k22": (lambda: kst(2, 2), 0),
    "n": (n_poset, 0),
    "w": (w_poset, 0),
    "m": (m_poset, 0),
    "s": (s_poset, 0),
}


def named_poset(name: str, *params: int) -> Poset:
    """Catalog lookup; names are case-insensitive."""
    key = name.lower()
    if key not in _CATALOG:
        raise PosetError(f"unknown poset name {name!r}")
    func, arity = _CATALOG[key]
    if isinstance(arity, tuple):
        if len(params) not in arity:
            raise PosetError(f"{name} takes {' or '.join(map(str, arity))} parameters")
    elif len(params) != arity:
        raise PosetError(f"{name} takes {arity} parameter(s), got {len(params)}")
    return func(*params)


def path_hasse_family(k: int):
    """All posets on k elements whose undirected Hasse diagram is the k-path.

    Enumerates the up/down orientation of each path edge, closes transitively,
    and keeps the first poset of each isomorphism class, ordered by height.
    The posets are built once per k; each call returns a new list of them.
    """
    return list(_path_hasse_family(k))


@lru_cache(maxsize=64)
def _path_hasse_family(k):
    if not 2 <= k <= MAX_POSET_SIZE:
        raise PosetError(f"path family supported for 2 <= k <= {MAX_POSET_SIZE}, got {k}")
    path_edges = {(i, i + 1) for i in range(k - 1)}
    found = {}  # canonical relations -> first poset with them
    for bits in range(1 << (k - 1)):
        rels = []
        for i in range(k - 1):
            if bits >> i & 1:
                rels.append((i, i + 1))
            else:
                rels.append((i + 1, i))
        p = poset_from_relations(k, rels)
        hasse = {tuple(sorted(e)) for e in p.hasse_edges()}
        if hasse != path_edges:  # cannot happen for paths; asserted anyway
            raise PosetError("orientation closure collapsed a Hasse edge")
        found.setdefault(p.canonical_relations(), p)
    return tuple(sorted(found.values(), key=lambda p: (p.height(), p.canonical_relations())))
