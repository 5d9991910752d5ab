"""Weak-subposet embedding: freeness decisions and copy counting."""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .lattice import MAX_COPY_SUPPORTS, TABLE_MIN_MEMBERS, SetFamily, _check_n, chain_count, iter_bits
from .posets import Poset


class EmbeddingWitness(namedtuple("EmbeddingWitness", "poset family assignment")):
    """Injective order-preserving assignment from poset elements to family masks.

    ``assignment[e]`` is the mask chosen for poset element e.
    """

    __slots__ = ()

    def check(self) -> bool:
        masks = self.assignment
        if len(set(masks)) != len(masks):
            return False
        if any(m not in self.family for m in masks):
            return False
        for a, b in self.poset.relations:
            if masks[a] == masks[b] or masks[a] & masks[b] != masks[a]:
                return False
        return True


def _constraints(poset: Poset, order) -> tuple:
    """Per position i of ``order``, (lower, upper): the earlier positions whose
    elements lie below, resp. above, order[i]."""
    return tuple(
        (tuple(j for j in range(i) if poset.less(order[j], a)),
         tuple(j for j in range(i) if poset.less(a, order[j])))
        for i, a in enumerate(order)
    )


@lru_cache(maxsize=256)
def _plan(poset: Poset):
    """Compiled assignment order for the backtracking search.

    Returns (order, constraints, supports, needs, reads): ``order`` lists the poset
    elements in the order they are assigned, decreasing (in + out) degree,
    ties by index, and ``constraints[i] = (lower, upper)`` holds the earlier
    positions whose elements lie below, resp. above, ``order[i]``.

    ``supports[i]`` is empty unless position i has no earlier neighbour. Then
    it lists, for the later neighbours p that have neighbours before i,
    ``(up, lower, upper, t)``: whether order[i] lies below order[p], p's
    constraints cut to the positions before i, and the number t of later
    neighbours that share these three (twins, such as the two tops of a
    butterfly). Those t neighbours need t distinct images among the members
    still open to them, so the image of position i must be comparable, in
    that direction, to at least t such members.

    ``needs[i]`` is (|up-set|, |down-set|) of order[i]: its image needs at
    least that many members above, resp. below it (Ullmann's degree filter).
    ``reads[i]`` is (up, down): whether later constraints read the members
    above, resp. below, the image of position i.
    """
    deg = [0] * poset.size
    for a, b in poset.relations:
        deg[a] += 1
        deg[b] += 1
    order = sorted(range(poset.size), key=lambda e: (-deg[e], e))
    k = len(order)
    constraints = _constraints(poset, order)
    supports = []
    for i in range(k):
        sup = {}  # (up, lower, upper) -> how many later neighbours share it
        if constraints[i] == ((), ()):
            for p in range(i + 1, k):
                if poset.comparable(order[i], order[p]):
                    lower, upper = (tuple(j for j in js if j < i) for js in constraints[p])
                    if lower or upper:
                        key = (poset.less(order[i], order[p]), lower, upper)
                        sup[key] = sup.get(key, 0) + 1
        supports.append(tuple((*key, t) for key, t in sup.items()))
    needs = tuple((len(poset.up_set(a)), len(poset.down_set(a))) for a in order)
    reads = tuple((any(i in lower for lower, _ in constraints), any(i in upper for _, upper in constraints))
                  for i in range(k))
    return tuple(order), constraints, tuple(supports), needs, reads


def _search(family: SetFamily, poset: Poset, plan, pin=None, within=None, found=None):
    """Backtracking over ``plan`` with bitset domains.

    ``pin``, if given, is (i, m): position i of the plan takes member index m,
    so its domain narrows to that member. ``within``, if given, is the bitset
    of member indices the images may use.
    Candidates are tried in ascending index order, which makes the witness
    deterministic. The look-ahead through ``supports`` and the degree
    domains only drop candidates that cannot be completed, so they change
    neither the witness found nor the supports listed. A support with t
    twins keeps the candidates comparable to at least t members still open
    to them, by t saturating counter bitsets over those members (an
    AllDifferent-style count, after Solnon 2010). The images
    of an element's up-set are distinct allowed members above its image, so a
    member with fewer allowed members above it than ``needs`` asks (or below
    it, likewise) cannot host that element. The domain of each distinct need
    with a component of at least 2 is built once.
    ``found``, if given, is a set, and the search lists instead: each complete
    image adds its support (its member indices as a sorted tuple) and the
    search goes on, until the set holds more than MAX_COPY_SUPPORTS supports.
    The rows come from ``family._rows``, stored or made when read as the
    family decides. A placed image's rows are read once, at placement, in
    the directions ``reads`` marks. From TABLE_MIN_MEMBERS
    members up, the unrestricted degree domains come from the cached counts.
    """
    order, constraints, supports, needs, reads = plan
    k = len(order)
    m = len(family.members)
    allowed = (1 << m) - 1 if within is None else within
    if k > allowed.bit_count():
        return None
    above, below = family._rows
    domain = [allowed] * k
    fits = {}  # (u, d): the allowed members with at least u allowed members above, d below
    for i, (u, d) in enumerate(needs):
        if (u > 1 or d > 1) and (u, d) not in fits:
            if within is None and m >= TABLE_MIN_MEMBERS:
                # from the cached counts, in time linear in m
                ups, downs = family._degrees
                fits[u, d] = int("".join(["01"[a >= u and b >= d] for a, b in zip(ups, downs)][::-1]), 2)
            else:
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
        i, x = pin
        domain[i] &= 1 << x
    image = [0] * k  # image[i]: member index of order[i]
    up_rows = [0] * k  # up_rows[i], down_rows[i]: the rows of image[i], made if reads[i] asks
    down_rows = [0] * k

    def extend(i, free):
        # free: bitset of the allowed members not yet used
        if i == k:
            if found is None:
                return True
            found.add(tuple(sorted(image)))
            return len(found) > MAX_COPY_SUPPORTS  # past the cap: stop listing
        lower, upper = constraints[i]
        pool = free & domain[i]
        for j in lower:
            pool &= up_rows[j]
        for j in upper:
            pool &= down_rows[j]
        for up, p_lower, p_upper, t in supports[i]:
            dom = free
            for j in p_lower:
                dom &= up_rows[j]
            for j in p_upper:
                dom &= down_rows[j]
            toward = below if up else above
            # saturating counters: count[s] holds the members comparable,
            # in that direction, to more than s members of dom
            count = [0] * t
            for y in iter_bits(dom):
                near = toward[y]
                for s in range(t - 1, 0, -1):
                    count[s] |= count[s - 1] & near
                count[0] |= near
            pool &= count[-1]
        read_up, read_down = reads[i]
        while pool:
            low = pool & -pool
            pool ^= low
            y = image[i] = low.bit_length() - 1
            if read_up:
                up_rows[i] = above[y]
            if read_down:
                down_rows[i] = below[y]
            if extend(i + 1, free ^ low):
                return True
        return False

    hit = extend(0, allowed)
    del extend  # extend's closure holds extend: drop it, or each call leaves a cycle
    if not hit:
        return None
    masks = [0] * k
    for i, e in enumerate(order):
        masks[e] = family.members[image[i]]
    return EmbeddingWitness(poset, family, tuple(masks))


def find_embedding(family: SetFamily, poset: Poset, within=None):
    """A weak-subposet embedding witness, or None.

    Backtracking over poset elements in decreasing-constraint order; candidate
    members are pruned by comparability with already-assigned images. The
    returned witness is the first found under ascending candidate order, so
    output is deterministic. ``within``, if given, is a bitset of member
    indices to which the witness's image is restricted; the witness is the
    one ``family.restrict(iter_bits(within))`` gives, but keeps ``family``.
    """
    return _search(family, poset, _plan(poset), within=within)


def embedding_using_member(family: SetFamily, poset: Poset, member_index: int, within=None):
    """A witness whose image includes the given family member, or None.

    ``within``, if given, is a bitset of member indices (containing
    ``member_index``) to which the witness's image is restricted. The member
    is pinned at the position of each orbit representative in turn: composing
    a witness with an automorphism moves the member onto any element of the
    orbit.
    """
    plan = _plan(poset)
    for e in poset.orbit_representatives():
        w = _search(family, poset, plan, (plan[0].index(e), member_index), within)
        if w is not None:
            return w
    return None


@lru_cache(maxsize=256)
def _through_plans(poset: Poset):
    """Listing plans for ``completing_members``, one per pair (e, f).

    e is an orbit representative (the element the candidate plays) and f any
    other element (the element x plays) with no smaller twin (same up- and
    down-sets) but e: swapping twins fixes e and maps their plans onto each
    other. Each plan is (order, constraints, toward, ready, need_up, need_down):

    - ``order`` lists the elements other than e, starting at f; each next one
      has the most comparabilities to those placed, e's neighbours first on
      ties, then the least index. ``constraints`` is as in ``_plan``.
    - ``toward[i]`` is 1 if order[i] lies below e (the candidate must lie
      above its image), -1 if above e, 0 if incomparable to e.
    - ``ready`` is the length of the shortest prefix that holds f and every
      neighbour of e: past it the candidates are fixed.
    - ``need_up`` (``need_down``) counts the elements other than e above
      (below) f, Ullmann's degree filter for x.
    """
    roles = [(poset.up_set(a), poset.down_set(a)) for a in range(poset.size)]
    plans = []
    for e in poset.orbit_representatives():
        for f in range(poset.size):
            if f == e or any(g != e and roles[g] == roles[f] for g in range(f)):
                continue
            order = [f]
            rest = set(range(poset.size)) - {e, f}
            while rest:
                a = min(rest, key=lambda a: (-sum(poset.comparable(a, b) for b in order),
                                             not poset.comparable(a, e), a))
                order.append(a)
                rest.remove(a)
            constraints = _constraints(poset, order)
            toward = tuple(poset.less(a, e) - poset.less(e, a) for a in order)
            ready = max([i + 1 for i, t in enumerate(toward) if t], default=1)
            plans.append((tuple(order), constraints, toward, ready,
                          len(roles[f][0] - {e}), len(roles[f][1] - {e})))
    return tuple(plans)


def completing_members(family: SetFamily, poset: Poset, x: int, within: int, candidates: int) -> int:
    """The candidates c for which the poset embeds in ``within | c`` using both x and c.

    ``within`` and ``candidates`` are disjoint bitsets of member indices, and
    ``within`` holds the member index x. For each plan of ``_through_plans``
    the search lists the images of P - e in ``within`` with f at x. Once e's
    neighbours are placed, the candidates comparable to their images in the
    right directions are fixed, and one completion of the remaining elements
    adds all of them. Automorphisms move any embedding's candidate onto an
    orbit representative, so e need only range over those; x may play any
    other element. A partial image is dropped as soon as e's neighbours placed
    so far leave no candidate that is not already added.
    """
    above, below = family.above, family.below
    up, down = (above[x] & within).bit_count(), (below[x] & within).bit_count()
    image = [x] * poset.size
    found = 0

    def extend(i, left, hosts):
        # Lists the images of positions i.. in left. hosts: the candidates not
        # yet found that are comparable, as e needs, to the images before i.
        # Past ready one completion adds hosts, and the search returns True.
        nonlocal found
        if i == k:
            found |= hosts
            return True
        lower, upper = constraints[i]
        pool = left
        for j in lower:
            pool &= above[image[j]]
        for j in upper:
            pool &= below[image[j]]
        t = toward[i]
        while pool:
            low = pool & -pool
            pool ^= low
            m = image[i] = low.bit_length() - 1
            h = (hosts & above[m] if t > 0 else hosts & below[m] if t < 0 else hosts) & ~found
            if h and extend(i + 1, left ^ low, h) and i >= ready:
                return True
        return False

    if candidates and poset.size - 1 <= within.bit_count():
        left = within ^ 1 << x
        for order, constraints, toward, ready, need_up, need_down in _through_plans(poset):
            if need_up > up or need_down > down:
                continue
            k = len(order)
            t = toward[0]
            hosts = (candidates & above[x] if t > 0 else candidates & below[x] if t < 0
                     else candidates) & ~found
            if hosts:
                extend(1, left, hosts)
    del extend  # extend's closure holds extend: drop it, or each call leaves a cycle
    return found


def minimal_posets(forbidden) -> list:
    """The members of the list into which no other non-isomorphic member weakly embeds.

    If q embeds in p, every q-free family is p-free, so the result forbids
    exactly what the list forbids. Of isomorphic members the first is kept,
    and the list order is kept.
    """
    return list(_minimal_posets(tuple(forbidden)))


@lru_cache(maxsize=64)
def _minimal_posets(forbidden: tuple) -> tuple:
    keys = [p.canonical_key() for p in forbidden]
    keep = []
    for i, p in enumerate(forbidden):
        if keys[i] in keys[:i]:
            continue
        # p's principal down-sets, ordered by inclusion, form a copy of p
        host = SetFamily(max(p.size, 1), [
            sum(1 << a for a in p.down_set(b)) | 1 << b for b in range(p.size)
        ])
        if not any(key != keys[i] and find_embedding(host, q) is not None
                   for q, key in zip(forbidden, keys)):
            keep.append(p)
    return tuple(keep)


def find_any_embedding(family: SetFamily, forbidden):
    """The witness of the forbidden list's first poset that embeds, or None.

    Freeness is decided on ``minimal_posets`` first, as ``is_free`` does; if
    the family is not free, the whole list is scanned in order, so the witness
    is that of the list's first embedding poset, which is its ``poset``. Each
    poset is searched at most once: the scan reuses the witnesses, and the
    refusals, of the freeness pass and of its own earlier steps.
    """
    forbidden = list(forbidden)
    seen = {}  # poset -> its find_embedding result
    for p in minimal_posets(forbidden):
        seen[p] = find_embedding(family, p)
        if seen[p] is not None:
            break
    else:
        return None
    for p in forbidden:
        if p not in seen:
            seen[p] = find_embedding(family, p)
        if seen[p] is not None:
            return seen[p]
    return None


def is_free(family: SetFamily, forbidden) -> bool:
    """True iff no member of the forbidden list embeds into the family.

    Only the members that ``minimal_posets`` keeps are tested.
    """
    return all(find_embedding(family, p) is None for p in minimal_posets(forbidden))


def copy_supports(family: SetFamily, q: Poset) -> set:
    """The supports (sorted member-index tuples) of the copies of Q in the
    family, listed by one unforced search; refused past MAX_COPY_SUPPORTS of
    them."""
    found = set()
    _search(family, q, _plan(q), found=found)
    _check_n(len(found), MAX_COPY_SUPPORTS, lo=0, what="copy supports ")
    return found


def count_copies(family: SetFamily, q: Poset) -> int:
    """Number of |Q|-element subfamilies that host Q using all their members.

    A chain Q counts chains; any other Q counts its ``copy_supports``.
    """
    if q.is_chain():
        return chain_count((1 << len(family)) - 1, q.size, family._rows[1])
    return len(copy_supports(family, q))
