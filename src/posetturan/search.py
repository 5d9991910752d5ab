"""Exact La(n, forbidden, #Q) computation by branch-and-bound subfamily search."""
from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

from .embedding import count_copies, embedding_using_member, is_free
from .lattice import SetFamily, cached_lattice, iter_bits, level_family
from .formulas import chain_count_in_levels
from .posets import Poset

DEFAULT_WITNESS_CAP = 16
CACHE_ENV_VAR = "TURAN_CACHE"
DEFAULT_CACHE_FILE = "turan-cache.jsonl"


@dataclass
class SearchReport:
    optimum: int
    witnesses: list            # list of mask tuples, lexicographically least first
    nodes_explored: int
    complete: bool
    params: dict = field(default_factory=dict)

    def witness_families(self, n: int):
        return [SetFamily(n, w) for w in self.witnesses]

    def to_json(self) -> dict:
        return {
            "optimum": self.optimum,
            "witnesses": [list(w) for w in self.witnesses],
            "nodes_explored": self.nodes_explored,
            "complete": self.complete,
            "params": self.params,
        }


def _check_request(n: int, budget):
    if not 1 <= n <= 5 or (n == 5 and budget is None):
        raise ValueError(f"exact search supports 1 <= n <= 4, or n = 5 with a budget; got n={n}")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")


def _request(n: int, forbidden, q: Poset, budget) -> dict:
    """The params of a search report, which are also its cache key."""
    return {
        "n": n,
        "forbidden": [p.canonical_key() for p in forbidden],
        "q": q.canonical_key(),
        "budget": budget,
        "witness_cap": DEFAULT_WITNESS_CAP,
    }


def la_exact(n: int, forbidden, q: Poset, budget: int = None) -> SearchReport:
    """Exact maximum Q-copy count over forbidden-free subfamilies of 2^[n].

    Depth-first inclusion/exclusion over lattice elements, middle levels first.
    Branches are cut when the current family already embeds a forbidden poset,
    or when the admissible bound (copies in current plus remaining) cannot beat
    the best value found. For Q = P2 the bound is counted once, at the root, and
    excluding x subtracts the remaining members comparable to x; other Q recount
    it lazily. Neither this nor the degree filter of embedding_using_member
    changes the nodes explored or the report. n <= 4 always completes; n = 5
    requires a node budget of at least 1, stops after exactly that many nodes,
    and reports complete=False if it ran out.
    """
    forbidden = list(forbidden)
    _check_request(n, budget)
    order = sorted(range(1 << n), key=lambda m: (abs(m.bit_count() - n / 2), m))
    # One family for the whole search: member index = mask.
    universe = cached_lattice(n)
    above, below = universe.above, universe.below
    pairs = q.is_chain() and q.size == 2

    state = {"nodes": 0, "complete": True, "best": -1, "witnesses": []}

    def rec(pos, chosen, avail, bound):
        # chosen: bitset of the included masks; avail: bitset of chosen plus order[pos:];
        # bound: the copies of Q in avail; for Q other than P2, None until some node needs it.
        if budget is not None and state["nodes"] >= budget:
            state["complete"] = False
            return
        state["nodes"] += 1
        if pos == len(order):
            # no masks remain, so avail is exactly chosen
            value = count_copies(universe, q, avail) if bound is None else bound
            if value > state["best"]:
                state["best"] = value
                state["witnesses"] = [tuple(iter_bits(chosen))]
            elif value == state["best"]:
                state["witnesses"].append(tuple(iter_bits(chosen)))
            return
        if state["best"] >= 0:
            if bound is None:
                bound = count_copies(universe, q, avail)
            if bound < state["best"]:
                return
            if bound == state["best"] and len(state["witnesses"]) >= DEFAULT_WITNESS_CAP:
                return
        x = order[pos]
        within = chosen | 1 << x
        if not any(embedding_using_member(universe, p, x, within) is not None for p in forbidden):
            # including x leaves chosen plus remaining, hence the bound, unchanged
            rec(pos + 1, within, avail, bound)
        rest = avail & ~(1 << x)
        # for Q = P2, excluding x loses exactly the 2-chains through x in rest
        child = bound - (rest & (above[x] | below[x])).bit_count() if pairs else None
        rec(pos + 1, chosen, rest, child)

    full = (1 << (1 << n)) - 1
    rec(0, 0, full, count_copies(universe, q, full) if pairs else None)
    del rec  # rec's closure holds rec: drop it, or each call leaves a cycle
    return SearchReport(
        optimum=state["best"],
        witnesses=sorted(set(state["witnesses"]))[:DEFAULT_WITNESS_CAP],
        nodes_explored=state["nodes"],
        complete=state["complete"],
        params=_request(n, forbidden, q, budget),
    )


MAX_LEVEL_SEARCH_N = 16  # la_levels: 2^(n+1) level tuples
MAX_LEVEL_GENERIC_N = 10  # la_levels with non-chain P: an embedding search per level union


def la_levels(n: int, forbidden, q: Poset) -> SearchReport:
    """Best Q-copy count over unions of full levels that avoid the forbidden posets."""
    forbidden = list(forbidden)
    if n > MAX_LEVEL_SEARCH_N:
        raise ValueError(f"level search supports n <= {MAX_LEVEL_SEARCH_N}")
    chains_only = all(p.is_chain() for p in forbidden)
    if not chains_only and n > MAX_LEVEL_GENERIC_N:
        raise ValueError(
            f"level search with non-chain forbidden posets supports n <= {MAX_LEVEL_GENERIC_N}"
        )
    if not q.is_chain() and n > 8:
        raise ValueError("level search with a non-chain Q supports n <= 8")
    min_chain = min((p.size for p in forbidden if p.is_chain()), default=None)
    best = -1
    best_levels = []
    nodes = 0
    for r in range(n + 2):
        for tup in itertools.combinations(range(n + 1), r):
            nodes += 1
            if min_chain is not None and len(tup) >= min_chain:
                continue
            if not chains_only:
                fam = level_family(n, tup)
                if not is_free(fam, [p for p in forbidden if not p.is_chain()]):
                    continue
            if q.is_chain():
                copies = chain_count_in_levels(n, q.size, tup)
            else:
                copies = count_copies(level_family(n, tup), q)
            if copies > best:
                best = copies
                best_levels = [tup]
            elif copies == best:
                best_levels.append(tup)
    witnesses = sorted(tuple(level_family(n, t).members) for t in best_levels)
    return SearchReport(
        optimum=best,
        witnesses=witnesses[:DEFAULT_WITNESS_CAP],
        nodes_explored=nodes,
        complete=True,
        params={
            "n": n,
            "forbidden": [p.canonical_key() for p in forbidden],
            "q": q.canonical_key(),
            "levels": [list(t) for t in sorted(best_levels)[:DEFAULT_WITNESS_CAP]],
        },
    )


@dataclass(frozen=True)
class WitnessCheck:
    free: bool
    copies: int


def verify_witness(family: SetFamily, forbidden, q: Poset) -> WitnessCheck:
    """Certificate check: freeness plus the Q-copy count of the family."""
    return WitnessCheck(is_free(family, forbidden), count_copies(family, q))


def cache_path() -> str:
    return os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_FILE)


def _cache_lookup(path, params):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    # Reports are written with sorted keys, so a line that lacks this exact
    # text cannot hold the request. Searching for it from the end finds the
    # last valid line first, and only the lines around a hit are parsed.
    needle = ('"params": ' + json.dumps(params, sort_keys=True)).encode()
    end = len(data)
    while (hit := data.rfind(needle, 0, end)) >= 0:
        # The needle holds no line break. Cut out the text between the \n
        # around the hit; splitlines also ends lines at \r, as text mode does.
        start = data.rfind(b"\n", 0, hit) + 1
        stop = data.find(b"\n", hit, end)
        for line in reversed(data[start:end if stop < 0 else stop].splitlines()):
            if needle not in line:
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
            except ValueError:  # not UTF-8, or not JSON
                continue
            if (
                isinstance(rec, dict)
                and rec.keys() == SearchReport.__dataclass_fields__.keys()
                and rec["params"] == params
            ):
                return rec
        end = start
    return None


def cached_la_exact(n, forbidden, q, budget=None, path=None) -> SearchReport:
    """la_exact with an append-only JSONL cache of its reports.

    Each line is a report exactly as ``search`` prints it, keyed on its
    params; the last line whose params equal the request is returned, so a
    hit reports what la_exact would.
    """
    forbidden = list(forbidden)
    _check_request(n, budget)
    path = path or cache_path()
    params = _request(n, forbidden, q, budget)
    rec = _cache_lookup(path, params)
    if rec is not None:
        return SearchReport(**{**rec, "witnesses": [tuple(w) for w in rec["witnesses"]]})
    report = la_exact(n, forbidden, q, budget=budget)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(report.to_json(), sort_keys=True) + "\n")
    return report
