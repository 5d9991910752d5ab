"""Exact closed-form counts, with unbounded integers and exact rationals."""
from __future__ import annotations

import itertools
import math

from .lattice import MAX_FORMULA_N, _check_n


def butterfly_p2(n: int) -> int:
    """2-chain count of the butterfly-free middle two levels; the maximum
    from n = 5 on (result (i)), and below it at n = 2..4."""
    _check_n(n, MAX_FORMULA_N, lo=2)
    return -(-n // 2) * math.comb(n, n // 2)


def p5(n: int) -> int:
    """Maximum 2-chain count of a family avoiding all 5-element path posets."""
    _check_n(n, MAX_FORMULA_N, lo=4)
    return 5 * math.comb(n - 2, n // 2 - 1)


def p6_lower(n: int) -> int:
    """Lower bound for the {W, M}-free 2-chain maximum."""
    _check_n(n, MAX_FORMULA_N, lo=2)
    return 2 * math.comb(n, n // 2) + 1


def n_free(n: int) -> int:
    """2-chain count of the N-free empty set plus middle level; the maximum
    from n = 3 on (result (iii)), and below it at n = 2."""
    _check_n(n, MAX_FORMULA_N)
    return math.comb(n, n // 2)


def sublattice(n: int, a: int, b: int) -> int:
    """Number of full chains meeting the closed interval with endpoint sizes a < b."""
    _check_n(n, MAX_FORMULA_N)
    if not 0 <= a < b <= n:
        raise ValueError(f"need 0 <= a < b <= n, got a={a}, b={b}, n={n}")
    # n! / C(n - b + a, a) counts chains, so the division is exact
    return math.factorial(n) // math.comb(n - b + a, a)


def katona_nagy(n: int, t: int):
    """Lower bound on full chains meeting a t-set family, as an exact Fraction.

    The bound is 0 from t = n + 1 on, where t n - t (t - 1) would be 0 or negative.
    """
    from fractions import Fraction  # only this formula loads fractions

    _check_n(n, MAX_FORMULA_N)
    if not 0 <= t <= 1 << n:  # a family of 2^[n] has at most 2^n sets
        raise ValueError(f"need 0 <= t <= 2^n, got t={t}, n={n}")
    return Fraction(max(t * n - t * (t - 1), 0), n) * (
        math.factorial(n // 2) * math.factorial(-(-n // 2))
    )


FORMULAS = {
    "butterfly_p2": (butterfly_p2, ("n",)),
    "p5": (p5, ("n",)),
    "p6_lower": (p6_lower, ("n",)),
    "n_free": (n_free, ("n",)),
    "sublattice": (sublattice, ("n", "a", "b")),
    "katona_nagy": (katona_nagy, ("n", "t")),
}


def closed_formula(fid: str, **params):
    if fid not in FORMULAS:
        raise ValueError(f"unknown formula id {fid!r}")
    func, names = FORMULAS[fid]
    missing = [p for p in names if p not in params]
    extra = [p for p in params if p not in names]
    if missing or extra:
        raise ValueError(f"formula {fid} takes parameters {names}")
    return func(*(params[p] for p in names))


def chain_count_in_levels(n: int, ell: int, levels) -> int:
    """Number of ell-chains in the union of the given full levels.

    Sums, over ell-subsets of the level tuple, the multinomial counting chains
    with one set on each chosen level.
    """
    _check_n(n, MAX_FORMULA_N)
    tup = tuple(levels)
    if list(tup) != sorted(set(tup)):
        raise ValueError("levels must be strictly increasing")
    if tup and not (0 <= tup[0] and tup[-1] <= n):
        raise ValueError(f"levels out of range 0..{n}")
    if ell < 1:
        raise ValueError("chain length must be at least 1")
    total = 0
    for chosen in itertools.combinations(tup, ell):
        ways = math.factorial(n) // math.factorial(n - chosen[-1])
        ways //= math.factorial(chosen[0])
        for lo, hi in zip(chosen, chosen[1:]):
            ways //= math.factorial(hi - lo)
        total += ways
    return total
