"""The extremal families, parameterized by n."""
from __future__ import annotations

from .lattice import MAX_SCAN_N, SetFamily, level_family


def middle_two_levels(n: int) -> SetFamily:
    """Levels floor(n/2) and floor(n/2)+1.

    Butterfly-free, with ceil(n/2) C(n, floor(n/2)) containments.
    """
    if n < 2:
        raise ValueError("middle_two_levels needs n >= 2")
    return level_family(n, [n // 2, n // 2 + 1])


def n_free_construction(n: int) -> SetFamily:
    """The empty set plus the middle level; N-free with C(n, floor(n/2)) containments."""
    if n < 1:
        raise ValueError("n_free_construction needs n >= 1")
    # at n = 1 the floor-middle level is {emptyset} itself; use level 1 so the
    # family still realizes C(1, 0) = 1 containment
    return SetFamily(n, (0,) + level_family(n, [max(1, n // 2)]).members)


def p5_construction(n: int) -> SetFamily:
    """Sets whose trace on [n-2] has size floor(n/2)-1.

    Splits into C(n-2, floor(n/2)-1) pairwise incomparable 4-set blocks, each a
    copy of the 2-cube with 5 containments; free of every 5-element path poset.
    """
    if n < 4:
        raise ValueError("p5_construction needs n >= 4")
    if n > MAX_SCAN_N:
        raise ValueError(f"p5_construction scans 2^n sets and supports n <= {MAX_SCAN_N}")
    trace = (1 << (n - 2)) - 1
    want = (n - 2) // 2  # equals floor(n/2) - 1
    masks = [m for m in range(1 << n) if (m & trace).bit_count() == want]
    return SetFamily(n, masks)


def p6_construction(n: int) -> SetFamily:
    """Empty set, middle level, and the full set; contains neither W nor M."""
    if n < 2:
        raise ValueError("p6_construction needs n >= 2")
    full = (1 << n) - 1
    return SetFamily(n, (0, full) + level_family(n, [n // 2]).members)


CONSTRUCTIONS = {
    "middle-two-levels": middle_two_levels,
    "n-free": n_free_construction,
    "p5": p5_construction,
    "p6": p6_construction,
}
