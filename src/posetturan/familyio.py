"""Reading and writing set families.

Text format: first line ``n=<int>``; each subsequent line is either a
whitespace-separated element list ("1 3 4"), "{}" for the empty set, or a
level shorthand "L<k>" / "L<k>+L<j>". The JSON alternative is
``{"n": int, "masks": [int, ...]}``, where true and false are not ints.
"""
from __future__ import annotations

import json

from .lattice import MAX_FORMULA_N, SetFamily, _check_n, format_mask, level_family


class FamilyFormatError(ValueError):
    pass


def parse_family(text: str) -> SetFamily:
    text = text.strip()
    if not text:
        raise FamilyFormatError("empty family input")
    if text.startswith("{"):
        return _parse_json(text)
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FamilyFormatError("family input has only comments")
    head = lines[0].replace(" ", "")
    if not head.startswith("n="):
        raise FamilyFormatError('first line must be "n=<int>"')
    try:
        n = int(head[2:])
    except ValueError:
        raise FamilyFormatError(f"bad dimension {head[2:]!r}") from None
    _check_n(n, MAX_FORMULA_N)  # SetFamily's refusal, before any line makes a mask
    # the plain names of the elements a family can hold; any other token
    # ("01", "+3", an element outside 1..n, junk) takes _element_bit
    bits = {str(e): 1 << (e - 1) for e in range(1, n + 1)}
    masks = []
    levels = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "{}":
            masks.append(0)
        elif line[0] in "Ll":
            for part in line.replace(" ", "").split("+"):
                if not part or part[0] not in "Ll":
                    raise FamilyFormatError(f"line {lineno}: bad level shorthand {line!r}")
                try:
                    levels.add(int(part[1:]))
                except ValueError:
                    raise FamilyFormatError(
                        f"line {lineno}: bad level shorthand {line!r}"
                    ) from None
        else:
            mask = 0
            for tok in line.split():
                bit = bits.get(tok)
                if bit is None:
                    bit = _element_bit(tok, n, lineno)
                mask |= bit
            masks.append(mask)
    if levels:
        masks.extend(level_family(n, levels).members)
    return SetFamily(n, masks)


def _element_bit(tok: str, n: int, lineno: int) -> int:
    try:
        el = int(tok)
    except ValueError:
        raise FamilyFormatError(f"line {lineno}: bad element {tok!r}") from None
    if not 1 <= el <= n:
        raise FamilyFormatError(f"line {lineno}: element {el} outside 1..{n}")
    return 1 << (el - 1)


def _parse_json(text: str) -> SetFamily:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise FamilyFormatError(f"bad JSON family: {exc}") from None
    if not isinstance(data, dict) or "n" not in data or "masks" not in data:
        raise FamilyFormatError('JSON family needs keys "n" and "masks"')
    n, masks = data["n"], data["masks"]
    # type() is int, not isinstance: JSON true and false load as bools, which are ints
    if not (type(n) is int and isinstance(masks, list) and all(type(m) is int for m in masks)):
        raise FamilyFormatError('JSON family needs an integer "n" and a list of integer "masks"')
    return SetFamily(n, masks)


def format_family(family: SetFamily) -> str:
    lines = [f"n={family.n}"]
    lines.extend(format_mask(m) for m in family.members)
    return "\n".join(lines) + "\n"


def read_family(path: str) -> SetFamily:
    with open(path, encoding="utf-8") as fh:
        return parse_family(fh.read())
