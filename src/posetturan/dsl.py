"""Small text language for posets.

Either a builtin reference "@name" / "@name(args)" with names chain, Kst,
fork, crown, diamond, butterfly, N, W, M, S, pathfamily, or an inline block of
relations: identifiers joined by "<", statements separated by ";" or
newlines, e.g. "a<b; c<b; c<d". Identifiers number the elements 0, 1, ... in
order of first appearance and are not kept; a bare one is an isolated element.
"""
from __future__ import annotations

import re

from .posets import Poset, PosetError, named_poset, path_hasse_family, poset_from_relations


class DslError(ValueError):
    def __init__(self, message, line=None, column=None):
        loc = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line
        self.column = column


_BUILTIN_RE = re.compile(r"^@(\w+)\s*(?:\(([^)]*)\))?$")
_IDENT_RE = re.compile(r"^\w+$")


def parse_poset_dsl(text: str):
    """Parse a poset spec into a list of posets (usually a singleton)."""
    stripped = text.strip()
    if not stripped:
        raise DslError("empty poset spec")
    if stripped.startswith("@"):
        return _parse_builtin(stripped)
    return [_parse_relations(text)]


def parse_single_poset(text: str) -> Poset:
    family = parse_poset_dsl(text)
    if len(family) != 1:
        raise DslError("expected a single poset, got a family")
    return family[0]


def _parse_builtin(text: str):
    match = _BUILTIN_RE.match(text)
    if not match:
        raise DslError(f"bad builtin reference {text!r}")
    name, argtext = match.group(1), match.group(2)
    args = []
    if argtext and argtext.strip():
        for part in argtext.split(","):
            part = part.strip()
            try:
                args.append(int(part))
            except ValueError:
                raise DslError(f"builtin argument {part!r} is not an integer") from None
    if name.lower() == "pathfamily":
        if len(args) != 1:
            raise DslError("@pathfamily takes one argument")
        try:
            return path_hasse_family(args[0])
        except PosetError as exc:
            raise DslError(str(exc)) from None
    try:
        return [named_poset(name, *args)]
    except PosetError as exc:
        raise DslError(str(exc)) from None


def _parse_relations(text: str) -> Poset:
    elements = {}
    relations = []

    def intern(tok, line, col):
        if not _IDENT_RE.match(tok):
            raise DslError(f"bad identifier {tok!r}", line, col)
        if tok not in elements:
            elements[tok] = len(elements)
        return elements[tok]

    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in re.finditer(r"\s*([^;]*)", line):  # group 1: a statement, without its indent
            stmt, col = match.group(1), match.start(1) + 1
            if not stmt:
                continue
            toks = [t.strip() for t in stmt.split("<")]
            if any(not t for t in toks):
                raise DslError("empty identifier in relation", lineno, col)
            ids = [intern(t, lineno, col) for t in toks]
            relations.extend(zip(ids, ids[1:]))
    if not elements:
        raise DslError("no elements declared")
    try:
        return poset_from_relations(len(elements), relations)
    except PosetError as exc:
        raise DslError(str(exc)) from None

