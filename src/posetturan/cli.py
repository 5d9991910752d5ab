"""Command-line front end.

Subcommands: construct, count, free, search, formula, verify. Machine-stable
output by default (JSON / TSV); human tables behind --pretty. Exit codes:
0 success, 1 verification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

# only the modules build_parser reads; each cmd_* imports the others it runs
from .constructions import CONSTRUCTIONS
from .formulas import FORMULAS, closed_formula
from .lattice import MAX_EXACT_SEARCH_N

USAGE_ERROR = 2

# the names of proofcheck.VERIFIERS, sorted; verify imports proofcheck only when it runs
LEMMAS = (
    "chaincount", "coloring", "erdos-gallai", "nfree-components", "sublattice", "zigzag",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetturan",
        description="Workbench for generalized Turan problems on posets in the Boolean lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit an extremal family to stdout")
    p.add_argument("name", choices=sorted(CONSTRUCTIONS))
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("count", help="count copies of Q in a family")
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--q", required=True, metavar="POSETSPEC")

    forbid_help = "a forbidden poset or list; repeat to forbid the concatenation, in order"
    p = sub.add_parser("free", help="decide P-freeness of a family")
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--forbid", required=True, action="append", metavar="POSETSPEC", help=forbid_help)
    p.add_argument("--pretty", action="store_true")

    n_range = f"1 <= n <= {MAX_EXACT_SEARCH_N}"
    p = sub.add_parser("search", help=f"exact La(n, forbidden, #Q) by search, {n_range}")
    p.add_argument("--n", type=int, required=True, help=f"ground set size, {n_range}")
    p.add_argument("--forbid", required=True, action="append", metavar="POSETSPEC", help=forbid_help)
    p.add_argument("--q", required=True, metavar="POSETSPEC")
    p.add_argument(
        "--budget", type=int, default=None,
        help="stop after this many search nodes and report complete=false (optional)",
    )
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("formula", help="evaluate a closed-form count")
    p.add_argument("id", choices=sorted(FORMULAS))
    p.add_argument("--n", type=int)
    p.add_argument("--sweep", metavar="LO..HI")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--t", type=int)

    p = sub.add_parser("verify", help="run lemma verification suites")
    p.add_argument(
        "--lemma",
        choices=[*LEMMAS, "all"],
        default="all",
    )
    p.add_argument("--seed", type=int, default=0)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser run_command uses, built on its first call.

    Parsing leaves a parser as it was: an append action copies its list, and
    a subcommand parses into a new namespace. So one parser serves every call.
    """
    return build_parser()


def _fail(message: str, code: int = USAGE_ERROR):
    print(f"error: {message}", file=sys.stderr)
    return code


def _forbidden(specs):
    """The posets of every --forbid spec, concatenated in the order given."""
    from .dsl import parse_poset_dsl

    return [p for spec in specs for p in parse_poset_dsl(spec)]


def cmd_construct(args):
    from .familyio import format_family

    sys.stdout.write(format_family(CONSTRUCTIONS[args.name](args.n)))
    return 0


def cmd_count(args):
    from .dsl import parse_single_poset
    from .embedding import count_copies
    from .familyio import read_family

    q = parse_single_poset(args.q)  # a refused spec exits before the family is read
    print(count_copies(read_family(args.family), q))
    return 0


def cmd_free(args):
    from .embedding import find_any_embedding
    from .familyio import read_family

    forbidden = _forbidden(args.forbid)
    witness = find_any_embedding(read_family(args.family), forbidden)
    if witness is None:
        out = {"free": True}
    else:
        out = {
            "free": False,
            "poset": witness.poset.canonical_key(),
            "witness": list(witness.assignment),
        }
    if args.pretty:
        if out["free"]:
            print("free: yes")
        else:
            print(f"free: no\nposet: {out['poset']}\nwitness masks: {out['witness']}")
    else:
        print(json.dumps(out, sort_keys=True))
    return 0


def cmd_search(args):
    from .dsl import parse_single_poset
    from .search import cached_la_exact, la_exact

    forbidden = _forbidden(args.forbid)
    q = parse_single_poset(args.q)
    if args.no_cache:
        report = la_exact(args.n, forbidden, q, budget=args.budget)
    else:
        report = cached_la_exact(args.n, forbidden, q, budget=args.budget)
    payload = report.to_json()
    if args.pretty:
        print(f"optimum: {report.optimum}")
        print(f"complete: {report.complete}")
        print(f"nodes explored: {report.nodes_explored}")
        for w in report.witnesses:
            print(f"witness: {list(w)}")
    else:
        print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_formula(args):
    _, names = FORMULAS[args.id]
    extras = {}
    for name in names:
        if name == "n":
            continue
        value = getattr(args, name, None)
        if value is None:
            return _fail(f"formula {args.id} needs --{name}")
        extras[name] = value
    if args.sweep:
        try:
            lo, hi = (int(x) for x in args.sweep.split("..", 1))
            if lo > hi:
                raise ValueError("empty sweep range")
        except ValueError:
            return _fail(f"bad sweep range {args.sweep!r}")
        # every row is evaluated before any prints, so a refused n prints nothing
        rows = [(n, closed_formula(args.id, n=n, **extras)) for n in range(lo, hi + 1)]
        for n, value in rows:
            print(f"{args.id}\t{n}\t{value}")  # a Fraction prints as 108/5, or 4 when whole
        return 0
    if args.n is None:
        return _fail("formula needs --n or --sweep")
    print(closed_formula(args.id, n=args.n, **extras))
    return 0


def cmd_verify(args):
    from .proofcheck import VERIFIERS

    names = LEMMAS if args.lemma == "all" else [args.lemma]
    failed = False
    for name in names:
        report = VERIFIERS[name](args.seed)
        print(json.dumps(report.to_json(), sort_keys=True))
        if report.failures:
            failed = True
    return 1 if failed else 0


_COMMANDS = {
    "construct": cmd_construct,
    "count": cmd_count,
    "free": cmd_free,
    "search": cmd_search,
    "formula": cmd_formula,
    "verify": cmd_verify,
}


def run_command(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError, OSError) as exc:
        # DslError and FamilyFormatError are ValueErrors; OSError covers
        # unreadable family files (missing, a directory, no permission)
        return _fail(str(exc))
    except MemoryError:
        return _fail("out of memory")


def main():
    sys.exit(run_command())


if __name__ == "__main__":
    main()
