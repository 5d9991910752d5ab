"""The table of exact values, ``results/la_small.jsonl``, against its requests.

The table is a result cache: each line is the report ``posetturan search``
printed and appended with TURAN_CACHE pointing at the file. SPECS gives, in
line order, the search options that wrote each row. Every row must be the
report of exactly that request, complete, and each of its witnesses must be
free with ``optimum`` copies of Q, which proves the lower bound of the value.
``search --no-cache`` must print each row again, byte for byte, which rechecks
the upper bounds too. ``test_oracle_n4.py`` checks the n = 4 rows against the
oracle.
"""
import json
from pathlib import Path

import pytest

from posetturan.cli import _forbidden, build_parser, run_command
from posetturan.dsl import parse_single_poset
from posetturan.lattice import SetFamily
from posetturan.search import _request, verify_witness

TABLE = Path(__file__).resolve().parent.parent / "results" / "la_small.jsonl"

PAPER_PROBLEMS = (  # the five paper problems, each with Q = P2
    ["--forbid", "@chain(3)"],
    ["--forbid", "@N"],
    ["--forbid", "@butterfly"],
    ["--forbid", "@W", "--forbid", "@M"],
    ["--forbid", "@pathfamily(5)"],
)
SPECS = [
    *(["--n", str(n), *forbid, "--q", "@chain(2)"] for n in (4, 5) for forbid in PAPER_PROBLEMS),
    ["--n", "5", "--forbid", "@kst(2,3)", "--q", "@chain(3)"],
    ["--n", "5", "--forbid", "@butterfly", "--q", "@chain(3)"],
    ["--n", "5", "--forbid", "@butterfly", "--q", "@N"],
    ["--n", "5", "--forbid", "@pathfamily(6)", "--q", "@chain(2)"],
]


def request(spec):
    """(n, forbidden, Q, the search params) of a search's options."""
    args = build_parser().parse_args(["search", *spec])
    forbidden, q = _forbidden(args.forbid), parse_single_poset(args.q)
    return args.n, forbidden, q, _request(args.n, forbidden, q, args.budget)


def table_rows():
    """The table's rows: the reports, parsed, in line order."""
    with open(TABLE, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_one_row_per_spec_each_as_the_cli_prints_it():
    lines = TABLE.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(SPECS)
    assert all(line == json.dumps(json.loads(line), sort_keys=True) for line in lines)


@pytest.mark.parametrize("spec, row", zip(SPECS, table_rows()), ids=[" ".join(s) for s in SPECS])
def test_row_is_the_complete_report_of_its_request(spec, row):
    n, forbidden, q, params = request(spec)
    assert row["params"] == params
    assert row["complete"] is True
    assert 1 <= len(row["witnesses"]) <= params["witness_cap"]
    for masks in row["witnesses"]:
        family = SetFamily(n, masks)
        assert list(family.members) == masks
        assert verify_witness(family, forbidden, q) == (True, row["optimum"])


@pytest.mark.parametrize("spec, line", zip(SPECS, TABLE.read_bytes().splitlines(keepends=True)),
                         ids=[" ".join(s) for s in SPECS])
def test_search_without_the_cache_prints_the_row(spec, line, capsys):
    assert run_command(["search", "--no-cache", *spec]) == 0
    assert capsys.readouterr().out.encode("utf-8") == line
