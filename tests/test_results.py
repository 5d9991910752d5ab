"""The table of exact values, ``results/la_small.jsonl``, against its requests.

The table is a result cache: each line is the report ``posetturan search``
printed and appended with TURAN_CACHE pointing at the file. SPECS gives, in
line order, the search options that wrote each row. Every row must be the
report of exactly that request, complete, and each of its witnesses must be
free with ``optimum`` copies of Q, which proves the lower bound of the value.
``search --no-cache`` must print each row with n <= RERUN_MAX_N again, byte for
byte, which rechecks the upper bounds too; the n = 6 rows take 0.05-200 s each,
so CI reruns those that take under a minute. ``test_oracle_n4.py`` checks the n = 4 rows
against the oracle, the rows with Q a single point and a closed form are
compared with it, and the other tests read a pinned report through
``table_report``.

A change of search tree may move a row's ``nodes_explored`` and search tag,
nothing else: DIGESTS pins the rest of each row. Run as a script, this module
writes the table again, each search of SPECS into a fresh file:

    PYTHONPATH=src python tests/test_results.py
"""
import hashlib
import json
import math
import os
from pathlib import Path

import pytest

from posetturan.cli import _forbidden, build_parser, run_command
from posetturan.dsl import parse_single_poset
from posetturan.lattice import SetFamily
from posetturan.search import CACHE_ENV_VAR, _request, verify_witness

TABLE = Path(__file__).resolve().parent.parent / "results" / "la_small.jsonl"

PAPER_PROBLEMS = (  # the five paper problems, each with Q = P2
    ["--forbid", "@chain(3)"],
    ["--forbid", "@N"],
    ["--forbid", "@butterfly"],
    ["--forbid", "@W", "--forbid", "@M"],
    ["--forbid", "@pathfamily(5)"],
)
CLASSICAL_PROBLEMS = (  # La(n, P) for P = chain(3), chain(4), the butterfly, {V, Λ} and N
    ["--forbid", "@chain(3)"],
    ["--forbid", "@chain(4)"],
    ["--forbid", "@butterfly"],
    ["--forbid", "@fork(2)", "--forbid", "@kst(2,1)"],
    ["--forbid", "@N"],
)
SPECS = [
    *(["--n", str(n), *forbid, "--q", "@chain(2)"] for n in (4, 5) for forbid in PAPER_PROBLEMS),
    ["--n", "5", "--forbid", "@kst(2,3)", "--q", "@chain(3)"],
    ["--n", "5", "--forbid", "@butterfly", "--q", "@chain(3)"],
    ["--n", "5", "--forbid", "@butterfly", "--q", "@N"],
    ["--n", "5", "--forbid", "@pathfamily(6)", "--q", "@chain(2)"],
    ["--n", "4", "--forbid", "@N", "--q", "@N"],
    ["--n", "4", "--forbid", "@chain(3)", "--q", "@kst(1,2)"],
    ["--n", "4", "--forbid", "@butterfly", "--q", "@chain(3)"],
    ["--n", "5", "--forbid", "@N", "--q", "@N"],
    *(["--n", "6", *forbid, "--q", "@chain(2)"] for forbid in PAPER_PROBLEMS),
    ["--n", "6", "--forbid", "@butterfly", "--q", "@chain(3)"],
    ["--n", "6", "--forbid", "@butterfly", "--q", "@N"],
    ["--n", "6", "--forbid", "@pathfamily(6)", "--q", "@chain(2)"],
    ["--n", "6", "--forbid", "@kst(2,3)", "--q", "@chain(3)"],
    # Q a single point: the family's size
    *(["--n", str(n), *forbid, "--q", "@chain(1)"] for n in (5, 6) for forbid in CLASSICAL_PROBLEMS),
]
# digest(row) of each row, in line order
DIGESTS = [
    "145ab7f2ea5b80ef", "70eb84968659c33a", "053c7997b128f8fd", "76bb9b8f8c5e3252", "4c11afc6fa3b909c",
    "ed15012de1ca9a40", "2f46bef3534771ac", "5bbf16f1e7259f0a", "767b53d2cd6713f3", "91391e0bf82e04f4",
    "61104a7056b75f87", "f3f61ddc943115cf", "1e28f92bf87c7a5b", "f353becec23c0cd3",
    "11de8bc4700844cb", "66716948c9b8099c", "436e86037ddd158f", "6ca93af046de79b4",
    "5222a26f75c4b54a", "2ff821187ac6d9f0", "b25d860c3013ad51", "398afe54c15b87c1", "7bc8231c826a9f0a",
    "729f54c2eba1e69c", "8a0cae92ffd6fd1f", "c356ec5648f165a6", "c7339513c28a8f43",
    "f799b6009f509005", "0710721880926fbe", "a164c3d05340fc08", "dae75bb69006f1fe", "a2511891e3ef34bb",
    "2cbe427ee519772c", "d1dbf700c8a7950f", "cdf5f1c96c273a48", "eb749df31fd1ed20", "c316203291c2ecdb",
]
RERUN_MAX_N = 5


def request(spec):
    """(n, forbidden, Q, the search params) of a search's options."""
    args = build_parser().parse_args(["search", *spec])
    forbidden, q = _forbidden(args.forbid), parse_single_poset(args.q)
    return args.n, forbidden, q, _request(args.n, forbidden, q, args.budget)


def table_rows():
    """The table's rows: the reports, parsed, in line order."""
    with open(TABLE, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def table_report(n, forbidden, q):
    """The table's row for the unbudgeted search of La(n, forbidden, #Q)."""
    params = _request(n, forbidden, q, None)
    (row,) = [row for row in table_rows() if row["params"] == params]
    return row


def digest(row):
    """A short hash of the row without ``nodes_explored`` and the search tag."""
    kept = {**row, "params": {**row["params"], "search": None}, "nodes_explored": None}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode("utf-8")).hexdigest()[:16]


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


RERUNS = [(spec, line) for spec, line in zip(SPECS, TABLE.read_bytes().splitlines(keepends=True))
          if json.loads(line)["params"]["n"] <= RERUN_MAX_N]


@pytest.mark.parametrize("spec, line", RERUNS, ids=[" ".join(spec) for spec, _ in RERUNS])
def test_search_without_the_cache_prints_the_row(spec, line, capsys):
    assert run_command(["search", "--no-cache", *spec]) == 0
    assert capsys.readouterr().out.encode("utf-8") == line


def test_rows_keep_their_values():
    # a regenerated table may move only the node counts and the search tags
    assert [digest(row) for row in table_rows()] == DIGESTS


def largest_levels(n, k):
    """The sizes of the k largest levels of 2^[n], added."""
    return sum(sorted((math.comb(n, i) for i in range(n + 1)), reverse=True)[:k])


# La(n, P) in closed form, by the --forbid specs of the row
CLASSICAL_FORMS = {
    ("@chain(3)",): lambda n: largest_levels(n, 2),  # Erdős (1945)
    ("@chain(4)",): lambda n: largest_levels(n, 3),
    # De Bonis, Katona and Swanepoel (2005)
    ("@butterfly",): lambda n: math.comb(n, n // 2) + math.comb(n, n // 2 + 1),
    # {V, Λ}: Katona and Tarján (1983)
    ("@fork(2)", "@kst(2,1)"): lambda n: 2 * math.comb(n - 1, (n - 1) // 2),
}


def test_classical_rows_equal_their_closed_forms():
    checked = 0
    for spec, row in zip(SPECS, table_rows()):
        args = build_parser().parse_args(["search", *spec])
        form = CLASSICAL_FORMS.get(tuple(args.forbid))
        if args.q == "@chain(1)" and form is not None:
            assert row["optimum"] == form(args.n), spec
            checked += 1
    assert checked == 8


def write_table():
    """Run each search of SPECS into a fresh cache file, then make it the table."""
    fresh = TABLE.with_name(TABLE.name + ".new")
    fresh.unlink(missing_ok=True)
    os.environ[CACHE_ENV_VAR] = str(fresh)
    for spec in SPECS:
        if run_command(["search", *spec]) != 0:
            raise SystemExit(f"search {' '.join(spec)} failed")
    os.replace(fresh, TABLE)


if __name__ == "__main__":
    write_table()
