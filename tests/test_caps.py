"""Every size cap lives in lattice.py and refuses through one check.

Each MAX_* of the cap block has rows below at its first refused value. A row
must raise ``DimensionError`` with the message "<what> outside supported
range <lo>..<hi>" before it allocates: the traced peak stays under 1 MiB.
Where a command reaches the cap, ``run_command`` prints that message on
stderr, nothing on stdout, and exits 2.
"""
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from posetturan import cli, embedding, lattice
from posetturan.cli import run_command
from posetturan.constructions import middle_two_levels, n_free_construction, p5_construction, p6_construction
from posetturan.embedding import copy_supports
from posetturan.familyio import format_family
from posetturan.formulas import chain_count_in_levels, closed_formula
from posetturan.lattice import (
    DimensionError,
    SetFamily,
    cached_lattice,
    chains_meeting,
    convex_hull,
    interval_family,
    level_family,
)
from posetturan.posets import chain, crown, diamond, fork, kst, n_poset, path_hasse_family, poset_from_relations
from posetturan.proofcheck import (
    Coloring,
    check_one_critical_pair_per_chain,
    color_family,
    p5_component_report,
    zigzag_find_WM,
)
from posetturan.search import cached_la_exact, la_exact, la_levels

PACKAGE = Path(lattice.__file__).resolve().parent
COPY_CAP = 10  # every row runs with MAX_COPY_SUPPORTS lowered to this
PEAK_LIMIT = 1 << 20
BFLY, P2 = kst(2, 2), chain(2)
# the empty set under 20 pairwise incomparable 2-sets of [8]: one P5-free star component of 21 members
STAR = SetFamily(8, [0] + [m for m in range(1 << 8) if m.bit_count() == 2][:20])


def scan(lo=1):
    return f"dimension n=25 outside supported range {lo}..24"


def formula(lo=1):
    return f"dimension n=63 outside supported range {lo}..62"


POSET_SIZE = "poset size 9 outside supported range 0..8"

# (cap, library call, message, argv of a command that reaches the cap or None);
# {fam} is a family file of 2^[4]'s levels 1 and 2, {huge} one whose header is n=63
CAP_REFUSALS = {
    "level_family": ("MAX_SCAN_N", lambda: level_family(25, [0]), scan(), None),
    "cached_lattice": ("MAX_SCAN_N", lambda: cached_lattice(25), scan(), None),
    "convex_hull": ("MAX_SCAN_N", lambda: convex_hull(SetFamily(25, [0])), scan(), None),
    "interval_family": ("MAX_SCAN_N", lambda: interval_family(25, 0, 1), scan(), None),
    "middle_two_levels": ("MAX_SCAN_N", lambda: middle_two_levels(25), scan(2),
                          ["construct", "middle-two-levels", "--n", "25"]),
    "n_free_construction": ("MAX_SCAN_N", lambda: n_free_construction(25), scan(),
                            ["construct", "n-free", "--n", "25"]),
    "p5_construction": ("MAX_SCAN_N", lambda: p5_construction(25), scan(4), ["construct", "p5", "--n", "25"]),
    "p6_construction": ("MAX_SCAN_N", lambda: p6_construction(25), scan(2), ["construct", "p6", "--n", "25"]),
    "p5_construction-low": ("MAX_SCAN_N", lambda: p5_construction(3),
                            "dimension n=3 outside supported range 4..24", ["construct", "p5", "--n", "3"]),
    "chains_meeting": ("MAX_CHAIN_N", lambda: chains_meeting(SetFamily(9, [0])),
                       "chains_meeting n=9 outside supported range 1..8", None),
    "p5_component_report-n": ("MAX_CHAIN_N", lambda: p5_component_report(SetFamily(9, [0])),
                              "component report n=9 outside supported range 2..8", None),
    "SetFamily": ("MAX_FORMULA_N", lambda: SetFamily(63, []), formula(),
                  ["count", "--family", "{huge}", "--q", "@chain(2)"]),
    "butterfly_p2": ("MAX_FORMULA_N", lambda: closed_formula("butterfly_p2", n=63), formula(2),
                     ["formula", "butterfly_p2", "--n", "63"]),
    "p5": ("MAX_FORMULA_N", lambda: closed_formula("p5", n=63), formula(4), ["formula", "p5", "--n", "63"]),
    "p6_lower": ("MAX_FORMULA_N", lambda: closed_formula("p6_lower", n=63), formula(2),
                 ["formula", "p6_lower", "--n", "63"]),
    "n_free": ("MAX_FORMULA_N", lambda: closed_formula("n_free", n=63), formula(),
               ["formula", "n_free", "--n", "63"]),
    "n_free-sweep": ("MAX_FORMULA_N", lambda: closed_formula("n_free", n=63), formula(),
                     ["formula", "n_free", "--sweep", "60..63"]),
    "sublattice": ("MAX_FORMULA_N", lambda: closed_formula("sublattice", n=63, a=1, b=2), formula(),
                   ["formula", "sublattice", "--n", "63", "--a", "1", "--b", "2"]),
    "katona_nagy": ("MAX_FORMULA_N", lambda: closed_formula("katona_nagy", n=63, t=2), formula(),
                    ["formula", "katona_nagy", "--n", "63", "--t", "2"]),
    "chain_count_in_levels": ("MAX_FORMULA_N", lambda: chain_count_in_levels(63, 2, [0, 1]), formula(), None),
    "poset_from_relations": ("MAX_POSET_SIZE", lambda: poset_from_relations(9, []), POSET_SIZE,
                             ["free", "--family", "{fam}", "--forbid", "a<b<c<d<e<f<g<h<i"]),
    "chain": ("MAX_POSET_SIZE", lambda: chain(9), POSET_SIZE, ["count", "--family", "{fam}", "--q", "@chain(9)"]),
    "kst": ("MAX_POSET_SIZE", lambda: kst(1, 8), POSET_SIZE, ["free", "--family", "{fam}", "--forbid", "@kst(1,8)"]),
    "fork": ("MAX_POSET_SIZE", lambda: fork(8), POSET_SIZE, None),
    "crown": ("MAX_POSET_SIZE", lambda: crown(5), "poset size 10 outside supported range 0..8", None),
    "diamond": ("MAX_POSET_SIZE", lambda: diamond(7), POSET_SIZE, None),
    "path_hasse_family": ("MAX_POSET_SIZE", lambda: path_hasse_family(9),
                          "path family size 9 outside supported range 2..8",
                          ["free", "--family", "{fam}", "--forbid", "@pathfamily(9)"]),
    "copy_supports": ("MAX_COPY_SUPPORTS", lambda: copy_supports(level_family(4, [1, 2]), n_poset()),
                      f"copy supports {COPY_CAP + 1} outside supported range 0..{COPY_CAP}",
                      ["count", "--family", "{fam}", "--q", "@N"]),
    "color_family": ("MAX_COLOR_N", lambda: color_family(SetFamily(13, [0]), 1),
                     "coloring n=13 outside supported range 1..12", None),
    "critical_pairs": ("MAX_COLOR_N", lambda: check_one_critical_pair_per_chain(Coloring(13, None, 1, 0, ())),
                       "critical-pair check n=13 outside supported range 1..12", None),
    "zigzag_find_WM": ("MAX_COLOR_N", lambda: zigzag_find_WM(13, [0, 1, 3, 7, 15, 31]),
                       "zigzag n=13 outside supported range 1..12", None),
    "p5_component_report-members": ("MAX_COMPONENT_MEMBERS", lambda: p5_component_report(STAR),
                                    "component size 21 outside supported range 1..20", None),
    "la_exact": ("MAX_EXACT_SEARCH_N", lambda: la_exact(7, [BFLY], P2),
                 "exact search n=7 outside supported range 1..6",
                 ["search", "--n", "7", "--forbid", "@butterfly", "--q", "@chain(2)", "--no-cache"]),
    "cached_la_exact": ("MAX_EXACT_SEARCH_N", lambda: cached_la_exact(7, [BFLY], P2),
                        "exact search n=7 outside supported range 1..6",
                        ["search", "--n", "7", "--forbid", "@butterfly", "--q", "@chain(2)"]),
    "la_levels": ("MAX_LEVEL_SEARCH_N", lambda: la_levels(17, [chain(3)], P2),
                  "level search n=17 outside supported range 1..16", None),
    "la_levels-generic": ("MAX_LEVEL_GENERIC_N", lambda: la_levels(13, [BFLY], P2),
                          "level search with a non-chain forbidden poset n=13 outside supported range 1..12",
                          None),
    "la_levels-generic-q": ("MAX_LEVEL_GENERIC_Q_N", lambda: la_levels(9, [chain(4)], BFLY),
                            "level search with a non-chain Q n=9 outside supported range 1..8", None),
}


def traced_peak(call):
    """(what ``call`` raised, the traced peak of its allocations in bytes)."""
    tracemalloc.start()
    try:
        call()
    except ValueError as exc:  # DimensionError is one; the caller judges which was raised
        raised = exc
    else:
        raised = None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return raised, peak


@pytest.fixture
def lowered_copy_cap(monkeypatch, tmp_path):
    """MAX_COPY_SUPPORTS at COPY_CAP, a cache file in tmp_path, and the CLI's parser built."""
    monkeypatch.setattr(embedding, "MAX_COPY_SUPPORTS", COPY_CAP)
    monkeypatch.setenv("TURAN_CACHE", str(tmp_path / "cache.jsonl"))
    cli._parser()  # built once per process, so not in a traced call


@pytest.mark.parametrize("row", sorted(CAP_REFUSALS))
def test_first_refused_value_raises_before_allocating(lowered_copy_cap, row):
    _, call, message, _ = CAP_REFUSALS[row]
    raised, peak = traced_peak(call)
    assert type(raised) is DimensionError and str(raised) == message
    assert peak < PEAK_LIMIT


@pytest.mark.parametrize("row", sorted(r for r, (_, _, _, argv) in CAP_REFUSALS.items() if argv))
def test_a_command_past_a_cap_exits_2(lowered_copy_cap, capsys, tmp_path, row):
    _, _, message, argv = CAP_REFUSALS[row]
    (tmp_path / "fam.txt").write_text(format_family(level_family(4, [1, 2])))
    (tmp_path / "huge.txt").write_text("n=63\n1\n")
    argv = [a.format(fam=tmp_path / "fam.txt", huge=tmp_path / "huge.txt") for a in argv]
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run_command(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")
    assert peak < PEAK_LIMIT
    assert not (tmp_path / "cache.jsonl").exists()


def test_every_cap_has_a_row():
    caps = {name for name in vars(lattice) if name.startswith("MAX_")}
    assert {cap for cap, _, _, _ in CAP_REFUSALS.values()} == caps


def test_every_cap_lives_in_lattice():
    homes = {p.name for p in PACKAGE.glob("*.py") if re.search(r"^MAX_\w+ =", p.read_text(), re.M)}
    assert homes == {"lattice.py"}


def test_an_interval_past_the_dimension_is_refused_before_it_is_listed():
    # 2^40 masks would exhaust any memory, and a negative top lists without end;
    # under a 200 MB limit the refusal must come first
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (200_000_000, 200_000_000))\n"
        "from posetturan.lattice import interval_family\n"
        "for hi in ((1 << 40) - 1, -1):\n"
        "    try:\n"
        "        interval_family(3, 0, hi)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "mask out of range for n=3\n" * 2, "")


def test_chain_count_in_levels_refuses_a_huge_n_at_once():
    raised, peak = traced_peak(lambda: chain_count_in_levels(10**6, 2, [0, 1]))
    assert type(raised) is DimensionError
    assert str(raised) == "dimension n=1000000 outside supported range 1..62"
    assert peak < PEAK_LIMIT
