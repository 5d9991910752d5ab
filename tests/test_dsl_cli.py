import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import posetturan
from posetturan import cli, familyio
from posetturan.cli import run_command
from posetturan.dsl import DslError, parse_poset_dsl, parse_single_poset
from posetturan.familyio import (
    FamilyFormatError,
    format_family,
    parse_family,
)
from posetturan.lattice import MAX_SCAN_N, DimensionError, SetFamily, format_mask, level_family
from posetturan.posets import chain, n_poset, named_poset, s_poset
from test_results import table_report


class TestPosetDsl:
    def test_builtin(self):
        (p,) = parse_poset_dsl("@butterfly")
        assert p.canonical_key() == named_poset("K22").canonical_key()

    def test_builtin_args(self):
        (p,) = parse_poset_dsl("@chain(4)")
        assert p.canonical_key() == chain(4).canonical_key()
        (p,) = parse_poset_dsl("@Kst(2, 3)")
        assert p.canonical_key() == named_poset("Kst", 2, 3).canonical_key()

    def test_pathfamily_expansion(self):
        fam = parse_poset_dsl("@pathfamily(5)")
        assert len(fam) == 10

    def test_inline_n(self):
        p = parse_single_poset("p1<q1; p2<q1; p2<q2")
        assert p.canonical_key() == n_poset().canonical_key()

    def test_inline_chain_shorthand(self):
        p = parse_single_poset("a<b<c")
        assert p.canonical_key() == chain(3).canonical_key()

    def test_inline_s(self):
        p = parse_single_poset("b1<a; b1<b2<b3; c<b3")
        assert p.canonical_key() == s_poset().canonical_key()

    def test_bare_identifier_isolated(self):
        p = parse_single_poset("a<b; z")
        assert p.size == 3 and len(p.relations) == 1

    def test_errors(self):
        with pytest.raises(DslError):
            parse_poset_dsl("")
        with pytest.raises(DslError):
            parse_poset_dsl("@mystery")
        with pytest.raises(DslError):
            parse_poset_dsl("a<<b")
        with pytest.raises(DslError):
            parse_poset_dsl("a<b; b<a")
        with pytest.raises(DslError):
            parse_poset_dsl("@chain(two)")
        with pytest.raises(DslError):
            parse_single_poset("@pathfamily(4)")

    @pytest.mark.parametrize("text, line, column", (
        ("a<b; a<", 1, 6),
        ("x<y\n  y<z; y<", 2, 8),
    ))
    def test_error_column_is_the_statement_start(self, text, line, column):
        with pytest.raises(DslError) as exc:
            parse_poset_dsl(text)
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_spellings_of_one_order_are_one_poset(self):
        # identifiers only number the elements, in order of first appearance
        p = parse_single_poset("a<b; z")
        for text in ("x<y; w", "a<b\nz", "first < second; third"):
            q = parse_single_poset(text)
            assert q == p and hash(q) == hash(p)
        assert parse_single_poset("p1; p2<q1; p1<q1; p2<q2") == n_poset()
        assert parse_single_poset("lo<mid<hi") == chain(3)
        assert parse_single_poset("a; b<a") != parse_single_poset("a<b")


class TestFamilyIo:
    def test_text_roundtrip(self):
        fam = SetFamily(4, [0, 3, 5, 12])
        assert parse_family(format_family(fam)) == fam

    def test_element_lists(self):
        fam = parse_family("n=3\n{}\n1 3\n2\n")
        assert fam.members == (0, 2, 5)

    def test_level_shorthand(self):
        fam = parse_family("n=4\nL2+L3\n")
        assert fam == level_family(4, [2, 3])

    def test_comments_ignored(self):
        fam = parse_family("# header\nn=2\n# middle\n1\n")
        assert fam.members == (1,)

    def test_json_form(self):
        fam = SetFamily(3, [1, 6])
        assert parse_family(json.dumps({"n": 3, "masks": [1, 6]})) == fam

    @pytest.mark.parametrize("text", (
        '{"n": true, "masks": [false, true]}',
        '{"n": 2, "masks": [1, true]}',
    ))
    def test_json_booleans_are_not_integers(self, text):
        # JSON true and false load as Python bools, which are ints
        with pytest.raises(FamilyFormatError, match="integer"):
            parse_family(text)

    def test_errors(self):
        with pytest.raises(FamilyFormatError):
            parse_family("")
        with pytest.raises(FamilyFormatError):
            parse_family("3\n1 2\n")
        with pytest.raises(FamilyFormatError):
            parse_family("n=3\n4\n")
        with pytest.raises(FamilyFormatError):
            parse_family("n=3\nLx\n")
        with pytest.raises(FamilyFormatError):
            parse_family('{"n": 3}')

    def test_repeated_level_lines_list_the_level_once(self, monkeypatch):
        calls = []

        def counted(n, ks):
            calls.append(sorted(ks))
            return level_family(n, ks)

        one = parse_family("n=18\nL9\n")
        monkeypatch.setattr(familyio, "level_family", counted)
        assert parse_family("n=18\n" + "L9\n" * 200) == one
        assert calls == [[9]]
        assert len(one) == math.comb(18, 9)

    def test_level_shorthand_refused_past_the_scan_cap(self):
        with pytest.raises(DimensionError):
            parse_family("n=50\nL25\n")

    @pytest.mark.parametrize("text", (
        '{"n": null, "masks": [1]}',
        '{"n": 3, "masks": 5}',
        '{"n": 3, "masks": [1, "2"]}',
        "# only\n# comments\n",
    ))
    def test_malformed_inputs_raise_format_error(self, text):
        with pytest.raises(FamilyFormatError):
            parse_family(text)


VERIFY_HELP = """\
usage: posetturan verify [-h]
                         [--lemma {chaincount,coloring,erdos-gallai,nfree-components,sublattice,zigzag,all}]
                         [--seed SEED]

options:
  -h, --help            show this help message and exit
  --lemma {chaincount,coloring,erdos-gallai,nfree-components,sublattice,zigzag,all}
  --seed SEED
"""


class TestCli:
    def run(self, capsys, *argv):
        code = run_command(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    def test_construct(self, capsys):
        code, out = self.run(capsys, "construct", "middle-two-levels", "--n", "3")
        assert code == 0
        assert parse_family(out) == level_family(3, [1, 2])

    def test_construct_has_no_variant(self, capsys):
        code, out = self.run(
            capsys, "construct", "middle-two-levels", "--n", "4", "--variant", "high"
        )
        assert code == 2 and out == ""

    def test_count(self, capsys, tmp_path):
        fam_file = tmp_path / "fam.txt"
        fam_file.write_text(format_family(level_family(4, [2, 3])))
        code, out = self.run(capsys, "count", "--family", str(fam_file), "--q", "@chain(2)")
        assert code == 0 and out.strip() == "12"

    def test_free_json(self, capsys, tmp_path):
        fam_file = tmp_path / "fam.txt"
        fam_file.write_text(format_family(level_family(4, [2, 3])))
        code, out = self.run(
            capsys, "free", "--family", str(fam_file), "--forbid", "@butterfly"
        )
        assert code == 0 and json.loads(out) == {"free": True}

    def test_free_witness(self, capsys, tmp_path):
        fam_file = tmp_path / "fam.txt"
        fam_file.write_text(format_family(SetFamily(3, [0, 1, 3, 7])))
        code, out = self.run(
            capsys, "free", "--family", str(fam_file), "--forbid", "@chain(3)"
        )
        data = json.loads(out)
        assert code == 0 and data["free"] is False
        assert len(data["witness"]) == 3

    def test_search(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TURAN_CACHE", str(tmp_path / "c.jsonl"))
        code, out = self.run(
            capsys, "search", "--n", "3", "--forbid", "@butterfly", "--q", "@chain(2)"
        )
        assert code == 0
        assert json.loads(out)["optimum"] == 7

    def test_search_repeated_forbid_states_w_and_m(self, capsys):
        code, out = self.run(capsys, "search", "--no-cache", "--n", "5", "--forbid", "@W",
                             "--forbid", "@M", "--q", "@chain(2)")
        data = json.loads(out)
        assert code == 0
        assert data == table_report(5, [named_poset("W"), named_poset("M")], chain(2))
        keys = [named_poset(name).canonical_key() for name in ("W", "M")]
        assert data["params"]["forbidden"] == keys
        _, swapped = self.run(capsys, "search", "--no-cache", "--n", "5", "--forbid", "@M",
                              "--forbid", "@W", "--q", "@chain(2)", "--budget", "1")
        assert json.loads(swapped)["params"]["forbidden"] == keys[::-1]

    def test_free_repeated_forbid_concatenates(self, capsys, tmp_path):
        fam_file = tmp_path / "fam.txt"
        fam_file.write_text(format_family(level_family(3, [1, 2])))
        _, alone = self.run(capsys, "free", "--family", str(fam_file), "--forbid", "@butterfly")
        assert json.loads(alone) == {"free": True}
        code, out = self.run(capsys, "free", "--family", str(fam_file), "--forbid", "@butterfly",
                             "--forbid", "@chain(2)")
        data = json.loads(out)
        assert code == 0 and data["free"] is False
        assert data["poset"] == chain(2).canonical_key()

    def test_search_cache_stable_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TURAN_CACHE", str(tmp_path / "c.jsonl"))
        args = ("search", "--n", "3", "--forbid", "@N", "--q", "@chain(2)")
        _, cold = self.run(capsys, *args)
        _, warm = self.run(capsys, *args)
        assert cold == warm

    @pytest.mark.parametrize("n, spec, first, second", (
        ("3", "@butterfly", None, "5"),
        ("5", "@N", "300", "100"),
    ), ids=("after-unbudgeted", "after-larger-budget"))
    def test_cached_search_prints_what_no_cache_prints(self, capsys, tmp_path, monkeypatch,
                                                       n, spec, first, second):
        monkeypatch.setenv("TURAN_CACHE", str(tmp_path / "c.jsonl"))
        args = ("search", "--n", n, "--forbid", spec, "--q", "@chain(2)")
        first_args = args + (("--budget", first) if first else ())
        self.run(capsys, *first_args)
        _, cached = self.run(capsys, *args, "--budget", second)
        _, uncached = self.run(capsys, *args, "--budget", second, "--no-cache")
        assert cached == uncached
        assert json.loads(cached)["nodes_explored"] == int(second)
        # the first request's record is still there and still returned verbatim
        _, again = self.run(capsys, *first_args)
        _, fresh = self.run(capsys, *first_args, "--no-cache")
        assert again == fresh
        assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 2

    def test_cached_search_skips_non_utf8_lines(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        monkeypatch.setenv("TURAN_CACHE", str(path))
        args = ("search", "--n", "3", "--forbid", "@butterfly", "--q", "@chain(2)")
        self.run(capsys, *args)
        data = b"\xff\xfe garbage\n" + path.read_bytes() + b"\xff\xfe garbage\n"
        path.write_bytes(data)
        code, cached = self.run(capsys, *args)
        _, uncached = self.run(capsys, *args, "--no-cache")
        assert code == 0 and cached == uncached
        assert path.read_bytes() == data  # a hit appends nothing

    def test_cached_search_starts_from_an_empty_file(self, capsys, tmp_path, monkeypatch):
        # a 0-byte file cannot be mapped; it is read instead, and the request misses
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"")
        monkeypatch.setenv("TURAN_CACHE", str(path))
        args = ("search", "--n", "3", "--forbid", "@butterfly", "--q", "@chain(2)")
        code, cold = self.run(capsys, *args)
        _, uncached = self.run(capsys, *args, "--no-cache")
        assert code == 0 and cold == uncached
        assert path.read_bytes() == cold.encode()  # the miss appended its report
        code, warm = self.run(capsys, *args)
        assert code == 0 and warm == uncached
        assert path.read_bytes() == cold.encode()  # and the next request hit it

    def test_cache_that_is_a_directory_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TURAN_CACHE", str(tmp_path))
        code = run_command(["search", "--n", "3", "--forbid", "@butterfly", "--q", "@chain(2)"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_empty_cache_variable_means_the_default_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TURAN_CACHE", "")
        monkeypatch.chdir(tmp_path)
        args = ("search", "--n", "2", "--forbid", "@chain(2)", "--q", "@chain(1)")
        code, cold = self.run(capsys, *args)
        _, uncached = self.run(capsys, *args, "--no-cache")
        assert code == 0 and cold == uncached
        assert (tmp_path / "turan-cache.jsonl").read_text() == cold
        code, warm = self.run(capsys, *args)
        assert code == 0 and warm == uncached

    def test_search_no_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TURAN_CACHE", str(tmp_path / "c.jsonl"))
        code, out = self.run(
            capsys, "search", "--n", "3", "--forbid", "@N", "--q", "@chain(2)", "--no-cache"
        )
        assert code == 0 and json.loads(out)["optimum"] == 3
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("budget", ("0", "-5"))
    def test_search_budget_below_one_is_a_usage_error(self, capsys, tmp_path, monkeypatch,
                                                       budget):
        monkeypatch.setenv("TURAN_CACHE", str(tmp_path / "c.jsonl"))
        for extra in ((), ("--no-cache",)):
            code = run_command(["search", "--n", "5", "--forbid", "@N", "--q", "@chain(2)",
                                "--budget", budget, *extra])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert "budget must be at least 1" in captured.err

    @pytest.mark.parametrize("n", ("0", "-1"))
    def test_search_n_below_one_is_a_usage_error(self, tmp_path, monkeypatch, n):
        cache = tmp_path / "c.jsonl"
        monkeypatch.setenv("TURAN_CACHE", str(cache))
        for extra in ((), ("--no-cache",)):
            proc = run_cli_process("search", "--n", n, "--forbid", "@N", "--q", "@chain(2)", *extra)
            assert proc.returncode == 2 and proc.stdout == ""
            assert "Traceback" not in proc.stderr
            assert proc.stderr.startswith("error: exact search supports 1 <= n <= 6")
        assert not cache.exists()

    def test_search_budget_is_exact(self, capsys):
        code, out = self.run(capsys, "search", "--n", "5", "--forbid", "@N", "--q", "@chain(2)",
                             "--budget", "10", "--no-cache")
        data = json.loads(out)
        assert code == 0 and data["nodes_explored"] == 10 and data["complete"] is False

    def test_formula(self, capsys):
        code, out = self.run(capsys, "formula", "butterfly_p2", "--n", "6")
        assert code == 0 and out.strip() == "60"

    def test_formula_params(self, capsys):
        code, out = self.run(capsys, "formula", "sublattice", "--n", "4", "--a", "1", "--b", "3")
        assert code == 0 and out.strip() == "12"

    def test_formula_fraction(self, capsys):
        code, out = self.run(capsys, "formula", "katona_nagy", "--n", "5", "--t", "2")
        assert code == 0 and out.strip() == "96/5"

    def test_formula_sweep(self, capsys):
        code, out = self.run(capsys, "formula", "p5", "--sweep", "4..6")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert rows == [["p5", "4", "10"], ["p5", "5", "15"], ["p5", "6", "30"]]

    @pytest.mark.parametrize("argv", [
        ["n_free", "--sweep", "60..70"],  # every row is evaluated before any prints
        ["p5", "--sweep", "6..4"],  # an empty range
        ["katona_nagy", "--n", "4", "--t", "20"],  # 2^[4] holds 16 sets
        ["katona_nagy", "--sweep", "3..5", "--t", "9"],  # t > 2^3 on the first row
    ], ids=["sweep-past-cap", "sweep-empty", "katona-t-too-big", "katona-sweep-t-too-big"])
    def test_formula_refusals_print_nothing(self, capsys, argv):
        assert self.run(capsys, "formula", *argv) == (2, "")

    def test_verify_ok(self, capsys):
        code, out = self.run(capsys, "verify", "--lemma", "sublattice")
        assert code == 0
        assert json.loads(out)["failures"] == 0

    def test_verify_help_pinned(self, capsys, monkeypatch):
        # --lemma's choices come from cli.LEMMAS, without importing proofcheck
        monkeypatch.setenv("COLUMNS", "80")
        assert self.run(capsys, "verify", "--help") == (0, VERIFY_HELP)

    def test_usage_errors(self, capsys):
        assert self.run(capsys, "formula", "p5")[0] == 2
        assert self.run(capsys, "formula", "sublattice", "--n", "4")[0] == 2
        assert self.run(capsys, "formula", "p5", "--sweep", "bad")[0] == 2
        assert self.run(capsys, "search", "--n", "3", "--forbid", "@oops", "--q", "@chain(2)")[0] == 2
        assert self.run(capsys, "count", "--family", "/no/such/file", "--q", "@N")[0] == 2
        assert self.run(capsys, "nope")[0] == 2

    def test_search_help_carries_the_search_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_EXACT_SEARCH_N", 9)
        main_help = cli.build_parser().format_help()
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["search", "--help"])
        search_help = capsys.readouterr().out
        assert "search, 1 <= n <= 9" in " ".join(main_help.split())
        assert "ground set size, 1 <= n <= 9" in " ".join(search_help.split())

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_shared_parser_answers_as_a_fresh_one(self, capsys, tmp_path, monkeypatch):
        # the sequence runs twice, so each argv also meets the parser after
        # itself: an --forbid list or a default that leaked between calls
        # would change a later answer
        fam = tmp_path / "fam.txt"
        fam.write_text(format_family(level_family(3, [1, 2])))
        search = ["search", "--n", "3", "--forbid", "@N", "--q", "@chain(2)"]
        argvs = [
            [], ["nope"], ["--help"], ["search", "--help"], ["search", "--n", "3"],
            ["formula", "p5"], ["formula", "p5", "--sweep", "4..6"],
            ["count", "--family", str(tmp_path / "missing.txt"), "--q", "@N"],
            ["free", "--family", str(fam), "--forbid", "@N", "--forbid", "@chain(3)"],
            ["free", "--family", str(fam), "--forbid", "@butterfly", "--pretty"],
            [*search, "--no-cache"], search, [*search, "--budget", "5", "--pretty"],
            ["search", "--n", "3", "--forbid", "@W", "--forbid", "@M", "--q", "@chain(2)"],
        ]

        def answers(cache):
            monkeypatch.setenv("TURAN_CACHE", str(tmp_path / cache))
            out = []
            for argv in argvs + argvs:
                code = run_command(list(argv))
                captured = capsys.readouterr()
                out.append((code, captured.out, captured.err))
            return out

        shared = answers("shared.jsonl")
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert shared == answers("fresh.jsonl")
        assert {code for code, _, _ in shared} == {0, 2}

    def test_pretty_free(self, capsys, tmp_path):
        fam_file = tmp_path / "fam.txt"
        fam_file.write_text(format_family(level_family(3, [1, 2])))
        code, out = self.run(
            capsys, "free", "--family", str(fam_file), "--forbid", "@butterfly", "--pretty"
        )
        assert code == 0 and out.strip() == "free: yes"


def run_cli_process(*argv, setup=None):
    """Run the CLI in a fresh interpreter, so an escaping exception shows on stderr.

    ``setup``, if given, is Python code run in that interpreter before the CLI.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(posetturan.__file__).resolve().parents[1]))
    entry = ["-m", "posetturan.cli"] if setup is None else [
        "-c", f"{setup}\nfrom posetturan.cli import main\nmain()"]
    return subprocess.run(
        [sys.executable, *entry, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestBadFamilyFiles:
    @pytest.mark.parametrize("text, error", (
        ('{"n": null, "masks": [1]}', "error: JSON family needs an integer"),
        ('{"n": 3, "masks": 5}', "error: JSON family needs an integer"),
        ('{"n": true, "masks": [1]}', "error: JSON family needs an integer"),
        ('{"n": 2, "masks": [false, true]}', "error: JSON family needs an integer"),
        ("# comment\n# another comment\n", "error: family input has only comments"),
        ('{"n": 3, "masks": ' + "[" * 100_000 + "]" * 100_000 + "}", "error: bad JSON family"),
    ), ids=("json-null-n", "json-int-masks", "json-bool-n", "json-bool-masks", "comments-only",
            "json-nested-too-deep"))
    def test_malformed_file_exits_2(self, tmp_path, text, error):
        fam_file = tmp_path / "fam.txt"
        fam_file.write_text(text)
        proc = run_cli_process("count", "--family", str(fam_file), "--q", "@chain(2)")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr and proc.stderr.startswith(error)

    def test_oversized_construction_exits_2(self):
        proc = run_cli_process("construct", "p5", "--n", "40")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr and proc.stderr.startswith("error:")

    def test_out_of_memory_exits_2(self):
        # C(24, 12) = 2,704,156 members need more than 200 MB of address space
        limit = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (200_000_000, 200_000_000))"
        proc = run_cli_process("construct", "middle-two-levels", "--n", "24", setup=limit)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")

    def test_count_past_the_support_cap_exits_2(self, tmp_path):
        # 1,260 copies of N; a cap of 1,000 supports makes the listing refuse
        fam_file = tmp_path / "fam.txt"
        fam_file.write_text(format_family(level_family(7, [3, 4])))
        argv = ("count", "--family", str(fam_file), "--q", "@N")
        assert run_cli_process(*argv).stdout == "1260\n"
        cap = "import posetturan.embedding as e\ne.MAX_COPY_SUPPORTS = 1000"
        proc = run_cli_process(*argv, setup=cap)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr and proc.stderr.startswith("error:")
        assert "supports" in proc.stderr

    def test_search_past_the_support_cap_exits_2(self):
        # the search lists the 985 copies of N in 2^[4] at its root
        cap = "import posetturan.embedding as e\ne.MAX_COPY_SUPPORTS = 900"
        proc = run_cli_process("search", "--no-cache", "--n", "4", "--forbid", "@butterfly",
                               "--q", "@N", setup=cap)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr and proc.stderr.startswith("error:")
        assert "supports" in proc.stderr

    @pytest.mark.parametrize("argv", (("count", "--q", "@chain(9)"), ("free", "--forbid", "@chain(9)")))
    def test_a_refused_spec_exits_2_before_the_family_is_read(self, tmp_path, capsys, monkeypatch, argv):
        fam_file = tmp_path / "fam.txt"
        fam_file.write_text(format_family(level_family(4, [1, 2])))
        reader = mock.Mock(side_effect=AssertionError("the family was read"))
        monkeypatch.setattr(familyio, "read_family", reader)
        assert run_command([argv[0], "--family", str(fam_file), *argv[1:]]) == 2
        assert capsys.readouterr().err == "error: poset size 9 outside supported range 0..8\n"
        reader.assert_not_called()

    def test_directory_exits_2(self, tmp_path):
        proc = run_cli_process("count", "--family", str(tmp_path), "--q", "@chain(2)")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr and proc.stderr.startswith("error:")


# Level listings that the scan cap accepts can still hold millions of sets
# (C(24, 12) = 2,704,156 take seconds to build), so the fuzz below assumes
# away accepted listings above this many sets; listings past the cap are kept.
FUZZ_LEVEL_SETS = 1 << 16
JUNK_LINES = (st.sampled_from(["L", "L+", "Lx", "L1+", "l1+x", "+L1", "x", "1 two", "{ }"])
              | st.text(alphabet="ab -+{}#9", min_size=1, max_size=8))


@st.composite
def family_texts(draw):
    """A family text of the line kinds parse_family reads, plus junk lines."""
    n = draw(st.integers(1, 62))
    lines, level_sets = [f"n={n}"], 0
    for kind in draw(st.lists(st.sampled_from("eblj"), max_size=6)):
        if kind == "e":
            elements = draw(st.lists(st.integers(-2, n + 2), min_size=1, max_size=5))
            lines.append(" ".join(map(str, elements)))
        elif kind == "b":
            lines.append("{}")
        elif kind == "l":
            ks = draw(st.lists(st.integers(-1, n + 1), min_size=1, max_size=2))
            lines.append("+".join(f"L{k}" for k in ks))
            level_sets += sum(math.comb(n, k) for k in ks if 0 <= k <= n)
        else:
            lines.append(draw(JUNK_LINES))
    assume(n > MAX_SCAN_N or level_sets <= FUZZ_LEVEL_SETS)
    return "\n".join(lines) + "\n"


CATALOG_NAMES = ("chain", "p", "Kst", "fork", "crown", "diamond", "butterfly", "K22", "N", "W",
                 "M", "S", "pathfamily", "mystery")


@st.composite
def builtin_specs(draw):
    name = draw(st.sampled_from(CATALOG_NAMES))
    args = draw(st.lists(st.integers(-5, 10**9), max_size=3))
    if not args and draw(st.booleans()):
        return f"@{name}"
    return f"@{name}({', '.join(map(str, args))})"


def reference_parse_family(text):
    """parse_family as it was before its element table: one int() per token, after the
    dimension check of SetFamily."""
    text = text.strip()
    if not text:
        raise FamilyFormatError("empty family input")
    if text.startswith("{"):
        return familyio._parse_json(text)
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
    SetFamily(n, ())  # the dimension is refused before any line is read
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
                try:
                    el = int(tok)
                except ValueError:
                    raise FamilyFormatError(f"line {lineno}: bad element {tok!r}") from None
                if not 1 <= el <= n:
                    raise FamilyFormatError(f"line {lineno}: element {el} outside 1..{n}")
                mask |= 1 << (el - 1)
            masks.append(mask)
    if levels:
        masks.extend(level_family(n, levels).members)
    return SetFamily(n, masks)


def reference_format_mask(mask):
    """format_mask as it was before its byte tables: one test per bit."""
    if mask == 0:
        return "{}"
    return " ".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def parse_outcome(parse, text):
    """The family parsed, or the type and message of the ValueError raised."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def small_families(draw):
    n = draw(st.integers(1, 62))
    full = (1 << n) - 1
    masks = draw(st.lists(st.integers(0, full) | st.sampled_from((0, full)), max_size=12))
    return SetFamily(n, masks)


class TestParserFuzz:
    """Every parser input returns or raises a ValueError, within a second; the
    family text code gives what the references give."""

    @settings(deadline=1000)
    @given(family_texts())
    def test_parse_family(self, text):
        got = parse_outcome(parse_family, text)
        assert isinstance(got, (SetFamily, tuple))
        assert got == parse_outcome(reference_parse_family, text)

    @given(small_families())
    def test_format_family(self, fam):
        want = "\n".join([f"n={fam.n}", *map(reference_format_mask, fam.members)]) + "\n"
        assert format_family(fam) == want

    @pytest.mark.parametrize("mask", (1, 255, 256, (1 << 62) - 1, (1 << 64) - 1, 1 << 64,
                                      (1 << 100) | 5, -1, -6))
    def test_format_mask_past_the_tables(self, mask):
        assert format_mask(mask) == reference_format_mask(mask)

    @pytest.mark.parametrize("line", ("01", "+3", "-0", "\u0663", "1 \u0663 2", "5", "6", "2 01 2",
                                      "1 x", "3 7 1"))
    def test_tokens_outside_the_table(self, line):
        # "\u0663" is the Arabic-Indic digit three, which int() reads as 3
        text = f"n=5\n{line}\n"
        got = parse_outcome(parse_family, text)
        assert got == parse_outcome(reference_parse_family, text)

    def test_a_huge_dimension_allocates_nothing(self):
        # the second lists an element whose mask alone would take 12.5 MB
        for text in ("n=1000000000\n5\n", "n=100000000\n99999999\n"):
            tracemalloc.start()
            try:
                got = parse_outcome(parse_family, text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == parse_outcome(reference_parse_family, text)
            assert got[0] is DimensionError
            assert peak < 1 << 20, text

    @settings(deadline=1000)
    @given(builtin_specs())
    def test_parse_poset_dsl(self, spec):
        try:
            found = parse_poset_dsl(spec)
        except ValueError:
            return
        assert found and all(p.size <= 8 for p in found)


# Integers that reach no slow path: every n past 3 is refused by a size cap
# before any search or construction starts.
FUZZ_INTS = ("-1", "0", "1", "2", "3", "25", "63", "1000000000")
FUZZ_SWEEPS = ("1..3", "3..1", "2..25", "0..63", "1..", "x..2", "..")
FUZZ_WORDS = (*sorted(cli.CONSTRUCTIONS), *sorted(cli.FORMULAS), "all", "zigzag")
# no "l", so no junk token abbreviates --lemma
FUZZ_JUNK = st.text(alphabet="-=@(),{}x ", max_size=6)


# what each subcommand needs to get past argparse: positionals, then flags
FUZZ_NEEDS = {"construct": ("name", "--n"), "count": ("--family", "--q"),
              "free": ("--family", "--forbid"), "search": ("--n", "--forbid", "--q"),
              "formula": ("name", "--n"), "verify": (), "nope": ()}


@st.composite
def cli_argvs(draw, paths):
    """A subcommand, mostly with what it needs, then drawn flags and tokens.

    A flag's value is mostly of its kind. ``verify`` always runs ``--lemma
    sublattice``, its one fast lemma.
    """
    ints, words = st.sampled_from(FUZZ_INTS), st.sampled_from(FUZZ_WORDS)
    specs = st.sampled_from(("@chain(2)", "@N", "@butterfly")) | builtin_specs()
    values = {"name": words, "--n": ints, "--budget": ints, "--a": ints, "--b": ints, "--t": ints,
              "--seed": ints, "--q": specs, "--forbid": specs, "--family": st.sampled_from(paths),
              "--sweep": st.sampled_from(FUZZ_SWEEPS), "--lemma": words}
    anything = st.one_of(ints, specs, words, st.sampled_from(paths), FUZZ_JUNK)

    def tokens(key):
        # a positional, a flag and its value, or a flag that takes none
        if key not in values:
            return [key]
        value = draw(values[key] if draw(st.integers(0, 3)) else anything)
        return [value] if key == "name" else [key, value]

    command = draw(st.sampled_from(sorted(FUZZ_NEEDS)))
    argv = [command]
    for key in FUZZ_NEEDS[command]:
        if draw(st.integers(0, 3)):
            argv += tokens(key)
    for _ in range(draw(st.integers(0, 4))):
        argv += tokens(draw(st.sampled_from((*values, "--no-cache", "--pretty", "--help"))))
    if command == "verify":
        argv = [token for token in argv if token != "--lemma"] + ["--lemma", "sublattice"]
    return argv


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Family files of each kind the CLI may be given, and a cache path."""
    root = tmp_path_factory.mktemp("argv")
    texts = {
        "text.txt": "n=3\n{}\n0 1\nL2\n",
        "json.json": '{"n": 3, "masks": [0, 1, 3, 7]}',
        "bad.json": '{"n": null, "masks": [1]}',
        "junk.txt": "n=3\n1 two\n",
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    (root / "bytes.bin").write_bytes(b"\xff\xfen=3\n0 1\n")  # not UTF-8
    paths = [str(root / name) for name in (*texts, "bytes.bin")] + [
        str(root), str(root / "missing.txt")]
    return paths, str(root / "cache.jsonl")


class TestArgvFuzz:
    """Every argv exits 0, 1 or 2 without an escaping exception; 1 only from verify."""

    @settings(deadline=2000, max_examples=300)
    @given(data=st.data())
    def test_exit_codes(self, argv_files, data):
        paths, cache = argv_files
        argv = data.draw(cli_argvs(paths))
        with mock.patch.dict(os.environ, {"TURAN_CACHE": cache}):
            code = run_command(argv)
        assert code in (0, 1, 2)
        assert code != 1 or argv[0] == "verify"
