"""Every name a module of the package imports is used in that module.

No linter ships with the toolchain, so this stdlib ``ast`` scan stands in for
an unused-import rule; ``from __future__`` imports are exempt.

The package serves every public name lazily; the tests at the end check which
``posetturan`` modules each entry point loads, that every public name is its
home module's object, that only ``verify`` loads ``posetturan.proofcheck``,
that no command loads ``mmap``, that only a large family loads
``struct``, and that no module loads ``dataclasses`` (or ``inspect``, which it
imports) and only a formula that makes a Fraction loads ``fractions``.
"""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import posetturan
from posetturan import proofcheck
from posetturan.familyio import format_family
from posetturan.lattice import level_family

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "posetturan"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def unused_imports(source):
    """Names bound by the imports in ``source`` that nothing else in it reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_detector_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom math import comb, gcd\n"
        "def f(x):\n    return gcd(x, 2) + j.loads('1')\n"
    )
    assert unused_imports(source) == ["comb", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


# Run in a fresh interpreter without site: the posetturan modules that
# import posetturan, import posetturan.cli and then one command load
MODULE_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
def loaded():
    return sorted(name[11:] for name in sys.modules if name.startswith("posetturan."))
out = {}
import posetturan
out["import posetturan"] = loaded()
from posetturan import cli
out["import posetturan.cli"] = loaded()
with redirect_stdout(io.StringIO()):
    assert cli.run_command(sys.argv[1:]) == 0
out["command"] = loaded()
print(json.dumps(out))
"""

CLI_MODULES = ["cli", "constructions", "formulas", "lattice"]


@pytest.mark.parametrize("argv, adds", [
    (["construct", "middle-two-levels", "--n", "4"], ["familyio"]),
    (["formula", "p5", "--n", "5"], []),
    (["count", "--family", "fam.txt", "--q", "@chain(2)"], ["dsl", "embedding", "familyio", "posets"]),
    (["free", "--family", "fam.txt", "--forbid", "@butterfly"], ["dsl", "embedding", "familyio", "posets"]),
    (["search", "--n", "3", "--forbid", "@butterfly", "--q", "@chain(2)", "--no-cache"],
     ["dsl", "embedding", "posets", "search"]),
    (["verify", "--lemma", "sublattice"], ["embedding", "posets", "proofcheck"]),
], ids=["construct", "formula", "count", "free", "search", "verify"])
def test_each_entry_point_loads_only_the_modules_it_runs(tmp_path, argv, adds):
    (tmp_path / "fam.txt").write_text(format_family(level_family(3, [1, 2])))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", MODULE_PROBE, *argv],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import posetturan": [],
        "import posetturan.cli": CLI_MODULES,
        "command": sorted(CLI_MODULES + adds),
    }


# The names posetturan.__all__ lists, by home module; each module also under
# its own name
EAGER_EXPORTS = {
    "lattice": (
        "SetFamily", "chains_meeting", "comparability_components", "convex_hull",
        "count_k_chains", "interval_family", "level_family",
    ),
    "posets": (
        "Poset", "PosetError", "dual_poset", "named_poset", "path_hasse_family",
        "poset_from_relations",
    ),
    "embedding": ("EmbeddingWitness", "count_copies", "find_embedding", "is_free"),
    "constructions": ("middle_two_levels", "n_free_construction", "p5_construction", "p6_construction"),
    "formulas": ("chain_count_in_levels", "closed_formula"),
    "search": ("SearchReport", "cached_la_exact", "la_exact", "la_levels", "verify_witness"),
    "dsl": ("parse_poset_dsl", "parse_single_poset"),
    "familyio": ("format_family", "parse_family", "read_family"),
}


def test_every_eager_name_is_its_home_modules_object():
    star = {}
    exec("from posetturan import *", star)
    listed = dir(posetturan)
    assert posetturan.__version__ == "0.1.0" and "__version__" in listed
    for home, names in EAGER_EXPORTS.items():
        module = importlib.import_module(f"posetturan.{home}")
        assert getattr(posetturan, home) is module and star[home] is module
        assert home in listed
        for name in names:
            assert getattr(posetturan, name) is getattr(module, name), name
            assert star[name] is getattr(module, name), name
            assert name in listed


# Run in a fresh interpreter without site: the public names dir() and the
# star import list, and whether the star import loads the lemma checker
NAMES_PROBE = """
import json, sys
import posetturan
listed = [name for name in dir(posetturan) if not name.startswith("_")]
star = {}
exec("from posetturan import *", star)
print(json.dumps({
    "dir": listed,
    "star": sorted(set(star) - {"__builtins__"}),
    "proofcheck": "posetturan.proofcheck" in sys.modules,
}))
"""


def test_dir_and_star_import_list_the_eager_names():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", NAMES_PROBE],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert proc.returncode == 0, proc.stderr
    expected = sorted({*EAGER_EXPORTS, *(n for names in EAGER_EXPORTS.values() for n in names)})
    assert json.loads(proc.stdout) == {"dir": expected, "star": expected, "proofcheck": False}


# Run in a fresh interpreter: which posetturan entry points load the lemma checker
LAZY_PROBE = """
import json, sys
import posetturan
from posetturan import cli
loaded = {"import": "posetturan.proofcheck" in sys.modules}
family = sys.argv[1]
runs = {
    "construct": ["construct", "middle-two-levels", "--n", "4"],
    "count": ["count", "--family", family, "--q", "@chain(2)"],
    "free": ["free", "--family", family, "--forbid", "@butterfly"],
    "search": ["search", "--n", "3", "--forbid", "@butterfly", "--q", "@chain(2)", "--no-cache"],
    "formula": ["formula", "p5", "--n", "5"],
    "verify": ["verify", "--lemma", "sublattice"],
}
for name, argv in runs.items():
    assert cli.run_command(argv) == 0, name
    loaded[name] = "posetturan.proofcheck" in sys.modules
print(json.dumps(loaded), file=sys.stderr)
"""


def test_only_verify_loads_proofcheck(tmp_path):
    family = tmp_path / "fam.txt"
    family.write_text(format_family(level_family(3, [1, 2])))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE, str(family)],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stderr.splitlines()[-1])
    assert loaded == {
        "import": False, "construct": False, "count": False, "free": False,
        "search": False, "formula": False, "verify": True,
    }


# Run in a fresh interpreter: no command maps a file, the result cache included
MMAP_PROBE = """
import json, sys
import posetturan.cli as cli
loaded = {"import": "mmap" in sys.modules}
family = sys.argv[1]
search = ["search", "--n", "3", "--forbid", "@butterfly", "--q", "@chain(2)"]
runs = {
    "construct": ["construct", "middle-two-levels", "--n", "4"],
    "count": ["count", "--family", family, "--q", "@chain(2)"],
    "free": ["free", "--family", family, "--forbid", "@butterfly"],
    "search --no-cache": search + ["--no-cache"],
    "formula": ["formula", "p5", "--n", "5"],
    "verify": ["verify", "--lemma", "sublattice"],
    "search": search,
    "search hit": search,
}
for name, argv in runs.items():
    assert cli.run_command(argv) == 0, name
    loaded[name] = "mmap" in sys.modules
print(json.dumps(loaded), file=sys.stderr)
"""


def test_no_command_loads_mmap(tmp_path):
    family = tmp_path / "fam.txt"
    family.write_text(format_family(level_family(3, [1, 2])))
    cache = tmp_path / "cache.jsonl"
    cache.write_text("{}\n")  # the first search misses and appends, the second hits
    proc = subprocess.run(
        [sys.executable, "-c", MMAP_PROBE, str(family)],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent), TURAN_CACHE=str(cache)),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stderr.splitlines()[-1])
    assert loaded == {
        "import": False, "construct": False, "count": False, "free": False,
        "search --no-cache": False, "formula": False, "verify": False, "search": False,
        "search hit": False,
    }
    assert len(cache.read_text().splitlines()) == 2  # the second search was a hit


# Run in a fresh interpreter without site, whose start-up hooks may load
# struct themselves: only the transpose of a large family loads it
STRUCT_PROBE = """
import json, sys
import posetturan
from posetturan.familyio import format_family, parse_family
from posetturan.lattice import TABLE_MIN_MEMBERS, level_family
loaded = {"import": "struct" in sys.modules}
small = level_family(4, [1, 2])
assert len(small) < TABLE_MIN_MEMBERS
small.above, small.below
loaded["small"] = "struct" in sys.modules
before = set(sys.modules)
large = level_family(12, [6, 7])
large.above, large.below
assert parse_family(format_family(large)) == large
loaded["large"] = sorted(set(sys.modules) - before)
print(json.dumps(loaded))
"""


def test_only_a_large_family_loads_struct(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", STRUCT_PROBE],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded == {"import": False, "small": False, "large": ["_struct", "struct"]}


# Run in a fresh interpreter without site, whose start-up hooks may load these
# modules themselves: which of them each entry point loads
HEAVY_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
HEAVY = ("dataclasses", "inspect", "fractions")
def loaded():
    return [name for name in HEAVY if name in sys.modules]
out = {}
import posetturan
out["import posetturan"] = loaded()
from posetturan import cli
out["import posetturan.cli"] = loaded()
family = sys.argv[1]
runs = {
    "construct": ["construct", "middle-two-levels", "--n", "4"],
    "count": ["count", "--family", family, "--q", "@chain(2)"],
    "free": ["free", "--family", family, "--forbid", "@butterfly"],
    "search --no-cache": ["search", "--n", "3", "--forbid", "@butterfly", "--q", "@chain(2)", "--no-cache"],
    "verify zigzag": ["verify", "--lemma", "zigzag", "--seed", "0"],
    "formula katona_nagy": ["formula", "katona_nagy", "--n", "5", "--t", "3"],
}
for name, argv in runs.items():
    text = io.StringIO()
    with redirect_stdout(text):
        assert cli.run_command(argv) == 0, name
    out[name] = loaded()
out["katona_nagy stdout"] = text.getvalue()
print(json.dumps(out))
"""


def test_no_module_loads_dataclasses_and_only_a_fraction_loads_fractions(tmp_path):
    family = tmp_path / "fam.txt"
    family.write_text(format_family(level_family(3, [1, 2])))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", HEAVY_PROBE, str(family)],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {
        "import posetturan": [], "import posetturan.cli": [], "construct": [], "count": [],
        "free": [], "search --no-cache": [], "verify zigzag": [],
        "formula katona_nagy": ["fractions"], "katona_nagy stdout": "108/5\n",
    }


LAZY_NAMES = (
    "Coloring", "check_one_critical_pair_per_chain", "classify_nfree_components",
    "color_family", "erdos_gallai_check", "p5_component_report", "zigzag_find_WM",
)


@pytest.mark.parametrize("name", LAZY_NAMES)
def test_lazy_names_are_the_proofcheck_objects(name):
    namespace = {}
    exec(f"from posetturan import {name}", namespace)
    assert namespace[name] is getattr(proofcheck, name)
    assert getattr(posetturan, name) is getattr(proofcheck, name)


def test_other_names_still_raise_attribute_error():
    for name in ("VERIFIERS", "verify_zigzag", "no_such_name"):
        assert not hasattr(posetturan, name)
    with pytest.raises(AttributeError) as err:
        posetturan.no_such_name
    assert str(err.value) == "module 'posetturan' has no attribute 'no_such_name'"
    with pytest.raises(ImportError):
        exec("from posetturan import VERIFIERS", {})
