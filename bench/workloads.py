"""The benchmark's workloads: seeded inputs, the CLI ops that use them, and oracles.

Every op is one ``posetturan`` command line, run in-process through
``posetturan.cli.run_command``. Each op carries the oracle that checks its
stdout: a pinned value, a closed formula, a witness check, or the output of
the uncached command. The seed only changes the inputs in ways that leave
every answer fixed (poset relabelling, permutations of [n], verifier seeds,
the cache-replay stream), so the oracles do not depend on it.
"""
from __future__ import annotations

import functools
import io
import json
import math
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

from posetturan import cli, formulas
from posetturan.dsl import parse_poset_dsl, parse_single_poset
from posetturan.embedding import EmbeddingWitness
from posetturan.lattice import SetFamily
from posetturan.search import CACHE_ENV_VAR, verify_witness

Q2 = "@chain(2)"


@dataclass
class Op:
    name: str
    argv: list
    kind: str                 # selects the oracle in CHECKS
    expect: object            # what the oracle compares against
    after: object = None      # untimed step fed the op's stdout (writes later ops' inputs)
    watch: str = None         # file whose growth during the op is reported


@dataclass
class Check:
    ok: bool
    detail: str = ""
    facts: dict = field(default_factory=dict)


def run_cli(argv):
    """Run one command line in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.run_command(list(argv))
    return rc, out.getvalue()


# -- family text, read and written by the benchmark itself -----------------

def parse_family_text(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("family text must start with n=<int>")
    n = int(lines[0][2:])
    masks = []
    for line in lines[1:]:
        mask = 0
        if line != "{}":
            for tok in line.split():
                mask |= 1 << (int(tok) - 1)
        masks.append(mask)
    return n, masks


def family_text(n, masks):
    rows = [f"n={n}"]
    for m in sorted(masks):
        rows.append(" ".join(str(i + 1) for i in range(n) if m >> i & 1) or "{}")
    return "\n".join(rows) + "\n"


def permute_mask(mask, perm):
    out = 0
    for i, j in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << j
    return out


def random_set(rng, ground, k):
    return sum(1 << b for b in rng.sample(ground, k))


# -- oracles ----------------------------------------------------------------

def _check_search(op, out, grew):
    e = op.expect
    rep = json.loads(out)
    best = rep["optimum"]
    if e["optimum"] is not None:
        if not rep["complete"] or best != e["optimum"]:
            return Check(False, f"optimum {best} (complete={rep['complete']}), want {e['optimum']}")
        facts = {}
    else:
        ref = e["reference"]
        if best > ref or (rep["complete"] and best != ref):
            return Check(False, f"optimum {best} (complete={rep['complete']}) against reference {ref}")
        facts = {"gap": max(0, ref - best)}
    if not rep["witnesses"]:
        return Check(False, "no witness reported")
    forbidden = parse_poset_dsl(e["forbid"])
    q = parse_single_poset(Q2)
    for w in rep["witnesses"]:
        chk = verify_witness(SetFamily(e["n"], w), forbidden, q)
        if not chk.free or chk.copies != best:
            return Check(False, f"witness {w}: free={chk.free}, copies={chk.copies}, optimum {best}")
    return Check(True, facts=facts)


def _check_construct(op, out, grew):
    n, masks = parse_family_text(out)
    e = op.expect
    if n != e["n"] or len(set(masks)) != len(masks) or len(masks) != e["size"]:
        return Check(False, f"n={n} with {len(masks)} sets, want n={e['n']} with {e['size']}")
    return Check(True)


def _check_count(op, out, grew):
    got = int(out.strip())
    return Check(got == op.expect, f"count {got}, want {op.expect}")


def _check_free(op, out, grew):
    got = json.loads(out)
    return Check(got == {"free": True}, f"got {got}, want free")


def _check_probe(op, out, grew):
    got = json.loads(out)
    if got.get("free") is not False:
        return Check(False, f"got {got}, want a copy of the forbidden poset")
    posets = {p.canonical_key(): p for p in parse_poset_dsl(op.expect["forbid"])}
    poset = posets.get(got["poset"])
    if poset is None:
        return Check(False, f"reported poset {got['poset']} is not forbidden")
    with open(op.expect["family"], encoding="utf-8") as fh:
        n, masks = parse_family_text(fh.read())
    witness = EmbeddingWitness(poset, SetFamily(n, masks), tuple(got["witness"]))
    return Check(witness.check(), f"witness {got['witness']} fails EmbeddingWitness.check")


def _check_verify(op, out, grew):
    lines = out.splitlines()
    if len(lines) != 1:
        return Check(False, f"{len(lines)} report lines, want 1")
    rec = json.loads(lines[0])
    e = op.expect
    if rec["lemma"] != e["lemma"] or rec["seed"] != e["seed"] or rec["failures"] != 0:
        return Check(False, f"report {rec}")
    got = rec["instances_checked"]
    ok = got == e["instances"] if e["instances"] is not None else got > 0
    return Check(ok, f"{got} instances, want {e['instances']}", {"instances": got})


def _check_replay(op, out, grew):
    facts = {"cache_bytes": grew, "cache_hit": grew == 0}
    return Check(out == op.expect, "stdout differs from search --no-cache", facts)


CHECKS = {
    "search": _check_search,
    "construct": _check_construct,
    "count": _check_count,
    "free": _check_free,
    "probe": _check_probe,
    "verify": _check_verify,
    "replay": _check_replay,
}


def check_op(op, rc, out, grew=None):
    if rc != 0:
        return Check(False, f"exit code {rc}")
    try:
        return CHECKS[op.kind](op, out, grew)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return Check(False, f"unreadable output: {type(exc).__name__}: {exc}")


# -- workloads ----------------------------------------------------------------

class OpGroup:
    """A fixed list of ops built from a seed; ``before_round`` resets their inputs."""

    name = ""
    round_seconds = 1.0   # nominal time of one pass over the ops on a 2-vCPU machine

    def __init__(self, seed, workdir, smoke=False):
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops = []

    def before_round(self):
        pass

    def close(self):
        pass


BUTTERFLY = (4, ((0, 2), (0, 3), (1, 2), (1, 3)))
N_POSET = (4, ((0, 2), (1, 2), (1, 3)))
CHAIN3 = (3, ((0, 1), (1, 2)))


def relabelled(rng, poset):
    """Inline DSL for the poset with fresh identifiers and shuffled relations.

    The elements are declared first, in the catalog's order, because the
    parser numbers elements by first appearance and the embedding search's
    cost depends on that numbering (up to 1.6x per op between orders). So the
    seed changes the text the program parses but not the work it does.
    """
    size, rels = poset
    names = [f"v{k}" for k in rng.sample(range(10, 100), size)]
    stmts = [f"{names[a]}<{names[b]}" for a, b in rels]
    rng.shuffle(stmts)
    return "; ".join(names + stmts)


class SearchOps(OpGroup):
    """Exact La(n, P, #P2) at n = 4, and budgeted n = 5 runs against the closed forms."""

    name = "search"
    round_seconds = 14.5

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        r = self.rng
        if smoke:
            plan = [(3, relabelled(r, BUTTERFLY), 7, None, None),
                    (3, relabelled(r, N_POSET), 3, None, None),
                    (5, relabelled(r, N_POSET), None, 10, 300)]
        else:
            plan = [(4, relabelled(r, BUTTERFLY), 14, None, None),
                    (4, relabelled(r, N_POSET), 6, None, None),
                    (4, relabelled(r, CHAIN3), 12, None, None),
                    (4, "@pathfamily(5)", 10, None, None),
                    (5, relabelled(r, N_POSET), None, formulas.n_free(5), 20000),
                    (5, relabelled(r, BUTTERFLY), None, formulas.butterfly_p2(5), 20000)]
        for n, spec, optimum, reference, budget in plan:
            argv = ["search", "--no-cache", "--n", str(n), "--forbid", spec, "--q", Q2]
            if budget is not None:
                argv += ["--budget", str(budget)]
            expect = {"n": n, "forbid": spec, "optimum": optimum, "reference": reference}
            self.ops.append(Op(f"search n={n} {spec}", argv, "search", expect))


class ConstructionsOps(OpGroup):
    """construct -> family file -> count and free, on the four extremal families."""

    name = "constructions"
    round_seconds = 9.5

    # name, n for count, n for free, forbidden spec, count formula, family size,
    # and the set added for the non-free probe, given the permutation of [n].
    # Every permutation fixes the three level-union families, so their added
    # set is the same for every seed: the lowest set of the level above. Where
    # it falls in the search order sets the probe's cost (4x between sets).
    PLAN = (
        ("middle-two-levels", 14, 12, "@butterfly", formulas.butterfly_p2,
         lambda n: math.comb(n, n // 2) + math.comb(n, n // 2 + 1),
         lambda rng, n, perm: (1 << (n // 2 + 2)) - 1),
        ("n-free", 14, 14, "@N", formulas.n_free,
         lambda n: 1 + math.comb(n, n // 2),
         lambda rng, n, perm: (1 << (n // 2 + 1)) - 1),
        ("p5", 14, 14, "@pathfamily(5)", formulas.p5,
         lambda n: 4 * math.comb(n - 2, (n - 2) // 2),
         lambda rng, n, perm: permute_mask(
             random_set(rng, range(n - 2), (n - 2) // 2 + 1) | 3 << (n - 2), perm)),
        ("p6", 14, 8, "@pathfamily(6)", formulas.p6_lower,
         lambda n: 2 + math.comb(n, n // 2),
         lambda rng, n, perm: (1 << (n // 2 + 1)) - 1),
    )
    SMOKE_N = {"middle-two-levels": (8, 6), "n-free": (8, 8), "p5": (8, 8), "p6": (8, 6)}

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        self.files = []
        for name, n_count, n_free, forbid, formula, size, probe_set in self.PLAN:
            if smoke:
                n_count, n_free = self.SMOKE_N[name]
            perms = {n: self.rng.sample(range(n), n) for n in sorted({n_count, n_free})}
            extra = probe_set(self.rng, n_free, perms[n_free])
            count_file, free_file, probe_file = (
                os.path.join(workdir, f"{name}-{kind}.txt") for kind in ("count", "free", "probe")
            )
            self.files += [count_file, free_file, probe_file]
            # construct output at each n -> the files written from it: (path, added set)
            targets = {n_count: [(count_file, None)]}
            targets.setdefault(n_free, []).extend([(free_file, None), (probe_file, extra)])
            for n, files in targets.items():
                self.ops.append(Op(f"construct {name} n={n}", ["construct", name, "--n", str(n)],
                                   "construct", {"n": n, "size": size(n)},
                                   after=functools.partial(self._write, perms[n], files)))
                if n == n_count:
                    self.ops.append(Op(f"count {name} n={n}",
                                       ["count", "--family", count_file, "--q", Q2],
                                       "count", formula(n)))
            self.ops.append(Op(f"free {name} n={n_free} {forbid}",
                               ["free", "--family", free_file, "--forbid", forbid],
                               "free", True))
            self.ops.append(Op(f"probe {name} n={n_free} {forbid}",
                               ["free", "--family", probe_file, "--forbid", forbid],
                               "probe", {"forbid": forbid, "family": probe_file}))

    @staticmethod
    def _write(perm, files, construct_out):
        """Write the constructed family with its ground set permuted, plus any added set."""
        n, masks = parse_family_text(construct_out)
        family = [permute_mask(m, perm) for m in masks]
        for path, extra in files:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(family_text(n, family + ([extra] if extra is not None else [])))

    def before_round(self):
        for path in self.files:
            if os.path.exists(path):
                os.remove(path)


class VerifyOps(OpGroup):
    """The six lemma verifiers over seeds drawn from the workload seed."""

    name = "verify"
    round_seconds = 10.0

    # instances_checked does not depend on the verifier seed, except for
    # erdos-gallai, which only counts the random families that are P6-free
    INSTANCES = {"sublattice": 960, "chaincount": 3516, "coloring": 1268,
                 "zigzag": 12148, "nfree-components": 656, "erdos-gallai": None}

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        vseeds = [self.rng.randrange(1, 2**31) for _ in range(1 if smoke else 3)]
        # the sublattice suite takes no seed, so it runs once per round
        self._add("sublattice", vseeds[0], None)
        lemmas = [k for k in self.INSTANCES if k != "sublattice" and not (smoke and k == "zigzag")]
        for vseed in vseeds:
            for lemma in lemmas:
                self._add(lemma, vseed, vseed)

    def _add(self, lemma, vseed, reported_seed):
        expect = {"lemma": lemma, "seed": reported_seed, "instances": self.INSTANCES[lemma]}
        self.ops.append(Op(f"verify {lemma} seed={vseed}",
                           ["verify", "--lemma", lemma, "--seed", str(vseed)], "verify", expect))


class CacheReplayOps(OpGroup):
    """A stream of small cached searches against a large pre-built result cache.

    Misses are the distinct n = 3 requests, each asked once, which the program
    computes and appends; they are the same for every seed, so the search work
    does not depend on it. Hits repeat n <= 2 requests whose records an untimed
    pass wrote with the program itself. Filler records with random keys pad
    the file. Each round starts from a fresh copy of the file.
    """

    name = "cache-replay"
    round_seconds = 5.0

    FORBID = ("@chain(2)", "@chain(3)", "@chain(4)", "@butterfly", "@N", "@W", "@M", "@S",
              "@diamond", "@diamond(3)", "@fork(2)", "@kst(2,1)", "@fork(3)", "@kst(3,1)",
              "@kst(2,3)", "@kst(3,2)", "@crown(3)", "@pathfamily(3)", "@pathfamily(4)",
              "@pathfamily(5)")
    QS = ("@chain(2)", "@chain(3)")
    FULL = {"hit_keys": 32, "hits": 60, "misses": 40, "filler": 5000}
    SMOKE = {"hit_keys": 6, "hits": 10, "misses": 10, "filler": 300}

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        size = self.SMOKE if smoke else self.FULL
        rng = self.rng
        small, large, seen = [], [], set()
        for n in (1, 2, 3):
            for spec in self.FORBID:
                for q in self.QS:
                    key = (n, tuple(sorted(p.canonical_key() for p in parse_poset_dsl(spec))),
                           parse_single_poset(q).canonical_key())
                    if key not in seen:
                        seen.add(key)
                        argv = ["search", "--n", str(n), "--forbid", spec, "--q", q]
                        (large if n == 3 else small).append(argv)
        misses = rng.sample(large, min(size["misses"], len(large)))
        hit_keys = rng.sample(small, size["hit_keys"])
        stream = misses + [rng.choice(hit_keys) for _ in range(size["hits"])]
        rng.shuffle(stream)

        self.pristine = os.path.join(workdir, "cache-pristine.jsonl")
        self.path = os.path.join(workdir, "cache.jsonl")
        self._saved_env = os.environ.get(CACHE_ENV_VAR)
        try:
            self._build(rng, size, hit_keys, misses, stream)
        except BaseException:
            self.close()
            raise

    def _build(self, rng, size, hit_keys, misses, stream):
        real = os.path.join(self.workdir, "cache-real.jsonl")
        reference = {}
        for argv in hit_keys + misses:
            rc, out = run_cli(argv[:1] + ["--no-cache"] + argv[1:])
            if rc != 0:
                raise RuntimeError(f"reference run failed: {argv}")
            reference[tuple(argv)] = out
        os.environ[CACHE_ENV_VAR] = real
        for argv in hit_keys:
            run_cli(argv)
        with open(real, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln]
        lines += [self._filler(rng) for _ in range(size["filler"])]
        rng.shuffle(lines)
        with open(self.pristine, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        os.environ[CACHE_ENV_VAR] = self.path
        for argv in stream:
            self.ops.append(Op("replay " + " ".join(argv[1:]), argv, "replay",
                               reference[tuple(argv)], watch=self.path))

    @staticmethod
    def _filler(rng):
        witnesses = [sorted(rng.sample(range(16), rng.randint(3, 8)))
                     for _ in range(rng.randint(1, 16))]
        rec = {
            "budget": None,
            "complete": True,
            "forbidden_key": f"{rng.getrandbits(256):064x}",
            "n": rng.randint(1, 4),
            "nodes_explored": rng.randint(10, 30000),
            "optimum": rng.randint(0, 40),
            "q_key": f"{rng.getrandbits(256):064x}",
            "timestamp": 1.7e9 + rng.random() * 1e7,
            "witnesses": witnesses,
        }
        return json.dumps(rec, sort_keys=True)

    def before_round(self):
        shutil.copyfile(self.pristine, self.path)

    def close(self):
        if self._saved_env is None:
            os.environ.pop(CACHE_ENV_VAR, None)
        else:
            os.environ[CACHE_ENV_VAR] = self._saved_env


class Workload:
    """The op groups of one workload, run one after another in each round."""

    def __init__(self, groups):
        self.groups = groups
        self.ops = [op for g in groups for op in g.ops]
        self.round_seconds = sum(g.round_seconds for g in groups)

    def before_round(self):
        for g in self.groups:
            g.before_round()

    def close(self):
        for g in self.groups:
            g.close()


# Two workloads, so that each run can measure about 40 s: on a shared 2-vCPU
# machine the same work drifts by up to 40% between runs 20 s apart, and a
# longer run averages more of that drift. "search" exercises the search,
# the member-forced embedding test and the result cache; "families" bypasses
# all three and exercises lattice, unforced embedding, family files and the
# verifiers, on large and on tiny families.
WORKLOADS = {
    "search": (SearchOps, CacheReplayOps),
    "families": (ConstructionsOps, VerifyOps),
}


def make_workload(name, seed, workdir, smoke=False):
    groups = []
    try:
        for cls in WORKLOADS[name]:
            groups.append(cls(seed, workdir, smoke))
    except BaseException:
        Workload(groups).close()
        raise
    return Workload(groups)
