"""posetturan benchmark: CLI workloads with oracles, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload search --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

Workloads (see workloads.py): ``search`` (exact and budgeted search, then a
cached replay stream) and ``families`` (constructions with count and free,
then the lemma verifiers). Each op is a ``posetturan`` command line run
in-process through ``posetturan.cli.run_command`` and checked by an oracle.
A run repeats the whole op list ``--seconds`` / (the workload's nominal round
time) times, at least once.

``--trace 0`` reports the end-to-end metrics: the round's total op time
(``wall_s``), peak RSS, and the import time of a fresh interpreter
(``setup_s``); the report also gives the median and slowest op time, the
error rate and, on ``search``, the search gap. ``--trace 1`` runs one untraced round, then
one round with span wrappers installed (tracing.py) and reports per-layer
self times, call counts and ratios, plus the tracing overhead. Spans go to
``.bench_out/spans-<workload>.bin``.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The line before it is a full report with the
environment, the seed, every op's times and check, and the metrics in
REPORTED. The search gap counts the sets by which the budgeted n = 5 runs fall
short of the closed forms. Exit code 0 if every op passed, 1 if one failed,
2 if the package cannot be found.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 15

# name -> unit; the result line carries these, and BENCHMARK.json bounds them
END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# Also end to end, printed in the report and by --workload all but not bounded:
# on a shared 2-vCPU machine the run-to-run spread of the per-op times reached
# 0.34 of their median, more than a regression bound may allow. error_rate is
# 0 on a correct program, and search_gap (search only) will be 0 once the
# n = 5 search completes.
REPORTED = {
    "op_p50_s": "s",
    "op_max_s": "s",
    "error_rate": "ratio",
    "search_gap": "sets",
}

# name -> unit; every name is reported on every workload
PER_LAYER = {
    "lattice.setfamily_builds": "count",
    "lattice.setfamily_s": "s",
    "lattice.above_builds": "count",
    "lattice.above_s": "s",
    "lattice.above_pair_tests": "computed_pairs",
    "lattice.below_s": "s",
    "lattice.count_k_chains_calls": "count",
    "lattice.count_k_chains_s": "s",
    "lattice.chains_meeting_calls": "count",
    "lattice.chains_meeting_s": "s",
    "embedding.using_member_calls": "count",
    "embedding.using_member_s": "s",
    "embedding.using_member_hit_ratio": "ratio",
    "embedding.find_embedding_calls": "count",
    "embedding.find_embedding_s": "s",
    "embedding.find_embedding_hit_ratio": "ratio",
    "embedding.count_copies_calls": "count",
    "embedding.count_copies_s": "s",
    "search.la_exact_calls": "count",
    "search.la_exact_s": "s",
    "search.self_s": "s",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.budgeted_gap": "sets",
    "search.cache_lookups": "count",
    "search.cache_hits": "count",
    "search.cache_misses": "count",
    "search.cache_hit_ratio": "ratio",
    "search.cache_s": "s",
    "search.cache_bytes_written": "bytes",
    "posets.canonical_key_calls": "count",
    "posets.canonical_key_s": "s",
    "posets.path_hasse_family_s": "s",
    "proofcheck.sublattice_s": "s",
    "proofcheck.chaincount_s": "s",
    "proofcheck.coloring_s": "s",
    "proofcheck.zigzag_s": "s",
    "proofcheck.nfree_components_s": "s",
    "proofcheck.erdos_gallai_s": "s",
    "proofcheck.instances": "count",
    "constructions.build_s": "s",
    "familyio.format_s": "s",
    "familyio.read_s": "s",
    "familyio.bytes": "bytes",
    "dsl.parse_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

def import_package():
    """Import posetturan from this checkout's src/, or exit 2."""
    if not (SRC / "posetturan" / "__init__.py").is_file():
        print(f"error: no posetturan package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import posetturan

    if Path(posetturan.__file__).resolve().parent != SRC / "posetturan":
        print(f"error: imported posetturan from {posetturan.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


# -- environment --------------------------------------------------------------

def _commit():
    """HEAD of the checkout's git metadata, read from files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    digest = hashlib.sha256()
    for path in sorted((SRC / "posetturan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": threading.active_count(),
    }


# -- measurement ----------------------------------------------------------------

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import posetturan; "
    "print(time.perf_counter() - t); print(posetturan.__file__)"
)


def measure_setup(samples):
    """Seconds for ``import posetturan`` in each of ``samples`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    values = []
    for _ in range(samples):
        res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        seconds, where = res.stdout.split("\n")[:2]
        if Path(where).resolve().parent != SRC / "posetturan":
            raise RuntimeError(f"fresh interpreter imported posetturan from {where}")
        values.append(float(seconds))
    return values


def run_round(workload, tracer=None):
    """Run every op once; returns a list of per-op result dicts."""
    from posetturan import cli
    from workloads import Check, check_op

    workload.before_round()
    results = []
    for i, op in enumerate(workload.ops):
        size0 = os.path.getsize(op.watch) if op.watch else None
        out, err = io.StringIO(), io.StringIO()
        error = None
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.run_command(list(op.argv))
        except Exception:
            rc, error = None, traceback.format_exc(limit=-3)
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.op = -1
        grew = os.path.getsize(op.watch) - size0 if op.watch else None
        check = Check(False, error) if error else check_op(op, rc, out.getvalue(), grew)
        if check.ok and op.after is not None:
            try:
                op.after(out.getvalue())
            except (ValueError, OSError) as exc:
                check.ok, check.detail = False, f"could not use the output: {exc}"
        results.append({"seconds": seconds, "ok": check.ok, "detail": check.detail,
                        "facts": check.facts, "stdout": out.getvalue()})
    return results


def run_rounds(workload, seconds):
    """As many rounds as fit in ``seconds`` at the workload's nominal round time.

    The count depends only on ``seconds``, so two commits measured with the
    same settings run the same number of rounds. The set-up samples are taken
    in batches before, between and after the rounds, so they span the run.
    Returns (rounds, set-up samples).
    """
    count = max(1, int(seconds // workload.round_seconds))
    batch = -(-SETUP_SAMPLES // (count + 1))
    rounds, setup = [], measure_setup(batch)
    for _ in range(count):
        rounds.append(run_round(workload))
        setup += measure_setup(batch)
    return rounds, setup


def mark_nondeterministic(rounds):
    """Fail any op whose stdout differs from its stdout in the first round."""
    for results in rounds[1:]:
        for res, first in zip(results, rounds[0]):
            if res["ok"] and res["stdout"] != first["stdout"]:
                res["ok"], res["detail"] = False, "stdout differs between rounds"


def end_to_end_metrics(rounds, setup_s):
    per_op = [statistics.median(r[i]["seconds"] for r in rounds) for i in range(len(rounds[0]))]
    return {
        "wall_s": statistics.median(sum(res["seconds"] for res in r) for r in rounds),
        "op_p50_s": statistics.median(per_op),
        "op_max_s": max(per_op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer_metrics(summary, results, overhead_s):
    from workloads import VerifyOps

    def get(name, key="self_s"):
        return summary.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def fact(key):
        return sum(res["facts"].get(key, 0) for res in results)

    lookups = get("search.cached_la_exact", "calls")
    misses = summary.get("search.cached_la_exact", {}).get("children", {}).get("search.la_exact", 0)
    nodes = get("search.la_exact", "aux")
    metrics = {
        "lattice.setfamily_builds": get("lattice.setfamily", "calls"),
        "lattice.setfamily_s": get("lattice.setfamily"),
        "lattice.above_builds": get("lattice.above", "calls"),
        "lattice.above_s": get("lattice.above"),
        # computed, not counted: m(m-1)/2 pairs for each build over m members
        "lattice.above_pair_tests": get("lattice.above", "aux"),
        "lattice.below_s": get("lattice.below"),
        "lattice.count_k_chains_calls": get("lattice.count_k_chains", "calls"),
        "lattice.count_k_chains_s": get("lattice.count_k_chains"),
        "lattice.chains_meeting_calls": get("lattice.chains_meeting", "calls"),
        "lattice.chains_meeting_s": get("lattice.chains_meeting"),
        "embedding.using_member_calls": get("embedding.using_member", "calls"),
        "embedding.using_member_s": get("embedding.using_member"),
        "embedding.using_member_hit_ratio": ratio(get("embedding.using_member", "aux"),
                                                  get("embedding.using_member", "calls")),
        "embedding.find_embedding_calls": get("embedding.find_embedding", "calls"),
        "embedding.find_embedding_s": get("embedding.find_embedding"),
        "embedding.find_embedding_hit_ratio": ratio(get("embedding.find_embedding", "aux"),
                                                    get("embedding.find_embedding", "calls")),
        "embedding.count_copies_calls": get("embedding.count_copies", "calls"),
        "embedding.count_copies_s": get("embedding.count_copies"),
        "search.la_exact_calls": get("search.la_exact", "calls"),
        "search.la_exact_s": get("search.la_exact", "incl_s"),
        "search.self_s": get("search.la_exact"),
        "search.nodes": nodes,
        "search.nodes_per_s": ratio(nodes, get("search.la_exact", "incl_s")),
        "search.budgeted_gap": fact("gap"),
        "search.cache_lookups": lookups,
        "search.cache_hits": lookups - misses,
        "search.cache_misses": misses,
        "search.cache_hit_ratio": ratio(lookups - misses, lookups),
        "search.cache_s": get("search.cached_la_exact"),
        "search.cache_bytes_written": fact("cache_bytes"),
        "posets.canonical_key_calls": get("posets.canonical_key", "calls"),
        "posets.canonical_key_s": get("posets.canonical_key"),
        "posets.path_hasse_family_s": get("posets.path_hasse_family"),
        "proofcheck.instances": fact("instances"),
        "constructions.build_s": get("constructions.build"),
        "familyio.format_s": get("familyio.format"),
        "familyio.read_s": get("familyio.read"),
        "familyio.bytes": get("familyio.format", "aux") + get("familyio.read", "aux"),
        "dsl.parse_s": get("dsl.parse"),
        "cli.self_s": get("cli"),
        "trace.overhead_s": overhead_s,
    }
    for lemma in VerifyOps.INSTANCES:
        metrics[f"proofcheck.{lemma.replace('-', '_')}_s"] = get(f"proofcheck.{lemma}")
    return metrics


def run_workload(name, seed, seconds, trace, smoke=False):
    """Run one workload; returns (report dict, final result dict)."""
    from workloads import make_workload

    env = environment(seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    workload = None
    try:
        workload = make_workload(name, seed, workdir, smoke=smoke)
        if trace:
            from tracing import Tracer

            rounds = [run_round(workload)]
            tracer = Tracer()
            tracer.install()
            try:
                rounds.append(run_round(workload, tracer))
            finally:
                tracer.uninstall()
            walls = [sum(res["seconds"] for res in r) for r in rounds]
            summary = tracer.summary()
            metrics = per_layer_metrics(summary, rounds[1], walls[1] - walls[0])
            tracer.write(OUT_DIR / f"spans-{name}.bin", [op.name for op in workload.ops])
            units = PER_LAYER
        else:
            rounds, setup = run_rounds(workload, seconds)
            metrics = end_to_end_metrics(rounds, statistics.median(setup))
            units = END_TO_END
        mark_nondeterministic(rounds)
        ops = [op.name for op in workload.ops]
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r) for r in rounds)
    failed = sum(not res["ok"] for r in rounds for res in r)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "environment": env,
        "rounds": len(rounds),
        "n_ops": len(ops),
        "ops": [
            {"name": op_name,
             "seconds": [r[i]["seconds"] for r in rounds],
             "ok": all(r[i]["ok"] for r in rounds),
             "detail": next((r[i]["detail"] for r in rounds if not r[i]["ok"]), "")}
            for i, op_name in enumerate(ops)
        ],
    }
    reported = {"error_rate": failed / attempted}
    if not trace:
        reported.update(op_p50_s=metrics["op_p50_s"], op_max_s=metrics["op_max_s"])
    if name == "search":
        reported["search_gap"] = sum(res["facts"].get("gap", 0) for res in rounds[0])
    report["reported"] = {k: {"value": v, "unit": REPORTED[k]} for k, v in reported.items()}
    if trace:
        report["spans"] = tracer.span_count()
        # the three layers with the most self time in each traced op
        by_op = tracer.self_by_op()
        for i, op in enumerate(report["ops"]):
            layers = sorted(by_op.get(i, {}).items(), key=lambda kv: -kv[1])[:3]
            op["top_self_s"] = {name: t for name, t in layers}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    return report, result


def run_all(args):
    """Run every workload, one fresh process each, and print a metric table."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = max(status, 2)
            continue
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        print(f"{name}: seed {args.seed}, {report['rounds']} round(s) of {report['n_ops']} ops, "
              f"{result['failed']}/{result['attempted']} failed")
        for metric, entry in {**result["metrics"], **report["reported"]}.items():
            print(f"  {metric:<38} {entry['value']:>14.6g} {entry['unit']}")
    return status


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for op in report["ops"]:
        if not op["ok"]:
            print(f"FAILED {op['name']}: {op['detail']}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    import_package()
    sys.path.insert(0, str(BENCH_DIR))
    sys.exit(main())
