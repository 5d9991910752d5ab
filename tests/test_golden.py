"""Golden outputs: the exit code and stdout digest of every benchmark op.

``tests/golden.json`` holds, for the ``search`` and ``families`` workloads of
``bench/workloads.py`` at seeds 41 and 7, one entry per op in list order:
its exit code, the sha256 of its stdout and its name. Replayed cache ops
repeat names, so an entry is known by (workload, seed, position). The file
also holds the stdout lines of ``verify --lemma all`` at seeds 0 and
1940964428. Each op runs once, in-process, as one benchmark round runs it.

A change that moves an output on purpose writes the file again and lists
the moved ops in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"
sys.path.insert(0, str(ROOT / "bench"))

from workloads import make_workload, run_cli  # noqa: E402

WORKLOADS = ("search", "families")
SEEDS = (41, 7)
VERIFY_SEEDS = (0, 1940964428)


def op_entries(name, seed, workdir):
    """'<exit> <sha256 of stdout> <op name>' for each op of one round of the workload."""
    workload = make_workload(name, seed, str(workdir))
    try:
        workload.before_round()
        entries = []
        for op in workload.ops:
            rc, out = run_cli(op.argv)
            if rc == 0 and op.after is not None:
                op.after(out)
            entries.append(f"{rc} {hashlib.sha256(out.encode()).hexdigest()} {op.name}")
        return entries
    finally:
        workload.close()


def verify_entries(seed):
    rc, out = run_cli(["verify", "--lemma", "all", "--seed", str(seed)])
    return [f"exit {rc}", *out.splitlines()]


def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_bench_op_outputs(name, seed, tmp_path):
    want = golden()["ops"][f"{name} seed={seed}"]
    got = op_entries(name, seed, tmp_path)
    moved = [f"#{i}: {w} -> {g}" for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert len(got) == len(want), f"{len(got)} ops, want {len(want)}"
    assert not moved, "ops whose exit code or stdout moved:\n" + "\n".join(moved)


@pytest.mark.parametrize("seed", VERIFY_SEEDS)
def test_verify_lines(seed):
    assert verify_entries(seed) == golden()["verify"][f"seed={seed}"]


def write_golden():
    with tempfile.TemporaryDirectory() as tmp:
        ops = {}
        for name in WORKLOADS:
            for seed in SEEDS:
                workdir = Path(tmp) / f"{name}-{seed}"
                workdir.mkdir()
                ops[f"{name} seed={seed}"] = op_entries(name, seed, workdir)
    data = {"ops": ops, "verify": {f"seed={seed}": verify_entries(seed) for seed in VERIFY_SEEDS}}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {GOLDEN}: {sum(map(len, ops.values()))} ops")


if __name__ == "__main__":
    write_golden()
