"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root:

    python3 -m unittest discover -s bench/tests
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_package()

import posetturan.search  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class WorkdirTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.workdir = tmp.name

    def group(self, cls, seed=1):
        ops = cls(seed, self.workdir, smoke=True)
        self.addCleanup(ops.close)
        return ops


class TestSmokeWorkloads(unittest.TestCase):
    def test_every_workload_passes_its_oracles(self):
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    report, result = run.run_workload(name, seed=3, seconds=0, trace=trace,
                                                      smoke=True)
                    self.assertTrue(result["correct"], report["ops"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(report["reported"]["error_rate"]["value"], 0)
                    if not trace:
                        for metric in ("op_p50_s", "op_max_s"):
                            self.assertGreater(report["reported"][metric]["value"], 0)
                    units = run.PER_LAYER if trace else run.END_TO_END
                    self.assertEqual(
                        result["metrics"],
                        {k: {"value": result["metrics"][k]["value"], "unit": u}
                         for k, u in units.items()})
                    if not trace:
                        for metric in run.END_TO_END:
                            self.assertGreater(result["metrics"][metric]["value"], 0)
                    self.assertEqual(report["environment"]["seed"], 3)


class TestOracles(WorkdirTest):
    def test_wrong_pinned_optimum_is_a_failed_op(self):
        wl = self.group(workloads.SearchOps)
        wl.ops[0].expect["optimum"] += 1
        results = run.run_round(wl)
        self.assertEqual([r["ok"] for r in results], [False] + [True] * (len(results) - 1))

    def test_wrong_formula_count_is_a_failed_op(self):
        wl = self.group(workloads.ConstructionsOps)
        count_ops = [i for i, op in enumerate(wl.ops) if op.kind == "count"]
        wl.ops[count_ops[0]].expect += 1
        results = run.run_round(wl)
        self.assertEqual([i for i, r in enumerate(results) if not r["ok"]], count_ops[:1])

    def test_wrong_instance_count_is_a_failed_op(self):
        wl = self.group(workloads.VerifyOps)
        wl.ops[0].expect["instances"] -= 1
        self.assertFalse(run.run_round(wl)[0]["ok"])

    def test_replay_output_must_match_uncached_search(self):
        wl = self.group(workloads.CacheReplayOps)
        wl.ops[0].expect += " "
        self.assertFalse(run.run_round(wl)[0]["ok"])

    def test_free_answer_on_a_probe_is_a_failed_op(self):
        wl = self.group(workloads.ConstructionsOps)
        probe = next(op for op in wl.ops if op.kind == "probe")
        check = workloads.check_op(probe, 0, '{"free": true}\n')
        self.assertFalse(check.ok)

    def test_cache_replay_hits_half(self):
        wl = self.group(workloads.CacheReplayOps)
        results = run.run_round(wl)
        hits = sum(r["facts"]["cache_hit"] for r in results)
        self.assertEqual(hits, workloads.CacheReplayOps.SMOKE["hits"])


class TestSeedInvariance(WorkdirTest):
    def test_answers_do_not_depend_on_the_seed(self):
        outputs = []
        for seed in (1, 2):
            results = run.run_round(self.group(workloads.SearchOps, seed))
            self.assertTrue(all(r["ok"] for r in results))
            outputs.append([r["stdout"] for r in results])
        self.assertNotEqual(
            [op.argv for op in self.group(workloads.SearchOps, 1).ops],
            [op.argv for op in self.group(workloads.SearchOps, 2).ops])
        self.assertEqual(outputs[0], outputs[1])

    def test_constructions_permute_the_ground_set(self):
        # the other three constructions are unions of whole levels, which every
        # permutation of [n] fixes; the p5 family is not
        texts = []
        for seed in (1, 2):
            wl = self.group(workloads.ConstructionsOps, seed)
            results = run.run_round(wl)
            self.assertTrue(all(r["ok"] for r in results))
            count_p5 = next(op for op in wl.ops if op.name.startswith("count p5"))
            with open(count_p5.argv[2], encoding="utf-8") as fh:
                texts.append(fh.read())
        self.assertNotEqual(texts[0], texts[1])


class TestTracing(WorkdirTest):
    def test_traced_and_untraced_rounds_agree(self):
        for cls in (workloads.SearchOps, workloads.ConstructionsOps):
            wl = self.group(cls)
            plain = run.run_round(wl)
            tracer = tracing.Tracer()
            original = posetturan.search.embedding_using_member
            tracer.install()
            try:
                self.assertIsNot(posetturan.search.embedding_using_member, original)
                traced = run.run_round(wl, tracer)
            finally:
                tracer.uninstall()
            self.assertIs(posetturan.search.embedding_using_member, original)
            self.assertEqual([r["stdout"] for r in plain], [r["stdout"] for r in traced])
            self.assertTrue(all(r["ok"] for r in plain + traced))
            self.assertGreater(tracer.span_count(), 0)

    def test_self_time_subtracts_children(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda: sum(range(20000)))
        outer = tracer.wrap("outer", lambda: inner() + inner())
        tracer.op = 0
        outer()
        tracer.op = -1
        inner()  # outside an op: not recorded
        s = tracer.summary()
        self.assertEqual((s["outer"]["calls"], s["inner"]["calls"]), (1, 2))
        self.assertAlmostEqual(s["outer"]["self_s"] + s["inner"]["self_s"], s["outer"]["incl_s"])
        self.assertEqual(s["outer"]["children"], {"inner": 1})

    def test_spans_round_trip_through_the_file(self):
        tracer = tracing.Tracer()
        f = tracer.wrap("f", lambda x: x, aux=lambda args, result: result)
        tracer.op = 0
        f(7)
        path = os.path.join(self.workdir, "spans.bin")
        tracer.write(path, ["op"])
        header, cols = tracing.load_spans(path)
        self.assertEqual((header["names"], header["ops"], header["count"]), (["f"], ["op"], 1))
        self.assertEqual(list(cols["aux"]), [7])
        self.assertEqual(list(cols["start"]), list(tracer.cols["start"]))


class TestBenchmarkFile(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_reported(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_without_the_package_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
