"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Kept apart from the library's test suite (the file name does not match
``test_*.py``), because they time things.  They cover the tail-percentile
rule, the reference-loop normalisation, a tiny run of each workload through
the worker's own loop, and the refusal to run without the library's
sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


class TailRule(unittest.TestCase):
    def test_known_sizes(self):
        self.assertEqual(measure.tail_percentile(80), 87)
        self.assertEqual(measure.tail_percentile(60), 83)
        self.assertEqual(measure.tail_percentile(1000), 99)
        self.assertEqual(measure.tail_percentile(100), 90)

    def test_fewer_than_forty_samples_give_the_median(self):
        for n in (1, 10, 39):
            self.assertEqual(measure.tail_percentile(n), 50)

    def test_highest_with_ten_beyond(self):
        for n in range(40, 3000, 7):
            p = measure.tail_percentile(n)
            self.assertGreaterEqual(n - measure.nearest_rank(n, p), 10)
            if p < 99:
                self.assertLess(n - measure.nearest_rank(n, p + 1), 10)

    def test_percentile_is_a_sample(self):
        xs = list(range(100, 0, -1))
        self.assertEqual(measure.percentile(xs, 90), 90)
        self.assertEqual(measure.percentile(xs, 50), 50)


class ReferenceNormalisation(unittest.TestCase):
    def test_summarize(self):
        # two rounds of five operations; op 4 is slow, and op 0 was
        # disturbed once
        ops = [0, 1, 2, 3, 4] * 2
        ref = [1.0, 1.0, 2.0, 2.0, 10.0, 9.0, 1.0, 2.0, 2.0, 10.0]
        sec = [r / 1000 for r in ref]
        m = measure.summarize(ops, sec, ref, 50)
        self.assertAlmostEqual(m["op_ref"], 2.0)
        self.assertAlmostEqual(m["op_ms"], 2.0)
        self.assertAlmostEqual(m["ops_per_ref"], 5 / 20.0)
        self.assertAlmostEqual(m["ops_per_s"], 10 / 0.04)
        self.assertAlmostEqual(m["op_ref_tail"], 2.0)

    def test_reference_work_reads_in_reference_units(self):
        # an operation made of k reference loops reads about k, whatever
        # the speed of the host while it runs
        def call(k):
            for _ in range(k):
                measure.ref_loop()

        samples, rounds = worker.run_loop(
            [2, 4], call, lambda i, op, res: "ok", 0.3, 2)
        self.assertGreaterEqual(rounds, 2)
        for idx, k in enumerate((2, 4)):
            got = measure.median(
                [r for i, r in zip(samples.op, samples.ref) if i == idx])
            self.assertGreater(got, 0.6 * k)
            self.assertLess(got, 1.6 * k)


def _tiny(job, keep):
    """Set up and run a workload with only the operations ``keep`` picks."""
    state = worker.setup(job)
    state["ops"] = [op for op in state["ops"] if keep(op)]
    return worker.run(dict(job, seconds=0, min_rounds=1), state)


class TinyRuns(unittest.TestCase):
    def _job(self, workload):
        return {"mode": "run", "workload": workload, "seed": 7,
                "seconds": 0, "trace": True, "min_rounds": 1}

    def test_verify(self):
        res = _tiny(self._job("verify"),
                    lambda op: op in (("factorizations", "0f1"),
                                      ("kummer", "hermite"),
                                      ("connection", "0f1")))
        self.assertEqual(res["attempted"], 2)   # the empty pair is dropped
        self.assertEqual(res["failed"], 0)
        self.assertIn("verify.factorizations_ms", res["layer"])
        self.assertGreater(res["layer"]["exactalg.op_compose_calls"], 0)

    def test_eval(self):
        job = self._job("eval")
        job["points"] = inputs.eval_points(7, per_region=4)
        job["refs"] = run.oracle(job["points"])
        res = worker.run(dict(job, seconds=0, min_rounds=1),
                         worker.setup(job))
        self.assertEqual(res["attempted"], 4 * len(inputs.REGIONS)
                         + len(inputs.KNOWN_BAD))
        self.assertEqual(res["failed"], len(inputs.KNOWN_BAD))
        self.assertEqual(res["unexpected"], [])
        self.assertGreater(res["layer"]["numerics.pfq_series_calls"], 0)

    def test_cli(self):
        job = self._job("cli")
        job["commands"] = [c for c in inputs.cli_commands(7)
                           if c["kind"] in ("eval", "catalog")]
        job["refs"] = [run.oracle([c["point"]])[0] if c["point"] else None
                       for c in job["commands"]]
        env = run._env()
        old = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = env["PYTHONPATH"]
        try:
            res = worker.run(job, worker.setup(job))
        finally:
            if old is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = old
        self.assertEqual((res["attempted"], res["failed"]), (2, 0))

    def test_wrong_value_is_caught(self):
        pt = {"region": "2f1_series", "fn": "eval_2F1",
              "params": [0.1, 0.2, 0.3], "w": [0.1, 0.0]}
        status = worker.check_eval(pt, 1.0 + 1e-6, 1.0, ArithmeticError)
        self.assertNotIn(status, ("ok", "failed"))

    def test_parse_printed(self):
        self.assertEqual(worker.parse_printed("1.5-2e-05i"), 1.5 - 2e-5j)
        self.assertEqual(worker.parse_printed("-3"), -3)


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            doc = json.load(fh)
        self.assertEqual([m["name"] for m in doc["end_to_end"]],
                         list(run.GATED))
        units = dict(run.END_TO_END)
        for m in doc["end_to_end"]:
            self.assertEqual(m["unit"], units[m["name"]])
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         [(n, run.unit_of(n)) for n in run.per_layer_names()])
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         list(run.WORKLOADS))


class Refusal(unittest.TestCase):
    def test_no_sources_no_result(self):
        # a copy holding only BENCHMARK.json and this directory
        os.makedirs(run.OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "eval",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            with self.assertRaises(ValueError):
                json.loads(line)


if __name__ == "__main__":
    unittest.main()
