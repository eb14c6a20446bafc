"""Self-test of repro_bench's runner and comparison, on stand-in binaries.

    python3 -m unittest discover -s repro_bench/tests

Stand-in bench binaries (small Python scripts) replace the real build, so
the test runs in seconds and checks the benchmark's own logic: an injected
slowdown is reported as worse beyond the bound, a corrupted digest counts as
a failed invocation, and one command prints every metric of BENCHMARK.json
by name with its unit.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import compare  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

FAKE_BENCH = """#!/usr/bin/env python3
import os, sys, time
name = os.path.basename(sys.argv[0])
time.sleep(0.02 + float(os.environ.get("SLOW_" + name, "0")))
print("Table: " + name)
print("+-------+-----------+--------------+")
print("| Row   | Paper (s) | Measured (s) |")
print("+-------+-----------+--------------+")
print("| a     | 100       | 110          |")
print("+-------+-----------+--------------+")
print("[obs] counters (" + name + "):")
print("  mta.issue.total    1000")
"""

LAYER_KEYS = [m["name"] for m in BENCH["per_layer"]
              if not m["name"].startswith("bench.")
              and m["name"] not in ("platforms.cache_bytes", "untraced.wall_s")]
FAKE_TRACER = f"""#!/usr/bin/env python3
import json, os, sys
with open(os.environ["FAKE_TRACER_LOG"], "a") as log:
    log.write(" ".join(sys.argv[1:]) + "\\n")
keys = {LAYER_KEYS!r}
m = {{k: 1.0 for k in keys}}
m["mta.instr"] = 1000
m["sweep.jobs"] = 1
m["heldout"] = False
print(json.dumps(m))
"""


class ReproBenchSelfTest(unittest.TestCase):
    def setUp(self):
        scratch = run.WORK / "selftest"
        scratch.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=scratch))
        self.paths = run.Paths(self.tmp)
        self.paths.bench_dir = self.tmp / "bin"
        self.paths.tracer = self.tmp / "bin" / "layer_trace"
        self.paths.bench_dir.mkdir()
        for name in ("table01_platforms", "fake_a", "fake_b"):
            self._script(name, FAKE_BENCH)
        self._script("layer_trace", FAKE_TRACER)
        self.saved = (run.EXPECTED, dict(run.WORKLOADS), dict(os.environ))
        run.EXPECTED = self.tmp / "expected.json"
        run.WORKLOADS["fake"] = {"binaries": ["fake_a", "fake_b"], "jobs": 1,
                                 "obs": False}
        os.environ["FAKE_TRACER_LOG"] = str(self.tmp / "tracer.log")
        self.main(["--record"])

    def tearDown(self):
        run.EXPECTED, workloads, env = self.saved
        run.WORKLOADS.clear()
        run.WORKLOADS.update(workloads)
        os.environ.clear()
        os.environ.update(env)
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _script(self, name, text):
        path = self.paths.bench_dir / name
        path.write_text(text)
        path.chmod(0o755)

    def main(self, extra, seed=1):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            run.main(["--workload", "fake", "--seed", str(seed),
                      "--seconds", "0.1", *extra], paths=self.paths)
        lines = out.getvalue().strip().splitlines()
        return json.loads(lines[-1]) if lines else None

    def records(self):
        return compare.load(self.paths.results)

    def test_injected_slowdown_is_worse_beyond_bound(self):
        for seed in range(3):
            self.main(["--trace", "0"], seed)
        base = self.records()
        self.paths.results.unlink()
        os.environ["SLOW_fake_b"] = "0.2"
        for seed in range(3):
            self.main(["--trace", "0"], seed)
        code, lines = compare.compare(base, self.records(),
                                      BENCH["end_to_end"])
        self.assertEqual(code, 1)
        wall = [l for l in lines if l.strip().startswith("wall_s ")]
        self.assertTrue(wall and wall[0].endswith("WORSE"), lines)

    def test_same_code_is_not_worse(self):
        for seed in range(2):
            self.main(["--trace", "0"], seed)
        recs = self.records()
        code, lines = compare.compare(recs, recs, BENCH["end_to_end"])
        self.assertEqual(code, 0, lines)

    def test_different_host_fingerprints_are_refused(self):
        self.main(["--trace", "0"])
        base = self.records()
        other = json.loads(json.dumps(base))
        other[0]["fingerprint"]["host"]["nproc"] += 1
        code, _ = compare.compare(base, other, BENCH["end_to_end"])
        self.assertEqual(code, 2)

    def test_corrupted_digest_is_a_failed_invocation(self):
        expected = json.loads(run.EXPECTED.read_text())
        expected["fake"]["fake_a"]["digest"] = "0" * 64
        run.EXPECTED.write_text(json.dumps(expected))
        result = self.main(["--trace", "0"])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_share"]["value"], 1.0)

    def test_changed_instruction_count_is_a_failed_invocation(self):
        expected = json.loads(run.EXPECTED.read_text())
        expected["fake"]["fake_b"]["issue_total"] = 999
        run.EXPECTED.write_text(json.dumps(expected))
        result = self.main(["--trace", "0"])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_every_metric_prints_by_name_with_unit(self):
        for trace, declared in ((0, BENCH["end_to_end"]),
                                (1, BENCH["per_layer"])):
            result = self.main(["--trace", str(trace)])
            self.assertTrue(result["correct"], result)
            self.assertEqual(result["failed"], 0)
            self.assertEqual(
                {k: v["unit"] for k, v in result["metrics"].items()},
                {m["name"]: m["unit"] for m in declared})
            for v in result["metrics"].values():
                self.assertIsInstance(v["value"], (int, float))

    def test_trace_runs_one_process_per_binary_setup_once(self):
        result = self.main(["--trace", "1"])
        self.assertTrue(result["correct"], result)
        calls = (self.tmp / "tracer.log").read_text().splitlines()
        self.assertEqual([c.split()[1] for c in calls], ["fake_a", "fake_b"])
        self.assertEqual([c.split("--setup ")[1][0] for c in calls], ["1", "0"])
        self.assertEqual(result["metrics"]["mta.runs"]["value"], 2.0)

    def test_traced_instruction_mismatch_is_incorrect(self):
        self._script("layer_trace", FAKE_TRACER.replace("1000", "1001"))
        result = self.main(["--trace", "1"])
        self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
