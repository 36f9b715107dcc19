"""Self-test of the benchmark itself.

Runs every workload for one cycle at tiny sizes (traced and untraced),
checks that corrupted output is counted as a failed op, and checks the
command line against BENCHMARK.json. Run from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def scratch_dir() -> Path:
    base = ROOT / run.WORKDIR
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=base))


class CorruptingTabulate(W.Tabulate):
    """Tabulate with one contour value altered in the captured output."""

    def execute(self, op, tracer=None):
        raw = super().execute(op, tracer)
        if op.kind == "contour_json":
            payload = json.loads(raw.text)
            payload["values"][3][5] *= 0.5  # stays inside [0, 2 ln 2]
            raw.text = json.dumps(payload, indent=2) + "\n"
        elif op.kind == "contour_csv":
            path = op.params["path"]
            lines = path.read_text().splitlines(keepends=True)
            row = next(k for k, line in enumerate(lines) if line.startswith("v,p,value")) + 40
            v, p, value = lines[row].rstrip("\n").split(",")
            lines[row] = f"{v},{p},{float(value) * 0.5!r}\n"
            path.write_text("".join(lines))
        return raw


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        self.dir = scratch_dir()

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _workload(self, name, cls=None):
        if cls is None:
            return run.build_workload(name, 7, W.TINY_SIZES, self.dir / name)
        return cls(7, W.TINY_SIZES, self.dir / name)

    def test_every_workload_tiny(self):
        self.assertEqual(list(run.WORKLOAD_NAMES), list(W.WORKLOADS))
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(W.WORKLOADS))
        for name in W.WORKLOADS:
            with self.subTest(workload=name):
                wl = self._workload(name)
                untraced, traced = run.run_loop(wl, 0, None, Tracer())
                self.assertEqual(len(untraced), len(wl.cycle))
                for rec in untraced + traced:
                    self.assertTrue(rec.ok, f"{name} op {rec.index}: {rec.error}")
                self.assertEqual(run.check_repeats(untraced + traced, self.dir / f"{name}.json"), [])
                e2e = run.end_to_end(untraced, [0.5], wl)
                self.assertEqual(set(e2e), {m["name"] for m in SPEC["end_to_end"]})
                self.assertTrue(all(v > 0 for v, _ in e2e.values()), e2e)
                layer = run.per_layer(traced, [{"import.mzduality_s": 0.5, "import.scipy_optimize_s": 0.4}])
                self.assertEqual(set(layer), {m["name"] for m in SPEC["per_layer"]})
                self.assertGreater(layer["cli.self_s"][0], 0.0)

    def test_corrupted_contour_is_a_failed_op(self):
        (records,) = run.run_loop(self._workload("tabulate", CorruptingTabulate), 0)
        self.assertEqual([r.kind for r in records], ["contour_csv", "contour_json", "mz"])
        self.assertEqual([r.ok for r in records], [False, False, True])
        self.assertIn("off the library grid", records[0].error)
        self.assertIn("not symmetric", records[1].error)

    def test_changed_count_is_reported_as_non_deterministic(self):
        wl = self._workload("batch_audit")
        store = self.dir / "repeat.json"
        (first,) = run.run_loop(wl, 0)
        self.assertEqual(run.check_repeats(first, store), [])
        first[0].counts["states"] += 1
        self.assertEqual(len(run.check_repeats(first, store)), 1)

    def test_tail_percentile(self):
        self.assertEqual(run.tail([float(x) for x in range(1, 31)]), (20.0, 100.0 * 20 / 30, 10))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))

    def test_command_prints_every_metric(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "batch_audit",
                 "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=180,
            )
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            for metric in SPEC[key]:
                self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])

    def test_fails_without_the_package(self):
        shutil.copy(ROOT / "BENCHMARK.json", self.dir)
        shutil.copytree(BENCH_DIR, self.dir / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*SPEC["command"], "--workload", "batch_audit",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=self.dir, timeout=180,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
