"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that a tampered pinned digest fails a run, and that busy time and
self time of nested and overlapping spans are computed correctly.
"""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
import unittest
from pathlib import Path

import run
from tracing import Tracer, busy_time, self_times, union_length

CYCLES_SEED0 = "cycles --d 4 --j 4 --n-list 100,200 --samples 200 --seed 0"


def tampered(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


class DigestGate(unittest.TestCase):
    def setUp(self):
        with open(run.MANIFEST, encoding="utf-8") as fh:
            self.manifest = json.load(fh)
        self.report = self.manifest["workloads"]["cycles-sampler"]["reports"][0]

    def child(self, code=0, out=b""):
        return {"code": code, "out": out, "wall": 0.0, "cpu": 0.0, "rss_mb": 0.0}

    def test_check_report_rejects_pinned_mismatch_and_bad_exit(self):
        argv = CYCLES_SEED0.split()
        with self.assertRaises(run.CheckFailed):
            run.check_report(self.manifest, self.report, argv, self.child(out=b"x\n"))
        with self.assertRaises(run.CheckFailed):
            run.check_report(self.manifest, self.report, argv, self.child(code=2))

    def test_tampered_digest_fails_the_run(self):
        key = CYCLES_SEED0
        self.manifest["pinned_sha256"][key] = tampered(self.manifest["pinned_sha256"][key])
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            path = Path(tmp) / "manifest.json"
            path.write_text(json.dumps(self.manifest), encoding="utf-8")
            saved, run.MANIFEST = run.MANIFEST, path
            stdout = io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = run.main(
                        ["--workload", "cycles-sampler", "--seed", "0", "--seconds", "0"]
                    )
            finally:
                run.MANIFEST = saved
        result = json.loads(stdout.getvalue().splitlines()[-1])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"], {})


class SpanTimes(unittest.TestCase):
    def test_union_length(self):
        self.assertEqual(union_length([]), 0.0)
        self.assertEqual(union_length([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertEqual(union_length([(0, 10), (2, 3)]), 10.0)

    def test_self_time_of_nested_and_overlapping_spans(self):
        spans = [
            [0, None, "cli.main", 0.0, 10.0, {}],
            [1, 0, "cell", 1.0, 4.0, {}],
            [2, 0, "cell", 3.0, 6.0, {}],  # overlaps span 1, as pool threads do
            [3, 1, "leaf", 2.0, 3.0, {}],
            [4, 2, "leaf", 5.0, 7.0, {}],  # runs past its parent's end
        ]
        selfs = self_times(spans)
        self.assertEqual(selfs[0], 10.0 - 5.0)
        self.assertEqual(selfs[1], 3.0 - 1.0)
        self.assertEqual(selfs[2], 3.0 - 1.0)
        self.assertEqual(selfs[3], 1.0)
        self.assertEqual(selfs[4], 2.0)
        self.assertEqual(busy_time(spans, "cell"), 5.0)
        self.assertEqual(busy_time(spans, "leaf"), 3.0)

    def test_tracer_records_parents_and_wrapped_calls(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))

        class Owner:
            @staticmethod
            def work(n):
                inner = tracer.open("inner")
                tracer.close(inner)
                return n * 2

        tracer.wrap(Owner, "work", "outer", after=lambda attrs, result, args: attrs.update(out=result))
        self.assertEqual(Owner.work(21), 42)
        outer, inner = tracer.spans
        self.assertEqual((outer[1], inner[1]), (None, outer[0]))
        self.assertEqual(outer[5], {"out": 42})
        self.assertEqual(self_times(tracer.spans), {0: 2.0, 1: 1.0})


if __name__ == "__main__":
    unittest.main()
