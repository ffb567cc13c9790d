#!/usr/bin/env python3
"""tools/check_trace.py against hand-made Chrome traces.

Garbage input and partially overlapping spans on one track must be
rejected (exit 1); the same spans properly nested must be accepted
(exit 0).  Run directly or through ctest (`ctest -R check_trace`).
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "tools", "check_trace.py")


def span(name, ts, dur):
    return {"ph": "X", "pid": 1, "tid": 1, "ts": ts, "dur": dur,
            "cat": "t", "name": name}


class CheckTraceTest(unittest.TestCase):
    def run_checker(self, text):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as fh:
            fh.write(text)
        try:
            return subprocess.run([sys.executable, CHECKER, fh.name],
                                  capture_output=True, text=True).returncode
        finally:
            os.remove(fh.name)

    def test_garbage_is_rejected(self):
        self.assertEqual(self.run_checker("not json"), 1)
        self.assertEqual(self.run_checker('{"traceEvents":42}'), 1)

    def test_overlapping_spans_are_rejected(self):
        doc = {"traceEvents": [span("a", 0, 10), span("b", 5, 10)]}
        self.assertEqual(self.run_checker(json.dumps(doc)), 1)

    def test_nested_spans_are_accepted(self):
        doc = {"traceEvents": [span("a", 0, 10), span("b", 2, 5)]}
        self.assertEqual(self.run_checker(json.dumps(doc)), 0)


if __name__ == "__main__":
    unittest.main()
