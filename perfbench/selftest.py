"""Self-tests of the benchmark harness (stdlib unittest, numpy only).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import harmcert  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _member_calls(count: int) -> list[wl.Call]:
    params = harmcert.ClassParams(lam=1.0)
    rng = np.random.default_rng(0)
    calls = []
    for _ in range(count):
        f = harmcert.random_member(5, params, rng, fill=0.5)
        calls.append(wl.Call("harmonic_membership", 5, "harmonic_membership",
                             (f, params), ctx={"allowed": {oracle.MEMBER}}))
    return calls


class FailureAccounting(unittest.TestCase):
    def test_planted_wrong_verdict_is_counted(self):
        w = wl.Workload("planted", _member_calls(3))
        real = harmcert.harmonic_membership
        seen = []

        def planted(f, params, *a, **k):
            rep = real(f, params, *a, **k)
            seen.append(rep)
            if len(seen) == 2:
                return dataclasses.replace(
                    rep, verdict=harmcert.Verdict.NON_MEMBER)
            return rep

        harmcert.harmonic_membership = planted
        try:
            tally = run.Runner(w, subprocess_cli=False).passes(0.0)
        finally:
            harmcert.harmonic_membership = real
        self.assertEqual((tally.attempted, tally.failed, tally.correct),
                         (3, 1, False))
        self.assertEqual(tally.kinds, {"harmonic_membership: verdict": 1})
        e2e = run.end_to_end(tally, 0.1, subprocess_cli=False)
        self.assertAlmostEqual(e2e["failed_frac"], 1 / 3)

    def test_known_defect_still_counts_as_failure(self):
        tally = run.Tally(_member_calls(1), wl.KNOWN_DEFECTS)
        tally.add(0, 1e-3, "near-tie verdict", None, None)
        self.assertEqual((tally.attempted, tally.failed, tally.correct),
                         (1, 1, True))

    def test_exception_is_a_failure(self):
        call = _member_calls(1)[0]
        call.args = (call.args[0], None)
        tally = run.Runner(wl.Workload("raise", [call]),
                           subprocess_cli=False).passes(0.0)
        [kind] = tally.kinds
        self.assertTrue(kind.startswith("harmonic_membership: exception"))

    def test_fastest_timing_per_call(self):
        tally = run.Tally(_member_calls(2), wl.KNOWN_DEFECTS)
        for dt in (3.0, 1.0, 2.0):
            tally.add(0, dt, None, None, None)
        tally.add(1, 5.0, None, None, None)
        self.assertEqual(tally.best, [1.0, 5.0])
        self.assertEqual((tally.executed, tally.attempted), (4, 2))

    def test_failures_count_distinct_calls(self):
        tally = run.Tally(_member_calls(2), wl.KNOWN_DEFECTS)
        for _ in range(3):
            tally.add(0, 1e-3, "near-tie verdict", None, None)
            tally.add(1, 1e-3, None, None, None)
        self.assertEqual((tally.attempted, tally.failed, tally.correct),
                         (2, 1, True))

    def test_changed_outcome_is_a_failure(self):
        tally = run.Tally(_member_calls(1), wl.KNOWN_DEFECTS)
        tally.add(0, 1e-3, None, None, None)
        tally.add(0, 1e-3, "verdict", None, None)
        self.assertEqual((tally.attempted, tally.failed, tally.correct),
                         (1, 1, False))
        [kind] = tally.kinds
        self.assertIn("outcome changed between passes", kind)


class Spans(unittest.TestCase):
    def _check_nesting(self, tracer):
        fid, parent, dur = tracer.span_arrays()
        start = np.frombuffer(tracer.start, dtype=np.float64)
        end = np.frombuffer(tracer.end, dtype=np.float64)
        child = np.nonzero(parent >= 0)[0]
        self.assertTrue(np.all(start[parent[child]] <= start[child]))
        self.assertTrue(np.all(end[child] <= end[parent[child]]))
        self.assertTrue(np.all(dur >= 0.0))
        self_s = tracer.summary()
        for name in tracer.names:
            self.assertGreaterEqual(self_s[f"{name}.self_s"], 0.0, name)

    def test_synthetic_tree(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("t.inner", lambda: time.sleep(0.01))

        def body():
            inner()
            inner()
            time.sleep(0.005)

        outer = tracer.wrap("t.outer", body)
        outer()  # outside a root span: not recorded
        tracer.root("call", outer)
        s = tracer.summary()
        self.assertEqual((s["t.outer.calls"], s["t.inner.calls"]), (1, 2))
        self.assertGreater(s["t.inner.self_s"], 0.018)
        self.assertLess(s["t.outer.self_s"], s["t.inner.self_s"])
        self._check_nesting(tracer)

    def test_harmcert_spans_nest_and_uninstall_restores(self):
        original = harmcert.membership.eval_series
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(harmcert.membership.eval_series, original)
            self.assertIs(harmcert.geometry.paired_boundary_sup,
                          harmcert.membership.paired_boundary_sup)
            call = _member_calls(1)[0]
            tracer.root("call", wl.invoke, call)
        finally:
            tracer.uninstall()
        self.assertIs(harmcert.membership.eval_series, original)
        s = tracer.summary()
        self.assertEqual(s["membership.harmonic_membership.calls"], 1)
        self.assertEqual(s["membership.paired_boundary_sup.calls"], 1)
        self.assertGreater(s["numpy.polyval.calls"], 0)
        self.assertGreater(s["series.eval_series.calls"], 0)
        self._check_nesting(tracer)

    def test_missing_target_reports_zero_calls(self):
        tracer = tracing.Tracer()
        tracer.install(tracing.TARGETS + (
            ("series", "harmcert.series", "no_longer_there"),
            ("gone", "harmcert.gone_module", "f")))
        try:
            tracer.root("call", wl.invoke, _member_calls(1)[0])
        finally:
            tracer.uninstall()
        s = tracer.summary()
        self.assertEqual(s["series.no_longer_there.calls"], 0)
        self.assertEqual(s["gone.f.calls"], 0)
        self.assertEqual(s["numpy.roots.degree_sum"], 0)


class Inputs(unittest.TestCase):
    @staticmethod
    def _fingerprint(w):
        return [(c.op, c.degree, tuple(c.ctx["f"].h.coeffs) if "f" in c.ctx
                 else None) for c in w.calls]

    def test_same_seed_same_inputs(self):
        a = wl.build("scan-ties", 7)
        b = wl.build("scan-ties", 7)
        c = wl.build("scan-ties", 8)
        self.assertEqual(self._fingerprint(a), self._fingerprint(b))
        self.assertNotEqual(self._fingerprint(a), self._fingerprint(c))
        self.assertEqual(sorted((x.op, x.degree) for x in a.calls),
                         sorted((x.op, x.degree) for x in c.calls))


class Oracle(unittest.TestCase):
    def test_enclosure_contains_the_maximum(self):
        # |z^2 + z^5| peaks at 2, at z = 1.
        lo, hi = oracle.boundary_enclosure([0, 0, 1, 0, 0, 1], rel_width=1e-3)
        self.assertLessEqual(lo, 2.0)
        self.assertGreaterEqual(hi, 2.0)
        self.assertLess(hi - lo, 5e-3)

    def test_allowed_verdicts(self):
        self.assertEqual(oracle.allowed_verdicts(0.5, 0.6, 1.0),
                         {oracle.MEMBER})
        self.assertEqual(oracle.allowed_verdicts(1.0, 1.0, 1.0),
                         {oracle.BOUNDARY_SHARP})
        self.assertEqual(oracle.allowed_verdicts(1.1, 1.2, 1.0),
                         {oracle.NON_MEMBER})


if __name__ == "__main__":
    unittest.main()
