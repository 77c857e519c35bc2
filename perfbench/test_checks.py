"""Tests of the benchmark's own output checks: each check accepts the
right facts and rejects a wrong one.

    python3 perfbench/test_checks.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402

PAPER = {
    "fig5.sia": {"ser-critical-cycle", "si-critical-cycle",
                 "psi-critical-cycle", "robust-si-ser"},
    "fig6.sia": {"robust-si-ser"},
    "fig11.sia": {"ser-critical-cycle", "robust-psi-si"},
    "fig12.sia": {"ser-critical-cycle", "si-critical-cycle"},
}


class LintChecks(unittest.TestCase):
    def test_paper_verdicts_hold(self):
        self.assertEqual(checks.check_fig_verdicts(PAPER), [])

    def test_flipped_fig_verdict_is_rejected(self):
        for name, rule in (("fig6.sia", "si-critical-cycle"),
                           ("fig11.sia", "si-critical-cycle"),
                           ("fig12.sia", "psi-critical-cycle")):
            flipped = {k: set(v) for k, v in PAPER.items()}
            flipped[name].add(rule)
            self.assertTrue(checks.check_fig_verdicts(flipped), name)
        dropped = {k: set(v) for k, v in PAPER.items()}
        dropped["fig5.sia"].discard("psi-critical-cycle")
        self.assertTrue(checks.check_fig_verdicts(dropped))

    def test_implications(self):
        self.assertEqual(checks.check_implications(PAPER), [])
        self.assertTrue(checks.check_implications(
            {"a.sia": {"psi-critical-cycle", "ser-critical-cycle"}}))
        self.assertTrue(checks.check_implications(
            {"a.sia": {"si-critical-cycle"}}))

    def test_witness_counts(self):
        good = {"banking.sia": {("ser-critical-cycle", "witnessed"),
                                ("si-critical-cycle", "witnessed"),
                                ("psi-critical-cycle", "witnessed"),
                                ("robust-si-ser", None)},
                "banking_safe.sia": {("robust-si-ser", None)}}
        self.assertEqual(checks.check_witness_counts(good), [])
        bad = dict(good, **{"banking_safe.sia": {
            ("si-critical-cycle", "witnessed")}})
        self.assertTrue(checks.check_witness_counts(bad))
        bad = dict(good, **{"banking.sia": {
            ("si-critical-cycle", "witnessed"),
            ("ser-critical-cycle", "refuted-under-bound")}})
        self.assertTrue(checks.check_witness_counts(bad))

    def test_replay(self):
        self.assertEqual(checks.check_replay(
            "d", "witnessed", 0, "anomaly REPRODUCED"), [])
        self.assertTrue(checks.check_replay(
            "d", "witnessed", 1, "anomaly NOT reproduced"))
        self.assertEqual(checks.check_replay(
            "d", "no-critical-cycle", 0, "nothing to replay"), [])

    def test_sarif(self):
        doc = {"version": "2.1.0", "runs": [{"results": [
            {"ruleId": "si-critical-cycle", "locations": [
                {"physicalLocation": {"artifactLocation": {"uri": "x.sia"}}}]}
        ]}]}
        self.assertEqual(checks.check_sarif(json.dumps(doc)), [])
        self.assertEqual(checks.sarif_findings(json.dumps(doc)),
                         {"x.sia": {"si-critical-cycle"}})
        doc["version"] = "2.0.0"
        self.assertTrue(checks.check_sarif(json.dumps(doc)))
        with self.assertRaises(ValueError):
            checks.sarif_findings("{\"runs\": [{}]}")


class HistoryChecks(unittest.TestCase):
    def test_expected_verdicts_follow_construction(self):
        for engine in ("ser", "si"):
            for plant, want in checks.PLANT_VERDICTS.items():
                entry = {"file": "h", "engine": engine, "plant": plant}
                self.assertEqual(checks.check_history(entry, want), [])

    def test_flipped_verdict_is_rejected(self):
        for engine in ("ser", "si"):
            for plant, want in checks.PLANT_VERDICTS.items():
                entry = {"file": "h", "engine": engine, "plant": plant}
                for i in range(3):
                    flipped = list(want)
                    flipped[i] = not flipped[i]
                    self.assertTrue(checks.check_history(entry, flipped),
                                    (engine, plant, i))

    def test_serial_si_run_must_be_serializable(self):
        entry = {"file": "h", "engine": "si", "plant": "none"}
        self.assertEqual(checks.check_history(entry, (True, True, True)), [])
        self.assertTrue(checks.check_history(entry, (False, True, True)))

    def test_unknown_where_the_engine_does_not_decide(self):
        # A PSI run may read a stale replica; only PSI is decided.
        entry = {"file": "h", "engine": "psi", "plant": "none"}
        self.assertEqual(checks.check_history(entry, (False, False, True)),
                         [])
        self.assertEqual(checks.check_history(entry, (True, True, True)), [])
        self.assertTrue(checks.check_history(entry, (False, False, False)))

    def test_model_order(self):
        entry = {"file": "h", "engine": "psi", "plant": "none"}
        self.assertTrue(checks.check_history(entry, (True, False, True)))

    def test_tool_errors(self):
        out = json.dumps({"models": [
            {"model": "SER", "allowed": False},
            {"model": "SI", "allowed": True},
            {"model": "PSI", "allowed": True}]})
        self.assertEqual(checks.history_verdicts(0, out), (False, True, True))
        with self.assertRaises(ValueError):
            checks.history_verdicts(2, out)
        with self.assertRaises(ValueError):
            checks.history_verdicts(1, out)  # exit code says not in SI
        with self.assertRaises(ValueError):
            checks.history_verdicts(0, "{\"error\": \"parse\"}")


class SiadChecks(unittest.TestCase):
    PLANTED = {"expect_id": 1002, "violating": 1002, "verdict": 1,
               "count": 1002, "expect": 1002}

    def test_planted_violation(self):
        self.assertEqual(checks.check_planted(self.PLANTED), [])

    def test_violating_id_off_by_one_is_rejected(self):
        for off in (-1, 1):
            p = dict(self.PLANTED, violating=self.PLANTED["expect_id"] + off)
            self.assertTrue(checks.check_planted(p), off)
        self.assertTrue(checks.check_planted(dict(self.PLANTED, verdict=0)))

    def test_streams(self):
        self.assertEqual(checks.check_streams([[1, 0, 500, 500]]), [])
        self.assertTrue(checks.check_streams([[1, 1, 500, 500]]))
        self.assertTrue(checks.check_streams([[1, 0, 499, 500]]))

    def test_acks(self):
        self.assertEqual(checks.check_acks(10, 10, 10), [])
        self.assertTrue(checks.check_acks(10, 9, 10))
        self.assertTrue(checks.check_acks(10, 10, 11))

    def test_dropped_wal_record_is_rejected(self):
        audit = {"frames": 120, "torn": False, "gap": False}
        self.assertEqual(checks.check_wal(audit, 120), [])
        self.assertTrue(checks.check_wal(dict(audit, frames=119), 120))
        self.assertTrue(checks.check_wal(dict(audit, gap=True), 120))

    def test_standby(self):
        primary = [[1, 0, 40, 40], [2, 0, 17, 17]]
        self.assertEqual(checks.check_standby(primary, [[1, 0, 40], [2, 0, 17]]),
                         [])
        self.assertTrue(checks.check_standby(primary, [[1, 0, 40]]))
        self.assertTrue(checks.check_standby(primary, [[1, 0, 40], [2, 1, 17]]))
        self.assertTrue(checks.check_standby(primary, [[1, 0, 40], [2, 0, 16]]))


if __name__ == "__main__":
    unittest.main()
