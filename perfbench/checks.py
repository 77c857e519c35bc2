"""Output checks of the perfbench workloads.

Each check compares what the program printed with a fact that follows from
how the benchmark made its inputs, not from the code under test, and
returns a list of error strings (empty when the fact holds). Parsers raise
ValueError on output they cannot read. test_checks.py feeds every check a
wrong expectation and asserts that it is rejected.
"""

import json

CRITICAL = ("ser-critical-cycle", "si-critical-cycle", "psi-critical-cycle")

# Chopping verdicts of the paper's suites (Figs. 5, 6, 11, 12): the set of
# criteria under which the chopping is incorrect, i.e. has a critical cycle.
FIG_INCORRECT = {
    "fig5.sia": {"ser-critical-cycle", "si-critical-cycle",
                 "psi-critical-cycle"},
    "fig6.sia": set(),
    "fig11.sia": {"ser-critical-cycle"},
    "fig12.sia": {"ser-critical-cycle", "si-critical-cycle"},
}

# Witnessed critical-cycle findings per example file.
WITNESSED = {"banking.sia": 3, "banking_safe.sia": 0}

# Verdicts (allowed under SER, SI, PSI) of a history by its planted anomaly
# (Fig. 2 of the paper), on objects and sessions of its own.
PLANT_VERDICTS = {
    "none": (True, True, True),
    "lost-update": (False, False, False),
    "long-fork": (False, False, True),
    "write-skew": (False, True, True),
}

# Models under which an engine's run is always allowed. The histories come
# from runs with concurrent=false, which run each transaction whole (begin,
# body, commit) before the next one starts. An S2PL run and such an SI run
# are therefore serial, hence allowed under all three. The PSI engine keeps
# two replicas that it pumps only partly between transactions, so a session
# may read a stale replica: its run is allowed under PSI only.
ENGINE_GUARANTEES = {
    "ser": (True, True, True),
    "si": (True, True, True),
    "psi": (False, False, True),
}

# MonitorVerdict values on the wire.
CONSISTENT, VIOLATION = 0, 1


# ----- lint ------------------------------------------------------------------

def sarif_findings(text):
    """{file uri: set of rule ids} of a SARIF report."""
    try:
        doc = json.loads(text)
        out = {}
        for run in doc["runs"]:
            for r in run["results"]:
                uri = r["locations"][0]["physicalLocation"][
                    "artifactLocation"]["uri"]
                out.setdefault(uri, set()).add(r["ruleId"])
        return out
    except (KeyError, IndexError, TypeError, json.JSONDecodeError) as e:
        raise ValueError("bad SARIF: %r" % e) from e


def json_findings(text):
    """{file: set of (check id, witness status or None)} of a JSON report;
    every linted file appears, with an empty set when it is clean."""
    try:
        doc = json.loads(text)
        out = {}
        for f in doc["files"]:
            s = out.setdefault(f["file"], set())
            if f.get("parse_failed"):
                s.add(("parse-error", None))
            for d in f["diagnostics"]:
                s.add((d["check"], (d.get("witness") or {}).get("status")))
        return out
    except (KeyError, TypeError, json.JSONDecodeError) as e:
        raise ValueError("bad lint JSON: %r" % e) from e


def lint_failures(rcs, corpus, witness, n_corpus, n_witness):
    """Files that failed to parse, or every file of an invocation that
    crashed (an exit code other than 0, 1 or 2)."""
    failed = 0
    for rc, findings, n in ((rcs[0], corpus, n_corpus),
                            (rcs[1], witness, n_witness)):
        if rc not in (0, 1, 2):
            failed += n
            continue
        for rules in findings.values():
            ids = {r if isinstance(r, str) else r[0] for r in rules}
            failed += "parse-error" in ids
    return failed


def check_sarif(text):
    doc = json.loads(text)
    if doc.get("version") != "2.1.0" or not isinstance(doc.get("runs"), list):
        return ["SARIF report is not version 2.1.0"]
    return []


def check_fig_verdicts(findings):
    """findings: {basename: set of rule ids} (clean files may be absent)."""
    errors = []
    for name, incorrect in FIG_INCORRECT.items():
        got = findings.get(name, set()) & set(CRITICAL)
        if got != incorrect:
            errors.append("%s: critical cycles under %s, paper says %s"
                          % (name, sorted(got), sorted(incorrect)))
    return errors


def check_implications(findings):
    """A PSI-critical cycle is SI-critical, and an SI-critical one is
    SER-critical (the criteria weaken in that order)."""
    errors = []
    for name, rules in sorted(findings.items()):
        ser, si, psi = (c in rules for c in CRITICAL)
        if psi and not si:
            errors.append("%s: PSI-critical finding without SI-critical" % name)
        if si and not ser:
            errors.append("%s: SI-critical finding without SER-critical" % name)
    return errors


def check_witness_counts(findings):
    """findings: {basename: set of (check, witness status)}."""
    errors = []
    for name, want in WITNESSED.items():
        if name not in findings:
            errors.append("%s was not linted" % name)
            continue
        got = sum(1 for _, status in findings[name] if status == "witnessed")
        if got != want:
            errors.append("%s: %d witnessed findings, expected %d"
                          % (name, got, want))
    return errors


def check_replay(doc, status, rc, out):
    """sia_analyze --replay of one witness document: a witnessed anomaly
    must be reproduced from the events alone (exit 0, REPRODUCED)."""
    if status == "witnessed":
        if rc != 0 or "REPRODUCED" not in out:
            return ["witness %s did not reproduce (exit %d)" % (doc, rc)]
    elif rc != 0:
        return ["witness %s (%s) failed to replay (exit %d)"
                % (doc, status, rc)]
    return []


# ----- history-decide --------------------------------------------------------

def history_verdicts(rc, out):
    """(allowed under SER, SI, PSI) from sia_analyze --history --format
    json; ValueError on a tool error or an exit code that contradicts the
    SI verdict."""
    if rc not in (0, 1):
        raise ValueError("sia_analyze exited %d" % rc)
    try:
        doc = json.loads(out)
        by = {m["model"]: bool(m["allowed"]) for m in doc["models"]}
        v = (by["SER"], by["SI"], by["PSI"])
    except (KeyError, TypeError, json.JSONDecodeError) as e:
        raise ValueError("bad analysis JSON: %r" % e) from e
    if (rc == 0) != v[1]:
        raise ValueError("exit code %d contradicts the SI verdict" % rc)
    return v


def expected_verdicts(entry):
    """(SER, SI, PSI) a history must get, None where its making does not
    decide it: the union of an engine run and an anomaly on disjoint
    objects and sessions is allowed iff both parts are."""
    out = []
    for plant_ok, engine_ok in zip(PLANT_VERDICTS[entry["plant"]],
                                   ENGINE_GUARANTEES[entry["engine"]]):
        out.append(False if not plant_ok else (True if engine_ok else None))
    return tuple(out)


def check_history(entry, verdicts):
    """entry: a manifest row {"file", "engine", "plant"}; verdicts:
    (SER, SI, PSI) as decided."""
    errors = []
    want = expected_verdicts(entry)
    if any(w is not None and w != v for w, v in zip(want, verdicts)):
        errors.append("%s (%s run, %s): allowed under SER/SI/PSI = %s, "
                      "expected %s" % (entry["file"], entry["engine"],
                                       entry["plant"], tuple(verdicts), want))
    ser, si, psi = verdicts
    if (ser and not si) or (si and not psi):
        errors.append("%s: SER => SI => PSI does not hold: %s"
                      % (entry["file"], tuple(verdicts)))
    return errors


# ----- siad ------------------------------------------------------------------

def check_acks(sent, acked, server_commits):
    if not sent == acked == server_commits:
        return ["commits sent %d, acked %d, counted by the server %d"
                % (sent, acked, server_commits)]
    return []


def check_streams(closed):
    """closed: [stream, verdict, count, commits sent] per stream; every
    StreamSource stream is SI-consistent by construction."""
    errors = []
    for stream, verdict, count, expect in closed:
        if verdict != CONSISTENT or count != expect:
            errors.append("stream %d closed with verdict %d after %d commits "
                          "(sent %d, consistent expected)"
                          % (stream, verdict, count, expect))
    return errors


def check_planted(p):
    """p: the planted stream's close: the lost update must be reported at
    the id the benchmark gave its second transaction."""
    if p["verdict"] != VIOLATION or p["violating"] != p["expect_id"]:
        return ["planted lost update: verdict %d at commit %d, expected a "
                "violation at commit %d" % (p["verdict"], p["violating"],
                                            p["expect_id"])]
    if p["count"] != p["expect"]:
        return ["planted stream closed after %d commits, sent %d"
                % (p["count"], p["expect"])]
    return []


def check_wal(audit, frames_sent):
    """audit: wal-audit of the primary; every accepted OPEN_STREAM, COMMIT
    and CLOSE frame must be on disk, once, in order."""
    errors = []
    if audit["frames"] != frames_sent:
        errors.append("WAL replays %d records, client sent %d state-mutating "
                      "frames" % (audit["frames"], frames_sent))
    if audit["torn"] or audit["gap"]:
        errors.append("WAL has a torn tail or a sequence gap")
    return errors


def check_standby(primary_closed, standby_closed):
    """The standby's per-stream verdicts and commit counts (replayed from
    its own WAL) equal what the primary answered at each CLOSE."""
    want = {s: (v, c) for s, v, c, _ in primary_closed}
    got = {s: (v, c) for s, v, c in standby_closed}
    if want != got:
        diff = sorted(set(want.items()) ^ set(got.items()))[:3]
        return ["standby disagrees with the primary on %d streams, e.g. %s"
                % (len(set(want) ^ set(got))
                   + sum(want[s] != got[s] for s in set(want) & set(got)),
                   diff)]
    return []
