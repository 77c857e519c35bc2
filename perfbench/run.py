#!/usr/bin/env python3
"""perfbench: the sia benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the program
and the helper (perfbench/CMakeLists.txt, Release) under .bench_build/ (or
$CARGO_TARGET_DIR); the build is not timed and not part of setup_s. Each
run then makes its inputs from the seed, measures for S seconds, checks the
program's outputs against facts that follow from how the inputs were made,
and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with tracing off;
--trace 1 repeats the workload and adds the traced in-process pass over the
same inputs, and reports the per-layer metrics. See README.md.
"""

import argparse
import json
import os
import random
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks  # noqa: E402

ROOT = os.path.dirname(HERE)
NPROC = 4  # load and pool threads; the reference host has 4 cores
SIAD_THREADS = 2  # siad shard threads (SIA_THREADS), so client + server fit
BLOCK = 1024  # commits per siad unit of work (work_s)

WORKLOADS = ["lint-corpus", "history-decide", "siad-monitor", "siad-durable"]


class BenchError(Exception):
    pass


# ----- build -----------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once and builds the four binaries; returns (bins, CPU
    seconds the build check took)."""
    cpu = children_cpu_s()
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", str(NPROC), "--target",
                      "sia_bench", "siad", "sia_lint", "sia_analyze"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    bins = {
        "bench": os.path.join(bdir, "sia_bench"),
        "siad": os.path.join(bdir, "sia", "service", "siad"),
        "lint": os.path.join(bdir, "sia", "tools", "sia_lint"),
        "analyze": os.path.join(bdir, "sia", "tools", "sia_analyze"),
    }
    return bins, children_cpu_s() - cpu


# ----- processes ---------------------------------------------------------------

class Procs:
    """Every process a run starts; stop_all() ends and reaps them all."""

    def __init__(self):
        self.procs = []

    def start(self, cmd, env_threads, **kw):
        env = dict(os.environ, SIA_THREADS=str(env_threads))
        p = subprocess.Popen(cmd, env=env, **kw)
        self.procs.append(p)
        return p

    def stop(self, p, timeout=30):
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
            try:
                p.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        out = p.stdout.read() if p.stdout else ""
        for f in (p.stdin, p.stdout):
            if f:
                f.close()
        return out

    def stop_all(self):
        for p in reversed(self.procs):
            try:
                self.stop(p, timeout=10)
            except Exception:  # noqa: BLE001 -- reap the rest regardless
                p.kill()
                p.wait()
        self.procs = []


def read_line(p, timeout):
    """Next stdout line of p (text mode), or BenchError after timeout."""
    end = time.monotonic() + timeout
    while True:
        left = end - time.monotonic()
        if left <= 0:
            raise BenchError("timed out waiting for %s" % p.args[0])
        r, _, _ = select.select([p.stdout], [], [], left)
        if r:
            line = p.stdout.readline()
            if not line:
                raise BenchError("%s exited early" % p.args[0])
            return line.rstrip("\n")


def run_timed(cmd, threads, scratch):
    """Runs cmd to completion with its output in files under scratch;
    returns (exit code, stdout, stderr, CPU s, peak RSS MiB). The CPU
    time is user + system time of the process and its threads."""
    env = dict(os.environ, SIA_THREADS=str(threads))
    with tempfile.TemporaryFile(dir=scratch) as fo, \
            tempfile.TemporaryFile(dir=scratch) as fe:
        p = subprocess.Popen(cmd, env=env, stdout=fo, stderr=fe)
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        return (p.returncode, fo.read().decode(), fe.read().decode(),
                ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def children_cpu_s():
    """User + system seconds of every child this process has reaped."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def live_cpu_s(pid):
    """CPU seconds of the live threads of process pid, to the nanosecond
    (/proc/<pid>/task/*/schedstat)."""
    total = 0
    tasks = "/proc/%d/task" % pid
    for tid in os.listdir(tasks):
        try:
            with open(os.path.join(tasks, tid, "schedstat")) as f:
                total += int(f.read().split()[0])
        except FileNotFoundError:  # the thread ended meanwhile
            pass
    return total / 1e9


def setup_cpu_s(build_cpu, live=()):
    """CPU seconds spent since this process started by it, its reaped
    children and the live processes in live, less the build check's."""
    return (time.process_time() + children_cpu_s() - build_cpu
            + sum(live_cpu_s(p.pid) for p in live))


def host_ticks():
    """{steal, total} clock ticks of the host's CPUs so far (/proc/stat)."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    return v[7], sum(v)


def report_wall(t0, walls):
    """Prints on stderr the median wall time of the rounds and the share of
    the host's CPU time that the hypervisor stole since host_ticks() gave
    t0, for reading a run beside its CPU-time metrics."""
    t1 = host_ticks()
    print("perfbench: median round %.3f s wall; host steal %.1f%% of CPU "
          "time while measuring"
          % (statistics.median(walls),
             100.0 * (t1[0] - t0[0]) / max(1, t1[1] - t0[1])),
          file=sys.stderr)


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError("no JSON result in output")


# ----- lint-corpus ---------------------------------------------------------------

# The heavy tier: random suites from the bench_lint_scaling generator at
# fixed generator seeds, (programs, generator seed). Linting one of these
# takes 0.05-9 s and a relabelled copy of the same suite moves by up to 20%
# (the cycle search and the concretiser follow input order), so a seeded
# heavy tier would let the seed, not the code, set work_s. These were picked
# to cover the two costly layers: concretiser-bound PSI robustness (6
# programs) and critical-cycle searches that run into the cycle budget (12
# and 16 programs), plus cheap suites of the same sizes.
HEAVY_TIER = [(6, 3), (6, 14), (6, 16), (12, 3), (16, 5),
              (6, 2), (12, 4), (14, 3), (16, 2)]
SEEDED_SUITES = 8  # seeded 2-program suites, 3-580 ms each
_M = (1 << 64) - 1
_A = 6364136223846793005
_C = 1442695040888963407


def suite_text(programs, pieces, objects, seed):
    """bench_lint_scaling's make_suite_text, bit for bit."""
    state = (seed * _A + _C) & _M
    out = []
    for i in range(programs):
        out.append("program p%d {" % i)
        for _ in range(pieces):
            state = (state * _A + _C) & _M
            base = (state >> 33) % objects
            out.append("  piece reads o%d o%d writes o%d"
                       % (base, (base + 1) % objects, (base + 2) % objects))
        out.append("}")
    return "\n".join(out) + "\n"


def relabel(text, rng):
    """Renames programs and objects and reorders programs: same conflict
    structure, so the same chopping and robustness verdicts."""
    progs = re.findall(r"program (\S+) \{\n(.*?)\}\n", text, re.S)
    names = sorted(set(re.findall(r"\b(?:o\d+|[a-z]\w*)\b",
                                  " ".join(b for _, b in progs)))
                   - {"piece", "reads", "writes"})
    fresh = ["v%d_%s" % (i, n) for i, n in enumerate(names)]
    rng.shuffle(fresh)
    ren = dict(zip(names, fresh))
    order = list(range(len(progs)))
    rng.shuffle(order)
    out = []
    for k, i in enumerate(order):
        body = re.sub(r"\b\w+\b", lambda m: ren.get(m.group(0), m.group(0)),
                      progs[i][1])
        out.append("program q%d_%s {\n%s}\n" % (k, progs[i][0], body))
    return "".join(out)


def make_corpus(bins, seed, d):
    rng = random.Random(seed)
    files = []
    for programs, gseed in HEAVY_TIER:
        path = os.path.join(d, "heavy_%d_%d.sia" % (programs, gseed))
        with open(path, "w") as f:
            f.write(suite_text(programs, 3, 4 * programs, gseed))
        files.append(path)
    for i in range(SEEDED_SUITES):
        path = os.path.join(d, "seeded_%d.sia" % i)
        with open(path, "w") as f:
            f.write(suite_text(2, 3, 8, rng.randrange(1, 1 << 30)))
        files.append(path)
    figs = os.path.join(d, "figs")
    os.makedirs(figs)
    rc, _, err, _, _ = run_timed([bins["bench"], "gen-figs", figs], 1, d)
    if rc != 0:
        raise BenchError("gen-figs failed: " + err)
    for name in sorted(os.listdir(figs)):
        with open(os.path.join(figs, name)) as f:
            text = f.read()
        path = os.path.join(d, name)
        with open(path, "w") as f:
            f.write(relabel(text, rng))
        files.append(path)
    examples = sorted(os.path.join(ROOT, "examples", n)
                      for n in os.listdir(os.path.join(ROOT, "examples"))
                      if n.endswith(".sia"))
    return files, examples


def lint_round(bins, files, examples, wdir, work):
    """One round: the corpus with the default checks (SARIF), then the
    examples with --witness (JSON). Returns outputs and timings."""
    t = time.monotonic()
    rc1, sarif, err1, cpu1, rss1 = run_timed(
        [bins["lint"], "--format", "sarif"] + files, NPROC, work)
    rc2, wjson, err2, cpu2, rss2 = run_timed(
        [bins["lint"], "--witness", "--witness-dir", wdir, "--format",
         "json"] + examples, NPROC, work)
    return {"rc": (rc1, rc2), "sarif": sarif, "wjson": wjson,
            "stderr": err1 + err2, "cpus": (cpu1, cpu2), "cpu": cpu1 + cpu2,
            "rss": max(rss1, rss2), "wall": time.monotonic() - t}


def run_lint(bins, build_cpu, seed, seconds, trace, work):
    files, examples = make_corpus(bins, seed, work)
    wdir = os.path.join(work, "witness")
    os.makedirs(wdir)
    setup_s = setup_cpu_s(build_cpu)
    rounds = []
    ticks = host_ticks()
    t = time.monotonic()
    # A traced run does one round, for the checks, then the traced pass.
    budget = 0 if trace else seconds
    while not rounds or time.monotonic() - t < budget - rounds[-1]["wall"] / 2:
        shutil.rmtree(wdir)
        os.makedirs(wdir)
        rounds.append(lint_round(bins, files, examples, wdir, work))
    report_wall(ticks, [r["wall"] for r in rounds])
    first = rounds[0]
    errors = []
    attempted = failed = 0
    findings = None
    for r in rounds:
        n_files = len(files) + len(examples)
        attempted += n_files
        try:
            f_corpus = checks.sarif_findings(r["sarif"])
            f_witness = checks.json_findings(r["wjson"])
        except ValueError as e:
            failed += n_files
            errors.append("unparseable lint output: %s" % e)
            continue
        failed += checks.lint_failures(r["rc"], f_corpus, f_witness,
                                        len(files), len(examples))
        if findings is None:
            findings = (f_corpus, f_witness)
        elif (f_corpus, f_witness) != findings:
            errors.append("findings differ between rounds")
    if findings is not None:
        f_corpus, f_witness = findings
        base = {os.path.basename(k): v for k, v in f_corpus.items()}
        errors += checks.check_sarif(first["sarif"])
        errors += checks.check_fig_verdicts(base)
        errors += checks.check_implications(f_corpus)
        errors += checks.check_implications(
            {k: {c for c, _ in v} for k, v in f_witness.items()})
        errors += checks.check_witness_counts(
            {os.path.basename(k): v for k, v in f_witness.items()})
        errors += replay_witnesses(bins, wdir, work)
    # CPU time, not wall time: see README.md, "Time".
    work_s = statistics.median(r["cpu"] for r in rounds)
    metrics = {
        "work_s": work_s,
        "ops_per_s": (len(files) + len(examples)) / work_s,
        "op_p50_ms": 1e3 * statistics.median(r["cpus"][0] for r in rounds),
        "op_p90_ms": 1e3 * percentile([r["cpus"][0] for r in rounds], 0.9),
        "peak_rss_mb": max(r["rss"] for r in rounds),
    }
    layers = {}
    if trace:
        layers = trace_lint(bins, files, examples, work)
    return setup_s, attempted, failed, errors, metrics, layers


def replay_witnesses(bins, wdir, work):
    """Every witnessed document must reproduce its anomaly offline; the
    others (no witness found under the budget) must replay to nothing."""
    errors = []
    docs = sorted(os.listdir(wdir))
    if not docs:
        errors.append("--witness emitted no witness documents")
    for doc in docs:
        path = os.path.join(wdir, doc)
        with open(path) as f:
            status = json.load(f).get("status")
        rc, out, _, _, _ = run_timed([bins["analyze"], "--replay", path], 1,
                                     work)
        errors += checks.check_replay(doc, status, rc, out)
    return errors


def trace_lint(bins, files, examples, work):
    spans = os.path.join(work, "spans.csv")
    cmd = [bins["bench"], "trace-lint", "--spans", spans]
    for e in examples:
        cmd += ["--witness", e]
    rc, out, err, _, _ = run_timed(cmd + files, NPROC, work)
    if rc != 0:
        raise BenchError("trace-lint failed: " + err)
    r = last_json(out)
    st = self_times(spans)
    keep_spans(spans, "lint-corpus")
    return {
        "lint.parse_s": st.get("lint.parse", 0.0),
        "lint.scg_s": st.get("lint.scg", 0.0),
        "lint.cycles_s.ser": st.get("lint.cycles.ser", 0.0),
        "lint.cycles_s.si": st.get("lint.cycles.si", 0.0),
        "lint.cycles_s.psi": st.get("lint.cycles.psi", 0.0),
        "lint.cycle_budget_hits": r["cycle_budget_hits"],
        "lint.robust_si_ser_s": st.get("lint.robust_si_ser", 0.0),
        "lint.robust_psi_si_s": st.get("lint.robust_psi_si", 0.0),
        "lint.structural_s": st.get("lint.structural", 0.0),
        "lint.witness_s": st.get("lint.witness", 0.0),
        "lint.witness_schedules": r["witness_schedules"],
        "lint.render_s": st.get("lint.render", 0.0),
        "lint.pool_efficiency": r["file_s"] / (r["pass_s"]
                                               * r["pool_threads"]),
        "lint.pool_threads": r["pool_threads"],
        "lint.pool_wall_s": r["pass_s"],
        "trace.overhead_pct": 100.0 * (r["overhead_ratio"] - 1),
        "trace.spans": r["spans"],
    }


# ----- history-decide ------------------------------------------------------------

def run_decide(bins, build_cpu, seed, seconds, trace, work):
    rc, _, err, _, _ = run_timed(
        [bins["bench"], "gen-hist", "--seed", str(seed), "--out", work], 1,
        work)
    if rc != 0:
        raise BenchError("gen-hist failed: " + err)
    with open(os.path.join(work, "manifest.json")) as f:
        manifest = json.load(f)
    setup_s = setup_cpu_s(build_cpu)
    rounds, walls, lat, rss = [], [], [], []
    attempted = failed = 0
    errors = []
    verdicts = {}
    ticks = host_ticks()
    t = time.monotonic()
    budget = 0 if trace else seconds
    while not rounds or time.monotonic() - t < budget - walls[-1] / 2:
        r0 = time.monotonic()
        cpu = 0.0
        for h in manifest:
            rc, out, _, dt, peak = run_timed(
                [bins["analyze"], "--history", "--format", "json",
                 os.path.join(work, h["file"])], NPROC, work)
            cpu += dt
            lat.append(dt)
            rss.append(peak)
            attempted += 1
            try:
                got = checks.history_verdicts(rc, out)
            except ValueError as e:
                failed += 1
                errors.append("%s: %s" % (h["file"], e))
                continue
            prev = verdicts.setdefault(h["file"], got)
            if prev != got:
                errors.append("%s: verdicts differ between rounds" % h["file"])
        rounds.append(cpu)
        walls.append(time.monotonic() - r0)
    report_wall(ticks, walls)
    for h in manifest:
        if h["file"] in verdicts:
            errors += checks.check_history(h, verdicts[h["file"]])
    # CPU time, not wall time: see README.md, "Time".
    metrics = {
        "work_s": statistics.median(rounds),
        "ops_per_s": len(manifest) / statistics.median(rounds),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * percentile(lat, 0.9),
        "peak_rss_mb": max(rss),
    }
    layers = {}
    if trace:
        layers = trace_decide(bins, manifest, work)
    return setup_s, attempted, failed, errors, metrics, layers


def trace_decide(bins, manifest, work):
    spans = os.path.join(work, "spans.csv")
    rc, out, err, _, _ = run_timed(
        [bins["bench"], "trace-decide", "--spans", spans]
        + [os.path.join(work, h["file"]) for h in manifest], NPROC, work)
    if rc != 0:
        raise BenchError("trace-decide failed: " + err)
    r = last_json(out)
    st = self_times(spans)
    keep_spans(spans, "history-decide")
    return {
        "decide.parse_s": st.get("decide.parse", 0.0),
        "decide.graphs.ser": r["graphs_ser"],
        "decide.graphs.si": r["graphs_si"],
        "decide.graphs.psi": r["graphs_psi"],
        "decide.enumerate_s": st.get("decide.enumerate", 0.0),
        "decide.model_s.ser": st.get("decide.model.ser", 0.0),
        "decide.model_s.si": st.get("decide.model.si", 0.0),
        "decide.model_s.psi": st.get("decide.model.psi", 0.0),
        "decide.check_us.ser": r["check_us_ser"],
        "decide.check_us.si": r["check_us_si"],
        "decide.check_us.psi": r["check_us_psi"],
        "trace.overhead_pct": 100.0 * (r["overhead_ratio"] - 1),
        "trace.spans": r["spans"],
    }


# ----- siad-monitor / siad-durable -------------------------------------------------

def start_siad(procs, bins, args):
    p = procs.start([bins["siad"], "--port", "0"] + args, SIAD_THREADS,
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True)
    while True:
        line = read_line(p, 30)
        m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if m:
            return p, int(m.group(1))


def drained_commits(out):
    m = re.search(r"drained \(\d+ connections, \d+ frames, (\d+) commits", out)
    if not m:
        raise BenchError("siad did not drain cleanly")
    return int(m.group(1))


def wal_audit(bins, d, work):
    rc, out, err, _, _ = run_timed([bins["bench"], "wal-audit", d], 1, work)
    if rc != 0:
        raise BenchError("wal-audit failed: " + err)
    return last_json(out)


def run_siad(bins, build_cpu, seed, seconds, trace, work, durable):
    procs = Procs()
    try:
        return siad_session(procs, bins, build_cpu, seed, seconds, trace,
                            work, durable)
    finally:
        procs.stop_all()


def siad_session(procs, bins, build_cpu, seed, seconds, trace, work,
                 durable):
    mode = "durable" if durable else "monitor"
    standby = None
    if durable:
        sdir = os.path.join(work, "wal-standby")
        pdir = os.path.join(work, "wal-primary")
        standby, sport = start_siad(procs, bins,
                                    ["--standby", "--wal-dir", sdir])
        primary, port = start_siad(
            procs, bins, ["--wal-dir", pdir, "--replicate-to",
                          "127.0.0.1:%d" % sport])
    else:
        primary, port = start_siad(procs, bins, [])
    load = procs.start(
        [bins["bench"], "load", "--mode", mode, "--port", str(port),
         "--seed", str(seed), "--seconds", str(seconds), "--shards",
         str(SIAD_THREADS), "--status-every", "256" if trace else "0"],
        1, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    if read_line(load, 120) != "ready":
        raise BenchError("load generator not ready")
    setup_s = setup_cpu_s(build_cpu, [p for p in (primary, standby, load)
                                      if p])
    cpu0 = live_cpu_s(primary.pid)
    scpu0 = live_cpu_s(standby.pid) if standby else 0.0
    load.stdin.write("go\n")
    load.stdin.flush()
    r = json.loads(read_line(load, seconds + 120))
    cpu = live_cpu_s(primary.pid) - cpu0
    scpu = live_cpu_s(standby.pid) - scpu0 if standby else 0.0
    rss = vm_hwm_mb(primary.pid)
    procs.stop(load)
    server_commits = drained_commits(procs.stop(primary))
    errors = []
    if r["error"]:
        errors.append("load generator: " + r["error"])
    errors += checks.check_acks(r["sent"], r["acked"], server_commits)
    if durable:
        standby_commits = drained_commits(procs.stop(standby))
        errors += checks.check_acks(r["sent"], r["acked"], standby_commits)
        pw = wal_audit(bins, pdir, work)
        sw = wal_audit(bins, sdir, work)
        errors += checks.check_wal(pw, r["frames"])
        errors += checks.check_standby(r["closed"], sw["closed"])
        wal_bytes = sum(os.path.getsize(os.path.join(pdir, n))
                        for n in os.listdir(pdir))
    else:
        errors += checks.check_streams(r["closed"])
        errors += checks.check_planted(r["planted"])
        wal_bytes = 0
    acked = max(r["acked"], 1)
    # Medians over the send phase's one-second windows with the least host
    # steal (see sia_bench load).
    print("perfbench: host steal %.1f%% of CPU time over the send phase, "
          "%.1f%% in the windows measured"
          % (100 * r["steal"], 100 * r["quiet_steal"]), file=sys.stderr)
    metrics = {
        "work_s": BLOCK / r["win_acks_per_s"],
        "ops_per_s": r["win_acks_per_s"],
        "op_p50_ms": r["win_p50_ns"] / 1e6,
        "op_p90_ms": r["win_p90_ns"] / 1e6,
        "peak_rss_mb": rss,
    }
    layers = {}
    if trace:
        layers = trace_service(bins, seed, mode, work, r)
        layers.update({
            "monitor.retained_max": r["retained_max"],
            "monitor.approx_bytes_max": r["approx_bytes_max"],
            "server.cpu_us_per_commit": 1e6 * cpu / acked,
            "client.cpu_us_per_commit": 1e6 * r["client_cpu_s"] / acked,
            "standby.cpu_us_per_commit": 1e6 * scpu / acked,
            "repl.lag_frames_max": r["lag_frames_max"],
            "client.commit_p99_ms": r["win_p99_ns"] / 1e6,
            "host.steal_pct": 100 * r["steal"],
            "wal.bytes_per_commit": wal_bytes / acked,
        })
    return setup_s, r["sent"], r["failed"], errors, metrics, layers


def trace_service(bins, seed, mode, work, load_result):
    spans = os.path.join(work, "spans.csv")
    rc, out, err, _, _ = run_timed(
        [bins["bench"], "trace-service", "--mode", mode, "--seed", str(seed),
         "--spans", spans, "--wal-dir",
         os.path.join(work, "wal-trace")], 1, work)
    if rc != 0:
        raise BenchError("trace-service failed: " + err)
    r = last_json(out)
    keep_spans(spans, "siad-" + mode)
    rtt_us = load_result["lat_p50_ns"] / 1e3
    return {
        "monitor.ingest_us.p50": r["ingest_us_p50"],
        "monitor.ingest_us.p99": r["ingest_us_p99"],
        "monitor.gc_batches": r["gc_batches"],
        "monitor.gc_batch_us.p50": r["gc_batch_us_p50"],
        "wire.encode_us": r["encode_us_p50"],
        "wire.decode_us": r["decode_us_p50"],
        "service.overhead_us": rtt_us - (r["encode_us_p50"]
                                         + r["decode_us_p50"]
                                         + r["ingest_us_p50"]),
        "wal.append_us.p50": r["wal_append_us_p50"],
        "wal.append_us.p99": r["wal_append_us_p99"],
        "trace.overhead_pct": 100.0 * (r["overhead_ratio"] - 1),
        "trace.spans": r["spans"],
    }


# ----- spans -----------------------------------------------------------------------

def self_times(path):
    """Seconds of self time per span name: a span's duration minus the
    part its child spans cover."""
    spans = {}
    with open(path) as f:
        next(f)
        for line in f:
            thread, sid, parent, name, start, end = line.rstrip("\n").split(",")
            spans[(thread, sid)] = [name, int(end) - int(start), parent]
    child = {}
    for (thread, _), (_, dur, parent) in spans.items():
        if parent != "-1":
            child[(thread, parent)] = child.get((thread, parent), 0) + dur
    out = {}
    for key, (name, dur, _) in spans.items():
        out[name] = out.get(name, 0.0) + (dur - child.get(key, 0)) / 1e9
    return out


def keep_spans(path, workload):
    """Keeps the last traced run's spans per workload under .bench_out/."""
    dest = os.path.join(ROOT, ".bench_out", "spans")
    os.makedirs(dest, exist_ok=True)
    shutil.copyfile(path, os.path.join(dest, workload + ".csv"))


def percentile(values, q):
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


# ----- main ------------------------------------------------------------------------

UNITS = {"setup_s": "s", "work_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
         "op_p90_ms": "ms", "peak_rss_mb": "MiB"}


def per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bins, build_cpu = build()
    out_root = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=out_root)
    try:
        runner = {
            "lint-corpus": run_lint,
            "history-decide": run_decide,
            "siad-monitor": lambda *a: run_siad(*a, durable=False),
            "siad-durable": lambda *a: run_siad(*a, durable=True),
        }[args.workload]
        setup_s, attempted, failed, errors, metrics, layers = runner(
            bins, build_cpu, args.seed, args.seconds, args.trace == 1, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics["setup_s"] = setup_s
    for e in errors:
        print("CHECK FAILED: " + e, file=sys.stderr)
    if args.trace:
        units = per_layer_names()
        report = {n: {"value": float(layers.get(n, 0.0)), "unit": u}
                  for n, u in units.items()}
    else:
        report = {n: {"value": float(metrics[n]), "unit": u}
                  for n, u in UNITS.items()}
    for n, m in report.items():
        print("%-28s %16.6f %s" % (n, m["value"], m["unit"]))
    print(json.dumps({"correct": not errors, "attempted": int(attempted),
                      "failed": int(failed), "metrics": report}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
