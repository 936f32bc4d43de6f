#!/usr/bin/env python3
"""Campaign benchmark for nvct: builds the repository, runs one workload,
checks every output against a committed reference and prints the metrics.

    python3 perfbench/run.py --workload fig3_all_apps --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. --trace 0 times the untraced workload and
prints the end-to-end metrics; --trace 1 runs the per-layer ladder
(perfbench_harness ladder) and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
README.md in this directory documents the workloads and every metric.
"""
import argparse
import difflib
import gzip
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
REFS_DIR = os.path.join(BENCH_DIR, "refs")
NVCT = os.path.join(BUILD_DIR, "tools", "nvct")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")

ALL_APPS = ["cg", "mg", "ft", "is", "bt", "lu", "sp", "ep", "botsspar",
            "lulesh", "kmeans"]

# Campaign seeds with a committed reference (refs/*.json.gz). Pass k of a run
# with benchmark seed s uses campaign seed POOL[(s + k) % len(POOL)], so each
# run's median spans several campaigns and every pass has a reference.
POOL = [101, 202, 303, 404, 505, 606, 707, 808, 909, 1010, 1111, 1212, 1313,
        1414, 1515, 1616]
DEFAULT_SEED = 1
HELD_OUT_SEED = 12  # never used while the benchmark was tuned

WORKLOADS = {
    # The paper's Figure-3 campaign: one nvct process per app, defaults
    # otherwise (fork isolation, sweep, profile on, plan none).
    "fig3_all_apps": dict(kind="nvct", apps=ALL_APPS, args=[], tests=300,
                          trace_tests=100),
    # The EasyCrash 4-step workflow in-process (core::runEasyCrashWorkflow).
    "workflow_plan": dict(kind="workflow", apps=["mg", "sp", "cg", "bt"],
                          tests=150, trace_tests=50),
    # cg at 6x scale (6.0 MB, ~91x the LLC) under the region monitor. Scale 8
    # (10.6 MB) takes ~9 s a pass, too few passes per run for a steady median.
    "large_footprint": dict(kind="nvct", apps=["cg"],
                            args=["--scale", "6", "--monitor", "sampled"],
                            tests=60, trace_tests=20),
}
THREADS = 2
# Set-up runs: SETUP_PER_PASS before each timed pass, so that they sample the
# same stretch of host time as the passes, topped up to at least SETUP_REPS.
SETUP_PER_PASS = 2
SETUP_REPS = 7
RUN_TIMEOUT_S = 170  # a run must end within 180 s

# End-to-end metrics: name -> (unit, kind). kind is measured|count|modelled.
E2E = {
    "wall_s": ("s", "measured"),
    "trials_per_s": ("1/s", "measured"),
    "setup_s": ("s", "measured"),
    "cpu_s": ("s", "measured"),
    "peak_rss_mb": ("MB", "measured"),
    "pass_ratio": ("ratio", "count"),
}

# Per-layer metrics: base name -> (unit, kind, moves, workload). Timings are
# reported as <name>.p50, <name>.p90 and <name>.n (sample count).
TIMINGS = {
    "apps.direct_run_ms": ("ms", "measured", "wall_s,cpu_s", "fig3_all_apps"),
    "runtime.restart_ms": ("ms", "measured", "wall_s", "fig3_all_apps"),
    "memsim.cache_sim_ms": ("ms", "measured", "wall_s,setup_s",
                            "large_footprint,workflow_plan"),
    "memsim.ns_per_sim_access": ("ns", "measured", "wall_s,setup_s",
                                 "large_footprint,workflow_plan"),
    "runtime.profile_ms": ("ms", "measured", "wall_s,cpu_s", "large_footprint"),
    "runtime.persist_us": ("us", "measured", "wall_s", "workflow_plan"),
    "memsim.postmortem_us": ("us", "measured", "-", "-"),
    "memsim.monitor_ms": ("ms", "measured", "setup_s", "large_footprint"),
    "crash.golden_ms": ("ms", "measured", "setup_s", "all"),
    "crash.crash_run_ms": ("ms", "measured", "wall_s", "large_footprint"),
    "crash.fork_overhead_ms": ("ms", "measured", "wall_s,cpu_s", "fig3_all_apps"),
    "crash.journal_ms": ("ms", "measured", "wall_s", "fig3_all_apps"),
    "crash.report_ms": ("ms", "measured", "wall_s", "fig3_all_apps"),
    "core.object_selection_ms": ("ms", "measured", "wall_s", "workflow_plan"),
    "core.region_selection_ms": ("ms", "measured", "wall_s", "workflow_plan"),
    "core.campaigns_ms": ("ms", "measured", "wall_s", "workflow_plan"),
    "nvct.process_ms": ("ms", "measured", "wall_s,setup_s", "fig3_all_apps"),
}
COUNTS = {
    "memsim.accesses": ("count", "count", "-", "all"),
    "memsim.l1_miss_ratio": ("ratio", "count", "-", "all"),
    "memsim.llc_miss_ratio": ("ratio", "count", "-", "all"),
    "memsim.nvm_block_writes": ("count", "count", "-", "all"),
    "memsim.flush_dirty": ("count", "count", "wall_s", "workflow_plan"),
    "memsim.postmortem_blocks_compared": ("count", "count", "-", "-"),
    "crash.unattributed_ms": ("ms", "measured", "-", "all"),
    "bench.trace_overhead_frac": ("ratio", "measured", "-", "all"),
}
MEMSIM_TOTALS = ["memsim.loads", "memsim.stores", "memsim.nvmBlockWrites",
                 "memsim.flushDirty"]


def layer_labels():
    """Every per-layer metric in report order: name -> (unit, label). The label
    is the kind plus, where predicted, the end-to-end metric and workload the
    layer should move."""
    def label(kind, moves, where):
        return kind if moves == "-" else "%s; should move %s on %s" % (kind, moves, where)
    out = {}
    for name, (unit, kind, moves, where) in TIMINGS.items():
        for stat in ("p50", "p90"):
            out["%s.%s" % (name, stat)] = (unit, label(kind, moves, where))
        out[name + ".n"] = ("count", "count")
    for name, (unit, kind, moves, where) in COUNTS.items():
        out[name] = (unit, label(kind, moves, where))
    return out


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---- processes ----------------------------------------------------------------

DEADLINE = [None]


def run_proc(cmd, stdout_path):
    """Run one process to completion; returns (wall_s, cpu_s, maxrss_mb, rc).

    The rusage comes from wait4, so CPU time and peak RSS cover the process
    and every descendant it reaped (nvct's fork workers)."""
    remaining = DEADLINE[0] - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before " + os.path.basename(cmd[0]))
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = None
        if remaining != float("inf"):
            timer = threading.Timer(remaining,
                                    lambda: os.killpg(proc.pid, signal.SIGKILL))
            timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if timer:
                timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode


# ---- build ----------------------------------------------------------------------

def build():
    for need in ("src/CMakeLists.txt", "tools/nvct.cpp", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError("not a repository checkout: %s is missing "
                             "(run from the repository root)" % need)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target", "nvct",
                  "perfbench_harness"])
    with open(log_path, "ab") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(log_path, errors="replace") as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                raise BenchError("build failed: " + " ".join(cmd))


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(seed, cseed):
    """Host and build stamp carried by every result."""
    model, mhz = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = value.strip()
                if key.strip() == "cpu MHz" and mhz == "unknown":
                    mhz = value.strip()
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=ROOT)
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"nproc": os.cpu_count(), "cpu_model": model, "cpu_mhz": mhz,
            "compiler": version, "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
            "git_commit": commit, "source_digest": digest.hexdigest()[:16],
            "python": platform.python_version(), "seed": seed,
            "first_campaign_seed": cseed}


# ---- artifacts and the output gate ----------------------------------------------

def sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


def row_hashes(csv_bytes):
    lines = csv_bytes.decode().splitlines()
    header, rows = (lines[0], lines[1:]) if lines else ("", [])
    return sha(header.encode()), "".join(
        hashlib.sha1(r.encode()).hexdigest()[:6] for r in rows)


def read(path):
    with open(path, "rb") as f:
        return f.read()


def memsim_totals(metrics_path):
    counters = json.loads(read(metrics_path))["counters"]
    return {k: counters.get(k, 0) for k in MEMSIM_TOTALS}


def collect(workload, out_dir):
    """Digest one pass's artifacts: {artifact: {...}} plus the memsim totals."""
    spec = WORKLOADS[workload]
    art = {}
    if spec["kind"] == "nvct":
        memsim = {k: 0 for k in MEMSIM_TOTALS}
        for app in spec["apps"]:
            header, rows = row_hashes(read(os.path.join(out_dir, app + ".csv")))
            art[app] = {"header": header, "rows": rows,
                        "journal": sha(read(os.path.join(out_dir, app + ".journal")))}
            for k, v in memsim_totals(os.path.join(out_dir, app + ".metrics.json")).items():
                memsim[k] += v
    else:
        for app in spec["apps"]:
            for phase in ("baseline", "everywhere", "validation"):
                csv = os.path.join(out_dir, "%s.%s.csv" % (app, phase))
                if not os.path.exists(csv):
                    continue
                header, rows = row_hashes(read(csv))
                art[app + "." + phase] = {
                    "header": header, "rows": rows,
                    "journal": sha(read(os.path.join(out_dir, "%s.journal.%s" % (app, phase))))}
        art["summary"] = {"digest": sha(read(os.path.join(out_dir, "summary.txt")))}
        memsim = memsim_totals(os.path.join(out_dir, "metrics.json"))
    return {"artifacts": art, "memsim": memsim}


def split_rows(rows):
    return [rows[i:i + 6] for i in range(0, len(rows), 6)]


def compare_rows(got, want, prefix_only=False):
    """Number of failed trials: rows that differ, are missing or are extra.

    The CSV has no trial column, so the rows are aligned in order first; a
    missing row (a TrialFailure) then counts once, not once per later row."""
    g, w = split_rows(got), split_rows(want)
    if prefix_only:
        w = w[:len(g)]
    ops = difflib.SequenceMatcher(None, g, w, autojunk=False).get_opcodes()
    return sum(max(i2 - i1, j2 - j1) for op, i1, i2, j1, j2 in ops if op != "equal")


def gate(got, ref, problems):
    """Compare one pass with the reference; returns the differing-row count."""
    failed = 0
    for name, want in ref["artifacts"].items():
        have = got["artifacts"].get(name)
        if have is None:
            problems.append("%s: artifact missing" % name)
            failed += len(split_rows(want.get("rows", ""))) or 1
            continue
        for key in ("header", "journal", "digest"):
            if key in want and have.get(key) != want[key]:
                problems.append("%s: %s differs from the reference" % (name, key))
        if "rows" in want:
            diff = compare_rows(have["rows"], want["rows"])
            if diff:
                problems.append("%s: %d CSV rows differ" % (name, diff))
            failed += diff
    for name in got["artifacts"]:
        if name not in ref["artifacts"]:
            problems.append("%s: unexpected artifact" % name)
    if got["memsim"] != ref["memsim"]:
        problems.append("MemEvents totals differ: %s vs reference %s"
                        % (got["memsim"], ref["memsim"]))
    return failed


def load_refs(workload):
    path = os.path.join(REFS_DIR, workload + ".json.gz")
    with gzip.open(path, "rt") as f:
        return json.load(f)


# ---- one pass of a workload ---------------------------------------------------------

def pass_commands(workload, cseed, tests, out_dir, nvct_extra=()):
    spec = WORKLOADS[workload]
    if spec["kind"] == "workflow":
        return [[HARNESS, "workflow", "--apps", ",".join(spec["apps"]),
                 "--seed", str(cseed), "--tests", str(tests),
                 "--out", out_dir]]
    cmds = []
    for app in spec["apps"]:
        cmds.append([NVCT, "--app", app, "--tests", str(tests), "--threads",
                     str(THREADS), "--seed", str(cseed), "--no-progress",
                     "--journal", os.path.join(out_dir, app + ".journal"),
                     "--csv-out", os.path.join(out_dir, app + ".csv"),
                     "--metrics-out", os.path.join(out_dir, app + ".metrics.json")]
                    + spec["args"] + list(nvct_extra))
    return cmds


def run_pass(workload, cseed, tests, out_dir, nvct_extra=()):
    """Run every command of one pass in sequence from a clean directory."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cpu = rss = 0.0
    start = time.perf_counter()
    for i, cmd in enumerate(pass_commands(workload, cseed, tests, out_dir,
                                          nvct_extra)):
        _, c, r, rc = run_proc(cmd, os.path.join(out_dir, "stdout.%d.txt" % i))
        if rc != 0:
            raise BenchError("%s exited with %d (see %s)" % (
                " ".join(cmd[:3]), rc, out_dir))
        cpu += c
        rss = max(rss, r)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}


def campaign_seed(seed, k=0):
    return POOL[(seed + k) % len(POOL)]


def steal_s():
    """Host CPU time stolen from this machine so far (/proc/stat), in seconds."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def end_to_end(workload, seed, seconds):
    refs = load_refs(workload)["seeds"]
    work = os.path.join(WORK_DIR, workload)
    spec = WORKLOADS[workload]

    def setup(cseed):
        setups.append(run_pass(workload, cseed, 0, os.path.join(work, "setup"))["wall_s"])

    steal_start = steal_s()
    setups, passes, problems = [], [], []
    attempted = failed = 0
    measured = 0.0  # seconds spent in timed passes and their gate
    while True:
        for _ in range(SETUP_PER_PASS):
            setup(campaign_seed(seed, len(passes)))
        start = time.perf_counter()
        ref = refs[str(campaign_seed(seed, len(passes)))]
        # Trials decided per pass: the reference rows of every campaign in it.
        trials = sum(len(split_rows(a["rows"])) for a in ref["artifacts"].values()
                     if "rows" in a)
        p = run_pass(workload, campaign_seed(seed, len(passes)), spec["tests"],
                     os.path.join(work, "pass"))
        got = collect(workload, os.path.join(work, "pass"))
        bad = gate(got, ref, problems)
        attempted += trials
        failed += bad
        p["trials_per_s"] = trials / p["wall_s"]
        passes.append(p)
        measured += time.perf_counter() - start
        if measured + statistics.median(q["wall_s"] for q in passes) > seconds:
            break
    while len(setups) < SETUP_REPS:
        setup(campaign_seed(seed, len(passes)))
    med = lambda key: statistics.median(q[key] for q in passes)
    metrics = {
        "wall_s": med("wall_s"),
        "trials_per_s": med("trials_per_s"),
        "setup_s": statistics.median(setups),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "pass_ratio": 1.0 - failed / attempted,
    }
    detail = {"passes": len(passes), "setup_reps": len(setups),
              "campaign_seeds": [campaign_seed(seed, k) for k in range(len(passes))],
              "pass_walls_s": [q["wall_s"] for q in passes], "setup_walls_s": setups,
              "host_steal_s": steal_s() - steal_start}
    return metrics, attempted, failed, problems, detail


# ---- the traced run -------------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, min(len(s) - 1, int(-(-q * len(s) // 100)) - 1))]


def traced(workload, seed):
    spec = WORKLOADS[workload]
    cseed = campaign_seed(seed)
    ref = load_refs(workload)["seeds"][str(cseed)]
    out = os.path.join(WORK_DIR, workload, "trace")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    tests = spec["trace_tests"]
    cmd = [HARNESS, "ladder", "--apps", ",".join(spec["apps"]), "--tests", str(tests),
           "--seed", str(cseed), "--out", out]
    if spec["kind"] == "workflow":
        cmd += ["--threads", "1", "--workflow"]
    else:
        cmd += ["--threads", str(THREADS)]
        args = spec["args"]
        for flag in ("--scale", "--monitor"):
            if flag in args:
                cmd += [flag, args[args.index(flag) + 1]]
    _, _, _, rc = run_proc(cmd, os.path.join(out, "ladder.json"))
    if rc != 0:
        raise BenchError("perfbench_harness ladder exited with %d" % rc)
    lines = read(os.path.join(out, "ladder.json")).decode().splitlines()
    lad = json.loads(lines[-1])
    samples, values, problems = lad["samples"], lad["values"], list(lad["errors"])
    reps = int(values["ladder.reps"])

    # nvct.process_ms: the same campaign as a whole nvct process, minus the
    # in-process run() of it. fig3/large: fork + journal; workflow_plan: the
    # step-1 campaign in-process on one thread.
    workflow = spec["kind"] == "workflow"
    inproc = samples["campaign.untraced_ms" if workflow else "campaign.fork_journal_ms"]
    nvct_dir = os.path.join(out, "nvct")
    nvct_extra = ["--threads", "1", "--isolation", "none"] if workflow else []
    os.makedirs(nvct_dir)
    for i, app in enumerate(spec["apps"]):
        base = [NVCT, "--app", app, "--tests", str(tests), "--seed", str(cseed),
                "--no-progress", "--csv-out", os.path.join(nvct_dir, app + ".csv")]
        if not workflow:
            base += ["--threads", str(THREADS), "--journal",
                     os.path.join(nvct_dir, app + ".journal")] + spec["args"]
        for rep in range(reps):
            for stale in (app + ".csv", app + ".journal"):
                if os.path.exists(os.path.join(nvct_dir, stale)):
                    os.remove(os.path.join(nvct_dir, stale))
            wall, _, _, rc = run_proc(base + nvct_extra,
                                      os.path.join(nvct_dir, app + ".out"))
            if rc != 0:
                raise BenchError("nvct exited with %d in the traced run" % rc)
            samples.setdefault("nvct.process_ms", []).append(
                wall * 1e3 - inproc[i * reps + rep])

        # Output gate: the in-process, traced, fork and journal campaigns agree
        # (checked in the harness), nvct agrees with them, and all of them are
        # the reference campaign's first `tests` trials.
        harness_csv = read(os.path.join(out, app + ".csv"))
        if read(os.path.join(nvct_dir, app + ".csv")) != harness_csv:
            problems.append("%s: nvct CSV differs from the in-process campaign" % app)
        if not workflow and read(os.path.join(nvct_dir, app + ".journal")) != \
                read(os.path.join(out, app + ".journal")):
            problems.append("%s: nvct journal differs from the in-process campaign" % app)
        want = ref["artifacts"][app + ".baseline" if workflow else app]
        header, rows = row_hashes(harness_csv)
        diff = compare_rows(rows, want["rows"], prefix_only=True)
        if diff or header != want["header"]:
            problems.append("%s: %d traced CSV rows differ from the reference" % (app, diff))
    if workflow:
        if sha(read(os.path.join(out, "summary.txt"))) != ref["artifacts"]["summary"]["digest"]:
            problems.append("traced workflow selected a different plan than the reference")

    metrics = {}
    for name in TIMINGS:
        vals = samples.get(name, [])
        metrics[name + ".p50"] = percentile(vals, 50) if vals else 0.0
        metrics[name + ".p90"] = percentile(vals, 90) if vals else 0.0
        metrics[name + ".n"] = len(vals)
    ratio = lambda miss, hit: miss / max(1.0, miss + hit)
    metrics.update({
        "memsim.accesses": values["memsim.accesses"],
        "memsim.l1_miss_ratio": ratio(values["memsim.l1_misses"], values["memsim.l1_hits"]),
        "memsim.llc_miss_ratio": ratio(values["memsim.llc_misses"], values["memsim.llc_hits"]),
        "memsim.nvm_block_writes": values["memsim.nvm_block_writes"],
        "memsim.flush_dirty": values["memsim.flush_dirty"],
        "memsim.postmortem_blocks_compared": values["memsim.postmortem_blocks_compared"],
        "crash.unattributed_ms": values["crash.unattributed_ms"],
        "bench.trace_overhead_frac": sum(samples["campaign.traced_ms"]) /
                                     sum(samples["campaign.untraced_ms"]),
    })
    attempted = int(values["campaign.decided"]) + len(spec["apps"]) * tests * reps
    failed = int(values["campaign.failures"])
    detail = {"attribution": {k: v for k, v in values.items()
                              if k.startswith(("attribution.", "spans."))},
              "harness_wall_ms": values["harness.wall_ms"]}
    return metrics, attempted, failed, problems, detail


# ---- reference generation and self-test ------------------------------------------------

def make_refs(workloads):
    """Write refs/<workload>.json.gz for every pool seed. nvct campaigns are
    recorded in-process (--isolation none) so the timed fork runs are checked
    against a second execution path."""
    os.makedirs(REFS_DIR, exist_ok=True)
    for workload in workloads:
        spec = WORKLOADS[workload]
        seeds = {}
        for cseed in POOL:
            out = os.path.join(WORK_DIR, workload, "ref")
            extra = ["--isolation", "none"] if spec["kind"] == "nvct" else []
            run_pass(workload, cseed, spec["tests"], out, extra)
            got = collect(workload, out)
            if spec["kind"] == "workflow":
                summary = read(os.path.join(out, "summary.txt")).decode()
                if summary.count("steps=4") != len(spec["apps"]):
                    raise BenchError("seed %d: not every app reaches step 4:\n%s"
                                     % (cseed, summary))
            seeds[str(cseed)] = got
            log("%s: reference for campaign seed %d recorded" % (workload, cseed))
        with gzip.open(os.path.join(REFS_DIR, workload + ".json.gz"), "wt") as f:
            json.dump({"pool": POOL, "seeds": seeds}, f, sort_keys=True)


def selftest(seconds):
    """Each workload once at the default and once at the held-out seed, untraced
    and traced: the output gate must pass and every declared metric appear.
    Prints every metric of every run by name, unit and kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != {k: v[0] for k, v in E2E.items()}:
        raise BenchError("BENCHMARK.json end_to_end does not match run.py")
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared_layer != {n: u for n, (u, _) in layer_labels().items()}:
        raise BenchError("BENCHMARK.json per_layer does not match run.py")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads do not match run.py")
    ok = True
    for workload in WORKLOADS:
        for seed, trace in ((DEFAULT_SEED, 0), (HELD_OUT_SEED, 0), (HELD_OUT_SEED, 1)):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                                   "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)],
                                  capture_output=True, text=True, cwd=ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if \
                proc.returncode == 0 else {}
            want = declared if trace == 0 else declared_layer
            good = (proc.returncode == 0 and result.get("correct") is True and
                    set(result.get("metrics", {})) == set(want))
            ok &= good
            print("%-16s seed %-3d trace %d: %s" % (workload, seed, trace,
                                                    "ok" if good else "FAILED"))
            sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()
                                     if line.startswith("  ")))
            if not good:
                sys.stdout.write(proc.stderr[-2000:])
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


# ---- main -----------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per run (default 30; 1 with --selftest)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run every workload at the default and the held-out seed")
    ap.add_argument("--make-refs", metavar="WORKLOADS",
                    help="record refs/ for the comma-separated workloads (or 'all')")
    args = ap.parse_args()
    DEADLINE[0] = time.monotonic() + RUN_TIMEOUT_S
    try:
        build()
        if args.selftest:
            return selftest(args.seconds or 1)
        if args.make_refs:
            DEADLINE[0] = float("inf")
            names = list(WORKLOADS) if args.make_refs == "all" else args.make_refs.split(",")
            make_refs(names)
            return 0
        if not args.workload:
            ap.error("--workload is required")
        if args.trace:
            metrics, attempted, failed, problems, detail = traced(args.workload, args.seed)
            labels = layer_labels()
        else:
            metrics, attempted, failed, problems, detail = end_to_end(
                args.workload, args.seed, args.seconds or 30.0)
            labels = E2E
    except BenchError as e:
        log("perfbench: " + str(e))
        return 1
    for problem in problems:
        log("perfbench: output gate: " + problem)
    stamp = fingerprint(args.seed, campaign_seed(args.seed))
    print("workload %s  seed %d (first campaign seed %d)  trace %d"
          % (args.workload, args.seed, campaign_seed(args.seed), args.trace))
    for name, value in metrics.items():
        print("  %-36s %14.6g %-6s %s" % (name, value, *labels[name]))
    print("fingerprint " + json.dumps(stamp, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": v, "unit": labels[n][0]} for n, v in metrics.items()}}
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    with open(os.path.join(WORK_DIR, "results", "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(dict(result, fingerprint=stamp, detail=detail), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
