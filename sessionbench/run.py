#!/usr/bin/env python3
"""Session benchmark of the JVM auto-tuner.

    python3 sessionbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds the `jtune` and `e1_specjvm`
binaries and the `sessionbench` helper into $CARGO_TARGET_DIR (default
`.bench_build`). It then runs as many whole rounds of one workload's
tuning sessions as take about S seconds on the reference machine, checks
every output, and prints one JSON object as the last line of stdout: the
end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`.
See README.md.
"""

import argparse
import hashlib
import json
import os
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spec_plain", "dacapo_model", "spec_traced", "daemon_remote")

BUDGET_MINS = 200  # the paper's budget, virtual minutes
E1_BATCH = 8  # e1_specjvm's candidates per round
CLI_BATCH = 4  # the `jtune tune` and daemon-session default
# Longest sessions first (2.5-2.8 s a session down to 0.3 s on the
# reference machine), and every round's session of a program before the
# next program's, so a run does not end on one client running a long
# session while the other idles.
DACAPO = [
    "dacapo:pmd",
    "dacapo:tradebeans",
    "dacapo:avrora",
    "dacapo:h2",
    "dacapo:luindex",
    "dacapo:fop",
    "dacapo:batik",
    "dacapo:eclipse",
    "dacapo:jython",
]
# Concurrent jobs (whole e1_specjvm runs, or DaCapo sessions) in the
# one-shot workloads' closed loop. Each job keeps about one core busy; two
# put twice the work in a run, which cut spec_traced's run-to-run spread
# from 22% to 13% in an interleaved comparison with one at a time.
CLIENTS = 2
DAEMON_BUDGET_MINS = 1
WORKER_SLOTS = 2
# Start-ups timed per run for setup_s: half before the timed rounds and
# half after them, so the median spans the run's machine state.
SETUP_REPEATS = 40
# Wall seconds one round adds to a run of each workload under its load on
# the reference machine (2 cores, see README.md).
ROUND_SECONDS = {"spec_plain": 2.5, "dacapo_model": 5, "spec_traced": 5, "daemon_remote": 17}
PROCESS_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "sessions_per_s": "1/s",
    "trials_per_s": "1/s",
    "cpu_per_session_s": "s",
    "improvement_pct": "%",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "jvmsim.measure_calls": "count",
    "jvmsim.measure_us": "us",
    "core.propose_ms": "ms",
    "core.overspent_trials": "count",
    "harness.trial_us": "us",
    "harness.batch_ms": "ms",
    "harness.checkpoint_ms": "ms",
    "model.fits": "count",
    "model.fit_ms": "ms",
    "model.screen_ms": "ms",
    "telemetry.events": "count",
    "telemetry.write_us": "us",
    "telemetry.trace_mb": "MB",
    "report.load_s": "s",
    "report.load_mb_per_s": "MB/s",
    "report.render_ms": "ms",
    "report.offline_s": "s",
    "server.submit_ms": "ms",
    "server.result_ms": "ms",
    "server.queue_wait_ms": "ms",
    "server.lease_ms": "ms",
    "server.frame_us": "us",
    "server.session_p50_s": "s",
    "server.worker_rss_mb": "MB",
    "report.offline_rss_mb": "MB",
    "tracing.overhead_s": "s",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class Failure(Exception):
    """The benchmark cannot produce a result."""


def finish(proc, timeout=PROCESS_TIMEOUT_S):
    """Drain a child's pipes, reap it with wait4, and return
    (exit code, stdout bytes, stderr bytes, rusage)."""
    deadline = time.monotonic() + timeout
    chunks = {}
    sel = selectors.DefaultSelector()
    for f in (proc.stdout, proc.stderr):
        if f is not None:
            chunks[f] = []
            sel.register(f, selectors.EVENT_READ)
    try:
        while sel.get_map():
            left = deadline - time.monotonic()
            if left <= 0:
                proc.kill()
                raise Failure(f"{proc.args[0]} did not finish in {timeout} s")
            for key, _ in sel.select(timeout=left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    finally:
        sel.close()
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        for f in chunks:
            f.close()
    out = b"".join(chunks.get(proc.stdout, []))
    err = b"".join(chunks.get(proc.stderr, []))
    return proc.returncode, out, err, rusage


class Run:
    """One benchmark run: its binaries, scratch space, and the cost of the
    program processes it started."""

    def __init__(self, args, binaries, work):
        self.args = args
        self.bin = binaries
        self.work = work
        self.rng = random.Random(args.seed)
        self.cpu_s = 0.0
        # Peak RSS (KB) of each counted process, by kind: "session" for
        # the processes that run tuning sessions (e1_specjvm, jtune tune,
        # jtune serve), "report" and "worker" for the others.
        self.rss_kb = {}
        self.live = []
        self.lock = threading.Lock()
        self.stopping = False

    def seed(self):
        """The next input seed derived from the run's --seed."""
        return self.rng.randrange(1, 1 << 31)

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def spawn(self, argv, env=None, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
        """Start a process; `reap` drains the pipes among its outputs."""
        with self.lock:
            if self.stopping:
                raise Failure("stopped")
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
            self.live.append(proc)
        return proc

    def reap(self, proc, timeout=PROCESS_TIMEOUT_S, kind="session"):
        """Wait for a process; unless `kind` is None, add its CPU time to
        the run's and its peak RSS to that kind's."""
        code, out, err, rusage = finish(proc, timeout)
        with self.lock:
            self.live.remove(proc)
            if kind is not None:
                self.cpu_s += rusage.ru_utime + rusage.ru_stime
                self.rss_kb.setdefault(kind, []).append(rusage.ru_maxrss)
        return code, out.decode(), err.decode(errors="replace")

    def peak_rss_mb(self, kind):
        """The median peak RSS of this kind's processes, in MB."""
        return statistics.median(self.rss_kb.get(kind, [0])) / 1024

    def call(self, argv, env=None, kind="session"):
        """Run a program process to its end: (exit code, stdout, wall s)."""
        start = time.perf_counter()
        code, out, err = self.reap(self.spawn(argv, env), kind=kind)
        wall = time.perf_counter() - start
        if code != 0:
            log(f"{' '.join(argv[:3])} exited {code}: {err.strip()[-400:]}")
        return code, out, wall

    def helper(self, *argv):
        """Run the sessionbench helper; returns its JSON output."""
        code, out, _ = self.call([self.bin["sessionbench"], *argv], kind=None)
        if code != 0:
            raise Failure(f"sessionbench {argv[0]} failed")
        return json.loads(out.strip().splitlines()[-1])

    def time_to_session(self, argv, env=None):
        """Seconds from spawning `argv` (with progress reporting on) until
        its first tuning session starts; the process is then stopped."""
        start = time.perf_counter()
        proc = self.spawn(argv, env, stdout=subprocess.DEVNULL)
        elapsed = None
        for line in proc.stderr:
            if b"session started" in line:
                elapsed = time.perf_counter() - start
                break
        proc.kill()
        self.reap(proc, kind=None)
        if elapsed is None:
            raise Failure(f"{argv[0]} never started a session")
        return elapsed

    def terminate(self, *_):
        """SIGTERM: start nothing more, kill what runs, and leave through
        main's cleanup (the client threads reap their own processes)."""
        self.stopping = True
        for proc in list(self.live):
            proc.kill()
        raise Failure("terminated")

    def stop_all(self):
        """Kill and wait for every process still running."""
        for proc in list(self.live):
            proc.kill()
            try:
                os.waitpid(proc.pid, 0)
            except ChildProcessError:  # reaped by an interrupted wait
                pass


def env_with(**extra):
    env = dict(os.environ)
    env.update({k: str(v) for k, v in extra.items()})
    return env


def setup_probes(run, measure):
    """Half of a run's timed start-ups (none in a traced run)."""
    if run.args.trace:
        return []
    return [measure() for _ in range(SETUP_REPEATS // 2)]


def check_records(run, directory, batch, *extra):
    """Property checks on a run's TSV records (see src/check.rs)."""
    summary = run.helper("check", "--tsv", directory, "--batch", str(batch), *extra)
    for line in summary["listed"]:
        log("check:", line)
    return summary


def tsv_from_json(text, tsv_path):
    """Check what only the `--json` record holds, and write the record as
    the archival TSV of `SessionRecord::to_tsv` for `check_records`.
    Returns the number of errors."""
    r = json.loads(text)
    errors = 0
    recomputed = (r["default_secs"] / r["best_secs"] - 1.0) * 100.0
    if r["improvement_percent"] != recomputed:
        log(f"check: {r['program']}: improvement_percent {r['improvement_percent']} "
            f"is not the recomputed {recomputed}")
        errors += 1
    header = [r[k] for k in (
        "program", "executor", "budget_mins", "default_secs", "best_secs", "evaluations",
        "distinct", "cache_hits", "aborted", "retried", "quarantined", "suppressed",
        "saved_secs", "screened", "model_fits")]
    lines = ["\t".join(["#session", *map(str, header), " ".join(r["best_delta"])])]
    for t in r["trials"]:
        score = "FAIL" if t["score_secs"] is None else repr(t["score_secs"])
        lines.append("\t".join([str(t["index"]), repr(t["at_secs"]), score, t["technique"],
                                " ".join(t["delta"])]))
    os.makedirs(os.path.dirname(tsv_path), exist_ok=True)
    with open(tsv_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return errors


def check_report(report_path, tsv_dir):
    """An offline `jtune report --format json` must agree with the records
    on each session's best and evaluation count. Returns the errors."""
    with open(report_path) as f:
        sessions = {s["program"]: s for s in json.load(f)["sessions"]}
    errors = 0
    names = sorted(os.listdir(tsv_dir))
    if len(names) != len(sessions):
        log(f"check: report has {len(sessions)} sessions, the run {len(names)}")
        errors += 1
    for name in names:
        with open(os.path.join(tsv_dir, name)) as f:
            header = f.readline().split("\t")
        program, best, evaluations = header[1], float(header[5]), int(header[6])
        s = sessions.get(program)
        if s is None or (s["best_secs"], s["counters"]["evaluations"]) != (best, evaluations):
            log(f"check: {program}: the report disagrees with the record")
            errors += 1
    return errors


def rounds_in(run):
    """Whole rounds in a run: as many as take about --seconds on the
    reference machine. The count does not depend on how fast this run
    goes, so a run's sessions are a pure function of its seed."""
    return max(1, round(run.args.seconds / ROUND_SECONDS[run.args.workload]))


def closed_loop(run, job, items):
    """Run job(item) for every item, CLIENTS at a time, each client taking
    the next item as soon as its last one is done. Returns (wall seconds,
    results in item order)."""
    start = time.perf_counter()
    with ThreadPoolExecutor(CLIENTS) as pool:
        results = list(pool.map(job, items))
    return time.perf_counter() - start, results


# --- spec_plain and spec_traced: e1_specjvm, untraced or traced -----------


def spec_workload(run, traced):
    e1 = run.bin["e1_specjvm"]

    def e1_env(seed, k):
        trace = {"JTUNE_TRACE_DIR": run.path("traces", f"r{k}")} if traced else {
            "JTUNE_NO_TRACE": "1"
        }
        return env_with(JTUNE_SEED=seed, JTUNE_OUT=run.path("records", f"r{k}"), **trace)

    probe = dict(e1_env(run.args.seed, "setup"), JTUNE_PROGRESS="1")
    setups = setup_probes(run, lambda: run.time_to_session([e1], probe))

    rounds = [run.seed() for _ in range(rounds_in(run))]

    def one_round(k):
        """One e1_specjvm run (and, traced, its offline report); returns
        (failed sessions, offline report seconds)."""
        code, out, _ = run.call([e1], e1_env(rounds[k], k))
        with open(run.path(f"e1-r{k}.txt"), "w") as f:
            f.write(out)
        if not traced:
            return (16 if code != 0 else 0), 0.0
        report_code, report, wall = run.call(
            [run.bin["jtune"], "report", run.path("traces", f"r{k}", "e1_specjvm"),
             "--format", "json"],
            kind="report",
        )
        with open(run.path(f"report-r{k}.json"), "w") as f:
            f.write(report)
        return (16 if code != 0 or report_code != 0 else 0), wall

    wall, done = closed_loop(run, one_round, range(len(rounds)))
    setups += setup_probes(run, lambda: run.time_to_session([e1], probe))
    failed = sum(f for f, _ in done)
    offline = [w for _, w in done]

    errors = 0
    summaries = []
    for k in range(len(rounds)):
        records = run.path("records", f"r{k}")
        s = check_records(run, records, E1_BATCH, "--table", run.path(f"e1-r{k}.txt"))
        errors += s["errors"]
        if traced:
            errors += check_report(run.path(f"report-r{k}.json"), records)
        summaries.append(s)
    result = totals(summaries, wall, run)
    result.update(attempted=16 * len(rounds), failed=failed, correct=errors == 0,
                  setup_s=statistics.median(setups) if setups else None)

    if run.args.trace:
        plan = "".join(f"suite {seed} r{k}\n" for k, seed in enumerate(rounds))
        layers = replay(run, "spec_traced" if traced else "spec_plain", plan)
        layers["core.overspent_trials"] = result["overspent"]
        if traced:
            layers["report.offline_s"] = statistics.median(offline)
            layers["report.offline_rss_mb"] = run.peak_rss_mb("report")
        result["correct"] = result["correct"] and layers.pop("_mismatches") == 0
        result["layers"] = layers
    return result


def replay(run, workload, plan):
    """The in-process replays of the run's sessions (src/layers.rs): a
    plain one, then the traced one that gives the per-layer metrics."""
    plan_path = run.path("plan.txt")
    with open(plan_path, "w") as f:
        f.write(plan)
    outs = []
    for mode in ("plain", "traced"):
        out = run.helper(
            "layers", "--workload", workload, "--clients", str(CLIENTS), "--plan", plan_path,
            "--records", run.path("records"), "--out", run.path(f"replay-{mode}"),
            *(["--plain"] if mode == "plain" else []),
        )
        for line in out["listed"]:
            log(f"{mode} replay:", line)
        outs.append(out)
    plain, traced = outs
    layers = dict(traced["metrics"])
    layers["tracing.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["_mismatches"] = plain["mismatches"] + traced["mismatches"]
    log(
        f"tracing overhead: traced replay {traced['wall_s']:.3f} s - "
        f"plain replay {plain['wall_s']:.3f} s = {layers['tracing.overhead_s']:+.3f} s"
    )
    return layers


def totals(summaries, wall, run):
    """The end-to-end metrics every workload reports, from its records'
    check summaries, its timed wall seconds and its processes' cost."""
    sessions = sum(s["sessions"] for s in summaries)
    evaluations = sum(s["evaluations"] for s in summaries)
    return {
        "sessions_per_s": sessions / wall,
        "trials_per_s": evaluations / wall,
        "cpu_per_session_s": run.cpu_s / sessions,
        "improvement_pct": sum(s["improvement_sum"] for s in summaries) / sessions,
        # Over the processes that ran the sessions only, so a report or
        # worker process does not pull it one way or the other.
        "peak_rss_mb": run.peak_rss_mb("session"),
        "overspent": sum(s["overspent_trials"] for s in summaries) / sessions,
        "sessions": sessions,
    }


# --- dacapo_model: jtune tune --model over DaCapo programs ----------------


def dacapo_workload(run):
    jtune = run.bin["jtune"]

    def tune(program, seed, *extra):
        return [jtune, "tune", program, "--budget", str(BUDGET_MINS), "--model",
                "--seed", str(seed), "--json", *extra]

    probe = tune(DACAPO[0], run.args.seed, "--progress")
    setups = setup_probes(run, lambda: run.time_to_session(probe))

    os.makedirs(run.path("records"))
    sessions = [(k, program, run.seed()) for k in range(rounds_in(run)) for program in DACAPO]
    sessions.sort(key=lambda s: DACAPO.index(s[1]))

    def session(item):
        k, program, seed = item
        name = f"r{k}-{program.split(':')[1]}.json"
        code, out, _ = run.call(tune(program, seed))
        if code != 0:
            return None
        with open(run.path("records", name), "w") as f:
            f.write(out)
        return f"session {program} {seed} {name}\n"

    wall, done = closed_loop(run, session, sessions)
    setups += setup_probes(run, lambda: run.time_to_session(probe))
    plan = [line for line in done if line]
    failed = len(sessions) - len(plan)
    errors = 0
    for line in plan:
        name = line.split()[-1]
        with open(run.path("records", name)) as f:
            errors += tsv_from_json(f.read(), run.path("tsv", name[:-5] + ".tsv"))
    summary = check_records(run, run.path("tsv"), CLI_BATCH, "--model")
    result = totals([summary], wall, run)
    errors += summary["errors"]
    result.update(
        attempted=len(plan) + failed, failed=failed, correct=errors == 0,
        setup_s=statistics.median(setups) if setups else None,
    )
    if run.args.trace:
        layers = replay(run, "dacapo_model", "".join(plan))
        layers["core.overspent_trials"] = result["overspent"]
        result["correct"] = result["correct"] and layers.pop("_mismatches") == 0
        result["layers"] = layers
    return result


# --- daemon_remote: jtune serve + one remote worker, two clients ----------


def start_daemon(run, spans):
    """Start `jtune serve` on an ephemeral loopback port with a fresh state
    dir, then one `jtune worker`; returns (serve, worker, addr, state dir,
    seconds until the worker was registered)."""
    state = tempfile.mkdtemp(prefix="state-", dir=run.work)
    log_path = state + ".serve.log"
    start = time.perf_counter()
    with open(log_path, "wb") as out:
        serve = run.spawn(
            [run.bin["jtune"], "serve", "--listen", "127.0.0.1:0", "--state-dir", state]
            + (["--spans"] if spans else []),
            stdout=out,
            stderr=subprocess.STDOUT,
        )
    addr = None
    while addr is None:
        with open(log_path) as f:
            line = f.readline()
        if line.endswith("\n"):
            if not line.startswith("listening on "):
                raise Failure(f"jtune serve did not start: {line!r}")
            addr = line.split()[-1]
        elif serve.poll() is not None or time.perf_counter() - start > 30:
            raise Failure("jtune serve did not start listening")
        else:
            time.sleep(0.0005)
    with open(state + ".worker.log", "wb") as out:
        worker = run.spawn(
            [run.bin["jtune"], "worker", "--connect", addr, "--slots", str(WORKER_SLOTS)],
            stdout=out,
            stderr=subprocess.STDOUT,
        )
    code, _, _ = run.call([run.bin["sessionbench"], "ready", "--addr", addr], kind=None)
    if code != 0:
        raise Failure("the worker never registered")
    return serve, worker, addr, state, time.perf_counter() - start


def stop_daemon(run, serve, worker, addr, count):
    """Drain the daemon; the worker exits with it. Both are reaped, and
    counted in the run's cost if `count`."""
    code, _, _ = run.call([run.bin["jtune"], "client", "shutdown", "--addr", addr], kind=None)
    if code != 0:
        serve.kill()
    run.reap(serve, timeout=60, kind="session" if count else None)
    run.reap(worker, timeout=60, kind="worker" if count else None)


def daemon_window(run, seed, spans, records):
    """One daemon and worker serving the closed-loop client load; the
    records go to `records`. Returns (the load's summary, state dir)."""
    serve, worker, addr, state, setup = start_daemon(run, spans)
    argv = [
        "daemon", "--addr", addr, "--seed", str(seed), "--rounds", str(rounds_in(run)),
        "--budget", str(DAEMON_BUDGET_MINS), "--out", records,
    ] + (["--stats"] if spans else [])
    try:
        load = run.helper(*argv)
    finally:
        stop_daemon(run, serve, worker, addr, count=not spans)
    for line in load["listed"]:
        log("daemon:", line)
    log(f"daemon: {load['sessions']} sessions, {load['overloaded_retries']} overloaded retries")
    load["setup_s"] = setup
    return load, state


def daemon_setup(run):
    """One timed start-up of the daemon and its worker, then a drain."""
    serve, worker, addr, _, setup = start_daemon(run, spans=False)
    stop_daemon(run, serve, worker, addr, count=False)
    return setup


def daemon_workload(run):
    setups = setup_probes(run, lambda: daemon_setup(run))
    seed = run.seed()
    load, _ = daemon_window(run, seed, spans=False, records=run.path("records"))
    setups += setup_probes(run, lambda: daemon_setup(run))

    # Outside the timed window: every record must be byte-identical to the
    # one-shot session with the same spec.
    errors = 0
    for spec in load["specs"]:
        code, out, _ = run.call(
            [run.bin["jtune"], "tune", spec["program"], "--budget", str(spec["budget"]),
             "--seed", str(spec["seed"]), "--json"],
            kind=None,
        )
        with open(run.path("records", spec["file"])) as f:
            record = f.read()
        if code != 0 or record != out:
            errors += 1
            log(f"daemon: {spec['file']} differs from one-shot {spec['program']}")
        errors += tsv_from_json(record, run.path("tsv", spec["file"][:-5] + ".tsv"))
    summary = check_records(run, run.path("tsv"), CLI_BATCH)
    result = totals([summary], load["wall_s"], run)
    errors += summary["errors"]
    result.update(
        attempted=load["attempted"],
        failed=load["failed"],
        correct=errors == 0 and load["sessions"] > 0,
        setup_s=statistics.median(setups + [load["setup_s"]]),
    )
    worker_rss_mb = run.peak_rss_mb("worker")
    if run.args.trace:
        # The same sessions again on a daemon with spans on.
        traced, state = daemon_window(run, seed, spans=True, records=run.path("traced"))
        for spec in traced["specs"]:
            with open(run.path("records", spec["file"])) as a, \
                    open(run.path("traced", spec["file"])) as b:
                if a.read() != b.read():
                    errors += 1
                    log(f"daemon: {spec['file']} differs with spans on")
        result["correct"] = result["correct"] and errors == 0
        layers = dict(traced["metrics"])
        layers["core.overspent_trials"] = result["overspent"]
        layers["server.worker_rss_mb"] = worker_rss_mb
        layers["tracing.overhead_s"] = traced["wall_s"] - load["wall_s"]
        events, trace_bytes = 0, 0
        for base, _, files in os.walk(state):
            if "trace.jsonl" in files:
                with open(os.path.join(base, "trace.jsonl"), "rb") as f:
                    data = f.read()
                events += data.count(b"\n")
                trace_bytes += len(data)
        layers["telemetry.events"] = events
        layers["telemetry.trace_mb"] = trace_bytes / 1e6
        _, _, wall = run.call([run.bin["jtune"], "report", state, "--format", "json"], kind=None)
        layers["report.offline_s"] = wall
        result["layers"] = layers
    return result


# --- build, environment, output --------------------------------------------


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = env_with(CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "hotspot-autotuner", "--bin", "jtune",
         "-p", "jtune-experiments", "--bin", "e1_specjvm"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for argv in steps:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise Failure(f"build failed: {' '.join(argv)}")
    release = os.path.join(target, "release")
    return {name: os.path.join(release, name) for name in ("jtune", "e1_specjvm", "sessionbench")}


def describe_environment():
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates"):
        for path in sorted(walk(os.path.join(ROOT, top))):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    print(f"rustc: {rustc}")
    print(f"commit: {commit}")
    print(f"source sha256: {digest.hexdigest()[:16]}")
    print(f"nproc: {os.cpu_count()}")


def walk(path):
    if os.path.isfile(path):
        yield path
    for base, dirs, files in os.walk(path):
        dirs[:] = [d for d in dirs if d != "target"]
        for name in files:
            yield os.path.join(base, name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise Failure("run from a checkout of the repository: no Cargo.toml beside sessionbench/")
    binaries = build()
    describe_environment()
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    run = Run(args, binaries, work)
    signal.signal(signal.SIGTERM, run.terminate)
    try:
        if args.workload == "daemon_remote":
            result = daemon_workload(run)
        elif args.workload == "dacapo_model":
            result = dacapo_workload(run)
        else:
            result = spec_workload(run, traced=args.workload == "spec_traced")
    finally:
        run.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    names = PER_LAYER if args.trace else END_TO_END
    values = result["layers"] if args.trace else result
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit} for name, unit in names.items()
    }
    print(f"sessions: {result['sessions']}, attempted: {result['attempted']}, "
          f"failed: {result['failed']}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except Failure as e:
        log(f"sessionbench: {e}")
        sys.exit(1)
