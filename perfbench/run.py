#!/usr/bin/env python3
"""Study-level benchmark of the predictive design-space explorer.

Runs one workload through the shipped command-line tools (dse_explore,
dse_serve + dse_loadgen, dse_simworker), checks the outputs, and prints
one JSON result as the last line of stdout:

    python3 perfbench/run.py --workload mem-mcf-active --seed 1 \
        --seconds 55 --trace 0

--trace 0 measures the end-to-end metrics with the programs' metrics
off. --trace 1 reruns the workload with --metrics=<json>, times the
untraced and traced runs alternately, runs the layer probe, and
reports the per-layer metrics. ``--report`` runs every workload both
ways and prints one table; ``--summary`` prints the median, quartiles
and spread of each metric over the recorded runs. Run from the
repository root; the first run builds the tools and the probe into
.bench_build/. See perfbench/README.md for the workloads, metrics and
known limits.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # leave nothing but .bench_build behind
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402

BUILD_DIR = ".bench_build"
WORK_DIR = os.path.join(BUILD_DIR, "perfbench")
PROBE_BUILD = os.path.join(BUILD_DIR, "perfbench-probe")
TOOLS = ("dse_explore", "dse_serve", "dse_loadgen", "dse_simworker")

# Study sizes: every study runs to its cap (--target-error=0), so each
# run of one commit does the same work. Each workload's traced run also
# measures one more layer through the shipped tools: the same study
# against a fresh simulation worker (remote), or a prediction server
# under closed-loop load (serve). Those two paths are not gated: on a
# shared host their run-to-run spread exceeds any bound the study
# times can hold (see README.md).
STUDIES = {
    "mem-mcf-active": dict(study="memory", app="mcf", flags=["--active"],
                           batch=10, max_sims=30, extra="remote"),
    "proc-gzip-simpoint": dict(study="processor", app="gzip",
                               flags=["--simpoint"], batch=50,
                               max_sims=300, extra="serve"),
}
# Closed-loop serve sessions: single-point requests against a model the
# benchmark trains once per source tree, outside every timed window.
SERVE = dict(study="processor", app="gzip", train_sims=100, workers=2,
             connections=2, session_s=2.0)
WORKLOADS = tuple(STUDIES)

# The tools' pool size. Two threads on a host of a few shared cores
# leave room for the runner and the host's other tenants; a pool as wide
# as the machine measured the scheduler (proc-gzip-simpoint's wall-time
# spread was 0.15 at four threads and 0.09 at two, on 4 vCPUs under the
# same background load).
THREADS = 2
SETUP_LAUNCHES = 20   # extra launch-to-ready samples per run
MIN_REPS = 3          # untraced repetitions even on a slow host
EXTRA_SHARE = 0.3     # share of a traced run given to its remote/serve part
CHILD_TIMEOUT_S = 90  # one study or session; a run must end in 180 s

END_TO_END = (
    ("op_wall_ms", "ms"), ("op_cpu_ms", "ms"), ("est_error_pct", "%"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)
PER_LAYER = (
    ("workload.trace_gen_s", "s"),
    ("sim.ns_per_instr", "ns"), ("sim.busy_s", "s"),
    ("sim.executed", "count"), ("sim.requests", "count"),
    ("sim.memo_hits", "count"), ("sim.lookups_per_exec", "ratio"),
    ("simpoint.select_s", "s"), ("simpoint.estimate_ms", "ms"),
    ("simpoint.busy_s", "s"), ("sim.simpoint_estimates", "count"),
    ("study.batch_speedup", "ratio"),
    ("ml.train.s_per_ensemble", "s"), ("ml.train.ns_per_epoch_row", "ns"),
    ("train.busy_s", "s"), ("train.epochs", "count"),
    ("train.folds_trained", "count"), ("train.fold_retries", "count"),
    ("ml.score.ns_per_point", "ns"), ("explore.points_scored", "count"),
    ("ml.score.busy_s", "s"), ("ml.encode.ns_per_point", "ns"),
    ("ml.predict.point_us", "us"), ("ml.io.load_ms", "ms"),
    ("explore.rounds", "count"), ("explore.round_wall_s", "s"),
    ("serve.p50_us", "us"), ("serve.p99_us", "us"), ("serve.rps", "1/s"),
    ("serve.batch_points_mean", "count"),
    ("serve.request_busy_s", "s"), ("serve.overloaded", "count"),
    ("serve.protocol_errors", "count"), ("loadgen.timeouts", "count"),
    ("loadgen.disconnects", "count"), ("loadgen.errors", "count"),
    ("remote.dispatched", "count"), ("remote.retries", "count"),
    ("remote.redispatches", "count"), ("remote.fallbacks", "count"),
    ("remote.worker_points", "count"), ("remote.worker_sim_busy_s", "s"),
    ("remote.worker_sim_lookups_per_exec", "ratio"),
    ("remote.worker_busy_frac", "ratio"),
    ("util.pool_threads", "count"), ("util.pool_busy_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
)


class BenchError(Exception):
    """A fault of the benchmark's environment (build, missing tree)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def tool(name):
    return os.path.join(BUILD_DIR, "tools", name)


def work(name):
    return os.path.join(WORK_DIR, name)


def threads():
    return min(THREADS, nproc())


def child_env():
    """The caller's environment without any DSE_* knob, so only the
    benchmark's own settings reach the programs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DSE_")}
    env["DSE_THREADS"] = str(threads())
    return env


# ------------------------------------------------------------ processes

LIVE = {}  # pid -> Child still to be reaped


class Child:
    """One program run with line-buffered stdout, each line stamped on
    arrival. Reaped with wait4 so its CPU time and peak RSS are its own."""

    def __init__(self, argv, env):
        self.t0 = time.monotonic()
        with open(work("children.log"), "ab") as err:
            self.proc = subprocess.Popen(["stdbuf", "-oL", *argv],
                                         stdout=subprocess.PIPE, stderr=err,
                                         env=env)
        self.pid = self.proc.pid
        LIVE[self.pid] = self
        self.lines = []  # (monotonic time, raw line)
        self.code = None
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in iter(self.proc.stdout.readline, b""):
            self.lines.append((time.monotonic(), line))

    def stdout(self):
        return [line for _, line in self.lines]

    def wait_line(self, pred, timeout=CHILD_TIMEOUT_S):
        """Seconds from launch to the first stdout line matching
        @p pred, or None if the process ends or times out first."""
        deadline = time.monotonic() + timeout
        seen = 0
        while time.monotonic() < deadline:
            for stamp, line in self.lines[seen:]:
                if pred(line):
                    return stamp - self.t0
            seen = len(self.lines)
            if self.exited():
                self.reader.join()
                if len(self.lines) == seen:
                    return None
                continue
            time.sleep(0.0005)
        return None

    def exited(self):
        """Reap the process if it has ended (never via Popen.poll, which
        would reap it without its resource usage)."""
        if self.code is None:
            pid, status, ru = os.wait4(self.pid, os.WNOHANG)
            if pid:
                self._reaped(status, ru)
        return self.code is not None

    def _reaped(self, status, ru):
        self.wall = time.monotonic() - self.t0
        self.code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.code
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        LIVE.pop(self.pid, None)

    def signal(self, sig):
        if self.code is None:
            try:
                os.kill(self.pid, sig)
            except ProcessLookupError:
                pass

    def wait(self, timeout=CHILD_TIMEOUT_S):
        """Reap the process (killing it after @p timeout); records its
        exit code, wall seconds, CPU seconds and peak RSS in MB."""
        # Block in wait4 rather than poll, so the runner takes no CPU
        # from the measured processes; a timer kills a hung one.
        killer = threading.Timer(timeout, self.signal, (signal.SIGKILL,))
        killer.start()
        try:
            while self.code is None:
                _, status, ru = os.wait4(self.pid, 0)
                self._reaped(status, ru)
        finally:
            killer.cancel()
        self.reader.join()
        self.proc.stdout.close()
        return self.code


def reap_all():
    for child in list(LIVE.values()):
        child.signal(signal.SIGKILL)
        child.wait()


def run_logged(argv, log_path):
    """Run a build step; if the runner is interrupted, kill the step's
    whole process group (make and the compilers it started)."""
    with open(log_path, "ab") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            return proc.wait()
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


# ---------------------------------------------------------------- build

def build(root):
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError(f"no {need} here: run from the repository root")
    os.makedirs(WORK_DIR, exist_ok=True)
    build_log = work("build.log")
    jobs = str(nproc())
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", root, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  *TOOLS])
    if not os.path.exists(os.path.join(PROBE_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench", "probe"),
                      "-B", PROBE_BUILD, f"-DDSE_ROOT={root}",
                      f"-DDSE_BUILD={os.path.abspath(BUILD_DIR)}"])
    steps.append(["cmake", "--build", PROBE_BUILD, "-j", jobs])
    for argv in steps:
        if run_logged(argv, build_log) != 0:
            raise BenchError(f"build step failed: {' '.join(argv)} "
                             f"(log: {build_log})")


def fingerprint(root):
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    compiler = bl.cmake_cache_value(cache, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    commit = ""
    if os.path.isdir(os.path.join(root, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True).stdout.strip()
    return {
        "nproc": nproc(), "cpu_model": bl.cpu_model(),
        "compiler": f"{compiler} ({version})",
        "build_type": bl.cmake_cache_value(cache, "CMAKE_BUILD_TYPE"),
        "git_commit": commit or "none (not a git checkout)",
        "source_digest": bl.source_digest(root),
        "DSE_THREADS": threads(),
        "serve_workers": SERVE["workers"],
        "serve_connections": SERVE["connections"],
    }


# ------------------------------------------------------------ run state

class Run:
    """Samples, check outcomes and counts of one benchmark run."""

    def __init__(self, digest, seed):
        self.digest = digest
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup = []
        # (kind, traced, wall s, cpu s) of every repetition; kind is
        # local, remote or serve
        self.samples = []

    def op(self, problem=None):
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(problem)
            log(f"CHECK FAILED: {problem}")

    def cached(self, name, value=None):
        """Per-source-tree cache in the work directory: returns the
        stored value, storing @p value first when none exists."""
        path = work("cache.json")
        try:
            with open(path) as f:
                store = json.load(f)
        except (OSError, ValueError):
            store = {}
        key = f"{self.digest}/{name}"
        if key not in store and value is not None:
            store[key] = value
            with open(path + ".tmp", "w") as f:
                json.dump(store, f)
            os.replace(path + ".tmp", path)
        return store.get(key)


def wait_port_file(path, child, timeout=CHILD_TIMEOUT_S):
    """The port @p child writes to @p path, or None if it never does."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(path) as f:
                text = f.read()
            if text.endswith("\n") and int(text) > 0:
                return int(text)
        except (OSError, ValueError):
            pass
        if child.exited():
            return None
        time.sleep(0.0005)
    return None


def start_daemon(argv, port_file, env):
    """Launch a daemon that reports its port through @p port_file."""
    if os.path.exists(port_file):
        os.remove(port_file)
    child = Child(argv + ["--port=0", f"--port-file={port_file}"], env)
    port = wait_port_file(port_file, child)
    if port is None:
        child.signal(signal.SIGKILL)
        child.wait()
        raise BenchError(f"{os.path.basename(argv[0])} did not start")
    return child, port


def stop_daemon(run, child, name):
    child.signal(signal.SIGTERM)
    code = child.wait(30)
    run.op(None if code == 0 else f"{name} exited {code} on SIGTERM")


def repeat(seconds, rep, min_reps):
    """Call rep(i) until the next call would overrun @p seconds (and at
    least @p min_reps times)."""
    samples, durations = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        samples.append(rep(len(samples)))
        durations.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        if (len(samples) >= min_reps
                and elapsed + bl.median(durations) > seconds):
            return samples


# -------------------------------------------------------------- studies

def explore_argv(w, traced, metrics_path, port=None):
    argv = [tool("dse_explore"), f"--study={w['study']}", f"--app={w['app']}",
            *w["flags"], "--target-error=0", f"--max-sims={w['max_sims']}",
            f"--batch={w['batch']}"]
    if traced:
        argv.append(f"--metrics={metrics_path}")
    if port is not None:
        argv.append(f"--workers=127.0.0.1:{port}")
    return argv


def setup_launch(run, w, env):
    """Launch the local study, record launch-to-header seconds, kill it."""
    explorer = Child(explore_argv(w, False, None), env)
    header = explorer.wait_line(bl.is_header)
    explorer.signal(signal.SIGKILL)
    explorer.wait()
    if header is None:
        run.op("study printed no header line")
    else:
        run.setup.append(header)


def study_rep(run, w, env, traced, remote=False):
    """One whole dse_explore study, against a fresh simulation worker
    when @p remote. Returns its sample dict."""
    metrics_path = work("explore.metrics.json")
    worker_metrics = work("worker.metrics.json")
    for path in (metrics_path, worker_metrics):
        if os.path.exists(path):
            os.remove(path)
    worker, port = None, None
    try:
        if remote:
            argv = [tool("dse_simworker")]
            if traced:
                argv.append(f"--metrics={worker_metrics}")
            worker, port = start_daemon(argv, work("worker.port"), env)
        explorer = Child(explore_argv(w, traced, metrics_path, port), env)
        code = explorer.wait()
    finally:
        if worker is not None:
            stop_daemon(run, worker, "dse_simworker")

    lines = explorer.stdout()
    estimate, problem = bl.check_study_stdout(lines, w["batch"],
                                              w["max_sims"])
    if code != 0:
        problem = f"dse_explore exited {code}"
    run.op(problem)
    # dse_explore prints its round lines only after the last round, so
    # the stamps bound the whole exploration, not each round.
    stamps = [t for t, line in explorer.lines
              if bl.is_header(line) or bl.DONE_RE.match(line)]
    rounds = sum(1 for line in lines if bl.is_round(line))
    sample = {
        "wall": explorer.wall,
        "cpu": explorer.cpu + (worker.cpu if worker else 0.0),
        "rss_mb": explorer.rss_mb + (worker.rss_mb if worker else 0.0),
        "explorer_cpu": explorer.cpu,
        "estimate": estimate,
        "stdout": b"".join(bl.strip_remote_lines(lines)),
        "round_wall": ((stamps[-1] - stamps[0]) / rounds
                       if len(stamps) == 2 and rounds else 0.0),
        "traced": traced,
    }
    run.samples.append(("remote" if remote else "local", traced,
                        sample["wall"], sample["cpu"]))
    if traced and code == 0:
        with open(metrics_path) as f:
            sample["obs"] = bl.parse_obs_json(f.read())
        if worker:
            with open(worker_metrics) as f:
                sample["worker_obs"] = bl.parse_obs_json(f.read())
            sample["worker_cpu"] = worker.cpu
    return sample


def study_key(w):
    """Cache key of a study's configuration; the local and remote
    variants of one study share it."""
    return "/".join([w["study"], w["app"], *w["flags"], str(w["max_sims"]),
                     str(w["batch"])])


def check_identity(run, w, samples):
    """Every repetition's stdout (minus remote: lines) must equal the
    first local study's stdout for this source tree, byte for byte."""
    ref = run.cached("local-stdout/" + study_key(w),
                     samples[0]["stdout"].decode())
    for s in samples:
        diff = bl.identity_diff(ref.encode(), s["stdout"])
        run.op(f"stdout differs from the local study: {diff}" if diff
               else None)


def check_drift(run, w, kind, samples):
    """Deterministic counters of every traced repetition must equal the
    first recorded for this source tree and @p kind of run."""
    counters = []
    for s in samples:
        c = {n: s["obs"].counter(n) for n in bl.DETERMINISTIC_COUNTERS}
        if "worker_obs" in s:
            c["remote.worker_points"] = s["worker_obs"].counter(
                "remote.worker_points")
        counters.append(c)
    reference = run.cached(f"counters/{study_key(w)}/{kind}", counters[0])
    for c in counters:
        drift = bl.counter_drift(reference, c)
        run.op(f"deterministic counters drifted: {drift}" if drift else None)
    return counters[0]


def traced_reps(reps):
    """The traced repetitions that wrote their metrics reports (a failed
    one is already counted as a failure)."""
    traced = [s for s in reps if s["traced"] and "obs" in s]
    if not traced:
        raise BenchError("no traced repetition wrote a metrics report")
    return traced


def run_study(run, name, seconds, trace, env):
    w = STUDIES[name]
    # The launches also warm the page cache for the timed repetitions.
    for _ in range(SETUP_LAUNCHES):
        setup_launch(run, w, env)
    if not trace:
        reps = repeat(seconds, lambda i: study_rep(run, w, env, False),
                      MIN_REPS)
    else:
        reps = repeat((1 - EXTRA_SHARE) * seconds,
                      lambda i: study_rep(run, w, env, i % 2 == 1), 2 * 2)
    check_identity(run, w, reps)
    plain = [s for s in reps if not s["traced"]]
    wall = bl.median([s["wall"] for s in plain])
    estimates = [s["estimate"] for s in reps if s["estimate"] is not None]
    if not estimates:
        raise BenchError("no study reported an estimate")
    metrics = {
        "op_wall_ms": 1e3 * wall,
        "op_cpu_ms": 1e3 * bl.median([s["cpu"] for s in plain]),
        "est_error_pct": estimates[0],
        "peak_rss_mb": bl.median([s["rss_mb"] for s in plain]),
        "setup_s": bl.median(run.setup),
    }
    if not trace:
        return metrics, {}

    traced = traced_reps(reps)
    obs = [s["obs"] for s in traced]
    counters = check_drift(run, w, "local", traced)
    o = obs[0]
    traced_wall = bl.median([s["wall"] for s in traced])
    pool = o.gauge("pool.threads") or threads()
    layer = {
        "sim.busy_s": bl.median([x.hist_sum_s("sim.wall_ns") for x in obs]),
        "sim.executed": counters["sim.executed"],
        "sim.requests": counters["sim.requests"],
        "sim.memo_hits": o.counter("sim.memo_hits"),
        "simpoint.busy_s": bl.median(
            [x.hist_sum_s("sim.simpoint_wall_ns") for x in obs]),
        "sim.simpoint_estimates": o.counter("sim.simpoint_estimates"),
        "train.busy_s": bl.median(
            [x.hist_sum_s("train.fold_wall_ns") for x in obs]),
        "train.epochs": counters["train.epochs"],
        "train.folds_trained": counters["train.folds_trained"],
        "train.fold_retries": o.counter("train.fold_retries"),
        "explore.points_scored": counters["explore.points_scored"],
        "ml.score.busy_s": bl.median(
            [x.hist_sum_s("explore.score_wall_ns") for x in obs]),
        "explore.rounds": o.counter("explore.rounds"),
        "explore.round_wall_s": bl.median([s["round_wall"] for s in traced]),
        "util.pool_threads": pool,
        "util.pool_busy_frac": bl.median(
            [s["explorer_cpu"] / (s["wall"] * pool) for s in traced]),
        "trace_overhead_frac": traced_wall / wall - 1.0,
    }
    layer["sim.lookups_per_exec"] = (
        layer["sim.requests"] / layer["sim.executed"]
        if layer["sim.executed"] else 0.0)
    model = None
    if w["extra"] == "remote":
        layer.update(remote_layer(run, w, env, seconds))
    else:
        model = serve_model(run, env)
        layer.update(serve_layer(run, model, env, seconds))
    layer.update(probe(run, w["study"], w["app"], model))
    if layer["explore.points_scored"]:
        share = layer["ml.score.busy_s"] / traced_wall
        log(f"note: committee scoring is {100 * share:.4f}% of the traced "
            f"study wall time; at that share no scoring change can move "
            f"op_wall_ms.")
    return metrics, layer


def remote_layer(run, w, env, seconds):
    """The study against a fresh dse_simworker per repetition, traced on
    both sides; its stdout must match the local study's."""
    reps = repeat(EXTRA_SHARE * seconds,
                  lambda i: study_rep(run, w, env, True, remote=True), 2)
    check_identity(run, w, reps)
    reps = traced_reps(reps)
    check_drift(run, w, "remote", reps)
    obs = [s["obs"] for s in reps]
    wobs = [s["worker_obs"] for s in reps]
    o, wo = obs[0], wobs[0]
    pool = wo.gauge("pool.threads") or threads()
    return {
        "remote.dispatched": o.counter("remote.dispatched"),
        "remote.retries": o.counter("remote.retries"),
        "remote.redispatches": o.counter("remote.redispatches"),
        "remote.fallbacks": o.counter("remote.fallbacks"),
        "remote.worker_points": wo.counter("remote.worker_points"),
        "remote.worker_sim_busy_s": bl.median(
            [x.hist_sum_s("sim.wall_ns") for x in wobs]),
        "remote.worker_sim_lookups_per_exec": (
            wo.counter("sim.requests") / wo.counter("sim.executed")
            if wo.counter("sim.executed") else 0.0),
        # About 1/pool: the worker simulates one point at a time.
        "remote.worker_busy_frac": bl.median(
            [s["worker_cpu"] / (s["wall"] * pool) for s in reps]),
    }


# ---------------------------------------------------------------- serve

def serve_model(run, env):
    """Train (once per source tree) the model the serve sessions use;
    returns its path."""
    path = work(f"serve-{run.digest}.model")
    if run.cached("serve-model") and os.path.exists(path):
        return path
    w = dict(study=SERVE["study"], app=SERVE["app"], flags=[],
             batch=SERVE["train_sims"], max_sims=SERVE["train_sims"])
    child = Child(explore_argv(w, False, None) + [f"--save-model={path}"],
                  env)
    code = child.wait()
    _, problem = bl.check_study_stdout(child.stdout(), w["batch"],
                                       w["max_sims"])
    if code != 0 or problem:
        raise BenchError(f"training the serve model failed: {problem}")
    run.cached("serve-model", path)
    return path


def serve_session(run, model, env, traced):
    """A fresh dse_serve under closed-loop load for one session."""
    metrics_path = work("serve.metrics.json")
    report = work("loadgen.json")
    for path in (metrics_path, report):
        if os.path.exists(path):
            os.remove(path)
    argv = [tool("dse_serve"), f"--model={model}",
            f"--study={SERVE['study']}", f"--workers={SERVE['workers']}"]
    if traced:
        argv.append(f"--metrics={metrics_path}")
    port_file = work("serve.port")
    server, _ = start_daemon(argv, port_file, env)
    try:
        duration = SERVE["session_s"]
        load = Child([tool("dse_loadgen"), f"--port-file={port_file}",
                      f"--connections={SERVE['connections']}",
                      "--points=1", f"--duration={duration}",
                      "--requests=0", f"--json={report}"], env)
        load_code = load.wait(duration + CHILD_TIMEOUT_S)
    finally:
        stop_daemon(run, server, "dse_serve")
    if load_code != 0:
        raise BenchError(f"dse_loadgen exited {load_code}")
    with open(report) as f:
        lg = bl.parse_loadgen_json(f.read())
    bad = (lg["errors"] + lg["timeouts"] + lg["overloaded"]
           + lg["disconnects"] + lg["connect_failures"])
    run.attempted += lg["iterations"] + bad
    if bad:
        run.failed += bad
        run.problems.append(f"loadgen outcomes: {lg}")
        log(f"CHECK FAILED: loadgen reported failures: {lg}")
    sample = {"lg": lg, "traced": traced}
    run.samples.append(("serve", traced, load.wall, server.cpu + load.cpu))
    if traced:
        with open(metrics_path) as f:
            sample["obs"] = bl.parse_obs_json(f.read())
    return sample


def serve_layer(run, model, env, seconds):
    samples = repeat(EXTRA_SHARE * seconds,
                     lambda i: serve_session(run, model, env, i % 2 == 1),
                     2 * 2)
    plain = [s for s in samples if not s["traced"]]
    traced = traced_reps(samples)
    obs = [s["obs"] for s in traced]

    def lg_median(key, scale=1.0):
        return bl.median([s["lg"][key] for s in plain]) * scale

    return {
        "serve.p50_us": lg_median("latency_p50_ns", 1e-3),
        "serve.p99_us": lg_median("latency_p99_ns", 1e-3),
        "serve.rps": lg_median("requests_per_second"),
        "serve.batch_points_mean": bl.median(
            [x.hist_mean("serve.batch_points") for x in obs]),
        # Point predictions are served by the coalescing batch path;
        # other requests one by one. Together: time spent serving.
        "serve.request_busy_s": bl.median(
            [x.hist_sum_s("serve.request_wall_ns")
             + x.hist_sum_s("serve.batch_wall_ns") for x in obs]),
        "serve.overloaded": sum(x.counter("serve.overloaded") for x in obs),
        "serve.protocol_errors": sum(
            x.counter("serve.protocol_errors") for x in obs),
        "loadgen.timeouts": sum(s["lg"]["timeouts"] for s in samples),
        "loadgen.disconnects": sum(s["lg"]["disconnects"] for s in samples),
        "loadgen.errors": sum(s["lg"]["errors"] for s in samples),
    }


# ---------------------------------------------------------------- probe

def probe(run, study, app, model):
    argv = [os.path.join(PROBE_BUILD, "dse_layer_probe"), f"--study={study}",
            f"--app={app}", f"--seed={run.seed}", f"--work-dir={WORK_DIR}"]
    if model:
        argv.append(f"--model={model}")
    child = Child(argv, child_env())
    code = child.wait()
    out = b"".join(child.stdout()).decode().strip().splitlines()
    if not out:
        raise BenchError(f"layer probe exited {code} without a result")
    result = json.loads(out[-1])
    run.op(None if code == 0 and result.pop("check") == "ok"
           else f"layer probe check failed (exit {code})")
    return result


# ---------------------------------------------------------------- main

def run_workload(root, name, seed, seconds, trace):
    os.makedirs(WORK_DIR, exist_ok=True)
    open(work("children.log"), "wb").close()
    host = fingerprint(root)
    run = Run(host["source_digest"], seed)
    metrics, layer = run_study(run, name, seconds, trace, child_env())
    names, values = (PER_LAYER, layer) if trace else (END_TO_END, metrics)
    out = {n: {"value": float(values.get(n, 0.0)), "unit": u}
           for n, u in names}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host, "end_to_end": metrics, "per_layer": layer,
        "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems, "samples": run.samples,
    }
    os.makedirs(work("results"), exist_ok=True)
    with open(work(f"results/{name}-seed{seed}-trace{trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    return record, {
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed, "metrics": out,
    }


# Familiar names of the end-to-end metrics.
NAMED = (
    ("study_wall_s", "s", lambda m: m["op_wall_ms"] / 1e3),
    ("study_cpu_s", "s", lambda m: m["op_cpu_ms"] / 1e3),
    ("est_error_pct", "%", lambda m: m["est_error_pct"]),
    ("setup_s", "s", lambda m: m["setup_s"]),
    ("peak_rss_mb", "MB", lambda m: m["peak_rss_mb"]),
)


def describe(record):
    """Human-readable lines: host, named metrics with units, checks."""
    lines = [f"host: {json.dumps(record['host'], sort_keys=True)}"]
    for label, unit, get in NAMED:
        lines.append(f"  {label:<34} {get(record['end_to_end']):>14.6g} "
                     f"{unit}")
    frac = record["failed"] / max(record["attempted"], 1)
    lines.append(f"  {'failed_frac':<34} {frac:>14.6g} "
                 f"({record['failed']}/{record['attempted']})")
    for name, unit in PER_LAYER if record["trace"] else ():
        value = record["per_layer"].get(name, 0.0)
        lines.append(f"  {name:<34} {value:>14.6g} {unit}")
    lines += [f"  problem: {p}" for p in record["problems"]]
    return lines


def report(root, seed, seconds):
    """Every workload, untraced then traced, as one table."""
    failed = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            record, result = run_workload(root, name, seed, seconds, trace)
            print(f"== {name} (trace {trace})")
            print("\n".join(describe(record)), flush=True)
            failed += result["failed"]
    return 0 if failed == 0 else 1


def summary():
    """Median, quartiles and spread of every metric over the recorded
    runs, per workload and trace mode (the acceptance rule's figures)."""
    groups = {}
    results = work("results")
    for name in sorted(os.listdir(results)) if os.path.isdir(results) else ():
        with open(os.path.join(results, name)) as f:
            r = json.load(f)
        values = r["per_layer"] if r["trace"] else r["end_to_end"]
        for metric, value in values.items():
            groups.setdefault((r["workload"], r["trace"], metric),
                              []).append(value)
    for (workload, trace, metric), values in sorted(groups.items()):
        q1, mid, q3 = bl.quartiles(values)
        print(f"{workload:<20} trace {trace} {metric:<34} n={len(values):<3}"
              f" median {mid:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
              f" spread {bl.spread(values):.4f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--summary", action="store_true",
                        help="summarize the recorded runs; run nothing")
    args = parser.parse_args()
    if args.summary:
        return summary()
    if not args.report and not args.workload:
        parser.error("--workload, --report or --summary is required")

    def on_signal(signum, _frame):
        raise KeyboardInterrupt(f"signal {signum}")
    signal.signal(signal.SIGTERM, on_signal)

    root = os.getcwd()
    try:
        build(root)
        if args.report:
            return report(root, args.seed, args.seconds)
        record, result = run_workload(root, args.workload, args.seed,
                                      args.seconds, args.trace)
        print("\n".join(describe(record)))
        print(json.dumps(result), flush=True)
        return 0
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        return 2
    except KeyboardInterrupt as e:
        log(f"perfbench: interrupted ({e})")
        return 130
    finally:
        reap_all()


if __name__ == "__main__":
    sys.exit(main())
