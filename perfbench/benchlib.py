"""Pure helpers of the study-level benchmark: statistics, parsers for the
programs' JSON reports and stdout, the correctness checks, and the host
fingerprint. Nothing here starts a process, so it is unit-tested on its
own (``python3 -m unittest discover -s perfbench``).
"""

import hashlib
import json
import math
import os
import re
import statistics

# Work counters that are a pure function of the study's inputs: every
# traced run of one source tree must report the same values.
DETERMINISTIC_COUNTERS = (
    "sim.executed",
    "sim.requests",
    "train.epochs",
    "train.folds_trained",
    "explore.points_scored",
    "remote.worker_points",
)


# ---------------------------------------------------------------- stats

def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """First quartile, median, third quartile, as the acceptance rule
    computes them (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median (0 for values
    that never vary, even when they are all 0)."""
    q1, _, q3 = quartiles(values)
    mid = median(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(mid) if mid else math.inf


# -------------------------------------------------------------- parsers

class ObsReport:
    """A dse::obs ``--metrics=<json>`` report. Names the program never
    registered read as zero, as in MetricsSnapshot."""

    def __init__(self, counters, gauges, histograms):
        self.counters = counters
        self.gauges = gauges
        self.histograms = histograms

    def counter(self, name):
        return self.counters.get(name, 0)

    def gauge(self, name):
        return self.gauges.get(name, 0)

    def hist_sum_s(self, name):
        """Sum of a nanosecond histogram, in seconds."""
        return self.histograms.get(name, {}).get("sum", 0) / 1e9

    def hist_mean(self, name):
        h = self.histograms.get(name, {})
        return h["sum"] / h["count"] if h.get("count") else 0.0


def parse_obs_json(text):
    doc = json.loads(text)
    counters = doc.get("counters")
    gauges = doc.get("gauges")
    hists = doc.get("histograms")
    if not all(isinstance(x, dict) for x in (counters, gauges, hists)):
        raise ValueError("obs report lacks counters/gauges/histograms")
    for name, value in list(counters.items()) + list(gauges.items()):
        if not isinstance(value, int):
            raise ValueError(f"obs metric {name} is not an integer")
    for name, h in hists.items():
        if not all(isinstance(h.get(k), int) for k in ("count", "sum")):
            raise ValueError(f"obs histogram {name} lacks count/sum")
    return ObsReport(counters, gauges, hists)


LOADGEN_FIELDS = (
    "iterations", "requests_per_second", "latency_p50_ns",
    "latency_p99_ns", "overloaded", "timeouts",
    "disconnects", "connect_failures", "errors",
)


def parse_loadgen_json(text):
    """The single entry of a ``dse_loadgen --json`` report, as a dict
    of the fields the benchmark reads."""
    doc = json.loads(text)
    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or len(benches) != 1:
        raise ValueError("loadgen report must hold one benchmark entry")
    entry = benches[0]
    missing = [k for k in LOADGEN_FIELDS if k not in entry]
    if missing:
        raise ValueError(f"loadgen report lacks {', '.join(missing)}")
    return {k: entry[k] for k in LOADGEN_FIELDS}


HEADER_RE = re.compile(rb"^\S+ study, \S+: \d+ design points, "
                       rb"\d+-instruction trace$")
ROUND_RE = re.compile(rb"^ +(\d+) sims: estimated error (\S+)% "
                      rb"\+- (\S+)%$")
DONE_RE = re.compile(rb"^done: (\d+) simulations")


def is_header(line):
    return HEADER_RE.match(line.rstrip(b"\n")) is not None


def is_round(line):
    return ROUND_RE.match(line.rstrip(b"\n")) is not None


def check_study_stdout(lines, batch, max_sims):
    """Check a dse_explore run that must reach its simulation cap.

    @p lines are the raw stdout lines (bytes). Every round up to the cap
    must be printed, then ``done: <cap> simulations``, and the final
    estimate must be finite.
    @return (final estimated mean error in percent, None) on success,
            (None, reason) on failure
    """
    body = [l.rstrip(b"\n") for l in lines if not l.startswith(b"remote:")]
    if not body or not is_header(body[0]):
        return None, "no study header line"
    totals, estimate = [], None
    done = None
    for line in body[1:]:
        m = ROUND_RE.match(line)
        if m:
            totals.append(int(m.group(1)))
            estimate = float(m.group(2))
            continue
        m = DONE_RE.match(line)
        if m:
            done = int(m.group(1))
    want = list(range(batch, max_sims + 1, batch))
    if totals != want:
        return None, f"rounds {totals}, expected {want}"
    if done != max_sims:
        return None, f"done line reports {done}, expected {max_sims}"
    if estimate is None or not math.isfinite(estimate):
        return None, "final estimate is not finite"
    return estimate, None


def strip_remote_lines(lines):
    return [l for l in lines if not l.startswith(b"remote:")]


def identity_diff(expected, actual):
    """None when two byte strings are identical, else a one-line
    description of the first difference."""
    if expected == actual:
        return None
    n = min(len(expected), len(actual))
    at = next((i for i in range(n) if expected[i] != actual[i]), n)
    return (f"outputs differ at byte {at} "
            f"(lengths {len(expected)} and {len(actual)})")


def counter_drift(reference, observed, names=DETERMINISTIC_COUNTERS):
    """Deterministic counters whose values differ between two runs of
    one source tree, as (name, reference, observed) triples."""
    return [(n, reference.get(n, 0), observed.get(n, 0)) for n in names
            if reference.get(n, 0) != observed.get(n, 0)]


# ---------------------------------------------------------- fingerprint

def source_digest(root):
    """SHA-256 over the program's sources and build files: identifies
    "one commit" when the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cmake_cache_value(cache_path, key):
    try:
        with open(cache_path) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"
