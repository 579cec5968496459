#!/usr/bin/env python3
"""Pin the deterministic work counters of two shipped study runs.

Runs ``dse_explore --metrics=<json>`` on the two study command lines
the study benchmark drives (perfbench/run.py) and asserts every
deterministic counter -- simulation requests and executions, epochs,
folds, scored points -- and the last round's estimated error exactly.
The counters are pure functions of the command line at any thread
count, so a refactor that changes how many simulations or epochs a
study costs, or what it converges to, fails here on any host.

Usage: check_study_counters.py <path to dse_explore>

Runs as the StudyCountersPinned ctest (label ``counters``); exits
nonzero with one line per mismatch.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

MEMORY = ["--study=memory", "--app=mcf", "--active", "--target-error=0",
          "--max-sims=30", "--batch=10"]
PROCESSOR = ["--study=processor", "--app=gzip", "--simpoint",
             "--target-error=0", "--max-sims=300", "--batch=50"]

# (name, DSE_THREADS, arguments, pinned counters, last round's estimate)
CASES = [
    ("memory/mcf active", "2", MEMORY,
     {"sim.requests": 30, "sim.memo_hits": 0, "sim.executed": 30,
      "train.epochs": 18960, "train.folds_trained": 30,
      "explore.points_scored": 1000}, "45.95%"),
    ("memory/mcf active", "1", MEMORY,
     {"sim.requests": 30, "sim.memo_hits": 0, "sim.executed": 30,
      "train.epochs": 18960, "train.folds_trained": 30,
      "explore.points_scored": 1000}, "45.95%"),
    ("processor/gzip simpoint", "2", PROCESSOR,
     {"sim.requests": 1, "sim.executed": 1,
      "sim.simpoint_requests": 300, "sim.simpoint_estimates": 300,
      "train.epochs": 91820, "train.folds_trained": 60}, "1.55%"),
]

ROUND = re.compile(r"estimated error (\S+%)")


def check(explore, name, threads, args, want, last_round):
    """Run one case; return a list of mismatch lines."""
    label = f"{name} (DSE_THREADS={threads})"
    env = dict(os.environ, DSE_THREADS=threads)
    env.pop("DSE_JOURNAL", None)
    with tempfile.TemporaryDirectory() as tmp:
        metrics = os.path.join(tmp, "metrics.json")
        run = subprocess.run([explore, *args, f"--metrics={metrics}"],
                             env=env, capture_output=True, text=True,
                             timeout=300)
        if run.returncode != 0:
            return [f"{label}: dse_explore exited {run.returncode}: "
                    f"{run.stderr.strip()}"]
        with open(metrics) as f:
            counters = json.load(f)["counters"]
    problems = []
    for key, value in want.items():
        got = counters.get(key, 0)
        if got != value:
            problems.append(f"{label}: {key} = {got}, pinned {value}")
    rounds = ROUND.findall(run.stdout)
    if not rounds or rounds[-1] != last_round:
        problems.append(f"{label}: last round estimated error "
                        f"{rounds[-1] if rounds else 'missing'}, "
                        f"pinned {last_round}")
    return problems


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_study_counters.py <dse_explore>",
              file=sys.stderr)
        return 2
    problems = []
    for case in CASES:
        problems += check(sys.argv[1], *case)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
