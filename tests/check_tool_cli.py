#!/usr/bin/env python3
"""Check the exit codes of the five command-line tools.

Runs each tool on command lines that start no server and no thread
pool -- help, unknown options, malformed numbers, unknown studies, an
out-of-range design point, a missing port -- and asserts the shared
exit-code policy (tools/cli.hh): 0 ok, 1 bad usage, 2 invalid input,
3 runtime or I/O failure, 4 internal. Port values and thread counts
are tested in process (tests/test_cli.cc), never here: a wrapped port
binds a daemon, and a wrapped count asks the OS for billions of
threads.

Usage: check_tool_cli.py <directory holding the tools>

Runs as the ToolExitCodes ctest (label ``cli``); exits nonzero with
one line per mismatch.
"""

import os
import subprocess
import sys

TOOLS = ("dse_explore", "dse_simulate", "dse_serve", "dse_simworker",
         "dse_loadgen")
THREAD_FLAGS = {"dse_serve": "--workers", "dse_simworker": "--threads",
                "dse_loadgen": "--connections"}
TIMEOUT_S = 120

# (tool, arguments, exit code, text the stderr line must contain)
CASES = [
    *[(tool, ["--bogus"], 1, "--bogus") for tool in TOOLS],
    # Parsed to 0 once, and 0 means "simulate the whole space".
    ("dse_explore", ["--max-sims=abc", "--describe-space"], 1,
     "--max-sims"),
    ("dse_explore", ["--batch=12x", "--describe-space"], 1, "--batch"),
    ("dse_explore", ["--target-error=abc", "--describe-space"], 1,
     "--target-error"),
    ("dse_explore", ["--predict=-1", "--describe-space"], 1, "--predict"),
    ("dse_explore", ["--study=typo"], 1, "typo"),
    ("dse_serve", ["--study=typo"], 1, "typo"),
    ("dse_serve", ["--train"], 1, "--train"),
    ("dse_simulate", ["--study=typo"], 1, "typo"),
    ("dse_simulate", ["--index=abc"], 1, "--index"),
    ("dse_simulate", ["--study=processor", "Width=abc"], 1, "Width"),
    ("dse_simulate", ["--study=processor", "Width=3"], 1, "Width"),
    ("dse_simulate", ["NoSuchParam=1"], 1, "NoSuchParam"),
    ("dse_simulate", ["--index=99999999"], 2, "out of range"),
    ("dse_simulate", ["--app=nosuchapp", "--index=0"], 2, "nosuchapp"),
    ("dse_loadgen", [], 2, "--port"),
    ("dse_loadgen", ["--points=0"], 1, "--points"),
    ("dse_loadgen", ["--duration=abc"], 1, "--duration"),
    ("dse_explore", ["--describe-space", "--study=memory-system"], 0, ""),
]


def run(tool_dir, tool, args):
    env = dict(os.environ, DSE_THREADS="1")
    env.pop("DSE_JOURNAL", None)
    return subprocess.run([os.path.join(tool_dir, tool), *args], env=env,
                          capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_tool_cli.py <tool directory>", file=sys.stderr)
        return 2
    tool_dir = sys.argv[1]
    problems = []
    for tool in TOOLS:
        for flag in ("--help", "-h"):
            got = run(tool_dir, tool, [flag])
            if got.returncode != 0 or "usage:" not in got.stdout:
                problems.append(f"{tool} {flag}: exit {got.returncode}")
        if tool in THREAD_FLAGS and "at most 1024" not in got.stdout:
            problems.append(f"{tool} --help: {THREAD_FLAGS[tool]} states "
                            "no thread cap")
    for tool, args, code, needle in CASES:
        got = run(tool_dir, tool, args)
        line = f"{tool} {' '.join(args)}"
        if got.returncode != code:
            problems.append(f"{line}: exit {got.returncode}, want {code} "
                            f"({got.stderr.strip()})")
        elif needle not in got.stderr:
            problems.append(f"{line}: stderr does not name '{needle}': "
                            f"{got.stderr.strip()}")
        elif code == 1 and "usage:" not in got.stdout:
            problems.append(f"{line}: no usage text on stdout")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
