#!/usr/bin/env python3
"""Builds and runs the production-path benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload fig-grid --seed 1 --seconds 20 --trace 0

It builds the `perfbench` driver and the `experiments` binary in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), runs the driver,
and adds `peak_rss_mb` to the driver's JSON result: the largest resident
set of the driver or any process it started, read from the driver's
resource usage once it has exited (the driver waits for its children).
The last line of standard output is the JSON result.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BUILDS = [
    ["--manifest-path", "perfbench/Cargo.toml"],
    ["--manifest-path", "Cargo.toml", "-p", "acic-bench", "--bin", "experiments"],
]


def build(env):
    for extra in BUILDS:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build(env)

    driver = os.path.join(target, "release", "perfbench")
    proc = subprocess.Popen([driver, *sys.argv[1:]], cwd=ROOT, stdout=subprocess.PIPE)
    out = proc.stdout.read().decode()
    proc.stdout.close()
    # wait4 rather than Popen.wait: its resource usage covers the driver
    # and every descendant it waited for.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(out)
        sys.exit(f"perfbench: the driver printed no result (exit {proc.returncode})")
    if not trace_on(sys.argv):
        peak = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        result["metrics"]["peak_rss_mb"] = {"value": peak, "unit": "MiB"}
        lines.insert(-1, f"{'peak_rss_mb':<40} {peak:>16.4f} {'MiB':<12} driver and children")
    print("\n".join(lines[:-1]))
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(proc.returncode)


def trace_on(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            return value == "1"
    return False


if __name__ == "__main__":
    main()
