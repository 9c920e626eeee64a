#!/usr/bin/env python3
"""Build the ConAir benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload harden --seed 1 --seconds 10 --trace 0

Every flag is passed to the Go benchmark in perfbench/ (see main.go). The
binary, the Go build cache and the trace files go under .bench_build/ in
the repository root, so the run reads and writes nothing outside it. The
last line of standard output is the result as one JSON object.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env():
    """Environment that keeps every Go cache and temporary file in BUILD."""
    env = dict(os.environ)
    for key, sub in [
        ("GOCACHE", "go-cache"),
        ("GOMODCACHE", "go-mod"),
        ("GOPATH", "go-path"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        # The go command keeps its env file and telemetry counters under
        # the user config directory.
        ("XDG_CONFIG_HOME", "config"),
    ]:
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = ""
    env["CGO_ENABLED"] = "0"
    return env


def find_go():
    go = shutil.which("go")
    if go is None and os.path.exists("/usr/local/go/bin/go"):
        go = "/usr/local/go/bin/go"
    if go is None:
        fail("no go toolchain on PATH")
    return go


def build():
    """Build the benchmark binary and return its path."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "internal")):
        fail("the ConAir sources (go.mod, internal/) are not next to perfbench/")
    out_dir = os.path.join(BUILD, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(out_dir, "perfbench")
    tmp = binary + ".%d.tmp" % os.getpid()
    proc = subprocess.run([find_go(), "build", "-o", tmp, "."], cwd=HERE, env=go_env())
    if proc.returncode != 0:
        fail("build failed")
    os.replace(tmp, binary)
    return binary


def main():
    binary = build()
    sys.stdout.flush()
    os.chdir(ROOT)
    # Replace this process, so the benchmark's exit code is the run's and
    # no child outlives the run.
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
