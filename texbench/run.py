#!/usr/bin/env python3
"""Build and run texbench, the repository's benchmark.

Run from the repository root:

    python3 texbench/run.py --workload village-sweep --seed 1 --seconds 40 --trace 0
    python3 texbench/run.py compare old.json new.json

The Go program in this directory is built into .bench_build/ at the
repository root, with its Go build cache, temporary files and module
state there too, so a run writes nothing outside the checkout. Build
output goes to standard error; the program's standard output passes
through unchanged, and its last line is the run's JSON result. Cached
references go to texbench/.cache/ and full result records and Chrome
traces to texbench/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
    }
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env.update(dirs)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off",
               CGO_ENABLED="0")
    return env


def main():
    env = go_env()
    binary = os.path.join(BUILD, "texbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("texbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if not args or args[0] != "compare":
        args = ["-cache-dir", os.path.join(HERE, ".cache"),
                "-out", os.path.join(HERE, "out")] + args
    return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
