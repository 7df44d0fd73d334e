#!/usr/bin/env python3
"""Build and run the MedSen benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload spool-flush --seed 1 --seconds 30 --trace 0

It builds perfbench (a Go module of its own that uses the repository's
packages through a replace directive) into .bench_build/, keeping the Go
build cache and temporary files there too, then runs it with the same
arguments. Build output goes to standard error; the benchmark's last line of
standard output is its JSON result. The exit code is the benchmark's, or 1
when the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    ran = subprocess.run([binary, *sys.argv[1:], "--build-dir", build], cwd=root, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
