#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload powerlaw --seed 1 --seconds 36 --trace 0

The Go build cache, the binary, spill files and trace output all live
under .bench_build/ in the checkout. Arguments are passed through to
the benchmark binary, which prints the result as its last line. A failed
build exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=900)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Replace this process, so the benchmark is the only process left
    # running and its exit code is the run's.
    os.execve(binary, [binary, "--out", BUILD] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
