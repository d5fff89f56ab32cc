#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze-scale --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --manifest > BENCHMARK.json

It builds the perfbench and mcs-serve binaries into .bench_build/ (the Go
build cache lives there too, so nothing is written outside the checkout),
then runs perfbench with the given arguments. It exits non-zero without a
result when the build fails, for example when the repository sources are
missing.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomod"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOENV="off",
        GOFLAGS="-mod=mod",
    )
    return env


def build():
    env = go_env()
    for out, pkg in (("perfbench", "."), ("mcs-serve", "mcspeedup/cmd/mcs-serve")):
        r = subprocess.run(["go", "build", "-o", os.path.join(BIN, out), pkg],
                           cwd=HERE, env=env, timeout=850)
        if r.returncode != 0:
            sys.stderr.write("perfbench: building %s failed\n" % pkg)
            return False
    return True


def main():
    if not build():
        return 1
    cmd = [os.path.join(BIN, "perfbench"),
           "--serve-bin", os.path.join(BIN, "mcs-serve"),
           "--out", os.path.join(ROOT, ".bench_out")] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
