#!/usr/bin/env python3
"""Build the PATA benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload scan-linux --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and every file the benchmark writes stay
under .bench_build/ in the current directory. Arguments are passed to the
benchmark unchanged; its last line of output is the JSON result. The exit
code is non-zero, and no result is printed, when the build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update(
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=here, env=env, stdout=sys.stderr, timeout=850,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=175)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
