#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 25 --trace 0

The Go program in this directory is built against the checkout's own
module (go.mod here replaces `repro` with the parent directory), with
the build cache and the binary under .bench_build/ in the checkout, and
then run with the same arguments. Its standard output (whose last line
is the result object) and its exit code pass through unchanged.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170  # a run ends within this, build excluded


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: run from the root of a checkout of the repository "
              "(no go.mod here)", file=sys.stderr)
        return 2
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOMODCACHE": os.path.join(out, "gomodcache"),
        "GOTMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
