#!/usr/bin/env python3
"""Build and run the GreenFPGA service benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hit-replay --seed 1 --seconds 10 --trace 0

The Go benchmark (a module of its own in this directory, built against
the repository's source through a replace directive) is compiled into
.bench_build/ with its build cache, temporary files and stores kept
there too, so a run reads and writes only inside the checkout. All
arguments are passed through to the benchmark binary; its last line of
standard output is the JSON report.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOPATH": os.path.join(build, "gopath"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    args = sys.argv[1:]
    if not any(a == "--work-dir" or a.startswith("--work-dir=") for a in args):
        args = args + ["--work-dir", build]
    return subprocess.run([binary] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
