#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload kv_churn --seed 1 --seconds 20 --trace 0

The binary is built into $CARGO_TARGET_DIR (default .bench_build), with the Go
build cache and temporary files kept under the same directory, so building
and running write nothing outside the checkout. All arguments are passed to
the binary; see main.go for their meaning. The last line of standard output
is the result JSON. A failed build exits 1 without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "internal", "live"))):
        print("perfbench: the repository sources (go.mod, internal/) are not "
              "next to perfbench/; nothing to build", file=sys.stderr)
        return 1
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                          os.path.join(ROOT, ".bench_build"))
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(out, "gocache"),
               GOMODCACHE=os.path.join(out, "gomodcache"),
               GOTMPDIR=tmp,
               GOTOOLCHAIN="local",
               GOPROXY="off",
               GOENV="off",
               GOFLAGS="",
               GOWORK="off",
               CGO_ENABLED="0")
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE,
                               env=env, stdout=sys.stderr)
    except OSError as err:
        print(f"perfbench: cannot run the go toolchain: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
