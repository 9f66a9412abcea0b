#!/usr/bin/env python3
"""Build and run helium's benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0

Builds the perfbench Go module (which imports the repository's packages
through a `replace` of the parent directory) into .bench_build/, keeping
the Go build cache and temporary files there too, then runs it with the given arguments from
the repository root.  The benchmark's own report goes to stdout; its last
line is the JSON result.  Exits non-zero, printing no result, when the
build or the run fails.
"""
import os
import subprocess
import sys

RUN_TIMEOUT_S = 175  # one run must end within 180 s


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        TMPDIR=tmp,
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOENV="off",
        GOTELEMETRY="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("run.py: building perfbench failed", file=sys.stderr)
        return built.returncode or 1
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: perfbench exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
