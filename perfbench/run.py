#!/usr/bin/env python3
"""Builds the dpstore benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the source
tree root; the load generator then runs from that root, where it keeps its
sockets and data directories under .bench_run/<pid> and its traced-run
output under .bench_out/. The load generator's last stdout line is the
result JSON. See perfbench/README.md.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the load generator; build logs go to stderr."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            **quiet)
        if rc != 0:
            return False
    rc = subprocess.call(
        ["cmake", "--build", build_dir, "-j4", "--target", "perfbench_loadgen"],
        **quiet)
    return rc == 0


def main():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print("perfbench: no dpstore source tree next to perfbench/ "
                  "(missing %s)" % needed, file=sys.stderr)
            return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    proc = subprocess.Popen([os.path.join(build_dir, "perfbench_loadgen")] +
                            sys.argv[1:], cwd=ROOT)

    def forward(signum, _frame):
        proc.send_signal(signum)

    for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, forward)
    rc = proc.wait()
    # The load generator removes its run directory itself; this covers a
    # load generator that was killed outright.
    run_root = os.path.join(ROOT, ".bench_run")
    shutil.rmtree(os.path.join(run_root, str(proc.pid)), ignore_errors=True)
    try:
        os.rmdir(run_root)
    except OSError:
        pass
    return rc


if __name__ == "__main__":
    sys.exit(main())
