"""Build and run the end-to-end ATPG benchmark.

    python3 perfbench/run.py --workload cssg_heavy --seed 1 --seconds 30 --trace 0

Run from the repository root.  Builds perfbench/main.exe with dune (the
build is not timed), then runs it with the given arguments; its last
stdout line is the JSON result.  Exits non-zero, without a result, when
the build fails or the benchmark does not finish in time.
"""

import os
import signal
import subprocess
import sys

LIMIT_S = 170


def main():
    if not os.path.exists("dune-project"):
        sys.exit("perfbench: run from the repository root (no dune-project here)")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    # Measure on one CPU (the build above used them all): the serve
    # client and its daemon then hand each request over without a
    # cross-CPU wake-up, and no run migrates between CPUs.  The
    # benchmark and its daemon inherit the mask, so host_cores is 1.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # own process group, so a kill also reaches the daemon it starts
    proc = subprocess.Popen([exe] + sys.argv[1:], start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = proc.wait(timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        stop(proc)
        sys.exit("perfbench: timed out after %d s" % LIMIT_S)
    except BaseException:
        stop(proc)
        raise
    sys.exit(code)


def stop(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


if __name__ == "__main__":
    main()
