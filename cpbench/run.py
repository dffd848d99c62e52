#!/usr/bin/env python3
"""Build cpbench from source and run one workload.

usage (from the root of a source checkout):
  python3 cpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The executable is built with dune inside the checkout (``_build``), with
the shared dune cache off so nothing is written outside it, then run with
the same arguments.  Its last stdout line is the result object.  Exits
non-zero, without a result, when the checkout has no sources to build.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./cpbench/cpbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "cpbench", "cpbench.exe")

BUILD_TIMEOUT_S = 700  # a cold build of the libraries the benchmark links
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no process outlives this script."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("cpbench: %s timed out after %d s\n" % (cmd[0], timeout))
        return 124


def main():
    sources = [os.path.join(ROOT, "dune-project"), os.path.join(ROOT, "lib", "core", "fs.ml")]
    missing = [p for p in sources if not os.path.exists(p)]
    if missing:
        sys.stderr.write("cpbench: not a source checkout (missing %s)\n" % ", ".join(missing))
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    # dune's own output goes to stderr: stdout carries only the result
    rc = run(["dune", "build", "--root", ROOT, TARGET], BUILD_TIMEOUT_S, env=env,
             stdout=sys.stderr)
    if rc != 0:
        sys.stderr.write("cpbench: build failed (%d)\n" % rc)
        return rc
    return run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
