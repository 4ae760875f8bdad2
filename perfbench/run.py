"""The repository benchmark: one run of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig6-search --seed 1 --seconds 20 --trace 0

Workloads: ``fig6-search``, ``table1-cli``, ``serve-mix``, ``parallel``
(see README.md in this directory). The run builds the checkout's C kernel
into ``.bench_build/perfbench`` if that exact source is not built yet, then
measures in a fresh process and prints the metrics; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones. The exit code is 0 only when a result was
printed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys

from common import BENCH_DIR, BUILD_DIR, ROOT, WORKLOADS, BenchError, refuse_env_knobs, use_source_tree
import kernel

#: the measured process must end well inside the 180 s a run may take.
CHILD_TIMEOUT = 170.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    refuse_env_knobs()
    use_source_tree()
    path = kernel.build()
    # a terminated run still takes its measured process group down (finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "measure.py"), path,
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdin=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        return proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError("the run did not finish within %.0fs" % CHILD_TIMEOUT)
    finally:
        # the measured process leads its own process group: whatever it
        # started (daemon, workers) goes down with it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(os.path.join(BUILD_DIR, "work", "%s-%d" % (args.workload, proc.pid)), ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(2)
