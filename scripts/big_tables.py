#!/usr/bin/env python3
"""CPU, peak memory and output of large closed tables, one child process each.

Runs ``branchkit branch quat --form g2_2 --lambda=-1,-2,3 --cutoff N`` for
every N of ``--cutoffs`` in its own child process, reads its stdout as it
is written, and prints one row per cutoff: the child's CPU seconds (user
plus system), its peak RSS in MiB (``ru_maxrss``), and the bytes and
SHA-256 of its stdout.  The table has (N + 1)(N + 2) / 2 entries.

Run from the repository root:

    python scripts/big_tables.py --cutoffs 300,1000

It exits 1, after the rows of the cutoffs before, when a child exits
nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = ("branch", "quat", "--form", "g2_2", "--lambda=-1,-2,3", "--cutoff")


def run_child(cutoff: int) -> tuple[int, float, float, int, str]:
    """(exit status, CPU seconds, peak RSS in MiB, stdout bytes, stdout
    SHA-256) of one child at this cutoff."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen([sys.executable, "-m", "branchkit", *COMMAND, str(cutoff)],
                             stdout=subprocess.PIPE, env=env)
    digest, size = hashlib.sha256(), 0
    while chunk := child.stdout.read(1 << 20):
        digest.update(chunk)
        size += len(chunk)
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)  # this child's own resource use
    child.returncode = os.waitstatus_to_exitcode(status)
    return (child.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, size,
            digest.hexdigest())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cutoffs", default="300,1000",
                        help="comma-separated cutoffs (default 300,1000)")
    args = parser.parse_args(argv)
    try:
        cutoffs = [int(c) for c in args.cutoffs.split(",")]
    except ValueError:
        parser.error(f"--cutoffs must be comma-separated ints, got {args.cutoffs!r}")
    print("cutoff\tentries\tcpu_s\tpeak_rss_mib\tstdout_bytes\tstdout_sha256")
    for cutoff in cutoffs:
        status, cpu, rss, size, sha = run_child(cutoff)
        if status:
            print(f"error: cutoff {cutoff}: the child exited {status}", file=sys.stderr)
            return 1
        print(f"{cutoff}\t{(cutoff + 1) * (cutoff + 2) // 2}\t{cpu:.2f}\t{rss:.1f}\t{size}\t{sha}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
