"""Regenerate ``bench/golden.json``: the SHA-256 of every default-seed output.

    python3 bench/golden.py

Run it only when a change to the CLI output is intended.  The benchmark fails
a default-seed request whose output differs from its stored digest, so these
digests are the byte-identical-output gate for refactors.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import checks, run, workloads  # noqa: E402


def main() -> int:
    checker = checks.Checker(run.SCHEMA)
    table = {}
    for workload in workloads.WORKLOADS:
        requests = workloads.requests(workload, workloads.DEFAULT_SEED)
        cli, _ = run.fresh_setup(workloads.SETUP_FORMS[workload])
        rows = []
        for rid, (argv, (_, code, stdout, error)) in enumerate(
                zip(requests, run.run_pass(cli, requests))):
            problems = checker.problems(rid, argv, code, stdout, error)
            if problems:
                print(f"error: {' '.join(argv)}: {problems}", file=sys.stderr)
                return 1
            rows.append({"argv": argv, "sha256": checks.digest(stdout)})
        table[workload] = rows
    payload = {"seed": workloads.DEFAULT_SEED, "workloads": table}
    checks.GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
