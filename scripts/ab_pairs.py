#!/usr/bin/env python3
"""Alternating benchmark pairs of two source trees, summarized as a table.

Runs ``bench/run.py`` of the PARENT tree and of the CHANGE tree one after
the other, each in its own directory and process, PAIRS times: the parent
runs first in even pairs (0, 2, ...) and the change first in odd ones, so
that a drift of the host's speed hits both sides alike.  Every run has the
same workload, seed and run length.  Then it prints one Markdown table row
per end-to-end metric named in CHANGE's ``BENCHMARK.json``: each side's
median [first quartile, third quartile], the median's relative move, and
in how many pairs the change read better (ties count for neither side).

Run from the repository root, with the parent checked out elsewhere:

    python scripts/ab_pairs.py ../parent . --workload oracle_dense --seed 0 --pairs 10 --seconds 40

It exits 1 as soon as a run reports ``correct: false`` or a failed request,
or exits nonzero, and prints no table then.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HEADER = ("| workload (seed, pairs) | metric | parent median [quartiles] "
          "| change median [quartiles] | change | change wins |\n|---|---|---|---|---|---|")


class RunFailed(Exception):
    pass


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics {name: value} of one ``bench/run.py`` run in tree."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RunFailed(f"{tree}: exit {done.returncode}: {done.stderr.strip()}")
    report = json.loads(lines[-1])
    if not report["correct"] or report["failed"]:
        raise RunFailed(f"{tree}: correct {report['correct']}, failed {report['failed']} "
                        f"of {report['attempted']}: {done.stderr.strip()}")
    return {name: m["value"] for name, m in report["metrics"].items()}


def _spread(values) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def summarize(workload: str, seed: int, pairs, end_to_end) -> list[str]:
    """The table rows of pairs, a list of (parent metrics, change metrics),
    one per end-to-end metric, each given as BENCHMARK.json states it
    (``name`` and ``better``)."""
    rows = []
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        move = statistics.median(change) / statistics.median(parent) - 1
        rows.append(f"| `{workload}` ({seed}, {len(pairs)}) | `{name}` | {_spread(parent)} "
                    f"| {_spread(change)} | {move:+.1%} | {wins}/{len(pairs)} |")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for tree in (args.parent, args.change):
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"no bench/run.py under {tree}")
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    pairs = []
    try:
        for k in range(args.pairs):
            sides = [("parent", args.parent), ("change", args.change)]
            got = {}
            for side, tree in sides if k % 2 == 0 else sides[::-1]:
                got[side] = bench_run(tree, args.workload, args.seed, args.seconds)
                print(f"# pair {k} {side}: " + " ".join(
                    f"{m['name']}={got[side][m['name']]:.4g}" for m in end_to_end),
                    file=sys.stderr, flush=True)
            pairs.append((got["parent"], got["change"]))
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(HEADER)
    print("\n".join(summarize(args.workload, args.seed, pairs, end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
