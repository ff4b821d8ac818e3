"""argparse reference for the command-line parser.

``build_parser`` is the ``argparse`` parser the package built before it read
its command lines through the command table in ``branchkit.cli``, kept
verbatim.  The differential test in ``test_cli.py`` feeds the same argv
lists to both and requires the same accepted lists, the same namespace
fields and the same exit codes.
"""

import argparse

from branchkit.cli import (
    cmd_admissible,
    cmd_branch,
    cmd_list_forms,
    cmd_oracle_check,
    cmd_selftest,
    cmd_weights,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchkit",
        description="Exact branching laws and admissibility tests for discrete series restrictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, lam=True):
        p.add_argument("--output", choices=("json", "text"), default="json")
        if lam:
            p.add_argument("--lambda", dest="lam", required=True,
                           help="parameter coordinates, e.g. '5,3,2,1'")
            p.add_argument("--basis", choices=("ambient", "simple"), default="ambient")

    p = sub.add_parser("list-forms", help="enumerate supported form labels")
    common(p, lam=False)
    p.set_defaults(fn=cmd_list_forms)

    p = sub.add_parser("branch", help="closed-form branching table")
    p.add_argument("family", choices=("quat", "sp1q"))
    p.add_argument("--form", required=True)
    p.add_argument("--cutoff", type=int, default=8)
    p.add_argument("--check-oracle", action="store_true")
    p.add_argument("--step-bound", type=int, default=12)
    common(p)
    p.set_defaults(fn=cmd_branch)

    p = sub.add_parser("admissible", help="admissibility decisions")
    kind = p.add_subparsers(dest="kind", required=True)
    ph = kind.add_parser("hermitian", help="restriction to the semisimple factor of K")
    ph.add_argument("--form", required=True)
    common(ph)
    ph.set_defaults(fn=cmd_admissible)
    ps = kind.add_parser("so3", help="restriction of SO(3, n) to SO(3)")
    ps.add_argument("--n", type=int, required=True, help="the n of SO(3, n)")
    common(ps, lam=False)
    ps.set_defaults(fn=cmd_admissible)

    p = sub.add_parser("weights", help="weight multiplicity table of the compact factor")
    p.add_argument("--form", required=True)
    p.add_argument("--project", choices=("none", "torus"), default="none")
    common(p)
    p.set_defaults(fn=cmd_weights)

    p = sub.add_parser("oracle-check", help="closed form vs truncated distributional series")
    p.add_argument("family", choices=("quat", "sp1q"))
    p.add_argument("--form", required=True)
    p.add_argument("--step-bound", type=int, default=12)
    common(p)
    p.set_defaults(fn=cmd_oracle_check)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--only", default="", help="comma-separated ids, e.g. AC-1,AC-7")
    p.add_argument("--output", choices=("json", "text"), default="text")
    p.set_defaults(fn=cmd_selftest)

    return parser


class ReferenceRows(list):
    """The writer's rows as they were: a list of string tuples with keys."""

    def __init__(self, keys: tuple, rows=()):
        super().__init__(rows)
        self.keys = keys


def reference_text(payload: dict, prefix: str = "") -> str:
    """The ``--output text`` writer the package had before it streamed its
    rows, kept verbatim but for ``ReferenceRows`` in its ``Rows`` place."""
    lines = []
    for key, value in sorted(payload.items()):
        if isinstance(value, dict):
            lines += reference_text(value, f"{prefix}{key}.").splitlines()
        elif isinstance(value, ReferenceRows):
            lines.append(f"{prefix}{key}:")
            for row in value:
                lines.append("  " + "\t".join(f"{k}={v}" for k, v in sorted(zip(value.keys, row))))
        else:
            text = ", ".join(map(str, value)) if isinstance(value, list) else value
            lines.append(f"{prefix}{key}: {text}")
    return "\n".join(lines) + "\n"
