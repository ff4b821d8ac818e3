"""Command-line front end.

Subcommands: list-forms, branch (quat | sp1q), admissible (hermitian | so3),
weights, oracle-check (quat | sp1q), selftest.  Output is deterministic JSON
(sorted keys, weights ordered lexicographically by coordinates), written by
one writer as ``json.dumps(payload, indent=2, sort_keys=True)`` would write
it, or aligned text.  Exit codes: 0 success, 2 domain/configuration errors,
3 resource errors.

Weights are entered in ambient coordinates matching the realizations used
throughout (``--lambda "5,3,2,1"``); ``--basis simple`` instead reads the
coordinates as coefficients over the simple roots of the form's positive
system.  Its length is checked against the base system that the form label
names before any root data is built.  Both families (quat and sp1q) share
one oracle (see ``oracle``).
The environment variable BRANCHKIT_DIMENSION_BOUND (default 10^7) caps the
root data (positive roots times coordinates), the Freudenthal tables, the
closed-form tables and the oracle's Heaviside products and windows; each
size is counted before it is built, and a request above the bound exits
with status 3.  A value that is not a positive integer exits with status 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as escape
from math import gcd

from .errors import (
    BranchkitError,
    ConfigurationError,
    DomainError,
    InternalError,
    ResourceError,
)
from .lattice import format_weight, parse_weight, wadd, wscale, zero_weight
from .oracle import OracleConfig, verify_closed_form
from .quaternionic import branching_table, lam2_weight_table, quaternionic_context
from .repweights import check_size
from .rootsystems import _parse_int, ambient_dimension, datum_size, parse_quaternionic_label
from .specialcases import (
    hermitian_data,
    kss_admissible_report,
    parse_hermitian_label,
    so3_admissible,
    sp1q_branching_table,
    sp1q_context,
    sp1q_system,
    sp1q_verify,
)

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "schemas", "output.schema.json")


class Rows(list):
    """Rows of string values, each written as the JSON object that maps
    ``keys`` (which hold no braces) to its values."""

    def __init__(self, keys: tuple, rows=()):
        super().__init__(rows)
        self.keys = keys


def _write_json(value, pad: str, out: list) -> None:
    """Append value's text at indentation pad to out, as
    ``json.dumps(value, indent=2, sort_keys=True)`` writes it: ``Rows``
    through one template, strings by the C escape."""
    inner = pad + "  "
    if isinstance(value, Rows) and value:
        fields = ",\n".join(f"{inner}  {escape(k)}: {{{i}}}"
                            for k, i in sorted((k, i) for i, k in enumerate(value.keys)))
        template = f"{inner}{{{{\n{fields}\n{inner}}}}}"
        out += ["[\n", ",\n".join([template.format(*map(escape, row)) for row in value]),
                f"\n{pad}]"]
    elif isinstance(value, (dict, list, tuple)) and value:
        keys = sorted(value) if isinstance(value, dict) else None
        out.append("[{"[keys is not None])
        for i, item in enumerate(value if keys is None else keys):
            out.append(("," if i else "") + "\n" + inner)
            if keys is not None:
                out.append(escape(item) + ": ")
                item = value[item]
            _write_json(item, inner, out)
        out.append("\n" + pad + "]}"[keys is not None])
    else:
        out.append(escape(value) if isinstance(value, str) else json.dumps(value))


def _oracle_payload(report) -> dict:
    return {
        "agree": report.agree,
        "comparedWeights": report.compared,
        "mismatches": Rows(("mu", "closed", "oracle"), [
            (format_weight(mu), str(a), str(b)) for mu, a, b in report.mismatches]),
    }


def _context(family: str, label: str):
    """The base system (family, rank) that the label of a branching family
    names, and the builder of its context."""
    if family == "quat":
        return parse_quaternionic_label(label), functools.partial(quaternionic_context, label)
    q = _sp1q_param(label)
    return sp1q_system(q), functools.partial(sp1q_context, q)


def _family(args):
    """Context, parameter, closed-form table builder and oracle check of the
    requested family."""
    ctx, lam = _parse_lambda(args, *_context(args.family, args.form))
    if args.family == "quat":
        return ctx, lam, branching_table, verify_closed_form
    return ctx, lam, sp1q_branching_table, sp1q_verify


def _emit(payload: dict, output: str) -> str:
    if output == "json":
        out: list = []
        _write_json(payload, "", out)
        return "".join(out + ["\n"])
    lines = []
    for key, value in sorted(payload.items()):
        if isinstance(value, Rows) and value:
            lines.append(f"{key}:")
            for row in value:
                lines.append("  " + "\t".join(f"{k}={v}" for k, v in sorted(zip(value.keys, row))))
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _parse_lambda(args, system, build):
    """(build(), lam): the length of lam is checked against the base system
    (family, rank) that the form label names, and the root datum's size
    counted against the bound, before ``build`` makes the form's root data,
    which a simple-basis lam then reads."""
    lam = parse_weight(args.lam)
    family, rank = system
    dim = ambient_dimension(family, rank)
    if args.basis == "ambient" and len(lam) != dim:
        raise DomainError(f"expected {dim} coordinates in --lambda, got {len(lam)}")
    if args.basis == "simple" and len(lam) != rank:
        raise DomainError(f"simple-basis input needs {rank} coefficients")
    check_size(datum_size(family, rank), f"the root datum of {args.form}")
    ctx = build()
    if args.basis == "simple":
        total = zero_weight(dim)
        for c, a in zip(lam, ctx.rd.simple):
            total = wadd(total, wscale(c, a))
        return ctx, total
    return ctx, lam


def _rows(rows, den: int, name: str = "mu") -> Rows:
    """(int numerators, multiplicity) rows over one positive denominator in
    weight order, as the numerators sort, as ``Rows`` of name and "mult";
    each numerator is formatted once."""
    rows = sorted(rows)
    text = {n: f"{n // g}/{den // g}" if (g := gcd(n, den)) != den else str(n // den)
            for n in {n for nums, _ in rows for n in nums}}  # str(Fraction(n, den))
    return Rows((name, "mult"), [(",".join([text[n] for n in nums]), str(m)) for nums, m in rows])


def _entries_json(table) -> Rows:
    """A closed table's entries in weight order; its chart points (k, l) have
    the weights (k b + l c) / den for the chart's int columns (b, c)."""
    columns, den = table.coords.columns, table.coords.den
    return _rows(((tuple([k * b + l * c for b, c in columns]), m)
                  for (k, l), m in table.by_key.items()), den)


def cmd_list_forms(args) -> int:
    payload = {
        "command": "list-forms",
        "quaternionic": ["g2_2", "f4_4", "e6_2", "e7_m5", "e8_m24", "su2_n:<n>", "so4_n:<n>"],
        "sp1q": ["sp1_q:<q>"],
        "so3": ["so3:<n>"],
        "hermitian": ["su_pq:<p>,<q>", "so_star:<n>", "sp_n_R:<n>", "e6_m14", "e7_m25"],
    }
    sys.stdout.write(_emit(payload, args.output))
    return 0


def cmd_branch(args) -> int:
    ctx, lam, closed, verify = _family(args)
    table = closed(ctx, lam, args.cutoff)
    payload = {
        "command": "branch",
        "family": args.family,
        "form": args.form,
        "lambda": format_weight(lam),
        "cutoff": args.cutoff,
        "completePairingBound": str(table.pairing_bound),
        "entries": _entries_json(table),
        "oracleChecked": False,
    }
    del table  # freed before printing, which holds its rows and their text at once
    if args.check_oracle:
        report = verify(ctx, lam, OracleConfig(args.step_bound))
        payload["oracleChecked"] = True
        payload["oracle"] = _oracle_payload(report)
        if not report.agree:
            raise InternalError("closed form disagrees with the oracle")
    sys.stdout.write(_emit(payload, args.output))
    return 0


def _sp1q_param(form: str) -> int:
    name, _, param = form.partition(":")
    if name != "sp1_q":
        raise ConfigurationError(f"expected an sp1_q:<q> label, got {form!r}")
    return _parse_int(param, "sp1_q")


def cmd_admissible(args) -> int:
    if args.kind == "so3":
        admissible, reason = so3_admissible(args.n)
        payload = {
            "command": "admissible",
            "kind": "so3",
            "n": args.n,
            "admissible": admissible,
            "reason": reason,
        }
    else:
        system = parse_hermitian_label(args.form)[2]
        hd, lam = _parse_lambda(args, system, functools.partial(hermitian_data, args.form))
        admissible, reason = kss_admissible_report(hd, lam)
        payload = {
            "command": "admissible",
            "kind": "hermitian",
            "form": args.form,
            "lambda": format_weight(lam),
            "admissible": admissible,
            "reason": reason,
        }
    sys.stdout.write(_emit(payload, args.output))
    return 0


def cmd_weights(args) -> int:
    label = args.form
    ctx, lam = _parse_lambda(args, *_context("sp1q" if label.startswith("sp1_q") else "quat",
                                             label))
    if args.project == "torus":  # the closed form's fibre: the weights n w / den
        fibre, den = ctx.fibre(lam)
        rows = [(tuple(n * x for x in ctx.torus_points[1]), m) for n, m in fibre.items()]
    else:
        table = lam2_weight_table(ctx, lam)
        rows, den = table.points.items(), table.scale
    payload = {
        "command": "weights",
        "form": label,
        "lambda": format_weight(lam),
        "project": args.project,
        "entries": _rows(rows, den, "weight"),
    }
    if args.output == "text":
        sys.stdout.write("".join(f"{w}\t{m}\n" for w, m in payload["entries"]))
        return 0
    sys.stdout.write(_emit(payload, args.output))
    return 0


def cmd_oracle_check(args) -> int:
    ctx, lam, _, verify = _family(args)
    report = verify(ctx, lam, OracleConfig(args.step_bound))
    payload = {
        "command": "oracle-check",
        "family": args.family,
        "form": args.form,
        "lambda": format_weight(lam),
        "stepBound": args.step_bound,
        **_oracle_payload(report),
    }
    sys.stdout.write(_emit(payload, args.output))
    return 0


def cmd_selftest(args) -> int:
    from .acceptance import run_all  # only selftest needs the criteria

    selected = set(args.only.split(",")) if args.only else None
    results = run_all(selected)
    ok = all(r.passed and r.within_limit for r in results)
    if args.output == "json":
        payload = {
            "command": "selftest",
            "passed": ok,
            "criteria": [
                {
                    "id": r.ident,
                    "title": r.title,
                    "passed": r.passed,
                    "withinLimit": r.within_limit,
                    "seconds": round(r.seconds, 2),
                    "detail": r.detail,
                }
                for r in results
            ],
        }
        sys.stdout.write(_emit(payload, "json"))
    else:
        for r in results:
            sys.stdout.write(r.line() + "\n")
        sys.stdout.write(("all criteria passed" if ok else "FAILURES present") + "\n")
    return 0 if ok else 1


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


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parsing leaves no state
    in it, so every call parses as a fresh parser would."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except BranchkitError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
