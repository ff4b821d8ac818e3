"""Command-line front end.

``COMMANDS`` declares each command and its arguments; ``parse_args`` reads
argv through it as argparse did, and ``--help`` prints from it.  Output is
deterministic JSON (sorted keys, weights ordered lexicographically by
coordinates), written as ``json.dumps(payload, indent=2, sort_keys=True)``
would write it, or ``key: value`` text.  Exit codes: 0 success, 2 command-line,
domain and configuration errors, 3 resource errors.

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

import functools
import json
import os
import re
import sys
from collections import namedtuple
from json.encoder import encode_basestring_ascii as escape
from math import gcd
from types import SimpleNamespace

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


def _emit(payload: dict, output: str, prefix: str = "") -> str:
    """The payload as JSON, or as ``key: value`` lines (``key.sub: value`` in a dict)."""
    if output == "json":
        out: list = []
        _write_json(payload, "", out)
        return "".join(out + ["\n"])
    lines = []
    for key, value in sorted(payload.items()):
        if isinstance(value, dict):
            lines += _emit(value, output, f"{prefix}{key}.").splitlines()
        elif isinstance(value, Rows):
            lines.append(f"{prefix}{key}:")
            for row in value:
                lines.append("  " + "\t".join(f"{k}={v}" for k, v in sorted(zip(value.keys, row))))
        else:
            text = ", ".join(map(str, value)) if isinstance(value, list) else value
            lines.append(f"{prefix}{key}: {text}")
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
        payload, (admissible, reason) = {"n": args.n}, so3_admissible(args.n)
    else:
        system = parse_hermitian_label(args.form)[2]
        hd, lam = _parse_lambda(args, system, functools.partial(hermitian_data, args.form))
        payload = {"form": args.form, "lambda": format_weight(lam)}
        admissible, reason = kss_admissible_report(hd, lam)
    payload.update(command="admissible", kind=args.kind, admissible=admissible, reason=reason)
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
    sys.stdout.write("".join(f"{w}\t{m}\n" for w, m in payload["entries"])
                     if args.output == "text" else _emit(payload, "json"))
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


# A long option or a positional (a name without dashes) of kind str, int, a tuple
# of choices or bool (a flag, True when given); one without a default is required.
Option = namedtuple("Option", "flag kind default help", defaults=(str, None, ""))

_FORM, _OUTPUT = Option("--form"), Option("--output", ("json", "text"), "json")
_FAMILY, _STEP_BOUND = (Option("family", ("quat", "sp1q")), _FORM), Option("--step-bound", int, 12)
_COMMON = (_OUTPUT, Option("--lambda", help="parameter coordinates, e.g. '5,3,2,1'"),
           Option("--basis", ("ambient", "simple"), "ambient"))

# The command table that ``parse_args`` and the help read: each path's handler (None
# for a group, whose positional is the next word of a path), help and arguments.
COMMANDS = {
    (): (None, "Exact branching laws and admissibility tests for discrete series restrictions.",
         (Option("command", ("list-forms", "branch", "admissible", "weights", "oracle-check",
                             "selftest")),)),
    ("list-forms",): (cmd_list_forms, "enumerate supported form labels", (_OUTPUT,)),
    ("branch",): (cmd_branch, "closed-form branching table", (*_FAMILY, Option("--cutoff", int, 8),
                  Option("--check-oracle", bool, False), _STEP_BOUND, *_COMMON)),
    ("admissible",): (None, "admissibility decisions", (Option("kind", ("hermitian", "so3")),)),
    ("admissible", "hermitian"): (cmd_admissible, "restriction to the semisimple factor of K",
                                  (_FORM, *_COMMON)),
    ("admissible", "so3"): (cmd_admissible, "restriction of SO(3, n) to SO(3)",
                            (Option("--n", int, help="the n of SO(3, n)"), _OUTPUT)),
    ("weights",): (cmd_weights, "weight multiplicity table of the compact factor",
                   (_FORM, Option("--project", ("none", "torus"), "none"), *_COMMON)),
    ("oracle-check",): (cmd_oracle_check, "closed form vs truncated distributional series",
                        (*_FAMILY, _STEP_BOUND, *_COMMON)),
    ("selftest",): (cmd_selftest, "run the acceptance criteria", (
        Option("--only", default="", help="comma-separated ids, e.g. AC-1,AC-7"),
        Option("--output", ("json", "text"), "text"))),
}
_HELP = Option("--help", bool, False, "show this help and exit (also -h)")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # positionals, as argparse reads them


def _help(path: tuple) -> str:
    _, about, arguments = COMMANDS[path]
    words = ["usage: branchkit", *path]
    for a in arguments:  # FLAG VALUE, FLAG for a flag or {choices} for a positional
        value = "{%s}" % ",".join(a.kind) if isinstance(a.kind, tuple) else a.flag[2:].upper()
        word = " ".join([a.flag] * (a.flag[0] == "-") + [value] * (a.kind is not bool))
        words.append(word if a.default is None else f"[{word}]")
    rows = [(a.flag, a.help) for a in (*arguments, _HELP) if a.help]
    rows += [(" ".join(p), c[1]) for p, c in COMMANDS.items() if p[:len(path)] == path != p]
    return "\n".join([" ".join(words), "", about, ""] + [f"  {a:<30} {b}" for a, b in rows]) + "\n"


def _fail(path: tuple, message: str):
    sys.stderr.write(_help(path).partition("\n")[0] + f"\nbranchkit: error: {message}\n")
    raise SystemExit(2)


def _classify(path: tuple, flags: dict, arg: str):
    """None for a positional, else arg's option (None if unknown) and the value after
    "=" or None, as argparse reads them (-hh is -h twice), but "--" is unknown."""
    name, eq, value = arg.partition("=")
    if name not in flags and arg[:2] == "--" != arg:  # a unique prefix names its option
        matches = [f for f in flags if f.startswith(name)]
        if len(matches) > 1:
            _fail(path, f"ambiguous option: {arg} could match {', '.join(matches)}")
        name = matches[0] if matches else name
    if name in flags:
        return flags[name], value if eq else None
    if arg.startswith("-h"):
        return _HELP, arg[2:].lstrip("h") or None
    return None if arg[:1] != "-" or arg == "-" or _NEGATIVE.match(arg) or " " in arg else (
        None, None)


def parse_args(argv) -> SimpleNamespace:
    """argv read through ``COMMANDS`` level by level as argparse read it; help (exit 0)
    and errors (exit 2) act when reached, and unknown arguments fail at the end."""
    path, values, extras, args = (), {}, [], list(argv)
    while True:
        fn, _, arguments = COMMANDS[path]
        flags = {"-h": _HELP, "--help": _HELP, **{a.flag: a for a in arguments if a.flag[0] == "-"}}
        positionals = [a for a in arguments if a.flag[0] != "-"]
        values.update({a.flag: a.default for a in arguments})
        # a command's arguments are classified first, for argparse's ambiguity errors
        kinds, i = [_classify(path, flags, arg) for arg in args] if fn else [], 0
        while i < len(args) and (fn or positionals):  # a group stops after its word
            kind = kinds[i] if fn else _classify(path, flags, args[i])
            (a, text), i = kind or (positionals.pop(0) if positionals else None, args[i]), i + 1
            if a is None:  # an unknown option or an extra positional
                extras.append(args[i - 1])
                continue
            if a.kind is not bool and text is None and kinds[i:i + 1] == [None]:
                text, i = args[i], i + 1
            if a is _HELP and text is None:
                sys.stdout.write(_help(path))
                raise SystemExit(0)
            if (a.kind is bool) != (text is None):
                _fail(path, f"argument {a.flag}: " + ("expected one argument" if text is None
                                                      else f"ignored explicit argument {text!r}"))
            try:
                values[a.flag] = True if a.kind is bool else int(text) if a.kind is int else text
            except ValueError:
                _fail(path, f"argument {a.flag}: invalid int value: {text!r}")
            if isinstance(a.kind, tuple) and text not in a.kind:
                _fail(path, f"argument {a.flag}: invalid choice: {text!r}")
        if missing := [a.flag for a in arguments if a.default is None and values[a.flag] is None]:
            _fail(path, "the following arguments are required: " + ", ".join(missing))
        if fn:
            break
        path, args = path + (args[i - 1],), args[i:]
    if extras:
        _fail(path, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(fn=fn, **{"lam" if f == "--lambda" else f.lstrip("-").replace("-", "_"):
                                     v for f, v in values.items()})


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
