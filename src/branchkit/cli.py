"""Command-line front end.

``COMMANDS`` declares each command and its arguments; ``parse_args`` reads
argv through it as argparse did, and ``--help`` prints from it.  Output is
deterministic JSON (sorted keys, weights ordered lexicographically by
coordinates) or ``key: value`` text, written to stdout in chunks by
``output`` once every check has passed.  Exit codes: 0 success, 2
command-line, domain and configuration errors, 3 resource errors.

Weights are entered in ambient coordinates matching the realizations used
throughout (``--lambda "5,3,2,1"``); ``--basis simple`` instead reads the
coordinates as coefficients over the simple roots of the form's positive
system.  Form labels are read through ``rootsystems.FORMS`` alone: a
command names the kinds it takes (the branching families quat and sp1q,
hermitian), the label's kind picks its builders, and the length of lambda
is checked against the base system that the label names before any root
data is built.  ``list-forms`` prints the table.  Both branching families
share one oracle (see ``oracle``).
The environment variable BRANCHKIT_DIMENSION_BOUND (default 10^7) caps the
root data (positive roots times coordinates), the Freudenthal tables, the
closed-form tables and the oracle's Heaviside products and windows; each
size is counted before it is built, and a request above the bound exits
with status 3.  A value that is not a positive integer exits with status 2.
"""

from __future__ import annotations

import functools
import os
import re
import sys
from collections import namedtuple
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
from .output import Rows, emit, table_rows, weight_rows
from .quaternionic import branching_table, lam2_weight_table, quaternionic_context
from .repweights import check_size
from .rootsystems import FORMS, ambient_dimension, datum_size, parse_label
from .specialcases import (
    hermitian_data,
    kss_admissible_report,
    so3_admissible,
    sp1q_branching_table,
    sp1q_context,
    sp1q_verify,
)

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "schemas", "output.schema.json")


def _oracle_payload(report) -> dict:
    return {
        "agree": report.agree,
        "comparedWeights": report.compared,
        "mismatches": Rows(("mu", "closed", "oracle"), [
            (format_weight(mu), str(a), str(b)) for mu, a, b in report.mismatches]),
    }


# Per kind of form label, from (label, parameters): the builder of its context,
# its closed-form table builder and its oracle check, each read from this
# module's names when called, so that a wrapper bound in a name's place is used
_KINDS = {
    "quat": lambda label, _: (functools.partial(quaternionic_context, label),
                              branching_table, verify_closed_form),
    "sp1q": lambda _, params: (functools.partial(sp1q_context, *params),
                               sp1q_branching_table, sp1q_verify),
    "hermitian": lambda label, _: (functools.partial(hermitian_data, label), None, None),
}


def _context(args, *kinds):
    """(context, lam, its closed-form table builder, its oracle check) for the
    form label of one of ``kinds`` in ``args.form``, read once."""
    name, params, system = parse_label(args.form, *kinds)
    build, closed, verify = _KINDS[FORMS[name].kind](args.form, params)
    return (*_parse_lambda(args, system, build), closed, verify)


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


def cmd_list_forms(args) -> int:
    payload = {"command": "list-forms", "so3": ["so3:<n>"]}  # SO(3, n) takes --n, not a label
    for name, form in FORMS.items():
        key = "quaternionic" if form.kind == "quat" else form.kind
        payload.setdefault(key, []).append(f"{name}:{form.placeholder}".rstrip(":"))
    emit(payload, args.output, sys.stdout.write)
    return 0


def cmd_branch(args) -> int:
    ctx, lam, closed, verify = _context(args, args.family)
    table = closed(ctx, lam, args.cutoff)
    payload = {
        "command": "branch",
        "family": args.family,
        "form": args.form,
        "lambda": format_weight(lam),
        "cutoff": args.cutoff,
        "completePairingBound": str(table.pairing_bound),
        "entries": table_rows(table),  # its rows are made as they are written
        "oracleChecked": False,
    }
    if args.check_oracle:
        report = verify(ctx, lam, OracleConfig(args.step_bound))
        payload["oracleChecked"] = True
        payload["oracle"] = _oracle_payload(report)
        if not report.agree:
            raise InternalError("closed form disagrees with the oracle")
    emit(payload, args.output, sys.stdout.write)
    return 0


def cmd_admissible(args) -> int:
    if args.kind == "so3":
        payload, (admissible, reason) = {"n": args.n}, so3_admissible(args.n)
    else:
        hd, lam, _, _ = _context(args, "hermitian")
        payload = {"form": args.form, "lambda": format_weight(lam)}
        admissible, reason = kss_admissible_report(hd, lam)
    payload.update(command="admissible", kind=args.kind, admissible=admissible, reason=reason)
    emit(payload, args.output, sys.stdout.write)
    return 0


def cmd_weights(args) -> int:
    ctx, lam, _, _ = _context(args, "quat", "sp1q")
    if args.project == "torus":  # the closed form's fibre: the weights n w / den
        fibre, den = ctx.fibre(lam)
        rows = [(tuple(n * x for x in ctx.torus_points[1]), m) for n, m in fibre.items()]
    else:
        table = lam2_weight_table(ctx, lam)
        rows, den = table.points.items(), table.scale
    payload = {
        "command": "weights",
        "form": args.form,
        "lambda": format_weight(lam),
        "project": args.project,
        "entries": weight_rows(rows, den),
    }
    if args.output == "text":
        sys.stdout.write("".join(f"{w}\t{m}\n" for w, m in payload["entries"].rows))
    else:
        emit(payload, "json", sys.stdout.write)
    return 0


def cmd_oracle_check(args) -> int:
    ctx, lam, _, verify = _context(args, args.family)
    report = verify(ctx, lam, OracleConfig(args.step_bound))
    payload = {
        "command": "oracle-check",
        "family": args.family,
        "form": args.form,
        "lambda": format_weight(lam),
        "stepBound": args.step_bound,
        **_oracle_payload(report),
    }
    emit(payload, args.output, sys.stdout.write)
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
        emit(payload, "json", sys.stdout.write)
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
