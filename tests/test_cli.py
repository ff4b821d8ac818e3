import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchkit import cli, formal, repweights, rootsystems
from branchkit.cli import SCHEMA_PATH, Rows, _emit, _write_json, main
from branchkit.errors import BranchkitError
from branchkit.formal import ProductSum
from branchkit.quaternionic import QuaternionicContext, quaternionic_context
from branchkit.specialcases import Sp1qContext, hermitian_data, sp1q_context
from cli_reference import build_parser


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_forms(capsys, schema):
    code, out, _ = run_cli(capsys, "list-forms")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert "g2_2" in payload["quaternionic"]
    assert len(payload["quaternionic"]) == 7
    # each kind lists exactly its rows of the form table, in table order
    for key, kind in (("quaternionic", "quat"), ("sp1q", "sp1q"), ("hermitian", "hermitian")):
        names = [name for name, form in rootsystems.FORMS.items() if form.kind == kind]
        assert [label.partition(":")[0] for label in payload[key]] == names
    assert payload["so3"] == ["so3:<n>"]


def test_branch_deterministic_and_valid(capsys, schema):
    argv = ["branch", "quat", "--form", "g2_2", "--lambda=-1,-2,3", "--cutoff", "3"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte identical
    payload = json.loads(out1)
    jsonschema.validate(payload, schema)
    assert payload["oracleChecked"] is False
    assert payload["entries"]


def test_branch_with_oracle(capsys, schema):
    code, out, _ = run_cli(
        capsys,
        "branch", "quat", "--form", "g2_2", "--lambda=-1,-2,3",
        "--cutoff", "2", "--check-oracle", "--step-bound", "6",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["oracleChecked"] is True
    assert payload["oracle"]["agree"] is True


def test_branch_simple_basis(capsys):
    # g2 parameter fw1 + beta equals 5 a1 + 3 a2 over the simple roots
    code, out, _ = run_cli(
        capsys, "branch", "quat", "--form", "g2_2",
        "--lambda", "5,3", "--basis", "simple", "--cutoff", "2",
    )
    assert code == 0
    assert json.loads(out)["lambda"] == "-1,-2,3"


def test_branch_rejects_non_dominant(capsys):
    code, _, err = run_cli(
        capsys, "branch", "quat", "--form", "g2_2", "--lambda=1,-2,1", "--cutoff", "2"
    )
    assert code == 2
    assert "not admissible" in err or "dominant" in err


def test_branch_sp1q(capsys, schema):
    code, out, _ = run_cli(
        capsys,
        "branch", "sp1q", "--form", "sp1_q:2", "--lambda", "4,2,1",
        "--cutoff", "3", "--check-oracle", "--step-bound", "6",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["entries"][0] == {"mu": "5,1,0", "mult": "1"}
    assert payload["oracle"]["agree"] is True
    assert payload["oracle"]["comparedWeights"] > 0
    assert payload["oracle"]["mismatches"] == []


def test_admissible_hermitian(capsys, schema):
    code, out, _ = run_cli(
        capsys, "admissible", "hermitian", "--form", "su_pq:2,2",
        "--lambda", "3,1,0,-2",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["admissible"] is False


def test_admissible_so3(capsys, schema):
    code, out, _ = run_cli(capsys, "admissible", "so3", "--n", "8")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["admissible"] is False
    code2, _, err = run_cli(capsys, "admissible", "so3", "--n", "9")
    assert code2 == 2
    assert "discrete series" in err


def test_weights_json_and_tsv(capsys, schema):
    code, out, _ = run_cli(
        capsys, "weights", "--form", "g2_2", "--lambda=-1,-3,4"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert len(payload["entries"]) == 2  # two-dimensional compact factor rep
    code, out, _ = run_cli(
        capsys, "weights", "--form", "g2_2", "--lambda=-1,-3,4", "--output", "text"
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert all("\t" in l for l in lines)


def test_oracle_check_command(capsys, schema):
    code, out, _ = run_cli(
        capsys,
        "oracle-check", "quat", "--form", "su2_n:2", "--lambda", "3,1,0,-2",
        "--step-bound", "6",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["agree"] is True
    assert payload["comparedWeights"] > 0
    assert payload["mismatches"] == []


@pytest.mark.parametrize("argv,calls", [
    (["oracle-check", "quat", "--form", "g2_2", "--lambda=-1,-2,3", "--step-bound", "4"], 1),
    (["oracle-check", "sp1q", "--form", "sp1_q:2", "--lambda=4,2,1", "--step-bound", "6"], 1),
    (["branch", "quat", "--form", "g2_2", "--lambda=-1,-2,3", "--cutoff", "2",
      "--check-oracle", "--step-bound", "4"], 2),
], ids=["oracle-check-quat", "oracle-check-sp1q", "branch-check-oracle"])
def test_lambda_validated_once_per_oracle_check(capsys, monkeypatch, argv, calls):
    # the series entry point validates lambda; the closed table it is compared
    # with is not validated again (a plain branch validates once more)
    original = repweights.validate_hc_parameter
    seen = []

    def counted(*args):
        seen.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("branchkit") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    assert run_cli(capsys, *argv)[0] == 0
    assert len(seen) == calls


@pytest.mark.parametrize("argv", [
    ["oracle-check", "sp1q", "--form", "sp1_q:2", "--lambda=4,2,1", "--step-bound", "1"],
    ["branch", "sp1q", "--form", "sp1_q:3", "--lambda=5,3,2,1", "--check-oracle",
     "--step-bound", "1"],
], ids=["oracle-check", "branch"])
def test_empty_comparison_exit_code(capsys, argv):
    # at step bound 1 the truncation certifies no point of the closed table;
    # "agree" must not be reported for a comparison of nothing
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "step bound 1" in err and "raise the step bound" in err


def test_wrong_length_lambda_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "oracle-check", "quat", "--form", "g2_2", "--lambda=5,3", "--step-bound", "1"
    )
    assert code == 2
    assert out == ""
    assert "expected 3 coordinates" in err


_EARLY_ERRORS = [
    ("weights --form su2_n:80", "expected 82 coordinates in --lambda, got 1"),
    ("weights --form su2_n:80 --basis simple", "simple-basis input needs 81 coefficients"),
    ("branch quat --form su2_n:80", "expected 82 coordinates in --lambda, got 1"),
    ("oracle-check quat --form su2_n:80 --basis simple", "simple-basis input needs 81 coefficients"),
    ("branch sp1q --form sp1_q:30", "expected 31 coordinates in --lambda, got 1"),
    ("weights --form sp1_q:30 --basis simple", "simple-basis input needs 31 coefficients"),
    ("admissible hermitian --form su_pq:20,20", "expected 40 coordinates in --lambda, got 1"),
    ("admissible hermitian --form su_pq:20,20 --basis simple",
     "simple-basis input needs 39 coefficients"),
    # a label error still wins over the length
    ("admissible hermitian --form su_pq:3,2", "su(p, q) certificates require 1 <= p <= q"),
    ("admissible hermitian --form so_star:2 --basis simple", "so*(2n) requires n >= 3"),
    ("admissible hermitian --form sp_n_R:0", "sp(n, R) requires n >= 1"),
    ("branch sp1q --form sp1_q:1", "sp(1, q) branching requires q >= 2"),
    ("weights --form su2_n:0", "su2_n requires n >= 1"),
    # a label of another kind, on every command
    ("branch quat --form sp1_q:2", "unsupported quat form label 'sp1_q:2'"),
    ("branch sp1q --form g2_2", "unsupported sp1q form label 'g2_2'"),
    ("oracle-check sp1q --form su_pq:2,3", "unsupported sp1q form label 'su_pq:2,3'"),
    ("weights --form su_pq:2,3", "unsupported quat or sp1q form label 'su_pq:2,3'"),
    ("admissible hermitian --form g2_2", "unsupported hermitian form label 'g2_2'"),
]


@pytest.mark.parametrize("argv,message", _EARLY_ERRORS, ids=[argv for argv, _ in _EARLY_ERRORS])
def test_wrong_length_lambda_exits_before_root_data(capsys, monkeypatch, argv, message):
    # the form label names the number of coordinates, so counting them must
    # not wait on root data (seconds at these ranks)
    _forbid_base_builders(monkeypatch)
    assert run_cli(capsys, *argv.split(), "--lambda=1") == (2, "", f"error: {message}\n")


def _forbid_base_builders(monkeypatch):
    """Make every base system's builder raise, whichever module calls it."""
    for family in rootsystems._BASE_BUILDERS:
        def built(*args, family=family):
            raise AssertionError(f"root data of type {family} built for {args}")

        monkeypatch.setitem(rootsystems._BASE_BUILDERS, family, built)


def test_datum_size_exits_3_before_root_data(capsys, monkeypatch):
    # su2_n:320 would hold 51,681 positive roots of 322 coordinates: counted
    # from the label, before any root is built
    _forbid_base_builders(monkeypatch)
    monkeypatch.delenv("BRANCHKIT_DIMENSION_BOUND", raising=False)
    lam = ",".join(str(x) for x in range(322, 0, -1))
    assert run_cli(capsys, "weights", "--form", "su2_n:320", f"--lambda={lam}") == (
        3, "", "resource error: the root datum of su2_n:320 would hold up to 16641282 entries, "
        "above the bound 10000000 (BRANCHKIT_DIMENSION_BOUND)\n")


def test_closed_form_rejects_su21_itself(capsys):
    code, out, err = run_cli(
        capsys, "branch", "quat", "--form", "su2_n:1", "--lambda=2,0,-2", "--cutoff", "4"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: the closed form needs d >= 2")
    assert "su2_n:1 has d = 1" in err
    assert "Traceback" not in err


def test_oracle_rejects_su21_itself(capsys):
    # su(2,1) has no Heaviside direction: the oracle says so before building
    # a series, as the closed form does
    code, out, err = run_cli(
        capsys, "oracle-check", "quat", "--form", "su2_n:1", "--lambda=2,0,-2",
        "--step-bound", "4",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: the oracle needs a Heaviside direction")
    assert "su2_n:1 has d = 1" in err
    assert "restriction to su(2,1) is the identity" in err
    assert "empty multiset" not in err


def test_parser_reuse_leaks_no_state(capsys):
    # the command table is built once per process and read by every call; a
    # call that fails to parse must not change what the next call prints
    argv = ["branch", "quat", "--form", "g2_2", "--lambda=-1,-2,3", "--cutoff", "2"]
    code, alone, _ = run_cli(capsys, *argv)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["branch", "quat", "--form", "g2_2", "--lambda=-1,-2,3", "--cutoff", "x",
              "--check-oracle", "--basis", "simple"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, *argv)[:2] == (0, alone)


def test_error_message_prints_weights(capsys):
    code, _, err = run_cli(
        capsys, "admissible", "hermitian", "--form", "su_pq:2,3", "--lambda=1,0,0,0,0"
    )
    assert code == 2
    assert "Fraction(" not in err
    assert "singular against root 0,-1,0,0,1" in err


def test_bad_form_label_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "branch", "quat", "--form", "so4_n:2", "--lambda", "1,2,3"
    )
    assert code == 2
    assert "so4_n" in err


@pytest.mark.parametrize("argv,what", [
    (["branch", "quat", "--form", "g2_2", "--cutoff", "100000000", "--lambda=-1,-2,3"],
     "the closed table at cutoff 100000000"),
    (["oracle-check", "quat", "--form", "g2_2", "--step-bound", "100000", "--lambda=-1,-2,3"],
     "a Heaviside product at step bound 100000"),
    (["oracle-check", "sp1q", "--form", "sp1_q:2", "--step-bound", "1000000", "--lambda=4,2,1"],
     "a Heaviside product at step bound 1000000"),
], ids=["closed-table", "quat-product", "sp1q-product"])
def test_size_blowup_exits_3_before_allocating(capsys, monkeypatch, argv, what):
    # the sizes are counted before anything is built, so these return at once
    # instead of hanging or running out of memory
    monkeypatch.delenv("BRANCHKIT_DIMENSION_BOUND", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith(f"resource error: {what} would hold up to ")
    assert err.endswith(" entries, above the bound 10000000 (BRANCHKIT_DIMENSION_BOUND)\n")


_LONG = "1" + "0" * 4000  # 10^4000 prints, but the sizes it leads to do not
_LONG_LAMBDA = "--lambda=" + ",".join(str(10**1500 * x) for x in (4, 2, 1, -2, -5))


@pytest.mark.parametrize("argv,what", [
    (["branch", "quat", "--form", "su2_n:3", "--cutoff", _LONG, "--lambda=4,2,1,-2,-5"],
     f"the closed table at cutoff {_LONG} would hold up to about 10^8000 entries, "
     "above the bound 10000000 (BRANCHKIT_DIMENSION_BOUND)"),
    (["oracle-check", "quat", "--form", "su2_n:3", "--step-bound", _LONG,
      "--lambda=4,2,1,-2,-5"],
     f"a Heaviside product at step bound {_LONG} would hold up to about 10^12000 entries, "
     "above the bound 10000000 (BRANCHKIT_DIMENSION_BOUND)"),
    (["weights", "--form", "su2_n:3", _LONG_LAMBDA],
     "a representation's weight table would hold up to about 10^4500 entries, "
     "above the bound 10000000 (BRANCHKIT_DIMENSION_BOUND)"),
], ids=["closed-table", "product", "dimension"])
def test_unprintable_sizes_exit_3_in_one_line(capsys, monkeypatch, argv, what):
    # a count with more digits than ints convert to text is named by its
    # order of magnitude, not printed (which raised ValueError, exit 1)
    monkeypatch.delenv("BRANCHKIT_DIMENSION_BOUND", raising=False)
    assert run_cli(capsys, *argv) == (3, "", f"resource error: {what}\n")


@pytest.mark.parametrize("argv,coordinate", [
    (["admissible", "hermitian", "--form", "su_pq:1,2", "--lambda=1e5000,1,-1"], 1),
    (["weights", "--form", "g2_2", "--lambda=1e5000,-2,3"], 1),
    (["branch", "sp1q", "--form", "sp1_q:2", "--lambda=1e5000,2,1"], 1),
    (["weights", "--form", "g2_2", "--lambda=1,1e-100000000,3"], 2),
    (["oracle-check", "quat", "--form", "g2_2",
      "--lambda=-2,-3," + "5" * (sys.get_int_max_str_digits() + 1)], 3),
], ids=["hermitian", "weights", "sp1q", "exponent", "digits"])
def test_lambda_too_long_to_print_exits_2(capsys, argv, coordinate):
    # rejected while parsing, before the int is built: 10^100000000 alone
    # would take minutes to build
    limit = sys.get_int_max_str_digits()
    assert run_cli(capsys, *argv) == (
        2, "", f"error: weight coordinate {coordinate} has a numerator or denominator "
        f"of more than {limit} digits\n")


@pytest.mark.parametrize("argv,sizes", [
    # 9 positive roots of 3 coordinates; 3 su(2)-strings, 10 values of p each
    (["branch", "sp1q", "--form", "sp1_q:2", "--cutoff", "9", "--lambda=6,4,1"],
     [("the root datum of sp1_q:2", 27), ("the closed table at cutoff 9", 30)]),
    # 120 positive roots of 8 coordinates; a 7 x 13 x 13 grid per product;
    # 112 terms with windows of 49 points
    (["oracle-check", "quat", "--form", "e8_m24", "--step-bound", "6",
      "--lambda=0,1,2,3,4,5,6,23"],
     [("the root datum of e8_m24", 960),
      ("a Heaviside product at step bound 6", 1183),
      ("the oracle's windows at step bound 6", 5488)]),
], ids=["closed-table", "oracle"])
def test_dimension_bound_admits_exactly_the_counted_sizes(capsys, monkeypatch, argv, sizes):
    # one below a counted size refuses and names it; the size itself lets
    # the request through to the next count
    for what, size in sizes:
        monkeypatch.setenv("BRANCHKIT_DIMENSION_BOUND", str(size - 1))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (f"resource error: {what} would hold up to {size} entries, "
                       f"above the bound {size - 1} (BRANCHKIT_DIMENSION_BOUND)\n")
    monkeypatch.setenv("BRANCHKIT_DIMENSION_BOUND", str(sizes[-1][1]))
    assert run_cli(capsys, *argv)[0] == 0


def test_lowered_bound_refuses_a_request_run_before(capsys, monkeypatch):
    # the products' sizes are memoized, but their check runs on every
    # request: a bound lowered after a first run refuses the second
    argv = ["oracle-check", "quat", "--form", "g2_2", "--lambda=-1,-2,3", "--step-bound", "5"]
    monkeypatch.delenv("BRANCHKIT_DIMENSION_BOUND", raising=False)
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setenv("BRANCHKIT_DIMENSION_BOUND", "30")
    assert run_cli(capsys, *argv) == (
        3, "", "resource error: a Heaviside product at step bound 5 would hold up to 726 "
        "entries, above the bound 30 (BRANCHKIT_DIMENSION_BOUND)\n")


ORACLE_ARGV = ["oracle-check", "quat", "--form", "g2_2", "--lambda=-1,-2,3", "--step-bound", "4"]


@pytest.mark.parametrize("variable,value,argv", [
    ("BRANCHKIT_DIMENSION_BOUND", "0", ORACLE_ARGV),
    # AC-2 builds Freudenthal tables without the memo, so it reads the bound
    ("BRANCHKIT_DIMENSION_BOUND", "1e3", ["selftest", "--only", "AC-2"]),
], ids=["dimension-0", "dimension-1e3"])
def test_malformed_bound_variable_exit_code(capsys, monkeypatch, variable, value, argv):
    monkeypatch.setenv(variable, value)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert variable in err and repr(value) in err


def test_selftest_single_criterion(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--only", "AC-7", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["criteria"][0]["id"] == "AC-7"


BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = BENCH / "golden.json"
README = BENCH.parent / "README.md"


def _readme_examples():
    """The ``branchkit ...`` lines of README.md's fenced sh blocks, as argv
    lists with any trailing ``# ...`` comment stripped."""
    examples, in_sh = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("branchkit "):
            examples.append(shlex.split(line, comments=True)[1:])
    return examples


def test_readme_examples_cover_every_subcommand():
    commands = {argv[0] for argv in _readme_examples()}
    assert commands == {"selftest", "list-forms", "branch", "weights", "oracle-check",
                        "admissible"}


@pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
def test_readme_examples_run(capsys, schema, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    # every command prints JSON by default but selftest, which prints text
    if "--output" not in argv and argv[0] != "selftest":
        jsonschema.validate(json.loads(out), schema)


def test_bench_tracer_hooks_resolve():
    # the benchmark's traced run wraps these names; a deletion must not
    # silently break it (bench/tracer.py is only read, never installed here)
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SPANS and tracer.COUNTS
    for mod, attr in tracer.SPANS + tracer.COUNTS:
        target = importlib.import_module("branchkit." + mod)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (mod, attr)


def test_bench_workloads_match_the_golden_argv(monkeypatch):
    # bench/params.py draws every request's parameter from context attributes
    # and the decomposition functions: a context change that breaks the
    # benchmark fails here, next to the CLI paths it exercises
    monkeypatch.syspath_prepend(str(BENCH.parent))
    workloads = importlib.import_module("bench.workloads")
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden["workloads"]) == sorted(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        argv = [row["argv"] for row in golden["workloads"][name]]
        assert workloads.requests(name, golden["seed"]) == argv, name


SETUP_PROBE = """
import sys
from bench import run, workloads

for forms in workloads.SETUP_FORMS.values():
    run.fresh_setup(forms)
    memos = (sys.modules["branchkit.oracle"].oracle_plan,
             sys.modules["branchkit.repweights"]._freudenthal_memo)
    rootsystems = sys.modules["branchkit.rootsystems"]
    specialcases = sys.modules["branchkit.specialcases"]
    sp1q = [specialcases.sp1q_context(q) for q in forms["sp1q"]]
    hermitian = [specialcases.hermitian_data(label) for label in forms["hermitian"]]
    # the per-datum, per-system, per-factor and per-context int caches
    owners = ([(rootsystems.quaternionic_root_datum(label), ("points",))
               for label in forms["quat"]]
              + [(c.rd, ("points",)) for c in sp1q] + [(c.sigma, ("rho",)) for c in sp1q]
              + [(c.k2_factor, ("int_roots",)) for c in sp1q]
              + [(c, ("torus_points", "table_chart")) for c in sp1q]
              + [(h.rd, ("points",)) for h in hermitian] + [(h.psi_h, ("rho",)) for h in hermitian])
    built = sum(name in vars(owner) for owner, names in owners for name in names)
    print(*(memo.cache_info().currsize for memo in memos), built)
"""


def test_bench_setup_builds_no_oracle_plan():
    # the benchmark's set-up_s is a fresh import plus root data: the oracle's
    # plans, the weight tables and the int points of root data (the coroot
    # covectors), positive systems, compact factors and contexts (the torus
    # pairings and the closed tables' chart) must stay lazy, built by the
    # first request that needs them
    root = BENCH.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=root,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.split("\n")[:-1] == ["0 0 0"] * 3


COLD_ORACLE_PROBE = """
import io
from contextlib import redirect_stdout
from bench import workloads
from branchkit import cli, formal

requests = workloads.requests("oracle_dense", workloads.DEFAULT_SEED)
for family in ("quat", "sp1q"):
    argv = next(r for r in requests if r[:2] == ["oracle-check", family])
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    print(code, out.getvalue().count('"agree": true'))
print(formal._convolve_multiset.cache_info().currsize, formal._window.cache_info().currsize > 0)
"""


def test_cold_oracle_requests_build_no_dense_product():
    # a cold oracle-check of either family enumerates its products' windows
    # and builds no dense Heaviside product
    root = BENCH.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    out = subprocess.run([sys.executable, "-c", COLD_ORACLE_PROBE], env=env, cwd=root,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.split("\n")[:-1] == ["0 1", "0 1", "0 True"]

TRACED_CERTIFICATION_PROBE = """
import io
from contextlib import redirect_stdout
from bench.run import fresh_setup
from bench.tracer import Tracer

cli, _ = fresh_setup({"quat": ["g2_2"], "sp1q": [], "hermitian": []})
tracer = Tracer()
tracer.install()
with redirect_stdout(io.StringIO()) as out:
    code = cli.main(["oracle-check", "quat", "--form", "g2_2", "--lambda=-1,-2,3",
                     "--step-bound", "5"])
calls = tracer.counts["ValidityRegion.certain_at.calls"]
print(code, out.getvalue().count('"agree": true'), calls)
"""


def test_traced_oracle_check_books_certification_to_formal():
    # the oracle certifies every term through ValidityRegion.certain_at,
    # which the benchmark's tracer wraps, so a traced oracle-check counts
    # its certification in the formal layer
    root = BENCH.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    out = subprocess.run([sys.executable, "-c", TRACED_CERTIFICATION_PROBE], env=env, cwd=root,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    code, agreed, calls = map(int, out.split())
    assert (code, agreed) == (0, 1)
    assert calls > 0


def test_python_m_branchkit_runs_the_cli(capsys):
    # ``python -m branchkit`` prints what cli.main prints, with its exit code
    root = BENCH.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "branchkit", "list-forms"], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == run_cli(capsys, "list-forms")


def test_selftest_oracle_criteria_build_no_dense_product(capsys):
    # AC-4 compares on the windows, and AC-9 reads the series only at its
    # certified nonzero coefficients: neither builds a dense Heaviside product
    formal._convolve_multiset.cache_clear()
    code, out, _ = run_cli(capsys, "selftest", "--only", "AC-4,AC-9")
    assert code == 0 and out.count("PASS") == 2
    assert formal._convolve_multiset.cache_info().currsize == 0


# CLI paths that the benchmark's golden set does not reach: cutoffs 0 and
# 40, text output, the simple basis, sp(1,q) oracle checks at q = 3, 4 and 5,
# e6_2 at parameters of denominators 2 and 6, and sp(1,q)'s torus weights.
# The SHA-256 digests were recorded before the closed tables were keyed on
# the table chart, and those of the last five paths before both families'
# closed forms were built by one builder.
UNCOVERED_DIGESTS = [
    ("branch quat --form g2_2 --lambda=-1,-2,3 --cutoff 0",
     "187b744e81d7b293cc66220c6a694b55953704bb71753e95fb00e48f4e044c0a"),
    ("branch quat --form g2_2 --lambda=-1,-2,3 --cutoff 40",
     "69d28a3eac3f1bd5648b877974a19e6d95e7fc9e9e5c7528052f8c152b9d9f44"),
    ("branch quat --form g2_2 --lambda=-1,-2,3 --cutoff 3 --output text",
     "8f4acb57832280b0c038e0608c7b035d1b5cca3b836e8020ea61bed6f85c4b78"),
    ("branch quat --form su2_n:3 --lambda=2,1,0,-1,-2 --cutoff 2 --output text",
     "494d3fa32219455bb392abb726a510bb78b298e439ca8ffea15160db0dbf6528"),
    ("branch sp1q --form sp1_q:2 --lambda=4,2,1 --cutoff 3 --output text",
     "6f7cf1fa4053617e64bdeb386fea77d057a159f17153e405309ecb846ce019f2"),
    ("branch quat --form g2_2 --lambda=5,3 --basis simple --cutoff 2",
     "af7caa300760b4f96dcaf827a6ce6ddba22220aba96b6df152e692e22fb75177"),
    ("branch quat --form so4_n:4 --lambda=3,2,1,0 --cutoff 0",
     "9a9e2be7de5067ceb238ddc4bd27fedd38963873d1bb0119ace5cd05b2a120a8"),
    ("branch sp1q --form sp1_q:3 --lambda=5,3,2,1 --check-oracle --step-bound 10",
     "6691b1ddbe9442a4b500e403eaa3b17cd3df7923cf38320fa08aff9b3f9e1264"),
    ("branch quat --form e6_2 --lambda=1/2,3/2,5/2,7/2,9/2,-9/2,-9/2,9/2",
     "3213f69944d384e6dc479c57dcbf217cc4b574e6ff56373a0125eee1c8400ecf"),
    ("branch quat --form e6_2 --lambda=-1/2,3/2,5/2,7/2,9/2,-29/6,-29/6,29/6 --cutoff 2",
     "e08d022464f3fd0c5207e5339d24597b1b78d196aaf256600dbda03fa94b61a7"),
    ("weights --form sp1_q:2 --lambda=5,3,1 --project torus",
     "e215326ccf457aa71375fefc00ae4b940574ea0d47a5c6fd91a021632552cc82"),
    ("weights --form sp1_q:2 --lambda=5,3,1 --project torus --output text",
     "7141b2978af5055b12e16519ac914f160dc600ab6b231e5deeeb0888c0ce3794"),
    ("weights --form sp1_q:4 --lambda=9,5,3,2,1 --project torus",
     "7ea615a4a0af3518df7e32f4423d497f90ea73168b87b288ac6fdbb611021261"),
    ("branch sp1q --form sp1_q:4 --lambda=9,5,3,2,1 --cutoff 5 --check-oracle --step-bound 12",
     "d058ad9e82515ccb4f10db5519f045261180bc9fd9bde030bc5601ded42c07da"),
    ("branch sp1q --form sp1_q:5 --lambda=11,6,4,3,2,1 --cutoff 4 --check-oracle --step-bound 10",
     "f6854ef51d8c171cc38da98334276f93f96a0665974f0723710ef4b6ec93b75e"),
    ("admissible hermitian --form su_pq:1,2 --lambda=-1,1,0",
     "9baa6d5b9db5ea39aeb68a8abf7f3b49df73bce7001e191680f072843be0d43a"),
    ("admissible hermitian --form su_pq:2,2 --lambda=3/2,-3/2,1/2,-1/2",
     "6c417fbcd2e275a72089376b53b63bcaffe0bb560c2181846ebf55215e2d3c74"),
    ("admissible hermitian --form sp_n_R:2 --lambda=2,1",
     "678c3eea6ce2b50f568d9c847af532b27a035c4af514189962c912481e21e875"),
    ("admissible hermitian --form so_star:4 --lambda=3,0,-1,-2",
     "88291b9d9b3232ac73cf1aa7ffd29978f33f2c70d0d7e54b70cc5a5021bf3451"),
    ("admissible hermitian --form su_pq:3,4 --lambda=-1,-2,-3,3,2,1,0 --output text",
     "95cc8489fd21d5bef3b023aed2af4d958e3933ebc5f60a244d042fdafd195b41"),
    ("list-forms", "611196378bde3720f0a2d56799824be920eca5e6f4e62c7258dbb1a7330e183e"),
    ("list-forms --output text",
     "c40a347b12b9957ef31191c4b1f89e5b158a7ed45021ceaac4126ae8076d0711"),
]


@pytest.mark.parametrize("argv,digest", UNCOVERED_DIGESTS)
def test_uncovered_paths_print_the_recorded_bytes(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,context", [
    ("branch quat --form g2_2 --lambda=-1,-2,3", QuaternionicContext),
    ("branch sp1q --form sp1_q:2 --lambda=4,2,1 --check-oracle --step-bound 6", Sp1qContext),
], ids=["quat", "sp1q"])
def test_non_dominant_closed_table_exits_1(capsys, monkeypatch, argv, context):
    # a fibre weight far along w_line puts the table off the dominant cone:
    # the closed form's one dominance test fails the request on both families
    monkeypatch.setattr(context, "fibre", lambda ctx, lam: ({10**6: 1}, 1))
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert "non-dominant parameters in the table" in err


def _run_script(name: str) -> str:
    root = BENCH.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, str(root / "scripts" / name)], env=env, cwd=root,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_g2_branching_demo_script_runs():
    out = _run_script("g2_branching_demo.py")
    assert out.count("oracle: agree=True on ") == 3


def test_hermitian_chamber_scan_script_runs():
    # the chamber counts only; the admissible column follows the decision rule
    rows = [line.split() for line in _run_script("hermitian_chamber_scan.py").splitlines()[1:]]
    chambers = {row[0]: int(row[2]) for row in rows}
    assert chambers["su_pq:2,3"] == 10
    assert chambers["e6_m14"] == 27
    assert chambers["e7_m25"] == 56


def _ab_pairs():
    path = BENCH.parent / "scripts" / "ab_pairs.py"
    spec = importlib.util.spec_from_file_location("ab_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_pairs_summary_on_fixed_numbers():
    # medians and inclusive quartiles per side, the median's move, and the
    # pairs the change reads better in, ties counting for neither side
    pairs = [({"pass_s": 1.0, "rate": 5}, {"pass_s": 0.9, "rate": 5}),
             ({"pass_s": 1.2, "rate": 4}, {"pass_s": 1.2, "rate": 6}),
             ({"pass_s": 1.1, "rate": 6}, {"pass_s": 1.3, "rate": 7})]
    end_to_end = [{"name": "pass_s", "better": "lower"}, {"name": "rate", "better": "higher"}]
    assert _ab_pairs().summarize("oracle_dense", 0, pairs, end_to_end) == [
        "| `oracle_dense` (0, 3) | `pass_s` | 1.1 [1.05, 1.15] | 1.2 [1.05, 1.25] | +9.1% | 1/3 |",
        "| `oracle_dense` (0, 3) | `rate` | 5 [4.5, 5.5] | 6 [5.5, 6.5] | +20.0% | 2/3 |",
    ]


@pytest.mark.parametrize("report", [
    {"correct": False, "attempted": 4, "failed": 0, "metrics": {}},
    {"correct": True, "attempted": 4, "failed": 1, "metrics": {}},
], ids=["incorrect", "failed"])
def test_ab_pairs_exits_1_on_a_failed_run(tmp_path, capsys, report):
    # a stand-in bench/run.py that reports a failure: no table is printed
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(f"print({json.dumps(json.dumps(report))})\n")
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "pass_s", "better": "lower"}]}))
    assert _ab_pairs().main([str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err


def test_oracle_requests_never_build_the_dense_series(capsys, monkeypatch):
    # oracle-check and --check-oracle certify, evaluate and compare only the
    # terms' windows; the whole truncated sum and its regions are built only
    # for their other readers (AC-3, AC-9, the tests)
    built = []
    for name in ("coeffs", "regions"):
        lazy = getattr(ProductSum, name)
        monkeypatch.setattr(ProductSum, name, property(
            lambda series, name=name, lazy=lazy: built.append(name) or lazy.func(series)))
    assert _golden_changes(capsys, "oracle_dense", 24) == []
    assert _golden_changes(capsys, "oracle_wide", 12) == []
    assert built == []


def _golden_changes(capsys, workload, count, reverse=False):
    """The argv of every golden request of ``workload`` whose output differs."""
    rows = json.loads(GOLDEN.read_text())["workloads"][workload]
    assert len(rows) == count
    changed = []
    for row in reversed(rows) if reverse else rows:
        code, out, _ = run_cli(capsys, *row["argv"])
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != row["sha256"]:
            changed.append(" ".join(row["argv"]))
    return changed


def test_tables_golden_digests(capsys):
    """Every ``tables`` request of the benchmark's golden set prints exactly
    the bytes whose SHA-256 is stored there: the byte-identical-output gate
    for refactors, without the oracle requests."""
    assert _golden_changes(capsys, "tables", 71) == []


@pytest.mark.parametrize("workload,count", [("oracle_dense", 24), ("oracle_wide", 12)])
def test_oracle_golden_digests(capsys, workload, count):
    """The same gate on the oracle requests: their series are built with the
    reflection matrices and pairings of ``lattice``."""
    assert _golden_changes(capsys, workload, count) == []


def test_oracle_golden_digests_in_reverse_order(capsys):
    """The per-process memos (contexts, oracle plans, Heaviside products,
    step counts) are shared by all requests: replaying both oracle workloads
    backwards in one process, from empty memos, must print the same bytes."""
    for module in [m for name, m in sys.modules.items() if name.startswith("branchkit")]:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    assert _golden_changes(capsys, "oracle_wide", 12, reverse=True) == []
    assert _golden_changes(capsys, "oracle_dense", 24, reverse=True) == []


# the boundary labels of each family, next to small valid ones
_LABELS = ("su2_n:0", "su2_n:1", "so4_n:2", "sp1_q:1", "su_pq:0,1", "so_star:2", "sp_n_R:0",
           "g2_2", "su2_n:2", "so4_n:3", "sp1_q:2", "su_pq:1,2", "sp_n_R:2")
_coordinate = st.one_of(st.integers(-4, 6).map(str),
                        st.sampled_from(["1/2", "-3/2", "5/2", "x", ""]))


def _rho(label):
    """The half-sum of the positive system a parameter of ``label`` is
    validated against, or None for a label no family accepts."""
    name, _, param = label.partition(":")
    try:
        if name == "sp1_q":
            return sp1q_context(int(param)).sigma.rho
        if name in ("su_pq", "so_star", "sp_n_R"):
            return hermitian_data(label).psi_h.rho
        return quaternionic_context(label).psi.rho
    except BranchkitError:
        return None


@st.composite
def _lambda(draw, label):
    """--lambda: either random coordinates, or rho or 3 rho of the label,
    possibly moved by at most 1 per coordinate (often a valid parameter)."""
    rho = _rho(label)
    if rho is None or draw(st.booleans()):
        return "--lambda=" + ",".join(draw(st.lists(_coordinate, max_size=6)))
    c = draw(st.sampled_from([1, 3]))
    moved = st.lists(st.integers(-1, 1), min_size=len(rho), max_size=len(rho))
    noise = draw(st.one_of(st.just([0] * len(rho)), moved))
    return "--lambda=" + ",".join(str(c * x + n) for x, n in zip(rho, noise))


@st.composite
def _request(draw):
    label = draw(st.sampled_from(_LABELS))
    lam = draw(_lambda(label))
    basis = draw(st.sampled_from([[], [], ["--basis", "simple"]]))
    matching = "sp1q" if label.startswith("sp1_q") else "quat"
    family = draw(st.sampled_from([matching, matching, "quat", "sp1q"]))
    step = ["--step-bound", str(draw(st.integers(0, 3)))]
    commands = ["branch", "oracle", "weights", "hermitian", "so3"]
    hermitian = label.startswith(("su_pq", "so_star", "sp_n_R"))
    natural = ["hermitian"] if hermitian else ["branch", "oracle", "weights"]
    command = draw(st.sampled_from(natural * 2 + commands))
    if command == "branch":
        check = draw(st.sampled_from([[], ["--check-oracle", *step]]))
        return ["branch", family, "--form", label, "--cutoff", str(draw(st.integers(-1, 4))),
                *check, lam, *basis]
    if command == "oracle":
        return ["oracle-check", family, "--form", label, *step, lam, *basis]
    if command == "weights":
        project = draw(st.sampled_from(["none", "torus"]))
        return ["weights", "--form", label, "--project", project, lam, *basis]
    if command == "hermitian":
        return ["admissible", "hermitian", "--form", label, lam, *basis]
    return ["admissible", "so3", "--n", str(draw(st.integers(-1, 12)))]


# command-line faults that the parser rejects with exit 2 wherever they land:
# a bad int, a bad choice, an unknown option, an ambiguous or value-less
# option, a flag given a value, a missing value and an extra positional
_PARSE_FAULTS = [["--cutoff=x"], ["--output", "xml"], ["--zzz"], ["--c"], ["--lambda"],
                 ["--check-oracle=1"], ["--basis", "-1,2"], ["--form", "--form"], ["extra"]]


@st.composite
def _argv(draw):
    """A request, half the time with a parse fault inserted somewhere after
    its command word, or with one of its strings dropped."""
    argv = draw(_request())
    edit = draw(st.sampled_from(["none", "none", "fault", "drop"]))
    at = draw(st.integers(1, len(argv)))
    if edit == "fault":
        return argv[:at] + draw(st.sampled_from(_PARSE_FAULTS)) + argv[at:]
    return argv[:at - 1] + argv[at:] if edit == "drop" else argv


@settings(max_examples=60, deadline=None)
@given(_argv(), st.sampled_from([None, "50", "abc", "0"]))
def test_cli_exits_cleanly_on_any_input(schema, argv, bound):
    """No input ends in a traceback or an internal error: the exit code is 0,
    2 or 3, and a successful call prints schema-valid JSON."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("BRANCHKIT_DIMENSION_BOUND", None)
    if bound is not None:
        os.environ["BRANCHKIT_DIMENSION_BOUND"] = bound
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # the parser rejects the command line
                code = exc.code
    finally:
        os.environ.pop("BRANCHKIT_DIMENSION_BOUND", None)
        if saved is not None:
            os.environ["BRANCHKIT_DIMENSION_BOUND"] = saved
    assert code in (0, 2, 3), (argv, bound, err.getvalue())
    if code == 0:
        jsonschema.validate(json.loads(out.getvalue()), schema)


# ---------------------------------------------------------------------------
# the command table's parser against the argparse parser it replaced

REFERENCE_PARSER = build_parser()
_FLAGS = sorted({a.flag for _, _, arguments in cli.COMMANDS.values() for a in arguments
                 if a.flag.startswith("--")} | {"--help"})
# strings a command line may hold besides a request's own: negative and
# dash-led values, help at every level and -h run together with more,
# unknown, ambiguous and unique prefixes, values with spaces, positionals of
# every level, bad ints and choices
_EXTRAS = ["-3", "-.5", "-1,2", "-", "-h", "--help", "--he", "-hx", "-h=1", "--help=", "--=x",
           "-hh", "-hhx", "-hh=1", "--zzz", "-x", "", "a b", "-h x", "--cut 3", "x", "3", "quat",
           "sp1q", "hermitian", "so3", "list-forms", "admissible", "selftest", "--n=٣", "--only=",
           "text", "xml", "--c", "--o", "--s", "--ou", "--lam", "--lambda=", "--check",
           "--check-oracle=", "--cutoff=x", "--output=xml", "1_0", "--step-bound=-2", "simple",
           "--project=torus"]


def _differs(arg: str) -> bool:
    """The one string the two parsers read differently on purpose: "--",
    which argparse reads as the end of the options and the table's parser
    as an unknown option."""
    return arg == "--"


@st.composite
def _command_line(draw):
    """A request or a bare command, edited a few times: an --opt=value split
    or an --opt value joined, a long option cut to a prefix, a string
    duplicated, dropped, moved or inserted."""
    argv = draw(st.one_of(_request(), st.sampled_from(
        [["list-forms"], ["selftest", "--only", "AC-1"], ["admissible", "so3", "--n", "3"], []])))
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["split", "join", "prefix", "copy", "drop", "swap", "insert",
                                     "insert"]))
        i = draw(st.integers(0, len(argv)))
        arg = argv[i] if i < len(argv) else ""
        name, eq, value = arg.partition("=")
        if edit == "split" and name.startswith("--") and eq:
            argv[i:i + 1] = [name, value]
        elif edit == "join" and arg.startswith("--") and i + 1 < len(argv):
            argv[i:i + 2] = [f"{arg}={argv[i + 1]}"]
        elif edit == "prefix" and len(name) > 3 and name.startswith("--"):
            argv[i] = name[:draw(st.integers(3, len(name)))] + eq + value
        elif edit == "copy" and i < len(argv):
            argv.insert(draw(st.integers(0, len(argv))), *argv[i:i + 1])
        elif edit == "drop" and i < len(argv):
            del argv[i]
        elif edit == "swap" and i < len(argv):
            j = draw(st.integers(0, len(argv) - 1))
            argv[i], argv[j] = argv[j], argv[i]
        elif edit == "insert":
            argv.insert(i, draw(st.sampled_from(_EXTRAS + _FLAGS)))
    return argv


def _parsed(parse, argv):
    """The namespace's fields but ``fn``, or the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            fields = dict(vars(parse(argv)))
        except SystemExit as exc:
            return exc.code
    del fields["fn"]
    return fields


@settings(max_examples=1500, deadline=None)
@given(_command_line().filter(lambda argv: not any(map(_differs, argv))))
def test_parser_reads_what_argparse_read(argv):
    assert _parsed(cli.parse_args, argv) == _parsed(REFERENCE_PARSER.parse_args, argv)


def test_parse_errors_print_usage_and_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["branch", "quat", "--form", "g2_2", "--lambda=1", "--cut", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: branchkit branch {quat,sp1q} --form FORM [--cutoff CUTOFF]")
    assert err.endswith("\nbranchkit: error: argument --cutoff: invalid int value: 'x'\n")


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("path", list(cli.COMMANDS), ids=lambda path: " ".join(path) or "top")
def test_help_names_every_argument(capsys, path, flag):
    with pytest.raises(SystemExit) as exc:
        main([*path, flag])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: branchkit {' '.join(path)}".rstrip())
    for argument in cli.COMMANDS[path][2]:
        names = [argument.flag] if argument.flag.startswith("--") else argument.kind
        assert all(name in out for name in names), (argument, out)
    assert all(cli.COMMANDS[p][1] in out for p in cli.COMMANDS if p[:len(path)] == path)


def test_cli_imports_no_argparse():
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    # a fresh interpreter: argparse would be in sys.modules had the CLI imported it
    probe = ("import sys, branchkit.cli; "
             "print(sorted({'argparse', 'branchkit.cli'} & {*sys.modules}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out == "['branchkit.cli']\n"


# ---------------------------------------------------------------------------
# the JSON writer against json.dumps(payload, indent=2, sort_keys=True)

def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


_LEAVES = st.one_of(st.text(), st.integers(), st.booleans(), st.none(),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é€😀", "a\"b\\c"]))
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), _DOCUMENTS, max_size=6), _DOCUMENTS)
def test_writer_matches_json_dumps(payload, document):
    assert _emit(payload, "json") == _dumps(payload) + "\n"
    out: list = []
    _write_json(document, "", out)
    assert "".join(out) == _dumps(document)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(st.characters(blacklist_characters="{}")), min_size=1, max_size=4,
                unique=True).flatmap(lambda keys: st.tuples(
                    st.just(tuple(keys)),
                    st.lists(st.tuples(*[st.text()] * len(keys)), max_size=5))),
       st.text())
def test_rows_write_as_a_list_of_objects(keys_rows, name):
    keys, rows = keys_rows
    want = [dict(zip(keys, row)) for row in rows]
    assert _emit({name: Rows(keys, rows), "n": 1}, "json") == _dumps({name: want, "n": 1}) + "\n"


_EVERY_SUBCOMMAND = [
    ["list-forms"],
    ["branch", "quat", "--form", "g2_2", "--lambda=-1,-2,3", "--cutoff", "3", "--check-oracle",
     "--step-bound", "3"],
    ["branch", "sp1q", "--form", "sp1_q:2", "--lambda=4,2,1", "--cutoff", "3"],
    ["admissible", "hermitian", "--form", "su_pq:2,3", "--lambda=5,4,3,-1,-2"],
    ["admissible", "so3", "--n", "4"],
    ["weights", "--form", "g2_2", "--lambda=-1,-2,3"],
    ["weights", "--form", "sp1_q:3", "--lambda=5,3,2,1", "--project", "torus"],
    ["oracle-check", "quat", "--form", "su2_n:2", "--lambda=3,1,0,-2", "--step-bound", "3"],
    ["oracle-check", "sp1q", "--form", "sp1_q:2", "--lambda=4,2,1", "--step-bound", "4"],
    ["selftest", "--only", "AC-1", "--output", "json"],
]


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=" ".join)
def test_every_subcommand_prints_what_json_dumps_would(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == _dumps(json.loads(out)) + "\n"


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=" ".join)
def test_text_output_prints_no_python_reprs(capsys, argv):
    # a nested dict prints as key.sub lines, a list comma-joined
    code, out, _ = run_cli(capsys, *argv, "--output", "text")
    assert code == 0
    assert "{'" not in out and "['" not in out and "'" not in out
    if "--check-oracle" in argv:
        assert "\noracle.agree: True\noracle.comparedWeights: " in out
