import hashlib
import json
from pathlib import Path

import jsonschema
import pytest

from branchkit.cli import SCHEMA_PATH, main


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


def test_closed_form_rejects_su21_itself(capsys):
    code, out, err = run_cli(
        capsys, "branch", "quat", "--form", "su2_n:1", "--lambda=2,0,-2", "--cutoff", "4"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: the closed form needs d >= 2")
    assert "su2_n:1 has d = 1" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("bound,argv", [
    ("4", ["quat", "--form", "so4_n:4", "--lambda", "4,3,2,1"]),
    ("5", ["sp1q", "--form", "sp1_q:3", "--lambda=5,3,2,1"]),
], ids=["quat", "sp1q"])
def test_resource_error_exit_code(capsys, monkeypatch, bound, argv):
    monkeypatch.setenv("BRANCHKIT_GROUP_ORDER_BOUND", bound)
    code, _, err = run_cli(capsys, "oracle-check", *argv, "--step-bound", "4")
    assert code == 3
    assert "bound" in err


def test_coset_bound_admits_exactly_the_coset_count(capsys, monkeypatch):
    # sp1_q:3 has 6 cosets W_Z\W(K2): a bound of 6 runs, 5 refuses
    argv = ["oracle-check", "sp1q", "--form", "sp1_q:3", "--lambda=5,3,2,1", "--step-bound", "4"]
    monkeypatch.setenv("BRANCHKIT_GROUP_ORDER_BOUND", "6")
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setenv("BRANCHKIT_GROUP_ORDER_BOUND", "5")
    assert run_cli(capsys, *argv)[0] == 3


ORACLE_ARGV = ["oracle-check", "quat", "--form", "g2_2", "--lambda=-1,-2,3", "--step-bound", "4"]


@pytest.mark.parametrize("variable,value,argv", [
    ("BRANCHKIT_GROUP_ORDER_BOUND", "abc", ORACLE_ARGV),
    ("BRANCHKIT_GROUP_ORDER_BOUND", "0", ORACLE_ARGV),
    # AC-2 builds Freudenthal tables without the memo, so it reads the bound
    ("BRANCHKIT_DIMENSION_BOUND", "1e3", ["selftest", "--only", "AC-2"]),
], ids=["group-order-abc", "group-order-0", "dimension-1e3"])
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


GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"


def _golden_changes(capsys, workload, count):
    """The argv of every golden request of ``workload`` whose output differs."""
    rows = json.loads(GOLDEN.read_text())["workloads"][workload]
    assert len(rows) == count
    changed = []
    for row in rows:
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
