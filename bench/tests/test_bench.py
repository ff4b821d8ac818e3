"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from bench import checks, run, workloads  # noqa: E402
from bench.tracer import Tracer  # noqa: E402


def _option(argv, name):
    for arg in argv:
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return argv[argv.index(name) + 1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_requests_are_deterministic_per_seed(workload):
    assert workloads.requests(workload, 3) == workloads.requests(workload, 3)
    lists = [workloads.requests(workload, seed) for seed in range(4)]
    assert any(a != lists[0] for a in lists[1:])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_parameters_are_valid(seed):
    from branchkit.lattice import parse_weight
    from branchkit.quaternionic import quaternionic_context, validate_small_dominant
    from branchkit.specialcases import (
        hermitian_data,
        sp1q_context,
        sp1q_validate,
        validate_hermitian_parameter,
    )

    checked = 0
    for workload in workloads.WORKLOADS:
        for argv in workloads.requests(workload, seed):
            if "--form" not in argv:
                continue
            form, lam = _option(argv, "--form"), parse_weight(_option(argv, "--lambda"))
            if argv[:2] == ["admissible", "hermitian"]:
                validate_hermitian_parameter(hermitian_data(form), lam)
            elif form.startswith("sp1_q:"):
                sp1q_validate(sp1q_context(int(form.split(":")[1])), lam)
            else:
                validate_small_dominant(quaternionic_context(form), lam)
            checked += 1
    assert checked > 40


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_golden_digests_reproduce(workload):
    golden = checks.load_golden(workload)
    assert golden is not None
    requests = workloads.requests(workload, workloads.DEFAULT_SEED)
    checker = checks.Checker(run.SCHEMA, golden)
    cli, _ = run.fresh_setup(workloads.SETUP_FORMS[workload])
    results = run.run_pass(cli, requests)
    assert len(golden) == len(requests)
    for rid, (argv, (_, code, stdout, error)) in enumerate(zip(requests, results)):
        assert checker.problems(rid, argv, code, stdout, error) == [], argv


def test_tracer_leaves_outputs_identical_and_self_times_add_up():
    requests = workloads.requests("tables", 1) + [
        argv for argv in workloads.requests("oracle_dense", 1) if "sp1q" in argv
    ]
    forms = {key: tuple(set(workloads.SETUP_FORMS["tables"][key])
                        | set(workloads.SETUP_FORMS["oracle_dense"][key]))
             for key in ("quat", "sp1q", "hermitian")}
    cli, _ = run.fresh_setup(forms)
    plain = run.run_pass(cli, requests)
    cli, _ = run.fresh_setup(forms)
    tracer = Tracer()
    tracer.install()
    traced = run.run_pass(cli, requests, tracer)
    for argv, a, b in zip(requests, plain, traced):
        assert (a[1], a[2]) == (b[1], b[2]), argv
    metrics, failures = tracer.layer_metrics(traced)
    assert failures == []
    assert metrics["specialcases.sp1q_series_s"] > 0
    assert metrics["oracle.compared"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) | {"trace.overhead_s"} == {m["name"] for m in spec["per_layer"]}


def test_end_to_end_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nominal = run.REFERENCE_NOMINAL_S
    fake = [(0.1, [(0.5, 0, "", None), (0.25, 0, "", None)], [nominal] * 4)]
    names = set(run.end_to_end(fake)[0])
    assert names == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]


def test_end_to_end_rescales_each_step_to_the_reference_speed():
    n = run.REFERENCE_NOMINAL_S
    # The second pass slows to half speed halfway through its first request,
    # and the gauges around a step average its speed.
    passes = [(0.5, [(1.0, 0, "", None), (4.0, 0, "", None)], [n, n, n, n]),
              (0.5, [(1.5, 0, "", None), (8.0, 0, "", None)], [n, n, 2 * n, 2 * n]),
              (0.5, [(1.0, 0, "", None), (4.0, 0, "", None)], [n, n, n, n]),
              (1.0, [], [2 * n, 2 * n])]
    metrics, latencies = run.end_to_end(passes)
    assert metrics["pass_s"] == pytest.approx(5.0)
    assert metrics["req_gmean_s"] == pytest.approx(2.0)
    assert metrics["setup_s"] == pytest.approx(0.5)
    assert latencies == pytest.approx([1.0, 4.0])
    slow = [(1.0, [(2.0, 0, "", None)], [2 * n] * 3)]
    assert run.end_to_end(slow)[0]["pass_s"] == pytest.approx(1.0)
    assert run.end_to_end(slow, rescale=False)[0]["pass_s"] == pytest.approx(2.0)
