"""branchkit benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload oracle_dense --seed 0 --seconds 40 --trace 0

The workload's request list (``bench/workloads.py``) is built from the seed.
Each pass imports ``branchkit`` afresh, so its memo caches start cold as they
do for a CLI user, builds the root data of the workload's forms (timed as
set-up), and sends every request to ``branchkit.cli.main`` in-process, one at
a time.  Passes repeat while another one fits in ``--seconds``; there is
always at least one.  Every output is checked after the pass, outside the
timed region (``bench/checks.py``).  Times are CPU seconds of this process,
rescaled to a reference CPU speed (see ``end_to_end``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics.  With
``--trace 1`` one untraced pass is followed by one traced pass
(``bench/tracer.py``), and the last line reports the per-layer metrics of the
traced pass and the tracing overhead; the spans are written to
``.bench_build/trace_<workload>_<seed>.json``.  The lines before the last one
print every metric by name with its unit, and the run's metadata.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = SRC / "branchkit" / "schemas" / "output.schema.json"
TRACE_DIR = ROOT / ".bench_build"

SETUP_SAMPLES = 3
# Times are reported at the CPU speed at which ``reference`` takes this many
# seconds, about its time on an idle vCPU of the machine named in
# ``end_to_end``.
REFERENCE_NOMINAL_S = 0.02


def fresh_setup(forms):
    """Import branchkit anew and build the root data of ``forms``.

    Returns the fresh ``branchkit.cli`` module and the CPU seconds it took.
    """
    for name in [n for n in sys.modules if n == "branchkit" or n.startswith("branchkit.")]:
        del sys.modules[name]
    gc.collect()
    start = process_time()
    cli = importlib.import_module("branchkit.cli")
    rootsystems = sys.modules["branchkit.rootsystems"]
    specialcases = sys.modules["branchkit.specialcases"]
    for label in forms["quat"]:
        rootsystems.quaternionic_root_datum(label)
    for q in forms["sp1q"]:
        specialcases.sp1q_context(q)
    for label in forms["hermitian"]:
        specialcases.hermitian_data(label)
    return cli, process_time() - start


def call(main, argv):
    """Run one request; returns (CPU seconds, exit code, stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crashing request is a failed request, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    seconds = process_time() - start
    if error is None and code != 0:
        error = err.getvalue().strip() or None
    return seconds, code, out.getvalue(), error


def _series(rng, low):
    """A fixed sparse series: 40 weight tuples of length 4 with Fraction values."""
    return {tuple(rng.randrange(-6, 7) for _ in range(4)): Fraction(rng.randrange(low, 50),
                                                                    rng.randrange(1, 9))
            for _ in range(40)}


_rng = random.Random(0)
REFERENCE_SERIES = (_series(_rng, 1), _series(_rng, -50))


def reference():
    """A fixed pure-Python computation, timed to gauge the CPU's current speed.

    It is the loop ``branchkit`` spends most of its time in, written out
    independently of it: the product of two sparse series keyed by weight
    tuples, with Fraction coefficients, done twice.  Returns its CPU seconds.
    """
    a, b = REFERENCE_SERIES
    start = process_time()
    for _ in range(2):
        out = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                out[key] = out.get(key, 0) + va * vb
    return process_time() - start


def timed_pass(forms, requests):
    """Set up, then send every request once, timing ``reference`` before the
    set-up, between every two steps and after the last one.

    Returns (set-up seconds, one ``call`` result per request, the gauges).
    """
    gauges = [reference()]
    cli, setup = fresh_setup(forms)
    results = []
    for argv in requests:
        gauges.append(reference())
        results.append(call(cli.main, argv))
    gauges.append(reference())
    return setup, results, gauges


def run_pass(cli, requests, tracer=None):
    """Send every request once; returns one ``call`` result per request."""
    results = []
    for rid, argv in enumerate(requests):
        main = cli.main if tracer is None else functools.partial(tracer.request, rid, cli.main)
        results.append(call(main, argv))
    return results


def end_to_end(passes, rescale=True):
    """End-to-end metrics of the ``timed_pass`` results, and each request's
    median latency over the passes.

    Times are CPU seconds of this process, so time the hypervisor gives to
    other guests does not count.  The CPU's speed still changes: on a shared
    2-vCPU virtual machine (Intel Xeon) the same request took up to 1.5x as
    much CPU time from one minute to the next.  Every step is therefore
    rescaled to the reference speed: its time is multiplied by
    ``REFERENCE_NOMINAL_S`` over the mean of the two gauges around it.  A
    pass with no requests gives one more set-up sample.

    The median and the slowest request latency are printed, not reported as
    metrics: requests fall into clusters of very different cost, so both
    depend on which parameters the seed draws (the slowest by 15% between
    seeds on ``oracle_dense``).  The geometric mean does not jump that way.
    """
    def scale(gauges, i):
        return 2 * REFERENCE_NOMINAL_S / (gauges[i] + gauges[i + 1]) if rescale else 1.0

    setups = [setup * scale(gauges, 0) for setup, _, gauges in passes]
    scaled = [[r[0] * scale(gauges, i + 1) for i, r in enumerate(results)]
              for _, results, gauges in passes if results]
    per_request = [statistics.median(column) for column in zip(*scaled)]
    return {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(sum(times) for times in scaled),
        "req_gmean_s": statistics.geometric_mean(per_request),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, per_request


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def commit() -> str:
    """The checkout's git commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not SCHEMA.is_file():
        print(f"error: no branchkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from bench import checks, workloads
    from bench.tracer import LAYERS, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    requests = workloads.requests(args.workload, args.seed)
    forms = workloads.SETUP_FORMS[args.workload]
    golden = checks.load_golden(args.workload) if args.seed == workloads.DEFAULT_SEED else None
    checker = checks.Checker(SCHEMA, golden)

    timed = []
    started = perf_counter()
    while True:
        pass_started = perf_counter()
        timed.append(timed_pass(forms, requests))
        now = perf_counter()
        if args.trace or now - started + (now - pass_started) > args.seconds:
            break
    passes = [results for _, results, _ in timed]
    while len(timed) < SETUP_SAMPLES:
        timed.append(timed_pass(forms, []))

    tracer = None
    checked = list(passes)
    if args.trace:
        cli, _ = fresh_setup(forms)
        tracer = Tracer()
        tracer.install()
        checked.append(run_pass(cli, requests, tracer))

    failures, failed = [], 0
    for results in checked:
        for rid, (argv, (_, code, stdout, error)) in enumerate(zip(requests, results)):
            found = checker.problems(rid, argv, code, stdout, error)
            if stdout != passes[0][rid][2]:
                found.append("output differs between passes")
            failed += bool(found)
            failures.extend(f"{' '.join(argv)}: {problem}" for problem in found)
    attempted = len(requests) * len(checked)

    print(f"# workload={args.workload} seed={args.seed} closed loop, 1 client; "
          f"{len(requests)} requests x {len(passes)} untraced passes, {len(timed)} set-ups; "
          f"python={platform.python_version()} commit={commit()} nproc={os.cpu_count()}")
    if tracer is None:
        metrics, latencies = end_to_end(timed)
        raw, raw_latencies = end_to_end(timed, rescale=False)
        print(f"# {len(latencies)} request latencies: median {statistics.median(latencies)} s, "
              f"slowest {max(latencies)} s; reference gauge mean "
              f"{statistics.mean(g for _, _, gauges in timed for g in gauges) * 1000:.3f} ms; "
              f"run wall {perf_counter() - started:.1f} s")
        print("# not rescaled: " + " ".join(f"{k}={v:.4f}" for k, v in raw.items())
              + f" slowest={max(raw_latencies):.4f}")
    else:
        traced = checked[-1]
        metrics, self_check = tracer.layer_metrics(traced)
        failures.extend(self_check)
        traced_cpu = sum(r[0] for r in traced)
        untraced_cpu = sum(r[0] for r in passes[0])
        metrics["trace.overhead_s"] = traced_cpu - untraced_cpu
        total = sum(metrics[layer + ".self_s"] for layer in LAYERS)
        split = ", ".join(f"{layer} {metrics[layer + '.self_s'] / total:.1%}" for layer in LAYERS)
        print(f"# self-time split of {total:.3f} s: {split}")
        print(f"# traced pass {traced_cpu:.3f} CPU s, untraced pass {untraced_cpu:.3f} CPU s")
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace_{args.workload}_{args.seed}.json")
    for name, value in metrics.items():
        print(f"{name} {value} {unit_of(name)}")
    print(f"failed_frac {failed / attempted} ({failed}/{attempted})")
    for line in failures:
        print(f"# FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
