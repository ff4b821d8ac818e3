"""In-memory span tracer for the benchmark's traced run.

``Tracer.install`` wraps the public functions named in ``SPANS`` in every
``branchkit`` module namespace that binds them (``convolve`` is bound in
``formal``, ``oracle``, ``specialcases``, ``acceptance`` and the package
itself), and wraps methods on their classes.  Each call records one span:
request id, parent span, name, layer, start and end, on the process's
CPU clock like the request latencies in ``bench/run.py``.  ``COUNTS`` functions
are only counted, because they are called too often for a span each.

Spans stay in memory; ``write`` dumps them once the run is over.  A span's
self time is its duration minus the durations of its direct children, so the
self times of one request add up to the duration of its root span.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import process_time

ROOT = "cli.request"

# (module, attribute); the module is the span's layer.  An attribute
# "Class.method" wraps a method.
SPANS = (
    ("formal", "convolve"),
    ("formal", "convolve_multiset"),
    ("formal", "ValidityRegion.certain_at"),
    ("formal", "DeltaSeries.certain_at"),
    ("rootsystems", "weyl_generate"),
    ("rootsystems", "coset_reps"),
    ("oracle", "restriction_series"),
    ("oracle", "extract_multiplicities"),
    ("oracle", "verify_closed_form"),
    ("repweights", "freudenthal"),
    ("repweights", "cached_freudenthal"),
    ("repweights", "restrict_weights"),
    ("quaternionic", "quaternionic_context"),
    ("quaternionic", "branching_table"),
    ("quaternionic", "check_table_dominance"),
    ("specialcases", "sp1q_restriction_series"),
    ("specialcases", "sp1q_verify"),
    ("specialcases", "sp1q_branching_table"),
    ("specialcases", "sp1q_string_table"),
    ("specialcases", "hermitian_data"),
    ("specialcases", "kss_admissible_report"),
    ("specialcases", "so3_admissible"),
)

COUNTS = (
    ("lattice", "rational_solve"),
    ("lattice", "mat_mul"),
)

LAYERS = ("cli", "formal", "rootsystems", "oracle", "repweights", "quaternionic",
          "specialcases")

# The traced run fails unless, for every request, the self times of its spans
# sum to its measured latency within this share plus this many seconds.
SELF_CHECK_SHARE = 0.02
SELF_CHECK_SLACK_S = 0.002


def _observe(name, args, result, counts):
    """Work counters read at the span boundary, from arguments and results."""
    if name == "convolve":
        counts["convolve_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)
    elif name == "convolve_multiset":
        counts["coeffs_materialized"] += len(result.coeffs)
    elif name == "weyl_generate":
        counts["weyl_elements"] += len(result)
    elif name == "coset_reps":
        counts["cosets"] += len(result)
        counts["coset_elements"] += len(args[0])
    elif name in ("restriction_series", "sp1q_restriction_series"):
        counts["series_coeffs"] += len(result.coeffs)
        counts["regions"] += len(result.regions)
        counts["distinct_direction_sets"] += len({r.directions for r in result.regions})
    elif name in ("verify_closed_form", "sp1q_verify"):
        counts["compared"] += result.compared
    elif name == "freudenthal":
        counts["weights_built"] += len(result.mults)
    elif name == "branching_table":
        counts["table_entries"] += len(result.entries)


class Tracer:
    """Records spans for calls into the wrapped ``branchkit`` functions."""

    def __init__(self):
        self.spans = []   # (request, parent, name, layer, start, end)
        self.counts = Counter()
        self._stack = []
        self._request = None

    def _wrap(self, fn, name, layer):
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = process_time()
                stack.pop()
                spans[sid] = (tracer._request, parent, name, layer, start, end)
            counts[name + ".calls"] += 1
            _observe(name, args, result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Wrap every listed function wherever a loaded ``branchkit`` module binds it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "branchkit" or n.startswith("branchkit."))]

        def rebind(original, replacement):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)

        for mod, attr in SPANS:
            module = sys.modules["branchkit." + mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), attr, mod))
            else:
                original = getattr(module, attr)
                rebind(original, self._wrap(original, attr, mod))
        for mod, attr in COUNTS:
            original = getattr(sys.modules["branchkit." + mod], attr)
            rebind(original, self._counted(original, attr))

    def request(self, rid, fn, *args):
        """Run one request under a root span; returns fn's result."""
        self._request = rid
        return self._wrap(fn, ROOT, "cli")(*args)

    def self_times(self):
        """{(request, name, layer): self seconds} over all recorded spans."""
        child = defaultdict(float)
        for span in self.spans:
            if span[1] is not None:
                child[span[1]] += span[5] - span[4]
        out = defaultdict(float)
        for sid, (rid, _, name, layer, start, end) in enumerate(self.spans):
            out[(rid, name, layer)] += end - start - child[sid]
        return out

    def layer_metrics(self, results):
        """Per-layer metrics of a traced pass, and the requests whose self
        times do not add up to their measured latency.  ``results`` holds one
        (seconds, exit code, stdout, error) tuple per request."""
        by_name, by_layer, by_request = defaultdict(float), defaultdict(float), defaultdict(float)
        for (rid, name, layer), seconds in self.self_times().items():
            by_name[name] += seconds
            by_layer[layer] += seconds
            by_request[rid] += seconds
        failures = [
            f"request {rid}: self times sum to {by_request[rid]:.6f} s, latency {latency:.6f} s"
            for rid, (latency, *_) in enumerate(results)
            if abs(by_request[rid] - latency) > SELF_CHECK_SHARE * latency + SELF_CHECK_SLACK_S
        ]
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = {
            "formal.convolve_s": by_name["convolve"],
            "formal.convolve_pairs": c["convolve_pairs"],
            "formal.convolve_multiset_s": by_name["convolve_multiset"],
            "formal.coeffs_materialized": c["coeffs_materialized"],
            "formal.certain_at_s": by_name["ValidityRegion.certain_at"]
                                   + by_name["DeltaSeries.certain_at"],
            "formal.certain_at_calls": c["ValidityRegion.certain_at.calls"],
            "formal.regions": c["regions"],
            "formal.distinct_direction_sets": c["distinct_direction_sets"],
            "rootsystems.weyl_generate_s": by_name["weyl_generate"],
            "rootsystems.weyl_elements": c["weyl_elements"],
            "rootsystems.coset_reps_s": by_name["coset_reps"],
            "rootsystems.cosets": c["cosets"],
            "rootsystems.coset_yield": ratio(c["cosets"], c["coset_elements"]),
            "oracle.restriction_series_s": by_name["restriction_series"],
            "oracle.extract_s": by_name["extract_multiplicities"],
            "oracle.verify_self_s": by_name["verify_closed_form"],
            "oracle.compared": c["compared"],
            "oracle.series_coeffs": c["series_coeffs"],
            "oracle.certified_yield": ratio(c["compared"], c["series_coeffs"]),
            "repweights.freudenthal_s": by_name["freudenthal"],
            "repweights.freudenthal_calls": c["freudenthal.calls"],
            "repweights.table_lookups": c["cached_freudenthal.calls"],
            "repweights.memo_hit_ratio": ratio(
                c["cached_freudenthal.calls"] - c["freudenthal.calls"],
                c["cached_freudenthal.calls"]),
            "repweights.weights_built": c["weights_built"],
            "quaternionic.context_s": by_name["quaternionic_context"],
            "quaternionic.context_calls": c["quaternionic_context.calls"],
            "quaternionic.branching_table_s": by_name["branching_table"],
            "quaternionic.table_entries": c["table_entries"],
            "specialcases.sp1q_series_s": by_name["sp1q_restriction_series"],
            "specialcases.sp1q_verify_s": by_name["sp1q_verify"],
            "specialcases.sp1q_table_s": by_name["sp1q_branching_table"],
            "specialcases.hermitian_s": by_name["hermitian_data"]
                                        + by_name["kss_admissible_report"],
            "lattice.rational_solve_calls": c["rational_solve.calls"],
            "lattice.mat_mul_calls": c["mat_mul.calls"],
            "cli.output_bytes": sum(len(r[2].encode()) for r in results),
        }
        for layer in LAYERS:
            metrics[layer + ".self_s"] = by_layer[layer]
        metrics["trace.spans"] = len(self.spans)
        return metrics, failures

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["request", "parent", "name", "layer", "start", "end"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
