"""The benchmark's workloads: seeded CLI request lists.

A workload is a list of ``branchkit`` argv lists built from a seed.  The
program under test sees only those argv lists; the seed feeds the parameter
generators in ``bench.params`` and nothing else.  ``SETUP_FORMS`` lists the
forms whose root data the set-up phase constructs before the first request.
"""

from __future__ import annotations

import functools
import random

from branchkit.quaternionic import quaternionic_context
from branchkit.specialcases import hermitian_data, sp1q_context

from bench import params

DEFAULT_SEED = 0

WORKLOADS = ("oracle_dense", "oracle_wide", "tables")

QUAT_TABLE_FORMS = ("g2_2", "su2_n:3", "so4_n:5", "f4_4", "e6_2", "e7_m5", "e8_m24")
# Draws per form in ``tables``.  The cheap forms get more, so that the
# geometric-mean latency rests on many requests; an E-type request costs up
# to a few seconds and gets one.
TABLE_DRAWS = {"g2_2": 6, "su2_n:3": 6, "so4_n:5": 6, "f4_4": 3, "e6_2": 1, "e7_m5": 1,
               "e8_m24": 1, "sp1_q:2": 6, "sp1_q:3": 6, "hermitian": 6}
# Draws per form in the oracle workloads.  A request's cost depends on its
# parameter by up to 50% (1.1 to 1.7 s for an so4_n:4 check), so several
# draws per form keep a pass's cost close to the same on every seed.
DENSE_DRAWS = 3
DENSE_SP1Q_DRAWS = 3
WIDE_DRAWS = 4
HERMITIAN_FORMS = ("su_pq:2,3", "sp_n_R:3", "so_star:5", "e6_m14", "e7_m25")

SETUP_FORMS = {
    "oracle_dense": {"quat": ("g2_2", "su2_n:2", "so4_n:4"), "sp1q": (2, 3), "hermitian": ()},
    "oracle_wide": {"quat": ("so4_n:6", "f4_4", "su2_n:5"), "sp1q": (), "hermitian": ()},
    "tables": {"quat": QUAT_TABLE_FORMS, "sp1q": (2, 3), "hermitian": HERMITIAN_FORMS},
}


@functools.lru_cache(maxsize=None)
def generator(kind, label):
    """The parameter generator for one form; built once per process."""
    if kind == "quat":
        return params.quaternionic_generator(quaternionic_context(label))
    if kind == "sp1q":
        return params.sp1q_generator(sp1q_context(label))
    return params.HermitianGenerator(hermitian_data(label))


def _quat(rng, label):
    return generator("quat", label).draw(rng)


def _sp1q(rng, q):
    return generator("sp1q", q).draw(rng)


def oracle_dense(rng):
    reqs = []
    for label in ("g2_2", "su2_n:2", "so4_n:4"):
        for _ in range(DENSE_DRAWS):
            reqs.append(["oracle-check", "quat", "--form", label, "--step-bound", "5",
                         "--lambda=" + _quat(rng, label)])
            reqs.append(["branch", "quat", "--form", label, "--check-oracle", "--step-bound", "5",
                         "--lambda=" + _quat(rng, label)])
    for q in (2, 3):
        for _ in range(DENSE_SP1Q_DRAWS):
            reqs.append(["oracle-check", "sp1q", "--form", f"sp1_q:{q}", "--step-bound", "10",
                         "--lambda=" + _sp1q(rng, q)])
    return reqs


def oracle_wide(rng):
    return [
        ["oracle-check", "quat", "--form", label, "--step-bound", "2",
         "--lambda=" + _quat(rng, label)]
        for label in ("so4_n:6", "f4_4", "su2_n:5")
        for _ in range(WIDE_DRAWS)
    ]


def tables(rng):
    reqs = []
    drawn = {}
    for label in QUAT_TABLE_FORMS:
        for _ in range(TABLE_DRAWS[label]):
            lam = _quat(rng, label)
            drawn.setdefault(label, lam)
            reqs.append(["branch", "quat", "--form", label, "--cutoff", "8", "--lambda=" + lam])
    for q in (2, 3):
        for _ in range(TABLE_DRAWS[f"sp1_q:{q}"]):
            reqs.append(["branch", "sp1q", "--form", f"sp1_q:{q}", "--cutoff", "8",
                         "--lambda=" + _sp1q(rng, q)])
    # Reused parameters: a branch request above built the weight table, so
    # these hit the Freudenthal memo; su2_n:3 gets a fresh draw and misses.
    for label in ("f4_4", "e6_2", "e8_m24"):
        reqs.append(["weights", "--form", label, "--project", "torus", "--lambda=" + drawn[label]])
    reqs.append(["weights", "--form", "su2_n:3", "--project", "torus",
                 "--lambda=" + _quat(rng, "su2_n:3")])
    for label in HERMITIAN_FORMS:
        for _ in range(TABLE_DRAWS["hermitian"]):
            lam = generator("hermitian", label).draw(rng)
            reqs.append(["admissible", "hermitian", "--form", label, "--lambda=" + lam])
    reqs.append(["admissible", "so3", "--n", str(rng.choice((2, 4, 6, 8)))])
    return reqs


def requests(workload: str, seed: int):
    """The workload's request list for this seed."""
    make = {"oracle_dense": oracle_dense, "oracle_wide": oracle_wide, "tables": tables}
    return make[workload](random.Random(f"{workload}:{seed}"))


def is_oracle_request(argv) -> bool:
    return argv[0] == "oracle-check" or "--check-oracle" in argv
