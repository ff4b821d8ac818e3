"""Acceptance criteria for the package, runnable without pytest.

Each criterion returns a CriterionResult; ``run_all`` executes them in order
and shares the expensive closed-form-vs-oracle artifacts between the
criteria that reuse them.  The CLI ``selftest`` subcommand prints one line
per criterion; the pytest suite wraps the same functions.

Everything here is exact integer arithmetic; a criterion passes only on
exact equality at the stated scope, within its wall-clock limit.
"""

from __future__ import annotations

import functools
import random
import time
from collections import Counter
from fractions import Fraction
from math import comb
from operator import add

from .errors import InternalError
from .formal import _window, product_region
from .lattice import (
    format_weight,
    identity_form,
    inner,
    record,
    reflect,
    wadd,
    weight,
    wscale,
)
from .oracle import (
    OracleConfig,
    check_antisymmetry,
    compare,
    restriction_series,
    torus_restriction_sides,
)
from .quaternionic import (
    branching_table,
    check_table_dominance,
    admissible_system,
    quaternionic_context,
)
from .repweights import CompactFactor, freudenthal, weyl_dimension
from .rootsystems import _highest_root_datum, chambers
from .specialcases import (
    antiholomorphic_chamber_parameter,
    hermitian_data,
    holomorphic_chamber_parameter,
    kss_admissible,
    kss_admissible_system,
    sp1q_context,
    sp1q_verify,
    validate_hermitian_parameter,
)


@record
class CriterionResult:
    ident: str
    title: str
    passed: bool
    detail: str
    seconds: float
    limit_seconds: float

    @property
    def within_limit(self) -> bool:
        return self.seconds < self.limit_seconds

    def line(self) -> str:
        status = "PASS" if (self.passed and self.within_limit) else "FAIL"
        return f"{self.ident:5s} {status}  {self.seconds:7.2f}s  {self.title}: {self.detail}"


class _Failed(Exception):
    """A criterion's failure; its message is the detail."""


def _criterion(ident: str, title: str, limit: float):
    """Make a check into a criterion: the check takes the store and returns
    the detail of a pass or raises _Failed with the detail of a failure; the
    criterion times it and returns its CriterionResult."""
    def wrap(check):
        @functools.wraps(check)
        def criterion(store) -> CriterionResult:
            t0 = time.time()
            try:
                passed, detail = True, check(store)
            except _Failed as exc:
                passed, detail = False, str(exc)
            return CriterionResult(ident, title, passed, detail, time.time() - t0, limit)
        return criterion
    return wrap


@_criterion("AC-1", "Heaviside power identity", 5)
def ac1(store) -> str:
    """The oracle's window of the r-th Heaviside power equals r iterated
    point-by-point convolutions of the Heaviside series, r <= 6 at 50 steps;
    r = 0 is the unit point mass."""
    gamma = (2, -2, 0)  # the root (1, -1, 0) in doubled, integral coordinates
    n = 50
    checked = 0
    steps = [tuple((1 + 2 * k) * g // 2 for g in gamma) for k in range(n + 1)]
    iterated = {(0, 0, 0): 1}
    for r in range(7):
        window = _window(product_region({gamma: r}, n)) if r else {(0, 0, 0): 1}
        for k in range(n + 1):
            x = tuple((r + 2 * k) * g // 2 for g in gamma)
            want, got = window.get(x, 0), iterated.get(x, 0)
            if got != want:
                raise _Failed(f"mismatch at r={r}, step {k}: {want} vs {got}")
            checked += 1
        product = Counter()  # one more convolution with the Heaviside series
        for p, c in iterated.items():
            for s in steps:
                product[tuple(map(add, p, s))] += c
        iterated = product
    return f"{checked} coefficients agree for r in 0..6, 50 steps"


_AC2_SYSTEMS = ("A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1xA1")


def _ac2_factor(name: str) -> CompactFactor:
    if name == "A1xA1xA1":
        pos = (weight([1, -1, 0, 0]), weight([1, 1, 0, 0]), weight([0, 0, 1, -1]))
        return CompactFactor.from_positive(identity_form(4), pos)
    rd = _highest_root_datum(name, name[0], int(name[1]))
    return CompactFactor.from_positive(rd.form, rd.positive)


@_criterion("AC-2", "Freudenthal consistency", 30)
def ac2(store) -> str:
    """Freudenthal tables: total equals the Weyl dimension, Weyl invariance."""
    from .lattice import rational_solve, wsub

    rng = random.Random(20240811)
    runs = 0
    while runs < 50:
        name = _AC2_SYSTEMS[rng.randrange(len(_AC2_SYSTEMS))]
        factor = _ac2_factor(name)
        coeffs = [rng.randrange(4) for _ in factor.simple]
        hw = _dominant_with_pairings(factor, coeffs)
        if weyl_dimension(hw, factor) > 10**4:
            continue
        table = freudenthal(hw, factor)
        if table.dimension() != weyl_dimension(hw, factor):
            raise _Failed(f"dimension mismatch on {name} {coeffs}")
        sample = list(table.mults)[:: max(1, len(table.mults) // 12)]
        for v in sample:
            for a in factor.simple:
                if table.mults[v] != table.mults.get(reflect(factor.form, v, a)):
                    raise _Failed(f"Weyl invariance fails on {name} {coeffs}")
            # convex hull: the dominant representative stays under hw
            dom = _dominant(factor.form, v, factor.simple)
            sol = rational_solve(list(factor.simple), wsub(hw, dom))
            if sol is None or any(c < 0 for c in sol):
                raise _Failed(f"hull violation on {name} {coeffs}")
        runs += 1
    return f"{runs} random representations verified"


def _dominant_with_pairings(factor: CompactFactor, coeffs):
    """A vector with the prescribed coroot pairings against the simple roots."""
    from .lattice import rational_solve

    dim = factor.form.dim
    cols = [tuple(Fraction(a[j]) for a in factor.simple) for j in range(dim)]
    target = tuple(
        Fraction(c) * inner(factor.form, a, a) / 2 for c, a in zip(coeffs, factor.simple)
    )
    sol = rational_solve(cols, target)
    if sol is None:
        raise InternalError("cannot realize the requested dominant weight")
    return tuple(sol)


def _dominant(form, v, roots):
    """Reflect v in the roots while one pairs negatively with it: the
    Fraction reference for the dominant representative."""
    while True:
        for a in roots:
            if inner(form, v, a) < 0:
                v = reflect(form, v, a)
                break
        else:
            return v


def _sp1q_parameters(count: int):
    coords = [(4, 2, 1), (5, 3, 1), (5, 2, 1), (6, 3, 2), (6, 4, 1), (7, 3, 2)]
    return [weight(c) for c in coords[:count]]


def _quaternionic_parameters(label: str, count: int):
    """Deterministic list of small dominant regular integral parameters."""
    ctx = quaternionic_context(label)
    if label == "g2_2":
        combos = [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (3, 2)]
        lams = [wadd(wscale(a, ctx.fw1), wscale(b, ctx.beta)) for a, b in combos]
    elif label == "su2_n:2":
        lams = [weight(c) for c in [(3, 1, 0, -2), (4, 2, 0, -3), (5, 3, 0, -4),
                                    (4, 1, 0, -2), (5, 2, 1, -3), (6, 3, 1, -4)]]
    elif label == "su2_n:3":
        lams = [weight(c) for c in [(4, 2, 1, 0, -3), (5, 3, 1, 0, -4), (5, 2, 1, 0, -3)]]
    elif label == "so4_n:4":
        lams = [weight(c) for c in [(4, 3, 2, 1), (5, 3, 2, 1), (5, 4, 2, 1),
                                    (6, 4, 2, 1), (5, 4, 3, 1), (6, 4, 3, 2)]]
    else:
        raise InternalError(f"no parameter list for {label}")
    return ctx, lams[:count]


@_criterion("AC-3", "torus restriction identity", 120)
def ac3(store) -> str:
    """Torus / su(2) restriction identity on four compact factors."""
    checked = 0
    cfg = OracleConfig(step_bound=16)
    cases = []  # (label, context, parameters, rho of their positive system)
    for label in ("g2_2", "su2_n:2", "so4_n:4"):
        ctx, lams = _quaternionic_parameters(label, 6)
        cases.append((label, ctx, lams, ctx.psi.rho))
    sp12 = sp1q_context(2)
    cases.append(("sp(1,2)", sp12, _sp1q_parameters(6), sp12.sigma.rho))
    for label, ctx, lams, rho in cases:
        for lam in lams + [wadd(l, rho) for l in lams[:4]]:
            lhs, rhs = torus_restriction_sides(ctx, lam, cfg)
            # a certified nonzero coefficient of rhs has a nonzero window total
            for w in set(lhs) | set(rhs.nonzero_points()):
                c = rhs.coefficient(w)
                if c is None:
                    continue
                if c != lhs.get(w, 0):
                    raise _Failed(f"{label}: mismatch at {format_weight(rhs.chart.to_weight(w))}")
                checked += 1
            if any(rhs.coefficient(w) is None for w in lhs):
                raise _Failed(f"{label}: truncation does not cover the weight table")
    return f"4 factors x 10 parameters, {checked} coefficients checked"


_AC4_PLAN = (("g2_2", 5), ("su2_n:2", 2), ("so4_n:4", 2))


def _ac4_runs(store):
    if "ac4" in store:
        return store["ac4"]
    cfg = OracleConfig(step_bound=12)
    runs = []
    for label, count in _AC4_PLAN:
        ctx, lams = _quaternionic_parameters(label, count)
        for lam in lams:
            series = restriction_series(ctx, lam, cfg)
            table = branching_table(ctx, lam, cutoff=cfg.step_bound)
            report = compare(ctx, series, table)
            runs.append((label, ctx, lam, series, report, table))
    store["ac4"] = runs
    return runs


@_criterion("AC-4", "closed form vs oracle", 300)
def ac4(store) -> str:
    """Closed-form branching equals the distributional oracle at 12 steps."""
    total = 0
    for label, ctx, lam, series, report, table in _ac4_runs(store):
        if not report.agree:
            raise _Failed(f"{label} at {lam}: {len(report.mismatches)} mismatches")
        if report.compared < 20:
            raise _Failed(f"{label} at {lam}: only {report.compared} certified points")
        total += report.compared
    return f"9 parameters, {total} certified multiplicities agree"


@_criterion("AC-5", "table dominance", 60)
def ac5(store) -> str:
    """Every emitted parameter is dominant for the su(2,1) system."""
    tables = 0
    for label, ctx, lam, series, report, table in _ac4_runs(store):
        violations = check_table_dominance(ctx, table)
        if violations:
            raise _Failed(f"{label} at {lam}: {violations[:3]}")
        tables += 1
    return f"zero violations over {tables} tables"


@_criterion("AC-6", "sp(1,q) closed form vs oracle", 120)
def ac6(store) -> str:
    """sp(1,q) closed form equals its oracle; binomial spot check at q = 2."""
    if comb(0 + 1, 1) != 1 or any(comb(p + 1, 1) != p + 1 for p in range(20)):
        raise _Failed("binomial specialization fails at q = 2")
    total = 0
    cfg = OracleConfig(step_bound=10)
    for q, lam_list in (
        (2, [(4, 2, 1), (5, 3, 1), (6, 3, 2)]),
        (3, [(5, 3, 2, 1), (6, 4, 2, 1), (6, 3, 2, 1)]),
    ):
        ctx = sp1q_context(q)
        for coords in lam_list:
            rep = sp1q_verify(ctx, weight(coords), cfg)
            if not rep.agree:
                raise _Failed(f"q={q} {coords}: {rep.mismatches[:3]}")
            if rep.compared < 5:
                raise _Failed(f"q={q} {coords}: only {rep.compared} certified points")
            total += rep.compared
    return f"6 parameters, {total} certified multiplicities agree"


@_criterion("AC-7", "admissible chamber dichotomy", 1)
def ac7(store) -> str:
    """Exactly the small system is admissible among chambers containing it."""
    forms = (("g2_2", 3), ("su2_n:2", 6), ("su2_n:3", 10), ("so4_n:3", 6), ("so4_n:4", 12),
             ("f4_4", 12))
    for label, count in forms:
        ctx = quaternionic_context(label)
        systems = chambers(ctx.rd)
        admissible = [s.signs for s in systems if admissible_system(ctx, s)]
        if len(systems) != count or admissible != [ctx.psi.signs]:
            raise _Failed(f"{label}: {len(admissible)} of {len(systems)} systems admissible, "
                          f"expected the small one of {count}")
    return f"small system uniquely admissible on {len(forms)} forms"


_AC8_CASES = (
    ("su_pq:2,2", False),
    ("su_pq:2,3", True),
    ("sp_n_R:2", False),
    ("so_star:5", True),
)


@_criterion("AC-8", "Hermitian admissibility dichotomy", 30)
def ac8(store) -> str:
    """Tube dichotomy at the holomorphic chamber plus chamber invariants on
    every chamber that contains the compact positive system."""
    walked = 0
    for label, expected in _AC8_CASES:
        hd = hermitian_data(label)
        lam = holomorphic_chamber_parameter(hd)
        if kss_admissible(hd, lam) is not expected:
            raise _Failed(f"{label} holomorphic chamber: expected {expected}")
        anti = antiholomorphic_chamber_parameter(hd)
        if kss_admissible(hd, anti) is not expected:
            raise _Failed(f"{label} antiholomorphic chamber: expected {expected}")
        conjugate_is_negation = set(hd.certificate_conjugate) == {
            (i, -s) for i, s in hd.certificate
        }
        for psi in chambers(hd.rd):
            chamber = psi.signs
            if validate_hermitian_parameter(hd, psi.rho) != chamber:
                raise _Failed(f"{label}: rho of a chamber lies in another chamber")
            a1 = kss_admissible_system(hd, chamber)
            # chamber constancy: any parameter with the same chamber agrees
            if kss_admissible(hd, wscale(2, psi.rho)) is not a1:
                raise _Failed(f"{label}: chamber constancy fails")
            if conjugate_is_negation:
                flipped = tuple(s if c else -s for s, c in zip(chamber, hd.rd.compact))
                if kss_admissible_system(hd, flipped) is not a1:
                    raise _Failed(f"{label}: sign-flip symmetry fails")
            walked += 1
    return f"4 fixtures, all {walked} chambers, invariants hold"


@_criterion("AC-9", "antisymmetry of the signed series", 60)
def ac9(store) -> str:
    """Signed series vanish on the reflection wall and are odd across it."""
    checked = 0
    for label, ctx, lam, series, report, table in _ac4_runs(store):
        problems = check_antisymmetry(ctx, series)
        if problems:
            raise _Failed(f"{label} at {lam}: {problems[:3]}")
        checked += sum(1 for _ in series.certified(lambda p: True))
    return f"{checked} certified nonzero coefficients checked across 9 runs"


ALL_CRITERIA = (ac1, ac2, ac3, ac4, ac5, ac6, ac7, ac8, ac9)


def run_all(selected=None):
    """Run the acceptance criteria; returns the list of results."""
    store: dict = {}
    results = []
    for fn in ALL_CRITERIA:
        ident = fn.__name__.upper().replace("AC", "AC-")
        if selected and ident not in selected:
            continue
        results.append(fn(store))
    return results
