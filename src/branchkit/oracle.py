"""Independent evaluation of the distributional branching formulas.

For a quaternionic form the restriction of a discrete series to the su(2,1)
subgroup, and for sp(1,q) the restriction to the sp(1,1) subgroup, is
encoded by a signed coset sum of convolved Heaviside series over
per-element multisets; antisymmetrizing in the reflection S_b and reading off
the coefficients on the positive side recovers the branching multiplicities.
This module evaluates that sum with exact truncation bookkeeping and extracts
tables to compare against the closed form.

Both families run through the same functions; ``OracleContext`` lists what
they read from a family's context.

The cosets W_Z\\W(K2), W_Z generated by the kernel roots, are enumerated as
the W(K2)-orbit of one vector whose stabilizer is W_Z, never as the whole
group, so every quaternionic family is in reach (56 cosets for e8_m24, n for
su2_n:n, at most 2n for so4_n:n).  W(K2) permutes the noncompact positive
roots, so each flip has one term multiset for all cosets.

What depends only on the form is built once per process (``oracle_plan``,
memoized like the contexts): the coset representatives, the check that the
compact reflections permute the noncompact positive roots, and the term
multisets of the branching series (both flips) and of the torus identity.
``OracleConfig.coset_bound`` caps the number of cosets; it is checked
against the plan on every request, so a cached plan never lets a request
past its bound.  The Heaviside products, the strictness cones and their step
counts are memoized in ``formal`` by their int inputs.  Every per-parameter
check still runs on each request, and results do not depend on the order of
requests.

Sign normalization: expanding each factor 1/(e^{x/2} - e^{-x/2}) of a Weyl
denominator into an ascending Heaviside series contributes one factor of -1,
so every coset term carries the prefactor (-1)^(number of Heaviside factors).
The torus restriction identity (whose left side is computable directly from
the weight table) pins this convention down empirically, and positivity of
the extracted multiplicities confirms it on the full formula.

Each series is built on one integer chart (``lattice.Chart``) of the span
of its term bases and directions: rank 2 for the coset series, rank 1 for the
torus identity.  Products, the signed accumulation, certification and
extraction run on int points; weights are mapped back only for points that
are reported, compared or passed to a family check.  The Heaviside product of
each distinct multiset is built once and added in place at every term's base,
with its validity region translated there.

The per-term truncation regions are kept as a conjunction on the final
series; a parameter is compared only where every term is certified exact.
The extraction certifies each positive-side point once (the series memoizes
the verdicts) and ``compare`` reuses its table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Protocol

from .errors import DomainError, InternalError, ResourceError
from .formal import DeltaSeries, ValidityRegion, convolve_multiset
from .lattice import (
    Chart,
    InnerProductForm,
    Weight,
    apply_matrix,
    coroot_pairing,
    format_weight,
    identity_matrix,
    inner,
    is_zero,
    mat_mul,
    reflect,
    reflection_matrix,
    zero_weight,
)
from .quaternionic import (
    BranchingTable,
    QuaternionicContext,
    _branching_table,
    decompose_parameter,
    lam2_weight_table,
    require_proper_subgroup,
    validate_small_dominant,
)
from .repweights import CompactFactor, restrict_weights
from .rootsystems import RootDatum, WeylElement, half_sum


class OracleContext(Protocol):
    """What the oracle reads from a family's context.  QuaternionicContext
    (su(2,1) subgroup) and specialcases.Sp1qContext (sp(1,1) subgroup) both
    provide it."""

    rd: RootDatum
    beta: Weight
    s_beta: tuple                         # reflection matrix in beta
    k2_factor: CompactFactor
    kernel_positive: tuple[Weight, ...]   # positive k2 roots killed by q_u

    @property
    def form(self) -> InnerProductForm: ...

    @property
    def side_roots(self) -> tuple[Weight, ...]:
        """The multiplicities sit on the side {mu : (mu, g) > 0 for every g}
        of the S_b wall."""

    @property
    def noncompact_positive(self) -> tuple[Weight, ...]: ...

    @property
    def h_roots(self) -> frozenset: ...   # roots of the subgroup

    def q_u(self, v: Weight) -> Weight: ...   # onto the subgroup torus

    def q_u_k2(self, v: Weight) -> Weight: ...   # onto the su(2) torus inside k2

    def check_extracted(self, series: DeltaSeries, mu: Weight, c: int) -> None:
        """Family check on a certified positive-side coefficient c at mu (a
        weight; ``series.chart`` maps it to its point); raises InternalError
        on failure."""


@dataclass(frozen=True)
class OracleConfig:
    """Truncation depth and the safety bound on the number of W(K2)/W_Z cosets."""

    step_bound: int = 12
    coset_bound: int = 10**5

    def __post_init__(self):
        if self.step_bound <= 0 or self.coset_bound <= 0:
            raise DomainError("oracle bounds must be positive")


def kernel_roots(ctx: QuaternionicContext):
    """Positive compact roots annihilated by the projection onto the su(2,1)
    torus; verified against the orthogonality characterization."""
    by_kernel = tuple(
        g for g in ctx.k2_factor.positive if is_zero(ctx.q_u(g))
    )
    by_orthogonality = tuple(
        g
        for g in ctx.rd.compact_positive
        if inner(ctx.form, g, ctx.alpha) == 0 and inner(ctx.form, g, ctx.beta) == 0
    )
    if by_kernel != by_orthogonality or by_kernel != ctx.kernel_positive:
        raise InternalError("kernel-root characterizations disagree")
    return by_kernel


def weyl_polynomial(ctx: OracleContext, sigma: Weight) -> Fraction:
    """Product of pairings with the kernel roots, normalized at their half-sum."""
    num = Fraction(1)
    for g in ctx.kernel_positive:
        num *= inner(ctx.form, sigma, g)
    return num / _weyl_normalizer(ctx)


@functools.lru_cache(maxsize=None)
def _weyl_normalizer(ctx: OracleContext) -> Fraction:
    """The kernel-root product at rho_Z, their half-sum (memoized per context)."""
    rho_z = half_sum(ctx.form.dim, ctx.kernel_positive)
    den = Fraction(1)
    for g in ctx.kernel_positive:
        den *= inner(ctx.form, rho_z, g)
    return den


def compact_quotient_weights(ctx: OracleContext) -> dict:
    """Multiset of projections of the k2 positive roots outside the kernel;
    these are the torus weights of the compact quotient directions."""
    out: dict = {}
    kernel = set(ctx.kernel_positive)
    h_roots = ctx.h_roots
    for g in ctx.k2_factor.positive:
        if g in kernel:
            continue
        p = ctx.q_u_k2(g)
        if is_zero(p):
            raise InternalError("kernel filter missed a vanishing projection")
        if p in h_roots:
            continue
        out[p] = out.get(p, 0) + 1
    return out


def _kernel_cosets(ctx: OracleContext) -> tuple[WeylElement, ...]:
    """Minimal representatives of the right cosets W_Z\\W(K2), in order of length.

    W_Z, the reflection group of the kernel roots, is the stabilizer in
    W(K2) of v = q_u_k2(g) for a k2 root g outside the kernel (a stabilizer is
    generated by the reflections it contains), so the cosets W_Z w are in
    bijection with the orbit points w^-1 v.  A breadth-first walk over the
    orbit by simple reflections reaches each point first along a shortest
    word, whose inverse is the minimal representative; see Bjorner-Brenti,
    Combinatorics of Coxeter Groups, 2.4.
    """
    form = ctx.form
    kernel = set(ctx.kernel_positive)
    positive = ctx.k2_factor.positive
    # with every k2 root in the kernel, v = 0 has all of W(K2) = W_Z as stabilizer
    v = next((ctx.q_u_k2(g) for g in positive if g not in kernel), zero_weight(form.dim))
    if {g for g in positive if inner(form, g, v) == 0} != kernel:
        raise InternalError("the orbit vector's stabilizer is not the kernel-root group")
    gens = [reflection_matrix(g) for g in ctx.k2_factor.simple]
    reps = [WeylElement((), identity_matrix(form.dim), 1)]
    orbit = {v}
    frontier = [(v, reps[0])]
    while frontier:
        nxt = []
        for x, w in frontier:
            for i, g in enumerate(gens):
                y = apply_matrix(g, x)
                if y in orbit:
                    continue
                orbit.add(y)
                rep = WeylElement(w.word + (i,), mat_mul(w.matrix, g), -w.sign)
                reps.append(rep)
                nxt.append((y, rep))
        frontier = nxt
    return tuple(reps)


@dataclass(frozen=True, eq=False)
class OraclePlan:
    """What the coset sums of one form read besides the parameter."""

    cosets: tuple[WeylElement, ...]   # minimal representatives of W_Z\\W(K2)
    # (flip, sorted (direction, multiplicity) items, Heaviside prefactor
    # (-1)^(their count)) per term of a coset: both flips for the branching
    # series, the quotient multiset unflipped for the torus identity
    series_terms: tuple[tuple[bool, tuple[tuple[Weight, int], ...], int], ...]
    torus_terms: tuple[tuple[bool, tuple[tuple[Weight, int], ...], int], ...]


def _term(flip: bool, ms: dict) -> tuple:
    items = tuple(sorted(ms.items()))
    return flip, items, (-1) ** sum(m for _, m in items)


@functools.lru_cache(maxsize=None)
def oracle_plan(ctx: OracleContext) -> OraclePlan:
    """The form's plan (memoized per context).  The coset bound is not
    applied here; ``_coset_series`` checks it on every request."""
    cosets = _kernel_cosets(ctx)
    # W(K2) permutes the noncompact positive roots, so every coset of one flip
    # has the multiset of the identity
    noncompact = set(ctx.noncompact_positive)
    for g in ctx.k2_factor.simple:
        if {reflect(ctx.form, x, g) for x in noncompact} != noncompact:
            raise InternalError("a compact-factor reflection moves a noncompact positive root")
    return OraclePlan(
        cosets,
        tuple(_term(flip, restriction_multiset(ctx, cosets[0], flip)) for flip in (False, True)),
        (_term(False, compact_quotient_weights(ctx)),),
    )


def restriction_multiset(ctx: OracleContext, w: WeylElement, flip: bool) -> dict:
    """Convolution multiset of one coset term: quotient weights joined with
    the projections of the transformed noncompact positive roots, with the
    subgroup roots removed.  Must be strict (checked by the caller's convolution)."""
    ms = dict(compact_quotient_weights(ctx))
    h_roots = ctx.h_roots
    for g in ctx.noncompact_positive:
        img = apply_matrix(w.matrix, g)
        if flip:
            img = apply_matrix(ctx.s_beta, img)
        p = ctx.q_u(img)
        if is_zero(p):
            raise InternalError("noncompact root projects to zero")
        if p in h_roots:
            continue
        ms[p] = ms.get(p, 0) + 1
    return ms


def torus_restriction_sides(ctx: QuaternionicContext, lam: Weight, cfg: OracleConfig):
    """Both sides of the torus restriction identity for the k2-representation
    attached to lam: the pushed-forward weight table, and the signed coset sum
    of Heaviside convolutions."""
    table = lam2_weight_table(ctx, lam)
    _, lam2 = decompose_parameter(ctx, lam)
    rhs = _coset_series(ctx, lam2, cfg, torus=True)
    return on_chart(rhs.chart, restrict_weights(table, ctx.q_u_k2)), rhs


def on_chart(chart: Chart, mults: dict) -> DeltaSeries:
    """Finite exact series sum_w mults[w] * delta_w on the points of chart."""
    coeffs = {chart.to_point(w): m for w, m in mults.items() if m}
    return DeltaSeries(coeffs, (), chart)


def _coset_series(ctx: OracleContext, lam: Weight, cfg: OracleConfig,
                  torus: bool = False) -> DeltaSeries:
    """Signed distributional series of one loop over the plan's cosets s.

    Each of the plan's terms (flip, ms, prefactor), with w lam = S_b s lam
    when flipped and s lam otherwise, contributes
    sign * prefactor * weylpoly(w lam) at the projection of w lam, convolved
    with the Heaviside series of ms.  The branching series (both flips,
    projected onto the subgroup torus) encodes the multiplicities on its
    positive side.  With ``torus``, lam is the k2 part lam2 and the series
    is the right side of the torus restriction identity (the quotient
    multiset, projected onto the su(2) torus inside k2).  The caller
    validates lam.
    """
    plan = oracle_plan(ctx)
    if len(plan.cosets) > cfg.coset_bound:
        raise ResourceError(
            f"W(K2)/W_Z coset count exceeds the oracle bound {cfg.coset_bound}; "
            f"only the closed form is available for {ctx.rd.label}"
        )
    project, kinds = (ctx.q_u_k2, plan.torus_terms) if torus else (ctx.q_u, plan.series_terms)
    terms = []
    for s in plan.cosets:
        slam = apply_matrix(s.matrix, lam)
        for flip, ms, prefactor in kinds:
            sign = -s.sign if flip else s.sign
            wlam = apply_matrix(ctx.s_beta, slam) if flip else slam
            coeff = Fraction(sign * prefactor) * weyl_polynomial(ctx, wlam)
            if coeff == 0:
                raise InternalError("Weyl polynomial vanished on a coset representative")
            terms.append((coeff, project(wlam), ms))
    return _signed_sum(terms, cfg.step_bound)


def _signed_sum(terms, step_bound: int) -> DeltaSeries:
    """The sum of coeff * delta_base * (Heaviside product over ms) over the
    (coeff, base, ms) terms, ms a sorted tuple of (direction, multiplicity),
    on the chart of their distinct bases and directions.  Each memoized
    product is added in place at its term's base, and its region is
    translated there.

    Coefficients are accumulated as ints over the LCM of the term
    coefficients' denominators; the sum must divide back exactly."""
    multisets = dict.fromkeys(ms for _, _, ms in terms)
    chart = Chart(list(dict.fromkeys(
        [base for _, base, _ in terms] + [d for ms in multisets for d, _ in ms]
    )))
    products = {
        ms: convolve_multiset({chart.to_point(d): m for d, m in ms}, step_bound)
        for ms in multisets
    }
    den = lcm(*(coeff.denominator for coeff, _, _ in terms))
    acc: dict = {}
    get = acc.get
    regions = []
    for coeff, base, ms in terms:
        b = chart.to_point(base)
        product = products[ms]
        k = int(coeff * den)
        for p, c in product.coeffs.items():
            p = tuple(map(add, p, b))
            acc[p] = get(p, 0) + k * c
        regions.extend(ValidityRegion(tuple(map(add, r.base, b)), r.directions, r.step_bound)
                       for r in product.regions)
    coeffs = {}
    for p, c in acc.items():
        q, r = divmod(c, den)
        if r:
            raise InternalError("coset sum produced a non-integer coefficient")
        if q:
            coeffs[p] = q
    return DeltaSeries(coeffs, tuple(regions), chart)


def restriction_series(ctx: QuaternionicContext, lam: Weight, cfg: OracleConfig) -> DeltaSeries:
    """Signed distributional series of a quaternionic parameter (see _coset_series)."""
    require_proper_subgroup(
        ctx, "the oracle needs a Heaviside direction to convolve, that is d >= 2 "
        "noncompact root pairs")
    validate_small_dominant(ctx, lam)
    return _coset_series(ctx, lam, cfg)


def _side(ctx: OracleContext, chart: Chart):
    """Positive-side test on the integer points of chart."""
    covectors = [chart.covector(lambda w, g=g: inner(ctx.form, w, g)) for g in ctx.side_roots]
    return lambda p: all(sum(map(mul, f, p)) > 0 for f in covectors)


def check_antisymmetry(ctx: QuaternionicContext, series: DeltaSeries):
    """On the certified region: zero on the S_b wall, odd across it."""
    chart = series.chart
    wall = chart.covector(lambda w: inner(ctx.form, w, ctx.beta))
    mirror = chart.linear_map(ctx.s_beta)
    problems = [
        ("wall", chart.to_weight(p), c)
        for p, c in series.coeffs.items()
        if not sum(map(mul, wall, p))
    ]
    for p, c in series.coeffs.items():
        cm = series.coefficient(tuple(sum(map(mul, row, p)) for row in mirror))
        if cm is None or not series.certain_at(p):
            continue
        if cm != -c:
            problems.append(("mirror", chart.to_weight(p), (c, cm)))
    return problems


def extract_multiplicities(ctx: OracleContext, series: DeltaSeries) -> BranchingTable:
    """Branching table read off the positive side of the antisymmetrized series.

    Only certified weights are reported; a negative coefficient on the
    positive side signals an antisymmetrization failure (bug or insufficient
    truncation) and raises InternalError, as does a failed family check.
    """
    chart = series.chart
    positive = _side(ctx, chart)
    entries = {}
    for p, c in series.coeffs.items():
        if not positive(p) or not series.certain_at(p):
            continue
        mu = chart.to_weight(p)
        ctx.check_extracted(series, mu, c)
        if c < 0:
            raise InternalError(
                f"antisymmetrization failure at {format_weight(mu)}: coefficient {c}"
            )
        entries[mu] = c
    return BranchingTable(entries, None, ctx.rd.label, None)


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    agree: bool
    compared: int
    mismatches: tuple


def compare(ctx: OracleContext, series: DeltaSeries, closed: BranchingTable) -> ComparisonReport:
    """Compare a closed-form table against the oracle extraction on the full
    certified region.  Every candidate parameter (from either side) that the
    truncated series certifies must match exactly; uncertified candidates are
    skipped.  Extracted entries are taken as certified; only closed-form
    entries missing from the extraction are certified here."""
    extracted = extract_multiplicities(ctx, series).entries
    positive = _side(ctx, series.chart)
    mismatches = []
    compared = 0
    for mu in sorted(set(closed.entries) | set(extracted)):
        if coroot_pairing(ctx.form, mu, ctx.beta) > closed.pairing_bound:
            continue  # outside the closed table's completeness region
        got = extracted.get(mu)
        if got is None:
            p = series.chart.to_point(mu)
            if not positive(p):
                continue
            got = series.coefficient(p)
            if got is None:
                continue  # not certified by the truncation
        compared += 1
        want = closed.entries.get(mu, 0)
        if got != want:
            mismatches.append((mu, want, got))
    return ComparisonReport(not mismatches, compared, tuple(mismatches))


def require_compared(report: ComparisonReport, cfg: OracleConfig) -> ComparisonReport:
    """The report, unless it compared no point: "agree" would then mean nothing."""
    if not report.compared:
        raise DomainError(
            f"the oracle certified no point to compare at step bound {cfg.step_bound}; "
            "raise the step bound"
        )
    return report


def verify_closed_form(ctx: QuaternionicContext, lam: Weight, cfg: OracleConfig) -> ComparisonReport:
    """Closed-form table at cutoff = step bound against the oracle series."""
    series = restriction_series(ctx, lam, cfg)  # validates lam
    report = compare(ctx, series, _branching_table(ctx, lam, cfg.step_bound))
    return require_compared(report, cfg)
