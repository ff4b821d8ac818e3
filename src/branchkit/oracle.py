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
each distinct multiset is built once and translated to every term that uses
it.

The per-term truncation regions are kept as a conjunction on the final
series; a parameter is compared only where every term is certified exact.
The extraction certifies each positive-side point once (the series memoizes
the verdicts) and ``compare`` reuses its table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Protocol

from .errors import DomainError, InternalError, ResourceError
from .formal import DeltaSeries, convolve, convolve_multiset, dirac
from .lattice import (
    Chart,
    InnerProductForm,
    Weight,
    apply_matrix,
    coroot_pairing,
    format_weight,
    inner,
    is_zero,
    mat_mul,
)
from .quaternionic import (
    BranchingTable,
    QuaternionicContext,
    branching_table,
    decompose_parameter,
    lam2_weight_table,
    validate_small_dominant,
)
from .repweights import CompactFactor, restrict_weights
from .rootsystems import RootDatum, WeylElement, coset_reps, half_sum, weyl_generate


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
    """Truncation depth and the Weyl-enumeration safety bound."""

    step_bound: int = 12
    group_order_bound: int = 10**5

    def __post_init__(self):
        if self.step_bound <= 0 or self.group_order_bound <= 0:
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
    kernel = ctx.kernel_positive
    if not kernel:
        return Fraction(1)
    rho_z = half_sum(ctx.form.dim, kernel)
    num = Fraction(1)
    den = Fraction(1)
    for g in kernel:
        num *= inner(ctx.form, sigma, g)
        den *= inner(ctx.form, rho_z, g)
    return num / den


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


def _k2_weyl(ctx: OracleContext, cfg: OracleConfig):
    try:
        return weyl_generate(ctx.form, ctx.k2_factor.simple, cfg.group_order_bound)
    except ResourceError:
        raise ResourceError(
            "compact-factor Weyl group exceeds the oracle bound "
            f"{cfg.group_order_bound}; only the closed form is available for {ctx.rd.label}"
        ) from None


def _kernel_cosets(ctx: OracleContext, cfg: OracleConfig):
    elements = _k2_weyl(ctx, cfg)
    return coset_reps(elements, ctx.kernel_positive, ctx.form)


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
    rhs = torus_coset_sum(ctx, lam2, cfg)
    return on_chart(rhs.chart, restrict_weights(table, ctx.q_u_k2)), rhs


def on_chart(chart: Chart, mults: dict) -> DeltaSeries:
    """Finite exact series sum_w mults[w] * delta_w on the points of chart."""
    coeffs = {chart.to_point(w): m for w, m in mults.items() if m}
    return DeltaSeries(coeffs, (), chart)


def torus_coset_sum(ctx: OracleContext, lam2: Weight, cfg: OracleConfig) -> DeltaSeries:
    """Right side of the torus restriction identity: the signed coset sum of
    Heaviside convolutions over the compact quotient weights, with the Weyl
    polynomial at each transformed lam2 as coefficient."""
    quotient = compact_quotient_weights(ctx)
    prefactor = (-1) ** sum(quotient.values())
    terms = []
    for s in _kernel_cosets(ctx, cfg):
        slam2 = apply_matrix(s.matrix, lam2)
        coeff = Fraction(prefactor * s.sign) * weyl_polynomial(ctx, slam2)
        if coeff == 0:
            raise InternalError("Weyl polynomial vanished on a coset representative")
        terms.append((coeff, ctx.q_u_k2(slam2), quotient))
    return _signed_sum(terms, cfg.step_bound)


def _signed_sum(terms, step_bound: int) -> DeltaSeries:
    """The sum of coeff * delta_base * (Heaviside product over ms) over the
    (coeff, base, ms) terms, on the chart of their bases and directions.

    Coefficients are accumulated as ints over the LCM of the term
    coefficients' denominators; the sum must divide back exactly."""
    chart = Chart([base for _, base, _ in terms] + [d for _, _, ms in terms for d in ms])
    den = lcm(*(coeff.denominator for coeff, _, _ in terms))
    products: dict = {}
    acc: dict = {}
    get = acc.get
    regions = []
    for coeff, base, ms in terms:
        key = frozenset(ms.items())
        if key not in products:
            products[key] = convolve_multiset(
                {chart.to_point(d): m for d, m in ms.items()}, step_bound
            )
        term = convolve(dirac(chart.to_point(base)), products[key])
        k = int(coeff * den)
        for p, c in term.coeffs.items():
            acc[p] = get(p, 0) + k * c
        regions.extend(term.regions)
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
    validate_small_dominant(ctx, lam)
    return _coset_series(ctx, lam, cfg)


def _coset_series(ctx: OracleContext, lam: Weight, cfg: OracleConfig) -> DeltaSeries:
    """Signed distributional series whose positive side encodes the branching
    multiplicities: sum over cosets (and their S_b translates) of
    sign * weylpoly * delta at the projected parameter, convolved with the
    Heaviside series of the term's multiset.  The caller validates lam."""
    terms = []
    for s in _kernel_cosets(ctx, cfg):
        for flip in (False, True):
            matrix = mat_mul(ctx.s_beta, s.matrix) if flip else s.matrix
            sign = -s.sign if flip else s.sign
            wlam = apply_matrix(matrix, lam)
            varpi = weyl_polynomial(ctx, wlam)
            ms = restriction_multiset(ctx, s, flip)
            prefactor = (-1) ** sum(ms.values())
            terms.append((Fraction(sign * prefactor) * varpi, ctx.q_u(wlam), ms))
    return _signed_sum(terms, cfg.step_bound)


def _side(ctx: OracleContext, chart: Chart):
    """Positive-side test on the integer points of chart."""
    covectors = [chart.covector(lambda w, g=g: inner(ctx.form, w, g)) for g in ctx.side_roots]
    return lambda p: all(sum(map(mul, f, p)) > 0 for f in covectors)


def check_antisymmetry(ctx: QuaternionicContext, series: DeltaSeries):
    """On the certified region: zero on the S_b wall, odd across it."""
    chart = series.chart
    problems = []
    weights = {p: chart.to_weight(p) for p in series.coeffs}
    for p, wgt in weights.items():
        if inner(ctx.form, wgt, ctx.beta) == 0:
            problems.append(("wall", wgt, series.coeffs[p]))
    for p, c in series.coeffs.items():
        cm = series.coefficient(chart.to_point(apply_matrix(ctx.s_beta, weights[p])))
        if cm is None or not series.certain_at(p):
            continue
        if cm != -c:
            problems.append(("mirror", weights[p], (c, cm)))
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
    series = restriction_series(ctx, lam, cfg)
    report = compare(ctx, series, branching_table(ctx, lam, cfg.step_bound))
    return require_compared(report, cfg)
