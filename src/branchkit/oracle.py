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

The per-term truncation regions are kept as a conjunction on the final
series; a parameter is compared only where every term is certified exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol

from .errors import DomainError, InternalError, ResourceError
from .formal import DeltaSeries, convolve, convolve_multiset, dirac, from_multiplicities
from .lattice import (
    InnerProductForm,
    Weight,
    apply_matrix,
    coroot_pairing,
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
    def noncompact_positive(self) -> tuple[Weight, ...]: ...

    @property
    def h_roots(self) -> frozenset: ...   # roots of the subgroup

    def q_u(self, v: Weight) -> Weight: ...   # onto the subgroup torus

    def q_u_k2(self, v: Weight) -> Weight: ...   # onto the su(2) torus inside k2

    def positive_side(self, mu: Weight) -> bool:
        """The side of the S_b wall that carries the multiplicities."""

    def check_extracted(self, series: DeltaSeries, mu: Weight, c: int) -> None:
        """Family check on a certified positive-side coefficient c at mu;
        raises InternalError on failure."""


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
    lhs = from_multiplicities(restrict_weights(table, ctx.q_u_k2))
    _, lam2 = decompose_parameter(ctx, lam)
    return lhs, torus_coset_sum(ctx, lam2, cfg)


def torus_coset_sum(ctx: OracleContext, lam2: Weight, cfg: OracleConfig) -> DeltaSeries:
    """Right side of the torus restriction identity: the signed coset sum of
    Heaviside convolutions over the compact quotient weights, with the Weyl
    polynomial at each transformed lam2 as coefficient."""
    quotient = compact_quotient_weights(ctx)
    prefactor = (-1) ** sum(quotient.values())
    acc: dict = {}
    regions = []
    for s in _kernel_cosets(ctx, cfg):
        slam2 = apply_matrix(s.matrix, lam2)
        coeff = Fraction(prefactor * s.sign) * weyl_polynomial(ctx, slam2)
        if coeff == 0:
            raise InternalError("Weyl polynomial vanished on a coset representative")
        term = convolve(dirac(ctx.q_u_k2(slam2)), convolve_multiset(quotient, cfg.step_bound))
        for wgt, c in term.coeffs.items():
            acc[wgt] = acc.get(wgt, Fraction(0)) + coeff * c
        regions.extend(term.regions)
    return _integral_series(acc, tuple(regions))


def _integral_series(acc: dict, regions) -> DeltaSeries:
    coeffs = {}
    for wgt, c in acc.items():
        if c == 0:
            continue
        if c.denominator != 1:
            raise InternalError("coset sum produced a non-integer coefficient")
        coeffs[wgt] = int(c)
    return DeltaSeries(coeffs, regions)


def restriction_series(ctx: QuaternionicContext, lam: Weight, cfg: OracleConfig) -> DeltaSeries:
    """Signed distributional series of a quaternionic parameter (see _coset_series)."""
    validate_small_dominant(ctx, lam)
    return _coset_series(ctx, lam, cfg)


def _coset_series(ctx: OracleContext, lam: Weight, cfg: OracleConfig) -> DeltaSeries:
    """Signed distributional series whose positive side encodes the branching
    multiplicities: sum over cosets (and their S_b translates) of
    sign * weylpoly * delta at the projected parameter, convolved with the
    Heaviside series of the term's multiset.  The caller validates lam."""
    acc: dict = {}
    regions = []
    for s in _kernel_cosets(ctx, cfg):
        for flip in (False, True):
            matrix = mat_mul(ctx.s_beta, s.matrix) if flip else s.matrix
            sign = -s.sign if flip else s.sign
            wlam = apply_matrix(matrix, lam)
            varpi = weyl_polynomial(ctx, wlam)
            ms = restriction_multiset(ctx, s, flip)
            prefactor = (-1) ** sum(ms.values())
            coeff = Fraction(sign * prefactor) * varpi
            term = convolve(dirac(ctx.q_u(wlam)), convolve_multiset(ms, cfg.step_bound))
            for wgt, c in term.coeffs.items():
                acc[wgt] = acc.get(wgt, Fraction(0)) + coeff * c
            regions.extend(term.regions)
    return _integral_series(acc, tuple(regions))


def check_antisymmetry(ctx: QuaternionicContext, series: DeltaSeries):
    """On the certified region: zero on the S_b wall, odd across it."""
    problems = []
    for wgt in series.coeffs:
        if inner(ctx.form, wgt, ctx.beta) == 0:
            problems.append(("wall", wgt, series.coeffs[wgt]))
    for wgt, c in series.coeffs.items():
        mirror = apply_matrix(ctx.s_beta, wgt)
        cm = series.coefficient(mirror)
        if cm is None or not series.certain_at(wgt):
            continue
        if cm != -c:
            problems.append(("mirror", wgt, (c, cm)))
    return problems


def extract_multiplicities(ctx: OracleContext, series: DeltaSeries) -> BranchingTable:
    """Branching table read off the positive side of the antisymmetrized series.

    Only certified weights are reported; a negative coefficient on the
    positive side signals an antisymmetrization failure (bug or insufficient
    truncation) and raises InternalError, as does a failed family check.
    """
    entries = {}
    for wgt, c in series.coeffs.items():
        if not ctx.positive_side(wgt) or not series.certain_at(wgt):
            continue
        ctx.check_extracted(series, wgt, c)
        if c < 0:
            raise InternalError(f"antisymmetrization failure at {wgt}: coefficient {c}")
        entries[wgt] = c
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
    skipped."""
    oracle_table = extract_multiplicities(ctx, series)
    candidates = set(closed.entries) | set(oracle_table.entries)
    mismatches = []
    compared = 0
    for mu in sorted(candidates):
        if not ctx.positive_side(mu):
            continue
        if coroot_pairing(ctx.form, mu, ctx.beta) > closed.pairing_bound:
            continue  # outside the closed table's completeness region
        got = series.coefficient(mu)
        if got is None:
            continue  # not certified by the truncation
        compared += 1
        want = closed.entries.get(mu, 0)
        if got != want:
            mismatches.append((mu, want, got))
    return ComparisonReport(not mismatches, compared, tuple(mismatches))


def verify_closed_form(ctx: QuaternionicContext, lam: Weight, cfg: OracleConfig) -> ComparisonReport:
    """Closed-form table at cutoff = step bound against the oracle series."""
    series = restriction_series(ctx, lam, cfg)
    return compare(ctx, series, branching_table(ctx, lam, cfg.step_bound))
