"""Independent evaluation of the distributional branching formulas.

For a quaternionic form the restriction of a discrete series to the su(2,1)
subgroup, and for sp(1,q) the restriction to the sp(1,1) subgroup, is
encoded by a signed coset sum of convolved Heaviside series over
per-element multisets; antisymmetrizing in the reflection S_b and reading off
the coefficients on the positive side recovers the branching multiplicities.
This module evaluates that sum with exact truncation bookkeeping and extracts
tables to compare against the closed form.  Both families run through the
same functions on one ``quaternionic.SubgroupContext``.

The cosets W_Z\\W(K2), W_Z generated by the kernel roots, are enumerated as
the W(K2)-orbit of one vector whose stabilizer is W_Z, never as the whole
group, so every quaternionic family is in reach (56 cosets for e8_m24).
W(K2) permutes the noncompact positive roots, so each flip has one term
multiset for all cosets.

What depends only on the form is built once per process, lazily, as integer
data (``oracle_plan``): one chart per form and kind (the projection's image:
rank 2 for the branching series, rank 1 for the torus identity), each flip's
multiset as chart points, and per (coset, flip) the int maps from the scaled
parameter to the term's base point and kernel-root pairings (``CosetSum``).
A request scales lam to ints once and runs its coset loop on ints.  Every
per-parameter check runs on every request, so results do not depend on the
order of requests.  The coset count needs no bound of its own: it is n
on su2_n:n, at most 2n on so4_n:n, 2q on sp1_q:q and at most 56 on the
exceptional forms, and the form's root data take longer to build than
the walk.

Sign normalization: expanding each factor 1/(e^{x/2} - e^{-x/2}) of a Weyl
denominator into an ascending Heaviside series contributes one factor of -1,
so every coset term carries the prefactor (-1)^(number of Heaviside factors).
The torus restriction identity (whose left side is computable directly from
the weight table) pins this convention down empirically, and positivity of
the extracted multiplicities confirms it on the full formula.

Products, certification, evaluation, extraction and comparison run on int
points: the extracted table is keyed by chart points, and a closed table
keyed by int labels reaches them through one int map.  Weights are mapped
back only for mismatches, errors and a family's check.  A request builds
each term's base point and int numerator once and returns a
``formal.ProductSum``: the conjunction of the per-term truncation regions,
stated per point.  A term certifies a point when the offset from its base
lies in its product's step-bound window, where the term adds its value, or
has no decomposition over the product's directions at all; the sum of a
certified point is divided once, exactly.  A certified
point with a nonzero coefficient lies in some term's window, so extraction
evaluates only the positive-side points of the union of the windows, and
comparison adds only the closed table's entries; neither reads the dense
series.  The sizes of the closed table, the products and the windows are
checked against the dimension bound before they are built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DomainError, InternalError
from .formal import DeltaSeries, ProductSum, convolve_multiset, product_size
from .lattice import (
    Chart,
    InnerProductForm,
    Weight,
    coroot_pairing,
    format_weight,
    inner,
    int_point,
    is_zero,
    map_point,
    reflect,
    scaled_point,
    zero_weight,
)
from .quaternionic import (
    BranchingTable,
    QuaternionicContext,
    SubgroupContext,
    _branching_table,
    decompose_parameter,
    lam2_weight_table,
    require_proper_subgroup,
    validate_small_dominant,
)
from .repweights import check_size, restrict_weights
from .rootsystems import half_sum


@dataclass(frozen=True)
class OracleConfig:
    """Truncation depth of the Heaviside series."""

    step_bound: int = 12

    def __post_init__(self):
        if self.step_bound <= 0:
            raise DomainError("the oracle step bound must be positive")


@functools.lru_cache(maxsize=None)
def _weyl_normalizer(ctx: SubgroupContext) -> Fraction:
    """The kernel-root product at rho_Z, their half-sum (memoized per context)."""
    rho_z = half_sum(ctx.form.dim, ctx.kernel_positive)
    den = Fraction(1)
    for g in ctx.kernel_positive:
        den *= inner(ctx.form, rho_z, g)
    return den


def compact_quotient_weights(ctx: SubgroupContext) -> dict:
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


def _reflect_scaled(v: tuple, a: tuple, aa: int) -> tuple:
    """The reflection of the scaled vector v = (X, D) in the int root a, with
    aa = (a, a), as a scaled vector in lowest terms."""
    x, d = v
    k = 2 * sum(map(mul, x, a))
    y = [xi * aa - k * ai for xi, ai in zip(x, a)]
    g = gcd(d * aa, *y)
    return tuple(yi // g for yi in y), d * aa // g


def _kernel_cosets(ctx: SubgroupContext, vectors=()) -> tuple:
    """Minimal representatives s of the right cosets W_Z\\W(K2), in order of
    length, as (reduced word, images s^T x of the vectors x, all as
    ``scaled_point`` pairs); s is the product of the word's simple
    reflections, left to right.

    W_Z, the reflection group of the kernel roots, is the stabilizer in
    W(K2) of v = q_u_k2(g) for a k2 root g outside the kernel (a stabilizer is
    generated by the reflections it contains), so the cosets W_Z s are in
    bijection with the orbit points s^T v.  A breadth-first walk over the
    orbit by simple reflections reaches each point first along a shortest
    word, whose inverse is the minimal representative; see Bjorner-Brenti,
    Combinatorics of Coxeter Groups, 2.4.  A step s -> s g reflects v and
    every carried image in g, in int arithmetic at O(dim) each.
    """
    form = ctx.form
    kernel = set(ctx.kernel_positive)
    positive = ctx.k2_factor.positive
    # with every k2 root in the kernel, v = 0 has all of W(K2) = W_Z as stabilizer
    v = next((ctx.q_u_k2(g) for g in positive if g not in kernel), zero_weight(form.dim))
    if {g for g in positive if inner(form, g, v) == 0} != kernel:
        raise InternalError("the orbit vector's stabilizer is not the kernel-root group")
    simple = [(a, sum(map(mul, a, a))) for a, _ in map(scaled_point, ctx.k2_factor.simple)]
    # W(K2) permutes the noncompact positive roots, so every coset of one flip
    # has the multiset of the identity
    noncompact = set(map(scaled_point, ctx.noncompact_positive))
    if any({_reflect_scaled(x, a, aa) for x in noncompact} != noncompact for a, aa in simple):
        raise InternalError("a compact-factor reflection moves a noncompact positive root")
    first = ((), (scaled_point(v), *vectors))
    reps = [first]
    orbit = {first[1][0]}
    frontier = [first]
    while frontier:
        nxt = []
        for word, images in frontier:
            for i, (a, aa) in enumerate(simple):
                y = _reflect_scaled(images[0], a, aa)
                if y in orbit:
                    continue
                orbit.add(y)
                rep = (word + (i,), (y, *(_reflect_scaled(x, a, aa) for x in images[1:])))
                reps.append(rep)
                nxt.append(rep)
        frontier = nxt
    return tuple((word, images[1:]) for word, images in reps)


@dataclass(frozen=True, eq=False)
class CosetSum:
    """One kind of coset sum as integer data.  For lam with common
    denominator den and L = den * lam, the term of a coset s and a flip has
    its base at the point A L of ``chart`` rescaled by den, and coefficient
    factor * prod(c . L) / (denominator * den**len(c's)) over its kernel
    covectors c.  ``factor`` is the sign of s, negated for the flip, times
    the Heaviside prefactor; ``multisets`` hold each flip's directions as
    sorted (point, multiplicity) items of ``chart``."""

    chart: Chart      # the projection's image at the base scale s0
    terms: tuple      # (A, kernel covectors, factor, index into multisets) per (coset, flip)
    multisets: tuple
    denominator: Fraction


@dataclass(frozen=True, eq=False)
class OraclePlan:
    """What the coset sums of one form read besides the parameter."""

    words: tuple[tuple[int, ...], ...]   # minimal representatives of W_Z\\W(K2)
    series: CosetSum    # both flips, projected onto the subgroup torus
    torus: CosetSum     # the quotient multiset unflipped, onto the su(2) torus in k2


def _reflections(form: InnerProductForm, roots):
    """The product of the reflections in roots, as a function on weights."""
    return lambda w: functools.reduce(lambda x, g: reflect(form, x, g), roots, w)


def _coset_sum(ctx: SubgroupContext, cosets, chart: Chart, project, flips, noncompact) -> CosetSum:
    """The integer data of one kind of coset sum.  ``cosets`` holds per coset
    its word and, per flip, the scaled images of the flipped chart covectors,
    then of the flipped kernel roots.  A flip's directions are the quotient
    weights and the flipped noncompact roots' projections."""
    coords, r = chart.coords, len(chart.coords)
    h_roots = {tuple(h[c] for c in coords) for h in ctx.h_roots if project(h) == h}
    quotient = {tuple(w[c] for c in coords): m for w, m in compact_quotient_weights(ctx).items()}
    multisets = []
    for images in cosets[0][1]:
        ms = dict(quotient)
        for g, k in map(scaled_point, noncompact):
            p = tuple(Fraction(sum(map(mul, x, g)), d * k) for x, d in images[:r])
            if not any(p):
                raise InternalError("noncompact root projects to zero")
            if p not in h_roots:
                ms[p] = ms.get(p, 0) + 1
        multisets.append(ms)
    s0 = 2 * lcm(1, *(d for _, per_flip in cosets for images in per_flip for _, d in images[:r]),
                 *(x.denominator for ms in multisets for p in ms for x in p))
    t = lcm(1, *(d for _, per_flip in cosets for images in per_flip for _, d in images[r:]))
    prefactors = [(-1) ** sum(ms.values()) for ms in multisets]
    terms = tuple(
        (tuple(tuple(s0 // d * xi for xi in x) for x, d in images[:r]),
         tuple(tuple(t // d * xi for xi in x) for x, d in images[r:]),
         (-1) ** (len(word) + flip) * prefactors[i], i)
        for word, per_flip in cosets for i, (flip, images) in enumerate(zip(flips, per_flip))
    )
    return CosetSum(
        chart.at_scale(s0),
        terms,
        tuple(tuple(sorted((int_point(p, s0), m) for p, m in ms.items())) for ms in multisets),
        _weyl_normalizer(ctx) * t ** len(ctx.kernel_positive),
    )


@functools.lru_cache(maxsize=None)
def oracle_plan(ctx: SubgroupContext) -> OraclePlan:
    """The form's plan (memoized per context)."""
    dim, flipped = ctx.form.dim, _reflections(ctx.form, (ctx.beta,))
    kinds = ((ctx.q_u, (False, True), ctx.noncompact_positive), (ctx.q_u_k2, (False,), ()))
    charts = []  # (chart of the image, covectors m_c with project(v)[c] = (m_c, v))
    for project, _, _ in kinds:
        images = [project(tuple(Fraction(i == j) for j in range(dim))) for i in range(dim)]
        chart = Chart(images)
        charts.append((chart, [tuple(img[c] for img in images) for c in chart.coords]))
    # per kind and flip, the vectors its terms read: the chart covectors,
    # then the kernel roots, flipped; the walk carries each distinct one once
    reads = []
    for (_, flips, _), (_, rows) in zip(kinds, charts):
        vs = (*rows, *ctx.kernel_positive)
        reads.append([tuple(map(flipped, vs)) if flip else vs for flip in flips])
    index = {v: i for i, v in enumerate(dict.fromkeys(v for kind in reads for vs in kind for v in vs))}
    cosets = _kernel_cosets(ctx, [scaled_point(v) for v in index])
    series, torus = (
        _coset_sum(ctx, [(word, [[images[index[v]] for v in vs] for vs in kind])
                         for word, images in cosets], chart, project, flips, noncompact)
        for (project, flips, noncompact), (chart, _), kind in zip(kinds, charts, reads)
    )
    return OraclePlan(tuple(word for word, _ in cosets), series, torus)


@functools.lru_cache(maxsize=None)
def mirror_maps(ctx: SubgroupContext) -> tuple:
    """(``Chart.linear_map``, sign) per ``ctx.mirrors`` on the plan's series
    chart, at any scale (memoized per context)."""
    chart = oracle_plan(ctx).series.chart
    return tuple((chart.linear_map(_reflections(ctx.form, roots)), sign)
                 for roots, sign in ctx.mirrors)


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


def _coset_series(ctx: SubgroupContext, lam: Weight, cfg: OracleConfig,
                  torus: bool = False) -> ProductSum:
    """Signed distributional series of one loop over the plan's cosets s.

    Each (coset, flip) term, with w lam = S_b s lam when flipped and s lam
    otherwise, contributes sign * prefactor * weylpoly(w lam) at the
    projection of w lam, convolved with the Heaviside series of its flip's
    multiset: the branching series, or with ``torus`` (lam the k2 part) the
    right side of the torus identity.  On the plan's integer data, each
    term's base point and int numerator are computed once; the returned
    ``ProductSum`` evaluates the memoized products at the points it is
    asked for, over one denominator.  The sizes of the products and of the
    terms' windows are checked against the dimension bound before they are
    built.  The caller validates lam.
    """
    plan = oracle_plan(ctx)
    kind = plan.torus if torus else plan.series
    point, den = scaled_point(lam)
    multisets = [{tuple(den * x for x in d): m for d, m in ms} for ms in kind.multisets]
    for ms in multisets:
        check_size(product_size(ms, cfg.step_bound),
                   f"a Heaviside product at step bound {cfg.step_bound}")
    products = tuple(convolve_multiset(ms, cfg.step_bound) for ms in multisets)
    terms = []
    for maps, kernel, num, i in kind.terms:
        for c in kernel:
            num *= sum(map(mul, c, point))
        if not num:
            raise InternalError("Weyl polynomial vanished on a coset representative")
        terms.append((tuple(sum(map(mul, row, point)) for row in maps), num, i))
    # every term's coefficient is its numerator over this one denominator
    series = ProductSum(tuple(terms), products,
                        kind.denominator * den ** len(ctx.kernel_positive),
                        kind.chart.at_scale(kind.chart.scale * den))
    check_size(series.window_size(), f"the oracle's windows at step bound {cfg.step_bound}")
    return series


def restriction_series(ctx: QuaternionicContext, lam: Weight, cfg: OracleConfig) -> ProductSum:
    """Signed distributional series of a quaternionic parameter (see _coset_series)."""
    require_proper_subgroup(
        ctx, "the oracle needs a Heaviside direction to convolve, that is d >= 2 "
        "noncompact root pairs")
    validate_small_dominant(ctx, lam)
    return _coset_series(ctx, lam, cfg)


def _side(ctx: SubgroupContext, chart: Chart):
    """Positive-side test on the integer points of chart."""
    covectors = [chart.functional(lambda w, g=g: inner(ctx.form, w, g))[0]
                 for g in ctx.side_roots]
    return lambda p: all(sum(map(mul, f, p)) > 0 for f in covectors)


def check_antisymmetry(ctx: SubgroupContext, series: ProductSum):
    """On the certified region of a branching series of ctx: zero on the S_b
    wall, odd across it, with every mirror point on the chart lattice."""
    chart = series.chart
    wall, _ = chart.functional(lambda w: inner(ctx.form, w, ctx.beta))
    mirror, _ = mirror_maps(ctx)[0]  # S_b
    problems = [
        ("wall", chart.to_weight(p), c)
        for p, c in series.coeffs.items()
        if not sum(map(mul, wall, p)) and series.certain_at(p)
    ]
    for p, c in series.coeffs.items():
        q = map_point(mirror, p)
        if q is None:
            problems.append(("mirror", chart.to_weight(p), "off the lattice"))
            continue
        cm = series.coefficient(q)
        if cm is None or not series.certain_at(p):
            continue
        if cm != -c:
            problems.append(("mirror", chart.to_weight(p), (c, cm)))
    return problems


def extract_multiplicities(ctx: SubgroupContext, series: ProductSum) -> BranchingTable:
    """Branching table read off the positive side of the antisymmetrized series.

    Only certified weights are reported; a negative coefficient on the
    positive side signals an antisymmetrization failure (bug or insufficient
    truncation) and raises InternalError, as does a failed family check.
    Every certified nonzero coefficient lies in some term's window, so only
    the windows' positive-side points are evaluated.  The table is keyed by
    the series' chart points.
    """
    chart = series.chart
    positive = _side(ctx, chart)
    entries = {}
    for p in series.candidate_points():
        if not positive(p):
            continue
        c = series.coefficient(p)
        if not c:  # uncertified, or certified zero
            continue
        ctx.check_extracted(series, p, c)
        if c < 0:
            raise InternalError(f"antisymmetrization failure at "
                                f"{format_weight(chart.to_weight(p))}: coefficient {c}")
        entries[p] = c
    return BranchingTable(entries, None, ctx.rd.label, None, chart)


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    agree: bool
    compared: int
    mismatches: tuple


def compare(ctx: SubgroupContext, series: ProductSum, closed: BranchingTable) -> ComparisonReport:
    """Compare a closed-form table against the oracle extraction on the full
    certified region.  Every candidate parameter (from either side) within
    the closed table's pairing bound that the truncated series certifies
    must match exactly; uncertified candidates are skipped.

    Candidates are the extracted entries (the windows' certified positive
    points) and the closed table's entries, both as chart points: a closed
    table keyed by ints is mapped by one int map (``BranchingTable.points_on``).
    The pairing bound is an exact integer covector test on points.  Only
    closed entries missing from the extraction are evaluated here.
    Mismatches are (weight, closed, oracle) triples sorted by weight.
    """
    chart = series.chart
    covector, den = chart.functional(lambda w: coroot_pairing(ctx.form, w, ctx.beta))
    bound = closed.pairing_bound

    def within(p):  # <mu, beta-check> = covector . p / den <= bound
        return sum(map(mul, covector, p)) * bound.denominator <= bound.numerator * den

    candidates = {p: (m, None) for p, m in closed.points_on(chart).items()}
    for p, got in extract_multiplicities(ctx, series).points_on(chart).items():
        candidates[p] = candidates.get(p, (0,))[0], got
    positive = _side(ctx, chart)
    mismatches = []
    compared = 0
    for p, (want, got) in candidates.items():
        if not within(p):
            continue
        if got is None:
            if not positive(p):
                continue
            got = series.coefficient(p)
            if got is None:
                continue  # not certified by the truncation
        compared += 1
        if got != want:
            mismatches.append((chart.to_weight(p), want, got))
    mismatches.sort()
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
